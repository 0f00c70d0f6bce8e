"""Command-line entry point: ingest, annotate, evaluate, simulate, compare.

Configuration precedence is flags > config file > environment; endpoint
secrets travel only through the environment (EVALKIT_LLM_ENDPOINT,
EVALKIT_LLM_MODEL). Every output artifact embeds the seed and a hash of
the effective configuration in its header record, so offline re-runs with
the same inputs reproduce outputs byte for byte.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 connector failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from collections import Counter
from dataclasses import replace
from itertools import chain, islice
from typing import Any, Mapping, Sequence

from .analysis import reliability_report
from .annotation import LlmAnnotator, RuleAnnotator, iter_annotated, load_rule_lexicon
from .catalog import ItemCatalog, load_catalog
from .connectors import (
    CrsEndpoint,
    GatewayOptions,
    HttpCrsConnector,
    HttpLlmGateway,
    MockLlmGateway,
    make_stub,
)
from .corpus_io import (
    dialogue_record,
    iter_corpus,
    iter_records,
    serialize_corpus,  # noqa: F401  (unused; a patch point of bench/spans.py)
    write_corpus,
    write_records,
)
from .dialogue import (
    ACCEPT,
    DialogueAct,
    ITEM_SLOT,
    IntentSchema,
    RECOMMEND,
    REJECT,
    default_schema,
    simulation_schema,
)
from .errors import (
    ConnectorError,
    CorpusFormatError,
    EvalkitError,
    GatewayError,
    SimulationError,
)
from .metrics import MetricReport, check_metric_names, evaluate_system
from .simulation import (
    AgendaSimulator,
    GoalConfig,
    LlmSimulator,
    RunLimits,
    generate_corpus,
    load_interaction_model,
)

ENV_LLM_ENDPOINT = "EVALKIT_LLM_ENDPOINT"
ENV_LLM_MODEL = "EVALKIT_LLM_MODEL"
# Secrets travel only via the environment, never flags or config files.
ENV_LLM_TOKEN = "EVALKIT_LLM_TOKEN"
ENV_CRS_TOKEN = "EVALKIT_CRS_TOKEN"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIGURATION = 2
EXIT_CONNECTOR = 3

JOBS_HELP = (
    "worker threads (default 1), each on one conversation or utterance at a time, "
    "at most 4 x jobs in flight, results in seed or input order; they help only live, "
    "I/O-bound runs, as offline runs are CPU-bound under the GIL; rule-mode annotate "
    "ignores it"
)

# Built-in few-shot examples so llm-mode annotation works without an
# examples file; callers with a tuned prompt should pass their own.
DEFAULT_FEW_SHOT = (
    (
        "Have you seen Heat? It is a classic crime film.",
        (DialogueAct(RECOMMEND, ((ITEM_SLOT, "Heat"),)),),
    ),
    (
        "Great, I'll watch that one tonight, thanks!",
        (DialogueAct(ACCEPT),),
    ),
    (
        "Not a fan of horror. Anything lighter?",
        (DialogueAct(REJECT),),
    ),
)


class ConfigError(EvalkitError):
    """Bad command-line or file configuration."""


def _stamp(settings: Mapping[str, Any]) -> dict[str, Any]:
    """The ``seed`` and ``config_hash`` header fields of every output."""
    canonical = json.dumps(settings, sort_keys=True, separators=(",", ":"))
    config_hash = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
    return {"seed": settings["seed"], "config_hash": config_hash}


def _load_config_file(path: str | None) -> dict[str, Any]:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            loaded = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return loaded


def _resolve(flag_value, config: Mapping[str, Any], key: str, env_var: str | None = None):
    """flags > config file > environment."""
    if flag_value is not None:
        return flag_value
    if key in config:
        return config[key]
    if env_var:
        return os.environ.get(env_var)
    return None


def _load_schema(path: str | None, simulation: bool = False) -> IntentSchema:
    if path is None:
        return simulation_schema() if simulation else default_schema()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
        return IntentSchema.from_record(record)
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(f"cannot load intent schema from {path}: {exc}") from exc


def _llm_gateway_factory(args: argparse.Namespace, config: Mapping[str, Any], user: str):
    """A factory returning a fresh gateway per conversation, for ``user``
    (``llm mode`` of annotate, ``llm-us`` of simulate).

    The endpoint and model come from flags > config file > environment.
    ``mock:<path>`` endpoints load a JSON array of scripted replies; each
    conversation replays the script from the start, which keeps batch
    generation deterministic.
    """
    endpoint = _resolve(args.llm_endpoint, config, "llm_endpoint", ENV_LLM_ENDPOINT)
    model = _resolve(args.llm_model, config, "llm_model", ENV_LLM_MODEL)
    if not endpoint:
        raise ConfigError(
            f"{user} needs an endpoint (flag --llm-endpoint, config key "
            f"llm_endpoint, or {ENV_LLM_ENDPOINT})"
        )
    if endpoint.startswith("mock:"):
        script_path = endpoint[len("mock:"):]
        try:
            with open(script_path, "r", encoding="utf-8") as handle:
                replies = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load mock script {script_path}: {exc}") from exc
        if not isinstance(replies, list) or not all(isinstance(r, str) for r in replies):
            raise ConfigError(f"mock script {script_path} must be a JSON array of strings")
        return lambda: MockLlmGateway(replies=list(replies))
    options = GatewayOptions(
        endpoint=endpoint, model=model or "default", auth_token=os.environ.get(ENV_LLM_TOKEN)
    )
    gateway = HttpLlmGateway(options)
    return lambda: gateway


def _build_connector(spec: str, catalog: ItemCatalog | None, stub_item: str | None):
    if spec.startswith("stub:"):
        name = spec[len("stub:"):]
        if name == "always-recommend":
            item = stub_item or (catalog.items[0].item_id if catalog else None)
            if item is not None:
                return make_stub(name, item_id=item)
        return make_stub(name)
    return HttpCrsConnector(
        CrsEndpoint(
            crs_id=spec, endpoint=spec, auth_token=os.environ.get(ENV_CRS_TOKEN)
        )
    )


def _read_score_map(path: str, metric: str | None) -> dict[str, float]:
    """Read per-system scores from a plain map or a metric report file."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        whole = json.loads(raw)
    except ValueError:
        whole = None
    if isinstance(whole, dict) and "metric" not in whole and "schema_version" not in whole:
        try:
            return {str(k): float(v) for k, v in whole.items()}
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path} is not a numeric score map: {exc}") from exc

    # Otherwise treat it as a newline-delimited metric report file.
    try:
        reports = [MetricReport.from_record(r) for _, r in iter_records(raw) if "metric" in r]
    except (CorpusFormatError, KeyError, TypeError, ValueError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"cannot parse scores from {path}: {detail}") from exc
    if not reports:
        raise ConfigError(f"no metric records in report file {path}")
    if metric is not None:
        matches = [r for r in reports if r.metric.lower() == metric.lower()]
        if not matches:
            names = ", ".join(r.metric for r in reports)
            raise ConfigError(
                f"metric {metric!r} not in report file {path} (has: {names})"
            )
        return dict(matches[0].per_system)
    if len(reports) > 1:
        names = ", ".join(r.metric for r in reports)
        raise ConfigError(
            f"report file {path} holds several metrics ({names}); use --metric"
        )
    return dict(reports[0].per_system)


def _load_ground_truth(path: str) -> dict[tuple[str, int], set[str]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load ground truth from {path}: {exc}") from exc
    mapping: dict[tuple[str, int], set[str]] = {}
    for dialogue_id, per_turn in raw.items():
        for index, items in per_turn.items():
            mapping[(dialogue_id, int(index))] = set(items)
    return mapping


def _stream_inputs(paths: Sequence[str], schema: IntentSchema, header: dict[str, Any]):
    """Each file's dialogues in turn, ids unique across files; ``header``
    ends as the last file's header, and format errors name the file."""
    seen_ids: set[str] = set()
    for path in paths:
        header.clear()
        with open(path, "rb") as handle:
            try:
                yield from iter_corpus(handle, schema, header, seen_ids)
            except CorpusFormatError as exc:
                raise CorpusFormatError(exc.line_number, f"{exc.reason} in {path}") from exc


def cmd_ingest(args: argparse.Namespace) -> int:
    schema = _load_schema(args.schema)
    with open(args.input, "rb") as handle:
        counts = Counter(dialogue.crs_id for dialogue in iter_corpus(handle, schema))
    width = max([len(c) for c in counts] + [len("total")])
    print(f"{'system'.ljust(width)}  dialogues")
    for crs_id in sorted(counts):
        print(f"{crs_id.ljust(width)}  {counts[crs_id]}")
    print(f"{'total'.ljust(width)}  {counts.total()}")
    return EXIT_OK


def cmd_annotate(args: argparse.Namespace) -> int:
    config_file = _load_config_file(args.config)
    schema = _load_schema(args.schema)
    if args.mode == "llm":
        gateway = _llm_gateway_factory(args, config_file, "llm mode")()
        annotator = LlmAnnotator(schema, gateway, DEFAULT_FEW_SHOT)
    else:
        catalog = load_catalog(args.catalog) if args.catalog else None
        lexicon = load_rule_lexicon(args.lexicon) if args.lexicon else None
        annotator = RuleAnnotator(schema, lexicon, catalog)
    settings = {
        "command": "annotate",
        "mode": args.mode,
        "overwrite": args.overwrite,
        "seed": args.seed,
    }
    input_header: dict[str, Any] = {}
    with open(args.input, "rb") as handle:
        dialogues = iter_corpus(handle, schema, input_header)
        annotated = iter_annotated(dialogues, annotator, args.overwrite, args.jobs)
        records = map(dialogue_record, annotated)
        # Drawing the first record reads the input header.
        first = list(islice(records, 1))
        version = str(input_header.pop("schema_version", "1"))
        header = {"schema_version": version, **input_header, **_stamp(settings)}
        count = write_records(args.output, header, chain(first, records))
    print(f"annotated {count} dialogue(s) -> {args.output}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    try:
        metrics = check_metric_names([m.strip() for m in args.metrics.split(",") if m.strip()])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    ground_truth = _load_ground_truth(args.ground_truth) if args.ground_truth else None
    if "recall" in metrics and ground_truth is None:
        raise ConfigError("metric recall needs --ground-truth")
    schema = _load_schema(args.schema)

    input_header: dict[str, Any] = {}
    dialogues = _stream_inputs(args.input, schema, input_header)
    reports = evaluate_system(dialogues, metrics, ground_truth=ground_truth, n=args.n)
    settings = {
        "command": "evaluate",
        "metrics": metrics,
        "n": args.n,
        "seed": args.seed,
    }
    version = str(input_header.get("schema_version", "1"))
    header = {"schema_version": version, **_stamp(settings)}
    write_records(args.output, header, [r.to_record() for r in reports])
    for report in reports:
        for crs_id in sorted(report.per_system):
            print(f"{report.metric}\t{crs_id}\t{report.per_system[crs_id]:.6f}")
    print(f"wrote {len(reports)} report(s) -> {args.output}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    config_file = _load_config_file(args.config)

    def setting(flag_value, key, fallback):
        value = _resolve(flag_value, config_file, key)
        return fallback if value is None else value

    n = int(setting(args.n, "n", 200))
    seed = int(setting(args.seed, "seed", 0))
    jobs = int(setting(args.jobs, "jobs", 1))
    max_utterances = int(setting(args.max_utterances, "max_utterances", 20))
    timeout = float(setting(args.timeout, "timeout", 30.0))

    schema = _load_schema(args.schema, simulation=True)
    catalog = load_catalog(args.catalog)
    connector = _build_connector(args.crs, catalog, args.stub_item)

    if args.simulator == "abus":
        model = load_interaction_model(args.interaction_model) if args.interaction_model else None
        simulator = AgendaSimulator(catalog=catalog, schema=schema, model=model)
    elif args.simulator == "llm-us":
        simulator = LlmSimulator(
            _llm_gateway_factory(args, config_file, "llm-us"),
            annotator=RuleAnnotator(schema, catalog=catalog),
        )
    else:
        raise ConfigError(f"unknown simulator {args.simulator!r}; use abus or llm-us")

    slots = catalog.slots()
    constraint_slots = (
        tuple(s.strip() for s in args.constraint_slots.split(",") if s.strip())
        if args.constraint_slots
        else slots
    )
    request_slots = (
        tuple(s.strip() for s in args.request_slots.split(",") if s.strip())
        if args.request_slots
        else slots
    )
    goal_config = GoalConfig(
        constraint_slots=constraint_slots, request_slots=request_slots
    )
    limits = RunLimits(
        max_utterances=max_utterances,
        per_call_timeout=timeout,
        seed=seed,
    )
    corpus = generate_corpus(
        simulator,
        connector,
        n,
        catalog=catalog,
        goal_config=goal_config,
        limits=limits,
        jobs=jobs,
    )
    settings = {
        "command": "simulate",
        "simulator": args.simulator,
        "crs": args.crs,
        "n": n,
        "seed": seed,
        "max_utterances": max_utterances,
    }
    write_corpus(replace(corpus, extra={**corpus.extra, **_stamp(settings)}), args.output)
    failures = corpus.extra.get("failures", [])
    print(
        f"generated {len(corpus)} dialogue(s), {len(failures)} failure(s) "
        f"-> {args.output}"
    )
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    reference = _read_score_map(args.reference, args.metric)
    satisfaction = _read_score_map(args.satisfaction, None)
    records = []
    for spec in args.candidate:
        name, _, path = spec.partition("=")
        if not path:
            name, path = os.path.basename(spec), spec
        candidate = _read_score_map(path, args.metric)
        if not set(candidate) & set(reference):
            raise ValueError(
                f"candidate {name!r} and reference share no systems"
            )
        report = reliability_report(
            reference,
            candidate,
            satisfaction,
            reference_name=args.reference_name,
            candidate_name=name,
        )
        records.append(report.to_record())
        print(
            f"{name}: tau_b={report.tau_b_vs_satisfaction:.3f} "
            f"avg_abs_diff={report.average_abs_diff:.4f} "
            f"systems={len(report.systems_compared)}"
        )
    header = {"schema_version": "1", **_stamp({"command": "compare", "seed": args.seed})}
    write_records(args.output, header, records)
    print(f"wrote {len(records)} reliability report(s) -> {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evalkit",
        description=(
            "Evaluate conversational recommender systems with user-utility "
            "metrics and goal-driven user simulation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="parse and validate a corpus, print counts")
    ingest.add_argument("--input", required=True)
    ingest.add_argument("--schema")
    ingest.set_defaults(func=cmd_ingest)

    annotate = sub.add_parser("annotate", help="assign dialogue acts to a corpus")
    annotate.add_argument("--input", required=True)
    annotate.add_argument("--output", required=True)
    annotate.add_argument("--mode", choices=("rule", "llm"), default="rule")
    annotate.add_argument("--overwrite", action="store_true")
    annotate.add_argument("--schema")
    annotate.add_argument("--catalog")
    annotate.add_argument("--lexicon")
    annotate.add_argument("--llm-endpoint")
    annotate.add_argument("--llm-model")
    annotate.add_argument("--config")
    annotate.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    annotate.add_argument("--seed", type=int, default=0)
    annotate.set_defaults(func=cmd_annotate)

    evaluate = sub.add_parser("evaluate", help="compute metrics, write reports")
    evaluate.add_argument("--input", action="append", required=True)
    evaluate.add_argument("--output", required=True)
    evaluate.add_argument("--metrics", default="sr,srrr,rdl")
    evaluate.add_argument("--ground-truth")
    evaluate.add_argument("--n", type=int, default=1)
    evaluate.add_argument("--schema")
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.set_defaults(func=cmd_evaluate)

    simulate = sub.add_parser("simulate", help="generate a synthetic corpus")
    simulate.add_argument("--simulator", choices=("abus", "llm-us"), required=True)
    simulate.add_argument("--crs", required=True, help="stub:<name> or endpoint URL")
    simulate.add_argument("--catalog", required=True)
    simulate.add_argument("-n", type=int, default=None, help="dialogues to generate (default 200)")
    simulate.add_argument("--output", required=True)
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--jobs", type=int, default=None, help=JOBS_HELP)
    simulate.add_argument("--max-utterances", type=int, default=None)
    simulate.add_argument("--timeout", type=float, default=None, help="per-call timeout seconds")
    simulate.add_argument("--interaction-model")
    simulate.add_argument("--constraint-slots")
    simulate.add_argument("--request-slots")
    simulate.add_argument("--stub-item")
    simulate.add_argument("--llm-endpoint")
    simulate.add_argument("--llm-model")
    simulate.add_argument("--schema")
    simulate.add_argument("--config")
    simulate.set_defaults(func=cmd_simulate)

    compare = sub.add_parser(
        "compare", help="rank candidates against a reference, write reliability"
    )
    compare.add_argument(
        "--candidate",
        action="append",
        required=True,
        help="name=path of a score map or report file (repeatable)",
    )
    compare.add_argument("--reference", required=True)
    compare.add_argument("--satisfaction", required=True)
    compare.add_argument("--output", required=True)
    compare.add_argument("--metric", help="metric to pick from report files")
    compare.add_argument("--reference-name", default="reference")
    compare.add_argument("--seed", type=int, default=0)
    compare.set_defaults(func=cmd_compare)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIGURATION
    except (ConnectorError, GatewayError, SimulationError) as exc:
        print(f"connector error: {exc}", file=sys.stderr)
        return EXIT_CONNECTOR
    except (EvalkitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
