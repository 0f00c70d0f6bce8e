"""Command-line entry point: ingest, annotate, evaluate, simulate, compare.

Each setting comes from its flag, else the config file, else the
environment (EVALKIT_LLM_ENDPOINT, EVALKIT_LLM_MODEL), else its default;
endpoint secrets travel only through the environment (EVALKIT_LLM_TOKEN,
EVALKIT_CRS_TOKEN). Every output artifact embeds the seed and a hash of
the effective configuration in its header record, so offline re-runs with
the same inputs reproduce outputs byte for byte.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 connector failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (
    AnnotationError,
    ConnectorError,
    CorpusFormatError,
    EvalkitError,
    GatewayError,
    SchemaViolationError,
    SimulationError,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing at run time
if TYPE_CHECKING:
    from typing import Any, Mapping, Sequence

    from .catalog import ItemCatalog
    from .dialogue import IntentSchema

# Each command imports the evalkit modules it runs, so a cold start pays
# only for those. bench/spans.py wraps these four names on this module for
# traced runs, so they load through ``__getattr__`` and the commands call
# them as attributes of ``_CLI``: a wrapped value is the one called.
# (``serialize_corpus`` is unused here.)
_PATCH_POINTS = ("load_catalog", "serialize_corpus", "evaluate_system", "reliability_report")
_CLI = sys.modules[__name__]

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
    "and llm-mode annotate on a mock: endpoint (its scripted replies go out in call "
    "order) ignore it and run inline"
)

# Every setting a flag or the config file can set, keyed by the flag's dest
# and the config key: the JSON type the file must give it and that type's
# name, its default, its lowest allowed value, and the environment variable
# read after the file (None: no bound, no variable; for the run limits and
# the CRS timeout, no default here: cmd_simulate passes RunLimits' and
# CrsEndpoint's own).
_SETTINGS = {
    "n": (int, "an integer", 200, 1, None),
    "seed": (int, "an integer", 0, None, None),
    "jobs": (int, "an integer", 1, 1, None),
    "max_utterances": (int, "an integer", None, 2, None),
    "timeout": ((int, float), "a number", None, None, None),
    "llm_endpoint": (str, "a string", None, None, ENV_LLM_ENDPOINT),
    "llm_model": (str, "a string", None, None, ENV_LLM_MODEL),
}


class ConfigError(EvalkitError):
    """Bad command-line or file configuration."""


def __getattr__(name: str):
    """Patch point ``name``, loaded through the package's exports on first
    access and then kept here (PEP 562)."""
    if name not in _PATCH_POINTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(sys.modules[__package__], name)
    globals()[name] = value
    return value


def _stamp(settings: Mapping[str, Any]) -> dict[str, Any]:
    """The ``seed`` and ``config_hash`` header fields of every output."""
    import hashlib

    canonical = json.dumps(settings, sort_keys=True, separators=(",", ":"))
    config_hash = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
    return {"seed": settings["seed"], "config_hash": config_hash}


def _read_bytes(path: str, what: str) -> bytes:
    """The bytes of file ``path``; a fault is a configuration error naming ``what``."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _read_json(path: str, what: str, kind: type = dict) -> Any:
    """The JSON value in file ``path``, which must be a ``kind`` (``dict`` or
    ``list``); any fault is a configuration error naming ``what`` and the file."""
    try:
        value = json.loads(_read_bytes(path, what).decode("utf-8"))
    except ValueError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(value, kind):
        shape = "object" if kind is dict else "array"
        raise ConfigError(f"{what} {path} must be a JSON {shape}")
    return value


def _strings(value) -> bool:
    """Whether ``value`` is a JSON array of strings."""
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _names(flag: str | None, default: tuple[str, ...] = ()) -> tuple[str, ...]:
    """The comma-separated names a flag gives, blanks dropped; ``default``
    when the flag is absent or empty."""
    if not flag:
        return default
    return tuple(name.strip() for name in flag.split(",") if name.strip())


def _load_config_file(path: str | None) -> dict[str, Any]:
    if not path:
        return {}
    config = _read_json(path, "config file")
    for key, (kind, kind_name, *_) in _SETTINGS.items():
        if key in config:
            value = config[key]
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(
                    f"config file {path}: {key!r} must be {kind_name}, not {value!r}"
                )
    return config


def _setting(key: str, args: argparse.Namespace, config: Mapping[str, Any], default=None):
    """Setting ``key`` from its flag, else the config file, else its
    environment variable, else ``default``, else its own default; a value
    below its lowest allowed one is a configuration error."""
    _, _, own_default, low, env_var = _SETTINGS[key]
    env = os.environ.get(env_var) if env_var else None
    sources = (getattr(args, key), config.get(key), env, default, own_default)
    value = next((v for v in sources if v is not None), None)
    if low is not None and value < low:
        raise ConfigError(f"{key} must be at least {low}, not {value}")
    return value


def _load_schema(path: str | None, simulation: bool = False) -> IntentSchema:
    from .dialogue import IntentSchema, default_schema, simulation_schema

    if path is None:
        return simulation_schema() if simulation else default_schema()
    record = _read_json(path, "intent schema")
    for key in ("user_intents", "system_intents"):
        if not _strings(record.get(key)):
            raise ConfigError(f"intent schema {path}: {key!r} must be an array of strings")
    try:
        return IntentSchema.from_record(record)
    except SchemaViolationError as exc:
        raise ConfigError(f"intent schema {path}: {exc}") from exc


def _llm_gateway_factory(args: argparse.Namespace, config: Mapping[str, Any], user: str):
    """A factory returning a fresh gateway per conversation, for ``user``
    (``llm mode`` of annotate, ``llm-us`` of simulate).

    The endpoint and model come from flags > config file > environment.
    ``mock:<path>`` endpoints load a JSON array of scripted replies; each
    conversation replays the script from the start, which keeps batch
    generation deterministic.
    """
    from .connectors import GatewayOptions, HttpLlmGateway, MockLlmGateway

    endpoint = _setting("llm_endpoint", args, config)
    model = _setting("llm_model", args, config)
    if not endpoint:
        raise ConfigError(
            f"{user} needs an endpoint (flag --llm-endpoint, config key "
            f"llm_endpoint, or {ENV_LLM_ENDPOINT})"
        )
    if endpoint.startswith("mock:"):
        script_path = endpoint[len("mock:"):]
        replies = _read_json(script_path, "mock script", list)
        if not _strings(replies):
            raise ConfigError(f"mock script {script_path} must be a JSON array of strings")
        return lambda: MockLlmGateway(replies=list(replies))
    options = GatewayOptions(
        endpoint=endpoint, model=model or "default", auth_token=os.environ.get(ENV_LLM_TOKEN)
    )
    gateway = HttpLlmGateway(options)
    return lambda: gateway


def _build_connector(spec: str, catalog: ItemCatalog, timeout: float):
    from .connectors import CrsEndpoint, HttpCrsConnector, make_stub

    if spec.startswith("stub:"):
        return make_stub(spec[len("stub:"):], item_id=catalog.item_at(0).item_id)
    return HttpCrsConnector(
        CrsEndpoint(
            crs_id=spec, endpoint=spec, timeout=timeout, auth_token=os.environ.get(ENV_CRS_TOKEN)
        )
    )


def _read_score_map(path: str, metric: str | None) -> dict[str, float]:
    """Read per-system scores from a plain map or a metric report file."""
    from .corpus_io import iter_records
    from .metrics import MetricReport

    raw = _read_bytes(path, "score file")
    try:
        whole = json.loads(raw)
    except ValueError:
        whole = None
    if isinstance(whole, dict) and "metric" not in whole and "schema_version" not in whole:
        try:
            scores = {str(k): v if type(v) is bool else float(v) for k, v in whole.items()}
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{path} is not a numeric score map: {exc}") from exc
        return _finite_scores(path, scores)

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
        return _finite_scores(path, matches[0].per_system)
    if len(reports) > 1:
        names = ", ".join(r.metric for r in reports)
        raise ConfigError(
            f"report file {path} holds several metrics ({names}); use --metric"
        )
    return _finite_scores(path, reports[0].per_system)


def _finite_scores(path: str, scores: Mapping[str, Any]) -> dict[str, float]:
    """``scores``, each a finite int or float; else ConfigError naming ``path`` and the system."""
    for name, score in scores.items():
        # False for NaN, for an infinity and for an int too large for a float.
        if type(score) not in (int, float) or not abs(score) <= sys.float_info.max:
            raise ConfigError(f"{path}: score of {name!r} is not a finite number: {score!r}")
    return dict(scores)


def _load_ground_truth(path: str) -> dict[tuple[str, int], tuple[str, ...]]:
    mapping: dict[tuple[str, int], tuple[str, ...]] = {}
    for dialogue_id, per_turn in _read_json(path, "ground truth").items():
        if not isinstance(per_turn, dict):
            raise ConfigError(f"ground truth {path}: {dialogue_id!r} must map to an object")
        for index, items in per_turn.items():
            if not index.isdecimal():
                raise ConfigError(
                    f"ground truth {path}: index {index!r} of {dialogue_id!r} "
                    f"is not a non-negative integer"
                )
            if not _strings(items):
                raise ConfigError(
                    f"ground truth {path}: ({dialogue_id}, {index}) must be an array of item ids"
                )
            mapping[(dialogue_id, int(index))] = tuple(items)
    return mapping


def _count_systems(dialogues):
    """Dialogues per system: ingest's fold."""
    from collections import Counter

    return Counter(dialogue.crs_id for dialogue in dialogues)


def cmd_ingest(args: argparse.Namespace) -> int:
    from collections import Counter

    from .corpus_io import CorpusFiles

    schema = _load_schema(args.schema)
    counts = sum(CorpusFiles([args.input], schema).fold(_count_systems), Counter())
    width = max([len(c) for c in counts] + [len("total")])
    print(f"{'system'.ljust(width)}  dialogues")
    for crs_id in sorted(counts):
        print(f"{crs_id.ljust(width)}  {counts[crs_id]}")
    print(f"{'total'.ljust(width)}  {counts.total()}")
    return EXIT_OK


def cmd_annotate(args: argparse.Namespace) -> int:
    from itertools import chain, islice

    from .annotation import LlmAnnotator, RuleAnnotator, iter_annotated, load_rule_lexicon
    from .corpus_io import dialogue_record, iter_corpus, write_records

    config = _load_config_file(args.config)
    jobs = _setting("jobs", args, config)
    seed = _setting("seed", args, config)
    schema = _load_schema(args.schema)
    if args.mode == "llm":
        gateway = _llm_gateway_factory(args, config, "llm mode")()
        annotator = LlmAnnotator(schema, gateway)
    else:
        catalog = _CLI.load_catalog(args.catalog) if args.catalog else None
        lexicon = load_rule_lexicon(args.lexicon) if args.lexicon else None
        annotator = RuleAnnotator(schema, lexicon, catalog)
    settings = {
        "command": "annotate",
        "mode": args.mode,
        "overwrite": args.overwrite,
        "seed": seed,
    }
    input_header: dict[str, Any] = {}
    with open(args.input, "rb") as handle:
        dialogues = iter_corpus(handle, schema, input_header)
        annotated = iter_annotated(dialogues, annotator, args.overwrite, jobs)
        records = map(dialogue_record, annotated)
        # Drawing the first record reads the input header.
        first = list(islice(records, 1))
        version = str(input_header.pop("schema_version", "1"))
        header = {"schema_version": version, **input_header, **_stamp(settings)}
        count = write_records(args.output, header, chain(first, records))
    print(f"annotated {count} dialogue(s) -> {args.output}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .corpus_io import CorpusFiles, write_records
    from .metrics import check_metric_names

    try:
        metrics = check_metric_names(_names(args.metrics))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.n < 1:
        raise ConfigError(f"n must be at least 1, not {args.n}")
    ground_truth = _load_ground_truth(args.ground_truth) if args.ground_truth else None
    if "recall" in metrics and ground_truth is None:
        raise ConfigError("metric recall needs --ground-truth")
    schema = _load_schema(args.schema)

    inputs = CorpusFiles(args.input, schema)
    reports = _CLI.evaluate_system(inputs, metrics, ground_truth=ground_truth, n=args.n)
    settings = {
        "command": "evaluate",
        "metrics": metrics,
        "n": args.n,
        "seed": args.seed,
    }
    version = str(inputs.header.get("schema_version", "1"))
    header = {"schema_version": version, **_stamp(settings)}
    write_records(args.output, header, [r.to_record() for r in reports])
    for report in reports:
        for crs_id in sorted(report.per_system):
            print(f"{report.metric}\t{crs_id}\t{report.per_system[crs_id]:.6f}")
    print(f"wrote {len(reports)} report(s) -> {args.output}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .annotation import RuleAnnotator
    from .connectors import CrsEndpoint
    from .corpus_io import write_corpus
    from .simulation import (
        AgendaSimulator,
        GoalConfig,
        LlmSimulator,
        RunLimits,
        generate_corpus,
        load_interaction_model,
    )

    config = _load_config_file(args.config)
    n = _setting("n", args, config)
    seed = _setting("seed", args, config)
    jobs = _setting("jobs", args, config)
    max_utterances = _setting("max_utterances", args, config, RunLimits.max_utterances)
    timeout = float(_setting("timeout", args, config, CrsEndpoint.timeout))
    if not timeout > 0:  # also rejects NaN
        raise ConfigError(f"timeout must be positive, not {timeout}")

    schema = _load_schema(args.schema, simulation=True)
    catalog = _CLI.load_catalog(args.catalog)
    connector = _build_connector(args.crs, catalog, timeout)

    if args.simulator == "abus":
        model = load_interaction_model(args.interaction_model) if args.interaction_model else None
        simulator = AgendaSimulator(catalog=catalog, schema=schema, model=model)
    else:
        simulator = LlmSimulator(
            _llm_gateway_factory(args, config, "llm-us"),
            annotator=RuleAnnotator(schema, catalog=catalog),
        )

    slots = catalog.slots()
    try:
        goal_config = GoalConfig(
            constraint_slots=_names(args.constraint_slots, slots),
            request_slots=_names(args.request_slots, slots),
        )
        goal_config.check(catalog)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    limits = RunLimits(max_utterances=max_utterances, seed=seed)
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
    from .corpus_io import write_records

    reference = _read_score_map(args.reference, args.metric)
    satisfaction = _read_score_map(args.satisfaction, None)
    records = []
    for spec in args.candidate:
        name, _, path = spec.partition("=")
        if not path:
            name, path = os.path.basename(spec), spec
        candidate = _read_score_map(path, args.metric)
        report = _CLI.reliability_report(
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
    annotate.add_argument("--jobs", type=int, default=None, help=JOBS_HELP)
    annotate.add_argument("--seed", type=int, default=None)
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
    simulate.add_argument(
        "--crs", required=True, help="endpoint URL or stub:{always-recommend,echo,goodbye}"
    )
    simulate.add_argument("--catalog", required=True)
    simulate.add_argument("-n", type=int, default=None, help="dialogues to generate (default 200)")
    simulate.add_argument("--output", required=True)
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--jobs", type=int, default=None, help=JOBS_HELP)
    simulate.add_argument("--max-utterances", type=int, default=None)
    simulate.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="seconds each CRS call may take (default 30); LLM calls keep the gateway's 30 s",
    )
    simulate.add_argument("--interaction-model")
    simulate.add_argument("--constraint-slots")
    simulate.add_argument("--request-slots")
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
    except (AnnotationError, ConnectorError, GatewayError, SimulationError) as exc:
        print(f"connector error: {exc}", file=sys.stderr)
        return EXIT_CONNECTOR
    except (EvalkitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
