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
    "ignores it and runs inline, and so does llm-mode annotate on a mock: endpoint, "
    "whose one script hands out its replies in call order"
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


def _output_header(
    settings: Mapping[str, Any], carried: Mapping[str, Any] = {}
) -> dict[str, Any]:
    """The header record of every output: ``schema_version`` (the carried
    one, else the output format's own ``"1"``), the ``carried`` input header's
    fields, then the ``seed`` and ``config_hash`` of the effective ``settings``."""
    import hashlib

    canonical = json.dumps(settings, sort_keys=True, separators=(",", ":"))
    config_hash = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
    return {"schema_version": "1", **carried, "seed": settings["seed"], "config_hash": config_hash}


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
    return isinstance(value, list) and all(map(str.__instancecheck__, value))


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
    """A factory returning the gateway of each conversation, for ``user``
    (``llm mode`` of annotate, ``llm-us`` of simulate).

    The endpoint and model come from flags > config file > environment.
    A ``mock:<path>`` endpoint loads a JSON array of scripted replies, and
    each conversation gets a fresh gateway that replays the script from the
    start, which keeps batch generation deterministic. A live endpoint has
    one gateway, shared by every conversation.
    """
    from .connectors import GatewayOptions, HttpLlmGateway, scripted_transport

    endpoint = _setting("llm_endpoint", args, config)
    model = _setting("llm_model", args, config)
    if not endpoint:
        raise ConfigError(
            f"{user} needs an endpoint (flag --llm-endpoint, config key "
            f"llm_endpoint, or {ENV_LLM_ENDPOINT})"
        )
    options = GatewayOptions(
        endpoint=endpoint, model=model or "default", auth_token=os.environ.get(ENV_LLM_TOKEN)
    )
    if endpoint.startswith("mock:"):
        script_path = endpoint[len("mock:"):]
        replies = _read_json(script_path, "mock script", list)
        if not _strings(replies):
            raise ConfigError(f"mock script {script_path} must be a JSON array of strings")
        return lambda: HttpLlmGateway(options, scripted_transport(replies))
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
    """Per-system scores from a plain score map or a metric report file.

    A file whose first record is a header or a metric record is a report.
    Any other file is a plain map if it decodes whole to an object with
    neither key, and is read as a report if not. A report is decoded one
    record at a time, and only its metric names and the chosen metric's
    ``per_system`` are kept.
    """
    from .corpus_io import iter_records
    from .metrics import MetricReport

    names, chosen = [], None
    try:
        with open(path, "rb") as handle:
            try:
                first = next(iter_records(handle), (0, {}))[1]
            except CorpusFormatError:
                first = {}
            handle.seek(0)
            if "metric" not in first and "schema_version" not in first:
                try:
                    whole = json.loads(handle.read())
                except ValueError:
                    whole = None
                if isinstance(whole, dict) and "metric" not in whole and "schema_version" not in whole:
                    return _plain_scores(path, whole)
                handle.seek(0)
            for _, record in iter_records(handle):
                if "metric" in record:
                    report = MetricReport.from_record(record)
                    names.append(report.metric)
                    if chosen is None and (metric is None or report.metric.lower() == metric.lower()):
                        chosen = report.per_system
                    del report  # it holds the record's per-dialogue scores
                del record  # let it go before the next record is decoded
    except OSError as exc:
        raise ConfigError(f"cannot read score file {path}: {exc}") from exc
    except (CorpusFormatError, KeyError, TypeError, ValueError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"cannot parse scores from {path}: {detail}") from exc
    if not names:
        raise ConfigError(f"no metric records in report file {path}")
    if metric is None and len(names) > 1:
        raise ConfigError(
            f"report file {path} holds several metrics ({', '.join(names)}); use --metric"
        )
    if chosen is None:
        raise ConfigError(
            f"metric {metric!r} not in report file {path} (has: {', '.join(names)})"
        )
    return _finite_scores(path, chosen)


def _plain_scores(path: str, whole: dict) -> dict[str, float]:
    """A plain score map's scores: each a bool or made a float, and finite."""
    try:
        scores = {str(k): v if type(v) is bool else float(v) for k, v in whole.items()}
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path} is not a numeric score map: {exc}") from exc
    return _finite_scores(path, scores)


def _finite_scores(path: str, scores: Mapping[str, Any]) -> dict[str, float]:
    """``scores``, each a finite int or float; else ConfigError naming ``path`` and the system."""
    for name, score in scores.items():
        # False for NaN, for an infinity and for an int too large for a float.
        if type(score) not in (int, float) or not abs(score) <= sys.float_info.max:
            raise ConfigError(f"{path}: score of {name!r} is not a finite number: {score!r}")
    return dict(scores)


def _load_ground_truth(path: str) -> dict[tuple[str, int], tuple[str, ...]]:
    """File ``path``'s ground truth: (dialogue id, turn index) -> target ids.

    Its object is decoded one dialogue entry at a time, and each target id
    is one string however many turns name it. A fault is a configuration
    error naming the file. A JSON syntax fault outranks an entry's fault (a
    repeated index last), which outranks a repeated dialogue id: the least
    one is named.
    """
    from .catalog import json_entries

    try:
        text = _read_bytes(path, "ground truth").decode("utf-8")
    except ValueError as exc:
        raise ConfigError(f"cannot read ground truth {path}: {exc}") from exc
    mapping: dict[tuple[str, int], tuple[str, ...]] = {}
    targets: dict[str, str] = {}
    # A list, sorted once all are read: a set of 20k ids holds 2 MB.
    dialogue_ids: list[str] = []
    # An object decodes to its (name, value) members in file order, in C;
    # an array is still a list.
    scan = json.JSONDecoder(object_pairs_hook=tuple).scan_once
    try:
        entries = json_entries(text, "{", f"ground truth {path} must be a JSON object", scan)
        for dialogue_id, _, per_turn in entries:
            dialogue_ids.append(dialogue_id)
            if type(per_turn) is not tuple:
                raise ValueError(f"ground truth {path}: {dialogue_id!r} must map to an object")
            for index, items in per_turn:
                # One spelling per turn: "1", never "01" or a non-ASCII digit.
                if not (index.isascii() and index.isdecimal() and (index == "0" or index[0] != "0")):
                    raise ValueError(
                        f"ground truth {path}: index {index!r} of {dialogue_id!r} is not "
                        f"a non-negative integer in ASCII digits without leading zeros"
                    )
                # No recommended item is "", so an empty target would deflate recall.
                if not _strings(items) or "" in items:
                    raise ValueError(
                        f"ground truth {path}: ({dialogue_id}, {index}) must be an array "
                        "of non-empty item ids"
                    )
                mapping[(dialogue_id, int(index))] = tuple(map(targets.setdefault, items, items))
            # A repeated index collapses in a dict; most entries name one turn.
            if len(per_turn) > 1 and len(dict(per_turn)) < len(per_turn):
                repeated = next(i for n, (i, _) in enumerate(per_turn) if i in dict(per_turn[:n]))
                raise ValueError(
                    f"ground truth {path}: index {repeated!r} of {dialogue_id!r} is repeated"
                )
    except ValueError as exc:
        # Decoding the whole text raises JSON's own message for a syntax
        # fault anywhere in it, before or after the entry at fault.
        try:
            json.loads(text)
        except ValueError as syntax:
            raise ConfigError(f"cannot read ground truth {path}: {syntax}") from syntax
        raise ConfigError(str(exc)) from exc
    dialogue_ids.sort()
    for previous, dialogue_id in zip(dialogue_ids, dialogue_ids[1:]):
        if previous == dialogue_id:
            raise ConfigError(f"ground truth {path}: repeated dialogue id {dialogue_id!r}")
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
    from .annotation import LlmAnnotator, RuleAnnotator, iter_annotated, load_rule_lexicon
    from .corpus_io import dialogue_record, read_corpus, write_records
    from .dialogue import simulation_schema

    config = _load_config_file(args.config)
    jobs = _setting("jobs", args, config)
    seed = _setting("seed", args, config)
    schema = _load_schema(args.schema)
    if args.mode == "llm":
        gateway = _llm_gateway_factory(args, config, "llm mode")()
        annotator = LlmAnnotator(schema, gateway)
        # A script hands out its replies in call order: threads would let
        # scheduling pick which utterance gets which reply.
        if gateway.options.endpoint.startswith("mock:"):
            jobs = 1
    else:
        catalog = _CLI.load_catalog(args.catalog) if args.catalog else None
        try:
            lexicon = load_rule_lexicon(args.lexicon) if args.lexicon else None
        except (OSError, ValueError) as exc:
            raise ConfigError(f"lexicon {args.lexicon}: {exc}") from exc
        if lexicon:
            # A misspelt intent would never match: a simulation intent, which
            # a human corpus's schema may lack, is the one other kind allowed.
            simulation = simulation_schema()
            known = (
                schema.user_intents | schema.system_intents
                | simulation.user_intents | simulation.system_intents
            )
            unknown = next((intent for intent in lexicon if intent not in known), None)
            if unknown is not None:
                raise ConfigError(
                    f"lexicon {args.lexicon}: intent {unknown!r} is in neither the intent "
                    "schema nor the simulation schema"
                )
        annotator = RuleAnnotator(schema, lexicon, catalog)
    settings = {
        "command": "annotate",
        "mode": args.mode,
        "overwrite": args.overwrite,
        "seed": seed,
    }
    with open(args.input, "rb") as handle:
        input_header, dialogues = read_corpus(handle, schema)
        header = _output_header(settings, input_header)
        annotated = iter_annotated(dialogues, annotator, args.overwrite, jobs)
        count = write_records(args.output, header, map(dialogue_record, annotated))
    print(f"annotated {count} dialogue(s) -> {args.output}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .corpus_io import CorpusFiles, write_records
    from .metrics import VALID_METRICS, MetricReport, check_metric_names

    try:
        metrics = check_metric_names(_names(args.metrics))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not metrics:
        raise ConfigError(f"--metrics names no metric; valid names: {', '.join(VALID_METRICS)}")
    if args.n < 1:
        raise ConfigError(f"n must be at least 1, not {args.n}")
    # Held in a list and popped into the call, so that once the fold returns
    # nothing here reaches it and the reports reuse its memory.
    truth = [_load_ground_truth(args.ground_truth) if args.ground_truth else None]
    if "recall" in metrics and truth[0] is None:
        raise ConfigError("metric recall needs --ground-truth")
    schema = _load_schema(args.schema)

    inputs = CorpusFiles(args.input, schema)
    reports = _CLI.evaluate_system(inputs, metrics, ground_truth=truth.pop(), n=args.n)
    settings = {
        "command": "evaluate",
        "metrics": metrics,
        "n": args.n,
        "seed": args.seed,
    }
    # One record at a time: each holds a copy of its per-dialogue scores.
    write_records(args.output, _output_header(settings), map(MetricReport.to_record, reports))
    for report in reports:
        for crs_id in sorted(report.per_system):
            print(f"{report.metric}\t{crs_id}\t{report.per_system[crs_id]:.6f}")
    print(f"wrote {len(reports)} report(s) -> {args.output}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    from .annotation import RuleAnnotator
    from .connectors import CrsEndpoint, check_timeout
    from .corpus_io import dialogue_record, write_records
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
    timeout = _setting("timeout", args, config, CrsEndpoint.timeout)
    try:
        timeout = float(timeout)  # OverflowError for an int too large for a float
        check_timeout(timeout)
    except (OverflowError, ValueError):
        raise ConfigError(f"timeout must be a finite positive number, not {timeout}") from None

    schema = _load_schema(args.schema, simulation=True)
    catalog = _CLI.load_catalog(args.catalog)
    connector = _build_connector(args.crs, catalog, timeout)

    if args.simulator == "abus":
        path = args.interaction_model
        try:
            model = load_interaction_model(path) if path else None
            simulator = AgendaSimulator(catalog=catalog, schema=schema, model=model)
        except (OSError, ValueError, SchemaViolationError) as exc:
            if not path:
                raise
            raise ConfigError(f"interaction model {path}: {exc}") from exc
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
    header = _output_header(settings, corpus.extra)
    write_records(args.output, header, map(dialogue_record, corpus.dialogues))
    failures = corpus.extra.get("failures", [])
    print(
        f"generated {len(corpus)} dialogue(s), {len(failures)} failure(s) "
        f"-> {args.output}"
    )
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    from .corpus_io import write_records

    candidates: dict[str, str] = {}
    for spec in args.candidate:
        name, _, path = spec.partition("=")
        if not path:
            name, path = os.path.basename(spec), spec
        if not name:
            raise ConfigError(f"candidate {spec!r} has an empty name")
        if name in candidates:
            raise ConfigError(f"candidate {spec!r} repeats the name {name!r}")
        candidates[name] = path
    reference = _read_score_map(args.reference, args.metric)
    satisfaction = _read_score_map(args.satisfaction, None)
    records = []
    for name, path in candidates.items():
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
    write_records(args.output, _output_header({"command": "compare", "seed": args.seed}), records)
    print(f"wrote {len(records)} reliability report(s) -> {args.output}")
    return EXIT_OK


def _ingest_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True)
    parser.add_argument("--schema")


def _annotate_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True)
    parser.add_argument("--output", required=True)
    parser.add_argument("--mode", choices=("rule", "llm"), default="rule")
    parser.add_argument("--overwrite", action="store_true")
    parser.add_argument("--schema")
    parser.add_argument("--catalog")
    parser.add_argument("--lexicon")
    parser.add_argument("--llm-endpoint")
    parser.add_argument("--llm-model")
    parser.add_argument("--config")
    parser.add_argument("--jobs", type=int, default=None, help=JOBS_HELP)
    parser.add_argument("--seed", type=int, default=None)


def _evaluate_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", action="append", required=True)
    parser.add_argument("--output", required=True)
    parser.add_argument("--metrics", default="sr,srrr,rdl")
    parser.add_argument("--ground-truth")
    parser.add_argument("--n", type=int, default=1)
    parser.add_argument("--schema")
    parser.add_argument("--seed", type=int, default=0)


def _simulate_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--simulator", choices=("abus", "llm-us"), required=True)
    parser.add_argument(
        "--crs", required=True, help="endpoint URL or stub:{always-recommend,echo,goodbye}"
    )
    parser.add_argument("--catalog", required=True)
    parser.add_argument("-n", type=int, default=None, help="dialogues to generate (default 200)")
    parser.add_argument("--output", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=None, help=JOBS_HELP)
    parser.add_argument("--max-utterances", type=int, default=None)
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="seconds each CRS call may take (default 30); LLM calls keep the gateway's 30 s",
    )
    parser.add_argument("--interaction-model")
    parser.add_argument("--constraint-slots")
    parser.add_argument("--request-slots")
    parser.add_argument("--llm-endpoint")
    parser.add_argument("--llm-model")
    parser.add_argument("--schema")
    parser.add_argument("--config")


def _compare_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--candidate",
        action="append",
        required=True,
        help="name=path of a score map or report file (repeatable)",
    )
    parser.add_argument("--reference", required=True)
    parser.add_argument("--satisfaction", required=True)
    parser.add_argument("--output", required=True)
    parser.add_argument("--metric", help="metric to pick from report files")
    parser.add_argument("--reference-name", default="reference")
    parser.add_argument("--seed", type=int, default=0)


# Each command's one definition: its help line in ``evalkit --help``, the
# function that adds its flags to a parser, and its handler.
_COMMANDS = {
    "ingest": ("parse and validate a corpus, print counts", _ingest_arguments, cmd_ingest),
    "annotate": ("assign dialogue acts to a corpus", _annotate_arguments, cmd_annotate),
    "evaluate": ("compute metrics, write reports", _evaluate_arguments, cmd_evaluate),
    "simulate": ("generate a synthetic corpus", _simulate_arguments, cmd_simulate),
    "compare": (
        "rank candidates against a reference, write reliability",
        _compare_arguments,
        cmd_compare,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command: ``evalkit --help`` and any usage error."""
    parser = argparse.ArgumentParser(
        prog="evalkit",
        description=(
            "Evaluate conversational recommender systems with user-utility "
            "metrics and goal-driven user simulation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, handler) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        add_arguments(command)
        command.set_defaults(func=handler)
    return parser


class _CommandParser(argparse.ArgumentParser):
    """One command's parser, without the other commands' flags: its
    ``--help`` is that subcommand's of ``build_parser()``, byte for byte,
    and it raises a usage error unprinted, for ``main`` to re-parse."""

    def error(self, message: str):
        raise argparse.ArgumentError(None, message)


def _parse_command(argv: list[str]) -> argparse.Namespace | None:
    """``argv``'s flags when ``argv[0]`` names a command and its own parser
    accepts the rest; else None."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    name = argv[0]
    _, add_arguments, handler = _COMMANDS[name]
    parser = _CommandParser(prog=f"evalkit {name}")
    add_arguments(parser)
    parser.set_defaults(command=name, func=handler)
    try:
        return parser.parse_args(argv[1:])
    except argparse.ArgumentError:
        return None


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # One command's parser costs about a fifth of all five's. A usage error
    # is printed by the full parser, with its top-level message and usage.
    args = _parse_command(argv)
    if args is None:
        args = build_parser().parse_args(argv)
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
