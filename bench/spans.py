"""In-memory span recording around evalkit's public calls.

The tracer replaces module and class attributes with timing wrappers for
the duration of a traced run and restores them afterwards. Nothing in
evalkit changes; the wrappers only see the calls the package already makes
through those names. Span times are as measured, and include the host-speed
kernel (hostspeed.py) in whichever span it interrupts, 1 to 2 % of any
span's time.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict

# Span record layout (lists, to keep recording cheap).
NAME, START, END, PARENT, DIALOGUE, STAGE, INFO = range(7)

CLI_COMMANDS = ("ingest", "annotate", "evaluate", "compare")


class Tracer:
    """Records spans with name, start, end, parent index, dialogue id, the
    pipeline stage and an optional per-call detail. Single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.dialogue: str | None = None
        self.stage: str | None = None

    def wrap(self, name: str, fn, info=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.dialogue, self.stage, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if info is not None:
                record[INFO] = info(args, result)
            return result

        return traced

    def patch(self, owner, attribute: str, name: str, info=None) -> None:
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, info))

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, record in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": record[NAME],
                            "start": record[START],
                            "end": record[END],
                            "parent": record[PARENT],
                            "dialogue_id": record[DIALOGUE],
                            "stage": record[STAGE],
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def _annotate_info(args, result):
    utterance = args[1]
    recommend = sum(1 for act in result if act.intent == "Recommend")
    other = sum(1 for act in result if act.intent == "Other")
    return (utterance.speaker.value, recommend, other)


def install(tracer: Tracer, evalkit_modules) -> None:
    """Wrap the public calls of every layer. ``evalkit_modules`` maps short
    names to the imported evalkit submodules."""
    catalog = evalkit_modules["catalog"]
    simulation = evalkit_modules["simulation"]
    annotation = evalkit_modules["annotation"]
    connectors = evalkit_modules["connectors"]
    corpus_io = evalkit_modules["corpus_io"]
    dialogue = evalkit_modules["dialogue"]
    metrics = evalkit_modules["metrics"]
    cli = evalkit_modules["cli"]

    item_catalog = catalog.ItemCatalog
    for method in ("get", "matching", "titles", "slots"):
        tracer.patch(item_catalog, method, f"catalog.{method}")
    tracer.patch(cli, "load_catalog", "catalog.load")
    tracer.patch(simulation, "sample_goal", "simulation.sample_goal")
    tracer.patch(simulation, "abus_next", "simulation.turn")
    tracer.patch(simulation, "llmus_next", "simulation.turn")
    tracer.patch(annotation.RuleAnnotator, "annotate", "annotation.annotate", _annotate_info)
    tracer.patch(connectors.HttpLlmGateway, "complete", "connectors.llm")
    tracer.patch(corpus_io, "parse_corpus", "corpus_io.parse", lambda a, r: len(r))
    for owner in (corpus_io, cli):
        tracer.patch(owner, "serialize_corpus", "corpus_io.serialize", lambda a, r: len(r))
    tracer.patch(dialogue.Corpus, "by_system", "dialogue.by_system")
    tracer.patch(metrics, "segment_rounds", "metrics.segment_rounds")
    tracer.patch(cli, "evaluate_system", "metrics.evaluate")
    tracer.patch(cli, "reliability_report", "analysis.compare")


def layer_metrics(spans: list[list], begin: int, end: int, system_utterances: int) -> dict:
    """Per-layer counts and times for the spans ``spans[begin:end]`` of one
    pipeline iteration."""
    children = defaultdict(float)
    count: Counter = Counter()
    total = defaultdict(float)
    self_total = defaultdict(float)
    for record in spans[begin:end]:
        if record[PARENT] >= 0:
            children[record[PARENT]] += record[END] - record[START]
    for index in range(begin, end):
        record = spans[index]
        duration = record[END] - record[START]
        name = record[NAME]
        count[name] += 1
        total[name] += duration
        self_total[name] += duration - children[index]

    def inside(index: int, ancestor: str) -> bool:
        parent = spans[index][PARENT]
        while parent >= 0:
            if spans[parent][NAME] == ancestor:
                return True
            parent = spans[parent][PARENT]
        return False

    annotate_stage = [r for r in spans[begin:end] if r[NAME] == "annotation.annotate" and r[STAGE] == "annotate"]
    annotate_sim = [r for r in spans[begin:end] if r[NAME] == "annotation.annotate" and r[STAGE] == "simulate"]
    system_calls = sum(
        1 for r in spans[begin:end] if r[NAME] == "annotation.annotate" and r[INFO][0] == "SYSTEM"
    )
    result = {
        "catalog.get.calls": count["catalog.get"],
        "catalog.get.s": total["catalog.get"],
        "catalog.matching.calls": count["catalog.matching"],
        "catalog.matching.s": total["catalog.matching"],
        "catalog.titles.calls": count["catalog.titles"],
        "catalog.slots.calls": count["catalog.slots"],
        "simulation.sample_goal.calls": count["simulation.sample_goal"],
        "simulation.sample_goal.self_s": self_total["simulation.sample_goal"],
        "annotation.annotate.in_simulation_calls": len(annotate_sim),
        "annotation.annotate.in_simulation_s": sum(r[END] - r[START] for r in annotate_sim),
        "annotation.annotate.calls": len(annotate_stage),
        "annotation.annotate.s": sum(r[END] - r[START] for r in annotate_stage),
        "annotation.calls_per_system_utterance": (
            system_calls / system_utterances if system_utterances else 0.0
        ),
        "annotation.recommend_acts": sum(r[INFO][1] for r in annotate_stage),
        "annotation.other_acts": sum(r[INFO][2] for r in annotate_stage),
        "simulation.turn.calls": count["simulation.turn"],
        "simulation.turn.self_s": self_total["simulation.turn"],
        "connectors.llm.calls": count["connectors.llm"],
        "connectors.llm.retries": count["double.llm"] - count["connectors.llm"],
        "connectors.llm.self_s": self_total["connectors.llm"],
        "connectors.crs.calls": count["connectors.crs"],
        "connectors.crs.self_s": self_total["connectors.crs"],
        "corpus_io.parse.s": total["corpus_io.parse"],
        "corpus_io.parse.records": sum(
            r[INFO] for r in spans[begin:end] if r[NAME] == "corpus_io.parse"
        ),
        "corpus_io.serialize.s": total["corpus_io.serialize"],
        "corpus_io.serialize.bytes": sum(
            r[INFO] for r in spans[begin:end] if r[NAME] == "corpus_io.serialize"
        ),
        "metrics.evaluate.s": total["metrics.evaluate"],
        "metrics.corpus_passes": sum(
            1
            for index in range(begin, end)
            if spans[index][NAME] == "dialogue.by_system" and inside(index, "metrics.evaluate")
        ),
        "metrics.segment_rounds.calls": count["metrics.segment_rounds"],
        "analysis.compare.s": total["analysis.compare"],
    }
    for command in CLI_COMMANDS:
        result[f"cli.{command}.self_s"] = self_total[f"cli.{command}"]
    return result


def is_time(name: str) -> bool:
    return name.endswith("_s") or name.endswith(".s")


def combine(per_iteration: list[dict]) -> tuple[dict, list[str]]:
    """Medians of the times across iterations and the counts of the first
    one, plus the names of counts that differed between iterations."""
    combined = {}
    unstable = []
    for name in per_iteration[0]:
        values = [metrics[name] for metrics in per_iteration]
        if is_time(name):
            combined[name] = statistics.median(values)
        else:
            combined[name] = values[0]
            if any(v != values[0] for v in values):
                unstable.append(name)
    return combined, unstable
