"""User-utility metrics built on a reward/cost view of a conversation.

One conversation's utility is the ratio of its weighted reward sum to its
weighted cost sum. The concrete metrics are instantiations with a single
factor on each side:

* success rate (SR): reward = dialogue has at least one accepted item,
  cost = 1;
* successful recommendation round ratio (SRRR): reward = accepted rounds,
  cost = number of rounds;
* reward per dialogue length (RDL): reward = accepted items, cost = total
  utterance count;
* recall@N: reward = the first N recommended items that match the
  ground truth, cost = the turn's target items, micro-averaged over
  recommendation turns (``standard``); the ``length_normalized`` variant
  divides hits by N per turn, then by the system's utterance count.

SR, SRRR, and RDL are macro-averaged: each dialogue is scored first, then
dialogue scores are averaged per system. ``evaluate_system`` folds the
dialogues into per-system tallies in one pass, merges the tallies of
consecutive runs of dialogues in order, and reports from the merged
tallies; given ``CorpusFiles``, the runs are byte ranges of large files
folded in worker processes, with the same bytes out as one pass.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from .corpus_io import CorpusFiles
from .dialogue import (
    ACCEPT,
    Dialogue,
    ITEM_SLOT,
    RECOMMEND,
    REJECT,
    Speaker,
)
from .errors import UnannotatedDialogueError

OUTCOME_ACCEPTED = "accepted"
OUTCOME_REJECTED = "rejected"
OUTCOME_UNRESOLVED = "unresolved"

MICRO = "micro"
MACRO = "macro"

# The two recall reports, in the order evaluate_system returns them. The
# published formula carries an extra 1/(total utterances) prefactor on top
# of conventional micro-averaged recall; it is implemented verbatim as
# length_normalized and never silently merged with standard.
_RECALL_VARIANTS = ("standard", "length_normalized")

METRIC_SR = "SR"
METRIC_SRRR = "SRRR"
METRIC_RDL = "RDL"

VALID_METRICS = ("sr", "srrr", "rdl", "recall")


@dataclass(frozen=True)
class RewardFactor:
    """A named, weighted, per-dialogue reward term read off ``DialogueFacts``."""

    name: str
    weight: float
    evaluator: Callable[[DialogueFacts], float]

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError(f"reward weight for {self.name!r} must be >= 0")


@dataclass(frozen=True)
class CostFactor:
    """A named, weighted, per-dialogue cost term read off ``DialogueFacts``."""

    name: str
    weight: float
    evaluator: Callable[[DialogueFacts], float]

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError(f"cost weight for {self.name!r} must be >= 0")


@dataclass(frozen=True, init=False)
class RecommendationRound:
    """Span from a system Recommend to the user's Accept/Reject decision."""

    start_index: int
    end_index: int
    outcome: str
    items: tuple[str, ...] = ()

    def __init__(self, start_index: int, end_index: int, outcome: str, items: Iterable[str] = ()):
        if outcome not in (OUTCOME_ACCEPTED, OUTCOME_REJECTED, OUTCOME_UNRESOLVED):
            raise ValueError(f"unknown round outcome {outcome!r}")
        if not start_index < end_index:
            raise ValueError("round must satisfy start_index < end_index")
        if type(items) is not tuple:
            items = tuple(items)
        fields = self.__dict__
        fields["start_index"] = start_index
        fields["end_index"] = end_index
        fields["outcome"] = outcome
        fields["items"] = items


@dataclass(frozen=True)
class MetricReport:
    """Per-system values for one metric under one aggregation mode."""

    metric: str
    aggregation: str
    per_system: Mapping[str, float]
    per_dialogue: Mapping[str, float] | None = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if self.aggregation not in (MICRO, MACRO):
            raise ValueError("aggregation must be micro or macro")
        object.__setattr__(self, "warnings", tuple(self.warnings))

    def to_record(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "metric": self.metric,
            "aggregation": self.aggregation,
            "per_system": dict(self.per_system),
        }
        if self.per_dialogue is not None:
            record["per_dialogue"] = dict(self.per_dialogue)
        record["warnings"] = list(self.warnings)
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "MetricReport":
        return cls(
            metric=record["metric"],
            aggregation=record["aggregation"],
            per_system=dict(record["per_system"]),
            per_dialogue=(
                dict(record["per_dialogue"]) if "per_dialogue" in record else None
            ),
            warnings=tuple(record.get("warnings", ())),
        )


def segment_rounds(dialogue: Dialogue) -> list[RecommendationRound]:
    """Split a dialogue into recommendation rounds.

    A round opens at a system utterance carrying a Recommend act and closes
    at the first later user utterance carrying Accept or Reject; further
    Recommend acts before that decision extend the open round. A round
    still open at dialogue end is returned as unresolved with
    ``end_index`` one past the last utterance. A round's items are the
    item-slot values of its Recommend acts and the items of its
    recommending utterances, each once, in order of first mention.
    Raises UnannotatedDialogueError on a dialogue without acts.
    """
    if not dialogue.has_acts():
        raise UnannotatedDialogueError(
            f"dialogue {dialogue.dialogue_id} carries no act annotations"
        )
    rounds: list[RecommendationRound] = []
    open_start: int | None = None
    # The open round's items, as an insertion-ordered set.
    open_items: dict[str, None] = {}

    for utterance in dialogue.utterances:
        if utterance.speaker is Speaker.SYSTEM:
            recommends = False
            for act in utterance.acts:
                if act.intent == RECOMMEND:
                    if open_start is None:
                        open_start, open_items = utterance.index, {}
                    recommends = True
                    for name, value in act.slots:
                        if name == ITEM_SLOT:
                            open_items[value] = None
            if recommends:
                for item in utterance.items:
                    open_items[item] = None
        elif open_start is not None:  # a user utterance in an open round
            for act in utterance.acts:
                if act.intent == ACCEPT or act.intent == REJECT:
                    outcome = OUTCOME_ACCEPTED if act.intent == ACCEPT else OUTCOME_REJECTED
                    rounds.append(
                        RecommendationRound(open_start, utterance.index, outcome, tuple(open_items))
                    )
                    open_start = None
                    break

    if open_start is not None:
        rounds.append(
            RecommendationRound(
                open_start, len(dialogue.utterances), OUTCOME_UNRESOLVED, tuple(open_items)
            )
        )
    return rounds


def accepted_item_count(dialogue: Dialogue) -> int:
    """Number of accepted item identifiers in a dialogue.

    Distinct item-slot values across user Accept acts are counted once
    each; an Accept act with no item slots credits the single unnamed item
    it resolves, i.e. counts as 1. The dialogue's annotation is not checked
    here: ``DialogueFacts.of`` has ``segment_rounds`` check it once.
    """
    named: set[str] = set()
    bare = 0
    for utterance in dialogue.utterances:
        if utterance.speaker is Speaker.USER:
            for act in utterance.acts:
                if act.intent == ACCEPT:
                    titled = False
                    for name, value in act.slots:
                        if name == ITEM_SLOT:
                            named.add(value)
                            titled = True
                    if not titled:
                        bare += 1
    return len(named) + bare


@dataclass(frozen=True, init=False)
class DialogueFacts:
    """The facts reward and cost factors read off one dialogue. Built once
    per dialogue, so all metrics share one round segmentation; custom
    factors reach anything else through ``dialogue``."""

    dialogue: Dialogue
    rounds: tuple[RecommendationRound, ...]
    accepted_items: int

    def __init__(
        self, dialogue: Dialogue, rounds: tuple[RecommendationRound, ...], accepted_items: int
    ):
        fields = self.__dict__
        fields["dialogue"] = dialogue
        fields["rounds"] = rounds
        fields["accepted_items"] = accepted_items

    @classmethod
    def of(cls, dialogue: Dialogue) -> DialogueFacts:
        return cls(dialogue, tuple(segment_rounds(dialogue)), accepted_item_count(dialogue))


def _utility(
    facts: DialogueFacts, rewards: Sequence[RewardFactor], costs: Sequence[CostFactor]
) -> float:
    total_reward = total_cost = 0
    for factor in rewards:
        total_reward += factor.weight * factor.evaluator(facts)
    for factor in costs:
        total_cost += factor.weight * factor.evaluator(facts)
    if total_cost == 0 and total_reward == 0:
        return 0.0
    if total_cost <= 0:
        raise ValueError(
            f"dialogue {facts.dialogue.dialogue_id}: total cost is zero; utility undefined"
        )
    return total_reward / total_cost


def utility(
    dialogue: Dialogue,
    rewards: Sequence[RewardFactor],
    costs: Sequence[CostFactor],
) -> float:
    """Weighted reward sum over weighted cost sum for one conversation.

    Factors are evaluated on the dialogue's ``DialogueFacts``, so the
    dialogue must carry act annotations. Zero reward over zero cost is 0.0
    (how SRRR scores a dialogue with no rounds); any other reward over a
    cost that is not positive raises ValueError.
    """
    return _utility(DialogueFacts.of(dialogue), rewards, costs)


def accepted_items_reward(weight: float = 1.0) -> RewardFactor:
    return RewardFactor("accepted_items", weight, lambda f: float(f.accepted_items))


def success_reward(weight: float = 1.0) -> RewardFactor:
    # A user Accept act always credits at least one item.
    return RewardFactor("success", weight, lambda f: 1.0 if f.accepted_items > 0 else 0.0)


def accepted_rounds_reward(weight: float = 1.0) -> RewardFactor:
    return RewardFactor(
        "accepted_rounds",
        weight,
        lambda f: float(sum(1 for r in f.rounds if r.outcome == OUTCOME_ACCEPTED)),
    )


def dialogue_length_cost(weight: float = 1.0) -> CostFactor:
    return CostFactor("dialogue_length", weight, lambda f: float(len(f.dialogue)))


def round_count_cost(weight: float = 1.0) -> CostFactor:
    return CostFactor("round_count", weight, lambda f: float(len(f.rounds)))


def constant_cost(weight: float = 1.0) -> CostFactor:
    return CostFactor("constant", weight, lambda f: 1.0)


# The bundled macro metrics: request name -> (report name, rewards, costs).
_MACRO_METRICS = {
    "sr": (METRIC_SR, (success_reward(),), (constant_cost(),)),
    "srrr": (METRIC_SRRR, (accepted_rounds_reward(),), (round_count_cost(),)),
    "rdl": (METRIC_RDL, (accepted_items_reward(),), (dialogue_length_cost(),)),
}


def dialogue_rdl(dialogue: Dialogue) -> float:
    """Accepted items divided by the dialogue's total utterance count."""
    return utility(dialogue, [accepted_items_reward()], [dialogue_length_cost()])


def success_rate(corpus: Iterable[Dialogue]) -> MetricReport:
    """Per system: fraction of dialogues containing an accepted recommendation."""
    return evaluate_system(corpus, ["sr"])[0]


def srrr(corpus: Iterable[Dialogue]) -> MetricReport:
    """Per system: mean per-dialogue fraction of rounds ending in acceptance
    (0 with no rounds; an unresolved round counts as unsuccessful)."""
    return evaluate_system(corpus, ["srrr"])[0]


def rdl(corpus: Iterable[Dialogue]) -> MetricReport:
    """Per system: mean accepted items per utterance across dialogues."""
    return evaluate_system(corpus, ["rdl"])[0]


def _recommendation_turns(dialogue: Dialogue):
    """(index, recommended items) for each system turn that recommends."""
    turns = []
    for utterance in dialogue.utterances:
        if utterance.speaker is not Speaker.SYSTEM:
            continue
        if utterance.items:
            turns.append((utterance.index, utterance.items))
            continue
        recommends = [act for act in utterance.acts if act.intent == RECOMMEND]
        if recommends:
            items = tuple([v for act in recommends for n, v in act.slots if n == ITEM_SLOT])
            turns.append((utterance.index, items))
    return turns


def check_metric_names(metrics: Sequence[str]) -> list[str]:
    """The metric names lowercased; ValueError if any is unknown."""
    requested = [m.lower() for m in metrics]
    unknown = [m for m in requested if m not in VALID_METRICS]
    if unknown:
        raise ValueError(
            f"unknown metric(s) {', '.join(sorted(unknown))}; "
            f"valid names: {', '.join(VALID_METRICS)}"
        )
    return requested


@dataclass
class _SystemTally:
    """One system's running scores and counts."""

    # (dialogue_id, [score per macro metric]) per dialogue, in corpus order.
    rows: list[tuple[str, list[float]]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    hits: int = 0
    truth_total: int = 0
    rec_turns: int = 0
    utterance_total: int = 0

    def absorb(self, later: _SystemTally) -> None:
        """Add the tally of dialogues that come after this one's."""
        self.rows += later.rows
        self.warnings += later.warnings
        self.hits += later.hits
        self.truth_total += later.truth_total
        self.rec_turns += later.rec_turns
        self.utterance_total += later.utterance_total


def _macro_specs(requested: Sequence[str]):
    """(name, report name, rewards, costs) per requested macro metric, in
    ``_MACRO_METRICS`` order."""
    return [(name, *_MACRO_METRICS[name]) for name in _MACRO_METRICS if name in requested]


def _tally_systems(
    dialogues: Iterable[Dialogue],
    requested: Sequence[str],
    ground_truth: Mapping[tuple[str, int], Any] | None,
    n: int,
) -> dict[str, _SystemTally]:
    """Fold ``dialogues`` into one tally per system, in first-appearance order."""
    specs = _macro_specs(requested)
    recall = "recall" in requested
    tallies: defaultdict[str, _SystemTally] = defaultdict(_SystemTally)
    seen_ids: set[str] = set()
    for dialogue in dialogues:
        if dialogue.dialogue_id in seen_ids:
            raise ValueError(f"duplicate dialogue_id {dialogue.dialogue_id!r}")
        seen_ids.add(dialogue.dialogue_id)
        tally = tallies[dialogue.crs_id]
        if specs:
            facts = DialogueFacts.of(dialogue)
            scores = [_utility(facts, rewards, costs) for _, _, rewards, costs in specs]
            tally.rows.append((dialogue.dialogue_id, scores))
        if recall:
            tally.utterance_total += len(dialogue)
            for index, recommended in _recommendation_turns(dialogue):
                key = (dialogue.dialogue_id, index)
                if key not in ground_truth:
                    tally.warnings.append(
                        f"no ground truth for ({dialogue.dialogue_id}, {index}); turn skipped"
                    )
                    continue
                targets = set(ground_truth[key])
                tally.hits += len(targets & set(recommended[:n]))
                tally.truth_total += len(targets)
                tally.rec_turns += 1
    return tallies


def _merge_tallies(parts: Sequence[dict[str, _SystemTally]]) -> dict[str, _SystemTally]:
    """The tallies of consecutive runs of dialogues, merged in run order."""
    merged: defaultdict[str, _SystemTally] = defaultdict(_SystemTally)
    for part in parts:
        for crs_id, tally in part.items():
            merged[crs_id].absorb(tally)
    return merged


def _reports(
    tallies: Mapping[str, _SystemTally], requested: Sequence[str], n: int
) -> list[MetricReport]:
    """The requested metrics' reports from merged per-system tallies."""
    if requested and not tallies:
        raise ValueError("corpus has no dialogues")
    reports: dict[str, list[MetricReport]] = {}
    for position, (name, metric, _, _) in enumerate(_macro_specs(requested)):
        per_system = {
            crs_id: math.fsum(scores[position] for _, scores in t.rows) / len(t.rows)
            for crs_id, t in tallies.items()
        }
        per_dialogue = {d: scores[position] for t in tallies.values() for d, scores in t.rows}
        reports[name] = [MetricReport(metric, MACRO, per_system, per_dialogue)]
    if "recall" in requested:
        standard = {
            c: t.hits / t.truth_total if t.truth_total else 0.0 for c, t in tallies.items()
        }
        length_normalized = {
            c: (t.hits / (n * t.rec_turns) if t.rec_turns else 0.0) / t.utterance_total
            for c, t in tallies.items()
        }
        warnings = [note for t in tallies.values() for note in t.warnings]
        normalized_warnings = warnings + [
            "length_normalized divides by the total utterance count on top of "
            "per-turn recall; values are not comparable to standard recall"
        ]
        reports["recall"] = [
            MetricReport(f"Recall@{n}[{variant}]", MICRO, per_system, warnings=notes)
            for variant, per_system, notes in zip(
                _RECALL_VARIANTS, (standard, length_normalized), (warnings, normalized_warnings)
            )
        ]
    return [report for name in requested for report in reports[name]]


def evaluate_system(
    dialogues: Iterable[Dialogue] | CorpusFiles,
    metrics: Sequence[str],
    ground_truth: Mapping[tuple[str, int], Any] | None = None,
    n: int = 1,
) -> list[MetricReport]:
    """Compute the requested metrics over dialogues, one report per metric.

    Metric names: ``sr``, ``srrr``, ``rdl``, ``recall`` (case-insensitive).
    Requesting ``recall`` requires ``ground_truth``, which maps
    (dialogue_id, utterance index) to that turn's target items, and yields
    two micro-averaged reports over recommendation turns, each truncated
    to its first ``n`` items: ``standard`` (hits over target items) and
    ``length_normalized`` (hits over N per turn, then over the system's
    total utterance count). ``dialogues`` (a ``Corpus``, the output
    of ``iter_corpus``, or any iterable; ids must be unique) is read once:
    every metric is scored in that one pass into per-system tallies.
    ``CorpusFiles`` are folded through ``CorpusFiles.fold``, in worker
    processes when large, and their tallies merged in file order.
    Systems are reported in first-appearance order, and per-dialogue
    scores grouped by system.
    """
    requested = check_metric_names(metrics)
    if "recall" in requested:
        if ground_truth is None:
            raise ValueError("recall requires ground-truth target items")
        if n <= 0:
            raise ValueError("n must be a positive integer")
    args = (requested, ground_truth, n)
    if isinstance(dialogues, CorpusFiles):
        parts = dialogues.fold(_tally_systems, *args)
    else:
        parts = [_tally_systems(dialogues, *args)]
    return _reports(_merge_tallies(parts), requested, n)
