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
* recall@N (``standard``): reward = the first N recommended items that
  match the ground truth, cost = the target items, over judged turns
  (recommendation turns that have ground truth).

SR, SRRR, and RDL are macro-averaged: each dialogue is scored first, then
dialogue scores are averaged per system. Recall is micro-averaged: per
system, its summed rewards over its summed costs, zero over zero being 0.0
as for one dialogue. The published ``length_normalized`` variant,
(hits / (N * judged turns)) / utterances over a system's sums, is not one
ratio of sums: the micro ratio of hits over N per judged turn is divided
by the system's utterance count afterwards.

Factors read ``DialogueFacts``, built in one walk over a dialogue that
also checks it carries acts. A round is its start, its end and its
outcome. A system turn recommends the utterance's items when it has any,
even without a Recommend act, else its Recommend acts' item-slot values,
duplicates kept; recall judges those.

``evaluate_system`` folds the dialogues into per-system tallies in one
pass, merges the tallies of consecutive runs of dialogues in order, and
reports from the merged tallies; given ``CorpusFiles``, the runs are byte
ranges of large files folded in worker processes, with the same bytes out
as one pass.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from .corpus_io import CorpusFiles
from .dialogue import _SYSTEM, ACCEPT, ITEM_SLOT, RECOMMEND, REJECT, Dialogue
from .errors import UnannotatedDialogueError

OUTCOME_ACCEPTED = "accepted"
OUTCOME_REJECTED = "rejected"
OUTCOME_UNRESOLVED = "unresolved"

MICRO = "micro"
MACRO = "macro"

METRIC_SR = "SR"
METRIC_SRRR = "SRRR"
METRIC_RDL = "RDL"

VALID_METRICS = ("sr", "srrr", "rdl", "recall")


@dataclass(frozen=True)
class Factor:
    """A named, weighted, per-dialogue reward or cost term read off
    ``DialogueFacts``; its side is its place in ``utility``'s arguments."""

    name: str
    weight: float
    evaluator: Callable[[DialogueFacts], float]

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError(f"weight for {self.name!r} must be >= 0")


@dataclass(frozen=True, init=False)
class RecommendationRound:
    """Span from a system Recommend to the user's Accept/Reject decision."""

    start_index: int
    end_index: int
    outcome: str

    def __init__(self, start_index: int, end_index: int, outcome: str):
        if outcome not in (OUTCOME_ACCEPTED, OUTCOME_REJECTED, OUTCOME_UNRESOLVED):
            raise ValueError(f"unknown round outcome {outcome!r}")
        if not start_index < end_index:
            raise ValueError("round must satisfy start_index < end_index")
        fields = self.__dict__
        fields["start_index"] = start_index
        fields["end_index"] = end_index
        fields["outcome"] = outcome


# A report record's fields: name, JSON type, that type in messages, and
# whether the field is required.
_RECORD_FIELDS = (
    ("metric", str, "a string", True),
    ("aggregation", str, "a string", True),
    ("per_system", dict, "an object", True),
    ("per_dialogue", dict, "an object", False),
    ("warnings", list, "an array of strings", False),
)


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
        for name, kind, noun, required in _RECORD_FIELDS:
            if not required and name not in record:
                continue
            value = record[name]
            if not isinstance(value, kind) or (
                kind is list and not all(isinstance(note, str) for note in value)
            ):
                raise ValueError(f"{name!r} must be {noun}, not {value!r}")
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
    ``end_index`` one past the last utterance.
    Raises UnannotatedDialogueError on a dialogue without acts.
    """
    return list(DialogueFacts.of(dialogue).rounds)


@dataclass(frozen=True)
class DialogueFacts:
    """What reward and cost factors read off one dialogue, gathered in one
    walk over it: its rounds (see ``segment_rounds``), its accepted item
    count, and ``(index, items)`` per recommending system turn, the items
    recall judges. Custom factors reach anything else through ``dialogue``."""

    dialogue: Dialogue
    rounds: tuple[RecommendationRound, ...]
    accepted_items: int
    recommendation_turns: tuple[tuple[int, tuple[str, ...]], ...]

    @classmethod
    def of(cls, dialogue: Dialogue) -> DialogueFacts:
        """Raises UnannotatedDialogueError on a dialogue without acts."""
        return _walk(dialogue, True)


def _walk(dialogue: Dialogue, require_acts: bool) -> DialogueFacts:
    """``DialogueFacts``; UnannotatedDialogueError if ``require_acts`` and
    no utterance carries acts (recall alone reads none). Accepted items are
    the distinct item-slot values of user Accept acts, plus one for each
    Accept act that names none."""
    rounds, turns, accepted, bare_accepts = [], [], set(), 0
    open_start, annotated = None, False  # the open round's start; whether any acts
    for utterance in dialogue.utterances:
        acts = utterance.acts
        if acts:
            annotated = True
        if utterance.speaker is _SYSTEM:
            index, items = utterance.index, utterance.items
            titles = None  # the Recommend acts' item-slot values; None: no Recommend act
            for act in acts:
                if act.intent == RECOMMEND:
                    titles = titles or []
                    titles += [value for name, value in act.slots if name == ITEM_SLOT]
            if titles is not None:
                if open_start is None:
                    open_start = index
                turns.append((index, items or tuple(titles)))
            elif items:
                turns.append((index, items))
            continue
        for act in acts:
            if act.intent == ACCEPT:
                named = [value for name, value in act.slots if name == ITEM_SLOT]
                accepted.update(named)
                if not named:
                    bare_accepts += 1
            # The first decision in a user utterance closes the open round.
            if open_start is not None and act.intent in (ACCEPT, REJECT):
                outcome = OUTCOME_ACCEPTED if act.intent == ACCEPT else OUTCOME_REJECTED
                rounds.append(RecommendationRound(open_start, utterance.index, outcome))
                open_start = None
    if require_acts and not annotated:
        raise UnannotatedDialogueError(
            f"dialogue {dialogue.dialogue_id} carries no act annotations"
        )
    if open_start is not None:
        rounds.append(RecommendationRound(open_start, len(dialogue.utterances), OUTCOME_UNRESOLVED))
    return DialogueFacts(dialogue, tuple(rounds), len(accepted) + bare_accepts, tuple(turns))


def _ratio(reward: float, cost: float, owner: str, name: str) -> float:
    """Reward over cost by ``utility``'s rule; errors name ``owner`` ``name``."""
    if cost == 0 and reward == 0:
        return 0.0
    if cost <= 0:
        raise ValueError(f"{owner} {name}: total cost is zero; utility undefined")
    return reward / cost


def _pairs(factors: Sequence[Factor]) -> tuple[tuple[float, Callable], ...]:
    """Each factor as its (weight, evaluator), so a fold resolves them once."""
    return tuple((factor.weight, factor.evaluator) for factor in factors)


def _utility(facts: DialogueFacts, rewards: Sequence[tuple], costs: Sequence[tuple]) -> float:
    """``utility`` of ``facts`` over ``_pairs`` of the rewards and costs."""
    total_reward = total_cost = 0
    for weight, evaluator in rewards:
        total_reward += weight * evaluator(facts)
    for weight, evaluator in costs:
        total_cost += weight * evaluator(facts)
    return _ratio(total_reward, total_cost, "dialogue", facts.dialogue.dialogue_id)


def utility(dialogue: Dialogue, rewards: Sequence[Factor], costs: Sequence[Factor]) -> float:
    """Weighted reward sum over weighted cost sum for one conversation.

    Factors are evaluated on the dialogue's ``DialogueFacts``, so the
    dialogue must carry act annotations. Zero reward over zero cost is 0.0
    (how SRRR scores a dialogue with no rounds); any other reward over a
    cost that is not positive raises ValueError.
    """
    return _utility(DialogueFacts.of(dialogue), _pairs(rewards), _pairs(costs))


def accepted_items_reward(weight: float = 1.0) -> Factor:
    return Factor("accepted_items", weight, lambda f: float(f.accepted_items))


def success_reward(weight: float = 1.0) -> Factor:
    # A user Accept act always credits at least one item.
    return Factor("success", weight, lambda f: 1.0 if f.accepted_items > 0 else 0.0)


def accepted_rounds_reward(weight: float = 1.0) -> Factor:
    return Factor(
        "accepted_rounds",
        weight,
        lambda f: float(sum(1 for r in f.rounds if r.outcome == OUTCOME_ACCEPTED)),
    )


def dialogue_length_cost(weight: float = 1.0) -> Factor:
    return Factor("dialogue_length", weight, lambda f: float(len(f.dialogue)))


def round_count_cost(weight: float = 1.0) -> Factor:
    return Factor("round_count", weight, lambda f: float(len(f.rounds)))


def constant_cost(weight: float = 1.0) -> Factor:
    return Factor("constant", weight, lambda f: 1.0)


# The bundled macro reports, in the form and order ``_report_specs`` gives.
_MACRO_SPECS = (
    ("sr", METRIC_SR, MACRO, (success_reward(),), (constant_cost(),), ()),
    ("srrr", METRIC_SRRR, MACRO, (accepted_rounds_reward(),), (round_count_cost(),), ()),
    ("rdl", METRIC_RDL, MACRO, (accepted_items_reward(),), (dialogue_length_cost(),), ()),
)


def check_metric_names(metrics: Sequence[str]) -> list[str]:
    """The metric names lowercased; ValueError if any is unknown or repeated."""
    requested = [m.lower() for m in metrics]
    unknown = [m for m in requested if m not in VALID_METRICS]
    if unknown:
        raise ValueError(
            f"unknown metric(s) {', '.join(sorted(unknown))}; "
            f"valid names: {', '.join(VALID_METRICS)}"
        )
    repeated = next((m for i, m in enumerate(requested) if m in requested[:i]), None)
    if repeated is not None:
        raise ValueError(f"repeated metric {repeated!r}")
    return requested


_MISSING = object()  # a ground-truth lookup's default: the turn has no entry


def _recall_factors(ground_truth: Mapping[tuple[str, int], Any], n: int):
    """Recall@n's hits reward; its costs, the target items and ``n`` per judged
    turn (a recommendation turn with ground truth); the utterance count; and
    the indexes of the recommendation turns without a ground-truth entry,
    which the fold reads after the factors."""
    # The facts counted last, and their hits, target items, judged turns and
    # skipped turns: the fold reads them off one dialogue's facts in a row.
    last: list[Any] = [None, None]

    def counts(facts: DialogueFacts) -> tuple[int, int, int, list[int]]:
        if last[0] is not facts:
            dialogue_id, hits, targets, turns, skipped = facts.dialogue.dialogue_id, 0, 0, 0, []
            for index, items in facts.recommendation_turns:
                truth = ground_truth.get((dialogue_id, index), _MISSING)
                if truth is _MISSING:
                    skipped.append(index)
                elif truth is not None:
                    truth = set(truth)
                    hits += len(truth.intersection(items[:n]))
                    targets += len(truth)
                    turns += 1
            last[:] = facts, (hits, targets, turns, skipped)
        return last[1]

    factors = (
        Factor("recall_hits", 1.0, lambda f: float(counts(f)[0])),
        Factor("target_items", 1.0, lambda f: float(counts(f)[1])),
        Factor("judged_turns", float(n), lambda f: float(counts(f)[2])),
        dialogue_length_cost(),
    )
    return factors, lambda f: counts(f)[3]


def _report_specs(requested: Sequence[str], ground_truth, n: int) -> tuple[list, tuple, Any]:
    """The requested reports as (request, report name, aggregation, rewards,
    costs, divisors), the macro metrics first, then recall's variants; the
    micro factors; and recall's skipped turns of one dialogue's facts (None
    without recall). A micro value is the system's summed rewards over its
    summed costs, then over its summed divisors. Recall's factors read
    ``ground_truth`` only when called, so specs that are only named and
    indexed may pass None."""
    specs = [spec for spec in _MACRO_SPECS if spec[0] in requested]
    micro: tuple[Factor, ...] = ()
    skipped = None
    if "recall" in requested:
        micro, skipped = _recall_factors(ground_truth, n)
        hits, targets, turns, length = micro
        # The published formula's extra 1/(total utterances) prefactor is
        # kept verbatim as length_normalized, never merged with standard.
        specs += [
            ("recall", f"Recall@{n}[standard]", MICRO, (hits,), (targets,), ()),
            ("recall", f"Recall@{n}[length_normalized]", MICRO, (hits,), (turns,), (length,)),
        ]
    return specs, micro, skipped


@dataclass
class _SystemTally:
    """One system's running scores, sums and warnings."""

    # The dialogue ids in corpus order, and each one's score per macro
    # report, in turn: one block of doubles to pickle and to merge.
    ids: list[str] = field(default_factory=list)
    scores: array = field(default_factory=lambda: array("d"))
    # The weighted sum of each micro factor over the dialogues. Recall's
    # factors count, so the sums of consecutive runs add up exactly.
    sums: list[float] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def absorb(self, later: _SystemTally) -> None:
        """Add the tally of dialogues that come after this one's."""
        self.ids += later.ids
        self.scores += later.scores
        self.warnings += later.warnings
        self.sums = [a + b for a, b in zip(self.sums, later.sums)] if self.sums else later.sums


def _tally_systems(
    dialogues: Iterable[Dialogue],
    requested: Sequence[str],
    ground_truth: Mapping[tuple[str, int], Any] | None,
    n: int,
) -> dict[str, _SystemTally]:
    """Fold ``dialogues`` into one tally per system, in first-appearance order."""
    specs, factors, skipped = _report_specs(requested, ground_truth, n)
    macro = [
        (_pairs(rewards), _pairs(costs)) for _, _, mode, rewards, costs, _ in specs if mode == MACRO
    ]
    micro = _pairs(factors)
    tallies: defaultdict[str, _SystemTally] = defaultdict(
        lambda: _SystemTally(sums=[0.0] * len(micro))
    )
    seen_ids: set[str] = set()
    for dialogue in dialogues:
        dialogue_id = dialogue.dialogue_id
        if dialogue_id in seen_ids:
            raise ValueError(f"duplicate dialogue_id {dialogue_id!r}")
        seen_ids.add(dialogue_id)
        tally = tallies[dialogue.crs_id]
        # Only the macro metrics read acts; recall alone scores items.
        facts = _walk(dialogue, bool(macro))
        if macro:
            tally.ids.append(dialogue_id)
            for rewards, costs in macro:
                tally.scores.append(_utility(facts, rewards, costs))
        if micro:
            sums = tally.sums
            for position, (weight, evaluator) in enumerate(micro):
                sums[position] += weight * evaluator(facts)
            for index in skipped(facts):
                tally.warnings.append(f"no ground truth for ({dialogue_id}, {index}); turn skipped")
    return dict(tallies)  # a worker's result must pickle, and the factory does not


def _merge_tallies(parts: Sequence[dict[str, _SystemTally]]) -> dict[str, _SystemTally]:
    """The tallies of consecutive runs of dialogues, merged in run order."""
    merged: defaultdict[str, _SystemTally] = defaultdict(_SystemTally)
    for part in parts:
        for crs_id, tally in part.items():
            merged[crs_id].absorb(tally)
    return merged


def _reports(
    tallies: Mapping[str, _SystemTally], specs: list, micro: tuple, requested: Sequence[str]
) -> list[MetricReport]:
    """The requested metrics' reports from merged per-system tallies."""
    if requested and not tallies:
        raise ValueError("corpus has no dialogues")
    warnings = [note for t in tallies.values() for note in t.warnings]
    reports: defaultdict[str, list[MetricReport]] = defaultdict(list)
    # Macro reports come first in ``specs``, so a macro report's scores
    # are every ``width``-th from its position.
    width = sum(spec[2] == MACRO for spec in specs)
    for position, (request, metric, mode, rewards, costs, divisors) in enumerate(specs):
        if mode == MACRO:
            columns = {crs_id: t.scores[position::width] for crs_id, t in tallies.items()}
            per_system = {
                crs_id: math.fsum(column) / len(column) for crs_id, column in columns.items()
            }
            # Scores are ratios of small counts: equal ones share one float.
            shared: dict[float, float] = {}
            per_dialogue = {
                d: shared.setdefault(score, score)
                for crs_id, t in tallies.items()
                for d, score in zip(t.ids, columns[crs_id])
            }
            reports[request].append(MetricReport(metric, MACRO, per_system, per_dialogue))
            continue
        per_system = {}
        for crs_id, t in tallies.items():
            total = lambda factors: sum(t.sums[micro.index(factor)] for factor in factors)
            value = _ratio(total(rewards), total(costs), "system", crs_id)
            per_system[crs_id] = value / total(divisors) if divisors else value
        notes = warnings + [
            "length_normalized divides by the total utterance count on top of "
            "per-turn recall; values are not comparable to standard recall"
        ] if divisors else warnings
        reports[request].append(MetricReport(metric, MICRO, per_system, warnings=notes))
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
    its ``standard`` and ``length_normalized`` reports, each recommended
    list truncated to its first ``n`` items. The mapping is read only
    during the fold, and neither kept nor changed: once the fold returns,
    only a caller's own reference keeps it alive. ``dialogues`` (a ``Corpus``,
    the dialogues of ``read_corpus``, or any iterable; ids must be unique) is
    read once: every metric is scored in that one pass into per-system
    tallies.
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
    if isinstance(dialogues, CorpusFiles):
        parts = dialogues.fold(_tally_systems, requested, ground_truth, n)
    else:
        parts = [_tally_systems(dialogues, requested, ground_truth, n)]
    # Scored: unless the caller keeps the mapping, the reports reuse its memory.
    del ground_truth
    # The reports only name and index recall's factors, so these read no truth.
    specs, micro, _ = _report_specs(requested, None, n)
    return _reports(_merge_tallies(parts), specs, micro, requested)
