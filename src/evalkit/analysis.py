"""System rankings, tie-corrected Kendall correlation, reliability reports.

Kendall's tau is computed in its tau-b form (average ranks for ties, tied
pairs removed from both normalization terms) because tied scores are the
norm here: several systems legitimately score exactly 0 on round-based
metrics, and simulators can produce identical scores for distinct systems.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, groupby
from typing import Any, Mapping

from .dialogue import _bundled_text
from .errors import UndefinedCorrelationError


@dataclass(frozen=True)
class RankedSystem:
    crs_id: str
    score: float
    rank: float


@dataclass(frozen=True)
class Ranking:
    """Systems ordered by score (descending) with average ranks for ties."""

    entries: tuple[RankedSystem, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        scores = [e.score for e in self.entries]
        if scores != sorted(scores, reverse=True):
            raise ValueError("ranking entries must be sorted by score descending")

    def order(self) -> tuple[str, ...]:
        return tuple(e.crs_id for e in self.entries)


def rank_systems(scores: Mapping[str, float]) -> Ranking:
    """Rank systems by score, averaging ranks across ties."""
    if len(scores) < 2:
        raise ValueError("ranking needs at least 2 systems")
    ordered = sorted(scores.items(), key=lambda pair: (-pair[1], pair[0]))
    # Each run of equal scores shares the average of its 1-based positions.
    entries: list[RankedSystem] = []
    for score, run in groupby(ordered, key=lambda pair: pair[1]):
        run = list(run)
        rank = len(entries) + (len(run) + 1) / 2
        entries.extend(RankedSystem(crs_id, score, rank) for crs_id, _ in run)
    return Ranking(entries=tuple(entries))


def _tied_pairs(values: list[float]) -> int:
    return sum(c * (c - 1) // 2 for c in Counter(values).values())


def kendall_tau_b(x: Mapping[str, float], y: Mapping[str, float]) -> float:
    """Tie-corrected Kendall rank correlation between two score maps.

    Both maps must cover the same ids (at least two). Raises
    UndefinedCorrelationError when either argument has all scores tied.
    """
    if set(x) != set(y):
        raise ValueError(
            f"score maps cover different ids: {sorted(set(x) ^ set(y))[:5]}"
        )
    ids = sorted(x)
    if len(ids) < 2:
        raise ValueError("kendall_tau_b needs at least 2 ids")
    xs = [float(x[i]) for i in ids]
    ys = [float(y[i]) for i in ids]

    # Positive for a concordant pair, negative for a discordant one.
    products = [(x1 - x2) * (y1 - y2) for (x1, y1), (x2, y2) in combinations(zip(xs, ys), 2)]
    concordant = sum(1 for p in products if p > 0)
    discordant = sum(1 for p in products if p < 0)

    n0 = len(ids) * (len(ids) - 1) // 2
    tx = _tied_pairs(xs)
    ty = _tied_pairs(ys)
    if tx == n0 or ty == n0:
        raise UndefinedCorrelationError(
            "tau-b is undefined when all scores are tied in one argument"
        )
    return (concordant - discordant) / math.sqrt((n0 - tx) * (n0 - ty))


@dataclass(frozen=True)
class ReliabilityReport:
    """How faithfully a candidate evaluation reproduces a reference one.

    ``tau_b_vs_satisfaction`` is the rank correlation of the candidate's
    scores against the human-satisfaction reference ranking;
    ``per_system_abs_diff`` holds |reference score - candidate score| per
    system over the compared intersection.
    """

    reference_name: str
    candidate_name: str
    tau_b_vs_satisfaction: float
    per_system_abs_diff: Mapping[str, float]
    average_abs_diff: float
    systems_compared: tuple[str, ...]
    systems_dropped: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "systems_compared", tuple(self.systems_compared))
        object.__setattr__(self, "systems_dropped", tuple(self.systems_dropped))
        for crs_id, diff in self.per_system_abs_diff.items():
            if diff < 0:
                raise ValueError(f"negative diff for {crs_id}")
        if self.per_system_abs_diff:
            mean = math.fsum(self.per_system_abs_diff.values()) / len(self.per_system_abs_diff)
            if abs(mean - self.average_abs_diff) > 1e-12:
                raise ValueError("average_abs_diff must equal the mean per-system diff")

    def to_record(self) -> dict[str, Any]:
        return {
            "kind": "reliability",
            "reference": self.reference_name,
            "candidate": self.candidate_name,
            "tau_b_vs_satisfaction": self.tau_b_vs_satisfaction,
            "per_system_abs_diff": dict(self.per_system_abs_diff),
            "average_abs_diff": self.average_abs_diff,
            "systems_compared": list(self.systems_compared),
            "systems_dropped": list(self.systems_dropped),
        }

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "ReliabilityReport":
        if record.get("kind") != "reliability":
            raise ValueError("not a reliability record")
        return cls(
            reference_name=record["reference"],
            candidate_name=record["candidate"],
            tau_b_vs_satisfaction=record["tau_b_vs_satisfaction"],
            per_system_abs_diff=dict(record["per_system_abs_diff"]),
            average_abs_diff=record["average_abs_diff"],
            systems_compared=tuple(record["systems_compared"]),
            systems_dropped=tuple(record["systems_dropped"]),
        )


def reliability_report(
    reference: Mapping[str, float],
    candidate: Mapping[str, float],
    satisfaction: Mapping[str, float],
    reference_name: str = "reference",
    candidate_name: str = "candidate",
) -> ReliabilityReport:
    """Compare a candidate evaluation against a reference one.

    Comparisons are restricted to the systems present in both score maps;
    dropped systems are recorded. The correlation is computed between the
    candidate scores and the satisfaction scores over that intersection.
    """
    common = sorted(set(reference) & set(candidate))
    if not common:
        raise ValueError(
            f"reference {reference_name!r} and candidate {candidate_name!r} share no systems"
        )
    dropped = sorted((set(reference) | set(candidate)) - set(common))
    missing_satisfaction = [i for i in common if i not in satisfaction]
    if missing_satisfaction:
        raise ValueError(
            f"satisfaction scores missing for {missing_satisfaction[:5]}"
        )
    diffs = {i: abs(reference[i] - candidate[i]) for i in common}
    tau = kendall_tau_b(
        {i: candidate[i] for i in common}, {i: satisfaction[i] for i in common}
    )
    return ReliabilityReport(
        reference_name=reference_name,
        candidate_name=candidate_name,
        tau_b_vs_satisfaction=tau,
        per_system_abs_diff=diffs,
        average_abs_diff=math.fsum(diffs.values()) / len(diffs),
        systems_compared=tuple(common),
        systems_dropped=tuple(dropped),
    )


def load_reference_scores() -> dict[str, Any]:
    """Bundled benchmark scores for nine public movie-domain CRSs.

    The file carries, per system: dialogue counts and human-satisfaction
    fractions from a real-user evaluation, metric scores under that
    evaluation, RDL scores measured with two user simulators, and the
    externally published correlation/difference figures used as regression
    targets.
    """
    return json.loads(_bundled_text("reference_scores.json"))
