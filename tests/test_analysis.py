import math
import random

import pytest
from scipy.stats import kendalltau as scipy_kendalltau

from evalkit.analysis import (
    Ranking,
    ReliabilityReport,
    kendall_tau_b,
    load_reference_scores,
    rank_systems,
    reliability_report,
)
from evalkit.errors import UndefinedCorrelationError

REF = load_reference_scores()


class TestRankSystems:
    def test_two_systems(self):
        ranking = rank_systems({"A": 0.5, "B": 0.2})
        assert ranking.order() == ("A", "B")
        assert [(e.crs_id, e.rank) for e in ranking.entries] == [("A", 1.0), ("B", 2.0)]

    def test_ties_share_average_rank(self):
        ranking = rank_systems({"A": 0.1, "B": 0.1, "C": 0.0})
        ranks = {e.crs_id: e.rank for e in ranking.entries}
        assert ranks["A"] == ranks["B"] == 1.5
        assert ranks["C"] == 3.0

    def test_fewer_than_two_systems_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            rank_systems({"A": 0.5})

    def test_reference_rdl_order(self):
        ranking = rank_systems(REF["human_metrics"]["rdl"])
        assert ranking.order()[:4] == (
            "ChatCRS_OpenDialKG",
            "ChatCRS_ReDial",
            "BARCOR_ReDial",
            "CRB-CRS_ReDial",
        )
        assert ranking.order()[-1] == "KBRD_OpenDialKG"

    def test_ranking_must_be_sorted(self):
        from evalkit.analysis import RankedSystem

        with pytest.raises(ValueError, match="descending"):
            Ranking(
                entries=(
                    RankedSystem("A", 0.1, 2.0),
                    RankedSystem("B", 0.9, 1.0),
                )
            )


class TestKendallTauB:
    def test_identical_maps_score_one(self):
        scores = {"A": 0.3, "B": 0.2, "C": 0.1}
        assert kendall_tau_b(scores, scores) == 1.0

    def test_reversed_order_scores_minus_one(self):
        x = {"A": 3.0, "B": 2.0, "C": 1.0}
        y = {"A": 1.0, "B": 2.0, "C": 3.0}
        assert kendall_tau_b(x, y) == -1.0

    def test_symmetry(self):
        rng = random.Random(5)
        x = {f"s{i}": rng.random() for i in range(8)}
        y = {f"s{i}": rng.random() for i in range(8)}
        assert kendall_tau_b(x, y) == pytest.approx(kendall_tau_b(y, x))

    def test_matches_scipy_with_and_without_ties(self):
        rng = random.Random(6)
        for _ in range(50):
            n = rng.randint(2, 12)
            ids = [f"s{i}" for i in range(n)]
            # Coarse grid values force frequent ties.
            x = {i: rng.choice((0.0, 0.1, 0.2, 0.3)) for i in ids}
            y = {i: rng.choice((0.0, 0.1, 0.2, 0.3)) for i in ids}
            xs = [x[i] for i in ids]
            ys = [y[i] for i in ids]
            expected = scipy_kendalltau(xs, ys, variant="b").statistic
            if math.isnan(expected):
                with pytest.raises(UndefinedCorrelationError):
                    kendall_tau_b(x, y)
            else:
                assert kendall_tau_b(x, y) == pytest.approx(expected, abs=1e-12)

    def test_invariant_under_strictly_increasing_transform(self):
        rng = random.Random(7)
        x = {f"s{i}": rng.random() for i in range(9)}
        y = {f"s{i}": rng.random() for i in range(9)}
        base = kendall_tau_b(x, y)
        squashed = {k: math.tanh(3 * v) for k, v in x.items()}
        shifted = {k: 10 * v + 5 for k, v in y.items()}
        assert kendall_tau_b(squashed, shifted) == pytest.approx(base)

    def test_tau_from_ranks_equals_tau_from_scores(self):
        x = REF["human_metrics"]["srrr"]
        y = REF["satisfaction"]
        from_scores = kendall_tau_b(x, y)
        # Ranks order ascending with score, so negate to keep orientation.
        rank_x = {e.crs_id: -e.rank for e in rank_systems(x).entries}
        rank_y = {e.crs_id: -e.rank for e in rank_systems(y).entries}
        assert kendall_tau_b(rank_x, rank_y) == pytest.approx(from_scores)

    def test_mismatched_ids_rejected(self):
        with pytest.raises(ValueError, match="different ids"):
            kendall_tau_b({"A": 1.0, "B": 2.0}, {"A": 1.0, "C": 2.0})

    def test_all_tied_is_undefined(self):
        with pytest.raises(UndefinedCorrelationError):
            kendall_tau_b({"A": 1.0, "B": 1.0}, {"A": 0.1, "B": 0.2})

    def test_published_correlations_reproduced(self):
        published = REF["published"]["tau_vs_satisfaction"]
        satisfaction = REF["satisfaction"]
        for metric, expected in (
            ("rdl", published["rdl"]),
            ("success_rate", published["success_rate"]),
            ("srrr", published["srrr"]),
        ):
            scores = REF["human_metrics"][metric]
            assert kendall_tau_b(
                scores, {k: satisfaction[k] for k in scores}
            ) == pytest.approx(expected, abs=5e-3)
        recall = REF["human_metrics"]["recall_at_1"]
        assert kendall_tau_b(
            recall, {k: satisfaction[k] for k in recall}
        ) == pytest.approx(published["recall_at_1"], abs=5e-3)


class TestReliabilityReport:
    def test_identical_candidate_scores_zero_diffs(self):
        reference = REF["human_metrics"]["rdl"]
        satisfaction = REF["satisfaction"]
        report = reliability_report(reference, reference, satisfaction)
        assert report.average_abs_diff == 0.0
        assert all(v == 0.0 for v in report.per_system_abs_diff.values())
        assert report.tau_b_vs_satisfaction == pytest.approx(0.7778, abs=5e-3)

    def test_intersection_and_dropped_systems(self):
        reference = REF["human_metrics"]["rdl"]
        candidate = REF["simulated_rdl"]["abus"]  # 8 systems
        report = reliability_report(reference, candidate, REF["satisfaction"])
        assert len(report.systems_compared) == 8
        assert report.systems_dropped == ("ChatCRS_OpenDialKG",)

    def test_disjoint_systems_rejected(self):
        with pytest.raises(ValueError, match="no systems"):
            reliability_report({"A": 0.1}, {"B": 0.2}, {"A": 0.5, "B": 0.3})

    def test_missing_satisfaction_rejected(self):
        with pytest.raises(ValueError, match="satisfaction"):
            reliability_report(
                {"A": 0.1, "B": 0.2}, {"A": 0.2, "B": 0.1}, {"A": 0.5}
            )

    def test_permutation_invariance_of_diffs(self):
        reference = REF["human_metrics"]["rdl"]
        candidate = REF["simulated_rdl"]["llm_us"]
        satisfaction = REF["satisfaction"]
        report = reliability_report(reference, candidate, satisfaction)
        shuffled = dict(reversed(list(candidate.items())))
        again = reliability_report(reference, shuffled, satisfaction)
        assert report.per_system_abs_diff == again.per_system_abs_diff
        assert report.average_abs_diff == again.average_abs_diff

    def test_mean_diff_is_correctly_rounded(self):
        # Ten diffs of exactly 0.1; an uncompensated sum gives 0.0999...
        systems = [f"s{i}" for i in range(10)]
        reference = {s: 0.1 for s in systems}
        candidate = {s: 0.2 * (i % 2) for i, s in enumerate(systems)}
        satisfaction = {s: i / 10 for i, s in enumerate(systems)}
        report = reliability_report(reference, candidate, satisfaction)
        assert set(report.per_system_abs_diff.values()) == {0.1}
        assert report.average_abs_diff == 0.1

    def test_record_round_trip(self):
        report = reliability_report(
            REF["human_metrics"]["rdl"],
            REF["simulated_rdl"]["llm_us"],
            REF["satisfaction"],
            reference_name="human",
            candidate_name="llm_us",
        )
        assert ReliabilityReport.from_record(report.to_record()) == report

    def test_average_must_match_mean(self):
        with pytest.raises(ValueError, match="mean"):
            ReliabilityReport(
                reference_name="r",
                candidate_name="c",
                tau_b_vs_satisfaction=0.5,
                per_system_abs_diff={"A": 0.2, "B": 0.4},
                average_abs_diff=0.5,
                systems_compared=("A", "B"),
            )


class TestReferenceScoresIntegrity:
    def test_satisfaction_covers_all_nine_systems(self):
        assert set(REF["satisfaction"]) == set(REF["systems"])
        assert len(REF["systems"]) == 9

    def test_recall_has_eight_systems(self):
        assert len(REF["human_metrics"]["recall_at_1"]) == 8
        assert "CRB-CRS_ReDial" not in REF["human_metrics"]["recall_at_1"]

    def test_abus_lacks_one_system(self):
        assert len(REF["simulated_rdl"]["abus"]) == 8
        assert "ChatCRS_OpenDialKG" not in REF["simulated_rdl"]["abus"]

    def test_published_diffs_consistent_with_scores(self):
        for simulator in ("abus", "llm_us"):
            scores = REF["simulated_rdl"][simulator]
            published = REF["published"]["per_system_abs_rdl_diff"][simulator]
            for crs_id, published_diff in published.items():
                actual = abs(REF["human_metrics"]["rdl"][crs_id] - scores[crs_id])
                assert actual == pytest.approx(published_diff, abs=1e-9)
