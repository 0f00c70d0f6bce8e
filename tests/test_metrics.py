import json
import random
from dataclasses import replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from evalkit import metrics
from evalkit.analysis import rank_systems
from evalkit.corpus_io import iter_corpus, serialize_corpus
from evalkit.dialogue import Corpus, Dialogue, DialogueAct, Speaker
from evalkit.errors import UnannotatedDialogueError
from evalkit.metrics import (
    CostFactor,
    DialogueFacts,
    MetricReport,
    RewardFactor,
    accepted_items_reward,
    accepted_rounds_reward,
    constant_cost,
    dialogue_length_cost,
    evaluate_system,
    round_count_cost,
    segment_rounds,
    success_reward,
    utility,
)

from helpers import (
    ITEMS,
    SYSTEM_INTENTS,
    USER_INTENTS,
    act,
    corpus,
    dlg,
    random_corpus,
    turns,
    utt,
)
from oracle import (
    oracle_accepted_items,
    oracle_length_normalized_recall,
    oracle_recall,
    oracle_reports,
    oracle_rounds,
)


def one_round_accepted():
    return dlg(
        "accepted",
        "sysA",
        turns(("SYSTEM", ["Recommend"]), ("USER", ["Accept"])),
    )


def two_rounds():
    """Hand-traced: Recommend, Inquire, Respond, Reject, Recommend, Accept."""
    return dlg(
        "tworounds",
        "sysA",
        turns(
            ("SYSTEM", [act("Recommend", ("TITLE", "Alpha"))]),
            ("USER", ["Inquire"]),
            ("SYSTEM", ["Respond"]),
            ("USER", [act("Reject", ("TITLE", "Alpha"))]),
            ("SYSTEM", [act("Recommend", ("TITLE", "Beta"))]),
            ("USER", [act("Accept", ("TITLE", "Beta"))]),
        ),
    )


def unresolved_round():
    return dlg(
        "unresolved",
        "sysA",
        turns(("SYSTEM", ["Recommend"]), ("USER", ["Inquire"])),
    )


class TestSegmentRounds:
    def test_single_accepted_round(self):
        rounds = segment_rounds(one_round_accepted())
        assert len(rounds) == 1
        assert rounds[0].outcome == "accepted"
        assert rounds[0].start_index == 0
        assert rounds[0].end_index == 1

    def test_hand_traced_two_rounds(self):
        rounds = segment_rounds(two_rounds())
        assert [r.outcome for r in rounds] == ["rejected", "accepted"]
        assert [(r.start_index, r.end_index) for r in rounds] == [(0, 3), (4, 5)]
        assert rounds[0].items == ("Alpha",)
        assert rounds[1].items == ("Beta",)

    def test_round_open_at_dialogue_end_is_unresolved(self):
        rounds = segment_rounds(unresolved_round())
        assert len(rounds) == 1
        assert rounds[0].outcome == "unresolved"
        assert rounds[0].end_index == 2  # one past the last utterance

    def test_extra_recommends_extend_open_round(self):
        d = dlg(
            "extended",
            "sysA",
            turns(
                ("SYSTEM", [act("Recommend", ("TITLE", "Alpha"))]),
                ("USER", ["Inquire"]),
                ("SYSTEM", [act("Recommend", ("TITLE", "Beta"))], ["Beta"]),
                ("USER", ["Accept"]),
            ),
        )
        rounds = segment_rounds(d)
        assert len(rounds) == 1
        assert rounds[0].items == ("Alpha", "Beta")
        assert rounds[0].outcome == "accepted"

    def test_accept_without_open_round_is_ignored(self):
        d = dlg("stray", "sysA", turns(("USER", ["Accept"]), ("SYSTEM", ["Respond"])))
        assert segment_rounds(d) == []

    def test_decision_act_order_within_utterance(self):
        d = dlg(
            "both",
            "sysA",
            turns(
                ("SYSTEM", ["Recommend"]),
                ("USER", [act("Reject"), act("Accept")]),
            ),
        )
        assert segment_rounds(d)[0].outcome == "rejected"

    def test_unannotated_dialogue_rejected(self):
        d = dlg("bare", "sysA", [utt(0, "USER"), utt(1, "SYSTEM")])
        with pytest.raises(UnannotatedDialogueError):
            segment_rounds(d)


BARE = dlg("bare", "sysA", [utt(0, "USER"), utt(1, "SYSTEM")])


@pytest.mark.parametrize(
    "score",
    [
        lambda: utility(BARE, [accepted_items_reward()], [constant_cost()]),
        lambda: utility(BARE, [accepted_items_reward()], [dialogue_length_cost()]),
        lambda: evaluate_system(corpus(BARE), ["sr"]),
        lambda: evaluate_system(corpus(BARE), ["srrr"]),
        lambda: evaluate_system(corpus(BARE), ["rdl"]),
        lambda: evaluate_system([one_round_accepted(), BARE], ["sr", "recall"], {}),
    ],
    ids=["utility", "dialogue_rdl", "success_rate", "srrr", "rdl", "evaluate_system"],
)
def test_every_act_metric_rejects_an_unannotated_dialogue(score):
    with pytest.raises(UnannotatedDialogueError, match="bare"):
        score()


class TestSuccessRate:
    def test_every_dialogue_accepted(self):
        c = corpus(
            one_round_accepted(),
            dlg("d2", "sysA", turns(("SYSTEM", ["Recommend"]), ("USER", ["Accept"]))),
        )
        assert evaluate_system(c, ["sr"])[0].per_system == {"sysA": 1.0}

    def test_two_of_three(self):
        c = corpus(
            one_round_accepted(),
            two_rounds(),
            unresolved_round(),
        )
        assert evaluate_system(c, ["sr"])[0].per_system["sysA"] == pytest.approx(2 / 3)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="no dialogues"):
            evaluate_system(corpus(), ["sr"])

    def test_report_shape(self):
        report = evaluate_system(corpus(one_round_accepted()), ["sr"])[0]
        assert report.metric == "SR"
        assert report.aggregation == "macro"
        assert report.per_dialogue == {"accepted": 1.0}


class TestSrrr:
    def test_single_accepted_round_scores_one(self):
        assert evaluate_system(corpus(one_round_accepted()), ["srrr"])[0].per_system["sysA"] == 1.0

    def test_accepted_and_rejected_rounds(self):
        assert evaluate_system(corpus(two_rounds()), ["srrr"])[0].per_system["sysA"] == 0.5

    def test_zero_round_dialogue_contributes_zero(self):
        no_rounds = dlg("flat", "sysA", turns(("USER", ["Inquire"]), ("SYSTEM", ["Respond"])))
        c = corpus(one_round_accepted(), no_rounds)
        assert evaluate_system(c, ["srrr"])[0].per_system["sysA"] == 0.5  # mean of 1.0 and 0.0

    def test_unresolved_rounds_count_as_unsuccessful(self):
        assert evaluate_system(corpus(unresolved_round()), ["srrr"])[0].per_system["sysA"] == 0.0


class TestRdl:
    def test_ten_utterances_two_accepted_items(self):
        specs = [("USER", []) if i % 2 else ("SYSTEM", []) for i in range(10)]
        utterances = list(turns(*specs))
        utterances[1] = utt(1, "USER", [act("Accept", ("TITLE", "Alpha"))])
        utterances[5] = utt(5, "USER", [act("Accept", ("TITLE", "Beta"))])
        d = dlg("ten", "sysA", utterances)
        value = utility(d, [accepted_items_reward()], [dialogue_length_cost()])
        assert value == pytest.approx(0.2)
        assert evaluate_system(corpus(d), ["rdl"])[0].per_system["sysA"] == pytest.approx(0.2)

    def test_mean_of_ten_tenths_is_exactly_a_tenth(self):
        # Correctly rounded on every Python: 3.10 and 3.11 sum floats
        # without compensation, and sum([0.1] * 10) / 10 is 0.0999...
        specs = [("SYSTEM", ["Recommend"]) if i % 2 else ("USER", ["Inquire"]) for i in range(10)]
        utterances = list(turns(*specs))
        utterances[2] = utt(2, "USER", [act("Accept", ("TITLE", "Alpha"))])
        dialogues = [dlg(f"d{n}", "sysA", utterances) for n in range(10)]
        assert utility(dialogues[0], [accepted_items_reward()], [dialogue_length_cost()]) == 0.1
        assert evaluate_system(corpus(*dialogues), ["rdl"])[0].per_system["sysA"] == 0.1

    def test_no_accept_scores_zero(self):
        d = dlg("none", "sysA", turns(("USER", ["Inquire"]), ("SYSTEM", ["Respond"])))
        assert evaluate_system(corpus(d), ["rdl"])[0].per_system["sysA"] == 0.0

    def test_slotless_accept_counts_one(self):
        d = dlg(
            "bare-accept",
            "sysA",
            turns(("SYSTEM", ["Recommend"]), ("USER", ["Accept"])),
        )
        assert DialogueFacts.of(d).accepted_items == 1
        assert utility(d, [accepted_items_reward()], [dialogue_length_cost()]) == 0.5

    def test_repeated_item_counted_once(self):
        d = dlg(
            "repeat",
            "sysA",
            turns(
                ("SYSTEM", ["Recommend"]),
                ("USER", [act("Accept", ("TITLE", "Alpha"))]),
                ("SYSTEM", ["Recommend"]),
                ("USER", [act("Accept", ("TITLE", "Alpha"))]),
            ),
        )
        assert DialogueFacts.of(d).accepted_items == 1

    def test_mixed_named_and_bare_accepts(self):
        d = dlg(
            "mixed",
            "sysA",
            turns(
                ("SYSTEM", ["Recommend"]),
                ("USER", [act("Accept", ("TITLE", "Alpha"))]),
                ("SYSTEM", ["Recommend"]),
                ("USER", ["Accept"]),
            ),
        )
        assert DialogueFacts.of(d).accepted_items == 2


class TestRecallAtN:
    def test_single_hit_at_rank_one(self):
        d = dlg(
            "r1",
            "sysA",
            turns(("USER", ["Disclose"]), ("SYSTEM", ["Recommend"], ["Alpha"])),
        )
        report = evaluate_system(corpus(d), ["recall"], {("r1", 1): {"Alpha"}}, 1)[0]
        assert report.metric == "Recall@1[standard]"
        assert report.per_system["sysA"] == 1.0
        assert report.aggregation == "micro"

    def test_two_turns_one_hit_both_variants(self):
        d = dlg(
            "r2",
            "sysA",
            turns(
                ("USER", ["Disclose"]),
                ("SYSTEM", ["Recommend"], ["Alpha"]),
                ("USER", ["Inquire"]),
                ("SYSTEM", ["Recommend"], ["Beta"]),
            ),
        )
        truth = {("r2", 1): {"Alpha"}, ("r2", 3): {"Gamma"}}
        standard, normalized = evaluate_system(corpus(d), ["recall"], truth, 2)
        assert standard.per_system["sysA"] == pytest.approx(0.5)
        assert normalized.metric == "Recall@2[length_normalized]"
        # inner ratio: 1 hit / (n=2 * 2 recommendation turns) = 0.25,
        # then divided by the 4-utterance total.
        assert normalized.per_system["sysA"] * len(d) == pytest.approx(0.25)
        assert normalized.per_system["sysA"] == pytest.approx(0.0625)
        assert any("length_normalized" in w for w in normalized.warnings)

    def test_truncation_to_first_n(self):
        d = dlg(
            "trunc",
            "sysA",
            turns(("USER", ["Disclose"]), ("SYSTEM", ["Recommend"], ["Alpha", "Beta"])),
        )
        truth = {("trunc", 1): {"Beta"}}
        assert evaluate_system(corpus(d), ["recall"], truth, 1)[0].per_system["sysA"] == 0.0
        assert evaluate_system(corpus(d), ["recall"], truth, 2)[0].per_system["sysA"] == 1.0

    def test_missing_ground_truth_skips_turn_with_warning(self):
        d = dlg(
            "missing",
            "sysA",
            turns(
                ("USER", ["Disclose"]),
                ("SYSTEM", ["Recommend"], ["Alpha"]),
                ("USER", ["Inquire"]),
                ("SYSTEM", ["Recommend"], ["Beta"]),
            ),
        )
        truth = {("missing", 1): {"Alpha"}}
        report, normalized = evaluate_system(corpus(d), ["recall"], truth, 1)
        assert report.per_system["sysA"] == 1.0
        assert len(report.warnings) == 1
        assert "3" in report.warnings[0]
        # length_normalized repeats the skipped turns, then flags itself.
        assert normalized.warnings[:-1] == report.warnings

    def test_items_fall_back_to_recommend_slots(self):
        d = dlg(
            "slots",
            "sysA",
            turns(("USER", ["Disclose"]), ("SYSTEM", [act("Recommend", ("TITLE", "Alpha"))])),
        )
        report = evaluate_system(corpus(d), ["recall"], {("slots", 1): {"Alpha"}}, 1)[0]
        assert report.per_system["sysA"] == 1.0

    def test_recall_alone_scores_an_unannotated_dialogue_from_its_items(self):
        # Recall reads only what each system turn recommended, so a
        # recall-only request does not ask for act annotation.
        d = dlg("bare", "sysA", [utt(0, "USER"), utt(1, "SYSTEM", items=["Alpha", "Beta"])])
        standard, normalized = evaluate_system(corpus(d), ["recall"], {("bare", 1): {"Beta"}}, 2)
        assert standard.per_system == {"sysA": 1.0}
        # 1 hit over (n=2 * 1 judged turn), then over 2 utterances.
        assert normalized.per_system == {"sysA": 0.25}

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            evaluate_system(corpus(one_round_accepted()), ["recall"], {}, 0)

    def test_randomized_against_oracle(self):
        rng = random.Random(2025)
        for _ in range(20):
            c = random_corpus(rng)
            truth = {}
            for d in c.dialogues:
                for u in d.utterances:
                    if u.speaker.value == "SYSTEM" and (
                        u.items or u.has_intent("Recommend")
                    ):
                        if rng.random() < 0.8:
                            truth[(d.dialogue_id, u.index)] = {
                                rng.choice(("Alpha", "Beta", "Gamma", "Delta"))
                            }
            n = rng.randint(1, 3)
            engine = evaluate_system(c, ["recall"], truth, n)[0].per_system
            assert engine == oracle_recall(serialize_corpus(c), truth, n)


class TestUtilityEngine:
    def test_simple_ratio(self):
        d = one_round_accepted()
        rewards = [RewardFactor("r", 1.0, lambda _: 2.0)]
        costs = [CostFactor("c", 1.0, lambda _: 4.0)]
        assert utility(d, rewards, costs) == 0.5

    def test_weighted_combination(self):
        d = one_round_accepted()
        rewards = [
            RewardFactor("r1", 2.0, lambda _: 1.0),
            RewardFactor("r2", 1.0, lambda _: 3.0),
        ]
        costs = [CostFactor("c", 1.0, lambda _: 5.0)]
        assert utility(d, rewards, costs) == pytest.approx(1.0)

    def test_zero_cost_rejected(self):
        d = one_round_accepted()
        with pytest.raises(ValueError, match="cost is zero"):
            utility(d, [RewardFactor("r", 1.0, lambda _: 1.0)], [])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            RewardFactor("r", -0.1, lambda _: 1.0)
        with pytest.raises(ValueError):
            CostFactor("c", -0.1, lambda _: 1.0)

    def test_rdl_instantiation_matches_dedicated_op(self):
        specs = [("USER", []) if i % 2 else ("SYSTEM", []) for i in range(10)]
        utterances = list(turns(*specs))
        utterances[1] = utt(1, "USER", [act("Accept", ("TITLE", "Alpha"))])
        utterances[5] = utt(5, "USER", [act("Accept", ("TITLE", "Beta"))])
        d = dlg("ten", "sysA", utterances)
        value = utility(d, [accepted_items_reward()], [dialogue_length_cost()])
        engine = evaluate_system(corpus(d), ["rdl"])[0].per_dialogue["ten"]
        assert value == engine == pytest.approx(0.2)

    def test_srrr_core_instantiation(self):
        d = two_rounds()
        value = utility(d, [accepted_rounds_reward()], [round_count_cost()])
        assert value == 0.5

    def test_sr_instantiation(self):
        d = two_rounds()
        assert utility(d, [success_reward()], [constant_cost()]) == 1.0

    def test_no_rounds_scores_zero_srrr(self):
        d = dlg("chat", "sysA", turns(("USER", ["Disclose"]), ("SYSTEM", ["Request"])))
        assert utility(d, [accepted_rounds_reward()], [round_count_cost()]) == 0.0

    def test_positive_reward_over_zero_cost_still_raises(self):
        d = dlg("chat", "sysA", turns(("USER", ["Disclose"]), ("SYSTEM", ["Request"])))
        with pytest.raises(ValueError, match="cost is zero"):
            utility(d, [RewardFactor("r", 1.0, lambda _: 1.0)], [round_count_cost()])

    def test_custom_factor_reads_the_dialogue(self):
        d = two_rounds()
        user_turns = RewardFactor(
            "user_turns",
            1.0,
            lambda f: float(sum(u.speaker is Speaker.USER for u in f.dialogue.utterances)),
        )
        assert utility(d, [user_turns], [dialogue_length_cost()]) == 0.5


class TestEvaluateSystem:
    def test_single_metric_all_accept(self):
        c = corpus(one_round_accepted())
        reports = evaluate_system(c, ["sr"])
        assert len(reports) == 1
        assert reports[0].per_system == {"sysA": 1.0}

    def test_composed_metrics_match_individual_ops(self):
        c = corpus(one_round_accepted(), two_rounds(), unresolved_round())
        reports = {r.metric: r for r in evaluate_system(c, ["sr", "srrr", "rdl"])}
        assert reports["SR"].per_system == evaluate_system(c, ["sr"])[0].per_system
        assert reports["SRRR"].per_system == evaluate_system(c, ["srrr"])[0].per_system
        assert reports["RDL"].per_system == evaluate_system(c, ["rdl"])[0].per_system

    def test_empty_metric_set(self):
        assert evaluate_system(corpus(one_round_accepted()), []) == []

    def test_unknown_metric_lists_valid_names(self):
        with pytest.raises(ValueError) as excinfo:
            evaluate_system(corpus(one_round_accepted()), ["bogus"])
        for name in ("sr", "srrr", "rdl", "recall"):
            assert name in str(excinfo.value)

    def test_a_repeated_metric_is_named(self):
        # ``sr`` and ``SR`` name one metric: two SR reports would make the
        # report file ambiguous to ``compare``.
        with pytest.raises(ValueError, match="repeated metric 'sr'"):
            evaluate_system(corpus(one_round_accepted()), ["sr", "rdl", "SR"])

    def test_recall_requires_ground_truth(self):
        with pytest.raises(ValueError, match="ground-truth"):
            evaluate_system(corpus(one_round_accepted()), ["recall"])

    def test_recall_yields_both_variants(self):
        d = dlg(
            "r1",
            "sysA",
            turns(("USER", ["Disclose"]), ("SYSTEM", ["Recommend"], ["Alpha"])),
        )
        reports = evaluate_system(
            corpus(d), ["recall"], ground_truth={("r1", 1): {"Alpha"}}, n=1
        )
        assert [r.metric for r in reports] == [
            "Recall@1[standard]",
            "Recall@1[length_normalized]",
        ]

    def test_report_record_round_trip(self):
        report = evaluate_system(corpus(one_round_accepted()), ["sr"])[0]
        assert MetricReport.from_record(report.to_record()) == report


class TestInvariants:
    def test_ranges_on_random_corpora(self):
        rng = random.Random(11)
        for _ in range(25):
            c = random_corpus(rng)
            sr, srrr, rdl = evaluate_system(c, ["sr", "srrr", "rdl"])
            sr_values = sr.per_system.values()
            srrr_values = srrr.per_system.values()
            rdl_values = rdl.per_system.values()
            assert all(0.0 <= v <= 1.0 for v in sr_values)
            assert all(0.0 <= v <= 1.0 for v in srrr_values)
            assert all(v >= 0.0 for v in rdl_values)

    def test_text_mutation_leaves_metrics_unchanged(self):
        rng = random.Random(12)
        for _ in range(10):
            c = random_corpus(rng)
            mutated = Corpus(
                dialogues=tuple(
                    replace(
                        d,
                        utterances=tuple(
                            replace(u, text=f"noise {rng.random()}")
                            for u in d.utterances
                        ),
                    )
                    for d in c.dialogues
                ),
                schema_version=c.schema_version,
            )
            for metric in ("sr", "srrr", "rdl"):
                assert (
                    evaluate_system(c, [metric])[0].per_system
                    == evaluate_system(mutated, [metric])[0].per_system
                )

    def test_dialogue_permutation_leaves_system_scores_unchanged(self):
        rng = random.Random(13)
        for _ in range(10):
            c = random_corpus(rng)
            shuffled_list = list(c.dialogues)
            rng.shuffle(shuffled_list)
            shuffled = Corpus(dialogues=tuple(shuffled_list))
            for metric in ("sr", "srrr", "rdl"):
                before = evaluate_system(c, [metric])[0].per_system
                after = evaluate_system(shuffled, [metric])[0].per_system
                assert before.keys() == after.keys()
                for crs_id in before:
                    assert before[crs_id] == pytest.approx(after[crs_id], abs=1e-12)

    def test_sr_equals_srrr_on_single_resolved_round_corpora(self):
        # One round per dialogue, Accept acts only as round resolutions.
        accepted = dlg(
            "a", "sysA", turns(("SYSTEM", ["Recommend"]), ("USER", ["Accept"]))
        )
        rejected = dlg(
            "b", "sysA", turns(("SYSTEM", ["Recommend"]), ("USER", ["Reject"]))
        )
        also_accepted = dlg(
            "c",
            "sysB",
            turns(
                ("USER", ["Disclose"]),
                ("SYSTEM", ["Recommend"]),
                ("USER", [act("Accept", ("TITLE", "Alpha"))]),
            ),
        )
        c = corpus(accepted, rejected, also_accepted)
        sr, srrr = evaluate_system(c, ["sr", "srrr"])
        assert sr.per_system == srrr.per_system

    def test_weight_scaling_preserves_ranking(self):
        rng = random.Random(14)
        c = None
        # Find a random corpus with at least 2 systems.
        while c is None or len(c.crs_ids()) < 2:
            c = random_corpus(rng)

        def system_utilities(reward_weight, cost_weight):
            scores = {}
            for crs_id, dialogues in c.by_system().items():
                values = [
                    utility(
                        d,
                        [accepted_items_reward(reward_weight)],
                        [dialogue_length_cost(cost_weight)],
                    )
                    for d in dialogues
                ]
                scores[crs_id] = sum(values) / len(values)
            return scores

        base = system_utilities(1.0, 1.0)
        for k in (0.25, 3.0, 17.5):
            assert rank_systems(system_utilities(k, 1.0)).order() == rank_systems(base).order()
            assert rank_systems(system_utilities(1.0, k)).order() == rank_systems(base).order()

    def test_adding_accepted_round_never_decreases_srrr_numerator(self):
        rng = random.Random(15)
        for _ in range(10):
            c = random_corpus(rng)
            d = c.dialogues[0]
            rounds_before = segment_rounds(d)
            accepted_before = sum(1 for r in rounds_before if r.outcome == "accepted")
            extended = replace(
                d,
                utterances=d.utterances
                + (
                    utt(len(d.utterances), "SYSTEM", ["Recommend"]),
                    utt(len(d.utterances) + 1, "USER", ["Accept"]),
                ),
            )
            rounds_after = segment_rounds(extended)
            accepted_after = sum(1 for r in rounds_after if r.outcome == "accepted")
            assert accepted_after >= accepted_before

    def test_adding_accepted_items_never_decreases_rdl(self):
        rng = random.Random(16)
        for _ in range(10):
            c = random_corpus(rng)
            d = c.dialogues[0]
            before = utility(d, [accepted_items_reward()], [dialogue_length_cost()])
            user_positions = [
                u.index for u in d.utterances if u.speaker.value == "USER"
            ]
            if not user_positions:
                continue
            position = user_positions[0]
            target = d.utterances[position]
            boosted = replace(
                d,
                utterances=d.utterances[:position]
                + (
                    replace(
                        target,
                        acts=target.acts + (act("Accept", ("TITLE", "Fresh")),),
                    ),
                )
                + d.utterances[position + 1 :],
            )
            assert utility(boosted, [accepted_items_reward()], [dialogue_length_cost()]) >= before

    def test_oracle_equivalence_randomized(self):
        rng = random.Random(17)
        for _ in range(25):
            c = random_corpus(rng)
            expected = oracle_reports(serialize_corpus(c))
            sr, srrr, rdl = evaluate_system(c, ["sr", "srrr", "rdl"])
            assert sr.per_system == expected["SR"]
            assert srrr.per_system == expected["SRRR"]
            assert rdl.per_system == expected["RDL"]


item = st.sampled_from(ITEMS)
title_slots = st.lists(item, max_size=2, unique=True).map(
    lambda values: tuple(("TITLE", value) for value in values)
)
system_act = st.one_of(
    st.sampled_from(SYSTEM_INTENTS).map(DialogueAct),
    st.builds(DialogueAct, st.just("Recommend"), title_slots),
)
user_act = st.one_of(
    st.sampled_from(USER_INTENTS).map(DialogueAct),
    st.builds(DialogueAct, st.sampled_from(("Accept", "Reject")), title_slots),
)
turn_spec = st.one_of(
    st.tuples(
        st.just("SYSTEM"),
        st.lists(system_act, max_size=2),
        st.lists(item, max_size=2, unique=True),
    ),
    st.tuples(st.just("USER"), st.lists(user_act, max_size=2), st.just([])),
)


@st.composite
def annotated_utterances(draw):
    """One dialogue's utterances, at least one of them with an act."""
    specs = draw(st.lists(turn_spec, min_size=1, max_size=8))
    utterances = [utt(i, *spec) for i, spec in enumerate(specs)]
    if not any(u.acts for u in utterances):
        utterances[0] = replace(utterances[0], acts=(DialogueAct("Other"),))
    return utterances


@st.composite
def corpora_with_truth(draw):
    """A small annotated corpus, recall ground truth for some of its system
    turns, and N."""
    dialogues = []
    for number in range(draw(st.integers(1, 6))):
        utterances = draw(annotated_utterances())
        crs_id = draw(st.sampled_from(("sysA", "sysB", "sysC")))
        dialogues.append(dlg(f"d{number}", crs_id, utterances))
    keys = [
        (d.dialogue_id, u.index)
        for d in dialogues
        for u in d.utterances
        if u.speaker is Speaker.SYSTEM
    ]
    truth = {}
    if keys:
        truth = draw(st.dictionaries(st.sampled_from(keys), st.sets(item, max_size=2)))
    return corpus(*dialogues), truth, draw(st.integers(1, 3))


def title(intent, *values):
    return act(intent, *(("TITLE", value) for value in values))


class TestFoldAgainstOracle:
    @given(annotated_utterances().map(lambda utterances: dlg("d0", "sysA", utterances)))
    # Recommend turns before a decision, with titles both in acts and in items.
    @example(dlg("d0", "sysA", turns(
        ("SYSTEM", [title("Recommend", "Alpha")], ["Alpha"]),
        ("SYSTEM", [title("Recommend", "Beta", "Alpha"), title("Recommend", "Gamma")], ["Delta", "Beta"]),
        ("USER", [title("Accept", "Beta")]),
    )))
    # Bare and titled Accepts, the same title accepted twice.
    @example(dlg("d0", "sysA", turns(
        ("SYSTEM", ["Recommend"]),
        ("USER", ["Accept"]),
        ("USER", [title("Accept", "Alpha"), "Accept"]),
        ("USER", [title("Accept", "Alpha", "Beta")]),
    )))
    # Reject and Accept in one utterance: the first one decides.
    @example(dlg("d0", "sysA", turns(
        ("SYSTEM", [title("Recommend", "Alpha")]),
        ("USER", [title("Reject", "Alpha"), title("Accept", "Alpha")]),
        ("SYSTEM", [title("Recommend", "Beta")]),
        ("USER", ["Accept", "Reject"]),
    )))
    # A decision before any Recommend, and a round unresolved at the end.
    @example(dlg("d0", "sysA", turns(
        ("USER", [title("Accept", "Alpha")]),
        ("SYSTEM", ["Explain"], ["Beta"]),
        ("SYSTEM", ["Recommend"], ["Beta"]),
        ("USER", ["Inquire"]),
    )))
    def test_rounds_and_accepted_items_equal_the_oracle(self, dialogue):
        utterances = json.loads(serialize_corpus(corpus(dialogue)).splitlines()[1])["utterances"]
        rounds = segment_rounds(dialogue)
        assert [(r.start_index, r.end_index, r.outcome, list(r.items)) for r in rounds] == (
            oracle_rounds(utterances)
        )
        assert DialogueFacts.of(dialogue).accepted_items == oracle_accepted_items(utterances)


class TestOnePassEngine:
    @given(corpora_with_truth())
    def test_one_call_equals_the_oracle(self, case):
        c, truth, n = case
        reports = evaluate_system(c, ["sr", "srrr", "rdl", "recall"], truth, n)
        by_metric = {r.metric: r.per_system for r in reports}
        stream = serialize_corpus(c)
        expected = oracle_reports(stream)
        for metric in ("SR", "SRRR", "RDL"):
            assert by_metric[metric] == expected[metric]
        assert by_metric[f"Recall@{n}[standard]"] == oracle_recall(stream, truth, n)
        assert by_metric[f"Recall@{n}[length_normalized]"] == (
            oracle_length_normalized_recall(stream, truth, n)
        )

    @given(corpora_with_truth())
    def test_recall_reports_equal_separate_calls(self, case):
        # Scoring SR, SRRR and RDL in the same pass leaves both recall
        # reports as a recall-only call makes them.
        c, truth, n = case
        reports = evaluate_system(c, ["sr", "srrr", "rdl", "recall"], truth, n)
        assert reports[3:] == evaluate_system(c, ["recall"], truth, n)

    def test_annotation_checked_once_per_dialogue(self, monkeypatch):
        checked = []
        has_acts = Dialogue.has_acts

        def counting(dialogue):
            checked.append(dialogue.dialogue_id)
            return has_acts(dialogue)

        monkeypatch.setattr(Dialogue, "has_acts", counting)
        c = corpus(one_round_accepted(), two_rounds(), unresolved_round())
        evaluate_system(c, ["sr", "srrr", "rdl", "recall"], {}, 1)
        assert checked == ["accepted", "tworounds", "unresolved"]

    @given(corpora_with_truth())
    def test_one_shot_generator_equals_the_corpus(self, case):
        c, truth, n = case
        requested = ["sr", "srrr", "rdl", "recall"]
        streamed = evaluate_system(iter_corpus(serialize_corpus(c)), requested, truth, n)
        whole = evaluate_system(c, requested, truth, n)
        # Records as JSON, so key order and warnings are compared too.
        assert json.dumps([r.to_record() for r in streamed]) == json.dumps(
            [r.to_record() for r in whole]
        )

    def test_systems_in_first_appearance_order_and_dialogues_grouped(self):
        b1 = replace(one_round_accepted(), dialogue_id="b1", crs_id="sysB")
        a1 = replace(two_rounds(), dialogue_id="a1", crs_id="sysA")
        b2 = replace(unresolved_round(), dialogue_id="b2", crs_id="sysB")
        sr, standard, _ = evaluate_system(iter([b1, a1, b2]), ["sr", "recall"], {}, 1)
        assert list(sr.per_system) == ["sysB", "sysA"]
        assert list(sr.per_dialogue) == ["b1", "b2", "a1"]
        assert standard.warnings == tuple(
            f"no ground truth for ({key}); turn skipped"
            for key in ("b1, 0", "b2, 0", "a1, 0", "a1, 4")
        )

    def test_duplicate_dialogue_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate dialogue_id 'accepted'"):
            evaluate_system([one_round_accepted(), one_round_accepted()], ["recall"], {})

    def test_rounds_are_segmented_once_per_dialogue(self, monkeypatch):
        # One walk per dialogue gathers what every requested metric reads.
        calls = []
        walk = metrics._walk

        def counting(dialogue):
            calls.append(dialogue.dialogue_id)
            return walk(dialogue)

        monkeypatch.setattr(metrics, "_walk", counting)
        c = corpus(one_round_accepted(), two_rounds(), unresolved_round())
        evaluate_system(c, ["sr", "srrr", "rdl", "recall"], {}, 2)
        assert calls == [d.dialogue_id for d in c.dialogues]
