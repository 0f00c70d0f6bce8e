"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line; run with ``pytest
tests/test_acceptance.py -v -s`` to see them streamed. The suite runs
fully offline (the session-wide fixture disables sockets).
"""

import functools
import json
import random
import socket
import sys
import time
from dataclasses import replace

import pytest

from evalkit.analysis import (
    ReliabilityReport,
    kendall_tau_b,
    load_reference_scores,
    rank_systems,
    reliability_report,
)
from evalkit.annotation import RuleAnnotator
from evalkit.cli import main
from evalkit.connectors import make_stub
from evalkit.corpus_io import serialize_corpus
from evalkit.dialogue import Corpus, simulation_schema
from evalkit.metrics import (
    accepted_items_reward,
    dialogue_length_cost,
    evaluate_system,
    segment_rounds,
    utility,
)
from evalkit.simulation import (
    AgendaSimulator,
    LlmSimulator,
    RunLimits,
    generate_corpus,
    run_conversation,
)

from conftest import MOVIES
from helpers import dlg, random_corpus, scripted, turns
from oracle import oracle_reports

REF = load_reference_scores()


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number}: FAIL - {description}", file=sys.stderr)
                raise
            print(f"[acceptance] criterion {number}: PASS - {description}", file=sys.stderr)
            return result

        return wrapper

    return decorate


@criterion(1, "published rank correlations reproduced within 0.005 in under 1s")
def test_criterion_1_correlation_reproduction():
    satisfaction = REF["satisfaction"]
    published = REF["published"]["tau_vs_satisfaction"]
    started = time.perf_counter()
    results = {}
    for metric_key, published_key in (
        ("rdl", "rdl"),
        ("success_rate", "success_rate"),
        ("srrr", "srrr"),
        ("recall_at_1", "recall_at_1"),
    ):
        scores = REF["human_metrics"][metric_key]
        tau = kendall_tau_b(scores, {k: satisfaction[k] for k in scores})
        results[metric_key] = tau
        assert tau == pytest.approx(published[published_key], abs=5e-3)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    assert len(REF["human_metrics"]["rdl"]) == 9
    assert len(REF["human_metrics"]["recall_at_1"]) == 8


@criterion(2, "simulator reliability figures reproduced (diffs 0.001, tau 0.005)")
def test_criterion_2_reliability_reproduction():
    satisfaction = REF["satisfaction"]
    human_rdl = REF["human_metrics"]["rdl"]
    published = REF["published"]

    for simulator, tau_key, expected_n in (
        ("llm_us", "llm_us_rdl", 9),
        ("abus", "abus_rdl", 8),
    ):
        candidate = REF["simulated_rdl"][simulator]
        report = reliability_report(
            human_rdl, candidate, satisfaction,
            reference_name="human", candidate_name=simulator,
        )
        assert len(report.systems_compared) == expected_n
        assert report.tau_b_vs_satisfaction == pytest.approx(
            published["tau_vs_satisfaction"][tau_key], abs=5e-3
        )
        assert report.average_abs_diff == pytest.approx(
            published["avg_abs_rdl_diff"][simulator], abs=1e-3
        )
        for crs_id, expected in published["per_system_abs_rdl_diff"][simulator].items():
            assert report.per_system_abs_diff[crs_id] == pytest.approx(
                expected, abs=1e-3
            )
    # Spot value called out in the criterion: ABUS on KBRD_OpenDialKG.
    abus_report = reliability_report(
        human_rdl, REF["simulated_rdl"]["abus"], satisfaction
    )
    assert abus_report.per_system_abs_diff["KBRD_OpenDialKG"] == pytest.approx(
        0.294, abs=1e-3
    )


@criterion(3, "engine equals brute-force oracle on 50 random corpora; utility == RDL")
def test_criterion_3_metric_oracle_equivalence():
    rng = random.Random(424242)
    for _ in range(50):
        c = random_corpus(rng, max_dialogues=4)
        stream = serialize_corpus(c)
        expected = oracle_reports(stream)
        sr, srrr, rdl = evaluate_system(c, ["sr", "srrr", "rdl"])
        assert sr.per_system == expected["SR"]
        assert srrr.per_system == expected["SRRR"]
        assert rdl.per_system == expected["RDL"]
        for dialogue in c.dialogues:
            engine_value = utility(
                dialogue, [accepted_items_reward()], [dialogue_length_cost()]
            )
            assert engine_value == rdl.per_dialogue[dialogue.dialogue_id]


@criterion(4, "round segmentation properties hold on randomized act sequences")
def test_criterion_4_round_segmentation_properties():
    fixture = dlg(
        "hand-traced",
        "sysA",
        turns(
            ("SYSTEM", ["Recommend"]),
            ("USER", ["Inquire"]),
            ("SYSTEM", ["Respond"]),
            ("USER", ["Reject"]),
            ("SYSTEM", ["Recommend"]),
            ("USER", ["Accept"]),
        ),
    )
    assert [r.outcome for r in segment_rounds(fixture)] == ["rejected", "accepted"]

    rng = random.Random(515151)
    for _ in range(100):
        c = random_corpus(rng, max_dialogues=2)
        for dialogue in c.dialogues:
            rounds = segment_rounds(dialogue)
            for earlier, later in zip(rounds, rounds[1:]):
                assert earlier.end_index <= later.start_index
            for r in rounds:
                opener = dialogue.utterances[r.start_index]
                assert opener.speaker.value == "SYSTEM"
                assert any(a.intent == "Recommend" for a in opener.acts)
                if r.outcome == "unresolved":
                    assert r is rounds[-1]
                    assert r.end_index == len(dialogue.utterances)
                else:
                    closer = dialogue.utterances[r.end_index]
                    assert closer.speaker.value == "USER"
                    decision = next(
                        a for a in closer.acts if a.intent in ("Accept", "Reject")
                    )
                    assert (r.outcome == "accepted") == (decision.intent == "Accept")
                    # No earlier user decision inside the round.
                    for utterance in dialogue.utterances[r.start_index : r.end_index]:
                        if utterance.speaker.value == "USER":
                            assert not any(
                                a.intent in ("Accept", "Reject")
                                for a in utterance.acts
                            )


@criterion(5, "invariance suite: text, permutation, weight scaling, monotone tau")
def test_criterion_5_invariance_suite():
    rng = random.Random(616161)

    # Text mutation leaves every metric report unchanged.
    for _ in range(15):
        c = random_corpus(rng)
        mutated = Corpus(
            dialogues=tuple(
                replace(
                    d,
                    utterances=tuple(
                        replace(u, text=f"mutated {rng.random()}") for u in d.utterances
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

    # Dialogue permutation leaves system scores unchanged.
    for _ in range(15):
        c = random_corpus(rng)
        shuffled_dialogues = list(c.dialogues)
        rng.shuffle(shuffled_dialogues)
        shuffled = Corpus(dialogues=tuple(shuffled_dialogues))
        for metric in ("sr", "srrr", "rdl"):
            before = evaluate_system(c, [metric])[0].per_system
            after = evaluate_system(shuffled, [metric])[0].per_system
            assert before.keys() == after.keys()
            for crs_id in before:
                assert before[crs_id] == pytest.approx(after[crs_id], abs=1e-12)

    # Uniform positive weight scaling preserves the induced ranking.
    c = None
    while c is None or len(c.by_system()) < 2:
        c = random_corpus(rng)

    def utilities(reward_weight, cost_weight):
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

    base_order = rank_systems(utilities(1.0, 1.0)).order()
    for k in (0.5, 2.0, 9.75):
        assert rank_systems(utilities(k, 1.0)).order() == base_order
        assert rank_systems(utilities(1.0, k)).order() == base_order

    # tau-b is invariant under strictly increasing transforms.
    import math

    x = {f"s{i}": rng.random() for i in range(9)}
    y = {f"s{i}": rng.random() for i in range(9)}
    base_tau = kendall_tau_b(x, y)
    assert kendall_tau_b(
        {k: math.exp(v) for k, v in x.items()},
        {k: 3 * v - 7 for k, v in y.items()},
    ) == pytest.approx(base_tau)


@criterion(6, "simulation is byte-deterministic and always terminates offline")
def test_criterion_6_simulation_determinism_and_termination(movie_catalog):
    started = time.perf_counter()

    # Sockets must be unavailable: the suite runs with zero network access.
    with pytest.raises(OSError):
        probe = socket.socket()
        try:
            probe.connect(("127.0.0.1", 9))
        finally:
            probe.close()

    script = [
        "Hi, I'm looking for something fun.",
        "continue",
        "Great, I'll watch Midnight Run. Thanks!",
        "abort: satisfied",
    ]

    def llm_batch():
        simulator = LlmSimulator(
            lambda: scripted(script),
            annotator=RuleAnnotator(simulation_schema(), catalog=movie_catalog),
        )
        return generate_corpus(
            simulator,
            make_stub("always-recommend", item_id="Midnight Run"),
            10,
            catalog=movie_catalog,
            limits=RunLimits(seed=1000),
        )

    def abus_batch():
        simulator = AgendaSimulator(catalog=movie_catalog)
        return generate_corpus(
            simulator,
            make_stub("always-recommend", item_id="Midnight Run"),
            10,
            catalog=movie_catalog,
            limits=RunLimits(seed=2000),
        )

    assert serialize_corpus(llm_batch()) == serialize_corpus(llm_batch())
    assert serialize_corpus(abus_batch()) == serialize_corpus(abus_batch())

    # Infinite-repeat stub: every session must fall to the loop guard
    # within the utterance cap.
    simulator = AgendaSimulator(catalog=movie_catalog)
    repeat_stub = make_stub("always-recommend", item_id="Not In The Catalog")
    limits = RunLimits(max_utterances=20)
    from evalkit.dialogue import UserGoal

    for seed in range(10):
        dialogue = run_conversation(
            simulator,
            repeat_stub,
            UserGoal(constraints=(("year", "1988"),)),
            replace(limits, seed=seed),
        )
        assert dialogue.extra["termination_reason"] == "loop-guard"
        assert len(dialogue) <= limits.max_utterances

    assert time.perf_counter() - started < 60.0


@criterion(7, "end-to-end pipeline: simulate, annotate, evaluate, compare")
def test_criterion_7_end_to_end_pipeline(tmp_path):
    catalog_path = tmp_path / "catalog.json"
    catalog_path.write_text(json.dumps(MOVIES))

    accept_script = tmp_path / "accept_script.json"
    accept_script.write_text(
        json.dumps(
            [
                "Hi, I'm looking for a comedy.",
                "continue",
                "Great, I'll watch Midnight Run. Thanks!",
                "abort: satisfied",
            ]
        )
    )
    wander_script = tmp_path / "wander_script.json"
    wander_script.write_text(
        json.dumps(["Hi, any comedy from the seventies?", "abort: no progress"])
    )

    sim_accept = tmp_path / "sim_accept.ndjson"
    sim_echo = tmp_path / "sim_echo.ndjson"
    assert (
        main(
            [
                "simulate",
                "--simulator",
                "llm-us",
                "--crs",
                "stub:always-recommend",
                "--catalog",
                str(catalog_path),
                "-n",
                "3",
                "--seed",
                "5",
                "--llm-endpoint",
                f"mock:{accept_script}",
                "--output",
                str(sim_accept),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "simulate",
                "--simulator",
                "llm-us",
                "--crs",
                "stub:echo",
                "--catalog",
                str(catalog_path),
                "-n",
                "3",
                "--seed",
                "6",
                "--llm-endpoint",
                f"mock:{wander_script}",
                "--output",
                str(sim_echo),
            ]
        )
        == 0
    )

    ann_accept = tmp_path / "ann_accept.ndjson"
    ann_echo = tmp_path / "ann_echo.ndjson"
    for source, target in ((sim_accept, ann_accept), (sim_echo, ann_echo)):
        assert (
            main(
                [
                    "annotate",
                    "--input",
                    str(source),
                    "--output",
                    str(target),
                    "--catalog",
                    str(catalog_path),
                ]
            )
            == 0
        )

    report_path = tmp_path / "report.ndjson"
    assert (
        main(
            [
                "evaluate",
                "--input",
                str(ann_accept),
                "--input",
                str(ann_echo),
                "--metrics",
                "sr,srrr,rdl",
                "--output",
                str(report_path),
            ]
        )
        == 0
    )

    reference_path = tmp_path / "reference.json"
    reference_path.write_text(
        json.dumps({"stub-always-recommend": 0.3, "stub-echo": 0.05})
    )
    satisfaction_path = tmp_path / "satisfaction.json"
    satisfaction_path.write_text(
        json.dumps({"stub-always-recommend": 0.6, "stub-echo": 0.1})
    )
    reliability_path = tmp_path / "reliability.ndjson"
    assert (
        main(
            [
                "compare",
                "--candidate",
                f"simulated={report_path}",
                "--metric",
                "RDL",
                "--reference",
                str(reference_path),
                "--satisfaction",
                str(satisfaction_path),
                "--reference-name",
                "reference-fixture",
                "--output",
                str(reliability_path),
            ]
        )
        == 0
    )

    lines = [json.loads(l) for l in reliability_path.read_text().splitlines()]
    header, record = lines[0], lines[1]
    assert "seed" in header and "config_hash" in header
    report = ReliabilityReport.from_record(record)  # validates its own invariants
    assert report.candidate_name == "simulated"
    assert set(report.systems_compared) == {"stub-always-recommend", "stub-echo"}
    assert report.tau_b_vs_satisfaction == 1.0
    assert all(v >= 0 for v in report.per_system_abs_diff.values())

    # The simulated RDL scores behind the comparison are the expected ones:
    # one accepted item in 4 utterances vs none.
    metric_records = [
        json.loads(l) for l in report_path.read_text().splitlines()
    ][1:]
    rdl_record = next(r for r in metric_records if r["metric"] == "RDL")
    assert rdl_record["per_system"]["stub-always-recommend"] == pytest.approx(0.25)
    assert rdl_record["per_system"]["stub-echo"] == 0.0
