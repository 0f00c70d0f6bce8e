"""The pipeline still ranks systems as their quality does.

Each benchmark CRS double draws its recommendations from the items that
match what the user disclosed with a chance that rises with the system's
human satisfaction in the bundled reference scores
(``bench/gen.system_qualities``), so the true order of the nine systems
is their satisfaction order. Here every double meets the same simulator
seeds, and so the same sampled goals (a paired design). The simulated
dialogues are rule-annotated and evaluated in process as the CLI does it,
and SR, SRRR and RDL must each reach a Kendall tau-b floor against
satisfaction. The floors sit at or below the lowest value over seeds 1-12
of each simulator; CHANGES.md records those values.

The doubles are built to agree with satisfaction, so a tau-b near 1
shows that the pipeline tells a better system from a worse one; it says
nothing about validity against real users.
"""

from __future__ import annotations

import pytest

from evalkit.analysis import kendall_tau_b, load_reference_scores
from evalkit.annotation import RuleAnnotator, iter_annotated
from evalkit.catalog import load_catalog
from evalkit.connectors import CrsEndpoint, GatewayOptions, HttpCrsConnector, HttpLlmGateway
from evalkit.dialogue import default_schema, simulation_schema
from evalkit.errors import GatewayError
from evalkit.metrics import evaluate_system
from evalkit.simulation import AgendaSimulator, LlmSimulator, RunLimits, generate_corpus

from helpers import bench_module

gen = bench_module("gen")
doubles = bench_module("doubles")

CATALOG_SIZE = 1000
PER_SYSTEM = 200
# Fixed before the floors were chosen: the first seed of those studied.
SEED = 1
METRICS = ("SR", "SRRR", "RDL")
# The lowest tau-b over seeds 1-12, rounded down to a multiple of 0.05. The
# lowest for abus: SR 0.667, SRRR 0.722, RDL 0.667; for llm-us: SR 0.817,
# SRRR 0.778, RDL 0.722.
FLOORS = {
    "abus": {"SR": 0.65, "SRRR": 0.70, "RDL": 0.65},
    "llm-us": {"SR": 0.80, "SRRR": 0.75, "RDL": 0.70},
}


def _simulator(simulator_id: str, catalog, view):
    schema = simulation_schema()
    if simulator_id == "abus":
        return AgendaSimulator(catalog=catalog, schema=schema)

    def gateway() -> HttpLlmGateway:
        # A fresh double per conversation, as the benchmark builds one per gateway.
        double = doubles.LlmDouble(
            view,
            doubles.DoubleClock(lambda: 0.0),
            lambda message: GatewayError(message, transient=True),
        )
        options = GatewayOptions(endpoint="http://llm.double/v1/chat", model="user-double")
        return HttpLlmGateway(options, transport=double)

    return LlmSimulator(gateway, annotator=RuleAnnotator(schema, catalog=catalog))


def ranking_taus(simulator_id: str, seed: int) -> dict[str, float]:
    """Tau-b of each of SR, SRRR and RDL against satisfaction, over
    ``PER_SYSTEM`` dialogues with each double from simulator seed
    ``seed * 10000`` on."""
    records = gen.catalog_records(CATALOG_SIZE, "1")
    catalog, view = load_catalog(records), doubles.CatalogView(records)
    reference = load_reference_scores()
    simulator = _simulator(simulator_id, catalog, view)
    dialogues = []
    for crs_id, quality in gen.system_qualities(reference).items():
        endpoint = CrsEndpoint(
            crs_id=crs_id,
            endpoint=f"http://crs.double/{crs_id}",
            request_fields=doubles.CRS_REQUEST_FIELDS,
            response_fields=doubles.CRS_RESPONSE_FIELDS,
        )
        connector = HttpCrsConnector(
            endpoint, transport=doubles.CrsDouble(view, crs_id, quality, None)
        )
        limits = RunLimits(seed=seed * 10000)
        corpus = generate_corpus(simulator, connector, PER_SYSTEM, catalog=catalog, limits=limits)
        dialogues += corpus.dialogues
    # As ``evalkit annotate --catalog`` labels what the simulator left bare.
    annotated = iter_annotated(dialogues, RuleAnnotator(default_schema(), catalog=catalog))
    reports = evaluate_system(annotated, [m.lower() for m in METRICS])
    satisfaction = reference["satisfaction"]
    return {r.metric: kendall_tau_b(r.per_system, satisfaction) for r in reports}


@pytest.mark.parametrize("simulator_id", sorted(FLOORS))
def test_simulated_metrics_rank_systems_by_satisfaction(simulator_id):
    taus = ranking_taus(simulator_id, SEED)
    floors = FLOORS[simulator_id]
    below = {m: round(taus[m], 4) for m in METRICS if not taus[m] >= floors[m]}
    assert not below, f"tau-b below the floors {floors}: {below}"
