"""evalkit: user-utility evaluation and simulation for conversational recommenders.

The toolkit has three layers: a dialogue data model with a line-oriented
corpus format, a metric engine that scores conversations as reward over
cost, and goal-driven user simulators that generate evaluation data
against CRS endpoints. An analysis layer compares system rankings with
tie-corrected Kendall correlation and reports how reliably a simulated
evaluation reproduces a human reference.

Each submodule loads on the first use of one of its names, so that
``import evalkit`` and each command pay only for the modules they use.
"""

_EXPORTS = {
    "analysis": (
        "Ranking",
        "ReliabilityReport",
        "kendall_tau_b",
        "load_reference_scores",
        "rank_systems",
        "reliability_report",
    ),
    "annotation": ("LlmAnnotator", "RuleAnnotator", "iter_annotated"),
    "catalog": ("CatalogItem", "ItemCatalog", "load_catalog"),
    "connectors": (
        "CrsEndpoint",
        "CrsReply",
        "GatewayOptions",
        "HttpCrsConnector",
        "HttpLlmGateway",
        "make_stub",
        "scripted_transport",
    ),
    "corpus_io": ("parse_corpus", "read_corpus", "serialize_corpus", "write_corpus"),
    "dialogue": (
        "Corpus",
        "Dialogue",
        "DialogueAct",
        "IntentSchema",
        "Speaker",
        "UserGoal",
        "Utterance",
        "default_schema",
        "simulation_schema",
    ),
    "metrics": (
        "DialogueFacts",
        "Factor",
        "MetricReport",
        "RecommendationRound",
        "evaluate_system",
        "segment_rounds",
        "utility",
    ),
    "simulation": (
        "Abort",
        "AgendaSimulator",
        "GoalConfig",
        "InteractionModel",
        "LlmSimulator",
        "RunLimits",
        "SimulatorAgenda",
        "Stop",
        "abus_next",
        "default_interaction_model",
        "generate_corpus",
        "llmus_next",
        "load_interaction_model",
        "run_conversation",
        "sample_goal",
    ),
}
# Each public name and the submodule that defines it.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Public name ``name``, imported from its submodule on first access and
    then kept here (PEP 562); AttributeError for any other name, which
    ``from evalkit import cli`` relies on to import the submodule."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
