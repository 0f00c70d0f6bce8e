"""The program-side set-up that ``setup_s`` times and the pipeline uses.

Set-up is what a user pays before the first dialogue: importing evalkit,
loading the catalog and building the simulator with its interaction model,
and for the LLM simulator the rule annotator with its lexicon. The
evaluation workload has no catalog or simulator, so its set-up is the
import and the CLI parser.

This module imports nothing at load time, so that a cold interpreter
timing ``set_up`` pays for evalkit's imports and not for the benchmark's.
"""


def set_up(kind: str, simulator: str, catalog_path, gateway):
    """Build what a workload needs before its first dialogue.

    Returns ``(catalog, simulator)`` for the simulation workloads and
    ``(None, None)`` for the evaluation workload. ``gateway`` is the LLM
    gateway factory handed to the LLM simulator.
    """
    from evalkit import annotation, catalog, cli, dialogue, simulation

    if kind != "simulate":
        cli.build_parser()
        return None, None
    items = catalog.load_catalog(catalog_path)
    schema = dialogue.simulation_schema()
    if simulator == "abus":
        return items, simulation.AgendaSimulator(catalog=items, schema=schema)
    annotator = annotation.RuleAnnotator(schema, catalog=items)
    return items, simulation.LlmSimulator(gateway, annotator=annotator)
