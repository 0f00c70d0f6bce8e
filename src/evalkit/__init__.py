"""evalkit: user-utility evaluation and simulation for conversational recommenders.

The toolkit has three layers: a dialogue data model with a line-oriented
corpus format, a metric engine that scores conversations as reward over
cost, and goal-driven user simulators that generate evaluation data
against CRS endpoints. An analysis layer compares system rankings with
tie-corrected Kendall correlation and reports how reliably a simulated
evaluation reproduces a human reference.
"""

from .analysis import (
    Ranking,
    ReliabilityReport,
    kendall_tau_b,
    load_reference_scores,
    rank_systems,
    reliability_report,
)
from .annotation import (
    LlmAnnotator,
    RuleAnnotator,
    iter_annotated,
)
from .catalog import CatalogItem, ItemCatalog, load_catalog
from .connectors import (
    AlwaysRecommendStub,
    CrsEndpoint,
    CrsReply,
    EchoStub,
    GatewayOptions,
    GoodbyeStub,
    HttpCrsConnector,
    HttpLlmGateway,
    MockLlmGateway,
    make_stub,
)
from .corpus_io import (
    iter_corpus,
    parse_corpus,
    serialize_corpus,
    write_corpus,
)
from .dialogue import (
    Corpus,
    Dialogue,
    DialogueAct,
    IntentSchema,
    Speaker,
    UserGoal,
    Utterance,
    default_schema,
    simulation_schema,
)
from .metrics import (
    CostFactor,
    DialogueFacts,
    MetricReport,
    RecommendationRound,
    RewardFactor,
    evaluate_system,
    rdl,
    segment_rounds,
    srrr,
    success_rate,
    utility,
)
from .simulation import (
    Abort,
    AgendaSimulator,
    GoalConfig,
    InteractionModel,
    LlmSimulator,
    RunLimits,
    SimulatorAgenda,
    Stop,
    abus_next,
    default_interaction_model,
    generate_corpus,
    llmus_next,
    load_interaction_model,
    run_conversation,
    sample_goal,
)

__version__ = "0.1.0"
