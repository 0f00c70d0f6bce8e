"""Goal-conditioned user simulators and the conversation runner.

Two simulator families are provided. The agenda-based simulator plans
from a goal-derived action stack, reacts to recommendations and attribute
requests with deterministic rules, and otherwise samples its next intent
from a Markov interaction model keyed on the incoming system intent. The
LLM-backed simulator first decides whether the conversation still makes
progress (abort otherwise) and then generates its next utterance from the
goal and history.

All randomness flows from explicit seeds, so a fixed (seed, scripted
gateway, stub CRS) combination reproduces a conversation byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Mapping, Protocol, Sequence

from .annotation import RuleAnnotator, in_order, load_prompt_template, render_transcript
from .catalog import ItemCatalog
from .dialogue import (
    ACCEPT,
    BYE,
    Corpus,
    Dialogue,
    DialogueAct,
    DISCLOSE,
    INQUIRE,
    ITEM_SLOT,
    IntentSchema,
    OTHER,
    PROVENANCE_SIMULATED,
    RECOMMEND,
    REFINE,
    REJECT,
    REQUEST,
    Speaker,
    UserGoal,
    Utterance,
    _bundled_text,
    _table_lines,
    simulation_schema,
)
from .errors import (
    ConnectorError,
    ConnectorTimeout,
    GatewayError,
    SchemaViolationError,
    SimulationError,
)

if TYPE_CHECKING:
    from .connectors import CrsConnector, HttpLlmGateway

_START_ROW = "__start__"
_PROBABILITY_TOLERANCE = 1e-9
# A goal has 1-2 constraints and 1-3 requests (fewer when fewer request
# slots are configured); sampling gives up after 50 anchor draws.
_CONSTRAINT_COUNTS = (1, 2)
_REQUEST_COUNTS = (1, 3)
_GOAL_ATTEMPTS = 50
# The loop guard ends a conversation when a CRS reply repeats the one
# before it for the third time in a row.
_LOOP_GUARD_REPEATS = 3


@dataclass(frozen=True)
class RunLimits:
    """Hard bounds on one simulated conversation."""

    max_utterances: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.max_utterances < 2:
            raise ValueError("max_utterances must be >= 2")


@dataclass(frozen=True)
class Stop:
    """The simulator ends the conversation normally."""

    reason: str = "goal-fulfilled"


@dataclass(frozen=True)
class Abort:
    """The simulator gives up on the conversation."""

    reason: str


def _check_distribution(name: str, row: Mapping[str, float]) -> None:
    """Raise ValueError naming row ``name`` unless it is a probability distribution."""
    if any(not p >= 0 for p in row.values()):
        raise ValueError(f"row {name!r} has negative probabilities")
    total = sum(row.values())
    if not abs(total - 1.0) <= _PROBABILITY_TOLERANCE:
        raise ValueError(f"row {name!r} sums to {total!r}, expected 1")


@dataclass(frozen=True)
class InteractionModel:
    """Markov transition table from system intents to user-intent distributions."""

    transitions: Mapping[str, Mapping[str, float]]
    initial: Mapping[str, float]

    def __post_init__(self):
        for name, row in list(self.transitions.items()) + [(_START_ROW, self.initial)]:
            _check_distribution(name, row)

    def row_for(self, system_intent: str | None) -> tuple[Mapping[str, float], bool]:
        """Distribution for an incoming intent; falls back to the initial row."""
        if system_intent is not None and system_intent in self.transitions:
            return self.transitions[system_intent], False
        return self.initial, system_intent is not None

    def validate_against(self, schema: IntentSchema) -> None:
        for name, row in self.transitions.items():
            if name not in schema.system_intents:
                raise SchemaViolationError(
                    f"interaction model row {name!r} is not a system intent"
                )
            for intent in row:
                if intent not in schema.user_intents:
                    raise SchemaViolationError(
                        f"interaction model references unknown user intent {intent!r}"
                    )
        for intent in self.initial:
            if intent not in schema.user_intents:
                raise SchemaViolationError(
                    f"initial distribution references unknown user intent {intent!r}"
                )


def load_interaction_model(path) -> InteractionModel:
    """Load a tab-separated probability table from the file at ``path``.

    The header names the user-intent columns; each following row is a
    system intent (or ``__start__`` for the opening distribution) followed
    by one probability per column. Blank lines and comments, whose first
    non-blank character is ``#``, are skipped; a ValueError names a bad line's number.
    """
    with open(path, "r", encoding="utf-8") as handle:
        return _parse_interaction_model(handle.read())


def _check_unique(names: Sequence[str], what: str) -> None:
    """Raise ValueError naming the first of ``names`` that repeats an earlier one."""
    for index, name in enumerate(names):
        if name in names[:index]:
            raise ValueError(f"{what} {name!r} is repeated")


def _parse_interaction_model(text: str) -> InteractionModel:
    lines = _table_lines(text)
    if not lines:
        raise ValueError("interaction model file is empty")
    number, header = lines[0]
    user_intents = [name.strip() for name in header.split("\t")[1:]]
    rows: dict[str, dict[str, float]] = {}
    try:
        _check_unique(user_intents, "interaction model column")
        for number, line in lines[1:]:
            cells = line.split("\t")
            if len(cells) != len(user_intents) + 1:
                raise ValueError(f"row {cells[0]!r} has {len(cells) - 1} probabilities, "
                                 f"expected {len(user_intents)}")
            name = cells[0].strip()
            if name in rows:
                raise ValueError(f"interaction model row {name!r} is repeated")
            rows[name] = {
                intent: float(cell) for intent, cell in zip(user_intents, cells[1:])
            }
            # As the model checks every row, but here a fault names its line.
            _check_distribution(name, rows[name])
    except ValueError as exc:
        raise ValueError(f"line {number}: {exc}") from exc
    initial = rows.pop(_START_ROW, None)
    if initial is None:
        raise ValueError(f"interaction model needs a {_START_ROW} row")
    return InteractionModel(transitions=rows, initial=initial)


def default_interaction_model() -> InteractionModel:
    return _parse_interaction_model(_bundled_text("interaction_model.tsv"))


@dataclass(frozen=True)
class GoalConfig:
    """The catalog slots sampled goals constrain and ask about."""

    constraint_slots: tuple[str, ...]
    request_slots: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "constraint_slots", tuple(self.constraint_slots))
        object.__setattr__(self, "request_slots", tuple(self.request_slots))
        if not self.constraint_slots:
            raise ValueError("goal config needs at least one constraint slot")
        _check_unique(self.constraint_slots, "constraint slot")
        _check_unique(self.request_slots, "request slot")

    def check(self, catalog: ItemCatalog) -> None:
        """Raise ValueError naming the first slot that ``catalog`` lacks."""
        catalog_slots = set(catalog.slots())
        for slot in self.constraint_slots + self.request_slots:
            if slot not in catalog_slots:
                raise ValueError(f"slot {slot!r} is not present in the catalog")


def sample_goal(catalog: ItemCatalog, config: GoalConfig, seed: int) -> UserGoal:
    """Draw a satisfiable goal: constraints anchored to one catalog item.

    Deterministic for a fixed seed. Constraint values are taken from a
    single randomly chosen item, so at least that item matches all of
    them. Raises ValueError when a configured slot is absent from the
    catalog, SimulationError when no drawn item populates enough constraint
    slots within the attempt budget.
    """
    rng = random.Random(seed)
    config.check(catalog)

    for _ in range(_GOAL_ATTEMPTS):
        count = rng.randint(*_CONSTRAINT_COUNTS)
        anchor = catalog.item_at(rng.randrange(len(catalog)))
        populated = [s for s in config.constraint_slots if anchor.values(s)]
        if len(populated) < count:
            continue
        chosen = rng.sample(populated, count)
        constraints = tuple(
            (slot, rng.choice(anchor.values(slot))) for slot in chosen
        )
        request_cap = min(_REQUEST_COUNTS[1], len(config.request_slots))
        request_floor = min(_REQUEST_COUNTS[0], request_cap)
        request_count = rng.randint(request_floor, request_cap) if request_cap else 0
        requests = tuple(rng.sample(config.request_slots, request_count))
        return UserGoal(constraints=constraints, requests=requests)
    raise SimulationError(
        f"no satisfiable goal found after {_GOAL_ATTEMPTS} attempts"
    )


@dataclass(frozen=True)
class SimulatorAgenda:
    """Immutable agenda state: pending actions plus goal progress."""

    stack: tuple[DialogueAct, ...]
    goal: UserGoal
    fulfilled_constraints: frozenset[tuple[str, str]] = frozenset()
    fulfilled_requests: frozenset[str] = frozenset()
    accepted_items: tuple[str, ...] = ()
    open_items: tuple[str, ...] = ()
    pending_request: str | None = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.fulfilled_constraints <= set(self.goal.constraints):
            raise ValueError("fulfilled constraints must be a subset of the goal's")
        if not self.fulfilled_requests <= set(self.goal.requests):
            raise ValueError("fulfilled requests must be a subset of the goal's")

    def goal_fulfilled(self) -> bool:
        return (
            set(self.goal.constraints) <= self.fulfilled_constraints
            and set(self.goal.requests) <= self.fulfilled_requests
            and bool(self.accepted_items)
        )


def new_agenda(goal: UserGoal) -> SimulatorAgenda:
    """Seed the agenda stack: disclose each constraint, then ask each request."""
    stack = tuple(
        DialogueAct(DISCLOSE, ((slot, value),)) for slot, value in goal.constraints
    ) + tuple(DialogueAct(INQUIRE, ((attr, ""),)) for attr in goal.requests)
    return SimulatorAgenda(stack=stack, goal=goal)


def render_act_text(act: DialogueAct) -> str:
    """Offline template realization of a user act of ``abus_next``, whose
    Accept and Reject acts always name an item."""
    if act.intent == DISCLOSE and act.slots:
        slot, value = act.slots[0]
        return f"I'm looking for something with {slot} {value}."
    if act.intent == REFINE and act.slots:
        slot, value = act.slots[0]
        return f"Preferably {slot} {value}."
    if act.intent == INQUIRE:
        if act.slots and act.slots[0][0]:
            return f"What about the {act.slots[0][0]}?"
        return "Tell me more, please."
    if act.intent == ACCEPT:
        return f"Great, I'll watch {act.slot_values(ITEM_SLOT)[0]}. Thanks!"
    if act.intent == REJECT:
        return f"No, {act.slot_values(ITEM_SLOT)[0]} doesn't work for me. Anything else?"
    return "Okay."


def _is_stale(act: DialogueAct, fulfilled: set[tuple[str, str]], answered: set[str]) -> bool:
    if act.intent == DISCLOSE and act.slots:
        return act.slots[0] in fulfilled
    if act.intent == INQUIRE and act.slots and act.slots[0][0]:
        return act.slots[0][0] in answered
    return False


def _acceptable(items, accepted, goal: UserGoal, catalog: ItemCatalog) -> list[str]:
    """The items not in ``accepted`` (skipped before any catalog lookup)
    that satisfy the goal."""
    return [
        item_id
        for item_id in items
        if item_id not in accepted
        and (item := catalog.get(item_id)) is not None
        and item.satisfies_all(goal.constraints)
    ]


def _sample_intent(row: Mapping[str, float], acceptable, open_items, rng: random.Random) -> str:
    """Draw from ``row``'s positive intents in name order, leaving out
    Accept without an acceptable item and Reject without an open one;
    Disclose when none is left."""
    candidates = [
        (intent, p) for intent, p in sorted(row.items())
        if p > 0 and (intent != ACCEPT or acceptable) and (intent != REJECT or open_items)
    ]
    if not candidates:
        return DISCLOSE
    intents, weights = zip(*candidates)
    return rng.choices(intents, weights)[0]


def _instantiate(
    intent: str, goal: UserGoal, fulfilled, answered, acceptable, open_items, rng: random.Random
) -> DialogueAct:
    if intent == DISCLOSE:
        undisclosed = [c for c in goal.constraints if c not in fulfilled]
        return DialogueAct(DISCLOSE, (undisclosed[0] if undisclosed else rng.choice(goal.constraints),))
    if intent == REFINE:
        return DialogueAct(REFINE, (rng.choice(goal.constraints),))
    if intent == INQUIRE:
        unanswered = [r for r in goal.requests if r not in answered]
        return DialogueAct(INQUIRE, ((unanswered[0], ""),)) if unanswered else DialogueAct(INQUIRE)
    if intent == ACCEPT:
        return DialogueAct(ACCEPT, ((ITEM_SLOT, acceptable[0]),))
    if intent == REJECT:
        return DialogueAct(REJECT, ((ITEM_SLOT, open_items[0]),))
    return DialogueAct(intent)


def _user_turn(incoming: Utterance | None, text: str, acts: Sequence[DialogueAct]) -> Utterance:
    """The simulated user's reply to ``incoming`` (None: the opening turn).
    Its items are the item-slot values of its Accept and Reject acts."""
    items = [v for a in acts if a.intent in (ACCEPT, REJECT) for v in a.slot_values(ITEM_SLOT)]
    index = incoming.index + 1 if incoming is not None else 0
    return Utterance(index, Speaker.USER, text, acts, items)


def abus_next(
    agenda: SimulatorAgenda,
    model: InteractionModel,
    incoming: Utterance | None,
    annotator: RuleAnnotator,
    rng: random.Random,
    catalog: ItemCatalog,
) -> tuple[SimulatorAgenda, Utterance | Stop]:
    """Advance the agenda simulator by one turn.

    Interprets the incoming system utterance (annotating it first when it
    carries no acts), pushes deterministic goal reactions onto the stack,
    then pops the next planned action or samples one from the interaction
    model row for the incoming intent. Returns Stop, with the agenda as it
    was given, when the goal is fulfilled or a terminal Bye is drawn.
    """
    if agenda.goal_fulfilled():
        return agenda, Stop("goal-fulfilled")

    goal = agenda.goal
    stack = list(agenda.stack)
    fulfilled = set(agenda.fulfilled_constraints)
    answered = set(agenda.fulfilled_requests)
    accepted = list(agenda.accepted_items)
    open_items = list(agenda.open_items)
    warnings = list(agenda.warnings)
    pending = agenda.pending_request
    system_intent: str | None = None

    if incoming is not None:
        acts = incoming.acts or annotator.annotate(incoming)
        system_intent = acts[0].intent if acts else OTHER
        # Any system reply to our attribute question counts as an answer.
        if pending in goal.requests:
            answered.add(pending)
        pending = None

        titles: list[str] = []
        requested_slots: list[str] = []
        for act in acts:
            if act.intent == RECOMMEND:
                titles.extend(act.slot_values(ITEM_SLOT))
            elif act.intent == REQUEST:
                requested_slots.extend(name for name, _ in act.slots)
        # Recall's rule: a turn recommends its items, else its Recommend titles.
        recommended = list(incoming.items) or titles

        if recommended:
            open_items = [item for item in recommended if item not in accepted]
            acceptable = _acceptable(recommended, accepted, goal, catalog)
            if acceptable:
                stack.insert(0, DialogueAct(ACCEPT, ((ITEM_SLOT, acceptable[0]),)))
            elif not set(recommended) & set(accepted):
                stack.insert(0, DialogueAct(REJECT, ((ITEM_SLOT, recommended[0]),)))
            # A repeat of an already-accepted item (which satisfied the goal
            # when it was accepted) draws no new decision; the planned agenda
            # (inquiries, further disclosures) continues.
        constraint_map = dict(goal.constraints)
        for slot in requested_slots:
            if slot in constraint_map:
                stack.insert(0, DialogueAct(DISCLOSE, ((slot, constraint_map[slot]),)))

    while stack and _is_stale(stack[0], fulfilled, answered):
        del stack[0]
    if stack:
        act = stack.pop(0)
    else:
        row, fell_back = model.row_for(system_intent)
        if fell_back:
            warnings.append(
                f"no transition row for system intent {system_intent!r}; "
                f"using the initial distribution"
            )
        acceptable = _acceptable(open_items, accepted, goal, catalog)
        intent = _sample_intent(row, acceptable, open_items, rng)
        act = _instantiate(intent, goal, fulfilled, answered, acceptable, open_items, rng)
    if act.intent == BYE:
        return agenda, Stop("bye")

    if act.intent == ACCEPT:
        for title in act.slot_values(ITEM_SLOT):
            if title not in accepted:
                accepted.append(title)
        open_items = []
    elif act.intent == REJECT:
        open_items = []
    elif act.intent in (DISCLOSE, REFINE) and act.slots:
        if act.slots[0] in goal.constraints:
            fulfilled.add(act.slots[0])
    elif act.intent == INQUIRE and act.slots and act.slots[0][0]:
        if act.slots[0][0] in goal.requests:
            pending = act.slots[0][0]

    updated = SimulatorAgenda(
        stack=tuple(stack), goal=goal, fulfilled_constraints=frozenset(fulfilled),
        fulfilled_requests=frozenset(answered), accepted_items=tuple(accepted),
        open_items=tuple(open_items), pending_request=pending, warnings=tuple(warnings),
    )
    return updated, _user_turn(incoming, render_act_text(act), (act,))


class SimulatorSession(Protocol):
    """One conversation of a simulator. ``next`` answers the system turn
    ``incoming`` (None: open the conversation) with a user turn indexed one
    past it (0 for the opening turn), or ends the conversation."""

    def next(self, incoming: Utterance | None) -> Utterance | Stop | Abort: ...


class UserSimulator(Protocol):
    simulator_id: str

    def start_session(self, goal: UserGoal, seed: int) -> SimulatorSession: ...


class _Session:
    """One conversation of either simulator: its state and the function
    ``step(state, incoming) -> (state, outcome)`` that plays one turn."""

    def __init__(self, step: Callable, state):
        self._step = step
        self.state = state

    def next(self, incoming: Utterance | None) -> Utterance | Stop | Abort:
        self.state, outcome = self._step(self.state, incoming)
        return outcome


class AgendaSimulator:
    """Agenda-based user simulator (interaction model + goal reactions)."""

    simulator_id = "abus"

    def __init__(
        self,
        catalog: ItemCatalog,
        schema: IntentSchema | None = None,
        model: InteractionModel | None = None,
    ):
        self.schema = schema or simulation_schema()
        self.model = model or default_interaction_model()
        self.model.validate_against(self.schema)
        self.catalog = catalog
        self.annotator = RuleAnnotator(self.schema, catalog=catalog)

    def start_session(self, goal: UserGoal, seed: int) -> _Session:
        rng = random.Random(seed)

        def step(agenda: SimulatorAgenda, incoming: Utterance | None):
            return abus_next(agenda, self.model, incoming, self.annotator, rng, self.catalog)

        return _Session(step, new_agenda(goal))


@dataclass(frozen=True)
class ConversationState:
    """What the LLM simulator knows: its goal and the turns so far."""

    goal: UserGoal
    history: tuple[tuple[str, str], ...] = ()


def _render_goal(goal: UserGoal) -> str:
    constraints = "; ".join(f"{slot} = {value}" for slot, value in goal.constraints)
    requests = ", ".join(goal.requests) if goal.requests else "(none)"
    return f"constraints: {constraints}. information to ask about: {requests}."


def llmus_next(
    state: ConversationState,
    incoming: Utterance | None,
    gateway: HttpLlmGateway,
    annotator: RuleAnnotator | None = None,
) -> tuple[ConversationState, Utterance | Abort]:
    """Advance the LLM simulator by one turn (at most two gateway calls).

    On a non-opening turn the simulator first decides continue-or-abort;
    if it continues (or is opening), it generates the next user utterance
    zero-shot from the goal and the (budget-truncated) history. An empty
    generation is retried once, then the turn aborts. The returned state's
    history gains the incoming turn and, unless the turn aborts, the
    generated one.
    """
    history = state.history
    if incoming is not None:
        history = history + ((incoming.speaker.value, incoming.text),)
    heard = replace(state, history=history)

    goal_text = _render_goal(state.goal)
    history_text = render_transcript(history)

    if incoming is not None:
        decision_prompt = load_prompt_template("simulator_continue").format(
            goal=goal_text, history=history_text
        )
        decision = gateway.complete([{"role": "user", "content": decision_prompt}])
        normalized = decision.strip().lower()
        if normalized.startswith("abort"):
            reason = decision.strip()[len("abort"):].lstrip(":. ").strip()
            return heard, Abort(reason=reason or "no-progress")

    generate_prompt = load_prompt_template("simulator_generate").format(
        goal=goal_text, history=history_text
    )
    text = ""
    for _ in range(2):
        text = gateway.complete(
            [{"role": "user", "content": generate_prompt}]
        ).strip()
        if text:
            break
    if not text:
        return heard, Abort(reason="generation-failure")

    acts = annotator.annotate(
        Utterance(index=0, speaker=Speaker.USER, text=text)
    ) if annotator is not None else ()
    outgoing = _user_turn(incoming, text, acts)
    return replace(state, history=history + ((outgoing.speaker.value, text),)), outgoing


class LlmSimulator:
    """LLM-backed user simulator with an explicit continue-or-abort step."""

    simulator_id = "llm-us"

    def __init__(
        self,
        gateway_factory: Callable[[], HttpLlmGateway],
        annotator: RuleAnnotator | None = None,
    ):
        # One gateway per conversation, so scripted gateways replay per dialogue.
        self._gateway_factory = gateway_factory
        # Generated turns should carry acts; without a catalog the rule
        # annotator still tags decisions and disclosures from cue phrases.
        self.annotator = annotator or RuleAnnotator(simulation_schema())

    def start_session(self, goal: UserGoal, seed: int) -> _Session:
        gateway = self._gateway_factory()

        def step(state: ConversationState, incoming: Utterance | None):
            return llmus_next(state, incoming, gateway, self.annotator)

        return _Session(step, ConversationState(goal=goal))


TERMINATION_REASON = "termination_reason"


def run_conversation(
    simulator: UserSimulator,
    connector: CrsConnector,
    goal: UserGoal,
    limits: RunLimits,
) -> Dialogue:
    """Run one simulator-vs-CRS conversation.

    The simulator opens. The loop ends on simulator Stop/Abort, a CRS end
    signal, the utterance cap, a connector timeout, or the loop guard
    (too many consecutive identical CRS replies). The returned dialogue is
    named ``<simulator id>-<crs id>-<seed as 8 digits>`` and carries the
    goal, the simulator id, acts on simulator turns, and a termination
    reason; CRS turns are left for the annotation stage.
    """
    session = simulator.start_session(goal, limits.seed)
    session_id = f"{simulator.simulator_id}-{connector.crs_id}-{limits.seed}"
    utterances: list[Utterance] = []
    reason = "max-utterances"
    detail: str | None = None
    last_reply: str | None = None
    repeats = 0
    incoming: Utterance | None = None

    while len(utterances) < limits.max_utterances:
        outcome = session.next(incoming)
        if isinstance(outcome, Stop):
            reason = "simulator-stop"
            detail = outcome.reason
            break
        if isinstance(outcome, Abort):
            reason = "simulator-abort"
            detail = outcome.reason
            break
        utterances.append(outcome)
        if len(utterances) >= limits.max_utterances:
            break

        try:
            reply = connector.send(session_id, outcome.text)
        except ConnectorTimeout as exc:
            reason = "connector-timeout"
            detail = str(exc)
            break
        except ConnectorError as exc:
            raise SimulationError(
                f"conversation {session_id}: connector failed: {exc}"
            ) from exc

        system_utterance = Utterance(
            index=len(utterances),
            speaker=Speaker.SYSTEM,
            text=reply.text,
            acts=(),
            items=reply.items,
        )
        utterances.append(system_utterance)
        if reply.end:
            reason = "crs-ended"
            break
        if reply.text == last_reply:
            repeats += 1
        else:
            repeats = 0
            last_reply = reply.text
        if repeats >= _LOOP_GUARD_REPEATS:
            reason = "loop-guard"
            break
        incoming = system_utterance

    if not utterances:
        raise SimulationError(
            f"conversation {session_id} produced no utterances "
            f"({reason}{': ' + detail if detail else ''})"
        )

    extra: dict = {"seed": limits.seed, TERMINATION_REASON: reason}
    if detail:
        extra["termination_detail"] = detail
    return Dialogue(
        dialogue_id=f"{simulator.simulator_id}-{connector.crs_id}-{limits.seed:08d}",
        crs_id=connector.crs_id,
        utterances=tuple(utterances),
        goal=goal,
        provenance=PROVENANCE_SIMULATED,
        simulator_id=simulator.simulator_id,
        extra=extra,
    )


def generate_corpus(
    simulator: UserSimulator,
    connector: CrsConnector,
    n: int,
    catalog: ItemCatalog,
    goal_config: GoalConfig | None = None,
    limits: RunLimits | None = None,
    jobs: int = 1,
) -> Corpus:
    """Generate ``n`` simulated dialogues, seeded ``limits.seed`` onwards.

    Each seed draws its own goal and runs one conversation; seeds run on
    ``jobs`` threads through ``in_order``. Per-dialogue failures are
    recorded in the corpus header metadata rather than aborting the batch;
    only a fully failed batch raises. Results are ordered by seed, so the
    output is independent of the worker schedule.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    limits = limits or RunLimits()
    seeds = range(limits.seed, limits.seed + n)
    if goal_config is None:
        slots = catalog.slots()
        goal_config = GoalConfig(constraint_slots=slots, request_slots=slots)

    def run_one(seed: int) -> Dialogue | Exception:
        try:
            goal = sample_goal(catalog, goal_config, seed)
            return run_conversation(simulator, connector, goal, replace(limits, seed=seed))
        except (SimulationError, GatewayError) as exc:
            return exc

    outcomes = list(in_order(run_one, seeds, jobs))
    dialogues = [o for o in outcomes if isinstance(o, Dialogue)]
    failures = [
        {"seed": seed, "error": str(outcome)}
        for seed, outcome in zip(seeds, outcomes)
        if not isinstance(outcome, Dialogue)
    ]
    if not dialogues:
        raise SimulationError(
            f"all {n} simulation runs failed; first error: {failures[0]['error']}"
        )

    extra: dict = {
        "generator": {
            "simulator_id": simulator.simulator_id,
            "crs_id": connector.crs_id,
            "n": n,
            "base_seed": limits.seed,
        }
    }
    if failures:
        extra["failures"] = failures
    return Corpus(dialogues=tuple(dialogues), extra=extra)
