import math
import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evalkit.annotation import TRUNCATION_MARKER, RuleAnnotator
from evalkit.catalog import load_catalog
from evalkit.connectors import (
    CrsEndpoint,
    GatewayOptions,
    HttpCrsConnector,
    HttpLlmGateway,
    MockLlmGateway,
    make_stub,
)
from evalkit.corpus_io import serialize_corpus
from evalkit.dialogue import Speaker, UserGoal, _bundled_text, simulation_schema
from evalkit.errors import (
    ConnectorError,
    GatewayTimeout,
    SchemaViolationError,
    SimulationError,
)
from evalkit.simulation import (
    Abort,
    AgendaSimulator,
    ConversationState,
    GoalConfig,
    InteractionModel,
    LlmSimulator,
    RunLimits,
    Stop,
    _parse_interaction_model,
    abus_next,
    default_interaction_model,
    generate_corpus,
    llmus_next,
    load_interaction_model,
    new_agenda,
    run_conversation,
    sample_goal,
)

from helpers import act, utt
from oracle import oracle_intent_sums, oracle_sample_goal, oracle_sampled_intent

SCHEMA = simulation_schema()


def simple_goal(constraints=(("year", "1988"),), requests=()):
    return UserGoal(constraints=tuple(constraints), requests=tuple(requests))


class TestSampleGoal:
    def test_single_item_catalog_two_constraints(self):
        catalog = load_catalog(
            [{"title": "Movie X", "year": "2016", "actor": "Nicole Kidman"}]
        )
        config = GoalConfig(constraint_slots=("year", "actor"))
        goals = [sample_goal(catalog, config, seed=seed) for seed in range(20)]
        item = {("year", "2016"), ("actor", "Nicole Kidman")}
        assert all(set(goal.constraints) <= item and goal.requests == () for goal in goals)
        # Goals have one or two constraints, and both sizes are drawn.
        assert {len(goal.constraints) for goal in goals} == {1, 2}

    def test_same_seed_same_goal(self, movie_catalog):
        config = GoalConfig(
            constraint_slots=("genre", "year"), request_slots=("plot", "rating")
        )
        assert sample_goal(movie_catalog, config, seed=42) == sample_goal(
            movie_catalog, config, seed=42
        )

    def test_different_seeds_vary(self, movie_catalog):
        config = GoalConfig(
            constraint_slots=("genre", "year"), request_slots=("plot", "rating")
        )
        goals = {
            (sample_goal(movie_catalog, config, seed=s).constraints)
            for s in range(12)
        }
        assert len(goals) > 1

    def test_absent_slot_error_names_the_slot(self, movie_catalog):
        config = GoalConfig(constraint_slots=("spaceship",))
        with pytest.raises(ValueError, match="spaceship"):
            sample_goal(movie_catalog, config, seed=0)

    def test_constraints_always_satisfiable(self, movie_catalog):
        config = GoalConfig(
            constraint_slots=("genre", "year", "actor"),
            request_slots=("plot", "director", "rating"),
        )
        for seed in range(30):
            goal = sample_goal(movie_catalog, config, seed=seed)
            assert movie_catalog.matching(goal.constraints)

    def test_no_target_leakage(self, movie_catalog):
        config = GoalConfig(constraint_slots=("genre", "year"))
        titles = set(movie_catalog.titles())
        for seed in range(20):
            goal = sample_goal(movie_catalog, config, seed=seed)
            assert all(value not in titles for _, value in goal.constraints)

    def test_request_count_within_bounds(self, movie_catalog):
        config = GoalConfig(
            constraint_slots=("genre",), request_slots=("plot", "rating", "director")
        )
        for seed in range(20):
            goal = sample_goal(movie_catalog, config, seed=seed)
            assert 1 <= len(goal.requests) <= 3

    @settings(max_examples=200)
    @given(st.data())
    def test_draws_from_items_in_file_order(self, data):
        value = st.sampled_from(("a", "b", "c", "7"))
        attributes = st.dictionaries(
            st.sampled_from(("genre", "year", "actor")),
            st.one_of(value, st.integers(0, 9), st.lists(value, max_size=2)),
        )
        titles = st.lists(st.sampled_from("PQRSTUVW"), min_size=1, max_size=8, unique=True)
        records = [{"id": title, **data.draw(attributes)} for title in data.draw(titles)]
        slots = sorted({slot for record in records for slot in record} - {"id"})
        assume(slots)
        config = GoalConfig(
            constraint_slots=data.draw(st.lists(st.sampled_from(slots), min_size=1, unique=True)),
            request_slots=data.draw(st.lists(st.sampled_from(slots), unique=True)),
        )
        seed = data.draw(st.integers(0, 2**16))
        expected = oracle_sample_goal(records, config, seed)
        if expected is None:
            with pytest.raises(SimulationError):
                sample_goal(load_catalog(records), config, seed)
        else:
            goal = sample_goal(load_catalog(records), config, seed)
            assert (goal.constraints, goal.requests) == expected

    def test_impossible_combination_raises(self):
        # The slot exists in the catalog, but no item populates it, so no
        # goal can anchor on an item within the 50 attempts.
        catalog = load_catalog(
            [{"title": "A", "year": None, "genre": "drama"}, {"title": "B", "year": []}]
        )
        config = GoalConfig(constraint_slots=("year",))
        with pytest.raises(SimulationError, match="after 50 attempts"):
            sample_goal(catalog, config, seed=0)


class TestInteractionModel:
    def test_default_model_is_schema_valid(self):
        model = default_interaction_model()
        model.validate_against(SCHEMA)
        assert "Recommend" in model.transitions

    def test_row_sums_validated(self):
        with pytest.raises(ValueError, match="sums to"):
            InteractionModel(
                transitions={"Recommend": {"Accept": 0.5, "Reject": 0.4}},
                initial={"Disclose": 1.0},
            )

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            InteractionModel(
                transitions={},
                initial={"Disclose": 1.5, "Inquire": -0.5},
            )

    @pytest.mark.parametrize(
        "transitions, initial",
        [
            ({}, {"Disclose": float("nan"), "Inquire": 0.5}),
            ({"Recommend": {"Accept": float("nan")}}, {"Disclose": 1.0}),
        ],
        ids=["initial", "transition"],
    )
    def test_nan_probability_rejected(self, transitions, initial):
        with pytest.raises(ValueError, match="negative"):
            InteractionModel(transitions=transitions, initial=initial)

    def test_nan_in_a_table_file_rejected(self):
        with pytest.raises(ValueError, match="'__start__' has negative"):
            _parse_interaction_model("s\tDisclose\tInquire\n__start__\tnan\t0.5\n")

    def test_missing_row_falls_back_to_initial(self):
        model = default_interaction_model()
        row, fell_back = model.row_for("Explain")
        assert not fell_back
        row, fell_back = model.row_for("Unseen")
        assert fell_back
        assert row == model.initial

    @staticmethod
    def _table(tmp_path, text):
        path = tmp_path / "model.tsv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_load_reads_a_table_file(self, tmp_path):
        text = "# opening only\ns\tDisclose\tInquire\n\n__start__\t0.75\t0.25\nRequest\t1\t0\n"
        model = load_interaction_model(self._table(tmp_path, text))
        assert model == InteractionModel(
            transitions={"Request": {"Disclose": 1.0, "Inquire": 0.0}},
            initial={"Disclose": 0.75, "Inquire": 0.25},
        )

    @pytest.mark.parametrize("comment", ["  # note", "\t# note", " #"])
    def test_indented_comment_lines_are_skipped(self, tmp_path, comment):
        # A line whose first non-blank character is "#" is a comment here
        # as in the rule lexicon, above the header or between rows.
        text = _bundled_text("interaction_model.tsv")
        header = next(line for line in text.splitlines() if line and line[0] != "#")
        text = text.replace(header, f"{comment}\n{header}\n{comment}", 1)
        model = load_interaction_model(self._table(tmp_path, text))
        assert model == default_interaction_model()

    def test_load_reads_a_path_containing_a_tab(self, tmp_path):
        folder = tmp_path / "d\tt"
        folder.mkdir()
        (folder / "model.tsv").write_text("s\tBye\n__start__\t1\n", encoding="utf-8")
        model = load_interaction_model(str(folder / "model.tsv"))
        assert (model.transitions, model.initial) == ({}, {"Bye": 1.0})

    def test_load_requires_start_row(self, tmp_path):
        path = self._table(tmp_path, "s\tDisclose\nRecommend\t1.0\n")
        with pytest.raises(ValueError, match="__start__"):
            load_interaction_model(path)

    def test_load_rejects_ragged_rows(self, tmp_path):
        path = self._table(tmp_path, "s\tDisclose\tInquire\n__start__\t1.0\n")
        with pytest.raises(ValueError, match="probabilities"):
            load_interaction_model(path)

    def test_unknown_intent_rejected_against_schema(self, tmp_path):
        path = self._table(tmp_path, "s\tDisclose\tZigZag\n__start__\t0.5\t0.5\n")
        with pytest.raises(SchemaViolationError, match="ZigZag"):
            load_interaction_model(path).validate_against(SCHEMA)


TWO_ROW_MODEL = InteractionModel(
    transitions={"Recommend": {"Accept": 0.25, "Reject": 0.25, "Inquire": 0.5}},
    initial={"Disclose": 1.0},
)


class TestAbusNext:
    def _annotator(self, catalog):
        return RuleAnnotator(SCHEMA, catalog=catalog)

    def test_matching_recommendation_is_accepted(self, movie_catalog):
        goal = simple_goal([("year", "1988")])
        agenda = new_agenda(goal)
        incoming = utt(1, "SYSTEM", text="Have you seen Midnight Run?", items=["Midnight Run"])
        updated, outgoing = abus_next(
            agenda,
            TWO_ROW_MODEL,
            incoming,
            self._annotator(movie_catalog),
            random.Random(0),
            catalog=movie_catalog,
        )
        assert outgoing.acts[0].intent == "Accept"
        assert outgoing.acts[0].slot_values("TITLE") == ("Midnight Run",)
        assert updated.accepted_items == ("Midnight Run",)

    def test_non_matching_recommendation_is_rejected(self, movie_catalog):
        goal = simple_goal([("year", "1988")])
        incoming = utt(1, "SYSTEM", text="Have you seen Paper Moon?", items=["Paper Moon"])
        _, outgoing = abus_next(
            new_agenda(goal),
            TWO_ROW_MODEL,
            incoming,
            self._annotator(movie_catalog),
            random.Random(0),
            catalog=movie_catalog,
        )
        assert outgoing.acts[0].intent == "Reject"

    def test_repeat_of_an_accepted_item_draws_no_decision(self, movie_catalog):
        goal = simple_goal([("year", "1988")], requests=("director",))
        agenda = replace(new_agenda(goal), stack=(), accepted_items=("Midnight Run",))
        incoming = utt(
            1, "SYSTEM", text="Midnight Run, or Paper Moon?", items=["Midnight Run", "Paper Moon"]
        )
        updated, outgoing = abus_next(
            agenda,
            InteractionModel(transitions={}, initial={"Inquire": 1.0}),
            incoming,
            self._annotator(movie_catalog),
            random.Random(0),
            catalog=movie_catalog,
        )
        assert outgoing.acts[0].intent == "Inquire"
        assert updated.accepted_items == ("Midnight Run",)
        assert updated.open_items == ("Paper Moon",)

    @pytest.mark.parametrize(
        "items, act_",
        [
            (["Midnight Run", "Paper Moon"], act("Reject", ("TITLE", "Paper Moon"))),
            (["Midnight Run"], act("Disclose", ("year", "1988"))),
        ],
        ids=["another-open", "none-open"],
    )
    def test_an_accepted_item_is_never_rejected(self, movie_catalog, items, act_):
        # A model that always rejects, and an accepted item recommended again.
        goal = simple_goal([("year", "1988")], requests=("director",))
        agenda = replace(
            new_agenda(goal), stack=(), accepted_items=("Midnight Run",),
            fulfilled_constraints=frozenset(goal.constraints),
        )
        incoming = utt(1, "SYSTEM", text="How about one of these?", items=items)
        _, outgoing = abus_next(
            agenda,
            InteractionModel(transitions={}, initial={"Reject": 1.0}),
            incoming,
            self._annotator(movie_catalog),
            random.Random(0),
            catalog=movie_catalog,
        )
        assert outgoing.acts == (act_,)

    def test_fulfilled_goal_stops(self, movie_catalog):
        goal = simple_goal([("year", "1988")])
        agenda = new_agenda(goal)
        fulfilled = agenda.__class__(
            stack=(),
            goal=goal,
            fulfilled_constraints=frozenset({("year", "1988")}),
            fulfilled_requests=frozenset(),
            accepted_items=("Midnight Run",),
        )
        _, outcome = abus_next(
            fulfilled,
            TWO_ROW_MODEL,
            None,
            self._annotator(movie_catalog),
            random.Random(0),
            catalog=movie_catalog,
        )
        assert outcome == Stop("goal-fulfilled")

    def test_request_for_goal_slot_triggers_disclosure(self, movie_catalog):
        goal = simple_goal([("genre", "comedy"), ("year", "1988")])
        agenda = new_agenda(goal)
        incoming = utt(
            1,
            "SYSTEM",
            acts=[("Request")],
            text="What genre are you looking for?",
        )
        # Build the Request act with the slot it asks about.
        from evalkit.dialogue import DialogueAct

        incoming = utt(1, "SYSTEM", [DialogueAct("Request", (("genre", ""),))])
        updated, outgoing = abus_next(
            agenda,
            TWO_ROW_MODEL,
            incoming,
            self._annotator(movie_catalog),
            random.Random(0),
            catalog=movie_catalog,
        )
        assert outgoing.acts[0].intent == "Disclose"
        assert outgoing.acts[0].slots == (("genre", "comedy"),)
        assert ("genre", "comedy") in updated.fulfilled_constraints

    def test_opening_turn_discloses_first_constraint(self, movie_catalog):
        goal = simple_goal([("genre", "comedy"), ("year", "1988")])
        _, outgoing = abus_next(
            new_agenda(goal),
            TWO_ROW_MODEL,
            None,
            self._annotator(movie_catalog),
            random.Random(0),
            catalog=movie_catalog,
        )
        assert outgoing.index == 0
        assert outgoing.acts[0].intent == "Disclose"
        assert outgoing.acts[0].slots == (("genre", "comedy"),)

    def test_missing_row_falls_back_with_warning(self, movie_catalog):
        goal = simple_goal()
        agenda = new_agenda(goal)
        # Exhaust the planned stack first so sampling is needed.
        incoming = utt(1, "SYSTEM", text="Anything else I can do?")
        updated, _ = abus_next(
            agenda,
            TWO_ROW_MODEL,
            incoming,
            self._annotator(movie_catalog),
            random.Random(0),
            catalog=movie_catalog,
        )
        updated, _ = abus_next(
            updated,
            TWO_ROW_MODEL,
            incoming,
            self._annotator(movie_catalog),
            random.Random(0),
            catalog=movie_catalog,
        )
        assert any("initial distribution" in w for w in updated.warnings)

    def test_sampled_bye_stops(self, movie_catalog):
        goal = simple_goal()
        model = InteractionModel(
            transitions={"Respond": {"Bye": 1.0}},
            initial={"Disclose": 1.0},
        )
        agenda = new_agenda(goal)
        annotator = self._annotator(movie_catalog)
        rng = random.Random(0)
        # Opening pops the planned disclosure, emptying the stack.
        agenda, first = abus_next(agenda, model, None, annotator, rng, catalog=movie_catalog)
        assert first.acts[0].intent == "Disclose"
        incoming = utt(1, "SYSTEM", text="The director is Martin Brest.")
        agenda, outcome = abus_next(
            agenda, model, incoming, annotator, rng, catalog=movie_catalog
        )
        assert outcome == Stop("bye")


class _FixedRoll(random.Random):
    """A generator whose ``random()`` always returns ``roll``."""

    def __init__(self, roll):
        super().__init__(0)
        self.roll = roll

    def random(self):
        return self.roll


# Not dyadic: each candidate set's running sums end one ulp below the
# exact total, which the compensated sum() of Python 3.12 and later returns.
NON_DYADIC_ROW = {
    "Accept": 0.1, "Bye": 0.3, "Disclose": 0.3, "Inquire": 0.1, "Refine": 0.1, "Reject": 0.1,
}


@pytest.mark.parametrize(
    "open_items, can_accept, can_reject",
    [((), False, False), (("Paper Moon",), False, True), (("Midnight Run",), True, True)],
    ids=["nothing-open", "rejectable", "acceptable"],
)
def test_sampled_intents_follow_the_running_sums(movie_catalog, open_items, can_accept, can_reject):
    model = InteractionModel(transitions={}, initial=NON_DYADIC_ROW)
    agenda = replace(new_agenda(simple_goal()), stack=(), open_items=open_items)
    annotator = RuleAnnotator(SCHEMA, catalog=movie_catalog)
    _, sums = oracle_intent_sums(NON_DYADIC_ROW, can_accept, can_reject)
    # One roll per seed, and the rolls on either side of each bucket edge.
    edges = [s / sums[-1] for s in sums[:-1]]
    near = [math.nextafter(e, d) for e in edges for d in (0.0, 1.0)]
    draws = [(random.Random(seed), random.Random(seed).random()) for seed in range(500)]
    draws += [(_FixedRoll(roll), roll) for roll in edges + near]
    for rng, roll in draws:
        expected = oracle_sampled_intent(NON_DYADIC_ROW, roll, can_accept, can_reject)
        _, outcome = abus_next(agenda, model, None, annotator, rng, movie_catalog)
        drawn = "Bye" if outcome == Stop("bye") else outcome.acts[0].intent
        assert drawn == expected


class _FixedActs:
    """An annotator that tags every utterance with the same acts."""

    def __init__(self, *acts):
        self.acts = acts

    def annotate(self, utterance):
        return self.acts


def _abus_turn(incoming, catalog):
    annotator = RuleAnnotator(SCHEMA, catalog=catalog)
    agenda = new_agenda(simple_goal())
    _, outgoing = abus_next(agenda, TWO_ROW_MODEL, incoming, annotator, random.Random(0), catalog)
    return outgoing


def _llmus_turn(incoming, *acts):
    gateway = MockLlmGateway(replies=["continue", "my turn"] if incoming else ["my turn"])
    state = ConversationState(goal=simple_goal())
    _, outgoing = llmus_next(state, incoming, gateway, _FixedActs(*acts))
    return outgoing


MIDNIGHT_RUN = utt(1, "SYSTEM", text="Have you seen Midnight Run?", items=["Midnight Run"])
PAPER_MOON = utt(3, "SYSTEM", text="Have you seen Paper Moon?", items=["Paper Moon"])


# Both simulators' outgoing turn: the index after the incoming turn's (0 when
# opening), the user as speaker, and as items the item-slot values of its
# Accept and Reject acts, in act order.
@pytest.mark.parametrize(
    "turn, index, intents, items",
    [
        (lambda c: _abus_turn(None, c), 0, ["Disclose"], ()),
        (lambda c: _abus_turn(MIDNIGHT_RUN, c), 2, ["Accept"], ("Midnight Run",)),
        (lambda c: _abus_turn(PAPER_MOON, c), 4, ["Reject"], ("Paper Moon",)),
        (lambda c: _llmus_turn(None, act("Accept", ("TITLE", "Up"))), 0, ["Accept"], ("Up",)),
        (
            lambda c: _llmus_turn(
                PAPER_MOON,
                act("Reject", ("TITLE", "Paper Moon"), ("genre", "drama")),
                act("Disclose", ("TITLE", "Heat")),
                act("Accept", ("TITLE", "Up"), ("TITLE", "Big")),
            ),
            4,
            ["Reject", "Disclose", "Accept"],
            ("Paper Moon", "Up", "Big"),
        ),
        (lambda c: _llmus_turn(MIDNIGHT_RUN), 2, [], ()),
    ],
    ids=["abus-opening", "abus-accept", "abus-reject", "llmus-opening", "llmus-acts", "llmus-no-acts"],
)
def test_user_turn_index_speaker_and_items(movie_catalog, turn, index, intents, items):
    outgoing = turn(movie_catalog)
    assert outgoing.index == index
    assert outgoing.speaker is Speaker.USER
    assert [a.intent for a in outgoing.acts] == intents
    assert outgoing.items == items


class TestLlmUsNext:
    def test_returned_history_gains_the_incoming_and_the_generated_turn(self):
        gateway = MockLlmGateway(replies=["continue", "  Who directed it?  "])
        state = ConversationState(goal=simple_goal(), history=(("USER", "Hi"),))
        incoming = utt(1, "SYSTEM", text="Have you seen Midnight Run?")
        updated, outcome = llmus_next(state, incoming, gateway)
        assert outcome.text == "Who directed it?"
        assert updated == ConversationState(
            goal=state.goal,
            history=(
                ("USER", "Hi"),
                ("SYSTEM", "Have you seen Midnight Run?"),
                ("USER", "Who directed it?"),
            ),
        )

    @pytest.mark.parametrize(
        "replies, reason",
        [(["abort: going nowhere"], "going nowhere"), (["continue", "", ""], "generation-failure")],
    )
    def test_aborted_turn_keeps_only_the_incoming_turn(self, replies, reason):
        state = ConversationState(goal=simple_goal(), history=(("USER", "Hi"),))
        incoming = utt(1, "SYSTEM", text="hello")
        updated, outcome = llmus_next(state, incoming, MockLlmGateway(replies=replies))
        assert outcome == Abort(reason=reason)
        assert updated.history == (("USER", "Hi"), ("SYSTEM", "hello"))

    def test_scripted_abort(self):
        gateway = MockLlmGateway(replies=["abort: going nowhere"])
        state = ConversationState(goal=simple_goal())
        incoming = utt(1, "SYSTEM", text="hello")
        _, outcome = llmus_next(state, incoming, gateway)
        assert outcome == Abort(reason="going nowhere")

    def test_scripted_continue_and_generation(self):
        gateway = MockLlmGateway(replies=["continue", "Can you tell me the director?"])
        state = ConversationState(goal=simple_goal())
        incoming = utt(1, "SYSTEM", text="Have you seen Midnight Run?")
        _, outcome = llmus_next(state, incoming, gateway)
        assert outcome.speaker is Speaker.USER
        assert outcome.text == "Can you tell me the director?"
        assert outcome.index == 2

    def test_opening_turn_skips_the_decision_call(self):
        gateway = MockLlmGateway(replies=["Hi, looking for a comedy."])
        _, outcome = llmus_next(ConversationState(goal=simple_goal()), None, gateway)
        assert outcome.text == "Hi, looking for a comedy."
        assert len(gateway.calls) == 1

    def test_empty_generation_retried_once_then_aborts(self):
        gateway = MockLlmGateway(replies=["continue", "", "   "])
        state = ConversationState(goal=simple_goal())
        _, outcome = llmus_next(state, utt(1, "SYSTEM", text="hi"), gateway)
        assert outcome == Abort(reason="generation-failure")
        assert len(gateway.calls) == 3

    def test_empty_generation_retry_can_succeed(self):
        gateway = MockLlmGateway(replies=["continue", "", "second try works"])
        _, outcome = llmus_next(
            ConversationState(goal=simple_goal()), utt(1, "SYSTEM", text="hi"), gateway
        )
        assert outcome.text == "second try works"

    def test_history_truncation_keeps_newest_and_marks(self):
        # 100 prompt lines of about 60 characters: past the 4000-character budget.
        history = tuple(
            ("USER" if i % 2 == 0 else "SYSTEM", f"turn number {i:03d} " + "x" * 37)
            for i in range(100)
        )
        state = ConversationState(goal=simple_goal(), history=history)
        gateway = MockLlmGateway(replies=["continue", "next message"])
        _, outcome = llmus_next(
            state, utt(100, "SYSTEM", text="latest system words"), gateway
        )
        assert outcome.text == "next message"
        for call in gateway.calls:
            prompt = call[0]["content"]
            assert TRUNCATION_MARKER in prompt
            assert "latest system words" in prompt
            kept = [n for n in range(100) if f"turn number {n:03d} " in prompt]
            # The newest lines that fit in 4000 characters are kept.
            assert kept == list(range(35, 100))

    def test_own_turns_are_annotated_when_annotator_given(self, movie_catalog):
        annotator = RuleAnnotator(SCHEMA, catalog=movie_catalog)
        gateway = MockLlmGateway(replies=["continue", "Great, I'll watch Midnight Run. Thanks!"])
        _, outcome = llmus_next(
            ConversationState(goal=simple_goal()),
            utt(1, "SYSTEM", text="Have you seen Midnight Run?"),
            gateway,
            annotator=annotator,
        )
        assert outcome.acts[0].intent == "Accept"
        assert outcome.items == ("Midnight Run",)


class FailOnSeedStub:
    """Connector that fails whole sessions whose id carries a marked seed."""

    def __init__(self, fail_seed: int):
        self.crs_id = "stub-flaky"
        self._marker = f"-{fail_seed}"
        self._inner = make_stub("always-recommend")

    def send(self, session, utterance, timeout=None):
        if session.endswith(self._marker):
            raise ConnectorError("injected failure")
        return self._inner.send(session, utterance, timeout)


class TestRunConversation:
    def test_goodbye_stub_two_utterances(self, movie_catalog):
        simulator = AgendaSimulator(catalog=movie_catalog)
        dialogue = run_conversation(
            simulator, make_stub("goodbye"), simple_goal(), RunLimits(seed=5)
        )
        assert len(dialogue) == 2
        assert dialogue.extra["termination_reason"] == "crs-ended"
        assert dialogue.provenance == "simulated"
        assert dialogue.simulator_id == "abus"
        assert dialogue.goal == simple_goal()

    def test_deterministic_transcripts(self, movie_catalog):
        def run_once():
            simulator = AgendaSimulator(catalog=movie_catalog)
            return run_conversation(
                simulator, make_stub("always-recommend"), simple_goal(), RunLimits(seed=9)
            )

        assert run_once() == run_once()

    def test_loop_guard_fires_on_repeating_crs(self, movie_catalog):
        simulator = AgendaSimulator(catalog=movie_catalog)
        # The recommended item is not in the catalog, so the simulator
        # rejects forever while the stub repeats the same sentence.
        stub = make_stub("always-recommend", item_id="Unknown Movie")
        limits = RunLimits(max_utterances=20, seed=2)
        dialogue = run_conversation(simulator, stub, simple_goal(), limits)
        assert dialogue.extra["termination_reason"] == "loop-guard"
        assert len(dialogue) <= limits.max_utterances

    def test_max_utterances_respected(self, movie_catalog):
        simulator = AgendaSimulator(catalog=movie_catalog)
        limits = RunLimits(max_utterances=6, seed=3)
        dialogue = run_conversation(simulator, make_stub("echo"), simple_goal(), limits)
        assert len(dialogue) <= 6

    def test_user_turns_carry_acts_system_turns_do_not(self, movie_catalog):
        simulator = AgendaSimulator(catalog=movie_catalog)
        dialogue = run_conversation(
            simulator, make_stub("always-recommend"), simple_goal(), RunLimits(seed=4)
        )
        for utterance in dialogue.utterances:
            if utterance.speaker is Speaker.USER:
                assert utterance.acts
            else:
                assert utterance.acts == ()

    def test_llmus_abort_recorded(self, movie_catalog):
        gateway_factory = lambda: MockLlmGateway(
            replies=["Hi, any comedy?", "abort: stuck"]
        )
        simulator = LlmSimulator(
            gateway_factory, annotator=RuleAnnotator(SCHEMA, catalog=movie_catalog)
        )
        dialogue = run_conversation(
            simulator, make_stub("echo"), simple_goal(), RunLimits(seed=1)
        )
        assert dialogue.extra["termination_reason"] == "simulator-abort"
        assert dialogue.extra["termination_detail"] == "stuck"
        assert len(dialogue) == 2

    def test_connector_error_becomes_simulation_error(self, movie_catalog):
        simulator = AgendaSimulator(catalog=movie_catalog)
        stub = FailOnSeedStub(fail_seed=7)
        with pytest.raises(SimulationError, match="connector failed"):
            run_conversation(simulator, stub, simple_goal(), RunLimits(seed=7))

    def test_emitted_intents_have_nonzero_model_probability(self, movie_catalog):
        # Checkable from transcripts: annotate system turns the same way the
        # simulator's NLU does, then look up each user intent in the row for
        # the preceding system intent.
        simulator = AgendaSimulator(catalog=movie_catalog)
        model = simulator.model
        annotator = simulator.annotator
        for seed in range(8):
            dialogue = run_conversation(
                simulator, make_stub("echo"), simple_goal((("genre", "comedy"),), ("plot",)),
                RunLimits(seed=seed),
            )
            previous_intent = None
            for utterance in dialogue.utterances:
                if utterance.speaker is Speaker.SYSTEM:
                    acts = annotator.annotate(utterance)
                    previous_intent = acts[0].intent if acts else "Other"
                    continue
                row, _ = model.row_for(previous_intent)
                for act_ in utterance.acts:
                    assert row.get(act_.intent, 0.0) > 0.0 or any(
                        r.get(act_.intent, 0.0) > 0.0
                        for r in (model.initial,)
                    )

    def test_goal_soundness_disclosures_match_goal(self, movie_catalog):
        simulator = AgendaSimulator(catalog=movie_catalog)
        goal = simple_goal((("genre", "comedy"), ("year", "1973")), ("plot",))
        for seed in range(8):
            dialogue = run_conversation(
                simulator, make_stub("echo"), goal, RunLimits(seed=seed)
            )
            for utterance in dialogue.utterances:
                for act_ in utterance.acts:
                    if act_.intent in ("Disclose", "Refine"):
                        assert set(act_.slots) <= set(goal.constraints)


class TestGenerateCorpus:
    def test_single_dialogue(self, movie_catalog):
        simulator = AgendaSimulator(catalog=movie_catalog)
        corpus = generate_corpus(
            simulator, make_stub("goodbye"), 1, catalog=movie_catalog, limits=RunLimits(seed=50)
        )
        assert len(corpus) == 1
        assert corpus.dialogues[0].provenance == "simulated"

    def test_partial_failure_recorded(self, movie_catalog):
        simulator = AgendaSimulator(catalog=movie_catalog)
        stub = FailOnSeedStub(fail_seed=102)
        corpus = generate_corpus(
            simulator,
            stub,
            5,
            catalog=movie_catalog,
            limits=RunLimits(seed=100),
        )
        assert len(corpus) == 4
        failures = corpus.extra["failures"]
        assert len(failures) == 1
        assert failures[0]["seed"] == 102
        assert "injected failure" in failures[0]["error"]

    def test_partial_failures_same_at_any_jobs(self, movie_catalog):
        class FailOnOddSeeds:
            crs_id = "stub-flaky"

            def send(self, session, utterance, timeout=None):
                if int(session.rsplit("-", 1)[1]) % 2:
                    raise ConnectorError(f"injected failure in {session}")
                return make_stub("always-recommend").send(session, utterance, timeout)

        def build(jobs):
            return generate_corpus(
                AgendaSimulator(catalog=movie_catalog),
                FailOnOddSeeds(),
                8,
                catalog=movie_catalog,
                limits=RunLimits(seed=40),
                jobs=jobs,
            )

        sequential, parallel = build(1), build(4)
        assert [f["seed"] for f in sequential.extra["failures"]] == [41, 43, 45, 47]
        assert sequential.extra == parallel.extra
        assert serialize_corpus(sequential) == serialize_corpus(parallel)

    def test_http_connector_timeout_ends_conversations(self, movie_catalog):
        def timing_out(url, payload, headers):
            raise GatewayTimeout(f"request to {url} timed out after 1.0s")

        endpoint = CrsEndpoint(crs_id="crs-slow", endpoint="http://crs.local/chat")
        corpus = generate_corpus(
            AgendaSimulator(catalog=movie_catalog),
            HttpCrsConnector(endpoint, transport=timing_out),
            2,
            catalog=movie_catalog,
            limits=RunLimits(seed=60),
        )
        assert [d.extra["termination_reason"] for d in corpus.dialogues] == [
            "connector-timeout",
            "connector-timeout",
        ]
        assert "failures" not in corpus.extra

    @pytest.mark.parametrize(
        "body",
        [
            ["reply"],
            {"reply": None},
            {"reply": ["hi"]},
            {"reply": "hi", "items": [""]},
            {"reply": "hi", "items": [{"a": 1}]},
            {"reply": "hi", "items": [None]},
            {"reply": "hi", "end": "false"},
            {"reply": "hi", "end": [0]},
            {"reply": "hi", "end": 1},
        ],
        ids=[
            "list-body", "null-reply", "list-reply", "empty-item", "object-item", "null-item",
            "string-end", "list-end", "number-end",
        ],
    )
    def test_bad_crs_reply_is_one_recorded_failure(self, movie_catalog, body):
        def transport(url, payload, headers):
            if payload["session_id"] == "abus-crs-x-81":
                return body
            return {"reply": "Goodbye!", "end": True}

        endpoint = CrsEndpoint(crs_id="crs-x", endpoint="http://crs.local/chat")
        corpus = generate_corpus(
            AgendaSimulator(catalog=movie_catalog),
            HttpCrsConnector(endpoint, transport=transport),
            3,
            catalog=movie_catalog,
            limits=RunLimits(seed=80),
        )
        assert [d.extra["seed"] for d in corpus.dialogues] == [80, 82]
        [failure] = corpus.extra["failures"]
        assert failure["seed"] == 81
        assert failure["error"].startswith("conversation abus-crs-x-81: connector failed: CRS crs-x ")

    @pytest.mark.parametrize(
        "flag, ended",
        [({}, False), ({"end": None}, False), ({"end": False}, False), ({"end": True}, True)],
        ids=["absent", "null", "false", "true"],
    )
    def test_crs_end_flag(self, movie_catalog, flag, ended):
        # The first reply carries the flag under test; a second reply ends any
        # conversation the first did not.
        replies = []

        def transport(url, payload, headers):
            replies.append(payload["session_id"])
            if len(replies) == 1:
                return {"reply": "Tell me more.", **flag}
            return {"reply": "Goodbye!", "end": True}

        endpoint = CrsEndpoint(crs_id="crs-x", endpoint="http://crs.local/chat")
        [dialogue] = generate_corpus(
            AgendaSimulator(catalog=movie_catalog),
            HttpCrsConnector(endpoint, transport=transport),
            1,
            catalog=movie_catalog,
            limits=RunLimits(seed=80),
        ).dialogues
        assert dialogue.extra["termination_reason"] == "crs-ended"
        assert len(dialogue) == (2 if ended else 4)

    @pytest.mark.parametrize(
        "body",
        [["text"], {"text": None}, {"response": {"a": 1}}, {"message": {"content": True}}],
        ids=["list-body", "null-text", "object-response", "bool-content"],
    )
    def test_bad_llm_reply_is_one_recorded_failure(self, movie_catalog, body):
        sessions = []

        def gateway():
            sessions.append(len(sessions))
            reply = body if len(sessions) == 2 else {"text": "Hi, a comedy please."}
            options = GatewayOptions(endpoint="http://llm.local/api/chat", model="m")
            return HttpLlmGateway(options, transport=lambda url, payload, headers: reply)

        corpus = generate_corpus(
            LlmSimulator(gateway),
            make_stub("goodbye"),
            3,
            catalog=movie_catalog,
            limits=RunLimits(seed=90),
        )
        assert [d.extra["seed"] for d in corpus.dialogues] == [90, 92]
        [failure] = corpus.extra["failures"]
        assert failure["seed"] == 91
        assert failure["error"].startswith("gateway reply")

    def test_all_failures_raise(self, movie_catalog):
        simulator = AgendaSimulator(catalog=movie_catalog)

        class AlwaysFails:
            crs_id = "stub-dead"

            def send(self, session, utterance, timeout=None):
                raise ConnectorError("down")

        with pytest.raises(SimulationError, match="all 3"):
            generate_corpus(
                simulator, AlwaysFails(), 3, catalog=movie_catalog, limits=RunLimits(seed=0)
            )

    def test_goals_attached_and_vary(self, movie_catalog):
        simulator = AgendaSimulator(catalog=movie_catalog)
        corpus = generate_corpus(
            simulator,
            make_stub("always-recommend", item_id="Midnight Run"),
            8,
            catalog=movie_catalog,
            limits=RunLimits(seed=300),
        )
        assert all(d.goal is not None for d in corpus.dialogues)
        distinct = {d.goal.constraints for d in corpus.dialogues}
        assert len(distinct) > 1

    def test_parallel_equals_sequential(self, movie_catalog):
        def build(jobs):
            simulator = AgendaSimulator(catalog=movie_catalog)
            return generate_corpus(
                simulator,
                make_stub("always-recommend"),
                6,
                catalog=movie_catalog,
                limits=RunLimits(seed=70),
                jobs=jobs,
            )

        assert serialize_corpus(build(1)) == serialize_corpus(build(4))

    def test_full_scale_batch_of_200(self, movie_catalog):
        simulator = AgendaSimulator(catalog=movie_catalog)
        corpus = generate_corpus(
            simulator,
            make_stub("goodbye"),
            200,
            catalog=movie_catalog,
            limits=RunLimits(seed=9000),
        )
        assert len(corpus) == 200
        assert len({d.dialogue_id for d in corpus.dialogues}) == 200

    def test_run_limits_validation(self):
        with pytest.raises(ValueError, match="max_utterances"):
            RunLimits(max_utterances=1)

    def test_scripted_llmus_batch_deterministic(self, movie_catalog):
        script = [
            "Hi, I'm looking for something good.",
            "continue",
            "Great, I'll watch Midnight Run. Thanks!",
            "abort: satisfied",
        ]

        def build():
            simulator = LlmSimulator(
                lambda: MockLlmGateway(replies=list(script)),
                annotator=RuleAnnotator(SCHEMA, catalog=movie_catalog),
            )
            return generate_corpus(
                simulator,
                make_stub("always-recommend", item_id="Midnight Run"),
                4,
                catalog=movie_catalog,
                limits=RunLimits(seed=11),
            )

        first = build()
        second = build()
        assert serialize_corpus(first) == serialize_corpus(second)
        assert all(d.simulator_id == "llm-us" for d in first.dialogues)
