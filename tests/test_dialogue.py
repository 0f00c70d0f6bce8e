import dataclasses
import inspect
import pickle
import re

import pytest

from evalkit.dialogue import (
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
from evalkit.errors import SchemaViolationError
from evalkit.metrics import DialogueFacts, RecommendationRound

from helpers import act, dlg, utt


class TestDialogueAct:
    def test_slots_are_ordered_pairs(self):
        a = act("Recommend", ("TITLE", "Heat"), ("TITLE", "Ronin"))
        assert a.slot_values("TITLE") == ("Heat", "Ronin")

    def test_duplicate_slot_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate slot pair"):
            act("Recommend", ("TITLE", "Heat"), ("TITLE", "Heat"))

    def test_empty_slot_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            act("Disclose", ("", "comedy"))

    def test_empty_intent_rejected(self):
        with pytest.raises(ValueError):
            DialogueAct("")

    def test_str_form(self):
        assert str(act("Accept", ("TITLE", "Heat"))) == "Accept(TITLE='Heat')"
        assert str(act("Accept")) == "Accept()"


class TestUtterance:
    def test_speaker_coercion(self):
        u = utt(0, "USER")
        assert u.speaker is Speaker.USER

    def test_empty_item_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            Utterance(index=0, speaker=Speaker.USER, text="x", items=("",))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            Utterance(index=-1, speaker=Speaker.USER, text="x")


class TestDialogue:
    def test_indexes_must_be_consecutive(self):
        with pytest.raises(ValueError, match="consecutive"):
            dlg("d1", "sysA", [utt(0, "USER"), utt(2, "SYSTEM")])

    def test_no_utterances_rejected(self):
        with pytest.raises(ValueError, match="no utterances"):
            dlg("d1", "sysA", [])

    def test_consecutive_same_speaker_allowed(self):
        d = dlg("d1", "sysA", [utt(0, "USER"), utt(1, "USER"), utt(2, "SYSTEM")])
        assert len(d) == 3

    def test_simulated_requires_goal_and_simulator_id(self):
        goal = UserGoal(constraints=(("genre", "comedy"),))
        with pytest.raises(ValueError, match="simulator_id and goal"):
            dlg("d1", "sysA", [utt(0, "USER")], provenance="simulated")
        d = dlg(
            "d1",
            "sysA",
            [utt(0, "USER")],
            provenance="simulated",
            simulator_id="abus",
            goal=goal,
        )
        assert d.simulator_id == "abus"

    def test_bad_satisfaction_label_rejected(self):
        with pytest.raises(ValueError, match="satisfaction"):
            dlg("d1", "sysA", [utt(0, "USER")], satisfaction="meh")

    def test_turn_count_counts_both_speakers(self):
        d = dlg("d1", "sysA", [utt(0, "USER"), utt(1, "SYSTEM"), utt(2, "USER")])
        assert len(d) == 3


class TestUserGoal:
    def test_needs_a_constraint(self):
        with pytest.raises(ValueError, match="at least one constraint"):
            UserGoal(constraints=())

    def test_duplicate_constraints_rejected(self):
        with pytest.raises(ValueError, match="duplicate constraint"):
            UserGoal(constraints=(("year", "2016"), ("year", "2016")))

    def test_requests_may_be_empty(self):
        goal = UserGoal(constraints=(("year", "2016"),))
        assert goal.requests == ()


class TestCorpus:
    def test_duplicate_dialogue_ids_rejected(self):
        d = dlg("d1", "sysA", [utt(0, "USER")])
        with pytest.raises(ValueError, match="duplicate dialogue_id"):
            Corpus(dialogues=(d, d))

    def test_by_system_preserves_order(self):
        d1 = dlg("d1", "sysA", [utt(0, "USER")])
        d2 = dlg("d2", "sysB", [utt(0, "USER")])
        d3 = dlg("d3", "sysA", [utt(0, "USER")])
        groups = Corpus(dialogues=(d1, d2, d3)).by_system()
        assert [d.dialogue_id for d in groups["sysA"]] == ["d1", "d3"]


class TestIntentSchema:
    def test_default_schema_contents(self):
        schema = default_schema()
        assert {"Accept", "Reject"} <= schema.user_intents
        assert "Recommend" in schema.system_intents

    def test_simulation_schema_adds_bye(self):
        assert "Bye" in simulation_schema().user_intents

    def test_missing_required_labels_rejected(self):
        with pytest.raises(SchemaViolationError):
            IntentSchema(user_intents={"Accept"}, system_intents={"Recommend"})
        with pytest.raises(SchemaViolationError):
            IntentSchema(user_intents={"Accept", "Reject"}, system_intents={"Respond"})

    def test_identical_role_sets_rejected(self):
        labels = {"Accept", "Reject", "Recommend"}
        with pytest.raises(SchemaViolationError, match="identical"):
            IntentSchema(user_intents=labels, system_intents=labels)

    def test_shared_label_is_role_scoped(self):
        schema = default_schema()
        schema.validate_act(act("Other"), Speaker.USER)
        schema.validate_act(act("Other"), Speaker.SYSTEM)
        with pytest.raises(SchemaViolationError, match="Recommend"):
            schema.validate_act(act("Recommend"), Speaker.USER)

    def test_validate_act_names_the_intent(self):
        with pytest.raises(SchemaViolationError, match="FlyToMoon"):
            default_schema().validate_act(act("FlyToMoon"), Speaker.USER)

    def test_record_round_trip(self):
        schema = default_schema()
        record = {
            "user_intents": sorted(schema.user_intents),
            "system_intents": sorted(schema.system_intents),
        }
        assert IntentSchema.from_record(record) == schema


USER = Speaker.USER
GOAL = UserGoal((("genre", "comedy"),), ("year",))
UTTERANCES = (utt(0, "USER", ["Disclose"]), utt(1, "SYSTEM", ["Recommend"], ["Up"]))
ROUND = RecommendationRound(1, 2, "accepted")

# One object per class with a hand-written ``__init__``, each field set,
# and the same class's required arguments only.
BUILT = [
    (DialogueAct("Recommend", (("TITLE", "Up"),), {"why": "popular"}), ("Other",)),
    (Utterance(1, USER, "hi", (act("Other"),), ("Up",), {"mood": "sunny"}), (0, USER, "x")),
    (UserGoal((("genre", "comedy"),), ("year",), {"seed": 3}), ((("genre", "comedy"),),)),
    (
        Dialogue("d1", "sysA", UTTERANCES, "satisfied", GOAL, "simulated", "abus", {"k": 1}),
        ("d1", "sysA", UTTERANCES),
    ),
    (ROUND, (1, 2, "rejected")),
    (DialogueFacts(dlg("d1", "sysA", UTTERANCES), (ROUND,), 1, ((1, ("Up",)),)), (None, (), 0, ())),
]
CLASSES = [type(built) for built, _ in BUILT]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_signature_lists_the_fields_in_order_with_their_defaults(cls):
    parameters = list(inspect.signature(cls).parameters.values())
    fields = dataclasses.fields(cls)
    assert [p.name for p in parameters] == [f.name for f in fields]
    for parameter, f in zip(parameters, fields):
        if f.default_factory is not dataclasses.MISSING:
            # None stands for a new value from the field's default factory.
            assert parameter.default is None
        elif f.default is dataclasses.MISSING:
            assert parameter.default is inspect.Parameter.empty
        else:
            assert parameter.default == f.default


@pytest.mark.parametrize(
    "built, required", [(b, r) for b, r in BUILT if hasattr(b, "extra")], ids=lambda v: type(v).__name__
)
def test_default_extras_are_new_dicts(built, required):
    first, second = type(built)(*required), type(built)(*required)
    assert first.extra == {} and type(first.extra) is dict
    assert first.extra is not second.extra


@pytest.mark.parametrize("built", [b for b, _ in BUILT], ids=lambda v: type(v).__name__)
def test_fields_cannot_be_assigned_or_deleted(built):
    for f in dataclasses.fields(built):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(built, f.name, getattr(built, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(built, f.name)


@pytest.mark.parametrize("built", [b for b, _ in BUILT], ids=lambda v: type(v).__name__)
def test_replace_and_pickle_give_equal_objects(built):
    # Worker processes send parsed objects and their tallies by pickle.
    assert dataclasses.replace(built) == built
    assert pickle.loads(pickle.dumps(built)) == built
    assert repr(pickle.loads(pickle.dumps(built))) == repr(built)


def test_replace_runs_the_checks_and_normalizes():
    with pytest.raises(ValueError, match="act intent must be non-empty"):
        dataclasses.replace(act("Other"), intent="")
    moved = dataclasses.replace(UTTERANCES[1], speaker="USER", items=["Up", "Heat"])
    assert moved.speaker is Speaker.USER and moved.items == ("Up", "Heat")
    assert hash(dataclasses.replace(ROUND)) == hash(ROUND)


def simulated(**fields):
    return Dialogue("d", "s", UTTERANCES, **fields)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DialogueAct(""), "act intent must be non-empty"),
        (lambda: act("Disclose", ("", "x")), "slot name must be non-empty in Disclose act"),
        (
            lambda: act("Recommend", ("TITLE", "Up"), ("TITLE", "Up")),
            "duplicate slot pair (TITLE=Up) in Recommend act",
        ),
        (lambda: Utterance(-1, USER, "x"), "utterance index must be >= 0"),
        (lambda: Utterance(0, "ROBOT", "x"), "'ROBOT' is not a valid Speaker"),
        (lambda: Utterance(2, USER, "x", items=("",)), "utterance 2: item identifiers must be non-empty"),
        (lambda: UserGoal(()), "a goal needs at least one constraint"),
        (lambda: UserGoal((("", "x"),)), "constraint slot names must be non-empty"),
        (lambda: UserGoal((("a", "b"), ("a", "b"))), "duplicate constraint (a=b)"),
        (lambda: UserGoal((("a", "b"),), ("",)), "request attribute names must be non-empty"),
        (lambda: Dialogue("", "s", UTTERANCES), "dialogue_id must be non-empty"),
        (lambda: Dialogue("d", "", UTTERANCES), "crs_id must be non-empty"),
        (lambda: Dialogue("d", "s", ()), "dialogue d: no utterances"),
        (
            lambda: Dialogue("d", "s", UTTERANCES[1:]),
            "dialogue d: utterance indexes must be consecutive from 0 (found 1 at 0)",
        ),
        (
            lambda: simulated(satisfaction="meh"),
            "dialogue d: satisfaction must be one of ('satisfied', 'frustrated'), got 'meh'",
        ),
        (
            lambda: simulated(provenance="found"),
            "dialogue d: provenance must be one of ('human', 'simulated')",
        ),
        (
            lambda: simulated(provenance="simulated", goal=GOAL),
            "dialogue d: simulated dialogues need simulator_id and goal",
        ),
        (lambda: RecommendationRound(0, 1, "maybe"), "unknown round outcome 'maybe'"),
        (
            lambda: RecommendationRound(1, 1, "accepted"),
            "round must satisfy start_index < end_index",
        ),
    ],
)
def test_constructor_errors(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Utterance(0, USER, "x", items=(1,)), "item identifiers must be strings, not int"),
        (lambda: act("Disclose", ("genre", None)), "slot names and values must be strings, not NoneType"),
        (lambda: UserGoal([[7, "x"]]), "slot names and values must be strings, not int"),
        (lambda: UserGoal((("a", "b"),), [True]), "request attribute names must be strings, not bool"),
    ],
)
def test_non_strings_are_rejected_not_coerced(build, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        build()


def test_iterables_become_tuples():
    built = Utterance(0, "USER", "x", [act("Other")], ["Up"])
    assert (built.acts, built.items) == ((act("Other"),), ("Up",))
    assert act("Other", ["TITLE", "Up"]).slots == (("TITLE", "Up"),)
    assert UserGoal([["genre", "comedy"]], ["year"]) == GOAL
    assert Dialogue("d", "s", list(UTTERANCES)).utterances == UTTERANCES


class Text(str):
    """A str subclass: the constructors accept it and keep it as it is."""


def recommend(*slots):
    return DialogueAct("Recommend", slots)


# Each shape the constructors' fast paths see, and the shapes next to them
# that must fall through to the general checks with the same outcome.
@pytest.mark.parametrize(
    "build, error, outcome",
    [
        (lambda: recommend(("", "x")), ValueError, "slot name must be non-empty in Recommend act"),
        (lambda: recommend(("genre", 5)), TypeError, "slot names and values must be strings, not int"),
        (lambda: DialogueAct("Recommend", [("TITLE", "Up")]).slots, None, (("TITLE", "Up"),)),
        (lambda: recommend(["TITLE", "Up"]).slots, None, (("TITLE", "Up"),)),
        (
            lambda: recommend(("TITLE", "x"), ("TITLE", "x")),
            ValueError,
            "duplicate slot pair (TITLE=x) in Recommend act",
        ),
        (
            lambda: recommend(("TITLE", "x"), ("TITLE", "y"), ("TITLE", "x")),
            ValueError,
            "duplicate slot pair (TITLE=x) in Recommend act",
        ),
        (
            lambda: recommend(("TITLE", "x"), ("", "y")),
            ValueError,
            "slot name must be non-empty in Recommend act",
        ),
        (lambda: recommend(("TITLE",)), ValueError, "not enough values to unpack (expected 2, got 1)"),
        (lambda: type(recommend((Text("TITLE"), Text("x"))).slots[0][1]), None, Text),
        (
            lambda: Utterance(0, USER, "t", items=("",)),
            ValueError,
            "utterance 0: item identifiers must be non-empty",
        ),
        (lambda: Utterance(0, USER, "t", items=(5,)), TypeError, "item identifiers must be strings, not int"),
        (lambda: Utterance(0, USER, "t", items=["x"]).items, None, ("x",)),
        (
            lambda: Utterance(3, USER, "t", items=("a", "")),
            ValueError,
            "utterance 3: item identifiers must be non-empty",
        ),
        (lambda: Utterance(3, USER, "t", items=("", 5)), TypeError, "item identifiers must be strings, not int"),
        (lambda: type(Utterance(0, USER, "t", items=(Text("x"),)).items[0]), None, Text),
        (lambda: Utterance(0, "USER", "t").speaker, None, USER),
    ],
)
def test_constructor_fast_paths_match_the_general_checks(build, error, outcome):
    if error is None:
        assert build() == outcome
    else:
        with pytest.raises(error, match=f"^{re.escape(outcome)}$"):
            build()
