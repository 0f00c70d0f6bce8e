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
