import io
import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalkit.analysis import load_reference_scores
from evalkit.corpus_io import (
    CorpusFiles,
    _parse_goal,
    _parse_utterance,
    dialogue_record,
    iter_records,
    parse_corpus,
    read_corpus,
    serialize_corpus,
    write_corpus,
    write_records,
)
from evalkit.dialogue import (
    PROVENANCE_SIMULATED,
    PROVENANCES,
    SATISFACTION_LABELS,
    Corpus,
    Dialogue,
    DialogueAct,
    Speaker,
    UserGoal,
    Utterance,
    default_schema,
)
from evalkit.errors import CorpusFormatError

from helpers import act, corpus, dlg, random_corpus, utt
from oracle import oracle_check_stream, oracle_records, reference_goal, reference_utterance

HEADER = '{"schema_version":"1"}'

FIXTURE_RECORD = {
    "dialogue_id": "d1",
    "crs_id": "sysA",
    "provenance": "human",
    "satisfaction": "satisfied",
    "utterances": [
        {
            "index": 0,
            "speaker": "USER",
            "text": "I want a comedy",
            "acts": [{"intent": "Disclose", "slots": [{"slot": "genre", "value": "comedy"}]}],
            "items": [],
        },
        {
            "index": 1,
            "speaker": "SYSTEM",
            "text": "Have you seen Paper Moon?",
            "acts": [{"intent": "Recommend", "slots": [{"slot": "TITLE", "value": "Paper Moon"}]}],
            "items": ["Paper Moon"],
        },
    ],
}


def stream(*records) -> bytes:
    return ("\n".join([HEADER] + [json.dumps(r) for r in records]) + "\n").encode()


def with_second_utterance(**fields) -> dict:
    """A copy of FIXTURE_RECORD whose SYSTEM utterance has ``fields`` set."""
    record = json.loads(json.dumps(FIXTURE_RECORD))
    record["utterances"][1].update(fields)
    return record


TITLE_UP = {"slot": "TITLE", "value": "Up"}


class TestParseCorpus:
    def test_empty_stream_yields_empty_corpus(self):
        parsed = parse_corpus(b"")
        assert len(parsed) == 0
        assert parsed.schema_version == "1"

    def test_single_record_fields(self):
        parsed = parse_corpus(stream(FIXTURE_RECORD))
        assert len(parsed) == 1
        dialogue = parsed.dialogues[0]
        assert dialogue.dialogue_id == "d1"
        assert dialogue.crs_id == "sysA"
        assert dialogue.satisfaction == "satisfied"
        assert len(dialogue.utterances) == 2
        first, second = dialogue.utterances
        assert first.text == "I want a comedy"
        assert first.acts[0].intent == "Disclose"
        assert first.acts[0].slots == (("genre", "comedy"),)
        assert second.acts[0].slot_values("TITLE") == ("Paper Moon",)
        assert second.items == ("Paper Moon",)

    def test_out_of_schema_intent_names_intent_and_line(self):
        record = dict(FIXTURE_RECORD)
        record["utterances"] = [
            {
                "index": 0,
                "speaker": "USER",
                "text": "zoom",
                "acts": [{"intent": "FlyToMoon", "slots": []}],
                "items": [],
            }
        ]
        with pytest.raises(CorpusFormatError) as excinfo:
            parse_corpus(stream(record))
        assert "FlyToMoon" in str(excinfo.value)
        assert excinfo.value.line_number == 2

    @pytest.mark.parametrize(
        "fields, reason",
        [
            ({"items": ["Up", ""]}, "utterance 1: item identifiers must be non-empty"),
            (
                {"acts": [{"intent": "Recommend", "slots": [TITLE_UP, {"slot": "", "value": "x"}]}]},
                "slot name must be non-empty in Recommend act",
            ),
            (
                {"acts": [{"intent": "Recommend", "slots": [TITLE_UP, TITLE_UP]}]},
                "duplicate slot pair (TITLE=Up) in Recommend act",
            ),
            ({"index": -1}, "utterance index must be >= 0"),
            ({"speaker": "ROBOT"}, "'ROBOT' is not a valid Speaker"),
            (
                {"acts": [{"intent": "Accept"}]},
                "intent 'Accept' is not a SYSTEM intent in the configured schema",
            ),
            ({"text": 5}, "'text' must be a string, not a number"),
            ({"text": None}, "'text' must be a string, not null"),
            ({"items": "Up"}, "'items' must be an array, not a string"),
            ({"items": {"Up": 1}}, "'items' must be an array, not an object"),
            ({"items": ["Up", True]}, "an entry of 'items' must be a string, not a boolean"),
            ({"items": [{"id": "Up"}]}, "an entry of 'items' must be a string, not an object"),
            (
                {"acts": [{"intent": "Recommend", "slots": [{"slot": "TITLE", "value": None}]}]},
                "'value' must be a string, not null",
            ),
            (
                {"acts": [{"intent": "Recommend", "slots": [{"slot": ["TITLE"], "value": "Up"}]}]},
                "'slot' must be a string, not an array",
            ),
            ({"acts": ["Recommend"]}, "an entry of 'acts' must be an object, not a string"),
            ({"acts": {"intent": "Recommend"}}, "'acts' must be an array, not an object"),
            ({"index": False}, "'index' must be an integer, not a boolean"),
            ({"index": 1.0}, "'index' must be an integer, not a number"),
        ],
    )
    def test_invalid_utterance_names_reason_and_line(self, fields, reason):
        first = dict(FIXTURE_RECORD, dialogue_id="d0")
        with pytest.raises(CorpusFormatError) as excinfo:
            parse_corpus(stream(first, with_second_utterance(**fields)))
        assert excinfo.value.reason == reason
        assert excinfo.value.line_number == 3

    def test_non_string_items_and_slots_become_strings(self):
        record = with_second_utterance(
            acts=[{"intent": "Recommend", "slots": [{"slot": 7, "value": 1}]}], items=[1]
        )
        utterance = parse_corpus(stream(record)).dialogues[0].utterances[1]
        assert utterance.items == ("1",)
        assert utterance.acts[0].slots == (("7", "1"),)

    def test_numbers_in_a_goal_become_strings(self):
        goal = {"constraints": [{"slot": "year", "value": 2016}], "requests": [7]}
        dialogue = parse_corpus(stream(dict(FIXTURE_RECORD, goal=goal))).dialogues[0]
        assert dialogue.goal == UserGoal((("year", "2016"),), ("7",))

    @pytest.mark.parametrize(
        "goal, reason",
        [
            ("comedy", "'goal' must be an object, not a string"),
            ({"constraints": [{"slot": "genre", "value": None}]}, "'value' must be a string, not null"),
            (
                {"constraints": [{"slot": "genre", "value": "comedy"}], "requests": [None]},
                "an entry of 'requests' must be a string, not null",
            ),
            (
                {"constraints": [{"slot": "genre", "value": "comedy"}], "requests": "year"},
                "'requests' must be an array, not a string",
            ),
        ],
    )
    def test_invalid_goal_names_the_field_and_line(self, goal, reason):
        with pytest.raises(CorpusFormatError) as excinfo:
            parse_corpus(stream(FIXTURE_RECORD, dict(FIXTURE_RECORD, dialogue_id="d2", goal=goal)))
        assert excinfo.value.reason == reason
        assert excinfo.value.line_number == 3

    @pytest.mark.parametrize(
        "fields, reason",
        [
            ({"utterances": "hi"}, "'utterances' must be an array, not a string"),
            ({"utterances": None}, "'utterances' must be an array, not null"),
            ({"utterances": {"index": 0}}, "'utterances' must be an array, not an object"),
            ({"utterances": ["hi"]}, "an entry of 'utterances' must be an object, not a string"),
            ({"utterances": [None]}, "an entry of 'utterances' must be an object, not null"),
            ({"utterances": [[0]]}, "an entry of 'utterances' must be an object, not an array"),
            ({"goal": {"constraints": "genre"}}, "'constraints' must be an array, not a string"),
            ({"goal": {"constraints": None}}, "'constraints' must be an array, not null"),
            ({"goal": {"constraints": [7]}}, "an entry of 'constraints' must be an object, not a number"),
        ],
    )
    def test_structural_dialogue_faults_name_the_field_and_line(self, fields, reason):
        with pytest.raises(CorpusFormatError) as excinfo:
            parse_corpus(stream(FIXTURE_RECORD, {**FIXTURE_RECORD, "dialogue_id": "d2", **fields}))
        assert excinfo.value.reason == reason
        assert excinfo.value.line_number == 3

    @pytest.mark.parametrize(
        "act_record, reason",
        [
            ({"intent": "Recommend", "slots": "TITLE"}, "'slots' must be an array, not a string"),
            ({"intent": "Recommend", "slots": ""}, "'slots' must be an array, not a string"),
            ({"intent": "Recommend", "slots": None}, "'slots' must be an array, not null"),
            ({"intent": "Recommend", "slots": {}}, "'slots' must be an array, not an object"),
            ({"intent": "Recommend", "slots": TITLE_UP}, "'slots' must be an array, not an object"),
            ({"intent": "Recommend", "slots": 3}, "'slots' must be an array, not a number"),
            ({"intent": "Recommend", "slots": ["Up"]}, "an entry of 'slots' must be an object, not a string"),
            ({"intent": "Recommend", "slots": [None]}, "an entry of 'slots' must be an object, not null"),
            (
                {"intent": "Recommend", "slots": [TITLE_UP, ["TITLE", "Up"]]},
                "an entry of 'slots' must be an object, not an array",
            ),
            ({"intent": ["Recommend"]}, "'intent' must be a string, not an array"),
            ({"intent": []}, "'intent' must be a string, not an array"),
            ({"intent": {"name": "Recommend"}}, "'intent' must be a string, not an object"),
        ],
    )
    def test_structural_act_faults_name_the_field_and_line(self, act_record, reason):
        first = dict(FIXTURE_RECORD, dialogue_id="d0")
        with pytest.raises(CorpusFormatError) as excinfo:
            parse_corpus(stream(first, with_second_utterance(acts=[act_record])))
        assert excinfo.value.reason == reason
        assert excinfo.value.line_number == 3

    def test_numeric_ids_become_strings(self):
        record = dict(FIXTURE_RECORD, dialogue_id=7, crs_id=2.5)
        dialogue = parse_corpus(stream(record)).dialogues[0]
        assert (dialogue.dialogue_id, dialogue.crs_id) == ("7", "2.5")

    @pytest.mark.parametrize(
        "fields, reason",
        [
            ({"crs_id": ["a"]}, "'crs_id' must be a string, not an array"),
            ({"crs_id": True}, "'crs_id' must be a string, not a boolean"),
            ({"dialogue_id": None}, "'dialogue_id' must be a string, not null"),
            ({"dialogue_id": {"n": 1}}, "'dialogue_id' must be a string, not an object"),
            ({"simulator_id": ["abus"]}, "'simulator_id' must be a string, not an array"),
        ],
    )
    def test_ids_that_are_not_strings_or_numbers_name_the_field_and_line(self, fields, reason):
        with pytest.raises(CorpusFormatError) as excinfo:
            parse_corpus(stream(FIXTURE_RECORD, {**FIXTURE_RECORD, "dialogue_id": "d2", **fields}))
        assert excinfo.value.reason == reason
        assert excinfo.value.line_number == 3

    def test_records_without_unknown_keys_share_a_read_only_empty_extra(self):
        dialogue = parse_corpus(stream(FIXTURE_RECORD)).dialogues[0]
        first, second = dialogue.utterances
        extras = [dialogue.extra, first.extra, second.extra, first.acts[0].extra]
        assert all(extra == {} for extra in extras)
        assert all(extra is extras[0] for extra in extras)
        with pytest.raises(TypeError):
            first.extra["mood"] = "sunny"

    def test_unknown_keys_give_a_plain_dict(self):
        record = with_second_utterance(
            acts=[{"intent": "Recommend", "slots": [TITLE_UP], "why": "popular"}], mood="sunny"
        )
        utterance = parse_corpus(stream(record)).dialogues[0].utterances[1]
        assert type(utterance.extra) is dict and utterance.extra == {"mood": "sunny"}
        assert type(utterance.acts[0].extra) is dict and utterance.acts[0].extra == {"why": "popular"}

    def test_duplicate_dialogue_id_reports_line(self):
        with pytest.raises(CorpusFormatError) as excinfo:
            parse_corpus(stream(FIXTURE_RECORD, FIXTURE_RECORD))
        assert excinfo.value.line_number == 3
        assert "duplicate" in str(excinfo.value)

    def test_invalid_json_reports_line(self):
        raw = (HEADER + "\n{not json}\n").encode()
        with pytest.raises(CorpusFormatError) as excinfo:
            parse_corpus(raw)
        assert excinfo.value.line_number == 2

    def test_missing_header_rejected(self):
        raw = (json.dumps(FIXTURE_RECORD) + "\n").encode()
        with pytest.raises(CorpusFormatError, match="header"):
            parse_corpus(raw)

    def test_unknown_fields_preserved(self):
        record = dict(FIXTURE_RECORD, mood="sunny")
        parsed = parse_corpus(stream(record))
        assert parsed.dialogues[0].extra == {"mood": "sunny"}
        again = parse_corpus(serialize_corpus(parsed))
        assert again == parsed


    def test_invalid_utf8_reports_line(self):
        raw = stream(FIXTURE_RECORD) + b'{"dialogue_id":"d\xff"}\n'
        with pytest.raises(CorpusFormatError, match="invalid UTF-8") as excinfo:
            parse_corpus(raw)
        assert excinfo.value.line_number == 3

    def test_crlf_line_endings_parse(self):
        raw = stream(FIXTURE_RECORD).replace(b"\n", b"\r\n")
        assert parse_corpus(raw) == parse_corpus(stream(FIXTURE_RECORD))

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
    def test_unicode_line_separators_stay_inside_records(self, separator):
        d = dlg("d1", "sysA", [utt(0, "USER", [act("Other")], text=f"a{separator}b")])
        c = corpus(d)
        data = serialize_corpus(c)
        assert separator.encode() in data
        assert parse_corpus(data) == c
        assert parse_corpus(data.decode()) == c


class TestReadCorpus:
    def test_yields_each_dialogue_before_reading_further_lines(self):
        handle = io.BytesIO(stream(FIXTURE_RECORD) + b"{not json}\n")
        _, dialogues = read_corpus(handle)
        assert next(dialogues).dialogue_id == "d1"
        with pytest.raises(CorpusFormatError) as excinfo:
            next(dialogues)
        assert excinfo.value.line_number == 3

    def test_header_is_read_before_any_dialogue(self):
        handle = io.BytesIO(b'{"schema_version":"2","seed":7}\n{not json}\n')
        header, dialogues = read_corpus(handle)
        assert header == {"schema_version": "2", "seed": 7}
        with pytest.raises(CorpusFormatError) as excinfo:
            next(dialogues)
        assert excinfo.value.line_number == 2

    @pytest.mark.parametrize("raw", [b"", b"\n  \n"], ids=["empty", "blank-lines"])
    def test_a_stream_without_records_has_an_empty_header(self, raw):
        header, dialogues = read_corpus(raw)
        assert (header, list(dialogues)) == ({}, [])

    def test_a_missing_header_is_reported_when_the_stream_is_opened(self):
        with pytest.raises(CorpusFormatError, match="schema_version header") as excinfo:
            read_corpus(b"\n" + json.dumps(FIXTURE_RECORD).encode() + b"\n")
        assert excinfo.value.line_number == 2

    @pytest.mark.parametrize("version, text", [(2, "2"), (1.5, "1.5"), ("2", "2")])
    def test_a_number_version_reads_as_its_string(self, version, text):
        raw = json.dumps({"schema_version": version, "seed": 7}).encode() + b"\n"
        header, _ = read_corpus(raw)
        assert header == {"schema_version": text, "seed": 7}
        assert parse_corpus(raw).schema_version == text

    @pytest.mark.parametrize(
        "version, kind", [(None, "null"), (True, "a boolean"), ({}, "an object"), ([], "an array")]
    )
    def test_a_version_that_is_not_a_string_or_number_is_a_format_error(self, version, kind):
        with pytest.raises(CorpusFormatError) as excinfo:
            read_corpus(json.dumps({"schema_version": version}).encode() + b"\n")
        assert str(excinfo.value) == f"line 1: 'schema_version' must be a string, not {kind}"


class TestCorpusFiles:
    def test_ids_seen_in_an_earlier_file_are_duplicates(self, tmp_path):
        first, second = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        first.write_bytes(stream(FIXTURE_RECORD))
        second.write_bytes(b'{"schema_version":"2"}\n' + json.dumps(FIXTURE_RECORD).encode())
        files = CorpusFiles([str(first), str(second)])
        dialogues = iter(files)
        assert next(dialogues).dialogue_id == "d1"
        with pytest.raises(CorpusFormatError, match="duplicate dialogue_id 'd1' in ") as excinfo:
            next(dialogues)
        assert excinfo.value.reason.endswith(str(second))
        assert excinfo.value.line_number == 2


class TestIterRecords:
    def test_yields_line_numbers_and_skips_blank_lines(self):
        raw = b'{"a":1}\n\n  \n\t\r\n{"b":2}\n'
        assert list(iter_records(raw)) == [(1, {"a": 1}), (5, {"b": 2})]

    @pytest.mark.parametrize("space", ["\x0c", "\x0b", "\x85", "\u2028", " \x1c\t"])
    def test_a_line_of_whitespace_json_does_not_allow_is_invalid_json(self, space):
        with pytest.raises(CorpusFormatError) as excinfo:
            list(iter_records(f'{{"a":1}}\n{space}\n{{"b":2}}\n'))
        assert (excinfo.value.line_number, excinfo.value.reason) == (2, "invalid JSON (Expecting value)")

    @pytest.mark.parametrize(
        "line, reason",
        [(b"\xff\n", "invalid UTF-8"), (b"{oops}\n", "invalid JSON"), (b"[1]\n", "JSON object")],
    )
    def test_errors_name_the_line(self, line, reason):
        with pytest.raises(CorpusFormatError, match=reason) as excinfo:
            list(iter_records(b'{"a":1}\n' + line))
        assert excinfo.value.line_number == 2


class TestWriteRecords:
    def test_writes_header_then_records_and_counts_them(self, tmp_path):
        path = tmp_path / "out.ndjson"
        assert write_records(path, {"schema_version": "1"}, iter([{"x": "é"}, {"y": 2}])) == 2
        assert path.read_bytes() == '{"schema_version":"1"}\n{"x":"é"}\n{"y":2}\n'.encode()
        assert list(tmp_path.iterdir()) == [path]
        umask = os.umask(0)
        os.umask(umask)
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_failing_records_leave_the_old_file_and_no_temp_file(self, tmp_path):
        path = tmp_path / "out.ndjson"
        path.write_bytes(b"old\n")

        def records():
            yield {"x": 1}
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError, match="source failed"):
            write_records(path, {"schema_version": "1"}, records())
        assert path.read_bytes() == b"old\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_leaves_a_file_named_like_a_temp_file_alone(self, tmp_path):
        path = tmp_path / "out.ndjson"
        mine = tmp_path / "out.ndjson.tmp"
        mine.write_bytes(b"mine\n")
        write_records(path, {"schema_version": "1"}, [])
        assert mine.read_bytes() == b"mine\n"
        assert sorted(tmp_path.iterdir()) == [path, mine]

    def test_writes_through_a_symlinked_path(self, tmp_path):
        target = tmp_path / "target.ndjson"
        target.write_bytes(b"old\n")
        link = tmp_path / "link.ndjson"
        link.symlink_to(target)
        write_records(link, {"schema_version": "1"}, [])
        assert link.is_symlink()
        assert target.read_bytes() == b'{"schema_version":"1"}\n'

    def test_write_corpus_writes_serialize_corpus_bytes(self, tmp_path):
        c = random_corpus(random.Random(11))
        path = tmp_path / "c.ndjson"
        write_corpus(c, path)
        assert path.read_bytes() == serialize_corpus(c)


# Every character UTF-8 can encode (all but lone surrogates), with the
# characters str.splitlines() splits on made common.
line_breaks = st.sampled_from("\u2028\u2029\u0085\r\n\x1c")
texts = st.lists(st.text(st.characters(codec="utf-8"), max_size=4) | line_breaks, max_size=3).map(
    "".join
)
names = texts.filter(bool)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**63), 2**63)
    | st.floats(allow_nan=False, allow_infinity=False)
    | texts,
    lambda children: st.lists(children, max_size=2) | st.dictionaries(texts, children, max_size=2),
    max_leaves=3,
)


# What a line holds before, in and after its value. Whitespace JSON allows
# (space, tab, LF, CR), other characters str.isspace() takes for
# whitespace, a BOM, and text that makes a second value or extra data.
line_edges = st.sampled_from(
    ["", " ", "\t", "\r", " \r", "\x0c", "\x0b", "\x85", "\u2028", "\u2029", "\x1c", "\ufeff"]
)
line_bodies = st.one_of(
    json_values.map(lambda value: json.dumps(value, ensure_ascii=False)),
    st.dictionaries(texts, json_values, max_size=2).map(
        lambda record: json.dumps(record, ensure_ascii=False, separators=(",", ":"))
    ),
    st.sampled_from([
        "", "NaN", "Infinity", "-Infinity", '{"x":NaN,"y":[Infinity,-Infinity]}', "{}{}", "{} x",
        "{oops}", '{"a":1', '{"t":"a\u2028b\x85c"}', '{"t":"\\u2028"}', "[{}]", "null",
    ]),
)
ndjson_lines = st.tuples(line_edges, line_bodies, line_edges, st.sampled_from(["\n", "\r\n", ""])).map(
    "".join
)


class TestIterRecordsAgainstJsonLoads:
    @settings(max_examples=300)
    @given(st.lists(ndjson_lines, max_size=5))
    def test_each_line_reads_as_json_loads_reads_it(self, lines):
        raw = "".join(lines).encode("utf-8")
        expected, fault = oracle_records(raw)
        read = []
        try:
            read.extend(iter_records(raw))
        except CorpusFormatError as exc:
            assert (exc.line_number, exc.reason) == fault
        else:
            assert fault is None
        # repr tells NaN, -0.0 and key order apart, as == does not.
        assert repr(read) == repr(expected)

    @pytest.mark.parametrize("tail", ["\x0c", "\x0b", "\x85", "\u2028"])
    def test_whitespace_json_does_not_allow_is_extra_data(self, tail):
        with pytest.raises(CorpusFormatError) as excinfo:
            list(iter_records(f'{{"a":1}}\n{{"b":2}}{tail}\n'))
        assert (excinfo.value.line_number, excinfo.value.reason) == (2, "invalid JSON (Extra data)")


def extras(known):
    """Unknown keys for a record whose known keys are ``known``."""
    return st.dictionaries(texts.filter(lambda k: k not in known), json_values, max_size=1)


slot_pairs = st.lists(st.tuples(names, texts), max_size=2, unique=True).map(tuple)
goals = st.builds(
    UserGoal,
    constraints=st.lists(st.tuples(names, texts), min_size=1, max_size=2, unique=True).map(tuple),
    requests=st.lists(names, max_size=2).map(tuple),
    extra=extras({"constraints", "requests"}),
)


@st.composite
def utterances(draw, index):
    speaker = draw(st.sampled_from(Speaker))
    intents = sorted(default_schema().intents_for(speaker))
    acts = st.builds(
        DialogueAct, st.sampled_from(intents), slot_pairs, extras({"intent", "slots"})
    )
    return Utterance(
        index=index,
        speaker=speaker,
        text=draw(texts),
        acts=tuple(draw(st.lists(acts, max_size=2))),
        items=tuple(draw(st.lists(names, max_size=2))),
        extra=draw(extras({"index", "speaker", "text", "acts", "items"})),
    )


DIALOGUE_KEYS = {
    "dialogue_id", "crs_id", "provenance", "satisfaction", "simulator_id", "goal", "utterances"
}


@st.composite
def dialogues(draw):
    provenance = draw(st.sampled_from(PROVENANCES))
    simulated = provenance == PROVENANCE_SIMULATED
    return Dialogue(
        dialogue_id=draw(names),
        crs_id=draw(names),
        utterances=tuple(draw(utterances(i)) for i in range(draw(st.integers(1, 3)))),
        satisfaction=draw(st.sampled_from((None, *SATISFACTION_LABELS))),
        goal=draw(goals if simulated else st.none() | goals),
        provenance=provenance,
        simulator_id=draw(names if simulated else st.none() | names),
        extra=draw(extras(DIALOGUE_KEYS)),
    )


corpora = st.builds(
    Corpus,
    dialogues=st.lists(dialogues(), max_size=3, unique_by=lambda d: d.dialogue_id).map(tuple),
    schema_version=texts,
    extra=extras({"schema_version"}),
)


class TestRoundTripProperty:
    @given(corpora)
    def test_parse_inverts_serialize(self, c):
        data = serialize_corpus(c)
        assert parse_corpus(data) == c
        assert parse_corpus(data.decode("utf-8")) == c
        assert parse_corpus(io.BytesIO(data)) == c


# Valid records whose fields the property test below replaces one at a time.
SIMULATED_RECORD = {
    "dialogue_id": "s1",
    "crs_id": "sysB",
    "provenance": "simulated",
    "simulator_id": "abus",
    "goal": {"constraints": [{"slot": "genre", "value": "comedy"}], "requests": ["year"]},
    "utterances": [
        {
            "index": 0,
            "speaker": "USER",
            "text": "A comedy?",
            "acts": [
                {"intent": "Disclose", "slots": [{"slot": "genre", "value": "comedy"}]},
                {"intent": "Inquire"},
            ],
        },
        {
            "index": 1,
            "speaker": "SYSTEM",
            "acts": [{"intent": "Recommend", "slots": [TITLE_UP, {"slot": "TITLE", "value": 7}]}],
            "items": ["Up", 7],
            "mood": "sunny",
        },
    ],
}


def field_paths(value, path=()):
    """The path of every field and array entry inside ``value``."""
    if isinstance(value, dict):
        children = value.items()
    else:
        children = enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


def replaced(record, path, value):
    """A deep copy of ``record`` with the field at ``path`` set to ``value``."""
    record = json.loads(json.dumps(record))
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return record


BASE_FIELDS = [(base, path) for base in (FIXTURE_RECORD, SIMULATED_RECORD) for path in field_paths(base)]
# A value of each JSON type; strings and containers that are valid somewhere.
json_replacements = st.one_of(
    st.sampled_from(["Up", "USER", "SYSTEM", "Accept", "Recommend", "simulated", "TITLE"]),
    st.just(""),
    st.integers(-2, 3) | st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
    st.sampled_from([[], ["Up"], [7], [TITLE_UP], [{"intent": "Other"}], [{"index": 0, "speaker": "USER"}]]),
    st.sampled_from([{}, TITLE_UP, {"slot": "TITLE", "value": 7}, {"intent": "Other"}, {"constraints": [TITLE_UP]}]),
)


def field_id(base_field) -> str:
    base, path = base_field
    return ".".join([base["dialogue_id"], *map(str, path)])


class TestParserAgainstTheOracleChecker:
    @pytest.mark.parametrize("base_field", BASE_FIELDS, ids=map(field_id, BASE_FIELDS))
    @settings(max_examples=24)
    @given(value=json_replacements)
    def test_one_replaced_field(self, base_field, value):
        base, path = base_field
        data = stream(dict(FIXTURE_RECORD, dialogue_id="d0"), replaced(base, path, value))
        expected, bad_line = oracle_check_stream(data)
        if bad_line is None:
            assert [dialogue_record(d) for d in parse_corpus(data)] == expected
        else:
            with pytest.raises(CorpusFormatError) as excinfo:
                parse_corpus(data)
            assert excinfo.value.line_number == bad_line

    def test_the_base_records_are_valid(self):
        data = stream(FIXTURE_RECORD, SIMULATED_RECORD)
        expected, bad_line = oracle_check_stream(data)
        assert bad_line is None and len(expected) == 2
        assert [dialogue_record(d) for d in parse_corpus(data)] == expected


# Field values for goal, utterance and act records. Clean ones build:
# strings, and numbers, which the number rule turns into strings. Faulty
# ones do not where a string is wanted: the empty string, booleans, null
# and containers. The pools are small, so constraints and slots repeat.
CLEAN_VALUES = ["genre", "comedy", "TITLE", "Up", 7, 2.5, -0.0]
FAULTY_VALUES = ["", True, False, None, ["Up"], {"slot": "x"}]
ABSENT = object()


def with_fields(fields: dict, unknown: dict) -> dict:
    """A record of the ``fields`` that are not ``ABSENT``, then ``unknown``."""
    return {**{key: value for key, value in fields.items() if value is not ABSENT}, **unknown}


def parse_records(faulty: bool):
    """Goal records and utterance records (with act records in them): with
    ``faulty``, any field may hold a faulty value, an array field any value,
    an array entry any value, and a slot object may lack its slot or value."""
    values = st.sampled_from(CLEAN_VALUES + FAULTY_VALUES if faulty else CLEAN_VALUES)
    pairs = st.fixed_dictionaries({"slot": values, "value": values})
    entries = pairs
    if faulty:
        without_value = pairs.map(lambda pair: {"slot": pair["slot"]})
        without_slot = pairs.map(lambda pair: {"value": pair["value"]})
        entries = pairs | without_value | without_slot | values

    def arrays(entry):
        # An absent field reads as an empty array.
        field = st.just(ABSENT) | st.lists(entry, max_size=3)
        return field | values if faulty else field

    goals = st.builds(
        lambda constraints, requests, unknown: with_fields(
            {"constraints": constraints, "requests": requests}, unknown
        ),
        # A goal needs a constraint.
        arrays(entries) if faulty else st.lists(entries, min_size=1, max_size=3),
        arrays(values),
        extras({"constraints", "requests"}),
    )
    intents = st.sampled_from(["Recommend", "Accept", "Other", "Other"])
    acts = st.builds(
        lambda intent, slots, unknown: with_fields({"intent": intent, "slots": slots}, unknown),
        intents | values | st.just(ABSENT) if faulty else intents,
        arrays(entries),
        extras({"intent", "slots"}),
    )
    utterances = st.builds(
        lambda index, speaker, text, acts, items, unknown: with_fields(
            {"index": index, "speaker": speaker, "text": text, "acts": acts, "items": items}, unknown
        ),
        st.sampled_from([0, 1, -1, True, 1.0, "0", ABSENT] if faulty else [0, 1]),
        st.sampled_from(["USER", "SYSTEM"] + (["ROBOT", None, ["USER"], ABSENT] if faulty else [])),
        st.sampled_from(["", "hi", 5, None, ABSENT] if faulty else ["", "hi", ABSENT]),
        arrays(acts | values if faulty else acts),
        arrays(values),
        extras({"index", "speaker", "text", "acts", "items"}),
    )
    if faulty:
        return goals | values, utterances | values
    return goals, utterances


clean_goals, clean_utterances = parse_records(faulty=False)
faulty_goals, faulty_utterances = parse_records(faulty=True)


def built(build, record, *args):
    """What ``build(record, *args)`` gives: the object, or the error's class
    and message."""
    try:
        return build(record, *args)
    except Exception as exc:
        return type(exc), str(exc)


def unknown_keys_kept_apart(parsed, expected) -> bool:
    """A parsed object holds a plain dict of its unknown keys, and shares
    the read-only empty ``extra`` when it has none."""
    return (type(parsed.extra) is dict) == bool(expected.extra)


class TestParseAgainstTheFieldByFieldBuild:
    """The parser builds each record from its values as read and goes back
    field by field only when that fails: the object or error it gives must
    be the one the field-by-field build gives."""

    @settings(max_examples=400)
    @given(clean_goals | faulty_goals)
    def test_goal_records(self, record):
        parsed, expected = built(_parse_goal, record), built(reference_goal, record)
        assert parsed == expected
        if isinstance(expected, UserGoal):
            assert unknown_keys_kept_apart(parsed, expected)

    @settings(max_examples=400)
    @given(clean_utterances | faulty_utterances)
    def test_utterance_and_act_records(self, record):
        schema = default_schema()
        parsed = built(_parse_utterance, record, schema)
        expected = built(reference_utterance, record, schema)
        assert parsed == expected
        if isinstance(expected, Utterance):
            assert unknown_keys_kept_apart(parsed, expected)
            assert all(map(unknown_keys_kept_apart, parsed.acts, expected.acts))


class TestSerializeCorpus:
    def test_empty_corpus_has_no_dialogue_records(self):
        data = serialize_corpus(Corpus())
        lines = [line for line in data.decode().splitlines() if line.strip()]
        assert len(lines) == 1  # header only
        assert json.loads(lines[0])["schema_version"] == "1"

    def test_optional_fields_omitted(self):
        d = dlg("d1", "sysA", [utt(0, "USER", [act("Other")])])
        record = dialogue_record(d)
        assert "satisfaction" not in record
        assert "goal" not in record
        assert "simulator_id" not in record

    def test_round_trip_identity_on_fixture(self):
        parsed = parse_corpus(stream(FIXTURE_RECORD))
        assert parse_corpus(serialize_corpus(parsed)) == parsed

    def test_round_trip_identity_on_random_corpora(self):
        rng = random.Random(20240917)
        for _ in range(25):
            c = random_corpus(rng)
            assert parse_corpus(serialize_corpus(c)) == c

    def test_serialization_is_deterministic(self):
        rng = random.Random(7)
        c = random_corpus(rng)
        assert serialize_corpus(c) == serialize_corpus(c)


class TestCorpusCounts:
    def test_reference_counts_sum_to_total(self):
        scores = load_reference_scores()
        counts = scores["dialogue_counts"]
        assert sum(counts.values()) == scores["total_dialogues"] == 467

    def test_per_system_counts_sum_to_corpus_size(self):
        rng = random.Random(99)
        c = random_corpus(rng)
        groups = c.by_system()
        assert sum(len(ds) for ds in groups.values()) == len(c)
