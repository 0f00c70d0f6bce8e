"""Corpus parsing and serialization.

The on-disk format is newline-delimited JSON (UTF-8): a leading header
record carrying ``schema_version`` (plus any corpus-level metadata),
followed by one self-contained dialogue record per line. Unknown keys at
every level are preserved as opaque metadata, so
``parse_corpus(serialize_corpus(c)) == c`` for any valid corpus. Metric
and reliability reports use the same framing. ``iter_records`` is the one
reader of that framing and ``write_records`` the one writer.

``CorpusFiles`` reads corpus files as one stream of dialogues. Its
``fold`` cuts large files at line ends into byte ranges and parses and
folds each range in a worker process (``parallel.py``), one per CPU and
per ``_BYTES_PER_WORKER`` of input; any fault in a range reruns the
whole fold in-process, so errors and their line numbers are those of the
one-stream read.
"""

from __future__ import annotations

import io
import json
import os
from operator import itemgetter
from types import MappingProxyType
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Mapping

from .dialogue import (
    _USER,
    Corpus,
    Dialogue,
    DialogueAct,
    IntentSchema,
    PROVENANCE_HUMAN,
    Speaker,
    UserGoal,
    Utterance,
    default_schema,
)
from .errors import CorpusFormatError, SchemaViolationError

# Input bytes per worker process: below two workers' worth, a fold runs
# in-process, as starting workers and merging their results would cost
# more than they save.
_BYTES_PER_WORKER = 4 << 20

# The known keys of each record kind. A parse counts the known keys it
# finds present; a record holds unknown keys when it has more than that.
_DIALOGUE_KEYS = {
    "dialogue_id",
    "crs_id",
    "provenance",
    "satisfaction",
    "simulator_id",
    "goal",
    "utterances",
}
_UTTERANCE_KEYS = {"index", "speaker", "text", "acts", "items"}
_ACT_KEYS = {"intent", "slots"}
_GOAL_KEYS = {"constraints", "requests"}
_SPEAKERS = {speaker.value: speaker for speaker in Speaker}
_slot_pair = itemgetter("slot", "value")
# The ``extra`` of every parsed object without unknown keys.
_NO_EXTRAS: Mapping[str, Any] = MappingProxyType({})
# The value of an absent array field; never changed, and never a parsed value.
_ABSENT_ARRAY: list[Any] = []
# The value read for any other absent optional field.
_ABSENT = object()
# The C scanner under ``json.loads``: one call decodes a record's line.
_SCAN = json.JSONDecoder().scan_once
# The whitespace JSON allows after a value; ``str.isspace`` allows more.
_JSON_SPACE = " \t\n\r"
_JSON_TYPES = {
    str: "a string", int: "a number", float: "a number", bool: "a boolean",
    list: "an array", dict: "an object", type(None): "null",
}


def _fault(field: str, wanted: str, value: Any) -> TypeError:
    return TypeError(f"{field} must be {wanted}, not {_JSON_TYPES[type(value)]}")


def _text(value: Any, field: str) -> str:
    """``value`` as a string: a string as it is, and a number that is not a
    boolean through ``str``; TypeError naming ``field`` otherwise."""
    if type(value) is str:
        return value
    if type(value) is int or type(value) is float:
        return str(value)
    raise _fault(field, "a string", value)


def _array(record: Mapping[str, Any], key: str) -> list[Any]:
    """Field ``key`` of ``record``, which must be an array; absent, it is empty."""
    values = record.get(key, _ABSENT_ARRAY)
    if type(values) is not list:
        raise _fault(repr(key), "an array", values)
    return values


def _texts(record: Mapping[str, Any], key: str) -> tuple[str, ...]:
    """Field ``key`` of ``record``, an array, as a tuple of ``_text`` values."""
    entry = f"an entry of {key!r}"
    return tuple([_text(value, entry) for value in _array(record, key)])


def _slot_pairs(record: Mapping[str, Any], key: str) -> tuple[tuple[str, str], ...]:
    """Field ``key`` of ``record``, an array of slot-value objects, as
    (slot, value) pairs of ``_text`` values."""
    pairs = []
    for entry in _array(record, key):
        if type(entry) is not dict:
            raise _fault(f"an entry of {key!r}", "an object", entry)
        name, value = _slot_pair(entry)
        pairs.append((_text(name, "'slot'"), _text(value, "'value'")))
    return tuple(pairs)


def _extras(record: Mapping[str, Any], known: set[str]) -> dict[str, Any]:
    """The fields of ``record`` not in ``known``; a parse calls it only for a
    record with more keys than the known ones it found present."""
    return {k: v for k, v in record.items() if k not in known}


def _parse_goal(record: Any) -> UserGoal:
    """The goal of a 'goal' object: built from its values as they are, and
    only if that fails from ``_slot_pairs`` and ``_texts``, which name the
    field of a structural fault or apply the number rule."""
    if type(record) is not dict:
        raise _fault("'goal'", "an object", record)
    constraints = record.get("constraints", _ABSENT_ARRAY)
    requests = record.get("requests", _ABSENT_ARRAY)
    present = (constraints is not _ABSENT_ARRAY) + (requests is not _ABSENT_ARRAY)
    extra = _NO_EXTRAS if len(record) == present else _extras(record, _GOAL_KEYS)
    try:
        if type(constraints) is not list or type(requests) is not list:
            raise TypeError
        return UserGoal(tuple(map(_slot_pair, constraints)), tuple(requests), extra)
    except (KeyError, TypeError, ValueError):
        return UserGoal(_slot_pairs(record, "constraints"), _texts(record, "requests"), extra)


def _parse_act(record: Any, speaker: Speaker, schema: IntentSchema) -> DialogueAct:
    """The act of an entry of 'acts' whose build in ``_parse_utterance``
    failed: raises the fault, naming the field of a structural one, or
    builds the act with numbers in its slots turned into strings."""
    if type(record) is not dict:
        raise _fault("an entry of 'acts'", "an object", record)
    intent = record["intent"]
    if type(intent) is list or type(intent) is dict:
        raise _fault("'intent'", "a string", intent)
    present = 1 + ("slots" in record)
    extra = _NO_EXTRAS if len(record) == present else _extras(record, _ACT_KEYS)
    act = DialogueAct(intent, _slot_pairs(record, "slots"), extra)
    schema.validate_act(act, speaker)
    return act


# Acts, utterances and dialogues are built with positional arguments:
# matching keywords would cost a sizeable share of a small record's parse.
def _parse_utterance(record: Any, schema: IntentSchema) -> Utterance:
    """The utterance of an entry of 'utterances'.

    Each act is built from its record's values as they are, and checked
    against ``schema``, in one loop; the constructors check the strings.
    Only a build that fails goes to ``_parse_act``, or for the items to
    ``_texts``: they name the field of a structural fault, or apply the
    number rule and build again."""
    try:
        index = record["index"]
    except TypeError:
        raise _fault("an entry of 'utterances'", "an object", record) from None
    if type(index) is not int:
        raise _fault("'index'", "an integer", index)
    try:
        speaker = _SPEAKERS[record["speaker"]]
    except (KeyError, TypeError):
        speaker = Speaker(record["speaker"])  # raises the error naming the field or value
    intents = schema.user_intents if speaker is _USER else schema.system_intents
    acts = record.get("acts", _ABSENT_ARRAY)
    if type(acts) is not list:
        raise _fault("'acts'", "an array", acts)
    built = []
    for entry in acts:
        try:
            slots = entry.get("slots", _ABSENT_ARRAY)
            if type(slots) is not list:
                raise TypeError
            intent = entry["intent"]
            present = 1 if slots is _ABSENT_ARRAY else 2
            act = DialogueAct(
                intent,
                tuple(map(_slot_pair, slots)),
                _NO_EXTRAS if len(entry) == present else _extras(entry, _ACT_KEYS),
            )
            if intent not in intents:
                schema.validate_act(act, speaker)
        except (AttributeError, TypeError, ValueError):
            # An entry that is not an object, a structural fault, a number
            # for a string or an empty intent: _parse_act does it again with
            # every check, raising the fault or applying the number rule.
            act = _parse_act(entry, speaker, schema)
        built.append(act)
    text = record.get("text", _ABSENT)
    items = record.get("items", _ABSENT_ARRAY)
    # index and speaker were read above, so present.
    present = 5 - (acts is _ABSENT_ARRAY) - (text is _ABSENT) - (items is _ABSENT_ARRAY)
    if type(text) is not str:
        if text is not _ABSENT:
            raise _fault("'text'", "a string", text)
        text = ""
    if type(items) is not list:
        raise _fault("'items'", "an array", items)
    extra = _NO_EXTRAS if len(record) == present else _extras(record, _UTTERANCE_KEYS)
    try:
        return Utterance(index, speaker, text, built, items, extra)
    except TypeError:
        return Utterance(index, speaker, text, built, _texts(record, "items"), extra)


def _parse_dialogue(record: Mapping[str, Any], schema: IntentSchema) -> Dialogue:
    goal = record.get("goal", _ABSENT)
    utterances = record.get("utterances", _ABSENT_ARRAY)
    satisfaction = record.get("satisfaction", _ABSENT)
    provenance = record.get("provenance", _ABSENT)
    simulator_id = record.get("simulator_id", _ABSENT)
    # dialogue_id and crs_id are required, so present once the build is reached.
    present = 7 - (
        (goal is _ABSENT) + (utterances is _ABSENT_ARRAY) + (satisfaction is _ABSENT)
        + (provenance is _ABSENT) + (simulator_id is _ABSENT)
    )
    goal = None if goal is _ABSENT or goal is None else _parse_goal(goal)
    if type(utterances) is not list:
        raise _fault("'utterances'", "an array", utterances)
    utterances = tuple([_parse_utterance(u, schema) for u in utterances])
    return Dialogue(
        _text(record["dialogue_id"], "'dialogue_id'"),
        _text(record["crs_id"], "'crs_id'"),
        utterances,
        None if satisfaction is _ABSENT else satisfaction,
        goal,
        PROVENANCE_HUMAN if provenance is _ABSENT else provenance,
        (
            None if simulator_id is _ABSENT or simulator_id is None
            else _text(simulator_id, "'simulator_id'")
        ),
        _NO_EXTRAS if len(record) == present else _extras(record, _DIALOGUE_KEYS),
    )


def iter_records(raw: bytes | str | Iterable[bytes]) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield ``(line_number, record)`` per non-blank line of an NDJSON stream:
    a line is blank when it holds nothing but JSON whitespace.

    ``raw`` may be bytes, text, or a binary file (or any iterable of its
    lines), read a line at a time. Records end at ``"\n"`` only, so U+2028,
    U+2029 and U+0085 stay inside their record. A line that is not UTF-8,
    not JSON or not a JSON object raises CorpusFormatError with its 1-based
    line number.
    """
    if isinstance(raw, str):
        raw = raw.encode("utf-8", "surrogatepass")
    lines = io.BytesIO(raw) if isinstance(raw, bytes) else raw
    for line_number, line in enumerate(lines, start=1):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusFormatError(line_number, f"invalid UTF-8 at byte {exc.start}") from exc
        # A blank line is empty after stripping JSON whitespace; any other
        # space that ``str.isspace`` takes is invalid JSON, as after a record.
        if not line or (line.isspace() and not line.strip(_JSON_SPACE)):
            continue
        try:
            record, end = _SCAN(line, 0)
        except (StopIteration, ValueError):
            end = -1
        # A line the scanner cannot decode up to JSON whitespace, such as
        # one with leading whitespace, a BOM or extra data, goes through
        # json.loads, which decodes it or raises JSON's own message.
        if end < 0 or line[end:].strip(_JSON_SPACE):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(line_number, f"invalid JSON ({exc.msg})") from exc
        if not isinstance(record, dict):
            raise CorpusFormatError(line_number, "record must be a JSON object")
        yield line_number, record
        del record  # let it go before the next line is decoded


def _read_header(records: Iterator[tuple[int, dict[str, Any]]]) -> dict[str, Any]:
    """The first of ``records``, which must be the schema_version header, its
    version made a string by the number rule (``_text``); ``{}`` for no records."""
    for line_number, record in records:
        if "schema_version" not in record:
            raise CorpusFormatError(line_number, "first record must be a schema_version header")
        try:
            record["schema_version"] = _text(record["schema_version"], "'schema_version'")
        except TypeError as exc:
            raise CorpusFormatError(line_number, str(exc)) from exc
        return record
    return {}


def _parse_body(
    records: Iterable[tuple[int, dict[str, Any]]], schema: IntentSchema, seen_ids: set[str]
) -> Iterator[Dialogue]:
    """The dialogues of the records after a header; ``seen_ids`` gains their ids."""
    for line_number, record in records:
        try:
            dialogue = _parse_dialogue(record, schema)
        except (SchemaViolationError, KeyError, TypeError, ValueError) as exc:
            detail = str(exc) or exc.__class__.__name__
            if isinstance(exc, KeyError):
                detail = f"missing required field {detail}"
            raise CorpusFormatError(line_number, detail) from exc
        if dialogue.dialogue_id in seen_ids:
            raise CorpusFormatError(line_number, f"duplicate dialogue_id {dialogue.dialogue_id!r}")
        seen_ids.add(dialogue.dialogue_id)
        yield dialogue


def read_corpus(
    raw: bytes | str | BinaryIO, schema: IntentSchema | None = None
) -> tuple[dict[str, Any], Iterator[Dialogue]]:
    """A corpus stream's header record, read now, and its dialogues, read
    one at a time as the iterator is drawn.

    ``raw`` is read through ``iter_records``. Records are validated against
    ``schema`` (default ``default_schema()``); errors carry the record's
    1-based line number. A stream without records has the header ``{}``.
    """
    records = iter_records(raw)
    header = _read_header(records)
    return header, _parse_body(records, default_schema() if schema is None else schema, set())


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


class CorpusFiles:
    """Corpus files read as one stream of dialogues, ids unique across files.

    Iterating reads the files in turn, each after its header; a format
    error names its file.
    """

    def __init__(self, paths: Iterable[str], schema: IntentSchema | None = None):
        self.paths = tuple(paths)
        self.schema = default_schema() if schema is None else schema

    def __iter__(self) -> Iterator[Dialogue]:
        seen_ids: set[str] = set()
        for path in self.paths:
            with open(path, "rb") as handle:
                try:
                    records = iter_records(handle)
                    _read_header(records)
                    yield from _parse_body(records, self.schema, seen_ids)
                except CorpusFormatError as exc:
                    raise CorpusFormatError(exc.line_number, f"{exc.reason} in {path}") from exc

    def fold(self, fold: Callable[..., Any], *args: Any) -> list[Any]:
        """``fold(dialogues, *args)`` over consecutive runs of the stream's
        dialogues that together hold each once, in stream order.

        With fewer than two workers due (``_worker_count``) that is one run,
        the whole stream, folded in this process. Otherwise each run is a
        line-aligned byte range of one file, folded in a worker process by
        ``parallel.fold_in_workers``; ``fold`` and ``args`` must then pickle.
        If any range faults or two ranges hold one id, the in-process fold
        runs instead and raises the error of the one-stream read.
        """
        workers = self._worker_count()
        if workers >= 2:
            from .parallel import fold_in_workers  # loaded only for inputs that use workers

            results = fold_in_workers(self.paths, self.schema, workers, fold, args)
            if results is not None:
                return results
        return [fold(iter(self), *args)]

    def _worker_count(self) -> int:
        """One worker per ``_BYTES_PER_WORKER`` input bytes, at most one per CPU."""
        try:
            total = sum(map(os.path.getsize, self.paths))
        except OSError:  # the in-process read reports it
            return 0
        return min(_cpu_count(), total // _BYTES_PER_WORKER)


def parse_corpus(raw: bytes | str | BinaryIO, schema: IntentSchema | None = None) -> Corpus:
    """Collect ``read_corpus(raw, schema)``; an empty stream gives an empty corpus."""
    header, dialogues = read_corpus(raw, schema)
    return Corpus(tuple(dialogues), header.pop("schema_version", "1"), header)


def _act_record(act: DialogueAct) -> dict[str, Any]:
    record: dict[str, Any] = {"intent": act.intent}
    if act.slots:
        record["slots"] = [{"slot": n, "value": v} for n, v in act.slots]
    record.update(act.extra)
    return record


def _goal_record(goal: UserGoal) -> dict[str, Any]:
    record: dict[str, Any] = {
        "constraints": [{"slot": n, "value": v} for n, v in goal.constraints],
        "requests": list(goal.requests),
    }
    record.update(goal.extra)
    return record


def _utterance_record(utterance: Utterance) -> dict[str, Any]:
    record: dict[str, Any] = {
        "index": utterance.index,
        "speaker": utterance.speaker.value,
        "text": utterance.text,
        "acts": [_act_record(a) for a in utterance.acts],
        "items": list(utterance.items),
    }
    record.update(utterance.extra)
    return record


def dialogue_record(dialogue: Dialogue) -> dict[str, Any]:
    """The JSON-ready record for one dialogue; optional fields are omitted."""
    record: dict[str, Any] = {
        "dialogue_id": dialogue.dialogue_id,
        "crs_id": dialogue.crs_id,
        "provenance": dialogue.provenance,
    }
    if dialogue.satisfaction is not None:
        record["satisfaction"] = dialogue.satisfaction
    if dialogue.simulator_id is not None:
        record["simulator_id"] = dialogue.simulator_id
    if dialogue.goal is not None:
        record["goal"] = _goal_record(dialogue.goal)
    record["utterances"] = [_utterance_record(u) for u in dialogue.utterances]
    record.update(dialogue.extra)
    return record


def _header(corpus: Corpus) -> dict[str, Any]:
    return {"schema_version": corpus.schema_version, **corpus.extra}


def _line(record: Mapping[str, Any]) -> bytes:
    return (json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n").encode("utf-8")


def serialize_corpus(corpus: Corpus) -> bytes:
    """Serialize ``corpus`` to UTF-8 newline-delimited JSON.

    Output is deterministic for a given corpus, so equal corpora always
    produce byte-identical streams, the same bytes ``write_corpus`` writes.
    """
    lines = [_line(_header(corpus))]
    lines.extend(_line(dialogue_record(d)) for d in corpus.dialogues)
    return b"".join(lines)


def write_records(path, header: Mapping[str, Any], records: Iterable[Mapping[str, Any]]) -> int:
    """Write ``header`` and then each of ``records`` to ``path`` as
    newline-delimited JSON; return the number of records.

    Records are written one at a time to ``<path>.<pid>.tmp``, which is
    renamed over ``path`` only once every record is written; a symlinked
    ``path`` is resolved first, so the link's target is replaced. If
    anything fails, including the ``records`` iterable itself, the temp
    file is removed and ``path`` is left as it was.
    """
    path = os.path.realpath(path)
    temp = f"{path}.{os.getpid()}.tmp"
    count = 0
    try:
        with open(temp, "wb") as handle:
            handle.write(_line(header))
            for record in records:
                handle.write(_line(record))
                count += 1
        os.replace(temp, path)
    except BaseException:
        if os.path.exists(temp):
            os.remove(temp)
        raise
    return count


def write_corpus(corpus: Corpus, path) -> None:
    write_records(path, _header(corpus), map(dialogue_record, corpus.dialogues))

