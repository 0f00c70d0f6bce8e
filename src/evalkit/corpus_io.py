"""Corpus parsing, serialization, and corpus-level scores.

The on-disk format is newline-delimited JSON (UTF-8): a leading header
record carrying ``schema_version`` (plus any corpus-level metadata),
followed by one self-contained dialogue record per line. Unknown keys at
every level are preserved as opaque metadata, so
``parse_corpus(serialize_corpus(c)) == c`` for any valid corpus. Metric
and reliability reports use the same framing. ``iter_records`` is the one
reader of that framing and ``write_records`` the one writer.
"""

from __future__ import annotations

import io
import json
import os
from typing import Any, BinaryIO, Iterable, Iterator, Mapping

from .dialogue import (
    Corpus,
    Dialogue,
    DialogueAct,
    IntentSchema,
    PROVENANCE_HUMAN,
    SATISFIED,
    Speaker,
    UserGoal,
    Utterance,
    default_schema,
)
from .errors import CorpusFormatError, SchemaViolationError

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


def _extras(record: Mapping[str, Any], known: set[str]) -> dict[str, Any]:
    return {k: v for k, v in record.items() if k not in known}


def _parse_act(record: Mapping[str, Any]) -> DialogueAct:
    slots = tuple(
        (pair["slot"], pair["value"]) for pair in record.get("slots", ())
    )
    return DialogueAct(
        intent=record["intent"],
        slots=slots,
        extra=_extras(record, _ACT_KEYS),
    )


def _parse_goal(record: Mapping[str, Any]) -> UserGoal:
    constraints = tuple(
        (pair["slot"], pair["value"]) for pair in record.get("constraints", ())
    )
    return UserGoal(
        constraints=constraints,
        requests=tuple(record.get("requests", ())),
        extra=_extras(record, _GOAL_KEYS),
    )


def _parse_utterance(record: Mapping[str, Any], schema: IntentSchema) -> Utterance:
    speaker = Speaker(record["speaker"])
    acts = tuple(_parse_act(a) for a in record.get("acts", ()))
    for act in acts:
        schema.validate_act(act, speaker)
    return Utterance(
        index=record["index"],
        speaker=speaker,
        text=record.get("text", ""),
        acts=acts,
        items=tuple(record.get("items", ())),
        extra=_extras(record, _UTTERANCE_KEYS),
    )


def _parse_dialogue(record: Mapping[str, Any], schema: IntentSchema) -> Dialogue:
    goal = _parse_goal(record["goal"]) if record.get("goal") is not None else None
    utterances = tuple(
        _parse_utterance(u, schema) for u in record.get("utterances", ())
    )
    return Dialogue(
        dialogue_id=record["dialogue_id"],
        crs_id=record["crs_id"],
        utterances=utterances,
        satisfaction=record.get("satisfaction"),
        goal=goal,
        provenance=record.get("provenance", PROVENANCE_HUMAN),
        simulator_id=record.get("simulator_id"),
        extra=_extras(record, _DIALOGUE_KEYS),
    )


def iter_records(raw: bytes | str | BinaryIO) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield ``(line_number, record)`` per non-blank line of an NDJSON stream.

    ``raw`` may be bytes, text, or a binary file, read a line at a time.
    Records end at ``"\n"`` only, so U+2028, U+2029 and U+0085 stay inside
    their record. A line that is not UTF-8, not JSON or not a JSON object
    raises CorpusFormatError with its 1-based line number.
    """
    if isinstance(raw, str):
        raw = raw.encode("utf-8", "surrogatepass")
    lines = io.BytesIO(raw) if isinstance(raw, bytes) else raw
    for line_number, line in enumerate(lines, start=1):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusFormatError(line_number, f"invalid UTF-8 at byte {exc.start}") from exc
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(line_number, f"invalid JSON ({exc.msg})") from exc
        if not isinstance(record, dict):
            raise CorpusFormatError(line_number, "record must be a JSON object")
        yield line_number, record


def iter_corpus(
    raw: bytes | str | BinaryIO,
    schema: IntentSchema | None = None,
    header: dict[str, Any] | None = None,
    seen_ids: set[str] | None = None,
) -> Iterator[Dialogue]:
    """Yield a corpus stream's dialogues one at a time.

    ``raw`` is read through ``iter_records``. Records are validated against
    ``schema`` (default ``default_schema()``); errors carry the record's
    1-based line number. ``header``, if given, receives the header record's
    fields once the first record is read; ``seen_ids`` holds ids read from
    earlier streams, and gains this stream's.
    """
    if schema is None:
        schema = default_schema()
    seen_ids = set() if seen_ids is None else seen_ids
    records = iter_records(raw)
    for line_number, record in records:
        if "schema_version" not in record:
            raise CorpusFormatError(line_number, "first record must be a schema_version header")
        if header is not None:
            header.update(record)
        break

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


def parse_corpus(raw: bytes | str | BinaryIO, schema: IntentSchema | None = None) -> Corpus:
    """Collect ``iter_corpus(raw, schema)``; an empty stream gives an empty corpus."""
    header: dict[str, Any] = {}
    dialogues = tuple(iter_corpus(raw, schema, header))
    return Corpus(dialogues, str(header.pop("schema_version", "1")), header)


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


def read_corpus(path, schema: IntentSchema | None = None) -> Corpus:
    with open(path, "rb") as handle:
        return parse_corpus(handle, schema)


def satisfaction_score(corpus: Corpus, crs_id: str) -> float:
    """Fraction of a system's labeled dialogues marked satisfied.

    Unlabeled dialogues (e.g. simulated ones) are excluded from the
    denominator. Raises ValueError when the system has no labeled dialogues.
    """
    labeled = [
        d for d in corpus.dialogues if d.crs_id == crs_id and d.satisfaction is not None
    ]
    if not labeled:
        raise ValueError(f"no labeled dialogues for crs_id {crs_id!r}")
    satisfied = sum(1 for d in labeled if d.satisfaction == SATISFIED)
    return satisfied / len(labeled)
