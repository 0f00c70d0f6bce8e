"""Independent brute-force metric evaluator, record checker and catalog lookups.

Works directly on the serialized record stream with no code shared with
the metric engine: its own JSON walking, its own round scanner, its own
accept counting. A ground-truth file is decoded whole before its entries
are checked. The record checker walks each decoded dialogue record
against the corpus format's rules on its own. The catalog references
decode a catalog whole before checking it, scan every item or try every
title at every position, goal sampling replays its draws over the plain
catalog records, and the agenda simulator's intent draw is redone with
plain running sums and a bisect.
Kept deliberately naive so it can serve as an oracle.
"""

from __future__ import annotations

import bisect
import json
import random
import re


def _records(stream: bytes) -> list[dict]:
    lines = [line for line in stream.decode("utf-8").splitlines() if line.strip()]
    parsed = [json.loads(line) for line in lines]
    return [record for record in parsed if "dialogue_id" in record]


def _dialogue_success(utterances: list[dict]) -> float:
    for utterance in utterances:
        if utterance["speaker"] != "USER":
            continue
        for act in utterance.get("acts", []):
            if act["intent"] == "Accept":
                return 1.0
    return 0.0


def _first_mentions(values: list[str]) -> list[str]:
    return [value for position, value in enumerate(values) if value not in values[:position]]


def _titles(act: dict) -> list[str]:
    return [pair["value"] for pair in act.get("slots", []) if pair["slot"] == "TITLE"]


def oracle_rounds(utterances: list[dict]) -> list[tuple[int, int, str]]:
    """(start, end, outcome) per recommendation round of one dialogue
    record's utterances.

    A round opens at a SYSTEM utterance with a Recommend act and closes at
    the first later USER utterance with an Accept or Reject act, the first
    of which decides it; further Recommends extend the open round, and one
    still open at the end is unresolved and ends one past the last
    utterance.
    """
    rounds = []
    start = None
    for utterance in utterances:
        intents = [act["intent"] for act in utterance.get("acts", [])]
        if utterance["speaker"] == "SYSTEM" and "Recommend" in intents:
            if start is None:
                start = utterance["index"]
        elif utterance["speaker"] == "USER" and start is not None:
            decisions = [intent for intent in intents if intent in ("Accept", "Reject")]
            if decisions:
                outcome = "accepted" if decisions[0] == "Accept" else "rejected"
                rounds.append((start, utterance["index"], outcome))
                start = None
    if start is not None:
        rounds.append((start, len(utterances), "unresolved"))
    return rounds


def oracle_accepted_items(utterances: list[dict]) -> int:
    """Distinct TITLE values over USER Accept acts, plus 1 for each such act
    that names no title."""
    named: list[str] = []
    bare = 0
    for utterance in utterances:
        if utterance["speaker"] != "USER":
            continue
        for act in utterance.get("acts", []):
            if act["intent"] == "Accept":
                titles = _titles(act)
                named += titles
                bare += 0 if titles else 1
    return len(_first_mentions(named)) + bare


def _dialogue_srrr(utterances: list[dict]) -> float:
    outcomes = [outcome for _, _, outcome in oracle_rounds(utterances)]
    if not outcomes:
        return 0.0
    return outcomes.count("accepted") / len(outcomes)


def _dialogue_rdl(utterances: list[dict]) -> float:
    return oracle_accepted_items(utterances) / len(utterances)


def oracle_reports(stream: bytes) -> dict[str, dict[str, float]]:
    """SR/SRRR/RDL per system, computed straight off the record stream."""
    per_system: dict[str, dict[str, list[float]]] = {}
    for record in _records(stream):
        utterances = record["utterances"]
        bucket = per_system.setdefault(
            record["crs_id"], {"SR": [], "SRRR": [], "RDL": []}
        )
        bucket["SR"].append(_dialogue_success(utterances))
        bucket["SRRR"].append(_dialogue_srrr(utterances))
        bucket["RDL"].append(_dialogue_rdl(utterances))
    return {
        metric: {
            crs_id: sum(values[metric]) / len(values[metric])
            for crs_id, values in per_system.items()
        }
        for metric in ("SR", "SRRR", "RDL")
    }


def _judged_turns(record: dict, ground_truth: dict[tuple[str, int], set[str]]):
    """(targets, recommended items) per SYSTEM utterance of one dialogue
    record that recommends and has ground truth. An utterance recommends
    its items, or with none, the TITLE values of its Recommend acts."""
    for utterance in record["utterances"]:
        if utterance["speaker"] != "SYSTEM":
            continue
        intents = [act["intent"] for act in utterance.get("acts", [])]
        recommended = list(utterance.get("items", []))
        if not recommended and "Recommend" in intents:
            for act in utterance.get("acts", []):
                if act["intent"] == "Recommend":
                    recommended.extend(
                        pair["value"]
                        for pair in act.get("slots", [])
                        if pair["slot"] == "TITLE"
                    )
        if not recommended and "Recommend" not in intents:
            continue
        key = (record["dialogue_id"], utterance["index"])
        if key in ground_truth:
            yield ground_truth[key], recommended


def oracle_recall(
    stream: bytes, ground_truth: dict[tuple[str, int], set[str]], n: int
) -> dict[str, float]:
    """Standard micro recall@n per system, straight off the record stream."""
    hits: dict[str, int] = {}
    truth: dict[str, int] = {}
    for record in _records(stream):
        crs_id = record["crs_id"]
        hits.setdefault(crs_id, 0)
        truth.setdefault(crs_id, 0)
        for targets, recommended in _judged_turns(record, ground_truth):
            hits[crs_id] += len(targets & set(recommended[:n]))
            truth[crs_id] += len(targets)
    return {
        crs_id: hits[crs_id] / truth[crs_id] if truth[crs_id] else 0.0
        for crs_id in hits
    }


def oracle_length_normalized_recall(
    stream: bytes, ground_truth: dict[tuple[str, int], set[str]], n: int
) -> dict[str, float]:
    """The published recall@n per system: hits over n per judged turn, then
    over the system's total utterance count, straight off the record stream."""
    hits: dict[str, int] = {}
    judged: dict[str, int] = {}
    utterances: dict[str, int] = {}
    for record in _records(stream):
        crs_id = record["crs_id"]
        utterances[crs_id] = utterances.get(crs_id, 0) + len(record["utterances"])
        hits.setdefault(crs_id, 0)
        judged.setdefault(crs_id, 0)
        for targets, recommended in _judged_turns(record, ground_truth):
            hits[crs_id] += len(targets & set(recommended[:n]))
            judged[crs_id] += 1
    return {
        crs_id: (hits[crs_id] / (n * judged[crs_id]) if judged[crs_id] else 0.0)
        / utterances[crs_id]
        for crs_id in hits
    }


class _Members(list):
    """A decoded JSON object: its (name, value) members in file order."""


def oracle_ground_truth(text: str, path: str):
    """A ``--ground-truth`` file read the plain way: decode the whole
    ``text``, then convert each dialogue entry in file order. Returns
    ``{(dialogue id, index): targets}``, or the message of the first fault:
    JSON's own for a syntax fault anywhere in ``text``."""
    try:
        parsed = json.loads(text, object_pairs_hook=_Members)
    except ValueError as exc:
        return f"cannot read ground truth {path}: {exc}"
    if type(parsed) is not _Members:
        return f"ground truth {path} must be a JSON object"
    mapping = {}
    for dialogue_id, per_turn in parsed:
        if type(per_turn) is not _Members:
            return f"ground truth {path}: {dialogue_id!r} must map to an object"
        for index, items in per_turn:
            if not re.fullmatch(r"0|[1-9][0-9]*", index):
                return (
                    f"ground truth {path}: index {index!r} of {dialogue_id!r} is not "
                    "a non-negative integer in ASCII digits without leading zeros"
                )
            if type(items) is not list or not all(type(i) is str and i for i in items):
                return (
                    f"ground truth {path}: ({dialogue_id}, {index}) must be an array "
                    "of non-empty item ids"
                )
            mapping[(dialogue_id, int(index))] = tuple(items)
        # Only an entry whose every index and target is sound is checked
        # for an index it repeats, and the first repeat is named.
        indexes = [index for index, _ in per_turn]
        repeats = [index for n, index in enumerate(indexes) if index in indexes[:n]]
        if repeats:
            return f"ground truth {path}: index {repeats[0]!r} of {dialogue_id!r} is repeated"
    # Only a file without a faulty entry is checked for a repeated id,
    # and the least such id is named.
    ids = [dialogue_id for dialogue_id, _ in parsed]
    repeated = sorted(i for i in set(ids) if ids.count(i) > 1)
    if repeated:
        return f"ground truth {path}: repeated dialogue id {repeated[0]!r}"
    return mapping


def oracle_get(items, item_id: str):
    """The catalog item with ``item_id`` by linear scan, or None."""
    for item in items:
        if item.item_id == item_id:
            return item
    return None


def oracle_slots(items) -> tuple[str, ...]:
    names: set[str] = set()
    for item in items:
        names.update(item.attributes)
    return tuple(sorted(names))


def oracle_load_catalog(text: str):
    """Catalog loading done the plain way: decode the whole ``text``, then
    check each record in turn. Returns ``(ids, slots, {id: attributes})``,
    or ``(exception type, message)`` for the first fault."""
    try:
        parsed = json.loads(text)
        if not isinstance(parsed, list):
            raise ValueError("catalog must be a JSON array of objects")
        attributes: dict[str, dict] = {}
        for record in parsed:
            if not isinstance(record, dict):
                raise ValueError("catalog records must be JSON objects")
            name = record.pop("id", None)
            if name is None or name == "":
                name = record.pop("title", None)
            if name is None or name == "":
                raise ValueError("catalog records need an 'id' or 'title' key")
            if isinstance(name, bool) or not isinstance(name, (str, int, float)):
                raise ValueError(f"catalog item id {name!r} is not a string or number")
            if str(name) in attributes:
                raise ValueError(f"duplicate catalog item id {str(name)!r}")
            attributes[str(name)] = record
        if not attributes:
            raise ValueError("catalog must contain at least one item")
    except ValueError as exc:
        return type(exc), str(exc)
    slots = sorted({slot for record in attributes.values() for slot in record})
    return tuple(attributes), tuple(slots), attributes


def oracle_find_titles(text: str, titles) -> list[tuple[int, str]]:
    """Whole-title matches in ``text.lower()``, trying every title longest
    first at every position; a match moves the scan past its end."""
    lowered = text.lower()
    patterns = sorted(
        ((re.compile(r"(?<!\w)" + re.escape(t.lower()) + r"(?!\w)"), t) for t in titles),
        key=lambda pair: -len(pair[1].lower()),
    )
    found: dict[str, int] = {}
    position = 0
    while position < len(lowered):
        width = None
        for pattern, title in patterns:
            if width is not None and len(title.lower()) < width:
                break
            if pattern.match(lowered, position):
                width = len(title.lower())
                found.setdefault(title, position)
        position += width or 1
    return sorted((p, t) for t, p in found.items())


def oracle_cue_positions(text: str, lexicon, allowed) -> dict[str, int]:
    """The ``allowed`` intents of ``lexicon`` with a cue in ``text.lower()``,
    each with the position of its leftmost cue.

    Each cue is searched for on its own, lowered, with a word-boundary
    regex: no word character may touch it on either side.
    """
    lowered = text.lower()
    first: dict[str, int] = {}
    for intent, cues in lexicon.items():
        if intent not in allowed:
            continue
        for cue in cues:
            match = re.search(r"(?<!\w)" + re.escape(cue.lower()) + r"(?!\w)", lowered)
            if match and match.start() < first.get(intent, len(lowered) + 1):
                first[intent] = match.start()
    return first


def oracle_cue_intents(text: str, lexicon, allowed) -> list[str]:
    """The intents of ``oracle_cue_positions``, ordered by (position, intent)."""
    first = oracle_cue_positions(text, lexicon, allowed)
    return sorted(first, key=lambda intent: (first[intent], intent))


def oracle_rule_acts(text: str, lexicon, titles, allowed, system: bool) -> list[tuple[str, tuple[str, ...]]]:
    """(intent, titles) per act the rule annotator gives the stripped
    ``text``: each cued intent, and Recommend at the first title in a
    system turn, ordered by (position, intent). Recommend, Accept and
    Reject carry every title found, in first-match order; with no act at
    all, Other where ``allowed`` has it."""
    first = oracle_cue_positions(text, lexicon, allowed)
    found = oracle_find_titles(text, titles)
    if found and system and "Recommend" in allowed:
        first.setdefault("Recommend", found[0][0])
    if not first:
        return [("Other", ())] if "Other" in allowed else []
    named = tuple(title for _, title in found)
    return [
        (intent, named if intent in ("Recommend", "Accept", "Reject") else ())
        for intent in sorted(first, key=lambda intent: (first[intent], intent))
    ]


def oracle_sample_goal(records: list[dict], config, seed: int):
    """``sample_goal``'s random draws replayed over plain catalog records
    in file order: ``(constraints, requests)``, or None when no drawn
    record populates enough constraint slots within the attempt budget.

    The goal sizes (1-2 constraints, 1-3 requests) and the budget of 50
    attempts are written out here, so a change to evalkit's constants
    fails the property test."""
    rng = random.Random(seed)
    items = []
    for record in records:
        name_key = "id" if record.get("id") not in (None, "") else "title"
        items.append({k: v for k, v in record.items() if k != name_key})

    def values(item: dict, slot: str) -> tuple[str, ...]:
        value = item.get(slot)
        if value is None:
            return ()
        return tuple(str(v) for v in value) if isinstance(value, list) else (str(value),)

    for _ in range(50):
        count = rng.randint(1, 2)
        anchor = items[rng.randrange(len(items))]
        populated = [slot for slot in config.constraint_slots if values(anchor, slot)]
        if len(populated) < count:
            continue
        chosen = rng.sample(populated, count)
        constraints = tuple((slot, rng.choice(values(anchor, slot))) for slot in chosen)
        cap = min(3, len(config.request_slots))
        request_count = rng.randint(min(1, cap), cap) if cap else 0
        requests = tuple(rng.sample(list(config.request_slots), request_count)) if request_count else ()
        return constraints, requests
    return None


def oracle_intent_sums(row: dict, can_accept: bool, can_reject: bool):
    """The agenda simulator's candidate intents for a sampled turn and their
    running sums: the row's positive intents in name order, without Accept
    unless an open item is acceptable and without Reject unless one is open.
    The sums are added one by one, never compensated."""
    intents, sums, total = [], [], 0.0
    for intent in sorted(row):
        if row[intent] > 0 and (intent != "Accept" or can_accept) and (intent != "Reject" or can_reject):
            total += row[intent]
            intents.append(intent)
            sums.append(total)
    return intents, sums


def oracle_sampled_intent(row: dict, roll: float, can_accept: bool, can_reject: bool) -> str:
    """The intent a sampled turn draws for one ``random()`` value ``roll``:
    the first candidate whose running sum exceeds ``roll`` times the last
    sum (the last candidate if none does), or Disclose without candidates."""
    intents, sums = oracle_intent_sums(row, can_accept, can_reject)
    if not intents:
        return "Disclose"
    return intents[min(bisect.bisect_right(sums, roll * sums[-1]), len(intents) - 1)]


# The default annotation schema's intents, written out here so that a
# change to evalkit's schema fails the property test.
ORACLE_INTENTS = {
    "USER": {"Disclose", "Refine", "Inquire", "Accept", "Reject", "Other"},
    "SYSTEM": {"Recommend", "Explain", "Request", "Respond", "Other"},
}

_ABSENT = object()


class Rejected(Exception):
    """A record breaks the corpus format's rules."""


def _string(value) -> str:
    """A string as it is, a number that is not a boolean as its ``str``."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return str(value)
    raise Rejected(f"not a string or number: {value!r}")


def _array(record: dict, key: str) -> list:
    """Field ``key`` of ``record``, an array; an absent field is empty."""
    value = record.get(key, [])
    if not isinstance(value, list):
        raise Rejected(f"{key} is not an array")
    return value


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise Rejected(f"not an object: {value!r}")
    return value


def _unknown(record: dict, known: set) -> dict:
    return {key: value for key, value in record.items() if key not in known}


def _slot_list(record: dict, key: str) -> list:
    """The slot objects of field ``key``, numbers made strings; names must
    be non-empty and no pair may repeat."""
    pairs = []
    for entry in _array(record, key):
        entry = _object(entry)
        if "slot" not in entry or "value" not in entry:
            raise Rejected("slot entry without slot or value")
        pair = (_string(entry["slot"]), _string(entry["value"]))
        if pair[0] == "" or pair in pairs:
            raise Rejected(f"empty or repeated slot pair {pair}")
        pairs.append(pair)
    return [{"slot": name, "value": value} for name, value in pairs]


def _strings(record: dict, key: str) -> list:
    values = [_string(value) for value in _array(record, key)]
    if "" in values:
        raise Rejected(f"an empty entry of {key}")
    return values


def _checked_goal(goal: dict) -> dict:
    constraints = _slot_list(goal, "constraints")
    if not constraints:
        raise Rejected("a goal without constraints")
    known = {"constraints", "requests"}
    return {"constraints": constraints, "requests": _strings(goal, "requests"), **_unknown(goal, known)}


def _checked_act(act: dict, speaker: str) -> dict:
    if "intent" not in act:
        raise Rejected("an act without intent")
    intent = act["intent"]
    if not isinstance(intent, str) or intent not in ORACLE_INTENTS[speaker]:
        raise Rejected(f"intent {intent!r} is not a {speaker} intent")
    checked = {"intent": intent}
    slots = _slot_list(act, "slots")
    if slots:
        checked["slots"] = slots
    checked.update(_unknown(act, {"intent", "slots"}))
    return checked


def _checked_utterance(utterance: dict, position: int) -> dict:
    index = utterance.get("index", _ABSENT)
    if type(index) is not int or index != position:
        raise Rejected(f"index {index!r} at position {position}")
    speaker = utterance.get("speaker", _ABSENT)
    if speaker not in ("USER", "SYSTEM"):
        raise Rejected(f"speaker {speaker!r}")
    text = utterance.get("text", "")
    if not isinstance(text, str):
        raise Rejected("text is not a string")
    return {
        "index": index,
        "speaker": speaker,
        "text": text,
        "acts": [_checked_act(_object(act), speaker) for act in _array(utterance, "acts")],
        "items": _strings(utterance, "items"),
        **_unknown(utterance, {"index", "speaker", "text", "acts", "items"}),
    }


def oracle_checked_record(record: dict) -> dict:
    """``record`` as the parser should read it back: numbers in id, slot,
    item and request fields become strings, defaults fill absent fields and
    null optional fields are dropped. Rejected if it breaks a rule."""
    checked = {}
    for key in ("dialogue_id", "crs_id"):
        if key not in record:
            raise Rejected(f"no {key}")
        checked[key] = _string(record[key])
        if checked[key] == "":
            raise Rejected(f"empty {key}")
    provenance = record.get("provenance", "human")
    if provenance not in ("human", "simulated"):
        raise Rejected(f"provenance {provenance!r}")
    checked["provenance"] = provenance
    satisfaction = record.get("satisfaction")
    if satisfaction is not None:
        if satisfaction not in ("satisfied", "frustrated"):
            raise Rejected(f"satisfaction {satisfaction!r}")
        checked["satisfaction"] = satisfaction
    if record.get("simulator_id") is not None:
        checked["simulator_id"] = _string(record["simulator_id"])
    if record.get("goal") is not None:
        checked["goal"] = _checked_goal(_object(record["goal"]))
    if provenance == "simulated" and ("simulator_id" not in checked or "goal" not in checked):
        raise Rejected("a simulated dialogue without simulator_id or goal")
    utterances = _array(record, "utterances")
    if not utterances:
        raise Rejected("no utterances")
    checked["utterances"] = [
        _checked_utterance(_object(utterance), position)
        for position, utterance in enumerate(utterances)
    ]
    known = {
        "dialogue_id", "crs_id", "provenance", "satisfaction", "simulator_id", "goal", "utterances"
    }
    checked.update(_unknown(record, known))
    return checked


def oracle_check_stream(stream: bytes) -> tuple[list[dict], int | None]:
    """The checked dialogue records of a corpus stream up to its first bad
    line, and that line's 1-based number (None if every line is good).

    Blank lines are skipped; the first other line is the schema_version
    header; dialogue ids must be unique across the stream."""
    checked: list[dict] = []
    seen: set = set()
    header = True
    for number, line in enumerate(stream.decode("utf-8").split("\n"), start=1):
        if not line.strip():
            continue
        record = json.loads(line)
        if header:
            header = False
            if "schema_version" not in record:
                return checked, number
            continue
        try:
            dialogue = oracle_checked_record(record)
        except Rejected:
            return checked, number
        if dialogue["dialogue_id"] in seen:
            return checked, number
        seen.add(dialogue["dialogue_id"])
        checked.append(dialogue)
    return checked, None
