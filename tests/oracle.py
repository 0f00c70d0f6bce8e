"""Independent brute-force metric evaluator and catalog lookups.

Works directly on the serialized record stream with no code shared with
the metric engine: its own JSON walking, its own round scanner, its own
accept counting. The catalog references scan every item or try every
title at every position, and goal sampling replays its draws over the
plain catalog records. Kept deliberately naive so it can serve as an
oracle.
"""

from __future__ import annotations

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


def oracle_rounds(utterances: list[dict]) -> list[tuple[int, int, str, list[str]]]:
    """(start, end, outcome, items) per recommendation round of one
    dialogue record's utterances.

    A round opens at a SYSTEM utterance with a Recommend act and closes at
    the first later USER utterance with an Accept or Reject act, the first
    of which decides it; further Recommends extend the open round, and one
    still open at the end is unresolved and ends one past the last
    utterance. Its items are the TITLE values of its Recommend acts and the
    items of its recommending utterances, each once, in order of first
    mention.
    """
    rounds = []
    start = None
    mentions: list[str] = []
    for utterance in utterances:
        acts = utterance.get("acts", [])
        intents = [act["intent"] for act in acts]
        if utterance["speaker"] == "SYSTEM" and "Recommend" in intents:
            if start is None:
                start, mentions = utterance["index"], []
            for act in acts:
                if act["intent"] == "Recommend":
                    mentions += _titles(act)
            mentions += utterance.get("items", [])
        elif utterance["speaker"] == "USER" and start is not None:
            decisions = [intent for intent in intents if intent in ("Accept", "Reject")]
            if decisions:
                outcome = "accepted" if decisions[0] == "Accept" else "rejected"
                rounds.append((start, utterance["index"], outcome, _first_mentions(mentions)))
                start = None
    if start is not None:
        rounds.append((start, len(utterances), "unresolved", _first_mentions(mentions)))
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
    outcomes = [outcome for _, _, outcome, _ in oracle_rounds(utterances)]
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
            if key not in ground_truth:
                continue
            targets = ground_truth[key]
            hits[crs_id] += len(targets & set(recommended[:n]))
            truth[crs_id] += len(targets)
    return {
        crs_id: hits[crs_id] / truth[crs_id] if truth[crs_id] else 0.0
        for crs_id in hits
    }


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


def oracle_cue_intents(text: str, lexicon, allowed) -> list[str]:
    """The ``allowed`` intents of ``lexicon`` with a cue in ``text.lower()``,
    ordered by (position of the intent's leftmost cue, intent).

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
    return sorted(first, key=lambda intent: (first[intent], intent))


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
