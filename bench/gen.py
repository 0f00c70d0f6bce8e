"""Seeded input generators for the benchmark workloads.

Everything here is plain Python and JSON; nothing imports evalkit, so the
program under test only ever sees the files these functions write. Every
random choice comes from ``random.Random`` seeded with an int or a string
(strings are hashed with SHA-512 by ``random``), never from ``hash()``,
which ``PYTHONHASHSEED`` randomizes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

SLOTS = ("genre", "director", "actors", "year", "language")

GENRES = (
    "Action", "Adventure", "Animation", "Biography", "Comedy", "Crime",
    "Documentary", "Drama", "Family", "Fantasy", "History", "Horror",
    "Musical", "Mystery", "Romance", "Science Fiction", "Thriller", "Western",
)
LANGUAGES = (
    "English", "French", "German", "Spanish", "Italian", "Japanese",
    "Korean", "Hindi", "Swedish", "Portuguese", "Mandarin", "Danish",
)
FIRST_NAMES = (
    "Ada", "Bruno", "Clara", "Dev", "Elena", "Farid", "Greta", "Hugo", "Ines",
    "Jonas", "Kira", "Leon", "Maya", "Nils", "Olga", "Pavel", "Quinn", "Rosa",
    "Sami", "Tara", "Umar", "Vera", "Wes", "Xenia", "Yusuf", "Zoe", "Arlo",
    "Bea", "Cyrus", "Dora", "Emil", "Fay", "Gus", "Hana", "Ivo", "Jade",
)
LAST_NAMES = (
    "Abbott", "Brandt", "Castillo", "Dubois", "Eriksen", "Fontaine", "Gallo",
    "Hart", "Ibsen", "Jansen", "Kowalski", "Lindqvist", "Moreau", "Novak",
    "Okafor", "Petrov", "Quist", "Rossi", "Sato", "Tanaka", "Ueda", "Varga",
    "Weber", "Xu", "Yilmaz", "Zeller", "Alves", "Becker", "Costa", "Duarte",
    "Engel", "Fischer", "Grant", "Holm", "Ishii", "Jovanovic", "Keller",
    "Laine", "Meyer", "Nakamura",
)
ADJECTIVES = (
    "Silent", "Dark", "Golden", "Broken", "Hidden", "Last", "Lost", "Wild",
    "Crimson", "Frozen", "Burning", "Quiet", "Electric", "Distant", "Eternal",
    "Savage", "Velvet", "Iron", "Paper", "Glass", "Hollow", "Bright",
    "Secret", "Lonely", "Rapid", "Fallen", "Sacred", "Little", "Great",
    "Bitter", "Blue", "Cold", "Dead", "Empty", "Final", "Free", "Gentle",
    "Hard", "Holy", "Long", "Lucky", "Mad", "Northern", "Open", "Pale",
    "Perfect", "Red", "Restless", "Royal", "Sleeping", "Stolen", "Strange",
    "Sweet", "True", "Twisted", "Wandering", "Wicked", "Young", "Black", "White",
)
NOUNS = (
    "River", "Storm", "City", "Heart", "Road", "Night", "Garden", "Empire",
    "Shadow", "Island", "Dream", "Star", "Fire", "Ocean", "Mountain", "Winter",
    "Summer", "Kingdom", "Machine", "Promise", "Witness", "Stranger", "Harbor",
    "Train", "Letter", "Mirror", "Horizon", "Echo", "Signal", "Frontier",
    "Voyage", "Crown", "Desert", "Forest", "Ghost", "Hunter", "Journey",
    "Knight", "Lake", "Legacy", "Memory", "Moon", "Orchard", "Painter",
    "Pilgrim", "Prince", "Rebel", "Saint", "Sea", "Secret", "Soldier", "Song",
    "Spring", "Sun", "Sword", "Tide", "Tower", "Valley", "Voice", "Wind",
    "Wolf", "World", "Angel", "Bridge", "Circle", "Daughter", "Door", "Dust",
    "Edge", "Field", "Game", "Gate", "Hand", "House", "Key", "Light", "Line",
    "Map", "Mark", "Path", "Room", "Rose", "Silence", "Sky", "Stone", "Street",
    "Thief", "Time", "Truth", "Water", "Wave", "Year", "Child", "Code", "Coast",
)
# Real catalogs hold one-word titles made of common words. Substring
# title matching finds them inside ordinary sentences, so they stay in:
# dropping them would hide that behaviour from the benchmark. The list is
# fixed and taken in order, so every seed gets the same ones.
SHORT_TITLES = (
    "Heat", "Jaws", "Fargo", "Alien", "Rocky", "Big", "Elf", "Saw", "Ray",
    "Cars", "Home", "Rain", "Up", "Her", "Us", "It", "Go", "Run", "Signs",
    "Speed", "Twister", "Brave", "Frozen", "Psycho", "Gravity", "Arrival",
    "Memento", "Cube", "Drive", "Crash", "Taken", "Split", "Glass", "Heat Wave",
    "Nope", "Coco", "Soul", "Luca", "Bolt", "Dune",
)


def title_pool(count: int, rng: random.Random) -> list[str]:
    """``count`` distinct titles: two-word, "The ...", "... of the ...",
    numbered sequels of earlier titles, and a fixed share of one-word ones."""
    short = list(SHORT_TITLES[: max(2, min(len(SHORT_TITLES), count // 500))])
    titles: list[str] = []
    seen: set[str] = set()

    def add(title: str) -> None:
        if title not in seen:
            seen.add(title)
            titles.append(title)

    for title in short:
        add(title)
    while len(titles) < count:
        roll = rng.random()
        if roll < 0.06 and len(titles) > 10:
            base = titles[rng.randrange(len(titles))]
            if not base[-1].isdigit():
                add(f"{base} {rng.randint(2, 12)}")
        elif roll < 0.40:
            add(f"{rng.choice(ADJECTIVES)} {rng.choice(NOUNS)}")
        elif roll < 0.65:
            add(f"The {rng.choice(ADJECTIVES)} {rng.choice(NOUNS)}")
        elif roll < 0.90:
            add(f"{rng.choice(NOUNS)} of the {rng.choice(NOUNS)}")
        else:
            add(f"The {rng.choice(NOUNS)}'s {rng.choice(NOUNS)}")
    order = titles[len(short):]
    rng.shuffle(order)
    # Keep the one-word titles spread through the catalog, not at its head.
    for position, title in zip(range(7, len(order), max(1, len(order) // len(short))), short):
        order.insert(position, title)
    return order[:count]


def _person(rng: random.Random) -> str:
    return f"{rng.choice(FIRST_NAMES)} {rng.choice(LAST_NAMES)}"


def catalog_records(size: int, seed: str) -> list[dict]:
    """A movie catalog of ``size`` items with the five attributes in SLOTS."""
    rng = random.Random(f"catalog|{seed}|{size}")
    directors = [_person(rng) for _ in range(max(8, size // 10))]
    actors = [_person(rng) for _ in range(max(16, size // 4))]
    records = []
    for title in title_pool(size, rng):
        records.append(
            {
                "id": title,
                "genre": sorted(rng.sample(GENRES, rng.choice((1, 1, 2)))),
                "director": rng.choice(directors),
                "actors": sorted(set(rng.choice(actors) for _ in range(rng.randint(2, 3)))),
                "year": str(rng.randint(1950, 2024)),
                "language": rng.choice(LANGUAGES),
            }
        )
    return records


def load_reference(root: Path) -> dict:
    path = root / "src" / "evalkit" / "data" / "reference_scores.json"
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def system_qualities(reference: dict) -> dict[str, float]:
    """Per-system recommendation quality in [0.2, 0.9], ordered like the
    fixture's human satisfaction so simulated rankings are meaningful."""
    satisfaction = reference["satisfaction"]
    top = max(satisfaction.values())
    return {
        crs_id: 0.2 + 0.7 * satisfaction[crs_id] / top
        for crs_id in sorted(reference["systems"])
    }


def write_json(path: Path, value) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(value, handle, ensure_ascii=False, separators=(",", ":"), sort_keys=True)


def write_compare_inputs(directory: Path, reference: dict) -> None:
    """Score maps the compare stage reads: the fixture's human RDL and
    human satisfaction per system."""
    write_json(directory / "human_rdl.json", reference["human_metrics"]["rdl"])
    write_json(directory / "satisfaction.json", reference["satisfaction"])


def _utt(index: int, speaker: str, text: str, acts: list, items=()) -> dict:
    return {"index": index, "speaker": speaker, "text": text, "acts": acts, "items": list(items)}


def _title_acts(intent: str, titles) -> dict:
    act: dict = {"intent": intent}
    if titles:
        act["slots"] = [{"slot": "TITLE", "value": t} for t in titles]
    return act


def annotated_dialogue(
    rng: random.Random,
    dialogue_id: str,
    crs_id: str,
    quality: float,
    titles: list[str],
    expected: dict,
    truth: dict,
) -> dict:
    """One annotated human-style dialogue plus its recall ground truth.

    ``expected`` accumulates, per system, what the benchmark expects
    evalkit to report: the standard-recall hits and target counts for n=1,
    the number of recommendation turns left without ground truth, and the
    dialogue count with the sums of each dialogue's success (SR), share of
    accepted rounds (SRRR) and accepted items per utterance (RDL).
    """
    utterances: list[dict] = []
    turns = rng.randint(1, 3)
    accepted = False
    accepted_titles: set[str] = set()
    # One entry per closed recommendation round: was it accepted?
    rounds: list[bool] = []
    open_round = False
    stats = expected.setdefault(
        crs_id,
        {"hits": 0, "targets": 0, "skipped": 0, "dialogues": 0, "sr_sum": 0.0, "srrr_sum": 0.0, "rdl_sum": 0.0},
    )
    for _ in range(turns):
        index = len(utterances)
        slot = rng.choice(SLOTS)
        if rng.random() < 0.5:
            utterances.append(
                _utt(index, "USER", f"I'm looking for something with {slot}.",
                     [{"intent": "Disclose", "slots": [{"slot": slot, "value": "x"}]}])
            )
        else:
            utterances.append(_utt(index, "USER", "What about the plot?", [{"intent": "Inquire"}]))
        index += 1
        roll = rng.random()
        if roll < 0.6:
            shown = rng.sample(titles, rng.choice((1, 1, 2, 3)))
            text = "Have you seen " + " or ".join(shown) + "?"
            utterances.append(_utt(index, "SYSTEM", text, [_title_acts("Recommend", shown)], shown))
            # A Recommend opens a round, or extends one still undecided.
            open_round = True
            if rng.random() < 0.9:
                targets = [shown[0]] if rng.random() < quality else []
                wanted = rng.choice((1, 1, 2))
                while len(targets) < wanted:
                    extra = rng.choice(titles)
                    if extra not in targets:
                        targets.append(extra)
                truth.setdefault(dialogue_id, {})[str(index)] = targets
                stats["targets"] += len(targets)
                stats["hits"] += 1 if shown[0] in targets else 0
            else:
                stats["skipped"] += 1
            index += 1
            decision = rng.random()
            if decision < quality * 0.5:
                accepted = True
                accepted_titles.add(shown[0])
                rounds.append(True)
                open_round = False
                utterances.append(
                    _utt(index, "USER", f"Great, I'll watch {shown[0]}.",
                         [_title_acts("Accept", shown[:1])], shown[:1])
                )
            elif decision < 0.8:
                rounds.append(False)
                open_round = False
                utterances.append(
                    _utt(index, "USER", f"No, {shown[0]} doesn't work for me.",
                         [_title_acts("Reject", shown[:1])], shown[:1])
                )
        elif roll < 0.8:
            utterances.append(_utt(index, "SYSTEM", "What genre do you like?", [{"intent": "Request"}]))
        else:
            utterances.append(
                _utt(index, "SYSTEM", "It is about a long journey.", [{"intent": "Explain"}])
            )
        if accepted and rng.random() < 0.5:
            break
    if open_round:
        rounds.append(False)
    stats["dialogues"] += 1
    stats["sr_sum"] += 1.0 if accepted else 0.0
    stats["srrr_sum"] += rounds.count(True) / len(rounds) if rounds else 0.0
    stats["rdl_sum"] += len(accepted_titles) / len(utterances)
    return {
        "dialogue_id": dialogue_id,
        "crs_id": crs_id,
        "provenance": "human",
        "satisfaction": "satisfied" if accepted or rng.random() < quality * 0.3 else "frustrated",
        "utterances": utterances,
    }


def write_annotated_corpus(
    directory: Path, seed: str, dialogues: int, reference: dict
) -> dict:
    """Write ``corpus.ndjson`` and ``ground_truth.json``; return what the
    checks expect: dialogues per system, and per system the counts and
    sums ``annotated_dialogue`` keeps."""
    rng = random.Random(f"corpus|{seed}|{dialogues}")
    titles = title_pool(2000, random.Random(f"corpus-titles|{seed}"))
    qualities = system_qualities(reference)
    counts = reference["dialogue_counts"]
    total = sum(counts.values())
    systems = sorted(counts)
    per_system = {s: dialogues * counts[s] // total for s in systems}
    per_system[systems[0]] += dialogues - sum(per_system.values())
    order = [s for s in systems for _ in range(per_system[s])]
    rng.shuffle(order)

    expected: dict = {}
    truth: dict = {}
    with open(directory / "corpus.ndjson", "w", encoding="utf-8", newline="\n") as handle:
        header = {"schema_version": "1", "source": "generated"}
        handle.write(json.dumps(header, separators=(",", ":")) + "\n")
        for number, crs_id in enumerate(order):
            record = annotated_dialogue(
                rng, f"h{number:06d}", crs_id, qualities[crs_id], titles, expected, truth
            )
            handle.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n")
    write_json(directory / "ground_truth.json", truth)
    return {"per_system": per_system, "counts": expected}
