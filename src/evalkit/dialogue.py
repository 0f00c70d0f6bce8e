"""Core domain types for annotated recommendation dialogues.

All types are immutable after construction and safe to share across
threads. Sequences are stored as tuples; unknown fields from external
records are carried in ``extra`` mappings so they survive a round-trip.
A parsed object without unknown fields shares one read-only empty
``extra`` mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Iterator, Mapping

from .errors import SchemaViolationError


class Speaker(str, Enum):
    USER = "USER"
    SYSTEM = "SYSTEM"


# Satisfaction labels are binary by design: a user leaves a conversation
# either satisfied or frustrated. Unlabeled dialogues carry None.
SATISFIED = "satisfied"
FRUSTRATED = "frustrated"
SATISFACTION_LABELS = (SATISFIED, FRUSTRATED)

PROVENANCE_HUMAN = "human"
PROVENANCE_SIMULATED = "simulated"
PROVENANCES = (PROVENANCE_HUMAN, PROVENANCE_SIMULATED)

# Intent labels the rest of the toolkit keys on.
ACCEPT = "Accept"
REJECT = "Reject"
RECOMMEND = "Recommend"
REQUEST = "Request"
DISCLOSE = "Disclose"
REFINE = "Refine"
INQUIRE = "Inquire"
OTHER = "Other"
BYE = "Bye"

# The slot that names a catalog item in Recommend, Accept and Reject acts.
ITEM_SLOT = "TITLE"


def _bundled_text(name: str) -> str:
    """The text of the package's bundled data file ``data/<name>``."""
    from importlib import resources  # on first use: most commands read no bundled file

    return resources.files("evalkit").joinpath(f"data/{name}").read_text("utf-8")


def _as_strings(values: Iterable) -> tuple[str, ...]:
    """``values`` as a tuple of str; a tuple of str is returned as it is."""
    if type(values) is tuple and all(type(value) is str for value in values):
        return values
    return tuple(map(str, values))


def _as_slot_pairs(slots: Iterable) -> tuple[tuple[str, str], ...]:
    """``slots`` as a tuple of (str, str) pairs; such a tuple is returned as it is."""
    if type(slots) is tuple:
        for pair in slots:
            if not (
                type(pair) is tuple and len(pair) == 2
                and type(pair[0]) is str and type(pair[1]) is str
            ):
                break
        else:
            return slots
    return tuple([(str(name), str(value)) for name, value in slots])


def _slot_fault(pairs: tuple[tuple[str, str], ...]) -> tuple[str, str] | None:
    """The first pair with an empty name or equal to an earlier pair, or None.

    The walk that finds it runs only when C-level tests say there is one.
    """
    if "" not in dict(pairs) and (len(pairs) < 2 or len(set(pairs)) == len(pairs)):
        return None
    seen = set()
    for pair in pairs:
        if not pair[0] or pair in seen:
            return pair
        seen.add(pair)
    return None


@dataclass(frozen=True)
class IntentSchema:
    """Closed sets of permitted intent labels, one per speaker role.

    The same label string may appear in both sets (it then names two
    role-scoped intents), but the two sets must not be identical: the
    role distinction is the point of having a schema.
    """

    user_intents: frozenset[str]
    system_intents: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "user_intents", frozenset(self.user_intents))
        object.__setattr__(self, "system_intents", frozenset(self.system_intents))
        for required in (ACCEPT, REJECT):
            if required not in self.user_intents:
                raise SchemaViolationError(f"user intents must include {required!r}")
        if RECOMMEND not in self.system_intents:
            raise SchemaViolationError(f"system intents must include {RECOMMEND!r}")
        if self.user_intents == self.system_intents:
            raise SchemaViolationError(
                "user and system intent sets must not be identical"
            )

    def intents_for(self, speaker: Speaker) -> frozenset[str]:
        return self.user_intents if speaker is Speaker.USER else self.system_intents

    def validate_act(self, act: "DialogueAct", speaker: Speaker) -> None:
        """Raise SchemaViolationError unless ``act`` is valid for ``speaker``."""
        if act.intent not in self.intents_for(speaker):
            raise SchemaViolationError(
                f"intent {act.intent!r} is not a {speaker.value} intent "
                f"in the configured schema"
            )

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "IntentSchema":
        return cls(
            user_intents=frozenset(record["user_intents"]),
            system_intents=frozenset(record["system_intents"]),
        )


def default_schema() -> IntentSchema:
    """Schema used for corpus annotation when none is supplied."""
    return IntentSchema(
        user_intents=frozenset(
            {DISCLOSE, REFINE, INQUIRE, ACCEPT, REJECT, OTHER}
        ),
        system_intents=frozenset(
            {RECOMMEND, "Explain", REQUEST, "Respond", OTHER}
        ),
    )


def simulation_schema() -> IntentSchema:
    """Default schema extended with a terminal user ``Bye`` intent.

    Simulated users need a way to end a conversation explicitly; annotated
    human corpora typically do not carry that label.
    """
    base = default_schema()
    return IntentSchema(
        user_intents=base.user_intents | {BYE},
        system_intents=base.system_intents,
    )


@dataclass(frozen=True)
class DialogueAct:
    """An intent with ordered slot-value pairs, e.g. Recommend(TITLE=...)."""

    intent: str
    slots: tuple[tuple[str, str], ...] = ()
    extra: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not self.intent:
            raise ValueError("act intent must be non-empty")
        object.__setattr__(self, "slots", _as_slot_pairs(self.slots))
        fault = _slot_fault(self.slots)
        if fault is not None:
            name, value = fault
            if not name:
                raise ValueError(f"slot name must be non-empty in {self.intent} act")
            raise ValueError(f"duplicate slot pair ({name}={value}) in {self.intent} act")

    def slot_values(self, name: str) -> tuple[str, ...]:
        """All values carried for slot ``name``, in order."""
        return tuple(v for n, v in self.slots if n == name)

    def __str__(self) -> str:
        if not self.slots:
            return f"{self.intent}()"
        inner = ", ".join(f"{n}={v!r}" for n, v in self.slots)
        return f"{self.intent}({inner})"


@dataclass(frozen=True)
class Utterance:
    """One turn: a speaker, its text, and optional acts and item mentions."""

    index: int
    speaker: Speaker
    text: str
    acts: tuple[DialogueAct, ...] = ()
    items: tuple[str, ...] = ()
    extra: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("utterance index must be >= 0")
        if not isinstance(self.speaker, Speaker):
            object.__setattr__(self, "speaker", Speaker(self.speaker))
        if type(self.acts) is not tuple:
            object.__setattr__(self, "acts", tuple(self.acts))
        object.__setattr__(self, "items", _as_strings(self.items))
        if "" in self.items:
            raise ValueError(f"utterance {self.index}: item identifiers must be non-empty")

    def has_intent(self, label: str) -> bool:
        return any(act.intent == label for act in self.acts)


@dataclass(frozen=True)
class UserGoal:
    """Constraints the sought item must satisfy plus attributes to ask about."""

    constraints: tuple[tuple[str, str], ...]
    requests: tuple[str, ...] = ()
    extra: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "constraints", _as_slot_pairs(self.constraints))
        object.__setattr__(self, "requests", _as_strings(self.requests))
        if not self.constraints:
            raise ValueError("a goal needs at least one constraint")
        fault = _slot_fault(self.constraints)
        if fault is not None:
            name, value = fault
            if not name:
                raise ValueError("constraint slot names must be non-empty")
            raise ValueError(f"duplicate constraint ({name}={value})")
        if "" in self.requests:
            raise ValueError("request attribute names must be non-empty")


@dataclass(frozen=True)
class Dialogue:
    """A full conversation between one user and one CRS."""

    dialogue_id: str
    crs_id: str
    utterances: tuple[Utterance, ...]
    satisfaction: str | None = None
    goal: UserGoal | None = None
    provenance: str = PROVENANCE_HUMAN
    simulator_id: str | None = None
    extra: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not self.dialogue_id:
            raise ValueError("dialogue_id must be non-empty")
        if not self.crs_id:
            raise ValueError("crs_id must be non-empty")
        object.__setattr__(self, "utterances", tuple(self.utterances))
        if not self.utterances:
            raise ValueError(f"dialogue {self.dialogue_id}: no utterances")
        for position, utterance in enumerate(self.utterances):
            if utterance.index != position:
                raise ValueError(
                    f"dialogue {self.dialogue_id}: utterance indexes must be "
                    f"consecutive from 0 (found {utterance.index} at {position})"
                )
        if self.satisfaction is not None and self.satisfaction not in SATISFACTION_LABELS:
            raise ValueError(
                f"dialogue {self.dialogue_id}: satisfaction must be one of "
                f"{SATISFACTION_LABELS}, got {self.satisfaction!r}"
            )
        if self.provenance not in PROVENANCES:
            raise ValueError(
                f"dialogue {self.dialogue_id}: provenance must be one of {PROVENANCES}"
            )
        if self.provenance == PROVENANCE_SIMULATED:
            if self.simulator_id is None or self.goal is None:
                raise ValueError(
                    f"dialogue {self.dialogue_id}: simulated dialogues need "
                    f"simulator_id and goal"
                )

    def __len__(self) -> int:
        """Turn count: utterances from both participants."""
        return len(self.utterances)

    def has_acts(self) -> bool:
        return any(u.acts for u in self.utterances)


@dataclass(frozen=True)
class Corpus:
    """An ordered collection of dialogues with a format version."""

    dialogues: tuple[Dialogue, ...] = ()
    schema_version: str = "1"
    extra: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "dialogues", tuple(self.dialogues))
        seen: set[str] = set()
        for dialogue in self.dialogues:
            if dialogue.dialogue_id in seen:
                raise ValueError(f"duplicate dialogue_id {dialogue.dialogue_id!r}")
            seen.add(dialogue.dialogue_id)

    def __len__(self) -> int:
        return len(self.dialogues)

    def __iter__(self) -> Iterator[Dialogue]:
        return iter(self.dialogues)

    def crs_ids(self) -> tuple[str, ...]:
        """Distinct system ids, sorted."""
        return tuple(sorted({d.crs_id for d in self.dialogues}))

    def by_system(self) -> dict[str, tuple[Dialogue, ...]]:
        """Dialogues grouped by crs_id, preserving corpus order within groups."""
        groups: dict[str, list[Dialogue]] = {}
        for dialogue in self.dialogues:
            groups.setdefault(dialogue.crs_id, []).append(dialogue)
        return {crs_id: tuple(ds) for crs_id, ds in groups.items()}
