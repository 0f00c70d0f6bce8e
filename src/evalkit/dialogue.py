"""Core domain types for annotated recommendation dialogues.

All types are frozen dataclasses, immutable after construction and safe
to share across threads. The four built per parsed record (``Dialogue``,
``Utterance``, ``DialogueAct``, ``UserGoal``) have a hand-written
``__init__`` that checks and normalizes its arguments once and stores
the results straight into the instance ``__dict__``; assignment still
raises ``FrozenInstanceError``. ``DialogueAct`` and ``UserGoal`` check
the usual shape inline, a tuple of distinct (name, value) string tuples
with non-empty names (and for a goal, a tuple of non-empty request
strings), and store it as it is, as ``Utterance`` does for its items;
any other shape takes the general checks (``_as_slot_pairs``,
``_as_strings``, ``_slot_fault``), which give each fault its message.
Sequences are stored as tuples, and item ids, slot names and values and
request names must be strings (the corpus parser turns JSON numbers
into strings first). Unknown fields from external records are carried
in ``extra`` mappings so they survive a round-trip. An omitted ``extra``
is a new empty dict; a parsed object without unknown fields shares one
read-only empty ``extra`` mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Iterator, Mapping

from .errors import SchemaViolationError


class Speaker(str, Enum):
    USER = "USER"
    SYSTEM = "SYSTEM"


# For the per-utterance paths: ``Speaker.USER`` itself costs about 0.12 µs
# a lookup on 3.10 and 3.11.
_USER = Speaker.USER
_SYSTEM = Speaker.SYSTEM

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


def _table_lines(text: str) -> list[tuple[int, str]]:
    """``(line number from 1, line)`` for each line of a tab-separated table
    file that is neither blank nor a comment (first non-blank ``#``)."""
    lines = enumerate(text.splitlines(), 1)
    return [(number, line) for number, line in lines if line.strip() and line.lstrip()[0] != "#"]


def _as_strings(values: Iterable[str], what: str) -> tuple[str, ...]:
    """``values`` as a tuple; a tuple is returned as it is. TypeError names
    ``what`` if a value is not a string."""
    if type(values) is not tuple:
        values = tuple(values)
    for value in values:
        if not isinstance(value, str):
            raise TypeError(f"{what} must be strings, not {type(value).__name__}")
    return values


def _as_slot_pairs(slots: Iterable[tuple[str, str]]) -> tuple[tuple[str, str], ...]:
    """``slots`` as a new tuple of (name, value) tuples. TypeError if a name
    or value is not a string."""
    pairs = tuple([(name, value) for name, value in slots])
    for name, value in pairs:
        if not (isinstance(name, str) and isinstance(value, str)):
            wrong = value if isinstance(name, str) else name
            raise TypeError(f"slot names and values must be strings, not {type(wrong).__name__}")
    return pairs


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
        return self.user_intents if speaker is _USER else self.system_intents

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


@dataclass(frozen=True, init=False)
class DialogueAct:
    """An intent with ordered slot-value pairs, e.g. Recommend(TITLE=...)."""

    intent: str
    slots: tuple[tuple[str, str], ...] = ()
    extra: Mapping[str, Any] = field(default_factory=dict)

    def __init__(
        self,
        intent: str,
        slots: Iterable[tuple[str, str]] = (),
        extra: Mapping[str, Any] | None = None,
    ):
        if not intent:
            raise ValueError("act intent must be non-empty")
        # The usual shape, a tuple of distinct (name, value) string tuples
        # with non-empty names, is checked inline; any other shape takes the
        # general checks, which give each fault its message.
        general = type(slots) is not tuple
        if not general:
            for pair in slots:
                if not (
                    type(pair) is tuple and len(pair) == 2
                    and type(pair[0]) is str and type(pair[1]) is str and pair[0]
                ):
                    general = True
                    break
            else:
                general = len(slots) > 1 and len(set(slots)) != len(slots)
        if general:
            slots = _as_slot_pairs(slots)
            fault = _slot_fault(slots)
            if fault is not None:
                name, value = fault
                if not name:
                    raise ValueError(f"slot name must be non-empty in {intent} act")
                raise ValueError(f"duplicate slot pair ({name}={value}) in {intent} act")
        fields = self.__dict__
        fields["intent"] = intent
        fields["slots"] = slots
        fields["extra"] = {} if extra is None else extra

    def slot_values(self, name: str) -> tuple[str, ...]:
        """All values carried for slot ``name``, in order."""
        return tuple(v for n, v in self.slots if n == name)

    def __str__(self) -> str:
        if not self.slots:
            return f"{self.intent}()"
        inner = ", ".join(f"{n}={v!r}" for n, v in self.slots)
        return f"{self.intent}({inner})"


@dataclass(frozen=True, init=False)
class Utterance:
    """One turn: a speaker, its text, and optional acts and item mentions."""

    index: int
    speaker: Speaker
    text: str
    acts: tuple[DialogueAct, ...] = ()
    items: tuple[str, ...] = ()
    extra: Mapping[str, Any] = field(default_factory=dict)

    def __init__(
        self,
        index: int,
        speaker: Speaker | str,
        text: str,
        acts: Iterable[DialogueAct] = (),
        items: Iterable[str] = (),
        extra: Mapping[str, Any] | None = None,
    ):
        if index < 0:
            raise ValueError("utterance index must be >= 0")
        if type(speaker) is not Speaker:
            speaker = Speaker(speaker)
        if type(acts) is not tuple:
            acts = tuple(acts)
        if type(items) is not tuple:
            items = tuple(items)
        # Non-empty exact strings are checked inline; any other item takes
        # the general checks, which give each fault its message.
        for item in items:
            if type(item) is not str or not item:
                items = _as_strings(items, "item identifiers")
                if "" in items:
                    raise ValueError(f"utterance {index}: item identifiers must be non-empty")
                break
        fields = self.__dict__
        fields["index"] = index
        fields["speaker"] = speaker
        fields["text"] = text
        fields["acts"] = acts
        fields["items"] = items
        fields["extra"] = {} if extra is None else extra


@dataclass(frozen=True, init=False)
class UserGoal:
    """Constraints the sought item must satisfy plus attributes to ask about."""

    constraints: tuple[tuple[str, str], ...]
    requests: tuple[str, ...] = ()
    extra: Mapping[str, Any] = field(default_factory=dict)

    def __init__(
        self,
        constraints: Iterable[tuple[str, str]],
        requests: Iterable[str] = (),
        extra: Mapping[str, Any] | None = None,
    ):
        # The usual shape, a non-empty tuple of distinct (name, value) string
        # tuples with non-empty names and a tuple of non-empty strings, is
        # checked inline, as in DialogueAct; any other shape takes the
        # general checks, which give each fault its message.
        general = type(constraints) is not tuple or not constraints or type(requests) is not tuple
        if not general:
            for pair in constraints:
                if not (
                    type(pair) is tuple and len(pair) == 2
                    and type(pair[0]) is str and type(pair[1]) is str and pair[0]
                ):
                    general = True
                    break
            else:
                for request in requests:
                    if type(request) is not str or not request:
                        general = True
                        break
                else:
                    general = len(constraints) > 1 and len(set(constraints)) != len(constraints)
        if general:
            constraints = _as_slot_pairs(constraints)
            requests = _as_strings(requests, "request attribute names")
            if not constraints:
                raise ValueError("a goal needs at least one constraint")
            fault = _slot_fault(constraints)
            if fault is not None:
                name, value = fault
                if not name:
                    raise ValueError("constraint slot names must be non-empty")
                raise ValueError(f"duplicate constraint ({name}={value})")
            if "" in requests:
                raise ValueError("request attribute names must be non-empty")
        fields = self.__dict__
        fields["constraints"] = constraints
        fields["requests"] = requests
        fields["extra"] = {} if extra is None else extra


@dataclass(frozen=True, init=False)
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

    def __init__(
        self,
        dialogue_id: str,
        crs_id: str,
        utterances: Iterable[Utterance],
        satisfaction: str | None = None,
        goal: UserGoal | None = None,
        provenance: str = PROVENANCE_HUMAN,
        simulator_id: str | None = None,
        extra: Mapping[str, Any] | None = None,
    ):
        if not dialogue_id:
            raise ValueError("dialogue_id must be non-empty")
        if not crs_id:
            raise ValueError("crs_id must be non-empty")
        if type(utterances) is not tuple:
            utterances = tuple(utterances)
        if not utterances:
            raise ValueError(f"dialogue {dialogue_id}: no utterances")
        for position, utterance in enumerate(utterances):
            if utterance.index != position:
                raise ValueError(
                    f"dialogue {dialogue_id}: utterance indexes must be "
                    f"consecutive from 0 (found {utterance.index} at {position})"
                )
        if satisfaction is not None and satisfaction not in SATISFACTION_LABELS:
            raise ValueError(
                f"dialogue {dialogue_id}: satisfaction must be one of "
                f"{SATISFACTION_LABELS}, got {satisfaction!r}"
            )
        if provenance not in PROVENANCES:
            raise ValueError(
                f"dialogue {dialogue_id}: provenance must be one of {PROVENANCES}"
            )
        if provenance == PROVENANCE_SIMULATED:
            if simulator_id is None or goal is None:
                raise ValueError(
                    f"dialogue {dialogue_id}: simulated dialogues need "
                    f"simulator_id and goal"
                )
        fields = self.__dict__
        fields["dialogue_id"] = dialogue_id
        fields["crs_id"] = crs_id
        fields["utterances"] = utterances
        fields["satisfaction"] = satisfaction
        fields["goal"] = goal
        fields["provenance"] = provenance
        fields["simulator_id"] = simulator_id
        fields["extra"] = {} if extra is None else extra

    def __len__(self) -> int:
        """Turn count: utterances from both participants."""
        return len(self.utterances)


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

    def by_system(self) -> dict[str, tuple[Dialogue, ...]]:
        """Dialogues grouped by crs_id, preserving corpus order within groups."""
        groups: dict[str, list[Dialogue]] = {}
        for dialogue in self.dialogues:
            groups.setdefault(dialogue.crs_id, []).append(dialogue)
        return {crs_id: tuple(ds) for crs_id, ds in groups.items()}
