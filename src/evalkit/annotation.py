"""Dialogue-act annotation: rule-based and LLM-backed annotators.

The rule annotator is a pure function of (utterance, cue lexicon, item
catalog) and exists as a deterministic offline path; the LLM annotator
builds a few-shot prompt and parses structured act lines out of the reply.
Both produce schema-valid acts only.
"""

from __future__ import annotations

import functools
import re
from collections import deque
from dataclasses import replace
from itertools import takewhile
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .dialogue import (
    _SYSTEM,
    Dialogue,
    DialogueAct,
    ITEM_SLOT,
    IntentSchema,
    OTHER,
    RECOMMEND,
    ACCEPT,
    REJECT,
    Speaker,
    Utterance,
    _bundled_text,
    _table_lines,
)
from .errors import (
    AnnotationBatchError,
    AnnotationError,
    GatewayError,
    SchemaViolationError,
)

if TYPE_CHECKING:
    from .catalog import ItemCatalog
    from .connectors import HttpLlmGateway

_ACT_LINE = re.compile(r"^\s*([A-Za-z_][\w-]*)\s*(?:\((.*)\))?\s*[.;]?\s*$")
# The built-in few-shot examples of llm-mode annotation, as prompts show them.
_FEW_SHOT = (
    "Utterance: Have you seen Heat? It is a classic crime film.\n"
    "Acts: Recommend(TITLE='Heat')\n"
    "Utterance: Great, I'll watch that one tonight, thanks!\n"
    "Acts: Accept()\n"
    "Utterance: Not a fan of horror. Anything lighter?\n"
    "Acts: Reject()"
)
# Characters of transcript an LLM prompt keeps, newest first.
_TRANSCRIPT_BUDGET = 4000
TRUNCATION_MARKER = "[earlier turns omitted]"


def load_rule_lexicon(path=None) -> dict[str, tuple[str, ...]]:
    """Load an intent→cue-phrase table from the file at ``path``.

    Each line is ``intent<TAB>cue phrase``; blank lines and comments, whose
    first non-blank character is ``#``, are skipped; a ValueError names a
    bad line's number. With no path, the bundled default lexicon is used.
    """
    if path is None:
        text = _bundled_text("rule_lexicon.tsv")
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    lexicon: dict[str, list[str]] = {}
    for number, raw_line in _table_lines(text):
        intent, _, cue = raw_line.strip().partition("\t")
        cue = cue.strip().lower()
        if not intent or not cue:
            raise ValueError(f"line {number}: {raw_line!r} is not an intent, a tab and a cue")
        lexicon.setdefault(intent.strip(), []).append(cue)
    return {intent: tuple(cues) for intent, cues in lexicon.items()}


@functools.cache
def load_prompt_template(template_id: str) -> str:
    """The bundled prompt ``data/prompts/<template_id>.txt``, read once."""
    return _bundled_text(f"prompts/{template_id}.txt")


def _fallback(allowed: frozenset[str], **extra) -> tuple[DialogueAct, ...]:
    """The acts of an utterance no rule or reply labels: ``Other`` where the
    speaker's ``allowed`` intents include it, otherwise none."""
    return (DialogueAct(OTHER, extra=extra),) if OTHER in allowed else ()


class RuleAnnotator:
    """Deterministic cue-phrase annotator with a catalog title-matching pass.

    Cues match whole, as titles do, and compile on the first ``annotate``
    call. Repeat runs over the same inputs are byte-identical. Not a
    substitute for model-based annotation quality; it exists as an offline oracle.
    """

    def __init__(
        self,
        schema: IntentSchema,
        lexicon: Mapping[str, Sequence[str]] | None = None,
        catalog: ItemCatalog | None = None,
    ):
        self.schema = schema
        raw = lexicon if lexicon is not None else load_rule_lexicon()
        self.lexicon = {
            intent: tuple(cue.lower() for cue in cues) for intent, cues in raw.items()
        }
        self.catalog = catalog

    @functools.cached_property
    def _cue_patterns(self) -> dict[Speaker, list[tuple[str, re.Pattern]]]:
        """Per speaker, (intent, pattern) for each allowed intent with cues
        (an empty alternation matches anywhere); a match is the leftmost cue."""
        return {
            speaker: [
                (intent, re.compile(r"(?<!\w)(?:" + "|".join(map(re.escape, cues)) + r")(?!\w)"))
                for intent, cues in self.lexicon.items()
                if cues and intent in self.schema.intents_for(speaker)
            ]
            for speaker in Speaker
        }

    def annotate(
        self, utterance: Utterance, context: Sequence[Utterance] = ()
    ) -> tuple[DialogueAct, ...]:
        text = utterance.text.strip()
        if not text:
            return ()
        lowered = text.lower()
        allowed = self.schema.intents_for(utterance.speaker)

        matched: dict[str, int] = {}
        for intent, pattern in self._cue_patterns[utterance.speaker]:
            match = pattern.search(lowered)
            if match:
                matched[intent] = match.start()

        found = self.catalog.find_titles(text) if self.catalog is not None else []
        titles = [title for _, title in found]
        if titles and utterance.speaker is _SYSTEM and RECOMMEND in allowed:
            matched.setdefault(RECOMMEND, found[0][0])

        if not matched:
            return _fallback(allowed)

        acts = []
        for intent in sorted(matched, key=lambda i: (matched[i], i)):
            slots: tuple[tuple[str, str], ...] = ()
            if titles and intent in (RECOMMEND, ACCEPT, REJECT):
                slots = tuple((ITEM_SLOT, title) for title in titles)
            acts.append(DialogueAct(intent, slots))
        return tuple(acts)


def render_transcript(turns: Sequence[tuple[str, str]]) -> str:
    """``SPEAKER: text`` lines for the (speaker, text) ``turns`` of an LLM
    prompt: the newest that fit in ``_TRANSCRIPT_BUDGET`` characters (always
    the last), under ``TRUNCATION_MARKER`` when older ones are left out."""
    if not turns:
        return "(start of conversation)"
    kept: list[str] = []
    used = 0
    for speaker, text in reversed(turns):
        line = f"{speaker}: {text}"
        if kept and used + len(line) + 1 > _TRANSCRIPT_BUDGET:
            kept.append(TRUNCATION_MARKER)
            break
        kept.append(line)
        used += len(line) + 1
    return "\n".join(reversed(kept))


def parse_act_lines(reply: str, schema: IntentSchema, speaker: Speaker) -> tuple[DialogueAct, ...]:
    """Parse an LLM reply into acts.

    Expected format: one act per line, ``Intent(SLOT=value; SLOT=value)`` or
    bare ``Intent``; the literal ``None`` means no act. Raises ValueError on
    any line that does not conform or names an out-of-schema intent.
    """
    acts = []
    for line in reply.strip().splitlines():
        line = line.strip().strip("`")
        if not line:
            continue
        if line.lower() in ("none", "none()", "no act", "[]"):
            continue
        match = _ACT_LINE.match(line)
        if not match:
            raise ValueError(f"unparseable act line: {line!r}")
        intent, slot_text = match.group(1), match.group(2)
        slots = []
        if slot_text and slot_text.strip():
            for chunk in slot_text.split(";"):
                chunk = chunk.strip()
                if not chunk:
                    continue
                name, sep, value = chunk.partition("=")
                if not sep:
                    raise ValueError(f"unparseable slot {chunk!r} in {line!r}")
                slots.append((name.strip(), value.strip().strip("'\"")))
        act = DialogueAct(intent, tuple(slots))
        schema.validate_act(act, speaker)
        acts.append(act)
    return tuple(acts)


class LlmAnnotator:
    """Few-shot prompting annotator backed by a chat-completion gateway,
    with built-in examples."""

    def __init__(self, schema: IntentSchema, gateway: HttpLlmGateway):
        self.schema = schema
        self.gateway = gateway
        self.template = load_prompt_template("annotate_acts")

    def annotate(
        self, utterance: Utterance, context: Sequence[Utterance] = ()
    ) -> tuple[DialogueAct, ...]:
        if not utterance.text.strip():
            return ()
        allowed = self.schema.intents_for(utterance.speaker)
        prompt = self.template.format(
            schema=", ".join(sorted(allowed)),
            examples=_FEW_SHOT,
            context=render_transcript([(u.speaker.value, u.text) for u in context]),
            utterance=utterance.text,
        )
        messages = [{"role": "user", "content": prompt}]
        # One retry on an unparseable reply, then fall back (with a warning
        # flag) so downstream pipelines stay total.
        for attempt in range(2):
            try:
                reply = self.gateway.complete(messages)
            except GatewayError as exc:
                raise AnnotationError(
                    f"utterance {utterance.index}: gateway failure: {exc}"
                ) from exc
            try:
                return parse_act_lines(reply, self.schema, utterance.speaker)
            except (ValueError, SchemaViolationError):
                continue
        return _fallback(allowed, warning="llm-reply-unparseable")


def in_order(fn, items: Iterable, jobs: int) -> Iterator:
    """Ordered ``map(fn, items)`` on ``jobs`` threads, at most 4 x ``jobs`` calls ahead."""
    if jobs <= 1:
        yield from map(fn, items)
        return
    # Imported here: it pulls in logging, and no single-job run needs it.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        pending: deque = deque()
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) == 4 * jobs:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def iter_annotated(
    dialogues: Iterable[Dialogue],
    annotator: RuleAnnotator | LlmAnnotator,
    overwrite: bool = False,
    jobs: int = 1,
) -> Iterator[Dialogue]:
    """Annotate every utterance of a dialogue stream, yielding dialogues in order.

    Existing acts are kept unless ``overwrite`` is set. An LlmAnnotator's
    utterances run on ``jobs`` threads and are regrouped by dialogue, so the
    output never depends on scheduling. A RuleAnnotator runs inline
    whatever ``jobs`` says.
    Per-utterance failures are aggregated into one AnnotationBatchError,
    raised after the last dialogue; a dialogue with a failure is not
    yielded. After a transient gateway failure has used up its retries, no
    further utterance starts: the ones in flight finish, then it raises.
    """
    halted = False

    def tasks():
        # One task per utterance to annotate, then (dialogue, None) to close the dialogue.
        for dialogue in dialogues:
            yield from ((dialogue, u) for u in dialogue.utterances if overwrite or not u.acts)
            yield dialogue, None

    def run_one(task):
        nonlocal halted
        dialogue, utterance = task
        if utterance is None:
            return task, None
        try:
            return task, annotator.annotate(utterance, dialogue.utterances[: utterance.index])
        except AnnotationError as exc:
            halted |= isinstance(exc.__cause__, GatewayError) and exc.__cause__.transient
            return task, f"{dialogue.dialogue_id}[{utterance.index}]: {exc}"

    failures: list[str] = []
    done: dict[int, Utterance | None] = {}  # by index; None for a failed utterance
    # Rule annotation is CPU-bound under the GIL: threads would only add overhead.
    if isinstance(annotator, RuleAnnotator):
        jobs = 1
    started = takewhile(lambda task: not halted, tasks())
    for (dialogue, utterance), outcome in in_order(run_one, started, jobs):
        if isinstance(outcome, str):
            failures.append(outcome)
            done[utterance.index] = None
        elif utterance is not None:
            done[utterance.index] = replace(utterance, acts=outcome)
        else:
            if None not in done.values():
                utterances = tuple(done.get(u.index, u) for u in dialogue.utterances)
                yield replace(dialogue, utterances=utterances) if done else dialogue
            done = {}
    if failures:
        raise AnnotationBatchError(sorted(failures))

