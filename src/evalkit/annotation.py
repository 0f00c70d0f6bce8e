"""Dialogue-act annotation: rule-based and LLM-backed annotators plus scoring.

The rule annotator is a pure function of (utterance, cue lexicon, item
catalog) and exists as a deterministic offline path; the LLM annotator
builds a few-shot prompt and parses structured act lines out of the reply.
Both produce schema-valid acts only.
"""

from __future__ import annotations

import functools
import re
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from importlib import resources
from typing import Iterable, Iterator, Mapping, Sequence

from .analysis import average_ranks
from .catalog import ItemCatalog
from .connectors import LlmGateway
from .dialogue import (
    Corpus,
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
)
from .errors import (
    AlignmentError,
    AnnotationBatchError,
    AnnotationError,
    GatewayError,
    SchemaViolationError,
)

_ACT_LINE = re.compile(r"^\s*([A-Za-z_][\w-]*)\s*(?:\((.*)\))?\s*[.;]?\s*$")
_WORD = re.compile(r"\w")


@dataclass(frozen=True)
class AnnotationQuality:
    """Intent-level annotator quality against gold labels.

    Precision/recall are reported per intent and omitted where undefined
    (no predicted or no gold occurrences respectively). AUCs pool
    one-vs-rest (utterance, intent) decisions per speaker role and are
    None when only one class is present.
    """

    per_intent_precision: Mapping[str, float]
    per_intent_recall: Mapping[str, float]
    auc_user: float | None = None
    auc_system: float | None = None

    def __post_init__(self):
        for name, mapping in (
            ("precision", self.per_intent_precision),
            ("recall", self.per_intent_recall),
        ):
            for intent, value in mapping.items():
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"{name}[{intent}] out of [0,1]: {value}")
        for name, value in (("auc_user", self.auc_user), ("auc_system", self.auc_system)):
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of [0,1]: {value}")


def load_rule_lexicon(source=None) -> dict[str, tuple[str, ...]]:
    """Load an intent→cue-phrase table.

    Each line is ``intent<TAB>cue phrase``; blank lines and ``#`` comments
    are skipped. With no source, the bundled default lexicon is used.
    """
    if source is None:
        text = (
            resources.files("evalkit").joinpath("data/rule_lexicon.tsv").read_text("utf-8")
        )
    elif isinstance(source, str) and "\t" in source:
        text = source
    else:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    lexicon: dict[str, list[str]] = {}
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        intent, _, cue = line.partition("\t")
        cue = cue.strip().lower()
        if not intent or not cue:
            raise ValueError(f"bad lexicon line: {raw_line!r}")
        lexicon.setdefault(intent.strip(), []).append(cue)
    return {intent: tuple(cues) for intent, cues in lexicon.items()}


@functools.cache
def load_prompt_template(template_id: str) -> str:
    """The bundled prompt ``data/prompts/<template_id>.txt``, read once."""
    return (
        resources.files("evalkit")
        .joinpath(f"data/prompts/{template_id}.txt")
        .read_text("utf-8")
    )


def _fallback(allowed: frozenset[str], **extra) -> tuple[DialogueAct, ...]:
    """The acts of an utterance no rule or reply labels: ``Other`` where the
    speaker's ``allowed`` intents include it, otherwise none."""
    return (DialogueAct(OTHER, extra=extra),) if OTHER in allowed else ()


def _find_cue(text: str, cue: str) -> int:
    """Position of the first occurrence of ``cue`` in ``text`` that no word
    character (``\\w``) touches on either side, as for titles; -1 if none."""
    start = text.find(cue)
    while start >= 0:
        if not (start and _WORD.match(text, start - 1) or _WORD.match(text, start + len(cue))):
            return start
        start = text.find(cue, start + 1)
    return -1


class RuleAnnotator:
    """Deterministic cue-phrase annotator with a catalog title-matching pass.

    Repeat runs over the same inputs are byte-identical. Not a substitute
    for model-based annotation quality; it exists as an offline oracle.
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

    def annotate(
        self, utterance: Utterance, context: Sequence[Utterance] = ()
    ) -> tuple[DialogueAct, ...]:
        text = utterance.text.strip()
        if not text:
            return ()
        lowered = text.lower()
        allowed = self.schema.intents_for(utterance.speaker)

        matched: dict[str, int] = {}
        for intent, cues in self.lexicon.items():
            if intent not in allowed:
                continue
            positions = [p for p in (_find_cue(lowered, c) for c in cues) if p >= 0]
            if positions:
                matched[intent] = min(positions)

        found = self.catalog.find_titles(text) if self.catalog is not None else []
        titles = [title for _, title in found]
        if titles and utterance.speaker is Speaker.SYSTEM and RECOMMEND in allowed:
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


def _render_context(context: Sequence[Utterance]) -> str:
    if not context:
        return "(start of conversation)"
    return "\n".join(f"{u.speaker.value}: {u.text}" for u in context)


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
    """Few-shot prompting annotator backed by a chat-completion gateway."""

    def __init__(
        self,
        schema: IntentSchema,
        gateway: LlmGateway,
        few_shot_examples: Sequence[tuple[str, Sequence[DialogueAct]]],
    ):
        if not few_shot_examples:
            raise ValueError("llm annotation requires few-shot examples")
        self.schema = schema
        self.gateway = gateway
        self.template = load_prompt_template("annotate_acts")
        lines = []
        for text, acts in few_shot_examples:
            rendered = "; ".join(str(act) for act in acts) if acts else "None"
            lines.append(f"Utterance: {text}\nActs: {rendered}")
        self.examples = "\n".join(lines)

    def annotate(
        self, utterance: Utterance, context: Sequence[Utterance] = ()
    ) -> tuple[DialogueAct, ...]:
        if not utterance.text.strip():
            return ()
        allowed = self.schema.intents_for(utterance.speaker)
        prompt = self.template.format(
            schema=", ".join(sorted(allowed)),
            examples=self.examples,
            context=_render_context(context),
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
    utterances run on ``jobs`` threads (a RuleAnnotator runs inline,
    whatever ``jobs`` says) and are regrouped by dialogue, so the output
    never depends on scheduling. Per-utterance failures are aggregated into
    one AnnotationBatchError, raised after the last dialogue; a dialogue
    with a failure is not yielded.
    """

    def tasks():
        # One task per utterance to annotate, then (dialogue, None) to close the dialogue.
        for dialogue in dialogues:
            yield from ((dialogue, u) for u in dialogue.utterances if overwrite or not u.acts)
            yield dialogue, None

    def run_one(task):
        dialogue, utterance = task
        if utterance is None:
            return task, None
        try:
            return task, annotator.annotate(utterance, dialogue.utterances[: utterance.index])
        except AnnotationError as exc:
            return task, f"{dialogue.dialogue_id}[{utterance.index}]: {exc}"

    failures: list[str] = []
    done: dict[int, Utterance | None] = {}  # by index; None for a failed utterance
    # Rule annotation is CPU-bound under the GIL: threads would only add overhead.
    jobs = 1 if isinstance(annotator, RuleAnnotator) else jobs
    for (dialogue, utterance), outcome in in_order(run_one, tasks(), jobs):
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


def annotate_corpus(
    corpus: Corpus,
    annotator: RuleAnnotator | LlmAnnotator,
    overwrite: bool = False,
    jobs: int = 1,
) -> Corpus:
    """Collect ``iter_annotated`` over a corpus into one with its header."""
    dialogues = tuple(iter_annotated(corpus.dialogues, annotator, overwrite, jobs))
    return Corpus(dialogues, corpus.schema_version, corpus.extra)


def _roc_auc(instances: list[tuple[bool, float]]) -> float | None:
    """Rank-based AUC with average ranks for ties; None when one class only."""
    positives = sum(1 for label, _ in instances if label)
    negatives = len(instances) - positives
    if positives == 0 or negatives == 0:
        return None
    ordered = sorted(instances, key=lambda pair: pair[1])
    ranks = average_ranks([score for _, score in ordered])
    positive_rank_sum = sum(rank for (label, _), rank in zip(ordered, ranks) if label)
    return (positive_rank_sum - positives * (positives + 1) / 2) / (
        positives * negatives
    )


def _check_aligned(predicted: Corpus, gold: Corpus) -> None:
    predicted_ids = {d.dialogue_id for d in predicted.dialogues}
    gold_ids = {d.dialogue_id for d in gold.dialogues}
    if predicted_ids != gold_ids:
        raise AlignmentError(
            f"corpora cover different dialogues: "
            f"{sorted(predicted_ids ^ gold_ids)[:5]} ..."
        )
    gold_by_id = {d.dialogue_id: d for d in gold.dialogues}
    for dialogue in predicted.dialogues:
        other = gold_by_id[dialogue.dialogue_id]
        if len(dialogue.utterances) != len(other.utterances):
            raise AlignmentError(
                f"dialogue {dialogue.dialogue_id}: utterance counts differ"
            )
        for mine, theirs in zip(dialogue.utterances, other.utterances):
            if mine.speaker is not theirs.speaker:
                raise AlignmentError(
                    f"dialogue {dialogue.dialogue_id}[{mine.index}]: speakers differ"
                )


def evaluate_annotator(
    predicted: Corpus,
    gold: Corpus,
    confidences: Mapping[tuple[str, int, str], float] | None = None,
) -> AnnotationQuality:
    """Score predicted acts against gold at the intent level.

    Slot values are ignored. ``confidences`` optionally maps
    (dialogue_id, index, intent) to a score; binary act presence is used
    otherwise.
    """
    _check_aligned(predicted, gold)
    gold_by_id = {d.dialogue_id: d for d in gold.dialogues}

    tp: dict[str, int] = {}
    fp: dict[str, int] = {}
    fn: dict[str, int] = {}
    role_instances: dict[Speaker, list[tuple[bool, float]]] = {
        Speaker.USER: [],
        Speaker.SYSTEM: [],
    }
    role_labels: dict[Speaker, set[str]] = {Speaker.USER: set(), Speaker.SYSTEM: set()}
    pairs = []
    for dialogue in predicted.dialogues:
        gold_dialogue = gold_by_id[dialogue.dialogue_id]
        for mine, theirs in zip(dialogue.utterances, gold_dialogue.utterances):
            pairs.append((dialogue.dialogue_id, mine, theirs))
            role_labels[mine.speaker].update(mine.intents())
            role_labels[mine.speaker].update(theirs.intents())

    for dialogue_id, mine, theirs in pairs:
        predicted_intents = set(mine.intents())
        gold_intents = set(theirs.intents())
        for intent in predicted_intents | gold_intents:
            if intent in predicted_intents and intent in gold_intents:
                tp[intent] = tp.get(intent, 0) + 1
            elif intent in predicted_intents:
                fp[intent] = fp.get(intent, 0) + 1
            else:
                fn[intent] = fn.get(intent, 0) + 1
        for intent in sorted(role_labels[mine.speaker]):
            if confidences is not None and (dialogue_id, mine.index, intent) in confidences:
                score = confidences[(dialogue_id, mine.index, intent)]
            else:
                score = 1.0 if intent in predicted_intents else 0.0
            role_instances[mine.speaker].append((intent in gold_intents, score))

    precision = {
        intent: tp.get(intent, 0) / (tp.get(intent, 0) + fp.get(intent, 0))
        for intent in set(tp) | set(fp)
        if tp.get(intent, 0) + fp.get(intent, 0) > 0
    }
    recall = {
        intent: tp.get(intent, 0) / (tp.get(intent, 0) + fn.get(intent, 0))
        for intent in set(tp) | set(fn)
        if tp.get(intent, 0) + fn.get(intent, 0) > 0
    }
    return AnnotationQuality(
        per_intent_precision=precision,
        per_intent_recall=recall,
        auc_user=_roc_auc(role_instances[Speaker.USER]),
        auc_system=_roc_auc(role_instances[Speaker.SYSTEM]),
    )
