"""Builders shared across test modules."""

from __future__ import annotations

import importlib.util
import random
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from evalkit import metrics
from evalkit.connectors import GatewayOptions, HttpLlmGateway, scripted_transport
from evalkit.dialogue import Corpus, Dialogue, DialogueAct, Speaker, Utterance

ITEMS = ("Alpha", "Beta", "Gamma", "Delta")
USER_INTENTS = ("Disclose", "Refine", "Inquire", "Accept", "Reject", "Other")
SYSTEM_INTENTS = ("Recommend", "Explain", "Request", "Respond", "Other")
LLM_OPTIONS = GatewayOptions(endpoint="http://llm.local/api/chat", model="test-model")
BENCH = Path(__file__).resolve().parents[1] / "bench"
# Few letters, so titles often nest in and overlap one another; case,
# digits and punctuation probe the word-boundary rule. "İ" lowers to two
# code points and "_" is a word character, so a phrase's head (its first
# character and the word characters after it) may change length on
# lowering or run through an underscore.
TITLE_ALPHABET = "abAB1 -!'İ_"


def bench_module(name: str):
    """The benchmark's module ``bench/<name>.py``, loaded by path: ``bench``
    is not a package."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced(call, *args):
    """``call(*args)``'s result, the peak of the bytes ``tracemalloc`` traced
    while it ran, and the bytes still traced after it: what the result holds."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, held - before


# Python 3.10 keeps a call's arguments on the caller's stack until the call
# returns, so there a mapping handed to ``evaluate_system`` lives as long.
needs_handed_over_arguments = pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="Python 3.10 holds a call's arguments until the call returns",
)


class Truth(dict):
    """A ground-truth mapping that a weakref can follow."""


class TruthProbe:
    """Hands out ``Truth`` copies of ground-truth mappings and records, each
    time ``metrics._reports`` runs, whether all of them are already freed."""

    def __init__(self, monkeypatch):
        self.refs: list[weakref.ref] = []
        self.freed_at_reports: list[bool] = []
        reports = metrics._reports

        def spy(*args):
            self.freed_at_reports.append(all(ref() is None for ref in self.refs))
            return reports(*args)

        monkeypatch.setattr(metrics, "_reports", spy)

    def truth(self, mapping) -> Truth:
        truth = Truth(mapping)
        self.refs.append(weakref.ref(truth))
        return truth


def act(intent: str, *slots: tuple[str, str]) -> DialogueAct:
    return DialogueAct(intent, tuple(slots))


def utt(index, speaker, acts=(), items=(), text=None) -> Utterance:
    built = tuple(a if isinstance(a, DialogueAct) else DialogueAct(a) for a in acts)
    return Utterance(
        index=index,
        speaker=Speaker(speaker),
        text=text if text is not None else f"turn {index}",
        acts=built,
        items=tuple(items),
    )


def dlg(dialogue_id, crs_id, utterances, **kwargs) -> Dialogue:
    return Dialogue(
        dialogue_id=dialogue_id,
        crs_id=crs_id,
        utterances=tuple(utterances),
        **kwargs,
    )


def turns(*specs) -> tuple[Utterance, ...]:
    """Build utterances from (speaker, acts) or (speaker, acts, items) specs."""
    built = []
    for index, spec in enumerate(specs):
        speaker, acts = spec[0], spec[1]
        items = spec[2] if len(spec) > 2 else ()
        built.append(utt(index, speaker, acts, items))
    return tuple(built)


def corpus(*dialogues, **kwargs) -> Corpus:
    return Corpus(dialogues=tuple(dialogues), **kwargs)


def random_dialogue(rng: random.Random, dialogue_id: str, crs_id: str) -> Dialogue:
    count = rng.randint(1, 8)
    utterances = []
    for index in range(count):
        speaker = rng.choice(("USER", "SYSTEM"))
        acts: list[DialogueAct] = []
        items: list[str] = []
        for _ in range(rng.randint(0, 2)):
            if speaker == "SYSTEM":
                intent = rng.choice(SYSTEM_INTENTS)
                if intent == "Recommend":
                    slots = tuple(
                        dict.fromkeys(
                            ("TITLE", rng.choice(ITEMS))
                            for _ in range(rng.randint(0, 2))
                        )
                    )
                    acts.append(DialogueAct(intent, slots))
                    if rng.random() < 0.5:
                        items = list(
                            dict.fromkeys(
                                rng.choice(ITEMS) for _ in range(rng.randint(1, 2))
                            )
                        )
                else:
                    acts.append(DialogueAct(intent))
            else:
                intent = rng.choice(USER_INTENTS)
                if intent == "Accept" and rng.random() < 0.6:
                    slots = tuple(
                        dict.fromkeys(
                            ("TITLE", rng.choice(ITEMS))
                            for _ in range(rng.randint(1, 2))
                        )
                    )
                    acts.append(DialogueAct(intent, slots))
                else:
                    acts.append(DialogueAct(intent))
        utterances.append(utt(index, speaker, acts, items))
    if not any(u.acts for u in utterances):
        utterances[0] = replace(utterances[0], acts=(DialogueAct("Other"),))
    satisfaction = rng.choice((None, "satisfied", "frustrated"))
    return dlg(dialogue_id, crs_id, utterances, satisfaction=satisfaction)


def random_corpus(rng: random.Random, max_dialogues: int = 4) -> Corpus:
    count = rng.randint(1, max_dialogues)
    dialogues = [
        random_dialogue(rng, f"d{i}", rng.choice(("sysA", "sysB")))
        for i in range(count)
    ]
    return corpus(*dialogues)


def llm_gateway(transport) -> HttpLlmGateway:
    """The one LLM client over ``transport``."""
    return HttpLlmGateway(LLM_OPTIONS, transport)


def scripted(replies) -> HttpLlmGateway:
    """The gateway a ``mock:`` endpoint with script ``replies`` gives."""
    return llm_gateway(scripted_transport(replies))


class RecordingTransport:
    """An LLM transport that records each request payload, then answers
    through ``transport``."""

    def __init__(self, transport):
        self.transport = transport
        self.payloads: list[dict] = []

    def __call__(self, url, payload, headers):
        self.payloads.append(payload)
        return self.transport(url, payload, headers)

    @property
    def calls(self) -> list[list[dict]]:
        """The messages of each request, in call order."""
        return [payload["messages"] for payload in self.payloads]
