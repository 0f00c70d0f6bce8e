"""Deterministic CRS and LLM endpoint doubles.

Both are transports in the sense of ``evalkit.connectors.Transport``:
callables taking ``(url, payload, headers)`` and returning the parsed JSON
reply. They are handed to ``HttpCrsConnector`` and ``HttpLlmGateway``, so
the toolkit's payload building, field mapping, reply parsing and retry
code runs exactly as it would against a live endpoint.

Every choice comes from ``random.Random`` seeded with a string built from
the session and the turn, so replies depend only on the conversation, not
on call order across sessions or on ``PYTHONHASHSEED``. Per-session state
lives in the double instance; build a fresh instance for every run.
"""

from __future__ import annotations

import random
import re
import sys
import threading
import time

CRS_REQUEST_FIELDS = {"session": "sid", "text": "message"}
CRS_RESPONSE_FIELDS = {"reply": "utterance", "items": "recommended", "end": "done"}

_CONSTRAINT = re.compile(r"(?:something with|Preferably) (\w+) (.+?)\.", re.IGNORECASE)
_INQUIRY = re.compile(r"What about the (\w+)\?")
_RECOMMENDED = re.compile(r"Have you seen (.+?)\?|You might also like (.+?)\.$")
_GOAL = re.compile(r"constraints: (.*?)\. information to ask about: (.*?)\.\n")
_HISTORY = re.compile(r"Conversation so far:\n(.*?)\n\n", re.DOTALL)

# Share of prompts whose first attempt at the LLM double fails transiently.
LLM_ERROR_RATE = 0.02

REQUEST_QUESTIONS = (
    "What genre are you in the mood for?",
    "Any preference on the year?",
    "Which actors do you like?",
    "What kind of story do you enjoy?",
)


class DoubleClock:
    """Seconds spent inside double code, so callers can subtract it.

    ``excluded`` returns a running total of time to leave out, such as a
    calibration kernel that a signal handler may run inside a double.
    """

    def __init__(self, excluded):
        self.seconds = 0.0
        self.excluded = excluded

    def timed(self, fn, *args):
        started = time.perf_counter()
        excluded = self.excluded()
        try:
            return fn(*args)
        finally:
            self.seconds += time.perf_counter() - started - (self.excluded() - excluded)


class CatalogView:
    """Read-only lookup over the generated catalog records.

    Built once per process; doubles only read it. It lives in the measured
    process beside the program's own catalog, so it is kept small: one
    tuple of value tuples per title, with equal strings and tuples shared.
    """

    def __init__(self, records: list[dict]):
        self.slots = {
            slot: position
            for position, slot in enumerate(sorted({slot for r in records for slot in r} - {"id"}))
        }
        shared: dict[tuple, tuple] = {}
        self.titles = []
        self.items: dict[str, tuple[tuple[str, ...], ...]] = {}
        index: dict[tuple[str, str], list[str]] = {}
        for record in records:
            title = sys.intern(record["id"])
            values = []
            for slot in self.slots:
                value = record.get(slot, [])
                value = tuple(sys.intern(v) for v in (value if isinstance(value, list) else [value]))
                values.append(shared.setdefault(value, value))
                for v in value:
                    index.setdefault((slot, v), []).append(title)
            self.titles.append(title)
            self.items[title] = tuple(values)
        self.index = index

    def footprint_bytes(self) -> int:
        """Bytes of the Python objects the view holds, each counted once."""
        seen: set[int] = set()
        pending: list = [self.slots, self.titles, self.items, self.index]
        total = 0
        while pending:
            obj = pending.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            total += sys.getsizeof(obj)
            if isinstance(obj, dict):
                pending.extend(obj.keys())
                pending.extend(obj.values())
            elif isinstance(obj, (list, tuple)):
                pending.extend(obj)
        return total

    def value_of(self, title: str, slot: str) -> list[str]:
        position = self.slots.get(slot)
        return [] if position is None else list(self.items[title][position])

    def satisfies(self, title: str, constraints) -> bool:
        if title not in self.items:
            return False
        return all(value in self.value_of(title, slot) for slot, value in constraints)

    def matching(self, constraints: dict[str, str]) -> list[str]:
        lists = [self.index.get(pair, []) for pair in constraints.items()]
        if not lists:
            return []
        lists.sort(key=len)
        rest = [set(other) for other in lists[1:]]
        return [t for t in lists[0] if all(t in s for s in rest)]


class CrsDouble:
    """A CRS that requests preferences, recommends, explains and answers.

    ``quality`` is the chance that a recommendation is drawn from the items
    matching what the user disclosed rather than from the whole catalog.
    """

    def __init__(self, view: CatalogView, crs_id: str, quality: float, clock: DoubleClock | None):
        self.view = view
        self.crs_id = crs_id
        self.quality = quality
        self.clock = clock
        self._sessions: dict[str, dict] = {}
        self._lock = threading.Lock()

    def __call__(self, url: str, payload: dict, headers: dict) -> dict:
        session, text = payload[CRS_REQUEST_FIELDS["session"]], payload[CRS_REQUEST_FIELDS["text"]]
        if self.clock is None:
            return self._reply(session, text)
        return self.clock.timed(self._reply, session, text)

    def _reply(self, session: str, text: str) -> dict:
        with self._lock:
            state = self._sessions.setdefault(
                session, {"turn": 0, "constraints": {}, "last": [], "shown": set()}
            )
        state["turn"] += 1
        rng = random.Random(f"crs|{self.crs_id}|{session}|{state['turn']}")
        for slot, value in _CONSTRAINT.findall(text):
            state["constraints"][slot.lower()] = value
        lowered = text.lower()

        if "goodbye" in lowered:
            return self._body("Goodbye, enjoy your movie night!", [], True)
        if "i'll watch" in lowered:
            return self._body("Enjoy the movie! Glad I could help.", [], rng.random() < 0.3)
        inquiry = _INQUIRY.search(text)
        if inquiry and state["last"]:
            return self._body(self._answer(state["last"][0], inquiry.group(1)), [], False)

        rejected = "doesn't work" in lowered or "anything else" in lowered
        if not rejected and not state["constraints"] and state["turn"] <= 2 and rng.random() < 0.5:
            return self._body(rng.choice(REQUEST_QUESTIONS), [], False)
        roll = rng.random()
        if rejected or roll < 0.65:
            return self._recommend(state, rng)
        if roll < 0.8 and state["last"] and state["constraints"]:
            value = sorted(state["constraints"].values())[0]
            return self._body(f"I picked {state['last'][0]} because you mentioned {value}.", [], False)
        return self._body(rng.choice(REQUEST_QUESTIONS), [], False)

    def _recommend(self, state: dict, rng: random.Random) -> dict:
        count = 2 if rng.random() < 0.3 else 1
        pool: list[str] = []
        if state["constraints"] and rng.random() < self.quality:
            pool = [t for t in self.view.matching(state["constraints"]) if t not in state["shown"]]
        picks: list[str] = []
        while len(picks) < count:
            if pool:
                title = pool.pop(rng.randrange(len(pool)))
            else:
                title = self.view.titles[rng.randrange(len(self.view.titles))]
            if title not in picks and title not in state["shown"]:
                picks.append(title)
        state["shown"].update(picks)
        state["last"] = picks
        text = f"Have you seen {picks[0]}?"
        if len(picks) > 1:
            text += f" You might also like {picks[1]}."
        return self._body(text, picks, False)

    def _answer(self, title: str, slot: str) -> str:
        values = self.view.value_of(title, slot)
        if not values:
            return "I am not sure about that one."
        if slot == "director":
            return f"The director is {values[0]}."
        if slot == "actors":
            return f"It stars {' and '.join(values)}."
        if slot == "year":
            return f"It was released in {values[0]}."
        if slot == "genre":
            return f"It is a {' and '.join(values).lower()} film."
        return f"It is in {values[0]}."

    @staticmethod
    def _body(text: str, items: list[str], end: bool) -> dict:
        return {
            CRS_RESPONSE_FIELDS["reply"]: text,
            CRS_RESPONSE_FIELDS["items"]: items,
            CRS_RESPONSE_FIELDS["end"]: end,
        }


class LlmDouble:
    """A chat-completion endpoint playing the user of an LLM simulator.

    It reads the goal and history out of the simulator's prompts, decides
    continue-or-abort, and writes the next user message. The first attempt
    at a prompt fails with a transient error ``LLM_ERROR_RATE`` of the time;
    retries of the same prompt always succeed, so the gateway's default
    retry budget is never exhausted.
    """

    def __init__(self, view: CatalogView, clock: DoubleClock, error_factory):
        self.view = view
        self.clock = clock
        self.error_factory = error_factory
        self._attempts: dict[str, int] = {}

    def __call__(self, url: str, payload: dict, headers: dict) -> dict:
        return self.clock.timed(self._reply, payload)

    def _reply(self, payload: dict) -> dict:
        prompt = payload["messages"][-1]["content"]
        attempt = self._attempts.get(prompt, 0)
        self._attempts[prompt] = attempt + 1
        rng = random.Random(f"llm|{prompt}")
        if attempt == 0 and rng.random() < LLM_ERROR_RATE:
            raise self.error_factory("gateway double answered status 503")
        if prompt.rstrip().endswith("Decision:"):
            text = self._decide(prompt, rng)
        else:
            text = self._generate(prompt, rng)
        return {"message": {"role": "assistant", "content": text}}

    @staticmethod
    def _parse(prompt: str):
        goal = _GOAL.search(prompt)
        constraints = []
        requests: list[str] = []
        if goal:
            for pair in goal.group(1).split("; "):
                slot, _, value = pair.partition(" = ")
                constraints.append((slot, value))
            if goal.group(2) != "(none)":
                requests = goal.group(2).split(", ")
        history = []
        block = _HISTORY.search(prompt)
        if block:
            for line in block.group(1).splitlines():
                speaker, sep, text = line.partition(": ")
                if sep and speaker in ("USER", "SYSTEM"):
                    history.append((speaker, text))
        return constraints, requests, history

    def _decide(self, prompt: str, rng: random.Random) -> str:
        constraints, requests, history = self._parse(prompt)
        user_lines = [text for speaker, text in history if speaker == "USER"]
        accepted = any("I'll watch" in text for text in user_lines)
        asked = all(any(f"the {r}?" in text for text in user_lines) for r in requests)
        if accepted and asked:
            return "abort: satisfied"
        if len(user_lines) >= 8:
            return "abort: no progress"
        if rng.random() < 0.02:
            return "Abort: this is going nowhere."
        return "continue"

    def _generate(self, prompt: str, rng: random.Random) -> str:
        constraints, requests, history = self._parse(prompt)
        user_lines = [text for speaker, text in history if speaker == "USER"]
        accepted = any("I'll watch" in text for text in user_lines)
        last_system = next((text for speaker, text in reversed(history) if speaker == "SYSTEM"), "")
        recommended = [a or b for a, b in _RECOMMENDED.findall(last_system)]
        if recommended and not accepted:
            for title in recommended:
                if self.view.satisfies(title, constraints):
                    return f"Great, I'll watch {title}. Thanks!"
            if rng.random() < 0.6:
                return f"No, {recommended[0]} doesn't work for me. Anything else?"
        for slot, value in constraints:
            if not any(f"{slot} {value}" in text for text in user_lines):
                return f"I'm looking for something with {slot} {value}."
        unasked = [r for r in requests if not any(f"the {r}?" in text for text in user_lines)]
        if unasked and (accepted or rng.random() < 0.5):
            return f"What about the {unasked[0]}?"
        slot, value = constraints[rng.randrange(len(constraints))]
        return f"Preferably {slot} {value}."
