"""Boundary adapters: LLM chat-completion gateway and CRS endpoint clients.

There is one client per kind of endpoint, ``HttpLlmGateway`` and
``HttpCrsConnector``, and each speaks a minimal JSON-over-HTTP contract
through a transport. The live transport is ``post_json``. The offline
ones answer in process: ``scripted_transport`` serves an LLM script, and
``make_stub`` builds the bundled stub CRSs. Both are deterministic and
side-effect-free, so the whole test suite runs without network access,
and an offline run builds and checks every request and reply as a live
one does.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Protocol, Sequence

from .corpus_io import _fault, _text
from .errors import (
    ConnectorError,
    ConnectorTimeout,
    GatewayError,
    GatewayTimeout,
    ScriptExhaustedError,
)

Message = Mapping[str, str]
# A transport takes (url, json payload, headers) and returns the parsed
# JSON reply; injecting one keeps request-building logic testable.
Transport = Callable[[str, dict, dict], dict]
# Immediate retries of a transient LLM failure, after the first attempt.
LLM_RETRIES = 2


def bearer_headers(token: str | None) -> dict[str, str]:
    return {"Authorization": f"Bearer {token}"} if token else {}


def check_timeout(timeout: float) -> None:
    """ValueError unless ``timeout`` is a finite positive number of seconds."""
    # False for NaN, for an infinity and for an int too large for a float.
    if not 0 < timeout <= sys.float_info.max:
        raise ValueError("timeout must be a finite positive number")


@dataclass(frozen=True)
class GatewayOptions:
    """Connection settings for a chat-completion endpoint."""

    endpoint: str
    model: str
    timeout: float = 30.0
    auth_token: str | None = None

    def __post_init__(self):
        check_timeout(self.timeout)


def post_json(url: str, payload: dict, headers: dict, timeout: float) -> dict:
    """The one HTTP transport: POST a JSON payload, return the parsed JSON reply.

    Failures are sorted here for every client: a timeout raises
    ``GatewayTimeout``; a connection error or a status >= 500 raises a
    transient ``GatewayError``; any other status >= 400 or a non-JSON body
    raises a permanent one. Status and body errors keep the response text
    in ``raw_body``.
    """
    import requests  # on first use: no offline command pays for importing it

    try:
        response = requests.post(url, json=payload, headers=headers, timeout=timeout)
    except requests.Timeout as exc:
        raise GatewayTimeout(f"request to {url} timed out after {timeout}s") from exc
    except requests.RequestException as exc:
        raise GatewayError(f"request to {url} failed: {exc}", transient=True) from exc
    if response.status_code >= 400:
        raise GatewayError(
            f"{url} answered status {response.status_code}: {response.text[:200]}",
            transient=response.status_code >= 500,
            raw_body=response.text,
        )
    try:
        return response.json()
    except ValueError as exc:
        raise GatewayError(
            f"{url} returned non-JSON body", raw_body=response.text
        ) from exc


def _extract_text(body: Any) -> str:
    """The text of an LLM reply: a string as it is, a number through ``str``.

    Accepts the common reply shapes: {"text": ...}, {"response": ...} and
    chat-style {"message": {"content": ...}}. Any other body, or a text of
    any other type, is a permanent ``GatewayError``.
    """
    if not isinstance(body, Mapping):
        raise GatewayError("gateway reply is not an object")
    message = body.get("message")
    for holder, key in ((body, "text"), (body, "response"), (message, "content")):
        if isinstance(holder, Mapping) and key in holder:
            try:
                return _text(holder[key], f"gateway reply field {key!r}")
            except TypeError as exc:
                raise GatewayError(str(exc)) from None
    raise GatewayError(f"gateway reply has no text field: {json.dumps(body)[:200]}")


class HttpLlmGateway:
    """Chat-completion client for any endpoint speaking the wire contract.

    The request body carries the model id, the role-tagged message list,
    temperature 0 and stream off: fixed, for reproducible replies and
    because many endpoints stream unless told not to. Transient failures
    are retried immediately, up to ``LLM_RETRIES`` times.
    """

    def __init__(self, options: GatewayOptions, transport: Transport | None = None):
        self.options = options
        self._transport = transport or partial(post_json, timeout=options.timeout)

    def complete(self, messages: Sequence[Message]) -> str:
        payload = {
            "model": self.options.model,
            "messages": [dict(m) for m in messages],
            "temperature": 0.0,
            "stream": False,
        }
        headers = bearer_headers(self.options.auth_token)
        for attempt in range(LLM_RETRIES + 1):
            try:
                body = self._transport(self.options.endpoint, payload, headers)
                return _extract_text(body)
            except GatewayError as exc:
                if not exc.transient or attempt == LLM_RETRIES:
                    raise


def scripted_transport(replies: Sequence[str]) -> Transport:
    """The transport of a ``mock:`` endpoint: it answers each call, in call
    order, with ``{"text": reply}`` for the next of ``replies``, and fails
    loudly once they run out."""
    script = iter(list(replies))

    def transport(url: str, payload: dict, headers: dict) -> dict:
        for reply in script:
            return {"text": reply}
        raise ScriptExhaustedError(f"mock gateway script exhausted after {len(replies)} replies")

    return transport


@dataclass(frozen=True)
class CrsEndpoint:
    """Wire description of one CRS: locator plus field-name mapping.

    The nine public CRSs this toolkit targets expose near-identical
    JSON-over-HTTP surfaces that differ only in field names, so adapters
    live in configuration rather than code.
    """

    crs_id: str
    endpoint: str
    session_mode: str = "body"  # "body" places the session id in the payload,
    # "header" sends it as X-Session-Id.
    request_fields: Mapping[str, str] = field(
        default_factory=lambda: {"session": "session_id", "text": "text"}
    )
    response_fields: Mapping[str, str] = field(
        default_factory=lambda: {"reply": "reply", "items": "items", "end": "end"}
    )
    timeout: float = 30.0
    auth_token: str | None = None

    def __post_init__(self):
        if not self.crs_id:
            raise ValueError("crs_id must be non-empty")
        if self.session_mode not in ("body", "header"):
            raise ValueError("session_mode must be 'body' or 'header'")
        check_timeout(self.timeout)


@dataclass(frozen=True)
class CrsReply:
    text: str
    items: tuple[str, ...] = ()
    end: bool = False


class CrsConnector(Protocol):
    crs_id: str

    def send(self, session: str, utterance: str, timeout: float | None = None) -> CrsReply: ...


class HttpCrsConnector:
    """Client for a live CRS endpoint using the configured field mapping.

    Calls are never retried: CRS sessions are stateful, so a replayed POST
    could advance the dialogue twice. Every transport failure surfaces as
    ``ConnectorError``, or ``ConnectorTimeout`` for a timeout.
    """

    def __init__(self, endpoint: CrsEndpoint, transport: Transport | None = None):
        self.endpoint = endpoint
        self.crs_id = endpoint.crs_id
        self._transport = transport

    def send(self, session: str, utterance: str, timeout: float | None = None) -> CrsReply:
        fields = self.endpoint.request_fields
        payload: dict[str, Any] = {fields["text"]: utterance}
        headers = bearer_headers(self.endpoint.auth_token)
        if self.endpoint.session_mode == "body":
            payload[fields["session"]] = session
        else:
            headers["X-Session-Id"] = session
        transport = self._transport or partial(
            post_json, timeout=timeout or self.endpoint.timeout
        )
        try:
            body = transport(self.endpoint.endpoint, payload, headers)
        except ConnectorError:
            raise
        except Exception as exc:  # timeout, connection refused, status, DNS, ...
            error = ConnectorTimeout if isinstance(exc, GatewayTimeout) else ConnectorError
            raise error(
                f"CRS {self.crs_id}: {exc}", raw_body=getattr(exc, "raw_body", None)
            ) from exc
        return self._parse_reply(body)

    def _parse_reply(self, body: Any) -> CrsReply:
        """A reply's text and items by the corpus rule: a string as it is, a
        number through ``str``; its end flag a boolean, false when absent or
        null. Any other value, an empty item or a body that is not an object
        is a ``ConnectorError``."""
        fields = self.endpoint.response_fields
        try:
            if not isinstance(body, Mapping):
                raise TypeError("reply is not an object")
            if fields["reply"] not in body:
                raise TypeError(f"reply lacks field {fields['reply']!r}")
            items = body.get(fields["items"], ())
            if not isinstance(items, (list, tuple)):
                raise TypeError("item field is not a list")
            entry = f"an entry of {fields['items']!r}"
            items = tuple([_text(item, entry) for item in items])
            if "" in items:
                raise TypeError(f"{entry} is empty")
            text = _text(body[fields["reply"]], f"field {fields['reply']!r}")
            end = body.get(fields["end"])
            if end is not None and type(end) is not bool:
                raise _fault(f"field {fields['end']!r}", "a boolean", end)
        except TypeError as exc:
            raise ConnectorError(f"CRS {self.crs_id} {exc}", raw_body=json.dumps(body)) from None
        return CrsReply(text=text, items=items, end=end is True)


# Reply bodies of the bundled stub CRSs, from the item to recommend and the
# request payload.
_STUB_BODIES = {
    "always-recommend": lambda item, payload: {"reply": f"Have you seen {item}?", "items": [item]},
    "echo": lambda item, payload: {"reply": payload["text"]},
    "goodbye": lambda item, payload: {"reply": "Goodbye!", "end": True},
}


def make_stub(name: str, item_id: str = "Midnight Run") -> HttpCrsConnector:
    """The ``HttpCrsConnector`` of ``stub:<name>``, whose transport answers in
    process: always-recommend recommends ``item_id`` in the same sentence
    forever, echo returns the user's text and goodbye ends the dialogue."""
    if name not in _STUB_BODIES:
        raise ValueError(f"unknown stub {name!r}; available: {', '.join(sorted(_STUB_BODIES))}")
    body = _STUB_BODIES[name]
    endpoint = CrsEndpoint(crs_id=f"stub-{name}", endpoint=f"stub:{name}")
    return HttpCrsConnector(endpoint, lambda url, payload, headers: body(item_id, payload))
