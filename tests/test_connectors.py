import json
from dataclasses import fields

import pytest
import requests

from evalkit import connectors
from evalkit.connectors import (
    CrsEndpoint,
    CrsReply,
    GatewayOptions,
    HttpCrsConnector,
    HttpLlmGateway,
    MockLlmGateway,
    make_stub,
)
from evalkit.dialogue import UserGoal
from evalkit.errors import (
    ConnectorError,
    ConnectorTimeout,
    GatewayError,
    GatewayTimeout,
    ScriptExhaustedError,
)
from evalkit.simulation import AgendaSimulator, RunLimits, run_conversation

OPTIONS = GatewayOptions(endpoint="http://llm.local/api/chat", model="test-model")


class RecordingTransport:
    """Fake server: records requests, replays canned responses."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def __call__(self, url, payload, headers):
        self.requests.append((url, payload, headers))
        response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        return response


class FakeResponse:
    def __init__(self, status_code, text):
        self.status_code = status_code
        self.text = text

    def json(self):
        return json.loads(self.text)


class FakePost:
    """Stands in for ``requests.post``: records keyword arguments, replays
    canned responses or raises canned exceptions."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def __call__(self, url, **kwargs):
        self.calls.append((url, kwargs))
        response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        return response


@pytest.fixture()
def fake_post(monkeypatch):
    def install(*responses):
        fake = FakePost(responses)
        monkeypatch.setattr(requests, "post", fake)
        return fake

    return install


class TestPostJson:
    """The one HTTP transport, shared by the LLM gateway and CRS clients."""

    def test_sends_json_with_headers_and_timeout(self, fake_post):
        post = fake_post(FakeResponse(200, '{"ok": true}'))
        body = connectors.post_json("http://x/api", {"a": 1}, {"H": "v"}, 4.0)
        assert body == {"ok": True}
        assert post.calls == [
            ("http://x/api", {"json": {"a": 1}, "headers": {"H": "v"}, "timeout": 4.0})
        ]

    @pytest.mark.parametrize(
        "outcome, error, transient",
        [
            (requests.Timeout("slow"), GatewayTimeout, True),
            (requests.ConnectionError("refused"), GatewayError, True),
            (FakeResponse(503, "busy"), GatewayError, True),
            (FakeResponse(404, "no such route"), GatewayError, False),
            (FakeResponse(200, "<html>"), GatewayError, False),
        ],
    )
    def test_failure_classification(self, fake_post, outcome, error, transient):
        fake_post(outcome)
        with pytest.raises(error) as excinfo:
            connectors.post_json("http://x/api", {}, {}, 1.0)
        assert excinfo.value.transient is transient

    def test_status_and_body_errors_keep_the_response_text(self, fake_post):
        fake_post(FakeResponse(400, "bad field"), FakeResponse(200, "not json"))
        for expected in ("bad field", "not json"):
            with pytest.raises(GatewayError) as excinfo:
                connectors.post_json("http://x/api", {}, {}, 1.0)
            assert excinfo.value.raw_body == expected


class TestMockLlmGateway:
    def test_replies_in_order(self):
        gateway = MockLlmGateway(replies=["one", "two"])
        assert gateway.complete([{"role": "user", "content": "a"}]) == "one"
        assert gateway.complete([{"role": "user", "content": "b"}]) == "two"

    def test_script_exhaustion_fails_loudly(self):
        gateway = MockLlmGateway(replies=["only"])
        gateway.complete([{"role": "user", "content": "a"}])
        with pytest.raises(ScriptExhaustedError):
            gateway.complete([{"role": "user", "content": "b"}])

    def test_calls_are_recorded(self):
        gateway = MockLlmGateway(replies=["ok"])
        gateway.complete([{"role": "user", "content": "hi"}])
        assert gateway.calls == [[{"role": "user", "content": "hi"}]]


class TestHttpLlmGateway:
    def test_request_body_carries_temperature_zero_and_stream_off(self):
        transport = RecordingTransport([{"text": "fine"}])
        gateway = HttpLlmGateway(OPTIONS, transport=transport)
        reply = gateway.complete([{"role": "user", "content": "hello"}])
        assert reply == "fine"
        url, payload, _ = transport.requests[0]
        assert url == "http://llm.local/api/chat"
        assert payload["temperature"] == 0.0
        assert payload["stream"] is False
        assert payload["model"] == "test-model"
        assert payload["messages"] == [{"role": "user", "content": "hello"}]

    def test_retries_transient_failure_then_succeeds(self):
        transport = RecordingTransport(
            [GatewayTimeout("slow"), {"text": "recovered"}]
        )
        gateway = HttpLlmGateway(OPTIONS, transport=transport)
        assert gateway.complete([{"role": "user", "content": "x"}]) == "recovered"
        assert len(transport.requests) == 2

    def test_exhausted_retries_raise_last_error(self):
        failures = [GatewayError("boom", transient=True)] * 3
        transport = RecordingTransport(failures)
        gateway = HttpLlmGateway(OPTIONS, transport=transport)
        with pytest.raises(GatewayError, match="boom"):
            gateway.complete([{"role": "user", "content": "x"}])
        assert len(transport.requests) == 1 + connectors.LLM_RETRIES == 3

    def test_permanent_failure_not_retried(self):
        transport = RecordingTransport([GatewayError("bad request"), {"text": "x"}])
        gateway = HttpLlmGateway(OPTIONS, transport=transport)
        with pytest.raises(GatewayError, match="bad request"):
            gateway.complete([{"role": "user", "content": "x"}])
        assert len(transport.requests) == 1

    def test_alternate_reply_shapes(self):
        for body in ({"response": "a"}, {"message": {"content": "a"}}):
            transport = RecordingTransport([body])
            gateway = HttpLlmGateway(OPTIONS, transport=transport)
            assert gateway.complete([{"role": "user", "content": "x"}]) == "a"

    def test_reply_without_text_field_raises(self):
        transport = RecordingTransport([{"weird": 1}] * (1 + connectors.LLM_RETRIES))
        gateway = HttpLlmGateway(OPTIONS, transport=transport)
        with pytest.raises(GatewayError, match="no text field"):
            gateway.complete([{"role": "user", "content": "x"}])

    def test_a_number_reply_becomes_a_string(self):
        for body, text in (({"text": 7}, "7"), ({"response": 2.5}, "2.5"), ({"message": {"content": 7}}, "7")):
            gateway = HttpLlmGateway(OPTIONS, transport=RecordingTransport([body]))
            assert gateway.complete([{"role": "user", "content": "x"}]) == text

    @pytest.mark.parametrize(
        "body, message",
        [
            (["text"], "gateway reply is not an object"),
            ("text", "gateway reply is not an object"),
            ({"text": None}, "gateway reply field 'text' must be a string, not null"),
            ({"response": ["a"]}, "gateway reply field 'response' must be a string, not an array"),
            ({"message": {"content": False}}, "gateway reply field 'content' must be a string, not a boolean"),
        ],
    )
    def test_malformed_reply_is_a_permanent_error(self, body, message):
        transport = RecordingTransport([body, {"text": "never read"}])
        gateway = HttpLlmGateway(OPTIONS, transport=transport)
        with pytest.raises(GatewayError, match=f"^{message}$") as excinfo:
            gateway.complete([{"role": "user", "content": "x"}])
        assert not excinfo.value.transient
        assert len(transport.requests) == 1

    def test_bearer_token_header(self):
        options = GatewayOptions(
            endpoint="http://llm.local/api/chat", model="m", auth_token="sekrit"
        )
        transport = RecordingTransport([{"text": "ok"}])
        HttpLlmGateway(options, transport=transport).complete(
            [{"role": "user", "content": "x"}]
        )
        _, _, headers = transport.requests[0]
        assert headers == {"Authorization": "Bearer sekrit"}

    def test_no_token_means_no_auth_header(self):
        transport = RecordingTransport([{"text": "ok"}])
        HttpLlmGateway(OPTIONS, transport=transport).complete(
            [{"role": "user", "content": "x"}]
        )
        assert transport.requests[0][2] == {}


    def test_default_transport_retries_503(self, fake_post):
        post = fake_post(FakeResponse(503, "busy"), FakeResponse(200, '{"text": "ok"}'))
        options = GatewayOptions(endpoint="http://llm.local/api/chat", model="m", timeout=3.0)
        assert HttpLlmGateway(options).complete([{"role": "user", "content": "x"}]) == "ok"
        assert [kwargs["timeout"] for _, kwargs in post.calls] == [3.0, 3.0]

    def test_default_transport_does_not_retry_404(self, fake_post):
        post = fake_post(FakeResponse(404, "gone"), FakeResponse(200, '{"text": "ok"}'))
        with pytest.raises(GatewayError, match="404") as excinfo:
            HttpLlmGateway(OPTIONS).complete([{"role": "user", "content": "x"}])
        assert excinfo.value.raw_body == "gone"
        assert len(post.calls) == 1


class TestGatewayOptions:
    def test_defaults_match_offline_reproducibility_setup(self):
        # Temperature 0 and stream off are fixed in every request body
        # (see TestHttpLlmGateway), so no option can change them.
        names = [option.name for option in fields(GatewayOptions)]
        assert names == ["endpoint", "model", "timeout", "auth_token"]
        assert (OPTIONS.timeout, OPTIONS.auth_token) == (30.0, None)

    @pytest.mark.parametrize("timeout", [0, -1.0, float("nan")])
    def test_non_positive_timeout_rejected(self, timeout):
        with pytest.raises(ValueError, match="^timeout must be positive$"):
            GatewayOptions(endpoint="http://x", model="m", timeout=timeout)


class TestStubs:
    @pytest.mark.parametrize("name", ["always-recommend", "echo", "goodbye"])
    def test_stub_is_an_http_connector(self, name):
        stub = make_stub(name)
        assert isinstance(stub, HttpCrsConnector)
        assert stub.crs_id == f"stub-{name}"
        assert stub.endpoint == CrsEndpoint(crs_id=f"stub-{name}", endpoint=f"stub:{name}")

    def test_always_recommend(self):
        stub = make_stub("always-recommend", item_id="Paper Moon")
        reply = stub.send("s1", "hi")
        assert reply == CrsReply(text="Have you seen Paper Moon?", items=("Paper Moon",))
        assert stub.send("s1", "anything else") == reply  # same sentence forever
        assert stub.send("s2", "and now?", 5.0) == reply

    def test_always_recommend_default_item(self):
        assert make_stub("always-recommend").send("s1", "hi").items == ("Midnight Run",)

    def test_echo(self):
        stub = make_stub("echo", item_id="Paper Moon")  # echo ignores the item
        assert stub.send("s1", "hi there") == CrsReply(text="hi there", items=(), end=False)
        assert stub.send("s1", "") == CrsReply(text="")

    def test_goodbye_sets_end_flag(self):
        reply = make_stub("goodbye").send("s1", "hello?")
        assert reply == CrsReply(text="Goodbye!", items=(), end=True)

    def test_stub_request_is_the_live_payload(self):
        # A stub's transport is sent what a live endpoint would be sent.
        stub = make_stub("echo")
        answer, sent = stub._transport, []
        stub._transport = lambda *request: sent.append(request) or answer(*request)
        assert stub.send("s7", "hi").text == "hi"
        assert sent == [("stub:echo", {"text": "hi", "session_id": "s7"}, {})]

    def test_stub_reply_is_checked_as_a_live_one(self):
        message = "^CRS stub-always-recommend an entry of 'items' is empty$"
        with pytest.raises(ConnectorError, match=message):
            make_stub("always-recommend", item_id="").send("s1", "hi")

    def test_unknown_stub_names_the_available_ones(self):
        with pytest.raises(
            ValueError,
            match="^unknown stub 'nope'; available: always-recommend, echo, goodbye$",
        ):
            make_stub("nope")


class TestHttpCrsConnector:
    def _endpoint(self, **kwargs):
        return CrsEndpoint(crs_id="crs-a", endpoint="http://crs.local/chat", **kwargs)

    @pytest.mark.parametrize("timeout", [0, -1.0, float("nan")])
    def test_non_positive_timeout_rejected(self, timeout):
        with pytest.raises(ValueError, match="^timeout must be positive$"):
            self._endpoint(timeout=timeout)

    def test_default_field_mapping(self):
        transport = RecordingTransport(
            [{"reply": "try this", "items": ["Alpha"], "end": False}]
        )
        connector = HttpCrsConnector(self._endpoint(), transport=transport)
        reply = connector.send("s42", "hello")
        assert reply.text == "try this"
        assert reply.items == ("Alpha",)
        _, payload, _ = transport.requests[0]
        assert payload == {"text": "hello", "session_id": "s42"}

    def test_header_session_mode_and_token(self):
        endpoint = self._endpoint(session_mode="header", auth_token="tok")
        transport = RecordingTransport([{"reply": "ok", "items": []}])
        HttpCrsConnector(endpoint, transport=transport).send("s9", "hi")
        _, payload, headers = transport.requests[0]
        assert "session_id" not in payload
        assert headers["X-Session-Id"] == "s9"
        assert headers["Authorization"] == "Bearer tok"

    def test_custom_field_mapping(self):
        endpoint = self._endpoint(
            request_fields={"session": "sid", "text": "utterance"},
            response_fields={"reply": "answer", "items": "movies", "end": "done"},
        )
        transport = RecordingTransport(
            [{"answer": "ok", "movies": ["Beta"], "done": True}]
        )
        connector = HttpCrsConnector(endpoint, transport=transport)
        reply = connector.send("s1", "hi")
        assert (reply.text, reply.items, reply.end) == ("ok", ("Beta",), True)
        _, payload, _ = transport.requests[0]
        assert payload == {"utterance": "hi", "sid": "s1"}

    def test_missing_reply_field_preserves_raw_body(self):
        transport = RecordingTransport([{"unexpected": "shape"}])
        connector = HttpCrsConnector(self._endpoint(), transport=transport)
        with pytest.raises(ConnectorError) as excinfo:
            connector.send("s1", "hi")
        assert "unexpected" in excinfo.value.raw_body

    def test_non_list_items_rejected(self):
        transport = RecordingTransport([{"reply": "x", "items": "Alpha"}])
        connector = HttpCrsConnector(self._endpoint(), transport=transport)
        with pytest.raises(ConnectorError, match="not a list"):
            connector.send("s1", "hi")

    def test_numbers_in_a_reply_become_strings(self):
        transport = RecordingTransport([{"reply": 42, "items": [7, 2.5, "Alpha"]}])
        reply = HttpCrsConnector(self._endpoint(), transport=transport).send("s1", "hi")
        assert (reply.text, reply.items) == ("42", ("7", "2.5", "Alpha"))

    @pytest.mark.parametrize(
        "body, message",
        [
            (["reply"], "reply is not an object"),
            ("reply", "reply is not an object"),
            ({"reply": None}, "field 'reply' must be a string, not null"),
            ({"reply": True}, "field 'reply' must be a string, not a boolean"),
            ({"reply": {"t": "x"}}, "field 'reply' must be a string, not an object"),
            ({"reply": "x", "items": [""]}, "an entry of 'items' is empty"),
            ({"reply": "x", "items": [{"a": 1}]}, "an entry of 'items' must be a string, not an object"),
            ({"reply": "x", "items": ["A", None]}, "an entry of 'items' must be a string, not null"),
            ({"reply": "x", "items": [["A"]]}, "an entry of 'items' must be a string, not an array"),
            ({"reply": "x", "end": "false"}, "field 'end' must be a boolean, not a string"),
            ({"reply": "x", "end": [0]}, "field 'end' must be a boolean, not an array"),
            ({"reply": "x", "end": 0}, "field 'end' must be a boolean, not a number"),
        ],
    )
    def test_malformed_reply_is_a_connector_error(self, body, message):
        transport = RecordingTransport([body])
        connector = HttpCrsConnector(self._endpoint(), transport=transport)
        with pytest.raises(ConnectorError, match=f"^CRS crs-a {message}$") as excinfo:
            connector.send("s1", "hi")
        assert excinfo.value.raw_body == json.dumps(body)

    def test_per_call_timeout_reaches_requests_post(self, fake_post):
        reply = '{"reply": "ok", "items": []}'
        post = fake_post(FakeResponse(200, reply), FakeResponse(200, reply))
        connector = HttpCrsConnector(self._endpoint(timeout=7.0))
        connector.send("s1", "hi", 2.5)
        connector.send("s1", "hi")
        assert [kwargs["timeout"] for _, kwargs in post.calls] == [2.5, 7.0]
        assert post.calls[0][0] == "http://crs.local/chat"

    def test_endpoint_timeout_bounds_each_conversation_call(self, fake_post, movie_catalog):
        reply = '{"reply": "ok", "items": []}'
        post = fake_post(FakeResponse(200, reply), FakeResponse(200, reply))
        connector = HttpCrsConnector(self._endpoint(timeout=7.0))
        goal = UserGoal(constraints=(("year", "1988"),))
        limits = RunLimits(max_utterances=4, seed=1)
        run_conversation(AgendaSimulator(catalog=movie_catalog), connector, goal, limits)
        assert [kwargs["timeout"] for _, kwargs in post.calls] == [7.0, 7.0]

    def test_status_error_carries_raw_body(self, fake_post):
        fake_post(FakeResponse(500, "upstream exploded"))
        with pytest.raises(ConnectorError) as excinfo:
            HttpCrsConnector(self._endpoint()).send("s1", "hi")
        assert not isinstance(excinfo.value, ConnectorTimeout)
        assert excinfo.value.raw_body == "upstream exploded"
        assert "crs-a" in str(excinfo.value)

    def test_default_transport_timeout_is_connector_timeout(self, fake_post):
        fake_post(requests.Timeout("slow"))
        with pytest.raises(ConnectorTimeout):
            HttpCrsConnector(self._endpoint()).send("s1", "hi")

    @pytest.mark.parametrize(
        "failure, error",
        [
            (GatewayTimeout("slow"), ConnectorTimeout),
            (GatewayError("busy", transient=True, raw_body="busy"), ConnectorError),
            (OSError("connection refused"), ConnectorError),
            (ConnectorTimeout("slow"), ConnectorTimeout),
        ],
    )
    def test_injected_transport_failures_become_connector_errors(self, failure, error):
        connector = HttpCrsConnector(
            self._endpoint(), transport=RecordingTransport([failure])
        )
        with pytest.raises(error) as excinfo:
            connector.send("s1", "hi")
        assert type(excinfo.value) is error
        assert excinfo.value.raw_body == getattr(failure, "raw_body", None)

    def test_live_connector_wraps_socket_errors(self):
        # The suite runs with sockets disabled, so a real POST must surface
        # as a connector error rather than an unhandled exception.
        connector = HttpCrsConnector(
            CrsEndpoint(crs_id="dead", endpoint="http://127.0.0.1:9/chat", timeout=0.2)
        )
        with pytest.raises(ConnectorError):
            connector.send("s1", "hello?")

    def test_empty_crs_id_rejected(self):
        with pytest.raises(ValueError):
            CrsEndpoint(crs_id="", endpoint="http://x")
