import json
from dataclasses import fields

import pytest
import requests

from evalkit import connectors
from evalkit.connectors import (
    AlwaysRecommendStub,
    CrsEndpoint,
    EchoStub,
    GatewayOptions,
    GoodbyeStub,
    HttpCrsConnector,
    HttpLlmGateway,
    MockLlmGateway,
    make_stub,
)
from evalkit.errors import (
    ConnectorError,
    ConnectorTimeout,
    GatewayError,
    GatewayTimeout,
    ScriptExhaustedError,
)

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
    def test_always_recommend(self):
        stub = AlwaysRecommendStub(item_id="Paper Moon")
        reply = stub.send("s1", "hi")
        assert "Paper Moon" in reply.text
        assert reply.items == ("Paper Moon",)
        assert reply.end is False
        assert stub.send("s1", "anything else") == reply  # same sentence forever

    def test_echo(self):
        reply = EchoStub().send("s1", "hi there")
        assert reply.text == "hi there"
        assert reply.items == ()
        assert reply.end is False

    def test_goodbye_sets_end_flag(self):
        reply = GoodbyeStub().send("s1", "hello?")
        assert reply.end is True

    def test_make_stub_names(self):
        assert make_stub("echo").crs_id == "stub-echo"
        assert make_stub("always-recommend", item_id="X").item_id == "X"
        with pytest.raises(ValueError, match="unknown stub"):
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

    def test_per_call_timeout_reaches_requests_post(self, fake_post):
        reply = '{"reply": "ok", "items": []}'
        post = fake_post(FakeResponse(200, reply), FakeResponse(200, reply))
        connector = HttpCrsConnector(self._endpoint(timeout=7.0))
        connector.send("s1", "hi", 2.5)
        connector.send("s1", "hi")
        assert [kwargs["timeout"] for _, kwargs in post.calls] == [2.5, 7.0]
        assert post.calls[0][0] == "http://crs.local/chat"

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
