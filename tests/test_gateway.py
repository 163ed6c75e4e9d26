import json

import pytest

from redflagcds.gateway import (
    BackendConfig,
    BackendUnavailable,
    BadResponse,
    ChatRequest,
    DroppedToolCall,
    DuplicateKey,
    Fault,
    HttpBackend,
    ScriptEntry,
    ScriptMiss,
    ScriptedBackend,
    TransientError,
    load_script,
    user_request,
    with_retries,
)
from tests.conftest import TABLE1_RAW, write_script_file


class TestChatRequest:
    def test_single_user_message(self):
        req = user_request("m", "hello")
        assert req.messages == ({"role": "user", "content": "hello"},)


class TestBackendConfig:
    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            BackendConfig(endpoint_url="http://x", model="m", timeout_seconds=0)

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError):
            BackendConfig(endpoint_url="http://x", model="m", max_retries=-1)


class TestScriptedBackend:
    def test_verbatim_pass_through(self):
        backend = ScriptedBackend([ScriptEntry("case-7", "orchestrator", TABLE1_RAW)])
        out = backend.complete(user_request("m", "p"), "case-7", "orchestrator")
        assert out == TABLE1_RAW

    def test_miss_is_a_hard_error(self):
        backend = ScriptedBackend([])
        with pytest.raises(ScriptMiss):
            backend.complete(user_request("m", "p"), "x", "orchestrator")

    def test_duplicate_key_rejected(self):
        with pytest.raises(DuplicateKey):
            ScriptedBackend(
                [ScriptEntry("a", "orchestrator", "x"), ScriptEntry("a", "orchestrator", "y")]
            )

    def test_http_500_fault(self):
        backend = ScriptedBackend([ScriptEntry("a", "thunderclap", fault=Fault.HTTP_500)])
        with pytest.raises(BackendUnavailable, match="HTTP_500 persisted through 2 retries"):
            backend.complete(user_request("m", "p"), "a", "thunderclap")

    def test_timeout_fault(self):
        backend = ScriptedBackend([ScriptEntry("a", "thunderclap", fault=Fault.TIMEOUT)])
        with pytest.raises(BackendUnavailable):
            backend.complete(user_request("m", "p"), "a", "thunderclap")

    def test_empty_fault_returns_empty_string(self):
        backend = ScriptedBackend([ScriptEntry("a", "thunderclap", "ignored", fault=Fault.EMPTY)])
        assert backend.complete(user_request("m", "p"), "a", "thunderclap") == ""

    def test_malformed_as_given_is_verbatim(self, tmp_path):
        # the old fault name loads as no fault: the response comes back as given
        path = tmp_path / "s.jsonl"
        path.write_text(json.dumps({"case_id": "a", "agent_role": "orchestrator",
                                    "response": "not json {", "fault": "MALFORMED_AS_GIVEN"}),
                        encoding="utf-8")
        (entry,) = load_script(path)
        assert entry.fault is None
        backend = ScriptedBackend([entry])
        assert backend.complete(user_request("m", "p"), "a", "orchestrator") == "not json {"

    def test_dropped_is_one_shot(self):
        backend = ScriptedBackend([ScriptEntry("a", "meningismus", "YES.", fault=Fault.DROPPED)])
        with pytest.raises(DroppedToolCall):
            backend.complete(user_request("m", "p"), "a", "meningismus")
        assert backend.complete(user_request("m", "p"), "a", "meningismus") == "YES."


class TestLoadScript:
    def test_round_trip(self, tmp_path):
        entries = [
            ScriptEntry("c1", "orchestrator", TABLE1_RAW),
            ScriptEntry("c1", "meningismus", "YES."),
            ScriptEntry("c2", "baseline", "thunderclap: NO"),
        ]
        path = write_script_file(tmp_path / "s.jsonl", entries)
        loaded = load_script(path)
        assert loaded == entries

    def test_duplicate_key_in_file(self, tmp_path):
        path = tmp_path / "s.jsonl"
        line = json.dumps({"case_id": "a", "agent_role": "baseline", "response": "x"})
        path.write_text(line + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(DuplicateKey):
            load_script(path)

    def test_empty_file_loads_as_empty_script(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text("", encoding="utf-8")
        backend = ScriptedBackend(load_script(path))
        assert len(backend) == 0
        with pytest.raises(ScriptMiss):
            backend.complete(user_request("m", "p"), "a", "orchestrator")

    def test_fault_field_parsed(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(
            json.dumps({"case_id": "a", "agent_role": "papilledema", "fault": "HTTP_500"}) + "\n",
            encoding="utf-8",
        )
        (entry,) = load_script(path)
        assert entry.fault is Fault.HTTP_500


class TestRetries:
    def _flaky(self, fail_times):
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            if calls["n"] <= fail_times:
                raise TransientError(f"attempt {calls['n']}")
            return "ok"

        return fn, calls

    def test_success_after_k_failures_within_budget(self):
        fn, calls = self._flaky(fail_times=2)
        assert with_retries(fn, max_retries=2, sleep=lambda _t: None) == "ok"
        assert calls["n"] == 3

    def test_failures_beyond_budget_raise(self):
        fn, _ = self._flaky(fail_times=3)
        with pytest.raises(BackendUnavailable):
            with_retries(fn, max_retries=2, sleep=lambda _t: None)

    def test_backoff_is_exponential(self):
        delays = []
        fn, _ = self._flaky(fail_times=4)
        with pytest.raises(BackendUnavailable):
            with_retries(fn, max_retries=3, sleep=delays.append)
        assert delays == [1.0, 2.0, 4.0]


class _FakeResponse:
    def __init__(self, status_code, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


class TestHttpBackend:
    def _backend(self, monkeypatch, responses, api_key=None):
        config = BackendConfig(
            endpoint_url="http://llm.local/v1", model="m", api_key=api_key, max_retries=2
        )
        backend = HttpBackend(config, sleep=lambda _t: None)
        sent = []

        def fake_post(url, json=None, headers=None, timeout=None):
            sent.append({"url": url, "json": json, "headers": headers})
            return responses.pop(0)

        monkeypatch.setattr(backend._session, "post", fake_post)
        return backend, sent

    def _ok(self, content):
        return _FakeResponse(200, {"choices": [{"message": {"content": content}}]})

    def test_request_shape_and_bearer_token(self, monkeypatch):
        backend, sent = self._backend(monkeypatch, [self._ok("hi")], api_key="secret")
        out = backend.complete(user_request("m", "prompt"))
        assert out == "hi"
        assert sent[0]["url"] == "http://llm.local/v1/chat/completions"
        assert sent[0]["json"]["temperature"] == 0
        assert sent[0]["json"]["top_p"] == 1
        assert sent[0]["json"]["max_tokens"] == 1024
        assert sent[0]["headers"]["Authorization"] == "Bearer secret"

    def test_retries_on_500_then_succeeds(self, monkeypatch):
        backend, sent = self._backend(
            monkeypatch, [_FakeResponse(500), _FakeResponse(503), self._ok("recovered")]
        )
        assert backend.complete(user_request("m", "p")) == "recovered"
        assert len(sent) == 3

    def test_gives_up_after_retries(self, monkeypatch):
        backend, _ = self._backend(
            monkeypatch, [_FakeResponse(500), _FakeResponse(500), _FakeResponse(500)]
        )
        with pytest.raises(BackendUnavailable):
            backend.complete(user_request("m", "p"))

    def test_missing_assistant_message(self, monkeypatch):
        backend, _ = self._backend(monkeypatch, [_FakeResponse(200, {"choices": []})])
        with pytest.raises(BadResponse):
            backend.complete(user_request("m", "p"))
