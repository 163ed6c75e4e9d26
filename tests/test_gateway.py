import json
import logging
import socket
import ssl
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import pytest

from redflagcds.encoding import BadRecord
from redflagcds.engine import run_case
from redflagcds.evaluation import load_dataset, run_row_name
from redflagcds.gateway import (
    BackendConfig,
    BackendUnavailable,
    BadResponse,
    DroppedToolCall,
    DuplicateKey,
    Fault,
    HttpBackend,
    ScriptEntry,
    ScriptMiss,
    ScriptedBackend,
    TransientError,
    load_script,
    with_retries,
)
from tests.conftest import (
    TABLE1_RAW,
    chat_reply,
    multi_config,
    within,
    write_jsonl,
    write_script_file,
)


class TestScriptedBackend:
    def test_verbatim_pass_through(self):
        backend = ScriptedBackend([ScriptEntry("case-7", "orchestrator", TABLE1_RAW)])
        out = backend.complete("p", "case-7", "orchestrator")
        assert out == TABLE1_RAW

    def test_miss_is_a_hard_error(self):
        backend = ScriptedBackend([])
        with pytest.raises(ScriptMiss):
            backend.complete("p", "x", "orchestrator")

    def test_duplicate_key_rejected(self):
        with pytest.raises(DuplicateKey):
            ScriptedBackend(
                [ScriptEntry("a", "orchestrator", "x"), ScriptEntry("a", "orchestrator", "y")]
            )

    def test_http_500_fault(self):
        backend = ScriptedBackend([ScriptEntry("a", "thunderclap", fault=Fault.HTTP_500)])
        with pytest.raises(BackendUnavailable, match="HTTP_500 persisted through 2 retries"):
            backend.complete("p", "a", "thunderclap")

    def test_timeout_fault(self):
        backend = ScriptedBackend([ScriptEntry("a", "thunderclap", fault=Fault.TIMEOUT)])
        with pytest.raises(BackendUnavailable):
            backend.complete("p", "a", "thunderclap")

    def test_empty_fault_returns_empty_string(self):
        backend = ScriptedBackend([ScriptEntry("a", "thunderclap", "ignored", fault=Fault.EMPTY)])
        assert backend.complete("p", "a", "thunderclap") == ""

    def test_malformed_as_given_is_verbatim(self, tmp_path):
        # the old fault name loads as no fault: the response comes back as given
        path = tmp_path / "s.jsonl"
        path.write_text(json.dumps({"case_id": "a", "agent_role": "orchestrator",
                                    "response": "not json {", "fault": "MALFORMED_AS_GIVEN"}),
                        encoding="utf-8")
        (entry,) = load_script(path)
        assert entry.fault is None
        backend = ScriptedBackend([entry])
        assert backend.complete("p", "a", "orchestrator") == "not json {"

    def test_dropped_is_one_shot(self):
        backend = ScriptedBackend([ScriptEntry("a", "meningismus", "YES.", fault=Fault.DROPPED)])
        with pytest.raises(DroppedToolCall):
            backend.complete("p", "a", "meningismus")
        assert backend.complete("p", "a", "meningismus") == "YES."


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
        with pytest.raises(BadRecord, match=r"^line 2: duplicate script key \('a', 'baseline'\) "
                                            r"\(first on line 1\)$"):
            load_script(path)

    def test_empty_file_loads_as_empty_script(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text("", encoding="utf-8")
        backend = ScriptedBackend(load_script(path))
        with pytest.raises(ScriptMiss):
            backend.complete("p", "a", "orchestrator")

    def test_fault_field_parsed(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(
            json.dumps({"case_id": "a", "agent_role": "papilledema", "fault": "HTTP_500"}) + "\n",
            encoding="utf-8",
        )
        (entry,) = load_script(path)
        assert entry.fault is Fault.HTTP_500

    @pytest.mark.parametrize("case_id", [None, True, 1.5, [1], {"a": 1}],
                             ids=["null", "true", "float", "array", "object"])
    def test_case_id_neither_string_nor_integer_rejected(self, tmp_path, case_id):
        """The dataset's id rule: no such case_id silently becomes its Python text."""
        path = write_jsonl(tmp_path / "s.jsonl", [
            {"case_id": "a", "agent_role": "baseline", "response": "x"},
            {"case_id": case_id, "agent_role": "baseline", "response": "x"},
        ])
        with pytest.raises(BadRecord, match="^line 2: case_id is not a string or an integer$"):
            load_script(path)

    def test_agent_role_not_a_string_rejected(self, tmp_path):
        path = write_jsonl(tmp_path / "s.jsonl", [{"case_id": "a", "agent_role": 7}])
        with pytest.raises(BadRecord, match="^line 1: agent_role is not a string$"):
            load_script(path)

    def test_integer_case_id_answers_the_integer_dataset_id(self, tmp_path):
        script = write_jsonl(tmp_path / "s.jsonl",
                             [{"case_id": 7, "agent_role": "baseline", "response": "x"}])
        dataset = write_jsonl(tmp_path / "d.jsonl", [{"id": 7, "text": "note", "red_flags": []}])
        (case,) = load_dataset(dataset)
        assert ScriptedBackend(load_script(script)).complete("p", case.vignette.id, "baseline") == "x"


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
        assert with_retries(fn, sleep=lambda _t: None) == "ok"
        assert calls["n"] == 3

    def test_failures_beyond_budget_raise(self):
        fn, _ = self._flaky(fail_times=3)
        with pytest.raises(BackendUnavailable):
            with_retries(fn, sleep=lambda _t: None)

    def test_backoff_is_exponential(self):
        delays = []
        fn, _ = self._flaky(fail_times=3)
        with pytest.raises(BackendUnavailable, match="^retries exhausted after 3 attempts: "):
            with_retries(fn, sleep=delays.append)
        assert delays == [1.0, 2.0]

    def test_each_retry_logs_one_warning(self, caplog):
        fn, _ = self._flaky(fail_times=2)
        with caplog.at_level(logging.WARNING, logger="redflagcds.gateway"):
            assert with_retries(fn, sleep=lambda _t: None) == "ok"
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.WARNING, "attempt 1 of 3 failed, retrying in 1 s: attempt 1"),
            (logging.WARNING, "attempt 2 of 3 failed, retrying in 2 s: attempt 2"),
        ]


class TestHttpBackend:
    """Against a real HTTP/1.1 server on 127.0.0.1 (tests/conftest.py `_CountingStub`)."""

    def _backend(self, serve_stub, replies, api_key=None, **stub_options):
        stub = serve_stub(replies=replies, delay=0, **stub_options)
        config = BackendConfig(endpoint_url=stub.url, model="m", api_key=api_key)
        sleeps = []
        return HttpBackend(config, sleep=sleeps.append), stub, sleeps

    def test_request_shape_and_bearer_token(self, serve_stub):
        backend, stub, _ = self._backend(serve_stub, [chat_reply("hi")], api_key="secret")
        out = backend.complete("prompt")
        assert out == "hi"
        (sent,) = stub.posts
        assert sent["path"] == "/v1/chat/completions"
        assert sent["headers"]["Host"] == f"127.0.0.1:{stub.server_address[1]}"
        assert sent["headers"]["Content-Type"] == "application/json"
        assert sent["json"] == {
            "model": "m",
            "messages": [{"role": "user", "content": "prompt"}],
            "temperature": 0,
            "top_p": 1,
            "max_tokens": 1024,
        }
        assert sent["headers"]["Authorization"] == "Bearer secret"

    def test_the_endpoint_query_is_sent(self, serve_stub):
        stub = serve_stub(delay=0)
        backend = HttpBackend(BackendConfig(f"{stub.url}?api-version=2024-02-01", "m"))
        backend.preflight()
        assert backend.complete("p") == "NO."
        assert stub.gets == ["/v1?api-version=2024-02-01"]
        assert [sent["path"] for sent in stub.posts] == ["/v1/chat/completions?api-version=2024-02-01"]

    def test_the_backend_names_the_model_sent_and_the_run_config_names_the_row(
        self, serve_stub, prompts, vignette
    ):
        stub = serve_stub(delay=0)
        backend = HttpBackend(BackendConfig(endpoint_url=stub.url, model="served-model"))
        cfg = multi_config(backend, prompts, model="row-label")
        run_case(vignette, cfg)
        assert stub.posts
        assert {sent["json"]["model"] for sent in stub.posts} == {"served-model"}
        assert run_row_name(cfg) == "row-label_multi_gprompt"

    def test_sequential_calls_reuse_one_connection_that_closes_with_the_backend(
        self, serve_stub
    ):
        backend, stub, sleeps = self._backend(serve_stub, [])
        assert [backend.complete("p") for _ in range(3)] == ["NO."] * 3
        assert stub.connections == 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            del backend  # closes the idle connection, not left to the socket's finalizer
        assert [w.message for w in caught if w.category is ResourceWarning] == []
        assert stub.closed.wait(5)  # the stub holds an open connection for 10 s
        assert sleeps == []

    def test_netrc_does_not_replace_the_api_key(self, serve_stub, tmp_path, monkeypatch):
        netrc = tmp_path / "netrc"
        netrc.write_text("machine 127.0.0.1 login u password p\n", encoding="utf-8")
        monkeypatch.setenv("NETRC", str(netrc))
        backend, stub, _ = self._backend(serve_stub, [chat_reply("hi")], api_key="secret")
        assert backend.complete("prompt") == "hi"
        assert stub.posts[0]["headers"]["Authorization"] == "Bearer secret"

    def test_retries_on_500_then_succeeds(self, serve_stub):
        backend, stub, sleeps = self._backend(
            serve_stub, [(500, b""), (503, b""), chat_reply("recovered")]
        )
        assert backend.complete("p") == "recovered"
        assert len(stub.posts) == 3
        assert sleeps == [1, 2]

    def test_gives_up_after_retries(self, serve_stub):
        backend, stub, _ = self._backend(serve_stub, [(500, b"")] * 3)
        with pytest.raises(BackendUnavailable):
            backend.complete("p")
        assert len(stub.posts) == 3

    def test_missing_assistant_message(self, serve_stub):
        backend, _, _ = self._backend(serve_stub, [(200, b'{"choices": []}')])
        with pytest.raises(BadResponse):
            backend.complete("p")

    def test_an_answer_nested_too_deep_is_a_bad_response(self, serve_stub):
        backend, stub, sleeps = self._backend(serve_stub, [(200, b"[" * 100_000)])
        with pytest.raises(BadResponse,
                           match="^response lacks an assistant message: nested too deep"):
            backend.complete("p")
        assert len(stub.posts) == 1
        assert sleeps == []

    def test_assistant_content_that_is_not_text(self, serve_stub):
        body = json.dumps({"choices": [{"message": {"content": None}}]}).encode()
        backend, _, _ = self._backend(serve_stub, [(200, body)])
        with pytest.raises(BadResponse, match="^assistant message content is not text$"):
            backend.complete("p")

    def test_client_error_carries_the_body_prefix_without_retry(self, serve_stub):
        body = "a" * 150 + "b" * 100
        backend, stub, sleeps = self._backend(serve_stub, [(404, body.encode())])
        with pytest.raises(BadResponse) as info:
            backend.complete("p")
        assert str(info.value) == "HTTP 404: " + body[:200]
        assert len(stub.posts) == 1
        assert sleeps == []

    def test_refused_connection_retries_then_gives_up(self):
        with socket.socket() as bound:  # bound, never listening: connections are refused
            bound.bind(("127.0.0.1", 0))
            config = BackendConfig(endpoint_url=f"http://127.0.0.1:{bound.getsockname()[1]}/v1",
                                   model="m")
            sleeps = []
            with pytest.raises(BackendUnavailable):
                HttpBackend(config, sleep=sleeps.append).complete("p")
        assert sleeps == [1, 2]

    def test_connection_closed_while_idle_costs_no_retry(self, serve_stub):
        backend, stub, sleeps = self._backend(serve_stub, [], close_idle=True)
        backend.preflight()  # leaves one idle connection, which the stub then closes
        assert stub.closed.wait(5)
        time.sleep(0.05)  # let the close reach the client's socket
        assert backend.complete("p") == "NO."
        assert sleeps == []
        assert len(stub.posts) == 1
        assert stub.connections == 2

    def test_an_answer_that_says_connection_close_is_not_reused(self, serve_stub):
        backend, stub, sleeps = self._backend(serve_stub, [], say_close=True)
        for _ in range(2):
            assert backend.complete("p") == "NO."
            assert backend._idle == []  # the connection closed with its answer
        assert stub.connections == 2
        assert sleeps == []

    def test_concurrent_calls_never_share_a_connection(self, serve_stub):
        """More callers than cores, switching threads as often as the interpreter allows:
        a connection handed to two callers at once fails a call, which shows as a retry."""
        backend, stub, sleeps = self._backend(serve_stub, [])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                replies = within(60, lambda: list(pool.map(lambda _: backend.complete("p"),
                                                           range(200))))
        finally:
            sys.setswitchinterval(interval)
        assert replies == ["NO."] * 200
        assert sleeps == []
        assert len(stub.posts) == 200
        assert stub.connections <= 8

    def test_https_verifies_certificates(self):
        backend = HttpBackend(BackendConfig(endpoint_url="https://llm.local/v1", model="m"))
        assert backend._tls.verify_mode == ssl.CERT_REQUIRED
        assert backend._tls.check_hostname

    @pytest.mark.parametrize("endpoint", ["llm.local/v1", "ftp://llm.local/v1", "http:///v1"])
    def test_rejects_an_endpoint_that_is_not_an_http_url(self, endpoint):
        with pytest.raises(ValueError, match="not an http:// or https:// URL"):
            HttpBackend(BackendConfig(endpoint_url=endpoint, model="m"))
