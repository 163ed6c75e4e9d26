import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import NamedTuple

import pytest

from redflagcds.domain import RedFlag, Vignette
from redflagcds.engine import Architecture, CaseRun, FanoutMode, RunConfig
from redflagcds.gateway import Fault, ScriptedBackend, ScriptEntry
from redflagcds.prompts import PromptLibrary, PromptStrategy
from redflagcds.trace import summarize

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES_DIR = REPO_ROOT / "fixtures"

# Verbatim console output used throughout the scripted scenarios.
TABLE1_RAW = (
    '{ "next": ["meningismus"], "why": "patient has meningismus with stiff neck and '
    'signs of meningeal irritation", "evidence": ["stiff neck", "fever", "headache", '
    '"vomiting", "46 white cells (69% neutrophils)/μl", "low glucose", "high lactate"] }'
)


@pytest.fixture(scope="session")
def prompts() -> PromptLibrary:
    return PromptLibrary.default()


@pytest.fixture
def started_threads(monkeypatch) -> list[threading.Thread]:
    """Every thread started while the test runs, in start order."""
    started = []
    start = threading.Thread.start

    def record(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    return started


@pytest.fixture
def vignette() -> Vignette:
    return Vignette(
        id="case-7",
        text="A 29-year-old woman with headache, fever, vomiting, and a stiff neck.",
    )


def yes_response(flag: RedFlag) -> str:
    return f'YES. The note documents findings meeting the {flag.value} criteria.'


def no_response(flag: RedFlag) -> str:
    return f"NO. No findings satisfy the {flag.value} criteria."


def full_script(case_id: str, orchestrator_raw: str, yes_flags=(), faults=None):
    """Script entries covering the orchestrator plus all seven specialists."""
    faults = faults or {}
    entries = [ScriptEntry(case_id, "orchestrator", orchestrator_raw)]
    for flag in RedFlag:
        response = yes_response(flag) if flag in yes_flags else no_response(flag)
        entries.append(
            ScriptEntry(case_id, flag.value, response, fault=faults.get(flag))
        )
    return entries


def verdicts(result) -> dict:
    """A case-run's verdict payloads by flag, as its trace records them."""
    return summarize(result.trace).verdicts


def decision_of(result, flag: RedFlag) -> str:
    """The decision of the flag's verdict in a case-run's trace: "YES", "NO" or "ERROR"."""
    return verdicts(result)[flag]["decision"]


def case_run(note: Vignette) -> CaseRun:
    """A case-run with no row and no call executor: enough for the steps that only read
    and write its trace (`add_event`, `add_verdict`, `aggregate`)."""
    return CaseRun(note, cfg=None, calls=None)


def multi_config(backend, prompts, **overrides) -> RunConfig:
    defaults = dict(
        architecture=Architecture.MULTI_AGENT,
        strategy=PromptStrategy.GPROMPT,
        backend=backend,
        model="scripted",
        prompts=prompts,
        fanout_mode=FanoutMode.ROUTED,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def write_jsonl(path: Path, records) -> Path:
    """One JSON record per line; a lone surrogate is written as its escape, as in a trace."""
    with path.open("w", encoding="utf-8", errors="backslashreplace") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    return path


def script_entry_record(entry: ScriptEntry) -> dict:
    record = {
        "case_id": entry.case_id,
        "agent_role": entry.agent_role,
        "response": entry.response,
    }
    if entry.fault:
        record["fault"] = entry.fault.value
    return record


def write_script_file(path: Path, entries) -> Path:
    return write_jsonl(path, [script_entry_record(e) for e in entries])


def within(seconds: float, fn):
    """Run fn in a thread and return its result; fail, not hang, if it takes longer."""
    box = {}

    def body():
        try:
            box["value"] = fn()
        except BaseException as exc:  # handed to the test thread below
            box["error"] = exc

    worker = threading.Thread(target=body, daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    assert not worker.is_alive(), f"did not finish within {seconds} s (deadlock?)"
    if "error" in box:
        raise box["error"]
    return box["value"]


class Call(NamedTuple):
    case_id: str
    start: float
    end: float
    role: str


class CountingBackend:
    """Wraps a backend: each call sleeps `delay` seconds first, and the wrapper records
    the peak number of calls in flight and each call's Call(case_id, start, end, role).

    With `gate=n`, each call is first held until n calls are in flight at once, so the
    peak reaches a call bound of n however late the executor starts its threads. The
    gate opens for good once n calls have been in flight, or once a call has been held
    `GATE_TIMEOUT` seconds: an engine that allows fewer than n fails, not hangs."""

    GATE_TIMEOUT = 10.0

    def __init__(self, inner, delay: float = 0.005, gate: int = 0):
        self.inner = inner
        self.delay = delay
        self.gate = gate
        self.in_flight = 0
        self.peak = 0
        self.calls: list[Call] = []
        self._lock = threading.Condition()

    def complete(self, request, case_id: str = "", agent_role: str = "") -> str:
        with self._lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            self._lock.notify_all()
            if not self._lock.wait_for(lambda: self.peak >= self.gate, self.GATE_TIMEOUT):
                self.gate = 0  # held too long: the bound is below n, so let all through
                self._lock.notify_all()
        start = time.monotonic()
        try:
            time.sleep(self.delay)
            return self.inner.complete(request, case_id=case_id, agent_role=agent_role)
        finally:
            end = time.monotonic()
            with self._lock:
                self.in_flight -= 1
                self.calls.append(Call(case_id, start, end, agent_role))


def chat_reply(content: str) -> tuple[int, bytes]:
    """A 200 chat-completions answer carrying `content` as the assistant message."""
    return 200, json.dumps({"choices": [{"message": {"content": content}}]}).encode()


class _CountingStub(ThreadingHTTPServer):
    """Local chat-completions stub on 127.0.0.1 over HTTP/1.1 keep-alive. It counts the
    connections it accepts and records each GET's path and each POST's path, headers and
    JSON body. Each
    POST waits `delay` seconds, then takes the next (status, body) from `replies`, or
    answers "NO." once they run out. With `close_idle`, it closes every connection after
    one answer without saying so, as a server ending an idle keep-alive connection does;
    `closed` is set once it has. With `say_close`, every answer says `Connection: close`,
    and the connection closes after it."""

    daemon_threads = True

    def __init__(self, replies=(), delay=0.01, close_idle=False, say_close=False):
        super().__init__(("127.0.0.1", 0), _StubHandler)
        self.connections = 0
        self.gets: list[str] = []
        self.posts: list[dict] = []
        self.replies = list(replies)
        self.delay = delay
        self.close_idle = close_idle
        self.say_close = say_close
        self.closed = threading.Event()
        self.lock = threading.Lock()

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_address[1]}/v1"

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.set()


class _StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = 10

    def setup(self):  # once per accepted connection
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_GET(self):
        with self.server.lock:
            self.server.gets.append(self.path)
        self._send(200, b"")

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        time.sleep(self.server.delay)
        with self.server.lock:
            self.server.posts.append({"path": self.path, "headers": self.headers, "json": body})
            status, reply = self.server.replies.pop(0) if self.server.replies else chat_reply("NO.")
        self._send(status, reply)

    def _send(self, status, body):
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        if self.server.say_close:
            self.send_header("Connection", "close")  # closes the connection after this answer
        self.end_headers()
        self.wfile.write(body)
        if self.server.close_idle:
            self.close_connection = True

    def log_message(self, *args):
        pass


@pytest.fixture
def serve_stub():
    """Start `_CountingStub` servers for one test (same arguments) and stop them after it."""
    stubs = []

    def start(**options):
        stub = _CountingStub(**options)
        threading.Thread(target=stub.serve_forever, args=(0.01,), daemon=True).start()
        stubs.append(stub)
        return stub

    yield start
    for stub in stubs:
        stub.shutdown()
        stub.server_close()
