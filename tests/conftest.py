import json
import threading
import time
from pathlib import Path

import pytest

from redflagcds.domain import RedFlag, Vignette
from redflagcds.engine import Architecture, FanoutMode, RunConfig
from redflagcds.gateway import Fault, ScriptedBackend, ScriptEntry
from redflagcds.prompts import PromptLibrary, PromptStrategy

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
    with path.open("w", encoding="utf-8") as fh:
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


class CountingBackend:
    """Wraps a backend: each call sleeps `delay` seconds first, and the wrapper records
    the peak number of calls in flight and each call's (case_id, start, end)."""

    def __init__(self, inner, delay: float = 0.005):
        self.inner = inner
        self.delay = delay
        self.in_flight = 0
        self.peak = 0
        self.calls: list[tuple[str, float, float]] = []
        self._lock = threading.Lock()

    def complete(self, request, case_id: str = "", agent_role: str = "") -> str:
        with self._lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        start = time.monotonic()
        try:
            time.sleep(self.delay)
            return self.inner.complete(request, case_id=case_id, agent_role=agent_role)
        finally:
            end = time.monotonic()
            with self._lock:
                self.in_flight -= 1
                self.calls.append((case_id, start, end))
