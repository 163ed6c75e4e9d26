"""The four-step orchestrated workflow (route, parallel specialists, manual fan-out,
aggregate), run by `run_cases` for a whole evaluation and by `run_case` for one screen.

`run_cases` runs a whole evaluation, every case under every row of the matrix. It
runs each case-run's steps on a case coordinator thread and sends every backend
call (orchestrator, specialist, fan-out and baseline) to one call executor with
`concurrency` workers, so at most `concurrency` calls are in flight across the
cases and rows of a run, and rows overlap. The call executor runs only backend
calls: prompts are rendered and outputs parsed on the coordinator. A coordinator
waits on nothing but its own calls, and calls wait on nothing, so the bound cannot
deadlock. The submission window alone keeps each case's rows in matrix order: it holds
no more case-runs than there are cases, outcomes are read in order, and a case-run is
read only once its calls have ended. So a backend sees the calls for one (case, role)
in matrix order.

A case-run's state is one `CaseRun`: its note, row and call executor, its trace and
the specialist calls it sent and has not read. Each step takes it, and only the
case-run's own thread changes it. Specialist results pass through a single serialized
merge into its trace in canonical flag order, so traces are deterministic for a
scripted backend whatever order the calls finish in.

`run_case` runs one case-run's steps on its caller's thread, with no coordinator
thread, and sends its backend calls to its thread's call executor: made on the
thread's first screen with `concurrency` workers and kept warm for the next ones, which
start no thread once it is full; a screen asking for another `concurrency` replaces it.
It returns or raises once every call it sent has ended, so the executor is idle between
screens. Its workers exit when their thread ends, or at interpreter exit.

Under EXHAUSTIVE fan-out, step 1 sends all seven specialist calls right after the
orchestrator call; steps 2 and 3 send the calls of their flags not in `CaseRun.sent`,
and a call leaves it as it is read, so only the re-runs of dropped routed calls wait
for step 2. Events are still written in step order. A case-run ends after every call
it sent, in one place: when a step raises, `_coordinate` waits for the calls left in
`sent`, then clears the exception's finished frames, which a failed call's future
would keep in a cycle.
"""

from __future__ import annotations

import enum
import hashlib
import threading
import time
import traceback
from collections import deque
from concurrent.futures import Executor, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from itertools import islice, product
from typing import Any, Iterable, Iterator, Optional, Union

from .domain import (
    CaseResult,
    FanoutMode,
    RedFlag,
    Stage,
    TraceEvent,
    Vignette,
    canonical_order,
    verdict_record,
)
from .gateway import ROLE_BASELINE, ROLE_ORCHESTRATOR, DroppedToolCall
from .prompts import PromptLibrary, PromptStrategy
from .recovery import NoJsonFound, SchemaUnusable, parse_baseline, parse_routing, parse_verdict
from .trace import fanout_targets, summarize


class PendingNotEmpty(RuntimeError):
    """A started agent has no verdict at aggregation: an engine bug, not an agent failure."""


# Backend calls in flight by default: all an exhaustive screen sends at once, its routing
# call and its seven specialist calls.
DEFAULT_CONCURRENCY = 1 + len(RedFlag)

# Case-runs submitted and not yet read, per call slot, capped at the number of cases: on a
# larger dataset a slow case at the head keeps the others busy, yet results do not pile up.
CASES_AHEAD = 4

# Each calling thread's screen call executor and its worker count, as `pool`.
_screen = threading.local()

# A backend call sent: its future and its prompt's sha256.
Call = tuple[Future, str]


class Architecture(enum.Enum):
    MULTI_AGENT = "multi"
    SINGLE_LLM = "single"


@dataclass
class RunConfig:
    architecture: Architecture
    strategy: PromptStrategy
    backend: object  # anything with complete(prompt, case_id, agent_role) -> str
    model: str  # names the row (run names, report); the backend picks the model it calls
    prompts: PromptLibrary
    fanout_mode: FanoutMode = FanoutMode.ROUTED
    concurrency: int = DEFAULT_CONCURRENCY  # calls in flight at most in a run

    def __post_init__(self):
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be at least 1, got {self.concurrency}")


def run_cases(
    vignettes: Iterable[Vignette], *matrix: RunConfig
) -> Iterator[Union[CaseResult, Exception]]:
    """Run every case under every row of `matrix` concurrently; yield each case-run's
    CaseResult, or the exception it raised, row by row and in input order within a row.
    A case's run under one row is submitted only after its run under the row before
    has been yielded.

    Every row must have the same `concurrency`, the call bound of the whole run;
    otherwise the first `next()` raises ValueError, before any call. Closing the
    generator before the end cancels the case-runs that have not started; the
    ones already running finish first.
    """
    limits = {cfg.concurrency for cfg in matrix}
    if len(limits) > 1:
        raise ValueError(f"every row needs the same concurrency, got {sorted(limits)}")
    limit = limits.pop() if limits else DEFAULT_CONCURRENCY
    vignettes = list(vignettes)
    window = min(CASES_AHEAD * limit, len(vignettes))
    calls = ThreadPoolExecutor(max_workers=limit, thread_name_prefix="redflagcds-call")
    # One coordinator per call slot: a running case has a call outstanding nearly all the time.
    cases = ThreadPoolExecutor(max_workers=limit, thread_name_prefix="redflagcds-case")
    todo = product(matrix, vignettes)
    pending: deque[Future] = deque()
    try:
        while True:
            for cfg, vignette in islice(todo, window - len(pending)):
                pending.append(cases.submit(_coordinate, vignette, cfg, calls))
            if not pending:
                return
            try:
                outcome = pending.popleft().result()
            except Exception as exc:  # a case-level failure is its caller's to count
                outcome = exc
            yield outcome
    finally:
        cases.shutdown(cancel_futures=True)
        calls.shutdown()


def run_case(vignette: Vignette, cfg: RunConfig) -> CaseResult:
    """Run one case end to end on the caller's thread, with no coordinator thread; its
    backend calls go to the thread's call executor with `cfg.concurrency` workers.
    Agent-level failures never raise; they become ERROR verdicts. A case-level failure
    raises once the calls it sent have ended, which `_coordinate` sees to."""
    limit, calls = getattr(_screen, "pool", (None, None))
    if limit != cfg.concurrency:
        if calls is not None:  # idle: its workers exit once they see the shutdown
            calls.shutdown(wait=False)
        calls = ThreadPoolExecutor(cfg.concurrency, thread_name_prefix="redflagcds-call")
        _screen.pool = cfg.concurrency, calls
    return _coordinate(vignette, cfg, calls)


@dataclass
class CaseRun:
    """One case-run: its note, its row, the executor its backend calls go to, its trace
    (the only record of which agents owe a verdict), and the specialist calls it sent and
    has not read, by flag. Changed only by the case-run's own thread; specialist results
    are added through add_verdict at the serialized merge point."""

    note: Vignette
    cfg: RunConfig
    calls: Executor
    trace: list[TraceEvent] = field(default_factory=list)
    sent: dict[RedFlag, Call] = field(default_factory=dict)

    def add_event(self, stage: Stage, subject: Optional[RedFlag] = None, **payload) -> None:
        self.trace.append(TraceEvent(len(self.trace) + 1, stage, subject, payload, time.time()))

    def add_verdict(self, flag: RedFlag, record: dict[str, Any]) -> None:
        """Record the flag's verdict record (`verdict_record`) in the trace, unchanged."""
        stage = Stage.AGENT_ERROR if record["decision"] == "ERROR" else Stage.AGENT_DONE
        self.add_event(stage, flag, **record)

    def call(self, prompt: str, role: str) -> Call:
        """Submit one backend call, then hash its prompt's UTF-8 (a lone surrogate included)."""
        future = self.calls.submit(self.cfg.backend.complete, prompt, case_id=self.note.id,
                                   agent_role=role)
        return future, hashlib.sha256(prompt.encode("utf-8", "surrogatepass")).hexdigest()

    def specialist(self, flag: RedFlag) -> Call:
        """Render the flag's specialist prompt and submit its call."""
        return self.call(self.cfg.prompts.specialist_prompt(flag, self.cfg.strategy, self.note),
                         flag.value)


def _coordinate(vignette: Vignette, cfg: RunConfig, calls: Executor) -> CaseResult:
    """One case-run's steps, in order; its backend calls go to `calls`. It ends after
    every call it sent: a step that raises leaves the specialist calls in `run.sent`,
    which are waited for before the exception goes on."""
    run = CaseRun(vignette, cfg, calls)
    try:
        if cfg.architecture is Architecture.SINGLE_LLM:
            return run_single_llm(run)
        routed = route(run)
        execute_specialists(run, routed)
        manual_fanout(run, routed)
        return aggregate(run)
    except BaseException as exc:
        wait([future for future, _ in run.sent.values()])  # the case's next row follows them
        traceback.clear_frames(exc.__traceback__)  # a local may hold the failed call's future
        raise


def route(run: CaseRun) -> list[RedFlag]:
    """Step 1: ask the orchestrator which flags to route; return them in canonical order.

    Under EXHAUSTIVE fan-out every specialist will be called, so right after the
    orchestrator call each flag's call is sent into `run.sent`. The orchestrator is asked
    once. An unusable output falls back to all seven agents, so no red flag is silently
    skipped, and one WARNING keeps its raw reply and parse error. ROUTING holds the
    reply, the record `parse_routing` made of it, and the sha256 of the prompt sent.
    """
    answer, digest = run.call(run.cfg.prompts.orchestrator_prompt(run.note), ROLE_ORCHESTRATOR)
    if run.cfg.fanout_mode is FanoutMode.EXHAUSTIVE:  # after it: routing is on the critical path
        run.sent.update((flag, run.specialist(flag)) for flag in RedFlag)
    raw = answer.result()
    try:
        routing = parse_routing(raw, run.note)
    except (NoJsonFound, SchemaUnusable) as exc:
        run.add_event(Stage.WARNING, raw=raw,
                      message=f"orchestrator output unusable, exhaustive fallback: {exc}")
        raw, routing = None, {"next": [f.value for f in RedFlag],
                              "why": "fallback: orchestrator output unusable",
                              "evidence": [], "warnings": [], "fallback": True}
    run.add_event(Stage.ROUTING, raw=raw, **routing, prompt_sha256=digest)
    return [f for f in RedFlag if f.value in routing["next"]]


def _run_agents(run: CaseRun, flags: list[RedFlag], fanout_phase: bool) -> None:
    """Send into `run.sent` each flag's call that step 1 did not, record the agents'
    starts, then read their calls, each leaving `run.sent` as it is read, and add their
    verdicts through the serialized merge point. A call that raised is an ERROR verdict,
    but a dropped call in step 2 leaves its flag with no verdict, which step 3's fan-out
    rule runs again.

    Results are applied in canonical flag order so scripted runs are
    reproducible regardless of thread completion order.
    """
    run.sent.update((flag, run.specialist(flag)) for flag in flags if flag not in run.sent)
    for flag in flags:
        run.add_event(Stage.AGENT_START, subject=flag, strategy=run.cfg.strategy.value,
                      prompt_sha256=run.sent[flag][1])
    for flag in flags:
        try:  # no local holds the future: its exception's traceback holds this frame
            record = parse_verdict(run.sent.pop(flag)[0].result())
        except Exception as exc:  # per-agent error isolation
            if isinstance(exc, DroppedToolCall) and not fanout_phase:  # fan-out runs it again
                run.add_event(Stage.WARNING, subject=flag, message=f"tool call dropped: {exc}")
                continue
            record = verdict_record("ERROR", error_detail=f"{type(exc).__name__}: {exc}")
        run.add_verdict(flag, record)


def execute_specialists(run: CaseRun, routed: list[RedFlag]) -> None:
    """Step 2: run every routed specialist in parallel with error isolation, taking
    their calls from `run.sent` when step 1 sent them."""
    _run_agents(run, routed, fanout_phase=False)


def manual_fanout(run: CaseRun, routed: list[RedFlag]) -> None:
    """Step 3: detect and execute expected-but-not-completed agents, by the one rule that
    `replay --verify` also checks (`trace.fanout_targets`): the routed flags under ROUTED
    mode or all seven under EXHAUSTIVE, less the flags with a verdict. Their calls are
    taken from `run.sent` when step 1 sent them; only routed agents whose call was
    dropped are called again. Always emits exactly one FANOUT event, which records the
    mode."""
    mode = run.cfg.fanout_mode
    decided = summarize(run.trace).verdicts.keys()
    missing = canonical_order(fanout_targets(mode, routed) - decided)
    run.add_event(Stage.FANOUT, mode=mode.value, missing=[f.value for f in missing])
    _run_agents(run, missing, fanout_phase=True)


def aggregate(run: CaseRun, **call) -> CaseResult:
    """Step 4: fold the trace's verdicts into the case result, or raise PendingNotEmpty for
    a started flag with none; `call` is the single-LLM call's `raw` and `prompt_sha256`."""
    summary = summarize(run.trace)
    if unfinished := set(summary.started) - summary.verdicts.keys():
        raise PendingNotEmpty(sorted(f.value for f in unfinished))
    run.add_event(Stage.AGGREGATE, **call, predicted=sorted(f.value for f in summary.predicted),
                  verdict_count=len(summary.verdicts))
    return CaseResult(run.note.id, summary.predicted, tuple(run.trace))


def run_single_llm(run: CaseRun) -> CaseResult:
    """Baseline path: one call classifies all seven red flags at once."""
    prompt = run.cfg.prompts.baseline_prompt(run.cfg.strategy, run.note)
    answer, digest = run.call(prompt, ROLE_BASELINE)
    raw = answer.result()
    verdicts = parse_baseline(raw)
    for flag in canonical_order(verdicts):
        run.add_verdict(flag, verdicts[flag])
    return aggregate(run, raw=raw, prompt_sha256=digest)
