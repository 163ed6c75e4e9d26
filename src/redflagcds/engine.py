"""The four-step orchestrated workflow (route, parallel specialists, manual fan-out,
aggregate), run by `run_cases` for a whole evaluation and by `run_case` for one screen.

`run_cases` runs a whole evaluation, every case under every row of the matrix. It
runs each case-run's steps on a case coordinator thread and sends every backend
call (orchestrator, specialist, fan-out and baseline) to one call executor with
`concurrency` workers, so at most `concurrency` calls are in flight across the
cases and rows of a run, and rows overlap. The call executor runs only backend
calls: prompts are rendered and outputs parsed on the coordinator. Coordinators
wait on calls; calls wait on nothing, so the bound cannot deadlock. A case runs
its rows in matrix order: its run under one row starts after its run under the
row before has ended, so a backend sees the calls for one (case, role) in matrix
order. Specialist results pass through a single serialized merge into GraphState
in canonical flag order, so traces are deterministic for a scripted backend
whatever order the calls finish in.

`run_case` runs one case-run's steps on its caller's thread, with no coordinator
thread, and sends its backend calls to its thread's call executor: made on the
thread's first screen with `concurrency` workers and kept warm for the next ones, which
start no thread once it is full; a screen asking for another `concurrency` replaces it.
It returns or raises once every call it sent has ended, so the executor is idle between
screens. Its workers exit when their thread ends, or at interpreter exit.

A case-run's steps share one map of the specialist calls sent and not yet read. Under
EXHAUSTIVE fan-out, step 1 sends all seven right after the orchestrator call;
steps 2 and 3 send the calls of their flags not in the map, and a call leaves the map
as it is read, so only the re-runs of dropped routed calls wait for step 2. Events are
still written in step order. A case-run ends after every call it sent, in one place:
when a step raises, `_coordinate` waits for the calls left in the map before the
exception goes on, so the case's next row never overlaps them.
"""

from __future__ import annotations

import enum
import hashlib
import threading
from collections import deque
from concurrent.futures import Executor, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from itertools import islice, product
from typing import Iterable, Iterator, Optional, Union

from .domain import (
    AgentVerdict,
    CaseResult,
    Decision,
    FanoutMode,
    GraphState,
    RedFlag,
    RoutingDecision,
    Stage,
    Vignette,
    canonical_order,
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

# Cases submitted ahead of the one being read, per call slot: enough that a slow case at
# the head keeps the others busy, few enough that finished results do not pile up.
CASES_AHEAD = 4

# Each calling thread's screen call executor and its worker count, as `pool`.
_screen = threading.local()

# A case-run's specialist calls sent and not yet read, by flag; a call sent is its future
# and its prompt's sha256.
Call = tuple[Future, str]
InFlight = dict[RedFlag, Call]


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

    Every row must have the same `concurrency`, the call bound of the whole run;
    otherwise the first `next()` raises ValueError, before any call. Closing the
    generator before the end cancels the case-runs that have not started; the
    ones already running finish first.
    """
    limits = {cfg.concurrency for cfg in matrix}
    if len(limits) > 1:
        raise ValueError(f"every row needs the same concurrency, got {sorted(limits)}")
    limit = limits.pop() if limits else DEFAULT_CONCURRENCY
    calls = ThreadPoolExecutor(max_workers=limit, thread_name_prefix="redflagcds-call")
    # One coordinator per call slot: a running case has a call outstanding nearly all the time.
    cases = ThreadPoolExecutor(max_workers=limit, thread_name_prefix="redflagcds-case")
    todo = product(matrix, enumerate(vignettes))
    latest: dict[int, Future] = {}  # case index -> its latest run, until that run is read
    pending: deque[tuple[int, Future]] = deque()
    try:
        while True:
            for cfg, (index, vignette) in islice(todo, CASES_AHEAD * limit - len(pending)):
                # the case's run under the row before was submitted first, so it is
                # running or done when this one starts and waits for it
                latest[index] = cases.submit(
                    _coordinate, vignette, cfg, calls, latest.get(index))
                pending.append((index, latest[index]))
            if not pending:
                return
            index, future = pending.popleft()
            try:
                outcome = future.result()
            except Exception as exc:  # a case-level failure is its caller's to count
                outcome = exc
            if latest[index] is future:
                del latest[index]
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
    return _coordinate(vignette, cfg, calls, None)


def _coordinate(
    vignette: Vignette, cfg: RunConfig, calls: Executor, after: Optional[Future]
) -> CaseResult:
    """One case-run's steps, in order, once the case's run `after` has ended; its backend
    calls go to `calls`. It ends after every call it sent: a step that raises leaves the
    specialist calls in `sent`, which are waited for before the exception goes on."""
    if after is not None:
        wait([after])
    if cfg.architecture is Architecture.SINGLE_LLM:
        return run_single_llm(vignette, cfg, calls)
    state = GraphState(note=vignette)
    sent: InFlight = {}
    try:
        routed = route(state, cfg, calls, sent)
        execute_specialists(state, cfg, calls, sent, routed)
        manual_fanout(state, cfg, calls, sent, routed)
        return aggregate(state)
    except BaseException:
        wait([future for future, _ in sent.values()])  # the case's next row follows them
        raise


def _call(calls: Executor, cfg: RunConfig, prompt: str, case_id: str, role: str) -> Call:
    """Submit one backend call, then hash its prompt's UTF-8 (a lone surrogate included)."""
    future = calls.submit(cfg.backend.complete, prompt, case_id=case_id, agent_role=role)
    return future, hashlib.sha256(prompt.encode("utf-8", "surrogatepass")).hexdigest()


def _specialist(calls: Executor, cfg: RunConfig, vignette: Vignette, flag: RedFlag) -> Call:
    """Render the flag's specialist prompt and submit its call."""
    prompt = cfg.prompts.specialist_prompt(flag, cfg.strategy, vignette)
    return _call(calls, cfg, prompt, vignette.id, flag.value)


def route(state: GraphState, cfg: RunConfig, calls: Executor, sent: InFlight) -> list[RedFlag]:
    """Step 1: ask the orchestrator which flags to route; return them in canonical order.

    Under EXHAUSTIVE fan-out every specialist will be called, so right after the
    orchestrator call each flag's call is sent into `sent`. The orchestrator is asked
    once. An unusable output falls back to all seven agents, so no red flag is silently
    skipped, and one WARNING keeps its raw reply and parse error. ROUTING records the
    sha256 of the prompt sent.
    """
    vignette = state.note
    prompt = cfg.prompts.orchestrator_prompt(vignette)
    answer, digest = _call(calls, cfg, prompt, vignette.id, ROLE_ORCHESTRATOR)
    if cfg.fanout_mode is FanoutMode.EXHAUSTIVE:  # after it: routing is on the critical path
        sent.update((flag, _specialist(calls, cfg, vignette, flag)) for flag in RedFlag)
    raw = answer.result()
    try:
        decision, warnings = parse_routing(raw, vignette)
        fallback = {}
    except (NoJsonFound, SchemaUnusable) as exc:
        state.add_event(Stage.WARNING, raw=raw,
                        message=f"orchestrator output unusable, exhaustive fallback: {exc}")
        decision = RoutingDecision(next=list(RedFlag), why="fallback: orchestrator output unusable")
        raw, warnings, fallback = None, [], {"fallback": True}
    state.add_event(
        Stage.ROUTING,
        raw=raw,
        next=[f.value for f in decision.next],
        why=decision.why,
        evidence=list(decision.evidence),
        warnings=warnings,
        **fallback,
        prompt_sha256=digest,
    )
    return canonical_order(decision.next)


def _run_agents(state: GraphState, cfg: RunConfig, calls: Executor, sent: InFlight,
                flags: list[RedFlag], fanout_phase: bool) -> None:
    """Send into `sent` each flag's call that step 1 did not, record the agents' starts,
    then read their calls, each leaving `sent` as it is read, and apply their results
    through the serialized merge point. A dropped call is an ERROR verdict in step 3; in
    step 2 it leaves its flag with no verdict, which step 3's fan-out rule runs again.

    Results are applied in canonical flag order so scripted runs are
    reproducible regardless of thread completion order.
    """
    sent.update((flag, _specialist(calls, cfg, state.note, flag))
                for flag in flags if flag not in sent)
    for flag in flags:
        state.add_event(Stage.AGENT_START, subject=flag, strategy=cfg.strategy.value,
                        prompt_sha256=sent[flag][1])
    for flag in flags:
        future, _ = sent.pop(flag)
        try:
            verdict = parse_verdict(future.result(), flag)
        except DroppedToolCall as exc:
            if fanout_phase:
                verdict = AgentVerdict(flag=flag, decision=Decision.ERROR, error_detail=str(exc))
            else:
                # the invocation vanished; fan-out runs the agent again
                state.add_event(Stage.WARNING, subject=flag, message=f"tool call dropped: {exc}")
                continue
        except Exception as exc:  # per-agent error isolation
            verdict = AgentVerdict(
                flag=flag,
                decision=Decision.ERROR,
                error_detail=f"{type(exc).__name__}: {exc}",
            )
        state.apply_verdict(verdict)


def execute_specialists(state: GraphState, cfg: RunConfig, calls: Executor, sent: InFlight,
                        routed: list[RedFlag]) -> None:
    """Step 2: run every routed specialist in parallel with error isolation, taking
    their calls from `sent` when step 1 sent them."""
    _run_agents(state, cfg, calls, sent, routed, fanout_phase=False)


def manual_fanout(state: GraphState, cfg: RunConfig, calls: Executor, sent: InFlight,
                  routed: list[RedFlag]) -> None:
    """Step 3: detect and execute expected-but-not-completed agents, by the one rule that
    `replay --verify` also checks (`trace.fanout_targets`): the routed flags under ROUTED
    mode or all seven under EXHAUSTIVE, less the flags with a verdict. Their calls are
    taken from `sent` when step 1 sent them; only routed agents whose call was dropped
    are called again. Always emits exactly one FANOUT event, which records the mode."""
    decided = summarize(state.trace).verdicts.keys()
    missing = canonical_order(fanout_targets(cfg.fanout_mode, routed) - decided)
    state.add_event(Stage.FANOUT, mode=cfg.fanout_mode.value, missing=[f.value for f in missing])
    _run_agents(state, cfg, calls, sent, missing, fanout_phase=True)


def aggregate(state: GraphState, **call) -> CaseResult:
    """Step 4: fold the trace's verdicts into the case result, or raise PendingNotEmpty for
    a started flag with none; `call` is the single-LLM call's `raw` and `prompt_sha256`."""
    summary = summarize(state.trace)
    if unfinished := set(summary.started) - summary.verdicts.keys():
        raise PendingNotEmpty(sorted(f.value for f in unfinished))
    state.add_event(Stage.AGGREGATE, **call, predicted=sorted(f.value for f in summary.predicted),
                    verdict_count=len(summary.verdicts))
    return CaseResult(state.note.id, summary.predicted, tuple(state.trace))


def run_single_llm(vignette: Vignette, cfg: RunConfig, calls: Executor) -> CaseResult:
    """Baseline path: one call classifies all seven red flags at once."""
    state = GraphState(note=vignette)
    prompt = cfg.prompts.baseline_prompt(cfg.strategy, vignette)
    answer, digest = _call(calls, cfg, prompt, vignette.id, ROLE_BASELINE)
    raw = answer.result()
    verdicts = parse_baseline(raw)
    for flag in canonical_order(verdicts):
        state.apply_verdict(verdicts[flag])
    return aggregate(state, raw=raw, prompt_sha256=digest)
