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
in matrix order. Specialist results pass through a single serialized merge into GraphState
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
when a step raises, `_coordinate` waits for the calls left in the map, then clears the
exception's finished frames, which a failed call's future would keep in a cycle.
"""

from __future__ import annotations

import enum
import hashlib
import threading
import traceback
from collections import deque
from concurrent.futures import Executor, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from itertools import islice, product
from typing import Iterable, Iterator, Union

from .domain import (
    CaseResult,
    FanoutMode,
    GraphState,
    RedFlag,
    Stage,
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


def _coordinate(vignette: Vignette, cfg: RunConfig, calls: Executor) -> CaseResult:
    """One case-run's steps, in order; its backend calls go to `calls`. It ends after
    every call it sent: a step that raises leaves the specialist calls in `sent`, which
    are waited for before the exception goes on."""
    sent: InFlight = {}
    try:
        if cfg.architecture is Architecture.SINGLE_LLM:
            return run_single_llm(vignette, cfg, calls)
        state = GraphState(note=vignette)
        routed = route(state, cfg, calls, sent)
        execute_specialists(state, cfg, calls, sent, routed)
        manual_fanout(state, cfg, calls, sent, routed)
        return aggregate(state)
    except BaseException as exc:
        wait([future for future, _ in sent.values()])  # the case's next row follows them
        traceback.clear_frames(exc.__traceback__)  # a local may hold the failed call's future
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
    skipped, and one WARNING keeps its raw reply and parse error. ROUTING holds the
    reply, the record `parse_routing` made of it, and the sha256 of the prompt sent.
    """
    vignette = state.note
    prompt = cfg.prompts.orchestrator_prompt(vignette)
    answer, digest = _call(calls, cfg, prompt, vignette.id, ROLE_ORCHESTRATOR)
    if cfg.fanout_mode is FanoutMode.EXHAUSTIVE:  # after it: routing is on the critical path
        sent.update((flag, _specialist(calls, cfg, vignette, flag)) for flag in RedFlag)
    raw = answer.result()
    try:
        routing = parse_routing(raw, vignette)
    except (NoJsonFound, SchemaUnusable) as exc:
        state.add_event(Stage.WARNING, raw=raw,
                        message=f"orchestrator output unusable, exhaustive fallback: {exc}")
        raw, routing = None, {"next": [f.value for f in RedFlag],
                              "why": "fallback: orchestrator output unusable",
                              "evidence": [], "warnings": [], "fallback": True}
    state.add_event(Stage.ROUTING, raw=raw, **routing, prompt_sha256=digest)
    return [f for f in RedFlag if f.value in routing["next"]]


def _run_agents(state: GraphState, cfg: RunConfig, calls: Executor, sent: InFlight,
                flags: list[RedFlag], fanout_phase: bool) -> None:
    """Send into `sent` each flag's call that step 1 did not, record the agents' starts,
    then read their calls, each leaving `sent` as it is read, and add their verdicts
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
        try:  # no local holds the future: its exception's traceback holds this frame
            record = parse_verdict(sent.pop(flag)[0].result())
        except DroppedToolCall as exc:
            if not fanout_phase:  # the invocation vanished; fan-out runs the agent again
                state.add_event(Stage.WARNING, subject=flag, message=f"tool call dropped: {exc}")
                continue
            record = verdict_record("ERROR", error_detail=str(exc))
        except Exception as exc:  # per-agent error isolation
            record = verdict_record("ERROR", error_detail=f"{type(exc).__name__}: {exc}")
        state.add_verdict(flag, record)


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
        state.add_verdict(flag, verdicts[flag])
    return aggregate(state, raw=raw, prompt_sha256=digest)
