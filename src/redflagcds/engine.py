"""The four-step orchestrated workflow: route, parallel specialists, manual fan-out, aggregate.

Specialists run concurrently but every result passes through a single serialized
merge into GraphState, so traces are deterministic for a scripted backend.
"""

from __future__ import annotations

import enum
import logging
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .domain import (
    AgentVerdict,
    CaseResult,
    Decision,
    GraphState,
    RedFlag,
    RoutingDecision,
    Stage,
    Vignette,
    canonical_order,
)
from .gateway import ROLE_BASELINE, ROLE_ORCHESTRATOR, DroppedToolCall, user_request
from .prompts import PromptLibrary, PromptStrategy
from .recovery import NoJsonFound, SchemaUnusable, parse_baseline, parse_routing, parse_verdict

logger = logging.getLogger(__name__)


class PendingNotEmpty(RuntimeError):
    """Aggregation reached with agents still pending; an engine bug, not an agent failure."""


# Orchestrator calls per case before the seven-agent fallback: the first and one re-prompt.
ROUTE_ATTEMPTS = 2


class Architecture(enum.Enum):
    MULTI_AGENT = "multi"
    SINGLE_LLM = "single"


class FanoutMode(enum.Enum):
    ROUTED = "routed"
    EXHAUSTIVE = "exhaustive"


@dataclass
class RunConfig:
    architecture: Architecture
    strategy: PromptStrategy
    backend: object  # anything with complete(request, case_id, agent_role) -> str
    model: str
    prompts: PromptLibrary
    fanout_mode: FanoutMode = FanoutMode.ROUTED
    strict_evidence: bool = False
    concurrency: Optional[int] = None  # None = unbounded


def run_case(vignette: Vignette, cfg: RunConfig) -> CaseResult:
    """Run one case end to end. Agent-level failures never raise; they become ERROR verdicts."""
    if cfg.architecture is Architecture.SINGLE_LLM:
        return run_single_llm(vignette, cfg)
    state = GraphState(note=vignette)
    route(state, cfg)
    execute_specialists(state, cfg)
    manual_fanout(state, cfg)
    return aggregate(state)


def route(state: GraphState, cfg: RunConfig) -> GraphState:
    """Ask the orchestrator for a routing decision; set the pending agent set.

    An unusable output is re-prompted until ROUTE_ATTEMPTS calls are made; if
    it stays unusable, fall back to all seven agents so no red flag is silently
    skipped.
    """
    vignette = state.note
    prompt = cfg.prompts.orchestrator_prompt(vignette)
    fallback = {}
    for attempt in range(1, ROUTE_ATTEMPTS + 1):
        raw = cfg.backend.complete(
            user_request(cfg.model, prompt), case_id=vignette.id, agent_role=ROLE_ORCHESTRATOR
        )
        try:
            decision, warnings = parse_routing(raw, vignette, cfg.strict_evidence)
            break
        except (NoJsonFound, SchemaUnusable) as exc:
            state.add_event(
                Stage.WARNING,
                message=f"unusable orchestrator output on attempt {attempt}: {exc}",
                raw=raw,
            )
    else:
        state.add_event(
            Stage.WARNING,
            message=f"orchestrator output unusable after {ROUTE_ATTEMPTS} attempts; exhaustive fallback",
        )
        decision = RoutingDecision(next=list(RedFlag), why="fallback: orchestrator output unusable")
        raw, warnings, fallback = None, [], {"fallback": True}
    state.routing = decision
    state.pending = set(decision.next)
    state.add_event(
        Stage.ROUTING,
        raw=raw,
        next=[f.value for f in decision.next],
        why=decision.why,
        evidence=list(decision.evidence),
        warnings=warnings,
        attempt=attempt,
        **fallback,
    )
    return state


def _invoke_specialist(cfg: RunConfig, vignette: Vignette, flag: RedFlag) -> AgentVerdict:
    prompt = cfg.prompts.specialist_prompt(flag, cfg.strategy, vignette)
    raw = cfg.backend.complete(
        user_request(cfg.model, prompt), case_id=vignette.id, agent_role=flag.value
    )
    return parse_verdict(raw, flag)


def _run_agents(state: GraphState, cfg: RunConfig, flags: list[RedFlag], fanout_phase: bool) -> None:
    """Dispatch agents concurrently and apply results through the serialized merge point.

    Results are applied in canonical flag order so scripted runs are
    reproducible regardless of thread completion order.
    """
    if not flags:
        return
    for flag in flags:
        state.add_event(Stage.AGENT_START, subject=flag, strategy=cfg.strategy.value)
    workers = cfg.concurrency or len(flags)
    futures: dict[RedFlag, Future] = {}
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for flag in flags:
            futures[flag] = pool.submit(_invoke_specialist, cfg, state.note, flag)
        for flag in flags:
            try:
                verdict = futures[flag].result()
            except DroppedToolCall as exc:
                if fanout_phase:
                    verdict = AgentVerdict(
                        flag=flag, decision=Decision.ERROR, error_detail=str(exc)
                    )
                else:
                    # the invocation vanished; leave the agent pending for fan-out
                    state.add_event(Stage.WARNING, subject=flag, message=f"tool call dropped: {exc}")
                    continue
            except Exception as exc:  # per-agent error isolation
                verdict = AgentVerdict(
                    flag=flag,
                    decision=Decision.ERROR,
                    error_detail=f"{type(exc).__name__}: {exc}",
                )
            state.apply_verdict(verdict)


def execute_specialists(state: GraphState, cfg: RunConfig) -> GraphState:
    """Step 2: run every pending specialist in parallel with error isolation."""
    _run_agents(state, cfg, canonical_order(state.pending), fanout_phase=False)
    return state


def manual_fanout(state: GraphState, cfg: RunConfig) -> GraphState:
    """Step 3: detect and execute expected-but-not-completed agents.

    Expected is the routing list under ROUTED mode, or all seven under
    EXHAUSTIVE mode. Always emits exactly one FANOUT event.
    """
    if cfg.fanout_mode is FanoutMode.EXHAUSTIVE:
        expected = set(RedFlag)
    else:
        expected = set(state.routing.next) if state.routing else set()
    missing = canonical_order(expected - state.completed)
    state.add_event(Stage.FANOUT, missing=[f.value for f in missing])
    state.pending.update(missing)
    _run_agents(state, cfg, missing, fanout_phase=True)
    return state


def aggregate(state: GraphState, raw: Optional[str] = None) -> CaseResult:
    """Step 4: fold all verdicts into the unified case result; `raw` is the baseline's output."""
    if state.pending:
        raise PendingNotEmpty(sorted(f.value for f in state.pending))
    predicted = sorted(f.value for f, v in state.outputs.items() if v.decision is Decision.YES)
    extra = {} if raw is None else {"raw": raw}
    state.add_event(Stage.AGGREGATE, **extra, predicted=predicted, verdict_count=len(state.outputs))
    return CaseResult.build(state.note.id, state.outputs, state.routing, state.trace)


def run_single_llm(vignette: Vignette, cfg: RunConfig) -> CaseResult:
    """Baseline path: one call classifies all seven red flags at once."""
    state = GraphState(note=vignette)
    prompt = cfg.prompts.baseline_prompt(cfg.strategy, vignette)
    raw = cfg.backend.complete(
        user_request(cfg.model, prompt), case_id=vignette.id, agent_role=ROLE_BASELINE
    )
    verdicts = parse_baseline(raw)
    state.pending = set(RedFlag)
    for flag in canonical_order(verdicts):
        state.apply_verdict(verdicts[flag])
    return aggregate(state, raw)
