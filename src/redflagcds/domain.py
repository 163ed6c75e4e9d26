"""Core types for the red-flag screening workflow: taxonomy, routing, verdicts, state, trace."""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Any, Optional


class UnknownAgentName(ValueError):
    """Raised when a routing target is not one of the seven valid agent names."""


class EmptyVignette(ValueError):
    """Raised when a vignette has no text after whitespace trimming."""


class RedFlag(enum.Enum):
    """The seven red-flag domains. Values are the canonical wire names."""

    THUNDERCLAP = "thunderclap"
    MENINGISMUS = "meningismus"
    PAPILLEDEMA = "papilledema"
    TEMPORAL_ARTERITIS = "temporal_arteritis"
    SYSTEMIC_ILLNESS = "systemic_illness"
    FOCAL_DEFICITS = "focal_deficits"
    FIRST_WORST_HEADACHE = "first_worst_headache"


_WIRE_TO_FLAG = {f.value: f for f in RedFlag}


def parse_red_flag(name: str) -> RedFlag:
    """Map a wire name (case/whitespace tolerant) to its RedFlag, or raise UnknownAgentName."""
    key = str(name).strip().lower()
    try:
        return _WIRE_TO_FLAG[key]
    except KeyError:
        raise UnknownAgentName(name) from None


def canonical_order(flags) -> list[RedFlag]:
    """The flags in `flags` (a set, or a dict by flag) in RedFlag's declaration order, the
    order used everywhere a deterministic agent order is needed."""
    return [flag for flag in RedFlag if flag in flags]


class Decision(enum.Enum):
    YES = "YES"
    NO = "NO"
    ERROR = "ERROR"


class FanoutMode(enum.Enum):
    ROUTED = "routed"
    EXHAUSTIVE = "exhaustive"


class Stage(enum.Enum):
    ROUTING = "ROUTING"
    AGENT_START = "AGENT_START"
    AGENT_DONE = "AGENT_DONE"
    AGENT_ERROR = "AGENT_ERROR"
    FANOUT = "FANOUT"
    AGGREGATE = "AGGREGATE"
    WARNING = "WARNING"


@dataclass(frozen=True)
class Vignette:
    """A free-text clinical note with an opaque case id."""

    id: str
    text: str

    def __post_init__(self):
        if not self.text.strip():
            raise EmptyVignette(f"vignette {self.id!r} has no text")


@dataclass(frozen=True)
class RoutingDecision:
    """The orchestrator's parsed routing output: target agents, justification, evidence quotes."""

    next: tuple[RedFlag, ...]
    why: str
    evidence: tuple[str, ...]

    def __init__(self, next, why: str = "", evidence=()):  # noqa: A002 - wire name
        targets = tuple(next)
        if len(set(targets)) != len(targets):
            raise ValueError("routing targets contain duplicates")
        object.__setattr__(self, "next", targets)
        object.__setattr__(self, "why", why)
        object.__setattr__(self, "evidence", tuple(evidence))


@dataclass(frozen=True)
class AgentVerdict:
    """One specialist's decision with rationale, evidence, and the verbatim backend output."""

    flag: RedFlag
    decision: Decision
    rationale: str = ""
    evidence: tuple[str, ...] = ()
    raw: str = ""
    error_detail: Optional[str] = None

    def __post_init__(self):
        if (self.decision is Decision.ERROR) != (self.error_detail is not None):
            raise ValueError("error_detail must be present iff decision is ERROR")
        object.__setattr__(self, "evidence", tuple(self.evidence))


@dataclass(frozen=True)
class TraceEvent:
    sequence: int
    stage: Stage
    subject: Optional[RedFlag]
    payload: dict[str, Any]
    wall_time: float

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "sequence": self.sequence,
            "stage": self.stage.value,
            "subject": self.subject.value if self.subject else None,
            "payload": self.payload,
            "wall_time": self.wall_time,
        }

    @classmethod
    def from_json_dict(cls, d: dict[str, Any]) -> "TraceEvent":
        return cls(
            sequence=int(d["sequence"]),
            stage=Stage(d["stage"]),
            subject=parse_red_flag(d["subject"]) if d.get("subject") else None,
            payload=dict(d.get("payload") or {}),
            wall_time=float(d.get("wall_time", 0.0)),
        )


@dataclass
class GraphState:
    """One case-run's note and its trace, the only record of which agents owe a verdict.

    Mutated only by the coordinating thread; specialist results are applied through
    apply_verdict at the serialized merge point.
    """

    note: Vignette
    trace: list[TraceEvent] = field(default_factory=list)

    def add_event(self, stage: Stage, subject: Optional[RedFlag] = None, **payload) -> None:
        self.trace.append(TraceEvent(len(self.trace) + 1, stage, subject, payload, time.time()))

    def apply_verdict(self, verdict: AgentVerdict) -> None:
        """Record the agent's verdict in the trace."""
        stage = Stage.AGENT_ERROR if verdict.decision is Decision.ERROR else Stage.AGENT_DONE
        self.add_event(
            stage,
            subject=verdict.flag,
            decision=verdict.decision.value,
            rationale=verdict.rationale,
            evidence=list(verdict.evidence),
            raw=verdict.raw,
            error_detail=verdict.error_detail,
        )


@dataclass(frozen=True)
class CaseResult:
    """One case-run's predicted flags and its trace, the record `trace.summarize` reads."""

    case_id: str
    predicted: frozenset[RedFlag]
    trace: tuple[TraceEvent, ...]

