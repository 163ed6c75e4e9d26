"""Core types for the red-flag screening workflow: taxonomy, routing, verdicts, trace."""

from __future__ import annotations

import enum
from dataclasses import dataclass
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


def verdict_record(decision: str, rationale: str = "", evidence=(), raw: str = "",
                   error_detail: Optional[str] = None) -> dict[str, Any]:
    """One agent's verdict as its AGENT_DONE or AGENT_ERROR payload: `decision` is "YES",
    "NO" or "ERROR", and only an ERROR has an `error_detail`. The event's subject is the flag."""
    return {"decision": decision, "rationale": rationale, "evidence": list(evidence),
            "raw": raw, "error_detail": error_detail}


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


@dataclass(frozen=True)
class CaseResult:
    """One case-run's predicted flags and its trace, the record `trace.summarize` reads."""

    case_id: str
    predicted: frozenset[RedFlag]
    trace: tuple[TraceEvent, ...]

