"""Orchestrator-specialist multi-agent engine for secondary-headache red-flag screening."""

from .domain import (
    CaseResult,
    RedFlag,
    Stage,
    TraceEvent,
    Vignette,
    parse_red_flag,
)
from .engine import Architecture, FanoutMode, RunConfig, run_case
from .evaluation import CaseMetrics, GoldCase, case_metrics, load_dataset, macro_average

__all__ = [
    "Architecture",
    "CaseMetrics",
    "CaseResult",
    "FanoutMode",
    "GoldCase",
    "RedFlag",
    "RunConfig",
    "Stage",
    "TraceEvent",
    "Vignette",
    "case_metrics",
    "load_dataset",
    "macro_average",
    "parse_red_flag",
    "run_case",
]
