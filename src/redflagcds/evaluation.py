"""Gold datasets, per-case multi-label metrics, the experiment matrix, and reporting."""

from __future__ import annotations

import csv
import io
import logging
import re
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .domain import CaseResult, RedFlag, UnknownAgentName, Vignette, parse_red_flag
from .encoding import BadRecord, read_case_id, read_jsonl
# run_case is not used here but stays importable from this module: bench/spans.py hooks it.
from .engine import Architecture, RunConfig, run_case, run_cases  # noqa: F401
from .prompts import PromptStrategy
from .trace import trace_name_problem, write_trace

logger = logging.getLogger(__name__)


class EmptyRun(ValueError):
    pass


@dataclass(frozen=True)
class GoldCase:
    vignette: Vignette
    truth: frozenset[RedFlag]


@dataclass(frozen=True)
class CaseMetrics:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float


def case_metrics(predicted: Iterable[RedFlag], truth: Iterable[RedFlag]) -> CaseMetrics:
    """Per-case multi-label metrics from set comparison of predicted and true labels.

    0/0 conventions: both sets empty scores 1.0 across the board (a correct
    all-clear is a success); a one-sided empty set scores 0.
    """
    predicted = set(predicted)
    truth = set(truth)
    tp = len(predicted & truth)
    fp = len(predicted - truth)
    fn = len(truth - predicted)
    if not predicted and not truth:
        return CaseMetrics(0, 0, 0, 1.0, 1.0, 1.0)
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    return CaseMetrics(tp, fp, fn, precision, recall, f1)


def macro_average(all_metrics: list[CaseMetrics]) -> tuple[float, float, float]:
    """Arithmetic means of per-case precision/recall/F1, each case weighted equally.

    Note: macro F1 is the mean of per-case F1s, not the harmonic mean of the
    macro precision and recall.
    """
    if not all_metrics:
        raise EmptyRun("cannot average an empty run")
    n = len(all_metrics)
    return (
        sum(m.precision for m in all_metrics) / n,
        sum(m.recall for m in all_metrics) / n,
        sum(m.f1 for m in all_metrics) / n,
    )


def load_dataset(path) -> list[GoldCase]:
    """Load a gold dataset: JSONL records with id, text, red_flags.

    Unknown flag names are a BadRecord; gold data must be clean, unlike model
    output. Duplicate flags collapse under set semantics with a lint warning.
    An id is a string, or an integer read as its text, and names its case's trace file
    (`trace.trace_stem`, which gives each id its own name): any other id, one that
    cannot name a trace file (`trace.trace_name_problem`), or a repeated id is a BadRecord.
    """
    cases: list[GoldCase] = []
    seen: dict[str, int] = {}  # id -> the line it is first on
    for lineno, record in read_jsonl(path, required=("id", "text", "red_flags")):
        case_id = read_case_id(lineno, record["id"], "id")
        note_text, flag_names = record["text"], record["red_flags"]
        if problem := trace_name_problem(case_id):
            raise BadRecord(lineno, problem)
        first = seen.setdefault(case_id, lineno)
        if first != lineno:
            raise BadRecord(lineno, f"duplicate id {case_id!r} (first on line {first})")
        if not isinstance(note_text, str):
            raise BadRecord(lineno, "text is not a string")
        if not note_text.strip():
            raise BadRecord(lineno, "text is empty")
        if not isinstance(flag_names, list):
            raise BadRecord(lineno, "red_flags is not an array")
        try:
            flags = [parse_red_flag(name) for name in flag_names]
        except UnknownAgentName as exc:
            raise BadRecord(lineno, f"unknown red flag {exc.args[0]!r}") from None
        truth = frozenset(flags)
        if len(truth) != len(flags):
            logger.warning("%s line %d: duplicate red_flags collapsed", path, lineno)
        cases.append(GoldCase(vignette=Vignette(id=case_id, text=note_text), truth=truth))
    return cases


APPROACH_LABELS = {
    (Architecture.SINGLE_LLM, PromptStrategy.QPROMPT): "Single-LLM QPrompt",
    (Architecture.SINGLE_LLM, PromptStrategy.GPROMPT): "Single-LLM GPrompt",
    (Architecture.MULTI_AGENT, PromptStrategy.QPROMPT): "Multi-agent QPrompt",
    (Architecture.MULTI_AGENT, PromptStrategy.GPROMPT): "Multi-agent GPrompt",
}

# Table order for the full matrix: the order of APPROACH_LABELS.
APPROACH_ORDER = list(APPROACH_LABELS)

CONVENTION_FOOTNOTES = (
    "Per-case 0/0 conventions: an empty predicted set against an empty truth set scores "
    "precision = recall = F1 = 1.0 (a correct all-clear); a one-sided empty set scores 0.",
    "Macro values are arithmetic means of per-case metrics, each case weighted equally.",
)

# report.csv's columns, in order, and the header of each column the table shows
CSV_COLUMNS = ("model", "approach", "architecture", "strategy", "precision", "recall", "f1",
               "cases", "error_cases")
TABLE_HEADERS = {"model": "LLM", "approach": "Approach", "precision": "Precision",
                 "recall": "Recall", "f1": "F1 Score"}


@dataclass(frozen=True)
class ReportRow:
    model: str
    architecture: Architecture
    strategy: PromptStrategy
    precision: float
    recall: float
    f1: float
    case_count: int
    error_case_count: int

    @property
    def approach(self) -> str:
        return APPROACH_LABELS[(self.architecture, self.strategy)]

    def cells(self) -> dict[str, str]:
        """The row's cell in each of CSV_COLUMNS, as report.csv and the table write it."""
        return dict(zip(CSV_COLUMNS, (
            self.model, self.approach, self.architecture.value, self.strategy.value,
            f"{self.precision:.3f}", f"{self.recall:.3f}", f"{self.f1:.3f}",
            str(self.case_count), str(self.error_case_count))))


@dataclass
class RunReport:
    rows: list[ReportRow]

    def render_table(self) -> str:
        headers = list(TABLE_HEADERS.values())
        rows = [row.cells() for row in self.rows]
        body = [[cells[column] for column in TABLE_HEADERS] for cells in rows]
        widths = [max(len(h), *(len(r[i]) for r in body)) if body else len(h)
                  for i, h in enumerate(headers)]
        lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
        lines.append("  ".join("-" * w for w in widths))
        for r in body:
            lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(headers))))
        lines.append("")
        for row in self.rows:
            lines.append(
                f"{row.model} {row.approach}: {row.case_count} cases, "
                f"{row.error_case_count} error cases"
            )
        lines.append("")
        lines.extend(CONVENTION_FOOTNOTES)
        return "\n".join(lines)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(row.cells() for row in self.rows)
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "RunReport":
        rows = []
        for record in csv.DictReader(io.StringIO(text)):
            rows.append(
                ReportRow(
                    model=record["model"],
                    architecture=Architecture(record["architecture"]),
                    strategy=PromptStrategy(record["strategy"]),
                    precision=float(record["precision"]),
                    recall=float(record["recall"]),
                    f1=float(record["f1"]),
                    case_count=int(record["cases"]),
                    error_case_count=int(record["error_cases"]),
                )
            )
        return cls(rows)


def run_row_name(cfg: RunConfig) -> str:
    safe_model = re.sub(r"[^A-Za-z0-9._-]", "_", cfg.model)
    return f"{safe_model}_{cfg.architecture.value}_{cfg.strategy.value}"


def run_experiment(dataset: list[GoldCase], matrix: list[RunConfig], trace_dir: Path) -> RunReport:
    """Run every case through every configuration and macro-average the scores.

    One `run_cases` runs the whole matrix: rows overlap under one call bound, and
    each case runs its rows in matrix order. Outcomes come back row by row, and
    each row's are scored and their traces written here, in dataset order, into
    one directory per row under `trace_dir`. A case-level failure (orchestrator
    or baseline call unrecoverable) is counted as an error case and scored with
    an empty predicted set; it never aborts the batch.
    """
    if not dataset:
        raise EmptyRun("dataset is empty")
    rows: list[ReportRow] = []
    outcomes = run_cases([case.vignette for case in dataset], *matrix)
    with closing(outcomes):  # a failed trace write cancels the case-runs not yet started
        for cfg in matrix:
            metrics = []
            error_cases = 0
            row_dir = Path(trace_dir) / run_row_name(cfg)
            for case, outcome in zip(dataset, outcomes):
                if isinstance(outcome, Exception):
                    logger.error("case %s failed: %s", case.vignette.id, outcome)
                    error_cases += 1
                    outcome = CaseResult(case.vignette.id, frozenset(), trace=())
                metrics.append(case_metrics(outcome.predicted, case.truth))
                write_trace(case.vignette.id, outcome.trace, row_dir)
            precision, recall, f1 = macro_average(metrics)
            rows.append(
                ReportRow(
                    model=cfg.model,
                    architecture=cfg.architecture,
                    strategy=cfg.strategy,
                    precision=precision,
                    recall=recall,
                    f1=f1,
                    case_count=len(dataset),
                    error_case_count=error_cases,
                )
            )
    return RunReport(rows)
