"""Gold datasets, per-case multi-label metrics, the experiment matrix, and reporting."""

from __future__ import annotations

import csv
import io
import json
import logging
import re
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from .domain import RedFlag, Vignette, parse_red_flag
from .encoding import read_text_fallback
# run_case is not used here but stays importable from this module: bench/spans.py hooks it.
from .engine import Architecture, RunConfig, run_case, run_cases  # noqa: F401
from .prompts import PromptStrategy
from .trace import BadRecord, trace_stem, write_trace

logger = logging.getLogger(__name__)


class MissingFile(FileNotFoundError):
    pass


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

    Unknown flag names are a hard error; gold data must be clean, unlike model
    output. Duplicate flags collapse under set semantics with a lint warning.
    A repeated id, or two ids that share a trace file name, is a BadRecord:
    one case's trace would silently overwrite the other's.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingFile(str(path))
    text = read_text_fallback(path)
    cases: list[GoldCase] = []
    seen: dict[str, tuple[str, int]] = {}  # trace stem -> (id, line) of the case that has it
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise BadRecord(lineno, f"invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise BadRecord(lineno, "record is not an object")
        try:
            case_id = str(record["id"])
            note_text = record["text"]
            flag_names = record["red_flags"]
        except KeyError as exc:
            raise BadRecord(lineno, f"missing field {exc}") from exc
        stem = trace_stem(case_id)
        if stem in seen:
            other, other_line = seen[stem]
            if other == case_id:
                raise BadRecord(lineno, f"duplicate id {case_id!r} (first on line {other_line})")
            raise BadRecord(
                lineno, f"id {case_id!r} has the trace file name of {other!r} (line {other_line})"
            )
        seen[stem] = (case_id, lineno)
        if not isinstance(note_text, str) or not note_text.strip():
            raise BadRecord(lineno, "text is empty")
        if not isinstance(flag_names, list):
            raise BadRecord(lineno, "red_flags is not an array")
        flags = []
        for name in flag_names:
            flags.append(parse_red_flag(name))  # UnknownAgentName propagates: hard error
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


@dataclass
class RunReport:
    rows: list[ReportRow]

    def render_table(self) -> str:
        headers = ["LLM", "Approach", "Precision", "Recall", "F1 Score"]
        body = [
            [
                row.model,
                row.approach,
                f"{row.precision:.3f}",
                f"{row.recall:.3f}",
                f"{row.f1:.3f}",
            ]
            for row in self.rows
        ]
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
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["model", "approach", "architecture", "strategy",
             "precision", "recall", "f1", "cases", "error_cases"]
        )
        for row in self.rows:
            writer.writerow(
                [
                    row.model,
                    row.approach,
                    row.architecture.value,
                    row.strategy.value,
                    f"{row.precision:.3f}",
                    f"{row.recall:.3f}",
                    f"{row.f1:.3f}",
                    row.case_count,
                    row.error_case_count,
                ]
            )
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


def run_experiment(
    dataset: list[GoldCase],
    matrix: list[RunConfig],
    trace_dir: Optional[Path] = None,
) -> RunReport:
    """Run every case through every configuration and macro-average the scores.

    Rows run one after another, in matrix order; within a row the cases overlap
    under `run_cases`, and their results are scored and their traces written
    here, in dataset order. A case-level failure (orchestrator or baseline call
    unrecoverable) is counted as an error case and scored with an empty
    predicted set; it never aborts the batch.
    """
    if not dataset:
        raise EmptyRun("dataset is empty")
    rows: list[ReportRow] = []
    for cfg in matrix:
        metrics = []
        error_cases = 0
        row_dir = Path(trace_dir) / run_row_name(cfg) if trace_dir else None
        outcomes = run_cases((case.vignette for case in dataset), cfg)
        with closing(outcomes):  # a failed trace write cancels the cases not yet started
            for case, outcome in zip(dataset, outcomes):
                if isinstance(outcome, Exception):
                    logger.error("case %s failed: %s", case.vignette.id, outcome)
                    error_cases += 1
                    predicted = set()
                    trace = []
                else:
                    predicted = set(outcome.predicted)
                    trace = outcome.trace
                metrics.append(case_metrics(predicted, case.truth))
                if row_dir is not None:
                    write_trace(case.vignette.id, trace, row_dir)
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
