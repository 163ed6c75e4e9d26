"""Command-line surface: classify one vignette, run the experiment matrix, render
reports, and replay traces.

Exit codes: 0 success (agent-level errors are reported in output, not via the
exit code), 2 invalid arguments, unreadable input or unwritable trace output,
3 backend unreachable, 4 trace invariant violation under --verify.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import click

from .domain import EmptyVignette, Stage, Vignette
from .encoding import read_text_fallback
from .engine import Architecture, FanoutMode, RunConfig, run_case
from .evaluation import APPROACH_ORDER, RunReport, load_dataset, run_experiment
from .gateway import (
    BackendConfig,
    BackendUnavailable,
    DuplicateKey,
    HttpBackend,
    ScriptedBackend,
    load_script,
)
from .prompts import PromptLibrary, PromptStrategy, TemplateInvalid, TemplateMissing
from .trace import BadRecord, IoFailure, read_trace, verify_trace, write_trace

API_KEY_ENV = "REDFLAGCDS_API_KEY"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BACKEND = 3
EXIT_INVARIANT = 4

# "all", plus one single-row choice per approach, named "<architecture>-<strategy>".
MATRIX_CHOICES = {
    "all": list(APPROACH_ORDER),
    **{f"{arch.value}-{strategy.value}": [(arch, strategy)] for arch, strategy in APPROACH_ORDER},
}


def _load_config_file(path):
    if not path:
        return {}
    try:
        return json.loads(read_text_fallback(path))
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read config file {path}: {exc}")


def _common_options(fn):
    decorators = [
        click.option("--config", "config_path", type=click.Path(), default=None,
                     help="JSON config file; explicit flags override its values."),
        click.option("--endpoint", default=None, help="OpenAI-compatible endpoint URL."),
        click.option("--model", default=None, help="Model identifier sent to the backend."),
        click.option("--script", "script_path", type=click.Path(), default=None,
                     help="JSONL script file; use the deterministic scripted backend."),
        click.option("--prompt-dir", type=click.Path(), default=None,
                     help="Prompt template directory (defaults to the packaged templates)."),
        click.option("--fanout", type=click.Choice(["routed", "exhaustive"]), default=None),
        click.option("--strict-evidence", is_flag=True, default=False),
        click.option("--concurrency", type=click.IntRange(min=1), default=None,
                     help="Most backend calls in flight within one evaluation row (default 7)."),
        click.option("--out", "out_dir", type=click.Path(), default=None,
                     help="Output directory for traces and reports (default ./out)."),
    ]
    for dec in reversed(decorators):
        fn = dec(fn)
    return fn


class Settings:
    """Merged configuration: file values overridden by explicit flags."""

    def __init__(self, config_path, endpoint, model, script_path, prompt_dir,
                 fanout, strict_evidence, concurrency, out_dir):
        file_cfg = _load_config_file(config_path)
        self.endpoint = endpoint or file_cfg.get("endpoint")
        self.model = model or file_cfg.get("model") or "scripted"
        self.script_path = script_path or file_cfg.get("script")
        self.prompt_dir = prompt_dir or file_cfg.get("prompt_dir")
        self.fanout = FanoutMode(fanout or file_cfg.get("fanout", "routed"))
        self.strict_evidence = strict_evidence or bool(file_cfg.get("strict_evidence", False))
        self.concurrency = concurrency if concurrency is not None else file_cfg.get("concurrency")
        # the flag is range-checked by click; a config-file value arrives unchecked
        if self.concurrency is not None and (
            type(self.concurrency) is not int or self.concurrency < 1
        ):
            raise click.UsageError(
                "config file: concurrency must be an integer of at least 1, "
                f"got {self.concurrency!r}"
            )
        self.out_dir = Path(out_dir or file_cfg.get("out", "out"))

    def prompts(self) -> PromptLibrary:
        try:
            if self.prompt_dir:
                return PromptLibrary.load(self.prompt_dir)
            return PromptLibrary.default()
        except (TemplateMissing, TemplateInvalid) as exc:
            raise click.UsageError(f"prompt templates: {exc}")

    def backend(self):
        if self.script_path:
            try:
                return ScriptedBackend(load_script(self.script_path))
            except (OSError, ValueError, DuplicateKey) as exc:
                raise click.UsageError(f"script file: {exc}")
        if not self.endpoint:
            raise click.UsageError("either --script or --endpoint is required")
        return HttpBackend(
            BackendConfig(
                endpoint_url=self.endpoint,
                model=self.model,
                api_key=os.environ.get(API_KEY_ENV),
            )
        )

    def run_config(self, architecture, strategy, backend, prompts) -> RunConfig:
        return RunConfig(
            architecture=architecture,
            strategy=strategy,
            backend=backend,
            model=self.model,
            prompts=prompts,
            fanout_mode=self.fanout,
            strict_evidence=self.strict_evidence,
            concurrency=self.concurrency,
        )


def _cannot_write_traces(exc: IoFailure):
    click.echo(f"cannot write traces: {exc}", err=True)
    sys.exit(EXIT_USAGE)


@click.group()
def cli():
    """Secondary-headache red-flag screening: orchestrated multi-agent engine."""


@cli.command()
@click.option("--note", "note_path", type=click.Path(), required=True,
              help="Path to the vignette text file, or '-' for stdin.")
@click.option("--case-id", default=None, help="Case identifier (default: note file stem).")
@click.option("--strategy", type=click.Choice(["qprompt", "gprompt"]), default="gprompt")
@click.option("--arch", type=click.Choice(["single", "multi"]), default="multi")
@_common_options
def classify(note_path, case_id, strategy, arch, **kwargs):
    """Classify one vignette and print the structured result as JSON."""
    settings = Settings(**kwargs)
    if note_path == "-":
        text = sys.stdin.read()
        case_id = case_id or "stdin"
    else:
        try:
            text = read_text_fallback(note_path)
        except OSError as exc:
            raise click.UsageError(f"cannot read note: {exc}")
        case_id = case_id or Path(note_path).stem
    try:
        vignette = Vignette(id=case_id, text=text)
    except EmptyVignette:
        raise click.UsageError("empty vignette")

    cfg = settings.run_config(
        Architecture(arch), PromptStrategy(strategy), settings.backend(), settings.prompts()
    )
    try:
        result = run_case(vignette, cfg)
    except BackendUnavailable as exc:
        click.echo(f"backend unavailable: {exc}", err=True)
        sys.exit(EXIT_BACKEND)

    try:
        trace_path = write_trace(case_id, result.trace, settings.out_dir / "traces")
    except IoFailure as exc:
        _cannot_write_traces(exc)
    output = {
        "case_id": result.case_id,
        "predicted": sorted(f.value for f in result.predicted),
        "verdicts": {
            flag.value: {
                "decision": verdict.decision.value,
                "rationale": verdict.rationale,
                "evidence": list(verdict.evidence),
                "error_detail": verdict.error_detail,
            }
            for flag, verdict in sorted(result.verdicts.items(), key=lambda kv: kv[0].value)
        },
        "routing": {
            "next": [f.value for f in result.routing.next],
            "why": result.routing.why,
            "evidence": list(result.routing.evidence),
        }
        if result.routing
        else None,
        "trace_file": str(trace_path),
    }
    click.echo(json.dumps(output, indent=2, ensure_ascii=False))


@cli.command()
@click.option("--dataset", "dataset_path", type=click.Path(), required=True,
              help="Gold dataset (JSONL with id, text, red_flags).")
@click.option("--matrix", type=click.Choice(sorted(MATRIX_CHOICES)), default="all")
@_common_options
def evaluate(dataset_path, matrix, **kwargs):
    """Run the experiment matrix over a dataset and print the results table."""
    settings = Settings(**kwargs)
    try:
        dataset = load_dataset(dataset_path)
    except Exception as exc:  # MissingFile, BadRecord, UnknownAgentName, IO errors
        click.echo(f"bad dataset: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    if not dataset:
        click.echo("bad dataset: no cases", err=True)
        sys.exit(EXIT_USAGE)

    backend = settings.backend()
    prompts = settings.prompts()
    try:
        backend.preflight()
    except BackendUnavailable as exc:
        click.echo(f"preflight failed: {exc}", err=True)
        sys.exit(EXIT_BACKEND)

    configs = [
        settings.run_config(architecture, strategy, backend, prompts)
        for architecture, strategy in MATRIX_CHOICES[matrix]
    ]
    try:
        report = run_experiment(dataset, configs, trace_dir=settings.out_dir / "traces")
    except IoFailure as exc:
        _cannot_write_traces(exc)
    settings.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = settings.out_dir / "report.csv"
    csv_path.write_text(report.to_csv(), encoding="utf-8")
    click.echo(report.render_table())
    click.echo(f"\nCSV written to {csv_path}")


@cli.command()
@click.option("--csv", "csv_path", type=click.Path(), required=True,
              help="A report.csv produced by evaluate.")
def report(csv_path):
    """Re-render a previously written CSV report as the results table."""
    try:
        text = read_text_fallback(csv_path)
        rendered = RunReport.from_csv(text).render_table()
    except (OSError, KeyError, ValueError) as exc:
        click.echo(f"bad report CSV: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    click.echo(rendered)


@cli.command()
@click.argument("trace_path", type=click.Path())
@click.option("--verify", is_flag=True, default=False,
              help="Also check trace-shape invariants.")
def replay(trace_path, verify):
    """Pretty-print a per-case trace file event by event."""
    try:
        events = read_trace(trace_path)
    except (OSError, BadRecord) as exc:
        click.echo(f"malformed trace: {exc}", err=True)
        sys.exit(EXIT_USAGE)

    for event in events:
        subject = event.subject.value if event.subject else "-"
        summary = _summarize_payload(event)
        click.echo(f"{event.sequence:4d}  {event.stage.value:<12} {subject:<22} {summary}")

    if verify:
        problems = verify_trace(events)
        if problems:
            for problem in problems:
                click.echo(f"invariant violation: {problem}", err=True)
            sys.exit(EXIT_INVARIANT)
        click.echo("trace invariants hold")


def _summarize_payload(event) -> str:
    payload = event.payload
    if event.stage is Stage.ROUTING:
        return f"next={payload.get('next')} warnings={len(payload.get('warnings') or [])}"
    if event.stage is Stage.FANOUT:
        return f"missing={payload.get('missing')}"
    if event.stage in (Stage.AGENT_DONE, Stage.AGENT_ERROR):
        detail = payload.get("error_detail")
        base = f"decision={payload.get('decision')}"
        return f"{base} error={detail}" if detail else base
    if event.stage is Stage.AGGREGATE:
        return f"predicted={payload.get('predicted')}"
    if event.stage is Stage.WARNING:
        return str(payload.get("message", ""))[:100]
    return ""


def main():
    cli(prog_name="redflagcds")


if __name__ == "__main__":
    main()
