"""Command-line surface: classify one vignette, run the experiment matrix, render
reports, and replay traces.

Exit codes: 0 success (agent-level errors are reported in output, not via the
exit code), 2 invalid arguments, unreadable input or unwritable trace or report
output, or a script without an entry for a call, 3 backend unreachable, answering
with an unusable response or dropping the call, 4 trace invariant violation under --verify.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import click

from .domain import EmptyVignette, Stage, Vignette
from .encoding import BadRecord, parse_json, read_text_fallback
from .engine import DEFAULT_CONCURRENCY, Architecture, FanoutMode, RunConfig, run_case
from .evaluation import APPROACH_ORDER, RunReport, load_dataset, run_experiment
from .gateway import (
    BackendConfig,
    BackendUnavailable,
    BadResponse,
    DroppedToolCall,
    HttpBackend,
    ScriptedBackend,
    ScriptMiss,
    load_script,
)
from .prompts import PromptLibrary, PromptStrategy, TemplateInvalid, TemplateMissing
from .trace import read_trace, summarize, trace_name_problem, verify_trace, write_trace

API_KEY_ENV = "REDFLAGCDS_API_KEY"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BACKEND = 3
EXIT_INVARIANT = 4

# What classify prints before a backend failure of its case's call, which exits EXIT_BACKEND.
CASE_FAILURES = {BackendUnavailable: "backend unavailable", BadResponse: "unusable backend response",
                 DroppedToolCall: "backend dropped the call"}

# What classify prints of each verdict's and of the routing's trace payload.
VERDICT_KEYS = ("decision", "rationale", "evidence", "error_detail")
ROUTING_KEYS = ("next", "why", "evidence")

# "all", plus one single-row choice per approach, named "<architecture>-<strategy>".
MATRIX_CHOICES = {
    "all": list(APPROACH_ORDER),
    **{f"{arch.value}-{strategy.value}": [(arch, strategy)] for arch, strategy in APPROACH_ORDER},
}


# Config-file keys, each named after its option's parameter, and the JSON type each takes.
CONFIG_TYPES = {
    **dict.fromkeys(("endpoint", "model", "script", "prompt_dir", "fanout", "out"), str),
    "concurrency": int,
}
_EXPECTED = {str: "a string", int: "an integer of at least 1"}


def _load_config_file(ctx, _param, path):
    """Eager --config callback: the file's values become the defaults of their options,
    so an explicit flag still wins and click checks a file value as it checks its flag."""
    if not path:
        return
    try:
        file_cfg = parse_json(read_text_fallback(path))
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read config file {path}: {exc}")
    if not isinstance(file_cfg, dict):
        raise click.UsageError(f"config file: expected a JSON object, got {type(file_cfg).__name__}")
    defaults = {key: file_cfg[key] for key in CONFIG_TYPES if key in file_cfg}
    for key, value in defaults.items():
        kind = CONFIG_TYPES[key]
        if type(value) is not kind or (kind is int and value < 1):
            raise click.UsageError(f"config file: {key} must be {_EXPECTED[kind]}, got {value!r}")
    ctx.default_map = defaults


def _common_options(fn):
    decorators = [
        click.option("--config", type=click.Path(), is_eager=True, expose_value=False,
                     callback=_load_config_file,
                     help="JSON config file; explicit flags override its values."),
        click.option("--endpoint", default=None, help="OpenAI-compatible endpoint URL."),
        click.option("--model", default="scripted", show_default=True,
                     help="Model identifier sent to the backend."),
        click.option("--script", type=click.Path(), default=None,
                     help="JSONL script file; use the deterministic scripted backend."),
        click.option("--prompt-dir", type=click.Path(), default=None,
                     help="Prompt template directory (defaults to the packaged templates)."),
        click.option("--fanout", type=click.Choice(["routed", "exhaustive"]), default="routed",
                     show_default=True),
        click.option("--concurrency", type=click.IntRange(min=1), default=DEFAULT_CONCURRENCY,
                     show_default=True, help="Most backend calls in flight across the whole run."),
        click.option("--out", type=click.Path(path_type=Path), default="out", show_default=True,
                     help="Output directory for traces and reports."),
    ]
    for dec in reversed(decorators):
        fn = dec(fn)
    return fn


def _rows(approaches, endpoint, model, script, prompt_dir, fanout, concurrency) -> list[RunConfig]:
    """A RunConfig per (architecture, strategy) in `approaches`, on one backend and template set."""
    try:  # the report names the model, and is written as UTF-8 after every call
        model.encode("utf-8")
    except UnicodeEncodeError:
        raise click.UsageError(f"--model: {model!r} cannot be encoded as UTF-8")
    if script:
        try:
            backend = ScriptedBackend(load_script(script))
        except (OSError, ValueError) as exc:
            raise click.UsageError(f"script file: {exc}")
    elif not endpoint:
        raise click.UsageError("either --script or --endpoint is required")
    else:
        try:
            backend = HttpBackend(BackendConfig(endpoint, model, os.environ.get(API_KEY_ENV)))
        except ValueError as exc:
            raise click.UsageError(f"--endpoint: {exc}")
    try:
        prompts = PromptLibrary.load(prompt_dir) if prompt_dir else PromptLibrary.default()
    except (TemplateMissing, TemplateInvalid) as exc:
        raise click.UsageError(f"prompt templates: {exc}")
    return [
        RunConfig(architecture=architecture, strategy=strategy, backend=backend, model=model,
                  prompts=prompts, fanout_mode=FanoutMode(fanout), concurrency=concurrency)
        for architecture, strategy in approaches
    ]


def _cannot_write(what: str, exc: OSError):
    click.echo(f"cannot write {what}: {exc}", err=True)
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
def classify(note_path, case_id, strategy, arch, out, **options):
    """Classify one vignette and print the structured result as JSON."""
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
    if problem := trace_name_problem(case_id):
        raise click.UsageError(f"case {problem}")

    (cfg,) = _rows([(Architecture(arch), PromptStrategy(strategy))], **options)
    try:
        result = run_case(vignette, cfg)
    except ScriptMiss as exc:
        raise click.UsageError(f"script file: {exc.args[0]}")
    except tuple(CASE_FAILURES) as exc:
        click.echo(f"{CASE_FAILURES[type(exc)]}: {exc}", err=True)
        sys.exit(EXIT_BACKEND)

    try:
        trace_path = write_trace(case_id, result.trace, out / "traces")
    except OSError as exc:
        _cannot_write("traces", exc)
    summary = summarize(result.trace)  # the JSON says what the trace records
    verdicts = sorted(summary.verdicts.items(), key=lambda kv: kv[0].value)
    output = {
        "case_id": result.case_id,
        "predicted": sorted(f.value for f in summary.predicted),
        "verdicts": {flag.value: {key: payload.get(key) for key in VERDICT_KEYS}
                     for flag, payload in verdicts},
        "routing": summary.routing and {key: summary.routing.get(key) for key in ROUTING_KEYS},
        "trace_file": str(trace_path),
    }
    printed = json.dumps(output, indent=2, ensure_ascii=False)
    click.echo(printed.encode("utf-8", "backslashreplace").decode())  # lone surrogates as \uXXXX


@cli.command()
@click.option("--dataset", "dataset_path", type=click.Path(), required=True,
              help="Gold dataset (JSONL with id, text, red_flags).")
@click.option("--matrix", type=click.Choice(sorted(MATRIX_CHOICES)), default="all")
@_common_options
def evaluate(dataset_path, matrix, out, **options):
    """Run the experiment matrix over a dataset and print the results table."""
    try:
        dataset = load_dataset(dataset_path)
    except (OSError, BadRecord) as exc:
        click.echo(f"bad dataset: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    if not dataset:
        click.echo("bad dataset: no cases", err=True)
        sys.exit(EXIT_USAGE)

    configs = _rows(MATRIX_CHOICES[matrix], **options)
    # an output that cannot be written fails the run before the first backend call
    csv_path = out / "report.csv"
    try:
        (out / "traces").mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _cannot_write("traces", exc)
    try:  # append keeps an existing report until the run replaces it; a probe file goes
        existed = csv_path.exists()
        csv_path.open("a", encoding="utf-8").close()
        if not existed:
            csv_path.unlink()
    except OSError as exc:
        _cannot_write("report", exc)
    try:
        configs[0].backend.preflight()
    except BackendUnavailable as exc:
        click.echo(f"preflight failed: {exc}", err=True)
        sys.exit(EXIT_BACKEND)

    try:
        report = run_experiment(dataset, configs, trace_dir=out / "traces")
    except OSError as exc:  # from a trace write: a case's own failure is scored, not raised
        _cannot_write("traces", exc)
    try:
        csv_path.write_text(report.to_csv(), encoding="utf-8")
    except OSError as exc:
        _cannot_write("report", exc)
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

    lines = []
    for event in events:
        subject = event.subject.value if event.subject else "-"
        summary = _summarize_payload(event)
        lines.append(f"{event.sequence:4d}  {event.stage.value:<12} {subject:<22} {summary}")
    if lines:  # one write: echoing per event costs more than formatting the listing
        click.echo("\n".join(lines))

    if verify:
        problems = verify_trace(events)
        if problems:
            for problem in problems:
                click.echo(f"invariant violation: {problem}", err=True)
            sys.exit(EXIT_INVARIANT)
        click.echo("trace invariants hold")


def _summarize_payload(event) -> str:
    """An event's fields in the listing; an event that records its prompt's sha256 (ROUTING,
    AGENT_START and a single-LLM AGGREGATE) ends with its first 12 hex digits."""
    payload = event.payload
    if event.stage is Stage.WARNING:
        return str(payload.get("message", ""))[:100]
    fields = []
    if event.stage is Stage.ROUTING:
        fields += [f"next={payload.get('next')}", f"warnings={len(payload.get('warnings') or [])}"]
    elif event.stage is Stage.FANOUT:
        fields += [f"mode={payload.get('mode')}", f"missing={payload.get('missing')}"]
    elif event.stage in (Stage.AGENT_DONE, Stage.AGENT_ERROR):
        fields.append(f"decision={payload.get('decision')}")
        if payload.get("error_detail"):
            fields.append(f"error={payload['error_detail']}")
    elif event.stage is Stage.AGGREGATE:
        fields.append(f"predicted={payload.get('predicted')}")
    if "prompt_sha256" in payload:
        fields.append(f"prompt_sha256={str(payload['prompt_sha256'])[:12]}")
    return " ".join(fields)


def main():
    cli(prog_name="redflagcds")


if __name__ == "__main__":
    main()
