"""The benchmark's span hooks (bench/spans.py) find every target they patch, and each
target is called once per case-run: a renamed or bypassed step fails here, not only in
a traced benchmark run."""

import importlib.util
from collections import Counter

from click.testing import CliRunner

from redflagcds import cli, engine, evaluation, recovery
from redflagcds.cli import EXIT_OK
from tests.conftest import FIXTURES_DIR, REPO_ROOT


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", REPO_ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_exists_and_is_called_once_per_case_run(tmp_path):
    spans = load_spans()
    tracer = spans.Tracer()
    runner = CliRunner()
    out = tmp_path / "out"
    hooks = spans.install(tracer, engine, evaluation, recovery, cli)
    try:
        result = runner.invoke(cli.cli, [
            "evaluate", "--dataset", str(FIXTURES_DIR / "cases.jsonl"),
            "--script", str(FIXTURES_DIR / "script.jsonl"), "--fanout", "routed",
            "--out", str(out)])
        assert result.exit_code == EXIT_OK, result.output
        evaluated = Counter(s.name for s in tracer.spans)
        trace = min((out / "traces").rglob("*.trace.jsonl"))
        replayed = runner.invoke(cli.cli, ["replay", str(trace), "--verify"])
        assert replayed.exit_code == EXIT_OK, replayed.output
    finally:
        hooks.restore()
    assert hooks.missing == set()
    # the fixture matrix: 22 cases under two multi-agent and two single-LLM rows
    per_row = len(evaluation.load_dataset(FIXTURES_DIR / "cases.jsonl"))
    multi = single = 2 * per_row
    assert multi == 44
    for step in ("engine.route", "engine.specialists", "engine.fanout"):
        assert evaluated[step] == multi, step
    assert evaluated["engine.single_llm"] == single
    assert evaluated["engine.aggregate"] == evaluated["evaluation.write_trace"] == multi + single
    assert Counter(s.name for s in tracer.spans)["evaluation.read_trace"] == 1
