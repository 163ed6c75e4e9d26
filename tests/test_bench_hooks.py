"""The benchmark's span hooks (bench/spans.py) find every target they patch, and each
target is called once per case-run: a renamed or bypassed step fails here, not only in
a traced benchmark run. The layers measured through the hooked executor class are
measured, for an evaluation and for a single screen."""

import importlib.util
from collections import Counter

from click.testing import CliRunner

from redflagcds import cli, engine, evaluation, recovery
from redflagcds.cli import EXIT_OK
from redflagcds.engine import FanoutMode
from redflagcds.gateway import ScriptedBackend, load_script
from tests.conftest import FIXTURES_DIR, REPO_ROOT, CountingBackend, multi_config, within


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
    tracer.phase = "eval"  # the phase whose spans and events layer_metrics reads
    try:
        result = runner.invoke(cli.cli, [
            "evaluate", "--dataset", str(FIXTURES_DIR / "cases.jsonl"),
            "--script", str(FIXTURES_DIR / "script.jsonl"), "--fanout", "routed",
            "--out", str(out)])
        assert result.exit_code == EXIT_OK, result.output
        evaluated = Counter(s.name for s in tracer.spans)
        tracer.phase = "verify"
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

    # every layer the hooked executor class measures is measured, not left unmeasured
    extra = dict(connections=0, retries=0, overhead_eval_ms=0.0, overhead_screen_ms=0.0,
                 cpu_ms_per_case_run=0.0)
    metrics = spans.layer_metrics(tracer, hooks.missing, multi + single, 1.0, extra)
    pooled = [m for m, hook in spans.NEEDS.items() if hook == "engine.ThreadPoolExecutor"]
    assert len(pooled) == 4
    assert {m: metrics[m][0] for m in pooled if metrics[m][0] is None} == {}


def test_a_hooked_screen_records_its_executor_and_the_threads_it_started(
        prompts, started_threads):
    """A thread's first screen creates its call executor; its next screen sends every call
    to that executor, warm, and creates or starts nothing."""
    spans = load_spans()
    tracer = spans.Tracer()
    vignette = evaluation.load_dataset(FIXTURES_DIR / "cases.jsonl")[0].vignette
    entries = load_script(FIXTURES_DIR / "script.jsonl")

    def screen():  # fresh script state, as one `classify` invocation has
        backend = CountingBackend(ScriptedBackend(entries), delay=0.02)
        cfg = multi_config(backend, prompts, fanout_mode=FanoutMode.EXHAUSTIVE, concurrency=3)
        before = len(started_threads)
        engine.run_case(vignette, cfg)
        return Counter(name for name, _, _ in tracer.events), started_threads[before:]

    hooks = spans.install(tracer, engine, evaluation, recovery, cli)
    tracer.phase = "screen"
    try:
        (first, first_started), (second, second_started) = within(
            30, lambda: (screen(), screen()))
    finally:
        hooks.restore()
    assert first["engine.executors_created"] == 1
    assert first["engine.queue_wait_ms"] == 1 + 7  # the routing call and seven specialist calls
    assert 1 <= len(first_started) <= 3
    assert all(t.name.startswith("redflagcds-call") for t in first_started)
    assert second["engine.executors_created"] == 1
    assert second["engine.queue_wait_ms"] == 2 * (1 + 7)
    assert second_started == []
    assert second["engine.threads_started"] == 0  # only a shutdown records it
