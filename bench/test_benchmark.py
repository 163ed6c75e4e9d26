"""Checks of the benchmark's own parts: latency model, corpus, loopback stub, output gate."""

import re
from collections import Counter

import pytest

import corpus
import run
import spans
from latency import LatencyModel, SimulatedBackend

KEYS = [(f"case{i:02d}", role, attempt)
        for i in range(5) for role in ("orchestrator", "thunderclap", "baseline") for attempt in (1, 2)]


def test_latency_schedule_is_a_function_of_the_seed():
    first = [LatencyModel(3).delay_s(*k) for k in KEYS]
    assert first == [LatencyModel(3).delay_s(*k) for k in reversed(KEYS)][::-1]
    assert first != [LatencyModel(4).delay_s(*k) for k in KEYS]
    assert 0.02 < sorted(first)[len(first) // 2] < 0.1
    assert LatencyModel(3, median_ms=0).delay_s("case00", "baseline", 1) == 0.0


def test_simulated_backend_counts_attempts_per_case_and_role():
    class Echo:
        def complete(self, request, case_id="", agent_role=""):
            return f"{case_id}/{agent_role}"

    sim = SimulatedBackend(Echo(), LatencyModel(1, median_ms=0))
    for role in ("orchestrator", "orchestrator", "baseline"):
        assert sim.complete(None, case_id="c1", agent_role=role) == f"c1/{role}"
    assert sim.attempts[("c1", "orchestrator")] == 2
    assert sim.calls == sim.completed == 3


def test_corpus_is_deterministic_with_unique_file_safe_ids():
    cases, script, expected = corpus.generate(11, 80)
    assert (cases, script, expected) == corpus.generate(11, 80)
    assert cases != corpus.generate(12, 80)[0]
    ids = [c["id"] for c in cases]
    assert len(set(ids)) == len(ids)
    assert all(re.fullmatch(r"[A-Za-z0-9._-]+", i) for i in ids)
    assert len(expected) == 4 * len(cases)
    assert {r.get("fault") for r in script} >= {None, "DROPPED", "TIMEOUT", "EMPTY"}


@pytest.fixture
def bench(tmp_path, monkeypatch):
    monkeypatch.setattr(corpus, "CASES", 60)
    made = []

    def make(name):
        b = run.Bench(run.WORKLOADS[name], 5, tmp_path / name)
        b.model = LatencyModel(5, median_ms=0)  # keep the test fast
        b.set_up()
        made.append(b)
        return b
    yield make
    for b in made:
        b.tear_down()


def test_scripted_reference_run_matches_the_corpus_expectations(bench):
    b = bench("synthetic-sim5")
    b.reference()  # raises GateFailure on any mismatch
    rows = Counter(rel.split("/")[0] for rel in b.verify_sample)
    assert list(rows.values()) == [run.VERIFY_PER_ROW] * 4


def test_gate_passes_on_fixtures_and_catches_an_altered_expected_f1(bench):
    b = bench("fixtures-sim50")
    b.reference()
    assert b.eval_round(0)["calls"] == 143
    b.expected = b.expected.replace("0.939", "0.940", 1)
    with pytest.raises(run.GateFailure, match="expected"):
        b.reference()


def test_gate_catches_one_altered_trace(bench, monkeypatch):
    b = bench("fixtures-sim50")
    b.reference()
    real = run.evaluation.run_experiment

    def tampered(dataset, matrix, trace_dir=None):
        report = real(dataset, matrix, trace_dir=trace_dir)
        victim = next(p for p in sorted(trace_dir.rglob("*.jsonl")) if '"YES"' in p.read_text())
        victim.write_text(victim.read_text().replace('"YES"', '"NO"', 1))
        return report
    monkeypatch.setattr(run.evaluation, "run_experiment", tampered)
    with pytest.raises(run.GateFailure, match="differs from the reference"):
        b.eval_round(0)


def test_loopback_stub_serves_without_retries_and_shuts_down(bench):
    b = bench("http-loopback")
    b.reference()
    stats = b.eval_round(0)
    assert stats["http"]["retries"] == 0
    stub = b.stub
    assert stub.connections >= 1 and stub.requests == stats["calls"]
    b.tear_down()
    assert not stub._thread.is_alive()


def test_a_missing_hook_target_is_unmeasured_not_zero(monkeypatch):
    monkeypatch.delattr(run.engine, "manual_fanout")
    tracer = spans.Tracer()
    hooks = spans.install(tracer, run.engine, run.evaluation, run.recovery, run.cli)
    hooks.restore()
    assert hooks.missing == {"engine.manual_fanout"}
    extra = {"connections": 0, "retries": 0, "overhead_eval_ms": 0.0, "overhead_screen_ms": 0.0,
             "cpu_ms_per_case_run": 1.0}
    metrics = spans.layer_metrics(tracer, hooks.missing, 1, 1.0, extra)
    assert metrics["engine.fanout.reinvoked"] == (None, "count/case_run")
    assert metrics["engine.executors_created"] == (0.0, "count/case_run")
