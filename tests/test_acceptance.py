"""End-to-end acceptance checks for the engine, one numbered criterion per test.

Each test prints a single CRITERION line on success; a pytest failure marks the
criterion failed. These deliberately exercise the public surface (CLI, engine,
metrics, recovery) rather than internals.
"""

import json
import os
import random
import time
from contextlib import contextmanager

import pytest
from click.testing import CliRunner

from redflagcds.cli import EXIT_OK, cli
from redflagcds.domain import RedFlag, Stage
from redflagcds.engine import FanoutMode, run_case
from redflagcds.evaluation import case_metrics, macro_average
from redflagcds.gateway import Fault, ScriptedBackend, ScriptEntry
from redflagcds.recovery import NoJsonFound, Strategy, extract_json, parse_routing
from redflagcds.trace import read_trace, untimed
from tests.conftest import (
    FIXTURES_DIR,
    TABLE1_RAW,
    decision_of,
    full_script,
    multi_config,
    verdicts,
    write_script_file,
    yes_response,
)
from tests.test_evaluation import CaseMetrics, oracle_metrics

LIVE_ENDPOINT_ENV = "REDFLAGCDS_LIVE_ENDPOINT"

ALL = list(RedFlag)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"CRITERION {number:>2} FAIL  {title}")
        raise
    print(f"CRITERION {number:>2} PASS  {title}")


def routing_json(flags, why="scripted routing", evidence=("quote",)):
    return json.dumps(
        {"next": [f.value for f in flags], "why": why, "evidence": list(evidence)}
    )


def test_criterion_01_console_replay(tmp_path):
    with criterion(1, "console-example replay routes only meningismus"):
        note = tmp_path / "case-7.txt"
        note.write_text(
            "Headache, fever, vomiting, stiff neck; CSF shows 46 white cells "
            "(69% neutrophils)/μl with low glucose and high lactate.",
            encoding="utf-8",
        )
        script = write_script_file(
            tmp_path / "script.jsonl",
            [
                ScriptEntry("case-7", "orchestrator", TABLE1_RAW),
                ScriptEntry("case-7", "meningismus", yes_response(RedFlag.MENINGISMUS)),
            ],
        )
        started = time.monotonic()
        result = CliRunner().invoke(
            cli,
            ["classify", "--note", str(note), "--script", str(script),
             "--out", str(tmp_path / "out")],
        )
        elapsed = time.monotonic() - started
        assert result.exit_code == EXIT_OK, result.output
        payload = json.loads(result.output)
        assert payload["predicted"] == ["meningismus"]

        events = read_trace(tmp_path / "out" / "traces" / "case-7.trace.jsonl")
        started_agents = {
            e.subject for e in events if e.stage is Stage.AGENT_START
        }
        assert started_agents == {RedFlag.MENINGISMUS}

        evidence = payload["routing"]["evidence"]
        assert len(evidence) == 7
        assert "46 white cells (69% neutrophils)/μl" in evidence
        assert elapsed < 1.0


def test_criterion_02_dropped_call_fanout(prompts, vignette):
    with criterion(2, "dropped Step-2 call is re-invoked by manual fan-out"):
        started = time.monotonic()
        backend = ScriptedBackend(
            [
                ScriptEntry(
                    "case-7",
                    "orchestrator",
                    routing_json([RedFlag.MENINGISMUS, RedFlag.TEMPORAL_ARTERITIS]),
                ),
                ScriptEntry("case-7", "meningismus", yes_response(RedFlag.MENINGISMUS)),
                ScriptEntry(
                    "case-7",
                    "temporal_arteritis",
                    "NO. No giant-cell arteritis features.",
                    fault=Fault.DROPPED,
                ),
            ]
        )
        result = run_case(vignette, multi_config(backend, prompts))
        elapsed = time.monotonic() - started

        assert set(verdicts(result)) == {RedFlag.MENINGISMUS, RedFlag.TEMPORAL_ARTERITIS}
        assert decision_of(result, RedFlag.MENINGISMUS) == "YES"
        assert decision_of(result, RedFlag.TEMPORAL_ARTERITIS) == "NO"

        fanouts = [e for e in result.trace if e.stage is Stage.FANOUT]
        assert len(fanouts) == 1
        assert fanouts[0].payload["missing"] == ["temporal_arteritis"]
        assert elapsed < 1.0


def test_criterion_03_coverage_guarantee(prompts, vignette):
    with criterion(3, "completed covers expected across 200 randomized runs"):
        rng = random.Random(20260823)
        started = time.monotonic()
        for i in range(200):
            routed = [f for f in ALL if rng.random() < 0.5]
            faults = {f: Fault.DROPPED for f in ALL if rng.random() < 0.4}
            mode = FanoutMode.ROUTED if i % 2 == 0 else FanoutMode.EXHAUSTIVE
            backend = ScriptedBackend(
                full_script(vignette.id, routing_json(routed), yes_flags=set(), faults=faults)
            )
            result = run_case(vignette, multi_config(backend, prompts, fanout_mode=mode))
            completed = set(verdicts(result))
            if mode is FanoutMode.ROUTED:
                assert completed >= set(routed), f"run {i}: {routed} not covered"
            else:
                assert completed == set(ALL), f"run {i}: exhaustive left gaps"
        assert time.monotonic() - started < 30.0


def test_criterion_04_error_isolation_equality(prompts, vignette):
    with criterion(4, "a faulting agent never perturbs the other six verdicts"):
        started = time.monotonic()
        yes_flags = {RedFlag.MENINGISMUS, RedFlag.THUNDERCLAP}

        def run_with_fault(victim):
            faults = {victim: Fault.HTTP_500} if victim else None
            backend = ScriptedBackend(
                full_script(vignette.id, routing_json(ALL), yes_flags, faults=faults)
            )
            return run_case(vignette, multi_config(backend, prompts))

        baseline = run_with_fault(None)
        for victim in ALL:
            result = run_with_fault(victim)
            assert decision_of(result, victim) == "ERROR"
            for flag in ALL:
                if flag is victim:
                    continue
                assert verdicts(result)[flag] == verdicts(baseline)[flag], flag
        assert time.monotonic() - started < 10.0


def test_criterion_05_metrics_match_independent_oracle():
    with criterion(5, "case metrics agree with the brute-force oracle"):
        started = time.monotonic()
        anchor = case_metrics(
            {RedFlag.THUNDERCLAP}, {RedFlag.THUNDERCLAP, RedFlag.MENINGISMUS}
        )
        assert anchor.precision == 1.0
        assert anchor.recall == 0.5
        assert anchor.f1 == pytest.approx(2 / 3)

        rng = random.Random(5)
        for _ in range(1000):
            predicted = {f for f in ALL if rng.random() < 0.5}
            truth = {f for f in ALL if rng.random() < 0.5}
            m = case_metrics(predicted, truth)
            assert (m.tp, m.fp, m.fn, m.precision, m.recall, m.f1) == oracle_metrics(
                predicted, truth
            )
        assert time.monotonic() - started < 5.0


def test_criterion_06_macro_average_anchor():
    with criterion(6, "macro F1 of [1.0, 0.5, 0.0] is 0.500, order-independent"):
        cases = [
            CaseMetrics(0, 0, 0, 1.0, 1.0, 1.0),
            CaseMetrics(0, 0, 0, 0.5, 0.5, 0.5),
            CaseMetrics(0, 0, 0, 0.0, 0.0, 0.0),
        ]
        _, _, f1 = macro_average(cases)
        assert abs(f1 - 0.5) < 1e-12
        for permuted in ([cases[2], cases[0], cases[1]], list(reversed(cases))):
            assert macro_average(permuted) == macro_average(cases)


def test_criterion_07_recovery_corpus(vignette):
    with criterion(7, "the shipped malformed-output corpus recovers; garbage does not"):
        started = time.monotonic()
        records = [
            json.loads(line)
            for line in (FIXTURES_DIR / "recovery_corpus.jsonl")
            .read_text(encoding="utf-8")
            .splitlines()
            if line.strip()
        ]
        by_kind = {"strict": [], "malformed": [], "garbage": []}
        for record in records:
            by_kind[record["kind"]].append(record)
        assert len(by_kind["malformed"]) >= 20
        assert len(by_kind["garbage"]) >= 5

        for record in by_kind["strict"] + by_kind["malformed"]:
            assert parse_routing(record["raw"], vignette)["next"] == record["next"], record["raw"]
        for record in by_kind["strict"]:
            assert extract_json(record["raw"]).strategy_used is Strategy.STRICT
        for record in by_kind["garbage"]:
            with pytest.raises(NoJsonFound):
                extract_json(record["raw"])
        assert time.monotonic() - started < 5.0


def _read_traces_without_wall_time(trace_root):
    traces = {}
    for path in sorted(trace_root.rglob("*.trace.jsonl")):
        lines = path.read_text(encoding="utf-8").splitlines()
        traces[str(path.relative_to(trace_root))] = [untimed(json.loads(line)) for line in lines]
    return traces


def test_criterion_08_determinism(tmp_path):
    with criterion(8, "repeated scripted evaluation is byte-identical modulo wall_time"):
        started = time.monotonic()
        runner = CliRunner()
        outputs = []
        for name in ("run_a", "run_b"):
            out_dir = tmp_path / name
            result = runner.invoke(
                cli,
                ["evaluate",
                 "--dataset", str(FIXTURES_DIR / "cases.jsonl"),
                 "--script", str(FIXTURES_DIR / "script.jsonl"),
                 "--out", str(out_dir)],
            )
            assert result.exit_code == EXIT_OK, result.output
            outputs.append(out_dir)

        csv_a = (outputs[0] / "report.csv").read_bytes()
        csv_b = (outputs[1] / "report.csv").read_bytes()
        assert csv_a == csv_b

        traces_a = _read_traces_without_wall_time(outputs[0] / "traces")
        traces_b = _read_traces_without_wall_time(outputs[1] / "traces")
        assert traces_a.keys() == traces_b.keys()
        assert len(traces_a) == 4 * 22
        assert traces_a == traces_b
        assert time.monotonic() - started < 60.0


def test_criterion_09_results_table_shape(tmp_path):
    live = os.environ.get(LIVE_ENDPOINT_ENV)
    note = " (live endpoint checked)" if live else " (live endpoint skipped: env unset)"
    with criterion(9, "evaluate renders the four-approach table at 3 decimals" + note):
        runner = CliRunner()

        def assert_table_shape(args):
            result = runner.invoke(cli, args)
            assert result.exit_code == EXIT_OK, result.output
            lines = result.output.splitlines()
            header = lines[0]
            for column in ("Approach", "Precision", "Recall", "F1 Score"):
                assert column in header
            data_lines = [
                line for line in lines
                if line.strip() and ("Single-LLM" in line or "Multi-agent" in line)
                and "cases" not in line
            ]
            assert len(data_lines) == 4
            order = ["Single-LLM QPrompt", "Single-LLM GPrompt",
                     "Multi-agent QPrompt", "Multi-agent GPrompt"]
            for line, label in zip(data_lines, order):
                assert label in line
                values = [tok for tok in line.split() if "." in tok]
                assert len(values) >= 3
                for value in values[-3:]:
                    whole, _, frac = value.partition(".")
                    assert len(frac) == 3, value
                    float(value)

        assert_table_shape(
            ["evaluate", "--matrix", "all",
             "--dataset", str(FIXTURES_DIR / "cases.jsonl"),
             "--script", str(FIXTURES_DIR / "script.jsonl"),
             "--out", str(tmp_path / "scripted")],
        )
        if live:
            assert_table_shape(
                ["evaluate", "--matrix", "all",
                 "--dataset", str(FIXTURES_DIR / "cases.jsonl"),
                 "--endpoint", live,
                 "--model", os.environ.get("REDFLAGCDS_LIVE_MODEL", "default"),
                 "--out", str(tmp_path / "live")],
            )


def test_criterion_10_orchestrator_fallback(prompts, vignette):
    with criterion(10, "unusable orchestrator output falls back to all seven agents"):
        started = time.monotonic()
        entries = full_script(vignette.id, "", yes_flags={RedFlag.MENINGISMUS})
        entries[0] = ScriptEntry(
            vignette.id,
            "orchestrator",
            "I am unable to provide structured output today.",
        )
        result = run_case(vignette, multi_config(ScriptedBackend(entries), prompts))
        elapsed = time.monotonic() - started

        assert len(verdicts(result)) == 7
        assert set(verdicts(result)) == set(ALL)
        warnings = [e for e in result.trace if e.stage is Stage.WARNING]
        assert any("fallback" in str(e.payload).lower() for e in warnings)
        routing_events = [e for e in result.trace if e.stage is Stage.ROUTING]
        assert len(routing_events) == 1
        assert routing_events[0].payload.get("fallback") is True
        assert decision_of(result, RedFlag.MENINGISMUS) == "YES"
        assert elapsed < 1.0
