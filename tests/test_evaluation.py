import itertools
import json
import math
import random
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from redflagcds.domain import RedFlag, Stage, TraceEvent, UnknownAgentName
from redflagcds.encoding import LATIN1, UTF8, UTF8_BOM, decode_fallback, read_text_fallback
from redflagcds.engine import Architecture, RunConfig
from redflagcds.evaluation import (
    APPROACH_ORDER,
    BadRecord,
    CaseMetrics,
    EmptyRun,
    MissingFile,
    RunReport,
    case_metrics,
    load_dataset,
    macro_average,
    run_experiment,
)
from redflagcds.gateway import Fault, ScriptedBackend, ScriptEntry, load_script
from redflagcds.prompts import PromptStrategy
from redflagcds.trace import IoFailure, read_trace, write_trace
from tests.conftest import FIXTURES_DIR, CountingBackend, full_script, within, write_jsonl

ALL = list(RedFlag)


def oracle_metrics(predicted, truth):
    """Independent brute-force reference: per-flag membership walk, then the formulas."""
    tp = fp = fn = 0
    for flag in ALL:
        in_p = flag in predicted
        in_t = flag in truth
        if in_p and in_t:
            tp += 1
        elif in_p:
            fp += 1
        elif in_t:
            fn += 1
    if not predicted and not truth:
        return (0, 0, 0, 1.0, 1.0, 1.0)
    p = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    r = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    f1 = 2 * p * r / (p + r) if (p + r) > 0 else 0.0
    return (tp, fp, fn, p, r, f1)


class TestCaseMetrics:
    def test_partial_recall_anchor(self):
        m = case_metrics({RedFlag.THUNDERCLAP}, {RedFlag.THUNDERCLAP, RedFlag.MENINGISMUS})
        assert m.precision == 1.0
        assert m.recall == 0.5
        assert m.f1 == pytest.approx(2 / 3)

    def test_both_empty_convention(self):
        m = case_metrics(set(), set())
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_disjoint_sets_score_zero(self):
        m = case_metrics(
            {RedFlag.PAPILLEDEMA, RedFlag.SYSTEMIC_ILLNESS}, {RedFlag.MENINGISMUS}
        )
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)

    def test_one_sided_empty_prediction(self):
        m = case_metrics(set(), {RedFlag.MENINGISMUS})
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)

    def test_matches_oracle_on_thousand_random_pairs(self):
        rng = random.Random(42)
        for _ in range(1000):
            predicted = {f for f in ALL if rng.random() < 0.5}
            truth = {f for f in ALL if rng.random() < 0.5}
            m = case_metrics(predicted, truth)
            assert (m.tp, m.fp, m.fn, m.precision, m.recall, m.f1) == oracle_metrics(
                predicted, truth
            )

    def test_counts_identity(self):
        for predicted, truth in itertools.product(
            [set(), {RedFlag.THUNDERCLAP}, set(ALL)], repeat=2
        ):
            m = case_metrics(predicted, truth)
            assert m.tp + m.fn == len(truth)
            assert m.tp + m.fp == len(predicted)


@given(
    predicted=st.sets(st.sampled_from(ALL)),
    truth=st.sets(st.sampled_from(ALL)),
)
def test_metric_bounds_and_exact_match(predicted, truth):
    m = case_metrics(predicted, truth)
    for value in (m.precision, m.recall, m.f1):
        assert 0.0 <= value <= 1.0
    if predicted == truth:
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)
    if predicted or truth:
        assert m.f1 <= max(m.precision, m.recall) + 1e-12


class TestMacroAverage:
    def _metrics(self, p, r, f1):
        return CaseMetrics(0, 0, 0, p, r, f1)

    def test_anchor(self):
        ms = [self._metrics(1, 1, 1.0), self._metrics(1, 1, 0.5), self._metrics(0, 0, 0.0)]
        _, _, f1 = macro_average(ms)
        assert abs(f1 - 0.5) < 1e-12

    def test_single_case_identity(self):
        ms = [self._metrics(0.25, 0.75, 0.4)]
        assert macro_average(ms) == (0.25, 0.75, 0.4)

    def test_order_invariance(self):
        rng = random.Random(7)
        ms = [
            self._metrics(rng.random(), rng.random(), rng.random()) for _ in range(50)
        ]
        shuffled = ms[:]
        rng.shuffle(shuffled)
        for a, b in zip(macro_average(ms), macro_average(shuffled)):
            assert math.isclose(a, b, rel_tol=0, abs_tol=1e-12)

    def test_matches_independent_mean_oracle(self):
        rng = random.Random(99)
        ms = [
            self._metrics(rng.random(), rng.random(), rng.random()) for _ in range(1000)
        ]

        def mean(values):
            total = 0.0
            for v in values:
                total += v
            return total / len(values)

        got = macro_average(ms)
        expected = (
            mean([m.precision for m in ms]),
            mean([m.recall for m in ms]),
            mean([m.f1 for m in ms]),
        )
        for a, b in zip(got, expected):
            assert abs(a - b) < 1e-12

    def test_empty_run_rejected(self):
        with pytest.raises(EmptyRun):
            macro_average([])


class TestEncodingFallback:
    def test_utf8_verbatim(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("46 white cells (69% neutrophils)/μl", encoding="utf-8")
        assert read_text_fallback(path) == "46 white cells (69% neutrophils)/μl"

    def test_bom_stripped(self):
        text, decoder = decode_fallback(b"\xef\xbb\xbfhello")
        assert text == "hello"
        assert decoder == UTF8_BOM

    def test_invalid_utf8_decodes_as_latin1(self):
        text, decoder = decode_fallback(b"caf\xe9")
        assert text == "café"
        assert decoder == LATIN1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_bytes(b"")
        assert read_text_fallback(path) == ""

    def test_plain_utf8_reported(self):
        assert decode_fallback(b"plain")[1] == UTF8


class TestLoadDataset:
    def _write(self, tmp_path, records):
        return write_jsonl(tmp_path / "data.jsonl", records)

    def test_loads_fixture_corpus(self):
        cases = load_dataset(FIXTURES_DIR / "cases.jsonl")
        assert len(cases) >= 20
        covered = set().union(*(c.truth for c in cases))
        assert covered == set(RedFlag)
        assert any(len(c.truth) >= 2 for c in cases)
        assert any(not c.truth for c in cases)

    def test_empty_red_flags_is_none_of_the_above(self, tmp_path):
        path = self._write(tmp_path, [{"id": "a", "text": "note", "red_flags": []}])
        (case,) = load_dataset(path)
        assert case.truth == frozenset()

    def test_duplicate_flags_collapse(self, tmp_path):
        path = self._write(
            tmp_path, [{"id": "a", "text": "note", "red_flags": ["meningismus", "meningismus"]}]
        )
        (case,) = load_dataset(path)
        assert case.truth == {RedFlag.MENINGISMUS}

    def test_unknown_flag_is_hard_error(self, tmp_path):
        path = self._write(tmp_path, [{"id": "a", "text": "note", "red_flags": ["migraine"]}])
        with pytest.raises(UnknownAgentName):
            load_dataset(path)

    def test_bad_json_names_line_number(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            '{"id": "a", "text": "note", "red_flags": []}\nnot json\n', encoding="utf-8"
        )
        with pytest.raises(BadRecord, match="line 2"):
            load_dataset(path)

    def test_empty_text_rejected(self, tmp_path):
        path = self._write(tmp_path, [{"id": "a", "text": " ", "red_flags": []}])
        with pytest.raises(BadRecord):
            load_dataset(path)

    def test_duplicate_id_rejected_with_line(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                {"id": "a", "text": "note", "red_flags": []},
                {"id": "b", "text": "note", "red_flags": []},
                {"id": "a", "text": "other note", "red_flags": []},
            ],
        )
        with pytest.raises(BadRecord, match=r"line 3: duplicate id 'a' \(first on line 1\)"):
            load_dataset(path)

    def test_ids_sharing_a_trace_filename_rejected(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                {"id": "a/b", "text": "note", "red_flags": []},
                {"id": "a_b", "text": "note", "red_flags": []},
            ],
        )
        with pytest.raises(BadRecord, match="line 2: id 'a_b' has the trace file name of 'a/b'"):
            load_dataset(path)

    def test_bom_file_parses_identically(self, tmp_path):
        record = json.dumps({"id": "a", "text": "note", "red_flags": ["thunderclap"]})
        plain = tmp_path / "plain.jsonl"
        plain.write_text(record + "\n", encoding="utf-8")
        bom = tmp_path / "bom.jsonl"
        bom.write_bytes(b"\xef\xbb\xbf" + (record + "\n").encode("utf-8"))
        assert load_dataset(plain) == load_dataset(bom)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_dataset(tmp_path / "nope.jsonl")


def make_trace(n=5):
    return [
        TraceEvent(i + 1, Stage.WARNING, None, {"message": f"event {i}"}, 0.0)
        for i in range(n)
    ]


class TestWriteTrace:
    def test_one_line_per_event_increasing(self, tmp_path):
        path = write_trace("case1", make_trace(5), tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 5
        sequences = [json.loads(line)["sequence"] for line in lines]
        assert sequences == sorted(set(sequences))

    def test_rerun_overwrites(self, tmp_path):
        write_trace("case1", make_trace(5), tmp_path)
        path = write_trace("case1", make_trace(2), tmp_path)
        assert len(path.read_text(encoding="utf-8").splitlines()) == 2

    def test_path_separators_sanitized(self, tmp_path):
        path = write_trace("../evil/case", make_trace(1), tmp_path)
        assert path.parent == tmp_path
        assert "/" not in path.name

    def test_round_trip_through_read_trace(self, tmp_path):
        trace = make_trace(3)
        path = write_trace("case1", trace, tmp_path)
        assert read_trace(path) == trace


def fixture_matrix(prompts, backend, concurrency=None):
    return [
        RunConfig(arch, strategy, backend, "scripted", prompts, concurrency=concurrency)
        for arch, strategy in APPROACH_ORDER
    ]


class TestRunExperiment:
    def _tiny_dataset(self, tmp_path):
        records = [
            {"id": "t1", "text": "sudden worst headache", "red_flags": ["thunderclap"]},
            {"id": "t2", "text": "stiff neck and fever", "red_flags": ["meningismus"]},
            {"id": "t3", "text": "ordinary tension headache", "red_flags": []},
        ]
        return load_dataset(write_jsonl(tmp_path / "tiny.jsonl", records))

    def _backend_for(self, dataset):
        return ScriptedBackend(self._entries_for(dataset))

    def _entries_for(self, dataset):
        entries = []
        for case in dataset:
            raw = json.dumps(
                {"next": [f.value for f in case.truth], "why": "per truth", "evidence": ["q"]}
            )
            entries.extend(full_script(case.vignette.id, raw, set(case.truth)))
            baseline = "\n".join(
                f"{f.value}: {'YES' if f in case.truth else 'NO'}" for f in RedFlag
            )
            entries.append(ScriptEntry(case.vignette.id, "baseline", baseline))
        return entries

    def test_single_config_row(self, prompts, tmp_path):
        dataset = self._tiny_dataset(tmp_path)
        backend = self._backend_for(dataset)
        cfg = RunConfig(
            Architecture.MULTI_AGENT, PromptStrategy.GPROMPT, backend, "scripted", prompts
        )
        report = run_experiment(dataset, [cfg])
        (row,) = report.rows
        assert row.case_count == 3
        assert row.error_case_count == 0
        assert (row.precision, row.recall, row.f1) == (1.0, 1.0, 1.0)

    def test_four_rows_in_table_order(self, prompts, tmp_path):
        dataset = self._tiny_dataset(tmp_path)
        report = run_experiment(dataset, fixture_matrix(prompts, self._backend_for(dataset)))
        assert [row.approach for row in report.rows] == [
            "Single-LLM QPrompt",
            "Single-LLM GPrompt",
            "Multi-agent QPrompt",
            "Multi-agent GPrompt",
        ]

    def test_unrecoverable_case_scored_as_empty_prediction(self, prompts, tmp_path):
        dataset = self._tiny_dataset(tmp_path)
        entries = [
            e
            for case in dataset
            for e in full_script(
                case.vignette.id,
                json.dumps({"next": [f.value for f in case.truth], "why": "x", "evidence": ["q"]}),
                set(case.truth),
            )
        ]
        # break t1's orchestrator irrecoverably
        entries = [e for e in entries if e.key != ("t1", "orchestrator")]
        from redflagcds.gateway import Fault

        entries.append(ScriptEntry("t1", "orchestrator", fault=Fault.HTTP_500))
        cfg = RunConfig(
            Architecture.MULTI_AGENT,
            PromptStrategy.GPROMPT,
            ScriptedBackend(entries),
            "scripted",
            prompts,
        )
        report = run_experiment(dataset, [cfg])
        (row,) = report.rows
        assert row.error_case_count == 1
        assert row.case_count == 3
        # t1 has non-empty truth, scored as predicted = empty: recall drops
        assert row.recall < 1.0

    def test_traces_written_per_row_and_case(self, prompts, tmp_path):
        dataset = self._tiny_dataset(tmp_path)
        trace_dir = tmp_path / "traces"
        run_experiment(
            dataset, fixture_matrix(prompts, self._backend_for(dataset)), trace_dir=trace_dir
        )
        row_dirs = sorted(p.name for p in trace_dir.iterdir())
        assert row_dirs == [
            "scripted_multi_gprompt",
            "scripted_multi_qprompt",
            "scripted_single_gprompt",
            "scripted_single_qprompt",
        ]
        for row_dir in trace_dir.iterdir():
            assert sorted(p.name for p in row_dir.iterdir()) == [
                "t1.trace.jsonl",
                "t2.trace.jsonl",
                "t3.trace.jsonl",
            ]

    def test_empty_dataset_rejected(self, prompts):
        with pytest.raises(EmptyRun):
            run_experiment([], [])

    def test_one_failed_orchestrator_is_the_only_error_case(self, prompts, tmp_path):
        from tests.test_acceptance import _read_traces_without_wall_time  # imports this module

        records = [
            {"id": f"m{i}", "text": f"note {i}", "red_flags": ["meningismus"] if i % 2 else []}
            for i in range(9)
        ]
        dataset = load_dataset(write_jsonl(tmp_path / "nine.jsonl", records))
        entries = [e for e in self._entries_for(dataset) if e.key != ("m4", "orchestrator")]
        entries.append(ScriptEntry("m4", "orchestrator", fault=Fault.HTTP_500))

        def run(concurrency):
            trace_dir = tmp_path / f"c{concurrency}"
            cfg = RunConfig(Architecture.MULTI_AGENT, PromptStrategy.GPROMPT,
                            ScriptedBackend(entries), "scripted", prompts, concurrency=concurrency)
            (row,) = run_experiment(dataset, [cfg], trace_dir=trace_dir).rows
            return row, _read_traces_without_wall_time(trace_dir)

        (serial, serial_traces), (overlapped, overlapped_traces) = within(
            30, lambda: (run(1), run(4)))
        assert overlapped.error_case_count == serial.error_case_count == 1
        assert overlapped == serial
        assert overlapped_traces == serial_traces
        assert overlapped_traces["scripted_multi_gprompt/m4.trace.jsonl"] == []
        assert all(overlapped_traces[f"scripted_multi_gprompt/m{i}.trace.jsonl"]
                   for i in range(9) if i != 4)

    def test_failed_trace_write_cancels_cases_not_started(self, prompts, tmp_path):
        records = [{"id": f"w{i}", "text": f"note {i}", "red_flags": []} for i in range(12)]
        dataset = load_dataset(write_jsonl(tmp_path / "twelve.jsonl", records))
        # calls long enough that the failed write closes the run while w1 is still running
        backend = CountingBackend(self._backend_for(dataset), delay=0.1)
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file", encoding="utf-8")
        cfg = RunConfig(Architecture.MULTI_AGENT, PromptStrategy.GPROMPT, backend, "scripted",
                        prompts, concurrency=1)

        def run():
            with pytest.raises(IoFailure) as raised:
                run_experiment(dataset, [cfg], trace_dir=blocker / "traces")
            # `raised` keeps the failed run's frames alive, so only an explicit close
            # can have stopped its cases and joined its threads by now
            return raised, [t for t in threading.enumerate() if t.name.startswith("redflagcds-")]

        _, threads_left = within(30, run)
        assert threads_left == []
        # w0's trace write failed; w1 may have started before that; no later case ran
        assert {case_id for case_id, _, _ in backend.calls} <= {"w0", "w1"}


def test_serial_and_overlapped_fixture_runs_match(prompts, tmp_path):
    from tests.test_acceptance import _read_traces_without_wall_time  # imports this module

    dataset = load_dataset(FIXTURES_DIR / "cases.jsonl")
    entries = load_script(FIXTURES_DIR / "script.jsonl")

    def run(concurrency):
        trace_dir = tmp_path / f"c{concurrency}"
        matrix = fixture_matrix(prompts, ScriptedBackend(entries), concurrency)
        report = run_experiment(dataset, matrix, trace_dir=trace_dir)
        return report, _read_traces_without_wall_time(trace_dir)

    (serial, serial_traces), (overlapped, overlapped_traces) = within(
        60, lambda: (run(1), run(8)))
    assert overlapped.rows == serial.rows
    assert overlapped_traces == serial_traces
    assert len(serial_traces) == 4 * 22
    # case19's DROPPED meningismus fires once, in the first multi-agent row, and
    # fan-out recovers it there
    for row, dropped in (("multi_qprompt", True), ("multi_gprompt", False)):
        events = overlapped_traces[f"scripted_{row}/case19.trace.jsonl"]
        warnings = [e for e in events if e["stage"] == "WARNING"
                    and "tool call dropped" in e["payload"]["message"]]
        (fanout,) = [e for e in events if e["stage"] == "FANOUT"]
        assert bool(warnings) is dropped
        assert ("meningismus" in fanout["payload"]["missing"]) is dropped
        assert "meningismus" in events[-1]["payload"]["predicted"]
    # case18's HTTP_500 papilledema specialist stays an agent-level ERROR
    events = overlapped_traces["scripted_multi_gprompt/case18.trace.jsonl"]
    errors = [e for e in events if e["stage"] == "AGENT_ERROR"]
    assert [e["subject"] for e in errors] == ["papilledema"]


class TestReportRendering:
    def _report(self, prompts, tmp_path):
        dataset = TestRunExperiment()._tiny_dataset(tmp_path)
        backend = TestRunExperiment()._backend_for(dataset)
        return run_experiment(dataset, fixture_matrix(prompts, backend))

    def test_table_columns_and_precision(self, prompts, tmp_path):
        table = self._report(prompts, tmp_path).render_table()
        header = table.splitlines()[0]
        for column in ["Approach", "Precision", "Recall", "F1 Score"]:
            assert column in header
        assert "1.000" in table

    def test_table_footer_documents_conventions(self, prompts, tmp_path):
        table = self._report(prompts, tmp_path).render_table()
        assert "0/0" in table

    def test_csv_round_trip(self, prompts, tmp_path):
        report = self._report(prompts, tmp_path)
        parsed = RunReport.from_csv(report.to_csv())
        assert [r.approach for r in parsed.rows] == [r.approach for r in report.rows]
        assert parsed.rows[0].precision == round(report.rows[0].precision, 3)
