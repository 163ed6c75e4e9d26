import itertools
import json
import math
import random
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from redflagcds.domain import RedFlag, Stage, TraceEvent
from redflagcds.encoding import read_jsonl, read_text_fallback
from redflagcds.engine import DEFAULT_CONCURRENCY, Architecture, RunConfig
from redflagcds.evaluation import (
    APPROACH_ORDER,
    BadRecord,
    CaseMetrics,
    EmptyRun,
    RunReport,
    case_metrics,
    load_dataset,
    macro_average,
    run_experiment,
)
from redflagcds.gateway import Fault, ScriptedBackend, ScriptEntry, load_script
from redflagcds.prompts import PromptStrategy
from redflagcds.trace import read_trace, verify_trace, write_trace
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

    def test_bom_stripped(self, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbfhello")
        assert read_text_fallback(path) == "hello"

    def test_invalid_utf8_decodes_as_latin1(self, tmp_path, caplog):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"caf\xe9")
        with caplog.at_level("INFO", logger="redflagcds.encoding"):
            assert read_text_fallback(path) == "café"
        assert "Latin-1" in caplog.text

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_bytes(b"")
        assert read_text_fallback(path) == ""


# JSON allows these raw inside a string; str.splitlines() would end a record at each.
LINE_BREAKS = "\x85\u2028\u2029"
# Any character a UTF-8 file can hold: a lone surrogate cannot be written to one.
UTF8_TEXT = st.text(st.characters(codec="utf-8") | st.sampled_from(LINE_BREAKS))


@given(st.lists(st.dictionaries(st.text(), UTF8_TEXT, max_size=3), max_size=4))
def test_jsonl_records_read_back_equal(tmp_path_factory, records):
    path = tmp_path_factory.getbasetemp() / "round_trip.jsonl"
    path.write_text(
        "".join(json.dumps(record, ensure_ascii=False) + "\n" for record in records),
        encoding="utf-8",
    )
    assert list(read_jsonl(path)) == list(enumerate(records, start=1))


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
        with pytest.raises(BadRecord, match=r"^line 1: unknown red flag 'migraine'$"):
            load_dataset(path)

    def test_bad_json_names_line_number(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            '{"id": "a", "text": "note", "red_flags": []}\nnot json\n', encoding="utf-8"
        )
        with pytest.raises(BadRecord, match="line 2"):
            load_dataset(path)

    @pytest.mark.parametrize("record, problem", [
        ({"id": " \t", "red_flags": []}, "id is empty"),
        ({"id": "a", "red_flags": "thunderclap"}, "red_flags is not an array"),
    ])
    def test_record_rejected_naming_the_problem(self, tmp_path, record, problem):
        path = self._write(tmp_path, [{"text": "note", **record}])
        with pytest.raises(BadRecord, match=f"^line 1: {problem}$"):
            load_dataset(path)

    @pytest.mark.parametrize("case_id, fits", [
        ("x" * 243, True), ("x" * 244, False), ("é" * 121 + "x", True), ("é" * 122, False),
        ("\udcff" * 243, True), ("\udcff" * 244, False), ("/" * 81, True), ("/" * 82, False),
    ], ids=["255-bytes", "256-bytes", "255-bytes-in-122-characters", "256-bytes-in-122-characters",
            "255-undecodable-bytes", "256-undecodable-bytes", "255-bytes-escaped",
            "258-bytes-escaped"])
    def test_id_must_fit_a_trace_file_name(self, tmp_path, case_id, fits):
        """`<id>.trace.jsonl` must fit in 255 bytes of the file-system encoding; 243 are left
        for the id as `trace_stem` escapes it, where each `/` takes three. A byte that is not
        UTF-8, decoded as one surrogate, counts as one byte."""
        path = self._write(tmp_path, [{"id": case_id, "text": "note", "red_flags": []}])
        if fits:
            (case,) = load_dataset(path)
            assert case.vignette.id == case_id
        else:
            with pytest.raises(BadRecord, match="^line 1: id is too long for a trace file name$"):
                load_dataset(path)

    @pytest.mark.parametrize("case_id", [[1, 2], True, 1.5, {"a": 1}],
                             ids=["array", "true", "float", "object"])
    def test_id_neither_string_nor_integer_rejected(self, tmp_path, case_id):
        path = self._write(tmp_path, [{"id": case_id, "text": "note", "red_flags": []}])
        with pytest.raises(BadRecord, match="^line 1: id is not a string or an integer$"):
            load_dataset(path)

    def test_integer_id_loads_as_text(self, tmp_path):
        path = self._write(tmp_path, [{"id": 7, "text": "note", "red_flags": []}])
        (case,) = load_dataset(path)
        assert case.vignette.id == "7"

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

    def test_bom_file_parses_identically(self, tmp_path):
        record = json.dumps({"id": "a", "text": "note", "red_flags": ["thunderclap"]})
        plain = tmp_path / "plain.jsonl"
        plain.write_text(record + "\n", encoding="utf-8")
        bom = tmp_path / "bom.jsonl"
        bom.write_bytes(b"\xef\xbb\xbf" + (record + "\n").encode("utf-8"))
        assert load_dataset(plain) == load_dataset(bom)

    def test_raw_0x85_byte_loads(self, tmp_path):
        path = tmp_path / "data.jsonl"  # CP1252's ellipsis byte, which Latin-1 reads as U+0085
        path.write_bytes(b'{"id": "a", "text": "worst ever\x85", "red_flags": []}\n')
        (case,) = load_dataset(path)
        assert case.vignette.text == "worst ever\x85"

    def test_crlf_file_loads(self, tmp_path):
        path = tmp_path / "data.jsonl"
        record = '{"id": "a", "text": "sudden\u2028onset", "red_flags": ["thunderclap"]}\r\n'
        path.write_bytes(record.encode("utf-8"))
        (case,) = load_dataset(path)
        assert (case.vignette.text, case.truth) == ("sudden\u2028onset", {RedFlag.THUNDERCLAP})

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
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

    def test_lone_surrogate_is_written_as_its_escape_and_round_trips(self, tmp_path):
        trace = [TraceEvent(1, Stage.WARNING, None, {"message": "a\ud800b\udcff"}, 0.0)]
        path = write_trace("case1", trace, tmp_path)
        assert b"a\\ud800b\\udcff" in path.read_bytes()
        assert read_trace(path) == trace

    def test_line_breaks_in_a_payload_round_trip(self, tmp_path):
        trace = [TraceEvent(1, Stage.WARNING, None, {"message": f"a{LINE_BREAKS}b"}, 0.0)]
        path = write_trace("case1", trace, tmp_path)
        assert path.read_bytes().count(b"\n") == 1
        assert read_trace(path) == trace


def fixture_matrix(prompts, backend, concurrency=DEFAULT_CONCURRENCY):
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
        report = run_experiment(dataset, [cfg], trace_dir=tmp_path)
        (row,) = report.rows
        assert row.case_count == 3
        assert row.error_case_count == 0
        assert (row.precision, row.recall, row.f1) == (1.0, 1.0, 1.0)

    def test_four_rows_in_table_order(self, prompts, tmp_path):
        dataset = self._tiny_dataset(tmp_path)
        report = run_experiment(dataset, fixture_matrix(prompts, self._backend_for(dataset)),
                                trace_dir=tmp_path)
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
        report = run_experiment(dataset, [cfg], trace_dir=tmp_path)
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

    def test_empty_dataset_rejected(self, prompts, tmp_path):
        with pytest.raises(EmptyRun):
            run_experiment([], [], trace_dir=tmp_path)

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
            before = set(threading.enumerate())  # the warm call threads of earlier screens
            with pytest.raises(OSError) as raised:
                run_experiment(dataset, [cfg], trace_dir=blocker / "traces")
            # `raised` keeps the failed run's frames alive, so only an explicit close
            # can have stopped its cases and joined its threads by now
            return raised, [t for t in threading.enumerate()
                            if t.name.startswith("redflagcds-") and t not in before]

        _, threads_left = within(30, run)
        assert threads_left == []
        # w0's trace write failed; w1 may have started before that; no later case ran
        assert {call.case_id for call in backend.calls} <= {"w0", "w1"}


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


def rejected_by_verify(trace_root) -> list[str]:
    """The traces under trace_root that `replay --verify` rejects."""
    return [path.relative_to(trace_root).as_posix()
            for path in sorted(trace_root.rglob("*.trace.jsonl"))
            if verify_trace(read_trace(path))]


def test_fixture_traces_match_pinned_digests(tmp_path):
    from scripts.trace_digests import fixture_trace_digests, read_digests

    pinned = read_digests()
    assert len(pinned) == (4 + 2) * 22  # the matrix, then its multi-agent rows exhaustive
    actual = within(60, lambda: fixture_trace_digests(tmp_path))
    differing = sorted(name for name in pinned.keys() | actual.keys()
                       if pinned.get(name) != actual.get(name))
    assert not differing, (
        f"{len(differing)} fixture traces differ from tests/fixture_trace_digests.txt "
        f"(regenerate with scripts/trace_digests.py only for an intended change): {differing}"
    )
    assert rejected_by_verify(tmp_path) == []


def test_corpus_traces_match_oracle_and_pinned_digests(tmp_path):
    """The seed-7 corpus reaches every recovery tier, the seven-agent fallback and
    every fault: its exhaustive case-runs predict what the generator's oracle
    expects, and every trace of both fan-out modes matches its pinned digest and
    passes `replay --verify`'s checks."""
    from scripts.trace_digests import CORPUS_DIGESTS_FILE, corpus_trace_digests, read_digests

    pinned = read_digests(CORPUS_DIGESTS_FILE)
    assert len(pinned) == (4 + 2) * 200  # all rows exhaustive, then the multi-agent rows routed
    actual = within(60, lambda: corpus_trace_digests(tmp_path))
    expected = {(r["case_id"], f"scripted_{r['config']}"): sorted(r["predicted"])
                for _, r in read_jsonl(tmp_path / "corpus" / "expected.jsonl")}
    wrong = []
    for (case_id, row), want in expected.items():  # the oracle assumes exhaustive fan-out
        events = read_trace(tmp_path / "traces" / "exhaustive" / row / f"{case_id}.trace.jsonl")
        if sorted(events[-1].payload["predicted"]) != want:
            wrong.append(f"{row}/{case_id}")
    assert len(expected) == 4 * 200
    assert not wrong, f"{len(wrong)} exhaustive case-runs differ from expected.jsonl: {wrong}"
    differing = sorted(name for name in pinned.keys() | actual.keys()
                       if pinned.get(name) != actual.get(name))
    assert not differing, (
        f"{len(differing)} corpus traces differ from tests/corpus_trace_digests.txt "
        f"(regenerate with scripts/trace_digests.py only for an intended change): {differing}"
    )
    assert rejected_by_verify(tmp_path / "traces") == []


class TestReportRendering:
    def _report(self, prompts, tmp_path):
        dataset = TestRunExperiment()._tiny_dataset(tmp_path)
        backend = TestRunExperiment()._backend_for(dataset)
        return run_experiment(dataset, fixture_matrix(prompts, backend), trace_dir=tmp_path)

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
