import json

import pytest
from click.testing import CliRunner

from redflagcds.cli import EXIT_BACKEND, EXIT_INVARIANT, EXIT_OK, EXIT_USAGE, cli
from redflagcds.gateway import Fault, ScriptEntry
from redflagcds.recovery import Strategy, extract_json
from tests.conftest import FIXTURES_DIR, TABLE1_RAW, full_script, write_jsonl, write_script_file


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def note_path(tmp_path):
    path = tmp_path / "case-7.txt"
    path.write_text(
        "A 29-year-old woman with headache, fever, vomiting, and a stiff neck.",
        encoding="utf-8",
    )
    return path


@pytest.fixture
def script_path(tmp_path):
    return write_script_file(
        tmp_path / "script.jsonl", full_script("case-7", TABLE1_RAW, yes_flags=())
    )


def classify_args(note_path, script_path, tmp_path, *extra):
    return [
        "classify",
        "--note", str(note_path),
        "--script", str(script_path),
        "--out", str(tmp_path / "out"),
        *extra,
    ]


class TestClassify:
    def test_output_is_strict_json(self, runner, note_path, script_path, tmp_path):
        result = runner.invoke(cli, classify_args(note_path, script_path, tmp_path))
        assert result.exit_code == EXIT_OK, result.output
        outcome = extract_json(result.output)
        assert outcome.strategy_used is Strategy.STRICT

    def test_result_fields(self, runner, note_path, script_path, tmp_path):
        result = runner.invoke(cli, classify_args(note_path, script_path, tmp_path))
        payload = json.loads(result.output)
        assert payload["case_id"] == "case-7"
        assert payload["predicted"] == []
        assert payload["routing"]["next"] == ["meningismus"]
        assert list(payload["verdicts"]) == ["meningismus"]

    def test_trace_file_written(self, runner, note_path, script_path, tmp_path):
        result = runner.invoke(cli, classify_args(note_path, script_path, tmp_path))
        payload = json.loads(result.output)
        trace_lines = (
            (tmp_path / "out").joinpath("traces", "case-7.trace.jsonl")
            .read_text(encoding="utf-8")
            .splitlines()
        )
        assert payload["trace_file"].endswith("case-7.trace.jsonl")
        assert trace_lines

    def test_single_arch_has_no_routing(self, runner, note_path, tmp_path):
        script = write_script_file(
            tmp_path / "s.jsonl",
            [ScriptEntry("case-7", "baseline", "meningismus: YES\nthunderclap: NO")],
        )
        result = runner.invoke(
            cli, classify_args(note_path, script, tmp_path, "--arch", "single")
        )
        assert result.exit_code == EXIT_OK, result.output
        payload = json.loads(result.output)
        assert payload["routing"] is None
        assert payload["predicted"] == ["meningismus"]
        assert len(payload["verdicts"]) == 7

    def test_empty_note_is_usage_error(self, runner, tmp_path, script_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("   \n", encoding="utf-8")
        result = runner.invoke(cli, classify_args(empty, script_path, tmp_path))
        assert result.exit_code == EXIT_USAGE

    def test_missing_backend_is_usage_error(self, runner, note_path, tmp_path):
        result = runner.invoke(
            cli, ["classify", "--note", str(note_path), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == EXIT_USAGE
        assert "--script or --endpoint" in result.output

    def test_orchestrator_backend_failure_exits_3(self, runner, note_path, tmp_path):
        script = write_script_file(
            tmp_path / "s.jsonl",
            [ScriptEntry("case-7", "orchestrator", fault=Fault.HTTP_500)],
        )
        result = runner.invoke(cli, classify_args(note_path, script, tmp_path))
        assert result.exit_code == EXIT_BACKEND

    def test_unwritable_trace_output_exits_2(self, runner, note_path, script_path, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file", encoding="utf-8")
        result = runner.invoke(
            cli,
            ["classify", "--note", str(note_path), "--script", str(script_path),
             "--out", str(blocker / "out")],
        )
        assert result.exit_code == EXIT_USAGE
        assert "cannot write traces:" in result.output

    def test_stdin_note(self, runner, tmp_path):
        script = write_script_file(
            tmp_path / "s.jsonl", full_script("stdin", TABLE1_RAW, yes_flags=())
        )
        result = runner.invoke(
            cli,
            ["classify", "--note", "-", "--script", str(script),
             "--out", str(tmp_path / "out")],
            input="stiff neck and fever\n",
        )
        assert result.exit_code == EXIT_OK, result.output
        assert json.loads(result.output)["case_id"] == "stdin"


class TestEvaluate:
    def _invoke(self, runner, tmp_path, *extra):
        return runner.invoke(
            cli,
            ["evaluate",
             "--dataset", str(FIXTURES_DIR / "cases.jsonl"),
             "--script", str(FIXTURES_DIR / "script.jsonl"),
             "--out", str(tmp_path / "out"),
             *extra],
        )

    def test_full_matrix_prints_four_rows(self, runner, tmp_path):
        result = self._invoke(runner, tmp_path)
        assert result.exit_code == EXIT_OK, result.output
        for label in ["Single-LLM QPrompt", "Single-LLM GPrompt",
                      "Multi-agent QPrompt", "Multi-agent GPrompt"]:
            assert label in result.output

    def test_single_row_matrix(self, runner, tmp_path):
        result = self._invoke(runner, tmp_path, "--matrix", "multi-gprompt")
        assert result.exit_code == EXIT_OK, result.output
        assert "Multi-agent GPrompt" in result.output
        assert "Single-LLM" not in result.output

    def test_csv_written(self, runner, tmp_path):
        result = self._invoke(runner, tmp_path)
        assert result.exit_code == EXIT_OK
        csv_text = (tmp_path / "out" / "report.csv").read_text(encoding="utf-8")
        assert csv_text.splitlines()[0].startswith("model,approach")
        assert len(csv_text.splitlines()) == 5

    def test_bad_dataset_names_line(self, runner, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a", "text": "x", "red_flags": []}\n{broken\n', encoding="utf-8")
        result = runner.invoke(
            cli,
            ["evaluate", "--dataset", str(bad),
             "--script", str(FIXTURES_DIR / "script.jsonl"),
             "--out", str(tmp_path / "out")],
        )
        assert result.exit_code == EXIT_USAGE
        assert "line 2" in result.output

    def test_trace_name_collision_exits_2(self, runner, tmp_path):
        records = [
            {"id": "a/b", "text": "x", "red_flags": []},
            {"id": "a_b", "text": "y", "red_flags": []},
        ]
        dataset = write_jsonl(tmp_path / "clash.jsonl", records)
        result = runner.invoke(
            cli,
            ["evaluate", "--dataset", str(dataset),
             "--script", str(FIXTURES_DIR / "script.jsonl"),
             "--out", str(tmp_path / "out")],
        )
        assert result.exit_code == EXIT_USAGE
        assert "bad dataset: line 2:" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_concurrency_below_one_exits_2(self, runner, tmp_path, value):
        result = self._invoke(runner, tmp_path, "--concurrency", value)
        assert result.exit_code == EXIT_USAGE
        assert "--concurrency" in result.output
        assert not (tmp_path / "out").exists()

    def test_unwritable_trace_output_exits_2(self, runner, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file", encoding="utf-8")
        result = runner.invoke(
            cli,
            ["evaluate",
             "--dataset", str(FIXTURES_DIR / "cases.jsonl"),
             "--script", str(FIXTURES_DIR / "script.jsonl"),
             "--out", str(blocker / "out")],
        )
        assert result.exit_code == EXIT_USAGE
        assert "cannot write traces:" in result.output
        assert "Traceback" not in result.output

    def test_missing_dataset_exits_2(self, runner, tmp_path):
        result = runner.invoke(
            cli,
            ["evaluate", "--dataset", str(tmp_path / "nope.jsonl"),
             "--script", str(FIXTURES_DIR / "script.jsonl")],
        )
        assert result.exit_code == EXIT_USAGE


class TestReport:
    def test_rerenders_csv(self, runner, tmp_path):
        evaluate = runner.invoke(
            cli,
            ["evaluate", "--dataset", str(FIXTURES_DIR / "cases.jsonl"),
             "--script", str(FIXTURES_DIR / "script.jsonl"),
             "--out", str(tmp_path / "out")],
        )
        assert evaluate.exit_code == EXIT_OK
        result = runner.invoke(
            cli, ["report", "--csv", str(tmp_path / "out" / "report.csv")]
        )
        assert result.exit_code == EXIT_OK, result.output
        assert "F1 Score" in result.output
        assert "Multi-agent GPrompt" in result.output

    def test_bad_csv_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,report\n1,2,3\n", encoding="utf-8")
        result = runner.invoke(cli, ["report", "--csv", str(bad)])
        assert result.exit_code == EXIT_USAGE


class TestReplay:
    def _trace_path(self, runner, note_path, script_path, tmp_path):
        result = runner.invoke(cli, classify_args(note_path, script_path, tmp_path))
        assert result.exit_code == EXIT_OK, result.output
        return tmp_path / "out" / "traces" / "case-7.trace.jsonl"

    def test_pretty_prints_events(self, runner, note_path, script_path, tmp_path):
        trace = self._trace_path(runner, note_path, script_path, tmp_path)
        result = runner.invoke(cli, ["replay", str(trace)])
        assert result.exit_code == EXIT_OK, result.output
        assert "ROUTING" in result.output
        assert "AGGREGATE" in result.output

    def test_verify_passes_on_real_trace(self, runner, note_path, script_path, tmp_path):
        trace = self._trace_path(runner, note_path, script_path, tmp_path)
        result = runner.invoke(cli, ["replay", str(trace), "--verify"])
        assert result.exit_code == EXIT_OK, result.output
        assert "invariants hold" in result.output

    def test_verify_flags_missing_aggregate(self, runner, note_path, script_path, tmp_path):
        trace = self._trace_path(runner, note_path, script_path, tmp_path)
        lines = trace.read_text(encoding="utf-8").splitlines()
        kept = [l for l in lines if json.loads(l)["stage"] != "AGGREGATE"]
        trace.write_text("\n".join(kept) + "\n", encoding="utf-8")
        result = runner.invoke(cli, ["replay", str(trace), "--verify"])
        assert result.exit_code == EXIT_INVARIANT
        assert "AGGREGATE" in result.output

    def test_verify_flags_duplicate_routing(self, runner, note_path, script_path, tmp_path):
        trace = self._trace_path(runner, note_path, script_path, tmp_path)
        lines = trace.read_text(encoding="utf-8").splitlines()
        routing_line = next(l for l in lines if json.loads(l)["stage"] == "ROUTING")
        trace.write_text("\n".join([routing_line] + lines) + "\n", encoding="utf-8")
        result = runner.invoke(cli, ["replay", str(trace), "--verify"])
        assert result.exit_code == EXIT_INVARIANT

    def test_verify_passes_on_single_llm_trace(self, runner, note_path, tmp_path):
        script = write_script_file(
            tmp_path / "s.jsonl",
            [ScriptEntry("case-7", "baseline", "meningismus: YES\nthunderclap: NO")],
        )
        result = runner.invoke(
            cli, classify_args(note_path, script, tmp_path, "--arch", "single")
        )
        assert result.exit_code == EXIT_OK, result.output
        trace = tmp_path / "out" / "traces" / "case-7.trace.jsonl"
        result = runner.invoke(cli, ["replay", str(trace), "--verify"])
        assert result.exit_code == EXIT_OK, result.output
        assert "invariants hold" in result.output

    def test_verify_flags_missing_routing(self, runner, note_path, script_path, tmp_path):
        trace = self._trace_path(runner, note_path, script_path, tmp_path)
        lines = trace.read_text(encoding="utf-8").splitlines()
        kept = [l for l in lines if json.loads(l)["stage"] != "ROUTING"]
        trace.write_text("\n".join(kept) + "\n", encoding="utf-8")
        result = runner.invoke(cli, ["replay", str(trace), "--verify"])
        assert result.exit_code == EXIT_INVARIANT
        assert "ROUTING" in result.output

    def test_verify_flags_empty_trace(self, runner, tmp_path):
        empty = tmp_path / "failed.trace.jsonl"
        empty.write_text("", encoding="utf-8")
        result = runner.invoke(cli, ["replay", str(empty), "--verify"])
        assert result.exit_code == EXIT_INVARIANT
        assert "AGGREGATE" in result.output

    def test_malformed_trace_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.trace.jsonl"
        bad.write_text("this is not json\n", encoding="utf-8")
        result = runner.invoke(cli, ["replay", str(bad)])
        assert result.exit_code == EXIT_USAGE


class TestConfigFile:
    def test_config_file_supplies_script(self, runner, note_path, script_path, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"script": str(script_path), "out": str(tmp_path / "out")}),
            encoding="utf-8",
        )
        result = runner.invoke(
            cli, ["classify", "--note", str(note_path), "--config", str(config)]
        )
        assert result.exit_code == EXIT_OK, result.output
        assert json.loads(result.output)["routing"]["next"] == ["meningismus"]

    def test_flags_override_config(self, runner, note_path, script_path, tmp_path):
        other = write_script_file(
            tmp_path / "other.jsonl",
            full_script("case-7", '{"next": [], "why": "none", "evidence": []}'),
        )
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"script": str(other)}), encoding="utf-8")
        result = runner.invoke(
            cli,
            ["classify", "--note", str(note_path), "--config", str(config),
             "--script", str(script_path), "--out", str(tmp_path / "out")],
        )
        assert result.exit_code == EXIT_OK, result.output
        assert json.loads(result.output)["routing"]["next"] == ["meningismus"]

    @pytest.mark.parametrize("value", [0, -1, "4", True])
    def test_config_concurrency_not_a_positive_integer_exits_2(
        self, runner, note_path, script_path, tmp_path, value
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"concurrency": value}), encoding="utf-8")
        result = runner.invoke(cli, classify_args(note_path, script_path, tmp_path,
                                                  "--config", str(config)))
        assert result.exit_code == EXIT_USAGE
        assert "concurrency must be an integer of at least 1" in result.output
