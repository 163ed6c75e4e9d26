import pytest
from hypothesis import given
from hypothesis import strategies as st

from redflagcds.domain import (
    EmptyVignette,
    RedFlag,
    Stage,
    UnknownAgentName,
    Vignette,
    parse_red_flag,
    verdict_record,
)
from redflagcds.engine import aggregate
from redflagcds.trace import summarize
from tests.conftest import case_run

WIRE_NAMES = [
    "thunderclap",
    "meningismus",
    "papilledema",
    "temporal_arteritis",
    "systemic_illness",
    "focal_deficits",
    "first_worst_headache",
]


class TestRedFlag:
    def test_exactly_seven_members(self):
        assert len(RedFlag) == 7
        assert [f.value for f in RedFlag] == WIRE_NAMES

    def test_round_trip_all_members(self):
        for flag in RedFlag:
            assert parse_red_flag(flag.value) is flag

    def test_parse_canonical(self):
        assert parse_red_flag("meningismus") is RedFlag.MENINGISMUS

    def test_parse_normalizes_case_and_whitespace(self):
        assert parse_red_flag("Thunderclap ") is RedFlag.THUNDERCLAP

    def test_parse_rejects_unknown(self):
        with pytest.raises(UnknownAgentName):
            parse_red_flag("migraine")


class TestVignette:
    def test_whitespace_only_text_rejected(self):
        with pytest.raises(EmptyVignette):
            Vignette(id="x", text="   \n ")


def verdict(decision="YES"):
    return verdict_record(decision, error_detail="boom" if decision == "ERROR" else None)


class TestVerdictRecord:
    def test_holds_the_payload_keys_in_trace_order(self):
        assert verdict_record("YES", "r", ("q",), "raw") == {
            "decision": "YES", "rationale": "r", "evidence": ["q"], "raw": "raw",
            "error_detail": None}
        assert list(verdict_record("NO")) == ["decision", "rationale", "evidence", "raw",
                                              "error_detail"]


class TestAddVerdict:
    def test_moves_flag_to_completed(self, vignette):
        run = case_run(vignette)
        run.add_verdict(RedFlag.MENINGISMUS, verdict())
        assert RedFlag.MENINGISMUS in summarize(run.trace).verdicts

    def test_trace_event_stage_matches_outcome(self, vignette):
        run = case_run(vignette)
        run.add_verdict(RedFlag.MENINGISMUS, verdict())
        run.add_verdict(RedFlag.PAPILLEDEMA, verdict("ERROR"))
        stages = [e.stage.value for e in run.trace]
        assert stages == ["AGENT_DONE", "AGENT_ERROR"]

    def test_writes_the_record_as_the_payload_unchanged(self, vignette):
        run = case_run(vignette)
        record = verdict_record("NO", "no \"fever\"", ["fever"], 'NO, no "fever"')
        run.add_verdict(RedFlag.SYSTEMIC_ILLNESS, record)
        (event,) = run.trace
        assert (event.stage, event.subject) == (Stage.AGENT_DONE, RedFlag.SYSTEMIC_ILLNESS)
        assert list(event.payload.items()) == list(record.items())


@given(
    decisions=st.dictionaries(st.sampled_from(list(RedFlag)),
                              st.sampled_from(["YES", "NO", "ERROR"]))
)
def test_case_result_predicted_matches_yes_verdicts(decisions):
    run = case_run(Vignette(id="c", text="note"))
    for flag, decision in decisions.items():
        run.add_verdict(flag, verdict(decision))
    result = aggregate(run)
    yes = {flag for flag, decision in decisions.items() if decision == "YES"}
    assert result.predicted == yes
    assert result.predicted == summarize(result.trace).predicted <= set(decisions)
    assert run.trace[-1].payload["predicted"] == sorted(flag.value for flag in yes)
