import pytest
from hypothesis import given
from hypothesis import strategies as st

from redflagcds.domain import (
    AgentVerdict,
    Decision,
    EmptyVignette,
    GraphState,
    RedFlag,
    RoutingDecision,
    UnknownAgentName,
    Vignette,
    parse_red_flag,
)
from redflagcds.engine import aggregate
from redflagcds.recovery import validate_routing
from redflagcds.trace import summarize

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


class TestRoutingDecision:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            RoutingDecision(next=[RedFlag.MENINGISMUS, RedFlag.MENINGISMUS], why="x")

    def test_empty_routing_is_valid(self, vignette):
        d = RoutingDecision(next=[], why="no criteria met", evidence=[])
        assert d.next == ()
        assert validate_routing(d, vignette) == []


def verdict(flag, decision=Decision.YES):
    detail = "boom" if decision is Decision.ERROR else None
    return AgentVerdict(flag=flag, decision=decision, error_detail=detail)


class TestAgentVerdict:
    def test_error_requires_detail(self):
        with pytest.raises(ValueError):
            AgentVerdict(flag=RedFlag.THUNDERCLAP, decision=Decision.ERROR)

    def test_detail_requires_error(self):
        with pytest.raises(ValueError):
            AgentVerdict(flag=RedFlag.THUNDERCLAP, decision=Decision.NO, error_detail="x")


class TestApplyVerdict:
    def test_moves_flag_to_completed(self, vignette):
        state = GraphState(note=vignette)
        state.apply_verdict(verdict(RedFlag.MENINGISMUS))
        assert RedFlag.MENINGISMUS in summarize(state.trace).verdicts

    def test_trace_event_stage_matches_outcome(self, vignette):
        state = GraphState(note=vignette)
        state.apply_verdict(verdict(RedFlag.MENINGISMUS))
        state.apply_verdict(verdict(RedFlag.PAPILLEDEMA, Decision.ERROR))
        stages = [e.stage.value for e in state.trace]
        assert stages == ["AGENT_DONE", "AGENT_ERROR"]


@given(
    decisions=st.dictionaries(st.sampled_from(list(RedFlag)), st.sampled_from(list(Decision)))
)
def test_case_result_predicted_matches_yes_verdicts(decisions):
    state = GraphState(note=Vignette(id="c", text="note"))
    for flag, decision in decisions.items():
        state.apply_verdict(verdict(flag, decision))
    result = aggregate(state)
    yes = {flag for flag, decision in decisions.items() if decision is Decision.YES}
    assert result.predicted == yes
    assert result.predicted == summarize(result.trace).predicted <= set(decisions)
    assert state.trace[-1].payload["predicted"] == sorted(flag.value for flag in yes)
