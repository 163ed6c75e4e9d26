"""`trace.summarize`, the one fold of a case-run's events, `untimed`, and `verify_trace`."""

from dataclasses import replace
from urllib.parse import unquote

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redflagcds.domain import FanoutMode, RedFlag, Stage, TraceEvent
from redflagcds.trace import Summary, read_trace, summarize, trace_stem, untimed, verify_trace
from tests.conftest import within


def event(sequence, stage, subject=None, **payload):
    return TraceEvent(sequence, stage, subject, payload, 0.0)


@given(case_id=st.text(alphabet="%/\\\0_a25CF", max_size=8))
def test_a_trace_stem_unquotes_back_to_its_id(case_id):
    """The stem is an escape with an inverse, so no two ids share a trace file."""
    assert unquote(trace_stem(case_id)) == case_id


def test_summarize_folds_routing_verdicts_starts_and_fanout():
    events = [
        event(1, Stage.ROUTING, next=["meningismus", "papilledema"], why="w", evidence=[]),
        event(2, Stage.AGENT_START, RedFlag.MENINGISMUS),
        event(3, Stage.AGENT_START, RedFlag.PAPILLEDEMA),
        event(4, Stage.WARNING, RedFlag.MENINGISMUS, message="tool call dropped"),
        event(5, Stage.AGENT_ERROR, RedFlag.PAPILLEDEMA, decision="ERROR", error_detail="x"),
        event(6, Stage.FANOUT, mode="routed", missing=["meningismus"]),
        event(7, Stage.AGENT_START, RedFlag.MENINGISMUS),
        event(8, Stage.AGENT_DONE, RedFlag.MENINGISMUS, decision="YES"),
        event(9, Stage.AGGREGATE, predicted=["meningismus"], verdict_count=2),
    ]
    summary = summarize(events)
    assert summary.routing == events[0].payload
    assert summary.fanout == events[5].payload
    assert summary.verdicts == {RedFlag.MENINGISMUS: events[7].payload,
                                RedFlag.PAPILLEDEMA: events[4].payload}
    assert summary.started == [RedFlag.MENINGISMUS, RedFlag.PAPILLEDEMA, RedFlag.MENINGISMUS]
    assert summary.predicted == {RedFlag.MENINGISMUS}
    assert verify_trace(events) == []


def test_routing_next_spelled_other_than_its_wire_names_is_rejected():
    events = [
        event(1, Stage.ROUTING, next=["Thunderclap"], why="w", evidence=[]),
        event(2, Stage.AGENT_START, RedFlag.THUNDERCLAP),
        event(3, Stage.AGENT_DONE, RedFlag.THUNDERCLAP, decision="NO"),
        event(4, Stage.FANOUT, mode="routed", missing=[]),
        event(5, Stage.AGGREGATE, predicted=[], verdict_count=1),
    ]
    assert verify_trace(events) == [
        "ROUTING next is not a list of distinct red flags: ['Thunderclap']"]


def test_a_verdict_without_a_subject_or_a_decision_is_no_prediction():
    summary = summarize([event(1, Stage.AGENT_DONE, None, decision="YES"),
                         event(2, Stage.AGENT_DONE, RedFlag.THUNDERCLAP)])
    assert summary.verdicts == {RedFlag.THUNDERCLAP: {}}
    assert summary.predicted == frozenset()


def test_an_empty_trace_folds_to_nothing():
    assert summarize([]) == Summary()


def test_untimed_drops_only_wall_time():
    record = event(1, Stage.WARNING, message="m").to_json_dict()
    assert untimed(record) == {"sequence": 1, "stage": "WARNING", "subject": None,
                               "payload": {"message": "m"}}
    assert "wall_time" in record


_WIRE_NAMES = [f.value for f in RedFlag] + ["YES", "NO", "ERROR", "routed", "exhaustive"]
# The wire names' letters, the escape's `%` and `/`, NUL, a lone surrogate and a character
# outside the BMP: a fixed alphabet, since drawing from all of Unicode first builds
# hypothesis's character table, which can fail the too_slow health check on a cold run.
_chars = st.sampled_from(sorted(set("".join(_WIRE_NAMES))) + ["%", "/", "\0", "\ud800",
                                                                  "\U0001f600"])
_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(_chars, max_size=12)
    | st.sampled_from(_WIRE_NAMES),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(_chars, max_size=4),
                                                                inner, max_size=3),
    max_leaves=4,
)
_keys = st.sampled_from(["decision", "error_detail", "next", "missing", "mode", "fallback",
                         "predicted", "verdict_count", "why"])
_events = st.lists(st.builds(
    TraceEvent,
    sequence=st.integers(0, 20),
    stage=st.sampled_from(list(Stage)),
    subject=st.none() | st.sampled_from(list(RedFlag)),
    payload=st.dictionaries(_keys, _values, max_size=4),
    wall_time=st.just(0.0),
), max_size=12)


@settings(max_examples=60)
@given(events=_events)
def test_the_fold_and_verify_never_raise_on_any_events(events):
    assert isinstance(summarize(events).predicted, frozenset)
    assert isinstance(verify_trace(events), list)


def test_any_deleted_or_adjacent_swapped_event_of_an_engine_trace_is_rejected(tmp_path):
    """Deleting one event of a trace the engine writes, or swapping two adjacent events
    whose stage or subject differ, makes `verify_trace` reject it, renumbered after the
    edit: every fixture trace under both fan-out modes, and the seed-7 corpus traces
    whose routing fell back to all seven agents (the routing call is the same in both
    multi-agent rows, so one row has them all)."""
    from scripts.trace_digests import MULTI_AGENT, fixture_trace_digests, run_digests, write_corpus

    within(60, lambda: fixture_trace_digests(tmp_path / "fixtures"))
    corpus = write_corpus(tmp_path / "corpus")
    runs = [(FanoutMode.ROUTED, MULTI_AGENT[:1], "")]
    within(60, lambda: run_digests(corpus["cases"], corpus["script"], runs, tmp_path / "corpus"))
    traces = {path.relative_to(tmp_path).as_posix(): read_trace(path)
              for path in sorted(tmp_path.rglob("*.trace.jsonl"))}
    traces = {name: events for name, events in traces.items() if name.startswith("fixtures/")
              or summarize(events).routing.get("fallback")}
    assert len(traces) == 132 + 40
    accepted = []
    for name, events in traces.items():
        edits = [events[:i] + events[i + 1:] for i in range(len(events))]
        edits += [events[:i] + [events[i + 1], events[i]] + events[i + 2:]
                  for i in range(len(events) - 1)
                  if (events[i].stage, events[i].subject)
                  != (events[i + 1].stage, events[i + 1].subject)]
        for n, edited in enumerate(edits):
            renumbered = [replace(event, sequence=i) for i, event in enumerate(edited, start=1)]
            if not verify_trace(renumbered):
                accepted.append(f"{name} edit {n}")
    assert not accepted, f"{len(accepted)} edited traces pass verify_trace: {accepted[:10]}"


@pytest.fixture(scope="module")
def fanouts_of_two_or_more(tmp_path_factory):
    """The fixture traces, under both fan-out modes, whose FANOUT names two or more flags
    missing: the ones in which `missing` has an order to get wrong."""
    from scripts.trace_digests import fixture_trace_digests

    trace_dir = tmp_path_factory.mktemp("fixtures")
    within(60, lambda: fixture_trace_digests(trace_dir))
    traces = {path.relative_to(trace_dir).as_posix(): read_trace(path)
              for path in sorted(trace_dir.rglob("*.trace.jsonl"))}
    return {name: events for name, events in traces.items()
            if len((summarize(events).fanout or {}).get("missing", ())) >= 2}


@pytest.mark.parametrize("edit", [
    lambda names: names[::-1],
    lambda names: [name.upper() for name in names],
], ids=["reversed", "upper-cased"])
def test_a_fanout_missing_list_the_engine_does_not_write_is_rejected(fanouts_of_two_or_more,
                                                                     edit):
    """`engine.manual_fanout` writes `missing` as wire names in canonical order; the same
    flags listed in any other order or spelling fail `verify_trace`."""
    assert len(fanouts_of_two_or_more) == 44
    accepted = []
    for name, events in fanouts_of_two_or_more.items():
        assert verify_trace(events) == [], name
        edited = [replace(e, payload={**e.payload, "missing": edit(e.payload["missing"])})
                  if e.stage is Stage.FANOUT else e for e in events]
        if not verify_trace(edited):
            accepted.append(name)
    assert not accepted, f"{len(accepted)} edited traces pass verify_trace: {accepted[:10]}"
