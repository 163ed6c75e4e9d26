"""`trace.summarize`, the one fold of a case-run's events, `untimed`, and `verify_trace`."""

import re
from collections import Counter
from dataclasses import replace
from urllib.parse import unquote

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redflagcds.domain import FanoutMode, RedFlag, Stage, TraceEvent, Vignette, verdict_record
from redflagcds.engine import run_case
from redflagcds.evaluation import load_dataset
from redflagcds.gateway import Fault, ScriptedBackend
from redflagcds.recovery import (NoJsonFound, SchemaUnusable, parse_baseline, parse_routing,
                                 parse_verdict)
from redflagcds.trace import (Summary, read_trace, summarize, trace_stem, untimed, verify_trace,
                              write_trace)
from tests.conftest import TABLE1_RAW, full_script, multi_config, within


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


def _notes(dataset) -> dict[str, Vignette]:
    return {case.vignette.id: case.vignette for case in load_dataset(dataset)}


# An engine ERROR's error_detail: the name of the exception its call raised, then ": ".
_ENGINE_ERROR = re.compile(r"(\w+): ")


def test_each_routing_and_verdict_is_the_record_its_parser_makes_of_its_reply(tmp_path,
                                                                             prompts):
    """A multi-agent trace's ROUTING holds `next`, `why`, `evidence` and `warnings` as
    `parse_routing` makes them of its `raw` reply and the case's note, and a fallback's
    WARNING keeps a reply that does not parse. Each of its AGENT_DONE and AGENT_ERROR
    payloads is `parse_verdict` of its `raw`, but for an engine ERROR (a call that
    raised), which has no `raw`. Each verdict of a single-LLM trace is `parse_baseline`
    of its AGGREGATE's `raw`, by flag. Checked on every fixture trace under both fan-out
    modes, on the seed-7 corpus routed under Multi-agent GPrompt, and on one exhaustive
    scripted case-run whose unrouted papilledema call is dropped in step 3."""
    from scripts.trace_digests import (FIXTURES, MULTI_AGENT, fixture_trace_digests,
                                       run_digests, write_corpus)

    within(60, lambda: fixture_trace_digests(tmp_path / "fixtures"))
    corpus = write_corpus(tmp_path / "corpus")
    runs = [(FanoutMode.ROUTED, MULTI_AGENT[1:], "")]
    within(60, lambda: run_digests(corpus["cases"], corpus["script"], runs, tmp_path / "corpus"))
    dropped = Vignette("case-7", "Headache with stiff neck, fever, and vomiting.")
    entries = full_script(dropped.id, TABLE1_RAW, faults={RedFlag.PAPILLEDEMA: Fault.DROPPED})
    cfg = multi_config(ScriptedBackend(entries), prompts, fanout_mode=FanoutMode.EXHAUSTIVE)
    write_trace(dropped.id, within(30, lambda: run_case(dropped, cfg)).trace,
                tmp_path / "scripted")
    counts = Counter()
    differing = []
    for top, notes in (("fixtures", _notes(FIXTURES / "cases.jsonl")),
                       ("corpus", _notes(corpus["cases"])), ("scripted", {dropped.id: dropped})):
        for path in sorted((tmp_path / top).rglob("*.trace.jsonl")):
            note = notes[unquote(path.name.removesuffix(".trace.jsonl"))]
            name = path.relative_to(tmp_path).as_posix()
            events = read_trace(path)
            verdicts = [(e.subject, e.payload) for e in events
                        if e.stage in (Stage.AGENT_DONE, Stage.AGENT_ERROR)]
            routing = summarize(events).routing
            if routing is None:  # a single-LLM trace
                baseline = parse_baseline(events[-1].payload["raw"])
                for flag, payload in verdicts:
                    if payload != baseline[flag]:
                        differing.append(f"{name} verdict of {flag.value}")
                    counts[top, "single-LLM verdict"] += 1
                continue
            for flag, payload in verdicts:
                engine_error = _ENGINE_ERROR.match(payload["error_detail"] or "")
                if payload["raw"] == "" and engine_error:
                    assert payload == verdict_record("ERROR", error_detail=payload["error_detail"])
                    counts[top, f"engine ERROR {engine_error[1]}"] += 1
                    continue
                if payload != parse_verdict(payload["raw"]):
                    differing.append(f"{name} verdict of {flag.value}")
                counts[top, "specialist verdict"] += 1
            if routing.get("fallback"):
                at = next(i for i, e in enumerate(events) if e.stage is Stage.ROUTING)
                assert events[at - 1].stage is Stage.WARNING, path
                with pytest.raises((NoJsonFound, SchemaUnusable)):
                    parse_routing(events[at - 1].payload["raw"], note)
                counts[top, "fallback"] += 1
                continue
            record = {key: routing[key] for key in ("next", "why", "evidence", "warnings")}
            if record != parse_routing(routing["raw"], note):
                differing.append(f"{name} ROUTING")
            counts[top, "routing"] += 1
    assert not differing, f"{len(differing)} records differ: {differing[:10]}"
    assert dict(counts) == {
        ("fixtures", "routing"): 88, ("fixtures", "specialist verdict"): 358,
        ("fixtures", "engine ERROR BackendUnavailable"): 4,
        ("fixtures", "single-LLM verdict"): 308,
        ("corpus", "routing"): 160, ("corpus", "fallback"): 40,
        ("corpus", "specialist verdict"): 523, ("corpus", "engine ERROR BackendUnavailable"): 10,
        ("scripted", "routing"): 1, ("scripted", "specialist verdict"): 6,
        ("scripted", "engine ERROR DroppedToolCall"): 1,
    }


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
