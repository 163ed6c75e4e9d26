"""The per-case trace file: its name, its JSONL encoding, the one fold of its events
(`summarize`), and the shape `replay --verify` checks."""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from itertools import takewhile, zip_longest
from pathlib import Path
from typing import Iterable, Optional

from .domain import FanoutMode, RedFlag, Stage, TraceEvent, canonical_order
from .encoding import BadRecord, read_jsonl

_ESCAPED = re.compile(r"[%/\\\0]")  # the characters `trace_stem` writes as `%XX`
_SUFFIX = ".trace.jsonl"
_NAME_MAX = 255  # bytes in a file name on Linux file systems (NAME_MAX)
# One encoder for every event: json.dumps with a non-default option builds a new one per call.
_to_json = json.JSONEncoder(ensure_ascii=False).encode


def trace_stem(case_id: str) -> str:
    """A case's trace file name without `.trace.jsonl`: the id with `%`, `/`, `\\` and NUL
    written as `%25`, `%2F`, `%5C` and `%00`, so `urllib.parse.unquote` gives the id back
    and no two ids share a trace file."""
    return _ESCAPED.sub(lambda match: f"%{ord(match[0]):02X}", case_id)


def trace_name_problem(case_id: str) -> Optional[str]:
    """Why the case id cannot name its trace file, or None if it can: the id is empty or
    blank, has no file-system encoding, or makes a name over 255 bytes."""
    if not case_id.strip():
        return "id is empty"
    try:
        name = os.fsencode(trace_stem(case_id) + _SUFFIX)
    except UnicodeEncodeError:
        return "id cannot be encoded as a file name"
    return "id is too long for a trace file name" if len(name) > _NAME_MAX else None


def write_trace(case_id: str, trace: Iterable[TraceEvent], directory) -> Path:
    """Write one case's trace as line-delimited JSON; overwrites any previous file. A lone
    surrogate, which only a JSON string can hold, is written as its `\\uXXXX` escape."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / (trace_stem(case_id) + _SUFFIX)
    text = "".join(_to_json(event.to_json_dict()) + "\n" for event in trace)
    path.write_bytes(text.encode("utf-8", "backslashreplace"))
    return path


def untimed(event: dict) -> dict:
    """A trace event's JSON object without its `wall_time`: what two runs of the same
    case-run must agree on."""
    return {key: value for key, value in event.items() if key != "wall_time"}


def read_trace(path) -> list[TraceEvent]:
    """Parse a trace file back into events; an event that is not one is a BadRecord."""
    events = []
    for lineno, record in read_jsonl(path, required=("sequence", "stage")):
        try:
            events.append(TraceEvent.from_json_dict(record))
        except (TypeError, ValueError) as exc:  # a field of the wrong type or value
            raise BadRecord(lineno, f"malformed trace event: {exc}") from exc
    return events


_VERDICT_SHAPES = {  # stage -> the (decision, has an error_detail) pairs it may carry
    Stage.AGENT_DONE: (("YES", False), ("NO", False)),
    Stage.AGENT_ERROR: (("ERROR", True),),
}


@dataclass
class Summary:
    """What a case-run's trace records, as `summarize` folds it out of the events."""

    routing: Optional[dict] = None  # the ROUTING payload; None in a single-LLM trace
    fanout: Optional[dict] = None  # the FANOUT payload; None in a single-LLM trace
    verdicts: dict = field(default_factory=dict)  # flag -> its AGENT_DONE or AGENT_ERROR payload
    started: list = field(default_factory=list)  # the flag of each AGENT_START, in order

    @property
    def predicted(self) -> frozenset[RedFlag]:
        return frozenset(f for f, p in self.verdicts.items() if p.get("decision") == "YES")


def summarize(events: Iterable[TraceEvent]) -> Summary:
    """Fold a case-run's events into what they record: the AGGREGATE, `classify`'s JSON and
    `replay --verify` all read this one fold. A verdict with no subject is left out."""
    summary = Summary()
    for event in events:
        if event.stage is Stage.ROUTING:
            summary.routing = event.payload
        elif event.stage in _VERDICT_SHAPES and event.subject:
            summary.verdicts[event.subject] = event.payload
        elif event.stage is Stage.AGENT_START:
            summary.started.append(event.subject)
        elif event.stage is Stage.FANOUT:
            summary.fanout = event.payload
    return summary


def _names(flags) -> str:
    return ", ".join(sorted(flag.value if flag else "-" for flag in flags)) or "none"


def _flags(names) -> Optional[set[RedFlag]]:
    """The red flags a payload's list names, or None unless it is a list of distinct wire
    names, spelled exactly as the engine writes them."""
    if not isinstance(names, list):
        return None
    try:
        flags = {RedFlag(name) for name in names}
    except ValueError:
        return None
    return flags if len(flags) == len(names) else None


_MODES = [mode.value for mode in FanoutMode]


def fanout_targets(mode: FanoutMode, routed) -> set[RedFlag]:
    """The flags a case-run's fan-out must leave with a verdict: the routed flags under
    ROUTED, all seven under EXHAUSTIVE. Fan-out runs those of them without one."""
    return set(RedFlag) if mode is FanoutMode.EXHAUSTIVE else set(routed)


_VERDICT = "AGENT_DONE or AGENT_ERROR"  # where the engine writes one or the other
_ORDER_NAME = {stage: _VERDICT if stage in _VERDICT_SHAPES else stage.value for stage in Stage}


def _describe(stage: str, flag: Optional[RedFlag]) -> str:
    return f"{stage} of {flag.value}" if flag else stage


def _engine_order(events: list[TraceEvent], summary: Summary, problems: list[str]):
    """The (stage, subject) order the engine writes for a multi-agent trace's own ROUTING
    `next` and `fallback`, FANOUT `mode` and `missing`, and step-2 drops; appends to
    `problems` what is wrong with those, and returns None if they are absent or malformed."""
    routing, fanout = summary.routing, summary.fanout
    if routing is None or fanout is None:
        problems += [f"a multi-agent trace has no {stage.value} event"
                     for stage, payload in ((Stage.ROUTING, routing), (Stage.FANOUT, fanout))
                     if payload is None]
        return None
    routed, missing = _flags(routing.get("next")), _flags(fanout.get("missing"))
    mode = fanout.get("mode")
    if routed is None:
        problems.append(f"ROUTING next is not a list of distinct red flags: "
                        f"{routing.get('next')!r}")
    if missing is None:
        problems.append(f"FANOUT missing is not a list of distinct red flags: "
                        f"{fanout.get('missing')!r}")
    elif fanout["missing"] != [flag.value for flag in canonical_order(missing)]:
        problems.append(f"FANOUT missing is not in canonical order: {fanout['missing']!r}")
    if mode not in _MODES:
        problems.append(f"FANOUT mode is not one of {_MODES}: {mode!r}")
    if routed is None or missing is None or mode not in _MODES:
        return None
    step2 = takewhile(lambda event: event.stage is not Stage.FANOUT, events)
    dropped = routed & {event.subject for event in step2 if event.stage is Stage.WARNING}
    left = fanout_targets(FanoutMode(mode), routed) - (routed - dropped)
    if missing != left:
        problems.append(f"FANOUT missing is not what {mode} fan-out leaves: missing "
                        f"{_names(missing)}; targets without a verdict before FANOUT "
                        f"{_names(left)}")
    if routing.get("fallback") and routed != set(RedFlag):
        problems.append(f"a ROUTING with fallback routes {_names(routed)}, not all seven red flags")
    routed, missing = canonical_order(routed), canonical_order(missing)
    return [*[("WARNING", None)] * bool(routing.get("fallback")), ("ROUTING", None),
            *[("AGENT_START", flag) for flag in routed],
            *[("WARNING" if flag in dropped else _VERDICT, flag) for flag in routed],
            ("FANOUT", None), *[("AGENT_START", flag) for flag in missing],
            *[(_VERDICT, flag) for flag in missing], ("AGGREGATE", None)]


def verify_trace(events: list[TraceEvent]) -> list[str]:
    """Check that a trace is the event order the engine writes for the trace's own
    parameters, and what its `summarize` fold records; returns the violations.

    A trace with no ROUTING, FANOUT or AGENT_START is a single-LLM trace: one
    AGENT_DONE or AGENT_ERROR per red flag, then AGGREGATE. Any other trace is a
    multi-agent trace, whose order is built from its ROUTING's `next` and
    `fallback`, its FANOUT's `mode` and `missing`, and the routed flags with a
    WARNING before the FANOUT (their step-2 call dropped):

    1. with `fallback`, a WARNING with no subject, then ROUTING;
    2. one AGENT_START per routed flag, then per routed flag a WARNING if its
       call dropped, else its AGENT_DONE or AGENT_ERROR;
    3. FANOUT, one AGENT_START per flag in `missing`, then their verdicts;
    4. AGGREGATE.

    Every list of flags is in canonical order. The first event that differs from
    that order is reported, as `event N is X, where the engine writes Y`. Apart
    from the order: sequence numbers strictly increase; `next` and `missing` are
    lists of distinct wire names and `mode` is a fan-out mode, or the order is not
    built; `missing` is in canonical order, and is `fanout_targets` of the mode and
    `next`, less the routed flags not dropped; a ROUTING with `fallback` routes all
    seven; an AGENT_DONE decides YES or NO with no error_detail, and an AGENT_ERROR
    decides ERROR with one; and the AGGREGATE's `predicted` and `verdict_count` are
    what the verdicts by flag add up to.
    """
    if not events:  # what a failed case-run leaves
        return ["the trace has no events"]
    summary = summarize(events)
    problems = []
    if any(later.sequence <= event.sequence for event, later in zip(events, events[1:])):
        problems.append("sequence numbers are not strictly increasing")
    for event in events:
        if event.stage in _VERDICT_SHAPES:
            decision, detail = event.payload.get("decision"), event.payload.get("error_detail")
            if (decision, detail is not None) not in _VERDICT_SHAPES[event.stage]:
                problems.append(f"{event.stage.value} of {_names([event.subject])} has decision "
                                f"{decision!r} and error_detail {detail!r}")
    if summary.routing is None and summary.fanout is None and not summary.started:
        order = [*[(_VERDICT, flag) for flag in RedFlag], ("AGGREGATE", None)]
    else:
        order = _engine_order(events, summary, problems)
    have = [(_ORDER_NAME[event.stage], event.subject) for event in events]
    if order is not None and have != order:
        n = next(n for n, pair in enumerate(zip_longest(have, order)) if pair[0] != pair[1])
        found = (_describe(events[n].stage.value, events[n].subject) if n < len(events)
                 else "missing")
        problems.append(f"event {n + 1} is {found}, where the engine writes "
                        f"{_describe(*order[n]) if n < len(order) else 'nothing'}")
    if events[-1].stage is Stage.AGGREGATE:
        aggregate = events[-1].payload
        for key, want in (("predicted", sorted(flag.value for flag in summary.predicted)),
                          ("verdict_count", len(summary.verdicts))):
            if aggregate.get(key) != want:
                problems.append(f"AGGREGATE {key} is {aggregate.get(key)!r}, "
                                f"but the AGENT_DONE and AGENT_ERROR events give {want!r}")
    return problems
