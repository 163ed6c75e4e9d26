"""The per-case trace file: its name, its JSONL encoding, the one fold of its events
(`summarize`), and the shape `replay --verify` checks."""

from __future__ import annotations

import json
import logging
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from .domain import FanoutMode, RedFlag, Stage, TraceEvent, UnknownAgentName, parse_red_flag
from .encoding import BadRecord, read_jsonl

logger = logging.getLogger(__name__)


_UNSAFE_ID = re.compile(r"[\\/]")
_SUFFIX = ".trace.jsonl"
_NAME_MAX = 255  # bytes in a file name on Linux file systems (NAME_MAX)
# One encoder for every event: json.dumps with a non-default option builds a new one per call.
_to_json = json.JSONEncoder(ensure_ascii=False).encode


def trace_stem(case_id: str) -> str:
    """A case's trace file name without `.trace.jsonl`: path separators become underscores."""
    return _UNSAFE_ID.sub("_", case_id)


def trace_name_problem(case_id: str) -> Optional[str]:
    """Why the case id cannot name its trace file, or None if it can: the id is empty or
    blank, holds a NUL, has no file-system encoding, or makes a name over 255 bytes."""
    if not case_id.strip():
        return "id is empty"
    if "\0" in case_id:
        return "id holds a NUL character"
    try:
        name = os.fsencode(trace_stem(case_id) + _SUFFIX)
    except UnicodeEncodeError:
        return "id cannot be encoded as a file name"
    return "id is too long for a trace file name" if len(name) > _NAME_MAX else None


def write_trace(case_id: str, trace: Iterable[TraceEvent], directory) -> Path:
    """Write one case's trace as line-delimited JSON; overwrites any previous file. A lone
    surrogate, which only a JSON string can hold, is written as its `\\uXXXX` escape."""
    directory = Path(directory)
    stem = trace_stem(case_id)
    if stem != case_id:
        logger.warning("case id %r sanitized to %r for the trace filename", case_id, stem)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / (stem + _SUFFIX)
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
    routed_starts: int = 0  # how many of `started` came before the FANOUT
    decided_before_fanout: frozenset = frozenset()  # the flags with a verdict before the FANOUT

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
            summary.fanout, summary.routed_starts = event.payload, len(summary.started)
            summary.decided_before_fanout = frozenset(summary.verdicts)
    return summary


def _names(flags) -> str:
    return ", ".join(sorted(flag.value if flag else "-" for flag in flags)) or "none"


def _flags(names) -> Optional[set[RedFlag]]:
    """The red flags a payload's list names, or None unless it is a list of distinct names."""
    if not isinstance(names, list):
        return None
    try:
        flags = {parse_red_flag(name) for name in names}
    except UnknownAgentName:
        return None
    return flags if len(flags) == len(names) else None


_MODES = [mode.value for mode in FanoutMode]


def fanout_targets(mode: FanoutMode, routed) -> set[RedFlag]:
    """The flags a case-run's fan-out must leave with a verdict: the routed flags under
    ROUTED, all seven under EXHAUSTIVE. Fan-out runs those of them without one."""
    return set(RedFlag) if mode is FanoutMode.EXHAUSTIVE else set(routed)


def _routing_problems(summary: Summary) -> list[str]:
    """Check a multi-agent trace's ROUTING and FANOUT against the flags it started and
    decided: the flags started before FANOUT are ROUTING's `next`, each once; the flags
    started at all are `next` and FANOUT's `missing`; `missing` is `fanout_targets` of
    the mode and `next`, less the flags with a verdict before the FANOUT; and a ROUTING with `fallback` routes all seven."""
    routing, fanout = summary.routing, summary.fanout
    routed, missing = _flags(routing.get("next")), _flags(fanout.get("missing"))
    mode = fanout.get("mode")
    problems = []
    if routed is None:
        problems.append(f"ROUTING next is not a list of distinct red flags: "
                        f"{routing.get('next')!r}")
    if missing is None:
        problems.append(f"FANOUT missing is not a list of distinct red flags: "
                        f"{fanout.get('missing')!r}")
    if mode not in _MODES:
        problems.append(f"FANOUT mode is not one of {_MODES}: {mode!r}")
    if problems:
        return problems
    before = summary.started[:summary.routed_starts]
    if len(before) != len(routed) or set(before) != routed:
        problems.append(f"the flags started before FANOUT are not ROUTING's next, each once: "
                        f"started {_names(before)}; next {_names(routed)}")
    if set(summary.started) != routed | missing:
        problems.append(f"the flags started are not ROUTING's next and FANOUT's missing: "
                        f"started {_names(set(summary.started))}; "
                        f"next and missing {_names(routed | missing)}")
    targets = fanout_targets(FanoutMode(mode), routed)
    if missing != targets - summary.decided_before_fanout:
        problems.append(f"FANOUT missing is not what {mode} fan-out leaves: missing "
                        f"{_names(missing)}; targets without a verdict before FANOUT "
                        f"{_names(targets - summary.decided_before_fanout)}")
    if routing.get("fallback") and routed != set(RedFlag):
        problems.append(f"a ROUTING with fallback routes {_names(routed)}, not all seven red flags")
    return problems


def verify_trace(events: list[TraceEvent]) -> list[str]:
    """Check a trace's shape and event order, and what its `summarize` fold records;
    returns the violations.

    Sequence numbers strictly increase, and the only AGGREGATE is the last event.
    A trace with no ROUTING, FANOUT or AGENT_START is a single-LLM trace and
    needs one AGENT_DONE or AGENT_ERROR per red flag. Any other trace is a
    multi-agent trace. It needs exactly one ROUTING, before any AGENT_START, and
    exactly one FANOUT, after the ROUTING. Each started flag ends with exactly
    one AGENT_DONE or AGENT_ERROR, and a flag never started has none. A start
    left without a verdict (a dropped call) is closed by a WARNING on that flag
    before the flag is started again. ROUTING and FANOUT agree with the flags
    started (`_routing_problems`). In both shapes an AGENT_DONE decides YES or NO
    with no error_detail, an AGENT_ERROR decides ERROR with one, and the
    AGGREGATE's `predicted` and `verdict_count` are what the verdicts by flag add
    up to.
    """
    if not events:  # what a failed case-run leaves
        return ["the trace has no events"]
    summary = summarize(events)
    counts = dict.fromkeys(Stage, 0)
    verdicts: Counter = Counter()  # flag -> its AGENT_DONE and AGENT_ERROR events
    awaiting = set()  # flags started and not yet closed by a verdict or WARNING
    found = []  # the problems seen event by event
    ordered = True
    previous = float("-inf")
    for event in events:
        stage, flag = event.stage, event.subject
        if event.sequence <= previous:
            ordered = False
        previous = event.sequence
        counts[stage] += 1
        if stage is Stage.AGENT_START:
            if not counts[Stage.ROUTING]:
                found.append(f"AGENT_START of {_names([flag])} before ROUTING")
            if flag in awaiting:
                found.append(f"{_names([flag])} started again with its last start unclosed")
            awaiting.add(flag)
        elif stage in _VERDICT_SHAPES:
            verdicts[flag] += 1
            awaiting.discard(flag)
            decision, detail = event.payload.get("decision"), event.payload.get("error_detail")
            if (decision, detail is not None) not in _VERDICT_SHAPES[stage]:
                found.append(f"{stage.value} of {_names([flag])} has decision {decision!r} "
                             f"and error_detail {detail!r}")
        elif stage is Stage.AGGREGATE:
            aggregate = event.payload
        elif stage is Stage.WARNING:
            awaiting.discard(flag)
        elif stage is Stage.FANOUT and not counts[Stage.ROUTING]:
            found.append("FANOUT before ROUTING")
    problems = [] if ordered else ["sequence numbers are not strictly increasing"]
    problems += found
    if counts[Stage.ROUTING] or counts[Stage.FANOUT] or counts[Stage.AGENT_START]:
        for stage in (Stage.ROUTING, Stage.FANOUT):
            if counts[stage] != 1:
                problems.append(f"expected exactly one {stage.value} event, found {counts[stage]}")
        if counts[Stage.ROUTING] == counts[Stage.FANOUT] == 1:
            problems += _routing_problems(summary)
        started = set(summary.started)
        never_started = verdicts.keys() - started
        if never_started:
            problems.append(f"verdict for a flag never started: {_names(never_started)}")
        unclosed = [flag for flag in started if verdicts[flag] != 1 or flag in awaiting]
        if unclosed:
            problems.append(
                f"expected each started flag to end with exactly one AGENT_DONE or AGENT_ERROR: "
                f"{_names(unclosed)}"
            )
    elif sum(verdicts.values()) != len(RedFlag) or verdicts.keys() != set(RedFlag):
        problems.append(
            "expected one AGENT_DONE or AGENT_ERROR per red flag in a single-LLM trace, "
            f"found {sum(verdicts.values())} for {len(verdicts)} subjects"
        )
    if counts[Stage.AGGREGATE] != 1:
        problems.append(f"expected exactly one AGGREGATE event, found {counts[Stage.AGGREGATE]}")
    else:
        if events[-1].stage is not Stage.AGGREGATE:
            problems.append("AGGREGATE is not the last event")
        for key, want in (("predicted", sorted(flag.value for flag in summary.predicted)),
                          ("verdict_count", len(summary.verdicts))):
            if aggregate.get(key) != want:
                problems.append(f"AGGREGATE {key} is {aggregate.get(key)!r}, "
                                f"but the AGENT_DONE and AGENT_ERROR events give {want!r}")
    return problems
