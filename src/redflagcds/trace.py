"""The per-case trace file: its name, its JSONL encoding, and the shape `replay --verify` checks."""

from __future__ import annotations

import json
import logging
import os
import re
from collections import Counter
from pathlib import Path
from typing import Iterable, Optional

from .domain import RedFlag, Stage, TraceEvent
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


def _names(flags) -> str:
    return ", ".join(sorted(flag.value if flag else "-" for flag in flags))


def verify_trace(events: list[TraceEvent]) -> list[str]:
    """Check a trace's shape and event order in one pass over its events; returns the
    violations.

    Sequence numbers strictly increase, and the only AGGREGATE is the last event.
    A trace with no ROUTING, FANOUT or AGENT_START is a single-LLM trace and
    needs one AGENT_DONE or AGENT_ERROR per red flag. Any other trace is a
    multi-agent trace. It needs exactly one ROUTING, before any AGENT_START, and
    exactly one FANOUT, after the ROUTING. Each started flag ends with exactly
    one AGENT_DONE or AGENT_ERROR, and a flag never started has none. A start
    left without a verdict (a dropped call) is closed by a WARNING on that flag
    before the flag is started again. In both shapes an AGENT_DONE decides YES
    or NO with no error_detail, an AGENT_ERROR decides ERROR with one, and the
    AGGREGATE's `predicted` and `verdict_count` are what those events add up to.
    """
    counts = dict.fromkeys(Stage, 0)
    verdicts: Counter = Counter()  # flag -> its AGENT_DONE and AGENT_ERROR events
    started, awaiting = set(), set()  # awaiting: started, not yet closed by a verdict or WARNING
    yes = []  # the values of the flags an AGENT_DONE decides YES
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
            started.add(flag)
            awaiting.add(flag)
        elif stage in _VERDICT_SHAPES:
            verdicts[flag] += 1
            awaiting.discard(flag)
            decision, detail = event.payload.get("decision"), event.payload.get("error_detail")
            if (decision, detail is not None) not in _VERDICT_SHAPES[stage]:
                found.append(f"{stage.value} of {_names([flag])} has decision {decision!r} "
                             f"and error_detail {detail!r}")
            elif decision == "YES" and flag:
                yes.append(flag.value)
        elif stage is Stage.AGGREGATE:
            summary = event.payload
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
        for field, want in (("predicted", sorted(yes)), ("verdict_count", sum(verdicts.values()))):
            if summary.get(field) != want:
                problems.append(f"AGGREGATE {field} is {summary.get(field)!r}, "
                                f"but the AGENT_DONE and AGENT_ERROR events give {want!r}")
    return problems
