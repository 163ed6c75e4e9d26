"""Recovery of structured content from noisy generator output.

Three parsers live here: JSON extraction for orchestrator turns, which parses one
ordered stream of candidate texts (see `extract_json`), schema mapping of routing documents
with the routing rules they are checked against, and token scanning for specialist verdicts.
All functions are pure.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from .domain import RedFlag, UnknownAgentName, Vignette, parse_red_flag, verdict_record
from .encoding import parse_json


class NoJsonFound(ValueError):
    """No extraction strategy yielded a parseable JSON document."""


class SchemaUnusable(ValueError):
    """A document was recovered but has no interpretable 'next' member."""


class Strategy(enum.Enum):
    STRICT = "STRICT"
    FENCED_BLOCK = "FENCED_BLOCK"
    BRACE_SPAN = "BRACE_SPAN"
    REPAIRED = "REPAIRED"


@dataclass(frozen=True)
class RecoveryOutcome:
    value: Any
    strategy_used: Strategy


_FENCE_RE = re.compile(r"```[A-Za-z0-9_+-]*[ \t]*\r?\n?(.*?)```", re.DOTALL)


# The string rule, for a quote `q`: a backslash escapes the next character, and a string
# never closed runs to the end of the text. The group `inside` holds what the quotes enclose.
_STRING = r"{q}(?P<{inside}>(?:[^{q}\\]|\\.?)*){q}?"
_DOUBLE = _STRING.format(q='"', inside="double")
_SINGLE = _STRING.format(q="'", inside="single")
_BRACE_TOKENS = re.compile(rf"{_DOUBLE}|[{{}}]", re.DOTALL)


_REPAIRS = re.compile(
    rf"""{_DOUBLE}             # a double-quoted string: kept
    | {_SINGLE}                # a single-quoted string: re-quoted
    | (?:\#|//)[^\n]*          # a line comment: dropped, its newline kept
    | ,(?=[ \t\r\n]*[\]}}])    # a comma that closes a container: dropped
    """,
    re.DOTALL | re.VERBOSE,
)
# Between double quotes, \' needs no escape and " needs one; any other escape is kept.
_REQUOTE = re.compile(r'\\.?|"', re.DOTALL)
_REQUOTED = {"\\'": "'", '"': '\\"'}


def _repair(token: re.Match) -> str:
    """What one `_REPAIRS` token becomes."""
    if token["single"] is not None:
        return '"' + _REQUOTE.sub(lambda t: _REQUOTED.get(t[0], t[0]), token["single"]) + '"'
    return token[0] if token["double"] is not None else ""


def repair_json_text(text: str) -> str:
    """Apply the bounded repair set: trailing commas, single-quoted strings, line comments.

    Nothing more aggressive is attempted; repair must never invent content.
    """
    return _REPAIRS.sub(_repair, text)


def _brace_spans(raw: str) -> list[tuple[int, int]]:
    """The (start, end) of each balanced `{...}` span of raw, in the order of its `{`.

    Every `{` starts a span, one inside a string too, tokenized from that `{`: braces in
    double-quoted strings are not counted, and a string never closed runs to the end. One
    pass from the last `{` back to the first measures them all: a scan that meets a later
    `{` jumps to the end of its span, or stops if it never closes, so time stays linear.
    """
    ends: dict[int, Optional[int]] = {}
    start = raw.rfind("{")
    while start != -1:
        pos: Optional[int] = start + 1
        while pos is not None and (token := _BRACE_TOKENS.search(raw, pos)) and token[0] != "}":
            pos = ends[token.start()] if token[0] == "{" else token.end()
        ends[start] = token.end() if token and token[0] == "}" else None
        start = raw.rfind("{", 0, start)
    return [(start, end) for start, end in reversed(ends.items()) if end is not None]


def _candidates(raw: str) -> Iterator[tuple[Strategy, str]]:
    """The texts extract_json parses, in order; spans are measured only once reached."""
    yield Strategy.STRICT, raw.strip()
    for fence in _FENCE_RE.finditer(raw):
        yield Strategy.FENCED_BLOCK, fence.group(1).strip()
    spans = _brace_spans(raw)
    for start, end in spans:
        yield Strategy.BRACE_SPAN, raw[start:end]
    for start, end in spans:
        yield Strategy.REPAIRED, repair_json_text(raw[start:end])


def extract_json(raw: str) -> RecoveryOutcome:
    """Return the first candidate of raw that parses, least-invasive strategy first.

    Candidates, in order: the trimmed input (STRICT), each fenced code block (FENCED_BLOCK),
    each balanced brace span as `_brace_spans` defines it (BRACE_SPAN), then each span after
    the bounded repair set (REPAIRED). Measuring the spans is linear in unmatched braces,
    but each nested span is still sliced, parsed and maybe repaired, so a reply nesting `{`
    d deep costs O(length × d), bounded by `gateway.MAX_TOKENS` for HttpBackend replies only:
    a scripted one has no bound (ROADMAP item 15). Raises NoJsonFound when nothing parses.
    """
    for strategy, text in _candidates(raw):
        try:
            return RecoveryOutcome(parse_json(text), strategy)
        except json.JSONDecodeError:
            continue
    raise NoJsonFound(f"no parseable JSON in {len(raw)} chars of output")


def _listed(value: Any, key: str, warnings: list[str]) -> Any:
    """`value` of member `key`, a bare string wrapped in a list with a warning."""
    if isinstance(value, str):
        warnings.append(f"CoercedScalar{key.title()}: {key!r} was a bare string {value!r}")
        return [value]
    return value


def _strings(items: list, key: str, noun: str, warnings: list[str]) -> Iterator[str]:
    """The string items of member `key`, in order; any other item is dropped with a
    warning as it is reached."""
    for item in items:
        if isinstance(item, str):
            yield item
        else:
            warnings.append(f"NonString{key.title()}: dropped non-string {noun} {item!r}")


def parse_routing(raw: str, note: Vignette) -> dict[str, Any]:
    """Recover the routing record from raw orchestrator output: `next` (wire names, in
    the order given, duplicates dropped), `why`, `evidence` and `warnings`.

    Tolerates a bare-string 'next' or 'evidence', non-string items, unknown agent names,
    duplicates, and missing 'why'/'evidence', each downgraded to a warning, then adds
    validate_routing's warnings. Raises NoJsonFound or SchemaUnusable when no usable
    document exists.
    """
    doc = extract_json(raw).value
    if not isinstance(doc, dict) or "next" not in doc:
        raise SchemaUnusable("document has no 'next' member")

    warnings: list[str] = []
    names = _listed(doc["next"], "next", warnings)
    if not isinstance(names, list):
        raise SchemaUnusable(f"'next' is not an array or string: {type(names).__name__}")
    targets: list[str] = []
    for name in _strings(names, "next", "entry", warnings):
        try:
            target = parse_red_flag(name).value
        except UnknownAgentName:
            warnings.append(f"UnknownAgentName: dropped routing target {name!r}")
            continue
        if target in targets:
            warnings.append(f"DuplicateAgent: {target!r} named more than once")
        else:
            targets.append(target)

    why = doc.get("why")
    if not isinstance(why, str):
        warnings.append("MissingWhy: no usable 'why' member, defaulted to empty")
        why = ""
    quotes = _listed(doc.get("evidence"), "evidence", warnings)
    if isinstance(quotes, list):
        evidence = list(_strings(quotes, "evidence", "quote", warnings))
    else:
        warnings.append("MissingEvidence: no usable 'evidence' member, defaulted to empty")
        evidence = []

    routing = {"next": targets, "why": why, "evidence": evidence, "warnings": warnings}
    warnings.extend(validate_routing(routing, note))
    return routing


WHY_WORD_LIMIT = 30


def validate_routing(routing: dict[str, Any], note: Vignette) -> list[str]:
    """Check a routing record's `next`, `why` and `evidence` against the orchestrator's
    output rules; every evidence quote must appear in the note verbatim, and a blank
    quote quotes nothing.

    Violations are warnings, never hard failures: lightweight models deviate from
    the rules and the engine must stay robust to that.
    """
    warnings = []
    n_words = len(routing["why"].split())
    if n_words > WHY_WORD_LIMIT:
        warnings.append(f"WhyTooLong: 'why' has {n_words} words (limit {WHY_WORD_LIMIT})")
    if routing["next"] and not routing["evidence"]:
        warnings.append("EvidenceMissing: agents routed but evidence list is empty")
    for quote in routing["evidence"]:
        if not quote.strip() or quote not in note.text:
            warnings.append(f"EvidenceNotInNote: {quote!r} is not a quote from the note")
    return warnings


_TOKEN_RE = re.compile(r"\b(yes|no)\b", re.IGNORECASE)
_QUOTED_RE = re.compile(r'"([^"]+)"')
_LEADING_PUNCT = " \t\r\n.,:;!—–-"


def _verdict(word: str, rationale: str, raw: str) -> dict[str, Any]:
    """The verdict record a YES/NO word decides, with the rationale's double-quoted spans
    as its evidence."""
    decision = "YES" if word.casefold() == "yes" else "NO"
    return verdict_record(decision, rationale, _QUOTED_RE.findall(rationale), raw)


def parse_verdict(raw: str) -> dict[str, Any]:
    """Turn raw specialist output into its verdict record (`domain.verdict_record`), the
    payload its AGENT_DONE or AGENT_ERROR keeps. Total: never raises.

    The first standalone YES/NO token wins; the remainder is the rationale and
    double-quoted substrings within it become the evidence list. No token means
    an ERROR verdict.
    """
    m = _TOKEN_RE.search(raw)
    if m is None:
        return verdict_record("ERROR", raw=raw, error_detail="no YES/NO token")
    rationale = raw[m.end():].lstrip(_LEADING_PUNCT).rstrip()
    return _verdict(m.group(1), rationale, raw)


_BASELINE_LINE_RE = re.compile(
    r"^[^A-Za-z_]*([A-Za-z_]+)\s*:\s*(yes|no)\b[\s.,:;!—–-]*(.*)$", re.IGNORECASE
)


def parse_baseline(raw: str) -> dict[RedFlag, dict[str, Any]]:
    """Parse the single-LLM response, one `<wire_name>: YES|NO` line per flag, into a
    verdict record per flag.

    Flags with no parseable line become ERROR verdicts so that every baseline
    run still yields exactly seven verdicts.
    """
    verdicts: dict[RedFlag, dict[str, Any]] = {}
    for line in raw.splitlines():
        m = _BASELINE_LINE_RE.match(line)
        if m is None:
            continue
        try:
            flag = parse_red_flag(m.group(1))
        except UnknownAgentName:
            continue
        if flag in verdicts:
            continue
        verdicts[flag] = _verdict(m.group(2), m.group(3).strip(), line)
    for flag in RedFlag:
        if flag not in verdicts:
            verdicts[flag] = verdict_record("ERROR", raw=raw,
                                            error_detail="missing or unparseable line")
    return verdicts
