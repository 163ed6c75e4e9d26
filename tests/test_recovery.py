import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from redflagcds.domain import Decision, RedFlag, RoutingDecision, Vignette
from redflagcds.encoding import parse_json
from redflagcds.recovery import (
    _BRACE_TOKENS,
    _FENCE_RE,
    NoJsonFound,
    RecoveryOutcome,
    SchemaUnusable,
    Strategy,
    extract_json,
    parse_baseline,
    parse_routing,
    parse_verdict,
    repair_json_text,
    validate_routing,
)
from tests.conftest import TABLE1_RAW, within


class TestExtractJson:
    def test_table1_console_output_is_strict(self):
        outcome = extract_json(TABLE1_RAW)
        assert outcome.strategy_used is Strategy.STRICT
        assert outcome.value["next"] == ["meningismus"]
        assert len(outcome.value["evidence"]) == 7
        assert "46 white cells (69% neutrophils)/μl" in outcome.value["evidence"]

    def test_fenced_block(self):
        raw = (
            "Sure! Here is the routing:\n```json\n"
            '{"next": [], "why": "no criteria met", "evidence": []}\n```\nHope this helps.'
        )
        outcome = extract_json(raw)
        assert outcome.strategy_used is Strategy.FENCED_BLOCK
        assert outcome.value == {"next": [], "why": "no criteria met", "evidence": []}

    def test_fence_without_language_tag(self):
        raw = 'prefix\n```\n{"next": ["thunderclap"]}\n```'
        outcome = extract_json(raw)
        assert outcome.strategy_used is Strategy.FENCED_BLOCK
        assert outcome.value == {"next": ["thunderclap"]}

    def test_an_empty_fenced_block_is_skipped(self):
        raw = 'Routing:\n```json\n```\nthen\n```json\n{"next": ["thunderclap"]}\n```'
        outcome = extract_json(raw)
        assert outcome.strategy_used is Strategy.FENCED_BLOCK
        assert outcome.value == {"next": ["thunderclap"]}

    def test_brace_span_in_prose(self):
        raw = 'The decision is {"next": ["papilledema"], "why": "x", "evidence": []} as stated.'
        outcome = extract_json(raw)
        assert outcome.strategy_used is Strategy.BRACE_SPAN
        assert outcome.value["next"] == ["papilledema"]

    def test_brace_inside_string_literal_ignored(self):
        raw = 'note {"next": ["meningismus"], "evidence": ["cells {69%} high"]} end'
        outcome = extract_json(raw)
        assert outcome.value["evidence"] == ["cells {69%} high"]

    def test_repair_trailing_comma(self):
        raw = 'answer: {"next": ["thunderclap",], "why": "x", "evidence": [],}'
        outcome = extract_json(raw)
        assert outcome.strategy_used is Strategy.REPAIRED
        assert outcome.value["next"] == ["thunderclap"]

    def test_repair_single_quotes(self):
        raw = "{'next': ['meningismus'], 'why': 'stiff neck', 'evidence': []}"
        outcome = extract_json(raw)
        assert outcome.strategy_used is Strategy.REPAIRED
        assert outcome.value["why"] == "stiff neck"

    @pytest.mark.parametrize("raw, why", [
        ("{'why': 'it\\'s', 'next': []}", "it's"),
        ("""{'why': 'say "hi"', 'next': []}""", 'say "hi"'),
        ('{"why": "x\\"y", "next": [],}', 'x"y'),
        ("{'why': 'a\\nb', 'next': []}", "a\nb"),
        ("{'why': 'back\\\\', 'next': []}", "back\\"),
        ("{'why': 'a # b', 'next': []}", "a # b"),
        ("{'why': 'a // b', 'next': [],}", "a // b"),
    ], ids=["escaped-single-quote", "double-quote-in-single", "escape-then-comma", "newline",
            "backslash-last-in-single", "hash-in-single", "slashes-in-single"])
    def test_repair_keeps_quotes_and_escapes(self, raw, why):
        outcome = extract_json(raw)
        assert outcome.strategy_used is Strategy.REPAIRED
        assert outcome.value == {"why": why, "next": []}

    def test_repair_line_comments(self):
        raw = '{"next": ["papilledema"], // routed agent\n "why": "x", "evidence": []}'
        outcome = extract_json(raw)
        assert outcome.strategy_used is Strategy.REPAIRED
        assert outcome.value["next"] == ["papilledema"]

    def test_no_brace_at_all(self):
        with pytest.raises(NoJsonFound):
            extract_json("no json here at all")

    def test_unbalanced_brace(self):
        with pytest.raises(NoJsonFound):
            extract_json('{"next": ["thunderclap"')

    @pytest.mark.parametrize("raw", [
        "[" * 100_000,
        "```json\n" + "[" * 100_000 + "\n```",
        '{"next": ' + "[" * 100_000 + "]" * 100_000 + "}",
    ], ids=["strict", "fenced", "brace-span"])
    def test_json_nested_too_deep_is_invalid_json(self, raw):
        with pytest.raises(NoJsonFound):
            extract_json(raw)

    def test_a_document_after_json_nested_too_deep_is_found(self):
        outcome = extract_json("[" * 100_000 + ' {"next": []}')
        assert outcome.strategy_used is Strategy.BRACE_SPAN
        assert outcome.value == {"next": []}

    def test_strict_span_covers_trimmed_input(self):
        raw = '  {"a": 1}  '
        outcome = extract_json(raw)
        assert outcome.strategy_used is Strategy.STRICT
        assert outcome.value == {"a": 1}

    def test_skips_unparseable_brace_then_finds_later_one(self):
        raw = '{not json} and then {"next": []}'
        outcome = extract_json(raw)
        assert outcome.strategy_used is Strategy.BRACE_SPAN
        assert outcome.value == {"next": []}

    def test_unclosed_string_gives_no_brace_span(self):
        with pytest.raises(NoJsonFound):
            extract_json('{"next": [], "why": "runs to the end}')

    def test_comma_before_a_comment_then_brace_stays(self):
        with pytest.raises(NoJsonFound):
            extract_json('{"next": [], // nothing routed\n}')

    def test_brace_inside_a_string_starts_its_own_span(self):
        raw = 'It wrote "{"next": ["thunderclap"]}" as its answer'
        outcome = extract_json(raw)
        assert outcome.strategy_used is Strategy.BRACE_SPAN
        assert outcome.value == {"next": ["thunderclap"]}

    @pytest.mark.parametrize("raw", ["x{" * 8192, '{"' * 8192], ids=["x-brace", "brace-quote"])
    def test_unmatched_braces_fail_in_linear_time(self, raw):
        # a scan from every `{` to the end of the reply takes seconds on these
        with pytest.raises(NoJsonFound):
            within(1.0, lambda: extract_json(raw))


json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(10**6), max_value=10**6),
        st.text(max_size=20),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=10,
)
json_objects = st.dictionaries(st.text(max_size=8), json_values, max_size=4)
prose = st.text(
    alphabet=st.characters(blacklist_characters="{}`\"'"), max_size=40
)


@given(doc=json_objects)
def test_strict_idempotence(doc):
    raw = json.dumps(doc)
    outcome = extract_json(raw)
    assert outcome.strategy_used is Strategy.STRICT
    assert outcome.value == json.loads(raw)


@given(doc=json_values, ensure_ascii=st.booleans(), indent=st.sampled_from([None, 2]))
def test_repair_leaves_strict_json_unchanged(doc, ensure_ascii, indent):
    raw = json.dumps(doc, ensure_ascii=ensure_ascii, indent=indent)
    assert repair_json_text(raw) == raw


@given(doc=json_objects, prefix=prose, suffix=prose)
def test_embedding_invariance(doc, prefix, suffix):
    raw = prefix + json.dumps(doc) + suffix
    assert extract_json(raw).value == doc


@given(doc=json_objects, prefix=prose, suffix=prose)
def test_fence_invariance(doc, prefix, suffix):
    raw = prefix + "\n```json\n" + json.dumps(doc) + "\n```\n" + suffix
    assert extract_json(raw).value == doc


def reference_span_end(text, start):
    """The index just past the `}` balancing text[start] == '{', or None, found by a scan
    to the end of the text from this `{` alone."""
    depth = 0
    for token in _BRACE_TOKENS.finditer(text, start):
        if token[0] == "{":
            depth += 1
        elif token[0] == "}":
            depth -= 1
            if depth == 0:
                return token.end()
    return None


def reference_extract_json(raw):
    """extract_json with one loop per tier and each brace span measured on its own."""
    stripped = raw.strip()
    if stripped:
        try:
            return RecoveryOutcome(parse_json(stripped), Strategy.STRICT)
        except json.JSONDecodeError:
            pass
    for m in _FENCE_RE.finditer(raw):
        inner = m.group(1).strip()
        if inner:
            try:
                return RecoveryOutcome(parse_json(inner), Strategy.FENCED_BLOCK)
            except json.JSONDecodeError:
                pass
    candidates = []
    pos = raw.find("{")
    while pos != -1:
        end = reference_span_end(raw, pos)
        if end is not None:
            try:
                return RecoveryOutcome(parse_json(raw[pos:end]), Strategy.BRACE_SPAN)
            except json.JSONDecodeError:
                candidates.append(raw[pos:end])
        pos = raw.find("{", pos + 1)
    for span in candidates:
        try:
            return RecoveryOutcome(parse_json(repair_json_text(span)), Strategy.REPAIRED)
        except json.JSONDecodeError:
            pass
    raise NoJsonFound


def outcome_of(extract, raw):
    try:
        outcome = extract(raw)
    except NoJsonFound:
        return None
    return outcome.strategy_used, repr(outcome.value)  # repr: NaN is not equal to itself


noisy_replies = st.lists(st.sampled_from([
    "{", "}", '"', "\\", "'", "#", "//", "[", "]", ":", ",", " ", "\n", "x",
    "```", "```json\n", "\n```", '{"a": 1}', '{"next": []}', '"{"', '\\"', "{}",
    "{'a': 'b'}", "'s'", "[1,]", '{"a": [1],}', "# c\n", "// c\n", "NaN",
]), max_size=24).map("".join)


@given(raw=noisy_replies)
def test_extract_json_agrees_with_the_reference(raw):
    assert outcome_of(extract_json, raw) == outcome_of(reference_extract_json, raw)


class TestParseRouting:
    def test_table1_example(self, vignette):
        decision, warnings = parse_routing(TABLE1_RAW, vignette)
        assert [f.value for f in decision.next] == ["meningismus"]
        assert decision.why.startswith("patient has meningismus")
        assert len(decision.evidence) == 7
        # the fixture note lacks the CSF findings Table 1 quotes
        assert warnings == [
            f"EvidenceNotInNote: {quote!r} is not a quote from the note"
            for quote in ("46 white cells (69% neutrophils)/μl", "low glucose", "high lactate")
        ]

    def test_scalar_next_coerced(self, vignette):
        raw = '{"next": "thunderclap", "why": "sudden onset", "evidence": []}'
        decision, warnings = parse_routing(raw, vignette)
        assert [f.value for f in decision.next] == ["thunderclap"]
        kinds = {w.split(":")[0] for w in warnings}
        assert kinds == {"CoercedScalarNext", "EvidenceMissing"}

    def test_no_next_member_is_unusable(self, vignette):
        with pytest.raises(SchemaUnusable):
            parse_routing('{"why": "x"}', vignette)

    def test_next_that_is_not_an_array_is_unusable(self, vignette):
        with pytest.raises(SchemaUnusable, match="'next' is not an array or string: int"):
            parse_routing('{"next": 5}', vignette)

    def test_non_string_targets_dropped_with_warning(self):
        note = Vignette(id="c", text="sudden onset of pain")
        raw = '{"next": ["thunderclap", 7], "why": "w", "evidence": "sudden onset"}'
        decision, warnings = parse_routing(raw, note)
        assert decision == RoutingDecision([RedFlag.THUNDERCLAP], "w", ["sudden onset"])
        assert warnings == ["NonStringNext: dropped non-string entry 7"]

    def test_unknown_names_dropped_with_warning(self, vignette):
        raw = '{"next": ["migraine", "papilledema"], "why": "x", "evidence": ["q"]}'
        decision, warnings = parse_routing(raw, vignette)
        assert [f.value for f in decision.next] == ["papilledema"]
        assert any(w.startswith("UnknownAgentName") for w in warnings)

    def test_duplicates_deduplicated_with_warning(self, vignette):
        raw = '{"next": ["meningismus", "meningismus"], "why": "x", "evidence": ["q"]}'
        decision, warnings = parse_routing(raw, vignette)
        assert [f.value for f in decision.next] == ["meningismus"]
        assert any(w.startswith("DuplicateAgent") for w in warnings)

    def test_missing_why_and_evidence_default_with_warnings(self, vignette):
        decision, warnings = parse_routing('{"next": []}', vignette)
        assert decision.why == ""
        assert decision.evidence == ()
        kinds = {w.split(":")[0] for w in warnings}
        assert {"MissingWhy", "MissingEvidence"} <= kinds

    def test_no_json_propagates(self, vignette):
        with pytest.raises(NoJsonFound):
            parse_routing("nothing to see", vignette)


class TestValidateRouting:
    def test_twelve_word_why_passes(self, vignette):
        why = "patient has meningismus with stiff neck and signs of meningeal irritation"
        d = RoutingDecision(next=[RedFlag.MENINGISMUS], why=why, evidence=["stiff neck"])
        assert validate_routing(d, vignette) == []

    def test_thirty_one_words_warns(self, vignette):
        d = RoutingDecision(next=[], why="word " * 31, evidence=[])
        warnings = validate_routing(d, vignette)
        assert len(warnings) == 1
        assert warnings[0].startswith("WhyTooLong")

    def test_thirty_words_is_the_boundary(self, vignette):
        d = RoutingDecision(next=[], why="word " * 30, evidence=[])
        assert validate_routing(d, vignette) == []

    def test_missing_evidence_with_targets_warns(self, vignette):
        d = RoutingDecision(next=[RedFlag.PAPILLEDEMA], why="x", evidence=[])
        warnings = validate_routing(d, vignette)
        assert any(w.startswith("EvidenceMissing") for w in warnings)

    def test_evidence_checked_against_the_note(self, vignette):
        d = RoutingDecision(
            next=[RedFlag.MENINGISMUS], why="x", evidence=["stiff neck", "not in note"]
        )
        warnings = validate_routing(d, vignette)
        assert any("not in note" in w for w in warnings)
        assert not any("stiff neck" in w for w in warnings)


class TestParseVerdict:
    def test_yes_with_rationale(self):
        raw = "YES. The headache reached maximal severity within one hour during exertion."
        v = parse_verdict(raw, RedFlag.THUNDERCLAP)
        assert v.decision is Decision.YES
        assert v.rationale == "The headache reached maximal severity within one hour during exertion."
        assert v.raw == raw

    def test_no_case_insensitive(self):
        v = parse_verdict("No — fundoscopy was normal.", RedFlag.PAPILLEDEMA)
        assert v.decision is Decision.NO
        assert v.rationale == "fundoscopy was normal."

    def test_no_token_yields_error(self):
        v = parse_verdict("The findings are equivocal.", RedFlag.MENINGISMUS)
        assert v.decision is Decision.ERROR
        assert v.error_detail == "no YES/NO token"

    def test_first_token_wins(self):
        raw = "Yes. Although one could argue no, the sudden onset is documented."
        assert parse_verdict(raw, RedFlag.THUNDERCLAP).decision is Decision.YES

    def test_token_must_stand_alone(self):
        v = parse_verdict("The eyes were normal; nothing notable.", RedFlag.PAPILLEDEMA)
        assert v.decision is Decision.ERROR

    def test_evidence_from_quoted_substrings(self):
        raw = 'YES. The note says "stiff neck" and "fever" explicitly.'
        v = parse_verdict(raw, RedFlag.MENINGISMUS)
        assert v.evidence == ("stiff neck", "fever")

    def test_empty_input(self):
        v = parse_verdict("", RedFlag.THUNDERCLAP)
        assert v.decision is Decision.ERROR


@given(raw=st.text(max_size=200))
def test_parse_verdict_is_total(raw):
    v = parse_verdict(raw, RedFlag.SYSTEMIC_ILLNESS)
    assert v.decision in (Decision.YES, Decision.NO, Decision.ERROR)
    assert v.raw == raw


class TestParseBaseline:
    SEVEN_LINES = "\n".join(
        [
            "thunderclap: NO — not documented",
            'meningismus: YES — "stiff neck" with fever',
            "papilledema: NO — normal fundoscopy",
            "temporal_arteritis: NO",
            "systemic_illness: YES — fever and weight loss",
            "focal_deficits: NO",
            "first_worst_headache: NO",
        ]
    )

    def test_seven_well_formed_lines(self):
        verdicts = parse_baseline(self.SEVEN_LINES)
        assert len(verdicts) == 7
        yes = {f.value for f, v in verdicts.items() if v.decision is Decision.YES}
        assert yes == {"meningismus", "systemic_illness"}
        assert verdicts[RedFlag.MENINGISMUS].evidence == ("stiff neck",)

    def test_missing_line_becomes_error(self):
        partial = "\n".join(
            line for line in self.SEVEN_LINES.splitlines() if not line.startswith("focal")
        )
        verdicts = parse_baseline(partial)
        assert verdicts[RedFlag.FOCAL_DEFICITS].decision is Decision.ERROR

    def test_empty_response_gives_seven_errors(self):
        verdicts = parse_baseline("")
        assert len(verdicts) == 7
        assert all(v.decision is Decision.ERROR for v in verdicts.values())

    def test_numbered_and_case_variant_lines(self):
        raw = "1. Thunderclap: yes — sudden onset\n2) meningismus: No"
        verdicts = parse_baseline(raw)
        assert verdicts[RedFlag.THUNDERCLAP].decision is Decision.YES
        assert verdicts[RedFlag.MENINGISMUS].decision is Decision.NO

    def test_unknown_flag_skipped_and_first_line_of_a_flag_kept(self):
        verdicts = parse_baseline("migraine: YES\nthunderclap: NO first\nthunderclap: YES second")
        assert len(verdicts) == 7
        thunderclap = verdicts[RedFlag.THUNDERCLAP]
        assert (thunderclap.decision, thunderclap.rationale) == (Decision.NO, "first")


class TestRepairJsonText:
    def test_preserves_content_inside_strings(self):
        raw = '{"a": "keep, this // and \'this\'"}'
        assert json.loads(repair_json_text(raw)) == {"a": "keep, this // and 'this'"}

    def test_removes_trailing_comma_before_newline_bracket(self):
        raw = '{"a": [1, 2,\n]}'
        assert json.loads(repair_json_text(raw)) == {"a": [1, 2]}

    def test_unclosed_double_quoted_string_copied_to_the_end(self):
        raw = '{"a": "b, ] // c \'d\''
        assert repair_json_text(raw) == raw

    def test_trailing_backslash_in_single_quotes(self):
        assert repair_json_text("{'a': 'b\\") == '{"a": "b\\"'

    def test_comment_markers_inside_single_quotes_kept(self):
        assert repair_json_text("['# x', '// y']") == '["# x", "// y"]'

    def test_comma_before_a_comment_stays(self):
        assert repair_json_text("[1, // two\n]") == "[1, \n]"
