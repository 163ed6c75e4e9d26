import re
import shutil
from importlib import resources

import pytest

from redflagcds.domain import RedFlag, Vignette
from redflagcds.prompts import (
    CRITERIA,
    CRITERIA_PREFIXES,
    PLACEHOLDER,
    TEMPLATE_PATHS,
    PromptLibrary,
    PromptStrategy,
    TemplateInvalid,
    TemplateMissing,
)

ALL_WIRE_NAMES = [f.value for f in RedFlag]


@pytest.fixture
def marker_vignette():
    return Vignette(id="m", text="UNIQUE-VIGNETTE-MARKER-88421")


class TestOrchestratorPrompt:
    def test_contains_format_block(self, prompts, vignette):
        rendered = prompts.orchestrator_prompt(vignette)
        assert '"next": ["agent1", "agent2"]' in rendered
        assert '"why": "brief reason"' in rendered
        assert '{"next": [], "why": "no criteria met", "evidence": []}' in rendered
        assert "≤30 words" in rendered
        assert "OUTPUT ONLY THE JSON OBJECT. START WITH { AND END WITH }. NO OTHER TEXT." in rendered

    def test_contains_all_seven_agent_names(self, prompts, vignette):
        rendered = prompts.orchestrator_prompt(vignette)
        for name in ALL_WIRE_NAMES:
            assert name in rendered

    def test_contains_vignette_once(self, prompts, marker_vignette):
        rendered = prompts.orchestrator_prompt(marker_vignette)
        assert rendered.count(marker_vignette.text) == 1


class TestSpecialistPrompts:
    def test_thunderclap_qprompt_question(self, prompts, vignette):
        rendered = prompts.specialist_prompt(
            RedFlag.THUNDERCLAP, PromptStrategy.QPROMPT, vignette
        )
        assert (
            "Does this patient have a thunderclap headache? Answer YES or NO and explain briefly."
            in rendered
        )

    def test_thunderclap_gprompt_definition_and_indicators(self, prompts, vignette):
        rendered = prompts.specialist_prompt(
            RedFlag.THUNDERCLAP, PromptStrategy.GPROMPT, vignette
        )
        assert (
            "Thunderclap headache is a sudden-onset severe headache that reaches "
            "maximal severity within one hour." in rendered
        )
        assert "TCH" in rendered

    def test_papilledema_qprompt(self, prompts, vignette):
        rendered = prompts.specialist_prompt(
            RedFlag.PAPILLEDEMA, PromptStrategy.QPROMPT, vignette
        )
        assert "papilledema" in rendered
        assert "Answer YES or NO" in rendered

    def test_first_worst_gprompt_encodes_age_condition(self, prompts, vignette):
        rendered = prompts.specialist_prompt(
            RedFlag.FIRST_WORST_HEADACHE, PromptStrategy.GPROMPT, vignette
        )
        assert "40 years old or older" in rendered

    @pytest.mark.parametrize("flag", list(RedFlag))
    def test_gprompt_longer_and_has_definition(self, prompts, vignette, flag):
        q = prompts.specialist_prompt(flag, PromptStrategy.QPROMPT, vignette)
        g = prompts.specialist_prompt(flag, PromptStrategy.GPROMPT, vignette)
        assert len(g) > len(q)
        assert "Definition" in g

    @pytest.mark.parametrize("flag", list(RedFlag))
    @pytest.mark.parametrize("strategy", list(PromptStrategy))
    def test_vignette_injected_exactly_once(self, prompts, marker_vignette, flag, strategy):
        rendered = prompts.specialist_prompt(flag, strategy, marker_vignette)
        assert rendered.count(marker_vignette.text) == 1
        assert PLACEHOLDER not in rendered


class TestBaselinePrompts:
    def test_qprompt_enumerates_wire_names_exactly_once(self, prompts, vignette):
        rendered = prompts.baseline_prompt(PromptStrategy.QPROMPT, vignette)
        for name in ALL_WIRE_NAMES:
            assert rendered.count(name) == 1, name

    def test_gprompt_contains_thunderclap_definition(self, prompts, vignette):
        rendered = prompts.baseline_prompt(PromptStrategy.GPROMPT, vignette)
        assert (
            "Thunderclap headache is a sudden-onset severe headache that reaches "
            "maximal severity within one hour." in rendered
        )

    def test_gprompt_has_seven_criteria_blocks(self, prompts, vignette):
        rendered = prompts.baseline_prompt(PromptStrategy.GPROMPT, vignette)
        assert rendered.count("Definition:") == 7

    def test_gprompt_template_holds_no_criteria_of_its_own(self):
        root = resources.files("redflagcds") / "prompt_templates"
        baseline = (root / "baseline" / "gprompt.txt").read_text(encoding="utf-8")
        assert baseline.count(CRITERIA) == 1
        assert not [line for line in baseline.splitlines() if line.startswith(CRITERIA_PREFIXES)]

    def test_gprompt_criteria_are_each_specialist_gprompts_in_flag_order(self, prompts, vignette):
        rendered = prompts.baseline_prompt(PromptStrategy.GPROMPT, vignette)
        blocks = []
        for flag in RedFlag:
            specialist = prompts.specialist_prompt(flag, PromptStrategy.GPROMPT, vignette)
            lines = [line for prefix in CRITERIA_PREFIXES
                     for line in specialist.splitlines() if line.startswith(prefix)]
            assert len(lines) == 2
            blocks.append("\n".join([f"### {flag.value}", *lines]))
        assert "Criteria:\n\n" + "\n\n".join(blocks) + "\n\nRely explicitly" in rendered

    def test_a_vignette_holding_placeholders_is_sent_verbatim(self, prompts):
        text = "Note with {{CRITERIA}} and {{VIGNETTE}} typed into it."
        rendered = prompts.baseline_prompt(PromptStrategy.GPROMPT, Vignette(id="v", text=text))
        assert rendered.endswith("Patient note:\n" + text + "\n")
        assert rendered.count("### thunderclap") == 1
        assert rendered.count(CRITERIA) == rendered.count(PLACEHOLDER) == 1

    @pytest.mark.parametrize("strategy", list(PromptStrategy))
    def test_fixed_answer_format_present(self, prompts, vignette, strategy):
        rendered = prompts.baseline_prompt(strategy, vignette)
        assert "<red_flag_name>: YES|NO" in rendered


class TestLibraryLoading:
    def test_default_library_loads(self):
        PromptLibrary.default()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TemplateMissing):
            PromptLibrary.load(tmp_path)

    @pytest.mark.parametrize("missing", TEMPLATE_PATHS)
    def test_a_set_without_a_template_cannot_be_built(self, missing):
        templates = {rel: PLACEHOLDER for rel in TEMPLATE_PATHS if rel != missing}
        with pytest.raises(TemplateMissing, match=f"^{re.escape(missing)}$"):
            PromptLibrary(templates)

    def _copy_default(self, tmp_path):
        src = resources.files("redflagcds") / "prompt_templates"
        dst = tmp_path / "prompt_templates"
        shutil.copytree(str(src), dst)
        return dst

    def test_a_definition_edited_once_reaches_both_architectures(self, tmp_path, vignette):
        dst = self._copy_default(tmp_path)
        target = dst / "meningismus" / "gprompt.txt"
        body = target.read_text(encoding="utf-8")
        (old,) = [line for line in body.splitlines() if line.startswith("Definition:")]
        new = "Definition: Meningismus is neck stiffness with pain on flexion."
        target.write_text(body.replace(old, new), encoding="utf-8")
        lib = PromptLibrary.load(dst)
        specialist = lib.specialist_prompt(RedFlag.MENINGISMUS, PromptStrategy.GPROMPT, vignette)
        baseline = lib.baseline_prompt(PromptStrategy.GPROMPT, vignette)
        for rendered in (specialist, baseline):
            assert new in rendered.splitlines()
            assert old not in rendered
        assert f"### meningismus\n{new}\nAnswer YES if" in baseline

    @pytest.mark.parametrize("rel, edit, named, problem", [
        ("meningismus/qprompt.txt", lambda b: b + "\n{{VIGNETTE}}\n",
         "meningismus/qprompt.txt", "2 vignette placeholders"),
        ("baseline/gprompt.txt", lambda b: b.replace(CRITERIA, ""),
         "baseline/gprompt.txt", "0 criteria placeholders"),
        ("baseline/gprompt.txt", lambda b: b.replace(CRITERIA, CRITERIA * 2),
         "baseline/gprompt.txt", "2 criteria placeholders"),
        ("papilledema/gprompt.txt", lambda b: b.replace("Definition", "Meaning"),
         "papilledema/gprompt.txt", "0 lines starting 'Definition:'"),
        ("papilledema/gprompt.txt", lambda b: b + "Definition: a second one.\n",
         "papilledema/gprompt.txt", "2 lines starting 'Definition:'"),
        ("focal_deficits/gprompt.txt", lambda b: b.replace("\nAnswer YES if", "\nSay YES if"),
         "focal_deficits/gprompt.txt", "0 lines starting 'Answer YES if'"),
        ("focal_deficits/gprompt.txt", lambda b: b + "Answer YES if asked twice.\n",
         "focal_deficits/gprompt.txt", "2 lines starting 'Answer YES if'"),
        # the specialist still holds one placeholder; the baseline it fills in holds two
        ("thunderclap/gprompt.txt",
         lambda b: b.replace("\n{{VIGNETTE}}", "").replace("hour.", "hour. {{VIGNETTE}}", 1),
         "baseline/gprompt.txt", "2 vignette placeholders"),
    ], ids=["two-vignette-placeholders", "no-criteria-placeholder", "two-criteria-placeholders",
            "no-definition", "two-definitions", "no-answer-line", "two-answer-lines",
            "vignette-in-a-criterion"])
    def test_lint_names_the_file_and_the_problem(self, tmp_path, rel, edit, named, problem):
        dst = self._copy_default(tmp_path)
        target = dst / rel
        target.write_text(edit(target.read_text(encoding="utf-8")), encoding="utf-8")
        with pytest.raises(TemplateInvalid) as raised:
            PromptLibrary.load(dst)
        assert f"{dst / named}: {problem} (need exactly 1)" in str(raised.value)

    def test_custom_directory_overrides_defaults(self, tmp_path, vignette):
        dst = self._copy_default(tmp_path)
        target = dst / "thunderclap" / "qprompt.txt"
        target.write_text("Custom question?\n\n{{VIGNETTE}}\n", encoding="utf-8")
        lib = PromptLibrary.load(dst)
        rendered = lib.specialist_prompt(RedFlag.THUNDERCLAP, PromptStrategy.QPROMPT, vignette)
        assert rendered.startswith("Custom question?")
