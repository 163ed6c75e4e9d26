import re
import shutil
from importlib import resources

import pytest

from redflagcds.domain import RedFlag, Vignette
from redflagcds.prompts import (
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

    @pytest.mark.parametrize("flag", list(RedFlag))
    def test_gprompt_criteria_match_specialist_gprompt(self, flag):
        root = resources.files("redflagcds") / "prompt_templates"
        specialist = (root / flag.value / "gprompt.txt").read_text(encoding="utf-8")
        baseline = (root / "baseline" / "gprompt.txt").read_text(encoding="utf-8")
        section = baseline.split(f"### {flag.value}\n", 1)[1].split("\n\n", 1)[0]
        for prefix in ("Definition:", "Answer YES if"):
            (line,) = [l for l in specialist.splitlines() if l.startswith(prefix)]
            assert line in section.splitlines(), (flag.value, prefix)

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

    def test_placeholder_count_linted(self, tmp_path):
        dst = self._copy_default(tmp_path)
        target = dst / "meningismus" / "qprompt.txt"
        target.write_text(target.read_text() + "\n{{VIGNETTE}}\n", encoding="utf-8")
        with pytest.raises(TemplateInvalid, match="placeholder"):
            PromptLibrary.load(dst)

    def test_gprompt_must_contain_definition(self, tmp_path):
        dst = self._copy_default(tmp_path)
        target = dst / "papilledema" / "gprompt.txt"
        body = target.read_text(encoding="utf-8").replace("Definition", "Meaning")
        target.write_text(body, encoding="utf-8")
        with pytest.raises(TemplateInvalid, match="Definition"):
            PromptLibrary.load(dst)

    def test_custom_directory_overrides_defaults(self, tmp_path, vignette):
        dst = self._copy_default(tmp_path)
        target = dst / "thunderclap" / "qprompt.txt"
        target.write_text("Custom question?\n\n{{VIGNETTE}}\n", encoding="utf-8")
        lib = PromptLibrary.load(dst)
        rendered = lib.specialist_prompt(RedFlag.THUNDERCLAP, PromptStrategy.QPROMPT, vignette)
        assert rendered.startswith("Custom question?")
