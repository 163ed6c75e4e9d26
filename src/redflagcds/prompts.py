"""Prompt templates: orchestrator routing, 7x2 specialist prompts, 2 single-LLM baselines.

Templates are external text files so guideline criteria can be edited without
touching code. The packaged defaults live in prompt_templates/; any directory
with the same layout can be loaded instead. A flag's criteria, its `Definition:` and
`Answer YES if` lines, are written once, in `<flag>/gprompt.txt`; a library fills them
into the single-LLM GPrompt's `{{CRITERIA}}` placeholder when it is built.
"""

from __future__ import annotations

import enum
from importlib import resources
from pathlib import Path

from .domain import RedFlag, Vignette
from .encoding import read_text_fallback

PLACEHOLDER = "{{VIGNETTE}}"
CRITERIA = "{{CRITERIA}}"
CRITERIA_PREFIXES = ("Definition:", "Answer YES if")  # a flag's criteria lines, in order


class TemplateMissing(FileNotFoundError):
    pass


class TemplateInvalid(ValueError):
    pass


class PromptStrategy(enum.Enum):
    QPROMPT = "qprompt"
    GPROMPT = "gprompt"


def _specialist_path(flag: RedFlag, strategy: PromptStrategy) -> str:
    return f"{flag.value}/{strategy.value}.txt"


# Every template of a set, by path relative to the template directory.
TEMPLATE_PATHS = ("orchestrator.txt",
                  *(_specialist_path(f, s) for f in RedFlag for s in PromptStrategy),
                  *(f"baseline/{s.value}.txt" for s in PromptStrategy))
_BASELINE_GPROMPT = "baseline/gprompt.txt"


class PromptLibrary:
    """All templates for one run, loaded once and immutable afterwards.

    Maps each template's path, relative to the template directory, to its body. A set
    that lacks a path of TEMPLATE_PATHS cannot be built: TemplateMissing names it.
    CRITERIA is filled in here, before any vignette, with a `### <flag>` block per flag.
    """

    def __init__(self, templates: dict[str, str]):
        if missing := [rel for rel in TEMPLATE_PATHS if rel not in templates]:
            raise TemplateMissing(missing[0])
        blocks = []
        for flag in RedFlag:
            lines = templates[_specialist_path(flag, PromptStrategy.GPROMPT)].split("\n")
            criteria = [line for p in CRITERIA_PREFIXES for line in lines if line.startswith(p)]
            blocks.append("\n".join([f"### {flag.value}", *criteria]))
        baseline = templates[_BASELINE_GPROMPT].replace(CRITERIA, "\n\n".join(blocks))
        self._templates = {**templates, _BASELINE_GPROMPT: baseline}

    @classmethod
    def load(cls, directory) -> "PromptLibrary":
        """Load and lint a template directory.

        Layout: orchestrator.txt, <flag>/{qprompt,gprompt}.txt for each of the
        seven flags, baseline/{qprompt,gprompt}.txt. Raises TemplateMissing for
        absent files and TemplateInvalid for lint failures, each naming its file.
        """
        directory = Path(directory)
        templates = {}
        for rel in TEMPLATE_PATHS:
            path = directory / rel
            if not path.is_file():
                raise TemplateMissing(str(path))
            templates[rel] = read_text_fallback(path)

        library = cls(templates)  # its vignette placeholders are counted with the criteria in
        counts = {(rel, "vignette placeholders"): body.count(PLACEHOLDER)
                  for rel, body in library._templates.items()}
        counts[_BASELINE_GPROMPT, "criteria placeholders"] = (
            templates[_BASELINE_GPROMPT].count(CRITERIA))
        problems = []
        for flag in RedFlag:
            rel = _specialist_path(flag, PromptStrategy.GPROMPT)
            q_rel = _specialist_path(flag, PromptStrategy.QPROMPT)
            g = templates[rel]
            if len(g) <= len(templates[q_rel]):
                problems.append(f"{directory / rel}: not longer than {directory / q_rel}")
            for prefix in CRITERIA_PREFIXES:
                counts[rel, f"lines starting {prefix!r}"] = sum(
                    line.startswith(prefix) for line in g.split("\n"))
        problems += [f"{directory / rel}: {count} {what} (need exactly 1)"
                     for (rel, what), count in counts.items() if count != 1]
        if problems:
            raise TemplateInvalid("; ".join(problems))
        return library

    @classmethod
    def default(cls) -> "PromptLibrary":
        return cls.load(resources.files("redflagcds") / "prompt_templates")

    def _render(self, rel: str, vignette: Vignette) -> str:
        return self._templates[rel].replace(PLACEHOLDER, vignette.text)

    def orchestrator_prompt(self, vignette: Vignette) -> str:
        return self._render("orchestrator.txt", vignette)

    def specialist_prompt(self, flag: RedFlag, strategy: PromptStrategy, vignette: Vignette) -> str:
        return self._render(_specialist_path(flag, strategy), vignette)

    def baseline_prompt(self, strategy: PromptStrategy, vignette: Vignette) -> str:
        return self._render(f"baseline/{strategy.value}.txt", vignette)
