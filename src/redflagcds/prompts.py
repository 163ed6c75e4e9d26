"""Prompt templates: orchestrator routing, 7x2 specialist prompts, 2 single-LLM baselines.

Templates are external text files so guideline criteria can be edited without
touching code. The packaged defaults live in prompt_templates/; any directory
with the same layout can be loaded instead.
"""

from __future__ import annotations

import enum
from importlib import resources
from pathlib import Path

from .domain import RedFlag, Vignette
from .encoding import read_text_fallback

PLACEHOLDER = "{{VIGNETTE}}"


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


class PromptLibrary:
    """All templates for one run, loaded once and immutable afterwards.

    Maps each template's path, relative to the template directory, to its body. A set
    that lacks a path of TEMPLATE_PATHS cannot be built: TemplateMissing names it.
    """

    def __init__(self, templates: dict[str, str]):
        if missing := [rel for rel in TEMPLATE_PATHS if rel not in templates]:
            raise TemplateMissing(missing[0])
        self._templates = dict(templates)

    @classmethod
    def load(cls, directory) -> "PromptLibrary":
        """Load and lint a template directory.

        Layout: orchestrator.txt, <flag>/{qprompt,gprompt}.txt for each of the
        seven flags, baseline/{qprompt,gprompt}.txt. Raises TemplateMissing for
        absent files and TemplateInvalid for lint failures.
        """
        directory = Path(directory)
        templates = {}
        for rel in TEMPLATE_PATHS:
            path = directory / rel
            if not path.is_file():
                raise TemplateMissing(str(path))
            templates[rel] = read_text_fallback(path)

        problems = []
        for rel, body in templates.items():
            count = body.count(PLACEHOLDER)
            if count != 1:
                problems.append(f"{directory / rel}: {count} vignette placeholders (need exactly 1)")
        for flag in RedFlag:
            q = templates[_specialist_path(flag, PromptStrategy.QPROMPT)]
            g = templates[_specialist_path(flag, PromptStrategy.GPROMPT)]
            if len(g) <= len(q):
                problems.append(f"{flag.value}: gprompt is not longer than qprompt")
            if "Definition" not in g:
                problems.append(f"{flag.value}: gprompt lacks a Definition block")
        if problems:
            raise TemplateInvalid("; ".join(problems))
        return cls(templates)

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
