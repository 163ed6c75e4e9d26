#!/usr/bin/env python3
"""Regenerate tests/fixture_trace_digests.txt, the pinned digests of the fixture traces.

Runs the full experiment matrix over fixtures/ with the scripted backend, then
its two multi-agent rows again under exhaustive fan-out into `exhaustive/`, and
writes one line per trace, `[exhaustive/]<row>/<case>.trace.jsonl <sha256>`.
Each sha256 covers the trace's events without `wall_time`, one
`json.dumps(event, sort_keys=True, ensure_ascii=False)` per line, so a digest
changes only when what a trace records changes. tests/test_evaluation.py runs
the same matrix and names every trace whose digest differs.

Run it from the repository root after a change that alters a trace on purpose:

    PYTHONPATH=src python3 scripts/trace_digests.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

from redflagcds.engine import Architecture, FanoutMode, RunConfig
from redflagcds.evaluation import APPROACH_ORDER, load_dataset, run_experiment
from redflagcds.gateway import ScriptedBackend, load_script
from redflagcds.prompts import PromptLibrary

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
DIGESTS_FILE = ROOT / "tests" / "fixture_trace_digests.txt"


def trace_digest(path: Path) -> str:
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        event = json.loads(line)
        event.pop("wall_time", None)
        lines.append(json.dumps(event, sort_keys=True, ensure_ascii=False) + "\n")
    return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()


def fixture_trace_digests(trace_dir: Path) -> dict[str, str]:
    """Run the fixture matrix, then its multi-agent rows under exhaustive fan-out into
    trace_dir/exhaustive; map each trace's relative path to its digest."""
    prompts = PromptLibrary.default()
    dataset = load_dataset(FIXTURES / "cases.jsonl")
    script = load_script(FIXTURES / "script.jsonl")
    for fanout, approaches, out in (
        (FanoutMode.ROUTED, APPROACH_ORDER, trace_dir),
        (FanoutMode.EXHAUSTIVE,
         [a for a in APPROACH_ORDER if a[0] is Architecture.MULTI_AGENT], trace_dir / "exhaustive"),
    ):
        backend = ScriptedBackend(script)  # a fresh one: a DROPPED entry drops only its first call
        matrix = [RunConfig(arch, strategy, backend, "scripted", prompts, fanout_mode=fanout)
                  for arch, strategy in approaches]
        run_experiment(dataset, matrix, trace_dir=out)
    return {
        path.relative_to(trace_dir).as_posix(): trace_digest(path)
        for path in sorted(trace_dir.rglob("*.trace.jsonl"))
    }


def read_digests() -> dict[str, str]:
    return dict(line.split() for line in DIGESTS_FILE.read_text(encoding="utf-8").splitlines())


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        digests = fixture_trace_digests(Path(tmp))
    DIGESTS_FILE.write_text(
        "".join(f"{name} {digest}\n" for name, digest in digests.items()), encoding="utf-8"
    )
    print(f"{len(digests)} trace digests written to {DIGESTS_FILE.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
