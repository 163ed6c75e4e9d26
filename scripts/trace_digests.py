#!/usr/bin/env python3
"""Regenerate the pinned digests of the fixture traces and of the seed-7 corpus traces.

tests/fixture_trace_digests.txt: the full experiment matrix over fixtures/ with
the scripted backend, then its two multi-agent rows again under exhaustive
fan-out into `exhaustive/`; one line per trace,
`[exhaustive/]<row>/<case>.trace.jsonl <sha256>`.

tests/corpus_trace_digests.txt: the corpus `bench/corpus.py --seed 7` writes,
all four rows under exhaustive fan-out into `exhaustive/`, then the two
multi-agent rows routed into `routed/`; one line per trace,
`<mode>/<row>/<case>.trace.jsonl <sha256 prefix>`. The prefix still names a
changed trace, and keeps the 1,200-line file small.

Each sha256 covers the trace's events without `wall_time`, one
`json.dumps(event, sort_keys=True, ensure_ascii=False)` per line, so a digest
changes only when what a trace records changes. tests/test_evaluation.py runs
the same matrices and names every trace whose digest differs.

Run it from the repository root after a change that alters a trace on purpose:

    PYTHONPATH=src python3 scripts/trace_digests.py
"""

import hashlib
import importlib.util
import json
import tempfile
from pathlib import Path

from redflagcds.encoding import read_jsonl
from redflagcds.engine import Architecture, FanoutMode, RunConfig
from redflagcds.evaluation import APPROACH_ORDER, load_dataset, run_experiment
from redflagcds.gateway import ScriptedBackend, load_script
from redflagcds.prompts import PromptLibrary
from redflagcds.trace import untimed

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
DIGESTS_FILE = ROOT / "tests" / "fixture_trace_digests.txt"
CORPUS_DIGESTS_FILE = ROOT / "tests" / "corpus_trace_digests.txt"
CORPUS_SEED = 7
CORPUS_DIGEST_CHARS = 16
MULTI_AGENT = [a for a in APPROACH_ORDER if a[0] is Architecture.MULTI_AGENT]


def trace_digest(path: Path) -> str:
    lines = [json.dumps(untimed(event), sort_keys=True, ensure_ascii=False) + "\n"
             for _, event in read_jsonl(path)]
    return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()


def run_digests(dataset_path, script_path, runs, trace_dir: Path) -> dict[str, str]:
    """Run each `(fan-out mode, approaches, subdirectory)` of `runs` over the dataset, each
    with a fresh scripted backend (a DROPPED entry drops only its first call) at the default
    call bound, which no trace depends on; map each trace's path relative to trace_dir to
    its digest."""
    prompts = PromptLibrary.default()
    dataset = load_dataset(dataset_path)
    script = load_script(script_path)
    for fanout, approaches, subdirectory in runs:
        backend = ScriptedBackend(script)
        matrix = [RunConfig(arch, strategy, backend, "scripted", prompts, fanout_mode=fanout)
                  for arch, strategy in approaches]
        run_experiment(dataset, matrix, trace_dir=trace_dir / subdirectory)
    return {
        path.relative_to(trace_dir).as_posix(): trace_digest(path)
        for path in sorted(trace_dir.rglob("*.trace.jsonl"))
    }


def fixture_trace_digests(trace_dir: Path) -> dict[str, str]:
    """Run the fixture matrix, then its multi-agent rows under exhaustive fan-out into
    trace_dir/exhaustive; map each trace's relative path to its digest."""
    runs = [(FanoutMode.ROUTED, APPROACH_ORDER, ""),
            (FanoutMode.EXHAUSTIVE, MULTI_AGENT, "exhaustive")]
    return run_digests(FIXTURES / "cases.jsonl", FIXTURES / "script.jsonl", runs, trace_dir)


def write_corpus(out: Path) -> dict[str, Path]:
    """Write the seed-7 corpus with bench/corpus.py, imported by path; returns its file paths."""
    spec = importlib.util.spec_from_file_location("bench_corpus", ROOT / "bench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus.write_corpus(CORPUS_SEED, out)


def corpus_trace_digests(work: Path) -> dict[str, str]:
    """Write the seed-7 corpus into work/corpus; run all four rows under exhaustive fan-out
    and the multi-agent rows routed into work/traces/{exhaustive,routed}; map each trace's
    path relative to work/traces to its truncated digest."""
    paths = write_corpus(work / "corpus")
    runs = [(FanoutMode.EXHAUSTIVE, APPROACH_ORDER, "exhaustive"),
            (FanoutMode.ROUTED, MULTI_AGENT, "routed")]
    digests = run_digests(paths["cases"], paths["script"], runs, work / "traces")
    return {name: digest[:CORPUS_DIGEST_CHARS] for name, digest in digests.items()}


def read_digests(path: Path = DIGESTS_FILE) -> dict[str, str]:
    return dict(line.split() for line in path.read_text(encoding="utf-8").splitlines())


def main() -> None:
    for path, digest_fn in ((DIGESTS_FILE, fixture_trace_digests),
                            (CORPUS_DIGESTS_FILE, corpus_trace_digests)):
        with tempfile.TemporaryDirectory() as tmp:
            digests = digest_fn(Path(tmp))
        path.write_text(
            "".join(f"{name} {digest}\n" for name, digest in digests.items()), encoding="utf-8"
        )
        print(f"{len(digests)} trace digests written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
