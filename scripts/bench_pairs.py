#!/usr/bin/env python3
"""Run the benchmark on two commits in alternating pairs and judge each end-to-end metric.

    python3 scripts/bench_pairs.py PARENT CHANGE [--workload W ...] [--pairs 10]
        [--seconds 30] [--first-seed 201]
    python3 scripts/bench_pairs.py --chain

Each commit is exported with `git archive` into its own directory under a temporary
directory, which is removed at the end. Both checkouts must hold the same benchmark:
the run is refused when `BENCHMARK.json` or any of the `paths` it lists differ between
the two commits. For each pair the benchmark's `command` (`--trace 0`) runs once per
commit and workload with the pair's seed; even pairs run the parent first, odd pairs
the change first.

Per workload and metric it records every pair's values, both medians and both
interquartile ranges (IQR) over the pairs where both runs are correct, the pairs the
change wins (ties count for neither side, a pair with a failed run counts as a loss)
and a verdict. The gap is the change's median against the parent's, relative to the
parent's median, and the spread is the parent's IQR relative to the same; each
metric's bound is read from `BENCHMARK.json`.

  worse         the change's median is worse by more than the bound and by more than
                the spread;
  unresolved    worse by more than the bound but within the spread, or the spread is
                wider than the bound, so a regression could hide in it;
  better        at least ten pairs run and nine tenths of them won, a gap wider than
                the spread, and a share of failed operations no larger than the
                parent's (five pairs all won happen by chance once in 32 times);
  within bound  otherwise.

The result goes to BENCH_<change short sha>.json in the repository root. The exit
status is 1 when a run failed or reported `correct: false`, a metric is worse, or the
change fails a larger share of its operations than the parent; 0 otherwise. Run it
from a checkout that holds both commits.

Raw medians drift between runs on different days with the host, not the code, so never
compare them across files. `--chain` reads the committed BENCH_*.json files in commit
order instead. It names every gap, where `src/`, `BENCHMARK.json` or a benchmark path
changed between one file's change and the next file's parent, and prints, per workload
and metric and file, both medians, their change/parent ratio, and the product of the
ratios since the chain last started. A chain starts at the first file, after a gap, and
after a file that lacks the metric. A `.py` file counts as changed only when its code
differs once docstrings are removed, so an edit to a comment or a docstring makes no gap;
any other file counts when its bytes differ, and an added or deleted file always counts.
"""

from __future__ import annotations

import argparse
import ast
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
MIN_PAIRS_FOR_BETTER = 10


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def blob(sha: str, path: str) -> Optional[bytes]:
    """The file at path in the commit, or None if the commit has none."""
    done = subprocess.run(["git", "-C", str(ROOT), "show", f"{sha}:{path}"], capture_output=True)
    return done.stdout if done.returncode == 0 else None


def export(sha: str, dest: Path) -> None:
    """Write the commit's files into dest, a new directory."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", sha],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(command: list[str], checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run; its last stdout line's JSON, or `correct: false` with the cause."""
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    try:
        done = subprocess.run(args, cwd=checkout, capture_output=True, text=True,
                              timeout=20 * seconds + 300)
    except subprocess.TimeoutExpired:
        return {"correct": False, "error": "timed out"}
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "error": f"exit {done.returncode}: {done.stderr.strip()[-500:]}"}
    result["metrics"] = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    if done.returncode:
        result["correct"] = False
    return result


def quartiles(values: list[float]) -> tuple[float, float]:
    """The median and the interquartile range."""
    if len(values) == 1:
        return values[0], 0.0
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q3 - q1


def relative(delta: float, base: float) -> float:
    if base:
        return delta / abs(base)
    return 0.0 if delta == 0 else float("inf") if delta > 0 else float("-inf")


def operations(runs: list[dict]) -> dict:
    """Each side's operations attempted and failed, summed over its runs."""
    return {side: {key: sum(r[side].get(key, 0) for r in runs) for key in ("attempted", "failed")}
            for side in SIDES}


def fails_more(ops: dict) -> bool:
    """Whether the change fails a larger share of its operations than the parent."""
    share = {side: ops[side]["failed"] / ops[side]["attempted"] if ops[side]["attempted"] else 0.0
             for side in SIDES}
    return share["change"] > share["parent"]


def judge(metric: dict, runs: list[dict]) -> dict:
    """Medians, IQRs and wins of one metric over the pairs both sides measured; its verdict."""
    name, lower = metric["name"], metric["better"] == "lower"
    pairs = [(r["parent"]["metrics"].get(name), r["change"]["metrics"].get(name))
             for r in runs if r["parent"]["correct"] and r["change"]["correct"]]
    pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
    out = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
           "pairs": len(pairs)}
    if not pairs:
        return {**out, "verdict": "unresolved"}
    parent, parent_iqr = quartiles([p for p, _ in pairs])
    change, change_iqr = quartiles([c for _, c in pairs])
    wins = sum(c < p if lower else c > p for p, c in pairs)
    worse_by = relative(change - parent if lower else parent - change, parent)
    spread = relative(parent_iqr, parent)
    if worse_by > metric["bound"]:
        verdict = "worse" if worse_by > spread else "unresolved"
    elif (worse_by < 0 and -worse_by > spread and len(runs) >= MIN_PAIRS_FOR_BETTER
          and wins * 10 >= 9 * len(runs) and not fails_more(operations(runs))):
        verdict = "better"
    elif spread > metric["bound"]:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {**out, "parent_median": parent, "parent_iqr": parent_iqr, "change_median": change,
            "change_iqr": change_iqr, "wins": wins,
            "ties": sum(c == p for p, c in pairs), "verdict": verdict}


_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code(source: bytes) -> str:
    """`ast.dump` of Python source with every docstring removed; comments never reach it."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if (isinstance(node, _DOCUMENTED) and node.body and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)
                and isinstance(node.body[0].value.value, str)):
            node.body = node.body[1:]
    return ast.dump(tree)


def differs(path: str, before: Optional[bytes], after: Optional[bytes]) -> bool:
    """Whether a file can move a metric between two commits, given its contents at each
    (None where it is absent): a `.py` file by its code without docstrings, any other file
    by its bytes. An added or deleted file differs."""
    if before is None or after is None or before == after or not path.endswith(".py"):
        return before != after
    try:
        return code(before) != code(after)
    except (SyntaxError, ValueError):  # not Python that parses: its bytes differ
        return True


def changed(a: str, b: str, paths: list[str]) -> list[str]:
    """The files under `paths` that differ between commits a and b, by `differs`."""
    named = git("diff", "--name-only", a, b, "--", *paths).splitlines()
    return [path for path in named if differs(path, blob(a, path), blob(b, path))]


def chain(files: list[tuple[str, dict]], changed) -> tuple[list, dict]:
    """Chain BENCH files given as (name, contents) in commit order; `changed(a, b)` lists
    the paths that differ between commits a and b and that can move a metric.

    Returns the gaps, each (earlier file, later file, paths), and per (workload, metric)
    that any file holds, one row per file: (file, parent median, change median, ratio,
    product). A file that lacks the metric, or has a zero parent median, gives no ratio
    and no product, and the metric's chain starts again after it.
    """
    keys = dict.fromkeys((workload, metric) for _, bench in files
                         for workload, body in bench["workloads"].items()
                         for metric in body["metrics"])
    gaps, rows, products = [], {key: [] for key in keys}, {}
    for i, (name, bench) in enumerate(files):
        if i and (paths := changed(files[i - 1][1]["change"], bench["parent"])):
            gaps.append((files[i - 1][0], name, paths))
            products.clear()
        for workload, metric in keys:
            m = bench["workloads"].get(workload, {}).get("metrics", {}).get(metric, {})
            parent, change = m.get("parent_median"), m.get("change_median")
            ratio = change / parent if parent and change is not None else None
            if ratio is None:
                products.pop((workload, metric), None)
            else:
                products[workload, metric] = products.get((workload, metric), 1.0) * ratio
            rows[workload, metric].append(
                (name, parent, change, ratio, products.get((workload, metric))))
    return gaps, rows


def print_chain() -> int:
    """`--chain` over the committed BENCH_*.json files; 1 if one names an unknown commit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    order = {sha: i for i, sha in enumerate(git("rev-list", "--reverse", "HEAD").split())}
    files = [(path, json.loads((ROOT / path).read_text(encoding="utf-8")))
             for path in git("ls-files", "BENCH_*.json").split()]
    unknown = [path for path, bench in files if bench["change"] not in order]
    if unknown:
        print(f"bench_pairs: not in HEAD's history: {', '.join(unknown)}", file=sys.stderr)
        return 1
    files.sort(key=lambda file: order[file[1]["change"]])
    watched = ["src", "BENCHMARK.json", *spec["paths"]]
    gaps, rows = chain(files, lambda a, b: changed(a, b, watched))
    for earlier, later, paths in gaps:
        print(f"gap between {earlier} and {later}, the chain starts again: "
              f"{', '.join(paths)}")
    print(f"{'workload':<16} {'metric':<28} {'file':<18} {'parent':>10} {'change':>10} "
          f"{'ratio':>8} {'product':>8}")
    for (workload, metric), found in rows.items():
        for name, parent, change, ratio, product in found:
            cells = [f"{v:10.4g}" if v is not None else f"{'-':>10}" for v in (parent, change)]
            cells += [f"{f'x{v:.3f}' if v is not None else '-':>8}" for v in (ratio, product)]
            print(f"{workload:<16} {metric:<28} {name:<18} {' '.join(cells)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--chain", action="store_true",
                        help="chain the committed BENCH_*.json files instead of running pairs")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    parser.add_argument("--first-seed", type=int, default=201)
    args = parser.parse_args(argv)
    if args.chain:
        if args.parent or args.change:
            parser.error("--chain takes no commits")
        return print_chain()
    if not args.change:
        parser.error("PARENT and CHANGE are required")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    shas = {side: git("rev-parse", "--verify", f"{ref}^{{commit}}")
            for side, ref in zip(SIDES, (args.parent, args.change))}
    spec = json.loads(git("show", f"{shas['change']}:BENCHMARK.json"))
    harness = ["BENCHMARK.json", *spec["paths"]]
    differing = git("diff", "--name-only", shas["parent"], shas["change"], "--", *harness)
    if differing:
        sys.exit(f"bench_pairs: the commits run different benchmarks; these differ:\n{differing}")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    unknown = set(workloads) - {w["name"] for w in spec["workloads"]}
    if unknown:
        parser.error(f"unknown workload: {', '.join(sorted(unknown))}")
    seconds = args.seconds or spec["run_seconds"]
    seeds = [args.first_seed + i for i in range(args.pairs)]

    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    try:
        checkouts = {side: scratch / side for side in SIDES}
        for side in SIDES:
            export(shas[side], checkouts[side])
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(spec["command"], checkouts[side], workload, seed, seconds)
                    print(f"pair {i + 1}/{len(seeds)} {workload} {side}: "
                          f"correct={pair[side]['correct']}", file=sys.stderr)
                runs[workload].append(pair)
    finally:
        shutil.rmtree(scratch)

    result = {
        "parent": shas["parent"], "change": shas["change"], "command": spec["command"],
        "seconds": seconds, "seeds": seeds,
        "workloads": {w: {"metrics": {m["name"]: judge(m, runs[w]) for m in spec["end_to_end"]},
                          "operations": operations(runs[w]), "runs": runs[w]} for w in workloads},
    }
    out = ROOT / f"BENCH_{shas['change'][:7]}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"{'workload':<16} {'metric':<28} {'parent':>10} {'change':>10} {'wins':>5}  verdict")
    for workload, body in result["workloads"].items():
        for name, m in body["metrics"].items():
            medians = [f"{m[k]:10.4g}" if k in m else f"{'-':>10}"
                       for k in ("parent_median", "change_median")]
            print(f"{workload:<16} {name:<28} {' '.join(medians)} {m.get('wins', 0):>5}  "
                  f"{m['verdict']}")
    print(f"written to {out}")
    failed = any(not pair[side]["correct"] for pairs in runs.values()
                 for pair in pairs for side in SIDES)
    for workload, body in result["workloads"].items():
        ops = body["operations"]
        print(f"{workload}: failed operations, parent {ops['parent']['failed']} of "
              f"{ops['parent']['attempted']}, change {ops['change']['failed']} of "
              f"{ops['change']['attempted']}")
    worse = any(m["verdict"] == "worse" for body in result["workloads"].values()
                for m in body["metrics"].values())
    more_failures = any(fails_more(body["operations"]) for body in result["workloads"].values())
    return 1 if failed or worse or more_failures else 0


if __name__ == "__main__":
    sys.exit(main())
