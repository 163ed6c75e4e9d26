#!/usr/bin/env python3
"""Benchmark of the redflagcds screening engine: one command, three workloads.

    python3 bench/run.py --workload fixtures-sim50 --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the package from ./src
and writes only under ./.bench_build. Workloads:

  fixtures-sim50  committed fixtures, routed fan-out, seeded ~50 ms latency per
                  call around ScriptedBackend, concurrency 8 (LLM-bound shape).
  synthetic-sim5  seeded generated corpus reaching every recovery and fault path,
                  exhaustive fan-out, seeded ~5 ms latency per call, concurrency 8.
  http-loopback   committed fixtures through HttpBackend against an in-process
                  HTTP/1.1 stub with a 2 ms delay per request, concurrency = nproc.

Each run is one process with one closed-loop caller. `--trace 0` measures the
end-to-end metrics; `--trace 1` runs the same work untraced and then traced,
and reports the per-layer metrics and the tracing overhead. Every output is
checked against a plain-ScriptedBackend reference run made during set-up
before any number is printed; a mismatch exits with status 1. The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import tempfile
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"

sys.path.insert(0, str(SRC))
try:
    import redflagcds as rf
    from redflagcds import cli, engine, evaluation, gateway, recovery
    from redflagcds.prompts import PromptLibrary, PromptStrategy
except ImportError as exc:  # not a source checkout
    if __name__ != "__main__":
        raise
    sys.exit(f"bench: cannot import redflagcds from {SRC}: {exc}")

import corpus  # noqa: E402
from latency import LatencyModel, SimulatedBackend  # noqa: E402
from loopback import LoopbackStub  # noqa: E402
import spans  # noqa: E402

MODEL = "scripted"
SETUP_REPS = 7  # before the reference; one more set-up follows every slice of screens
TRACE_SETUP_REPS = 5
MIN_SCREENS = 110  # leaves at least 10 samples beyond p90
WINDOW_SCREENS = 500  # consecutive screens per latency window (50 beyond its p90)
TRACE_SCREENS = 44
ROUND_SHARE = 0.6  # share of each cycle spent in an evaluation round; screens get the rest
SLICE_S = 0.5  # screens between two timed verification samples and set-ups
VERIFY_PER_ROW = 22  # traces per matrix row in the timed verification sample
STUB_DELAY_S = 0.002


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    generated: bool  # seeded synthetic corpus, else the committed fixtures
    latency_ms: float
    fanout: str
    concurrency: int
    http: bool = False


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fixtures-sim50", False, 50.0, "routed", 8),
        Workload("synthetic-sim5", True, 5.0, "exhaustive", 8),
        Workload("http-loopback", False, 0.0, "routed", _nproc(), http=True),
    )
}


class GateFailure(Exception):
    """An output differs from the reference; no number may be reported."""


def _events(path) -> list[dict]:
    """A trace file's events as written, without the wall_time field."""
    with open(path, encoding="utf-8") as fh:
        return [_untimed(json.loads(line)) for line in fh if line.strip()]


def _untimed(event: dict) -> dict:
    return {k: v for k, v in event.items() if k != "wall_time"}


def _digest(events: list[dict]) -> bytes:
    """A trace's content as a short digest, so the reference holds no trace itself."""
    return hashlib.blake2b(json.dumps(events, sort_keys=True).encode(), digest_size=16).digest()


def _trace_files(directory: Path) -> list[str]:
    return sorted(p.relative_to(directory).as_posix() for p in directory.rglob("*") if p.is_file())


def _verify_sample(files: list[str]) -> list[str]:
    """VERIFY_PER_ROW traces evenly spaced within each matrix row, so that every timed
    verification covers the same traces in the same mix of configurations."""
    rows: dict[str, list[str]] = {}
    for rel in files:
        rows.setdefault(rel.split("/")[0], []).append(rel)
    sample = []
    for names in rows.values():
        k = min(VERIFY_PER_ROW, len(names))
        sample += [names[i * len(names) // k] for i in range(k)]
    return sample


def _windows(samples: list[float], size: int) -> list[list[float]]:
    """Consecutive samples in windows of `size`; a short remainder joins the last
    window, and fewer than `size` samples make one window."""
    windows = [samples[i:i + size] for i in range(0, max(len(samples) - size, 0) + 1, size)]
    windows[-1] = samples[(len(windows) - 1) * size:]
    return windows


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Bench:
    def __init__(self, workload: Workload, seed: int, work: Path):
        self.wl = workload
        self.seed = seed
        self.work = work
        self.model = LatencyModel(seed, median_ms=workload.latency_ms)
        self.cli_out = io.StringIO()  # one reused sink for the CLI's output
        self.tracer = None
        self.stub = None
        self.http = None
        self.next_backend = None
        self.round_dir = None
        self.rss_marks: list[tuple[str, float]] = []  # (after which phase, high-water MB)
        if workload.generated:
            paths = corpus.write_corpus(seed, work / "corpus")
            self.dataset_path, self.script_path = paths["cases"], paths["script"]
            with open(paths["expected"], encoding="utf-8") as fh:
                self.expected = {(r["case_id"], r["config"]): r["predicted"] for r in map(json.loads, fh)}
        else:
            self.dataset_path = FIXTURES / "cases.jsonl"
            self.script_path = FIXTURES / "script.jsonl"
            self.expected = (BENCH / "expected" / "fixtures.csv").read_text(encoding="utf-8")

    # ---- set-up -------------------------------------------------------------

    def _span(self, name, **attrs):
        return self.tracer.span(name, **attrs) if self.tracer else nullcontext()

    def set_up(self) -> float:
        """What a user pays before the first case: load inputs and templates, build the
        backend (and, over HTTP, start the stub). Returns the seconds it took."""
        self.tear_down()
        start = perf_counter()
        with self._span("evaluation.load_dataset"):
            dataset = evaluation.load_dataset(self.dataset_path)
        with self._span("gateway.load_script"):
            entries = gateway.load_script(self.script_path)
        with self._span("prompts.load"):
            prompts = PromptLibrary.default()
        if self.wl.http:
            entries = self._served(entries)
            self.stub = LoopbackStub(self._responses(dataset, entries, prompts), STUB_DELAY_S)
            self.http = gateway.HttpBackend(gateway.BackendConfig(endpoint_url=self.stub.url, model=MODEL))
            self.http.preflight()
        self.dataset, self.entries, self.prompts = dataset, entries, prompts
        self.next_backend = self._backend()
        return perf_counter() - start

    def tear_down(self) -> None:
        if self.stub is not None:
            self.stub.close()
            self.stub = self.http = None

    @staticmethod
    def _served(entries):
        """The script as the stub serves it: hard faults become 200 replies with empty
        content (the 1 s/2 s retry backoff would otherwise dominate), and DROPPED is
        answered normally since HTTP has no dropped tool call."""
        Fault = gateway.Fault
        out = []
        for e in entries:
            if e.fault in (Fault.TIMEOUT, Fault.HTTP_500):
                e = dataclasses.replace(e, response="", fault=Fault.EMPTY)
            elif e.fault is Fault.DROPPED:
                e = dataclasses.replace(e, fault=None)
            out.append(e)
        return out

    @staticmethod
    def _responses(dataset, entries, prompts) -> dict[str, str]:
        """Rendered prompt -> reply, for a script already passed through _served()."""
        by_key = {(e.case_id, e.agent_role): "" if e.fault is gateway.Fault.EMPTY else e.response
                  for e in entries}
        responses: dict[str, str] = {}

        def add(prompt, key):
            if key in by_key:
                if responses.setdefault(prompt, by_key[key]) != by_key[key]:
                    raise ValueError(f"two script entries share one prompt: {key}")

        for case in dataset:
            v = case.vignette
            add(prompts.orchestrator_prompt(v), (v.id, "orchestrator"))
            for strategy in PromptStrategy:
                add(prompts.baseline_prompt(strategy, v), (v.id, "baseline"))
                for flag in rf.RedFlag:
                    add(prompts.specialist_prompt(flag, strategy, v), (v.id, flag.value))
        return responses

    def _backend(self):
        """The backend one evaluation shares across its matrix, as `evaluate` does; a
        scripted one is fresh per round so one-shot DROPPED faults fire again."""
        return self.http if self.wl.http else gateway.ScriptedBackend(self.entries)

    def config(self, arch, strategy, backend, prompts=None, concurrency=None):
        return rf.RunConfig(
            architecture=arch, strategy=strategy, backend=backend, model=MODEL,
            prompts=prompts or self.prompts, fanout_mode=rf.FanoutMode(self.wl.fanout),
            concurrency=concurrency or self.wl.concurrency,
        )

    # ---- reference and output gate ------------------------------------------

    def reference(self) -> None:
        """Plain ScriptedBackend run, serial, over the script as served; then check it
        against the committed expectations (fixtures) or the generator's oracle."""
        backend = gateway.ScriptedBackend(self.entries)
        matrix = [self.config(a, s, backend, concurrency=1) for a, s in evaluation.APPROACH_ORDER]
        ref_dir = self.work / "reference"
        report = evaluation.run_experiment(self.dataset, matrix, trace_dir=ref_dir)
        self.case_runs = len(self.dataset) * len(matrix)
        files = _trace_files(ref_dir)
        if len(files) != self.case_runs:
            raise GateFailure(f"reference wrote {len(files)} trace files for {self.case_runs} case-runs")
        self.ref_rows = report.rows
        self.verify_sample = _verify_sample(files)
        multi_dirs = {evaluation.run_row_name(c) for c in matrix
                      if c.architecture is rf.Architecture.MULTI_AGENT}
        keys = {evaluation.run_row_name(c): f"{c.architecture.value}_{c.strategy.value}"
                for c in matrix}
        self.ref_traces, self.ref_verify = {}, {}
        self.verdicts = self.agent_errors = 0
        for rel in files:  # one trace at a time: only digests and counts stay
            events = _events(ref_dir / rel)
            self.ref_traces[rel] = _digest(events)
            stages = [e["stage"] for e in events]
            self.verdicts += stages.count("AGENT_DONE") + stages.count("AGENT_ERROR")
            self.agent_errors += stages.count("AGENT_ERROR")
            row, name = rel.split("/")
            self.ref_verify[rel] = self.replay(ref_dir / rel)
            if row in multi_dirs and self.ref_verify[rel] != 0:
                raise GateFailure(f"replay --verify rejects reference trace {rel}")
            if self.wl.generated:
                want = self.expected[(name[: -len(".trace.jsonl")], keys[row])]
                got = events[-1]["payload"]["predicted"] if events else []
                if got != want:
                    raise GateFailure(f"reference {rel} predicted {got}, corpus expects {want}")
        if not self.wl.generated and report.to_csv() != self.expected:
            raise GateFailure("reference report differs from bench/expected/fixtures.csv:\n"
                              + report.to_csv())

        self.case_entries = {}
        for e in self.entries:
            self.case_entries.setdefault(e.case_id, []).append(e)
        self.ref_screens = {}
        for case in self.dataset:
            cfg = self.config(rf.Architecture.MULTI_AGENT, PromptStrategy.GPROMPT,
                              gateway.ScriptedBackend(self.case_entries[case.vignette.id]),
                              concurrency=1)
            result = rf.run_case(case.vignette, cfg)
            self.ref_screens[case.vignette.id] = (
                result.predicted, _digest([_untimed(e.to_json_dict()) for e in result.trace]))

    def replay(self, path) -> int:
        """`replay <path> --verify` through the CLI entry point, in process; returns its
        exit code. Output goes to one reused buffer: click.echo caches a wrapper for
        every new stdout it meets and never frees it, so fresh streams per call (as
        click's CliRunner gives) would grow the process by a few KB a call."""
        sink = self.cli_out
        with self._span("cli.replay"), redirect_stdout(sink), redirect_stderr(sink):
            try:
                cli.cli.main(["replay", str(path), "--verify"], prog_name="redflagcds")
                code = 0
            except SystemExit as exc:
                code = exc.code or 0
            except Exception as exc:
                raise GateFailure(f"replay {path} raised {exc!r}") from exc
            finally:
                sink.seek(0)
                sink.truncate()
        return code

    # ---- measured phases ----------------------------------------------------

    def _wrap_backend(self, backend):
        return spans.TracedBackend(backend, self.tracer) if self.tracer else backend

    def _prompts(self):
        return spans.TracedPrompts(self.prompts, self.tracer) if self.tracer else self.prompts

    def eval_round(self, index: int) -> dict:
        """One run_experiment over the full matrix with traces written, then the gate
        and the timed `replay --verify` of every trace written."""
        gc.collect()
        started = perf_counter()
        # One latency wrapper per configuration keeps attempt ordinals per configuration.
        sims = [SimulatedBackend(self.next_backend, self.model) for _ in evaluation.APPROACH_ORDER]
        prompts = self._prompts()
        matrix = [self.config(a, s, self._wrap_backend(sim), prompts)
                  for (a, s), sim in zip(evaluation.APPROACH_ORDER, sims)]
        # Earlier rounds stay until the run ends: deleting their files here would leave
        # deferred file-system work that slows this round's trace writes.
        out = self.round_dir = self.work / f"round{index}"
        conns, served = (self.stub.connections, self.stub.requests) if self.stub else (0, 0)
        cpu0, t0 = process_time(), perf_counter()
        report = evaluation.run_experiment(self.dataset, matrix, trace_dir=out)
        wall, cpu = perf_counter() - t0, process_time() - cpu0
        completed = sum(sim.completed for sim in sims)
        http = {"connections": self.stub.connections - conns if self.stub else 0,
                "retries": self.stub.requests - served - completed if self.stub else 0}
        self.next_backend = self._backend()

        if report.rows != self.ref_rows:
            raise GateFailure(f"round {index}: report rows differ from the reference")
        files = _trace_files(out)
        if len(files) != self.case_runs or set(files) != set(self.ref_traces):
            raise GateFailure(f"round {index}: {len(files)} trace files for {self.case_runs} "
                              "case-runs, or names differ from the reference")
        for rel in files:
            if _digest(_events(out / rel)) != self.ref_traces[rel]:
                raise GateFailure(f"round {index}: trace {rel} differs from the reference")
        if self.tracer:
            self.tracer.phase = "verify"
        verify_ms = self.verify_ms()
        sampled = set(self.verify_sample)
        self.check_replays([rel for rel in files if rel not in sampled])
        if self.tracer:
            self.tracer.phase = "eval"
        print(f"round {index}: {self.case_runs / wall:.1f} case-runs/s, "
              f"{cpu * 1000 / self.case_runs:.3f} ms CPU per case-run", file=sys.stderr)
        return {
            "wall_s": wall, "cpu_s": cpu, "case_runs": self.case_runs,
            "calls": sum(sim.calls for sim in sims),
            "failed": sum(row.error_case_count for row in report.rows),
            "verify_ms": verify_ms,
            "round_s": perf_counter() - started, "http": http,
        }

    def check_replays(self, files: list[str]) -> None:
        """`replay --verify` of the given traces of the latest round; each exit code
        must equal the one on the reference trace."""
        for rel in files:
            if self.replay(self.round_dir / rel) != self.ref_verify[rel]:
                raise GateFailure(f"replay --verify of {rel} disagrees with the reference")

    def verify_ms(self) -> float:
        """Timed check_replays of the fixed verification sample, in ms per trace."""
        t0 = perf_counter()
        self.check_replays(self.verify_sample)
        return (perf_counter() - t0) * 1000 / len(self.verify_sample)

    def screens(self, sim: SimulatedBackend, minimum: int, budget_s: float,
                first: int = 0) -> list[float]:
        """Closed loop, one caller: run_case on multi-agent GPrompt, case after case from
        case number `first`, until both `minimum` samples and `budget_s` seconds are
        reached. Each screen gets fresh script state, as one `classify` invocation has."""
        cfg = self.config(rf.Architecture.MULTI_AGENT, PromptStrategy.GPROMPT,
                          self._wrap_backend(sim), self._prompts())
        latencies: list[float] = []
        gc.collect()
        start = perf_counter()
        while len(latencies) < minimum or perf_counter() - start < budget_s:
            number = first + len(latencies)
            case = self.dataset[number % len(self.dataset)]
            vid = case.vignette.id
            sim.inner = self.http or gateway.ScriptedBackend(self.case_entries[vid])
            with self._span("screen", case_run=f"screen-{number}"):
                t0 = perf_counter()
                result = rf.run_case(case.vignette, cfg)
                latencies.append((perf_counter() - t0) * 1000)
            predicted, trace = self.ref_screens[vid]
            if result.predicted != predicted or \
                    _digest([_untimed(e.to_json_dict()) for e in result.trace]) != trace:
                raise GateFailure(f"screen of {vid} differs from the reference")
        return latencies

    # ---- the two kinds of run -----------------------------------------------

    def measure(self, seconds: int, setup_s: list[float]) -> dict:
        """Alternate evaluation rounds with slices of screens, each slice followed by a
        timed verification of the same fixed sample of traces and a timed set-up, so
        that every metric samples the whole run. Stop when the next cycle would end past the deadline by more than
        half a cycle.

        Throughput, verification time and screen latency are the best of alike
        rounds, samples or windows: on a shared host, CPU speed can halve for seconds
        at a time when other tenants load the cores, so a median would report how
        long the host was loaded rather than what the program costs. Screen latency
        percentiles are taken within windows of WINDOW_SCREENS consecutive screens and
        the lowest window's value is reported; set-up is the median."""
        deadline = perf_counter() + seconds
        sim = SimulatedBackend(None, self.model)  # attempts keep counting across slices
        rounds, latencies, verify_ms = [], [], []
        while True:
            rounds.append(self.eval_round(len(rounds)))
            if len(rounds) == 1:
                self.rss_marks.append(("first round", _max_rss_mb()))
            verify_ms.append(rounds[-1]["verify_ms"])
            cycle = rounds[-1]["round_s"] / ROUND_SHARE
            screens_until = perf_counter() + cycle - rounds[-1]["round_s"]
            while perf_counter() < screens_until:
                latencies += self.screens(sim, 0, SLICE_S, first=len(latencies))
                verify_ms.append(self.verify_ms())
                setup_s.append(self.set_up())
            if perf_counter() + cycle / 2 > deadline:
                break
        if len(latencies) < MIN_SCREENS:
            latencies += self.screens(sim, MIN_SCREENS - len(latencies), 0, first=len(latencies))
        windows = _windows(latencies, WINDOW_SCREENS)

        case_runs = sum(r["case_runs"] for r in rounds)
        calls = rounds[0]["calls"]
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "screen_ms_p50": (min(spans.percentile(w, 50) for w in windows), "ms"),
            "screen_ms_p90": (min(spans.percentile(w, 90) for w in windows), "ms"),
            "eval_case_runs_per_s": (max(r["case_runs"] / r["wall_s"] for r in rounds), "1/s"),
            "llm_calls_per_case_run": (calls / self.case_runs, "count"),
            "agent_error_share": (self.agent_errors / self.verdicts, "share"),
            "replay_verify_ms_per_trace": (min(verify_ms), "ms"),
            "peak_rss_mb": (_max_rss_mb(), "MB"),
        }
        if any(r["calls"] != calls for r in rounds):
            raise GateFailure("backend call count differs between rounds")
        notes = [
            f"rounds={len(rounds)} case_runs/round={self.case_runs} screens={len(latencies)} "
            f"set-ups={len(setup_s)} verification samples={len(verify_ms)} "
            f"screen windows={len(windows)} (p90 has at least "
            f"{min(len(w) - int(0.9 * len(w)) for w in windows)} samples beyond it in each)",
            f"llm_calls_per_case_run = {calls} calls / {self.case_runs} case-runs",
            "peak RSS high-water mark (MB) after: " + ", ".join(
                f"{label} {mb:.1f}" for label, mb in self.rss_marks + [("run", _max_rss_mb())]),
            f"agent_error_share = {self.agent_errors} ERROR verdicts / {self.verdicts} verdicts",
            f"case-level failures = {sum(r['failed'] for r in rounds)} / {case_runs} case-runs",
            "cpu_ms_per_case_run (unbounded; per-layer metric evaluation.cpu_ms_per_case_run) = "
            f"{sum(r['cpu_s'] for r in rounds) * 1000:.1f} ms CPU / {case_runs} case-runs = "
            f"{sum(r['cpu_s'] for r in rounds) * 1000 / case_runs:.4g} ms",
        ]
        return {"metrics": metrics, "notes": notes,
                "attempted": case_runs + len(latencies),
                "failed": sum(r["failed"] for r in rounds)}

    def trace(self) -> dict:
        """A fixed amount of work: one round and TRACE_SCREENS screens untraced, then
        set-up, one round and the same screens traced."""
        base = self.eval_round(0)
        base_lat = self.screens(SimulatedBackend(self.http, self.model), TRACE_SCREENS, 0)
        tracer = spans.Tracer()
        hooks = spans.install(tracer, engine, evaluation, recovery, cli)
        self.tracer = tracer
        try:
            for _ in range(TRACE_SETUP_REPS):
                self.set_up()
            tracer.phase = "eval"
            traced = self.eval_round(1)
            tracer.phase = "screen"
            lat = self.screens(SimulatedBackend(self.http, self.model), TRACE_SCREENS, 0)
        finally:
            hooks.restore()
            self.tracer = None
        extra = dict(traced["http"])
        extra["overhead_eval_ms"] = (traced["wall_s"] - base["wall_s"]) * 1000 / self.case_runs
        extra["overhead_screen_ms"] = spans.percentile(lat, 50) - spans.percentile(base_lat, 50)
        extra["cpu_ms_per_case_run"] = base["cpu_s"] * 1000 / self.case_runs
        metrics = spans.layer_metrics(tracer, hooks.missing, self.case_runs, traced["wall_s"], extra)
        out = ROOT / ".bench_build" / f"spans-{self.wl.name}-seed{self.seed}.jsonl"
        tracer.write(out)
        notes = [f"spans written to {out.relative_to(ROOT)} ({len(tracer.spans)} spans)"]
        notes += [f"unmeasured: {m} (hook target {spans.NEEDS[m]} not found)"
                  for m, (v, _) in metrics.items() if v is None and m in spans.NEEDS]
        return {"metrics": metrics, "notes": notes,
                "attempted": 2 * self.case_runs + len(lat) + len(base_lat),
                "failed": base["failed"] + traced["failed"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="redflagcds benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "redflagcds" / "__init__.py").is_file() or not FIXTURES.is_dir():
        print(f"bench: {ROOT} is not a source checkout (needs src/redflagcds and fixtures/)",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build) as tmp:
        bench = Bench(WORKLOADS[args.workload], args.seed, Path(tmp))
        try:
            setup_s = [bench.set_up() for _ in range(SETUP_REPS)]
            bench.rss_marks.append(("set-up", _max_rss_mb()))
            bench.reference()
            bench.rss_marks.append(("reference", _max_rss_mb()))
            result = bench.trace() if args.trace else bench.measure(args.seconds, setup_s)
        except GateFailure as exc:
            print(f"bench: output check failed: {exc}", file=sys.stderr)
            return 1
        finally:
            bench.tear_down()

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"nproc={_nproc()} python={sys.version.split()[0]}")
    for note in result["notes"]:
        print(note)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {'unmeasured' if value is None else f'{value:.6g}'} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
