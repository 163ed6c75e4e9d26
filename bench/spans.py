"""In-memory spans for the traced benchmark run, and the hooks that record them.

Spans are recorded only from the benchmark's side: hooks replace module
attributes that the engine, evaluation and CLI call through, and proxies wrap
the backend and the prompt library. Each span keeps its name, start, end,
parent, case-run id and phase. A hook whose target attribute no longer exists
is skipped and its layer is reported as unmeasured, never as zero.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple, Optional


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    case_run: Optional[str]
    phase: str
    attrs: dict


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.spans: list[Span] = []
        self.events: list[tuple[str, float, str]] = []  # (name, value, phase)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def context(self) -> tuple[Optional[int], Optional[str]]:
        return getattr(self._local, "parent", None), getattr(self._local, "case_run", None)

    @contextmanager
    def adopt(self, parent: Optional[int], case_run: Optional[str]):
        """Run the body as if inside `parent`, for work handed to another thread."""
        saved = self.context()
        self._local.parent, self._local.case_run = parent, case_run
        try:
            yield
        finally:
            self._local.parent, self._local.case_run = saved

    @contextmanager
    def span(self, name: str, case_run: Optional[str] = None, **attrs):
        parent, inherited = self.context()
        case_run = case_run or inherited
        sid = next(self._ids)
        self._local.parent, self._local.case_run = sid, case_run
        start = perf_counter()
        try:
            yield attrs
        except BaseException:
            attrs["error"] = True
            raise
        finally:
            end = perf_counter()
            self._local.parent, self._local.case_run = parent, inherited
            self.spans.append(Span(sid, name, start, end, parent, case_run, self.phase, attrs))

    def event(self, name: str, value: float) -> None:
        self.events.append((name, value, self.phase))

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict(), default=str) + "\n")


class TracedBackend:
    """Timing proxy for a backend: one `gateway.call` span per call, tagged with the role."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def complete(self, request, case_id: str = "", agent_role: str = "") -> str:
        with self.tracer.span("gateway.call", role=agent_role):
            return self.inner.complete(request, case_id=case_id, agent_role=agent_role)


class TracedPrompts:
    """Timing proxy for a PromptLibrary: one `prompts.render` span per rendered prompt."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def __getattr__(self, name):
        fn = getattr(self.inner, name)
        if not name.endswith("_prompt"):
            return fn

        def render(*args, **kwargs):
            with self.tracer.span("prompts.render") as attrs:
                text = fn(*args, **kwargs)
                attrs["bytes"] = len(text.encode("utf-8"))
            return text
        return render


class Hooks:
    """Patched module attributes, restorable; remembers which targets were missing."""

    def __init__(self):
        self.missing: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, module, attr: str, make) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.missing.add(f"{module.__name__.rsplit('.', 1)[-1]}.{attr}")
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def install(tracer: Tracer, engine, evaluation, recovery, cli) -> Hooks:
    hooks = Hooks()
    for attr, name in (("route", "engine.route"), ("execute_specialists", "engine.specialists"),
                       ("manual_fanout", "engine.fanout"), ("aggregate", "engine.aggregate"),
                       ("run_single_llm", "engine.single_llm"),
                       ("parse_routing", "recovery.parse_routing"),
                       ("parse_verdict", "recovery.parse_verdict"),
                       ("parse_baseline", "recovery.parse_baseline")):
        hooks.patch(engine, attr, lambda fn, name=name: tracer.timed(name, fn))
    hooks.patch(cli, "read_trace", lambda fn: tracer.timed("evaluation.read_trace", fn))

    def extract_json(fn):
        def wrapper(raw):
            with tracer.span("recovery.extract_json") as attrs:
                attrs["tier"] = "none"
                outcome = fn(raw)
                strategy = getattr(outcome, "strategy_used", None)
                attrs["tier"] = getattr(strategy, "name", "unknown")
                return outcome
        return wrapper
    hooks.patch(recovery, "extract_json", extract_json)

    def run_case(fn):
        counter = itertools.count(1)

        def wrapper(vignette, cfg, *args, **kwargs):
            with tracer.span("evaluation.run_case", case_run=f"{tracer.phase}-{next(counter)}"):
                return fn(vignette, cfg, *args, **kwargs)
        return wrapper
    hooks.patch(evaluation, "run_case", run_case)

    def write_trace(fn):
        def wrapper(case_id, trace, directory, *args, **kwargs):
            events = list(trace)
            with tracer.span("evaluation.write_trace", events=len(events)) as attrs:
                path = fn(case_id, events, directory, *args, **kwargs)
            attrs["bytes"] = os.path.getsize(path)
            return path
        return wrapper
    hooks.patch(evaluation, "write_trace", write_trace)

    def executor(base):
        class TracedExecutor(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer.event("engine.executors_created", 1)

            def submit(self, fn, *args, **kwargs):
                parent, case_run = tracer.context()
                submitted = perf_counter()

                def task():
                    tracer.event("engine.queue_wait_ms", (perf_counter() - submitted) * 1000)
                    with tracer.adopt(parent, case_run):
                        return fn(*args, **kwargs)
                return super().submit(task)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                threads = getattr(self, "_threads", None)
                if threads is not None:
                    tracer.event("engine.threads_started", len(threads))
        return TracedExecutor
    hooks.patch(engine, "ThreadPoolExecutor", executor)
    return hooks


def percentile(values, q: float) -> Optional[float]:
    """Linear-interpolation percentile (q in 0..100) over the samples; None for no samples."""
    if not values:
        return None
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for start, end in sorted(children.get(s.sid, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.sid] = (s.end - s.start) - covered
    return out


PER_CASE_RUN = "count/case_run"
TIERS = ("STRICT", "FENCED_BLOCK", "BRACE_SPAN", "REPAIRED", "none")

# Metric -> the hook it depends on; a missing hook makes the metric unmeasured.
NEEDS = {
    "engine.route.self_ms": "engine.route",
    "engine.specialists.self_ms": "engine.execute_specialists",
    "engine.fanout.self_ms": "engine.manual_fanout",
    "engine.aggregate.self_ms": "engine.aggregate",
    "engine.executors_created": "engine.ThreadPoolExecutor",
    "engine.threads_started": "engine.ThreadPoolExecutor",
    "engine.queue_wait_ms.p50": "engine.ThreadPoolExecutor",
    "engine.queue_wait_ms.p90": "engine.ThreadPoolExecutor",
    "engine.fanout.reinvoked": "engine.manual_fanout",
    "recovery.route_reprompt_share": "engine.parse_routing",
    "recovery.fallback_share": "engine.parse_routing",
    "recovery.parse_verdict.us": "engine.parse_verdict",
    "recovery.parse_baseline.us": "engine.parse_baseline",
    "domain.trace_events": "evaluation.write_trace",
    "evaluation.write_trace.ms": "evaluation.write_trace",
    "evaluation.trace_kb": "evaluation.write_trace",
    "evaluation.read_trace.ms": "cli.read_trace",
    "cli.verify.ms": "cli.read_trace",
    **{f"recovery.tier.{t}": "recovery.extract_json" for t in TIERS},
    "recovery.extract_json.us": "recovery.extract_json",
}


def layer_metrics(tracer: Tracer, missing: set[str], case_runs: int, eval_wall_s: float,
                  extra: dict) -> dict[str, tuple[Optional[float], str]]:
    """Per-layer metrics of the traced run; a value of None marks an unmeasured layer.

    Counts are per case-run of the traced evaluation pass; timings are medians
    (or the stated percentile) over the spans of that pass, of set-up for the
    load timings, and of trace verification for the read-side timings.
    `extra` carries what the spans cannot give: HTTP connection and retry counts,
    the tracing overheads, and the process CPU per case-run of the untraced round.
    """
    def phase_spans(phase):
        named = defaultdict(list)
        for s in tracer.spans:
            if s.phase == phase:
                named[s.name].append(s)
        return named

    def p(spans, q=50, scale=1e3):
        return percentile([(s.end - s.start) * scale for s in spans], q)

    ev, setup, verify = phase_spans("eval"), phase_spans("setup"), phase_spans("verify")
    own = self_times([s for s in tracer.spans if s.phase in ("eval", "verify")])
    events = defaultdict(list)
    for name, value, phase in tracer.events:
        if phase == "eval":
            events[name].append(value)

    calls = ev["gateway.call"]
    roles = defaultdict(int)
    for s in calls:
        role = s.attrs.get("role")
        roles[role if role in ("orchestrator", "baseline") else "specialist"] += 1
    fanout_ids = {s.sid for s in ev["engine.fanout"]}
    attempts = defaultdict(list)  # route span -> did each parse attempt fail?
    for s in ev["recovery.parse_routing"]:
        attempts[s.parent].append(bool(s.attrs.get("error")))
    routes = len(ev["engine.route"])
    tiers = defaultdict(int)
    for s in ev["recovery.extract_json"]:
        tiers[s.attrs.get("tier")] += 1
    extracted = sum(tiers.values())
    executors = events["engine.executors_created"]
    threads = events["engine.threads_started"]

    def per_case(total):
        return total / case_runs

    def share(part, whole):
        return part / whole if whole else None

    metrics = {
        "engine.route.self_ms": (percentile([own[s.sid] * 1e3 for s in ev["engine.route"]], 50), "ms"),
        "engine.specialists.self_ms": (
            percentile([own[s.sid] * 1e3 for s in ev["engine.specialists"]], 50), "ms"),
        "engine.fanout.self_ms": (percentile([own[s.sid] * 1e3 for s in ev["engine.fanout"]], 50), "ms"),
        "engine.aggregate.self_ms": (
            percentile([own[s.sid] * 1e3 for s in ev["engine.aggregate"]], 50), "ms"),
        "engine.executors_created": (per_case(len(executors)), PER_CASE_RUN),
        "engine.threads_started": (
            per_case(sum(threads)) if threads or not executors else None, PER_CASE_RUN),
        "engine.queue_wait_ms.p50": (percentile(events["engine.queue_wait_ms"], 50), "ms"),
        "engine.queue_wait_ms.p90": (percentile(events["engine.queue_wait_ms"], 90), "ms"),
        "engine.fanout.reinvoked": (
            per_case(sum(1 for s in calls if s.parent in fanout_ids)), PER_CASE_RUN),
        "gateway.inflight_mean": (sum(s.end - s.start for s in calls) / eval_wall_s, "calls"),
        "gateway.calls.orchestrator": (per_case(roles["orchestrator"]), PER_CASE_RUN),
        "gateway.calls.specialist": (per_case(roles["specialist"]), PER_CASE_RUN),
        "gateway.calls.baseline": (per_case(roles["baseline"]), PER_CASE_RUN),
        "gateway.call_ms.p50": (p(calls, 50), "ms"),
        "gateway.call_ms.p90": (p(calls, 90), "ms"),
        "gateway.http.connections_opened": (extra["connections"], "count"),
        "gateway.retries": (extra["retries"], "count"),
        "recovery.extract_json.us": (p(ev["recovery.extract_json"], scale=1e6), "us"),
        **{f"recovery.tier.{t}": (share(tiers[t], extracted), "share") for t in TIERS},
        "recovery.route_reprompt_share": (
            share(sum(1 for a in attempts.values() if len(a) > 1), routes), "share"),
        "recovery.fallback_share": (share(sum(1 for a in attempts.values() if all(a)), routes), "share"),
        "recovery.parse_verdict.us": (p(ev["recovery.parse_verdict"], scale=1e6), "us"),
        "recovery.parse_baseline.us": (p(ev["recovery.parse_baseline"], scale=1e6), "us"),
        "prompts.render.us": (p(ev["prompts.render"], scale=1e6), "us"),
        "prompts.rendered_kb": (
            per_case(sum(s.attrs["bytes"] for s in ev["prompts.render"] if "bytes" in s.attrs)) / 1024,
            "KiB/case_run"),
        "prompts.load_ms": (p(setup["prompts.load"]), "ms"),
        "domain.trace_events": (
            per_case(sum(s.attrs["events"] for s in ev["evaluation.write_trace"])), PER_CASE_RUN),
        "evaluation.write_trace.ms": (p(ev["evaluation.write_trace"]), "ms"),
        "evaluation.trace_kb": (
            per_case(sum(s.attrs.get("bytes", 0) for s in ev["evaluation.write_trace"])) / 1024,
            "KiB/case_run"),
        "evaluation.read_trace.ms": (p(verify["evaluation.read_trace"]), "ms"),
        "cli.verify.ms": (percentile([own[s.sid] * 1e3 for s in verify["cli.replay"]], 50), "ms"),
        "evaluation.cpu_ms_per_case_run": (extra["cpu_ms_per_case_run"], "ms"),
        "evaluation.load_dataset.ms": (p(setup["evaluation.load_dataset"]), "ms"),
        "gateway.load_script.ms": (p(setup["gateway.load_script"]), "ms"),
        "trace.overhead.eval_ms_per_case_run": (extra["overhead_eval_ms"], "ms"),
        "trace.overhead.screen_ms_p50": (extra["overhead_screen_ms"], "ms"),
    }
    for metric, hook in NEEDS.items():
        if hook in missing:
            metrics[metric] = (None, metrics[metric][1])
    return metrics
