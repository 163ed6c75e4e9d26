import collections
import hashlib
import itertools
import json
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redflagcds import engine
from redflagcds.domain import Decision, GraphState, RedFlag, Stage, Vignette
from redflagcds.engine import (
    Architecture,
    FanoutMode,
    PendingNotEmpty,
    aggregate,
    run_case,
    run_cases,
)
from redflagcds.evaluation import APPROACH_ORDER, load_dataset
from redflagcds.gateway import (
    BackendUnavailable,
    DroppedToolCall,
    Fault,
    ScriptEntry,
    ScriptedBackend,
    load_script,
)
from redflagcds.prompts import PromptStrategy
from redflagcds.trace import untimed, verify_trace
from tests.conftest import (
    FIXTURES_DIR,
    TABLE1_RAW,
    CountingBackend,
    decision_of,
    full_script,
    multi_config,
    verdicts,
    within,
    yes_response,
)


def events(result, stage):
    return [e for e in result.trace if e.stage is stage]


def note(case_id="case-7"):
    return Vignette(id=case_id, text="Headache with stiff neck, fever, and vomiting.")


ROUTE_TWO = json.dumps(
    {
        "next": ["meningismus", "temporal_arteritis"],
        "why": "meningeal and arteritic clues",
        "evidence": ["stiff neck"],
    }
)


class TestRouting:
    def test_table1_routes_single_agent(self, prompts):
        backend = ScriptedBackend(full_script("case-7", TABLE1_RAW, yes_flags={RedFlag.MENINGISMUS}))
        result = run_case(note(), multi_config(backend, prompts))
        assert {f.value for f in result.predicted} == {"meningismus"}
        started = {e.subject for e in events(result, Stage.AGENT_START)}
        assert started == {RedFlag.MENINGISMUS}

    def test_empty_routing_runs_no_specialists(self, prompts):
        raw = '{"next": [], "why": "no criteria met", "evidence": []}'
        backend = ScriptedBackend([ScriptEntry("case-7", "orchestrator", raw)])
        result = run_case(note(), multi_config(backend, prompts))
        assert result.predicted == frozenset()
        assert events(result, Stage.AGENT_START) == []

    def test_unknown_name_dropped_with_warning(self, prompts):
        raw = '{"next": ["migraine", "papilledema"], "why": "x", "evidence": ["q"]}'
        backend = ScriptedBackend(full_script("case-7", raw, yes_flags={RedFlag.PAPILLEDEMA}))
        result = run_case(note(), multi_config(backend, prompts))
        assert {f.value for f in result.predicted} == {"papilledema"}
        (routing_event,) = events(result, Stage.ROUTING)
        assert any("UnknownAgentName" in w for w in routing_event.payload["warnings"])

    def test_evidence_not_in_the_note_warns(self, prompts):
        raw = '{"next": ["meningismus"], "why": "x", "evidence": ["stiff neck", "papilledema"]}'
        backend = ScriptedBackend(full_script("case-7", raw))
        result = run_case(note(), multi_config(backend, prompts))
        (routing_event,) = events(result, Stage.ROUTING)
        assert routing_event.payload["warnings"] == [
            "EvidenceNotInNote: 'papilledema' is not a quote from the note"
        ]

    def test_garbage_falls_back_to_all_seven(self, prompts):
        entries = full_script("case-7", "complete garbage, no json", yes_flags={RedFlag.MENINGISMUS})
        backend = ScriptedBackend(entries)
        result = run_case(note(), multi_config(backend, prompts))
        assert len(verdicts(result)) == 7
        assert any(
            "exhaustive fallback" in e.payload.get("message", "")
            for e in events(result, Stage.WARNING)
        )

    def test_orchestrator_backend_failure_propagates(self, prompts):
        backend = ScriptedBackend(
            [ScriptEntry("case-7", "orchestrator", fault=Fault.HTTP_500)]
        )
        with pytest.raises(BackendUnavailable):
            run_case(note(), multi_config(backend, prompts))


class TestFanout:
    def test_dropped_call_recovered_by_fanout(self, prompts):
        entries = full_script(
            "fig2",
            ROUTE_TWO,
            yes_flags={RedFlag.MENINGISMUS, RedFlag.TEMPORAL_ARTERITIS},
            faults={RedFlag.TEMPORAL_ARTERITIS: Fault.DROPPED},
        )
        backend = ScriptedBackend(entries)
        result = run_case(note("fig2"), multi_config(backend, prompts))
        assert {f.value for f in result.predicted} == {"meningismus", "temporal_arteritis"}
        (fanout,) = events(result, Stage.FANOUT)
        assert fanout.payload["missing"] == ["temporal_arteritis"]

    def test_fanout_empty_when_nothing_missing(self, prompts):
        backend = ScriptedBackend(full_script("case-7", TABLE1_RAW, yes_flags={RedFlag.MENINGISMUS}))
        result = run_case(note(), multi_config(backend, prompts))
        (fanout,) = events(result, Stage.FANOUT)
        assert fanout.payload["missing"] == []

    def test_exhaustive_mode_runs_all_seven(self, prompts):
        backend = ScriptedBackend(full_script("case-7", TABLE1_RAW, yes_flags={RedFlag.MENINGISMUS}))
        cfg = multi_config(backend, prompts, fanout_mode=FanoutMode.EXHAUSTIVE)
        result = run_case(note(), cfg)
        assert len(verdicts(result)) == 7
        (fanout,) = events(result, Stage.FANOUT)
        assert len(fanout.payload["missing"]) == 6

    def test_routed_mode_skips_unrouted_agents(self, prompts):
        backend = ScriptedBackend(
            full_script("case-7", ROUTE_TWO, yes_flags={RedFlag.MENINGISMUS})
        )
        result = run_case(note(), multi_config(backend, prompts))
        started = {e.subject for e in events(result, Stage.AGENT_START)}
        assert started == {RedFlag.MENINGISMUS, RedFlag.TEMPORAL_ARTERITIS}


class TestEarlySends:
    """Step 1 sends, with the routing call, the calls of the flags expected before
    routing is known: all seven under EXHAUSTIVE, none under ROUTED."""

    def _run(self, prompts, entries, mode, delay=0.05):
        backend = CountingBackend(ScriptedBackend(entries), delay=delay)
        cfg = multi_config(backend, prompts, fanout_mode=mode, concurrency=8)
        result = within(30, lambda: run_case(note(), cfg))
        return backend.calls, result

    def test_exhaustive_sends_all_seven_specialists_at_once(self, prompts):
        calls, result = self._run(prompts, full_script("case-7", TABLE1_RAW),
                                  FanoutMode.EXHAUSTIVE)
        assert sorted(c.role for c in calls) == sorted(
            ["orchestrator", *(f.value for f in RedFlag)])
        # all eight calls start before the first one ends: one call round, not two
        assert max(c.start for c in calls) < min(c.end for c in calls)
        # the trace still records the six unrouted flags in step 3
        (fanout,) = events(result, Stage.FANOUT)
        assert len(fanout.payload["missing"]) == 6
        starts = [e.subject for e in events(result, Stage.AGENT_START)
                  if e.sequence > fanout.sequence]
        assert starts == [f for f in RedFlag if f is not RedFlag.MENINGISMUS]

    def test_routing_call_is_sent_first(self, prompts):
        # specialist prompts render as their calls are sent, all after the routing call's
        backend = CountingBackend(ScriptedBackend(full_script("case-7", TABLE1_RAW)), delay=0)
        cfg = multi_config(backend, prompts, fanout_mode=FanoutMode.EXHAUSTIVE, concurrency=1)
        run_case(note(), cfg)
        assert [c.role for c in backend.calls] == ["orchestrator", *(f.value for f in RedFlag)]

    def test_routed_mode_sends_nothing_early(self, prompts):
        entries = full_script("case-7", ROUTE_TWO, faults={RedFlag.MENINGISMUS: Fault.DROPPED})
        calls, _ = self._run(prompts, entries, FanoutMode.ROUTED)
        route_call, *specialists = sorted(calls, key=lambda c: c.start)
        assert route_call.role == "orchestrator"
        assert sorted(c.role for c in specialists) == [
            "meningismus", "meningismus", "temporal_arteritis"]
        *step2, rerun = specialists
        assert rerun.role == "meningismus"
        assert route_call.end <= min(c.start for c in step2)
        assert max(c.end for c in step2) <= rerun.start  # the re-run waits for step 2

    @pytest.mark.parametrize("mode", list(FanoutMode))
    def test_calls_per_role_and_dropped_outcomes(self, prompts, mode):
        # temporal_arteritis is routed and dropped: its re-run recovers it. Papilledema
        # is unrouted and dropped: under EXHAUSTIVE its one call ends in ERROR.
        faults = {RedFlag.TEMPORAL_ARTERITIS: Fault.DROPPED, RedFlag.PAPILLEDEMA: Fault.DROPPED}
        entries = full_script("case-7", ROUTE_TWO, yes_flags={RedFlag.TEMPORAL_ARTERITIS},
                              faults=faults)
        calls, result = self._run(prompts, entries, mode, delay=0.01)
        per_role = collections.Counter(c.role for c in calls)
        expected = {"orchestrator": 1, "meningismus": 1, "temporal_arteritis": 2}
        if mode is FanoutMode.EXHAUSTIVE:
            expected.update({f.value: 1 for f in RedFlag if f.value not in expected})
        assert per_role == expected
        first, rerun = [c for c in calls if c.role == "temporal_arteritis"]
        assert first.end <= rerun.start
        assert decision_of(result, RedFlag.TEMPORAL_ARTERITIS) is Decision.YES
        if mode is FanoutMode.EXHAUSTIVE:
            verdict = verdicts(result)[RedFlag.PAPILLEDEMA]
            assert verdict["decision"] == "ERROR"
            assert "scripted drop" in verdict["error_detail"]
            (fanout,) = events(result, Stage.FANOUT)
            assert "temporal_arteritis" in fanout.payload["missing"]
            assert "papilledema" in fanout.payload["missing"]
        else:
            assert RedFlag.PAPILLEDEMA not in verdicts(result)

    @pytest.mark.parametrize("mode, specialist_calls", [
        (FanoutMode.ROUTED, 0), (FanoutMode.EXHAUSTIVE, len(RedFlag))])
    def test_hard_orchestrator_fault_costs_the_calls_sent_with_it(
            self, prompts, mode, specialist_calls):
        entries = full_script("case-7", TABLE1_RAW)
        entries[0] = ScriptEntry("case-7", "orchestrator", fault=Fault.TIMEOUT)
        backend = CountingBackend(ScriptedBackend(entries), delay=0.01)
        cfg = multi_config(backend, prompts, fanout_mode=mode, concurrency=8)
        with pytest.raises(BackendUnavailable, match="TIMEOUT"):
            within(30, lambda: run_case(note(), cfg))
        # the specialist calls sent with the routing call are not cancelled, they end
        # before the case fails, and their answers are discarded: the count does not
        # depend on timing
        assert backend.in_flight == 0
        per_role = collections.Counter(c.role for c in backend.calls)
        assert per_role.pop("orchestrator") == 1
        assert sum(per_role.values()) == specialist_calls
        assert set(per_role.values()) <= {1}

    @pytest.mark.parametrize("mode", list(FanoutMode))
    def test_fallback_takes_up_the_calls_in_flight(self, prompts, mode):
        entries = full_script("case-7", "no routing here", yes_flags={RedFlag.PAPILLEDEMA})
        calls, result = self._run(prompts, entries, mode, delay=0.01)
        per_role = collections.Counter(c.role for c in calls)
        assert per_role == {"orchestrator": 1, **{f.value: 1 for f in RedFlag}}
        (warning,) = events(result, Stage.WARNING)
        assert warning.payload["raw"] == "no routing here"
        (routing,) = events(result, Stage.ROUTING)
        assert routing.payload["fallback"] is True
        (fanout,) = events(result, Stage.FANOUT)
        assert fanout.payload["missing"] == []  # the fallback routed all seven in step 2
        assert {f.value for f in result.predicted} == {"papilledema"}
        assert all(v["decision"] != "ERROR" for v in verdicts(result).values())


class TestErrorIsolation:
    def test_one_failing_agent_does_not_stop_the_other(self, prompts):
        entries = full_script(
            "case-7",
            ROUTE_TWO,
            yes_flags={RedFlag.MENINGISMUS},
            faults={RedFlag.TEMPORAL_ARTERITIS: Fault.HTTP_500},
        )
        result = run_case(note(), multi_config(ScriptedBackend(entries), prompts))
        assert decision_of(result, RedFlag.MENINGISMUS) is Decision.YES
        assert decision_of(result, RedFlag.TEMPORAL_ARTERITIS) is Decision.ERROR
        assert {f.value for f in result.predicted} == {"meningismus"}

    def test_empty_output_becomes_error_verdict(self, prompts):
        entries = full_script("case-7", TABLE1_RAW)
        entries[2] = ScriptEntry("case-7", "meningismus", fault=Fault.EMPTY)
        result = run_case(note(), multi_config(ScriptedBackend(entries), prompts))
        verdict = verdicts(result)[RedFlag.MENINGISMUS]
        assert verdict["decision"] == "ERROR"
        assert verdict["error_detail"] == "no YES/NO token"

    def test_fault_free_verdicts_unchanged_by_injection(self, prompts):
        route_all = json.dumps(
            {"next": [f.value for f in RedFlag], "why": "all", "evidence": ["q"]}
        )
        baseline = run_case(
            note(),
            multi_config(ScriptedBackend(full_script("case-7", route_all, set(RedFlag))), prompts),
        )
        for victim in RedFlag:
            entries = full_script(
                "case-7", route_all, set(RedFlag), faults={victim: Fault.HTTP_500}
            )
            result = run_case(note(), multi_config(ScriptedBackend(entries), prompts))
            assert decision_of(result, victim) is Decision.ERROR
            for flag in RedFlag:
                if flag is not victim:
                    assert verdicts(result)[flag] == verdicts(baseline)[flag]


class TestTraceShape:
    def test_one_routing_one_fanout_one_aggregate_last(self, prompts):
        backend = ScriptedBackend(full_script("case-7", ROUTE_TWO, {RedFlag.MENINGISMUS}))
        result = run_case(note(), multi_config(backend, prompts))
        assert len(events(result, Stage.ROUTING)) == 1
        assert len(events(result, Stage.FANOUT)) == 1
        assert len(events(result, Stage.AGGREGATE)) == 1
        assert result.trace[-1].stage is Stage.AGGREGATE

    def test_sequences_strictly_increasing(self, prompts):
        backend = ScriptedBackend(full_script("case-7", ROUTE_TWO, {RedFlag.MENINGISMUS}))
        result = run_case(note(), multi_config(backend, prompts))
        sequences = [e.sequence for e in result.trace]
        assert sequences == sorted(set(sequences))

    def test_all_starts_precede_the_merge(self, prompts):
        route_all = json.dumps(
            {"next": [f.value for f in RedFlag], "why": "all", "evidence": ["q"]}
        )
        backend = ScriptedBackend(full_script("case-7", route_all, set(RedFlag)))
        result = run_case(note(), multi_config(backend, prompts))
        stages = [e.stage for e in result.trace]
        first_done = stages.index(Stage.AGENT_DONE)
        assert stages[:first_done].count(Stage.AGENT_START) == 7

    def test_determinism_modulo_wall_time(self, prompts):
        def one_run():
            backend = ScriptedBackend(full_script("case-7", ROUTE_TWO, {RedFlag.MENINGISMUS}))
            result = run_case(note(), multi_config(backend, prompts))
            return [
                (e.sequence, e.stage.value, e.subject.value if e.subject else None, e.payload)
                for e in result.trace
            ]

        assert one_run() == one_run()


class TestAggregate:
    def test_error_counts_as_non_prediction(self, prompts):
        state = GraphState(note=note())
        from redflagcds.domain import AgentVerdict

        state.apply_verdict(
            AgentVerdict(flag=RedFlag.PAPILLEDEMA, decision=Decision.ERROR, error_detail="x")
        )
        result = aggregate(state)
        assert result.predicted == frozenset()

    def test_pending_not_empty_guard(self, prompts):
        state = GraphState(note=note())
        state.add_event(Stage.AGENT_START, subject=RedFlag.PAPILLEDEMA)
        with pytest.raises(PendingNotEmpty, match="papilledema"):
            aggregate(state)

    def test_empty_verdicts_is_a_valid_result(self, prompts):
        result = aggregate(GraphState(note=note()))
        assert result.predicted == frozenset()
        assert verdicts(result) == {}


class TestSingleLlm:
    def _config(self, backend, prompts):
        return multi_config(backend, prompts, architecture=Architecture.SINGLE_LLM)

    def test_seven_lines_two_yes(self, prompts):
        raw = "\n".join(
            f"{f.value}: {'YES' if f.value in ('thunderclap', 'focal_deficits') else 'NO'}"
            for f in RedFlag
        )
        backend = ScriptedBackend([ScriptEntry("case-7", "baseline", raw)])
        result = run_case(note(), self._config(backend, prompts))
        assert {f.value for f in result.predicted} == {"thunderclap", "focal_deficits"}
        assert len(verdicts(result)) == 7

    def test_missing_line_is_error_verdict(self, prompts):
        raw = "\n".join(f"{f.value}: NO" for f in RedFlag if f is not RedFlag.FOCAL_DEFICITS)
        backend = ScriptedBackend([ScriptEntry("case-7", "baseline", raw)])
        result = run_case(note(), self._config(backend, prompts))
        assert decision_of(result, RedFlag.FOCAL_DEFICITS) is Decision.ERROR

    def test_empty_response_gives_seven_errors(self, prompts):
        backend = ScriptedBackend([ScriptEntry("case-7", "baseline", fault=Fault.EMPTY)])
        result = run_case(note(), self._config(backend, prompts))
        assert all(v["decision"] == "ERROR" for v in verdicts(result).values())
        assert result.predicted == frozenset()

    def test_trace_records_raw_exchange_without_routing(self, prompts):
        raw = "\n".join(f"{f.value}: NO" for f in RedFlag)
        backend = ScriptedBackend([ScriptEntry("case-7", "baseline", raw)])
        result = run_case(note(), self._config(backend, prompts))
        assert events(result, Stage.ROUTING) == []
        (agg,) = events(result, Stage.AGGREGATE)
        assert agg.payload["raw"] == raw


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class PromptRecorder:
    """Wraps a backend and a prompt library: records each call's (role, prompt digest) and
    counts the prompts rendered."""

    def __init__(self, backend, prompts):
        self.backend, self.prompts = backend, prompts
        self.sent: list[tuple[str, str]] = []
        self.rendered = 0
        self._lock = threading.Lock()

    def complete(self, request, case_id: str = "", agent_role: str = "") -> str:
        with self._lock:
            self.sent.append((agent_role, sha256(request)))
        return self.backend.complete(request, case_id=case_id, agent_role=agent_role)

    def __getattr__(self, name):  # the prompt library's methods, counted
        render = getattr(self.prompts, name)

        def counted(*args, **kwargs):
            with self._lock:
                self.rendered += 1
            return render(*args, **kwargs)
        return counted


class TestPromptDigests:
    """Each call's prompt digest is on the event that stands for it: ROUTING for the
    orchestrator, AGENT_START for a specialist, AGGREGATE for the single-LLM baseline."""

    @pytest.mark.parametrize("mode", list(FanoutMode))
    @pytest.mark.parametrize("routing", [ROUTE_TWO, "no json: fallback"])
    def test_every_start_carries_the_digest_of_its_call(self, prompts, mode, routing):
        # temporal_arteritis drops once, so fan-out re-runs it when it is routed
        entries = full_script("case-7", routing, faults={RedFlag.TEMPORAL_ARTERITIS: Fault.DROPPED})
        recorder = PromptRecorder(ScriptedBackend(entries), prompts)
        cfg = multi_config(recorder, recorder, fanout_mode=mode)
        result = run_case(note(), cfg)
        (routing_event,) = events(result, Stage.ROUTING)
        digest = routing_event.payload["prompt_sha256"]
        assert digest == sha256(prompts.orchestrator_prompt(note()))
        orchestrator = [d for role, d in recorder.sent if role == "orchestrator"]
        assert orchestrator == [digest]
        starts = [(e.subject.value, e.payload["prompt_sha256"])
                  for e in events(result, Stage.AGENT_START)]
        assert collections.Counter(starts) == collections.Counter(
            call for call in recorder.sent if call[0] != "orchestrator")
        for flag, digest in starts:
            assert digest == sha256(prompts.specialist_prompt(
                RedFlag(flag), PromptStrategy.GPROMPT, note()))
        # one render per specialist call, and one for the routing call
        assert recorder.rendered == len(recorder.sent) - len(orchestrator) + 1

    @pytest.mark.parametrize("strategy", list(PromptStrategy))
    def test_single_llm_aggregate_carries_the_baseline_digest(self, prompts, strategy):
        backend = ScriptedBackend([ScriptEntry("case-7", "baseline", "thunderclap: NO")])
        cfg = multi_config(backend, prompts, architecture=Architecture.SINGLE_LLM,
                           strategy=strategy)
        (agg,) = events(run_case(note(), cfg), Stage.AGGREGATE)
        assert agg.payload["prompt_sha256"] == sha256(prompts.baseline_prompt(strategy, note()))

    @pytest.mark.parametrize("mode", list(FanoutMode))
    def test_fanout_records_its_mode(self, prompts, mode):
        backend = ScriptedBackend(full_script("case-7", ROUTE_TWO))
        result = run_case(note(), multi_config(backend, prompts, fanout_mode=mode))
        (fanout,) = events(result, Stage.FANOUT)
        assert fanout.payload["mode"] == mode.value


class TestCoverageProperty:
    def test_random_routings_and_drops(self, prompts):
        """Every target of the fan-out rule ends with exactly one verdict, whatever the
        routing and the DROPPED and HTTP_500 faults: `verify_trace` finds no problem."""
        rng = random.Random(1234)
        flags = list(RedFlag)
        for i in range(60):
            case_id = f"rand{i}"
            routed = set(rng.sample(flags, rng.randint(0, 7)))
            faults = {f: rng.choice([Fault.DROPPED, Fault.HTTP_500])
                      for f in flags if rng.random() < 0.4}
            raw = json.dumps(
                {"next": [f.value for f in routed], "why": "r", "evidence": ["q"]}
            )
            mode = FanoutMode.EXHAUSTIVE if i % 3 == 0 else FanoutMode.ROUTED
            backend = ScriptedBackend(full_script(case_id, raw, routed, faults))
            cfg = multi_config(backend, prompts, fanout_mode=mode)
            result = run_case(Vignette(id=case_id, text="note text"), cfg)
            assert verify_trace(list(result.trace)) == []
            completed = set(verdicts(result))
            if mode is FanoutMode.EXHAUSTIVE:
                assert completed == set(RedFlag)
            else:
                assert completed == routed
            # a drop is run again only where step 2 read it, for a routed flag
            errors = {f for f in completed if faults.get(f) is Fault.HTTP_500
                      or faults.get(f) is Fault.DROPPED and f not in routed}
            assert {f for f in completed if decision_of(result, f) is Decision.ERROR} == errors


class TestScheduler:
    CASES = [f"c{i:02d}" for i in range(12)]

    def _backend(self, orchestrator_faults=()):
        """Each case routes to one flag; exhaustive fan-out then adds the other six."""
        entries = []
        for case_id in self.CASES:
            entries += full_script(case_id, TABLE1_RAW, yes_flags={RedFlag.MENINGISMUS})
        failed = {(case_id, "orchestrator") for case_id in orchestrator_faults}
        entries = [e for e in entries if e.key not in failed]
        entries += [ScriptEntry(*key, fault=Fault.HTTP_500) for key in failed]
        return ScriptedBackend(entries)

    def _notes(self):
        return [note(case_id) for case_id in self.CASES]

    @pytest.mark.parametrize("bound, peak", [({"concurrency": 3}, 3), ({"concurrency": 1}, 1),
                                             ({}, 8)], ids=["3", "1", "default"])
    def test_in_flight_calls_capped_across_cases(self, prompts, bound, peak):
        backend = CountingBackend(self._backend())
        cfg = multi_config(backend, prompts, fanout_mode=FanoutMode.EXHAUSTIVE, **bound)
        results = within(30, lambda: list(run_cases(self._notes(), cfg)))
        assert [r.case_id for r in results] == self.CASES  # input order
        assert all(len(verdicts(r)) == 7 for r in results)
        assert len(backend.calls) == 12 * 8
        assert backend.peak == peak
        overlapping = any(
            a[0] != b[0] and a[1] < b[2] and b[1] < a[2]
            for a, b in itertools.combinations(backend.calls, 2)
        )
        assert overlapping is (peak > 1)

    def test_two_executors_per_run_cases_and_one_per_run_case(self, prompts, monkeypatch):
        created = []

        class Counted(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(engine, "ThreadPoolExecutor", Counted)
        cfg = multi_config(self._backend(), prompts, fanout_mode=FanoutMode.EXHAUSTIVE,
                           concurrency=4)
        within(30, lambda: list(run_cases(self._notes(), cfg)))
        assert len(created) == 2
        within(30, lambda: run_case(note("c00"), cfg))
        assert len(created) == 3
        within(30, lambda: list(run_cases(self._notes(), cfg, cfg, cfg)))  # one run, three rows
        assert len(created) == 5

    def test_a_failed_case_is_yielded_in_its_place(self, prompts):
        cfg = multi_config(self._backend(orchestrator_faults={"c05"}), prompts, concurrency=4)
        outcomes = within(30, lambda: list(run_cases(self._notes(), cfg)))
        assert isinstance(outcomes[5], BackendUnavailable)
        others = outcomes[:5] + outcomes[6:]
        assert [r.case_id for r in others] == self.CASES[:5] + self.CASES[6:]

    def test_closing_early_cancels_cases_not_started(self, prompts):
        # calls long enough that the close comes while c01 is still running
        backend = CountingBackend(self._backend(), delay=0.1)
        cfg = multi_config(backend, prompts, concurrency=1)

        def first_only():
            outcomes = run_cases(self._notes(), cfg)
            first = next(outcomes)
            outcomes.close()
            return first

        assert within(30, first_only).case_id == "c00"
        # c01 may have started before the close; nothing later ran
        assert {call.case_id for call in backend.calls} <= {"c00", "c01"}

    def test_no_cases_no_calls(self, prompts):
        backend = CountingBackend(self._backend())
        assert within(30, lambda: list(run_cases([], multi_config(backend, prompts)))) == []
        assert backend.calls == []


class TestMatrixScheduler:
    """Two rows through one `run_cases` at concurrency 3. c00 routes to all seven flags,
    and every specialist call drops once, so its row-1 run needs a fan-out round and
    lasts long after c01 and c02, which route to none, have freed their coordinators.
    Each row's backend records that row's calls; both wrap one shared backend that
    sees every call of the run."""

    CASES = ["c00", "c01", "c02"]

    def _run(self, prompts):
        route_all = json.dumps(
            {"next": [f.value for f in RedFlag], "why": "all seven", "evidence": ["stiff neck"]})
        route_none = json.dumps({"next": [], "why": "no red flag", "evidence": []})
        entries = full_script("c00", route_all, faults=dict.fromkeys(RedFlag, Fault.DROPPED))
        for case_id in self.CASES[1:]:
            entries += full_script(case_id, route_none)
        shared = CountingBackend(ScriptedBackend(entries), delay=0.02)
        rows = [CountingBackend(shared, delay=0), CountingBackend(shared, delay=0)]
        matrix = [multi_config(rows[0], prompts, strategy=PromptStrategy.QPROMPT, concurrency=3),
                  multi_config(rows[1], prompts, concurrency=3)]
        notes = [note(case_id) for case_id in self.CASES]
        outcomes = within(30, lambda: list(run_cases(notes, *matrix)))
        assert [r.case_id for r in outcomes] == self.CASES * 2  # row by row, input order
        return shared, rows, outcomes

    def test_a_case_runs_its_rows_in_matrix_order(self, prompts):
        _, (first, second), outcomes = self._run(prompts)
        for case_id in self.CASES:
            row1_end = max(c.end for c in first.calls if c.case_id == case_id)
            row2_start = min(c.start for c in second.calls if c.case_id == case_id)
            assert row1_end <= row2_start, case_id
        # so every one-shot drop lands in row 1, and fan-out recovers it there
        assert len(first.calls) == 1 + 7 + 7 + 2 and len(second.calls) == 1 + 7 + 2
        assert len(events(outcomes[0], Stage.WARNING)) == 7
        assert events(outcomes[3], Stage.WARNING) == []

    def test_rows_overlap(self, prompts):
        _, (first, second), _ = self._run(prompts)
        assert min(c.start for c in second.calls) < max(c.end for c in first.calls)

    def test_in_flight_calls_capped_across_rows(self, prompts):
        shared, _, _ = self._run(prompts)
        assert len(shared.calls) == 17 + 10
        assert shared.peak == 3

    def test_rows_with_different_concurrency_rejected(self, prompts):
        backend = CountingBackend(ScriptedBackend(full_script("c00", TABLE1_RAW)))
        matrix = [multi_config(backend, prompts, concurrency=2),
                  multi_config(backend, prompts, concurrency=3)]
        with pytest.raises(ValueError, match="same concurrency"):
            list(run_cases([note("c00")], *matrix))
        assert backend.calls == []


class JitterBackend:
    """Wraps a backend: each call first sleeps 0-4 ms, drawn from a seeded generator."""

    def __init__(self, inner, seed):
        self.inner = inner
        self.rng = random.Random(seed)
        self.lock = threading.Lock()

    def complete(self, request, case_id="", agent_role=""):
        with self.lock:
            delay = self.rng.uniform(0, 0.004)
        time.sleep(delay)
        return self.inner.complete(request, case_id=case_id, agent_role=agent_role)


def fixture_outcomes(prompts, mode, concurrency=1, seed=None):
    """Every fixture case-run's untimed trace (or its exception's type and text), from one
    `run_cases` of the four rows on a fresh script; with a seed, each call is delayed."""
    backend = ScriptedBackend(load_script(FIXTURES_DIR / "script.jsonl"))
    if seed is not None:
        backend = JitterBackend(backend, seed)
    matrix = [multi_config(backend, prompts, architecture=architecture, strategy=strategy,
                           fanout_mode=mode, concurrency=concurrency)
              for architecture, strategy in APPROACH_ORDER]
    vignettes = [case.vignette for case in load_dataset(FIXTURES_DIR / "cases.jsonl")]
    return [(type(o), str(o)) if isinstance(o, Exception)
            else [untimed(e.to_json_dict()) for e in o.trace]
            for o in within(60, lambda: list(run_cases(vignettes, *matrix)))]


SERIAL_OUTCOMES = {}  # fan-out mode -> fixture_outcomes at concurrency 1 with no delay


@settings(max_examples=10, deadline=None)
@given(mode=st.sampled_from(list(FanoutMode)), concurrency=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_any_concurrency_under_random_delays_gives_the_serial_traces(
        prompts, mode, concurrency, seed):
    """Whatever order the calls end in, the merge in canonical flag order, the matrix
    order per case and fan-out's missing set give every case-run the serial run's trace."""
    if mode not in SERIAL_OUTCOMES:
        SERIAL_OUTCOMES[mode] = fixture_outcomes(prompts, mode)
    assert len(SERIAL_OUTCOMES[mode]) == 4 * 22
    assert fixture_outcomes(prompts, mode, concurrency, seed) == SERIAL_OUTCOMES[mode]


class TestExhaustiveMatrixOrder:
    """Both multi-agent rows through one `run_cases` under EXHAUSTIVE fan-out, where step 1
    sends every specialist call with the routing call. Each row's backend records that
    row's calls; both wrap one shared scripted backend, whose DROPPED faults are one-shot."""

    def _run(self, prompts, entries, concurrency=8):
        shared = CountingBackend(ScriptedBackend(entries), delay=0.02)
        rows = [CountingBackend(shared, delay=0), CountingBackend(shared, delay=0)]
        matrix = [multi_config(row, prompts, strategy=strategy, concurrency=concurrency,
                               fanout_mode=FanoutMode.EXHAUSTIVE)
                  for row, strategy in zip(rows, [PromptStrategy.QPROMPT, PromptStrategy.GPROMPT])]
        outcomes = within(30, lambda: list(run_cases([note()], *matrix)))
        first, second = rows
        assert max(c.end for c in first.calls) <= min(c.start for c in second.calls)
        return first.calls, second.calls, outcomes

    def test_drop_of_an_unrouted_flag_lands_in_row_1(self, prompts):
        # TABLE1_RAW routes to meningismus only; papilledema is unrouted
        entries = full_script("case-7", TABLE1_RAW, faults={RedFlag.PAPILLEDEMA: Fault.DROPPED})
        first, second, (row1, row2) = self._run(prompts, entries)
        assert len(first) == len(second) == 1 + len(RedFlag)
        verdict = verdicts(row1)[RedFlag.PAPILLEDEMA]
        assert verdict["decision"] == "ERROR"
        assert "scripted drop" in verdict["error_detail"]
        assert decision_of(row2, RedFlag.PAPILLEDEMA) is Decision.NO
        assert events(row2, Stage.AGENT_ERROR) == []

    @pytest.mark.parametrize("failure, concurrency",
                             [("routing call dropped", 2), ("step 2 raises", 3)])
    def test_a_failed_case_run_ends_after_the_calls_it_sent(self, prompts, monkeypatch, failure,
                                                            concurrency):
        # row 1's case fails after step 1 sent the seven specialist calls: its routing call is
        # dropped, or step 2 raises before it reads one; the seven calls still end before
        # row 2 starts, and one of them takes the drop. With three slots, a row 2 that did not
        # wait would start its routing call 20 ms before row 1's last two calls end.
        entries = full_script("case-7", TABLE1_RAW, faults={RedFlag.PAPILLEDEMA: Fault.DROPPED})
        if failure == "routing call dropped":
            entries[0] = ScriptEntry("case-7", "orchestrator", TABLE1_RAW, fault=Fault.DROPPED)
            expected = DroppedToolCall
        else:
            execute = engine.execute_specialists

            def execute_in_row_2(state, cfg, *args):
                if cfg.strategy is PromptStrategy.QPROMPT:
                    raise RuntimeError("step 2 failed")
                return execute(state, cfg, *args)
            monkeypatch.setattr(engine, "execute_specialists", execute_in_row_2)
            expected = RuntimeError
        first, second, (row1, row2) = self._run(prompts, entries, concurrency)
        assert isinstance(row1, expected)
        assert len(first) == len(second) == 1 + len(RedFlag)
        assert events(row2, Stage.AGENT_ERROR) == []
        assert len(verdicts(row2)) == len(RedFlag)


class TestRunCase:
    """`run_case` runs one case-run on the caller's thread with one call executor; it
    must give what `run_cases` gives for that case and return only after its calls."""

    @pytest.mark.parametrize("mode", list(FanoutMode))
    @pytest.mark.parametrize("approach", APPROACH_ORDER, ids=lambda a: getattr(a, "value", a))
    def test_same_outcome_as_run_cases_on_every_fixture_case(self, prompts, approach, mode):
        vignettes = [case.vignette for case in load_dataset(FIXTURES_DIR / "cases.jsonl")]
        entries = load_script(FIXTURES_DIR / "script.jsonl")
        architecture, strategy = approach

        def cfg():  # a fresh script per path: DROPPED faults are one-shot
            return multi_config(ScriptedBackend(entries), prompts, architecture=architecture,
                                strategy=strategy, fanout_mode=mode)

        def untimed_outcome(outcome):
            if isinstance(outcome, Exception):
                return type(outcome), str(outcome)
            return outcome.predicted, [untimed(e.to_json_dict()) for e in outcome.trace]

        many = within(60, lambda: list(run_cases(vignettes, cfg())))
        one, single = [], cfg()
        for vignette in vignettes:
            try:
                one.append(run_case(vignette, single))
            except Exception as exc:  # a case-level failure, as run_cases yields it
                one.append(exc)
        assert len(one) == len(many) == 22
        assert [untimed_outcome(o) for o in one] == [untimed_outcome(o) for o in many]

    def test_returns_with_no_call_in_flight(self, prompts):
        # TABLE1_RAW routes to meningismus, so its dropped call is sent again in fan-out
        entries = full_script("case-7", TABLE1_RAW, faults={RedFlag.MENINGISMUS: Fault.DROPPED})
        backend = CountingBackend(ScriptedBackend(entries), delay=0.01)
        cfg = multi_config(backend, prompts, fanout_mode=FanoutMode.EXHAUSTIVE)
        within(30, lambda: run_case(note(), cfg))
        assert backend.in_flight == 0
        assert len(backend.calls) == 1 + len(RedFlag) + 1

    @staticmethod
    def _screen(prompts, concurrency, delay=0.02):
        """A fresh backend and config for a screen routed to all seven flags, each dropped
        once, so fan-out sends seven more calls."""
        route_all = json.dumps({"next": [f.value for f in RedFlag], "why": "all", "evidence": []})
        entries = full_script("case-7", route_all, faults=dict.fromkeys(RedFlag, Fault.DROPPED))
        backend = CountingBackend(ScriptedBackend(entries), delay=delay)
        return backend, multi_config(backend, prompts, fanout_mode=FanoutMode.EXHAUSTIVE,
                                     concurrency=concurrency)

    @staticmethod
    def _call_threads(threads):
        return [t for t in threads if t.name.startswith("redflagcds-call")]

    @staticmethod
    def _alive_within(threads, seconds):
        """The threads still alive after waiting up to `seconds` for all of them to end."""
        deadline = time.monotonic() + seconds
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        return [t for t in threads if t.is_alive()]

    @pytest.mark.parametrize("concurrency", [1, 3, 8])
    def test_starts_no_coordinator_and_at_most_concurrency_call_threads(
            self, prompts, started_threads, concurrency):
        backend, cfg = self._screen(prompts, concurrency)
        within(30, lambda: run_case(note(), cfg))
        assert len(backend.calls) == 1 + 2 * len(RedFlag)
        assert backend.peak == concurrency
        engine_threads = [t for t in started_threads if t.name.startswith("redflagcds-")]
        assert engine_threads and engine_threads == self._call_threads(started_threads)
        assert len(engine_threads) <= concurrency

    @pytest.mark.parametrize("concurrency", [1, 8])
    def test_later_screens_on_a_thread_start_no_thread_and_trace_as_on_a_fresh_one(
            self, prompts, started_threads, concurrency):
        def screen():
            backend, cfg = self._screen(prompts, concurrency)
            before = len(started_threads)
            trace = [untimed(e.to_json_dict()) for e in run_case(note(), cfg).trace]
            return trace, backend.peak, started_threads[before:]

        screens = within(30, lambda: [screen() for _ in range(3)])
        fresh, _, _ = within(30, screen)
        assert [trace for trace, _, _ in screens] == [fresh] * 3
        assert [peak for _, peak, _ in screens] == [concurrency] * 3
        (_, _, first), *later = screens
        assert 1 <= len(first) <= concurrency and first == self._call_threads(first)
        assert [threads for _, _, threads in later] == [[], []]

    def test_two_threads_screening_at_once_each_have_their_own_call_bound(self, prompts):
        # a call executor shared across threads would hold both screens to one call
        entries = [entry for case_id in ("a", "b") for entry in full_script(case_id, TABLE1_RAW)]
        backend = CountingBackend(ScriptedBackend(entries), delay=0.02)
        cfg = multi_config(backend, prompts, fanout_mode=FanoutMode.EXHAUSTIVE, concurrency=1)
        together = threading.Barrier(2)

        def screen(case_id):
            together.wait(timeout=10)
            return run_case(note(case_id), cfg)

        with ThreadPoolExecutor(2) as screens:
            a, b = screens.submit(screen, "a"), screens.submit(screen, "b")
            results = [a.result(timeout=30), b.result(timeout=30)]
        assert [len(verdicts(r)) for r in results] == [7, 7]
        assert backend.peak == 2

    def test_a_screen_after_a_failed_routing_call_still_reaches_its_call_bound(self, prompts):
        entries = full_script("case-7", TABLE1_RAW)
        entries[0] = ScriptEntry("case-7", "orchestrator", fault=Fault.TIMEOUT)
        failed = CountingBackend(ScriptedBackend(entries), delay=0.01)
        failing = multi_config(failed, prompts, fanout_mode=FanoutMode.EXHAUSTIVE, concurrency=3)
        backend, cfg = self._screen(prompts, 3)

        def screens():
            with pytest.raises(BackendUnavailable, match="TIMEOUT"):
                run_case(note(), failing)
            return run_case(note(), cfg)

        assert len(verdicts(within(30, screens))) == len(RedFlag)
        assert backend.peak == 3
        # the failed screen's seven specialist calls had ended before it raised
        assert len(failed.calls) == 1 + len(RedFlag)
        assert max(c.end for c in failed.calls) <= min(c.start for c in backend.calls)

    def test_a_screen_with_another_concurrency_leaves_at_most_that_many_call_threads(
            self, prompts, started_threads):
        def screen(concurrency):
            backend, cfg = self._screen(prompts, concurrency)
            run_case(note(), cfg)
            return backend.peak, self._call_threads(started_threads)

        def screens():
            wide_peak, wide = screen(8)
            narrow_peak, both = screen(2)
            # the 8-worker executor was shut down idle: its workers exit on their own
            left = self._alive_within(wide, 2)
            return [wide_peak, narrow_peak], left, [t for t in both if t.is_alive()]

        peaks, left, alive = within(30, screens)
        assert peaks == [8, 2]
        assert left == []
        assert len(alive) == 2

    def test_a_thread_s_call_threads_exit_after_it_ends(self, prompts, started_threads):
        # every call answers: a dropped call's exception would hold the screen's frames,
        # and with them the executor, in a reference cycle until the next collection
        backend = CountingBackend(ScriptedBackend(full_script("case-7", TABLE1_RAW)), delay=0.02)
        cfg = multi_config(backend, prompts, fanout_mode=FanoutMode.EXHAUSTIVE)
        within(30, lambda: run_case(note(), cfg))
        assert backend.peak == 8
        threads = self._call_threads(started_threads)
        assert len(threads) == 8
        assert self._alive_within(threads, 2) == []

    def test_a_failure_after_routing_raises_after_the_calls_in_flight_end(
            self, prompts, monkeypatch):
        def fail(*_args):
            raise RuntimeError("step 2 failed")

        monkeypatch.setattr(engine, "execute_specialists", fail)
        backend = CountingBackend(ScriptedBackend(full_script("case-7", TABLE1_RAW)), delay=0.02)
        cfg = multi_config(backend, prompts, fanout_mode=FanoutMode.EXHAUSTIVE, concurrency=2)
        with pytest.raises(RuntimeError, match="step 2 failed"):
            within(30, lambda: run_case(note(), cfg))
        # the seven specialist calls step 1 sent were never taken, yet all have ended
        assert backend.in_flight == 0
        assert len(backend.calls) == 1 + len(RedFlag)


class TestRunConfig:
    @pytest.mark.parametrize("concurrency", [0, -1])
    def test_concurrency_below_one_rejected(self, prompts, concurrency):
        with pytest.raises(ValueError, match="concurrency must be at least 1"):
            multi_config(ScriptedBackend([]), prompts, concurrency=concurrency)
