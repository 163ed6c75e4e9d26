import itertools
import json
import random
from concurrent.futures import ThreadPoolExecutor

import pytest

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
from redflagcds.gateway import (
    BackendUnavailable,
    Fault,
    ScriptEntry,
    ScriptedBackend,
)
from redflagcds.prompts import PromptStrategy
from tests.conftest import (
    TABLE1_RAW,
    CountingBackend,
    full_script,
    multi_config,
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

    def test_garbage_twice_falls_back_to_all_seven(self, prompts):
        entries = full_script("case-7", "complete garbage, no json", yes_flags={RedFlag.MENINGISMUS})
        backend = ScriptedBackend(entries)
        result = run_case(note(), multi_config(backend, prompts))
        assert len(result.verdicts) == 7
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
        assert len(result.verdicts) == 7
        (fanout,) = events(result, Stage.FANOUT)
        assert len(fanout.payload["missing"]) == 6

    def test_routed_mode_skips_unrouted_agents(self, prompts):
        backend = ScriptedBackend(
            full_script("case-7", ROUTE_TWO, yes_flags={RedFlag.MENINGISMUS})
        )
        result = run_case(note(), multi_config(backend, prompts))
        started = {e.subject for e in events(result, Stage.AGENT_START)}
        assert started == {RedFlag.MENINGISMUS, RedFlag.TEMPORAL_ARTERITIS}


class TestErrorIsolation:
    def test_one_failing_agent_does_not_stop_the_other(self, prompts):
        entries = full_script(
            "case-7",
            ROUTE_TWO,
            yes_flags={RedFlag.MENINGISMUS},
            faults={RedFlag.TEMPORAL_ARTERITIS: Fault.HTTP_500},
        )
        result = run_case(note(), multi_config(ScriptedBackend(entries), prompts))
        assert result.verdicts[RedFlag.MENINGISMUS].decision is Decision.YES
        assert result.verdicts[RedFlag.TEMPORAL_ARTERITIS].decision is Decision.ERROR
        assert {f.value for f in result.predicted} == {"meningismus"}

    def test_empty_output_becomes_error_verdict(self, prompts):
        entries = full_script("case-7", TABLE1_RAW)
        entries[2] = ScriptEntry("case-7", "meningismus", fault=Fault.EMPTY)
        result = run_case(note(), multi_config(ScriptedBackend(entries), prompts))
        verdict = result.verdicts[RedFlag.MENINGISMUS]
        assert verdict.decision is Decision.ERROR
        assert verdict.error_detail == "no YES/NO token"

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
            assert result.verdicts[victim].decision is Decision.ERROR
            for flag in RedFlag:
                if flag is not victim:
                    assert result.verdicts[flag] == baseline.verdicts[flag]


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
        state = GraphState(note=note(), pending={RedFlag.PAPILLEDEMA})
        from redflagcds.domain import AgentVerdict

        state.apply_verdict(
            AgentVerdict(flag=RedFlag.PAPILLEDEMA, decision=Decision.ERROR, error_detail="x")
        )
        result = aggregate(state)
        assert result.predicted == frozenset()

    def test_pending_not_empty_guard(self, prompts):
        state = GraphState(note=note(), pending={RedFlag.PAPILLEDEMA})
        with pytest.raises(PendingNotEmpty):
            aggregate(state)

    def test_empty_verdicts_is_a_valid_result(self, prompts):
        result = aggregate(GraphState(note=note()))
        assert result.predicted == frozenset()
        assert result.verdicts == {}


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
        assert len(result.verdicts) == 7

    def test_missing_line_is_error_verdict(self, prompts):
        raw = "\n".join(f"{f.value}: NO" for f in RedFlag if f is not RedFlag.FOCAL_DEFICITS)
        backend = ScriptedBackend([ScriptEntry("case-7", "baseline", raw)])
        result = run_case(note(), self._config(backend, prompts))
        assert result.verdicts[RedFlag.FOCAL_DEFICITS].decision is Decision.ERROR

    def test_empty_response_gives_seven_errors(self, prompts):
        backend = ScriptedBackend([ScriptEntry("case-7", "baseline", fault=Fault.EMPTY)])
        result = run_case(note(), self._config(backend, prompts))
        assert all(v.decision is Decision.ERROR for v in result.verdicts.values())
        assert result.predicted == frozenset()

    def test_trace_records_raw_exchange_without_routing(self, prompts):
        raw = "\n".join(f"{f.value}: NO" for f in RedFlag)
        backend = ScriptedBackend([ScriptEntry("case-7", "baseline", raw)])
        result = run_case(note(), self._config(backend, prompts))
        assert events(result, Stage.ROUTING) == []
        (agg,) = events(result, Stage.AGGREGATE)
        assert agg.payload["raw"] == raw


class TestCoverageProperty:
    def test_random_routings_and_drops(self, prompts):
        rng = random.Random(1234)
        flags = list(RedFlag)
        for i in range(60):
            case_id = f"rand{i}"
            routed = set(rng.sample(flags, rng.randint(0, 7)))
            faults = {f: Fault.DROPPED for f in routed if rng.random() < 0.4}
            raw = json.dumps(
                {"next": [f.value for f in routed], "why": "r", "evidence": ["q"]}
            )
            mode = FanoutMode.EXHAUSTIVE if i % 3 == 0 else FanoutMode.ROUTED
            backend = ScriptedBackend(full_script(case_id, raw, routed, faults))
            cfg = multi_config(backend, prompts, fanout_mode=mode)
            result = run_case(Vignette(id=case_id, text="note text"), cfg)
            completed = set(result.verdicts)
            if mode is FanoutMode.EXHAUSTIVE:
                assert completed == set(RedFlag)
            else:
                assert completed >= routed


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

    @pytest.mark.parametrize("concurrency, peak", [(3, 3), (1, 1), (None, 7)])
    def test_in_flight_calls_capped_across_cases(self, prompts, concurrency, peak):
        backend = CountingBackend(self._backend())
        cfg = multi_config(backend, prompts, fanout_mode=FanoutMode.EXHAUSTIVE,
                           concurrency=concurrency)
        results = within(30, lambda: list(run_cases(self._notes(), cfg)))
        assert [r.case_id for r in results] == self.CASES  # input order
        assert all(len(r.verdicts) == 7 for r in results)
        assert len(backend.calls) == 12 * 8
        assert backend.peak == peak
        overlapping = any(
            a[0] != b[0] and a[1] < b[2] and b[1] < a[2]
            for a, b in itertools.combinations(backend.calls, 2)
        )
        assert overlapping is (peak > 1)

    def test_two_executors_per_run_whatever_the_case_count(self, prompts, monkeypatch):
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
        assert len(created) == 4

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
        assert {case_id for case_id, _, _ in backend.calls} <= {"c00", "c01"}

    def test_no_cases_no_calls(self, prompts):
        backend = CountingBackend(self._backend())
        assert within(30, lambda: list(run_cases([], multi_config(backend, prompts)))) == []
        assert backend.calls == []


class TestRunConfig:
    @pytest.mark.parametrize("concurrency", [0, -1])
    def test_concurrency_below_one_rejected(self, prompts, concurrency):
        with pytest.raises(ValueError, match="concurrency must be at least 1"):
            multi_config(ScriptedBackend([]), prompts, concurrency=concurrency)
