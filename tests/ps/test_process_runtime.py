"""Integration tests for the multi-process runtime (repro.ps.process_runtime).

These spawn real OS processes; every plan is kept tiny so the whole module
stays in seconds.  The crash tests are the contract the shm layer makes in
its docstring: a worker dying mid-run surfaces as an error, never as a hang
or a leaked /dev/shm segment.
"""

import dataclasses
import multiprocessing
import os

import pytest

from repro.experiments.config import TINY
from repro.ps.process_runtime import (
    ProcessTrainer,
    ProcessTrainingPlan,
    default_context_name,
)


def tiny_plan(**overrides) -> ProcessTrainingPlan:
    base = dict(
        workload="mlp",
        scale_fields=dataclasses.asdict(TINY),
        paradigm="dssp",
        paradigm_kwargs={"s_lower": 1, "s_upper": 4},
        num_workers=2,
        iterations_per_worker=4,
        batch_size=16,
        evaluate_every_pushes=0,
        seed=0,
        wait_timeout=60.0,
    )
    base.update(overrides)
    return ProcessTrainingPlan(**base)


def leaked_segments() -> list[str]:
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return []
    return [name for name in os.listdir("/dev/shm") if name.startswith("repro-")]


class TestPlanValidation:
    def test_bad_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            tiny_plan(transport="carrier-pigeon")

    def test_unknown_slowdown_worker_rejected(self):
        with pytest.raises(ValueError, match="nonexistent workers"):
            tiny_plan(slowdowns={"worker-9": 1.0})

    def test_unknown_crash_worker_rejected(self):
        with pytest.raises(ValueError, match="nonexistent workers"):
            tiny_plan(crash_at={"worker-9": 1})

    def test_paradigm_validated_at_construction(self):
        with pytest.raises(ValueError):
            tiny_plan(paradigm="nope", paradigm_kwargs={})


class TestEndToEnd:
    def test_full_run_reports_everything(self):
        result = ProcessTrainer(tiny_plan(evaluate_every_pushes=4)).run()
        assert result.errors == []
        assert result.total_time > 0
        assert len(result.worker_reports) == 2
        for report in result.worker_reports:
            assert report.iterations == 4
            assert report.samples_processed == 4 * 16
        assert result.server_statistics["store_version"] == 8
        assert result.server_statistics["paradigm"] == "dssp"
        assert result.server_statistics["cow_fallbacks"] == 0
        # Curve: initial model at t=0, periodic evals, final model at wall.
        assert result.times[0] == 0.0
        assert result.times[-1] == pytest.approx(result.total_time)
        assert len(result.times) >= 3
        assert leaked_segments() == []

    def test_bsp_keeps_workers_in_lockstep(self):
        result = ProcessTrainer(
            tiny_plan(paradigm="bsp", paradigm_kwargs={}, num_workers=3)
        ).run()
        assert result.errors == []
        staleness = result.staleness
        # Under BSP a worker's update can be at most one round stale.
        assert staleness.maximum <= 3

    def test_pipe_transport_matches_shm_iteration_counts(self):
        shm_result = ProcessTrainer(tiny_plan(transport="shm")).run()
        pipe_result = ProcessTrainer(tiny_plan(transport="pipe")).run()
        assert shm_result.errors == pipe_result.errors == []
        assert (
            shm_result.server_statistics["store_version"]
            == pipe_result.server_statistics["store_version"]
        )
        assert leaked_segments() == []

    def test_sharded_store_and_float32(self):
        result = ProcessTrainer(tiny_plan(num_shards=3, dtype="float32")).run()
        assert result.errors == []
        assert result.server_statistics["store_version"] == 8

    @pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(),
        reason="spawn start method unavailable",
    )
    def test_spawn_context_works(self):
        result = ProcessTrainer(tiny_plan(), context="spawn").run()
        assert result.errors == []
        assert result.server_statistics["store_version"] == 8
        assert leaked_segments() == []


class TestCrashRobustness:
    def test_worker_crash_reports_error_and_leaks_nothing(self):
        plan = tiny_plan(
            paradigm="asp",
            paradigm_kwargs={},
            num_workers=3,
            iterations_per_worker=6,
            crash_at={"worker-1": 2},
            wait_timeout=30.0,
        )
        result = ProcessTrainer(plan).run()
        assert any("worker-1" in error for error in result.errors), result.errors
        assert leaked_segments() == []

    def test_crash_before_first_iteration(self):
        plan = tiny_plan(crash_at={"worker-0": 0}, wait_timeout=30.0)
        result = ProcessTrainer(plan).run()
        assert result.errors != []
        assert leaked_segments() == []

    def test_default_context_name_resolves(self):
        assert default_context_name() in multiprocessing.get_all_start_methods()


class TestPipeTransportDeath:
    def test_death_after_push_on_pipe_rebounds_policy(self):
        # worker-1 dies immediately after its first push goes into the pipe
        # (EOF mid-protocol, possibly mid-message).  The server must surface
        # the death, deregister the worker so the SSP bound is recomputed
        # over the survivor, and let worker-0 finish its full budget —
        # without it, worker-0 blocks forever at lead > staleness over a
        # corpse.  Nothing may leak.
        plan = tiny_plan(
            transport="pipe",
            paradigm="ssp",
            paradigm_kwargs={"staleness": 2},
            crash_after_push={"worker-1": 1},
            wait_timeout=30.0,
        )
        result = ProcessTrainer(plan).run()
        assert any("worker-1" in error for error in result.errors), result.errors
        by_id = {report.worker_id: report for report in result.worker_reports}
        assert by_id["worker-0"].iterations == 4
        # Survivor's 4 pushes plus whatever worker-1 landed before dying.
        assert result.server_statistics["store_version"] >= 5
        assert leaked_segments() == []
