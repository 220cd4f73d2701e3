"""Network chaos on the TCP runtime: throughput and recovery matrix.

Runs the same small communication-bound workload through four cells —
``clean`` (no chaos), ``delay`` (per-push latency injection), ``partition``
(a timed window in which one worker's pushes tear and its redials are
held), and ``server_kill`` (the supervised server hard-killed mid-run and
relaunched from its latest atomic checkpoint) — and records steps/sec and
recovery behaviour to ``BENCH_netchaos.json`` at the repository root.

Gates (the chaos-net-smoke CI job runs this module at
``REPRO_BENCH_SCALE=tiny``):

* every cell completes with zero errors and the full push budget applied —
  injected chaos may slow a run down but must never lose work;
* the clean cell reports no structured events at all (chaos-free runs stay
  event-free);
* the partition cell reports the ``net_partition`` window and the torn
  worker's ``reconnect``;
* the ``server_kill`` cell restarts the server exactly once and reports
  both the ``server_restart`` and the workers' ``reconnect`` events.

Wall-clock ratios (delay slower than clean, recovery overhead) are
recorded for the trajectory but, per the benchmark-suite policy, only
enforced in explicit record mode on a quiet machine.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path

import pytest

from benchmarks.conftest import record_result
from repro.experiments.config import ExperimentScale
from repro.ps.tcp_runtime import (
    TcpSupervisor,
    TcpTrainer,
    TcpTrainingPlan,
    _worker_entry,
)

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_netchaos.json"

QUICK = os.environ.get("REPRO_BENCH_SCALE", "").strip().lower() == "tiny"
NUM_WORKERS = 2
ITERATIONS_PER_WORKER = 6 if QUICK else 10
BATCH_SIZE = 16
#: Per-iteration compute pad: stretches the run so the partition window and
#: the mid-run kill land inside it instead of after it.
SLOWDOWN = 0.05

BENCH_SCALE = ExperimentScale(
    name="netchaos-bench",
    num_train=1024,
    num_test=64,
    image_size=16,
    num_classes_cifar100=10,
    model_width=4,
    fc_width=128,
    resnet_depth_for_110=8,
    resnet_depth_for_50=8,
    epochs=1.0,
    batch_size=BATCH_SIZE,
    evaluate_every_updates=0,
)


def _plan(**overrides) -> TcpTrainingPlan:
    base = dict(
        workload="mlp",
        scale_fields=dataclasses.asdict(BENCH_SCALE),
        paradigm="bsp",
        paradigm_kwargs={},
        num_workers=NUM_WORKERS,
        iterations_per_worker=ITERATIONS_PER_WORKER,
        batch_size=BATCH_SIZE,
        evaluate_every_pushes=0,
        slowdowns={f"worker-{i}": SLOWDOWN for i in range(NUM_WORKERS)},
        seed=0,
        wait_timeout=60.0,
    )
    base.update(overrides)
    return TcpTrainingPlan(**base)


def _summarize(name: str, result, wall: float | None = None) -> dict:
    event_kinds: dict[str, int] = {}
    for event in result.events:
        event_kinds[event["kind"]] = event_kinds.get(event["kind"], 0) + 1
    wall = result.total_time if wall is None else wall
    return {
        "cell": name,
        "steps_per_second": int(result.server_statistics["store_version"]) / wall,
        "wall_time": round(wall, 4),
        "store_version": int(result.server_statistics["store_version"]),
        "errors": list(result.errors),
        "event_kinds": event_kinds,
    }


def _run_cell(name: str, **overrides) -> dict:
    result = TcpTrainer(_plan(**overrides)).run()
    return _summarize(name, result)


def _run_server_kill_cell(tmp_path: Path) -> dict:
    """Supervised run, server SIGKILLed after its first checkpoint."""
    checkpoint = tmp_path / "netchaos-supervised.npz"
    plan = _plan(
        checkpoint_path=str(checkpoint),
        checkpoint_every_pushes=1,
    )
    ctx = multiprocessing.get_context("spawn" if os.name == "nt" else "fork")
    ready = threading.Event()
    box: dict = {}

    def on_ready(address: str) -> None:
        box["address"] = address
        ready.set()

    supervisor = TcpSupervisor(
        plan, context=ctx, max_restarts=3, ready_callback=on_ready
    )
    thread = threading.Thread(
        target=lambda: box.__setitem__("result", supervisor.run()), daemon=True
    )
    thread.start()
    assert ready.wait(60.0), "supervised server never bound"

    workers = [
        ctx.Process(
            target=_worker_entry, args=(plan, index, box["address"]), daemon=True
        )
        for index in range(NUM_WORKERS)
    ]
    start = time.monotonic()
    for worker in workers:
        worker.start()

    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline and not checkpoint.exists():
        time.sleep(0.02)
    assert checkpoint.exists(), "no checkpoint before the kill"
    time.sleep(3 * SLOWDOWN)  # let a couple more pushes land
    killed_at = time.monotonic()
    os.kill(supervisor.server_pid, signal.SIGKILL)

    for worker in workers:
        worker.join(timeout=120.0)
    thread.join(timeout=120.0)
    assert not thread.is_alive(), "supervisor never returned"
    recovery = time.monotonic() - killed_at
    result = box["result"]
    assert result is not None

    summary = _summarize("server_kill", result, wall=time.monotonic() - start)
    summary["restarts"] = supervisor.restarts
    summary["kill_to_completion_seconds"] = round(recovery, 4)
    return summary


@pytest.fixture(scope="module")
def netchaos_cells(tmp_path_factory) -> dict:
    partition_start = 2 * SLOWDOWN
    partition_duration = 4 * SLOWDOWN
    cells = {
        "clean": _run_cell("clean"),
        "delay": _run_cell("delay", net_faults=({"spec": "delay:2"},)),
        "partition": _run_cell(
            "partition",
            net_faults=(
                {
                    "spec": f"partition:{partition_start},{partition_duration}",
                    "worker": 1,
                },
            ),
        ),
        "server_kill": _run_server_kill_cell(tmp_path_factory.mktemp("netchaos")),
    }
    return cells


class TestNetChaosMatrix:
    def test_every_cell_completes_with_full_push_budget(self, netchaos_cells):
        for name, cell in netchaos_cells.items():
            assert cell["errors"] == [], (name, cell["errors"])
            assert cell["store_version"] == NUM_WORKERS * ITERATIONS_PER_WORKER, name
            assert cell["steps_per_second"] > 0, name

    def test_clean_cell_is_event_free(self, netchaos_cells):
        assert netchaos_cells["clean"]["event_kinds"] == {}

    def test_partition_cell_reports_window_and_reconnect(self, netchaos_cells):
        kinds = netchaos_cells["partition"]["event_kinds"]
        assert kinds.get("net_partition", 0) >= 1
        assert kinds.get("reconnect", 0) >= 1

    def test_server_kill_cell_restarts_once_and_recovers(self, netchaos_cells):
        cell = netchaos_cells["server_kill"]
        assert cell["restarts"] == 1
        assert cell["event_kinds"].get("server_restart", 0) == 1
        assert cell["event_kinds"].get("reconnect", 0) >= NUM_WORKERS
        assert cell["kill_to_completion_seconds"] > 0

    def test_record_trajectory(self, netchaos_cells):
        payload = {
            "scale": BENCH_SCALE.name,
            "num_workers": NUM_WORKERS,
            "iterations_per_worker": ITERATIONS_PER_WORKER,
            "slowdown": SLOWDOWN,
            "cells": netchaos_cells,
        }
        record_result(RESULT_PATH, payload)
