"""The liveness guard of the one server loop, on both wall-clock servers.

``ServerLoop`` aborts a run in which no worker pushes, joins, finishes or
departs for the session's ``idle_timeout``.  Here one worker sleeps longer
than that before its first push: the run must come back with the guard's
error instead of hanging, and the process server must still unlink every
shared-memory segment.
"""

import dataclasses
import os

import pytest

from repro.experiments.config import TINY
from repro.ps.process_runtime import ProcessTrainer, ProcessTrainingPlan
from repro.ps.tcp_runtime import TcpTrainer, TcpTrainingPlan

RUNTIMES = {
    "process-shm": (ProcessTrainer, ProcessTrainingPlan),
    "tcp": (TcpTrainer, TcpTrainingPlan),
}


def shm_segments() -> set[str]:
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith("repro-")}


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_a_silent_worker_trips_the_liveness_guard(runtime):
    trainer, plan_class = RUNTIMES[runtime]
    plan = plan_class(
        workload="mlp",
        scale_fields=dataclasses.asdict(TINY),
        paradigm="ssp",
        paradigm_kwargs={"staleness": 2},
        num_workers=1,
        iterations_per_worker=2,
        batch_size=16,
        evaluate_every_pushes=0,
        seed=0,
        wait_timeout=2.0,
        slowdowns={"worker-0": 4.0},
    )
    before = shm_segments()
    result = trainer(plan).run()
    assert any("server: no worker progress" in error for error in result.errors), result.errors
    assert result.server_statistics["store_version"] == 0
    assert shm_segments() <= before
