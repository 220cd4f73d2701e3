"""Cross-backend differential: one spec, one seed, three ways to run it.

The process and tcp runtimes and the simulator execute the same server protocol from the same plan recipes, so
wherever the schedule is forced — one worker, or a buffered aggregator that
combines each round in sorted worker order — they must agree bit for bit,
not approximately.  Plain-mean multi-worker runs depend on push arrival
order even run to run on one backend, so they are not compared here.
"""

import numpy as np
import pytest

from repro.api import (
    ClusterConfig,
    ExperimentSpec,
    ProcessBackend,
    SimulatedBackend,
    TcpBackend,
)

CONFIGURATIONS = {
    "process": lambda: ProcessBackend(),
    "tcp": lambda: TcpBackend(),
}

# 1 worker x 20 iterations of the tiny MLP: per-codec bytes pushed, and the
# dense bytes pulled (the initial pull plus one per acknowledged push).  On
# a codec run tcp answers each push with the update log instead — here only
# the worker's own push, which an OK names and never echoes — so it pulls
# the welcome and nothing more.
PUSHED_WIRE_BYTES = {None: 781120, "topk:0.01": 11760, "int8": 97960}
PULLED_BYTES = 820176
WELCOME_BYTES = PULLED_BYTES // 21


def pulled_bytes(backend, compression):
    if backend == "tcp" and compression is not None:
        return WELCOME_BYTES
    return PULLED_BYTES


def run_everywhere(spec, **more_backends):
    configurations = {**CONFIGURATIONS, **more_backends}
    results = {name: make().run(spec) for name, make in configurations.items()}
    for name, result in results.items():
        assert result.errors == [], (name, result.errors)
    return results


@pytest.mark.parametrize("compression", [None, "topk:0.01", "int8"])
def test_single_worker_runs_are_bit_identical(compression):
    spec = ExperimentSpec(
        name="differential-1w",
        workload="mlp",
        scale="tiny",
        cluster=ClusterConfig(num_workers=1, gpus_per_worker=1),
        paradigm="dssp",
        paradigm_kwargs={"s_lower": 3, "s_upper": 15},
        epochs=2.0,
        batch_size=32,
        evaluate_every_updates=5,
        compression=compression,
        seed=0,
    )
    results = run_everywhere(spec, simulated=SimulatedBackend)
    reference = results["process"]
    assert len(reference.losses) >= 3
    for name, result in results.items():
        # A wall-clock run ends on a repeat of its last periodic point (the
        # same weights at a later instant); the virtual clock has not moved
        # since that evaluation, so the simulator's curve stops one short.
        points = len(reference.losses) - (name == "simulated")
        assert result.total_updates == 20, name
        assert np.array_equal(result.losses, reference.losses[:points]), name
        assert np.array_equal(result.accuracies, reference.accuracies[:points]), name
        (report,) = result.worker_reports
        assert (
            report.pushed_wire_bytes,
            report.pulled_bytes,
            report.iterations,
        ) == (PUSHED_WIRE_BYTES[compression], pulled_bytes(name, compression), 20), name


def test_the_start_method_does_not_change_a_run():
    """Children started by ``spawn`` re-import everything a forked child
    inherits; the run they make is the same, bit for bit."""
    spec = ExperimentSpec(
        name="differential-spawn",
        workload="mlp",
        scale="tiny",
        cluster=ClusterConfig(num_workers=1, gpus_per_worker=1),
        paradigm="dssp",
        paradigm_kwargs={"s_lower": 3, "s_upper": 15},
        epochs=1.0,
        batch_size=32,
        evaluate_every_updates=5,
        seed=0,
    )
    fork = ProcessBackend(context="fork").run(spec)
    spawn = ProcessBackend(context="spawn").run(spec)
    assert fork.errors == spawn.errors == []
    assert fork.total_updates == spawn.total_updates == 10
    assert np.array_equal(fork.losses, spawn.losses)
    assert np.array_equal(fork.accuracies, spawn.accuracies)


def test_bsp_median_runs_are_bit_identical():
    """Wall-clock only: the simulator's ``global`` epoch budget counts store
    versions (20 windows here) where the runtimes count iterations (7 per
    worker), so the two do not run the same number of rounds."""
    spec = ExperimentSpec(
        name="differential-3w",
        workload="mlp",
        scale="tiny",
        cluster=ClusterConfig(num_workers=3, gpus_per_worker=1),
        paradigm="bsp",
        paradigm_kwargs={},
        epochs=2.0,
        batch_size=32,
        evaluate_every_updates=6,
        aggregation="median",
        seed=0,
    )
    results = run_everywhere(spec)
    reference = results["process"]
    assert len(reference.losses) >= 3
    for name, result in results.items():
        assert np.array_equal(result.losses, reference.losses), name
