"""Scaling comparison: threaded backend vs the multi-process backend.

Trains the same compute-bound workload — the quickstart MLP with
``micro_batches=8``, modelling the paper's heavyweight workers (each worker
aggregates the gradients of its 4 GPUs before pushing, so one push carries
many mini-batches of compute) — under ASP on both real runtimes, sweeping
the worker count, and records steps/sec to ``BENCH_process_scaling.json``
at the repository root.

What to expect from the numbers: the threaded runtime interleaves all
workers on one GIL, so its compute throughput is capped near a single core
regardless of worker count; the process runtime pays a per-push IPC cost
(pipe control message + OK semaphore) but computes GIL-free in parallel.
On a multi-core machine the process backend therefore wins outright at
4+ workers.  On a single-core machine (CI containers included) there is no
parallelism to harvest and the two runtimes measure within a few percent of
each other — the micro-batched configuration amortizes the per-push IPC
cost so the residual gap is the bare process-isolation tax (scheduler and
TLB), which is exactly the regime the recorded JSON tracks, per-trial.

Run directly (``pytest benchmarks/test_bench_process_scaling.py -s``) or as
part of the suite; ``REPRO_BENCH_SCALE=tiny`` keeps the sweep small for CI.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import statistics
from pathlib import Path

import pytest

from benchmarks.conftest import RECORDING, record_result
from repro.experiments.config import ExperimentScale
from repro.experiments.workloads import build_workload
from repro.ps.coordinator import DistributedTrainingConfig, assemble_training
from repro.ps.process_runtime import ProcessTrainer, ProcessTrainingPlan

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_process_scaling.json"

QUICK = os.environ.get("REPRO_BENCH_SCALE", "").strip().lower() == "tiny"
WORKER_COUNTS = (1, 2, 4)
MICRO_BATCHES = 4 if QUICK else 8
ITERATIONS_PER_WORKER = 4 if QUICK else 8
TRIALS = 1 if QUICK else 3
BATCH_SIZE = 128

BENCH_SCALE = ExperimentScale(
    name="process-scaling",
    num_train=4096 if QUICK else 12288,
    num_test=64,
    image_size=16,
    num_classes_cifar100=10,
    model_width=4,
    fc_width=256,
    resnet_depth_for_110=8,
    resnet_depth_for_50=8,
    epochs=1.0,
    batch_size=BATCH_SIZE,
    evaluate_every_updates=0,
)


@pytest.fixture(scope="module")
def workload():
    return build_workload("mlp", BENCH_SCALE)


def threaded_steps_per_second(workload, num_workers: int) -> float:
    config = DistributedTrainingConfig(
        paradigm="asp",
        paradigm_kwargs={},
        num_workers=num_workers,
        iterations_per_worker=ITERATIONS_PER_WORKER,
        batch_size=BATCH_SIZE,
        micro_batches=MICRO_BATCHES,
        evaluate_every_pushes=0,
        seed=0,
    )
    trainer = assemble_training(
        config, workload.model_builder, workload.train_dataset, workload.test_dataset
    )
    result = trainer.run()
    assert result.errors == [], result.errors
    return int(result.server_statistics["store_version"]) / result.wall_time


def process_steps_per_second(num_workers: int) -> float:
    plan = ProcessTrainingPlan(
        workload="mlp",
        scale_fields=dataclasses.asdict(BENCH_SCALE),
        paradigm="asp",
        paradigm_kwargs={},
        num_workers=num_workers,
        iterations_per_worker=ITERATIONS_PER_WORKER,
        batch_size=BATCH_SIZE,
        micro_batches=MICRO_BATCHES,
        evaluate_every_pushes=0,
        seed=0,
    )
    # The forked server and workers reuse the fixture's build of "mlp".
    result = ProcessTrainer(plan).run()
    assert result.errors == [], result.errors
    return int(result.server_statistics["store_version"]) / result.wall_time


@pytest.fixture(scope="module")
def sweep_results(workload):
    """Interleaved trials per worker count; medians are what gets recorded."""
    results = []
    for num_workers in WORKER_COUNTS:
        # One discarded warmup run per backend: the first process run pays
        # one-off costs (page-cache population, copy-on-write fork faults)
        # that are not steady-state throughput.
        threaded_steps_per_second(workload, num_workers)
        process_steps_per_second(num_workers)
        threaded_trials = []
        process_trials = []
        for _ in range(TRIALS):
            threaded_trials.append(threaded_steps_per_second(workload, num_workers))
            process_trials.append(process_steps_per_second(num_workers))
        threaded = statistics.median(threaded_trials)
        process = statistics.median(process_trials)
        results.append(
            {
                "num_workers": num_workers,
                "threaded_steps_per_second": round(threaded, 2),
                "process_steps_per_second": round(process, 2),
                "process_over_threaded": round(process / threaded, 4),
                "threaded_trials": [round(value, 2) for value in threaded_trials],
                "process_trials": [round(value, 2) for value in process_trials],
            }
        )
        print(
            f"workers={num_workers}: threaded {threaded:.1f} steps/s, "
            f"process {process:.1f} steps/s (x{process / threaded:.3f})"
        )
    return results


def test_sweep_and_record(sweep_results):
    """Run the sweep, sanity-check it, and record the trajectory JSON."""
    payload = {
        "benchmark": "process_scaling",
        "workload": "mlp (compute-bound: micro_batches models the paper's 4-GPU workers)",
        "paradigm": "asp",
        "batch_size": BATCH_SIZE,
        "micro_batches": MICRO_BATCHES,
        "iterations_per_worker": ITERATIONS_PER_WORKER,
        "trials_per_point": TRIALS,
        "cpu_count": os.cpu_count(),
        "start_method": multiprocessing.get_start_method(allow_none=True) or "default",
        "sweep": sweep_results,
    }
    record_result(RESULT_PATH, payload)


def test_process_backend_not_regressing(sweep_results):
    """The process backend must stay at least on par with threaded at scale.

    At 4 workers the process runtime should match or beat the GIL-bound
    threaded runtime on this compute-bound workload (on multi-core machines
    it wins outright; on a single core the two are within noise, which the
    tolerance absorbs — the recorded JSON carries the exact ratio).
    """
    by_workers = {entry["num_workers"]: entry for entry in sweep_results}
    at_scale = by_workers[max(WORKER_COUNTS)]
    # The strict tolerance applies at record time on a quiet host.  Plain
    # pytest runs (and quick mode's single short trial) happen on shared
    # runners where the process-vs-thread ratio is dominated by scheduler
    # contention, so they only catch order-of-magnitude regressions.
    if not RECORDING:
        tolerance = 0.35
    else:
        tolerance = 0.6 if QUICK else 0.85
    assert at_scale["process_steps_per_second"] >= (
        tolerance * at_scale["threaded_steps_per_second"]
    ), at_scale
