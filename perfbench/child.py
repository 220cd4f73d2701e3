"""One perfbench repetition, run in a fresh child process.

Reads a job (``workloads.make_job`` plus a ``mode``) as JSON on stdin and
prints one JSON object as the last line of stdout.  ``mode="e2e"`` runs
the spec through the public front door (``ExperimentSpec`` +
``run_experiment``) with tracing off; ``mode="layers"`` runs the traced
layer loop of ``layers.py``.  The parent sets the BLAS thread pins, the
bytecode-cache prefix and ``PYTHONPATH`` in the environment, so they hold
before numpy is imported and are inherited by the runtimes' own children.
"""

from __future__ import annotations

import json
import math
import platform
import resource
import sys
import time


def run_end_to_end(job: dict) -> dict:
    """Run the job's spec once and reduce its ``RunResult`` to plain data."""
    import numpy

    from repro.api import ExperimentSpec, run_experiment
    from repro.experiments import build_workload

    spec = ExperimentSpec.from_dict(job["spec"])
    backend = job["backend"]
    profile = bool(job.get("profile"))
    if backend == "simulated":
        # The simulator's total_time is virtual, so train_s is the wall
        # time of run_experiment around a pre-built workload: dataset
        # synthesis stays in setup_s, as it does on the other backends.
        workload = build_workload(
            spec.workload, spec.resolved_scale(), **spec.workload_kwargs
        )
        start = time.perf_counter()
        result = run_experiment(spec, backend, workload=workload, profile=profile)
        train_s = time.perf_counter() - start
    else:
        result = run_experiment(spec, backend, profile=profile)
        train_s = float(result.total_time)

    reports = result.worker_reports
    statistics = result.server_statistics
    loss = float(result.losses[-1]) if result.losses.size else math.nan
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    run = {
        "train_s": train_s,
        "total_updates": int(result.total_updates),
        "iterations": [int(report.iterations) for report in reports],
        "errors": list(result.errors),
        "final_accuracy": result.final_accuracy,
        "final_loss": loss if math.isfinite(loss) else None,
        "accuracies": [float(value) for value in result.accuracies],
        "total_time": float(result.total_time),
        "pushed_wire_bytes": sum(report.pushed_wire_bytes for report in reports),
        "pushed_raw_bytes": sum(report.pushed_raw_bytes for report in reports),
        "pulled_bytes": sum(report.pulled_bytes for report in reports),
        "compute_s": sum(report.total_compute_time for report in reports),
        "wait_s": sum(report.total_wait_time for report in reports),
        "sim_wait_s": float(sum(result.wait_time_per_worker.values())),
        "iter_s_p50": float(result.iteration_time_percentiles.p50),
        "iter_s_p99": float(result.iteration_time_percentiles.p99),
        "staleness_mean": float(result.staleness.mean),
        "staleness_max": int(result.staleness.maximum),
        "blocks": int(statistics.get("blocks", 0)),
        "controller_invocations": int(statistics.get("controller_invocations", 0)),
        "credit_releases": int(statistics.get("credit_releases", 0)),
        "socket_bytes": int(statistics.get("tcp_bytes_sent", 0))
        + int(statistics.get("tcp_bytes_received", 0)),
        "cow_fallbacks": int(statistics.get("cow_fallbacks", 0)),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    if result.profile is not None:
        run["profile_s"] = float(result.profile["total_seconds"])
        run["profile_iterations"] = result.iterations_per_worker[
            result.profile["worker_id"]
        ]
    run["versions"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas_name(numpy),
        "git_revision": result.provenance.git_revision,
    }
    return run


def _blas_name(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError):
        return "unknown"


def main() -> int:
    job = json.load(sys.stdin)
    if job["mode"] == "e2e":
        out = run_end_to_end(job)
    else:
        import layers

        out = layers.run_layers(job)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
