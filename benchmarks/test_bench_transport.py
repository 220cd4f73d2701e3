"""Transport comparison: shm vs tcp-localhost gradient paths.

Trains the same communication-leaning workload (small batches, wide FC
layer, no micro-batching, so the per-push synchronization cost dominates)
under ASP on the gradient path of each wall-clock backend that crosses a
process boundary — the process backend's shared-memory mailboxes and the
tcp backend's sockets — sweeping the worker count with and without a push
codec, and records steps/sec and bytes-on-wire to ``BENCH_transport.json``
at the repository root.

What to expect from the numbers: ``shm`` ships gradients through
shared-memory mailboxes (one memcpy, control message only on the pipe) and
sets the throughput ceiling; ``tcp`` frames the same packed buffers onto a
localhost socket — no pickle on the hot path, but a kernel socket
round-trip and heartbeat traffic.  The ``topk:0.01`` column shows how much
a sparsifying codec buys back: encoded frames cut the framed payloads by
roughly the codec ratio, while shm mailboxes shrink to the codec's
worst-case frame size.

Run directly (``pytest benchmarks/test_bench_transport.py -s``) or as part
of the suite; ``REPRO_BENCH_SCALE=tiny`` keeps the sweep small for CI.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
from pathlib import Path

import pytest

from benchmarks.conftest import record_result
from repro.experiments.config import ExperimentScale
from repro.ps.process_runtime import ProcessTrainer, ProcessTrainingPlan, default_context_name
from repro.ps.tcp_runtime import TcpTrainer, TcpTrainingPlan

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_transport.json"

QUICK = os.environ.get("REPRO_BENCH_SCALE", "").strip().lower() == "tiny"
TRANSPORTS = ("shm", "tcp")
WORKER_COUNTS = (1, 2) if QUICK else (1, 2, 4)
CODECS = (None, "topk:0.01")
ITERATIONS_PER_WORKER = 4 if QUICK else 8
TRIALS = 1 if QUICK else 3
BATCH_SIZE = 32

BENCH_SCALE = ExperimentScale(
    name="transport-bench",
    num_train=2048 if QUICK else 4096,
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

_COMMON = dict(
    workload="mlp",
    paradigm="asp",
    paradigm_kwargs={},
    iterations_per_worker=ITERATIONS_PER_WORKER,
    batch_size=BATCH_SIZE,
    evaluate_every_pushes=0,
    seed=0,
)


def run_point(transport: str, num_workers: int, codec: str | None) -> dict:
    """One training run; returns steps/sec and wire-byte measurements."""
    if transport == "tcp":
        plan = TcpTrainingPlan(
            scale_fields=dataclasses.asdict(BENCH_SCALE),
            num_workers=num_workers,
            compression=codec,
            **_COMMON,
        )
        result = TcpTrainer(plan).run()
    else:
        plan = ProcessTrainingPlan(
            scale_fields=dataclasses.asdict(BENCH_SCALE),
            num_workers=num_workers,
            compression=codec,
            **_COMMON,
        )
        result = ProcessTrainer(plan).run()
    assert result.errors == [], result.errors
    statistics_ = result.server_statistics
    point = {
        "steps_per_second": int(statistics_["store_version"]) / result.total_time,
        "pushed_wire_bytes": sum(
            report.pushed_wire_bytes for report in result.worker_reports
        ),
    }
    if transport == "tcp":
        # The socket transport also counts every byte that actually hit
        # the wire (control envelopes, heartbeats, pulled weights).
        point["tcp_bytes_sent"] = int(statistics_["tcp_bytes_sent"])
        point["tcp_bytes_received"] = int(statistics_["tcp_bytes_received"])
    return point


@pytest.fixture(scope="module")
def sweep_results():
    """Median steps/sec per (transport, workers, codec); bytes are exact."""
    results = []
    for num_workers in WORKER_COUNTS:
        for codec in CODECS:
            row = {"num_workers": num_workers, "codec": codec or "none"}
            for transport in TRANSPORTS:
                run_point(transport, num_workers, codec)  # discarded warmup
                trials = [
                    run_point(transport, num_workers, codec) for _ in range(TRIALS)
                ]
                rate = statistics.median(t["steps_per_second"] for t in trials)
                row[transport] = {
                    "steps_per_second": round(rate, 2),
                    "pushed_wire_bytes": trials[0]["pushed_wire_bytes"],
                    "trials": [round(t["steps_per_second"], 2) for t in trials],
                }
                for key in ("tcp_bytes_sent", "tcp_bytes_received"):
                    if key in trials[0]:
                        row[transport][key] = trials[0][key]
            results.append(row)
            summary = ", ".join(
                f"{transport} {row[transport]['steps_per_second']:.1f}/s"
                for transport in TRANSPORTS
            )
            print(f"workers={num_workers} codec={row['codec']}: {summary}")
    return results


def record(sweep_results) -> dict:
    """The comparison JSON: the sweep and the conditions it ran under.

    ``start_method`` is the one both runtimes resolve for their children
    (``REPRO_PROCESS_CONTEXT``, else the platform default), not the global
    multiprocessing setting, which nothing here sets.
    """
    return {
        "benchmark": "transport",
        "workload": "mlp (communication-leaning: small batches, no micro-batching)",
        "paradigm": "asp",
        "batch_size": BATCH_SIZE,
        "iterations_per_worker": ITERATIONS_PER_WORKER,
        "trials_per_point": TRIALS,
        "cpu_count": os.cpu_count(),
        "start_method": default_context_name(),
        "sweep": sweep_results,
    }


def test_sweep_and_record(sweep_results):
    """Run the sweep, sanity-check it, and record the comparison JSON."""
    record_result(RESULT_PATH, record(sweep_results))


@pytest.mark.parametrize("override", [None, "spawn"])
def test_the_record_names_the_start_method_the_runs_use(monkeypatch, override):
    if override is None:
        monkeypatch.delenv("REPRO_PROCESS_CONTEXT", raising=False)
    else:
        monkeypatch.setenv("REPRO_PROCESS_CONTEXT", override)
    plan = ProcessTrainingPlan(scale_fields=dataclasses.asdict(BENCH_SCALE), **_COMMON)
    used = ProcessTrainer(plan).context.get_start_method()
    assert record([])["start_method"] == used == (override or used)


def test_codec_cuts_bytes_on_every_transport(sweep_results):
    """topk:0.01 must shrink the pushed bytes on every transport."""
    by_key = {(row["num_workers"], row["codec"]): row for row in sweep_results}
    workers = max(WORKER_COUNTS)
    dense, coded = by_key[(workers, "none")], by_key[(workers, "topk:0.01")]
    for transport in TRANSPORTS:
        assert 0 < coded[transport]["pushed_wire_bytes"] < (
            dense[transport]["pushed_wire_bytes"]
        ), transport


def test_transports_measure_same_work(sweep_results):
    """Every transport pushes identical dense payload bytes for a config."""
    for row in sweep_results:
        if row["codec"] != "none":
            continue
        sizes = {row[t]["pushed_wire_bytes"] for t in TRANSPORTS}
        assert len(sizes) == 1, row
