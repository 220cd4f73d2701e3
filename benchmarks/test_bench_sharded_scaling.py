"""Scaling sweep of the sharded parameter server.

Sweeps shard counts (1/2/4/8) against pushing-worker counts on a
ResNet-scale parameter set and records push throughput plus pull payloads to
``BENCH_sharded_scaling.json`` at the repository root, so the repo tracks a
perf trajectory across PRs.  Shard count 1 is the monolithic one-shard
store driven through the globally locked path — the baseline the sharded
configurations are compared against.

Run directly (``pytest benchmarks/test_bench_sharded_scaling.py -s``) or as
part of the benchmark suite; the quick CI mode keeps the sweep small.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import RECORDING, record_result
from repro.optim.sgd import SGD
from repro.ps.sharding import make_store

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sharded_scaling.json"

SHARD_COUNTS = (1, 2, 4, 8)
WORKER_COUNTS = (2, 4)
PUSHES_PER_WORKER = 30
LAYERS = 16  # must be >= max worker count so workers get disjoint key sets


def build_store(num_shards: int):
    rng = np.random.default_rng(0)
    weights = {
        f"layer{i}.weight": rng.normal(size=(200, 430)) for i in range(LAYERS)
    }
    return make_store(weights, num_shards=num_shards)


def drive(store, num_workers: int) -> dict:
    """Push from ``num_workers`` threads over disjoint key subsets and pull.

    Each worker owns ``LAYERS / num_workers`` tensors and repeatedly applies
    a gradient to them (the sharded store applies disjoint-shard pushes
    concurrently; the monolithic store is serialized through a global lock,
    exactly like the threaded runtime drives it), interleaved with delta
    pulls tracking the worker's known version.
    """
    optimizer = SGD(learning_rate=0.05)
    names = store.parameter_names
    global_lock = threading.Lock()
    concurrent = getattr(store, "supports_concurrent_apply", False)
    pull_bytes: dict[str, int] = {}
    errors: list[Exception] = []

    def worker(index: int) -> None:
        owned = names[index::num_workers]
        gradient = {name: np.full((200, 430), 1e-3) for name in owned}
        known = 0
        pulled = 0
        try:
            for _ in range(PUSHES_PER_WORKER):
                if concurrent:
                    store.apply_gradients(gradient, optimizer)
                else:
                    with global_lock:
                        store.apply_gradients(gradient, optimizer)
                reply = store.pull(known_version=known)
                known = reply.version
                pulled += reply.wire_nbytes
                # A real worker copies the payload into its replica and
                # releases the copy-on-write lease (Worker.load_reply); an
                # unreleased lease would charge every push a full-shard copy.
                reply.release()
            pull_bytes[f"w{index}"] = pulled
        except Exception as error:  # pragma: no cover - surfaced below
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(index,)) for index in range(num_workers)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_time = time.perf_counter() - start
    assert not errors, errors

    total_pushes = num_workers * PUSHES_PER_WORKER
    assert store.version == total_pushes
    return {
        "num_workers": num_workers,
        "wall_time_seconds": round(wall_time, 4),
        "pushes_per_second": round(total_pushes / wall_time, 1),
        "mean_pull_bytes": int(np.mean(list(pull_bytes.values())) / PUSHES_PER_WORKER),
        "full_pull_bytes": store.nbytes,
    }


@pytest.fixture(scope="module")
def sweep_results():
    results = []
    for num_shards in SHARD_COUNTS:
        for num_workers in WORKER_COUNTS:
            store = build_store(num_shards)
            entry = {"num_shards": num_shards, **drive(store, num_workers)}
            results.append(entry)
    return results


def test_sweep_and_record(sweep_results):
    """Run the sweep, sanity-check it, and record the trajectory JSON."""
    store = build_store(1)
    by_key = {(r["num_shards"], r["num_workers"]): r for r in sweep_results}
    for num_workers in WORKER_COUNTS:
        mono = by_key[(1, num_workers)]
        sharded = by_key[(8, num_workers)]
        # Delta pulls must move far fewer bytes than the monolithic full
        # pull: each worker dirties only its own key subset per interval,
        # but sees the other workers' updates too, so the delta carries at
        # most the whole model and at least the worker's own share.
        assert sharded["mean_pull_bytes"] < mono["mean_pull_bytes"]
        assert mono["mean_pull_bytes"] == store.nbytes

    payload = {
        "benchmark": "sharded_scaling",
        "model": {
            "num_parameters": store.num_parameters,
            "full_pull_bytes": store.nbytes,
            "tensors": LAYERS,
        },
        "pushes_per_worker": PUSHES_PER_WORKER,
        "sweep": sweep_results,
    }
    record_result(RESULT_PATH, payload)


def test_sharded_throughput_not_regressing(sweep_results):
    """Concurrent sharded pushes must not be slower than the locked
    monolithic path by more than a small tolerance (they are usually
    faster; the GIL caps how much shows up on small tensors)."""
    by_key = {(r["num_shards"], r["num_workers"]): r for r in sweep_results}
    # The strict floor applies at record time on a quiet host; plain pytest
    # runs on shared runners only guard against the sharded path collapsing.
    floor = 0.6 if RECORDING else 0.3
    for num_workers in WORKER_COUNTS:
        mono = by_key[(1, num_workers)]["pushes_per_second"]
        sharded = by_key[(8, num_workers)]["pushes_per_second"]
        assert sharded > mono * floor, (mono, sharded)
