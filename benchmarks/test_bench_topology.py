"""Topology sweep: tail latency across paradigms and network shapes.

Runs BSP/ASP/SSP/DSSP on the simulated backend across the three topology
presets (``flat``, ``two-rack``, ``tail-heavy``) with the mixed-GPU sweep
cluster, and records each cell's p50/p90/p99 iteration intervals to
``BENCH_topology.json`` at the repository root.

Gates (the topology-smoke CI job runs this module at
``REPRO_BENCH_SCALE=tiny``; all gates are deterministic — the simulator's
virtual clock does not time the host machine):

* **Determinism** — re-running the tail-heavy column produces identical
  percentile summaries and totals; the FIFO queue traces are equal too.
* **Headline** — BSP's absolute p99 iteration-time gap over DSSP is
  positive on every topology and *strictly widens* as the tail gets
  heavier (flat < two-rack < tail-heavy): the barrier makes every worker
  inherit the round's worst transfer, so heavy-tailed links hurt BSP's
  tail far more than bounded-staleness paradigms.  SSP never beats DSSP's
  p99, and BSP's gap dominates SSP's on every topology.

The ``flat`` column's virtual times are pinned as golden values by
``tests/simulation/test_topology_parity.py``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.api.backends import run_experiment
from repro.experiments.topology_sweep import (
    SWEEP_TOPOLOGIES,
    run_topology_sweep,
    sweep_payload,
    sweep_spec,
)

from benchmarks.conftest import record_result, selected_scale

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_topology.json"

NUM_WORKERS = 32
EPOCHS = 16.0
PARADIGMS = ("bsp", "asp", "ssp", "dssp")


def _cell_kwargs() -> dict:
    return {
        "num_workers": NUM_WORKERS,
        "scale": selected_scale(),
        "epochs": EPOCHS,
    }


@pytest.fixture(scope="module")
def sweep_results():
    runs = run_topology_sweep(
        num_workers=NUM_WORKERS, scale=selected_scale(), epochs=EPOCHS
    )
    return sweep_payload(
        runs,
        benchmark="topology_sweep",
        scale=selected_scale().name,
        workload="mlp",
        num_workers=NUM_WORKERS,
        epochs=EPOCHS,
    )


def _gap(results: dict, topology: str, paradigm: str) -> float:
    return results["p99_gap_vs_dssp"][topology][paradigm]


def test_tail_heavy_determinism():
    """Same seed, same virtual history: percentiles, totals, queue traces."""
    for paradigm in PARADIGMS:
        spec = sweep_spec("tail-heavy", paradigm, **_cell_kwargs())
        a = run_experiment(spec, "simulated")
        b = run_experiment(spec, "simulated")
        assert (
            a.iteration_time_percentiles.to_dict()
            == b.iteration_time_percentiles.to_dict()
        ), paradigm
        assert a.total_time == b.total_time, paradigm
        assert a.times.tolist() == b.times.tolist(), paradigm
        assert a.wait_time_per_worker == b.wait_time_per_worker, paradigm


def test_topology_sweep_and_record(sweep_results):
    """Gate the p99 synchronization gaps and record the trajectory."""
    results = sweep_results
    record_result(RESULT_PATH, results)

    print()
    print(f"{'topology':<11} {'paradigm':<6} {'p50':>8} {'p90':>8} {'p99':>8} "
          f"{'wait':>9} {'virtual s':>10}")
    for run in results["runs"]:
        print(f"{run['topology']:<11} {run['paradigm']:<6} "
              f"{run['p50']:>8.4f} {run['p90']:>8.4f} {run['p99']:>8.4f} "
              f"{run['total_wait_time']:>9.2f} {run['total_time']:>10.3f}")
    print("BSP p99 gap vs DSSP:",
          {t: round(_gap(results, t, "bsp"), 4) for t in SWEEP_TOPOLOGIES})

    # Every cell completed with a populated interval pool.
    for run in results["runs"]:
        assert run["samples"] > 0, run
        assert run["p50"] > 0.0, run
        assert run["p99"] >= run["p90"] >= run["p50"], run

    # Headline gate: BSP's p99 tail gap over DSSP is positive everywhere
    # and strictly widens with the topology's tail weight.
    bsp_gaps = [_gap(results, topology, "bsp") for topology in SWEEP_TOPOLOGIES]
    assert all(gap > 0.0 for gap in bsp_gaps), bsp_gaps
    assert bsp_gaps == sorted(bsp_gaps), bsp_gaps
    assert len(set(bsp_gaps)) == len(bsp_gaps), bsp_gaps

    # SSP's bounded barrier can only lengthen tails relative to DSSP, and
    # never by more than the full barrier does.
    for topology in SWEEP_TOPOLOGIES:
        ssp_gap = _gap(results, topology, "ssp")
        assert ssp_gap >= 0.0, (topology, ssp_gap)
        assert _gap(results, topology, "bsp") > ssp_gap, topology
