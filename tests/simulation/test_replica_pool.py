"""The simulator's replica pool: forked helpers give the in-process numbers, bit for bit.

Every spec of ``tools/sim_matrix.py`` runs twice — steps in-process, and
steps in helpers forked before the first step — and every reported leaf
must agree, ``worker_reports`` included.  The helpers are forced through
``ReplicaPool``'s private constructor argument, so no option or
environment variable exists for it.
"""

import functools
import importlib.util
import multiprocessing
import os
import sys
import threading
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, run_experiment
from repro.simulation import pool as pool_module
from repro.simulation import trainer
from repro.simulation.pool import ReplicaPool

_spec = importlib.util.spec_from_file_location(
    "sim_matrix", Path(__file__).resolve().parents[2] / "tools" / "sim_matrix.py"
)
sim_matrix = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("sim_matrix", sim_matrix)
_spec.loader.exec_module(sim_matrix)


def spec_for(name: str, **overrides) -> ExperimentSpec:
    return ExperimentSpec(name=name, **{**sim_matrix.BASE, **sim_matrix.MATRIX[name], **overrides})


def run_with(monkeypatch, spec, helpers, pool_class=ReplicaPool, **kwargs):
    """``spec`` on the simulator, its steps pinned in-process or in helpers."""
    monkeypatch.setattr(trainer, "ReplicaPool", functools.partial(pool_class, _helpers=helpers))
    try:
        return run_experiment(spec, "simulated", **kwargs)
    finally:
        assert multiprocessing.active_children() == []


def dumped(result) -> dict:
    payload = result.to_dict()
    payload.pop("provenance")
    payload.pop("profile")
    payload["server_statistics"] = result.server_statistics
    return sim_matrix.hexed(payload)


def assert_same(left, right) -> None:
    differences = sim_matrix._diff(dumped(left), dumped(right))
    assert differences == [], differences[:6]


@pytest.mark.parametrize("name", sorted(sim_matrix.MATRIX))
def test_helpers_reproduce_the_in_process_run(monkeypatch, name):
    spec = spec_for(name)
    assert_same(run_with(monkeypatch, spec, False), run_with(monkeypatch, spec, True))


def test_profiled_run(monkeypatch):
    spec = spec_for("hetero")
    alone = run_with(monkeypatch, spec, False, profile=True)
    helped = run_with(monkeypatch, spec, True, profile=True)
    assert_same(alone, helped)
    assert helped.profile["worker_id"] == "worker-0"
    assert [layer["name"] for layer in helped.profile["layers"]]
    assert {layer["name"] for layer in helped.profile["layers"]} == {
        layer["name"] for layer in alone.profile["layers"]
    }


def test_steps_run_ahead_and_unconsumed_are_not_reported(monkeypatch):
    """At ``max_updates`` the helpers still hold steps for the next arrivals:
    reports count only the steps whose pushes landed."""
    counts = {"submit": 0, "collect": 0}

    class Counting(ReplicaPool):
        def submit(self, worker_id):
            counts["submit"] += 1
            super().submit(worker_id)

        def collect(self, worker_id):
            counts["collect"] += 1
            return super().collect(worker_id)

    spec = spec_for("asp", max_updates=17, cluster=sim_matrix.HETERO)
    helped = run_with(monkeypatch, spec, True, pool_class=Counting)
    assert counts["submit"] > counts["collect"] == 17
    assert_same(run_with(monkeypatch, spec, False), helped)
    assert sum(report.iterations for report in helped.worker_reports) == 17


def test_crashed_worker(monkeypatch):
    spec = spec_for(
        "ssp", faults=({"worker": 0, "kind": "crash", "after_clock": 3},), cluster=sim_matrix.HETERO
    )
    helped = run_with(monkeypatch, spec, True)
    assert helped.iterations_per_worker["worker-0"] == 3
    assert_same(run_with(monkeypatch, spec, False), helped)


def test_helpers_start_mid_run_when_they_repay_their_forks(monkeypatch):
    """With forks priced at nothing, the first round runs in-process and the
    rest in helpers, which take over the replicas' packed buffers mid-run.
    The fork waits for every replica's first step (here worker-1, slowed
    3x and never blocked, pushes after the others have pushed thrice and
    twice), so every helper inherits the same warmed replicas from run to
    run."""
    started, stepped = [], []
    monkeypatch.setattr(pool_module, "FORK_SECONDS", 0.0)
    step = pool_module.replica_step
    monkeypatch.setattr(
        pool_module, "replica_step", lambda worker: stepped.append(worker.worker_id) or step(worker)
    )
    original = ReplicaPool._start
    monkeypatch.setattr(
        ReplicaPool, "_start", lambda self: started.append(list(stepped)) or original(self)
    )
    spec = spec_for("slowdowns", paradigm="asp", paradigm_kwargs={})
    decided = run_with(monkeypatch, spec, None)
    if len(os.sched_getaffinity(0)) > 1 and threading.active_count() == 1:
        [before] = started
        assert set(before) == set(decided.iterations_per_worker)
        assert len(before) > len(set(before))
    assert_same(run_with(monkeypatch, spec, False), decided)


def test_hosts_without_cpu_affinity_count_the_machine_cpus(monkeypatch):
    monkeypatch.setattr(pool_module, "FORK_SECONDS", 0.0)
    spec = spec_for("hetero")
    alone = run_with(monkeypatch, spec, False)
    monkeypatch.delattr(os, "sched_getaffinity")
    assert_same(alone, run_with(monkeypatch, spec, None))


def test_short_runs_stay_in_process(monkeypatch):
    monkeypatch.setattr(ReplicaPool, "_start", lambda self: pytest.fail("forked"))
    run_with(monkeypatch, spec_for("dssp"), None)


def failing_step(kill: bool):
    """``replica_step``, failing worker-1's third step (in the helper that runs it)."""
    real, calls = pool_module.replica_step, []

    def step(worker):
        calls.append(worker.worker_id)
        if calls.count("worker-1") == 3:
            if kill:
                os._exit(1)
            raise ValueError("bad batch")
        return real(worker)

    return step


def test_helper_exception_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(pool_module, "replica_step", failing_step(kill=False))
    with pytest.raises(ValueError, match="bad batch") as raised:
        run_with(monkeypatch, spec_for("asp"), True)
    message = str(raised.value)
    assert "worker-1's helper:\nTraceback" in message
    assert 'raise ValueError("bad batch")' in message


def test_killed_helper_is_a_run_error_naming_its_worker(monkeypatch):
    monkeypatch.setattr(pool_module, "replica_step", failing_step(kill=True))
    with pytest.raises(RuntimeError, match="replica helper of worker-1 died"):
        run_with(monkeypatch, spec_for("asp"), True)


def test_compare_names_a_spec_only_one_dump_holds(tmp_path, capsys):
    shared = {"total_time": "0x1.8p+1"}
    payload = {"losses": ["0x1.5555555555555p-2"] * 40}
    parent, change = tmp_path / "parent.json", tmp_path / "change.json"
    parent.write_text(sim_matrix.json.dumps({"shared": shared, "deleted": payload}))
    change.write_text(sim_matrix.json.dumps({"shared": shared, "added": payload}))
    assert sim_matrix.compare(parent, change) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(maxsplit=1) for line in lines] == [
        ["added", "ONLY IN CHANGE"],
        ["deleted", "ONLY IN PARENT"],
        ["shared", "IDENTICAL (1 values)"],
        ["specs", "differing: 2 of 3"],
    ]
