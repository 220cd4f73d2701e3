"""Replicas that step in turn in one process share their layers' arenas.

``ReplicaPool`` binds every replica's modules and loss to the first
replica's per-layer ``Workspace`` arenas.  A step hands nothing on in an
arena (packed gradients, BatchNorm buffers and the loss live outside), so
the shared-arena numbers are the private-arena numbers, bit for bit, in
process and in forked helpers that each step several replicas.
"""

import functools
import multiprocessing

import numpy as np
import pytest

from repro.api import ClusterConfig, ExperimentSpec, run_experiment
from repro.experiments.config import TINY
from repro.experiments.workloads import build_workload
from repro.ps.plan import TrainingPlan, assemble
from repro.ps.session import replica_step
from repro.simulation import pool as pool_module
from repro.simulation import trainer
from repro.simulation.pool import ReplicaPool


def replicas(workload: str) -> tuple:
    """Two packed replicas of ``workload`` (one initial model, two partitions)."""
    plan = TrainingPlan(num_workers=2, batch_size=16, seed=0)
    server, workers, _ = assemble(plan, build_workload(workload, TINY))
    for worker in workers:
        worker.attach_flat_layout(server.store.flat_layouts)
    return server.store.flat_layouts, {worker.worker_id: worker for worker in workers}


def copied(step) -> tuple:
    computation = step.computation
    return (
        computation.loss,
        {shard: flat.copy() for shard, flat in computation.flat_gradients.items()},
        {name: buffer.copy() for name, buffer in computation.buffers.items()},
    )


def assert_equal(left, right) -> None:
    (loss, gradients, buffers), (other_loss, other_gradients, other_buffers) = left, right
    assert loss == other_loss
    for mine, theirs in ((gradients, other_gradients), (buffers, other_buffers)):
        assert mine.keys() == theirs.keys()
        assert all(np.array_equal(mine[key], theirs[key]) for key in mine)


@pytest.mark.parametrize("workload, batch_norms", [("resnet110", True), ("alexnet", False)])
def test_alternating_steps_on_one_arena_equal_private_arenas(workload, batch_norms):
    _, private = replicas(workload)
    layouts, shared = replicas(workload)
    ids = list(shared)
    with ReplicaPool(shared, layouts, budget=8, _helpers=False) as pool:
        one, other = (shared[worker_id].model for worker_id in ids)
        assert all(
            a._workspace is b._workspace
            for (_, a), (_, b) in zip(one.named_modules(), other.named_modules())
        )
        for _ in range(3):
            for worker_id in ids:
                pool.submit(worker_id)
                expected = copied(replica_step(private[worker_id]))
                got = copied(pool.collect(worker_id))
                assert_equal(got, expected)
                assert bool(got[2]) == batch_norms
    assert shared[ids[0]].loss_fn._workspace is shared[ids[1]].loss_fn._workspace


def test_helpers_stepping_several_replicas_equal_the_private_arena_run(monkeypatch):
    spec = ExperimentSpec(
        name="shared-arenas", workload="resnet110", scale="tiny",
        cluster=ClusterConfig(num_workers=8, gpus_per_worker=1), paradigm="dssp",
        paradigm_kwargs={"s_lower": 1, "s_upper": 4}, epochs=2.0, batch_size=16,
        evaluate_every_updates=5, seed=0,
    )
    pools = []

    class Recording(ReplicaPool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(pool_module, "_cores", lambda: 1)  # min(8, 2 x 1) helpers
    monkeypatch.setattr(trainer, "ReplicaPool", functools.partial(Recording, _helpers=True))
    shared = run_experiment(spec, "simulated")
    [pool] = pools
    assert len(pool._helpers) == 2 and multiprocessing.active_children() == []
    models = [worker.model for worker in pool.replicas.values()]
    positions = sum(1 for _ in models[0].named_modules())
    arenas = {id(module._workspace) for model in models for _, module in model.named_modules()}
    assert len(arenas) == positions
    assert len({id(worker.loss_fn._workspace) for worker in pool.replicas.values()}) == 1

    monkeypatch.setattr(pool_module, "share_arenas", lambda replica, donor: None)
    monkeypatch.setattr(trainer, "ReplicaPool", functools.partial(ReplicaPool, _helpers=False))
    private = run_experiment(spec, "simulated")
    assert min(private.iterations_per_worker.values()) >= 2
    left, right = shared.to_dict(), private.to_dict()
    for payload in (left, right):
        payload.pop("provenance")
    assert left == right
    assert shared.server_statistics == private.server_statistics
