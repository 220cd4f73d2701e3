"""Concurrency invariants of the threaded runtime.

The threaded runtime is a real concurrent system; these tests verify the
synchronization guarantees hold under actual thread interleavings (not just
in the deterministic simulator): SSP's staleness bound on applied updates,
BSP's lockstep rounds, and DSSP's wait-reduction relative to SSP at its
lower threshold when a worker is artificially slowed down.
"""

import os
import sys

import numpy as np
import pytest

from repro.core.factory import make_policy
from repro.data.loader import MiniBatchLoader
from repro.models import mlp
from repro.nn.losses import SoftmaxCrossEntropy
from repro.optim.sgd import SGD
from repro.ps.runtime import ThreadedTrainer
from repro.ps.session import ServerEvent, ServerSession
from repro.ps.sharding import make_store
from repro.ps.worker import Worker


@pytest.fixture(params=["monolithic", "sharded"])
def store_layout(request):
    """Run every invariant against both store layouts: the sharded store's
    concurrent (per-shard-locked) push path must uphold the same guarantees
    as the globally locked monolithic path."""
    return request.param


def build_trainer(
    train, paradigm, num_workers=3, iterations=6, slowdowns=None,
    store_layout="monolithic", **policy_kwargs,
):
    input_dim = train.inputs.shape[1]

    def build_model(rng):
        return mlp(input_dim=input_dim, hidden_dims=(8,), num_classes=4, rng=rng)

    global_model = build_model(np.random.default_rng(0))
    store = make_store(
        initial_weights={name: p.data for name, p in global_model.named_parameters()},
        initial_buffers=global_model.buffers(),
        num_shards=3 if store_layout == "sharded" else 1,
    )
    server = ServerSession(
        store=store,
        optimizer=SGD(learning_rate=0.05),
        policy=make_policy(paradigm, **policy_kwargs),
        wait_timeout=30.0,
    )
    workers = []
    for index in range(num_workers):
        worker_id = f"w{index}"
        server.dispatch(ServerEvent(worker_id, "join"))
        replica = build_model(np.random.default_rng(index + 1))
        replica.load_state_dict(global_model.state_dict())
        workers.append(
            Worker(
                worker_id=worker_id,
                model=replica,
                loader=MiniBatchLoader(train, batch_size=8, rng=np.random.default_rng(index + 10)),
                loss_fn=SoftmaxCrossEntropy(),
            )
        )
    return ThreadedTrainer(
        server=server,
        workers=workers,
        iterations_per_worker=iterations,
        slowdowns=slowdowns or {},
    )


def max_staleness(result) -> int:
    """The largest staleness of any applied push (every push response's)."""
    return result.staleness.maximum


class TestThreadedInvariants:
    def test_total_pushes_always_equal_quota(self, tiny_flat_datasets, store_layout):
        train, _ = tiny_flat_datasets
        for paradigm, kwargs in [
            ("bsp", {}),
            ("asp", {}),
            ("ssp", {"staleness": 1}),
            ("dssp", {"s_lower": 1, "s_upper": 3}),
        ]:
            trainer = build_trainer(
                train, paradigm, store_layout=store_layout, **kwargs
            )
            result = trainer.run()
            assert result.errors == []
            assert trainer.server.pushes_handled == 3 * 6

    def test_the_session_lock_loses_no_update(self, tiny_flat_datasets, store_layout):
        # More worker threads than cores and a switch every microsecond: every
        # push and every OK is counted exactly once by the shared session
        # (a counter bumped outside its lock would come up short).
        train, _ = tiny_flat_datasets
        num_workers, iterations = max(4, (os.cpu_count() or 1) + 2), 20
        trainer = build_trainer(
            train, "asp", num_workers=num_workers, iterations=iterations,
            store_layout=store_layout,
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = trainer.run()
        finally:
            sys.setswitchinterval(interval)
        assert result.errors == []
        pushes = num_workers * iterations
        assert trainer.server.store.version == trainer.server.pushes_handled == pushes
        replies = result.server_statistics["pull_replies"]
        assert (replies["dense"], replies["delta"]) == (num_workers, pushes)
        assert sum(report.iterations for report in result.worker_reports) == pushes

    def test_bsp_update_staleness_bounded_by_one_round(self, tiny_flat_datasets, store_layout):
        train, _ = tiny_flat_datasets
        trainer = build_trainer(
            train, "bsp", num_workers=3, iterations=8, store_layout=store_layout
        )
        result = trainer.run()
        assert result.errors == []
        # Under BSP a gradient can at most miss the other workers' pushes of
        # its own round: staleness < number of workers.
        assert max_staleness(result) <= 2

    def test_ssp_update_staleness_bounded(self, tiny_flat_datasets, store_layout):
        train, _ = tiny_flat_datasets
        staleness_bound = 2
        trainer = build_trainer(
            train,
            "ssp",
            store_layout=store_layout,
            num_workers=3,
            iterations=8,
            staleness=staleness_bound,
            slowdowns={"w2": 0.005},
        )
        result = trainer.run()
        assert result.errors == []
        # A gradient computed while leading by at most s iterations can miss
        # at most s * (P - 1) + (P - 1) other updates.
        assert max_staleness(result) <= (staleness_bound + 1) * 2

    def test_dssp_waits_no_more_than_ssp_lower_threshold_with_straggler(
        self, tiny_flat_datasets
    ):
        train, _ = tiny_flat_datasets
        slowdowns = {"w2": 0.01}
        ssp_trainer = build_trainer(
            train, "ssp", num_workers=3, iterations=6, staleness=1, slowdowns=slowdowns
        )
        ssp_result = ssp_trainer.run()
        dssp_trainer = build_trainer(
            train, "dssp", num_workers=3, iterations=6, s_lower=1, s_upper=6,
            slowdowns=slowdowns,
        )
        dssp_result = dssp_trainer.run()
        assert ssp_result.errors == [] and dssp_result.errors == []
        ssp_wait = sum(report.total_wait_time for report in ssp_result.worker_reports)
        dssp_wait = sum(report.total_wait_time for report in dssp_result.worker_reports)
        # Thread-scheduling noise means this cannot be exact; allow 50% slack
        # while still catching gross regressions (DSSP must not wait far more
        # than SSP at its lower threshold).
        assert dssp_wait <= ssp_wait * 1.5 + 0.05
