"""Synchronization invariants on the wall-clock backends.

The process and tcp backends are real concurrent systems; these tests
verify the synchronization guarantees hold under actual process
interleavings (not just in the deterministic simulator): SSP's staleness
bound on applied updates, BSP's lockstep rounds, and DSSP's wait-reduction
relative to SSP at its lower threshold when a worker is artificially slowed
down.
"""

import pytest

from repro.api import ClusterConfig, ExperimentSpec, run_experiment

#: (backend, shards): the tcp server holds a monolithic store only.
LAYOUTS = {
    "process-monolithic": ("process", 1),
    "process-sharded": ("process", 3),
    "tcp-monolithic": ("tcp", 1),
}


@pytest.fixture(params=LAYOUTS.values(), ids=LAYOUTS.keys())
def layout(request):
    """Run every invariant on both backends, and on the process backend
    against both store layouts."""
    return request.param


def run(layout, paradigm, iterations=6, slowdowns=None, **policy_kwargs):
    """Three workers of the tiny MLP, ``iterations`` pushes each: batch 8 of
    106-row partitions is 13.25 steps an epoch, so ``0.075 × iterations``
    epochs round up to ``iterations`` steps."""
    backend, num_shards = layout
    spec = ExperimentSpec(
        workload="mlp",
        scale="tiny",
        cluster=ClusterConfig(num_workers=3),
        paradigm=paradigm,
        paradigm_kwargs=policy_kwargs,
        epochs=iterations * 0.075,
        batch_size=8,
        evaluate_every_updates=0,
        num_shards=num_shards,
        slowdowns=slowdowns or {},
        seed=0,
    )
    result = run_experiment(spec, backend)
    assert set(result.iterations_per_worker.values()) == {iterations}
    return result


def max_staleness(result) -> int:
    """The largest staleness of any applied push (every push response's)."""
    return result.staleness.maximum


class TestInvariants:
    def test_total_pushes_always_equal_quota(self, layout):
        for paradigm, kwargs in [
            ("bsp", {}),
            ("asp", {}),
            ("ssp", {"staleness": 1}),
            ("dssp", {"s_lower": 1, "s_upper": 3}),
        ]:
            result = run(layout, paradigm, **kwargs)
            assert result.errors == []
            # The record's staleness count is the server's pushes handled.
            assert result.staleness.count == 3 * 6

    def test_every_push_and_reply_is_counted_exactly_once(self, layout):
        # Three workers push at once into the one server thread: each push
        # is applied and counted once, and each OK is one reply on tcp.
        # Process workers read the weights from shared memory instead, so
        # that server sends no reply at all.
        result = run(layout, "asp", iterations=20)
        assert result.errors == []
        pushes = 3 * 20
        assert result.server_statistics["store_version"] == result.staleness.count == pushes
        replies = result.server_statistics["pull_replies"]
        expected = (3, pushes) if layout[0] == "tcp" else (0, 0)
        assert (replies["dense"], replies["delta"]) == expected
        assert sum(report.iterations for report in result.worker_reports) == pushes

    def test_bsp_update_staleness_bounded_by_one_round(self, layout):
        result = run(layout, "bsp", iterations=8)
        assert result.errors == []
        # Under BSP a gradient can at most miss the other workers' pushes of
        # its own round: staleness < number of workers.
        assert max_staleness(result) <= 2

    def test_ssp_update_staleness_bounded(self, layout):
        staleness_bound = 2
        result = run(
            layout, "ssp", iterations=8, staleness=staleness_bound,
            slowdowns={"worker-2": 0.005},
        )
        assert result.errors == []
        # A gradient computed while leading by at most s iterations can miss
        # at most s * (P - 1) + (P - 1) other updates.
        assert max_staleness(result) <= (staleness_bound + 1) * 2

    @pytest.mark.parametrize("backend", ["process", "tcp"])
    def test_dssp_waits_no_more_than_ssp_lower_threshold_with_straggler(self, backend):
        slowdowns = {"worker-2": 0.01}
        ssp_result = run((backend, 1), "ssp", staleness=1, slowdowns=slowdowns)
        dssp_result = run(
            (backend, 1), "dssp", s_lower=1, s_upper=6, slowdowns=slowdowns
        )
        assert ssp_result.errors == [] and dssp_result.errors == []
        ssp_wait = sum(report.total_wait_time for report in ssp_result.worker_reports)
        dssp_wait = sum(report.total_wait_time for report in dssp_result.worker_reports)
        # Scheduling noise means this cannot be exact; allow 50% slack while
        # still catching gross regressions (DSSP must not wait far more than
        # SSP at its lower threshold).
        assert dssp_wait <= ssp_wait * 1.5 + 0.05
