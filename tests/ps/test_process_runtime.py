"""Integration tests for the multi-process runtime (repro.ps.process_runtime).

These spawn real OS processes; every plan is kept tiny so the whole module
stays in seconds.  The crash tests are the contract the shm layer makes in
its docstring: a worker dying mid-run surfaces as an error, never as a hang
or a leaked /dev/shm segment.
"""

import contextlib
import dataclasses
import multiprocessing
import os
import time
import types

import numpy as np
import pytest

from repro.experiments.config import TINY
from repro.ps.compression import decode_shard, make_codec, write_encoded
from repro.ps.plan import plan_codec
from repro.ps.process_runtime import (
    ProcessTrainer,
    ProcessTrainingPlan,
    _codec_mailbox_nbytes,
    _mailbox,
    _PipeHub,
    default_context_name,
)
from repro.ps.shm import SharedSegment, create_shared_store


def tiny_plan(**overrides) -> ProcessTrainingPlan:
    base = dict(
        workload="mlp",
        scale_fields=dataclasses.asdict(TINY),
        paradigm="dssp",
        paradigm_kwargs={"s_lower": 1, "s_upper": 4},
        num_workers=2,
        iterations_per_worker=4,
        batch_size=16,
        evaluate_every_pushes=0,
        seed=0,
        wait_timeout=60.0,
    )
    base.update(overrides)
    return ProcessTrainingPlan(**base)


def leaked_segments() -> list[str]:
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return []
    return [name for name in os.listdir("/dev/shm") if name.startswith("repro-")]


class TestPlanValidation:
    def test_unknown_slowdown_worker_rejected(self):
        with pytest.raises(ValueError, match="nonexistent workers"):
            tiny_plan(slowdowns={"worker-9": 1.0})

    def test_unknown_crash_worker_rejected(self):
        with pytest.raises(ValueError, match="nonexistent workers"):
            tiny_plan(crash_at={"worker-9": 1})

    def test_paradigm_validated_at_construction(self):
        with pytest.raises(ValueError):
            tiny_plan(paradigm="nope", paradigm_kwargs={})

    def test_transport_is_not_a_plan_field(self):
        # The backend decides the gradient path: shared-memory mailboxes.
        with pytest.raises(TypeError, match="transport"):
            tiny_plan(transport="shm")


class TestEndToEnd:
    def test_full_run_reports_everything(self):
        result = ProcessTrainer(tiny_plan(evaluate_every_pushes=4)).run()
        assert result.errors == []
        assert result.total_time > 0
        assert len(result.worker_reports) == 2
        for report in result.worker_reports:
            assert report.iterations == 4
            assert report.samples_processed == 4 * 16
        assert result.server_statistics["store_version"] == 8
        assert result.server_statistics["paradigm"] == "dssp"
        assert result.server_statistics["cow_fallbacks"] == 0
        # Curve: initial model at t=0, periodic evals, final model at wall.
        assert result.times[0] == 0.0
        assert result.times[-1] == pytest.approx(result.total_time)
        assert len(result.times) >= 3
        assert leaked_segments() == []

    def test_bsp_keeps_workers_in_lockstep(self):
        result = ProcessTrainer(
            tiny_plan(paradigm="bsp", paradigm_kwargs={}, num_workers=3)
        ).run()
        assert result.errors == []
        staleness = result.staleness
        # Under BSP a worker's update can be at most one round stale.
        assert staleness.maximum <= 3

    def test_sharded_store_and_float32(self):
        result = ProcessTrainer(tiny_plan(num_shards=3, dtype="float32")).run()
        assert result.errors == []
        assert result.server_statistics["store_version"] == 8

    @pytest.mark.parametrize("compression", ["topk:0.05", "int8"])
    def test_codec_frames_through_sharded_mailboxes(self, compression):
        # One worst-case frame region per shard in each worker's mailbox.
        result = ProcessTrainer(tiny_plan(compression=compression, num_shards=3)).run()
        assert result.errors == []
        assert result.server_statistics["store_version"] == 8
        assert result.transfers.compression_ratio > 1.0
        assert leaked_segments() == []

    @pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(),
        reason="spawn start method unavailable",
    )
    def test_spawn_context_works(self):
        result = ProcessTrainer(tiny_plan(), context="spawn").run()
        assert result.errors == []
        assert result.server_statistics["store_version"] == 8
        assert leaked_segments() == []


class TestCrashRobustness:
    def test_worker_crash_reports_error_and_leaks_nothing(self):
        plan = tiny_plan(
            paradigm="asp",
            paradigm_kwargs={},
            num_workers=3,
            iterations_per_worker=6,
            crash_at={"worker-1": 2},
            wait_timeout=30.0,
        )
        result = ProcessTrainer(plan).run()
        assert any("worker-1" in error for error in result.errors), result.errors
        assert leaked_segments() == []

    def test_crash_before_first_iteration(self):
        plan = tiny_plan(crash_at={"worker-0": 0}, wait_timeout=30.0)
        result = ProcessTrainer(plan).run()
        assert result.errors != []
        assert leaked_segments() == []

    def test_default_context_name_resolves(self):
        assert default_context_name() in multiprocessing.get_all_start_methods()


#: Configurations a mid-push death must abort cleanly under; every bound
#: below blocks worker-0 short of its budget over a corpse at clock 1.
#: DSSP takes its strict reading: by default the controller may keep
#: granting the fastest worker credit, so its lead has no fixed cap.
DEATH_CASES = {
    "ssp": dict(paradigm="ssp", paradigm_kwargs={"staleness": 2}),
    "bsp": dict(paradigm="bsp", paradigm_kwargs={}),
    "dssp": dict(
        paradigm="dssp",
        paradigm_kwargs={"s_lower": 1, "s_upper": 4, "enforce_upper_bound": True},
    ),
    "ssp-topk": dict(
        paradigm="ssp", paradigm_kwargs={"staleness": 2}, compression="topk:0.05"
    ),
    "ssp-sharded": dict(paradigm="ssp", paradigm_kwargs={"staleness": 2}, num_shards=3),
}


class TestDeathAfterPush:
    @pytest.mark.parametrize("case", sorted(DEATH_CASES))
    def test_death_after_push_aborts_the_run(self, case):
        # worker-1 dies immediately after its first push lands in its
        # mailbox (EOF mid-protocol).  A worker dying inside the shared
        # store cannot be declared harmless, so the server reports the
        # death as a failure and aborts: worker-0, blocked at lead >
        # staleness over a corpse, is woken instead of waiting out its
        # timeout.  Nothing may leak.
        plan = tiny_plan(
            **DEATH_CASES[case],
            # Past what each bound lets worker-0 reach over a corpse at clock 1.
            iterations_per_worker=8,
            crash_after_push={"worker-1": 1},
            wait_timeout=30.0,
        )
        start = time.monotonic()
        result = ProcessTrainer(plan).run()
        assert time.monotonic() - start < plan.wait_timeout
        assert any("worker-1" in error for error in result.errors), result.errors
        # Aborted, not re-bounded over the survivor: worker-0 never finishes.
        by_id = {report.worker_id: report for report in result.worker_reports}
        assert by_id["worker-0"].iterations < plan.iterations_per_worker
        assert leaked_segments() == []


# ----------------------------------------------------------------------
# Gradient mailboxes and the server's pipe hub, in one process
# ----------------------------------------------------------------------
WEIGHTS = {"a": np.arange(3.0), "b": np.arange(4.0).reshape(2, 2), "c": np.arange(5.0)}


@contextlib.contextmanager
def shared_store(plan, mailbox_nbytes=None):
    """A shared store for ``WEIGHTS`` with one gradient mailbox per worker."""
    handle = create_shared_store(
        initial_weights=WEIGHTS,
        num_shards=plan.num_shards,
        strategy=plan.shard_strategy,
        dtype=plan.dtype,
        slots=2,
        context=multiprocessing.get_context(default_context_name()),
        grad_mailboxes=plan.num_workers,
        grad_mailbox_nbytes=mailbox_nbytes,
    )
    try:
        yield handle
    finally:
        handle.unlink_all()


def codec_mailbox_nbytes(plan):
    return _codec_mailbox_nbytes(plan, WEIGHTS, {}, plan_codec(plan))


class TestMailbox:
    def test_dense_regions_hold_each_shards_gradient_back_to_back(self):
        plan = tiny_plan(num_shards=2)
        with shared_store(plan) as handle:
            segment = SharedSegment.attach(handle.grad_segments[0])
            try:
                regions = _mailbox(handle, segment, None)
                sizes = {
                    spec.index: spec.build_layout().weights_end
                    for spec in handle.shard_specs
                    if spec.build_layout().weights_end
                }
                assert {shard: len(region) for shard, region in regions.items()} == sizes
                assert all(region.dtype == np.float64 for region in regions.values())
                starts = [region.ctypes.data for _, region in sorted(regions.items())]
                ends = [start + region.nbytes for start, (_, region) in
                        zip(starts, sorted(regions.items()))]
                assert starts[1:] == ends[:-1]
                del regions
            finally:
                segment.close()

    def test_codec_regions_fit_the_worst_case_frame_and_stay_aligned(self):
        plan = tiny_plan(num_shards=2, compression="topk:0.5")
        codec, nbytes = plan_codec(plan), codec_mailbox_nbytes(plan)
        with shared_store(plan, nbytes) as handle:
            segment = SharedSegment.attach(handle.grad_segments[1])
            try:
                regions = _mailbox(handle, segment, codec)
                for spec in handle.shard_specs:
                    size = spec.build_layout().weights_end
                    assert regions[spec.index].nbytes == codec.max_encoded_nbytes(size)
                    assert regions[spec.index].nbytes % 8 == 0
                assert sum(region.nbytes for region in regions.values()) == nbytes
                del regions
            finally:
                segment.close()

    def test_a_too_small_mailbox_fails_when_sliced(self):
        plan = tiny_plan()
        with shared_store(plan) as handle:
            segment = SharedSegment.create(8)
            try:
                with pytest.raises(ValueError):
                    _mailbox(handle, segment, None)
            finally:
                segment.close()
                segment.unlink()


class _Loop:
    """The two calls a hub makes on its :class:`ServerLoop`."""

    def __init__(self) -> None:
        self.watched, self.forgotten = {}, []

    def watch(self, conn, data=None) -> None:
        self.watched[data] = conn

    def forget(self, conn) -> None:
        self.forgotten.append(conn)


@contextlib.contextmanager
def pipe_hub(compression=None):
    """A :class:`_PipeHub` over real pipes, semaphores and mailboxes.

    Yields the hub, its loop, the worker ends of the pipes (``senders``),
    the OK semaphores, the abort event, each worker's view of its mailbox
    (``regions``) and each shard's gradient size (``sizes``).
    """
    plan = tiny_plan(num_shards=2, compression=compression)
    codec = plan_codec(plan)
    nbytes = codec_mailbox_nbytes(plan) if codec is not None else None
    context = multiprocessing.get_context(default_context_name())
    with shared_store(plan, nbytes) as handle:
        pipes = [context.Pipe(duplex=False) for _ in plan.worker_ids]
        oks = tuple(context.Semaphore(0) for _ in plan.worker_ids)
        abort = context.Event()
        server_side = [SharedSegment.attach(name) for name in handle.grad_segments]
        worker_side = [SharedSegment.attach(name) for name in handle.grad_segments]
        parts = types.SimpleNamespace(
            hub=_PipeHub(
                plan, handle, None, [server for server, _ in pipes], server_side, oks, abort
            ),
            loop=_Loop(),
            senders=[sender for _, sender in pipes],
            oks=oks,
            abort=abort,
            regions={
                worker_id: _mailbox(handle, segment, codec)
                for worker_id, segment in zip(plan.worker_ids, worker_side)
            },
            sizes={spec.index: spec.build_layout().weights_end for spec in handle.shard_specs},
        )
        parts.hub.attach(parts.loop)
        try:
            yield parts
        finally:
            # Drop every view of the segments before closing their mappings.
            parts.hub = parts.regions = None
            for segment in (*server_side, *worker_side):
                segment.close()
            for server, sender in pipes:
                server.close()
                sender.close()


def receive(parts, worker_id):
    """The events the hub yields for ``worker_id``'s pipe being readable."""
    return list(parts.hub.receive([(parts.loop.watched[worker_id], worker_id)]))


def push_header():
    return {
        "type": "push", "base_version": 0, "timestamp": 0.0, "loss": 1.0,
        "samples": 16, "buffers": None,
    }


class TestPipeHub:
    def test_eof_is_a_failure(self):
        # A worker that dies mid-protocol may leave a half-written mailbox
        # behind in shared memory: never an elastic departure.
        with pipe_hub() as parts:
            parts.senders[1].close()
            assert receive(parts, "worker-1") == [
                ("worker-1", "failure", {"reason": "process died (connection lost)"}, None)
            ]
            assert parts.loop.forgotten == [parts.loop.watched["worker-1"]]

    @pytest.mark.parametrize(
        "message, kind",
        [
            ({"type": "error", "message": "boom"}, "failure"),
            ({"type": "leave", "clock": 3}, "departure"),
            ({"type": "done", "report": {"iterations": 4}}, "done"),
        ],
        ids=["error", "leave", "done"],
    )
    def test_a_workers_last_word_ends_its_watch(self, message, kind):
        with pipe_hub() as parts:
            parts.senders[0].send((dict(message), None))
            ((worker_id, event_kind, header, payload),) = receive(parts, "worker-0")
            assert (worker_id, event_kind, payload) == ("worker-0", kind, None)
            assert {key: header[key] for key in message} == message
            if kind == "failure":
                assert header["reason"] == "boom"
            assert parts.loop.forgotten == [parts.loop.watched["worker-0"]]

    def test_a_dense_push_reads_the_workers_mailbox(self):
        with pipe_hub() as parts:
            written = {}
            for shard, region in parts.regions["worker-1"].items():
                region[:] = np.arange(len(region)) + 10.0 * shard
                written[shard] = region.copy()
            parts.senders[1].send((push_header(), None))
            ((worker_id, kind, header, payload),) = receive(parts, "worker-1")
            assert (worker_id, kind, header["codec"]) == ("worker-1", "push", None)
            assert set(payload) == {"flat", "buffers"}
            assert set(payload["flat"]) == set(written)
            for shard, gradient in written.items():
                np.testing.assert_array_equal(payload["flat"][shard], gradient)
            assert parts.loop.forgotten == []

    def test_a_codec_push_parses_the_frames_in_the_mailbox(self):
        codec, rng = make_codec("topk:0.5"), np.random.default_rng(0)
        with pipe_hub("topk:0.5") as parts:
            frames = {}
            for shard, region in parts.regions["worker-0"].items():
                frames[shard] = codec.encode(shard, rng.standard_normal(parts.sizes[shard]))
                write_encoded(frames[shard], region)
            parts.senders[0].send((push_header(), None))
            ((_, kind, header, payload),) = receive(parts, "worker-0")
            assert (kind, header["codec"]) == ("push", "topk")
            assert [frame.shard for frame in payload["encoded"]] == sorted(frames)
            for frame in payload["encoded"]:
                np.testing.assert_array_equal(
                    decode_shard(frame), decode_shard(frames[frame.shard])
                )

    def test_ok_releases_only_that_worker(self):
        with pipe_hub() as parts:
            parts.hub.ok("worker-1")
            assert parts.oks[1].acquire(timeout=0)
            assert not parts.oks[0].acquire(timeout=0)
            assert not parts.abort.is_set()

    def test_abort_sets_the_flag_and_wakes_every_worker(self):
        with pipe_hub() as parts:
            parts.hub.abort("server: gave up")
            assert parts.abort.is_set()
            assert all(ok.acquire(timeout=0) for ok in parts.oks)
