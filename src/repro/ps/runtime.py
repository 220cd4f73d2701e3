"""Thread-based parameter-server runtime.

Every worker runs the shared step protocol (:mod:`repro.ps.session`) in its
own Python thread against one shared :class:`ServerSession`; the OK signal
of each worker is a ``threading.Event``.  This runtime exercises the
framework as a genuinely concurrent system on one machine (the GIL
serializes NumPy-bound compute to a degree, but the synchronization
behaviour — who waits for whom, and for how long — is real).

The session serializes its events under one lock, and against a sharded
store (``store.supports_concurrent_apply``) applies a push's gradient
before taking it, under the store's own per-shard locks, so pushes whose
gradients live on disjoint shards apply in parallel.  Every OK is what
:meth:`ServerSession.reply` builds: the shards that moved since the
worker's last push base.

Against a flat store (``store.flat_layouts``) each worker's replica is
repacked to mirror the server's per-shard buffers, so a full pull moves one
packed buffer per shard instead of N named arrays, and evaluation reads
zero-copy state views instead of deep-copying the model.

Per-worker artificial slowdowns emulate heterogeneous devices: a worker with
``slowdown=0.01`` sleeps ten milliseconds per iteration, so it behaves like
the paper's GTX 1060 next to a faster GTX 1080 Ti.
"""

from __future__ import annotations

import threading
from types import SimpleNamespace
from typing import Callable, Mapping

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.nn.module import Module
from repro.ps.faults import FaultPlan
from repro.ps.plan import TrainingPlan, assemble
from repro.ps.result import RunResult
from repro.ps.session import Resume, ServerEvent, ServerSession, WorkerLoop
from repro.ps.worker import Worker

__all__ = ["ThreadedTrainer", "DistributedTrainingConfig", "assemble_training"]


class _ThreadLink:
    """One worker thread's link: the shared session plus the OK events."""

    layouts = gradient_buffers = None  # replicas arrive packed by the trainer

    def __init__(self, trainer: "ThreadedTrainer", worker_id: str):
        self._trainer, self._session, self._worker_id = trainer, trainer.server, worker_id

    def _dispatch(self, kind: str, message=None, payload=None) -> None:
        """Hand the session one event; wake every worker it releases."""
        event = ServerEvent(self._worker_id, kind, message or {}, payload)
        for worker_id in self._session.dispatch(event).to_release:
            self._trainer._ok_events[worker_id].set()

    def open(self) -> Resume:
        return Resume(0, self._session.reply(self._worker_id, welcome=True).pull)

    def ready(self, worker: Worker) -> bool:
        return True

    def push(self, header, computation, flat, encoded) -> bool:
        if self._trainer._abort.is_set():
            return False
        self._trainer._ok_events[self._worker_id].clear()
        gradients = dict(
            named=computation.gradients, flat=flat, encoded=encoded, buffers=computation.buffers
        )
        self._dispatch("push", header, gradients)
        return True

    def await_ok(self, timeout: float):
        worker_id = self._worker_id
        if not self._trainer._ok_events[worker_id].wait(timeout=timeout):
            raise TimeoutError(f"worker {worker_id!r} waited more than {timeout:.0f}s for OK")
        return None if self._trainer._abort.is_set() else self._session.reply(worker_id).pull

    def leave(self, clock: int, rejoin_after=None) -> None:
        # The thread exits without error — a crash is an injected fault, not
        # a run failure — and workers the dead straggler was blocking go on.
        self._dispatch("departure")

    def done(self, report: dict, profile) -> None:
        self._dispatch("done", {"report": report}, profile)

    def error(self, message: str) -> None:
        self._dispatch("failure", {"reason": message})
        self._trainer._abort.set()
        for event in self._trainer._ok_events.values():  # the run terminates promptly
            event.set()


class ThreadedTrainer:
    """Runs distributed training with worker threads and a shared server."""

    def __init__(
        self,
        server: ServerSession,
        workers: list[Worker],
        iterations_per_worker: int,
        slowdowns: Mapping[str, float] | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        """Create a threaded trainer.

        ``server`` is the run's :class:`ServerSession`, every worker replica
        already joined; its ``wait_timeout`` is the workers' safety timeout
        for an OK (stretched by four times a worker's own compute time).
        Each worker performs ``iterations_per_worker`` pushes, sleeping its
        ``slowdowns`` entry (seconds) per iteration to emulate a slower
        device.  A ``fault_plan`` (:class:`repro.ps.faults.FaultPlan`)
        crashes workers (the thread leaves the membership after
        ``after_clock`` pushes, releasing anyone it was blocking) and adds
        flaky slow phases; gradient corruption lives in the server.
        """
        if iterations_per_worker <= 0:
            raise ValueError("iterations_per_worker must be positive")
        for worker in workers:
            if not server.members.get(worker.worker_id):
                raise ValueError(f"worker {worker.worker_id!r} is not registered with the server")
        self.server = server
        self.workers = workers
        self.iterations_per_worker = int(iterations_per_worker)
        self.slowdowns = dict(slowdowns or {})
        self.fault_plan = fault_plan
        # Mirror the store's packed layout in every replica so full pulls
        # land as one buffer copy per shard.
        for worker in workers:
            worker.attach_flat_layout(server.store.flat_layouts)
        self._ok_events = {worker.worker_id: threading.Event() for worker in workers}
        self._abort = threading.Event()

    @classmethod
    def from_plan(cls, plan: TrainingPlan, workload) -> "ThreadedTrainer":
        """The trainer a plan describes; ``workload`` needs ``model_builder``,
        ``train_dataset`` and ``test_dataset`` (``None``: no evaluations).

        Every replica starts from the global initial weights, as in the
        paper; the trainer exposes its ``server`` and ``workers`` for
        callers that drive the pieces themselves.
        """
        server, workers = assemble(plan, workload)
        return cls(server, workers, plan.iterations_per_worker, plan.slowdowns, plan.fault_plan)

    def run(self, *, profile: bool = False) -> RunResult:
        """Run the training to completion and return the collected results;
        with ``profile``, the first worker's per-layer breakdown included."""
        session = self.server
        loops = [
            WorkerLoop(
                worker.worker_id,
                _ThreadLink(self, worker.worker_id),
                worker=worker,
                iterations=self.iterations_per_worker,
                wait_timeout=session.wait_timeout,
                slowdown=self.slowdowns.get(worker.worker_id, 0.0),
                fault_plan=self.fault_plan,
                profile=profile and worker is self.workers[0],
            )
            for worker in self.workers
        ]
        session.evaluate(0.0)
        session.start()
        threads = [threading.Thread(target=loop.run, daemon=True) for loop in loops]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return session.finish()


# Only perfbench/layers.py still uses the two names below; ROADMAP item 5(b)
# removes them.  A run's description is the plan itself.
DistributedTrainingConfig = TrainingPlan


def assemble_training(
    config: TrainingPlan,
    model_builder: Callable[[np.random.Generator], Module],
    train_dataset: ArrayDataset,
    test_dataset: ArrayDataset | None = None,
) -> ThreadedTrainer:
    """:meth:`ThreadedTrainer.from_plan` over a workload given as its parts."""
    workload = SimpleNamespace(
        model_builder=model_builder, train_dataset=train_dataset, test_dataset=test_dataset
    )
    return ThreadedTrainer.from_plan(config, workload)
