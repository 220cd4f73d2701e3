"""Thread-based parameter-server runtime.

Every worker runs the shared step protocol (:mod:`repro.ps.session`) in its
own Python thread; the server is shared and protected by a lock; the OK
signal of each worker is a ``threading.Event``.  This runtime exercises the
framework as a genuinely concurrent system on one machine (the GIL
serializes NumPy-bound compute to a degree, but the synchronization
behaviour — who waits for whom, and for how long — is real).

Against a sharded store (``store.supports_concurrent_apply``) the gradient
application runs *outside* the global server lock, under the store's own
per-shard locks, so pushes whose gradients live on disjoint shards no longer
serialize; only the policy decision still takes the global lock.  Every OK
is what :meth:`ServerSession.reply` builds: the shards that moved since
the worker's last push base.

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
from repro.ps.server import ParameterServer
from repro.ps.session import Resume, ServerSession, TrainingResult, WorkerLoop
from repro.ps.worker import Worker

__all__ = ["ThreadedTrainer", "DistributedTrainingConfig", "assemble_training"]


class _ThreadLink:
    """One worker thread's link: the server lock plus its OK event."""

    layouts = gradient_buffers = None  # replicas arrive packed by the trainer

    def __init__(self, trainer: "ThreadedTrainer", session: ServerSession, worker: Worker):
        self._trainer = trainer
        self._session = session
        self._worker = worker
        self._ok = trainer._ok_events[worker.worker_id]

    def _wake(self, worker_ids) -> None:
        for worker_id in worker_ids:
            self._trainer._ok_events[worker_id].set()

    def open(self) -> Resume:
        with self._trainer._lock:
            return Resume(0, self._session.reply(self._worker.worker_id, welcome=True).pull)

    def ready(self, worker: Worker) -> bool:
        return True

    def push(self, header, computation, flat, encoded) -> bool:
        trainer, session, worker_id = self._trainer, self._session, self._worker.worker_id
        if trainer._abort.is_set():
            return False
        gradients = dict(
            named=computation.gradients, flat=flat, encoded=encoded,
            buffers=computation.buffers,
        )
        staged = None
        if trainer._concurrent_apply:
            # Per-shard locks inside the store make this safe without the
            # global lock; disjoint-shard pushes run in parallel.
            staged = session.apply(worker_id, header, **gradients)
        with trainer._lock:
            self._ok.clear()
            response = session.push(worker_id, header, staged=staged, **gradients)
            self._wake(response.to_release)
        return True

    def await_ok(self, timeout: float):
        if not self._ok.wait(timeout=timeout):
            raise TimeoutError(
                f"worker {self._worker.worker_id!r} waited more than {timeout:.0f}s for OK"
            )
        if self._trainer._abort.is_set():
            return None
        with self._trainer._lock:
            return self._session.reply(self._worker.worker_id).pull

    def leave(self, clock: int, rejoin_after=None) -> None:
        # The thread exits without error — a crash is an injected fault, not
        # a run failure — and the membership change re-bounds the policy so
        # workers the dead straggler was blocking get their OK.
        with self._trainer._lock:
            self._wake(self._session.leave(self._worker.worker_id))

    def done(self, report: dict, profile) -> None:
        # A finished worker stops counting in the policy's membership and
        # the buffered window target, as under the process and tcp servers.
        worker_id = self._worker.worker_id
        with self._trainer._lock:
            self._session.done(worker_id, report, profile=profile)
            self._wake(self._session.release(worker_id))

    def error(self, message: str) -> None:
        self._session.errors.append(f"{self._worker.worker_id}: {message}")
        self._trainer._abort.set()
        # Release everyone so the run terminates promptly.
        self._wake(list(self._trainer._ok_events))


class ThreadedTrainer:
    """Runs distributed training with worker threads and a shared server."""

    def __init__(
        self,
        server: ParameterServer,
        workers: list[Worker],
        iterations_per_worker: int,
        slowdowns: Mapping[str, float] | None = None,
        evaluate_fn: Callable[[Mapping[str, np.ndarray]], tuple[float, float]] | None = None,
        evaluate_every_pushes: int = 0,
        wait_timeout: float = 120.0,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        """Create a threaded trainer.

        Parameters
        ----------
        server, workers:
            A configured :class:`ParameterServer` and the worker replicas.
            Workers must already be registered with the server.
        iterations_per_worker:
            How many push iterations each worker performs.
        slowdowns:
            Optional per-worker sleep (seconds) added to every iteration to
            emulate slower devices.
        evaluate_fn:
            Callable mapping a full global state to ``(accuracy, loss)``;
            evaluated before the first and after the last push, and every
            ``evaluate_every_pushes`` pushes when positive.
        wait_timeout:
            Safety timeout for a blocked worker (stretched by four times the
            worker's own compute time); exceeding it aborts the run with an
            error instead of hanging the test suite.
        fault_plan:
            Optional :class:`repro.ps.faults.FaultPlan` governing crashes
            (a worker thread exits mid-run after ``after_clock`` pushes and
            is deregistered, releasing anyone it was blocking) and flaky
            slow phases (extra per-iteration sleep).  Gradient corruption
            lives server-side (``ParameterServer.fault_injector``), not here.
        """
        if iterations_per_worker <= 0:
            raise ValueError("iterations_per_worker must be positive")
        registered = set(server.worker_ids)
        for worker in workers:
            if worker.worker_id not in registered:
                raise ValueError(f"worker {worker.worker_id!r} is not registered with the server")
        self.server = server
        self.workers = workers
        self.iterations_per_worker = int(iterations_per_worker)
        self.slowdowns = dict(slowdowns or {})
        self.evaluate_fn = evaluate_fn
        self.evaluate_every_pushes = int(evaluate_every_pushes)
        self.wait_timeout = float(wait_timeout)
        self.fault_plan = fault_plan

        self._lock = threading.Lock()
        self._concurrent_apply = server.store.supports_concurrent_apply
        # Mirror the store's packed layout in every replica so full pulls
        # land as one buffer copy per shard.
        for worker in workers:
            worker.attach_flat_layout(server.store.flat_layouts)
        self._ok_events: dict[str, threading.Event] = {
            worker.worker_id: threading.Event() for worker in workers
        }
        self._abort = threading.Event()

    @classmethod
    def from_plan(cls, plan: TrainingPlan, workload) -> "ThreadedTrainer":
        """The trainer a plan describes; ``workload`` needs ``model_builder``,
        ``train_dataset`` and ``test_dataset`` (``None``: no evaluations).

        Every replica starts from the global initial weights, as in the
        paper; the trainer exposes its ``server``, ``workers`` and
        ``evaluate_fn`` for callers that drive the pieces themselves.
        """
        server, workers, evaluate_fn = assemble(plan, workload)
        return cls(
            server=server,
            workers=workers,  # the trainer packs them to the store's layout
            iterations_per_worker=plan.iterations_per_worker,
            slowdowns=plan.slowdowns,
            evaluate_fn=evaluate_fn,
            evaluate_every_pushes=plan.evaluate_every_pushes,
            wait_timeout=plan.wait_timeout,
            fault_plan=plan.fault_plan,
        )

    def run(self, *, profile: bool = False) -> TrainingResult:
        """Run the training to completion and return the collected results;
        with ``profile``, the first worker's per-layer breakdown included."""
        session = ServerSession(
            self.server,
            [worker.worker_id for worker in self.workers],
            evaluate_fn=self.evaluate_fn,
            evaluate_every_pushes=self.evaluate_every_pushes,
            wait_timeout=self.wait_timeout,
        )
        loops = [
            WorkerLoop(
                worker.worker_id,
                _ThreadLink(self, session, worker),
                worker=worker,
                iterations=self.iterations_per_worker,
                wait_timeout=self.wait_timeout,
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


# Only perfbench/layers.py still uses the two names below; ROADMAP item 3(b)
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
