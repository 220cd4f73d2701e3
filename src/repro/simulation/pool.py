"""The simulator's replica steps: in-process, or overlapped in forked helpers.

A replica's next push depends only on state it owns (its last OK's weights,
its loader position and RNG, its codec residual), so its step may run
anywhere between the OK and the push arrival: the results are the same bits.
Its layers' scratch is not such state: two steps never overlap in one
process, so every replica draws it from the first replica's arenas.
"""

from __future__ import annotations

import contextlib
import mmap
import multiprocessing
import os
import threading
import time
import traceback
from dataclasses import replace

import numpy as np

from repro.nn import share_arenas
from repro.ps.session import Step, replica_step

__all__ = ["ReplicaPool"]

#: Seconds one helper's fork costs, and how many times over the remaining
#: steps must repay the forks.
FORK_SECONDS, REPAY = 0.015, 20.0


def _cores() -> int:
    """CPUs this process may run on (the machine's, where the OS cannot say)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _serve(conn, replicas: dict, profiler) -> None:
    """A helper: step the replicas it owns, one request at a time."""
    while True:
        worker_id = conn.recv()
        try:
            step = replica_step(replicas[worker_id])
            computation = replace(step.computation, gradients={}, flat_gradients=None)
            message = replace(step, computation=computation, flat=None)
        except Exception as error:  # noqa: BLE001 - raised again by the main process
            message = (type(error), f"{error}\n\n{worker_id}'s helper:\n{traceback.format_exc()}")
        conn.send((worker_id, message, profiler and profiler.as_dict()))


class ReplicaPool(contextlib.AbstractContextManager):
    """Each worker's next step, run between its OK and its push arrival.

    The first round, until every replica has stepped once, runs in-process
    and is timed.  Helpers start only if the remaining steps repay their
    forks ``REPAY`` times over, with ``fork``, a second core and no other
    thread: ``min(workers, 2 × cores)`` of them, replicas dealt round-robin.
    Weights and dense gradients stay in buffers shared before the fork, as
    the process backend's gradient mailboxes are; pipes carry worker ids, losses,
    BatchNorm buffers and codec frames.
    """

    def __init__(self, replicas: dict, layouts, budget: int, profiler=None, *, _helpers=None):
        """Over ``replicas`` packed to ``layouts``, for at most ``budget`` pushes.

        ``profiler`` times the first replica.  ``_helpers`` pins the executor
        (tests): ``True`` forks at once, ``False`` never.
        """
        self.replicas, self._layouts, self._budget = replicas, layouts, budget
        first = next(iter(replicas.values()))
        for worker in replicas.values():
            share_arenas(worker.model, first.model)
            share_arenas(worker.loss_fn, first.loss_fn)
        self._profiler, self._profile = profiler, None
        self._times: list[tuple[str, float]] | None = [] if _helpers is None else None
        self._pending: set[str] = set()  # submitted, to run in-process
        self._helpers, self._results, self._gradients = [], {}, {}
        self._route: dict[str, object] = {}  # worker id -> its helper's connection
        if _helpers:
            self._start()

    def __exit__(self, *exc_info) -> None:
        # Helpers own nothing else; a step in flight is one no push consumes.
        for process in self._helpers:
            process.kill()
            process.join()
        for conn in set(self._route.values()):
            conn.close()

    @property
    def profile(self) -> dict | None:
        """The profiler's ``as_dict``, from wherever the first replica ran."""
        return self._profile or (self._profiler and self._profiler.as_dict())

    def submit(self, worker_id: str) -> None:
        """``worker_id`` has loaded its OK: its next step may run."""
        times = self._times
        # Every replica has stepped once, so each helper inherits warm scratch.
        if times is not None and len({worker for worker, _ in times}) == len(self.replicas):
            self._times = None
            cores = _cores()
            forks = min(len(self.replicas), 2 * cores) * FORK_SECONDS
            if (
                cores > 1
                and len(self.replicas) > 1
                and "fork" in multiprocessing.get_all_start_methods()
                and threading.active_count() == 1  # forking a threaded process is unsafe
                and not multiprocessing.current_process().daemon
                and np.mean([t for _, t in times]) * (self._budget - len(times)) >= REPAY * forks
            ):
                self._start()
        if worker_id not in self._route:
            self._pending.add(worker_id)
            return
        try:
            self._route[worker_id].send(worker_id)
        except OSError:
            raise RuntimeError(f"the replica helper of {worker_id} died") from None

    def collect(self, worker_id: str) -> Step:
        """``worker_id``'s submitted step, waiting for its helper if need be."""
        if worker_id in self._pending:
            self._pending.discard(worker_id)
            start = time.perf_counter()
            step = replica_step(self.replicas[worker_id])
            if self._times is not None:
                self._times.append((worker_id, time.perf_counter() - start))
            return step
        while worker_id not in self._results:
            try:  # a helper's death closes the only other end of its pipe
                got, message, profile = self._route[worker_id].recv()
            except (EOFError, OSError):
                raise RuntimeError(f"the replica helper of {worker_id} died") from None
            self._results[got] = message
            self._profile = profile or self._profile
        message = self._results.pop(worker_id)
        if isinstance(message, tuple):
            kind, text = message
            raise kind(text)
        # The gradient sits in the shared buffers, and the OK's version was
        # loaded into this process's copy of the replica.
        gradients = self._gradients[worker_id]
        computation = replace(
            message.computation,
            base_version=self.replicas[worker_id].local_version,
            flat_gradients=gradients,
        )
        flat = gradients if message.encoded is None else None
        return replace(message, computation=computation, flat=flat)

    def _start(self) -> None:
        """Move the replicas' packed buffers into shared memory, then fork."""
        sizes = {int(shard): segments[-1].hi for shard, segments in self._layouts if segments}
        for worker_id, worker in self.replicas.items():
            gradients = {shard: _shared(size) for shard, size in sizes.items()}
            weights = {shard: _shared(size) for shard, size in sizes.items()}
            worker.attach_flat_layout(self._layouts, gradients, weights)
            self._gradients[worker_id] = gradients
        context = multiprocessing.get_context("fork")
        ids = list(self.replicas)
        count = min(len(ids), 2 * _cores())
        for index in range(count):
            owned = {worker_id: self.replicas[worker_id] for worker_id in ids[index::count]}
            conn, child = context.Pipe()
            profiler = self._profiler if ids[0] in owned else None
            process = context.Process(target=_serve, args=(child, owned, profiler), daemon=True)
            process.start()
            child.close()  # later forks must not inherit it
            self._helpers.append(process)
            self._route.update(dict.fromkeys(owned, conn))
        for worker_id in self._pending:
            self._route[worker_id].send(worker_id)
        self._pending.clear()


def _shared(size: int) -> np.ndarray:
    """``size`` float64 zeros in anonymous shared memory, kept across ``fork``."""
    return np.frombuffer(mmap.mmap(-1, max(size, 1) * 8), dtype=np.float64, count=size)
