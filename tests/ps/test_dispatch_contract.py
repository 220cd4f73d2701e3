"""``ServerSession.dispatch``: one scripted event stream, every store placement.

The server is one handler over events.  This script walks it through each
kind — three joins, a BSP round of pushes, a retransmission, the planned
crash at its clock and an unplanned departure, the reports, a failure — and
pins what every event releases (in OK order), the run's errors, event
kinds, watermarks and store version.  The numbers cannot depend on where
the shards live: a flat heap store, four heap shards and shared memory
give the same answers.
"""

import multiprocessing

import numpy as np
import pytest

from repro.ps.plan import TrainingPlan, build_server
from repro.ps.session import ServerEvent
from repro.ps.sharding import make_store
from repro.ps.shm import SharedFlatStore, create_shared_store

W0, W1, W2 = "worker-0", "worker-1", "worker-2"


@pytest.fixture(params=["flat", "heap-4", "shm"])
def store(request):
    weights = {f"layer{i}.weight": np.full((3, i + 1), 0.5) for i in range(4)}
    if request.param != "shm":
        yield make_store(weights, num_shards=4 if request.param == "heap-4" else 1)
        return
    handle = create_shared_store(
        weights, num_shards=2, slots=3, context=multiprocessing.get_context()
    )
    shared = SharedFlatStore(handle)
    try:
        yield shared
    finally:
        shared.close()
        handle.unlink_all()


def push(worker_id, seq, timestamp):
    gradients = {f"layer{i}.weight": np.full((3, i + 1), 0.25) for i in range(4)}
    header = {"base_version": 0, "timestamp": timestamp, "samples": 16, "seq": seq}
    return ServerEvent(worker_id, "push", header, {"named": gradients})


def report(worker_id):
    return {
        "worker_id": worker_id, "iterations": 2, "samples_processed": 32,
        "total_wait_time": 0.0, "total_compute_time": 0.0, "mean_loss": 1.0,
    }


#: ``(event, to_release)``: the script and what each event releases.
SCRIPT = [
    (ServerEvent(W0, "join"), ()),
    (ServerEvent(W1, "join"), ()),
    (ServerEvent(W2, "join"), ()),
    (push(W0, 0, 1.0), ()),
    (push(W1, 0, 1.1), ()),
    # The round is complete: the pusher first, then the workers it freed.
    (push(W2, 0, 1.2), (W2, W0, W1)),
    # A retransmission: the clock advances, nothing is applied again.
    (push(W2, 0, 1.3), ()),
    (push(W0, 1, 2.0), ()),
    # worker-1's injected crash is due at clock 1: not an error.  Its
    # departure completes round 2 for the other two, in the order they blocked.
    (ServerEvent(W1, "departure", {"reason": "process died"}), (W2, W0)),
    (push(W0, 2, 3.0), ()),
    # An unplanned departure is an error, and frees worker-0 all the same.
    (ServerEvent(W2, "departure", {"reason": "connection lost"}), (W0,)),
    (ServerEvent(W0, "done", {"report": report(W0)}), ()),
    (ServerEvent(W1, "done", {"report": report(W1)}), ()),  # already gone
    (ServerEvent("server", "failure", {"reason": "shutting down"}), ()),
]


def test_one_event_stream_on_every_store(store):
    plan = TrainingPlan(
        paradigm="bsp", paradigm_kwargs={}, num_workers=3,
        faults=({"worker": 1, "kind": "crash", "after_clock": 1},),
    )
    session = build_server(plan, store)
    released = []
    for index, (event, _) in enumerate(SCRIPT):
        released.append(session.dispatch(event).to_release)
        if index == 2:
            session.start()
    assert released == [expected for _, expected in SCRIPT]
    assert session.errors == ["worker-2: connection lost", "server: shutting down"]
    assert session.failure == "shutting down"
    assert [event["kind"] for event in session.events] == ["duplicate_push", "crash", "crash"]
    assert session.watermarks == {W0: 2, W1: 0, W2: 0}
    assert session.store.version == 5
    assert session.registered == [] and session.pushes_handled == 5
