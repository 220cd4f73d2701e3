"""The traced layer loop: per-layer timings taken from outside the program.

Builds the workload's configuration with ``repro.ps.assemble_training``
and steps the workers round-robin from one thread through the public layer
calls — ``server.handle_pull`` → ``worker.load_reply`` →
``worker.compute_gradients`` → ``worker.prepare_push`` →
``server.apply_push`` → ``server.finish_push`` — with a root ``step`` span
(id = worker, iteration) and one child span per call.  Spans stay in
memory and are written as a Chrome trace-event file when the loop ends.
The same loop also runs with spans off, in alternating blocks, so the cost
of tracing is itself a metric.  Transport probes send the step's real
frames through a connection pair to one echo thread.

Spans inside the program are ROADMAP item 1; nothing here edits ``src/``.
"""

from __future__ import annotations

import json
import multiprocessing
import socket
import threading
import time

import numpy as np

from repro.api import ExperimentSpec
from repro.experiments import build_workload
from repro.optim import SGD
from repro.ps import (
    ConnectionClosed,
    DistributedTrainingConfig,
    PipeConnection,
    PushRequest,
    SharedFlatStore,
    ShmStoreClient,
    TcpConnection,
    assemble_training,
    connect_tcp,
    create_shared_store,
    decode_shard,
    make_codec,
)
from repro.utils.profiler import LayerProfiler

WARMUP_ROUNDS = 20
# Rounds per block: short, so the two kinds of block interleave finely, and
# three traced steps for each plain one.
TRACED_BLOCK, PLAIN_BLOCK = 6, 2

# Child spans of one step, in call order: (span name, start stamp, end stamp)
# as indices into the eight clock reads of `traced_step`.  Stamps 4..5 are
# the PushRequest construction, which stays in the step's self time.
CHILD_SPANS = (
    ("ps.server.handle_pull", 0, 1),
    ("ps.worker.load_reply", 1, 2),
    ("nn.compute_gradients", 2, 3),
    ("ps.compression.prepare_push", 3, 4),
    ("ps.server.apply_push", 5, 6),
    ("core.finish_push", 6, 7),
)


def _push_request(worker, computation, flat, encoded, codec, timestamp):
    return PushRequest(
        worker_id=worker.worker_id,
        gradients=computation.gradients,
        base_version=computation.base_version,
        timestamp=timestamp,
        buffers=computation.buffers,
        local_loss=computation.loss,
        flat_gradients=flat,
        encoded_gradients=encoded,
        codec=codec,
    )


def plain_step(server, worker, iteration):
    """One training step through the public layer calls, spans off."""
    worker.load_reply(server.handle_pull())
    computation = worker.compute_gradients()
    flat, encoded, codec = worker.prepare_push(computation)
    request = _push_request(worker, computation, flat, encoded, codec, float(iteration))
    server.finish_push(request, server.apply_push(request))


def traced_step(server, worker, index, iteration, rows, clock=time.perf_counter_ns):
    """The same step with a clock read at every layer boundary."""
    t0 = clock()
    reply = server.handle_pull()
    t1 = clock()
    worker.load_reply(reply)
    t2 = clock()
    computation = worker.compute_gradients()
    t3 = clock()
    flat, encoded, codec = worker.prepare_push(computation)
    t4 = clock()
    request = _push_request(worker, computation, flat, encoded, codec, float(iteration))
    t5 = clock()
    applied = server.apply_push(request)
    t6 = clock()
    server.finish_push(request, applied)
    t7 = clock()
    rows.append((index, iteration, t0, t1, t2, t3, t4, t5, t6, t7))
    return computation, encoded


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _timed(call, count: int, deadline: float) -> list[float]:
    """Nanosecond durations of up to ``count`` calls, stopping at ``deadline``."""
    clock = time.perf_counter_ns
    durations = []
    for _ in range(count):
        start = clock()
        call()
        durations.append(clock() - start)
        if time.monotonic() > deadline:
            break
    return durations


def write_chrome_trace(rows, path: str) -> None:
    """Write the spans as Chrome trace-event JSON (``ph: "X"``, microseconds)."""
    origin = rows[0][2]
    events = []
    for index, iteration, *stamps in rows:
        step_id = f"w{index}/i{iteration}"

        def event(name, start, end):
            return {
                "name": name,
                "cat": "perfbench",
                "ph": "X",
                "ts": (start - origin) / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": 1,
                "tid": index,
                "args": {"step": step_id},
            }

        events.append(event("step", stamps[0], stamps[7]))
        events.extend(
            event(name, stamps[lo], stamps[hi]) for name, lo, hi in CHILD_SPANS
        )
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


# ----------------------------------------------------------------------
# Transport probes
# ----------------------------------------------------------------------
def _echo(conn, weight_frames) -> None:
    """Echo thread: acknowledge pushes, answer pulls with the weight frames."""
    try:
        while True:
            header, _ = conn.recv()
            if header["type"] == "pull":
                conn.send({"type": "ok", "version": 0}, weight_frames)
            else:
                conn.send({"type": "ok"}, ())
    except ConnectionClosed:
        pass
    finally:
        conn.close()


def _probe_round_trips(conn, thread, push_header, push_frames, count, deadline, pull):
    """Time push (frames out, OK back) and optionally pull (request out, weights back)."""
    clock = time.perf_counter_ns
    push_ns, pull_ns = [], []
    try:
        for index in range(count + 5):
            start = clock()
            conn.send(push_header, push_frames)
            conn.recv()
            middle = clock()
            if pull:
                conn.send({"type": "pull"}, ())
                conn.recv()
            end = clock()
            if index >= 5:  # first round trips grow the socket/pipe buffers
                push_ns.append(middle - start)
                pull_ns.append(end - middle)
            if time.monotonic() > deadline:
                break
    finally:
        conn.close()  # the echo thread sees EOF and ends
        thread.join(timeout=10.0)
    return push_ns, pull_ns


def tcp_probe(push_header, push_frames, weight_frames, count, deadline):
    """Round trips of the step's frames over a loopback ``TcpConnection`` pair."""
    listener = socket.create_server(("127.0.0.1", 0))
    try:
        port = listener.getsockname()[1]

        def serve():
            peer, _ = listener.accept()
            _echo(TcpConnection(peer), weight_frames)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        conn = connect_tcp(f"127.0.0.1:{port}", timeout=10.0)
        return _probe_round_trips(
            conn, thread, push_header, push_frames, count, deadline, pull=True
        )
    finally:
        listener.close()


def pipe_probe(push_header, push_frames, count, deadline):
    """Round trips of the same frames over a ``PipeConnection`` pair."""
    near, far = multiprocessing.Pipe()
    thread = threading.Thread(
        target=_echo, args=(PipeConnection(far), ()), daemon=True
    )
    thread.start()
    push_ns, _ = _probe_round_trips(
        PipeConnection(near), thread, push_header, push_frames, count, deadline,
        pull=False,
    )
    return push_ns


def shm_probe(worker, flat_gradients, num_workers, count, deadline):
    """``ShmStoreClient.pull_reply`` against a shared store that changed.

    The writer applies one update before every timed pull (untimed), as the
    server does between a worker's pulls; without it the client would skip
    the unchanged shard and the probe would time an empty reply.
    """
    handle = create_shared_store(
        {name: p.data for name, p in worker.model.named_parameters()},
        worker.model.buffers(),
        slots=num_workers + 2,
        context=multiprocessing.get_context(),
    )
    try:
        writer = SharedFlatStore(handle, writer=True)
        client = ShmStoreClient(handle)
        optimizer = SGD(learning_rate=0.01, momentum=0.9)
        clock = time.perf_counter_ns
        durations = []
        try:
            for _ in range(count):
                writer.apply_gradients(
                    {}, optimizer, scale=1.0 / num_workers, flat_gradients=flat_gradients
                )
                start = clock()
                reply = client.pull_reply()
                durations.append(clock() - start)
                reply.release()
                if time.monotonic() > deadline:
                    break
        finally:
            client.close()
            writer.close()
        return durations
    finally:
        handle.unlink_all()


# ----------------------------------------------------------------------
# The traced pass
# ----------------------------------------------------------------------
def build_trainer(job: dict, spec):
    """The workload's server and workers, assembled as the threaded runtime would."""
    workload = build_workload(spec.workload, spec.resolved_scale(), **spec.workload_kwargs)
    config = DistributedTrainingConfig(
        paradigm=spec.paradigm,
        paradigm_kwargs=dict(spec.paradigm_kwargs),
        num_workers=job["workers"],
        iterations_per_worker=1,
        batch_size=spec.resolved_batch_size(),
        learning_rate=spec.learning_rate,
        momentum=spec.momentum,
        weight_decay=spec.weight_decay,
        num_shards=spec.num_shards,
        shard_strategy=spec.shard_strategy,
        dtype=spec.dtype,
        compression=spec.compression,
        seed=spec.seed,
    )
    return assemble_training(config, workload.model_builder, workload.train_dataset)


def layer_loop(server, workers, target: int, deadline: float):
    """Step the workers round-robin until ``target`` traced steps or ``deadline``.

    Traced and plain blocks alternate so drift hits both alike.  Returns the
    span rows, the tracing overhead (steps/s with spans on vs off, from block
    medians so a burst of host noise in one block does not pass for tracing
    cost), the plain-step count and the last step's computation and frames.
    """
    iteration = 0
    for _ in range(WARMUP_ROUNDS):
        for worker in workers:
            plain_step(server, worker, iteration)
        iteration += 1

    rows: list[tuple] = []
    traced_step_ns, plain_step_ns = [], []  # per block: mean ns per step
    clock = time.perf_counter_ns
    while len(rows) < target and time.monotonic() < deadline:
        start = clock()
        for _ in range(TRACED_BLOCK):
            for index, worker in enumerate(workers):
                computation, encoded = traced_step(server, worker, index, iteration, rows)
            iteration += 1
        middle = clock()
        for _ in range(PLAIN_BLOCK):
            for worker in workers:
                plain_step(server, worker, iteration)
            iteration += 1
        traced_step_ns.append((middle - start) / (TRACED_BLOCK * len(workers)))
        plain_step_ns.append((clock() - middle) / (PLAIN_BLOCK * len(workers)))
    overhead = 1.0 - float(np.median(plain_step_ns) / np.median(traced_step_ns))
    plain_steps = len(plain_step_ns) * PLAIN_BLOCK * len(workers)
    return rows, overhead, plain_steps, computation, encoded


def span_metrics(rows) -> dict:
    """p50 / p99 of every layer's span over the traced steps."""
    stamps = np.asarray([row[2:] for row in rows], dtype=np.float64)
    ms = {name: (stamps[:, hi] - stamps[:, lo]) / 1e6 for name, lo, hi in CHILD_SPANS}
    return {
        "nn.step_ms_p50": _percentile(ms["nn.compute_gradients"], 50),
        "nn.step_ms_p99": _percentile(ms["nn.compute_gradients"], 99),
        "ps.compression.encode_ms_p50": _percentile(ms["ps.compression.prepare_push"], 50),
        "ps.compression.encode_ms_p99": _percentile(ms["ps.compression.prepare_push"], 99),
        "ps.server.apply_ms_p50": _percentile(ms["ps.server.apply_push"], 50),
        "ps.server.apply_ms_p99": _percentile(ms["ps.server.apply_push"], 99),
        "ps.server.pull_us_p50": _percentile(ms["ps.server.handle_pull"], 50) * 1e3,
        "ps.worker.load_ms_p50": _percentile(ms["ps.worker.load_reply"], 50),
        "core.policy_us_p50": _percentile(ms["core.finish_push"], 50) * 1e3,
        "core.policy_us_p99": _percentile(ms["core.finish_push"], 99) * 1e3,
    }


def run_layers(job: dict) -> dict:
    """Run the traced layer loop and the probes; return metrics by name."""
    spec = ExperimentSpec.from_dict(job["spec"])
    trainer = build_trainer(job, spec)
    server, workers = trainer.server, trainer.workers
    target, seconds = int(job["spans"]), float(job["seconds"])
    probe_deadline = time.monotonic() + seconds
    rows, overhead, plain_steps, computation, encoded = layer_loop(
        server, workers, target, time.monotonic() + 0.7 * seconds
    )
    write_chrome_trace(rows, job["trace_path"])
    metrics = span_metrics(rows)
    metrics["trace.overhead_share"] = overhead
    counts = {"spans_per_layer": len(rows), "plain_steps": plain_steps}

    # Separate passes on the first worker, after the loop is over.
    worker = workers[0]
    batch_ns = _timed(worker.loader.next_batch, target, probe_deadline)
    metrics["data.batch_us_p50"] = _percentile(batch_ns, 50) / 1e3

    # The step's frames as they cross a transport: the codec's output, or
    # the packed buffers wrapped dense when the push is uncoded.
    dense = make_codec("none")
    if encoded is None:
        encoded = tuple(
            dense.encode(int(shard), buffer)
            for shard, buffer in sorted(computation.flat_gradients.items())
        )
    scratch = {
        payload.shard: np.empty(payload.size, dtype=np.float64) for payload in encoded
    }

    def decode():
        for payload in encoded:
            # As ParameterServer does: dense payloads decode zero-copy.
            if payload.scheme == "dense":
                decode_shard(payload)
            else:
                decode_shard(payload, out=scratch[payload.shard])

    metrics["ps.compression.decode_ms_p50"] = (
        _percentile(_timed(decode, target, probe_deadline), 50) / 1e6
    )

    with LayerProfiler(worker.model, loss_fn=worker.loss_fn) as profiler:
        profiled = len(
            _timed(worker.compute_gradients, max(target // 10, 5), probe_deadline)
        )
    metrics["nn.forward_ms"] = profiler.forward_seconds * 1e3 / profiled
    metrics["nn.backward_ms"] = profiler.backward_seconds * 1e3 / profiled

    push_header = {
        "type": "push",
        "worker": worker.worker_id,
        "seq": len(rows),
        "base_version": computation.base_version,
        "timestamp": 0.0,
        "loss": float(computation.loss),
        "samples": computation.samples,
        "codec": spec.compression,
    }
    if job["backend"] == "tcp":
        reply = server.handle_pull()
        weight_frames = tuple(
            dense.encode(payload.shard, np.array(payload.buffer))
            for payload in reply.flat_weights
        )
        reply.release()
        push_ns, pull_ns = tcp_probe(
            push_header, encoded, weight_frames, target, probe_deadline
        )
        metrics["ps.transport.tcp_push_ms_p50"] = _percentile(push_ns, 50) / 1e6
        metrics["ps.transport.tcp_push_ms_p99"] = _percentile(push_ns, 99) / 1e6
        metrics["ps.transport.tcp_pull_ms_p50"] = _percentile(pull_ns, 50) / 1e6
        metrics["ps.transport.tcp_pull_ms_p99"] = _percentile(pull_ns, 99) / 1e6
        counts["tcp_round_trips"] = len(push_ns)
    elif job["backend"] == "process":
        pipe_ns = pipe_probe(push_header, encoded, target, probe_deadline)
        metrics["ps.transport.pipe_push_ms_p50"] = _percentile(pipe_ns, 50) / 1e6
        shm_ns = shm_probe(
            worker, computation.flat_gradients, len(workers), target, probe_deadline
        )
        metrics["ps.shm.pull_us_p50"] = _percentile(shm_ns, 50) / 1e3
        counts["pipe_round_trips"] = len(pipe_ns)
        counts["shm_pulls"] = len(shm_ns)
    return {"metrics": metrics, "counts": counts}
