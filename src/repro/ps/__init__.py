"""Parameter-server framework.

The paper's training system is the classic parameter-server architecture:
one logical server holds the globally shared weights; every worker keeps a
model replica and an equal-sized partition of the training data, and
iterates *compute gradients -> push -> wait for OK -> pull -> continue*.

This subpackage provides that framework built from scratch:

* :class:`ShardedKeyValueStore` / :class:`ShardRouter` — versioned
  storage of the global weights, partitioned across key-routed shards with
  per-shard version counters and copy-on-write pulls that resend only the
  shards that moved since the puller's base.  It is the one store:
  :func:`make_store` builds it on the heap (one shard is a monolithic
  store), :class:`SharedFlatStore` over shards in shared memory.
* :class:`ServerSession` — the parameter server: one handler
  (``dispatch``) for every join, push, finish, departure and failure, which
  applies pushed gradients with an optimizer and consults a
  :class:`repro.core.SynchronizationPolicy` to decide when each worker
  receives the OK signal.
* :class:`Worker` — a model replica bound to a data partition that computes
  gradients from its (possibly stale) local weights.
* :class:`TrainingPlan` — one training run as validated plain data
  (:mod:`repro.ps.plan`), the description every backend receives, with the
  one recipe that builds its server, evaluator and worker replicas.
* :class:`WorkerLoop` / :class:`ServerSession` — the step protocol itself
  (:mod:`repro.ps.session`), written once and shared by the two runtimes
  below and the simulator, which only move bytes and wake peers; the
  process and tcp servers share one loop feeding the session their events
  too (``ServerLoop``).
* :class:`ProcessTrainer` — the multi-process runtime: one OS process per
  worker plus a server process, shards shared zero-copy through
  ``multiprocessing.shared_memory`` (:mod:`repro.ps.shm`), coordination
  over pipes — true parallelism beyond the GIL.
* :class:`TcpServer` / :class:`TcpTrainer` — the socket runtime: a
  standalone parameter server speaking a length-prefixed TCP protocol
  (:mod:`repro.ps.transport`), workers connecting by address, elastic
  membership with heartbeat liveness, and checkpoint-based graceful
  restart.
"""

from repro.ps.flatbuffer import FlatLayout, FlatShard, FlatUpdate, Segment
from repro.ps.sharding import ShardRouter, ShardedKeyValueStore, make_store
from repro.ps.messages import (
    PushRequest,
    PullReply,
    FlatPullPayload,
    WorkerReport,
)
from repro.ps.worker import Worker, GradientComputation
from repro.ps.plan import DistributedTrainingConfig, TrainingPlan, assemble_training
from repro.ps.result import Provenance, RunResult
from repro.ps.session import Outcome, ServerEvent, ServerSession, WorkerLoop
from repro.ps.process_runtime import (
    ProcessTrainer,
    ProcessTrainingPlan,
)
from repro.ps.tcp_runtime import (
    TcpServer,
    TcpTrainer,
    TcpTrainingPlan,
)
from repro.ps.transport import (
    ConnectionClosed,
    PipeConnection,
    TcpConnection,
    connect_tcp,
    format_address,
    parse_address,
)
from repro.ps.shm import (
    SharedFlatShard,
    SharedFlatStore,
    SharedSegment,
    SharedStoreHandle,
    ShmStoreClient,
    create_shared_store,
)
from repro.ps.checkpoint import (
    CheckpointMetadata,
    save_checkpoint,
    load_checkpoint,
    load_codec_states,
    restore_into,
)
from repro.ps.compression import (
    EncodedShard,
    GradientCodec,
    available_codecs,
    decode_shard,
    make_codec,
    validate_codec_spec,
)

__all__ = [
    "FlatLayout",
    "FlatShard",
    "FlatUpdate",
    "Segment",
    "ShardRouter",
    "ShardedKeyValueStore",
    "make_store",
    "PushRequest",
    "PullReply",
    "FlatPullPayload",
    "WorkerReport",
    "Worker",
    "GradientComputation",
    "ServerSession",
    "ServerEvent",
    "Outcome",
    "TrainingPlan",
    "RunResult",
    "Provenance",
    "WorkerLoop",
    "ProcessTrainer",
    "ProcessTrainingPlan",
    "TcpServer",
    "TcpTrainer",
    "TcpTrainingPlan",
    "ConnectionClosed",
    "PipeConnection",
    "TcpConnection",
    "connect_tcp",
    "format_address",
    "parse_address",
    "SharedSegment",
    "SharedStoreHandle",
    "SharedFlatShard",
    "SharedFlatStore",
    "ShmStoreClient",
    "create_shared_store",
    "DistributedTrainingConfig",
    "assemble_training",
    "CheckpointMetadata",
    "save_checkpoint",
    "load_checkpoint",
    "load_codec_states",
    "restore_into",
    "EncodedShard",
    "GradientCodec",
    "available_codecs",
    "decode_shard",
    "make_codec",
    "validate_codec_spec",
]
