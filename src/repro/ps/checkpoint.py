"""Checkpointing of distributed training state.

Long training runs (the paper's jobs run up to the cluster's 24-hour limit)
need to survive restarts.  A checkpoint captures everything the server owns:
the global weights, the non-trainable buffers, the optimizer state (including
momentum velocity) and the store version, serialized to a single ``.npz``
file plus a small JSON header.

Checkpoints are layout-agnostic: every checkpoint records the per-shard
push counters, and restoring crosses layouts freely (one shard → many, many
→ one, different shard counts, heap ↔ shared memory).  When the per-shard
counters cannot be mapped onto the target layout they are reset to the
global version, a safe upper bound.

Worker-side codec state rides along too: error-feedback codecs
(:mod:`repro.ps.compression`) hold per-worker residuals of the components
they have not shipped yet.  Dropping them on restart would silently lose
every unsent gradient component, so :func:`save_checkpoint` accepts the
per-worker ``codec_states`` and :func:`load_codec_states` recovers them —
a restored run continues bit-for-bit where the interrupted one left off.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.optim.sgd import SGD
from repro.ps.sharding import ShardedKeyValueStore

__all__ = [
    "CheckpointMetadata",
    "save_checkpoint",
    "load_checkpoint",
    "load_codec_states",
    "restore_into",
]

_WEIGHT_PREFIX = "weight::"
_BUFFER_PREFIX = "buffer::"
_VELOCITY_PREFIX = "velocity::"
_CODEC_PREFIX = "codec::"
_HEADER_KEY = "__header__"


@dataclass(frozen=True)
class CheckpointMetadata:
    """Header information stored alongside the arrays."""

    version: int
    paradigm: str
    extra: dict

    def to_json(self) -> str:
        return json.dumps({"version": self.version, "paradigm": self.paradigm, "extra": self.extra})

    @staticmethod
    def from_json(payload: str) -> "CheckpointMetadata":
        data = json.loads(payload)
        return CheckpointMetadata(
            version=int(data["version"]),
            paradigm=str(data.get("paradigm", "unknown")),
            extra=dict(data.get("extra", {})),
        )


def save_checkpoint(
    path: str | Path,
    store: ShardedKeyValueStore,
    optimizer: SGD,
    paradigm: str = "unknown",
    extra: dict | None = None,
    codec_states: dict[str, dict[str, np.ndarray]] | None = None,
) -> Path:
    """Write the server state to ``path`` (``.npz`` appended if missing)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    path.parent.mkdir(parents=True, exist_ok=True)

    # Read-only copy-on-write views: the serializer only reads them, so no
    # deep copy of the model is materialized for the checkpoint write, and
    # the views stay stable even if pushes land while the file is written.
    arrays: dict[str, np.ndarray] = {}
    for name, value in store.weights.items():
        arrays[_WEIGHT_PREFIX + name] = value
    for name, value in store.buffers.items():
        arrays[_BUFFER_PREFIX + name] = value

    optimizer_state = optimizer.state_dict()
    velocity = optimizer_state.pop("velocity", {})
    for name, value in dict(velocity).items():
        arrays[_VELOCITY_PREFIX + name] = np.asarray(value)

    # Per-worker codec state (e.g. top-k error-feedback residuals), keyed
    # ``codec::{worker_id}::{state_key}``.  Worker ids and state keys may
    # not contain "::" — the separator is the parse anchor on restore.
    for worker_id, state in dict(codec_states or {}).items():
        if "::" in worker_id:
            raise ValueError(f"worker id {worker_id!r} may not contain '::'")
        for key, value in dict(state).items():
            if "::" in key:
                raise ValueError(f"codec state key {key!r} may not contain '::'")
            arrays[f"{_CODEC_PREFIX}{worker_id}::{key}"] = np.asarray(value)

    header_extra = {
        "optimizer": optimizer_state,
        **(extra or {}),
        "shard_versions": [int(v) for v in store.shard_versions],
    }
    metadata = CheckpointMetadata(
        version=store.version,
        paradigm=paradigm,
        extra=header_extra,
    )
    arrays[_HEADER_KEY] = np.frombuffer(metadata.to_json().encode("utf-8"), dtype=np.uint8)
    _atomic_savez(path, arrays)
    return path


def _atomic_savez(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """Write ``arrays`` to ``path`` so the file is always complete.

    The npz is assembled in a temp file in the *same directory* (so the
    final rename never crosses filesystems), fsynced, and moved into place
    with ``os.replace``.  A server killed mid-save — a supported event for
    the restartable TCP server — leaves either the previous checkpoint or
    the new one, never a truncated archive.
    """
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.stem + ".tmp-", suffix=".npz", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as stream:
            np.savez_compressed(stream, **arrays)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def load_checkpoint(path: str | Path) -> tuple[dict, dict, dict, CheckpointMetadata]:
    """Read a checkpoint; returns ``(weights, buffers, velocity, metadata)``."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no checkpoint at {path}")
    with np.load(path, allow_pickle=False) as archive:
        header = bytes(archive[_HEADER_KEY].tobytes()).decode("utf-8")
        metadata = CheckpointMetadata.from_json(header)
        weights = {
            name[len(_WEIGHT_PREFIX):]: archive[name]
            for name in archive.files
            if name.startswith(_WEIGHT_PREFIX)
        }
        buffers = {
            name[len(_BUFFER_PREFIX):]: archive[name]
            for name in archive.files
            if name.startswith(_BUFFER_PREFIX)
        }
        velocity = {
            name[len(_VELOCITY_PREFIX):]: archive[name]
            for name in archive.files
            if name.startswith(_VELOCITY_PREFIX)
        }
    return weights, buffers, velocity, metadata


def load_codec_states(path: str | Path) -> dict[str, dict[str, np.ndarray]]:
    """Read the per-worker codec states from a checkpoint.

    Returns ``{worker_id: state_dict}`` ready for
    :meth:`repro.ps.compression.GradientCodec.load_state_dict`; empty when
    the checkpoint was written without ``codec_states`` (stateless codec or
    pre-codec checkpoint).
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no checkpoint at {path}")
    states: dict[str, dict[str, np.ndarray]] = {}
    with np.load(path, allow_pickle=False) as archive:
        for name in archive.files:
            if not name.startswith(_CODEC_PREFIX):
                continue
            worker_id, _, key = name[len(_CODEC_PREFIX):].partition("::")
            states.setdefault(worker_id, {})[key] = archive[name]
    return states


def restore_into(
    path: str | Path, store: ShardedKeyValueStore, optimizer: SGD
) -> CheckpointMetadata:
    """Restore a checkpoint into an existing store and optimizer.

    The store must have been built for the same model (same parameter names
    and shapes); mismatches raise rather than silently truncating.
    """
    weights, buffers, velocity, metadata = load_checkpoint(path)
    store.overwrite_weights(weights)
    if buffers:
        store.update_buffers(buffers)
    shard_versions = metadata.extra.get("shard_versions")
    store.restore_version(metadata.version, shard_versions=shard_versions)
    optimizer_state = dict(metadata.extra.get("optimizer", {}))
    if optimizer_state:
        optimizer_state["velocity"] = velocity
        optimizer.load_state_dict(optimizer_state)
    return metadata
