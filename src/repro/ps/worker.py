"""Worker-side logic: a model replica bound to a data partition.

A worker owns a replica of the model, its partition of the training data
(a mini-batch loader) and the version of the global weights its replica
holds.  :meth:`Worker.compute_gradients` is one iteration (optionally over
several micro-batches: the paper's "each worker sums the gradients of its 4
GPUs").  The server updates the weights, never the worker, so every runtime
and the simulator use the same class.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.data.loader import MiniBatchLoader
from repro.nn.container import Sequential
from repro.nn.conv import Conv2d
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.ps.messages import PullReply

__all__ = ["GradientComputation", "Worker"]


@dataclass(frozen=True)
class GradientComputation:
    """Result of one local iteration.

    ``flat_gradients`` is set by workers with a packed replica: per shard,
    one flat buffer holding the whole weight block's gradient in server
    layout order (``gradients`` then maps names to views of those buffers).
    The buffers are live worker storage, valid until the next iteration —
    exactly the window in which the push is applied.
    """

    gradients: Mapping[str, np.ndarray]
    buffers: Mapping[str, np.ndarray]
    loss: float
    samples: int
    base_version: int
    flat_gradients: Mapping[int, np.ndarray] | None = None


class Worker:
    """A parameter-server worker (one model replica plus a data partition)."""

    def __init__(
        self,
        worker_id: str,
        model: Module,
        loader: MiniBatchLoader,
        loss_fn,
        micro_batches: int = 1,
    ) -> None:
        if micro_batches <= 0:
            raise ValueError("micro_batches must be positive")
        self.worker_id = worker_id
        self.model = model
        self.loader = loader
        self.loss_fn = loss_fn
        self.micro_batches = int(micro_batches)
        # Nobody reads the gradient w.r.t. the replica's input: its entry
        # layer — the first child with parameters, through Sequentials only;
        # what sits before it has nothing to accumulate — skips that matmul.
        entry = model
        while isinstance(entry, Sequential):
            entry = next((child for child in entry if child.parameters()), None)
        if isinstance(entry, (Linear, Conv2d)):
            entry.input_grad_unused = True
        self._local_version = 0
        # Push bytes are counted per step (repro.ps.session.Tally).
        self._codec = None
        self._pulled_bytes = 0
        # Per-shard packed replica buffers (see attach_flat_layout); empty
        # until a runtime attaches the server's layout.
        self._flat_replicas: dict[int, np.ndarray] = {}
        self._flat_gradients: dict[int, np.ndarray] = {}
        self._gradient_views: "OrderedDict[str, np.ndarray]" = OrderedDict()

    # ------------------------------------------------------------------
    # Weight synchronization
    # ------------------------------------------------------------------
    @property
    def local_version(self) -> int:
        """Store version of the weights currently loaded in the replica."""
        return self._local_version

    def load_weights(self, weights: Mapping[str, np.ndarray], version: int) -> None:
        """Replace the replica's trainable weights with a pulled snapshot.

        ``weights`` may be a *delta* — a subset of the parameters holding
        only the entries updated since this worker's last pull; untouched
        parameters keep their current (still correct) values.  The arrays
        may be read-only copy-on-write views; they are copied into the
        replica's own storage here.
        """
        parameters = dict(self.model.named_parameters())
        unknown = set(weights) - set(parameters)
        if unknown:
            raise KeyError(f"pulled weights contain unknown parameters: {sorted(unknown)[:5]}")
        for name, value in weights.items():
            data = parameters[name].data
            data[...] = np.asarray(value, dtype=data.dtype)
        self._local_version = int(version)

    def attach_flat_layout(
        self,
        layouts,
        gradient_buffers: Mapping[int, np.ndarray] | None = None,
        weight_buffers: Mapping[int, np.ndarray] | None = None,
    ) -> None:
        """Repack the replica's parameters to mirror the server's flat layout.

        ``layouts`` is the store's ``flat_layouts``: per shard, the segments
        of its packed weight block.  Each parameter's ``data`` *and*
        ``grad`` are rebound to views into per-shard flat buffers at the same
        offsets, so a full pull (:class:`repro.ps.messages.FlatPullPayload`)
        lands as one copy per shard (:meth:`load_reply`), and backward
        accumulates the gradient straight into the packed buffers the server
        applies with zero gather work.  Per-name delta loads write through
        the views.

        ``gradient_buffers`` / ``weight_buffers`` optionally supply that
        storage (shard index → float64 array of the shard's weight-block
        size): the process runtime passes its shared-memory mailbox as the
        gradient, and the simulator's replica helpers share both.  A second
        call moves the current values into the new storage.
        """
        parameters = dict(self.model.named_parameters())
        replicas: dict[int, np.ndarray] = {}
        flat_gradients: dict[int, np.ndarray] = {}
        gradient_views: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for shard_index, segments in layouts:
            if not segments:
                continue
            size = segments[-1].hi
            for segment in segments:
                if segment.name not in parameters:
                    raise KeyError(
                        f"layout names unknown parameter {segment.name!r}"
                    )
                if parameters[segment.name].shape != segment.shape:
                    raise ValueError(
                        f"layout shape mismatch for {segment.name!r}: "
                        f"{parameters[segment.name].shape} vs {segment.shape}"
                    )
            flat, flat_grad = (
                np.empty(size) if given is None else given[int(shard_index)]
                for given in (weight_buffers, gradient_buffers)
            )
            for kind, buffer in (("weight", flat), ("gradient", flat_grad)):
                if buffer.shape != (size,) or buffer.dtype != np.float64:
                    raise ValueError(
                        f"{kind} buffer for shard {shard_index} must be a "
                        f"float64 array of shape ({size},), got "
                        f"{buffer.dtype} {buffer.shape}"
                    )
            for segment in segments:
                parameter = parameters[segment.name]
                flat[segment.lo : segment.hi] = parameter.data.ravel()
                parameter.data = flat[segment.lo : segment.hi].reshape(segment.shape)
                flat_grad[segment.lo : segment.hi] = parameter.grad.ravel()
                parameter.grad = flat_grad[segment.lo : segment.hi].reshape(
                    segment.shape
                )
                gradient_views[segment.name] = parameter.grad
            replicas[int(shard_index)] = flat
            flat_gradients[int(shard_index)] = flat_grad
        if len(gradient_views) != len(parameters):
            missing = sorted(set(parameters) - set(gradient_views))
            raise ValueError(f"layout does not cover parameters {missing[:5]}")
        self._flat_replicas = replicas
        self._flat_gradients = flat_gradients
        # Push-order gradient mapping (name → view of the packed buffers),
        # reused every iteration instead of copying per-name arrays.
        self._gradient_views = OrderedDict(
            (name, gradient_views[name])
            for name, _ in self.model.named_parameters()
        )

    def load_reply(self, reply: PullReply) -> None:
        """Load a pull reply, taking the packed fast path when possible.

        A full reply from a flat store carries one buffer per shard; with a
        packed replica attached, each lands as a single ``np.copyto``.
        Delta replies (or workers without a packed replica) fall back to the
        per-name :meth:`load_weights` path.
        """
        if reply.flat_weights and self._flat_replicas:
            for payload in reply.flat_weights:
                np.copyto(self._flat_replicas[payload.shard], payload.buffer)
            self._local_version = int(reply.version)
        else:
            self.load_weights(reply.weights, reply.version)
        self._pulled_bytes += reply.transfer_nbytes()
        # The snapshot is copied into the replica: drop the copy-on-write
        # leases so the store's next update pays no copy for this pull.
        reply.release()

    # ------------------------------------------------------------------
    # Push codec
    # ------------------------------------------------------------------
    @property
    def codec(self):
        """The attached push codec, or ``None`` (see :meth:`set_codec`)."""
        return self._codec

    def set_codec(self, codec) -> None:
        """Attach a :class:`repro.ps.compression.GradientCodec`.

        The codec instance belongs to this worker — error-feedback
        residuals are per ``(worker, shard)`` state.  Encoding requires a
        packed replica (:meth:`attach_flat_layout`): codecs operate on the
        per-shard flat gradient buffers, never on per-name dictionaries.
        """
        self._codec = codec

    def prepare_push(self, computation: GradientComputation):
        """Encode one iteration's gradients.

        Returns ``(flat_gradients, encoded_gradients, codec_name)`` ready
        to splice into a :class:`~repro.ps.messages.PushRequest`: without a
        codec the packed buffers pass through untouched (and
        ``encoded_gradients`` is ``None``); with one, the encoded payloads
        replace them.
        """
        flat = computation.flat_gradients
        if self._codec is None:
            return flat, None, None
        if flat is None:
            raise RuntimeError(
                "a push codec requires a packed replica; call "
                "attach_flat_layout before compute_gradients"
            )
        encoded = tuple(
            self._codec.encode(int(shard), buffer)
            for shard, buffer in sorted(flat.items())
        )
        return None, encoded, self._codec.name

    @property
    def pulled_bytes(self) -> int:
        """Bytes received over the pull path so far."""
        return self._pulled_bytes

    # ------------------------------------------------------------------
    # Gradient computation
    # ------------------------------------------------------------------
    def compute_gradients(self) -> GradientComputation:
        """Run one iteration: forward/backward over ``micro_batches`` batches.

        The returned gradients are averaged over the micro-batches, matching
        the behaviour of a worker that averages the gradients produced by its
        local GPUs before pushing.  Backward accumulates in place, so the
        micro-batches run without re-zeroing and one scaling averages them.
        With a packed replica attached the gradient accumulates straight into
        the per-shard flat buffers (the rebound ``grad`` views), and the push
        carries those buffers; otherwise it is a copy per name.
        """
        self.model.train(True)
        packed = self._flat_gradients
        for buffer in packed.values():
            buffer[...] = 0.0
        if not packed:
            self.model.zero_grad()
        total_loss = 0.0
        total_samples = 0
        for _ in range(self.micro_batches):
            inputs, labels = self.loader.next_batch()
            outputs = self.model.forward(inputs)
            loss = self.loss_fn.forward(outputs, labels)
            self.model.backward(self.loss_fn.backward())
            total_loss += loss * inputs.shape[0]
            total_samples += inputs.shape[0]
        gradients = self._gradient_views if packed else self.model.gradients()
        if self.micro_batches > 1:
            inverse = 1.0 / self.micro_batches
            for buffer in (packed or gradients).values():
                buffer *= inverse
        return GradientComputation(
            gradients=gradients,
            buffers=self.model.buffers(),
            loss=total_loss / max(total_samples, 1),
            samples=total_samples,
            base_version=self._local_version,
            flat_gradients=packed or None,
        )
