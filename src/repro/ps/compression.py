"""Pluggable gradient push codecs for the packed flat-buffer push path.

The hot path ships one packed float64 gradient buffer per shard (see
:mod:`repro.ps.flatbuffer`).  This module compresses exactly that buffer —
no pickle, no per-name gather — into an :class:`EncodedShard` the transport
moves and the server decodes straight back into the fused
:meth:`repro.optim.Optimizer.step_flat` path.

Codecs, addressed by name through a registry (``make_codec("topk:0.01")``):

* ``none`` — identity.  Wraps the packed buffer zero-copy; decoding returns
  the same array, so a run with ``compression="none"`` is bit-for-bit
  identical to an uncompressed run.
* ``fp16`` — half-precision cast (2 bytes/element on the wire).
* ``int8`` — stochastic-rounding quantization with one float64 scale per
  ``chunk`` elements (scale = max|g|/127), an unbiased 1-byte/element code.
* ``topk`` — magnitude top-k sparsification at ``density`` (fraction of
  elements shipped) with per-worker **error-feedback residuals**: unsent
  components accumulate locally and ride along with later pushes, which is
  what keeps convergence close to dense SGD at 1% density.
* ``significance`` — a Gaia-style (Hsieh et al., NSDI 2017) filter that
  only ships components whose magnitude exceeds ``threshold`` times the
  RMS of the accumulated gradient, everything else joining the residual.
  Unlike ``topk`` its wire size is data-dependent; ``expected_density``
  is the *a-priori* estimate the simulator's network model charges.

Encoding is stateful per **worker** (residuals), decoding is stateless:
:func:`decode_shard` needs only the :class:`EncodedShard`, so the server
holds no codec instance and any worker's payload decodes anywhere — the
property that lets the shm mailboxes carry self-describing frames
(:func:`write_encoded` / :func:`read_encoded`) across process boundaries
without pickling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.registry import Registry

__all__ = [
    "EncodedShard",
    "GradientCodec",
    "NoneCodec",
    "Fp16Codec",
    "Int8Codec",
    "TopKCodec",
    "SignificanceCodec",
    "CODECS",
    "register_codec",
    "available_codecs",
    "parse_codec_spec",
    "validate_codec_spec",
    "make_codec",
    "decode_shard",
    "frame_capacity",
    "write_encoded",
    "encoded_parts",
    "read_encoded",
]


#: Encoded-payload layouts.  ``dense`` is one value array covering every
#: element; ``qint8`` is (int8 codes, per-chunk float64 scales); ``sparse``
#: is (int32 indices, float64 values) of the shipped components only.
_SCHEMES = ("dense", "qint8", "sparse")
_SCHEME_CODES = {name: code for code, name in enumerate(_SCHEMES)}

_WIRE_DTYPES = (
    np.dtype(np.float64),
    np.dtype(np.float32),
    np.dtype(np.float16),
    np.dtype(np.int8),
    np.dtype(np.int32),
    np.dtype(np.int64),
)
_DTYPE_CODES = {dtype: code for code, dtype in enumerate(_WIRE_DTYPES)}


@dataclass(frozen=True)
class EncodedShard:
    """One shard's encoded push payload.

    ``size`` is the dense element count of the shard's weight block (what
    :func:`decode_shard` reconstructs); ``arrays`` are the wire payload in
    the order the ``scheme`` defines.  Plain ndarrays throughout, so the
    pipe transport pickles it as-is and :func:`write_encoded` frames it
    into shared memory without serialization.
    """

    shard: int
    size: int
    scheme: str
    arrays: tuple[np.ndarray, ...]

    @property
    def nbytes(self) -> int:
        """Payload bytes on the wire (sum of the array buffers)."""
        return sum(array.nbytes for array in self.arrays)


class GradientCodec:
    """Base class and protocol for push codecs.

    Subclasses set ``name`` (the registry key), ``positional`` (the
    parameter a bare ``name:value`` spec assigns, or ``None``) and
    implement :meth:`encode`.  Decoding is the codec-independent
    :func:`decode_shard`.  One codec instance belongs to one worker —
    residual state is per ``(worker, shard)``.
    """

    name: str = "?"
    positional: str | None = None

    # -- encoding ------------------------------------------------------
    def encode(self, shard: int, grad: np.ndarray) -> EncodedShard:
        """Encode one shard's packed flat gradient (1-D float64)."""
        raise NotImplementedError

    def reseed(self, rng: np.random.Generator) -> None:
        """Install the worker's deterministic RNG (stochastic codecs only)."""

    # -- capacity and timing model ------------------------------------
    def wire_fraction(self) -> float:
        """Encoded bytes as a fraction of the dense 4-byte-per-parameter
        wire convention the simulator's time model charges
        (see ``ModelCost.parameter_bytes``).  An a-priori estimate for
        data-dependent codecs; recorded bytes always use actual sizes."""
        return 1.0

    def max_encoded_nbytes(self, size: int) -> int:
        """Worst-case framed bytes of a ``size``-element shard — what one
        shm mailbox slot must hold (see :func:`frame_capacity`)."""
        return frame_capacity((size * 8,))

    # -- error-feedback state -----------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Residual state keyed by shard index as a string (npz-friendly).
        Stateless codecs return ``{}``."""
        return {}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore residuals saved by :meth:`state_dict`."""
        if state:
            raise ValueError(f"codec {self.name!r} carries no state")


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
#: Codec name → codec class; a class's ``__init__`` is its parameters.
CODECS = Registry("codec", field="compression")
register_codec = CODECS.add


def available_codecs() -> tuple[str, ...]:
    """Registered codec names, sorted."""
    return tuple(sorted(CODECS))


#: Parse a compression spec: ``topk:0.01`` means ``topk:density=0.01``.
parse_codec_spec = CODECS.parse
#: Build a codec instance from a spec string; ``ValueError`` on a bad one.
make_codec = validate_codec_spec = CODECS.build


# ----------------------------------------------------------------------
# Stateless decode
# ----------------------------------------------------------------------
def decode_shard(encoded: EncodedShard, out: np.ndarray | None = None) -> np.ndarray:
    """Reconstruct the dense gradient of one shard.

    With ``out`` (a ``size``-element float64 scratch) the decode is
    allocation-free and returns ``out``.  Without it, a ``dense`` payload
    is returned as-is — zero-copy, which is what makes the ``none`` codec
    bit-for-bit identical to the uncompressed path — and other schemes
    allocate.  The result may alias the payload; treat it as read-only
    (``step_flat`` copies each chunk into scratch before mutating).
    """
    scheme = encoded.scheme
    if scheme == "dense":
        (values,) = encoded.arrays
        if out is None:
            return values
        np.copyto(out, values, casting="unsafe")
        return out
    if scheme == "qint8":
        codes, scales = encoded.arrays
        if out is None:
            out = np.empty(encoded.size, dtype=np.float64)
        chunk = -(-encoded.size // scales.size)
        for index in range(scales.size):
            lo = index * chunk
            hi = min(encoded.size, lo + chunk)
            np.multiply(codes[lo:hi], scales[index], out=out[lo:hi], casting="unsafe")
        return out
    if scheme == "sparse":
        indices, values = encoded.arrays
        if out is None:
            out = np.zeros(encoded.size, dtype=np.float64)
        else:
            out[:] = 0.0
        out[indices] = values
        return out
    raise ValueError(f"unknown encoded scheme {scheme!r}")


# ----------------------------------------------------------------------
# Codecs
# ----------------------------------------------------------------------
@register_codec
class NoneCodec(GradientCodec):
    """Identity codec: wraps the packed buffer zero-copy."""

    name = "none"

    def encode(self, shard: int, grad: np.ndarray) -> EncodedShard:
        return EncodedShard(shard, grad.size, "dense", (grad,))


@register_codec
class Fp16Codec(GradientCodec):
    """Half-precision cast: 2 bytes/element, deterministic."""

    name = "fp16"

    def encode(self, shard: int, grad: np.ndarray) -> EncodedShard:
        return EncodedShard(shard, grad.size, "dense", (grad.astype(np.float16),))

    def wire_fraction(self) -> float:
        return 0.5

    def max_encoded_nbytes(self, size: int) -> int:
        return frame_capacity((size * 2,))


@register_codec
class Int8Codec(GradientCodec):
    """Stochastic-rounding int8 quantization with per-chunk scales.

    Each ``chunk``-element block is scaled by ``max|g| / 127`` and rounded
    stochastically (``floor(g/scale + u)``, ``u ~ U[0,1)``) so the code is
    unbiased: ``E[decode(encode(g))] = g``.
    """

    name = "int8"
    positional = "chunk"

    def __init__(self, chunk: float = 4096, seed: float = 0) -> None:
        self.chunk = int(chunk)
        if self.chunk <= 0:
            raise ValueError(f"int8 chunk must be positive, got {chunk}")
        self._rng = np.random.default_rng(int(seed))

    def reseed(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def encode(self, shard: int, grad: np.ndarray) -> EncodedShard:
        size = grad.size
        num_chunks = max(1, -(-size // self.chunk))
        # The frame carries only the scales, so the decoder infers the
        # chunking as ceil(size / num_chunks); use the same effective
        # chunk here or boundary elements decode with the wrong scale.
        chunk = -(-size // num_chunks)
        scales = np.empty(num_chunks, dtype=np.float64)
        scaled = np.empty(size, dtype=np.float64)
        for index in range(num_chunks):
            lo = index * chunk
            hi = min(size, lo + chunk)
            peak = float(np.max(np.abs(grad[lo:hi]))) if hi > lo else 0.0
            scale = peak / 127.0 if peak > 0.0 else 1.0
            scales[index] = scale
            np.divide(grad[lo:hi], scale, out=scaled[lo:hi])
        scaled += self._rng.random(size)
        np.floor(scaled, out=scaled)
        np.clip(scaled, -127.0, 127.0, out=scaled)
        return EncodedShard(
            shard, size, "qint8", (scaled.astype(np.int8), scales)
        )

    def wire_fraction(self) -> float:
        # 1 byte/element plus one 8-byte scale per chunk, against the
        # 4-byte dense convention.
        return (1.0 + 8.0 / self.chunk) / 4.0

    def max_encoded_nbytes(self, size: int) -> int:
        num_chunks = max(1, -(-size // self.chunk))
        return frame_capacity((size, num_chunks * 8))


@register_codec
class TopKCodec(GradientCodec):
    """Magnitude top-k sparsification with error-feedback residuals.

    Per push, the residual of unsent components is added to the fresh
    gradient, the ``k = density * size`` largest-magnitude components of
    the sum are shipped (sorted int32 indices + float64 values), and the
    remainder becomes the next residual — so every component eventually
    reaches the server.
    """

    name = "topk"
    positional = "density"

    def __init__(self, density: float = 0.01) -> None:
        if not 0.0 < density <= 1.0:
            raise ValueError(f"topk density must be in (0, 1], got {density}")
        self.density = float(density)
        self._residuals: dict[int, np.ndarray] = {}

    def _accumulate(self, shard: int, grad: np.ndarray) -> np.ndarray:
        residual = self._residuals.get(shard)
        if residual is None or residual.size != grad.size:
            residual = self._residuals[shard] = np.zeros(grad.size, dtype=np.float64)
        residual += grad
        return residual

    def _select(self, acc: np.ndarray) -> np.ndarray:
        k = max(1, int(round(self.density * acc.size)))
        if k >= acc.size:
            return np.arange(acc.size, dtype=np.int32)
        keep = np.argpartition(np.abs(acc), acc.size - k)[acc.size - k :]
        keep.sort()
        return keep.astype(np.int32, copy=False)

    def encode(self, shard: int, grad: np.ndarray) -> EncodedShard:
        acc = self._accumulate(shard, grad)
        keep = self._select(acc)
        values = acc[keep]  # fancy indexing copies
        acc[keep] = 0.0  # shipped components leave the residual
        return EncodedShard(shard, grad.size, "sparse", (keep, values))

    def wire_fraction(self) -> float:
        # 4-byte index + 4-byte value per kept element, dense-convention.
        return min(1.0, 2.0 * self.density)

    def max_encoded_nbytes(self, size: int) -> int:
        k = max(1, int(round(self.density * size)))
        k = min(k, size)
        return frame_capacity((k * 4, k * 8))

    def state_dict(self) -> dict[str, np.ndarray]:
        return {
            str(shard): residual.copy()
            for shard, residual in sorted(self._residuals.items())
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        self._residuals = {
            int(shard): np.array(residual, dtype=np.float64).ravel()
            for shard, residual in state.items()
        }


@register_codec
class SignificanceCodec(TopKCodec):
    """Gaia-style significance filter with error feedback.

    Ships the components of the accumulated gradient whose magnitude
    exceeds ``threshold`` times its RMS; the insignificant rest joins the
    residual until it grows significant.  The wire size is data-dependent
    (possibly empty); ``expected_density`` is only the simulator's
    a-priori charge and the mailbox-capacity bound is the dense worst
    case.
    """

    name = "significance"
    positional = "threshold"

    def __init__(self, threshold: float = 2.0, expected_density: float = 0.05) -> None:
        if threshold <= 0.0:
            raise ValueError(f"significance threshold must be > 0, got {threshold}")
        if not 0.0 < expected_density <= 1.0:
            raise ValueError(
                f"significance expected_density must be in (0, 1], got {expected_density}"
            )
        self.threshold = float(threshold)
        self.expected_density = float(expected_density)
        self._residuals: dict[int, np.ndarray] = {}

    def _select(self, acc: np.ndarray) -> np.ndarray:
        rms = float(np.sqrt(np.mean(np.square(acc))))
        if rms == 0.0:
            return np.empty(0, dtype=np.int32)
        return np.flatnonzero(np.abs(acc) > self.threshold * rms).astype(
            np.int32, copy=False
        )

    def wire_fraction(self) -> float:
        return min(1.0, 2.0 * self.expected_density)

    def max_encoded_nbytes(self, size: int) -> int:
        return frame_capacity((size * 4, size * 8))


# ----------------------------------------------------------------------
# Shared-memory framing
# ----------------------------------------------------------------------
_HEADER_FIXED = 3  # scheme code, dense size, array count


def _aligned(nbytes: int) -> int:
    return (nbytes + 7) & ~7


def frame_capacity(payload_nbytes: tuple[int, ...]) -> int:
    """Bytes one mailbox slot needs for payload arrays of the given sizes."""
    header = (_HEADER_FIXED + 2 * len(payload_nbytes)) * 8
    return header + sum(_aligned(nbytes) for nbytes in payload_nbytes)


def write_encoded(encoded: EncodedShard, region: np.ndarray) -> int:
    """Frame ``encoded`` into ``region`` (a uint8 view of shared memory).

    Layout: an int64 header ``[scheme, size, n, (dtype, length) * n]``
    followed by each payload buffer at the next 8-byte boundary.  Returns
    the framed byte count.  One vectorized copy per payload array; no
    serialization.
    """
    count = len(encoded.arrays)
    header_nbytes = (_HEADER_FIXED + 2 * count) * 8
    header = region[:header_nbytes].view(np.int64)
    header[0] = _SCHEME_CODES[encoded.scheme]
    header[1] = encoded.size
    header[2] = count
    offset = header_nbytes
    for index, array in enumerate(encoded.arrays):
        array = np.ascontiguousarray(array)
        header[_HEADER_FIXED + 2 * index] = _DTYPE_CODES[array.dtype]
        header[_HEADER_FIXED + 2 * index + 1] = array.size
        nbytes = array.nbytes
        region[offset : offset + nbytes] = array.view(np.uint8).reshape(-1)
        offset += _aligned(nbytes)
    return offset


def encoded_parts(encoded: EncodedShard) -> list:
    """The frame :func:`write_encoded` writes, as buffers to gather-send.

    One int64 header array, then per payload array a ``uint8`` view of the
    array's own memory (no copy) and the zero bytes that pad it to the next
    8-byte boundary; ``b"".join`` of the result is the frame byte-for-byte.
    """
    header = [_SCHEME_CODES[encoded.scheme], encoded.size, len(encoded.arrays)]
    payload: list = []
    for array in encoded.arrays:
        array = np.ascontiguousarray(array)
        header += (_DTYPE_CODES[array.dtype], array.size)
        payload += (array.reshape(-1).view(np.uint8), bytes(-array.nbytes % 8))
    return [np.array(header, dtype=np.int64).view(np.uint8), *payload]


def read_encoded(region: np.ndarray, shard: int) -> EncodedShard:
    """Parse a frame written by :func:`write_encoded` — zero-copy views.

    The returned arrays alias ``region`` (read-only); the mailbox protocol
    guarantees the writer does not touch it again until the frame is
    consumed and acknowledged.
    """
    scheme_code, size, count = (int(v) for v in region[: _HEADER_FIXED * 8].view(np.int64))
    if not 0 <= scheme_code < len(_SCHEMES):
        raise ValueError(f"corrupt encoded frame: scheme code {scheme_code}")
    header_nbytes = (_HEADER_FIXED + 2 * count) * 8
    header = region[:header_nbytes].view(np.int64)
    arrays = []
    offset = header_nbytes
    for index in range(count):
        dtype = _WIRE_DTYPES[int(header[_HEADER_FIXED + 2 * index])]
        length = int(header[_HEADER_FIXED + 2 * index + 1])
        nbytes = length * dtype.itemsize
        view = region[offset : offset + nbytes].view(dtype)
        view.flags.writeable = False
        arrays.append(view)
        offset += _aligned(nbytes)
    return EncodedShard(shard, size, _SCHEMES[scheme_code], tuple(arrays))
