"""Grow-once buffer arena backing the allocation-free compute hot path.

Allocating each step's im2col column matrix, col2im padding scratch,
activation maps and gradient temporaries from scratch costs more than the
numpy compute itself at ResNet depth: they are multi-megabyte arrays whose
``mmap``/``munmap`` round trips and page-zeroing dominate.  A
:class:`Workspace` removes that cost: each module owns one arena and draws
every temporary from it with :meth:`Workspace.get`, which allocates a buffer
the *first* time a ``(tag, shape, dtype)`` combination is requested and
returns the same storage forever after.  In steady state (shapes repeating
step after step) a model allocates no per-step buffer — pinned by
``tests/nn/test_workspace.py`` through the monotonic
:attr:`Workspace.allocations` counter.  The counter sees arena buffers only:
numpy's iterator buffers (<= 64 KiB per ufunc call, e.g. a broadcast bias
add or a bool mask's cast) still come and go, and freed heap can hide even
an array-sized per-step allocation from RSS, so tracemalloc is the check.

Buffers are *zero-initialized on creation* so callers that only ever write
an interior region (e.g. the padded im2col input, whose border must read as
zero) can skip re-clearing it on reuse; callers that accumulate (col2im
scatter-add) pass ``zero=True`` to have the buffer cleared on every return.

Every :class:`repro.nn.module.Module` and loss creates its own arena at
construction, and arenas are never shared across layers.  Replicas of one
model whose steps run in turn in one process (the simulator's, see
:mod:`repro.simulation.pool`) share them layer by layer through
:func:`share_arenas`.  What a layer returns is a view of its arena, valid
until the next forward/backward of that layer or of its twin in a sharing
replica.
"""

from __future__ import annotations

from itertools import zip_longest

import numpy as np

__all__ = ["Workspace", "share_arenas"]


class Workspace:
    """Reusable numpy buffers keyed by ``(tag, shape, dtype)``.

    The arena only ever grows: a new key allocates, a seen key returns the
    existing array.  Distinct shapes under one tag (e.g. a short final
    mini-batch) keep distinct buffers, so alternating shapes stay
    allocation-free after each has been seen once.
    """

    __slots__ = ("_buffers", "allocations", "nbytes")

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}
        #: Monotonic count of buffers ever created (the no-growth assertion
        #: of the steady-state tests watches this).
        self.allocations = 0
        #: Total bytes currently held by the arena.
        self.nbytes = 0

    def get(
        self,
        tag: str,
        shape: tuple[int, ...],
        dtype=np.float64,
        *,
        zero: bool = False,
    ) -> np.ndarray:
        """Return the reusable buffer for ``(tag, shape, dtype)``.

        The buffer is zero-filled when first created; with ``zero=True`` it
        is additionally cleared on every reuse (for accumulation scratch).
        """
        key = (tag, shape, np.dtype(dtype).str)
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = np.zeros(shape, dtype=dtype)
            self._buffers[key] = buffer
            self.allocations += 1
            self.nbytes += buffer.nbytes
        elif zero:
            buffer[...] = 0
        return buffer

    @property
    def num_buffers(self) -> int:
        """Number of distinct buffers currently held."""
        return len(self._buffers)

    def clear(self) -> None:
        """Drop every buffer (the allocation counter keeps its history)."""
        self._buffers.clear()
        self.nbytes = 0

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"Workspace(buffers={self.num_buffers}, "
            f"nbytes={self.nbytes}, allocations={self.allocations})"
        )


def share_arenas(replica, donor) -> None:
    """Bind each layer of ``replica`` to the arena of the same layer of ``donor``.

    Both are module trees of one architecture, or two losses of one type.
    Only replicas whose forward/backward passes never overlap may share.
    Raises ``ValueError``, binding nothing, if the layer names or types differ.
    """
    layers = [
        list(tree.named_modules()) if hasattr(tree, "named_modules") else [("", tree)]
        for tree in (replica, donor)
    ]
    pairs = list(zip_longest(*layers, fillvalue=(None, None)))
    for (name, layer), (donor_name, donor_layer) in pairs:
        if name != donor_name or type(layer) is not type(donor_layer):
            raise ValueError(
                f"cannot share arenas: layer {name!r} ({type(layer).__name__}) "
                f"faces {donor_name!r} ({type(donor_layer).__name__})"
            )
    for (_, layer), (_, donor_layer) in pairs:
        layer._workspace = donor_layer._workspace
