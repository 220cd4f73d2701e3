"""Pluggable server-side aggregation of pushed gradients.

The parameter server's default behavior applies every push the moment it
arrives: one :meth:`~repro.optim.Optimizer.step_flat` per push, scaled by
``1 / num_workers``.  That is exactly the arithmetic-mean update the paper's
MXNet setup uses, and it is the bit-for-bit fast path this module preserves
under the name ``mean``.

Robust aggregators cannot work push-at-a-time — trimming, medians and
norm-clipping are defined over a *set* of gradients.  For them the server
buffers the pushes of one clock window into pooled scratch (see
:meth:`repro.ps.session.ServerSession.apply_push`), stacks each shard's
contributions into an ``(n, size)`` matrix, and applies the combined result
as a single fused update.

Aggregators, addressed by name through a registry
(``make_aggregator("trimmed_mean:1")``), mirroring the codec registry in
:mod:`repro.ps.compression`:

* ``mean`` — arithmetic mean; the immediate-apply fast path (no buffering,
  no overhead, bit-for-bit identical to a run without an ``aggregation``
  spec).
* ``trimmed_mean`` — coordinate-wise trimmed mean: drop the ``k`` largest
  and ``k`` smallest values of every coordinate, average the rest.
  Tolerates up to ``k`` byzantine workers per window.
* ``median`` — coordinate-wise median, the classic Byzantine-robust
  estimator of Yin et al. (ICML 2018).
* ``geomed`` — geometric median via Weiszfeld fixed-point iteration
  (the RFA aggregator of Pillutla et al.), robust to a minority of
  arbitrarily-corrupted whole gradients.
* ``clip`` — norm-clipping: rescale every gradient whose L2 norm exceeds
  ``tau`` down to ``tau``, then average.  Cheap, and enough against
  scaled-noise attackers (but not sign flips).

Every aggregator is deterministic and stateless, so the same instance can
serve every shard and the simulator's replay stays exact.
"""

from __future__ import annotations

import numpy as np

from repro.utils.registry import Registry

__all__ = [
    "Aggregator",
    "MeanAggregator",
    "TrimmedMeanAggregator",
    "MedianAggregator",
    "GeometricMedianAggregator",
    "ClipAggregator",
    "AGGREGATORS",
    "register_aggregator",
    "available_aggregators",
    "parse_aggregation_spec",
    "make_aggregator",
    "validate_aggregation_spec",
]


class Aggregator:
    """Base class and protocol for server-side gradient aggregators.

    Subclasses set ``name`` (the registry key), ``positional`` (the
    parameter a bare ``name:value`` spec assigns, or ``None``) and
    implement :meth:`combine`.  ``buffered`` tells the server whether
    pushes must be staged into a clock window first; the ``mean``
    aggregator opts out and keeps today's immediate-apply path.
    """

    name: str = "?"
    positional: str | None = None
    #: Whether the server must stage a window of pushes before applying.
    buffered: bool = True

    def combine(self, stacked: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Combine an ``(n, size)`` matrix of gradients into ``out``.

        ``stacked`` holds one staged push per row (same shard, same clock
        window); ``out`` is a ``size``-element float64 scratch the caller
        owns.  Returns ``out``.  Must not mutate ``stacked`` rows that
        alias staged scratch another shard still needs — treat the input
        as read-only.
        """
        raise NotImplementedError


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
#: Aggregator name → aggregator class; its ``__init__`` is its parameters.
AGGREGATORS = Registry("aggregator", field="aggregation")
register_aggregator = AGGREGATORS.add


def available_aggregators() -> tuple[str, ...]:
    """Registered aggregator names, sorted."""
    return tuple(sorted(AGGREGATORS))


#: Parse an aggregation spec: ``trimmed_mean:1`` means ``trimmed_mean:k=1``.
parse_aggregation_spec = AGGREGATORS.parse
#: Build an aggregator from a spec string; ``ValueError`` on a bad one.
make_aggregator = validate_aggregation_spec = AGGREGATORS.build


# ----------------------------------------------------------------------
# Aggregators
# ----------------------------------------------------------------------
@register_aggregator
class MeanAggregator(Aggregator):
    """Arithmetic mean — the immediate-apply fast path.

    A server built with ``aggregation="mean"`` (or none at all) applies
    every push the moment it arrives, exactly as before this module
    existed; :meth:`combine` exists only so a partially-filled window
    flushed at shutdown still has well-defined semantics.
    """

    name = "mean"
    buffered = False

    def combine(self, stacked: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.mean(stacked, axis=0, out=out)
        return out


@register_aggregator
class TrimmedMeanAggregator(Aggregator):
    """Coordinate-wise trimmed mean: drop the ``k`` extremes on each side.

    With fewer than ``2k + 1`` gradients in the window the trim depth is
    clamped to ``(n - 1) // 2`` (degenerating to the coordinate-wise
    median for ``n = 2k``), so a window shrunk by crashed workers still
    aggregates instead of failing.
    """

    name = "trimmed_mean"
    positional = "k"

    def __init__(self, k: float = 1.0) -> None:
        if k < 0 or k != int(k):
            raise ValueError(f"trim depth k must be a non-negative integer, got {k}")
        self.k = int(k)

    def combine(self, stacked: np.ndarray, out: np.ndarray) -> np.ndarray:
        n = stacked.shape[0]
        k = min(self.k, (n - 1) // 2)
        if k == 0:
            np.mean(stacked, axis=0, out=out)
            return out
        ordered = np.sort(stacked, axis=0)
        np.mean(ordered[k : n - k], axis=0, out=out)
        return out


@register_aggregator
class MedianAggregator(Aggregator):
    """Coordinate-wise median (Yin et al., ICML 2018)."""

    name = "median"

    def combine(self, stacked: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.median(stacked, axis=0, out=out)
        return out


@register_aggregator
class GeometricMedianAggregator(Aggregator):
    """Geometric median by Weiszfeld fixed-point iteration.

    Minimizes the sum of L2 distances to the window's gradients — robust
    to a minority of arbitrarily-corrupted whole vectors, at the price of
    a few passes over the stacked matrix.  ``eps`` regularizes the
    per-point distances so an iterate landing exactly on a gradient does
    not divide by zero (the smoothed Weiszfeld variant).
    """

    name = "geomed"
    positional = "max_iters"

    def __init__(self, max_iters: float = 8.0, tol: float = 1e-7, eps: float = 1e-12) -> None:
        if max_iters < 1 or max_iters != int(max_iters):
            raise ValueError(f"max_iters must be a positive integer, got {max_iters}")
        if tol <= 0 or eps <= 0:
            raise ValueError(f"tol and eps must be positive, got tol={tol} eps={eps}")
        self.max_iters = int(max_iters)
        self.tol = float(tol)
        self.eps = float(eps)

    def combine(self, stacked: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.mean(stacked, axis=0, out=out)
        if stacked.shape[0] <= 2:
            # With one point the mean is the answer; with two, every point
            # of the segment minimizes the objective and the mean is the
            # canonical representative.
            return out
        estimate = out
        for _ in range(self.max_iters):
            distances = np.linalg.norm(stacked - estimate, axis=1)
            weights = 1.0 / np.maximum(distances, self.eps)
            weights /= weights.sum()
            updated = weights @ stacked
            shift = float(np.linalg.norm(updated - estimate))
            estimate[:] = updated
            if shift <= self.tol * max(1.0, float(np.linalg.norm(estimate))):
                break
        return out


@register_aggregator
class ClipAggregator(Aggregator):
    """Norm-clipping mean: bound every gradient's L2 norm at ``tau``.

    Gradients over the bound are rescaled to length ``tau`` (not
    discarded) before averaging — effective against scaled-noise blowups,
    useless against sign flips (which preserve the norm).
    """

    name = "clip"
    positional = "tau"

    def __init__(self, tau: float = 1.0) -> None:
        if tau <= 0:
            raise ValueError(f"clip threshold tau must be positive, got {tau}")
        self.tau = float(tau)

    def combine(self, stacked: np.ndarray, out: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(stacked, axis=1)
        factors = np.minimum(1.0, self.tau / np.maximum(norms, 1e-300))
        np.einsum("ij,i->j", stacked, factors / stacked.shape[0], out=out)
        return out
