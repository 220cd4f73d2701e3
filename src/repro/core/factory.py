"""Registry-backed factory for synchronization policies.

Experiment configurations refer to paradigms by name (``"bsp"``, ``"asp"``,
``"ssp"``, ``"dssp"``) with keyword parameters; :data:`POLICIES` turns those
into policy objects so configs remain serializable data.  A paradigm's
parameters are its builder's signature — nothing is declared twice, and
nothing in this module needs editing to add one:

    @register_policy("gossip", description="...")
    def _build_gossip(fanout):
        return GossipParallel(fanout=int(fanout))

:func:`make_policy` reads from the registry, so every front end (the
unified :mod:`repro.api`, the simulator, the wall-clock runtimes) picks the
new paradigm up by name immediately.
"""

from __future__ import annotations

from repro.core.asp import AsynchronousParallel
from repro.core.bsp import BulkSynchronousParallel
from repro.core.dssp import DynamicStaleSynchronousParallel
from repro.core.ssp import StaleSynchronousParallel
from repro.utils.registry import Registry

__all__ = [
    "POLICIES",
    "register_policy",
    "make_policy",
    "validate_paradigm",
]

#: Paradigm name → policy builder; the builder's signature is the
#: paradigm's parameters (missing ones raise ``ValueError``, unknown ones
#: ``TypeError``).
POLICIES = Registry("paradigm")
register_policy = POLICIES.register


#: Construct a policy by name: ``make_policy("ssp", staleness=3)``.
make_policy = POLICIES.make
#: Raise exactly what :func:`make_policy` would, without building anything —
#: configs call it at construction so a typo fails before any training.
validate_paradigm = POLICIES.validate


@register_policy("bsp", description="Bulk Synchronous Parallel: all workers barrier every iteration")
def _build_bsp() -> BulkSynchronousParallel:
    return BulkSynchronousParallel()


@register_policy("asp", description="Asynchronous Parallel: no synchronization at all")
def _build_asp() -> AsynchronousParallel:
    return AsynchronousParallel()


@register_policy(
    "ssp", description="Stale Synchronous Parallel with a fixed iteration-lead threshold"
)
def _build_ssp(staleness) -> StaleSynchronousParallel:
    return StaleSynchronousParallel(staleness=int(staleness))


@register_policy(
    "dssp", description="Dynamic SSP: controller picks the threshold within [s_lower, s_upper]"
)
def _build_dssp(s_lower, s_upper, enforce_upper_bound=False) -> DynamicStaleSynchronousParallel:
    return DynamicStaleSynchronousParallel(
        s_lower=int(s_lower),
        s_upper=int(s_upper),
        enforce_upper_bound=bool(enforce_upper_bound),
    )
