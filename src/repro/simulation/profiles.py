"""Device (GPU) profiles.

A profile describes how fast a worker's device executes one training
iteration, expressed as sustained throughput in FLOP/s plus a fixed
per-iteration overhead (kernel launches, framework bookkeeping, host-device
transfers).  The catalogue contains the three GPUs used in the paper with
throughput ratios taken from their published single-precision peak rates:

* NVIDIA P100        — 9.3 TFLOP/s (homogeneous SOSCIP cluster),
* NVIDIA GTX 1080 Ti — 11.3 TFLOP/s (fast heterogeneous worker),
* NVIDIA GTX 1060    — 4.4 TFLOP/s (slow heterogeneous worker).

The default ``efficiency`` (fraction of peak reached on small CIFAR-scale
convolutions in a 2019 framework) and ``per_iteration_overhead`` are chosen
so simulated per-iteration times land in the tens-of-milliseconds range the
paper's hardware exhibits.  Absolute times do not need to match the paper
(the substrate differs); what matters for the reproduction is the *ratio*
between devices, which drives how often fast workers wait for slow ones
under each paradigm, and the compute-to-communication balance relative to
the network models in :mod:`repro.simulation.network`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.registry import Registry

__all__ = ["DeviceProfile", "GPU_CATALOGUE", "get_device_profile"]


@dataclass(frozen=True)
class DeviceProfile:
    """Compute capability of one worker's device."""

    name: str
    peak_flops: float
    efficiency: float = 0.05
    per_iteration_overhead: float = 0.005
    jitter: float = 0.15

    def __post_init__(self) -> None:
        if self.peak_flops <= 0:
            raise ValueError("peak_flops must be > 0")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        if self.per_iteration_overhead < 0:
            raise ValueError("per_iteration_overhead must be >= 0")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")

    @property
    def sustained_flops(self) -> float:
        """Throughput actually achieved on the training workload."""
        return self.peak_flops * self.efficiency

    def compute_time(
        self, flops: float, rng: np.random.Generator | None = None
    ) -> float:
        """Seconds to execute ``flops`` floating-point operations.

        With ``rng`` given, a multiplicative log-normal jitter of relative
        width :attr:`jitter` models run-to-run variation (OS noise, clock
        throttling, input-pipeline hiccups).
        """
        if flops < 0:
            raise ValueError("flops must be >= 0")
        base = self.per_iteration_overhead + flops / self.sustained_flops
        if rng is None or self.jitter == 0:
            return base
        factor = float(np.exp(rng.normal(0.0, self.jitter)))
        return base * factor

    def scaled(self, factor: float) -> "DeviceProfile":
        """A profile ``factor`` times faster (``factor`` > 1) or slower."""
        if factor <= 0:
            raise ValueError("factor must be > 0")
        return DeviceProfile(
            name=f"{self.name}-x{factor:g}",
            peak_flops=self.peak_flops * factor,
            efficiency=self.efficiency,
            per_iteration_overhead=self.per_iteration_overhead,
            jitter=self.jitter,
        )


GPU_CATALOGUE = Registry("device", {
    "p100": DeviceProfile(name="p100", peak_flops=9.3e12),
    "gtx1080ti": DeviceProfile(name="gtx1080ti", peak_flops=11.3e12),
    "gtx1060": DeviceProfile(name="gtx1060", peak_flops=4.4e12),
    # A deliberately slow straggler profile for ablations.
    "straggler": DeviceProfile(name="straggler", peak_flops=1.5e12, jitter=0.25),
})
#: Look up a profile from the catalogue by name (case-insensitive).
get_device_profile = GPU_CATALOGUE.__getitem__
