"""Learning-rate schedules.

The paper trains the ResNets with learning rate 0.05 decayed by 0.1 at
epochs 200 and 250 of 300; :class:`MultiStepSchedule` reproduces that rule.
Schedules are pure functions of progress (epoch or step index) so they can
be evaluated identically on the server and in the simulator.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["MultiStepSchedule"]


class MultiStepSchedule:
    """Decay the rate at explicit milestones (the paper's epoch-200/250 rule)."""

    def __init__(
        self, base_learning_rate: float, milestones: Sequence[float], decay: float = 0.1
    ) -> None:
        if base_learning_rate <= 0:
            raise ValueError("base_learning_rate must be > 0")
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        self.base_learning_rate = float(base_learning_rate)
        self.milestones = sorted(float(m) for m in milestones)
        self.decay = float(decay)

    def learning_rate(self, progress: float) -> float:
        passed = sum(1 for milestone in self.milestones if progress >= milestone)
        return self.base_learning_rate * (self.decay**passed)

    __call__ = learning_rate
