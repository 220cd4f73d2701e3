"""The optimizer and learning-rate schedule.

The parameter server applies gradients with :class:`SGD` on the *global*
weights; workers only compute gradients.  This mirrors the paper's setup in
which the server performs the weight update on every push.
"""

from repro.optim.sgd import SGD
from repro.optim.schedules import MultiStepSchedule

__all__ = ["SGD", "MultiStepSchedule"]
