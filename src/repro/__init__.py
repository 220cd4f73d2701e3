"""repro: reproduction of Dynamic Stale Synchronous Parallel (DSSP) training.

This package reproduces the system described in

    Xing Zhao, Aijun An, Junfeng Liu, Bao Xin Chen.
    "Dynamic Stale Synchronous Parallel Distributed Training for Deep
    Learning."  ICDCS 2019.

It contains, built from scratch:

* ``repro.nn`` / ``repro.optim`` / ``repro.models`` — a NumPy deep-learning
  substrate (layers, losses, SGD, AlexNet/ResNet builders).
* ``repro.data`` — synthetic CIFAR-like datasets, partitioning, loaders.
* ``repro.core`` — the synchronization paradigms: BSP, ASP, SSP and the
  paper's contribution DSSP with its synchronization controller.
* ``repro.ps`` — a parameter-server framework (key-value store, server,
  workers, process and tcp runtimes).
* ``repro.simulation`` — a discrete-event cluster simulator (virtual clock,
  device profiles, network model) used to reproduce the paper's
  accuracy-vs-time results without GPU hardware.
* ``repro.metrics`` / ``repro.experiments`` — measurement and the harness
  that regenerates every table and figure of the paper's evaluation.
* ``repro.api`` — the unified front door: a declarative
  :class:`~repro.api.ExperimentSpec` executed by pluggable backends
  (simulated, process or tcp) into one :class:`~repro.api.RunResult` schema;
  also the ``python -m repro`` command line.
"""

from repro.version import __version__

__all__ = ["__version__", "ExperimentSpec", "RunResult", "run_experiment"]

_API_EXPORTS = {"ExperimentSpec", "RunResult", "run_experiment"}


def __getattr__(name: str):
    # Lazy: `import repro` stays lightweight; the api package (which pulls
    # in the experiment harness) loads only when one of its names is used.
    if name in _API_EXPORTS:
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
