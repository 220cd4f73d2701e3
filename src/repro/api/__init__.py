"""The unified experiment API: one spec, pluggable backends, one result.

The paper's claim — DSSP versus BSP/SSP/ASP — is always the *same
experiment* executed under different paradigms and substrates.  This
package gives that experiment a single declarative description and a single
result schema:

* :class:`ExperimentSpec` — workload + model scale + cluster + paradigm +
  budget + evaluation cadence + store layout, serializable to/from JSON;
* :class:`Backend` — the execution protocol, with :class:`SimulatedBackend`
  (discrete-event simulator), :class:`ProcessBackend` (process-per-worker over
  shared memory) and :class:`TcpBackend` (socket parameter server with
  elastic membership) shipped, and :func:`register_backend` for more;
* :class:`RunResult` — curves on a common time axis, worker reports,
  throughput, staleness and provenance, identical for every backend.

The command line mirrors it: ``python -m repro run spec.json
[--backend simulated|process|tcp]``.  ``docs/architecture.md``
compares the backends; ``docs/spec-reference.md`` documents every spec
field.
"""

from repro.api.spec import ClusterConfig, ExperimentSpec, NAMED_SCALES, NETWORKS
from repro.ps.result import Provenance, RunResult
from repro.api.backends import (
    Backend,
    ProcessBackend,
    SimulatedBackend,
    TcpBackend,
    available_backends,
    get_backend,
    register_backend,
    run_experiment,
)

__all__ = [
    "ClusterConfig",
    "ExperimentSpec",
    "NAMED_SCALES",
    "NETWORKS",
    "Provenance",
    "RunResult",
    "Backend",
    "SimulatedBackend",
    "ProcessBackend",
    "TcpBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "run_experiment",
]
