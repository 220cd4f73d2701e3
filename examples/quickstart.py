"""Quickstart: one declarative spec, any backend.

This example describes a small DSSP training run as an
:class:`repro.api.ExperimentSpec` — four workers, one artificially slowed
so the dynamic threshold has something to adapt to — and executes it with
the *process* backend (a real parameter server with one OS process per
worker on this machine).  Flip ``--backend simulated`` to run the identical
spec in the discrete-event simulator instead, or ``--backend tcp`` to run it
over localhost sockets; the result schema is the same either way.

Run with:

    python examples/quickstart.py
    python examples/quickstart.py --backend simulated

The spec is also written next to the script, so the equivalent command-line
run is:

    python -m repro run examples/quickstart_spec.json --backend process
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.api import ClusterConfig, ExperimentSpec, available_backends, run_experiment
from repro.utils.logging import enable_console_logging
from repro.utils.timing import format_seconds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", choices=available_backends(), default="process")
    arguments = parser.parse_args()

    enable_console_logging()

    # 1. The experiment, as plain data: DSSP with the paper's threshold
    #    range [3, 15], four workers, and a 10 ms slowdown on worker-3 so
    #    the dynamic threshold has something to adapt to.
    spec = ExperimentSpec(
        name="quickstart-dssp",
        workload="mlp",
        scale="tiny",
        cluster=ClusterConfig(kind="homogeneous", num_workers=4, gpus_per_worker=1),
        paradigm="dssp",
        paradigm_kwargs={"s_lower": 3, "s_upper": 15},
        epochs=16.0,
        batch_size=32,
        learning_rate=0.05,
        momentum=0.9,
        evaluate_every_updates=20,
        slowdowns={"worker-3": 0.01},
        seed=0,
    )
    # The saved file always carries the wall-clock semantics the module
    # docstring advertises (slowdowns are seconds of sleep there).
    spec_path = spec.save(Path(__file__).resolve().parent / "quickstart_spec.json")

    # 2. Run it.  Swapping the backend string is the whole migration between
    #    the simulator and a real parameter server.  The one
    #    backend-interpreted field is `slowdowns` — the simulator reads the
    #    value as an iteration-time *multiplier*, so swap in an equivalent
    #    1.5x factor there (in memory only, the spec file is untouched).
    run_spec = (
        spec
        if arguments.backend != "simulated"
        else spec.replace(slowdowns={"worker-3": 1.5})
    )
    result = run_experiment(run_spec, arguments.backend)

    # 3. Report (every field below exists identically on every backend).
    print()
    print(f"spec file               : {spec_path}")
    print(f"backend                 : {result.backend}")
    print(f"paradigm                : {result.paradigm_label}")
    print(f"total time              : {format_seconds(result.total_time)}")
    print(f"final test accuracy     : {result.final_accuracy:.3f}")
    print(f"best test accuracy      : {result.best_accuracy:.3f}")
    print(f"server updates applied  : {result.total_updates}")
    print(f"mean update staleness   : {result.staleness.mean:.2f}")
    print(f"provenance              : repro {result.provenance.repro_version}, "
          f"rev {result.provenance.git_revision}")
    print()
    print(f"{'worker':<10} {'iterations':>10} {'samples':>9} {'wait (s)':>9} {'mean loss':>10}")
    for report in result.worker_reports:
        print(
            f"{report.worker_id:<10} {report.iterations:>10d} {report.samples_processed:>9d} "
            f"{report.total_wait_time:>9.2f} {report.mean_loss:>10.3f}"
        )


if __name__ == "__main__":
    main()
