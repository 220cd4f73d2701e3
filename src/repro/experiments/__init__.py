"""Experiment harness regenerating the paper's tables and figures.

Per-experiment index (see also docs/architecture.md):

==============  ===========================================================
Experiment      Entry point
==============  ===========================================================
Figure 2        :func:`repro.experiments.figures.figure2_waiting_time_prediction`
Figure 3a/3b    :func:`repro.experiments.figures.figure3` with ``model="alexnet"``
Figure 3c/3d    :func:`repro.experiments.figures.figure3` with ``model="resnet50"``
Figure 3e/3f    :func:`repro.experiments.figures.figure3` with ``model="resnet110"``
Figure 4        :func:`repro.experiments.figures.figure4_heterogeneous`
Table I         :func:`repro.experiments.tables.table1_time_to_accuracy`
Throughput §V-C :func:`repro.experiments.ablations.throughput_ablation`
DSSP range      :func:`repro.experiments.ablations.dssp_range_ablation`
Theorems 1/2    :mod:`repro.core.regret` plus :func:`repro.experiments.ablations.regret_experiment`
==============  ===========================================================

Every entry point accepts an :class:`ExperimentScale` so the same code runs
as a seconds-long smoke test, the default offline reproduction, or a larger
overnight run.
"""

from repro.experiments.config import ExperimentScale, TINY, SMALL, DEFAULT, paper_ssp_thresholds
from repro.experiments.workloads import (
    WORKLOADS,
    Workload,
    register_workload,
    build_workload,
    alexnet_workload,
    resnet_workload,
    mlp_workload,
)
from repro.experiments.runner import ParadigmComparison, run_paradigm_comparison, average_curves
from repro.experiments.figures import (
    FigureSeries,
    FigureResult,
    figure2_waiting_time_prediction,
    figure3,
    figure4_heterogeneous,
)
from repro.experiments.tables import Table1Row, table1_time_to_accuracy, format_table1
from repro.experiments.ablations import (
    throughput_ablation,
    dssp_range_ablation,
    regret_experiment,
    fluctuating_environment_ablation,
)
from repro.experiments.topology_sweep import (
    SWEEP_PARADIGMS,
    SWEEP_TOPOLOGIES,
    TopologySweepRun,
    run_topology_sweep,
    sweep_devices,
    sweep_payload,
    sweep_spec,
)
from repro.experiments.report import format_figure_result, format_comparison_summary

__all__ = [
    "ExperimentScale",
    "TINY",
    "SMALL",
    "DEFAULT",
    "paper_ssp_thresholds",
    "WORKLOADS",
    "Workload",
    "register_workload",
    "build_workload",
    "alexnet_workload",
    "resnet_workload",
    "mlp_workload",
    "ParadigmComparison",
    "run_paradigm_comparison",
    "average_curves",
    "FigureSeries",
    "FigureResult",
    "figure2_waiting_time_prediction",
    "figure3",
    "figure4_heterogeneous",
    "Table1Row",
    "table1_time_to_accuracy",
    "format_table1",
    "throughput_ablation",
    "dssp_range_ablation",
    "regret_experiment",
    "fluctuating_environment_ablation",
    "format_figure_result",
    "format_comparison_summary",
    "SWEEP_PARADIGMS",
    "SWEEP_TOPOLOGIES",
    "TopologySweepRun",
    "run_topology_sweep",
    "sweep_devices",
    "sweep_payload",
    "sweep_spec",
]
