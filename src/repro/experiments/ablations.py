"""Ablations and supplementary experiments.

These go beyond the paper's figures to exercise the discussion sections:

* :func:`throughput_ablation` — Section V-C's compute-to-communication
  argument: the paradigms' iteration-throughput ordering flips between
  FC-bearing and conv-only networks.
* :func:`dssp_range_ablation` — sensitivity of DSSP to the threshold range
  ``[s_L, s_U]`` (the knob that replaces SSP's single threshold).
* :func:`regret_experiment` — empirical check of Theorems 1/2 on a convex
  problem: cumulative regret under SSP/DSSP stays below the bound and is
  sub-linear.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from repro.core.regret import dssp_regret_bound, empirical_regret, regret_is_sublinear, ssp_regret_bound
from repro.data.dataset import ArrayDataset
from repro.data.synthetic import synthetic_cifar10
from repro.experiments.config import DEFAULT, ExperimentScale
from repro.experiments.runner import run_paradigm_comparison
from repro.experiments.workloads import Workload, alexnet_workload, mlp_workload, resnet_workload
from repro.models.mlp import logistic_regression
from repro.ps.plan import TrainingPlan
from repro.simulation.cluster import heterogeneous_cluster, homogeneous_cluster
from repro.simulation.trainer import SimulatedTraining, SimulationOptions
from repro.simulation.topology import TopologyTimeModel, build_topology

__all__ = [
    "throughput_ablation",
    "dssp_range_ablation",
    "fluctuating_environment_ablation",
    "regret_experiment",
]


# ----------------------------------------------------------------------
# Throughput ablation (paper Section V-C)
# ----------------------------------------------------------------------
@dataclass
class ThroughputAblationResult:
    """Iteration throughput per paradigm for an FC-bearing and a conv-only model."""

    alexnet_throughput: dict[str, float]
    resnet_throughput: dict[str, float]
    alexnet_compute_to_comm: float
    resnet_compute_to_comm: float
    metadata: dict = field(default_factory=dict)


def throughput_ablation(
    scale: ExperimentScale = DEFAULT, epochs: float | None = None, seed: int = 0
) -> ThroughputAblationResult:
    """Compare paradigms' iteration throughput on AlexNet vs ResNet.

    The paper observes that ASP/DSSP/SSP beat BSP in wall-clock time on
    FC-bearing networks (communication-heavy) while BSP has the highest
    iteration throughput on pure CNNs (compute-heavy).  The reproduction
    reports updates-per-virtual-second per paradigm for both model classes
    along with the compute-to-communication ratios that explain them.
    """
    epochs = epochs if epochs is not None else max(scale.epochs / 2, 1.0)
    cluster = homogeneous_cluster(num_workers=4, gpus_per_worker=4)
    paradigms = [
        ("bsp", {}),
        ("asp", {}),
        ("ssp", {"staleness": 3}),
        ("dssp", {"s_lower": 3, "s_upper": 15}),
    ]

    def run(workload: Workload) -> dict[str, float]:
        comparison = run_paradigm_comparison(
            workload=workload,
            cluster=cluster,
            paradigms=paradigms,
            epochs=epochs,
            batch_size=scale.batch_size,
            evaluate_every_updates=0,
            seed=seed,
            scale=scale,
        )
        return comparison.throughputs()

    alexnet = alexnet_workload(scale, seed=seed)
    resnet = resnet_workload(scale, paper_depth=110, seed=seed + 1)
    spec = cluster.workers[0]
    topology = build_topology("flat", {spec.worker_id: spec.network})
    alexnet_ratio = TopologyTimeModel(
        alexnet.timing_cost, alexnet.paper_batch_size, topology
    ).compute_to_communication_ratio(spec)
    resnet_ratio = TopologyTimeModel(
        resnet.timing_cost, resnet.paper_batch_size, topology
    ).compute_to_communication_ratio(spec)
    return ThroughputAblationResult(
        alexnet_throughput=run(alexnet),
        resnet_throughput=run(resnet),
        alexnet_compute_to_comm=alexnet_ratio,
        resnet_compute_to_comm=resnet_ratio,
        metadata={"epochs": epochs, "scale": scale.name},
    )


# ----------------------------------------------------------------------
# DSSP threshold-range ablation
# ----------------------------------------------------------------------
@dataclass
class RangeAblationEntry:
    """Outcome of one DSSP range setting."""

    s_lower: int
    s_upper: int
    best_accuracy: float
    total_time: float
    total_wait_time: float
    mean_staleness: float


def dssp_range_ablation(
    ranges: list[tuple[int, int]] | None = None,
    scale: ExperimentScale = DEFAULT,
    epochs: float | None = None,
    seed: int = 0,
) -> list[RangeAblationEntry]:
    """Sweep the DSSP threshold range on the heterogeneous cluster.

    Narrow ranges behave like SSP at ``s_L`` (more waiting); wide ranges give
    the controller more room to trade staleness for waiting time.
    """
    ranges = ranges or [(3, 3), (3, 6), (3, 9), (3, 15), (0, 15), (6, 15)]
    epochs = epochs if epochs is not None else max(scale.epochs / 2, 1.0)
    workload = resnet_workload(scale, paper_depth=110, seed=seed)
    options = SimulationOptions(
        cluster=heterogeneous_cluster(),
        epochs=epochs,
        timing_cost=workload.timing_cost,
        timing_batch_size=workload.paper_batch_size,
    )

    entries = []
    for s_lower, s_upper in ranges:
        plan = TrainingPlan(
            paradigm="dssp",
            paradigm_kwargs={"s_lower": s_lower, "s_upper": s_upper},
            num_workers=options.cluster.num_workers,
            batch_size=scale.batch_size,
            learning_rate=0.05,
            evaluate_every_pushes=scale.evaluate_every_updates,
            seed=seed,
        )
        result = SimulatedTraining(plan, workload, options).run()
        entries.append(
            RangeAblationEntry(
                s_lower=s_lower,
                s_upper=s_upper,
                best_accuracy=result.best_accuracy,
                total_time=result.total_time,
                total_wait_time=result.total_wait_time,
                mean_staleness=result.staleness.mean,
            )
        )
    return entries


# ----------------------------------------------------------------------
# Fluctuating-environment ablation (the paper's stated future work)
# ----------------------------------------------------------------------
@dataclass
class FluctuationAblationEntry:
    """Outcome of one paradigm under a transiently degraded worker."""

    paradigm_label: str
    best_accuracy: float
    total_time: float
    total_wait_time: float
    time_to_half_best: float | None


def fluctuating_environment_ablation(
    scale: ExperimentScale = DEFAULT,
    epochs: float | None = None,
    degradation_factor: float = 3.0,
    seed: int = 0,
) -> list[FluctuationAblationEntry]:
    """Compare paradigms when one worker transiently degrades mid-run.

    The paper's conclusion lists "an unstable environment where network
    connections are fluctuating" as future work.  This ablation models it:
    worker-0 of the homogeneous cluster runs ``degradation_factor`` times
    slower during the middle third of the (virtual) run, then recovers.
    Adaptive paradigms (DSSP, and ASP by construction) should lose less time
    than the fixed-threshold and fully synchronous ones.
    """
    if degradation_factor < 1.0:
        raise ValueError("degradation_factor must be >= 1")
    epochs = epochs if epochs is not None else max(scale.epochs / 2, 1.0)
    workload = mlp_workload(scale, seed=seed)
    options = SimulationOptions(
        cluster=homogeneous_cluster(num_workers=4, gpus_per_worker=4),
        epochs=epochs,
        timing_cost=workload.timing_cost,
        timing_batch_size=workload.paper_batch_size,
    )

    def plan(paradigm: str, paradigm_kwargs: dict, evaluate_every: int) -> TrainingPlan:
        return TrainingPlan(
            paradigm=paradigm,
            paradigm_kwargs=paradigm_kwargs,
            num_workers=4,
            batch_size=scale.batch_size,
            evaluate_every_pushes=evaluate_every,
            seed=seed,
        )

    # Estimate the unperturbed run length to place the degradation window.
    probe = SimulatedTraining(plan("asp", {}, 0), workload, options).run()
    window = (probe.total_time / 3.0, 2.0 * probe.total_time / 3.0)

    def slowdown(worker_id: str, now: float) -> float:
        if worker_id == "worker-0" and window[0] <= now < window[1]:
            return degradation_factor
        return 1.0

    paradigms = [
        ("bsp", {}),
        ("asp", {}),
        ("ssp", {"staleness": 3}),
        ("dssp", {"s_lower": 3, "s_upper": 15}),
    ]
    entries = []
    fluctuating = replace(options, slowdown_schedule=slowdown)
    for name, kwargs in paradigms:
        result = SimulatedTraining(
            plan(name, kwargs, scale.evaluate_every_updates), workload, fluctuating
        ).run()
        entries.append(
            FluctuationAblationEntry(
                paradigm_label=result.paradigm_label,
                best_accuracy=result.best_accuracy,
                total_time=result.total_time,
                total_wait_time=result.total_wait_time,
                time_to_half_best=result.time_to_accuracy(0.5 * result.best_accuracy),
            )
        )
    return entries


# ----------------------------------------------------------------------
# Regret experiment (Theorems 1 and 2)
# ----------------------------------------------------------------------
@dataclass
class RegretExperimentResult:
    """Empirical regret of a distributed run on a convex problem."""

    paradigm: str
    cumulative_regret: np.ndarray
    theoretical_bound: float
    sublinear: bool
    within_bound: bool


def regret_experiment(
    paradigm: str = "dssp",
    paradigm_kwargs: dict | None = None,
    num_workers: int = 4,
    num_train: int = 512,
    steps: int = 200,
    seed: int = 0,
) -> RegretExperimentResult:
    """Train a convex (softmax-regression) model and measure cumulative regret.

    The optimal per-step loss is estimated by the loss of the final iterate
    on the training distribution, which is a standard empirical surrogate
    for ``f(w*)``.  The result reports whether the empirical regret stays
    below the Theorem 1/2 bound (with unit constants) and is sub-linear.
    """
    paradigm_kwargs = paradigm_kwargs or (
        {"s_lower": 1, "s_upper": 4} if paradigm == "dssp" else {}
    )
    train, test = synthetic_cifar10(
        num_train=num_train, num_test=max(num_train // 4, 64), image_size=8, seed=seed
    )
    flat_train = ArrayDataset(train.inputs.reshape(len(train), -1), train.labels)
    flat_test = ArrayDataset(test.inputs.reshape(len(test), -1), test.labels)
    input_dim = flat_train.inputs.shape[1]

    def builder(rng: np.random.Generator):
        return logistic_regression(input_dim=input_dim, num_classes=10, rng=rng)

    batch_size = 32
    epochs = steps * batch_size * num_workers / num_train
    plan = TrainingPlan(
        paradigm=paradigm,
        paradigm_kwargs=paradigm_kwargs,
        num_workers=num_workers,
        batch_size=batch_size,
        learning_rate=0.1,
        momentum=0.0,
        seed=seed,
    )
    options = SimulationOptions(
        cluster=homogeneous_cluster(num_workers=num_workers, gpus_per_worker=1), epochs=epochs
    )
    workload = SimpleNamespace(
        model_builder=builder, train_dataset=flat_train, test_dataset=flat_test
    )
    result = SimulatedTraining(plan, workload, options).run()

    losses = np.array([loss for _, _, loss in result.push_trace])
    optimal_loss = float(np.min(losses[-max(len(losses) // 10, 1):]))
    cumulative = empirical_regret(losses, optimal_loss)

    num_iterations = len(losses)
    if paradigm == "ssp":
        bound = ssp_regret_bound(
            num_iterations, paradigm_kwargs.get("staleness", 0), num_workers,
            lipschitz_constant=float(np.max(losses)), diameter_bound=1.0,
        )
    elif paradigm == "dssp":
        bound = dssp_regret_bound(
            num_iterations,
            paradigm_kwargs["s_lower"],
            paradigm_kwargs["s_upper"] - paradigm_kwargs["s_lower"],
            num_workers,
            lipschitz_constant=float(np.max(losses)),
            diameter_bound=1.0,
        )
    else:
        bound = ssp_regret_bound(
            num_iterations, 0, num_workers,
            lipschitz_constant=float(np.max(losses)), diameter_bound=1.0,
        )
    return RegretExperimentResult(
        paradigm=paradigm,
        cumulative_regret=cumulative,
        theoretical_bound=bound,
        sublinear=regret_is_sublinear(cumulative),
        within_bound=bool(cumulative[-1] <= bound),
    )
