"""Workloads: dataset + trained model + paper-scale timing cost.

A :class:`Workload` packages everything a paradigm-comparison run needs:

* the (synthetic or real) train/test datasets,
* a builder for the model that is actually trained at the chosen
  :class:`~repro.experiments.config.ExperimentScale`, and
* the :class:`~repro.simulation.workload.ModelCost` of the *paper-scale*
  architecture, used for the simulated timing so the compute-to-
  communication ratio matches the hardware environment the paper measured
  (see docs/architecture.md, substitution table).  Each cost is a constant
  beside its workload, so a run never builds the paper-scale model; a test
  recomputes every constant with ``estimate_model_cost``.

Workloads are addressable by name through a registry, so an
:class:`repro.api.ExperimentSpec` can refer to ``"alexnet"`` or
``"resnet110"`` as plain data and new workloads plug in without editing any
factory:

    @register_workload("imagenet64", description="...")
    def imagenet64_workload(scale, seed=0):
        return Workload(...)
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.data.synthetic import synthetic_cifar10, synthetic_cifar100
from repro.experiments.config import ExperimentScale
from repro.models.alexnet import downsized_alexnet
from repro.models.mlp import mlp
from repro.models.resnet import cifar_resnet
from repro.nn.module import Module
from repro.simulation.workload import ModelCost
from repro.utils.registry import Registry

__all__ = [
    "Workload",
    "WORKLOADS",
    "register_workload",
    "build_workload",
    "alexnet_workload",
    "resnet_workload",
    "mlp_workload",
]


@dataclass(frozen=True)
class Workload:
    """One training workload (model family + dataset) at a given scale."""

    name: str
    model_builder: Callable[[np.random.Generator], Module]
    train_dataset: ArrayDataset
    test_dataset: ArrayDataset
    timing_cost: ModelCost
    num_classes: int
    has_fully_connected_hidden: bool
    #: Mini-batch size the paper trains with; used for the simulated timing.
    paper_batch_size: int = 128


#: Workload name → builder ``builder(scale, **kwargs) -> Workload``; the
#: keyword arguments are the spec's ``workload_kwargs``.
WORKLOADS = Registry("workload", given=("scale",))
register_workload = WORKLOADS.register


@functools.lru_cache(maxsize=4)  # each entry holds a dataset
def _build(builder, scale: ExperimentScale, params: tuple) -> Workload:
    workload = builder(scale, **{key: value for key, _, value in params})
    for dataset in (workload.train_dataset, workload.test_dataset):
        dataset.inputs.setflags(write=False)
        dataset.labels.setflags(write=False)
    return workload


def build_workload(name: str, scale: ExperimentScale, /, **params) -> Workload:
    """Instantiate a registered workload by name, at most once per process.

    Equal ``(builder, scale, params)`` share one :class:`Workload`, so its
    datasets are read-only, and a forked child reuses its parent's build.
    Unhashable params build afresh.
    """
    WORKLOADS.validate(name, params)
    params = tuple(sorted((key, type(value), value) for key, value in params.items()))
    args = (WORKLOADS[name], scale, params)
    try:
        hash(args)
    except TypeError:
        return _build.__wrapped__(*args)
    return _build(*args)


#: The paper-scale downsized AlexNet (3 conv of width 32, 2 FC of 256), 32x32 RGB.
ALEXNET_COST = ModelCost(57566208.0, num_parameters=470826, parameter_bytes=1883304)


@register_workload(
    "alexnet", description="Downsized AlexNet on synthetic CIFAR-10 (Figures 3a/3b)"
)
def alexnet_workload(scale: ExperimentScale, seed: int = 0) -> Workload:
    """The paper's downsized AlexNet on (synthetic) CIFAR-10.

    The trained model uses the scale's width/resolution; the timing cost is
    that of the paper-scale downsized AlexNet (3 conv + 2 FC on 32x32),
    whose parameter payload is dominated by the fully connected stage.
    """
    train, test = synthetic_cifar10(
        num_train=scale.num_train,
        num_test=scale.num_test,
        image_size=scale.image_size,
        noise_scale=scale.noise_scale,
        seed=seed,
    )

    def builder(rng: np.random.Generator) -> Module:
        return downsized_alexnet(
            num_classes=10,
            image_size=scale.image_size,
            width=scale.model_width,
            fc_width=scale.fc_width,
            dropout=0.0,
            rng=rng,
        )

    return Workload(
        name="downsized_alexnet/cifar10",
        model_builder=builder,
        train_dataset=train,
        test_dataset=test,
        timing_cost=ALEXNET_COST,
        num_classes=10,
        has_fully_connected_hidden=True,
    )


#: ResNet-110 and ResNet-50 (base width 16, 100 classes), 32x32 RGB.
RESNET_COSTS = {
    110: ModelCost(1536370176.0, num_parameters=1736564, parameter_bytes=6946256),
    50: ModelCost(502855680.0, num_parameters=1530356, parameter_bytes=6121424),
}


def resnet_workload(
    scale: ExperimentScale, paper_depth: int = 110, seed: int = 1
) -> Workload:
    """The paper's ResNet-50 / ResNet-110 on (synthetic) CIFAR-100.

    ``paper_depth`` selects which of the paper's two ResNets the timing cost
    corresponds to; the trained model uses the scale's reduced depth/width.
    """
    if paper_depth not in (50, 110):
        raise ValueError("paper_depth must be 50 or 110 (the models the paper evaluates)")
    train, test = synthetic_cifar100(
        num_train=scale.num_train,
        num_test=scale.num_test,
        image_size=scale.image_size,
        noise_scale=scale.noise_scale,
        num_classes=scale.num_classes_cifar100,
        seed=seed,
    )

    trained_depth = (
        scale.resnet_depth_for_110 if paper_depth == 110 else scale.resnet_depth_for_50
    )

    def builder(rng: np.random.Generator) -> Module:
        return cifar_resnet(
            depth=trained_depth,
            num_classes=scale.num_classes_cifar100,
            base_width=scale.model_width,
            rng=rng,
        )

    return Workload(
        name=f"resnet{paper_depth}/cifar100",
        model_builder=builder,
        train_dataset=train,
        test_dataset=test,
        timing_cost=RESNET_COSTS[paper_depth],
        num_classes=scale.num_classes_cifar100,
        has_fully_connected_hidden=False,
    )


#: A 3072-512-256-10 MLP, flattened 32x32 RGB.
MLP_COST = ModelCost(10241280.0, num_parameters=1707274, parameter_bytes=6829096)


@register_workload(
    "mlp", description="Small fully connected workload (tests and quickstart)"
)
def mlp_workload(scale: ExperimentScale, seed: int = 2) -> Workload:
    """A small fully connected workload used by tests and the quickstart."""
    train, test = synthetic_cifar10(
        num_train=scale.num_train,
        num_test=scale.num_test,
        image_size=scale.image_size,
        noise_scale=scale.noise_scale,
        seed=seed,
    )
    flat_train = ArrayDataset(train.inputs.reshape(len(train), -1), train.labels)
    flat_test = ArrayDataset(test.inputs.reshape(len(test), -1), test.labels)
    input_dim = flat_train.inputs.shape[1]

    def builder(rng: np.random.Generator) -> Module:
        return mlp(input_dim=input_dim, hidden_dims=(scale.fc_width,), num_classes=10, rng=rng)

    return Workload(
        name="mlp/cifar10",
        model_builder=builder,
        train_dataset=flat_train,
        test_dataset=flat_test,
        timing_cost=MLP_COST,
        num_classes=10,
        has_fully_connected_hidden=True,
    )


@register_workload(
    "resnet50", description="ResNet-50 timing on synthetic CIFAR-100 (Figures 3c/3d)"
)
def _resnet50_workload(scale: ExperimentScale, seed: int = 1) -> Workload:
    return resnet_workload(scale, paper_depth=50, seed=seed)


@register_workload(
    "resnet110", description="ResNet-110 timing on synthetic CIFAR-100 (Figures 3e/3f, 4)"
)
def _resnet110_workload(scale: ExperimentScale, seed: int = 1) -> Workload:
    return resnet_workload(scale, paper_depth=110, seed=seed)
