"""Model registry mapping experiment-config names to builders.

The experiment harness refers to models by name (``"downsized_alexnet"``,
``"resnet110"``, ...) so that experiment configurations remain plain data.
:data:`MODELS` resolves those names to :class:`ModelSpec` records, which
carry the builder, its default arguments and the geometry each model
expects.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from repro.models.alexnet import downsized_alexnet
from repro.models.mlp import logistic_regression, mlp
from repro.models.resnet import cifar_resnet, resnet20, resnet32, resnet50, resnet56, resnet110
from repro.nn.module import Module
from repro.utils.registry import Registry

__all__ = ["ModelSpec", "MODELS", "register_model"]


@dataclass(frozen=True)
class ModelSpec:
    """Description of a registered model builder."""

    name: str
    builder: Callable[..., Module]
    description: str
    default_kwargs: dict = field(default_factory=dict)
    has_fully_connected_hidden: bool = False

    def __post_init__(self) -> None:
        # What calling the spec accepts (and ``repro registry`` lists): the
        # builder's parameters with this spec's defaults filled in.
        signature = inspect.signature(partial(self.builder, **self.default_kwargs))
        object.__setattr__(self, "__signature__", signature)

    def build(self, rng: np.random.Generator | None = None, **overrides) -> Module:
        """Instantiate the model, merging defaults with overrides."""
        return self.builder(rng=rng, **{**self.default_kwargs, **overrides})

    __call__ = build


#: Model name → :class:`ModelSpec`.
MODELS = Registry("model", given=("rng",))
register_model = MODELS.add


for _spec in (
    ModelSpec(
        name="downsized_alexnet",
        builder=downsized_alexnet,
        description="3-conv / 2-FC AlexNet reduction (paper Section V-A3)",
        default_kwargs={"num_classes": 10},
        has_fully_connected_hidden=True,
    ),
    ModelSpec(
        name="resnet20",
        builder=resnet20,
        description="CIFAR ResNet-20 (small stand-in for deeper ResNets)",
        default_kwargs={"num_classes": 100},
    ),
    ModelSpec("resnet32", resnet32, "CIFAR ResNet-32", {"num_classes": 100}),
    ModelSpec("resnet56", resnet56, "CIFAR ResNet-56", {"num_classes": 100}),
    ModelSpec(
        name="resnet110",
        builder=resnet110,
        description="CIFAR ResNet-110 (paper's deepest model)",
        default_kwargs={"num_classes": 100},
    ),
    ModelSpec(
        name="resnet50",
        builder=resnet50,
        description="Bottleneck ResNet-50 adapted to CIFAR-sized inputs",
        default_kwargs={"num_classes": 100},
    ),
    ModelSpec(
        name="cifar_resnet",
        builder=cifar_resnet,
        description="Parametric 6n+2 CIFAR ResNet",
        default_kwargs={"depth": 20, "num_classes": 100},
    ),
    ModelSpec(
        name="mlp",
        builder=mlp,
        description="Multi-layer perceptron (tests and quickstart)",
        default_kwargs={"input_dim": 32, "hidden_dims": (64,), "num_classes": 10},
        has_fully_connected_hidden=True,
    ),
    ModelSpec(
        name="logistic_regression",
        builder=logistic_regression,
        description="Convex softmax classifier (regret-bound experiments)",
        default_kwargs={"input_dim": 32, "num_classes": 10},
    ),
):
    register_model(_spec)
