"""Model builders used by the paper's evaluation.

* :func:`downsized_alexnet` — the paper's 3-conv / 2-FC reduction of AlexNet
  (the "DNN with fully connected layers" category).
* :func:`cifar_resnet` / :func:`resnet20` / :func:`resnet32` /
  :func:`resnet56` / :func:`resnet110` — the CIFAR-style 6n+2 residual
  networks (the "pure CNN" category; ResNet-110 is the paper's deepest model).
* :func:`resnet50` — a bottleneck residual network of configurable width.
* :func:`mlp` and :func:`logistic_regression` — small models used by tests,
  the convex regret-bound experiments and the quickstart example.

Every builder accepts ``rng`` for reproducible initialization and returns a
:class:`repro.nn.Module`.
"""

from repro.models.mlp import mlp, logistic_regression
from repro.models.alexnet import downsized_alexnet
from repro.models.resnet import cifar_resnet, resnet20, resnet32, resnet56, resnet110, resnet50
from repro.models.registry import MODELS, ModelSpec, register_model

__all__ = [
    "MODELS",
    "mlp",
    "logistic_regression",
    "downsized_alexnet",
    "cifar_resnet",
    "resnet20",
    "resnet32",
    "resnet56",
    "resnet110",
    "resnet50",
    "ModelSpec",
    "register_model",
]
