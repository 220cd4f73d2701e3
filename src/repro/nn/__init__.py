"""From-scratch NumPy neural-network substrate.

The paper trains DNNs with MXNet on GPUs; this subpackage provides the
equivalent substrate for the reproduction: layers with explicit forward and
backward passes, parameter/buffer management, containers and losses.  The
distributed paradigms in :mod:`repro.core` and :mod:`repro.ps` operate purely
on the gradients and weights these modules expose.
"""

from repro.nn.parameter import Parameter
from repro.nn.workspace import Workspace, share_arenas
from repro.nn.module import Module
from repro.nn.linear import Linear
from repro.nn.conv import Conv2d
from repro.nn.pooling import MaxPool2d, AvgPool2d, GlobalAvgPool2d
from repro.nn.normalization import BatchNorm1d, BatchNorm2d
from repro.nn.activations import ReLU, LeakyReLU, Sigmoid, Tanh
from repro.nn.dropout import Dropout
from repro.nn.flatten import Flatten
from repro.nn.container import Sequential, Identity, Residual
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn import functional
from repro.nn import initializers

__all__ = [
    "Parameter",
    "Workspace",
    "share_arenas",
    "Module",
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "Dropout",
    "Flatten",
    "Sequential",
    "Identity",
    "Residual",
    "SoftmaxCrossEntropy",
    "functional",
    "initializers",
]
