"""Base class for all neural-network layers and containers."""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator, Mapping

import numpy as np

from repro.nn.parameter import Parameter
from repro.nn.workspace import Workspace

__all__ = ["Module"]


class Module:
    """Base layer with explicit forward/backward passes.

    Sub-classes register trainable :class:`Parameter` objects with
    :meth:`register_parameter`, non-trainable arrays (e.g. batch-norm running
    statistics) with :meth:`register_buffer`, and child modules with
    :meth:`register_module`.  State is addressed hierarchically with
    dot-separated names (``"features.0.weight"``), which is the naming scheme
    used by the parameter server's key-value store.

    Every module owns a :class:`Workspace` from which its kernels draw their
    temporaries and results (replicas stepping in turn may share them layer
    by layer: :func:`~repro.nn.workspace.share_arenas`).  The array a layer
    returns is a view of that arena, valid until the next ``forward`` or
    ``backward`` that draws on the arena; copy it to keep it longer.  Two
    different layers never share storage.  (Pass-through layers —
    ``Identity``, ``Flatten``, ``Dropout`` in eval mode — hand back their
    input instead.)
    """

    #: Set by a :class:`~repro.ps.worker.Worker` on its replica's entry
    #: layer, whose input gradient nobody reads: ``Linear`` / ``Conv2d`` then
    #: skip computing it and their ``backward`` returns ``None``, where a
    #: ``Sequential`` stops.  Everywhere else ``backward`` returns the gradient.
    input_grad_unused = False

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._workspace = Workspace()
        self.training = True

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_parameter(self, name: str, parameter: Parameter) -> Parameter:
        """Register a trainable parameter under ``name``."""
        if "." in name:
            raise ValueError("parameter names may not contain '.'")
        self._parameters[name] = parameter
        return parameter

    def register_buffer(self, name: str, array: np.ndarray) -> np.ndarray:
        """Register a non-trainable state array under ``name``."""
        if "." in name:
            raise ValueError("buffer names may not contain '.'")
        self._buffers[name] = np.asarray(array, dtype=np.float64)
        return self._buffers[name]

    def register_module(self, name: str, module: "Module") -> "Module":
        """Register a child module under ``name``."""
        if "." in name:
            raise ValueError("module names may not contain '.'")
        self._modules[name] = module
        return module

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Compute the layer output; must be overridden by sub-classes."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate ``grad_output`` and return the gradient w.r.t. inputs.

        Parameter gradients are *accumulated* into each parameter's ``grad``
        attribute; callers reset them with :meth:`zero_grad`.
        """
        raise NotImplementedError

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward(inputs)

    # ------------------------------------------------------------------
    # Train / eval mode
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout and batch-norm)."""
        self.training = bool(mode)
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        """Switch to evaluation mode recursively."""
        return self.train(False)

    # ------------------------------------------------------------------
    # Workspace (allocation-free hot path)
    # ------------------------------------------------------------------
    def workspace_stats(self) -> dict:
        """Aggregate workspace counters over the module tree.

        ``allocations`` is monotonic — it only moves when a buffer of a new
        (tag, shape, dtype) is created — so steady-state allocation-freedom
        is asserted by taking it after a warm-up step and checking it never
        moves again.
        """
        allocations = buffers = nbytes = 0
        for _, module in self.named_modules():
            workspace = module._workspace
            allocations += workspace.allocations
            buffers += workspace.num_buffers
            nbytes += workspace.nbytes
        return {"allocations": allocations, "buffers": buffers, "nbytes": nbytes}

    # ------------------------------------------------------------------
    # Parameter and state access
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs recursively."""
        for name, parameter in self._parameters.items():
            yield prefix + name, parameter
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def parameters(self) -> "OrderedDict[str, Parameter]":
        """All trainable parameters keyed by qualified name."""
        return OrderedDict(self.named_parameters())

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        """Yield ``(qualified_name, buffer)`` pairs recursively."""
        for name, array in self._buffers.items():
            yield prefix + name, array
        for child_name, child in self._modules.items():
            yield from child.named_buffers(prefix=f"{prefix}{child_name}.")

    def buffers(self) -> "OrderedDict[str, np.ndarray]":
        """All non-trainable buffers keyed by qualified name."""
        return OrderedDict(self.named_buffers())

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """Yield ``(qualified_name, module)`` pairs, including ``self`` as ``""``."""
        yield prefix.rstrip("."), self
        for child_name, child in self._modules.items():
            yield from child.named_modules(prefix=f"{prefix}{child_name}.")

    def zero_grad(self) -> None:
        """Reset the gradients of every parameter in the module tree."""
        for _, parameter in self.named_parameters():
            parameter.zero_grad()

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return int(sum(p.size for _, p in self.named_parameters()))

    # ------------------------------------------------------------------
    # State dictionaries
    # ------------------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Copy of all parameters and buffers keyed by qualified name."""
        state: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name, parameter in self.named_parameters():
            state[name] = np.array(parameter.data, copy=True)
        for name, array in self.named_buffers():
            state[name] = np.array(array, copy=True)
        return state

    def load_state_dict(self, state: Mapping[str, np.ndarray], strict: bool = True) -> None:
        """Load parameter and buffer values from ``state``.

        With ``strict=True`` (default) every parameter/buffer of the module
        must be present in ``state``; unknown keys in ``state`` are always an
        error because they indicate a model mismatch.
        """
        own_params = dict(self.named_parameters())
        own_buffers = dict(self.named_buffers())
        known = set(own_params) | set(own_buffers)
        unknown = set(state) - known
        if unknown:
            raise KeyError(f"state contains unknown keys: {sorted(unknown)[:5]}")
        missing = known - set(state)
        if strict and missing:
            raise KeyError(f"state is missing keys: {sorted(missing)[:5]}")

        for name, value in state.items():
            value = np.asarray(value, dtype=np.float64)
            if name in own_params:
                target = own_params[name].data
            else:
                target = own_buffers[name]
            if target.shape != value.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: expected {target.shape}, got {value.shape}"
                )
            target[...] = value

    def gradients(self) -> "OrderedDict[str, np.ndarray]":
        """Copy of the accumulated gradient for every trainable parameter."""
        return OrderedDict(
            (name, np.array(parameter.grad, copy=True))
            for name, parameter in self.named_parameters()
        )

    def apply_gradients(self, gradients: Mapping[str, np.ndarray]) -> None:
        """Overwrite each parameter's ``grad`` with the supplied arrays."""
        own = dict(self.named_parameters())
        for name, grad in gradients.items():
            if name not in own:
                raise KeyError(f"unknown parameter {name!r}")
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != own[name].grad.shape:
                raise ValueError(
                    f"gradient shape mismatch for {name!r}: "
                    f"expected {own[name].grad.shape}, got {grad.shape}"
                )
            own[name].grad[...] = grad

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        children = ", ".join(self._modules.keys())
        return f"{type(self).__name__}({children})"
