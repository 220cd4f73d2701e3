"""One name → entry table for everything a spec or the CLI refers to by name.

Paradigms, codecs, aggregators, jitters, topology presets, comm patterns,
fault kinds, net-fault kinds, models, workloads, backends, devices,
networks and scales are each one :class:`Registry`.  A registry
owns what every such table needs:

* names match after ``strip().lower()`` (``"  BSP "`` is ``bsp``);
* an unknown name raises :class:`UnknownName` — both a ``KeyError`` and a
  ``ValueError`` — naming every registered entry;
* registering a taken name raises ``ValueError``;
* :meth:`Registry.parse` reads the ``name[:value|key=val,...]`` grammar of
  codec and aggregator specs;
* :meth:`Registry.make` and :meth:`Registry.validate` check parameters
  against the builder's own signature (missing → ``ValueError``,
  unknown → ``TypeError``), so no parameter list is declared twice;
* :meth:`Registry.parameters` is what ``python -m repro registry`` prints.
"""

from __future__ import annotations

import inspect
from collections.abc import Mapping

__all__ = ["Registry", "UnknownName"]

_VARIADIC = (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
_DECORATE = object()


class UnknownName(KeyError, ValueError):
    """A name no entry of a registry answers to."""

    __str__ = ValueError.__str__  # KeyError's would quote the message


class Registry(Mapping):
    """A read-only name → entry mapping with one lookup rule and one error.

    ``noun`` words the errors and the listing ("unknown codec 'gzip';
    available codecs: none, fp16, …"); ``field`` is the spec field a
    :meth:`parse` string comes from.  A callable entry is a *builder*: its
    signature, minus the ``given`` arguments every caller supplies itself,
    declares the entry's parameters.  ``configurable=False`` marks builders
    a name alone selects (backends), which list no parameters.
    """

    def __init__(self, noun: str, entries=(), *, field: str | None = None,
                 given=(), configurable: bool = True) -> None:
        self.noun = noun
        self.plural = f"{noun}s"
        self.field = field or noun
        self.given = frozenset(given)
        self.configurable = configurable
        self._entries: dict = {}
        #: Registered name → the one-line description it was registered with.
        self.descriptions: dict[str, str] = {}
        for name, entry in dict(entries).items():
            self.register(name, entry)

    # -- registration ---------------------------------------------------
    def register(self, name: str, entry=_DECORATE, *, description: str = ""):
        """Add ``entry`` under ``name`` and return it; without ``entry``, a
        decorator registering what it decorates."""
        if entry is _DECORATE:
            return lambda target: self.register(name, target, description=description)
        key = name.strip().lower()
        if key in self._entries:
            raise ValueError(f"duplicate {self.noun} {key!r}: already registered")
        self._entries[key] = entry
        self.descriptions[key] = description
        return entry

    def add(self, entry):
        """Register ``entry`` under its own ``name`` (and ``description``)."""
        return self.register(
            entry.name, entry, description=getattr(entry, "description", "")
        )

    # -- lookup ---------------------------------------------------------
    def key(self, name) -> str:
        """The registered form of ``name``; :class:`UnknownName` if none."""
        key = name.strip().lower() if isinstance(name, str) else name
        if not isinstance(key, str) or key not in self._entries:
            raise UnknownName(
                f"unknown {self.noun} {name!r}; available {self.plural}: "
                f"{', '.join(self)}"
            )
        return key

    def __getitem__(self, name):
        return self._entries[self.key(name)]

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    # -- the name[:params] grammar --------------------------------------
    def parse(self, spec) -> tuple[str, dict[str, float]]:
        """Split ``"name"``, ``"name:value"`` or ``"name:key=val,..."``.

        A bare value goes to the entry's ``positional`` parameter
        (``topk:0.01`` is ``topk:density=0.01``); values are floats.
        """
        if not isinstance(spec, str) or not spec.strip():
            raise ValueError(
                f"{self.field} spec must be a non-empty string; "
                f"available {self.plural}: {', '.join(self)}"
            )
        name, sep, rest = spec.partition(":")
        name = self.key(name)
        positional = getattr(self._entries[name], "positional", None)
        params: dict[str, float] = {}
        for part in rest.split(",") if sep else ():
            part = part.strip()
            if not part:
                continue
            if "=" in part:
                key, _, value = part.partition("=")
                key = key.strip()
            elif positional is not None:
                key, value = positional, part
            else:
                raise ValueError(
                    f"{self.noun} {name!r} takes no positional parameter "
                    f"(got {part!r}); use key=value"
                )
            if key in params:
                raise ValueError(f"duplicate {self.noun} parameter {key!r} in {spec!r}")
            try:
                params[key] = float(value)
            except ValueError:
                raise ValueError(
                    f"{self.noun} parameter {key}={value.strip()!r} is not a number"
                ) from None
        return name, params

    def build(self, spec):
        """Build the entry a :meth:`parse` spec names, with its parameters.

        A parameter the builder does not take is a bad *value* here, so it
        raises ``ValueError`` rather than :meth:`make`'s ``TypeError``.
        """
        name, params = self.parse(spec)
        try:
            return self.make(name, **params)
        except TypeError as error:
            raise ValueError(str(error)) from None

    # -- parameters from the builder's signature ------------------------
    def _accepted(self, name) -> dict[str, inspect.Parameter]:
        """The builder's parameters minus ``given``; none for plain data."""
        entry = self[name]
        if not (self.configurable and callable(entry)):
            return {}
        return {
            key: parameter
            for key, parameter in inspect.signature(entry).parameters.items()
            if key not in self.given and parameter.kind not in _VARIADIC
        }

    def validate(self, name, params: Mapping) -> None:
        """Raise what :meth:`make` would for ``params``: ``TypeError`` for an
        unknown parameter, ``ValueError`` for a missing required one."""
        accepted = self._accepted(name)
        unknown = sorted(set(params) - set(accepted))
        if unknown:
            raise TypeError(
                f"invalid parameters {unknown} for {self.noun} {self.key(name)!r}; "
                f"accepted: {', '.join(accepted) or 'none'}"
            )
        missing = [
            key
            for key, parameter in accepted.items()
            if parameter.default is parameter.empty and key not in params
        ]
        if missing:
            raise ValueError(f"{self.noun} {self.key(name)!r} requires parameters {missing}")

    def make(self, name, /, *given, **params):
        """Call builder ``name`` with the ``given`` arguments and ``params``."""
        self.validate(name, params)
        return self[name](*given, **params)

    def parameters(self, name) -> tuple[str, ...]:
        """``"key"`` or ``"key=default"`` per parameter of ``name``."""
        return tuple(
            key if parameter.default is parameter.empty else f"{key}={parameter.default!r}"
            for key, parameter in self._accepted(name).items()
        )
