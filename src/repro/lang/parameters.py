"""Parameterised cells: declared parameters with validation.

The "benefits of parameterised specification" the paper highlights come from
generators whose parameters are declared, defaulted and checked.  A
:class:`ParameterizedCell` subclass declares its parameters as class-level
:class:`Parameter` descriptors; instantiating the generator validates the
supplied values and ``build()`` produces the layout cell.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Type

from repro.layout.cell import Cell
from repro.technology.technology import Technology


class ParameterError(ValueError):
    """Raised when a generator parameter fails validation."""


#: Shared cache of generated cells, keyed by generator class, technology and
#: parameters.  See :meth:`ParameterizedCell.cell`.
_GENERATED_CELL_CACHE: Dict[tuple, Cell] = {}


def clear_generated_cell_cache() -> None:
    """Drop all cached generated cells (used by tests that mutate cells)."""
    _GENERATED_CELL_CACHE.clear()
    _SHARED_BRICK_CACHE.clear()


#: Cache of small shared "brick" cells (PLA crosspoints, ROM bit cells,
#: datapath slice cells, ...) keyed by technology and brick name, so that two
#: generators producing the same brick share one master cell and libraries
#: never see two different cells with the same name.
_SHARED_BRICK_CACHE: Dict[tuple, Cell] = {}


def shared_brick(technology: Technology, name: str, builder: Callable[[], Cell]) -> Cell:
    """Build-or-fetch a shared brick cell for ``technology``.

    ``builder`` is only called the first time a given ``(technology, name)``
    pair is requested; afterwards the same cell object is returned, so every
    generator instantiates the same master.
    """
    key = (technology.name, name)
    if key not in _SHARED_BRICK_CACHE:
        cell = builder()
        if cell.name != name:
            raise ValueError(
                f"shared brick builder produced cell {cell.name!r}, expected {name!r}"
            )
        _SHARED_BRICK_CACHE[key] = cell
    return _SHARED_BRICK_CACHE[key]


class Parameter:
    """A declared generator parameter.

    Parameters have a type, an optional default, optional bounds and an
    optional custom validator.  Access on an instance returns the validated
    value.
    """

    def __init__(self, kind: type = int, default: Any = None,
                 minimum: Optional[Any] = None, maximum: Optional[Any] = None,
                 choices: Optional[List[Any]] = None,
                 validator: Optional[Callable[[Any], bool]] = None,
                 doc: str = ""):
        self.kind = kind
        self.default = default
        self.minimum = minimum
        self.maximum = maximum
        self.choices = choices
        self.validator = validator
        self.doc = doc
        self.name = ""  # filled by __set_name__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        return instance.__dict__.get(f"_param_{self.name}", self.default)

    def __set__(self, instance, value) -> None:
        instance.__dict__[f"_param_{self.name}"] = self.validate(value)

    def validate(self, value: Any) -> Any:
        if value is None:
            if self.default is None:
                raise ParameterError(f"parameter {self.name!r} requires a value")
            value = self.default
        if self.kind is int and isinstance(value, bool):
            raise ParameterError(f"parameter {self.name!r} expects an int, got bool")
        if not isinstance(value, self.kind):
            try:
                value = self.kind(value)
            except (TypeError, ValueError) as exc:
                raise ParameterError(
                    f"parameter {self.name!r} expects {self.kind.__name__}, got {value!r}"
                ) from exc
        if self.minimum is not None and value < self.minimum:
            raise ParameterError(
                f"parameter {self.name!r} = {value!r} below minimum {self.minimum!r}"
            )
        if self.maximum is not None and value > self.maximum:
            raise ParameterError(
                f"parameter {self.name!r} = {value!r} above maximum {self.maximum!r}"
            )
        if self.choices is not None and value not in self.choices:
            raise ParameterError(
                f"parameter {self.name!r} = {value!r} not one of {self.choices!r}"
            )
        if self.validator is not None and not self.validator(value):
            raise ParameterError(f"parameter {self.name!r} = {value!r} failed validation")
        return value


class ParameterizedCell:
    """Base class for all cell generators (the microscopic silicon compilers).

    Subclasses declare :class:`Parameter` class attributes and implement
    :meth:`build`, which returns a fully constructed layout
    :class:`~repro.layout.cell.Cell`.  The base class handles parameter
    binding, deterministic cell naming and caching of the built cell.
    """

    #: subclasses may override to give generated cells a meaningful prefix
    name_prefix: str = ""

    def __init__(self, technology: Technology, **parameters: Any):
        self.technology = technology
        declared = self.declared_parameters()
        unknown = set(parameters) - set(declared)
        if unknown:
            raise ParameterError(
                f"{type(self).__name__} has no parameter(s) {sorted(unknown)}"
            )
        for name, descriptor in declared.items():
            setattr(self, name, parameters.get(name, descriptor.default))
        self._built: Optional[Cell] = None

    @classmethod
    def declared_parameters(cls) -> Dict[str, Parameter]:
        result: Dict[str, Parameter] = {}
        for klass in reversed(cls.__mro__):
            for name, value in vars(klass).items():
                if isinstance(value, Parameter):
                    result[name] = value
        return result

    def parameter_values(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in self.declared_parameters()}

    def cell_name(self) -> str:
        """Deterministic name derived from the generator and its parameters."""
        prefix = self.name_prefix or type(self).__name__.lower()
        parts = [prefix]
        for name, value in sorted(self.parameter_values().items()):
            if isinstance(value, (int, str)):
                parts.append(f"{name}{value}")
        return "_".join(str(part) for part in parts)

    def build(self) -> Cell:
        """Construct the layout cell.  Subclasses must override."""
        raise NotImplementedError

    def cell(self) -> Cell:
        """Build (once) and return the generated cell.

        Generated cells are shared: two generator instances of the same class
        with the same parameters and technology return the *same* cell
        object, so a chip that uses a leaf cell in several places has one
        master and many instances (which is what makes the hierarchy regular
        and keeps cell names unique within a library).
        """
        if self._built is None:
            key = (
                type(self).__qualname__,
                self.technology.name,
                tuple(sorted((k, repr(v)) for k, v in self.parameter_values().items())),
                self._cache_key_extra(),
            )
            cached = _GENERATED_CELL_CACHE.get(key)
            if cached is None:
                built = self.build()
                # Generators that publish a report (PLA, ROM, datapath, ...)
                # compute it inside build(); keep it with the cached cell so a
                # later generator instance that hits the cache still gets it.
                _GENERATED_CELL_CACHE[key] = (built, getattr(self, "report", None))
                cached = _GENERATED_CELL_CACHE[key]
            cell, cached_report = cached
            if cached_report is not None and getattr(self, "report", None) is None:
                self.report = cached_report
            self._built = cell
        return self._built

    def _cache_key_extra(self) -> tuple:
        """Extra cache-key material for generators with non-parameter inputs.

        Generators whose output depends on data beyond the declared
        parameters (e.g. a PLA's cover, a ROM's contents) override this; the
        default returns the deterministic cell name, which already encodes
        such data for the built-in generators.
        """
        return (self.cell_name(),)
