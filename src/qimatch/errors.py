"""Shared exception types, grouped here so the CLI can map them to exit codes,
and the rule every count, cap and seed setting follows."""

import numbers


class ParseError(ValueError):
    """A structured input file (QUBO text, graph JSON, PGM) is malformed."""


class DegenerateGeometryError(ValueError):
    """Geometric relation requested for coincident points."""


class InfeasibleSolutionError(RuntimeError):
    """A solver returned an assignment that violates a conflict edge."""


def require_ints(obj, *names: str) -> None:
    """Store each named field of the frozen dataclass obj as a Python int.

    Any numbers.Integral passes (bools and NumPy integers too); any other
    value raises a ValueError that names the field.
    """
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(obj, name, int(value))
