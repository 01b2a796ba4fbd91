"""Exceptions shared across the package, and the rule for integer inputs."""


class ShapeError(ValueError):
    """Operands have incompatible dimensions or block partitions."""


class SingularMatrixError(ValueError):
    """Inversion was attempted on a singular matrix."""


class ParseError(ValueError):
    """A matrix CSV or solution JSON document is malformed."""


class AxiomError(ValueError):
    """A table failed a solution axiom: `name` is the first axiom it fails,
    `witness` that check's first failing point and `solution` the table."""

    def __init__(self, name: str, witness: tuple, solution):
        super().__init__(f"solution is not {name}: witness={witness}")
        self.name, self.witness, self.solution = name, witness, solution


def require_ints(values, message: str) -> None:
    """TypeError(message) unless every value is an int and not a bool."""
    if any(t is bool or not issubclass(t, int) for t in set(map(type, values))):
        raise TypeError(message)
