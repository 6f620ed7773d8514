"""Exception types shared across the package."""


class CycleAlgebraError(Exception):
    """Base class for all errors raised by this package.

    ``name`` names the offending argument where a function checks several.
    """

    def __init__(self, message, name=None):
        super().__init__(message)
        self.name = name


class InvalidIndexError(CycleAlgebraError, ValueError):
    """A cycle half-length, vertex index, label or other integer is out of range."""


class IncompatibleError(CycleAlgebraError, ValueError):
    """Operands belong to different cycle lengths or different models."""


class CapacityError(CycleAlgebraError, ValueError):
    """A requested embedding does not fit into the target algebra."""


class NotRealizableError(CycleAlgebraError, ValueError):
    """No nonnegative integer signature matches the requested data."""


class K0NotRigidTypeError(NotRealizableError):
    """The vertex-multiplicity matrix is not a sum of automorphism permutation matrices."""


class HomologyRangeError(NotRealizableError):
    """The matrix is realizable but the requested homology value is not."""


class UnsupportedInputError(CycleAlgebraError, ValueError):
    """The input is outside the supported normal form (e.g. not standard form)."""


class DecompositionError(CycleAlgebraError, RuntimeError):
    """A concrete embedding could not be matched into multiplicity-one summands."""


class InvalidTowerError(CycleAlgebraError, ValueError):
    """A tower description violates a capacity or shape condition.

    ``level`` is the 1-based index of the first offending level.
    """

    def __init__(self, message, level=None):
        super().__init__(message)
        self.level = level


class EnumerationBoundError(CycleAlgebraError, ValueError):
    """An exact enumeration was refused because it would exceed the configured bound."""


class CrossCycleLengthError(CycleAlgebraError, ValueError):
    """Comparison of towers with different cycle lengths is refused, not answered."""


class SpecValidationError(CycleAlgebraError, ValueError):
    """A serialized tower description failed validation.

    ``field`` holds a JSON-path-like locator of the offending field.
    """

    def __init__(self, message, field="$"):
        super().__init__(message)
        self.field = field
