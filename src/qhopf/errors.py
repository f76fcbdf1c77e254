"""Exception hierarchy for the qhopf engine."""


class QhopfError(Exception):
    """Base class for all engine errors."""


class FieldMismatchError(QhopfError):
    """Operands belong to different coefficient fields."""


class NotInvertibleError(QhopfError):
    """Division by zero, or an element with no two-sided inverse."""


class ScalarSyntaxError(QhopfError):
    """A scalar string does not conform to the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class BasisMismatchError(QhopfError):
    """Elements live over different bases or algebras."""


class RankMismatchError(QhopfError):
    """Tensor operands have incompatible ranks."""


class InvalidPermutationError(QhopfError):
    """A leg permutation is not a permutation of the tensor's legs."""


class OddMapError(QhopfError):
    """A linear map that is not parity preserving was used on tensor legs."""


class StructureValidationError(QhopfError):
    """Construction-time data validation failed (associativity, unit, parity, shape)."""


class NotInvariantError(QhopfError):
    """An element or form fails the required (pseudo-)invariance condition."""


class OddElementError(QhopfError):
    """An even element was required."""


class NoRMatrixError(QhopfError):
    """The operation needs a universal R-matrix but none is present."""


class AntipodeNotInvertibleError(QhopfError):
    """The operation needs the inverse antipode but the antipode is singular."""


class NoSolutionError(QhopfError):
    """A linear or affine system has no solution."""


class PostconditionError(QhopfError):
    """An operation's verified postcondition failed; the input data or the
    engine is inconsistent."""


class UnknownNameError(QhopfError):
    """Lookup of a named catalog entry, twistor or representation failed."""
