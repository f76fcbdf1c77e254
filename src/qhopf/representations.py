"""Even graded representations, supertraces, and representation legs.

A representation stores one matrix of scalars per algebra basis element,
acting on a graded carrier.  Only even representations are admitted: the
matrix of a parity-p basis element maps parity-r vectors into the
parity-(r+p) component.  That is exactly the condition under which the
supertrace is graded-cyclic.

List-of-lists matrices are the boundary format only: they are what a
representation is built from, what ``matrix_of`` returns and what
``supertrace`` reads.  All computation runs on tensor legs over End(V)
(``leg_map``, ``supertrace_map``), so products of matrices and their
Koszul signs come from the graded tensor calculus.
"""

from __future__ import annotations

from typing import List, Sequence

from .errors import BasisMismatchError, StructureValidationError
from .graded import (
    AlgebraElement,
    BaseAlgebra,
    LinearMap,
    MatrixSpaceAlgebra,
    TensorElement,
    linear_form,
    multiplicativity,
    require,
)
from .scalars import FieldDescriptor, Scalar

Matrix = List[List[Scalar]]


def supertrace(matrix: Matrix, carrier_parity: Sequence[int]) -> Scalar:
    """sum_i (-1)^{parity(v_i)} M[i][i]."""
    if len(matrix) != len(carrier_parity) or any(len(r) != len(matrix) for r in matrix):
        raise StructureValidationError("supertrace needs a square matrix on the carrier")
    field = matrix[0][0].field
    acc = field.zero()
    for i, p in enumerate(carrier_parity):
        acc = acc - matrix[i][i] if p else acc + matrix[i][i]
    return acc


class Representation:
    """An even algebra homomorphism into matrices over a graded carrier."""

    def __init__(self, algebra: BaseAlgebra, carrier_parity: Sequence[int],
                 matrices: Sequence[Matrix], name: str = ""):
        self.algebra = algebra
        self.carrier_parity = tuple(carrier_parity)
        self.matrices = [[row[:] for row in m] for m in matrices]
        self.name = name
        self._validate()

    @property
    def dim(self) -> int:
        return len(self.carrier_parity)

    @property
    def field(self) -> FieldDescriptor:
        return self.algebra.field

    def _validate(self):
        """Check the shape, grading and homomorphism property, building
        End(V), the leg map and the supertrace map on the way."""
        A, d = self.algebra, self.dim
        label = self.name or "V"
        if not d or any(p not in (0, 1) for p in self.carrier_parity):
            raise StructureValidationError(
                f"representation {label}: the carrier parities must be "
                "a nonempty list of 0 and 1")
        if len(self.matrices) != A.dim:
            raise StructureValidationError("one matrix per basis element required")
        for idx, m in enumerate(self.matrices):
            if len(m) != d or any(len(row) != d for row in m):
                raise StructureValidationError(
                    f"matrix for {A.labels[idx]} is not {d}x{d}")
        self._end = MatrixSpaceAlgebra(self.carrier_parity, self.field, name=f"End({label})")
        self._leg_map = rho = LinearMap(A, (self._end,), [
            TensorElement.of(self.matrix_as_element(m)) for m in self.matrices],
            name=f"rep:{label}")
        one, zero = self.field.one(), self.field.zero()
        self._supertrace_map = linear_form(self._end, [
            (-one if self.carrier_parity[i] else one) if i == j else zero
            for i in range(d) for j in range(d)], name=f"str:{label}")
        if not rho.parity_preserving:
            raise StructureValidationError(
                f"grading violation in the matrix of {A.labels[rho.odd_at]}")
        if rho(A.unit()) != self._end.unit():
            raise StructureValidationError("the unit must act as the identity")
        require(multiplicativity(A, rho, True), StructureValidationError,
                "not a homomorphism at {}")

    def matrix_of(self, x: AlgebraElement) -> Matrix:
        d, z = self.dim, self.field.zero()
        coeffs = self._leg_map(x).coeffs
        return [[coeffs.get(i * d + j, z) for j in range(d)] for i in range(d)]

    def supertrace_of(self, x: AlgebraElement) -> Scalar:
        return self._supertrace_map(self._leg_map(x))

    # -- representation legs on tensors --------------------------------------

    def matrix_algebra(self) -> MatrixSpaceAlgebra:
        return self._end

    def matrix_as_element(self, m: Matrix) -> AlgebraElement:
        d = self.dim
        return AlgebraElement(self._end, {
            i * d + j: m[i][j] for i in range(d) for j in range(d)})

    def leg_map(self) -> LinearMap:
        """The representation as a parity-preserving map into End(V)."""
        return self._leg_map

    def supertrace_map(self) -> LinearMap:
        """Str: End(V) -> k as a map on a tensor leg, Str(E[i,i]) = (-1)^{parity(v_i)}."""
        return self._supertrace_map

    def __eq__(self, other):
        if not isinstance(other, Representation):
            return NotImplemented
        return (self.algebra == other.algebra
                and self.carrier_parity == other.carrier_parity
                and self.matrices == other.matrices)

    def __repr__(self):
        return f"Representation({self.name or '?'}, dim={self.dim})"


def apply_rep_on_leg(x: TensorElement, leg: int, rep: Representation) -> TensorElement:
    """Replace a symbolic tensor leg by its matrix image under the
    representation; the leg then lives over End(V) with matrix units as basis."""
    return x.apply_maps([(leg, rep.leg_map())])


def direct_sum(V: Representation, W: Representation) -> Representation:
    """V (+) W with the algebra acting block-diagonally; V's carrier comes first."""
    if V.algebra is not W.algebra and V.algebra != W.algebra:
        raise BasisMismatchError("direct sum of representations of different algebras")
    z = V.field.zero()
    matrices = [[row + [z] * W.dim for row in mv] + [[z] * V.dim + row for row in mw]
                for mv, mw in zip(V.matrices, W.matrices)]
    return Representation(V.algebra, V.carrier_parity + W.carrier_parity, matrices,
                          name=f"{V.name or 'V'}+{W.name or 'W'}")


def regular_representation(algebra: BaseAlgebra, name: str = "regular") -> Representation:
    """Left multiplication on the algebra itself; always even and faithful
    to the structure constants."""
    d, z = algebra.dim, algebra.field.zero()
    matrices = []
    for i in range(d):
        m = [[z for _ in range(d)] for _ in range(d)]
        for j in range(d):
            for k, c in algebra.mul_basis(i, j).items():
                m[k][j] = c
        matrices.append(m)
    return Representation(algebra, algebra.parity, matrices, name=name)


def trivial_representation(counit: LinearMap, name: str = "trivial") -> Representation:
    """The one-dimensional representation given by the counit."""
    algebra = counit.source
    matrices = [[[counit(algebra.basis_element(i))]] for i in range(algebra.dim)]
    return Representation(algebra, (0,), matrices, name=name)
