"""Adjoint and anti-adjoint actions, their invariants, invariant forms,
and the module-morphism construction.

The adjoint action of a on b is  sum a_(1) b S(a_(2)) (-1)^{[b][a_(2)]},
the anti-adjoint action is       sum S(a_(1)) b a_(2) (-1)^{[b][a_(1)]};
signs depend on the parity of b, so inhomogeneous b is split into its
even and odd parts and all solution spaces are computed per parity,
returned with deterministic echelon-form bases.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dataclass_field
from typing import List, Optional, Tuple

from .errors import NotInvariantError, OddElementError
from .graded import AlgebraElement, LinearMap, TensorElement
from .linalg import nullspace, rows_of
from .quasihopf import QuasiHopfStructure, condition_rows
from .representations import Matrix, Representation, _mat_mul
from .scalars import Scalar


@dataclass
class LinearForm:
    """A linear form given by its values on the basis."""

    structure: QuasiHopfStructure
    values: Tuple[Scalar, ...]
    name: str = ""

    def __call__(self, x: AlgebraElement) -> Scalar:
        acc = self.structure.algebra.field.zero()
        for i, c in x.coeffs.items():
            acc = acc + c * self.values[i]
        return acc

    def is_even(self) -> bool:
        par = self.structure.algebra.parity
        return all(self.values[i].is_zero() for i in range(len(self.values))
                   if par[i] == 1)

    def as_map(self) -> LinearMap:
        """The form as a map to scalars, for use on a tensor leg (even forms)."""
        A = self.structure.algebra
        return LinearMap(A, (), [TensorElement((), {(): v}) for v in self.values])

    def __eq__(self, other):
        return isinstance(other, LinearForm) and self.values == other.values


@dataclass
class GradedSubspace:
    """Homogeneous spanning elements, split by parity."""

    even: List[AlgebraElement] = dataclass_field(default_factory=list)
    odd: List[AlgebraElement] = dataclass_field(default_factory=list)

    def vectors(self) -> List[AlgebraElement]:
        return list(self.even) + list(self.odd)

    @property
    def dim(self) -> int:
        return len(self.even) + len(self.odd)


# ---------------------------------------------------------------------------
# actions


def adjoint_action(H: QuasiHopfStructure, a: AlgebraElement,
                   b: AlgebraElement) -> AlgebraElement:
    return H.contract(H.delta(a), (1,), right=(b,))


def anti_adjoint_action(H: QuasiHopfStructure, a: AlgebraElement,
                        b: AlgebraElement) -> AlgebraElement:
    return H.contract(H.delta(a), (0,), left=(None, b))


def _invariance_defect(H: QuasiHopfStructure, action, i: int,
                       c: AlgebraElement) -> AlgebraElement:
    """action(basis i, c) - eps(basis i) c: zero for all i iff c is invariant."""
    return action(H, H.basis_element(i), c) - c.scale(H.eps(H.basis_element(i)))


def _is_fixed(H: QuasiHopfStructure, action, c: AlgebraElement) -> bool:
    return all(_invariance_defect(H, action, i, c).is_zero()
               for i in range(H.algebra.dim))


def is_invariant_element(H: QuasiHopfStructure, c: AlgebraElement) -> bool:
    return _is_fixed(H, adjoint_action, c)


def is_pseudo_invariant_element(H: QuasiHopfStructure, c: AlgebraElement) -> bool:
    return _is_fixed(H, anti_adjoint_action, c)


# ---------------------------------------------------------------------------
# solution spaces


def _graded_nullspace(H: QuasiHopfStructure, condition) -> GradedSubspace:
    """Solve condition(basis_a_index, candidate) == 0 for all a, separately on
    the even and odd coordinates.  ``condition`` must be linear in the
    candidate element."""
    A = H.algebra
    conditions = [functools.partial(condition, i) for i in range(A.dim)]
    out = GradedSubspace()
    for target_parity, bucket in ((0, out.even), (1, out.odd)):
        idx = [j for j in range(A.dim) if A.parity[j] == target_parity]
        for vec in nullspace(condition_rows(A, idx, conditions), len(idx), A.field):
            bucket.append(AlgebraElement(A, dict(zip(idx, vec))))
    return out


def invariant_subspace(H: QuasiHopfStructure) -> GradedSubspace:
    """Solutions of the adjoint-invariance condition; always contains beta."""
    return _graded_nullspace(
        H, lambda i, c: _invariance_defect(H, adjoint_action, i, c))


def pseudo_invariant_subspace(H: QuasiHopfStructure) -> GradedSubspace:
    """Solutions of the anti-adjoint-invariance condition; contains alpha."""
    return _graded_nullspace(
        H, lambda i, c: _invariance_defect(H, anti_adjoint_action, i, c))


def is_central(H: QuasiHopfStructure, x: AlgebraElement
               ) -> Tuple[bool, Optional[Tuple[str, AlgebraElement]]]:
    """True when x commutes with every basis element; otherwise the first
    failing commutator is the witness."""
    A = H.algebra
    for i in range(A.dim):
        b = A.basis_element(i)
        comm = x * b - b * x
        if not comm.is_zero():
            return False, (A.labels[i], comm)
    return True, None


def center(H: QuasiHopfStructure) -> GradedSubspace:
    return _graded_nullspace(
        H, lambda i, c: c * H.basis_element(i) - H.basis_element(i) * c)


# ---------------------------------------------------------------------------
# linear forms


def _form_nullspace(H: QuasiHopfStructure, action) -> List[LinearForm]:
    A = H.algebra
    rows = []
    for i in range(A.dim):
        eps_a = H.eps(A.basis_element(i))
        for j in range(A.dim):
            row = dict(action(A.basis_element(i), A.basis_element(j)).coeffs)
            row[j] = row.get(j, A.field.zero()) - eps_a
            rows.append(row)
    return [LinearForm(H, tuple(vec)) for vec in nullspace(rows, A.dim, A.field)]


def invariant_linear_forms(H: QuasiHopfStructure) -> List[LinearForm]:
    """Forms with xi(Ad a . b) = eps(a) xi(b) for all a, b."""
    return _form_nullspace(H, lambda a, b: adjoint_action(H, a, b))


def pseudo_invariant_linear_forms(H: QuasiHopfStructure) -> List[LinearForm]:
    return _form_nullspace(H, lambda a, b: anti_adjoint_action(H, a, b))


def _is_fixed_form(H: QuasiHopfStructure, action, xi: LinearForm) -> bool:
    A = H.algebra
    return all(xi(action(H, A.basis_element(i), A.basis_element(j)))
               == H.eps(A.basis_element(i)) * xi.values[j]
               for i in range(A.dim) for j in range(A.dim))


def is_invariant_form(H: QuasiHopfStructure, xi: LinearForm) -> bool:
    return _is_fixed_form(H, adjoint_action, xi)


def is_pseudo_invariant_form(H: QuasiHopfStructure, xi: LinearForm) -> bool:
    return _is_fixed_form(H, anti_adjoint_action, xi)


# ---------------------------------------------------------------------------
# the module structure on linear maps V -> W


def _matrix(V: Representation, W: Representation, entries, zero: Scalar) -> Matrix:
    """The map V -> W with the given {(p, q): entry}, zero elsewhere."""
    return [[entries.get((p, q), zero) for q in range(V.dim)] for p in range(W.dim)]


def module_action(H: QuasiHopfStructure, V: Representation, W: Representation,
                  a: AlgebraElement, f: Matrix, f_parity: int) -> Matrix:
    """(a . f)(v) = sum a_(1) f(S(a_(2)) v) (-1)^{[f][a_(2)]} as matrices."""
    A, field = H.algebra, H.algebra.field
    out = _matrix(V, W, {}, field.zero())
    for i, ca in a.coeffs.items():
        for (k1, k2), d in H.coproduct.on_basis(i).coeffs.items():
            m = _mat_mul(_mat_mul(W.matrix_of(A.basis_element(k1)), f, field),
                         V.matrix_of(H.s_basis(k2)), field)
            coeff = ca * d
            if f_parity * A.parity[k2] % 2:
                coeff = -coeff
            for p in range(W.dim):
                for q in range(V.dim):
                    if not m[p][q].is_zero():
                        out[p][q] = out[p][q] + coeff * m[p][q]
    return out


def _map_entries(V: Representation, W: Representation, parity: int):
    """Matrix positions of the given parity as a map f: V -> W."""
    return [(p, q) for p in range(W.dim) for q in range(V.dim)
            if (W.carrier_parity[p] - V.carrier_parity[q]) % 2 == parity]


def invariant_maps(H: QuasiHopfStructure, V: Representation,
                   W: Representation) -> Tuple[List[Matrix], List[Matrix]]:
    """Bases of the invariant maps in l(V, W), split as (even, odd)."""
    A, field = H.algebra, H.algebra.field
    results: List[List[Matrix]] = []
    for parity in (0, 1):
        entries = _map_entries(V, W, parity)
        columns = []
        for p0, q0 in entries:
            f = _matrix(V, W, {(p0, q0): field.one()}, field.zero())
            column = {}
            for i in range(A.dim):
                a = A.basis_element(i)
                acted = module_action(H, V, W, a, f, parity)
                column.update(((i, p, q), x) for p, row in enumerate(acted)
                              for q, x in enumerate(row))
                column[(i, p0, q0)] = column[(i, p0, q0)] - H.eps(a)
            columns.append(column)
        results.append([
            _matrix(V, W, dict(zip(entries, vec)), field.zero())
            for vec in nullspace(rows_of(columns), len(entries), field)])
    return results[0], results[1]


def is_invariant_map(H: QuasiHopfStructure, V: Representation, W: Representation,
                     f: Matrix, f_parity: int) -> bool:
    A = H.algebra
    for i in range(A.dim):
        a = A.basis_element(i)
        acted = module_action(H, V, W, a, f, f_parity)
        eps_a = H.eps(a)
        for p in range(W.dim):
            for q in range(V.dim):
                if acted[p][q] != eps_a * f[p][q]:
                    return False
    return True


def module_morphism_from_invariant(f: Matrix, H: QuasiHopfStructure,
                                   V: Representation, W: Representation) -> Matrix:
    """Project an even invariant f in l(V, W) to a module homomorphism:

        ftilde(v) = sum S(X) alpha Y . f(S(Z) v)   over the coassociator.

    Verified postconditions: ftilde intertwines the two actions, recovers f
    through beta . ftilde = f, and the inverse-coassociator expression
    agrees."""
    A, field = H.algebra, H.algebra.field
    if any(not f[p][q].is_zero() and
           (W.carrier_parity[p] - V.carrier_parity[q]) % 2 == 1
           for p in range(W.dim) for q in range(V.dim)):
        raise OddElementError("odd map: the projection needs an even f")
    if not is_invariant_map(H, V, W, f, 0):
        raise NotInvariantError("not invariant under the l(V, W) action")

    def sandwich(pairs) -> Matrix:
        """sum c W(a) f V(b) over the terms c a (x) b of a rank-2 tensor."""
        out = _matrix(V, W, {}, field.zero())
        for (i, j), c in pairs.coeffs.items():
            m = _mat_mul(_mat_mul(W.matrices[i], f, field), V.matrices[j], field)
            for p in range(W.dim):
                for q in range(V.dim):
                    if not m[p][q].is_zero():
                        out[p][q] = out[p][q] + c * m[p][q]
        return out

    out = sandwich(H.contract(H.phi, (0, 2), right=(H.alpha,), split=2))
    alt = sandwich(H.contract(H.phi_inv, (1,), right=(None, H.alpha), split=1))
    if alt != out:
        raise NotInvariantError(
            "coassociator and inverse-coassociator projections disagree")

    for i in range(A.dim):
        b = A.basis_element(i)
        if _mat_mul(W.matrix_of(b), out, field) != \
           _mat_mul(out, V.matrix_of(b), field):
            raise NotInvariantError(
                f"projection does not intertwine the action of {A.labels[i]}")
    if _mat_mul(W.matrix_of(H.beta), out, field) != f:
        raise NotInvariantError("beta times the projection does not recover f")
    return out


# ---------------------------------------------------------------------------
# bilinear forms


def invariant_bilinear_forms(H: QuasiHopfStructure, V: Representation,
                             W: Representation) -> List[Matrix]:
    """Bilinear forms with  sum (a_(1) v, a_(2) w) (-1)^{[v][a_(2)]}
    = eps(a) (v, w);  returned as matrices B[i][j] = (v_i, w_j)."""
    A, field = H.algebra, H.algebra.field
    n = V.dim * W.dim
    rows = []
    for idx in range(A.dim):
        a = A.basis_element(idx)
        eps_a = H.eps(a)
        for i in range(V.dim):
            for j in range(W.dim):
                row = {i * W.dim + j: -eps_a}
                for (k1, k2), d in H.coproduct.on_basis(idx).coeffs.items():
                    mv = V.matrix_of(A.basis_element(k1))
                    mw = W.matrix_of(A.basis_element(k2))
                    coeff = d
                    if V.carrier_parity[i] * A.parity[k2] % 2:
                        coeff = -coeff
                    for p in range(V.dim):
                        if mv[p][i].is_zero():
                            continue
                        for q in range(W.dim):
                            if not mw[q][j].is_zero():
                                row[p * W.dim + q] = row.get(p * W.dim + q, field.zero()) \
                                    + coeff * mv[p][i] * mw[q][j]
                rows.append(row)
    out = []
    for vec in nullspace(rows, n, field):
        out.append([[vec[i * W.dim + j] for j in range(W.dim)]
                    for i in range(V.dim)])
    return out
