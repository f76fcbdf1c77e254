"""Adjoint and anti-adjoint actions, their invariants, invariant forms,
and the module-morphism construction.

The adjoint action of a on b is  sum a_(1) b S(a_(2)) (-1)^{[b][a_(2)]},
the anti-adjoint action is       sum S(a_(1)) b a_(2) (-1)^{[b][a_(1)]};
signs depend on the parity of b, so inhomogeneous b is split into its
even and odd parts and all solution spaces are computed per parity,
returned with deterministic echelon-form bases.  Maps V -> W are list
matrices at the interface only; their module structure is computed on
End(V (+) W) legs, where the graded tensor product supplies every sign.

A condition "for all a" is imposed for the generators a only: commuting
with a is closed under products, and so is invariance under the actions
once ``quasihopf._closed`` holds.  The reduced system has the same kernel,
hence the same echelon basis.  A linear form is a rank-0 ``LinearMap``,
like the counit.  One row system per action, memoised per structure,
gives both the form spaces (its kernel) and the membership tests (a form
annihilates every row).
"""

from __future__ import annotations

import functools
from typing import List, Optional, Tuple

from .errors import NotInvariantError, OddElementError, StructureValidationError
from .graded import AlgebraElement, LinearMap, TensorElement, centralizes, linear_form, require
from .linalg import Row, nullspace, rows_of
from .quasihopf import QuasiHopfStructure, _closed, condition_rows, memoized
from .representations import Matrix, Representation, direct_sum


class GradedSubspace:
    """Homogeneous spanning elements, split by parity."""

    def __init__(self, even: Optional[List[AlgebraElement]] = None,
                 odd: Optional[List[AlgebraElement]] = None):
        self.even, self.odd = [] if even is None else even, [] if odd is None else odd

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


def _domain(H: QuasiHopfStructure, sound: bool):
    """The quantified elements a of a "for all a" condition, as indices."""
    return H.algebra.generators() if sound else range(H.algebra.dim)


def _is_fixed(H: QuasiHopfStructure, action, c: AlgebraElement) -> bool:
    return all(_invariance_defect(H, action, i, c).is_zero()
               for i in _domain(H, _closed(H)))


def is_invariant_element(H: QuasiHopfStructure, c: AlgebraElement) -> bool:
    return _is_fixed(H, adjoint_action, c)


def is_pseudo_invariant_element(H: QuasiHopfStructure, c: AlgebraElement) -> bool:
    return _is_fixed(H, anti_adjoint_action, c)


# ---------------------------------------------------------------------------
# solution spaces


def _graded_nullspace(H: QuasiHopfStructure, condition,
                      sound: bool) -> GradedSubspace:
    """Solve condition(basis_a_index, candidate) == 0 for all a, separately on
    the even and odd coordinates.  ``condition`` must be linear in the
    candidate element; with ``sound``, a runs over the generators."""
    A = H.algebra
    conditions = [functools.partial(condition, i) for i in _domain(H, sound)]
    out = GradedSubspace()
    for target_parity, bucket in ((0, out.even), (1, out.odd)):
        idx = [j for j in range(A.dim) if A.parity[j] == target_parity]
        for vec in nullspace(condition_rows(A, idx, conditions), len(idx), A.field):
            bucket.append(AlgebraElement(A, dict(zip(idx, vec))))
    return out


def invariant_subspace(H: QuasiHopfStructure) -> GradedSubspace:
    """Solutions of the adjoint-invariance condition; always contains beta."""
    return _graded_nullspace(
        H, lambda i, c: _invariance_defect(H, adjoint_action, i, c), _closed(H))


def pseudo_invariant_subspace(H: QuasiHopfStructure) -> GradedSubspace:
    """Solutions of the anti-adjoint-invariance condition; contains alpha."""
    return _graded_nullspace(
        H, lambda i, c: _invariance_defect(H, anti_adjoint_action, i, c), _closed(H))


def is_central(H: QuasiHopfStructure, x: AlgebraElement
               ) -> Tuple[bool, Optional[Tuple[str, AlgebraElement]]]:
    """True when x commutes with every generator, hence with A; otherwise the
    first basis element with a nonzero commutator is the witness."""
    passed, comm, at, *_ = centralizes(H.algebra, x)
    return passed, None if passed else (at, comm)


def center(H: QuasiHopfStructure) -> GradedSubspace:
    return _graded_nullspace(
        H, lambda i, c: c * H.basis_element(i) - H.basis_element(i) * c, True)


# ---------------------------------------------------------------------------
# linear forms


@memoized
def _form_rows(H: QuasiHopfStructure, action) -> List[Row]:
    """Rows xi(action(a, e_j)) - eps(a) xi(e_j) for the quantified a and every
    j: a form is fixed by the action iff it annihilates all of them."""
    A = H.algebra
    rows = []
    for i in _domain(H, _closed(H)):
        eps_a = H.eps(A.basis_element(i))
        for j in range(A.dim):
            row = dict(action(H, A.basis_element(i), A.basis_element(j)).coeffs)
            row[j] = row.get(j, A.field.zero()) - eps_a
            rows.append(row)
    return rows


def _fixed_forms(H: QuasiHopfStructure, action) -> List[LinearMap]:
    A = H.algebra
    return [linear_form(A, vec)
            for vec in nullspace(_form_rows(H, action), A.dim, A.field)]


def _is_fixed_form(H: QuasiHopfStructure, action, xi: LinearMap) -> bool:
    zero = H.algebra.field.zero()
    values = [image.coeffs.get((), zero) for image in xi.images]
    return all(sum((c * values[k] for k, c in row.items()), zero).is_zero()
               for row in _form_rows(H, action))


def invariant_linear_forms(H: QuasiHopfStructure) -> List[LinearMap]:
    """Forms with xi(Ad a . b) = eps(a) xi(b) for all a, b."""
    return _fixed_forms(H, adjoint_action)


def pseudo_invariant_linear_forms(H: QuasiHopfStructure) -> List[LinearMap]:
    return _fixed_forms(H, anti_adjoint_action)


def is_invariant_form(H: QuasiHopfStructure, xi: LinearMap) -> bool:
    return _is_fixed_form(H, adjoint_action, xi)


def is_pseudo_invariant_form(H: QuasiHopfStructure, xi: LinearMap) -> bool:
    return _is_fixed_form(H, anti_adjoint_action, xi)


# ---------------------------------------------------------------------------
# the module structure on linear maps V -> W


class _Hom:
    """l(V, W) as the block of End(V (+) W) with W's rows and V's columns.
    A acts on V (+) W block-diagonally, so every product below is a product
    of End legs and the graded tensor product supplies its Koszul sign."""

    def __init__(self, H: QuasiHopfStructure, V: Representation, W: Representation):
        self.H, self.V, self.W = H, V, W
        self.U = direct_sum(V, W)
        self.end = self.U.matrix_algebra()
        self.keys = [[(V.dim + p) * self.U.dim + q for q in range(V.dim)]
                     for p in range(W.dim)]
        self._represented = {}

    def element(self, f: Matrix, parity: int) -> AlgebraElement:
        """The map f: V -> W, required to be homogeneous of the given parity."""
        if len(f) != self.W.dim or any(len(row) != self.V.dim for row in f):
            raise StructureValidationError(
                f"a map V -> W must be a {self.W.dim}x{self.V.dim} matrix")
        x = AlgebraElement(self.end, {k: c for row, keys in zip(f, self.keys)
                                      for c, k in zip(row, keys)})
        if not x.is_zero() and x.parity() != parity:
            raise OddElementError(f"the map is not homogeneous of parity {parity}")
        return x

    def matrix(self, x: AlgebraElement) -> Matrix:
        z = self.end.field.zero()
        return [[x.coeffs.get(k, z) for k in keys] for keys in self.keys]

    def sandwich(self, pairs: TensorElement, f: AlgebraElement) -> AlgebraElement:
        """sum x f y over the terms x (x) y of a rank-2 tensor over A: the
        product (x (x) y)(f (x) 1) carries the sign (-1)^{[f][y]}."""
        rho = self.U.leg_map()
        t = pairs.apply_maps([(0, rho), (1, rho)])
        return (t * TensorElement.of(f, self.end.unit())).merge_all()

    def represented(self, i: int) -> TensorElement:
        """a_(1) (x) S(a_(2)) for a = basis i, both legs acting on V (+) W."""
        hit = self._represented.get(i)
        if hit is None:
            H, rho = self.H, self.U.leg_map()
            hit = self._represented[i] = H.coproduct.on_basis(i).apply_maps(
                [(1, H.antipode)]).apply_maps([(0, rho), (1, rho)])
        return hit

    def act(self, a: AlgebraElement, f: AlgebraElement) -> AlgebraElement:
        """a . f = sum a_(1) f S(a_(2)) (-1)^{[f][a_(2)]}."""
        t = TensorElement(self.represented(0).legs, {})
        for i, c in a.coeffs.items():
            t = t + self.represented(i).scale(c)
        return (t * TensorElement.of(f, self.end.unit())).merge_all()

    def defects(self, f: AlgebraElement):
        """a . f - eps(a) f over the generators a (over the basis unless
        the action is known to be one): all zero iff f is invariant."""
        H = self.H
        for i in _domain(H, _closed(H)):
            a = H.basis_element(i)
            yield self.act(a, f) - f.scale(H.eps(a))


@memoized
def _hom(H: QuasiHopfStructure, V: Representation, W: Representation) -> _Hom:
    return _Hom(H, V, W)


def module_action(H: QuasiHopfStructure, V: Representation, W: Representation,
                  a: AlgebraElement, f: Matrix, f_parity: int) -> Matrix:
    """(a . f)(v) = sum a_(1) f(S(a_(2)) v) (-1)^{[f][a_(2)]} for f of parity f_parity."""
    hom = _hom(H, V, W)
    return hom.matrix(hom.act(a, hom.element(f, f_parity)))


def invariant_maps(H: QuasiHopfStructure, V: Representation,
                   W: Representation) -> Tuple[List[Matrix], List[Matrix]]:
    """Bases of the invariant maps in l(V, W), split as (even, odd)."""
    hom, field = _hom(H, V, W), H.algebra.field
    results: List[List[Matrix]] = []
    for parity in (0, 1):
        entries = [k for keys in hom.keys for k in keys if hom.end.parity[k] == parity]
        columns = [{(i, k): c for i, d in enumerate(hom.defects(hom.end.basis_element(e)))
                    for k, c in d.coeffs.items()} for e in entries]
        results.append([
            hom.matrix(AlgebraElement(hom.end, dict(zip(entries, vec))))
            for vec in nullspace(rows_of(columns), len(entries), field)])
    return results[0], results[1]


def is_invariant_map(H: QuasiHopfStructure, V: Representation, W: Representation,
                     f: Matrix, f_parity: int) -> bool:
    hom = _hom(H, V, W)
    return all(d.is_zero() for d in hom.defects(hom.element(f, f_parity)))


def module_morphism_from_invariant(f: Matrix, H: QuasiHopfStructure,
                                   V: Representation, W: Representation) -> Matrix:
    """Project an even invariant f in l(V, W) to a module homomorphism:

        ftilde(v) = sum S(X) alpha Y . f(S(Z) v)   over the coassociator.

    Verified postconditions: ftilde intertwines the two actions, recovers f
    through beta . ftilde = f, and the inverse-coassociator expression
    agrees."""
    A, hom = H.algebra, _hom(H, V, W)
    x = hom.element(f, 0)
    if not all(d.is_zero() for d in hom.defects(x)):
        raise NotInvariantError("not invariant under the l(V, W) action")

    out = hom.sandwich(H.contract(H.phi, (0, 2), right=(H.alpha,), split=2), x)
    alt = hom.sandwich(H.contract(H.phi_inv, (1,), right=(None, H.alpha), split=1), x)
    if alt != out:
        raise NotInvariantError(
            "coassociator and inverse-coassociator projections disagree")

    rho = hom.U.leg_map()
    require(centralizes(A, out, rho), NotInvariantError,
            "projection does not intertwine the action of {}")
    if rho(H.beta) * out != x:
        raise NotInvariantError("beta times the projection does not recover f")
    return hom.matrix(out)


# ---------------------------------------------------------------------------
# bilinear forms


def invariant_bilinear_forms(H: QuasiHopfStructure, V: Representation,
                             W: Representation) -> List[Matrix]:
    """Bilinear forms with  sum (a_(1) v, a_(2) w) (-1)^{[v][a_(2)]}
    = eps(a) (v, w);  returned as matrices B[i][j] = (v_i, w_j)."""
    A, field = H.algebra, H.algebra.field
    n = V.dim * W.dim
    rows = []
    for idx in _domain(H, _closed(H)):
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
