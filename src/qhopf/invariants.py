"""Invariants of the adjoint and anti-adjoint actions, invariant forms,
and the module-morphism construction.

The adjoint action of a on b is  sum a_(1) b S(a_(2)) (-1)^{[b][a_(2)]},
the anti-adjoint action is       sum S(a_(1)) b a_(2) (-1)^{[b][a_(1)]};
both, and their defect  action(a, c) - eps(a) c,  live in ``quasihopf``,
where the antipode axioms use them too.  One defect table per structure
and action, defect(a, e_j) for the quantified a and every basis j, gives
every fixed space: its columns the (pseudo-)invariant elements, its rows
the (pseudo-)invariant linear forms and their membership tests.  Element
spaces, the center and the invariant maps go through one solver, ``_solve``,
which splits the unknowns by parity (the signs depend on the parity of the
candidate) and returns deterministic echelon-form bases.  The canonical
elements are solved on the even parts of those spaces: beta is an
invariant, alpha a pseudo-invariant, and both coassociator sandwiches
equal 1.

Maps V -> W are list matrices at the interface only; their module structure
is computed on End(V (+) W) legs.  A bilinear form pairs v_i (x) w_j with
v_i the matrix unit E[i, e] of End(V (+) k), e the even vector spanning
the trivial summand, so a_(1) (x) a_(2) acts by End legs.  In both, the
graded tensor product supplies every sign.

A condition "for all a" is imposed for the generators a only: commuting
with a is closed under products, and so is invariance under the actions
once ``quasihopf._closed`` holds.  The reduced system has the same kernel,
hence the same echelon basis.  A linear form is a rank-0 ``LinearMap``,
like the counit.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

from .errors import (
    NoSolutionError,
    NotInvariantError,
    OddElementError,
    PostconditionError,
    StructureValidationError,
)
from .graded import AlgebraElement, LinearMap, TensorElement, centralizes, linear_form, require
from .linalg import nullspace, rows_of, solve_affine
from .quasihopf import (
    QuasiHopfStructure,
    _closed,
    _phi_sandwich,
    _phi_sandwich_inv,
    adjoint_action,
    anti_adjoint_action,
    defect,
    memoized,
    verify_antipode_axioms,
)
from .representations import Matrix, Representation, direct_sum, trivial_representation


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


def _domain(H: QuasiHopfStructure):
    """The quantified a of an invariance condition, as indices: the
    generators once the actions are known to be actions, else the basis."""
    return H.algebra.generators() if _closed(H) else range(H.algebra.dim)


def _solve(algebra, keys, column) -> GradedSubspace:
    """The x = sum_j x_j e_j over the basis indices j in keys with
    sum_j x_j column(j)[n] = 0 for every n, where column(j) lists the
    defects of e_j as elements; solved on the even and the odd keys apart."""
    out = GradedSubspace()
    for parity, bucket in ((0, out.even), (1, out.odd)):
        idx = [j for j in keys if algebra.parity[j] == parity]
        columns = [{(n, k): c for n, d in enumerate(column(j)) for k, c in d.coeffs.items()}
                   for j in idx]
        for vec in nullspace(rows_of(columns), len(idx), algebra.field):
            bucket.append(AlgebraElement(algebra, dict(zip(idx, vec))))
    return out


# ---------------------------------------------------------------------------
# elements and forms fixed by an action


@memoized
def _defect_table(H: QuasiHopfStructure, action) -> List[List[AlgebraElement]]:
    """defect(a, e_j) for the quantified a (one list each) and every basis j."""
    A = H.algebra
    return [[defect(H, action, i, A.basis_element(j)) for j in range(A.dim)]
            for i in _domain(H)]


def _fixed_elements(H: QuasiHopfStructure, action) -> GradedSubspace:
    table = _defect_table(H, action)
    return _solve(H.algebra, range(H.algebra.dim), lambda j: [row[j] for row in table])


def _is_fixed(H: QuasiHopfStructure, action, c: AlgebraElement) -> bool:
    return all(defect(H, action, i, c).is_zero() for i in _domain(H))


def invariant_subspace(H: QuasiHopfStructure) -> GradedSubspace:
    """Solutions of the adjoint-invariance condition; always contains beta."""
    return _fixed_elements(H, adjoint_action)


def pseudo_invariant_subspace(H: QuasiHopfStructure) -> GradedSubspace:
    """Solutions of the anti-adjoint-invariance condition; contains alpha."""
    return _fixed_elements(H, anti_adjoint_action)


def is_invariant_element(H: QuasiHopfStructure, c: AlgebraElement) -> bool:
    return _is_fixed(H, adjoint_action, c)


def is_pseudo_invariant_element(H: QuasiHopfStructure, c: AlgebraElement) -> bool:
    return _is_fixed(H, anti_adjoint_action, c)


def _fixed_forms(H: QuasiHopfStructure, action) -> List[LinearMap]:
    """The forms xi annihilating every entry of the table: xi(action(a, b))
    = eps(a) xi(b) for all a, b."""
    A = H.algebra
    rows = [d.coeffs for row in _defect_table(H, action) for d in row]
    return [linear_form(A, vec) for vec in nullspace(rows, A.dim, A.field)]


def _is_fixed_form(H: QuasiHopfStructure, action, xi: LinearMap) -> bool:
    return all(xi(d).is_zero() for row in _defect_table(H, action) for d in row)


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
# the canonical elements


def solve_canonical_elements(H: QuasiHopfStructure
                             ) -> List[Tuple[AlgebraElement, AlgebraElement]]:
    """All (alpha, beta) pairs completing (coproduct, counit, antipode, phi)
    to a quasi-Hopf structure, both elements even.

    The antipode axioms say that beta is an even invariant and alpha an even
    pseudo-invariant.  So beta runs over the echelon basis of the even
    invariants, and for each beta, alpha = sum t_k p_k over the echelon
    basis p_k of the even pseudo-invariants, where both coassociator
    sandwiches equal 1: one affine system in the t_k.  Every returned pair
    is re-verified.

    The pairs are those of the affine system in the even coordinates of
    alpha with the anti-adjoint and the sandwich rows, whose solution set is
    the same.  p_k is 1 at the k-th free column f_k of the anti-adjoint
    rows and 0 at the others and after f_k, so t_k = alpha[f_k], and alpha
    is 0 after f_k exactly when t_j = 0 for j > k.  A column is free when
    some homogeneous solution is 1 there and 0 after it, so the free columns
    of that system are the f_k whose t_k is free (the sandwich rows only add
    pivots).  A reduced echelon particular solution (0 at the free columns)
    and kernel basis (1 at one free column, 0 at the others) are fixed by
    the free columns, so both systems give the same alpha.
    """
    A = H.algebra
    alpha_basis = pseudo_invariant_subspace(H).even
    rhs = {(n, k): c for n in (0, 1) for k, c in A.unit().coeffs.items()}
    results: List[Tuple[AlgebraElement, AlgebraElement]] = []
    for beta in invariant_subspace(H).even:
        particular, kernel = solve_affine(rows_of([
            {(n, k): c for n, x in enumerate((_phi_sandwich_inv(H, beta, p),
                                              _phi_sandwich(H, p, beta)))
             for k, c in x.coeffs.items()} for p in alpha_basis] + [rhs]),
            len(alpha_basis), A.field)
        if particular is None:
            continue
        for t in [particular] + [[x + h for x, h in zip(particular, hvec)] for hvec in kernel]:
            alpha = sum((p.scale(c) for c, p in zip(t, alpha_basis)), A.zero())
            if not verify_antipode_axioms(H.with_data(alpha=alpha, beta=beta)).passed:
                raise PostconditionError(
                    "solved canonical elements failed re-verification")
            results.append((alpha, beta))
    if not results:
        raise NoSolutionError(
            "no canonical elements: the data does not extend to a quasi-Hopf structure")
    return results


# ---------------------------------------------------------------------------
# the center


def is_central(H: QuasiHopfStructure, x: AlgebraElement
               ) -> Tuple[bool, Optional[Tuple[str, AlgebraElement]]]:
    """True when x commutes with every generator, hence with A; otherwise the
    first basis element with a nonzero commutator is the witness."""
    c = centralizes(H.algebra, x)
    return c.passed, None if c.passed else (c.element, c.witness)


def center(H: QuasiHopfStructure) -> GradedSubspace:
    A = H.algebra
    gens = [A.basis_element(g) for g in A.generators()]
    return _solve(A, range(A.dim), lambda j: [
        A.basis_element(j) * g - g * A.basis_element(j) for g in gens])


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

    def act(self, a: AlgebraElement, f: AlgebraElement) -> AlgebraElement:
        """a . f = sum a_(1) f S(a_(2)) (-1)^{[f][a_(2)]}."""
        return self.sandwich(self.H.delta(a).apply_maps([(1, self.H.antipode)]), f)

    def defects(self, f: AlgebraElement):
        """a . f - eps(a) f over the quantified a: all zero iff f is invariant."""
        return (defect(self.H, lambda _, a, x: self.act(a, x), i, f) for i in _domain(self.H))


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
    hom = _hom(H, V, W)
    space = _solve(hom.end, [k for keys in hom.keys for k in keys],
                   lambda k: hom.defects(hom.end.basis_element(k)))
    return [hom.matrix(f) for f in space.even], [hom.matrix(f) for f in space.odd]


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


@memoized
def _padded(H: QuasiHopfStructure, X: Representation) -> Representation:
    """X (+) k, with k the trivial representation through the counit."""
    return direct_sum(X, trivial_representation(H.counit))


def invariant_bilinear_forms(H: QuasiHopfStructure, V: Representation,
                             W: Representation) -> List[Matrix]:
    """Bilinear forms with  sum (a_(1) v, a_(2) w) (-1)^{[v][a_(2)]}
    = eps(a) (v, w);  returned as matrices B[i][j] = (v_i, w_j).

    The vector v_i is the matrix unit E[i, e] of End(V (+) k), with e the
    last, even carrier vector, so the product (a_(1) (x) a_(2))(v_i (x) w_j)
    of End legs carries the sign (-1)^{[v_i][a_(2)]}."""
    A, one = H.algebra, H.algebra.field.one()
    padded = [_padded(H, X) for X in (V, W)]
    legs = tuple(U.matrix_algebra() for U in padded)
    units = [[p * (X.dim + 1) + X.dim for p in range(X.dim)] for X in (V, W)]  # E[p, e]
    unknown = {key: n for n, key in enumerate(itertools.product(*units))}  # B[p][q]
    rows = []
    for idx in _domain(H):
        acting = H.coproduct.on_basis(idx).apply_maps(
            [(0, padded[0].leg_map()), (1, padded[1].leg_map())])
        eps_a = H.eps(A.basis_element(idx))
        for key in unknown:
            x = TensorElement(legs, {key: one})
            rows.append({unknown[k]: c for k, c in (acting * x - x.scale(eps_a)).coeffs.items()})
    return [[vec[p * W.dim:(p + 1) * W.dim] for p in range(V.dim)]
            for vec in nullspace(rows, len(unknown), A.field)]
