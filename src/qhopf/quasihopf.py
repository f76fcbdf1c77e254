"""Quasi-Hopf (super)algebra structures and the exhaustive axiom verifier.

A structure bundles a graded algebra with a coproduct, counit, antipode,
coassociator ``phi`` (with inverse), canonical elements ``alpha``/``beta``,
and an optional universal R-matrix.  Construction checks shapes and that the
coproduct, counit and antipode are even.  The ``verify_*`` functions test
each axiom as differences that must be zero (the odd parts, for evenness)
and report the first nonzero one as the witness; a failed identity never
raises.  Every check yields one ``report.AxiomCheck``: ``_run`` files a
named, timed copy in a report, and a construction raises on a failed one
through ``graded.require``.  The adjoint and anti-adjoint actions and their
defect are defined here for the antipode axioms; ``invariants`` solves their
fixed spaces and, from those, the canonical elements.

An identity quantified over the algebra holds on a subspace.  Once the
facts of ``_closed`` (plus phi phi^{-1} = 1 for quasi-coassociativity, and
even alpha, beta for the antipode axioms and the exchange identities) have
passed, that subspace is a subalgebra, so it is checked on the generators
of A only.  Otherwise, and to find the witness of a failure, the whole
basis is used.  The closure argument for the exchange identities is in
``casimir._exchange_identities``.

An inverse (of phi, R, u or a twistor) is checked on one side, x y = 1: the
legs are validated associative, unital and finite-dimensional, so x y = 1
gives L_x L_y = id, L_y is injective, hence bijective, and y x = 1.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Optional, Sequence, Tuple

from .errors import AntipodeNotInvertibleError, NoRMatrixError, StructureValidationError
from .graded import (
    AlgebraElement,
    BaseAlgebra,
    GradedAlgebra,
    LinearMap,
    TensorElement,
    multiplicativity,
    quantify,
)
from .linalg import rows_of, rref
from .report import AxiomCheck, AxiomReport
from .scalars import Scalar


def reindex(t: TensorElement, spec: str) -> TensorElement:
    """Leg placement by subscript string: slot i of the result carries the
    tensor's factor spec[i].  reindex(phi, "132") applies the graded twist
    to the last two legs; reindex(r, "21") is the flip of a rank-2 tensor."""
    return t.permute(tuple(int(c) - 1 for c in spec))


def memoized(fn):
    """Compute ``fn(H, *args)`` at most once per structure ``H``.  Integer
    arguments key by value, others by identity; the arguments are stored
    with the value, so an identity cannot be reused while its entry lives."""
    @functools.wraps(fn)
    def cached(H, *args):
        key = (fn.__name__,) + tuple(a if isinstance(a, int) else id(a) for a in args)
        hit = H._derived.get(key)
        if hit is None:
            hit = H._derived[key] = (fn(H, *args), args)
        return hit[0]
    return cached


class QuasiHopfStructure:
    """The data (A, coproduct, counit, antipode, phi, alpha, beta [, R]).

    Fields are read-only, so data derived from them (S^{-1}, S on the
    basis, u, u^{-1}, trace forms, the twisted structures) is memoised on
    the structure; ``with_data`` makes a modified copy with an empty memo.
    Equality compares the data, not the name; a structure is unhashable."""

    _DATA = ("algebra", "coproduct", "counit", "antipode", "phi", "phi_inv",
             "alpha", "beta", "r", "r_inv")
    __hash__ = None

    def __init__(self, algebra: GradedAlgebra, coproduct: LinearMap, counit: LinearMap,
                 antipode: LinearMap, phi: TensorElement, phi_inv: TensorElement,
                 alpha: Optional[AlgebraElement], beta: Optional[AlgebraElement],
                 r: Optional[TensorElement] = None, r_inv: Optional[TensorElement] = None,
                 name: str = ""):
        vars(self).update(zip(self._DATA, (algebra, coproduct, counit, antipode, phi,
                                           phi_inv, alpha, beta, r, r_inv)),
                          name=name, _derived={})
        a = self.algebra
        if self.coproduct.target_rank != 2 or self.coproduct.source is not a:
            raise StructureValidationError("coproduct must map the algebra to rank 2")
        if self.counit.target_rank != 0:
            raise StructureValidationError("counit must map to scalars")
        if self.antipode.target_rank != 1:
            raise StructureValidationError("antipode must map the algebra to itself")
        for m in (self.coproduct, self.counit, self.antipode):
            if not m.parity_preserving:
                raise StructureValidationError(
                    f"grading violation in the {m.name} of {a.labels[m.odd_at]}")
        for t, rk in ((self.phi, 3), (self.phi_inv, 3)):
            if t.rank != rk or any(leg is not a for leg in t.legs):
                raise StructureValidationError("coassociator must be rank 3 over A")
        for el in (self.alpha, self.beta):
            if el is not None and el.algebra is not a:
                raise StructureValidationError("canonical elements must live in A")
        if (self.r is None) != (self.r_inv is None):
            raise StructureValidationError("R and its inverse come together")
        if self.r is not None and (self.r.rank != 2 or self.r_inv.rank != 2):
            raise StructureValidationError("R must have rank 2")

    @property
    @memoized
    def antipode_inv(self) -> Optional[LinearMap]:
        """S^{-1}, or None when S is singular: eliminating [S | 1] leaves
        [1 | S^{-1}] exactly when S is invertible."""
        A, n = self.algebra, self.algebra.dim
        red, pivots = rref(rows_of(
            [{i: c for (i,), c in img.coeffs.items()} for img in self.antipode.images]
            + [{k: A.field.one()} for k in range(n)]), n)
        if len(pivots) < n:
            return None
        return LinearMap(A, (A,), [
            TensorElement((A,), {(r,): row[n + k] for r, row in enumerate(red)
                                 if n + k in row}) for k in range(n)],
            name="antipode_inv")

    # -- basic maps on elements -------------------------------------------

    def basis_element(self, i: int) -> AlgebraElement:
        return self.algebra.basis_element(i)

    def delta(self, x: AlgebraElement) -> TensorElement:
        return self.coproduct(x)

    def delta_t(self, x: AlgebraElement) -> TensorElement:
        return self.coproduct(x).swap()

    def eps(self, x: AlgebraElement) -> Scalar:
        return self.counit(x)

    def s(self, x: AlgebraElement) -> AlgebraElement:
        return self.antipode(x)

    @memoized
    def s_basis(self, i: int) -> AlgebraElement:
        return self.antipode(self.algebra.basis_element(i))

    def s_inv(self, x: AlgebraElement) -> AlgebraElement:
        if self.antipode_inv is None:
            raise AntipodeNotInvertibleError("the antipode is not invertible")
        return self.antipode_inv(x)

    def delta_left(self, x: AlgebraElement) -> TensorElement:
        """(coproduct (x) 1) of the coproduct."""
        return self.delta(x).apply_maps([(0, self.coproduct)])

    def delta_right(self, x: AlgebraElement) -> TensorElement:
        """(1 (x) coproduct) of the coproduct."""
        return self.delta(x).apply_maps([(1, self.coproduct)])

    # -- common tensors ------------------------------------------------------

    def legs(self, rank: int) -> Tuple[BaseAlgebra, ...]:
        return (self.algebra,) * rank

    def unit_tensor(self, rank: int) -> TensorElement:
        return TensorElement.unit(self.legs(rank))

    def r_at(self, legs: str) -> TensorElement:
        """R on two of three legs by subscript string: r_at("13") is R_13."""
        return self.r.embed(tuple(int(c) - 1 for c in legs), self.legs(3))

    def require_r(self):
        if self.r is None:
            raise NoRMatrixError(f"{self.name or 'structure'} has no R-matrix")

    # -- contractions --------------------------------------------------------

    def contract(self, t: TensorElement, s: Sequence[int] = (),
                 left: Sequence[Optional[AlgebraElement]] = (),
                 right: Sequence[Optional[AlgebraElement]] = (),
                 split: Optional[int] = None):
        """Sum over the terms of t of one word in its legs: apply the
        antipode to the legs listed in s, multiply leg k by left[k] on the
        left and by right[k] on the right (None or a missing entry is 1),
        then multiply the legs together.  With ``split`` the legs before
        and from that position are multiplied separately, giving a rank-2
        tensor; otherwise the result is an element.

        Every Koszul sign comes from the graded tensor product, so e.g.
        contract(delta(a), (1,), right=(b,)) is the adjoint action
        sum a_(1) b S(a_(2)) (-1)^{[b][a_(2)]}."""
        if s:
            t = t.apply_maps([(leg, self.antipode) for leg in s])
        if any(x is not None for x in left):
            t = self._pure(left, t.rank) * t
        if any(x is not None for x in right):
            t = t * self._pure(right, t.rank)
        if split is None:
            return t.merge_all()
        while t.rank > split + 1:
            t = t.merge(split, split + 1)
        while t.rank > 2:
            t = t.merge(0, 1)
        return t

    def _pure(self, factors: Sequence[Optional[AlgebraElement]],
              rank: int) -> TensorElement:
        one = self.algebra.unit()
        padded = list(factors) + [None] * (rank - len(factors))
        return TensorElement.of(*(one if x is None else x for x in padded))

    # -- copies ------------------------------------------------------------------

    def _data(self) -> tuple:
        return tuple(getattr(self, f) for f in self._DATA)

    def with_data(self, **kw) -> "QuasiHopfStructure":
        return QuasiHopfStructure(**dict(zip(self._DATA, self._data()), name=self.name) | kw)

    def __eq__(self, other):
        if other.__class__ is not QuasiHopfStructure:
            return NotImplemented
        return self._data() == other._data()

    def __setattr__(self, name, value=None):
        from dataclasses import FrozenInstanceError  # loaded on this error path only
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        return f"QuasiHopfStructure({self.name or self.algebra!r})"


# ---------------------------------------------------------------------------
# the adjoint actions


def adjoint_action(H: QuasiHopfStructure, a: AlgebraElement,
                   b: AlgebraElement) -> AlgebraElement:
    """sum a_(1) b S(a_(2)) (-1)^{[b][a_(2)]}."""
    return H.contract(H.delta(a), (1,), right=(b,))


def anti_adjoint_action(H: QuasiHopfStructure, a: AlgebraElement,
                        b: AlgebraElement) -> AlgebraElement:
    """sum S(a_(1)) b a_(2) (-1)^{[b][a_(1)]}."""
    return H.contract(H.delta(a), (0,), left=(None, b))


def defect(H: QuasiHopfStructure, action, i: int, c: AlgebraElement) -> AlgebraElement:
    """action(basis i, c) - eps(basis i) c: zero for every i iff the action
    fixes c.  At the adjoint action and c = beta this is the antipode-beta
    axiom, at the anti-adjoint one and c = alpha the antipode-alpha axiom
    (alpha even, so the Koszul sign is +1)."""
    a = H.basis_element(i)
    return action(H, a, c) - c.scale(H.eps(a))


# ---------------------------------------------------------------------------
# verification


def _run(report: AxiomReport, axiom: str, fn: Callable[[], AxiomCheck]) -> None:
    """Add a new record named axiom, with fn's outcome and its seconds.
    fn's own record is never renamed or retimed: it may be memoised."""
    t0 = time.perf_counter()
    c = fn()
    report.add(AxiomCheck(axiom, c.passed, c.witness, c.element, c.over, c.size,
                          time.perf_counter() - t0))


@memoized
def _multiplicative(H: QuasiHopfStructure, k: int) -> AxiomCheck:
    """The rule for Delta (k = 0) or eps (1) multiplicative, S (2)
    antimultiplicative; on the generators when the map is unital."""
    A = H.algebra
    f, one = ((H.delta, H.unit_tensor(2)), (H.eps, A.field.one()), (H.s, A.unit()))[k]
    if k == 1 and f(A.unit()) != one:
        return AxiomCheck("", False, f(A.unit()), "unit")
    return multiplicativity(A, f, f(A.unit()) == one, anti=k == 2)


@memoized
def _closed(H: QuasiHopfStructure) -> bool:
    """Delta, S unital, Delta and eps multiplicative, S antimultiplicative,
    all three even (by construction): then the solutions of each identity
    below, and of the invariance conditions of ``invariants``, close under products."""
    A = H.algebra
    return (H.delta(A.unit()) == H.unit_tensor(2) and H.s(A.unit()) == A.unit()
            and all(_multiplicative(H, k).passed for k in range(3)))


@memoized
def _phi_invertible(H: QuasiHopfStructure) -> AxiomCheck:
    return _all_zero(lambda: H.phi * H.phi_inv - H.unit_tensor(3))()


def _closed_canonical(H: QuasiHopfStructure) -> bool:
    """``_closed`` with alpha and beta even (a missing one counts as 1)."""
    return _closed(H) and all(c is None or c.is_even() for c in (H.alpha, H.beta))


def _all_zero(*diff_fns):
    """Conjunction of exact equalities given as differences; witness is the first nonzero."""
    def fn():
        for diff_fn in diff_fns:
            d = diff_fn()
            if not d.is_zero():
                return AxiomCheck("", False, d)
        return AxiomCheck("", True)
    return fn


def verify_quasi_bialgebra(H: QuasiHopfStructure) -> AxiomReport:
    """Quasi-bialgebra axioms: hom properties of the coproduct and counit,
    invertibility and evenness of the coassociator, quasi-coassociativity,
    the pentagon identity, and all counit identities."""
    report = AxiomReport(f"{H.name or 'structure'}:quasi-bialgebra")
    A = H.algebra

    _run(report, "coproduct-unit", _all_zero(
        lambda: H.delta(A.unit()) - H.unit_tensor(2)))

    _run(report, "coproduct-homomorphism", lambda: _multiplicative(H, 0))
    _run(report, "counit-homomorphism", lambda: _multiplicative(H, 1))
    _run(report, "coassociator-invertible", lambda: _phi_invertible(H))

    _run(report, "coassociator-even", _all_zero(H.phi.odd_part, H.phi_inv.odd_part))

    _run(report, "quasi-coassociativity", lambda: quantify(
        A, lambda i: H.delta_right(A.basis_element(i))
        - H.phi_inv * H.delta_left(A.basis_element(i)) * H.phi,
        1, _closed(H) and _phi_invertible(H).passed))

    legs4 = H.legs(4)
    _run(report, "pentagon", _all_zero(
        lambda: H.phi.apply_maps([(0, H.coproduct)]) * H.phi.apply_maps([(2, H.coproduct)])
        - H.phi.embed((0, 1, 2), legs4)
        * H.phi.apply_maps([(1, H.coproduct)]) * H.phi.embed((1, 2, 3), legs4)))

    def counit_coproduct(i):
        a = A.basis_element(i)
        d = [H.delta(a).apply_maps([(leg, H.counit)]).as_element() - a for leg in (0, 1)]
        return d[1] if d[0].is_zero() else d[0]
    _run(report, "counit-coproduct", lambda: quantify(A, counit_coproduct, 1, _closed(H)))

    unit2 = H.unit_tensor(2)
    _run(report, "counit-coassociator", _all_zero(
        lambda: H.phi.apply_maps([(1, H.counit)]) - unit2))
    _run(report, "counit-coassociator-outer", _all_zero(
        lambda: H.phi.apply_maps([(0, H.counit)]) - unit2,
        lambda: H.phi.apply_maps([(2, H.counit)]) - unit2))
    return report


def _phi_sandwich_inv(H: QuasiHopfStructure, beta: AlgebraElement,
                      alpha: AlgebraElement) -> AlgebraElement:
    """sum Xbar beta S(Ybar) alpha Zbar over the inverse coassociator."""
    return H.contract(H.phi_inv, (1,), right=(beta, alpha))


def _phi_sandwich(H: QuasiHopfStructure, alpha: AlgebraElement,
                  beta: AlgebraElement) -> AlgebraElement:
    """sum S(X) alpha Y beta S(Z) over the coassociator."""
    return H.contract(H.phi, (0, 2), right=(alpha, beta))


def verify_antipode_axioms(H: QuasiHopfStructure) -> AxiomReport:
    """Antipode axioms with the canonical elements, plus the derived counit
    consequences."""
    report = AxiomReport(f"{H.name or 'structure'}:antipode")
    A = H.algebra

    _run(report, "antipode-antihomomorphism", lambda: _multiplicative(H, 2))

    _run(report, "antipode-unit", _all_zero(lambda: H.s(A.unit()) - A.unit()))

    missing = H.alpha is None or H.beta is None
    _run(report, "canonical-even", (lambda: AxiomCheck("", False, element="missing"))
         if missing else _all_zero(H.alpha.odd_part, H.beta.odd_part))
    if missing:
        return report

    _run(report, "antipode-alpha", lambda: quantify(
        A, lambda i: defect(H, anti_adjoint_action, i, H.alpha), 1, _closed_canonical(H)))
    _run(report, "antipode-beta", lambda: quantify(
        A, lambda i: defect(H, adjoint_action, i, H.beta), 1, _closed_canonical(H)))
    _run(report, "coassociator-antipode-inv", _all_zero(
        lambda: _phi_sandwich_inv(H, H.beta, H.alpha) - A.unit()))
    _run(report, "coassociator-antipode", _all_zero(
        lambda: _phi_sandwich(H, H.alpha, H.beta) - A.unit()))

    _run(report, "counit-canonical", _all_zero(
        lambda: H.eps(H.alpha) * H.eps(H.beta) - A.field.one()))

    _run(report, "counit-antipode", lambda: quantify(
        A, lambda i: H.eps(H.s_basis(i)) - H.eps(A.basis_element(i)), 1, _closed(H)))
    return report


@memoized
def verify_quasitriangular(H: QuasiHopfStructure) -> AxiomReport:
    """R-matrix axioms (invertibility, evenness, counits, intertwining, both
    hexagons), memoised per structure: callers must not modify the report."""
    H.require_r()
    report = AxiomReport(f"{H.name or 'structure'}:quasitriangular")
    A = H.algebra
    unit2 = H.unit_tensor(2)

    _run(report, "r-invertible", _all_zero(lambda: H.r * H.r_inv - unit2))

    _run(report, "r-even", _all_zero(H.r.odd_part, H.r_inv.odd_part))

    _run(report, "counit-r", _all_zero(
        lambda: H.r.apply_maps([(0, H.counit)]).as_element() - A.unit(),
        lambda: H.r.apply_maps([(1, H.counit)]).as_element() - A.unit()))

    _run(report, "r-intertwines-coproduct", lambda: quantify(
        A, lambda i: H.delta_t(A.basis_element(i)) * H.r
        - H.r * H.delta(A.basis_element(i)), 1, _closed(H)))

    _run(report, "hexagon-left", _all_zero(
        lambda: H.r.apply_maps([(0, H.coproduct)]) - _hexagon_word(H, 0)))
    _run(report, "hexagon-right", _all_zero(
        lambda: H.r.apply_maps([(1, H.coproduct)]) - _hexagon_word(H, 1) * H.phi))
    return report


@memoized
def _hexagon_word(H: QuasiHopfStructure, side: int) -> TensorElement:
    """W_L = phi^-1_231 R_13 phi_132 R_23 phi^-1 (side 0) or W_R = phi_312 R_13
    phi^-1_213 R_12 (side 1): the hexagon sides are W_L and W_R phi, the QYBE
    sides R_12 W_L and phi^-1_321 R_23 W_R (the legs are associative algebras)."""
    p, q, r = H.phi, H.phi_inv, H.r_at
    if side == 0:
        return reindex(q, "231") * r("13") * reindex(p, "132") * r("23") * q
    return reindex(p, "312") * r("13") * reindex(q, "213") * r("12")


def verify_quasi_ybe(H: QuasiHopfStructure) -> AxiomReport:
    """The coassociator-decorated Yang-Baxter equation."""
    H.require_r()
    report = AxiomReport(f"{H.name or 'structure'}:quasi-ybe")

    _run(report, "quasi-yang-baxter", _all_zero(
        lambda: H.r_at("12") * _hexagon_word(H, 0)
        - reindex(H.phi_inv, "321") * H.r_at("23") * _hexagon_word(H, 1)))
    return report


def require_verified(H: QuasiHopfStructure, what: str,
                     error=StructureValidationError) -> QuasiHopfStructure:
    """H, once verify_structure passes on it; else error naming the failures."""
    failed = ", ".join(c.axiom for c in verify_structure(H).failures())
    if failed:
        raise error(f"{what} failed verification: {failed}")
    return H


def verify_structure(H: QuasiHopfStructure) -> AxiomReport:
    """Run every verifier that applies; never short-circuits on failure."""
    report = AxiomReport(f"{H.name or 'structure'}:all")
    report.extend(verify_quasi_bialgebra(H))
    report.extend(verify_antipode_axioms(H))
    if H.r is not None:
        report.extend(verify_quasitriangular(H))
        report.extend(verify_quasi_ybe(H))
    return report
