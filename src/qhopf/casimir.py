"""Central-element constructors and the twist-invariance verifier.

Given an even invariant c1 (resp. even pseudo-invariant c2), central
elements are built through the coassociator:

    C1 = sum Xbar c1 S(Ybar) alpha Zbar  =  sum S(X) alpha Y c1 S(Z)
    C2 = sum S(X) c2 Y beta S(Z)         =  sum Xbar beta S(Ybar) c2 Zbar

In the quasi-triangular case the u-operator

    u = sum S(Y beta S(Z)) S(e^i) alpha e_i X  (-1)^{[e_i] + [X]}

implements the square of the antipode by conjugation, and supertrace
forms against a representation (rank-0 ``LinearMap``s, like the counit)
produce whole families of central elements from powers of R^T R;
omega = (R^T R)^m, theta and thetabar are derived once per structure and
power, whatever the representation.  Every
constructor checks its postconditions (centrality, conjugation, recovery,
agreement of paired formulas) and raises on violation; where two printed
formulas exist for one object both are computed and compared.  The
twist-invariance verifier recomputes all of these inside the twisted
structure, which ``twist_structure`` has verified, and files each exact
comparison with the untwisted value as an ``AxiomCheck`` in an ``AxiomReport``.
Represented constructions run on End(V) tensor legs, so every sum here is
a contraction whose Koszul signs come from the graded tensor product;
list matrices are only the format of a representation.
"""

from __future__ import annotations

import functools
import operator
from typing import Any, Dict, Optional, Sequence, Tuple

from .errors import (
    AntipodeNotInvertibleError,
    NotInvariantError,
    OddElementError,
    PostconditionError,
)
from .graded import (
    AlgebraElement,
    LinearMap,
    TensorElement,
    centralizes,
    linear_form,
    quantify,
    require,
)
from .invariants import (
    invariant_subspace,
    is_invariant_element,
    is_invariant_form,
    is_pseudo_invariant_element,
    is_pseudo_invariant_form,
    pseudo_invariant_subspace,
)
from .quasihopf import (
    QuasiHopfStructure,
    _all_zero,
    _closed,
    _closed_canonical,
    _phi_sandwich,
    _phi_sandwich_inv,
    _run,
    memoized,
    reindex,
)
from .report import AxiomCheck, AxiomReport
from .representations import Representation, apply_rep_on_leg
from .scalars import _power
from .twisting import Twistor, twist_structure, twisted_c1, twisted_c2


# ---------------------------------------------------------------------------
# C1 and C2


def build_C1(H: QuasiHopfStructure, c1: AlgebraElement) -> AlgebraElement:
    """Central element attached to an even invariant; both coassociator
    expressions are computed and must agree, and C1 beta = beta C1 = c1."""
    if not c1.is_even():
        raise OddElementError("odd element: C1 needs an even invariant")
    if not is_invariant_element(H, c1):
        raise NotInvariantError("not invariant under the adjoint action")
    via_inv = _phi_sandwich_inv(H, c1, H.alpha)
    if via_inv != _phi_sandwich(H, H.alpha, c1):
        raise PostconditionError("the two C1 expressions disagree")
    require(centralizes(H.algebra, via_inv), PostconditionError,
            "C1 is not central: [{}] fails")
    if via_inv * H.beta != c1 or H.beta * via_inv != c1:
        raise PostconditionError("C1 beta does not recover c1")
    return via_inv


def build_C2(H: QuasiHopfStructure, c2: AlgebraElement) -> AlgebraElement:
    """Mirror of build_C1 for an even pseudo-invariant; C2 alpha = alpha C2 = c2."""
    if not c2.is_even():
        raise OddElementError("odd element: C2 needs an even pseudo-invariant")
    if not is_pseudo_invariant_element(H, c2):
        raise NotInvariantError("not invariant under the anti-adjoint action")
    via_phi = _phi_sandwich(H, c2, H.beta)
    if via_phi != _phi_sandwich_inv(H, H.beta, c2):
        raise PostconditionError("the two C2 expressions disagree")
    require(centralizes(H.algebra, via_phi), PostconditionError,
            "C2 is not central: [{}] fails")
    if via_phi * H.alpha != c2 or H.alpha * via_phi != c2:
        raise PostconditionError("C2 alpha does not recover c2")
    return via_phi


def quadratic_invariants(H: QuasiHopfStructure, omega: TensorElement
                         ) -> Tuple[AlgebraElement, AlgebraElement]:
    """From an even rank-2 tensor commuting with the coproduct:
    c1 = sum w_i beta S(w^i) is invariant, c2 = sum S(w_i) alpha w^i is
    pseudo-invariant."""
    A = H.algebra
    if not omega.is_even():
        raise OddElementError("omega must be even")
    require(centralizes(A, omega, H.delta, _closed(H)), NotInvariantError,
            "omega does not commute with the coproduct at {}")
    c1 = H.contract(omega, (1,), right=(H.beta,))
    c2 = H.contract(omega, (0,), right=(H.alpha,))
    if not is_invariant_element(H, c1):
        raise PostconditionError("quadratic c1 failed the invariance check")
    if not is_pseudo_invariant_element(H, c2):
        raise PostconditionError("quadratic c2 failed the pseudo-invariance check")
    return c1, c2


# ---------------------------------------------------------------------------
# the u-operator


def _r_alpha(H: QuasiHopfStructure) -> AlgebraElement:
    """sum S(e^i) alpha e_i (-1)^{[e_i]} over R = e_i (x) e^i; the sign is
    that of the flip R^T, as R is even."""
    return H.contract(H.r.swap(), (0,), right=(H.alpha,))


def _alpha_rinv(H: QuasiHopfStructure) -> AlgebraElement:
    """sum S^{-1}(alpha ebar^i) ebar_i (-1)^{[ebar_i]} over R^{-1} = ebar_i (x) ebar^i."""
    return (TensorElement.of(H.alpha, H.algebra.unit()) * H.r_inv.swap()) \
        .apply_maps([(0, H.antipode_inv)]).merge_all()


@memoized
def u_sum(H: QuasiHopfStructure) -> AlgebraElement:
    """u = sum S(Y beta S(Z)) S(e^i) alpha e_i X (-1)^{[e_i]+[X]}, unchecked.
    Moving X past Y and Z gives (-1)^{[X]}, as phi is even; the antipode
    then acts on the product Y beta S(Z)."""
    H.require_r()
    pairs = H.contract(reindex(H.phi, "231"), (1,), right=(H.beta,), split=2)
    return H.contract(pairs.apply_maps([(0, H.antipode)]), right=(_r_alpha(H),))


def _u_conjugation(H: QuasiHopfStructure, u: AlgebraElement, i: int) -> AlgebraElement:
    a = H.basis_element(i)
    return H.s(H.s(a)) * u - u * a


@memoized
def u_operator(H: QuasiHopfStructure) -> AlgebraElement:
    """The u sum, checked: conjugation by u implements the antipode squared."""
    u, A = u_sum(H), H.algebra
    require(quantify(A, functools.partial(_u_conjugation, H, u), 1, _closed(H)),
            PostconditionError, "u does not conjugate the antipode squared at {}")
    if H.s(H.s(u)) != u:
        raise PostconditionError("u is not fixed by the antipode squared")
    return u


@memoized
def u_inverse(H: QuasiHopfStructure) -> AlgebraElement:
    """u^{-1} = sum S^{-1}(X) S^{-1}(alpha ebar^i) ebar_i Y beta S(Z)
    (-1)^{[ebar_i]}, from the inverse R-matrix."""
    H.require_r()
    if H.antipode_inv is None:
        raise AntipodeNotInvertibleError("the antipode is not invertible")
    uinv = H.contract(H.phi.apply_maps([(0, H.antipode_inv)]), (2,),
                      right=(_alpha_rinv(H), H.beta))
    if H.s(H.s(uinv)) != uinv:
        raise PostconditionError("u inverse is not fixed by the antipode squared")
    if u_operator(H) * uinv != H.algebra.unit():
        raise PostconditionError("u inverse does not invert u")
    return uinv


# ---------------------------------------------------------------------------
# the identity suite


def _exchange_identities(H: QuasiHopfStructure, report: AxiomReport) -> None:
    """Four exchange identities moving an element across coassociator
    contractions, checked as rank-2 tensor equalities.  Each row: name, the
    two rank-3 sides, and the contraction Psi applied to both (antipode
    legs, right factors, split).

    Once the facts of ``_closed_canonical`` hold, it is enough to check
    the generators.  Write Psi for a row's contraction, P = Psi(phi) (or
    of phi^{-1}) and a', a'', a''' for the legs of the iterated coproduct
    on the Delta-side.  As Delta and S are even and unital, Delta is
    multiplicative and S antimultiplicative, and alpha and beta are even,
    a |-> Psi(Delta-side(a) T) is a left or right action of A on rank-2
    tensors T = p (x) q:

        exchange-phi-beta      a'p (x) a''q S(a''')    left,  P (a (x) 1)
        exchange-phi-alpha     S(a')p a'' (x) q a'''   right, (1 (x) a) P
        exchange-phiinv-alpha  p a' (x) S(a'')q a'''   right, (a (x) 1) P
        exchange-phiinv-beta   a'p S(a'') (x) a'''q    left,  P (1 (x) a)

    The phi-side, last in each line, multiplies one leg of P by a from
    the side the action does not touch, so the two commute.  A row reads
    "a acting on P equals P multiplied by a": if it holds for a and b, it
    holds for ab (act by one, move the product past the other action, act
    again), and it holds for 1 and for sums.  The a satisfying a row form
    a subalgebra, so ``quantify`` runs over the generators.

    The parity of alpha and beta matters: Psi puts them between legs, and
    the graded tensor product signs each piece by what they pass, e.g.
    (-1)^{|beta||a'''|} in exchange-phi-beta.  For an odd alpha or beta, or
    one of mixed parity, the pieces follow actions with different signs,
    the solutions need not form a subalgebra, and the whole basis is
    checked."""
    A = H.algebra
    one = A.unit()
    rows = (
        ("exchange-phi-beta",  # x (x) y beta S(z)
         lambda a: H.phi * TensorElement.of(a, one, one),
         lambda a: H.delta_left(a) * H.phi, ((2,), (None, H.beta), 1)),
        ("exchange-phi-alpha",  # S(x) alpha y (x) z
         lambda a: TensorElement.of(one, one, a) * H.phi,
         lambda a: H.phi * H.delta_right(a), ((0,), (H.alpha,), 2)),
        ("exchange-phiinv-alpha",  # x (x) S(y) alpha z
         lambda a: TensorElement.of(a, one, one) * H.phi_inv,
         lambda a: H.phi_inv * H.delta_left(a), ((1,), (None, H.alpha), 1)),
        ("exchange-phiinv-beta",  # x beta S(y) (x) z
         lambda a: H.phi_inv * TensorElement.of(one, one, a),
         lambda a: H.delta_right(a) * H.phi_inv, ((1,), (H.beta,), 2)),
    )
    for name, lhs, rhs, (s, right, split) in rows:
        def diff(i, lhs=lhs, rhs=rhs, s=s, right=right, split=split):
            a = A.basis_element(i)
            return H.contract(lhs(a) - rhs(a), s, right=right, split=split)
        _run(report, name, lambda: quantify(A, diff, 1, _closed_canonical(H)))


def identity_suite(H: QuasiHopfStructure) -> AxiomReport:
    """Exchange identities for every element and the u-operator identities
    when an R-matrix is present.  All equalities are exact."""
    report = AxiomReport(f"{H.name or 'structure'}:identities")
    A = H.algebra
    _exchange_identities(H, report)

    if H.r is not None:
        u = u_sum(H)  # unchecked: the checks below report its failures

        _run(report, "antipode-alpha-u", _all_zero(
            lambda: H.s(H.alpha) * u - _r_alpha(H)))
        if H.antipode_inv is not None:
            _run(report, "u-alpha-rinv", _all_zero(
                lambda: u * _alpha_rinv(H) - H.alpha))

        def u_su_central():
            prod = u * H.s(u)
            if prod != H.s(u) * u:
                return AxiomCheck("", False, prod - H.s(u) * u)
            return centralizes(A, prod)
        _run(report, "u-su-central", u_su_central)

        _run(report, "su-sbeta-r", _all_zero(
            lambda: H.s(u) * H.s(H.beta) - H.contract(H.r, (1,), right=(H.beta,))))
        _run(report, "s-squared-u", _all_zero(lambda: H.s(H.s(u)) - u))
        _run(report, "u-conjugation", lambda: quantify(
            A, functools.partial(_u_conjugation, H, u), 1, _closed(H)))
    return report


# ---------------------------------------------------------------------------
# central elements from forms and the trace families


def central_from_theta(H: QuasiHopfStructure, theta: TensorElement,
                       xi: LinearMap, mirror: bool = False) -> AlgebraElement:
    """Central element from a rank-3 tensor commuting with the iterated
    coproduct and an even invariant form xi (a rank-0 map, applied to a
    tensor leg):  C = sum a_i xi(b_i beta S(c_i)).  The mirror variant
    pairs a pseudo-invariant form on the other side:
    Cbar = sum xi(S(a_i) alpha b_i) c_i."""
    A = H.algebra
    if not xi.parity_preserving:
        raise NotInvariantError("form not invariant/even: odd values present")
    require(centralizes(A, theta, H.delta_left if mirror else H.delta_right, _closed(H)),
            NotInvariantError, "theta does not centralize the iterated coproduct at {}")
    if not mirror and not is_invariant_form(H, xi):
        raise NotInvariantError("form not invariant")
    if mirror and not is_pseudo_invariant_form(H, xi):
        raise NotInvariantError("form not pseudo-invariant")
    if not mirror:  # a (x) b beta S(c), then xi on the second leg
        pairs = H.contract(theta, (2,), right=(None, H.beta), split=1)
        out = pairs.apply_maps([(1, xi)]).as_element()
    else:  # S(a) alpha b (x) c, then xi on the first leg
        pairs = H.contract(theta, (0,), right=(H.alpha,), split=2)
        out = pairs.apply_maps([(0, xi)]).as_element()
    require(centralizes(A, out), PostconditionError,
            "central_from_theta output fails at [{}]")
    return out


@memoized
def trace_forms(H: QuasiHopfStructure, rep: Representation
                ) -> Tuple[LinearMap, LinearMap]:
    """The supertrace forms  xi(a) = Str(u S^{-1}(alpha) a)  and
    xibar(a) = Str(u^{-1} S(beta) a), rank-0 maps like the counit;
    invariant resp. pseudo-invariant."""
    H.require_r()
    if H.antipode_inv is None:
        raise AntipodeNotInvertibleError("trace forms need an invertible antipode")
    A = H.algebra
    u, uinv = u_operator(H), u_inverse(H)
    pre = u * H.s_inv(H.alpha)
    pre_bar = uinv * H.s(H.beta)
    xi = linear_form(A, [rep.supertrace_of(pre * A.basis_element(i))
                         for i in range(A.dim)], name=f"trace:{rep.name}")
    xibar = linear_form(A, [rep.supertrace_of(pre_bar * A.basis_element(i))
                            for i in range(A.dim)], name=f"trace-bar:{rep.name}")
    if not is_invariant_form(H, xi):
        raise PostconditionError("the supertrace form is not invariant")
    if not is_pseudo_invariant_form(H, xibar):
        raise PostconditionError("the mirror supertrace form is not pseudo-invariant")
    return xi, xibar


def rtr_power(H: QuasiHopfStructure, m: int) -> TensorElement:
    """(R^T R)^m; negative powers use the inverse R-matrix."""
    H.require_r()
    base = H.r.swap() * H.r if m >= 0 else H.r_inv * H.r_inv.swap()
    return _power(base, abs(m), operator.mul, H.unit_tensor(2))


@memoized
def _thetas(H: QuasiHopfStructure, m: int) -> Tuple[TensorElement, TensorElement]:
    """theta = phi^{-1} (omega (x) 1) phi and thetabar = phi (1 (x) omega) phi^{-1}
    for omega = (R^T R)^m."""
    omega, legs3 = rtr_power(H, m), H.legs(3)
    return (H.phi_inv * omega.embed((0, 1), legs3) * H.phi,
            H.phi * omega.embed((1, 2), legs3) * H.phi_inv)


def casimir_Cm(H: QuasiHopfStructure, rep: Representation, m: int
               ) -> Tuple[AlgebraElement, AlgebraElement]:
    """The trace-type central element family from omega = (R^T R)^m:
    C_m from theta and Cbar_m from thetabar (``_thetas``), paired with the
    supertrace forms of the representation."""
    theta, theta_bar = _thetas(H, m)
    xi, xibar = trace_forms(H, rep)
    return (central_from_theta(H, theta, xi),
            central_from_theta(H, theta_bar, xibar, mirror=True))


def casimir_from_omega_rep(H: QuasiHopfStructure, rep: Representation,
                           omega_rep: TensorElement,
                           mirror: bool = False) -> AlgebraElement:
    """Central element from a represented rank-2 tensor: one leg symbolic,
    one leg a matrix over the carrier.

    Forward: omega_rep in A (x) End(V) commuting with (1 (x) pi)(coproduct);
    C = sum Str(u S^{-1}(alpha) B_i beta S(c_i)) a_i over
    theta = phi^{-1}(omega (x) 1)phi with the middle leg represented.
    Mirror: omega_rep in End(V) (x) A commuting with (pi (x) 1)(coproduct);
    the construction runs through phi (1 (x) omega) phi^{-1}."""
    H.require_r()
    if H.antipode_inv is None:
        raise AntipodeNotInvertibleError("trace constructions need the inverse antipode")
    A = H.algebra
    end, rho = rep.matrix_algebra(), rep.leg_map()
    rep_leg_index = 1 if not mirror else 0
    expected = (A, end) if not mirror else (end, A)
    if omega_rep.legs != expected:
        raise NotInvariantError("represented omega has the wrong leg layout")

    require(centralizes(A, omega_rep, lambda a: apply_rep_on_leg(
        H.delta(a), rep_leg_index, rep), _closed(H)),
        NotInvariantError, "intertwining condition fails at {}")

    # theta lives on (A, End(V), A); every factor multiplied in below is even
    legs3 = (A, end, A)
    if not mirror:  # a (x) B (x) c  ->  a Str(u S^{-1}(alpha) B beta S(c))
        theta = apply_rep_on_leg(H.phi_inv, 1, rep) \
            * omega_rep.embed((0, 1), legs3) \
            * apply_rep_on_leg(H.phi, 1, rep)
        t = theta.apply_maps([(2, H.antipode)]).apply_maps([(2, rho)])
        t = TensorElement.of(A.unit(), rho(u_operator(H) * H.s_inv(H.alpha)),
                             rho(H.beta)) * t
        out = t.merge(1, 2).apply_maps([(1, rep.supertrace_map())]).as_element()
    else:  # a (x) B (x) c  ->  Str(u^{-1} S(beta) S(a) alpha B) c
        theta = apply_rep_on_leg(H.phi, 1, rep) \
            * omega_rep.embed((1, 2), legs3) \
            * apply_rep_on_leg(H.phi_inv, 1, rep)
        t = theta.apply_maps([(0, H.antipode)]).apply_maps([(0, rho)])
        t = TensorElement.of(rho(u_inverse(H) * H.s(H.beta)), end.unit(), A.unit()) \
            * t * TensorElement.of(rho(H.alpha), end.unit(), A.unit())
        out = t.merge(0, 1).apply_maps([(0, rep.supertrace_map())]).as_element()
    require(centralizes(A, out), PostconditionError,
            "represented casimir fails centrality at [{}]")
    return out


class CasimirCheck(AxiomCheck):
    """One central-element comparison: ``value`` is the element built in the
    structure, ``witness`` the exact failure (a difference or a message)."""

    def __init__(self, name: str, value: AlgebraElement, agreement: bool = True,
                 twist_invariant: Optional[bool] = None, witness: Any = None):
        super().__init__(name, agreement and twist_invariant is not False, witness)
        self.value, self.agreement, self.twist_invariant = value, agreement, twist_invariant

    @property
    def name(self) -> str:
        return self.axiom

    def as_dict(self) -> dict:
        return {"name": self.name, "element": self.value.to_dict(),
                "central": True,  # every construction checks centrality
                "agreement": self.agreement, "twist_invariant": self.twist_invariant,
                **({"witness": str(self.witness)} if self.witness is not None else {})}


class CasimirReport(AxiomReport):
    def __init__(self, subject: str, twistor: Optional[str] = None):
        super().__init__(subject)
        self.twistor = twistor

    def as_dict(self) -> dict:
        return {**super().as_dict(), "twistor": self.twistor}

    def summary(self) -> str:
        lines = [f"twist-invariance: {'PASS' if self.passed else 'FAIL'}"]
        lines += [f"  [{'ok  ' if c.passed else 'FAIL'}] {c.name}" for c in self.checks]
        return "\n".join(lines)


def verify_twist_invariance(H: QuasiHopfStructure, F: Twistor,
                            powers: Sequence[int] = (-1, 0, 1, 2),
                            reps: Optional[Dict[str, Representation]] = None
                            ) -> CasimirReport:
    """Recompute every central-element construction inside the twisted
    structure and assert exact equality with the untwisted values:

    * C1 from each even invariant (transported by the twistor),
    * C2 from each even pseudo-invariant,
    * the u-operator,
    * C_m and Cbar_m for the configured powers and representations.

    Any inequality is recorded with the exact difference element."""
    HF = twist_structure(H, F)
    report = CasimirReport(subject=H.name or "structure", twistor=F.name)

    def compare(name: str, base: AlgebraElement, twisted: AlgebraElement) -> None:
        same = twisted == base
        report.add(CasimirCheck(name, base, twist_invariant=same,
                                witness=None if same else twisted - base))

    for label, space, build, transport, failure in (
            ("C1[inv:{}]", invariant_subspace, build_C1, twisted_c1,
             "transported invariant fails invariance"),
            ("C2[pinv:{}]", pseudo_invariant_subspace, build_C2, twisted_c2,
             "transported pseudo-invariant fails its invariance")):
        for t, c in enumerate(space(H).even):
            base = build(H, c)
            try:  # build checks the transported element's invariance
                twisted = build(HF, transport(H, F, c))
            except NotInvariantError:
                report.add(CasimirCheck(label.format(t), base, agreement=False,
                                        witness=failure))
                continue
            compare(label.format(t), base, twisted)

    if H.r is not None:
        compare("u", u_operator(H), u_operator(HF))
        for rep_name in sorted(reps or ()):
            rep = reps[rep_name]
            for m in powers:
                pairs = zip(casimir_Cm(H, rep, m), casimir_Cm(HF, rep, m))
                for name, (base, twisted) in zip(("Cm", "Cmbar"), pairs):
                    compare(f"{name}[m={m},rep={rep_name}]", base, twisted)
    return report
