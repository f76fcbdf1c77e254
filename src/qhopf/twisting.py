"""Gauge transformations (twists) of quasi-Hopf structures.

A twistor is an invertible even rank-2 tensor F with the counit property
(eps (x) 1)F = 1 = (1 (x) eps)F.  Twisting replaces

    coproduct_F(a) = F coproduct(a) F^{-1}
    phi_F  = (F (x) 1) (coproduct (x) 1)F . phi . (1 (x) coproduct)F^{-1} (1 (x) F^{-1})
    alpha_F = sum S(fbar_i) alpha fbar^i        (from F^{-1})
    beta_F  = sum f_i beta S(f^i)               (from F)
    r_F  = F^T r F^{-1}

with the antipode unchanged, and produces another quasi-Hopf structure;
the result is always re-verified, which doubles as an engine self-test.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import NotInvertibleError, PostconditionError, StructureValidationError
from .graded import AlgebraElement, LinearMap, TensorElement
from .linalg import rows_of, solve_affine
from .quasihopf import (
    AxiomReport,
    QuasiHopfStructure,
    _all_zero,
    _run,
    memoized,
    require_verified,
)


def invert_tensor(t: TensorElement) -> Optional[TensorElement]:
    """Two-sided inverse of a tensor under the graded product, or None.

    An inverse is a polynomial in t, so it is solved for on the span of the
    keys reached from the unit by repeated left multiplication with t."""
    unit = TensorElement.unit(t.legs)
    one = unit.field.one()
    keys = list(unit.coeffs)
    seen = set(keys)
    columns = []
    while len(columns) < len(keys):
        image = t * TensorElement(t.legs, {keys[len(columns)]: one})
        for k in image.coeffs:
            if k not in seen:
                seen.add(k)
                keys.append(k)
        columns.append(image.coeffs)
    particular, _ = solve_affine(rows_of(columns + [unit.coeffs]), len(keys),
                                 unit.field)
    if particular is None:
        return None
    inv = TensorElement(t.legs, dict(zip(keys, particular)))
    if t * inv != unit:
        return None
    return inv


class Twistor(NamedTuple):  # read-only, as twist_structure memoises per twistor
    f: TensorElement
    f_inv: TensorElement
    name: str = "F"


def validate_twistor(f: TensorElement, H: QuasiHopfStructure,
                     f_inv: Optional[TensorElement] = None,
                     name: str = "F") -> Twistor:
    """Check invertibility (solving for the inverse when not supplied),
    the counit property on both legs, and evenness."""
    if f.rank != 2 or any(leg is not H.algebra for leg in f.legs):
        raise StructureValidationError("a twistor is a rank-2 tensor over A")
    unit2 = H.unit_tensor(2)
    if f_inv is None:
        f_inv = invert_tensor(f)
        if f_inv is None:
            raise NotInvertibleError(f"twistor {name} is not invertible")
    if f * f_inv != unit2:
        raise NotInvertibleError(f"twistor {name}: supplied inverse is wrong")
    one = H.algebra.unit()
    for leg in (0, 1):
        if f.apply_maps([(leg, H.counit)]).as_element() != one:
            raise StructureValidationError(
                f"twistor {name}: counit property fails on leg {leg + 1}")
    if not f.is_even() or not f_inv.is_even():
        raise StructureValidationError(f"twistor {name} must be even")
    return Twistor(f, f_inv, name)


def identity_twistor(H: QuasiHopfStructure, name: str = "identity") -> Twistor:
    unit2 = H.unit_tensor(2)
    return Twistor(unit2, unit2, name)


def twisted_c1(H: QuasiHopfStructure, F: Twistor,
               c1: AlgebraElement) -> AlgebraElement:
    """c1^F = sum f_i c1 S(f^i): an invariant transported to the twisted
    structure, as beta is transported to beta_F."""
    return H.contract(F.f, (1,), right=(c1,))


def twisted_c2(H: QuasiHopfStructure, F: Twistor,
               c2: AlgebraElement) -> AlgebraElement:
    """c2^F = sum S(fbar_i) c2 fbar^i, as alpha is transported to alpha_F."""
    return H.contract(F.f_inv, (0,), right=(c2,))


@memoized
def twist_structure(H: QuasiHopfStructure, F: Twistor) -> QuasiHopfStructure:
    """The twisted quasi-Hopf structure, memoised per structure and twistor
    once it passes verification; PostconditionError names the failed axioms
    otherwise, on every call."""
    A, legs3 = H.algebra, H.legs(3)
    images = [F.f * H.delta(A.basis_element(i)) * F.f_inv for i in range(A.dim)]
    coproduct_f = LinearMap(A, (A, A), images, name="coproduct_F")

    def gauge(x: TensorElement, k: int) -> TensorElement:
        """F on legs (k, k+1), (coproduct on leg k)F, x, then the inverses
        on the mirrored legs: k = 0 gives phi_F, k = 1 with phi^{-1} its inverse."""
        return F.f.embed((k, k + 1), legs3) * F.f.apply_maps([(k, H.coproduct)]) * x \
            * F.f_inv.apply_maps([(1 - k, H.coproduct)]) * F.f_inv.embed((1 - k, 2 - k), legs3)

    r_f = r_f_inv = None
    if H.r is not None:
        r_f = F.f.swap() * H.r * F.f_inv
        r_f_inv = F.f * H.r_inv * F.f_inv.swap()

    twisted = QuasiHopfStructure(
        algebra=A, coproduct=coproduct_f, counit=H.counit, antipode=H.antipode,
        phi=gauge(H.phi, 0), phi_inv=gauge(H.phi_inv, 1),
        alpha=twisted_c2(H, F, H.alpha), beta=twisted_c1(H, F, H.beta),
        r=r_f, r_inv=r_f_inv,
        name=f"{H.name or 'structure'}^{F.name}")
    return require_verified(twisted, "twisted structure", PostconditionError)


def check_twisted_canonical_identities(H: QuasiHopfStructure,
                                       F: Twistor) -> AxiomReport:
    """The canonical elements are recovered from their twisted versions:
    beta = sum fbar_i beta_F S(fbar^i) and alpha = sum S(f_i) alpha_F f^i."""
    report = AxiomReport(f"{H.name or 'structure'}:twisted-canonical")
    alpha_f, beta_f = twisted_c2(H, F, H.alpha), twisted_c1(H, F, H.beta)

    _run(report, "twist-beta-recovery", _all_zero(
        lambda: H.contract(F.f_inv, (1,), right=(beta_f,)) - H.beta))
    _run(report, "twist-alpha-recovery", _all_zero(
        lambda: H.contract(F.f, (0,), right=(alpha_f,)) - H.alpha))
    return report
