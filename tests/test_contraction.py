"""The word-contraction helper, the exchange-identity table, and the
per-structure memo of derived data."""

import dataclasses

import pytest

from qhopf.casimir import (
    identity_suite,
    trace_forms,
    u_inverse,
    u_operator,
    verify_twist_invariance,
)
from qhopf.graded import TensorElement
from qhopf.invariants import adjoint_action, anti_adjoint_action
from qhopf.twisting import twist_structure

EXCHANGE = ("exchange-phi-beta", "exchange-phi-alpha", "exchange-phiinv-alpha",
            "exchange-phiinv-beta")


def sweep_actions(H):
    """Adjoint actions written term by term with their printed signs:
    Ad a.b = sum a_(1) b S(a_(2)) (-1)^{[b][a_(2)]} and
    Ad' a.b = sum S(a_(1)) b a_(2) (-1)^{[b][a_(1)]}, for homogeneous b."""
    A = H.algebra
    for i in range(A.dim):
        for j in range(A.dim):
            a, b = A.basis_element(i), A.basis_element(j)
            ad, anti = A.zero(), A.zero()
            for (k1, k2), d in H.delta(a).coeffs.items():
                e1, e2 = A.basis_element(k1), A.basis_element(k2)
                t = (e1 * b * H.s(e2)).scale(d)
                ad = ad + (-t if A.parity[j] * A.parity[k2] else t)
                t = (H.s(e1) * b * e2).scale(d)
                anti = anti + (-t if A.parity[j] * A.parity[k1] else t)
            yield a, b, ad, anti


def test_actions_match_term_by_term_signs(e3, e4):
    for entry in (e3, e4):  # e4 has the odd theta: the sign matters
        H = entry.structure
        for a, b, ad, anti in sweep_actions(H):
            assert adjoint_action(H, a, b) == ad
            assert anti_adjoint_action(H, a, b) == anti


def test_contract_on_odd_legs_uses_koszul_sign(e4):
    H = e4.structure
    A = H.algebra
    th, one = A.basis_element(A.index_of("th")), A.unit()
    th_th = TensorElement.of(th, th)
    # (th (x) 1)(1 (x) th) = th (x) th, but (1 (x) th)(th (x) 1) = -th (x) th
    assert H.contract(TensorElement.of(th, one), right=(None, th), split=1) == th_th
    assert H.contract(TensorElement.of(th, one), left=(None, th), split=1) \
        == th_th.scale(-1)
    # S(th) = -th is applied first: -(1 (x) th)(th (x) 1) = th (x) th
    assert H.contract(TensorElement.of(one, th), (1,), right=(th,), split=1) \
        == th_th


def perturbed(entry, which):
    H = entry.structure.with_data(r=None, r_inv=None)
    A = H.algebra
    g = A.basis_element(A.index_of("g"))
    return H.with_data(**{which: getattr(H, which) + g})


@pytest.mark.parametrize("which,failing", [
    ("beta", {"exchange-phi-beta", "exchange-phiinv-beta"}),
    ("alpha", {"exchange-phi-alpha", "exchange-phiinv-alpha"}),
])
def test_exchange_identities_fail_on_perturbed_canonical_elements(e5, which, failing):
    report = identity_suite(perturbed(e5, which))
    assert [c.axiom for c in report.checks] == list(EXCHANGE)
    for check in report.checks:
        if check.axiom in failing:
            assert not check.passed
            assert check.element == "x"
            assert check.witness.rank == 2 and not check.witness.is_zero()
        else:
            assert check.passed


def test_derived_data_is_memoised(e1, e3):
    for entry in (e1, e3):
        H = entry.structure
        assert u_operator(H) is u_operator(H)
        assert u_inverse(H) is u_inverse(H)
        rep = entry.representations["regular"]
        assert trace_forms(H, rep) is trace_forms(H, rep)


def test_structure_fields_are_read_only(e3):
    H = e3.structure
    with pytest.raises(dataclasses.FrozenInstanceError):
        H.alpha = H.beta
    with pytest.raises(AttributeError):
        H.r = None


def test_with_data_copy_computes_its_own_values(e3):
    H = e3.structure
    rep = e3.representations["regular"]
    copy = H.with_data(name="copy")
    assert u_operator(copy) is not u_operator(H)
    assert u_operator(copy) == u_operator(H)
    assert trace_forms(copy, rep) is not trace_forms(H, rep)
    assert trace_forms(copy, rep) == trace_forms(H, rep)


def test_invariance_report_carries_the_twisted_structure(e3):
    H, F = e3.structure, e3.twistors["Ft"]
    report = verify_twist_invariance(H, F, powers=(1,), reps=e3.representations)
    assert report.passed
    assert ("u_operator",) in twist_structure(H, F)._derived  # the report ran there
    assert "structure" not in report.as_dict()
