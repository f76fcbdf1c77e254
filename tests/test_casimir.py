import pytest

from qhopf.catalog import BUILTIN_NAMES, load_builtin
from qhopf.casimir import (
    _thetas,
    build_C1,
    build_C2,
    casimir_Cm,
    casimir_from_omega_rep,
    central_from_theta,
    identity_suite,
    quadratic_invariants,
    rtr_power,
    trace_forms,
    twisted_c1,
    twisted_c2,
    u_inverse,
    u_operator,
    verify_twist_invariance,
)
from qhopf.errors import (
    AntipodeNotInvertibleError,
    NoRMatrixError,
    NotInvariantError,
    OddElementError,
    PostconditionError,
)
from qhopf.graded import TensorElement, linear_form
from qhopf.invariants import (
    invariant_subspace,
    is_central,
    is_invariant_element,
    is_pseudo_invariant_element,
    pseudo_invariant_subspace,
)
from qhopf.representations import apply_rep_on_leg, supertrace
from qhopf.scalars import QQ
from qhopf.twisting import check_twisted_canonical_identities, twist_structure, validate_twistor


def el(H, label):
    return H.algebra.basis_element(H.algebra.index_of(label))


def values(H, xi):
    """The values of a rank-0 map on the basis."""
    return [xi(H.algebra.basis_element(i)) for i in range(H.algebra.dim)]


# -- C1 / C2 ----------------------------------------------------------------


def test_c1_c2_collapse_on_canonical_elements(e1, e2, e3, e4, e5):
    # c1 = beta gives C1 = 1; c2 = alpha gives C2 = 1 (coassociator axioms)
    for entry in (e1, e2, e3, e4, e5):
        H = entry.structure
        assert build_C1(H, H.beta) == H.algebra.unit()
        assert build_C2(H, H.alpha) == H.algebra.unit()


def test_c1_equals_input_in_hopf_case(e1, e3):
    # trivial coassociator and alpha = beta = 1: the formula collapses
    for entry in (e1, e3):
        H = entry.structure
        for c1 in invariant_subspace(H).even:
            assert build_C1(H, c1) == c1


def test_central_element_contracts_on_all_entries(e1, e2, e3, e4, e5):
    for entry in (e1, e2, e3, e4, e5):
        H = entry.structure
        for c1 in invariant_subspace(H).even:
            C1 = build_C1(H, c1)  # internal postconditions: central, agreement
            assert C1 * H.beta == c1 and H.beta * C1 == c1
            assert is_central(H, C1)[0]
        for c2 in pseudo_invariant_subspace(H).even:
            C2 = build_C2(H, c2)
            assert C2 * H.alpha == c2 and H.alpha * C2 == c2
            assert is_central(H, C2)[0]


def test_c1_rejects_bad_inputs(e3, e4):
    H = e3.structure
    with pytest.raises(NotInvariantError):
        build_C1(H, el(H, "x"))  # x is not adjoint-invariant
    H4 = e4.structure
    with pytest.raises(OddElementError):
        build_C1(H4, el(H4, "th"))


# -- quadratic invariants ------------------------------------------------------


@pytest.mark.parametrize("build, name", [(build_C1, "C1"), (build_C2, "C2")])
def test_a_non_central_c1_c2_fails_the_postcondition(e3, monkeypatch, build, name):
    """Both coassociator sandwiches return the non-central x, so the two
    expressions agree and only the centrality postcondition can reject it."""
    import qhopf.casimir as casimir
    H = e3.structure.with_data()
    x = el(H, "x")
    monkeypatch.setattr(casimir, "_phi_sandwich_inv", lambda *args: x)
    monkeypatch.setattr(casimir, "_phi_sandwich", lambda *args: x)
    with pytest.raises(PostconditionError, match=rf"^{name} is not central: \[g\] fails$"):
        build(H, H.beta if name == "C1" else H.alpha)


def _doubled(monkeypatch, module, name):
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: original(*args).scale(2))


@pytest.mark.parametrize("build, name", [(build_C1, "C1"), (build_C2, "C2")])
def test_disagreeing_sandwiches_fail_the_postcondition(e3, monkeypatch, build, name):
    import qhopf.casimir as casimir
    H = e3.structure
    _doubled(monkeypatch, casimir, "_phi_sandwich")
    with pytest.raises(PostconditionError, match=rf"^the two {name} expressions disagree$"):
        build(H, H.beta if name == "C1" else H.alpha)


@pytest.mark.parametrize("build, message", [(build_C1, "C1 beta does not recover c1"),
                                            (build_C2, "C2 alpha does not recover c2")])
def test_a_central_element_that_misses_its_source_fails_the_postcondition(
        e3, monkeypatch, build, message):
    """Both sandwiches doubled: they agree on 2, which is central, but on
    sweedler-h4 (alpha = beta = 1) 2 beta = 2 alpha = 2 is not the source 1."""
    import qhopf.casimir as casimir
    H = e3.structure
    _doubled(monkeypatch, casimir, "_phi_sandwich")
    _doubled(monkeypatch, casimir, "_phi_sandwich_inv")
    with pytest.raises(PostconditionError, match=rf"^{message}$"):
        build(H, H.beta if build is build_C1 else H.alpha)


def test_a_u_inverse_that_misses_u_fails_the_postcondition(e1, monkeypatch):
    """A doubled alpha R^{-1} sum doubles u^{-1}, which is still fixed by S^2."""
    import qhopf.casimir as casimir
    H = e1.structure.with_data()  # an empty memo
    _doubled(monkeypatch, casimir, "_alpha_rinv")
    with pytest.raises(PostconditionError, match=r"^u inverse does not invert u$"):
        u_inverse(H)


def test_a_non_invariant_supertrace_form_fails_the_postcondition(e3, monkeypatch):
    """Adding 1 to every supertrace adds the form that is 1 on every basis
    element, which is not invariant on sweedler-h4."""
    from qhopf.representations import Representation
    original = Representation.supertrace_of
    monkeypatch.setattr(Representation, "supertrace_of",
                        lambda self, x: original(self, x) + 1)
    H = e3.structure.with_data()  # an empty memo
    with pytest.raises(PostconditionError, match=r"^the supertrace form is not invariant$"):
        trace_forms(H, e3.representations["regular"])


def _tensor_premises_pass(monkeypatch):
    """casimir.centralizes passes every tensor premise (it checks the unit
    tensor instead) and still checks elements, i.e. the postconditions."""
    import qhopf.casimir as casimir
    real = casimir.centralizes
    monkeypatch.setattr(casimir, "centralizes", lambda A, t, *args, **kw: real(
        A, TensorElement.unit(t.legs) if isinstance(t, TensorElement) else t,
        *args, **kw))


@pytest.mark.parametrize("mirror", [False, True])
def test_a_non_central_theta_output_fails_the_postcondition(e3, monkeypatch, mirror):
    # theta = x (x) 1 (x) 1 (or 1 (x) 1 (x) x) contracts to x against the counit
    H = e3.structure.with_data()
    x, one = el(H, "x"), H.algebra.unit()
    theta = TensorElement.of(one, one, x) if mirror else TensorElement.of(x, one, one)
    _tensor_premises_pass(monkeypatch)
    with pytest.raises(PostconditionError,
                       match=r"^central_from_theta output fails at \[g\]$"):
        central_from_theta(H, theta, H.counit, mirror=mirror)


@pytest.mark.parametrize("mirror", [False, True])
def test_a_non_central_represented_casimir_fails_the_postcondition(e3, monkeypatch,
                                                                    mirror):
    # x (x) 1 on the trivial representation gives a nonzero multiple of x
    H = e3.structure.with_data()
    triv, x, one = e3.representations["trivial"], el(H, "x"), H.algebra.unit()
    omega = TensorElement.of(one, x) if mirror else TensorElement.of(x, one)
    omega_rep = apply_rep_on_leg(omega, 0 if mirror else 1, triv)
    _tensor_premises_pass(monkeypatch)
    with pytest.raises(PostconditionError,
                       match=r"^represented casimir fails centrality at \[g\]$"):
        casimir_from_omega_rep(H, triv, omega_rep, mirror=mirror)


def test_quadratic_with_identity_omega(e1, e2, e3, e4, e5):
    for entry in (e1, e2, e3, e4, e5):
        H = entry.structure
        c1, c2 = quadratic_invariants(H, H.unit_tensor(2))
        assert c1 == H.beta and c2 == H.alpha


def test_quadratic_with_rtr(e1, e5):
    H1 = e1.structure
    omega = H1.r.swap() * H1.r
    assert omega == H1.unit_tensor(2)  # triangular
    c1, c2 = quadratic_invariants(H1, omega)
    assert c1 == H1.beta

    H5 = e5.structure
    omega5 = H5.r.swap() * H5.r
    c1, c2 = quadratic_invariants(H5, omega5)  # checks run internally
    assert is_invariant_element(H5, c1)
    assert is_pseudo_invariant_element(H5, c2)
    assert build_C1(H5, c1) is not None


def test_quadratic_rejects_noncommuting(e3):
    H = e3.structure
    from qhopf.catalog import tensor_from
    omega = H.unit_tensor(2) + tensor_from(H.algebra, [("g", "1", 1)])
    with pytest.raises(NotInvariantError):
        quadratic_invariants(H, omega)


# -- the u-operator ---------------------------------------------------------------


def test_u_values_frozen(e1, e3, e4, e5):
    # derived by expanding the defining sum term by term
    assert u_operator(e1.structure) == el(e1.structure, "g")
    assert u_operator(e3.structure) == el(e3.structure, "g")
    assert u_operator(e4.structure) == e4.structure.algebra.unit()
    assert u_operator(e5.structure) == el(e5.structure, "g")


def test_u_conjugation_and_inverse(e1, e3, e4, e5):
    for entry in (e1, e3, e4, e5):
        H = entry.structure
        u = u_operator(H)
        uinv = u_inverse(H)
        one = H.algebra.unit()
        assert u * uinv == one and uinv * u == one
        for i in range(H.algebra.dim):
            a = H.algebra.basis_element(i)
            assert H.s(H.s(a)) == u * a * uinv
        assert H.s(H.s(u)) == u
        usu = u * H.s(u)
        assert usu == H.s(u) * u
        assert is_central(H, usu)[0]


def test_u_requires_r(e2):
    with pytest.raises(NoRMatrixError):
        u_operator(e2.structure)


def test_su_sbeta_frozen_on_z2(e1):
    H = e1.structure
    u = u_operator(H)
    rhs = H.algebra.zero()
    for (i, j), c in H.r.coeffs.items():
        rhs = rhs + (H.algebra.basis_element(i) * H.beta * H.s_basis(j)).scale(c)
    assert rhs == el(H, "g")
    assert H.s(u) * H.s(H.beta) == rhs


# -- identity suite ----------------------------------------------------------------


def test_identity_suite_all_entries(e1, e2, e3, e4, e5):
    for entry in (e1, e2, e3, e4, e5):
        assert identity_suite(entry.structure).passed


def test_identity_suite_with_twistor(e1, e3, e5):
    for entry, name in ((e1, "pminus"), (e3, "Ft"), (e5, "untwist")):
        report = identity_suite(entry.structure)
        report.extend(check_twisted_canonical_identities(
            entry.structure, entry.twistors[name]))
        assert report.passed


# -- trace forms and the C_m families -------------------------------------------------


def test_trace_form_values_on_z2(e1):
    H = e1.structure
    xi, xibar = trace_forms(H, e1.representations["regular"])
    # xi(a) = Tr(pi(g a)): values (0, 2) on the basis (1, g)
    assert [str(v) for v in values(H, xi)] == ["0", "2"]
    assert [str(v) for v in values(H, xibar)] == ["0", "2"]


def test_trace_form_is_counit_for_trivial_rep(e1, e3):
    for entry in (e1, e3):
        H = entry.structure
        xi, _ = trace_forms(H, entry.representations["trivial"])
        assert values(H, xi) == values(H, H.counit)


def test_supertrace_values(e1, e4):
    H4 = e4.structure
    reg4 = e4.representations["regular"]
    ident = reg4.matrix_of(H4.algebra.unit())
    assert supertrace(ident, reg4.carrier_parity).is_zero()  # (1|1) carrier

    H1 = e1.structure
    reg1 = e1.representations["regular"]
    assert str(supertrace(reg1.matrix_of(H1.algebra.unit()),
                          reg1.carrier_parity)) == "2"
    assert supertrace(reg1.matrix_of(el(H1, "g")), reg1.carrier_parity).is_zero()


def test_supertrace_graded_cyclicity(e1, e4):
    for entry in (e1, e4):
        H = entry.structure
        reg = entry.representations["regular"]
        A = H.algebra
        for i in range(A.dim):
            for j in range(A.dim):
                ab = reg.supertrace_of(A.basis_element(i) * A.basis_element(j))
                ba = reg.supertrace_of(A.basis_element(j) * A.basis_element(i))
                if A.parity[i] * A.parity[j] % 2:
                    ba = -ba
                assert ab == ba


def test_central_from_theta_examples(e1):
    H = e1.structure
    eps = H.counit
    C = central_from_theta(H, H.unit_tensor(3), eps)
    assert C == H.algebra.unit().scale(eps(H.beta))

    # theta = phi^{-1} (omega (x) 1) phi with omega = R^T R = 1 (x) 1
    omega = rtr_power(H, 1)
    theta = H.phi_inv * omega.embed((0, 1), H.legs(3)) * H.phi
    assert theta == H.unit_tensor(3)
    xi, _ = trace_forms(H, e1.representations["regular"])
    C2 = central_from_theta(H, theta, xi)
    assert C2.is_zero()  # Tr(pi(g)) = 0


@pytest.mark.parametrize("mirror", [False, True])
def test_central_from_theta_rejects_an_odd_form(e4, mirror):
    """A form nonzero on the odd th does not preserve parity, so it is
    rejected before theta is contracted, even though theta = 1 (x) 1 (x) 1
    centralises the iterated coproduct."""
    H = e4.structure
    A = H.algebra
    odd = linear_form(A, [A.field.zero() if A.parity[i] == 0 else A.field.one()
                          for i in range(A.dim)])
    assert odd(el(H, "th")) == A.field.one()
    with pytest.raises(NotInvariantError, match="odd values"):
        central_from_theta(H, H.unit_tensor(3), odd, mirror=mirror)
    # the counit, nonzero only on the even part, passes the same gate
    assert central_from_theta(H, H.unit_tensor(3), H.counit, mirror=mirror) \
        == A.unit().scale(H.eps(H.beta if not mirror else H.alpha))


def test_cm_values_on_z2(e1):
    H = e1.structure
    for m in (-1, 0, 1, 2):
        cm, cmbar = casimir_Cm(H, e1.representations["regular"], m)
        assert cm.is_zero() and cmbar.is_zero()
        cm_t, cmbar_t = casimir_Cm(H, e1.representations["trivial"], m)
        assert cm_t == H.algebra.unit() and cmbar_t == H.algebra.unit()


def test_cm_central_on_all_r_entries(e1, e3, e4, e5):
    for entry in (e1, e3, e4, e5):
        H = entry.structure
        for rep_name, rep in entry.representations.items():
            cm, cmbar = casimir_Cm(H, rep, 1)
            assert is_central(H, cm)[0] and is_central(H, cmbar)[0]


def classical_hopf_cm(H, rep, m):
    """Independent classical construction for trivial coassociator and
    alpha = beta = 1:  u = sum (-1)^{[e_i]} S(e^i) e_i  and
    C = sum_{(i,j)} w_ij  Str(pi(u b_j)) b_i  over omega = (R^T R)^m."""
    A = H.algebra
    u_cl = A.zero()
    for (i, j), c in H.r.coeffs.items():
        term = (H.s_basis(j) * A.basis_element(i)).scale(c)
        if A.parity[i] % 2:
            term = -term
        u_cl = u_cl + term
    omega = rtr_power(H, m)
    out = A.zero()
    for (i, j), w in omega.coeffs.items():
        value = rep.supertrace_of(u_cl * A.basis_element(j))
        out = out + A.basis_element(i).scale(w * value)
    return out


def test_hopf_reduction_matches_classical_formula(e1, e3):
    for entry in (e1, e3):
        H = entry.structure
        assert H.phi == H.unit_tensor(3)
        assert H.alpha == H.algebra.unit() and H.beta == H.algebra.unit()
        for rep_name, rep in entry.representations.items():
            for m in (0, 1, 2):
                cm, _ = casimir_Cm(H, rep, m)
                assert cm == classical_hopf_cm(H, rep, m)


def cartan_twistor(H):
    """F = sum f(a, b) 1_a (x) 1_b over the idempotents 1_a = (1/3) sum_k z^(-ak) K^k
    of small-uqsl2, with f(1, 1) = 2, f(2, 1) = 3, f(1, 2) = 5 and f = 1 elsewhere.
    It is counital with F^-1 = sum f^-1 1_a (x) 1_b, and not a 2-cocycle, so
    the twisted coassociator is not trivial."""
    A = H.algebra
    z_inv, third = A.field.generator().inv(), A.field.from_rational(QQ(1, 3))
    ones = [A.element({"1": third, "K": third * z_inv ** a, "K^2": third * z_inv ** (2 * a)})
            for a in range(3)]
    f = {(1, 1): 2, (2, 1): 3, (1, 2): 5}

    def tensor(value):
        return sum((TensorElement.of(ones[a], ones[b]).scale(value(f.get((a, b), 1)))
                    for a in range(3) for b in range(3)), TensorElement((A, A), {}))
    return validate_twistor(tensor(lambda v: v), H,
                            tensor(lambda v: A.field.from_rational(QQ(1, v))), "cartan")


def test_theta_puts_the_inverse_coassociator_first():
    """theta = phi^-1 (omega (x) 1) phi, not phi (omega (x) 1) phi^-1, and the
    mirror the other way round.  Twisting by F gives omega_F = F omega F^-1,
    and omega commutes with the coproduct, so theta_F = G theta G^-1 with
    G = (1 (x) F)(1 (x) coproduct)(F), and thetabar_F = G' thetabar G'^-1 with
    G' = (F (x) 1)(coproduct (x) 1)(F).  small-uqsl2 has phi = 1, so theta and
    thetabar are read off omega; its twist by a Cartan twistor has phi_F != 1."""
    H = load_builtin("small-uqsl2").structure
    assert H.phi == H.unit_tensor(3)
    F = cartan_twistor(H)
    HF, legs3 = twist_structure(H, F), H.legs(3)
    assert HF.phi != HF.unit_tensor(3)
    omega = rtr_power(H, 1)
    g, g_inv, gbar, gbar_inv = (
        F.f.embed((1, 2), legs3) * F.f.apply_maps([(1, H.coproduct)]),
        F.f_inv.apply_maps([(1, H.coproduct)]) * F.f_inv.embed((1, 2), legs3),
        F.f.embed((0, 1), legs3) * F.f.apply_maps([(0, H.coproduct)]),
        F.f_inv.apply_maps([(0, H.coproduct)]) * F.f_inv.embed((0, 1), legs3))
    theta, theta_bar = _thetas(HF, 1)
    assert theta == g * omega.embed((0, 1), legs3) * g_inv
    assert theta_bar == gbar * omega.embed((1, 2), legs3) * gbar_inv
    omega_f = rtr_power(HF, 1)  # the other order gives other tensors
    assert theta != HF.phi * omega_f.embed((0, 1), legs3) * HF.phi_inv
    assert theta_bar != HF.phi_inv * omega_f.embed((1, 2), legs3) * HF.phi


# -- represented omega --------------------------------------------------------------


def test_omega_rep_consistency(e1, e3):
    for entry in (e1, e3):
        H = entry.structure
        reg = entry.representations["regular"]
        omega = rtr_power(H, 1)
        omega_rep = apply_rep_on_leg(omega, 1, reg)
        C = casimir_from_omega_rep(H, reg, omega_rep)
        assert C == casimir_Cm(H, reg, 1)[0]
        omega_rep_l = apply_rep_on_leg(omega, 0, reg)
        Cbar = casimir_from_omega_rep(H, reg, omega_rep_l, mirror=True)
        assert Cbar == casimir_Cm(H, reg, 1)[1]


def test_omega_rep_unit_collapse(e1):
    H = e1.structure
    reg = e1.representations["regular"]
    omega_rep = apply_rep_on_leg(H.unit_tensor(2), 1, reg)
    C = casimir_from_omega_rep(H, reg, omega_rep)
    assert C == casimir_Cm(H, reg, 0)[0]


def test_omega_rep_rejects_bad_intertwiner(e3):
    H = e3.structure
    reg = e3.representations["regular"]
    from qhopf.catalog import tensor_from
    bad = apply_rep_on_leg(tensor_from(H.algebra, [("g", "1", 1)]), 1, reg)
    with pytest.raises(NotInvariantError):
        casimir_from_omega_rep(H, reg, bad)


# -- twist invariance ----------------------------------------------------------------


def test_twist_invariance_identity_twistor(e1):
    from qhopf.twisting import identity_twistor
    H = e1.structure
    report = verify_twist_invariance(H, identity_twistor(H), powers=(0, 1),
                                     reps=e1.representations)
    assert report.passed


def test_twist_invariance_full(e1, e3, e4):
    for entry, twistor_name in ((e1, "pminus"), (e3, "Ft"), (e4, "theta-pair")):
        H = entry.structure
        report = verify_twist_invariance(H, entry.twistors[twistor_name],
                                         powers=(-1, 0, 1, 2),
                                         reps=entry.representations)
        assert report.passed, [c.name for c in report.failures()]
        assert any(c.name == "u" for c in report.checks)


def test_twist_invariance_every_catalog_pair(e1, e2, e3, e4, e5):
    """The full sweep over every (entry, twistor) pair in the core catalog."""
    for entry in (e1, e2, e3, e4, e5):
        for F in entry.twistors.values():
            report = verify_twist_invariance(entry.structure, F,
                                             powers=(-1, 0, 1, 2),
                                             reps=entry.representations)
            assert report.passed, (entry.name, F.name,
                                   [c.name for c in report.failures()])


def test_center_invariants_relation(e1, e2, e3, e5):
    """For Hopf entries (trivial coassociator, alpha = beta = 1) the even
    invariants are exactly the central elements; for the quasi entries the
    relation runs through C1 and beta: z central gives the invariant
    z beta with build_C1(z beta) = z."""
    from qhopf.invariants import center
    for entry in (e1, e3):
        H = entry.structure
        for v in invariant_subspace(H).even:
            assert is_central(H, v)[0]
        for z in center(H).even:
            assert is_invariant_element(H, z)
    for entry in (e2, e5):
        H = entry.structure
        for z in center(H).even:
            c = z * H.beta
            assert is_invariant_element(H, c)
            assert build_C1(H, c) == z


def test_twisted_invariants_transport(e3):
    """The twistor transport of an invariant is invariant for the twisted
    structure, and the central elements agree exactly."""
    from qhopf.twisting import twist_structure
    H = e3.structure
    F = e3.twistors["Ft"]
    HF = twist_structure(H, F)
    for c1 in invariant_subspace(H).even:
        c1f = twisted_c1(H, F, c1)
        assert is_invariant_element(HF, c1f)
        assert build_C1(HF, c1f) == build_C1(H, c1)
    for c2 in pseudo_invariant_subspace(H).even:
        c2f = twisted_c2(H, F, c2)
        assert is_pseudo_invariant_element(HF, c2f)
        assert build_C2(HF, c2f) == build_C2(H, c2)


# -- one derivation per power ----------------------------------------------------


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_rtr_power_is_the_repeated_product(name):
    H = load_builtin(name).structure
    if H.r is None:
        pytest.skip("no R-matrix")
    unit2 = H.unit_tensor(2)
    for sign, base in ((1, H.r.swap() * H.r), (-1, H.r_inv * H.r_inv.swap())):
        expected = unit2
        for k in range(4):  # m = sign * k runs over -3..3
            assert rtr_power(H, sign * k) == expected, sign * k
            expected = expected * base
    assert rtr_power(H, 1) * rtr_power(H, -1) == unit2


def test_twist_invariance_derives_omega_once_per_structure_and_power(e3, monkeypatch):
    import qhopf.casimir as casimir
    calls = []
    real = casimir.rtr_power
    monkeypatch.setattr(casimir, "rtr_power",
                        lambda H, m: calls.append((id(H), m)) or real(H, m))
    H = e3.structure.with_data()
    assert len(e3.representations) == 2
    report = verify_twist_invariance(H, e3.twistors["Ft"], powers=(-1, 0, 1, 2),
                                     reps=e3.representations)
    assert report.passed
    assert len(calls) == len(set(calls)) == 8
    assert {id(H), id(twist_structure(H, e3.twistors["Ft"]))} == {h for h, _ in calls}


def test_a_transported_element_that_fails_invariance_is_recorded(e3, monkeypatch):
    """build_C1/build_C2 check the transported element once; their
    NotInvariantError becomes a failed check with the fixed witness text."""
    import qhopf.casimir as casimir
    H = e3.structure.with_data()
    g = el(H, "g")  # even, neither invariant nor pseudo-invariant
    monkeypatch.setattr(casimir, "twisted_c1", lambda H, F, c: g)
    monkeypatch.setattr(casimir, "twisted_c2", lambda H, F, c: g)
    report = verify_twist_invariance(H, e3.twistors["Ft"], powers=(),
                                     reps=e3.representations)
    failed = {c.name: c.witness for c in report.failures()}
    assert failed == {
        **{f"C1[inv:{t}]": "transported invariant fails invariance"
           for t in range(len(invariant_subspace(H).even))},
        **{f"C2[pinv:{t}]": "transported pseudo-invariant fails its invariance"
           for t in range(len(pseudo_invariant_subspace(H).even))}}
    assert all(c.agreement is False for c in report.failures())


def test_the_twist_comparisons_are_axiom_checks_in_an_axiom_report(e3):
    from qhopf.report import AxiomCheck, AxiomReport
    H = e3.structure
    report = verify_twist_invariance(H, e3.twistors["Ft"], powers=(0,),
                                     reps=e3.representations)
    assert isinstance(report, AxiomReport)
    assert report.checks and all(isinstance(c, AxiomCheck) for c in report.checks)
    u = report.find("u")
    assert u is next(c for c in report.checks if c.name == "u")
    assert u.passed and u.value == u_operator(H)


# -- a singular antipode ---------------------------------------------------------


def test_a_singular_antipode_raises_one_exception(e1):
    """The zero map as antipode: every use of S^{-1} raises
    AntipodeNotInvertibleError, and the identity suite skips the one check
    that needs it."""
    from qhopf.graded import LinearMap
    H = e1.structure
    A = H.algebra
    zero = LinearMap(A, (A,), [TensorElement((A,), {})] * A.dim, name="antipode")
    singular = H.with_data(antipode=zero)
    assert singular.antipode_inv is None
    with pytest.raises(AntipodeNotInvertibleError, match="^the antipode is not invertible$"):
        singular.s_inv(A.unit())
    with pytest.raises(AntipodeNotInvertibleError):
        u_inverse(singular)
    with pytest.raises(AntipodeNotInvertibleError):
        trace_forms(singular, e1.representations["regular"])
    report = identity_suite(singular)
    assert report.checks and report.find("u-alpha-rinv") is None
