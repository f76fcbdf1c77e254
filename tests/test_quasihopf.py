import pytest

from qhopf.catalog import grassmann_r_candidate, load_builtin
from qhopf.errors import NoRMatrixError, StructureValidationError
from qhopf.graded import LinearMap, TensorElement
from qhopf.invariants import solve_canonical_elements
from qhopf.quasihopf import (
    reindex,
    verify_antipode_axioms,
    verify_quasi_bialgebra,
    verify_quasi_ybe,
    verify_quasitriangular,
    verify_structure,
)
from qhopf.scalars import QQ
from qhopf.twisting import invert_tensor

ENTRIES = ["z2-group", "z2-cocycle", "sweedler-h4", "grassmann-theta",
           "sweedler-twisted"]


@pytest.mark.parametrize("name", ENTRIES)
def test_axiom_suite(name):
    H = load_builtin(name).structure
    assert verify_quasi_bialgebra(H).passed
    assert verify_antipode_axioms(H).passed
    if H.r is not None:
        assert verify_quasitriangular(H).passed
        assert verify_quasi_ybe(H).passed


def test_hopf_pentagon_reduces_to_triviality(e1):
    report = verify_quasi_bialgebra(e1.structure)
    assert report.find("pentagon").passed


def test_trivial_r_on_cocommutative(e1):
    H = e1.structure
    unit2 = H.unit_tensor(2)
    trivial = H.with_data(r=unit2, r_inv=unit2)
    assert verify_quasitriangular(trivial).passed
    assert verify_quasi_ybe(trivial).passed


def test_genuinely_quasi(e2, e5):
    for entry in (e2, e5):
        H = entry.structure
        assert H.phi != H.unit_tensor(3)
        off_identity = [k for k in H.phi.coeffs
                        if k != next(iter(H.unit_tensor(3).coeffs))]
        assert off_identity
        assert verify_structure(H).passed


def test_pentagon_mutation_detected(e2):
    H = e2.structure
    key = sorted(H.phi.coeffs)[-1]
    bad = dict(H.phi.coeffs)
    bad[key] = -bad[key]
    mutated = H.with_data(phi=TensorElement(H.phi.legs, bad))
    report = verify_quasi_bialgebra(mutated)
    assert not report.passed
    pentagon = report.find("pentagon")
    invertible = report.find("coassociator-invertible")
    assert not pentagon.passed or not invertible.passed
    failing = pentagon if not pentagon.passed else invertible
    assert failing.witness is not None and not failing.witness.is_zero()


def test_corrupted_r_fails_qybe(e3):
    H = e3.structure
    key = sorted(H.r.coeffs)[-1]
    bad = dict(H.r.coeffs)
    bad[key] = -bad[key]
    mutated = H.with_data(r=TensorElement(H.r.legs, bad))
    ok_qtri = verify_quasitriangular(mutated).passed
    ok_qybe = verify_quasi_ybe(mutated).passed
    assert not (ok_qtri and ok_qybe)


def test_no_r_matrix_error(e2):
    with pytest.raises(NoRMatrixError):
        verify_quasitriangular(e2.structure)


def test_phi_counit_consequences(e2, e5):
    # a verified coassociator satisfies the counit identity on every leg
    for entry in (e2, e5):
        H = entry.structure
        unit2 = H.unit_tensor(2)
        for leg in range(3):
            assert H.phi.apply_maps([(leg, H.counit)]) == unit2


def test_qybe_follows_from_the_other_axioms(e1, e3, e4, e5):
    for entry in (e1, e3, e4, e5):
        H = entry.structure
        assert verify_quasitriangular(H).passed
        assert verify_quasi_ybe(H).passed


def test_hexagons_on_grassmann_r_family(e4):
    """The hexagon residuals of R(c) = 1 + c.theta (x) theta are quadratic
    polynomials in c; they vanish at three sample points, hence identically:
    every c is admissible."""
    H = e4.structure
    for c in (0, 1, -1, 2, 5):
        r = grassmann_r_candidate(H, c)
        candidate = H.with_data(r=r, r_inv=invert_tensor(r))
        assert verify_quasitriangular(candidate).passed
        assert verify_quasi_ybe(candidate).passed


def test_grassmann_hexagon_residual_is_identically_zero(e4):
    H = e4.structure

    def residuals(c):
        r = grassmann_r_candidate(H, c)
        lhs1 = r.apply_maps([(0, H.coproduct)])
        rhs1 = reindex(H.phi_inv, "231") * r.embed((0, 2), H.legs(3)) \
            * reindex(H.phi, "132") * r.embed((1, 2), H.legs(3)) * H.phi_inv
        lhs2 = r.apply_maps([(1, H.coproduct)])
        rhs2 = reindex(H.phi, "312") * r.embed((0, 2), H.legs(3)) \
            * reindex(H.phi_inv, "213") * r.embed((0, 1), H.legs(3)) * H.phi
        return lhs1 - rhs1, lhs2 - rhs2

    r0, s0 = residuals(0)
    r1, s1 = residuals(1)
    r2, s2 = residuals(2)
    for quad in ((r0, r1, r2), (s0, s1, s2)):
        at0, at1, at2 = quad
        # fit A + B c + D c^2 through the three samples
        d_coef = (at2 - at1.scale(2) + at0).scale(
            H.algebra.field.from_rational(QQ(1, 2)))
        b_coef = at1 - at0 - d_coef
        assert at0.is_zero() and b_coef.is_zero() and d_coef.is_zero()


def test_antipode_on_r_leg_matches_hand_expansion(e3):
    """Applying the antipode on the second leg of R equals the term-by-term
    sum of e_i (x) S(e^i)."""
    H = e3.structure
    A = H.algebra
    applied = H.r.apply_maps([(1, H.antipode)])
    expected = TensorElement((A, A), {})
    for (i, j), c in H.r.coeffs.items():
        expected = expected + TensorElement.of(
            A.basis_element(i), H.s_basis(j)).scale(c)
    assert applied == expected


def test_solve_canonical_elements_examples(e1, e2, e3):
    pairs1 = solve_canonical_elements(e1.structure)
    unit = e1.structure.algebra.unit()
    assert any(a == unit and b == unit for a, b in pairs1)

    pairs2 = solve_canonical_elements(e2.structure)
    assert pairs2
    g = e2.structure.algebra.basis_element(e2.structure.algebra.index_of("g"))
    for alpha, beta in pairs2:
        assert verify_antipode_axioms(
            e2.structure.with_data(alpha=alpha, beta=beta)).passed
        assert alpha * beta == g  # forced by the coassociator axioms

    pairs3 = solve_canonical_elements(e3.structure)
    unit3 = e3.structure.algebra.unit()
    assert any(a == unit3 and b == unit3 for a, b in pairs3)


def _flip_linear_map(m, basis_idx, key):
    images = list(m.images)
    coeffs = dict(images[basis_idx].coeffs)
    coeffs[key] = -coeffs[key]
    images[basis_idx] = TensorElement(images[basis_idx].legs, coeffs)
    return LinearMap(m.source, m.target_legs, images, name=m.name)


def test_mutation_sensitivity_every_datum(e2):
    """Flipping any single nonzero structure datum of the cocycle entry is
    caught: either construction-time validation or some verifier fails."""
    H = e2.structure
    A = H.algebra
    broken = 0

    def check(mutated):
        report = verify_structure(mutated)
        assert not report.passed
        return 1

    for tensor_name in ("phi", "phi_inv"):
        t = getattr(H, tensor_name)
        for key in sorted(t.coeffs):
            bad = dict(t.coeffs)
            bad[key] = -bad[key]
            broken += check(H.with_data(**{tensor_name: TensorElement(t.legs, bad)}))
    for el_name in ("alpha", "beta"):
        el = getattr(H, el_name)
        for idx in sorted(el.coeffs):
            bad = dict(el.coeffs)
            bad[idx] = -bad[idx]
            from qhopf.graded import AlgebraElement
            broken += check(H.with_data(**{el_name: AlgebraElement(A, bad)}))
    for map_name in ("coproduct", "counit", "antipode"):
        m = getattr(H, map_name)
        for i in range(A.dim):
            for key in sorted(m.images[i].coeffs):
                mutated_map = _flip_linear_map(m, i, key)
                kwargs = {map_name: mutated_map}
                broken += check(H.with_data(**kwargs))
    # structure-constant flips are rejected at construction time instead
    from qhopf.graded import AlgebraElement as El
    from qhopf.graded import GradedAlgebra
    table = {(a, b): A.mul_basis(a, b) for a in range(A.dim) for b in range(A.dim)}
    for (i, j), prods in sorted(table.items()):
        for k in sorted(prods):
            entries = {(a, b, c): s for (a, b), out in table.items()
                       for c, s in out.items()}
            entries[(i, j, k)] = -entries[(i, j, k)]
            try:
                A2 = GradedAlgebra(A.basis, entries, A.field)
            except StructureValidationError:
                broken += 1
                continue
            # still a valid algebra (e.g. g^2 = -1): the verifier must object
            rebound = _rebind(H, A2)
            assert not verify_structure(rebound).passed
            broken += 1
    assert broken >= 20


def _rebind(H, A2):
    """Copy a structure's coefficient data onto another algebra with the
    same basis shape."""
    def tensor(t):
        return TensorElement((A2,) * t.rank, dict(t.coeffs))

    def linmap(m):
        images = [TensorElement((A2,) * img.rank, dict(img.coeffs))
                  for img in m.images]
        return LinearMap(A2, (A2,) * m.target_rank, images, name=m.name)

    from qhopf.graded import AlgebraElement
    from qhopf.quasihopf import QuasiHopfStructure
    return QuasiHopfStructure(
        algebra=A2, coproduct=linmap(H.coproduct), counit=linmap(H.counit),
        antipode=linmap(H.antipode), phi=tensor(H.phi), phi_inv=tensor(H.phi_inv),
        alpha=AlgebraElement(A2, dict(H.alpha.coeffs)),
        beta=AlgebraElement(A2, dict(H.beta.coeffs)),
        r=None if H.r is None else tensor(H.r),
        r_inv=None if H.r_inv is None else tensor(H.r_inv),
        name=H.name + ":mutated")


def test_with_data_derives_the_inverse_of_its_own_antipode(e3):
    """S^{-1} is derived from the antipode of the copy, never carried over:
    on sweedler-h4, S^3 differs from S, so the old S^{-1} would not invert it."""
    H = e3.structure
    A = H.algebra
    s3 = LinearMap(A, (A,), [TensorElement.of(H.s(H.s(H.s(A.basis_element(i)))))
                             for i in range(A.dim)], name="antipode^3")
    assert s3 != H.antipode
    copy = H.with_data(antipode=s3)
    for i in range(A.dim):
        e = A.basis_element(i)
        assert copy.antipode_inv(s3(e)) == e
        assert s3(copy.antipode_inv(e)) == e
    assert any(H.antipode_inv(s3(A.basis_element(i))) != A.basis_element(i)
               for i in range(A.dim))


def test_the_inverse_antipode_is_not_a_constructor_argument(e3):
    H = e3.structure
    with pytest.raises(TypeError):
        H.with_data(antipode_inv=H.antipode_inv)


def test_equality_compares_the_data_not_the_name(e3):
    H = e3.structure
    assert H.with_data(name="other") == H
    assert H.with_data(r=H.r.scale(-1), r_inv=H.r_inv.scale(-1)) != H
    with pytest.raises(TypeError):
        hash(H)


@pytest.mark.parametrize("name", ["coproduct", "counit", "antipode"])
def test_construction_refuses_a_structure_map_that_sends_th_to_an_even_image(e4, name):
    """The grading of the structure maps is checked when the structure is
    made, as the product table's is: th is odd, the image of 1 is even."""
    H = e4.structure
    A = H.algebra
    m = getattr(H, name)
    images = list(m.images)
    images[A.index_of("th")] = images[A.index_of("1")]
    with pytest.raises(StructureValidationError) as err:
        H.with_data(**{name: LinearMap(A, m.target_legs, images, name=name)})
    assert str(err.value) == f"grading violation in the {name} of th"


@pytest.mark.parametrize("mutate, verifier, axiom, witness", [
    (lambda H, one, th: {"phi": H.phi + TensorElement.of(th, one, one)},
     verify_quasi_bialgebra, "coassociator-even", "1*[th(x)1(x)1]"),
    (lambda H, one, th: {"r": H.r + TensorElement.of(th, one)},
     verify_quasitriangular, "r-even", "1*[th(x)1]"),
    (lambda H, one, th: {"alpha": one + th},
     verify_antipode_axioms, "canonical-even", "1*th"),
    (lambda H, one, th: {"beta": one + one},
     verify_antipode_axioms, "counit-canonical", "1"),
], ids=["phi", "r", "alpha", "beta"])
def test_an_evenness_or_counit_check_has_the_nonzero_difference_as_its_witness(
        e4, mutate, verifier, axiom, witness):
    """An evenness check is a zero test of the odd parts, so its witness is
    the first nonzero odd part; counit-canonical's is eps(alpha) eps(beta) - 1."""
    H = e4.structure
    A = H.algebra
    mutated = H.with_data(**mutate(H, A.unit(), A.basis_element(A.index_of("th"))))
    [check] = [c for c in verifier(mutated).checks if c.axiom == axiom]
    assert not check.passed
    assert str(check.witness) == witness
