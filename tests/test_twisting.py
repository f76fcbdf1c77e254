import pytest

from qhopf.catalog import load_builtin, tensor_from
from qhopf.errors import NotInvertibleError, PostconditionError, StructureValidationError
from qhopf.graded import TensorElement
from qhopf.quasihopf import verify_structure
from qhopf.twisting import (
    check_twisted_canonical_identities,
    identity_twistor,
    invert_tensor,
    twist_structure,
    validate_twistor,
)


def test_identity_twistor_is_self_inverse(e1):
    F = validate_twistor(e1.structure.unit_tensor(2), e1.structure)
    assert F.f == F.f_inv == e1.structure.unit_tensor(2)


def test_nilpotent_twistor_inverse(e3):
    H = e3.structure
    f = H.unit_tensor(2) + tensor_from(H.algebra, [("x", "gx", 1)])
    F = validate_twistor(f, H)  # inverse solved internally
    assert F.f_inv == H.unit_tensor(2) - tensor_from(H.algebra, [("x", "gx", 1)])


def test_counit_violation_rejected(e1):
    H = e1.structure
    g = H.algebra.basis_element(H.algebra.index_of("g"))
    f = TensorElement.of(H.algebra.unit(), g)
    with pytest.raises(StructureValidationError):
        validate_twistor(f, H)


def test_non_invertible_rejected(e3):
    H = e3.structure
    f = tensor_from(H.algebra, [("x", "x", 1)])
    with pytest.raises(NotInvertibleError):
        validate_twistor(f, H)


def test_identity_twist_is_identity(e1, e3, e4):
    for entry in (e1, e3, e4):
        H = entry.structure
        twisted = twist_structure(H, identity_twistor(H))
        assert twisted == H


def test_twist_sweedler_matches_catalog(e3, e5):
    twisted = twist_structure(e3.structure, e3.twistors["Ft"])
    assert twisted == e5.structure
    assert e5.structure.phi != e5.structure.unit_tensor(3)


def test_twist_z2_by_projector(e1):
    H = e1.structure
    twisted = twist_structure(H, e1.twistors["pminus"])
    # commutative and cocommutative: the coproduct is untouched
    for i in range(H.algebra.dim):
        assert twisted.delta(H.basis_element(i)) == H.delta(H.basis_element(i))
    # this projector twist is an honest 2-cocycle: the coassociator stays trivial,
    # but the canonical elements move
    assert twisted.phi == H.unit_tensor(3)
    assert twisted.alpha != H.alpha or twisted.beta != H.beta


@pytest.mark.parametrize("entry_name", ["z2-group", "z2-cocycle", "sweedler-h4",
                                        "grassmann-theta", "sweedler-twisted"])
def test_twist_preserves_all_axioms(entry_name):
    """Every catalog twistor produces a fully verified structure, with the
    R-matrix carried along when present."""
    entry = load_builtin(entry_name)
    for F in entry.twistors.values():
        twisted = twist_structure(entry.structure, F)
        assert verify_structure(twisted).passed


def test_twisting_a_structure_that_fails_verification_raises(e3):
    """Verification of the twisted structure is unconditional: with phi^-1
    emptied, the twist of sweedler-h4 by Ft names the failed axioms."""
    H = e3.structure.with_data(phi_inv=e3.structure.phi_inv.scale(0))
    assert not verify_structure(H).passed
    with pytest.raises(PostconditionError,
                       match="twisted structure failed verification: "
                             ".*coassociator-invertible"):
        twist_structure(H, e3.twistors["Ft"])


def test_untwist_recovers_sweedler(e3, e5):
    back = twist_structure(e5.structure, e5.twistors["untwist"])
    assert back == e3.structure


def test_twisted_canonical_identities(e1, e3, e5):
    assert check_twisted_canonical_identities(
        e1.structure, identity_twistor(e1.structure)).passed
    assert check_twisted_canonical_identities(e1.structure,
                                              e1.twistors["pminus"]).passed
    assert check_twisted_canonical_identities(e3.structure,
                                              e3.twistors["Ft"]).passed
    assert check_twisted_canonical_identities(e5.structure,
                                              e5.twistors["untwist"]).passed


def test_two_step_twist_composition_on_coproduct(e1, e3):
    """Twisting by F then G agrees on the coproduct with the single twist by
    the product G.F (checked at the coproduct level, where it is forced)."""
    for entry, fname in ((e1, "pminus"), (e3, "Ft")):
        H = entry.structure
        F = entry.twistors[fname]
        once = twist_structure(H, F)
        G = validate_twistor(F.f, once, F.f_inv, name="G")  # reuse F on H_F
        twice = twist_structure(once, G)
        composite = validate_twistor(G.f * F.f, H, F.f_inv * G.f_inv,
                                     name="GF")
        direct = twist_structure(H, composite)
        for i in range(H.algebra.dim):
            assert twice.delta(H.basis_element(i)) == direct.delta(H.basis_element(i))


def test_grassmann_even_twistor(e4):
    """theta (x) theta is even, so it is a legitimate twistor leg on the
    super pair; the twisted structure must verify including Koszul signs."""
    H = e4.structure
    F = e4.twistors["theta-pair"]
    twisted = twist_structure(H, F)
    assert verify_structure(twisted).passed


def test_twist_over_rational_function_field():
    """The whole pipeline over Q(q): a twistor with a q-dependent
    coefficient, inverse solved by linear algebra over the function field,
    full verification of the twisted structure, and twist invariance."""
    from qhopf.casimir import u_operator, verify_twist_invariance
    from qhopf.catalog import make_algebra, make_antipode, make_coproduct, make_counit
    from qhopf.quasihopf import QuasiHopfStructure
    from qhopf.representations import regular_representation
    from qhopf.scalars import FieldDescriptor, QQ

    RQ = FieldDescriptor.rational_functions("q")
    prods = {("1", "1"): {"1": 1}, ("1", "g"): {"g": 1},
             ("g", "1"): {"g": 1}, ("g", "g"): {"1": 1}}
    A = make_algebra(["1", "g"], [0, 0], "1", prods, field=RQ)
    half = RQ.from_rational(QQ(1, 2))
    r2 = TensorElement((A, A), {
        (0, 0): half, (0, 1): half, (1, 0): half, (1, 1): -half})
    H = QuasiHopfStructure(
        algebra=A,
        coproduct=make_coproduct(A, {"1": [("1", "1", 1)], "g": [("g", "g", 1)]}),
        counit=make_counit(A, {"1": 1, "g": 1}),
        antipode=make_antipode(A, {"1": {"1": 1}, "g": {"g": 1}}),
        phi=TensorElement.unit((A, A, A)), phi_inv=TensorElement.unit((A, A, A)),
        alpha=A.unit(), beta=A.unit(), r=r2, r_inv=r2, name="z2-over-Qq")
    assert verify_structure(H).passed

    q = RQ.generator()
    pm = A.element({"1": half, "g": -half})
    f = H.unit_tensor(2) + TensorElement.of(pm, pm).scale(q - RQ.one())
    F = validate_twistor(f, H, name="q-projector")  # inverse solved over Q(q)
    expected_inv = H.unit_tensor(2) - TensorElement.of(pm, pm).scale(
        (q - RQ.one()) / q)
    assert F.f_inv == expected_inv

    twisted = twist_structure(H, F)  # eagerly re-verified over Q(q)
    g = A.basis_element(A.index_of("g"))
    assert u_operator(twisted) == u_operator(H) == g
    report = verify_twist_invariance(
        H, F, powers=(-1, 0, 1, 2),
        reps={"regular": regular_representation(A)})
    assert report.passed, [c.name for c in report.failures()]


def test_invert_tensor_round_trip(e3):
    H = e3.structure
    t = H.r
    t_inv = invert_tensor(t)
    assert t * t_inv == H.unit_tensor(2)
    assert t_inv * t == H.unit_tensor(2)
    assert invert_tensor(tensor_from(H.algebra, [("x", "x", 1)])) is None


def test_the_twisted_structure_is_memoised_per_structure_and_twistor(e3):
    H, F = e3.structure, e3.twistors["Ft"]
    assert twist_structure(H, F) is twist_structure(H, F)
    assert twist_structure(H.with_data(), F) is not twist_structure(H, F)


def test_a_twist_that_fails_verification_raises_on_every_call(e3):
    H = e3.structure.with_data(phi_inv=e3.structure.phi_inv.scale(0))
    for _ in range(2):
        with pytest.raises(PostconditionError, match="coassociator-invertible"):
            twist_structure(H, e3.twistors["Ft"])
    assert not any(key[0] == "twist_structure" for key in H._derived)
