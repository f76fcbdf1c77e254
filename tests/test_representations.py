import pytest

from qhopf.catalog import BUILTIN_NAMES, load_builtin
from qhopf.errors import StructureValidationError
from qhopf.graded import TensorElement
from qhopf.representations import (
    Representation,
    apply_rep_on_leg,
    regular_representation,
    supertrace,
)


def test_regular_representation_valid(e1, e3):
    for entry in (e1, e3):
        A = entry.structure.algebra
        reg = regular_representation(A)  # validates on construction
        assert reg.dim == A.dim


def test_corrupted_matrix_rejected(e3):
    A = e3.structure.algebra
    reg = e3.representations["regular"]
    matrices = [[row[:] for row in m] for m in reg.matrices]
    matrices[1][0][0] = matrices[1][0][0] + A.field.one()
    with pytest.raises(StructureValidationError):
        Representation(A, reg.carrier_parity, matrices)


def test_grading_violation_rejected(e4):
    A = e4.structure.algebra
    one, zero = A.field.one(), A.field.zero()
    # theta is odd, so its matrix may not have an even-to-even entry
    matrices = [[[one, zero], [zero, one]],
                [[one, zero], [zero, zero]]]
    with pytest.raises(StructureValidationError):
        Representation(A, (0, 1), matrices)


def test_trivial_rep_collapses_like_counit(e2):
    H = e2.structure
    triv = e2.representations["trivial"]
    end = triv.matrix_algebra()
    collapsed = apply_rep_on_leg(H.phi, 1, triv)
    # a 1-dim trivial leg carries exactly the counit values
    expected = H.phi.apply_maps([(1, H.counit)])
    assert {(k[0], k[2]): v for k, v in collapsed.coeffs.items()} == \
        dict(expected.coeffs)


def test_rep_on_leg_entrywise(e1):
    H = e1.structure
    reg = e1.representations["regular"]
    mixed = apply_rep_on_leg(H.r, 1, reg)
    # cross-check every entry against the matrix of the original leg
    d = reg.dim
    A = H.algebra
    expected = {}
    for (i, j), c in H.r.coeffs.items():
        m = reg.matrices[j]
        for p in range(d):
            for q in range(d):
                if not m[p][q].is_zero():
                    key = (i, p * d + q)
                    expected[key] = expected.get(key, A.field.zero()) + c * m[p][q]
    assert mixed.coeffs == {k: v for k, v in expected.items() if not v.is_zero()}


def test_rep_on_unit_tensor(e1):
    H = e1.structure
    reg = e1.representations["regular"]
    mixed = apply_rep_on_leg(H.unit_tensor(2), 1, reg)
    end = reg.matrix_algebra()
    assert mixed == TensorElement.unit((H.algebra, end))


def test_supertrace_linearity(e4):
    reg = e4.representations["regular"]
    H = e4.structure
    A = H.algebra
    x, y = A.basis_element(0), A.basis_element(1)
    lhs = reg.supertrace_of(x + y.scale(3))
    assert lhs == reg.supertrace_of(x) + A.field.from_int(3) * reg.supertrace_of(y)


def test_supertrace_of_matches_the_list_matrix_supertrace():
    """The End-leg path (leg map, then Str on End(V)) against the trace of
    matrix_of, on every basis element and one element using them all."""
    for name in BUILTIN_NAMES:
        entry = load_builtin(name)
        A = entry.structure.algebra
        mixed = A.zero()
        for i in range(A.dim):
            mixed = mixed + A.basis_element(i).scale(i + 2)
        for rep in entry.representations.values():
            for x in [A.basis_element(i) for i in range(A.dim)] + [mixed]:
                assert rep.supertrace_of(x) == supertrace(rep.matrix_of(x), rep.carrier_parity)


def test_a_grading_violation_names_the_basis_element(e4):
    A = e4.structure.algebra
    one, zero = A.field.one(), A.field.zero()
    matrices = [[[one, zero], [zero, one]],
                [[one, zero], [zero, zero]]]
    with pytest.raises(StructureValidationError) as err:
        Representation(A, (0, 1), matrices)
    assert str(err.value) == "grading violation in the matrix of th"
