"""Sparse exact elimination and the inverse solved on the product closure."""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qhopf
from qhopf.linalg import nullspace, rows_of, rref, solve_affine
from qhopf.scalars import FieldDescriptor
from qhopf.structfile import load_entry
from qhopf.twisting import invert_tensor

DATA = Path(qhopf.__file__).parent / "data"
Q = FieldDescriptor.rationals()
C3 = FieldDescriptor.cyclotomic(3)
FIELDS = st.sampled_from([Q, C3])
relaxed = settings(deadline=None)  # timings on a shared machine vary


def entries(field):
    """Small scalars, zero included; a + b z over cyclotomic(3)."""
    small = st.integers(-2, 2)
    if field == Q:
        return small.map(field.from_int)
    return st.tuples(small, small).map(
        lambda ab: field.from_int(ab[0]) + field.generator() * ab[1])


@st.composite
def systems(draw):
    field = draw(FIELDS)
    cols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.dictionaries(st.integers(0, cols - 1), entries(field),
                                         max_size=cols), max_size=7))
    return field, rows, cols


def dot(row, vec, field):
    acc = field.zero()
    for k, c in row.items():
        acc = acc + c * vec[k]
    return acc


def rank(rows, field):
    """Rank through the transpose, which is eliminated as a separate system:
    rank(A) = #rows - dim of the left kernel."""
    return len(rows) - len(nullspace(rows_of(rows), len(rows), field))


@relaxed
@given(systems())
def test_kernel_annihilates_every_row_and_has_size_cols_minus_rank(system):
    field, rows, cols = system
    kernel = nullspace(rows, cols, field)
    assert all(dot(row, v, field).is_zero() for row in rows for v in kernel)
    assert len(kernel) == cols - rank(rows, field)
    # echelon basis: each vector ends in its own free column, so they are independent
    last = [max(k for k, x in enumerate(v) if not x.is_zero()) for v in kernel]
    assert len(set(last)) == len(kernel)


@relaxed
@given(systems(), st.randoms(use_true_random=False))
def test_shuffled_or_duplicated_rows_give_identical_output(system, rnd):
    field, rows, cols = system
    shuffled = rows[:]
    rnd.shuffle(shuffled)
    duplicated = rows + [dict(r) for r in rows if rnd.random() < 0.5]
    rnd.shuffle(duplicated)
    base = rref(rows, cols)
    for variant in (shuffled, duplicated):
        assert rref(variant, cols) == base
        assert nullspace(variant, cols, field) == nullspace(rows, cols, field)


@relaxed
@given(systems(), st.data())
def test_particular_solution_solves_or_rhs_is_outside_the_span(system, data):
    field, rows, cols = system
    rhs = data.draw(st.lists(entries(field), min_size=len(rows), max_size=len(rows)))
    particular, kernel = solve_affine(
        [{**row, cols: b} for row, b in zip(rows, rhs)], cols, field)
    assert kernel == nullspace(rows, cols, field)
    # b is outside the column span iff some y with y A = 0 has y b != 0
    left = nullspace(rows_of(rows), len(rows), field)
    outside = any(not dot(dict(enumerate(y)), rhs, field).is_zero() for y in left)
    assert (particular is None) == outside
    if particular is not None:
        assert all(dot(row, particular, field) == b for row, b in zip(rows, rhs))


@relaxed
@given(systems())
def test_rank_agrees_with_sympy_over_the_rationals(system):
    sympy = pytest.importorskip("sympy")
    field, rows, cols = system
    if field != Q or not rows:
        return
    dense = sympy.Matrix([[sympy.Rational(str(row.get(k, field.zero())))
                           for k in range(cols)] for row in rows])
    assert len(rref(rows, cols)[1]) == dense.rank()


def test_explicit_zeros_are_ignored():
    one, zero = Q.one(), Q.zero()
    red, pivots = rref([{0: zero, 1: one}, {0: zero}], 2)
    assert pivots == [1] and red == [{1: one}]


def test_closure_inverse_matches_the_golden_small_uqsl2_r_inverse():
    H = load_entry(str(DATA / "small-uqsl2.qh")).structure
    assert invert_tensor(H.r) == H.r_inv
    assert invert_tensor(H.r_inv) == H.r
