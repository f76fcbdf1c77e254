"""The payload kernels of graded.py and linalg.py against term-by-term Scalar
arithmetic (tests/reference.py) over the rationals, cyclotomic(3), (5) and
(12) and Q(q), on Grassmann, Sweedler and End(V) legs; the field's payload
table and the share of memoised cyclotomic products; the table-level
associativity check; and sparse powers of q."""

import itertools
import json
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qhopf
import qhopf.scalars as scalars
from qhopf.catalog import make_algebra
from qhopf.cli import main
from qhopf.graded import AlgebraElement, LinearMap, MatrixSpaceAlgebra, TensorElement
from qhopf.linalg import rref
from qhopf.scalars import QQ, FieldDescriptor
from qhopf.structfile import load_entry
from reference import (dense_rref, element_product, graded_product, linear_image,
                       mapped, merged)

DATA = Path(qhopf.__file__).parent / "data"
FIELDS = (FieldDescriptor.rationals(), FieldDescriptor.cyclotomic(3),
          FieldDescriptor.cyclotomic(5), FieldDescriptor.cyclotomic(12),
          FieldDescriptor.rational_functions("q"))
GRASSMANN = {("1", "1"): {"1": 1}, ("1", "th"): {"th": 1}, ("th", "1"): {"th": 1},
             ("th", "th"): {}}
SWEEDLER = {
    ("1", "1"): {"1": 1}, ("1", "g"): {"g": 1}, ("1", "x"): {"x": 1},
    ("1", "gx"): {"gx": 1},
    ("g", "1"): {"g": 1}, ("g", "g"): {"1": 1}, ("g", "x"): {"gx": 1},
    ("g", "gx"): {"x": 1},
    ("x", "1"): {"x": 1}, ("x", "g"): {"gx": -1}, ("x", "x"): {}, ("x", "gx"): {},
    ("gx", "1"): {"gx": 1}, ("gx", "g"): {"x": -1}, ("gx", "x"): {}, ("gx", "gx"): {},
}
KERNEL = settings(max_examples=40, deadline=None)


@lru_cache(maxsize=None)
def algebras(field):
    """Grassmann (odd theta), Sweedler (signed constants) and End(V) for an
    odd-even carrier (odd matrix units) over one field."""
    return (make_algebra(["1", "th"], [0, 1], "1", GRASSMANN, field=field),
            make_algebra(["1", "g", "x", "gx"], [0, 0, 0, 0], "1", SWEEDLER, field=field),
            MatrixSpaceAlgebra((0, 1), field))


def scalar(field):
    """Small nonzero-or-zero scalars, often exactly 1 or -1."""
    ints = st.integers(-3, 3).map(field.from_int)
    rationals = st.fractions(-3, 3, max_denominator=4).map(
        lambda c: field.from_rational(QQ(c.numerator, c.denominator)))
    if field.kind == "rationals":
        general = rationals
    elif field.kind == "cyclotomic":  # c_0 + c_1 z + ... + c_k z^k, k < phi(n)
        z, phi = field.generator(), len(field.modulus) - 1
        general = st.lists(rationals, min_size=1, max_size=phi).map(
            lambda cs: sum((c * z ** k for k, c in enumerate(cs)), field.zero()))
    else:  # (a + b q) / (c q + 1)
        q = field.generator()
        general = st.tuples(ints, ints, ints).map(lambda t: (t[0] + t[1] * q) / (t[2] * q + 1))
    return st.one_of(st.just(field.one()), st.just(-field.one()), general)


def tensor(data, field, legs, parity=None, size=6):
    """A sparse tensor on the legs; with ``parity`` only keys of that parity."""
    keys = st.tuples(*(st.integers(0, leg.dim - 1) for leg in legs))
    if parity is not None:
        keys = keys.filter(lambda k: sum(l.parity[i] for l, i in zip(legs, k)) % 2 == parity)
    coeffs = data.draw(st.dictionaries(keys, scalar(field), max_size=size))
    return TensorElement(legs, coeffs)


def even_map(data, field, source, target_legs):
    """A random parity-preserving map from source into the target legs."""
    return LinearMap(source, target_legs, [
        tensor(data, field, target_legs, source.parity[i], 3) for i in range(source.dim)])


def canonical(coeffs, field):
    return all(type(c) is scalars.Scalar and c.field == field and not c.is_zero()
               for c in coeffs.values())


fields = st.sampled_from(FIELDS)


@KERNEL
@given(fields, st.data())
def test_tensor_product_matches_term_by_term_signs(field, data):
    legs = tuple(data.draw(st.lists(st.sampled_from(algebras(field)), min_size=1, max_size=3)))
    x, y = tensor(data, field, legs), tensor(data, field, legs)
    product = x * y
    assert product.coeffs == graded_product(x, y)
    assert canonical(product.coeffs, field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_koszul_signs_on_every_pair_of_basis_keys(field):
    """Single-term products, so no sign can cancel in a sum."""
    grassmann, _, end = algebras(field)
    legs = (grassmann, end, grassmann)
    keys = list(itertools.product(*(range(leg.dim) for leg in legs)))
    c, d = field.from_int(2), -field.one()
    signs = set()
    for kx, ky in itertools.product(keys, repeat=2):
        x, y = TensorElement(legs, {kx: c}), TensorElement(legs, {ky: d})
        product = (x * y).coeffs
        assert product == graded_product(x, y)
        signs |= {v == -c * d for v in product.values()}
    assert signs == {False, True}


@KERNEL
@given(fields, st.data())
def test_element_product_matches(field, data):
    A = data.draw(st.sampled_from(algebras(field)))
    x, y = (tensor(data, field, (A,)).as_element() for _ in range(2))
    product = x * y
    assert isinstance(product, AlgebraElement)
    assert product.coeffs == element_product(x, y)
    assert canonical(product.coeffs, field)


@KERNEL
@given(fields, st.data())
def test_merge_matches(field, data):
    A = data.draw(st.sampled_from(algebras(field)))
    legs = data.draw(st.lists(st.sampled_from(algebras(field)), max_size=2))
    i = data.draw(st.integers(0, len(legs)))
    legs = tuple(legs[:i]) + (A, A) + tuple(legs[i:])
    t = tensor(data, field, legs)
    assert t.merge(i, i + 1).coeffs == merged(t, i)
    assert canonical(t.merge(i, i + 1).coeffs, field)


@KERNEL
@given(fields, st.data())
def test_apply_maps_matches(field, data):
    legs = tuple(data.draw(st.lists(st.sampled_from(algebras(field)), min_size=1, max_size=3)))
    leg = data.draw(st.integers(0, len(legs) - 1))
    A = legs[leg]
    m = even_map(data, field, A, data.draw(st.sampled_from([(A,), (A, A)])))
    t = tensor(data, field, legs)
    out = t.apply_maps([(leg, m)])
    assert out.coeffs == mapped(t, leg, m)
    assert canonical(out.coeffs, field)


@KERNEL
@given(fields, st.data())
def test_linear_map_call_matches(field, data):
    A = data.draw(st.sampled_from(algebras(field)))
    target = data.draw(st.sampled_from([(A,), (A, A)]))
    m = even_map(data, field, A, target)
    x = tensor(data, field, (A,)).as_element()
    image = m(x)
    expected = linear_image(m, x)
    if len(target) == 1:
        assert image.coeffs == {k[0]: c for k, c in expected.items()}
    else:
        assert image.coeffs == expected
    assert canonical(image.coeffs, field)


@KERNEL
@given(fields, st.data())
def test_rref_matches_dense_gauss_jordan(field, data):
    cols = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(st.dictionaries(st.integers(0, cols - 1), scalar(field),
                                              max_size=cols), max_size=5))
    reduced, pivots = rref(rows, cols)
    dense, dense_pivots = dense_rref(rows, cols, field)
    assert pivots == dense_pivots
    assert [[row.get(j, field.zero()) for j in range(cols)] for row in reduced] == dense
    assert all(canonical(row, field) for row in reduced)


# -- the payload table ---------------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_a_unit_factor_is_passed_through(field):
    ops = field.ops
    assert field.ops is ops  # one table per descriptor
    v = (field.from_int(2) + (field.generator() if field.generator_name else 0)).value
    assert ops.mul(ops.one, v) is v and ops.mul(v, ops.one) is v
    assert ops.inv(ops.one) is ops.one
    assert ops.is_zero(field.zero().value) and not ops.is_zero(v)
    assert ops.add(v, ops.neg(v)) == field.zero().value


def test_basis_products_of_uqsl2_multiply_no_payloads(monkeypatch):
    """Basis coefficients and most structure constants are 1: products of
    basis elements pass them through without a cyclotomic multiply."""
    A = load_entry(str(DATA / "small-uqsl2.qh")).structure.algebra
    calls = []
    original = scalars._cmul
    monkeypatch.setattr(scalars, "_cmul", lambda a, b, n: calls.append(1) or original(a, b, n))
    K, E = A.basis_element(A.index_of("K")), A.basis_element(A.index_of("E"))
    assert (K * E).coeffs and (E * K).coeffs
    assert calls == []
    assert (TensorElement.of(K, E) * TensorElement.of(E, K)).coeffs
    assert calls == []


def test_verify_of_uqsl2_answers_most_products_from_the_memo(capsys):
    scalars._cmul.cache_clear()
    assert main(["verify", str(DATA / "small-uqsl2.qh"), "--checks", "all", "--json"]) == 0
    capsys.readouterr()
    info = scalars._cmul.cache_info()
    assert info.hits >= 0.9 * (info.hits + info.misses)


@pytest.mark.parametrize("k", [1, 2, 3, 17, 1000])
def test_powers_of_q_parse_to_the_monomial_payload(k):
    RQ = FieldDescriptor.rational_functions("q")
    assert RQ.parse(f"q^{k}").value == ((0,) * k + (1,), (1,))
    assert RQ.parse(f"q^-{k}").value == ((1,), (0,) * k + (1,))


# -- associativity from the table ----------------------------------------------------


@pytest.mark.parametrize("name, entry, label", [
    ("sweedler-h4", ["x", "x", "1", "1"], "(g, x, x)"),  # x is a generator
    ("sweedler-h4", ["gx", "gx", "1", "1"], "(g, x, gx)"),  # neither factor is
    ("small-uqsl2", None, "(K, K, K^2)"),  # K^2 K^2 = 2 K over cyclotomic(3)
])
def test_a_broken_table_exits_2_naming_the_triple(tmp_path, capsys, name, entry, label):
    doc = json.loads((DATA / f"{name}.qh").read_text())
    if entry is None:  # double the constant of the product K^2 * K^2
        i = next(i for i, e in enumerate(doc["mul"]) if e[:2] == ["K^2", "K^2"])
        doc["mul"][i][3] = f"2*({doc['mul'][i][3]})"
    else:
        doc["mul"].append(entry)
    path = tmp_path / f"{name}-nonassociative.qh"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--checks", "all", "--json"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [f"error: associativity fails at {label}"]
