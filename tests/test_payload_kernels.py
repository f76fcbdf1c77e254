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
import qhopf.catalog
import qhopf.scalars as scalars
import qhopf.structfile
from qhopf.catalog import make_algebra
from qhopf.cli import main
from qhopf.errors import FieldMismatchError, StructureValidationError
from qhopf.graded import AlgebraElement, LinearMap, MatrixSpaceAlgebra, TensorElement
from qhopf.graded import GradedAlgebra
from qhopf.linalg import rref
from qhopf.scalars import QQ, FieldDescriptor
from qhopf.structfile import load_entry
from reference import (dense_rref, element_coeffs, element_product, embedded,
                       graded_product, linear_image, mapped, merged, tensor_of, tensor_sum)

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
def test_tensor_of_elements_matches(field, data):
    factors = [tensor(data, field, (A,)).as_element() for A in
               data.draw(st.lists(st.sampled_from(algebras(field)), min_size=1, max_size=3))]
    t = TensorElement.of(*factors)
    assert t.legs == tuple(f.algebra for f in factors)
    assert t.coeffs == tensor_of(*factors)
    assert canonical(t.coeffs, field)


@KERNEL
@given(fields, st.data())
def test_embed_matches(field, data):
    legs = tuple(data.draw(st.lists(st.sampled_from(algebras(field)), min_size=1, max_size=4)))
    slots = sorted(data.draw(st.sets(st.integers(0, len(legs) - 1))))
    t = tensor(data, field, tuple(legs[s] for s in slots))
    out = t.embed(slots, legs)
    assert out.coeffs == embedded(t, slots, legs)
    assert canonical(out.coeffs, field)


@KERNEL
@given(fields, st.data())
def test_element_sums_label_and_index_keys(field, data):
    A = data.draw(st.sampled_from(algebras(field)))
    keys = st.one_of(st.integers(0, A.dim - 1), st.sampled_from(A.labels))
    coeffs = data.draw(st.dictionaries(keys, st.one_of(scalar(field), st.integers(-2, 2)),
                                       max_size=6))
    x = A.element(coeffs)
    assert x.coeffs == element_coeffs(A, coeffs)
    assert canonical(x.coeffs, field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_element_drops_a_sum_of_zero_and_refuses_another_field(field):
    A = algebras(field)[1]
    two = field.from_int(2)
    assert A.element({1: two, "g": -two, "x": 0, 3: 1}).coeffs == {3: field.one()}
    assert A.element({"x": two, 2: two}).coeffs == {2: field.from_int(4)}
    other = FieldDescriptor.cyclotomic(7)
    with pytest.raises(FieldMismatchError):
        A.element({"g": other.generator()})


@KERNEL
@given(fields, st.data())
def test_sums_and_differences_match(field, data):
    legs = tuple(data.draw(st.lists(st.sampled_from(algebras(field)), max_size=2)))
    x, y = tensor(data, field, legs), tensor(data, field, legs)
    assert (x + y).coeffs == tensor_sum(x, y)
    assert (x - y).coeffs == tensor_sum(x, y, -1)
    assert canonical((x + y).coeffs, field) and canonical((x - y).coeffs, field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_rank_zero_tensors_add_and_subtract(field):
    """A rank-0 tensor has no leg to take its field from."""
    x, y = TensorElement((), {(): field.from_int(2)}), TensorElement((), {(): field.one()})
    assert (x + y).coeffs == {(): field.from_int(3)}
    assert (x - y).coeffs == {(): field.one()}
    assert (x - x).coeffs == {} and (x + -x).is_zero()
    assert (x + TensorElement((), {})).coeffs == x.coeffs


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


def test_a_later_generator_alone_breaks_associativity():
    """a annihilates every basis element but the unit, so (a x) y = a (x y)
    holds for the first generator a; the second generator b fails, as
    (b b) b = c b = b but b (b b) = b c = 0."""
    labels = ["1", "a", "b", "c"]
    products = {**{("1", x): {x: 1} for x in labels}, **{(x, "1"): {x: 1} for x in labels},
                ("b", "b"): {"c": 1}, ("c", "b"): {"b": 1}}
    with pytest.raises(StructureValidationError) as err:
        make_algebra(labels, [0, 0, 0, 0], "1", products)
    assert str(err.value) == "associativity fails at (b, b, b)"
    del products[("c", "b")]
    assert make_algebra(labels, [0, 0, 0, 0], "1", products).generators() == (1, 2)


# -- one payload product table -------------------------------------------------------


@pytest.mark.parametrize("name", qhopf.catalog.BUILTIN_NAMES)
def test_mul_basis_is_the_scalar_view_of_the_table(name):
    A = qhopf.catalog.load_builtin(name).structure.algebra
    for i, j in itertools.product(range(A.dim), repeat=2):
        row = A.row(i).get(j, ())
        assert A.mul_basis(i, j) == {k: scalars.Scalar(A.field, v) for k, v in row}
        assert [k for k, _ in row] == sorted({k for k, _ in row})  # one term per k
        assert not any(A.field.ops.is_zero(v) for _, v in row)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_matrix_units_multiply_by_the_delta_rule(field):
    M = MatrixSpaceAlgebra((0, 1), field)
    for a, b in itertools.product(range(4), repeat=2):
        (i, j), (k, l) = divmod(a, 2), divmod(b, 2)
        expected = {2 * i + l: field.one()} if j == k else {}
        assert M.mul_basis(a, b) == expected
        assert {k: scalars.Scalar(field, v) for k, v in M.row(a).get(b, ())} == expected


@pytest.mark.parametrize("path", sorted(DATA.glob("*.qh")), ids=lambda p: p.stem)
def test_golden_files_read_back_and_render_unchanged(path):
    """``entry_to_dict`` reads the table through ``mul_basis``; the golden
    files are what scripts/generate_golden.py writes for the builtins."""
    text = path.read_text()
    assert qhopf.structfile.entry_to_dict(load_entry(str(path))) == json.loads(text)
    assert qhopf.structfile.render_entry(qhopf.catalog.load_builtin(path.stem)) == text


def _first_failing_triple(labels, entries):
    """Brute force over the entries themselves, not an algebra's table: the
    first basis triple (i, j, l), in basis order, with
    (e_i e_j) e_l != e_i (e_j e_l), as "(label, label, label)", or None."""
    prods = {}
    for (i, j, k), c in entries.items():
        if not c.is_zero():
            prods.setdefault((i, j), {})[k] = c

    def times(x, y):  # products of dicts {basis index: Scalar}
        out = {}
        for (a, c), (b, d) in itertools.product(x.items(), y.items()):
            for k, e in prods.get((a, b), {}).items():
                out[k] = out[k] + c * d * e if k in out else c * d * e
        return {k: v for k, v in out.items() if not v.is_zero()}
    one = next(iter(entries.values())).field.one()
    e = [{i: one} for i in range(len(labels))]
    for i, j, l in itertools.product(range(len(labels)), repeat=3):
        if times(times(e[i], e[j]), e[l]) != times(e[i], times(e[j], e[l])):
            return f"({labels[i]}, {labels[j]}, {labels[l]})"
    return None


@lru_cache(maxsize=None)
def _witness_table(name):
    """(basis, entries, field) of the Grassmann and Sweedler tables above,
    over Q, or of small-uqsl2 over cyclotomic(3) as read from its file."""
    if name == "small-uqsl2":
        A = load_entry(str(DATA / "small-uqsl2.qh")).structure.algebra
    else:
        A = algebras(FieldDescriptor.rationals())[0 if name == "grassmann" else 1]
    entries = {(i, j, k): c for i, j in itertools.product(range(A.dim), repeat=2)
               for k, c in A.mul_basis(i, j).items()}
    return A.basis, entries, A.field


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["grassmann", "sweedler", "sweedler", "small-uqsl2"]), st.data())
def test_the_batched_associativity_check_names_the_oracle_triple(name, data):
    """Change or add one structure constant off the unit row and column, of
    the parity its product needs: the algebra either loads, and no triple
    fails, or the error names the first failing triple in basis order."""
    basis, entries, field = _witness_table(name)
    others = [i for i in range(len(basis.labels)) if i != basis.unit_index]
    i, j = data.draw(st.sampled_from(others)), data.draw(st.sampled_from(others))
    k = data.draw(st.sampled_from([k for k in range(len(basis.labels))
                                   if basis.parity[k] == (basis.parity[i] + basis.parity[j]) % 2]))
    values = [field.from_int(n) for n in (0, 1, -1, 2)] + (
        [field.generator()] if field.generator_name else [field.from_rational(QQ(1, 2))])
    entries = dict(entries)
    entries[(i, j, k)] = data.draw(st.sampled_from(values))
    expected = _first_failing_triple(basis.labels, entries)
    try:
        GradedAlgebra(basis, entries, field)
    except StructureValidationError as err:
        assert expected is not None and str(err) == f"associativity fails at {expected}"
    else:
        assert expected is None
