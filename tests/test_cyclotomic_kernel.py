"""The integer-numerator cyclotomic kernel: products, sums and inverses
against sympy's remainder modulo the cyclotomic polynomial, canonical
payloads, and the degree-1 fields cyclotomic(1) and cyclotomic(2)."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import qhopf.scalars as scalars
from qhopf.scalars import QQ, FieldDescriptor

ORDERS = (1, 2, 3, 4, 5, 8, 12)

coefficients = st.lists(st.fractions(-20, 20, max_denominator=6), max_size=6)
small_coefficients = st.lists(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1),
                                               Fraction(1, 2)]), max_size=5)


def element(field, cs):
    """sum cs[i] z^i, built through the public arithmetic."""
    z, x = field.generator(), field.zero()
    for i, c in enumerate(cs):
        x = x + field.from_rational(QQ(c.numerator, c.denominator)) * z ** i
    return x


def sym(cs, z):
    import sympy
    return sum(sympy.Rational(c.numerator, c.denominator) * z ** i for i, c in enumerate(cs))


def parsed(x, z):
    import sympy
    return sympy.sympify(str(x).replace("^", "**"), locals={"z": z})


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORDERS), coefficients, coefficients)
def test_ring_ops_agree_with_sympy_remainder(n, xs, ys):
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    phi = sympy.cyclotomic_poly(n, z)
    F = FieldDescriptor.cyclotomic(n)
    x, y = element(F, xs), element(F, ys)
    a, b = sym(xs, z), sym(ys, z)
    assert sympy.expand(parsed(x * y, z) - sympy.rem(sympy.expand(a * b), phi, z)) == 0
    assert sympy.expand(parsed(x + y, z) - sympy.rem(sympy.expand(a + b), phi, z)) == 0
    assert sympy.expand(parsed(x - y, z) - sympy.rem(sympy.expand(a - b), phi, z)) == 0


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORDERS), coefficients)
def test_inverse_agrees_with_sympy(n, xs):
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    phi = sympy.cyclotomic_poly(n, z)
    F = FieldDescriptor.cyclotomic(n)
    x = element(F, xs)
    a = sympy.rem(sym(xs, z), phi, z)
    if x.is_zero():
        assert sympy.expand(a) == 0
        return
    assert sympy.expand(parsed(x.inv(), z) - sympy.invert(a, phi, z)) == 0


@given(st.sampled_from(ORDERS), small_coefficients, small_coefficients)
def test_equal_exactly_when_rendered_equal(n, xs, ys):
    F = FieldDescriptor.cyclotomic(n)
    x, y = element(F, xs), element(F, ys)
    assert (x == y) == (str(x) == str(y))
    if x == y:
        assert hash(x) == hash(y)


@given(st.sampled_from(ORDERS), coefficients, coefficients)
def test_payload_is_canonical(n, xs, ys):
    F = FieldDescriptor.cyclotomic(n)
    x, y = element(F, xs), element(F, ys)
    for r in (x, y, x * y, x + y, x - y, -x, x * 2, F.from_rational(QQ(-3, 6))):
        nums, den = r.value
        assert den > 0
        assert not nums or nums[-1] != 0
        assert len(nums) < len(F.modulus)
        assert gcd(den, *nums) == 1
        assert r.is_zero() == (r.value == ((), 1))
    if not y.is_zero():
        q = (x * y) / y
        assert q == x and q.value == x.value and str(q) == str(x)
    # the memoised payload operations agree with the functions they wrap
    a, b = x.value, y.value
    assert scalars._cmul(a, b, n) == scalars._cmul.__wrapped__(a, b, n)
    assert scalars._cadd(a, b) == scalars._cadd.__wrapped__(a, b)
    if not x.is_zero():
        assert scalars._cinv(a, n) == scalars._cinv.__wrapped__(a, n)


@pytest.mark.parametrize("n", [*range(1, 41), 105, 360])
def test_every_row_of_the_power_table_is_the_remainder_of_z_to_the_k(n):
    """rows[k] is z^k mod Phi_n, sparse, for every k below max(n, 2 phi(n)):
    the degrees of a product and the exponents of a Galois conjugate."""
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    phi = sympy.cyclotomic_poly(n, z)
    _, m, rows = scalars._order_data(n)
    assert m == sympy.degree(phi, z) and len(rows) == max(n, 2 * m)
    for k, row in enumerate(rows):
        expected = sympy.Poly(sympy.rem(z ** k, phi, z), z).as_dict()
        assert dict(row) == {i: int(c) for (i,), c in expected.items()}, k
        assert all(t for _, t in row)


def test_the_product_memo_keys_on_the_order():
    """z has the same payload in cyclotomic(3) and cyclotomic(4), but z z is
    -1 - z in one and -1 in the other."""
    C3, C4 = FieldDescriptor.cyclotomic(3), FieldDescriptor.cyclotomic(4)
    z3, z4 = C3.generator(), C4.generator()
    assert z3.value == z4.value
    for _ in range(2):  # the second round is answered from the memo
        assert str(z3 * z3) == "-z - 1" and str(z4 * z4) == "-1"
        assert str(z3.inv()) == "-z - 1" and str(z4.inv()) == "-z"


def test_the_memos_stay_within_their_cap():
    C5 = FieldDescriptor.cyclotomic(5)
    z = C5.generator().value
    for k in range(scalars.MEMO_CAP + 100):  # more distinct operands than the cap
        a = ((k, 1), 1)
        scalars._cmul(a, z, 5), scalars._cadd(a, z), scalars._cinv(a, 5)
    for memo in (scalars._cmul, scalars._cadd, scalars._cinv):
        info = memo.cache_info()
        assert info.maxsize == scalars.MEMO_CAP and info.currsize <= info.maxsize


@pytest.mark.parametrize("n", ORDERS)
def test_constants_hash_as_their_rational_value(n):
    C = FieldDescriptor.cyclotomic(n)
    for k in (0, 1, -1, 2, 12, -105):
        assert hash(C.from_int(k)) == hash(k)
        assert C.from_int(k) == k
    for r in (Fraction(1, 2), Fraction(-7, 3)):
        assert hash(C.from_rational(QQ(r.numerator, r.denominator))) == hash(r)


def test_degree_one_fields():
    C1, C2 = FieldDescriptor.cyclotomic(1), FieldDescriptor.cyclotomic(2)
    z1, z2 = C1.generator(), C2.generator()
    assert z1 == 1 and str(z1) == "1"
    assert z2 == -1 and str(z2) == "-1"
    assert C1.parse("z^2 + z/2") == C1.from_rational(QQ(3, 2))
    assert C2.parse("z^3 + 3") == 2
    assert (z2 + 3).inv() == C2.from_rational(QQ(1, 2))
    assert z2 ** -5 == -1 and z1 ** 7 == 1
    assert str(C2.parse("(z - 2)/3")) == "-1"


def test_order_12_reduction():
    # Phi_12 = z^4 - z^2 + 1, so z^6 = -1 and z^4 = z^2 - 1
    C12 = FieldDescriptor.cyclotomic(12)
    z = C12.generator()
    assert z ** 6 == -1
    assert str(z ** 4) == "z^2 - 1"
    assert str(z ** 5) == "z^3 - z"
    assert (z ** 3 / 2) * (z ** 3 * 4) == -2
