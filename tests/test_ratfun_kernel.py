"""The rational-function kernel of Q(q): sums, products, quotients and
inverses against sympy's ``cancel`` and against the Fraction kernel of
tests/reference.py, the invariants of a canonical payload, and the gcds the
cross-cancelling kernel is allowed to skip."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import qhopf.scalars as scalars
from qhopf.scalars import QQ, FieldDescriptor
from reference import ratfun, ratfun_add, ratfun_inv, ratfun_mul

RQ = FieldDescriptor.rational_functions("q")
ONE = (QQ(1),)

# common factors make the cancellation steps nontrivial
FACTORS = ("1", "q", "q + 1", "q - 1", "2*q + 3", "q^2 + 1", "(q + 1)*(q - 1)")
polys = st.lists(st.integers(-4, 4), min_size=1, max_size=4).filter(any)
ratfuns = st.builds(
    lambda n, d, f, g: RQ.parse(f"({_text(n)})*({f})/(({_text(d)})*({g}))"),
    polys, polys, st.sampled_from(FACTORS), st.sampled_from(FACTORS))
constants = st.fractions(-9, 9, max_denominator=5).map(RQ.from_rational)
operands = st.one_of(ratfuns, ratfuns, constants)


def _text(cs):
    return " + ".join(f"({c})*q^{i}" for i, c in enumerate(cs))


def sym(x):
    import sympy
    return sympy.sympify(str(x).replace("^", "**"), locals={"q": sympy.Symbol("q")})


def canonical(expr):
    """sympy's reduced form as a payload: coefficients low to high, monic den."""
    import sympy
    q = sympy.Symbol("q")
    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    pn, pd = sympy.Poly(num, q), sympy.Poly(den, q)
    lead = pd.LC()

    def coeffs(p):
        cs = [] if p.is_zero else [c / lead for c in reversed(p.all_coeffs())]
        return tuple(Fraction(int(c.p), int(c.q)) for c in cs)
    return (coeffs(pn), coeffs(pd)) if not pn.is_zero else ((), (Fraction(1),))


def payload(x):
    """x's payload scaled to a monic denominator, over Fraction."""
    n, d = x.value
    return tuple(Fraction(c, d[-1]) for c in n), tuple(Fraction(c, d[-1]) for c in d)


def _coprime(a, b):
    """Euclid over the coefficient lists (low to high) of two polynomials."""
    a, b = list(a), list(b)
    while b:
        while len(a) >= len(b):
            f, off = a[-1] / b[-1], len(a) - len(b)
            for i, c in enumerate(b):
                a[off + i] -= f * c
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) == 1


def assert_canonical(x):
    """Integer coefficients, primitive, den[-1] > 0, coprime, no trailing zeros."""
    n, d = x.value
    assert all(type(c) is int for c in n + d)
    assert d and d[-1] > 0
    assert gcd(*n, *d) == 1
    assert not n or n[-1] != 0
    assert n or x.value == ((), ONE)
    assert not n or _coprime([Fraction(c) for c in n], [Fraction(c) for c in d])


@settings(max_examples=25, deadline=None)
@given(operands, operands)
def test_ring_ops_agree_with_sympy_cancel(x, y):
    pytest.importorskip("sympy")
    sx, sy = sym(x), sym(y)
    # (x + y) - y cancels through gcd(t, g) whenever d_y has a factor d_x lacks
    for result, expected in ((x + y, sx + sy), (x - y, sx - sy), (x * y, sx * sy),
                             ((x + y) - y, sx)):
        assert_canonical(result)
        assert payload(result) == canonical(expected)
    if y:
        assert payload(x / y) == canonical(sx / sy)
        assert payload(y.inv()) == canonical(1 / sy)
        assert_canonical(y.inv())


def _conv(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return out


@st.composite
def with_reference(draw):
    """A scalar parsed from its text and its payload from the reference kernel:
    num/den with large contents, a monomial denominator, or a constant."""
    kind = draw(st.sampled_from(("general", "monomial", "constant")))
    k = draw(st.integers(-10 ** 12, 10 ** 12).filter(bool))
    m = draw(st.sampled_from((1, 2, 6, 10 ** 9 + 7, 3 * 10 ** 12)))
    if kind == "constant":
        num, den = [k], [m]
    elif kind == "monomial":  # m q^j
        num, den = [k * c for c in draw(polys)], [0] * draw(st.integers(0, 3)) + [m]
    else:  # a common factor f, as in FACTORS, for the gcds to cancel
        f = draw(st.sampled_from(([1], [0, 1], [1, 1], [-1, 1], [3, 2], [1, 0, 1])))
        num = [k * c for c in _conv(draw(polys), f)]
        den = [m * c for c in _conv(draw(polys), f)]
    return RQ.parse(f"({_text(num)})/({_text(den)})"), ratfun(num, den)


def _neg(r):
    return tuple(-c for c in r[0]), r[1]


@settings(max_examples=60, deadline=None)
@given(with_reference(), with_reference())
def test_ring_ops_agree_with_the_fraction_kernel(xr, yr):
    """Each result, scaled to a monic denominator, is the reference payload."""
    (x, rx), (y, ry) = xr, yr
    results = [(x, rx), (y, ry), (x + y, ratfun_add(rx, ry)),
               (x - y, ratfun_add(rx, _neg(ry))), (x * y, ratfun_mul(rx, ry))]
    if y:
        results += [(x / y, ratfun_mul(rx, ratfun_inv(ry))), (y.inv(), ratfun_inv(ry))]
    for result, expected in results:
        assert_canonical(result)
        assert payload(result) == expected


@pytest.mark.parametrize("a, b, op, expected", [
    # gcd(d1, d2) = (q+1)(q-1), and t = q + 1 shares q + 1 with it
    ("(q + 2)/((q + 1)*(q - 1))", "-1/((q + 1)*(q - 1))", "+", "1/(q - 1)"),
    # g1 = gcd(n1, d2) = 1 but g2 = gcd(n2, d1) = q - 1
    ("(q + 1)/(q - 1)", "(q - 1)/(q + 2)", "*", "(q + 1)/(q + 2)"),
    # g1 = q + 1, g2 = q
    ("(q + 1)/q", "q/(q + 1)", "*", "1"),
    ("(q^2 + 1)/(q + 1)", "(q + 1)/(q^2 + 1)", "*", "1"),
    # g = q, t = 2q: only gcd(t, g) = q cancels
    ("1/(q*(q + 1))", "1/(q*(q - 1))", "+", "2/((q + 1)*(q - 1))"),
])
def test_cross_cancellation_reduces_fully(a, b, op, expected):
    x, y = RQ.parse(a), RQ.parse(b)
    result = x + y if op == "+" else x * y
    assert result.value == RQ.parse(expected).value
    assert_canonical(result)


@settings(max_examples=40, deadline=None)
@given(operands, operands)
def test_equality_is_equality_of_rendering(x, y):
    for u, v in ((x, y), (x * y / y if y else x, x), (x + y - y, x), (x + y, y + x)):
        assert (u == v) == (str(u) == str(v))
    assert (x * y / y if y else x) == x


def test_zero_payload():
    x = RQ.parse("(q + 1)/(q - 1)")
    for zero in (x - x, x * 0, RQ.zero(), RQ.parse("0/(q + 1)"), (x - x) * x):
        assert zero.value == ((), ONE)


@pytest.fixture
def gcd_calls(monkeypatch):
    """The gcds taken from here on; the memos are cleared, so that an operation
    an earlier test ran is computed again."""
    scalars._rmul.cache_clear()
    scalars._radd.cache_clear()
    calls = []
    original = scalars._pgcd

    def counting(a, b):
        calls.append((a, b))
        return original(a, b)
    monkeypatch.setattr(scalars, "_pgcd", counting)
    return calls


def test_no_gcd_with_a_constant_or_two_polynomials(gcd_calls):
    fractions = [RQ.parse(t) for t in ("(q + 1)/(q - 1)", "(2*q^2 - q + 3)/(q + 2)",
                                       "q^-3", "1/(q^2 + 1)")]
    polys = [RQ.parse(t) for t in ("q^2 + 1", "3*q - 1/2", "q", "7")]
    consts = [RQ.parse(t) for t in ("1", "-2/3", "5")]
    gcd_calls.clear()
    for c in consts:
        for x in fractions + polys:
            for result in (c * x, x * c, c + x, x + c, x - c, x / c):
                assert_canonical(result)
    for x in polys:
        for y in polys:
            assert_canonical(x + y)
            assert_canonical(x * y)
    assert gcd_calls == []
    fractions[0] + fractions[1]  # general operands do take gcds
    assert gcd_calls


def test_equal_denominators_take_one_gcd(gcd_calls):
    x, y = RQ.parse("q/(q^2 + 1)"), RQ.parse("(q + 2)/(q^2 + 1)")
    gcd_calls.clear()
    total = x + y
    assert gcd_calls == [((QQ(2), QQ(2)), (QQ(1), QQ(0), QQ(1)))]  # gcd(t, d1) only
    assert total.value == RQ.parse("(2*q + 2)/(q^2 + 1)").value


def test_powers_of_a_reduced_fraction_take_no_gcd(gcd_calls):
    """num/den is coprime with den monic, so (num^k, den^k) is canonical."""
    x = RQ.parse("(q + 1)/(q - 1)")
    square = RQ.parse("(q + 1)*(q + 1)/((q - 1)*(q - 1))")
    cube = RQ.parse("(q + 1)*(q + 1)*(q + 1)/((q - 1)*(q - 1)*(q - 1))")
    gcd_calls.clear()
    powers = x ** 2, x ** 3
    assert gcd_calls == []
    assert [p.value for p in powers] == [square.value, cube.value]
    for p in powers:
        assert_canonical(p)


def test_the_memos_stay_within_their_cap():
    q = RQ.generator().value
    for k in range(scalars.MEMO_CAP + 100):  # more distinct operands than the cap
        a = ((k, 1), (1, 2))  # (k + q)/(1 + 2q)
        scalars._rmul(a, q), scalars._radd(a, q)
    for memo in (scalars._rmul, scalars._radd):
        info = memo.cache_info()
        assert info.maxsize == scalars.MEMO_CAP and info.currsize <= info.maxsize
