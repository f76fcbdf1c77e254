import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qhopf.errors import FieldMismatchError, NotInvertibleError, ScalarSyntaxError
from qhopf.scalars import FieldDescriptor, cyclotomic_polynomial, parse_scalar, QQ
from qhopf.scalars import MAX_EXPONENT

Q = FieldDescriptor.rationals()
C3 = FieldDescriptor.cyclotomic(3)
C4 = FieldDescriptor.cyclotomic(4)
RQ = FieldDescriptor.rational_functions("q")

FIELDS = [Q, C3, C4, RQ]


def elements(field):
    """A small deterministic pool of elements of each field."""
    pool = [field.zero(), field.one(), field.from_int(-2), field.from_rational(QQ(3, 5))]
    if field.generator_name:
        g = field.generator()
        pool += [g, g + 1, g * g - field.from_int(2), -g]
    return pool


def test_fraction_addition():
    assert Q.parse("1/2") + Q.parse("1/3") == Q.parse("5/6")


def test_monomial_inverse_in_rational_functions():
    q = RQ.generator()
    assert q.inv() == RQ.parse("q^-1")
    assert str(q.inv()) == "q^-1"


def test_cyclotomic_reduction_order_4():
    # z * z^2 = z^3 = -z  modulo  z^2 + 1
    z = C4.generator()
    assert z * (z * z) == -z
    assert cyclotomic_polynomial(4) == (QQ(1), QQ(0), QQ(1))


def test_cyclotomic_order_3_relation():
    z = C3.generator()
    assert z * z + z + 1 == C3.zero()
    assert z ** 3 == C3.one()


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_field_axioms_on_pool(field):
    pool = elements(field)
    one, zero = field.one(), field.zero()
    for x in pool:
        assert x + zero == x and x * one == x
        assert x - x == zero
        if not x.is_zero():
            assert x * x.inv() == one
        for y in pool:
            assert x + y == y + x
            assert x * y == y * x
            for w in pool:
                assert (x + y) + w == x + (y + w)
                assert (x * y) * w == x * (y * w)
                assert x * (y + w) == x * y + x * w


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_constants_agree_with_int_and_fraction(field):
    for r in (0, 1, -2, Fraction(1, 2), Fraction(-7, 3)):
        x = field.parse(str(r))
        for other in (r, Fraction(r), QQ(r)):
            assert x == other and other == x and not x != other
            assert hash(x) == hash(other)
        assert x != r + 1 and x != Fraction(r) + Fraction(1, 5)
    assert {field.parse("1/2"): "half"}[Fraction(1, 2)] == "half"


@pytest.mark.parametrize("field", [C3, C4, RQ], ids=str)
def test_nonconstant_scalar_is_unequal_to_every_rational(field):
    g = field.generator()
    for x in (g, g + 1, g - field.from_rational(QQ(1, 2)), -g / 2):
        for r in (0, 1, -2, Fraction(1, 2), Fraction(-1, 2), QQ(3, 5)):
            assert x != r and r != x and not x == r


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_canonical_form_round_trip(field):
    for x in elements(field):
        again = parse_scalar(str(x), field)
        assert again == x
        assert str(again) == str(x)  # normalizing twice = normalizing once


def test_inverse_of_zero_raises():
    with pytest.raises(NotInvertibleError):
        Q.zero().inv()
    with pytest.raises(NotInvertibleError):
        RQ.zero().inv()


def test_field_mismatch_raises():
    with pytest.raises(FieldMismatchError):
        Q.one() + C3.one()


def test_out_of_field_token():
    with pytest.raises(ScalarSyntaxError):
        parse_scalar("q", Q)
    with pytest.raises(ScalarSyntaxError):
        parse_scalar("z", RQ)


def test_syntax_error_position():
    with pytest.raises(ScalarSyntaxError) as err:
        parse_scalar("1/2 + $", Q)
    assert err.value.position == 6


def test_parse_examples():
    assert parse_scalar("-3/4", Q) == Q.from_rational(QQ(-3, 4))
    q = RQ.generator()
    assert parse_scalar("q^2 - q^-1", RQ) == q ** 2 - q.inv()
    z = C3.generator()
    assert parse_scalar("z + 1", C3) == z + 1
    assert parse_scalar("(1 - z)*(1 - z^2)", C3) == (1 - z) * (1 - z ** 2)


def test_rational_function_general_quotient():
    x = RQ.parse("(q^2 + 1)/(q^2 - q)")
    q = RQ.generator()
    assert x * (q * q - q) == q * q + 1
    assert parse_scalar(str(x), RQ) == x


def test_laurent_rendering():
    q = RQ.generator()
    x = q ** 2 - q.inv()
    assert str(x) == "q^2 - q^-1"


rationals_st = st.fractions(max_denominator=50).map(
    lambda fr: Q.from_rational(QQ(fr.numerator, fr.denominator)))


@given(rationals_st, rationals_st, rationals_st)
def test_rationals_are_a_field(x, y, w):
    assert (x + y) + w == x + (y + w)
    assert x * (y + w) == x * y + x * w
    if not x.is_zero():
        assert x * x.inv() == Q.one()


def test_a_rational_is_stored_as_an_order_1_cyclotomic_payload():
    x = Q.parse("-3/4")
    assert x.value == ((-3,), 4) and Q.zero().value == ((), 1)
    assert hash(Q.from_rational(Fraction(-3, 4))) == hash(Fraction(-3, 4))


def _from_fraction(fr):
    return Q.from_rational(QQ(fr.numerator, fr.denominator))


@given(st.fractions(max_denominator=50), st.fractions(max_denominator=50),
       st.integers(-5, 5))
def test_rationals_agree_with_fraction(a, b, k):
    """fractions.Fraction is an independent oracle for every operation on
    rationals, for its text and hash, and for the canonical payload."""
    x, y = _from_fraction(a), _from_fraction(b)
    pairs = [(x + y, a + b), (x - y, a - b), (x * y, a * b), (-x, -a)]
    if b:
        pairs += [(x / y, a / b), (y.inv(), 1 / b)]
    if a or k >= 0:
        pairs.append((x ** k, a ** k))
    for got, want in pairs:
        assert got == _from_fraction(want)
        assert str(got) == str(want) and hash(got) == hash(want)
        assert got.value == (((want.numerator,), want.denominator) if want else ((), 1))


small_c3 = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).map(
    lambda ab: C3.from_int(ab[0]) + C3.generator() * ab[1])


@given(small_c3, small_c3)
def test_cyclotomic_ring_ops_commute_with_parse(x, y):
    assert parse_scalar(str(x * y), C3) == x * y
    assert parse_scalar(str(x - y), C3) == x - y


@pytest.mark.parametrize("sign", [1, -1])
def test_large_monomial_powers_are_fast_and_exact(sign):
    assert MAX_EXPONENT >= 1000
    start = time.perf_counter()
    x = parse_scalar(f"q^{sign * 1000}", RQ)
    assert time.perf_counter() - start < 0.1
    step = RQ.generator() if sign > 0 else RQ.generator().inv()
    y = RQ.one()
    for _ in range(1000):
        y = y * step
    assert x == y and str(x) == str(y) == f"q^{sign * 1000}"


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_powers_match_repeated_products(field):
    pool = elements(field)
    if field is RQ:
        pool.append(RQ.parse("(q + 1)/(q - 1)"))
    for x in pool:
        for n in range(-3, 6):
            if n < 0 and x.is_zero():
                continue
            y = field.one()
            for _ in range(abs(n)):
                y = y * (x if n > 0 else x.inv())
            assert x ** n == y and str(x ** n) == str(y)


def test_monomial_powers_match_repeated_products():
    for text in ("3*q^-2", "-q", "1/2*q^3", "-2/3"):
        x = parse_scalar(text, RQ)
        for n in (-3, 0, 1, 4):
            y = RQ.one()
            for _ in range(abs(n)):
                y = y * (x if n > 0 else x.inv())
            assert x ** n == y and str(x ** n) == str(y)


@pytest.mark.parametrize("text, position", [("q^1001", 2), ("1 + q^-1001", 6),
                                            ("z^99999999999", 2)])
def test_exponent_above_the_cap_is_a_syntax_error(text, position):
    field = C3 if text.startswith("z") else RQ
    assert MAX_EXPONENT < 1001
    with pytest.raises(ScalarSyntaxError) as err:
        parse_scalar(text, field)
    assert err.value.position == position


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter converts integer strings of any length")
@pytest.mark.parametrize("text, position", [("1" * 5000, 0), ("2/" + "3" * 5000, 2),
                                            ("q^" + "9" * 5000, 2)])
def test_overlong_integer_literal_is_a_syntax_error(text, position):
    with pytest.raises(ScalarSyntaxError) as err:
        parse_scalar(text, RQ)
    assert err.value.position == position


@pytest.mark.parametrize("field", [Q, C3, RQ], ids=str)
def test_a_superscript_digit_is_an_unexpected_character(field):
    """'²' is a digit to str.isdigit() but not to int(): the tokenizer reads
    a decimal literal and stops before it, so it is not an overlong integer."""
    with pytest.raises(ScalarSyntaxError) as err:
        parse_scalar("2²", field)
    assert (err.value.message, err.value.position) == ("unexpected character '²'", 1)
    assert str(err.value) == "unexpected character '²' (at position 1)"


@pytest.mark.parametrize("field, text", [(RQ, "q²"), (C3, "z²")], ids=["Q(q)", "cyclotomic(3)"])
def test_a_superscript_digit_after_a_name_is_an_unexpected_character(field, text):
    """A name continues with letters, decimal digits and '_' only, so '²'
    is reported itself rather than as part of a foreign name 'q²'."""
    with pytest.raises(ScalarSyntaxError) as err:
        parse_scalar(text, field)
    assert (err.value.message, err.value.position) == ("unexpected character '²'", 1)


def test_the_render_memo_stays_within_its_cap():
    """Rendering is memoised by payload and indeterminate: one payload
    renders over each field's own variable, and the memo stays bounded."""
    import qhopf.scalars as scalars
    RQ, RT = FieldDescriptor.rational_functions("q"), FieldDescriptor.rational_functions("t")
    assert RQ.generator().value == RT.generator().value
    assert (str(RQ.generator()), str(RT.generator())) == ("q", "t")
    C5 = FieldDescriptor.cyclotomic(5)
    z = C5.generator()
    for k in range(scalars.MEMO_CAP + 100):  # more distinct payloads than the cap
        assert str(z + k) == (f"z + {k}" if k else "z")
    info = scalars._render.cache_info()
    assert info.maxsize == scalars.MEMO_CAP and info.currsize <= info.maxsize
