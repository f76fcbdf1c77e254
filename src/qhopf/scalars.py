"""Exact scalar arithmetic over the engine's coefficient fields.

Three field kinds are supported, selected by a :class:`FieldDescriptor`:

* ``rationals`` -- the cyclotomic field of order 1 below, without a name
  for ``z``: a fraction ``c / d`` is stored as ``((c,), d)``,
* ``cyclotomic(n)`` -- the field obtained by adjoining a primitive n-th
  root of unity ``z``.  An element ``(c_0 + c_1 z + ... ) / d`` is stored
  as ``(numerators, d)``: a tuple of integer numerators ``c_i`` of degree
  below ``phi(n)``, no trailing zeros, and one common denominator
  ``d > 0`` coprime to their content; zero is ``((), 1)``.  Products and
  sums run on the integer-polynomial helpers that Q(q) uses: a product is
  a convolution whose degrees ``k >= phi(n)`` are folded back with a
  per-order table of ``z^k mod Phi_n`` (integral, since ``Phi_n`` is
  monic with integer coefficients), followed by one gcd normalisation.
  The table, built on first use of an order, holds every ``k`` below
  ``max(n, 2 phi(n))``.  An inverse divides out the content (the gcd of
  the numerators) and is the product of the primitive part's Galois
  conjugates, read off the same table, over its rational norm.
* ``rational-functions(q)`` -- rational functions in one indeterminate,
  stored as ``(num, den)``: integer coefficient tuples, constant term
  first, no trailing zeros, coprime, the gcd of all their coefficients 1
  and ``den``'s leading coefficient positive; zero is ``((), (1,))``.
  Operands are reduced, so a result is cancelled across them (Henrici):
  a product cancels ``n1`` with ``d2`` and ``n2`` with ``d1``; a sum with
  ``g = gcd(d1, d2)`` and ``t = n1 (d2/g) + n2 (d1/g)`` cancels only
  ``gcd(t, g)``, and equal denominators give ``g = d1`` at once.  A gcd is
  the primitive integer polynomial of a primitive remainder sequence, so
  by Gauss's lemma every quotient by it is exact over Z; one division by
  the joint content ends each operation.  No gcd is taken when a side is
  constant, so rational multiples and polynomial sums need none, and an
  inverse swaps num and den and fixes the sign.

Every representation is canonical, so two scalars are equal exactly when
their stored payloads are equal.  There is no floating point anywhere;
every identity check downstream reduces to "is this payload empty/zero".
A constant hashes as its rational value in every field, so a scalar
agrees with ``int`` and ``Fraction`` under both ``==`` and ``hash``.

Each descriptor builds one table of payload operations on first use,
``FieldDescriptor.ops`` (add, mul, neg, is_zero, one, inv): ``Scalar``'s
arithmetic looks them up, and the kernels of graded.py and linalg.py call
them on payloads directly.  ``mul`` never multiplies by a factor equal to one.
The cyclotomic (and rational) mul, add and inv are memoised by operand payloads
and order, and the Q(q) mul and add by operand payloads (``MEMO_CAP`` entries
each), as operands repeat, and so is the rendered text of a payload.  ``QQ``,
the one rational type ``fractions.Fraction``, appears only at input and
output: parsing a fraction and rendering a coefficient over its denominator.

>>> F = FieldDescriptor.rationals()
>>> str(F.parse("1/2") + F.parse("1/3"))
'5/6'
>>> C4 = FieldDescriptor.cyclotomic(4)
>>> str(C4.parse("z") * C4.parse("z^2"))   # z^3 = -z mod z^2+1
'-z'
"""

from __future__ import annotations

import functools
import sys
from collections import namedtuple
from fractions import Fraction
from math import gcd, log2
from typing import Callable, Optional, Tuple

from .errors import (FieldMismatchError, NotInvertibleError, ScalarSyntaxError,
                     StructureValidationError)

QQ = Fraction  # the one rational type: parsing and rendering only

Poly = Tuple  # dense int coefficients, constant term first, no trailing zeros
_ONE = (1,)


# ---------------------------------------------------------------------------
# integer polynomial helpers


def _padd(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:  # a constant factor: scale, no convolution
        c = b[0]
        return a if c == 1 else tuple(c * x for x in a)
    out = [0] * (len(a) + len(b) - 1)
    nonzero = [(j, d) for j, d in enumerate(b) if d]  # zeros skipped in both factors
    for i, c in enumerate(a):
        if c:
            for j, d in nonzero:
                out[i + j] += c * d
    return tuple(out)  # the leading coefficient is a product of nonzero ints


def _pquo(a: Poly, b: Poly) -> Poly:
    """a / b, for a b that divides a in Z[x]: every step divides exactly."""
    if b == _ONE:
        return a
    a, lead, m = list(a), b[-1], len(b) - 1
    q = [0] * (len(a) - m)
    for off in range(len(q) - 1, -1, -1):
        c = q[off] = a[off + m] // lead
        if c:
            for i in range(m):
                a[off + i] -= c * b[i]
    return tuple(q)


def _primitive(a) -> Poly:
    g = gcd(*a)
    return tuple(a) if g == 1 else tuple(c // g for c in a)


def _prem(a: Poly, b: Poly) -> list:
    """A remainder of a by b over Q, scaled to integers: each step subtracts
    the smallest integer multiples that cancel the leading term."""
    a, lead, m = list(a), b[-1], len(b) - 1
    while len(a) > m:
        c = a.pop()
        g = gcd(lead, c)
        s, t, off = lead // g, c // g, len(a) - m
        if s != 1:
            a = [s * x for x in a]
        for i in range(m):
            a[off + i] -= t * b[i]
        while a and not a[-1]:
            a.pop()
    return a


def _pgcd(a: Poly, b: Poly) -> Poly:
    """gcd over Q[x] of nonzero a, b as the primitive integer polynomial with a
    positive leading coefficient: a primitive PRS (Knuth, TAOCP 4.6.1)."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_prem(a, b))
    return a if a[-1] > 0 else tuple(-c for c in a)


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> Poly:
    """Integer coefficients of the n-th cyclotomic polynomial.

    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    """
    if n < 1:
        raise ValueError("cyclotomic order must be >= 1")
    # x^n - 1 divided by the cyclotomic polynomials of the proper divisors
    num = (-1,) + (0,) * (n - 1) + (1,)
    for d in range(1, n):
        if n % d == 0:
            num = _pquo(num, cyclotomic_polynomial(d))
    return num


def _power(x, n: int, mul, one):
    """x^n for n >= 0 by square-and-multiply; no square after the last bit."""
    out = one
    while n:
        if n & 1:
            out = mul(out, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return out


# ---------------------------------------------------------------------------
# rational-function kernel over canonical payloads (num, den)

_RZERO = ((), _ONE)
MEMO_CAP = 4096  # entries in each memo of _rmul, _radd, _cmul, _cadd, _cinv and _render


def _gcd1(a: Poly, b: Poly) -> Poly:  # a nonzero constant is coprime to anything
    return _pgcd(a, b) if len(a) > 1 and len(b) > 1 else _ONE


def _rcontent(num: Poly, den: Poly):
    """(num, den) divided by the gcd of all their coefficients."""
    g = gcd(*num, *den)
    if g == 1:
        return num, den
    return tuple(c // g for c in num), tuple(c // g for c in den)


@functools.lru_cache(MEMO_CAP)
def _rmul(x, y):
    """Henrici's product of reduced x, y: cancel n1 with d2 and n2 with d1."""
    (n1, d1), (n2, d2) = x, y
    if not n1 or not n2:
        return _RZERO
    g1, g2 = _gcd1(n1, d2), _gcd1(n2, d1)
    return _rcontent(_pmul(_pquo(n1, g1), _pquo(n2, g2)),
                     _pmul(_pquo(d1, g2), _pquo(d2, g1)))


@functools.lru_cache(MEMO_CAP)
def _radd(x, y):
    """Henrici's sum of reduced x, y: only gcd(t, g) can cancel (see above)."""
    (n1, d1), (n2, d2) = x, y
    if not n1 or not n2:
        return x if n1 else y
    if d1 == d2:  # one denominator (two polynomials too): g = d1, e1 = e2 = 1
        g, e, t = d1, _ONE, _padd(n1, n2)
    else:
        g = _gcd1(d1, d2)
        e1, e2 = _pquo(d1, g), _pquo(d2, g)
        e, t = _pmul(e1, e2), _padd(_pmul(n1, e2), _pmul(n2, e1))
    if not t:
        return _RZERO
    h = _gcd1(t, g)
    return _rcontent(_pquo(t, h), _pmul(e, _pquo(g, h)))


def _rinv(x):  # (den, num) is coprime and primitive already; fix the sign
    num, den = x
    if num[-1] > 0:
        return den, num
    return tuple(-c for c in den), tuple(-c for c in num)


# ---------------------------------------------------------------------------
# cyclotomic kernel over integer numerators

_CZERO = ((), 1)


@functools.cache  # one entry per order n <= MAX_ORDER
def _order_data(n: int):
    """(Phi_n, phi(n), rows), with sparse integer rows[k] of z^k mod Phi_n for
    k < max(n, 2 phi(n)): the degrees of a product and the exponents of a conjugate."""
    phi = cyclotomic_polynomial(n)
    m = len(phi) - 1
    row, rows = [1] + [0] * (m - 1), []
    for _ in range(max(n, 2 * m)):
        rows.append(tuple((i, t) for i, t in enumerate(row) if t))
        top, row = row[-1], [0] + row[:-1]  # times z; z^m folds back as z^m - Phi_n
        for i in range(m):
            row[i] -= top * phi[i]
    return phi, m, tuple(rows)


def _cyclo(nums: list, den):
    """Canonical payload of sum(nums[i] z^i) / den, for deg < phi(n) and den > 0."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return _CZERO
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return tuple(c // g for c in nums), den // g
    return tuple(nums), den


def _creduce(conv: list, den, n: int):
    """Fold the degrees k >= phi(n) of conv (all below 2 phi(n)) and normalise."""
    _, m, rows = _order_data(n)
    for k in range(len(conv) - 1, m - 1, -1):
        c = conv[k]
        if c:
            for i, t in rows[k]:
                conv[i] += c * t
    del conv[m:]
    return _cyclo(conv, den)


@functools.lru_cache(MEMO_CAP)
def _cmul(a, b, n: int):
    (x, dx), (y, dy) = a, b
    return _creduce(list(_pmul(x, y)), dx * dy, n)


@functools.lru_cache(MEMO_CAP)
def _cadd(a, b):  # keyed without the order: a sum is not reduced mod Phi_n
    (x, dx), (y, dy) = a, b
    g = gcd(dx, dy)
    return _cyclo(list(_padd(_pmul(x, (dy // g,)), _pmul(y, (dx // g,)))), dx // g * dy)


@functools.lru_cache(MEMO_CAP)
def _cinv(a, n: int):
    """a^-1 = prod_k sigma_k(p) / (g N(p)) for a = g p, g the content of a's
    numerators, over the Galois conjugates sigma_k: z -> z^k (k coprime to n,
    k != 1), read off the order's rows of z^j mod Phi_n; N(p) is rational."""
    nums, den = a
    g = gcd(*nums)
    nums = tuple(c // g for c in nums)
    _, m, rows = _order_data(n)
    conj = ((1,), 1)
    for k in range(2, n):
        if gcd(k, n) == 1:
            s = [0] * m
            for i, c in enumerate(nums):
                for j, t in rows[i * k % n]:
                    s[j] += c * t
            conj = _cmul(conj, _cyclo(s, 1), n)
    (norm,), _ = _cmul((nums, 1), conj, n)
    sign = 1 if norm > 0 else -1
    return _cyclo([sign * den * c for c in conj[0]], abs(norm) * g)


# ---------------------------------------------------------------------------
# field descriptors

RATIONALS = "rationals"
CYCLOTOMIC = "cyclotomic"
MAX_ORDER = 360  # largest cyclotomic order n; bounds the work a field can cost
RATIONAL_FUNCTIONS = "rational-functions"


PayloadOps = namedtuple("PayloadOps", "add mul neg is_zero one inv")


class FieldDescriptor:
    """Selects one of the supported exact coefficient fields.  Descriptors
    are equal, and hash alike, when kind, order and indeterminate agree."""

    def __init__(self, kind: str, order: Optional[int] = None,  # cyclotomic order n >= 1
                 indeterminate: Optional[str] = None):  # rational-function variable name
        if kind == RATIONALS:
            pass
        elif kind == CYCLOTOMIC:
            if type(order) is not int or order < 1:
                raise StructureValidationError(
                    "cyclotomic order must be a positive integer")
            if order > MAX_ORDER:
                raise StructureValidationError(
                    f"cyclotomic order {order} exceeds the limit {MAX_ORDER}")
        elif kind == RATIONAL_FUNCTIONS:
            if not (isinstance(indeterminate, str) and indeterminate.isidentifier()):
                raise StructureValidationError(
                    "indeterminate must be a nonempty identifier")
        else:
            raise StructureValidationError(f"unknown field kind {kind!r}")
        self.kind, self.order, self.indeterminate = kind, order, indeterminate
        self._key = (kind, order, indeterminate)

    def __eq__(self, other):
        return self._key == other._key if isinstance(other, FieldDescriptor) else NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "FieldDescriptor(kind={!r}, order={!r}, indeterminate={!r})".format(*self._key)

    @classmethod
    def rationals(cls) -> "FieldDescriptor":
        return cls(RATIONALS)

    @classmethod
    def cyclotomic(cls, order: int) -> "FieldDescriptor":
        return cls(CYCLOTOMIC, order=order)

    @classmethod
    def rational_functions(cls, indeterminate: str = "q") -> "FieldDescriptor":
        return cls(RATIONAL_FUNCTIONS, indeterminate=indeterminate)

    @functools.cached_property
    def ops(self) -> PayloadOps:
        """The field's payload operations, built once per descriptor.  ``mul``
        passes a factor equal to ``one`` through, and ``inv`` returns it."""
        # every payload is (numerators, denominator), and zero has no numerators
        neg, is_zero = lambda v: (tuple(-c for c in v[0]), v[1]), lambda v: not v[0]
        if self.kind != RATIONAL_FUNCTIONS:  # the rationals are the cyclotomic field of order 1
            n, one, add = self.order or 1, ((1,), 1), _cadd
            mul, inv = lambda a, b: _cmul(a, b, n), lambda a: _cinv(a, n)
        else:
            one, add, mul, inv = (_ONE, _ONE), _radd, _rmul, _rinv
        return PayloadOps(add, lambda a, b: b if a == one else a if b == one else mul(a, b),
                          neg, is_zero, one, lambda a: a if a == one else inv(a))

    @functools.cached_property
    def _generator(self):
        """The payload of ``generator()``, built once per descriptor."""
        if self.kind == CYCLOTOMIC:
            return _creduce([0, 1], 1, self.order)
        if self.kind == RATIONAL_FUNCTIONS:
            return (0, 1), _ONE
        raise ValueError("the rationals have no generator")

    @property
    def modulus(self) -> Poly:
        assert self.kind == CYCLOTOMIC
        return _order_data(self.order)[0]

    @property
    def generator_name(self) -> Optional[str]:
        if self.kind == CYCLOTOMIC:
            return "z"
        if self.kind == RATIONAL_FUNCTIONS:
            return self.indeterminate
        return None

    # -- element constructors -----------------------------------------

    def zero(self) -> "Scalar":
        return Scalar(self, _RZERO if self.kind == RATIONAL_FUNCTIONS else _CZERO)

    def one(self) -> "Scalar":
        return Scalar(self, self.ops.one)

    def from_int(self, n: int) -> "Scalar":
        return self.from_rational(QQ(n))

    def from_rational(self, r) -> "Scalar":
        r = QQ(r)
        if self.kind == RATIONAL_FUNCTIONS:
            return Scalar(self, ((r.numerator,), (r.denominator,)) if r else _RZERO)
        return Scalar(self, ((r.numerator,), r.denominator) if r else _CZERO)

    def generator(self) -> "Scalar":
        """The root of unity ``z`` or the indeterminate, as a scalar."""
        return Scalar(self, self._generator)

    def parse(self, text: str) -> "Scalar":
        return parse_scalar(text, self)

    def __str__(self):
        if self.kind == CYCLOTOMIC:
            return f"cyclotomic({self.order})"
        if self.kind == RATIONAL_FUNCTIONS:
            return f"rational-functions({self.indeterminate})"
        return "rationals"


# ---------------------------------------------------------------------------
# scalars


class Scalar:
    """An exact field element in canonical form.

    Supports ``+ - * /``, unary ``-``, powers with integer exponents and
    exact equality.  Mixing scalars from different fields raises
    :class:`FieldMismatchError`.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: FieldDescriptor, value):
        self.field = field
        self.value = value

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return self.field.ops.is_zero(self.value)

    # -- arithmetic: lookups in the field's payload table ---------------------

    def _coerce(self, other) -> "Scalar":
        if other.__class__ is Scalar and other.field is self.field:
            return other
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldMismatchError(
                    f"cannot combine {self.field} with {other.field}")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.ops.add(self.value, other.value))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, self.field.ops.neg(self.value))

    def __sub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.ops.mul(self.value, other.value))

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        """Multiplicative inverse; raises :class:`NotInvertibleError` at zero."""
        if self.is_zero():
            raise NotInvertibleError("not invertible: zero scalar")
        return Scalar(self.field, self.field.ops.inv(self.value))

    def __truediv__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else self * other.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        f = self.field
        if f.kind == RATIONAL_FUNCTIONS:
            # num, den coprime with joint content 1 (Gauss): so are num^n, den^n
            return Scalar(f, tuple(_power(p, n, _pmul, _ONE) for p in self.value))
        return _power(self, n, Scalar.__mul__, f.one())

    # -- equality ---------------------------------------------------------

    def __eq__(self, other):
        if other.__class__ is not Scalar and isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return ((self.field is other.field or self.field == other.field)
                and self.value == other.value)

    def __hash__(self):
        # a constant hashes as its rational value, agreeing with == against int
        nums, den = self.value
        if self.field.kind == RATIONAL_FUNCTIONS:
            if len(den) > 1:
                return hash(self.value)
            den = den[0]
        return hash(QQ(nums[0], den) if nums else 0) if len(nums) <= 1 else hash(self.value)

    def __bool__(self):
        return not self.is_zero()

    # -- rendering ----------------------------------------------------------

    def __str__(self):
        return render_scalar(self)

    def __repr__(self):
        return f"Scalar({self})"


# ---------------------------------------------------------------------------
# rendering


def _over(nums: Poly, den) -> Poly:
    return nums if den == 1 else tuple(QQ(c, den) for c in nums)


def _render_poly(p: Poly, var: str, shift: int = 0) -> str:
    """Render sum of c_i * var^(i+shift), highest power first."""
    if not p:
        return "0"
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        e = i + shift
        neg = c < 0
        mag = -c if neg else c
        if e == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else f"{mag}*"
            body = head + (var if e == 1 else f"{var}^{e}")
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts)


def render_scalar(x: Scalar) -> str:
    return _render(x.value, x.field.indeterminate if x.field.kind == RATIONAL_FUNCTIONS else None)


@functools.lru_cache(MEMO_CAP)
def _render(value, var: Optional[str]) -> str:
    """The text of a payload: of Q(q) over the indeterminate ``var``, else of Q(z)."""
    if var is None:
        return _render_poly(_over(*value), "z")
    num, den = value
    lead = den[-1]  # rendered as num/lead over den/lead, monic
    if not any(den[:-1]):  # a monomial denominator: render as a Laurent polynomial
        return _render_poly(_over(num, lead), var, shift=1 - len(den))
    return f"({_render_poly(_over(num, lead), var)})/({_render_poly(_over(den, lead), var)})"


# ---------------------------------------------------------------------------
# parsing

_TOKEN_OPS = "+-*/^()"
MAX_NESTING = 100  # parentheses and unary signs; bounds the recursion
MAX_EXPONENT = 1000  # |n| in NAME^n; bounds the size of a parsed power
MAX_DEGREE = 2 * MAX_EXPONENT  # of a parsed Q(q) numerator or denominator: q^-1000 + q^1000
_BINARY = {"+": Scalar.__add__, "-": Scalar.__sub__, "*": Scalar.__mul__, "/": Scalar.__truediv__}


def _tokenize(text: str):
    tokens = []  # (kind, value, position)
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdecimal():  # the digits int() reads; isdigit() also takes '²'
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalpha() or text[j].isdecimal() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ScalarSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive descent over:  expr := term (('+'|'-') term)*,
    term := factor (('*'|'/') factor)*,  factor := '-' factor | atom,
    atom := INT ('/' INT)? | NAME ('^' ('-')? INT)? | '(' expr ')'.
    """

    def __init__(self, text: str, field: FieldDescriptor):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.field = field

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ScalarSyntaxError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> Scalar:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ScalarSyntaxError(f"unexpected trailing {tok[1]!r}", tok[2])
        return value

    def expr(self) -> Scalar:
        return self.operations("+-", self.term)

    def term(self) -> Scalar:
        return self.operations("*/", self.factor)

    def operations(self, ops: str, operand: Callable[[], Scalar]) -> Scalar:
        """operand (op operand)* for op in ops, left to right.  A result is
        refused at its operator if it holds an integer longer than Python
        renders, or over Q(q) if the sum of its operands' degrees (each the
        larger of its numerator's and denominator's), which bounds its own,
        exceeds MAX_DEGREE: that is checked before the result is formed.
        Over cyclotomic(n), a quotient is refused before the inverse is
        formed if phi(n) log2(sum |a_i|), for the coefficients a_i of the
        divisor's primitive part, exceeds the same digit limit in bits: it
        bounds the size of that part's rational norm, whose computation is
        the cost of the inverse."""
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
        value = operand()
        while self.peek()[0] in ops:
            op, _, pos = self.take()
            rhs = operand()
            if op == "/" and rhs.is_zero():
                raise ScalarSyntaxError("not invertible: division by zero", pos)
            if self.field.kind == RATIONAL_FUNCTIONS and \
                    max(map(len, value.value)) + max(map(len, rhs.value)) - 2 > MAX_DEGREE:
                raise ScalarSyntaxError(f"degree larger than {MAX_DEGREE}", pos)
            if limit and op == "/" and self.field.kind == CYCLOTOMIC:
                divisor = rhs.value[0]  # a rational one has the primitive part 1
                phi = _order_data(self.field.order)[1]
                if phi * log2(sum(map(abs, divisor)) // gcd(*divisor)) > limit * log2(10):
                    raise ScalarSyntaxError(f"norm of the divisor may exceed {limit} digits", pos)
            value = _BINARY[op](value, rhs)
            nums, den = value.value
            big = max(map(abs, nums + (den if isinstance(den, tuple) else (den,))))
            if limit and big.bit_length() > 3 * limit and big >= 10 ** limit:  # 2^3 < 10
                raise ScalarSyntaxError(f"integer longer than {limit} digits", pos)
        return value

    def factor(self) -> Scalar:
        signs = 0
        while self.peek()[0] == "-":  # iterative; a sign is one nesting level
            self.check_depth(self.depth + signs)
            self.take()
            signs += 1
        value = self.atom()
        return -value if signs % 2 else value

    def integer(self) -> int:
        _, text, pos = self.take("int")
        try:
            return int(text)
        except ValueError:  # longer than the interpreter converts
            raise ScalarSyntaxError("integer literal too long", pos) from None

    def check_depth(self, depth: int):
        if depth >= MAX_NESTING:
            raise ScalarSyntaxError(
                f"nesting deeper than {MAX_NESTING} levels", self.peek()[2])

    def atom(self) -> Scalar:
        kind, value, pos = self.peek()
        if kind == "int":
            num = self.integer()
            if self.peek()[0] == "/" and self.tokens[self.pos + 1][0] == "int":
                self.take()
                dpos = self.peek()[2]
                den = self.integer()
                if den == 0:
                    raise ScalarSyntaxError("not invertible: zero denominator", dpos)
                return self.field.from_rational(QQ(num, den))
            return self.field.from_int(num)
        if kind == "name":
            self.take()
            if value != self.field.generator_name:
                raise ScalarSyntaxError(
                    f"token {value!r} does not belong to the field {self.field}", pos)
            base = self.field.generator()
            if self.peek()[0] == "^":  # a power of q or z: degree at most MAX_DEGREE
                self.take()
                sign, epos = 1, self.peek()[2]
                if self.peek()[0] == "-":
                    self.take()
                    sign = -1
                exponent = self.integer()
                if exponent > MAX_EXPONENT:
                    raise ScalarSyntaxError(
                        f"exponent larger than {MAX_EXPONENT}", epos)
                return base ** (sign * exponent)
            return base
        if kind == "(":
            self.check_depth(self.depth)
            self.take()
            self.depth += 1
            value = self.expr()
            self.take(")")
            self.depth -= 1
            return value
        raise ScalarSyntaxError(f"unexpected token {value!r}", pos)


def parse_scalar(text: str, field: FieldDescriptor) -> Scalar:
    """Parse a scalar string into canonical form.

    >>> str(parse_scalar("-3/4", FieldDescriptor.rationals()))
    '-3/4'
    >>> str(parse_scalar("q^2 - q^-1", FieldDescriptor.rational_functions("q")))
    'q^2 - q^-1'
    >>> str(parse_scalar("z + 1", FieldDescriptor.cyclotomic(3)))
    'z + 1'
    """
    return _Parser(text, field).parse()
