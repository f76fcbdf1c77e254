"""Plain list-matrix arithmetic, term-by-term tensor arithmetic, a Q(q)
kernel on Fraction coefficients, a word rewrite for small-uqsl2 and a
full-basis solver for the canonical elements: independent references for
the tests, which the engine itself never uses."""

from fractions import Fraction
from functools import cache, partial

from qhopf.errors import NoSolutionError
from qhopf.graded import AlgebraElement
from qhopf.linalg import nullspace, rows_of, solve_affine
from qhopf.quasihopf import (_phi_sandwich, _phi_sandwich_inv, adjoint_action,
                             anti_adjoint_action, defect)
from qhopf.scalars import FieldDescriptor


def _mat_mul(a, b, field):
    """Plain product of list matrices of scalars over ``field``."""
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = [[field.zero() for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for t in range(k):
            c = a[i][t]
            if c.is_zero():
                continue
            for j in range(m):
                if not b[t][j].is_zero():
                    out[i][j] = out[i][j] + c * b[t][j]
    return out


# -- term-by-term Scalar arithmetic for the sparse kernels ----------------------------
#
# Each function below sums one Scalar product per term into a dict and drops
# the zero sums at the end, so the payload kernels of graded.py and linalg.py
# can be checked against plain field arithmetic.


def _nonzero(acc):
    return {k: v for k, v in acc.items() if not v.is_zero()}


def _add(acc, key, c):
    acc[key] = acc[key] + c if key in acc else c


def graded_product(x, y):
    """Coefficients of the tensor product x y.  The sign of a term with keys
    K (left) and L (right) is (-1)^(sum over i < j of [L_i][K_j])."""
    legs, out = x.legs, {}
    for kx, cx in x.coeffs.items():
        for ky, cy in y.coeffs.items():
            sign = sum(legs[i].parity[ky[i]] * legs[j].parity[kx[j]]
                       for i in range(len(legs)) for j in range(i + 1, len(legs)))
            terms = {(): cx * cy * (-1) ** sign}
            for t, leg in enumerate(legs):
                terms = {key + (k,): c * e for key, c in terms.items()
                         for k, e in leg.mul_basis(kx[t], ky[t]).items()}
            for key, c in terms.items():
                _add(out, key, c)
    return _nonzero(out)


def element_product(x, y):
    """Coefficients of the algebra product x y."""
    out = {}
    for i, c in x.coeffs.items():
        for j, d in y.coeffs.items():
            for k, e in x.algebra.mul_basis(i, j).items():
                _add(out, k, c * d * e)
    return _nonzero(out)


def merged(t, i):
    """Coefficients of t with legs i and i + 1 multiplied together."""
    out = {}
    for key, c in t.coeffs.items():
        for k, e in t.legs[i].mul_basis(key[i], key[i + 1]).items():
            _add(out, key[:i] + (k,) + key[i + 2:], c * e)
    return _nonzero(out)


def mapped(t, leg, m):
    """Coefficients of t with the linear map m applied to one leg."""
    out = {}
    for key, c in t.coeffs.items():
        for ikey, d in m.images[key[leg]].coeffs.items():
            _add(out, key[:leg] + ikey + key[leg + 1:], c * d)
    return _nonzero(out)


def linear_image(m, x):
    """Coefficients of m(x) = sum of x_i m(e_i), keyed like the image tensors."""
    out = {}
    for i, c in x.coeffs.items():
        for key, d in m.images[i].coeffs.items():
            _add(out, key, c * d)
    return _nonzero(out)


def tensor_of(*factors):
    """Coefficients of the plain tensor product a1 (x) a2 (x) ... of elements."""
    out = {(): factors[0].field.one()}
    for f in factors:
        out = {key + (k,): c * e for key, c in out.items() for k, e in f.coeffs.items()}
    return _nonzero(out)


def embedded(t, slots, legs):
    """Coefficients of t with its leg n at slot slots[n] of the legs, units
    elsewhere."""
    out = {}
    for key, c in t.coeffs.items():
        terms = {(): c}
        for pos, leg in enumerate(legs):
            factor = ({key[slots.index(pos)]: leg.field.one()} if pos in slots
                      else leg.unit_coeffs)
            terms = {k + (b,): d * e for k, d in terms.items() for b, e in factor.items()}
        for k, d in terms.items():
            _add(out, k, d)
    return _nonzero(out)


def element_coeffs(algebra, coeffs):
    """Coefficients of the sum of c e_k over the items k: c of coeffs, where k
    is a basis index or label and c a Scalar or an int."""
    out = {}
    for k, c in coeffs.items():
        _add(out, k if isinstance(k, int) else algebra.labels.index(k),
             algebra.field.from_int(c) if isinstance(c, int) else c)
    return _nonzero(out)


def tensor_sum(x, y, sign=1):
    """Coefficients of x + y, or of x - y with sign -1, for tensors of any rank."""
    out = dict(x.coeffs)
    for key, c in y.coeffs.items():
        _add(out, key, c if sign == 1 else -c)
    return _nonzero(out)


def dense_rref(rows, cols, field):
    """Gauss-Jordan on dense rows of width cols, pivoting on the first nonzero
    entry; returns the nonzero reduced rows and their pivot columns."""
    m = [[row.get(j, field.zero()) for j in range(cols)] for row in rows]
    pivots, r = [], 0
    for c in range(cols):
        p = next((i for i in range(r, len(m)) if not m[i][c].is_zero()), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = m[r][c].inv()
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


# -- the canonical elements, every condition at every basis element -----------------


def condition_rows(A, idx, conditions, rhs=None):
    """Sparse rows of the linear conditions cond(x) for cond in conditions,
    in the coordinates idx of x.  Rows are labelled (condition number, basis
    index); a right-hand side labelled the same way is column len(idx)."""
    columns = [{(n, k): c for n, cond in enumerate(conditions)
                for k, c in cond(A.basis_element(j)).coeffs.items()} for j in idx]
    return rows_of(columns + ([rhs] if rhs else []))


def canonical_elements(H):
    """The (alpha, beta) pairs in the even coordinates: beta from the
    adjoint defects at every basis element, then per beta alpha from the
    anti-adjoint defects at every basis element and both coassociator
    sandwiches equal to 1, as one affine system.  Not re-verified."""
    A = H.algebra
    even_idx = [i for i in range(A.dim) if A.parity[i] == 0]
    ncols = len(even_idx)

    def element_from(vec):
        return AlgebraElement(A, dict(zip(even_idx, vec)))

    beta_space = nullspace(condition_rows(A, even_idx, [
        partial(defect, H, adjoint_action, i) for i in range(A.dim)]), ncols, A.field)
    alpha_conditions = [partial(defect, H, anti_adjoint_action, i) for i in range(A.dim)]
    rhs = {(A.dim + n, k): c for n in (0, 1) for k, c in A.unit().coeffs.items()}
    results = []
    for bvec in beta_space:
        beta = element_from(bvec)
        particular, kernel = solve_affine(condition_rows(
            A, even_idx, alpha_conditions + [
                lambda a: _phi_sandwich_inv(H, beta, a),
                lambda a: _phi_sandwich(H, a, beta)], rhs), ncols, A.field)
        if particular is None:
            continue
        for avec in [particular] + [[p + h for p, h in zip(particular, hvec)]
                                    for hvec in kernel]:
            results.append((element_from(avec), beta))
    if not results:
        raise NoSolutionError(
            "no canonical elements: the data does not extend to a quasi-Hopf structure")
    return results


# -- Q(q) on Fraction coefficients: Euclid over Q, monic denominators --------------
#
# A rational function is (num, den): Fraction tuples, constant term first, no
# trailing zeros, coprime, den monic; zero is ((), (1,)).  Sums and products
# cancel across reduced operands as in Henrici, with gcds by Euclid over Q.

_F1 = (Fraction(1),)


def _ptrim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _padd(a, b):
    n = max(len(a), len(b))
    return _ptrim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n))


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return _ptrim(out)


def _pdivmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        f = a[-1] / b[-1]
        off = len(a) - len(b)
        q[off] = f
        for i, c in enumerate(b):
            a[off + i] -= f * c
        while a and a[-1] == 0:
            a.pop()
    return _ptrim(q), _ptrim(a)


def _pgcd(a, b):
    """The monic gcd of two polynomials, not both zero."""
    while b:
        a, b = b, _pdivmod(a, b)[1]
    return tuple(c / a[-1] for c in a)


def _pquo(a, b):  # exact: b divides a
    return _pdivmod(a, b)[0]


def ratfun(num, den):
    """The reduced payload of num/den from coefficient lists (den nonzero)."""
    num, den = _ptrim(Fraction(c) for c in num), _ptrim(Fraction(c) for c in den)
    if not num:
        return (), _F1
    g = _pgcd(num, den)
    num, den = _pquo(num, g), _pquo(den, g)
    return tuple(c / den[-1] for c in num), tuple(c / den[-1] for c in den)


def ratfun_mul(x, y):
    """Henrici's product: cancel n1 with d2 and n2 with d1."""
    (n1, d1), (n2, d2) = x, y
    if not n1 or not n2:
        return (), _F1
    g1, g2 = _pgcd(n1, d2), _pgcd(n2, d1)
    return (_pmul(_pquo(n1, g1), _pquo(n2, g2)),
            _pmul(_pquo(d1, g2), _pquo(d2, g1)))


def ratfun_add(x, y):
    """Henrici's sum: with g = gcd(d1, d2) only gcd(t, g) can cancel."""
    (n1, d1), (n2, d2) = x, y
    if not n1 or not n2:
        return x if n1 else y
    g = _pgcd(d1, d2)
    e1, e2 = _pquo(d1, g), _pquo(d2, g)
    t = _padd(_pmul(n1, e2), _pmul(n2, e1))
    if not t:
        return (), _F1
    h = _pgcd(t, g)
    return _pquo(t, h), _pmul(_pmul(e1, e2), _pquo(g, h))


def ratfun_inv(x):
    """(den, num) over num's leading coefficient (x nonzero)."""
    return tuple(tuple(c / x[0][-1] for c in p) for p in x[::-1])


# -- small-uqsl2 by rewriting words in E, F, K -------------------------------------
#
# A word is rewritten into normal order E^a F^b K^c one adjacent swap at a time,
# by KE = q^2 EK, KF = q^-2 FK and FE = EF - lam K + lam K^2, then truncated by
# E^3 = F^3 = 0 and K^3 = 1.  The engine builds its table from the generators'
# action on normal-ordered elements instead.

_RANK = {"E": 0, "F": 1, "K": 2}
_C3 = FieldDescriptor.cyclotomic(3)
_Q = _C3.generator()
_LAM = (_Q - _Q.inv()).inv()  # 1/(q - q^-1)


def uqsl2_word(a, b, c):
    return ("E",) * a + ("F",) * b + ("K",) * c


@cache
def uqsl2_reduce(word):
    """The word in E, F, K rewritten in normal order E^a F^b K^c, as exact
    cyclotomic coefficients keyed by (a, b, c)."""
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if _RANK[a] <= _RANK[b]:
            continue
        head, tail = word[:i], word[i + 2:]
        if (a, b) == ("K", "E"):
            return _scaled(uqsl2_reduce(head + ("E", "K") + tail), _Q ** 2)
        if (a, b) == ("K", "F"):
            return _scaled(uqsl2_reduce(head + ("F", "K") + tail), _Q ** -2)
        # F E = E F - lam K + lam K^2
        out = {}
        _accumulate(out, uqsl2_reduce(head + ("E", "F") + tail), _C3.one())
        _accumulate(out, uqsl2_reduce(head + ("K",) + tail), -_LAM)
        _accumulate(out, uqsl2_reduce(head + ("K", "K") + tail), _LAM)
        return out
    # normal ordered: truncate powers
    a, b, c = (word.count(letter) for letter in "EFK")
    if a >= 3 or b >= 3:
        return {}
    return {(a, b, c % 3): _C3.one()}


def _scaled(table, s):
    return {k: s * v for k, v in table.items()}


def _accumulate(acc, table, s):
    for k, v in table.items():
        _add(acc, k, s * v)
