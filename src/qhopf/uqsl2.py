"""A 27-dimensional small quantum group at a primitive cube root of unity.

Generators E, F, K with

    K E = q^2 E K,   K F = q^{-2} F K,   E F - F E = (K - K^{-1})/(q - q^{-1}),
    E^3 = F^3 = 0,   K^3 = 1,            q = z  (primitive cube root of 1),

ordered basis E^a F^b K^c, 0 <= a, b, c < 3, over the cyclotomic field of
order 3.  The multiplication table is the generators' left action on that
basis, read off the relations (``_build_algebra``): the product of two basis
elements applies K, F and E to the right factor as the left one spells them,
on payloads.  The Hopf structure used here is

    coproduct(E) = E (x) K + 1 (x) E,    coproduct(F) = F (x) 1 + K^{-1} (x) F,
    antipode(E) = -E K^{-1},             antipode(F) = -K F,

with trivial coassociator and alpha = beta = 1 (``builders.hopf_structure``).
The R-matrix is chosen among the standard exponent conventions

    R = (1/3) sum_{n,i,j} (q - q^{-1})^n / [n]! *
            q^{g n(n-1)/2 + d n(i-j) + c i j}  E^n K^i (x) F^n K^j

for small (g, d, c) by ``builders.search_r``, the built-ins' one R-matrix
search: the first candidate that intertwines the coproduct with its flip,
has an inverse and passes the generic verifier is kept, and that
verification is the entry's.
"""

from __future__ import annotations

import itertools
import operator
from functools import cache

from .builders import hopf_structure, search_r
from .graded import (
    GradedAlgebra,
    GradedBasis,
    LinearMap,
    TensorElement,
    _sum,
    linear_form,
)
from .representations import trivial_representation
from .scalars import FieldDescriptor, QQ, Scalar, _power
from .structfile import CatalogEntry
from .twisting import identity_twistor

C3 = FieldDescriptor.cyclotomic(3)
Q = C3.generator()
LAM = (Q - Q.inv()).inv()  # 1/(q - q^{-1})


def _monomial_label(a: int, b: int, c: int) -> str:
    parts = []
    for letter, power in (("E", a), ("F", b), ("K", c)):
        if power == 1:
            parts.append(letter)
        elif power > 1:
            parts.append(f"{letter}^{power}")
    return "*".join(parts) if parts else "1"


def _powers(act, v):
    """[v, act(v), act(act(v))]: v under the powers 0, 1 and 2 of a generator."""
    out = [v]
    for _ in range(2):
        out.append(act(out[-1]))
    return out


@cache
def _build_algebra() -> GradedAlgebra:
    """The product e_i e_j for e_i = E^a F^b K^c is the left action of K c
    times, then F b times, then E a times, on e_j: elements are payload
    dicts keyed by (a, b, c), and each partial image serves every longer
    word that ends in it.  By the relations,

        K E^a F^b K^c = q^(2a - 2b) E^a F^b K^(c+1),
        E E^a F^b K^c = E^(a+1) F^b K^c            (zero at a + 1 = 3),
        F E^a F^b K^c = E^a F^(b+1) K^c            (zero at b + 1 = 3)
            + sum over j < a and p = 1, 2 of s_p q^(2pj - 2pb) E^(a-1) F^b K^(c+p),

    with (s_1, s_2) = (-lam, lam): F passes the a E's by F E = E F - lam K +
    lam K^2, and each s_p K^p made at the E with j E's to its right passes
    them (q^(2pj)) and the b F's (q^(-2pb))."""
    ops = C3.ops
    mul, is_zero = ops.mul, ops.is_zero
    qp = [(Q ** k).value for k in range(3)]
    f_terms = {(a, b, p): (s * sum((Q ** (2 * p * (j - b)) for j in range(a)), C3.zero())).value
               for a in (1, 2) for b in range(3) for p, s in ((1, -LAM), (2, LAM))}

    def act_k(v):
        return {(a, b, (c + 1) % 3): mul(qp[(2 * a - 2 * b) % 3], x)
                for (a, b, c), x in v.items()}

    def act_e(v):
        return {(a + 1, b, c): x for (a, b, c), x in v.items() if a < 2}

    def act_f(v):
        terms = []
        for (a, b, c), x in v.items():
            if b < 2:
                terms.append(((a, b + 1, c), x))
            if a:
                terms.extend(((a - 1, b, (c + p) % 3), mul(f_terms[a, b, p], x)) for p in (1, 2))
        return {t: x for t, x in _sum(ops.add, terms).items() if not is_zero(x)}

    triples = list(itertools.product(range(3), repeat=3))
    labels = tuple(_monomial_label(*t) for t in triples)
    index = {t: i for i, t in enumerate(triples)}
    basis = GradedBasis(labels, (0,) * 27, index[(0, 0, 0)])
    entries = {}
    for t2, j in index.items():
        for c, kv in enumerate(_powers(act_k, {t2: ops.one})):
            for b, fkv in enumerate(_powers(act_f, kv)):
                for a, efkv in enumerate(_powers(act_e, fkv)):
                    i = index[a, b, c]
                    for t3, x in efkv.items():
                        entries[i, j, index[t3]] = Scalar(C3, x)
    return GradedAlgebra(basis, entries, C3, name="uqsl2(3)")


def _build_maps(A: GradedAlgebra):
    E, F, K, Kinv = (A.element({label: 1}) for label in ("E", "F", "K", "K^2"))
    one = A.unit()
    unit2 = TensorElement.unit((A, A))

    dE = TensorElement.of(E, K) + TensorElement.of(one, E)
    dF = TensorElement.of(F, one) + TensorElement.of(Kinv, F)
    dK = TensorElement.of(K, K)
    cop_images = []
    eps_values = []
    s_images = []
    sE = -(E * Kinv)
    sF = -(K * F)
    sK = Kinv
    for a, b, c in itertools.product(range(3), repeat=3):
        cop_images.append(_power(dK, c, operator.mul, _power(
            dF, b, operator.mul, _power(dE, a, operator.mul, unit2))))
        eps_values.append(C3.one() if (a == 0 and b == 0) else C3.zero())
        # antihomomorphism on the ordered word: S(K)^c S(F)^b S(E)^a
        s_images.append(TensorElement.of(
            _power(sE, a, operator.mul, _power(
                sF, b, operator.mul, _power(sK, c, operator.mul, one)))))
    coproduct = LinearMap(A, (A, A), cop_images, name="coproduct")
    counit = linear_form(A, eps_values, name="counit")
    antipode = LinearMap(A, (A,), s_images, name="antipode")
    return coproduct, counit, antipode


def _r_candidate(A: GradedAlgebra, g: int, d: int, c: int) -> TensorElement:
    third = C3.from_rational(QQ(1, 3))
    qfact = [C3.one(), C3.one(), -C3.one()]  # [0]!, [1]!, [2]! at q = z
    terms = []
    for n in range(3):
        base = ((Q - Q.inv()) ** n) * qfact[n].inv() * Q ** (g * (n * (n - 1) // 2))
        for i in range(3):
            for j in range(3):
                terms.append(((A.index_of(_monomial_label(n, 0, i)),
                               A.index_of(_monomial_label(0, n, j))),
                              third * base * Q ** (d * n * (i - j) + c * i * j)))
    return TensorElement.from_terms((A, A), terms)


def build_small_uqsl2() -> CatalogEntry:
    A = _build_algebra()
    coproduct, counit, antipode = _build_maps(A)
    H0 = hopf_structure(A, coproduct, counit, antipode, "small-uqsl2")
    H = search_r(H0, (_r_candidate(A, g, d, c) for g, d, c in
                      itertools.product((0, 1, 2), (1, 2, 0), (1, 2))),
                 "the exponent conventions (g, d, c)")
    twistors = {"identity": identity_twistor(H)}
    reps = {"trivial": trivial_representation(H.counit)}
    return CatalogEntry("small-uqsl2", H, twistors, reps,
                        notes="small quantum group at a primitive cube root of "
                              "unity; R-matrix convention selected by exact "
                              "verification")
