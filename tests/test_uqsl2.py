"""The small-uqsl2 product table: built from the generators' action, it
equals the word rewrite of tests/reference.py on every basis product and
satisfies the defining relations in closed form."""

import itertools

import pytest

from qhopf.scalars import FieldDescriptor
from qhopf.uqsl2 import _build_algebra
from reference import uqsl2_reduce, uqsl2_word

TRIPLES = list(itertools.product(range(3), repeat=3))  # E^a F^b K^c in basis order


@pytest.fixture(scope="module")
def algebra():
    return _build_algebra()


def test_the_table_equals_the_word_rewrite(algebra):
    for (i, t1), (j, t2) in itertools.product(enumerate(TRIPLES), repeat=2):
        expected = {TRIPLES.index(t): c.value
                    for t, c in uqsl2_reduce(uqsl2_word(*t1) + uqsl2_word(*t2)).items()
                    if not c.is_zero()}
        assert {k: c.value for k, c in algebra.mul_basis(i, j).items()} == expected, (t1, t2)


def test_the_defining_relations_hold(algebra):
    """KE = q^2 EK, KF = q^-2 FK, EF - FE = (K - K^-1)/(q - q^-1), E^3 = F^3 = 0
    and K^3 = 1 at q = z, a primitive cube root of unity, with K^-1 = K^2."""
    C3 = FieldDescriptor.cyclotomic(3)
    q, lam = C3.parse("z"), C3.parse("1/(z - z^-1)")
    E, F, K = (algebra.basis_element(algebra.index_of(g)) for g in "EFK")
    one = algebra.unit()
    assert K * E == (E * K).scale(q * q)
    assert K * F == (F * K).scale(q.inv() * q.inv())
    assert E * F - F * E == (K - K * K).scale(lam)
    assert (E * E * E).is_zero() and (F * F * F).is_zero()
    assert K * K * K == one
    for i, (a, b, c) in enumerate(TRIPLES):  # the basis is the ordered monomials
        word = one
        for g, n in ((E, a), (F, b), (K, c)):
            for _ in range(n):
                word = word * g
        assert word == algebra.basis_element(i)
