import itertools

import pytest

from qhopf.errors import (
    BasisMismatchError,
    OddMapError,
    RankMismatchError,
    StructureValidationError,
)
from qhopf.graded import (
    GradedAlgebra,
    GradedBasis,
    LinearMap,
    TensorElement,
    multiplicativity,
)
from qhopf.scalars import FieldDescriptor

Q = FieldDescriptor.rationals()


def make_algebra(labels, parity, unit, products, field=Q):
    """products: {(i_label, j_label): {k_label: int-or-Scalar}}; complete table."""
    basis = GradedBasis(tuple(labels), tuple(parity), labels.index(unit))
    entries = {}
    for (a, b), out in products.items():
        for k, c in out.items():
            s = c if not isinstance(c, (int,)) else field.from_int(c)
            entries[(labels.index(a), labels.index(b), labels.index(k))] = s
    return GradedAlgebra(basis, entries, field)


@pytest.fixture(scope="module")
def z2():
    """Group algebra of Z2: basis {1, g}, g^2 = 1, everything even."""
    labels = ["1", "g"]
    prods = {("1", "1"): {"1": 1}, ("1", "g"): {"g": 1},
             ("g", "1"): {"g": 1}, ("g", "g"): {"1": 1}}
    return make_algebra(labels, [0, 0], "1", prods)


@pytest.fixture(scope="module")
def grassmann():
    """The super pair {1 even, th odd} with th^2 = 0."""
    labels = ["1", "th"]
    prods = {("1", "1"): {"1": 1}, ("1", "th"): {"th": 1},
             ("th", "1"): {"th": 1}, ("th", "th"): {}}
    return make_algebra(labels, [0, 1], "1", prods)


@pytest.fixture(scope="module")
def sweedler():
    """The 4-dimensional algebra with g^2 = 1, x^2 = 0, xg = -gx (ungraded)."""
    labels = ["1", "g", "x", "gx"]
    prods = {
        ("1", "1"): {"1": 1}, ("1", "g"): {"g": 1}, ("1", "x"): {"x": 1},
        ("1", "gx"): {"gx": 1},
        ("g", "1"): {"g": 1}, ("g", "g"): {"1": 1}, ("g", "x"): {"gx": 1},
        ("g", "gx"): {"x": 1},
        ("x", "1"): {"x": 1}, ("x", "g"): {"gx": -1}, ("x", "x"): {},
        ("x", "gx"): {},
        ("gx", "1"): {"gx": 1}, ("gx", "g"): {"x": -1}, ("gx", "x"): {},
        ("gx", "gx"): {},
    }
    return make_algebra(labels, [0, 0, 0, 0], "1", prods)


def el(alg, label):
    return alg.basis_element(alg.index_of(label))


# -- multiplication -----------------------------------------------------------


def test_multiply_z2(z2):
    g = el(z2, "g")
    assert g * g == z2.unit()


def test_multiply_sweedler_anticommutation(sweedler):
    x, g, gx = el(sweedler, "x"), el(sweedler, "g"), el(sweedler, "gx")
    assert x * g == -gx
    assert g * x == gx
    assert x * g == -(g * x)


def test_unit_law_random_elements(z2, sweedler):
    for alg in (z2, sweedler):
        y = alg.element({lab: n + 1 for n, lab in enumerate(alg.labels)})
        assert alg.unit() * y == y
        assert y * alg.unit() == y


def test_basis_mismatch(z2, grassmann):
    with pytest.raises(BasisMismatchError):
        el(z2, "g") * el(grassmann, "th")


# -- graded tensor product ------------------------------------------------------


def test_tensor_multiply_all_even(z2):
    one, g = z2.unit(), el(z2, "g")
    lhs = TensorElement.of(one, g) * TensorElement.of(g, one)
    assert lhs == TensorElement.of(g, g)


def test_tensor_multiply_koszul_sign(grassmann):
    one, th = grassmann.unit(), el(grassmann, "th")
    # (1 (x) th)(th (x) 1) = -(th (x) th): the odd legs pass each other
    assert TensorElement.of(one, th) * TensorElement.of(th, one) == \
        -TensorElement.of(th, th)
    # (th (x) 1)(th (x) 1) = th^2 (x) 1 = 0
    assert (TensorElement.of(th, one) * TensorElement.of(th, one)).is_zero()


def test_tensor_multiply_associative(z2, grassmann, sweedler):
    for alg in (z2, grassmann, sweedler):
        pool = [alg.unit(),
                alg.element({lab: n + 1 for n, lab in enumerate(alg.labels)}),
                alg.element({alg.labels[-1]: 3, alg.labels[0]: -2})]
        tensors = [TensorElement.of(a, b) for a in pool for b in pool][:5]
        for x, y, w in itertools.product(tensors, repeat=3):
            assert (x * y) * w == x * (y * w)


def test_rank_mismatch(z2):
    g = el(z2, "g")
    with pytest.raises(RankMismatchError):
        TensorElement.of(g, g) * TensorElement.of(g, g, g)


# -- permutations ------------------------------------------------------------


def test_permute_even_swap(z2):
    one, g = z2.unit(), el(z2, "g")
    assert TensorElement.of(one, g).swap() == TensorElement.of(g, one)


def test_permute_odd_swap(grassmann):
    th = el(grassmann, "th")
    assert TensorElement.of(th, th).swap() == -TensorElement.of(th, th)


def test_permute_round_trip(grassmann):
    one, th = grassmann.unit(), el(grassmann, "th")
    x = TensorElement.of(th, one, th) + TensorElement.of(one, th, th).scale(2)
    perm = (1, 2, 0)
    inverse = tuple(perm.index(j) for j in range(3))
    assert x.permute(perm).permute(inverse) == x


def test_permute_group_action(grassmann):
    one, th = grassmann.unit(), el(grassmann, "th")
    x = TensorElement.of(th, th, one) + TensorElement.of(th, one, th).scale(3)
    for sigma in itertools.permutations(range(3)):
        for tau in itertools.permutations(range(3)):
            composed = tuple(sigma[tau[j]] for j in range(3))
            assert x.permute(sigma).permute(tau) == x.permute(composed)


# -- multiplication map --------------------------------------------------------


def test_merge_examples(z2, grassmann):
    g, th = el(z2, "g"), el(grassmann, "th")
    assert TensorElement.of(g, g).merge(0, 1) == TensorElement.of(z2.unit())
    assert TensorElement.of(th, th).merge(0, 1).is_zero()


def test_merge_non_adjacent_refused(z2):
    g = el(z2, "g")
    with pytest.raises(RankMismatchError):
        TensorElement.of(g, g, g).merge(0, 2)


def test_merge_equals_multiply(z2, sweedler):
    for alg in (z2, sweedler):
        x = alg.element({alg.labels[-1]: 2, alg.labels[0]: 1})
        y = alg.element({alg.labels[1]: -1, alg.labels[0]: 5})
        assert TensorElement.of(x, y).merge(0, 1) == TensorElement.of(x * y)


def test_merge_all_collapses_to_product(sweedler):
    x = sweedler.element({"g": 1, "x": 2})
    y = sweedler.element({"1": 1, "gx": -1})
    w = sweedler.element({"g": 3})
    assert TensorElement.of(x, y, w).merge_all() == x * y * w


# -- maps on legs ------------------------------------------------------------------


def coproduct_z2(z2):
    one = TensorElement.of(z2.unit(), z2.unit())
    gg = TensorElement.of(el(z2, "g"), el(z2, "g"))
    return LinearMap(z2, (z2, z2), [one, gg], name="coproduct")


def counit_z2(z2):
    one = z2.field.one()
    return LinearMap(z2, (), [TensorElement((), {(): one}),
                              TensorElement((), {(): one})], name="counit")


def test_apply_counit_on_leg(z2):
    eps = counit_z2(z2)
    phi = TensorElement.unit((z2, z2, z2))
    assert phi.apply_maps([(1, eps)]) == TensorElement.unit((z2, z2))


def test_apply_coproduct_on_leg(z2):
    delta = coproduct_z2(z2)
    assert TensorElement.unit((z2, z2)).apply_maps([(0, delta)]) == \
        TensorElement.unit((z2, z2, z2))


def test_even_maps_on_distinct_legs_commute(z2):
    delta, eps = coproduct_z2(z2), counit_z2(z2)
    g = el(z2, "g")
    x = TensorElement.of(g, z2.unit(), g) + TensorElement.of(g, g, g).scale(2)
    a = x.apply_maps([(0, delta)]).apply_maps([(3, eps)])
    b = x.apply_maps([(2, eps)]).apply_maps([(0, delta)])
    assert a == b


def test_odd_map_refused(grassmann):
    th = el(grassmann, "th")
    odd = LinearMap(grassmann, (grassmann,),
                    [TensorElement.of(th), TensorElement.of(grassmann.unit())],
                    name="odd")
    assert not odd.parity_preserving
    with pytest.raises(OddMapError):
        TensorElement.of(th, th).apply_maps([(0, odd)])


# -- embedding ------------------------------------------------------------------


def test_embed_unit_fill(z2):
    g = el(z2, "g")
    r = TensorElement.of(g, g)
    legs3 = (z2, z2, z2)
    assert r.embed((0, 2), legs3) == TensorElement.of(g, z2.unit(), g)


# -- printed elements and tensors -------------------------------------------------------


@pytest.mark.parametrize("field, text, printed", [
    (FieldDescriptor.cyclotomic(3), "z + 1", "(z + 1)*K"),
    (FieldDescriptor.cyclotomic(3), "1/3*z - 2/3", "(1/3*z - 2/3)*K"),
    (Q, "2", "2*K"),
    (Q, "-1/2", "-1/2*K"),
    (FieldDescriptor.cyclotomic(3), "-z", "-z*K"),
    (FieldDescriptor.rational_functions("q"), "(q + 1)/(q - 1)", "(q + 1)/(q - 1)*K"),
    (FieldDescriptor.rational_functions("q"), "q^2 - q", "(q^2 - q)*K"),
])
def test_a_multi_term_coefficient_is_printed_in_parentheses(field, text, printed):
    A = make_algebra(["1", "K"], [0, 0], "1",
                     {("1", "1"): {"1": 1}, ("1", "K"): {"K": 1},
                      ("K", "1"): {"K": 1}, ("K", "K"): {"1": 1}}, field)
    c = field.parse(text)
    K = A.basis_element(1)
    assert repr(K.scale(c)) == printed
    assert repr(K.scale(c) + A.unit()) == f"1*1 + {printed}"
    assert repr(TensorElement.of(A.unit(), K).scale(c)) == printed.replace("*K", "*[1(x)K]")


# -- antihomomorphism check ----------------------------------------------------------


def identity(algebra):
    return LinearMap(algebra, (algebra,),
                     [TensorElement((algebra,), {(i,): algebra.field.one()})
                      for i in range(algebra.dim)], name="id")


# The graded rule S(ab) = (-1)^{[a][b]} S(b) S(a) on basis pairs; every map
# below fixes 1, so a runs over the generators (sound=True).


def test_antihom_identity_on_z2(z2):
    assert multiplicativity(z2, identity(z2), True, anti=True).passed


def test_antihom_sweedler(sweedler):
    # S(g) = g, S(x) = -gx, S(gx) = x
    images = {"1": {"1": 1}, "g": {"g": 1}, "x": {"gx": -1}, "gx": {"x": 1}}
    s = LinearMap(sweedler, (sweedler,),
                  [TensorElement.of(sweedler.element(images[lab]))
                   for lab in sweedler.labels], name="antipode")
    assert multiplicativity(sweedler, s, True, anti=True).passed


def test_antihom_grassmann(grassmann):
    # S(th) = -th; the pair (th, th) needs the Koszul sign to pass
    s = LinearMap(grassmann, (grassmann,),
                  [TensorElement.of(grassmann.unit()),
                   TensorElement.of(-el(grassmann, "th"))], name="antipode")
    assert multiplicativity(grassmann, s, True, anti=True).passed


def test_antihom_failure_reported(sweedler):
    bad = identity(sweedler)  # identity is not an antihomomorphism on H4
    check = multiplicativity(sweedler, bad, True, anti=True)
    assert not check.passed and check.witness is not None


# -- construction-time validation -----------------------------------------------------


def test_associativity_validated():
    labels = ["1", "a"]
    prods = {("1", "1"): {"1": 1}, ("1", "a"): {"a": 1},
             ("a", "1"): {"a": 1}, ("a", "a"): {"a": 1, "1": 1}}
    make_algebra(labels, [0, 0], "1", prods)  # fine: commutative, associative
    bad = dict(prods)
    bad[("a", "a")] = {"1": 1}
    bad[("a", "1")] = {"a": 1, "1": 1}  # breaks the unit law
    with pytest.raises(StructureValidationError):
        make_algebra(labels, [0, 0], "1", bad)


def test_parity_compatibility_validated():
    labels = ["1", "th"]
    prods = {("1", "1"): {"1": 1}, ("1", "th"): {"th": 1},
             ("th", "1"): {"th": 1}, ("th", "th"): {"th": 1}}  # odd*odd -> odd
    with pytest.raises(StructureValidationError):
        make_algebra(labels, [0, 1], "1", prods)


def test_parity_queries(sweedler, grassmann):
    assert el(sweedler, "x").parity() == 0          # H4 is ungraded
    assert el(grassmann, "th").parity() == 1
    mixed = grassmann.unit() + el(grassmann, "th")
    assert mixed.parity() is None
    assert mixed.even_part() == grassmann.unit()
    assert mixed.odd_part() == el(grassmann, "th")
