"""Quantifying over a generating set gives the same answers as the basis.

``GradedAlgebra.generators()`` is the set G the engine quantifies over once
the closure facts of a check have passed.  The reference ("full") runs
below make every basis element a generator, which turns each reduced loop
back into the plain basis loop; reports, witnesses and solution spaces
must not change.
"""

import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

import qhopf
from qhopf.casimir import identity_suite
from qhopf.catalog import load_builtin, make_algebra
from qhopf.cli import main
from qhopf.errors import NoSolutionError, StructureValidationError
from qhopf.graded import BaseAlgebra, LinearMap, TensorElement
from qhopf.invariants import (
    center,
    invariant_bilinear_forms,
    invariant_linear_forms,
    invariant_maps,
    invariant_subspace,
    is_central,
    pseudo_invariant_linear_forms,
    pseudo_invariant_subspace,
    solve_canonical_elements,
)
from qhopf.linalg import nullspace, rref
from qhopf.quasihopf import (
    _closed,
    reindex,
    verify_antipode_axioms,
    verify_quasi_bialgebra,
    verify_quasi_ybe,
    verify_quasitriangular,
)
from qhopf.structfile import load_entry
from qhopf.twisting import twist_structure
from reference import canonical_elements

DATA = Path(qhopf.__file__).parent / "data"
RATIONAL = ["z2-group", "z2-cocycle", "sweedler-h4", "grassmann-theta",
            "sweedler-twisted"]
EXPECTED = {"z2-group": ["g"], "z2-cocycle": ["g"], "sweedler-h4": ["g", "x"],
            "grassmann-theta": ["th"], "sweedler-twisted": ["g", "x"],
            "small-uqsl2": ["K", "F", "E"]}


@pytest.fixture(scope="module")
def uqsl2():
    return load_entry(str(DATA / "small-uqsl2.qh"))


@pytest.fixture
def full(monkeypatch):
    """Make every basis element a generator: reduced loops become basis loops."""
    def use_basis():
        monkeypatch.setattr(BaseAlgebra, "generators",
                            lambda self: tuple(range(self.dim)))
    return use_basis


def _entry(name, uqsl2):
    return uqsl2 if name == "small-uqsl2" else load_builtin(name)


def _words_span(A, gens, extra=()):
    """Rank of the right-nested words over gens, with the extra rows,
    grown one word length at a time (keeping the words that add rank)."""
    rows = rref([A.unit().coeffs] + list(extra), A.dim)[0]
    level = [A.unit()]
    while level:
        grown = []
        for w in (A.basis_element(g) * w for g in gens for w in level):
            bigger = rref(rows + [w.coeffs], A.dim)[0]
            if len(bigger) > len(rows):
                rows = bigger
                grown.append(w)
        level = grown
    return len(rows)


# -- the generating set ----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_generators_are_the_named_set_and_span(name, uqsl2):
    A = _entry(name, uqsl2).structure.algebra
    gens = A.generators()
    assert [A.labels[i] for i in gens] == EXPECTED[name]
    assert A.generators() is gens  # memoised
    assert _words_span(A, gens) == A.dim
    for k, g in enumerate(gens):  # e_g is not a word over the earlier ones
        assert _words_span(A, gens[:k], [{g: A.field.one()}]) > _words_span(A, gens[:k])


# -- reports ---------------------------------------------------------------------------


def _reports(H):
    """Every check report of a fresh copy (empty memo), as --json would print
    it, plus the loop domain of each check."""
    H = H.with_data()
    reports = [verify_quasi_bialgebra(H), verify_antipode_axioms(H), identity_suite(H)]
    if H.r is not None:
        reports += [verify_quasitriangular(H), verify_quasi_ybe(H)]
    over = {c.axiom: c.over for r in reports for c in r.checks}
    return [r.as_dict() for r in reports], over


def _assert_same_reports(H, full):
    reduced, over = _reports(H)
    full()
    reference, _ = _reports(H)
    assert json.dumps(reduced) == json.dumps(reference)
    return reduced, over


@pytest.mark.parametrize("name", RATIONAL)
def test_builtin_reports_agree_and_use_generators(name, full):
    H = load_builtin(name).structure
    reports, over = _assert_same_reports(H, full)
    assert all(r["passed"] for r in reports)
    for axiom in ("coproduct-homomorphism", "quasi-coassociativity", "antipode-alpha",
                  "counit-antipode", "antipode-antihomomorphism"):
        assert over[axiom] == "generators"
    assert over["exchange-phi-beta"] == "generators"
    if H.r is not None:
        assert over["u-su-central"] == "generators"


EXCHANGE = ("exchange-phi-beta", "exchange-phi-alpha", "exchange-phiinv-alpha",
            "exchange-phiinv-beta")


def test_uqsl2_exchange_identities_use_the_generators(uqsl2):
    report = identity_suite(uqsl2.structure.with_data())
    for axiom in EXCHANGE:
        check = report.find(axiom)
        assert check.passed and (check.over, check.size) == ("generators", 3)


def _with_coproduct(H, label, extra):
    A = H.algebra
    images = list(H.coproduct.images)
    images[A.index_of(label)] = images[A.index_of(label)] + extra
    return H.with_data(coproduct=LinearMap(A, (A, A), images, name="coproduct"))


def _mutants():
    sweedler = load_builtin("sweedler-h4").structure
    A = sweedler.algebra
    gx, one = A.basis_element(A.index_of("gx")), A.unit()
    r = dict(sweedler.r.coeffs)
    key = sorted(r)[-1]
    r[key] = -r[key]
    cocycle = load_builtin("z2-cocycle").structure
    phi = dict(cocycle.phi.coeffs)
    unit_key = next(iter(cocycle.unit_tensor(3).coeffs))
    phi[unit_key] = phi[unit_key] + cocycle.algebra.field.from_rational(Fraction(1, 3))
    grassmann = load_builtin("grassmann-theta").structure
    twisted = load_builtin("sweedler-twisted").structure
    T = twisted.algebra
    G = grassmann.algebra
    th = G.basis_element(G.index_of("th"))
    return {
        # Delta(gx) breaks only at a non-generator
        "coproduct": _with_coproduct(sweedler, "gx", TensorElement.of(gx, one)),
        "alpha": sweedler.with_data(alpha=one + gx),
        "r": sweedler.with_data(r=TensorElement(sweedler.r.legs, r)),
        "phi": cocycle.with_data(phi=TensorElement(cocycle.phi.legs, phi)),
        # phi phi^-1 = 1 + th(x)th(x)th: quasi-coassociativity holds at th
        # and fails only at 1, which the generators do not reach
        "phi-inv": grassmann.with_data(
            phi_inv=grassmann.phi_inv + TensorElement.of(th, th, th)),
        # Delta(1) = 1(x)1 + th(x)th: multiplicative on th (x) basis and
        # quasi-coassociative at th, but neither holds at 1
        "coproduct-unit": _with_coproduct(grassmann, "1", TensorElement.of(th, th)),
        # beta + g: the closure facts hold, the beta exchange identities fail
        "beta": twisted.with_data(beta=twisted.beta + T.basis_element(T.index_of("g"))),
        # beta + th: the closure facts hold, but beta has both parities
        "beta-odd": grassmann.with_data(beta=grassmann.beta + th),
    }


@pytest.mark.parametrize("kind", ["coproduct", "alpha", "r", "phi", "phi-inv",
                                  "coproduct-unit", "beta", "beta-odd"])
def test_mutated_reports_agree(kind, full):
    reports, over = _assert_same_reports(_mutants()[kind], full)
    assert not all(r["passed"] for r in reports)
    if kind == "coproduct":  # the gate stays shut: the checks use the basis
        for axiom in ("counit-coproduct", "r-intertwines-coproduct", "u-conjugation"):
            assert over[axiom] == "basis"
    if kind == "phi-inv":
        assert over["quasi-coassociativity"] == "basis"
        assert over["antipode-alpha"] == "generators"
    if kind == "coproduct-unit":
        assert over["coproduct-homomorphism"] == "basis"
    if kind == "beta":
        assert _closed(_mutants()[kind])
        checks = {c["id"]: c for r in reports for c in r["checks"]}
        failed = [a for a in EXCHANGE if not checks[a]["passed"]]
        assert failed and all(over[a] == "basis" for a in failed)
        assert all(over[a] == "generators" for a in EXCHANGE if a not in failed)
    if kind == "beta-odd":  # the gate needs even alpha and beta
        assert _closed(_mutants()[kind])
        assert all(over[a] == "basis" for a in EXCHANGE)


# -- hexagon words -------------------------------------------------------------------


def _six_factor_sides(H):
    """The hexagon and quasi-Yang-Baxter differences as the left-associated
    six-factor products, each word written out in full."""
    p, q = H.phi, H.phi_inv
    r12, r13, r23 = (H.r.embed(legs, H.legs(3)) for legs in ((0, 1), (0, 2), (1, 2)))
    return {
        "hexagon-left": H.r.apply_maps([(0, H.coproduct)])
        - reindex(q, "231") * r13 * reindex(p, "132") * r23 * q,
        "hexagon-right": H.r.apply_maps([(1, H.coproduct)])
        - reindex(p, "312") * r13 * reindex(q, "213") * r12 * p,
        "quasi-yang-baxter":
        r12 * reindex(q, "231") * r13 * reindex(p, "132") * r23 * q
        - reindex(q, "321") * r23 * reindex(p, "312") * r13 * reindex(q, "213") * r12,
    }


def _assert_matches_six_factor_sides(H, qybe_first):
    """Check a structure's hexagon and QYBE reports against the written-out
    products; ``qybe_first`` runs QYBE on an empty memo."""
    H = H.with_data()
    order = [verify_quasitriangular, verify_quasi_ybe]
    checks = {c.axiom: c for verify in (order[::-1] if qybe_first else order)
              for c in verify(H).checks}
    for axiom, diff in _six_factor_sides(H).items():
        assert checks[axiom].passed == diff.is_zero()
        assert str(checks[axiom].witness) == str(None if diff.is_zero() else diff)


def _r_plus_g_g():
    """sweedler-twisted with R + 1/3 g (x) g: both hexagons and QYBE fail."""
    H = load_builtin("sweedler-twisted").structure
    g = H.algebra.basis_element(H.algebra.index_of("g"))
    return H.with_data(r=H.r + TensorElement.of(g, g).scale(
        H.algebra.field.from_rational(Fraction(1, 3))))


@pytest.mark.parametrize("name", sorted(set(EXPECTED) - {"z2-cocycle"})
                         + ["r-mutant", "r-plus-g-g"])
@pytest.mark.parametrize("qybe_first", [False, True])
def test_hexagon_words_match_the_six_factor_products(name, qybe_first, uqsl2):
    if name == "r-mutant":
        H = _mutants()["r"]
    elif name == "r-plus-g-g":
        H = _r_plus_g_g()
    else:
        H = _entry(name, uqsl2).structure
    _assert_matches_six_factor_sides(H, qybe_first)


def test_a_copy_with_new_r_does_not_read_the_parent_words():
    parent = load_builtin("sweedler-h4").structure.with_data()
    assert verify_quasitriangular(parent).passed
    assert {("_hexagon_word", 0), ("_hexagon_word", 1)} <= set(parent._derived)
    child = parent.with_data(r=_mutants()["r"].r)
    assert not child._derived
    check = verify_quasitriangular(child).find("hexagon-left")
    assert not check.passed
    assert check.witness == _six_factor_sides(child)["hexagon-left"]


def test_failure_on_generators_reports_the_basis_witness():
    H = _mutants()["coproduct"]
    check = verify_quasi_bialgebra(H.with_data()).find("coproduct-homomorphism")
    assert not check.passed and check.over == "basis"
    assert check.element == "(g, x)"  # first failing pair in basis order


# -- associativity -------------------------------------------------------------------


SWEEDLER = {
    ("1", "1"): {"1": 1}, ("1", "g"): {"g": 1}, ("1", "x"): {"x": 1},
    ("1", "gx"): {"gx": 1},
    ("g", "1"): {"g": 1}, ("g", "g"): {"1": 1}, ("g", "x"): {"gx": 1},
    ("g", "gx"): {"x": 1},
    ("x", "1"): {"x": 1}, ("x", "g"): {"gx": -1}, ("x", "x"): {}, ("x", "gx"): {},
    ("gx", "1"): {"gx": 1}, ("gx", "g"): {"x": -1}, ("gx", "x"): {}, ("gx", "gx"): {},
}
LABELS = ["1", "g", "x", "gx"]


def _first_nonassociative(prods):
    """The first basis triple, in basis order, where associativity fails."""
    def mul(x, y):
        out = {}
        for a, c in x.items():
            for b, d in y.items():
                for k, e in prods[(a, b)].items():
                    out[k] = out.get(k, 0) + Fraction(c) * d * e
        return {k: v for k, v in out.items() if v}
    for i, j, l in itertools.product(LABELS, repeat=3):
        if mul(mul({i: 1}, {j: 1}), {l: 1}) != mul({i: 1}, mul({j: 1}, {l: 1})):
            return f"({i}, {j}, {l})"
    return None


@pytest.mark.parametrize("pair,image", [
    (("x", "x"), {"1": 1}), (("gx", "gx"), {"1": 1}), (("x", "gx"), {"g": 1}),
    (("gx", "x"), {"gx": 2}), (("gx", "g"), {"x": 1}), (("g", "gx"), {"gx": 1})])
def test_broken_table_names_the_basis_triple(pair, image):
    prods = dict(SWEEDLER)
    prods[pair] = image
    expected = _first_nonassociative(prods)
    assert expected is not None
    with pytest.raises(StructureValidationError) as err:
        make_algebra(LABELS, [0, 0, 0, 0], "1", prods)
    assert str(err.value) == f"associativity fails at {expected}"


# -- solution spaces -----------------------------------------------------------------


def _space(z):
    return [v.to_dict() for v in z.even], [v.to_dict() for v in z.odd]


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_center_matches_the_full_commutator_system(name, uqsl2):
    H = _entry(name, uqsl2).structure
    A = H.algebra
    # every commutator [c, e_i] = 0, one parity at a time, without center()
    reference = []
    for parity in (0, 1):
        idx = [j for j in range(A.dim) if A.parity[j] == parity]
        rows = {}
        for col, j in enumerate(idx):
            for i in range(A.dim):
                e_i, e_j = A.basis_element(i), A.basis_element(j)
                for k, c in (e_j * e_i - e_i * e_j).coeffs.items():
                    rows.setdefault((i, k), {})[col] = c
        reference.append([A.element(dict(zip(idx, vec))).to_dict()
                          for vec in nullspace(list(rows.values()), len(idx), A.field)])
    assert list(_space(center(H))) == reference
    for v in center(H).vectors():
        assert is_central(H, v) == (True, None)


@pytest.mark.parametrize("name", RATIONAL)
def test_invariant_spaces_agree(name, full):
    entry = load_builtin(name)
    H = entry.structure
    reps = sorted(entry.representations)

    def spaces(H):
        H = H.with_data()
        pairs = [(entry.representations[v], entry.representations[w])
                 for v in reps for w in reps]
        maps = [invariant_maps(H, V, W) for V, W in pairs] + [
            (invariant_bilinear_forms(H, V, W),) for V, W in pairs]
        return (_space(invariant_subspace(H)), _space(pseudo_invariant_subspace(H)),
                [f.images for f in invariant_linear_forms(H)],
                [f.images for f in pseudo_invariant_linear_forms(H)],
                [[[[str(c) for c in row] for row in m] for m in part]
                 for pair in maps for part in pair])

    reduced = spaces(H)
    full()
    assert spaces(H) == reduced


def _canonical_pairs(solve, H):
    try:
        return [(alpha.to_dict(), beta.to_dict()) for alpha, beta in solve(H)]
    except NoSolutionError as err:
        return str(err)


def _assert_same_canonical_elements(H):
    bare = H.with_data(alpha=None, beta=None)
    expected = _canonical_pairs(canonical_elements, bare)
    assert _canonical_pairs(solve_canonical_elements, bare) == expected
    return expected


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_canonical_elements_match_the_full_basis_solver(name, uqsl2):
    H = _entry(name, uqsl2).structure
    assert (H.alpha.to_dict(), H.beta.to_dict()) in _assert_same_canonical_elements(H)


@pytest.mark.parametrize("name", RATIONAL)
def test_canonical_elements_of_twists_match_the_full_basis_solver(name):
    entry = load_builtin(name)
    for F in entry.twistors.values():
        _assert_same_canonical_elements(twist_structure(entry.structure, F))


def test_canonical_elements_without_closure_use_the_basis():
    H = load_builtin("sweedler-h4").structure
    A = H.algebra
    images = list(H.antipode.images)
    images[A.index_of("x")] = images[A.index_of("x")].scale(2)
    doubled = H.with_data(antipode=LinearMap(A, (A,), images, name="antipode"))
    assert not _closed(doubled)
    assert isinstance(_assert_same_canonical_elements(doubled), str)


def test_canonical_elements_of_a_gauged_antipode_match_the_full_basis_solver():
    """S' = u S(.) u^-1 comes with alpha' = u alpha and beta' = beta u^-1.
    At u = 1 + 2g the even invariants span u^-1 and the even
    pseudo-invariants span u, so each space matters to the solution."""
    H = load_builtin("sweedler-h4").structure
    A = H.algebra
    g = A.basis_element(A.index_of("g"))
    u = A.unit() + g.scale(2)
    u_inv = (g.scale(2) - A.unit()).scale(A.field.from_rational(Fraction(1, 3)))
    gauged = H.with_data(antipode=LinearMap(A, (A,), [
        TensorElement.of(u) * image * TensorElement.of(u_inv) for image in H.antipode.images],
        name="antipode"), alpha=u, beta=u_inv)
    assert verify_antipode_axioms(gauged).passed
    assert _space(invariant_subspace(gauged)) != _space(pseudo_invariant_subspace(gauged))
    assert len(_assert_same_canonical_elements(gauged)) == 1


@pytest.mark.parametrize("side", ["phi", "phi_inv"])
def test_a_coassociator_changed_on_one_side_has_no_canonical_elements(side):
    """Adding g (x) 1 (x) 1 to one side leaves the other side's sandwich
    solvable, and both together not."""
    H = load_builtin("z2-group").structure
    A = H.algebra
    g = A.basis_element(A.index_of("g"))
    changed = H.with_data(**{side: getattr(H, side) + TensorElement.of(g, A.unit(), A.unit())})
    assert isinstance(_assert_same_canonical_elements(changed), str)


def test_is_central_witness_is_the_first_basis_element(e3):
    H = e3.structure
    A = H.algebra
    gx = A.basis_element(A.index_of("gx"))
    central, (label, comm) = is_central(H, gx)
    assert not central and label == "g"
    assert comm == gx * A.basis_element(1) - A.basis_element(1) * gx


# -- reporting --------------------------------------------------------------------------


def test_text_summary_names_the_loop_domain(capsys):
    assert main(["verify", str(DATA / "sweedler-h4.qh"), "--checks", "axioms"]) == 0
    out = capsys.readouterr().out
    assert "  [ok  ] coproduct-homomorphism  (over 2 generators, " in out
    assert "  [ok  ] coproduct-unit  (0." in out
    assert main(["verify", str(DATA / "sweedler-h4.qh"), "--checks", "axioms",
                 "--json"]) == 0
    assert "generators" not in capsys.readouterr().out
