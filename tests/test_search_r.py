"""``builders.search_r``, the built-ins' one R-matrix search: the candidate
each entry keeps, the order of its three tests, its error when nothing
passes, and that its verification is the only one a built entry gets."""

import itertools

import pytest

import qhopf.builders as builders
import qhopf.catalog as catalog
import qhopf.quasihopf as quasihopf
from qhopf.catalog import grassmann_r_candidate, load_builtin, search_r, tensor_from
from qhopf.errors import StructureValidationError
from qhopf.quasihopf import verify_quasitriangular
from qhopf.scalars import QQ
from qhopf.twisting import invert_tensor
from qhopf.uqsl2 import _build_algebra, _r_candidate

UQSL2_ORDER = list(itertools.product((0, 1, 2), (1, 2, 0), (1, 2)))


def bare(H):
    return H.with_data(r=None, r_inv=None)


def sweedler_r(H, s1, s2, s3, s4):
    """(1/2)(1(x)1 + 1(x)g + g(x)1 - g(x)g) plus the nilpotent part with signs."""
    return tensor_from(H.algebra, [
        ("1", "1", QQ(1, 2)), ("1", "g", QQ(1, 2)), ("g", "1", QQ(1, 2)),
        ("g", "g", QQ(-1, 2)), ("x", "x", QQ(s1, 2)), ("x", "gx", QQ(s2, 2)),
        ("gx", "x", QQ(s3, 2)), ("gx", "gx", QQ(s4, 2))])


def check(report, axiom):
    return next(c.passed for c in report.checks if c.axiom == axiom)


def test_search_keeps_the_documented_candidates(e3, e4):
    assert e3.structure.r == sweedler_r(e3.structure, 1, -1, 1, 1)
    H4 = e4.structure
    assert H4.r == grassmann_r_candidate(H4, 1) == tensor_from(
        H4.algebra, [("1", "1", 1), ("th", "th", 1)])
    A = _build_algebra()
    assert load_builtin("small-uqsl2").structure.r == _r_candidate(A, 1, 2, 1)
    assert UQSL2_ORDER.index((1, 2, 1)) == 8


def test_a_candidate_failing_the_hexagons_is_passed_over(e3):
    H = bare(e3.structure)
    first, chosen = sweedler_r(H, 1, 1, -1, 1), sweedler_r(H, 1, -1, 1, 1)
    report = verify_quasitriangular(H.with_data(r=first, r_inv=invert_tensor(first)))
    assert check(report, "r-intertwines-coproduct") and check(report, "r-invertible")
    assert not check(report, "hexagon-left")
    assert search_r(H, [first, chosen], "two signs").r == chosen
    with pytest.raises(StructureValidationError, match="sweedler-h4"):
        search_r(H, [first], "the first sign tuple")


def test_a_candidate_failing_intertwining_is_never_inverted(e3, monkeypatch):
    """The unit tensor is invertible and satisfies both hexagons for phi = 1,
    but Sweedler's coproduct is not cocommutative, so the search drops it
    before it forms an inverse or an R report."""
    H = bare(e3.structure)
    unit2 = H.unit_tensor(2)
    report = verify_quasitriangular(H.with_data(r=unit2, r_inv=unit2))
    assert not check(report, "r-intertwines-coproduct")
    assert check(report, "hexagon-left") and check(report, "hexagon-right")
    calls = count_calls(monkeypatch, ("verify_quasitriangular",), lambda n, H: H.r)
    chosen = sweedler_r(H, 1, -1, 1, 1)
    assert search_r(H, [unit2, chosen], "unit first").r == chosen
    assert calls == [chosen, chosen]  # the search's report, then verify_structure's


@pytest.mark.parametrize("name", ["z2-group", "sweedler-h4", "grassmann-theta",
                                  "small-uqsl2"])
def test_the_closed_form_inverse_is_the_solved_one(name):
    """On a Hopf algebra R^{-1} = (S (x) 1)(R): the search's closed form is
    the inverse the entry holds and the one a linear solve finds."""
    H = load_builtin(name).structure
    assert H.r.apply_maps([(0, H.antipode)]) == H.r_inv == invert_tensor(H.r)


def test_the_closed_form_inverse_needs_a_trivial_coassociator():
    """Why search_r takes only structures with phi = 1: on the twisted
    Sweedler entry (S (x) 1)(R) is not R^{-1}."""
    H = load_builtin("sweedler-twisted").structure
    assert H.phi != H.unit_tensor(3)
    assert H.r.apply_maps([(0, H.antipode)]) != H.r_inv
    assert H.r * H.r_inv == H.unit_tensor(2)


def test_no_passing_candidate_raises_naming_the_entry(e3, e4):
    with pytest.raises(StructureValidationError,
                       match="catalog entry sweedler-h4: .* nothing passed"):
        search_r(bare(e3.structure), [], "nothing")
    with pytest.raises(StructureValidationError, match="grassmann-theta"):
        search_r(bare(e4.structure), [bare(e4.structure).unit_tensor(2).scale(0)],
                 "the zero tensor")
    H = bare(load_builtin("small-uqsl2").structure)
    A = _build_algebra()
    with pytest.raises(StructureValidationError, match="small-uqsl2"):
        search_r(H, (_r_candidate(A, *gdc) for gdc in UQSL2_ORDER[:8]),
                 "the conventions before (1, 2, 1)")


def count_calls(monkeypatch, names, record):
    """Wrap each named verifier in quasihopf, and in builders where it is
    imported, so that every call appends record(name, H) to the list returned."""
    calls = []
    for name in names:
        def wrapper(H, name=name, original=getattr(quasihopf, name)):
            calls.append(record(name, H))
            return original(H)
        monkeypatch.setattr(quasihopf, name, wrapper)
        if hasattr(builders, name):
            monkeypatch.setattr(builders, name, wrapper)
    return calls


@pytest.mark.parametrize("name, rejected_by_r_report", [
    ("z2-group", 0),  # its one R
    ("sweedler-h4", 1),  # the first sign tuple intertwines, fails the hexagons
    ("grassmann-theta", 0),
    ("small-uqsl2", 0),  # the first eight conventions fail intertwining
])
def test_a_built_entry_is_verified_once(name, rejected_by_r_report, monkeypatch):
    """A candidate whose R report fails goes no further: only the entry
    reaches verify_structure and the quasi-Yang-Baxter check."""
    calls = count_calls(monkeypatch, ("verify_structure", "verify_quasitriangular",
                                      "verify_quasi_ybe"), lambda n, H: (n, H))
    entry = catalog._load.__wrapped__(name)  # a fresh build, the cache untouched
    assert entry.structure.r == load_builtin(name).structure.r

    def seen(verifier):
        return [H for n, H in calls if n == verifier]
    assert [H is entry.structure for H in seen("verify_structure")] == [True]
    assert [H is entry.structure for H in seen("verify_quasi_ybe")] == [True]
    tried = {id(H): H for H in seen("verify_quasitriangular")}
    assert len(tried) == 1 + rejected_by_r_report and id(entry.structure) in tried


def test_the_r_free_reports_run_once_per_search(monkeypatch):
    """sweedler-h4 brings two candidates to their R report.  Only the second
    passes it; its verify_structure runs the quasi-bialgebra and antipode
    reports once, with R set, reads its memoised R report and runs the QYBE."""
    calls = count_calls(monkeypatch, ("verify_quasi_bialgebra", "verify_antipode_axioms",
                                      "verify_quasitriangular", "verify_quasi_ybe"),
                        lambda n, H: (n, H.r is None))
    entry = catalog._load.__wrapped__("sweedler-h4")
    assert calls == [("verify_quasitriangular", False), ("verify_quasitriangular", False),
                     ("verify_quasi_bialgebra", False), ("verify_antipode_axioms", False),
                     ("verify_quasitriangular", False), ("verify_quasi_ybe", False)]
    report = quasihopf.verify_quasitriangular(entry.structure)
    assert quasihopf.verify_quasitriangular(entry.structure) is report  # memoised
