"""Byte identity of ``--json`` stdout against stored snapshots.

Each file under ``tests/snapshots`` is the exact stdout of one CLI command,
run in a directory holding copies of the golden files (so the ``file`` key
is a bare file name), except ``invariant-spaces.json``: every invariant
space of every golden file, as ``invariant_spaces_text`` renders it.
Regenerate a snapshot only when a change of output is intended, and say why
in the change log.
"""

import itertools
import json
import shutil
from pathlib import Path

import pytest

import qhopf
from qhopf import invariants
from qhopf.cli import main
from qhopf.invariants import solve_canonical_elements
from qhopf.structfile import load_entry

DATA = Path(qhopf.__file__).parent / "data"
SNAPSHOTS = Path(__file__).parent / "snapshots"
RATIONAL = ("z2-group", "z2-cocycle", "sweedler-h4", "grassmann-theta",
            "sweedler-twisted")
Q_OF_Q = {"kind": "rational-functions", "indeterminate": "q"}
C = "(2*q^2 - q + 3)/(q + 2)"  # a (deg 2)/(deg 1) coefficient in Q(q)
QQ_COPIES = ("z2-group", "z2-cocycle", "sweedler-h4", "grassmann-theta")
# f = 1 (x) 1 + C (1 - g) (x) (1 - g) on Z2 is counital, and
# f^-1 = 1 (x) 1 - D (1 - g) (x) (1 - g) with D = C / (1 + 4 C)
D = f"({C})/(1 + 4*({C}))"
Q_PAIR = {"f": [["1", "1", f"1 + {C}"], ["1", "g", f"-{C}"], ["g", "1", f"-{C}"],
                ["g", "g", C]],
          "f_inv": [["1", "1", f"1 - {D}"], ["1", "g", D], ["g", "1", D],
                    ["g", "g", f"-{D}"]]}

CASES = {f"verify-{name}": (["verify", f"{name}.qh", "--json"], 0)
         for name in RATIONAL + ("small-uqsl2",)}
CASES["center-small-uqsl2"] = (["center", "small-uqsl2.qh", "--json"], 0)
CASES.update({
    # beta + g with R removed: two exchange identities fail at x
    "verify-sweedler-twisted-beta-g": (
        ["verify", "sweedler-twisted-beta-g.qh", "--checks", "identities",
         "--json"], 1),
    # one R^-1 coefficient changed: r-invertible fails with the witness R R^-1 - 1
    "verify-small-uqsl2-r-inv": (["verify", "small-uqsl2-r-inv.qh", "--json"], 1),
    "twist-sweedler-twisted-untwist": (
        ["twist", "sweedler-twisted.qh", "--twistor", "untwist",
         "--verify-invariance", "--json"], 0),
    "twist-grassmann-theta-theta-pair": (
        ["twist", "grassmann-theta.qh", "--twistor", "theta-pair",
         "--verify-invariance", "--json"], 0),
    # a Hopf twist with a nilpotent part, and a twist of a nontrivial coassociator
    "twist-sweedler-h4-Ft": (
        ["twist", "sweedler-h4.qh", "--twistor", "Ft", "--verify-invariance",
         "--json"], 0),
    "twist-z2-cocycle-pminus": (
        ["twist", "z2-cocycle.qh", "--twistor", "pminus", "--verify-invariance",
         "--json"], 0),
    # Q(q) copies: a twist with q-dependent entries, a broken counit law
    "twist-sweedler-twisted-qq-fixed": (
        ["twist", "sweedler-twisted.qq.qh", "--twistor", "fixed",
         "--verify-invariance", "--json"], 0),
    "verify-sweedler-twisted-qq-mutated": (
        ["verify", "sweedler-twisted.qq.mutated.qh", "--checks", "all",
         "--json"], 1),
    "twist-z2-group-qq-q-pair": (
        ["twist", "z2-group.qq.qh", "--twistor", "q-pair", "--verify-invariance",
         "--json"], 0),
})
CASES.update({f"verify-{name}-qq": (["verify", f"{name}.qq.qh", "--checks", "all",
                                     "--json"], 0) for name in QQ_COPIES})
for _name in ("small-uqsl2", "z2-cocycle"):
    CASES[f"casimir-{_name}-c1-inv-0"] = (
        ["casimir", f"{_name}.qh", "--kind", "c1", "--source", "inv:0", "--json"], 0)
    CASES[f"casimir-{_name}-c2-pinv-0"] = (
        ["casimir", f"{_name}.qh", "--kind", "c2", "--source", "pinv:0", "--json"], 0)
for _label, _extra in (
        ("u", ["--kind", "u"]),
        ("c1-beta", ["--kind", "c1", "--source", "beta"]),
        ("c2-alpha", ["--kind", "c2", "--source", "alpha"]),
        ("quadratic", ["--kind", "quadratic"]),
        ("cm-2-regular", ["--kind", "cm", "--power", "2", "--rep", "regular"])):
    CASES[f"casimir-sweedler-h4-{_label}"] = (
        ["casimir", "sweedler-h4.qh"] + _extra + ["--json"], 0)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("snapshots")
    for name in RATIONAL + ("small-uqsl2",):
        shutil.copy(DATA / f"{name}.qh", root / f"{name}.qh")
    doc = json.loads((DATA / "small-uqsl2.qh").read_text())
    next(r for r in doc["r_inv"] if r[:2] == ["K", "K"])[2] = "1/3*z"
    (root / "small-uqsl2-r-inv.qh").write_text(json.dumps(doc))
    doc = json.loads((DATA / "sweedler-twisted.qh").read_text())
    doc["beta"] = {"1": "1", "g": "1"}
    doc["r"] = doc["r_inv"] = None
    (root / "sweedler-twisted-beta-g.qh").write_text(json.dumps(doc))
    doc = json.loads((DATA / "sweedler-twisted.qh").read_text())
    doc["field"] = Q_OF_Q
    doc["twistors"]["fixed"] = {"f": [["1", "1", "1"], ["x", "gx", C]],
                                "f_inv": [["1", "1", "1"], ["x", "gx", f"-{C}"]]}
    (root / "sweedler-twisted.qq.qh").write_text(json.dumps(doc))
    row = next(r for r in doc["phi"] if r[:3] == ["1", "1", "1"])
    row[3] = f"{row[3]} + {C}"
    (root / "sweedler-twisted.qq.mutated.qh").write_text(json.dumps(doc))
    for name in QQ_COPIES:
        doc = json.loads((DATA / f"{name}.qh").read_text())
        doc["field"] = Q_OF_Q
        if name == "z2-group":
            doc["twistors"]["q-pair"] = Q_PAIR
        (root / f"{name}.qq.qh").write_text(json.dumps(doc))
    return root


@pytest.mark.parametrize("case", sorted(CASES))
def test_json_stdout_matches_snapshot(case, workdir, monkeypatch, capsys):
    argv, status = CASES[case]
    monkeypatch.chdir(workdir)
    assert main(argv) == status
    expected = (SNAPSHOTS / f"{case}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_twisted_file_matches_snapshot(workdir, monkeypatch, capsys):
    # the written file holds the twisted phi, Delta and R, entries in Q(q)
    monkeypatch.chdir(workdir)
    assert main(["twist", "sweedler-twisted.qq.qh", "--twistor", "fixed",
                 "--out", "twisted.qq.qh"]) == 0
    capsys.readouterr()
    expected = (SNAPSHOTS / "twist-sweedler-twisted-qq-fixed.qh").read_text(
        encoding="utf-8")
    assert (workdir / "twisted.qq.qh").read_text(encoding="utf-8") == expected


def _graded(space):
    return {"even": [x.to_dict() for x in space.even],
            "odd": [x.to_dict() for x in space.odd]}


def _form(H, xi):
    return [str(xi(H.basis_element(i))) for i in range(H.algebra.dim)]


def _matrix(m):
    return [[str(c) for c in row] for row in m]


def invariant_spaces_text() -> str:
    """The (pseudo-)invariant subspaces, the center, the (pseudo-)invariant
    linear forms and the canonical-element solutions of every golden file;
    for the files over Q also the invariant maps and the invariant bilinear
    forms of every ordered pair of its representations."""
    doc = {}
    for path in sorted(DATA.glob("*.qh")):
        entry = load_entry(str(path))
        H = entry.structure
        out = doc[path.stem] = {
            "invariants": _graded(invariants.invariant_subspace(H)),
            "pseudo-invariants": _graded(invariants.pseudo_invariant_subspace(H)),
            "center": _graded(invariants.center(H)),
            "invariant-forms": [_form(H, xi) for xi in invariants.invariant_linear_forms(H)],
            "pseudo-invariant-forms": [
                _form(H, xi) for xi in invariants.pseudo_invariant_linear_forms(H)],
            "canonical-elements": [[alpha.to_dict(), beta.to_dict()]
                                   for alpha, beta in solve_canonical_elements(H)],
        }
        if path.stem not in RATIONAL:
            continue
        reps = sorted(entry.representations.items())
        for (vn, V), (wn, W) in itertools.product(reps, repeat=2):
            even, odd = invariants.invariant_maps(H, V, W)
            out[f"maps {vn} -> {wn}"] = {"even": [_matrix(f) for f in even],
                                         "odd": [_matrix(f) for f in odd]}
            out[f"bilinear forms {vn} x {wn}"] = [
                _matrix(B) for B in invariants.invariant_bilinear_forms(H, V, W)]
    return json.dumps(doc, indent=1) + "\n"


def test_invariant_spaces_match_snapshot():
    expected = (SNAPSHOTS / "invariant-spaces.json").read_text(encoding="utf-8")
    assert invariant_spaces_text() == expected
