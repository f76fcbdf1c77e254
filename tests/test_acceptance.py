"""Acceptance suite: one test per criterion, exact (zero-tolerance) equality
throughout.  Run with ``pytest -s tests/test_acceptance.py`` to see the
one-line verdict per criterion."""

import json
import time
from pathlib import Path

import pytest

import qhopf
from qhopf.casimir import (
    build_C1,
    build_C2,
    casimir_Cm,
    identity_suite,
    rtr_power,
    u_inverse,
    u_operator,
    verify_twist_invariance,
)
from qhopf.catalog import load_builtin
from qhopf.invariants import (
    invariant_maps,
    invariant_subspace,
    is_central,
    module_morphism_from_invariant,
    pseudo_invariant_subspace,
)
from qhopf.quasihopf import (
    verify_antipode_axioms,
    verify_quasi_bialgebra,
    verify_quasi_ybe,
    verify_quasitriangular,
    verify_structure,
)
from reference import _mat_mul
from qhopf.structfile import entry_from_dict

DATA = Path(qhopf.__file__).parent / "data"
CORE = ("z2-group", "z2-cocycle", "sweedler-h4", "grassmann-theta",
        "sweedler-twisted")
QUASITRIANGULAR = ("z2-group", "grassmann-theta", "sweedler-twisted")


def announce(number: int, text: str) -> None:
    print(f"\n[criterion {number:2d}] PASS  {text}")


def test_criterion_01_axiom_suite():
    t0 = time.perf_counter()
    for name in CORE:
        H = load_builtin(name).structure
        assert verify_quasi_bialgebra(H).passed, name
        assert verify_antipode_axioms(H).passed, name
    for name in QUASITRIANGULAR:
        H = load_builtin(name).structure
        assert H.r is not None
        assert verify_quasitriangular(H).passed, name
        assert verify_quasi_ybe(H).passed, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"axiom suite took {elapsed:.2f}s"
    announce(1, f"axiom suite over the five core entries in {elapsed:.2f}s")


def test_criterion_02_genuinely_quasi():
    for name in ("z2-cocycle", "sweedler-twisted"):
        entry = load_builtin(name)
        H = entry.structure
        assert H.phi != H.unit_tensor(3), name
        assert verify_structure(H).passed, name
    announce(2, "nontrivial coassociators verified end to end")


def test_criterion_03_central_element_contracts():
    for name in CORE:
        H = load_builtin(name).structure
        unit = H.algebra.unit()
        for c1 in invariant_subspace(H).even:
            C1 = build_C1(H, c1)  # raises unless central + formulas agree
            assert C1 * H.beta == c1 and H.beta * C1 == c1
        for c2 in pseudo_invariant_subspace(H).even:
            C2 = build_C2(H, c2)
            assert C2 * H.alpha == c2 and H.alpha * C2 == c2
        assert build_C1(H, H.beta) == unit
        assert build_C2(H, H.alpha) == unit
    announce(3, "C1/C2 contracts and canonical collapses on all entries")


def test_criterion_04_u_operator_contracts():
    for name in QUASITRIANGULAR:
        H = load_builtin(name).structure
        u = u_operator(H)
        uinv = u_inverse(H)
        one = H.algebra.unit()
        assert u * uinv == one and uinv * u == one
        for i in range(H.algebra.dim):
            a = H.algebra.basis_element(i)
            assert H.s(H.s(a)) == u * a * uinv
        assert H.s(H.s(u)) == u
        assert is_central(H, u * H.s(u))[0]
        report = identity_suite(H)
        for axiom in ("antipode-alpha-u", "u-alpha-rinv", "u-su-central",
                      "su-sbeta-r"):
            assert report.find(axiom).passed, (name, axiom)
    H1 = load_builtin("z2-group").structure
    g = H1.algebra.basis_element(H1.algebra.index_of("g"))
    assert u_operator(H1) == g
    announce(4, "u-operator contracts incl. u = g on the Z2 entry")


def test_criterion_05_twist_invariance_sweep():
    t0 = time.perf_counter()
    sweep = (("z2-group", "pminus"), ("sweedler-h4", "Ft"),
             ("grassmann-theta", "identity"))
    for name, twistor in sweep:
        entry = load_builtin(name)
        report = verify_twist_invariance(
            entry.structure, entry.twistors[twistor],
            powers=(-1, 0, 1, 2), reps=entry.representations)
        assert report.passed, (name, twistor,
                               [c.name for c in report.failures()])
        assert any(c.name == "u" for c in report.checks)
        assert any(c.name.startswith("Cm[") for c in report.checks)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"twist sweep took {elapsed:.2f}s"
    announce(5, f"twist invariance of C1, C2, u, C_m in {elapsed:.2f}s")


def test_criterion_06_hopf_reduction():
    for name in ("z2-group", "sweedler-h4"):
        entry = load_builtin(name)
        H = entry.structure
        assert H.phi == H.unit_tensor(3)
        assert H.alpha == H.algebra.unit() == H.beta
        for rep in entry.representations.values():
            for m in (0, 1, 2):
                cm, _ = casimir_Cm(H, rep, m)
                # independently coded classical construction
                A = H.algebra
                u_cl = A.zero()
                for (i, j), c in H.r.coeffs.items():
                    term = (H.s_basis(j) * A.basis_element(i)).scale(c)
                    if A.parity[i] % 2:
                        term = -term
                    u_cl = u_cl + term
                classical = A.zero()
                for (i, j), w in rtr_power(H, m).coeffs.items():
                    value = rep.supertrace_of(u_cl * A.basis_element(j))
                    classical = classical + A.basis_element(i).scale(w * value)
                assert cm == classical, (name, rep.name, m)
    announce(6, "general construction reduces to the classical one")


CORRUPTIONS = [
    ("z2-cocycle", "phi", 0), ("z2-cocycle", "phi", 5),
    ("z2-cocycle", "phi_inv", 2), ("z2-cocycle", "coproduct", "g"),
    ("z2-cocycle", "antipode", "g"), ("z2-cocycle", "alpha", "g"),
    ("sweedler-twisted", "phi", 1), ("sweedler-twisted", "r", 3),
    ("sweedler-twisted", "r_inv", 2), ("sweedler-twisted", "beta", "1"),
]


def _flip(text: str) -> str:
    return text[1:] if text.startswith("-") else "-" + text


def test_criterion_07_mutation_sensitivity():
    assert len(CORRUPTIONS) == 10
    for name, section, key in CORRUPTIONS:
        doc = json.loads((DATA / f"{name}.qh").read_text())
        if section in ("phi", "phi_inv", "r", "r_inv"):
            doc[section][key][-1] = _flip(doc[section][key][-1])
        elif section == "coproduct":
            doc[section][key][0][-1] = _flip(doc[section][key][0][-1])
        elif section == "antipode":
            label = next(iter(doc[section][key]))
            doc[section][key][label] = _flip(doc[section][key][label])
        else:  # alpha / beta coefficient tables
            doc[section][key] = _flip(doc[section][key])
        entry = entry_from_dict(doc)
        report = verify_structure(entry.structure)
        assert not report.passed, (name, section, key)
        witnesses = [c.witness for c in report.failures()
                     if c.witness is not None]
        assert witnesses and any(not w.is_zero() for w in witnesses
                                 if hasattr(w, "is_zero")), (name, section, key)
    announce(7, "all 10 golden-file corruptions caught with nonzero witnesses")


def test_criterion_08_exchange_identity_suite():
    for name in ("z2-cocycle", "sweedler-twisted"):
        report = identity_suite(load_builtin(name).structure)
        for axiom in ("exchange-phi-beta", "exchange-phi-alpha",
                      "exchange-phiinv-alpha", "exchange-phiinv-beta"):
            assert report.find(axiom).passed, (name, axiom)
    announce(8, "rank-2 exchange identities on both quasi entries")


def test_criterion_09_module_morphisms():
    entry = load_builtin("z2-cocycle")
    H = entry.structure
    reg = entry.representations["regular"]
    even, _ = invariant_maps(H, reg, reg)
    assert even, "the invariant space must be nonempty"
    field = H.algebra.field
    for f in even:
        ft = module_morphism_from_invariant(f, H, reg, reg)
        for i in range(H.algebra.dim):
            b = H.algebra.basis_element(i)
            assert _mat_mul(reg.matrix_of(b), ft, field) == \
                _mat_mul(ft, reg.matrix_of(b), field)
        assert _mat_mul(reg.matrix_of(H.beta), ft, field) == f
    announce(9, f"{len(even)} invariant maps project to module morphisms")


def test_criterion_10_small_quantum_group():
    t0 = time.perf_counter()
    entry = load_builtin("small-uqsl2")
    H = entry.structure
    bialgebra = verify_quasi_bialgebra(H)
    assert bialgebra.find("pentagon").passed
    qtri = verify_quasitriangular(H)
    assert qtri.find("hexagon-left").passed
    assert qtri.find("hexagon-right").passed
    assert bialgebra.passed and qtri.passed
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"small quantum group took {elapsed:.2f}s"
    announce(10, f"27-dim cyclotomic entry verified in {elapsed:.2f}s")
