"""The package surface: lazy exports, what a command imports, and the
equality, hashing and read-only rules of the record types."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qhopf
from qhopf.casimir import u_operator
from qhopf.errors import StructureValidationError
from qhopf.scalars import FieldDescriptor
from qhopf.structfile import load_entry

DATA = Path(qhopf.__file__).parent / "data"

EXPORTS = {
    "AlgebraElement", "BUILTIN_NAMES", "CatalogEntry", "FieldDescriptor",
    "GradedAlgebra", "GradedBasis", "LinearMap", "QuasiHopfStructure",
    "Representation", "Scalar", "TensorElement", "Twistor", "adjoint_action",
    "anti_adjoint_action", "build_C1", "build_C2", "casimir_Cm", "center",
    "identity_suite", "invariant_subspace", "is_central", "load_builtin",
    "parse_scalar", "pseudo_invariant_subspace", "quadratic_invariants",
    "regular_representation", "solve_canonical_elements", "supertrace",
    "trace_forms", "twist_structure", "u_inverse", "u_operator",
    "validate_twistor", "verify_antipode_axioms", "verify_quasi_bialgebra",
    "verify_quasi_ybe", "verify_quasitriangular", "verify_structure",
    "verify_twist_invariance",
}


def fresh(code, *args):
    """stdout of ``code`` run in a fresh interpreter that imports this qhopf."""
    env = dict(os.environ, PYTHONPATH=str(Path(qhopf.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                         text=True, env=env, check=True)
    return run.stdout


# -- what importing costs -----------------------------------------------------


def test_a_file_command_loads_no_dataclasses_inspect_or_catalog_builders():
    """Modules already loaded by interpreter start-up are not qhopf's doing,
    so only the ones that importing and running the command added count."""
    out = fresh("import json, sys\n"
                "before = set(sys.modules)\n"
                "import qhopf.cli\n"
                "status = qhopf.cli.main(['verify', sys.argv[1], '--json'])\n"
                "heavy = ('dataclasses', 'inspect', 'qhopf.builders', 'qhopf.catalog',\n"
                "         'qhopf.uqsl2')\n"
                "print(json.dumps([status, [m for m in heavy\n"
                "                           if m in sys.modules and m not in before]]))\n",
                str(DATA / "z2-group.qh"))
    assert json.loads(out.splitlines()[-1]) == [0, []]


def test_building_small_uqsl2_loads_neither_the_catalog_nor_the_invariants():
    """uqsl2 takes its Hopf-structure constructor and its R search from
    builders, so importing it loads neither catalog.py nor invariants.py."""
    out = fresh("import json, sys\n"
                "from qhopf.uqsl2 import build_small_uqsl2\n"
                "print(json.dumps([m for m in ('qhopf.builders', 'qhopf.catalog',\n"
                "                              'qhopf.invariants') if m in sys.modules]))\n")
    assert json.loads(out) == ["qhopf.builders"]


# -- exports ------------------------------------------------------------------


def test_every_export_is_the_object_of_its_defining_module():
    assert set(qhopf.__all__) == EXPORTS
    for name in qhopf.__all__:
        value = getattr(qhopf, name)
        module = value.__module__ if hasattr(value, "__qualname__") else "qhopf.catalog"
        home = sys.modules[module]  # the else is BUILTIN_NAMES, a tuple
        assert getattr(home, name) is value, name


def test_star_import_binds_every_export():
    out = fresh("import json, qhopf\n"
                "ns = {}\n"
                "exec('from qhopf import *', ns)\n"
                "print(json.dumps(sorted(n for n in qhopf.__all__\n"
                "                        if ns.get(n) is not getattr(qhopf, n))))\n")
    assert json.loads(out) == []


def test_a_submodule_resolves_after_a_bare_import():
    out = fresh("import qhopf\n"
                "print(qhopf.catalog.load_builtin('z2-group').name)\n")
    assert out == "z2-group\n"


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError):
        qhopf.no_such_export
    assert not hasattr(qhopf, "no_such_module")


# -- record types -------------------------------------------------------------


def test_field_descriptors_compare_and_hash_by_value():
    a, b = FieldDescriptor.cyclotomic(3), FieldDescriptor("cyclotomic", 3)
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: "slot"}[b] == "slot"
    assert FieldDescriptor.rational_functions("q") == FieldDescriptor.rational_functions()
    assert FieldDescriptor.rationals() != FieldDescriptor.cyclotomic(1)
    assert FieldDescriptor.rationals() != FieldDescriptor.rational_functions("q")


@pytest.mark.parametrize("args", [
    ("reals",), ("cyclotomic",), ("cyclotomic", 0), ("cyclotomic", -2),
    ("cyclotomic", "3"), ("cyclotomic", 100000), ("rational-functions",),
    ("rational-functions", None, "1q"), ("rational-functions", None, ""),
])
def test_bad_field_descriptors_raise(args):
    with pytest.raises(StructureValidationError):
        FieldDescriptor(*args)


def test_structure_copies_compare_by_data_and_start_with_an_empty_memo():
    H = load_entry(str(DATA / "sweedler-twisted.qh")).structure
    u_operator(H)
    assert H._derived
    copy = H.with_data(name="x")
    assert copy == H and copy is not H and copy.name == "x"
    assert copy._derived == {}
    assert H.with_data(r=None, r_inv=None) != H
    with pytest.raises(TypeError):
        hash(H)
    with pytest.raises(AttributeError):
        H.r = None
    with pytest.raises(AttributeError):
        del H.alpha
    with pytest.raises(TypeError):
        H.with_data(no_such_field=1)


def test_twistors_are_read_only_and_compare_by_fields():
    entry = load_entry(str(DATA / "sweedler-h4.qh"))
    F = entry.twistors["Ft"]
    with pytest.raises(AttributeError):
        F.f = F.f_inv
    assert F == type(F)(F.f, F.f_inv, F.name)
    assert F != type(F)(F.f, F.f_inv, "other")
