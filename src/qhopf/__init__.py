"""qhopf: exact computer algebra for Z2-graded quasi-Hopf algebras.

The package represents finite-dimensional graded quasi-Hopf structures
over exact coefficient fields, verifies the full axiom system, performs
twisting, and constructs Casimir invariants (central elements) whose
twist invariance is machine-checked.  Everything is exact: identity
checks are zero tests of sparse tensors over the rationals, cyclotomic
fields, or rational-function fields.

Exports load on first use: ``import qhopf`` imports no submodule, and
``qhopf.center`` (or ``from qhopf import center``) imports the module
that defines the name.  So a command that reads a ``.qh`` file never
imports the catalog builders.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "scalars": ("FieldDescriptor", "Scalar", "parse_scalar"),
    "graded": ("AlgebraElement", "GradedAlgebra", "GradedBasis", "LinearMap",
               "TensorElement"),
    "quasihopf": ("QuasiHopfStructure", "verify_antipode_axioms", "verify_quasi_bialgebra",
                  "verify_quasi_ybe", "verify_quasitriangular", "verify_structure"),
    "twisting": ("Twistor", "twist_structure", "validate_twistor"),
    "representations": ("Representation", "regular_representation", "supertrace"),
    "invariants": ("adjoint_action", "anti_adjoint_action", "center", "invariant_subspace",
                   "is_central", "pseudo_invariant_subspace", "solve_canonical_elements"),
    "casimir": ("build_C1", "build_C2", "casimir_Cm", "identity_suite",
                "quadratic_invariants", "trace_forms", "u_inverse", "u_operator",
                "verify_twist_invariance"),
    "structfile": ("CatalogEntry",),
    "catalog": ("BUILTIN_NAMES", "load_builtin"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """Resolve an export from its module, or import the submodule ``name``."""
    if name in _MODULE_OF:
        value = globals()[name] = getattr(
            importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
        return value
    try:
        return importlib.import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as err:
        if err.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
