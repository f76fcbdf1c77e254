"""qhopf: exact computer algebra for Z2-graded quasi-Hopf algebras.

The package represents finite-dimensional graded quasi-Hopf structures
over exact coefficient fields, verifies the full axiom system, performs
twisting, and constructs Casimir invariants (central elements) whose
twist invariance is machine-checked.  Everything is exact: identity
checks are zero tests of sparse tensors over the rationals, cyclotomic
fields, or rational-function fields.
"""

from .scalars import FieldDescriptor, Scalar, parse_scalar
from .graded import (
    AlgebraElement,
    GradedAlgebra,
    GradedBasis,
    LinearMap,
    TensorElement,
)
from .quasihopf import (
    QuasiHopfStructure,
    solve_canonical_elements,
    verify_antipode_axioms,
    verify_quasi_bialgebra,
    verify_quasi_ybe,
    verify_quasitriangular,
    verify_structure,
)
from .twisting import Twistor, twist_structure, validate_twistor
from .representations import Representation, regular_representation, supertrace
from .invariants import (
    adjoint_action,
    anti_adjoint_action,
    center,
    invariant_subspace,
    is_central,
    pseudo_invariant_subspace,
)
from .casimir import (
    build_C1,
    build_C2,
    casimir_Cm,
    identity_suite,
    quadratic_invariants,
    trace_forms,
    u_inverse,
    u_operator,
    verify_twist_invariance,
)
from .catalog import BUILTIN_NAMES, CatalogEntry, load_builtin

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement", "BUILTIN_NAMES", "CatalogEntry", "FieldDescriptor",
    "GradedAlgebra", "GradedBasis", "LinearMap", "QuasiHopfStructure",
    "Representation", "Scalar", "TensorElement",
    "Twistor", "adjoint_action", "anti_adjoint_action", "build_C1",
    "build_C2", "casimir_Cm", "center", "identity_suite",
    "invariant_subspace", "is_central", "load_builtin", "parse_scalar",
    "pseudo_invariant_subspace", "quadratic_invariants",
    "regular_representation", "solve_canonical_elements", "supertrace",
    "trace_forms", "twist_structure", "u_inverse", "u_operator",
    "validate_twistor", "verify_antipode_axioms", "verify_quasi_bialgebra",
    "verify_quasi_ybe", "verify_quasitriangular", "verify_structure",
    "verify_twist_invariance",
]
