"""What the built-in builders share, off the CLI import path: one
Hopf-structure constructor and the one R-matrix search, which solves nothing."""

from __future__ import annotations

from typing import Iterable

from .errors import StructureValidationError
from .graded import GradedAlgebra, LinearMap, TensorElement
from .quasihopf import QuasiHopfStructure, verify_quasitriangular, verify_structure


def hopf_structure(A: GradedAlgebra, coproduct: LinearMap, counit: LinearMap,
                   antipode: LinearMap, name: str) -> QuasiHopfStructure:
    """The structure with phi = phi^{-1} = 1 (x) 1 (x) 1 and alpha = beta = 1."""
    unit3 = TensorElement.unit((A, A, A))
    return QuasiHopfStructure(
        algebra=A, coproduct=coproduct, counit=counit, antipode=antipode,
        phi=unit3, phi_inv=unit3, alpha=A.unit(), beta=A.unit(), name=name)


def search_r(H: QuasiHopfStructure, candidates: Iterable[TensorElement],
             what: str) -> QuasiHopfStructure:
    """H with the first candidate R that intertwines the coproduct with its
    flip on the generators, passes the memoised ``verify_quasitriangular``
    and then ``verify_structure``, the entry's verification, which only the
    winner reaches.  H must have phi = 1 and alpha = beta = 1 (as from
    ``hopf_structure``), where R^{-1} = (S (x) 1)(R) (Drinfeld): a wrong
    inverse could only fail ``r-invertible``, so no solve backs it up."""
    A = H.algebra
    gens = [A.basis_element(i) for i in A.generators()]
    for r in candidates:
        if any(H.delta_t(a) * r != r * H.delta(a) for a in gens):
            continue
        candidate = H.with_data(r=r, r_inv=r.apply_maps([(0, H.antipode)]))
        if verify_quasitriangular(candidate).passed and verify_structure(candidate).passed:
            return candidate
    raise StructureValidationError(
        f"catalog entry {H.name}: no R-matrix in {what} passed verification")
