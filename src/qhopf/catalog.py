"""Built-in catalog of verified quasi-Hopf structures.

Every entry is constructed from first principles and passes the full
verifier before it is handed out.  Every entry built with an R-matrix passes
its candidates (z2-group its one R) to ``builders.search_r``, which keeps
the first one the verifier accepts; that verification is the entry's.

* ``z2-group``        the group algebra of Z2, with the nontrivial
                      triangular R-matrix and a projector twist,
* ``z2-cocycle``      the same algebra with the 3-cocycle coassociator
                      1 - 2 p- (x) p- (x) p-; canonical elements solved,
* ``sweedler-h4``     the 4-dimensional algebra (g, x | g^2=1, x^2=0,
                      xg=-gx) with its one-parameter R-matrix,
* ``grassmann-theta`` the super pair (1, theta) with theta odd and the
                      R-matrix 1 + theta (x) theta, the point c = 1 of a
                      family 1 + c theta (x) theta that satisfies the
                      hexagons for every c,
* ``sweedler-twisted`` the Sweedler entry twisted by F = 1 + x (x) gx,
                      which is genuinely quasi (nontrivial coassociator),
* ``small-uqsl2``     a 27-dimensional small quantum group over the
                      cyclotomic field of order 3 (built in uqsl2.py).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence, Tuple, Union

from .builders import hopf_structure, search_r
from .errors import UnknownNameError
from .graded import (
    GradedAlgebra,
    GradedBasis,
    LinearMap,
    TensorElement,
    linear_form,
)
from .invariants import solve_canonical_elements
from .quasihopf import QuasiHopfStructure, require_verified
from .representations import Representation, regular_representation, trivial_representation
from .scalars import FieldDescriptor, QQ, Scalar
from .structfile import CatalogEntry
from .twisting import Twistor, identity_twistor, twist_structure, validate_twistor
from .uqsl2 import build_small_uqsl2

Q = FieldDescriptor.rationals()


# ---------------------------------------------------------------------------
# small construction helpers


def make_algebra(labels: Sequence[str], parity: Sequence[int], unit: str,
                 products: Dict[Tuple[str, str], Dict[str, Union[int, Scalar]]],
                 field: FieldDescriptor = Q, name: str = "") -> GradedAlgebra:
    labels = list(labels)
    basis = GradedBasis(tuple(labels), tuple(parity), labels.index(unit))
    entries = {}
    for (a, b), out in products.items():
        for k, c in out.items():
            s = c if isinstance(c, Scalar) else field.from_int(c)
            entries[(labels.index(a), labels.index(b), labels.index(k))] = s
    return GradedAlgebra(basis, entries, field, name=name)


def make_coproduct(A: GradedAlgebra,
                   table: Dict[str, List[Tuple[str, str, Union[int, Scalar]]]]) -> LinearMap:
    return LinearMap(A, (A, A), [tensor_from(A, table[lab]) for lab in A.labels],
                     name="coproduct")


def make_counit(A: GradedAlgebra, table: Dict[str, Union[int, Scalar]]) -> LinearMap:
    values = [table[lab] for lab in A.labels]
    return linear_form(A, [c if isinstance(c, Scalar) else A.field.from_int(c)
                           for c in values], name="counit")


def make_antipode(A: GradedAlgebra,
                  table: Dict[str, Dict[str, Union[int, Scalar]]]) -> LinearMap:
    images = [TensorElement.of(A.element(table[lab])) for lab in A.labels]
    return LinearMap(A, (A,), images, name="antipode")


def tensor_from(A: GradedAlgebra,
                entries: List[Tuple]) -> TensorElement:
    """entries: tuples of basis labels followed by a coefficient."""
    return TensorElement.from_terms((A,) * (len(entries[0]) - 1), (
        (tuple(A.index_of(l) for l in labs),
         c if isinstance(c, Scalar) else A.field.from_rational(QQ(c))) for *labs, c in entries))


# ---------------------------------------------------------------------------
# E1 / E2: the Z2 group algebra and its cocycle deformation


def _z2_algebra() -> GradedAlgebra:
    prods = {("1", "1"): {"1": 1}, ("1", "g"): {"g": 1},
             ("g", "1"): {"g": 1}, ("g", "g"): {"1": 1}}
    return make_algebra(["1", "g"], [0, 0], "1", prods, name="kZ2")


def _z2_maps(A: GradedAlgebra):
    coproduct = make_coproduct(A, {"1": [("1", "1", 1)], "g": [("g", "g", 1)]})
    counit = make_counit(A, {"1": 1, "g": 1})
    antipode = make_antipode(A, {"1": {"1": 1}, "g": {"g": 1}})
    return coproduct, counit, antipode


def _z2_r2(A: GradedAlgebra) -> TensorElement:
    half = QQ(1, 2)
    return tensor_from(A, [("1", "1", half), ("1", "g", half),
                           ("g", "1", half), ("g", "g", -half)])


def _z2_twistors(H: QuasiHopfStructure) -> Dict[str, Twistor]:
    A = H.algebra
    pm = A.element({"1": A.field.from_rational(QQ(1, 2)),
                    "g": A.field.from_rational(QQ(-1, 2))})
    f = H.unit_tensor(2) + TensorElement.of(pm, pm)
    f_inv = H.unit_tensor(2) - TensorElement.of(pm, pm).scale(
        A.field.from_rational(QQ(1, 2)))
    return {"identity": identity_twistor(H),
            "pminus": validate_twistor(f, H, f_inv, name="pminus")}


def _z2_representations(H: QuasiHopfStructure) -> Dict[str, Representation]:
    A = H.algebra
    one, neg = A.field.one(), A.field.from_int(-1)
    sign = Representation(A, (0,), [[[one]], [[neg]]], name="sign")
    return {"trivial": trivial_representation(H.counit),
            "sign": sign,
            "regular": regular_representation(A)}


def _build_z2_group() -> CatalogEntry:
    A = _z2_algebra()
    coproduct, counit, antipode = _z2_maps(A)
    H0 = hopf_structure(A, coproduct, counit, antipode, "z2-group")
    H = search_r(H0, [_z2_r2(A)], "the triangular R of Z2")
    return CatalogEntry("z2-group", H, _z2_twistors(H), _z2_representations(H),
                        notes="group algebra of Z2 with the nontrivial triangular R")


def _build_z2_cocycle() -> CatalogEntry:
    A = _z2_algebra()
    coproduct, counit, antipode = _z2_maps(A)
    pm = A.element({"1": A.field.from_rational(QQ(1, 2)),
                    "g": A.field.from_rational(QQ(-1, 2))})
    unit3 = TensorElement.unit((A, A, A))
    phi = unit3 - TensorElement.of(pm, pm, pm).scale(2)
    # the cube of an idempotent even tensor: phi is its own inverse
    bare = QuasiHopfStructure(
        algebra=A, coproduct=coproduct, counit=counit, antipode=antipode,
        phi=phi, phi_inv=phi, alpha=None, beta=None, name="z2-cocycle")
    alpha, beta = solve_canonical_elements(bare)[0]
    H = require_verified(bare.with_data(alpha=alpha, beta=beta), "catalog entry z2-cocycle")
    return CatalogEntry("z2-cocycle", H, _z2_twistors(H), _z2_representations(H),
                        notes="Z2 algebra with the 3-cocycle coassociator; "
                              "canonical elements solved at build time")


# ---------------------------------------------------------------------------
# E3: the 4-dimensional Sweedler-type algebra


def _sweedler_algebra() -> GradedAlgebra:
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
    return make_algebra(["1", "g", "x", "gx"], [0, 0, 0, 0], "1", prods, name="H4")


def _build_sweedler() -> CatalogEntry:
    A = _sweedler_algebra()
    coproduct = make_coproduct(A, {
        "1": [("1", "1", 1)],
        "g": [("g", "g", 1)],
        "x": [("x", "1", 1), ("g", "x", 1)],
        "gx": [("gx", "g", 1), ("1", "gx", 1)],
    })
    counit = make_counit(A, {"1": 1, "g": 1, "x": 0, "gx": 0})
    antipode = make_antipode(A, {"1": {"1": 1}, "g": {"g": 1},
                                 "x": {"gx": -1}, "gx": {"x": 1}})
    H0 = hopf_structure(A, coproduct, counit, antipode, "sweedler-h4")
    # R is the Z2 R-matrix plus a nilpotent part with coefficients +-1/2
    base, nil = _z2_r2(A), (("x", "x"), ("x", "gx"), ("gx", "x"), ("gx", "gx"))
    signs = ((1, 1, -1, 1), (1, -1, 1, 1), (1, 1, 1, -1), (-1, 1, 1, 1),
             (1, 1, 1, 1), (1, -1, -1, 1), (-1, 1, 1, -1), (-1, -1, -1, -1))
    H = search_r(H0, (base + tensor_from(A, [(*k, QQ(s, 2)) for k, s in zip(nil, ss)])
                      for ss in signs), "the sign family")
    ft = H.unit_tensor(2) + tensor_from(A, [("x", "gx", 1)])
    ft_inv = H.unit_tensor(2) - tensor_from(A, [("x", "gx", 1)])
    twistors = {"identity": identity_twistor(H),
                "Ft": validate_twistor(ft, H, ft_inv, name="Ft")}
    reps = {"trivial": trivial_representation(H.counit),
            "regular": regular_representation(A)}
    return CatalogEntry("sweedler-h4", H, twistors, reps,
                        notes="4-dimensional algebra with nilpotent generator; "
                              "R-matrix solved over a sign family at build time")


# ---------------------------------------------------------------------------
# E4: the odd generator pair


def _build_grassmann() -> CatalogEntry:
    prods = {("1", "1"): {"1": 1}, ("1", "th"): {"th": 1},
             ("th", "1"): {"th": 1}, ("th", "th"): {}}
    A = make_algebra(["1", "th"], [0, 1], "1", prods, name="grassmann")
    coproduct = make_coproduct(A, {"1": [("1", "1", 1)],
                                   "th": [("th", "1", 1), ("1", "th", 1)]})
    counit = make_counit(A, {"1": 1, "th": 0})
    antipode = make_antipode(A, {"1": {"1": 1}, "th": {"th": -1}})
    H0 = hopf_structure(A, coproduct, counit, antipode, "grassmann-theta")
    # the hexagon residuals of R(c) are polynomial in c and vanish identically
    H = search_r(H0, [grassmann_r_candidate(H0, 1)], "R(c) = 1 + c th (x) th at c = 1")
    f = H.unit_tensor(2) + tensor_from(A, [("th", "th", 1)])
    f_inv = H.unit_tensor(2) - tensor_from(A, [("th", "th", 1)])
    twistors = {"identity": identity_twistor(H),
                "theta-pair": validate_twistor(f, H, f_inv, name="theta-pair")}
    reps = {"trivial": trivial_representation(H.counit),
            "regular": regular_representation(A)}
    return CatalogEntry("grassmann-theta", H, twistors, reps,
                        notes="super pair with odd generator; R solved from "
                              "the hexagons (every coefficient c is admissible)")


def grassmann_r_candidate(H: QuasiHopfStructure, c) -> TensorElement:
    A = H.algebra
    s = c if isinstance(c, Scalar) else A.field.from_int(c)
    return H.unit_tensor(2) + tensor_from(A, [("th", "th", 1)]).scale(s)


# ---------------------------------------------------------------------------
# E5: the twisted Sweedler entry


def _build_sweedler_twisted() -> CatalogEntry:
    base = load_builtin("sweedler-h4")
    ft = base.twistors["Ft"]
    H = twist_structure(base.structure, ft)
    H = H.with_data(name="sweedler-twisted")
    untwist = validate_twistor(ft.f_inv, H, ft.f, name="untwist")
    twistors = {"identity": identity_twistor(H), "untwist": untwist}
    return CatalogEntry("sweedler-twisted", H, twistors,
                        dict(base.representations),
                        notes="Sweedler entry twisted by F = 1 + x (x) gx; "
                              "the coassociator is genuinely nontrivial")


# ---------------------------------------------------------------------------
# public interface

BUILTIN_NAMES = ("z2-group", "z2-cocycle", "sweedler-h4", "grassmann-theta",
                 "sweedler-twisted", "small-uqsl2")

_ALIASES = {"e1": "z2-group", "e2": "z2-cocycle", "e3": "sweedler-h4",
            "e4": "grassmann-theta", "e5": "sweedler-twisted",
            "e6": "small-uqsl2"}


def load_builtin(name: str) -> CatalogEntry:
    """Load (and fully verify) a built-in entry.  Entries are cached and
    must be treated as immutable; use ``with_data`` for modified copies."""
    return _load(_ALIASES.get(name.lower(), name))


@lru_cache(maxsize=None)
def _load(key: str) -> CatalogEntry:
    builders = {"z2-group": _build_z2_group, "z2-cocycle": _build_z2_cocycle,
                "sweedler-h4": _build_sweedler, "grassmann-theta": _build_grassmann,
                "sweedler-twisted": _build_sweedler_twisted,
                "small-uqsl2": build_small_uqsl2}
    if key not in builders:
        raise UnknownNameError(
            f"unknown builtin {key!r}; available: {', '.join(BUILTIN_NAMES)}")
    return builders[key]()
