"""The on-disk structure-file format (extension ``.qh``).

A structure file is a UTF-8 JSON document.  Scalars are strings in the
scalar grammar, multi-indices are arrays of basis labels (never integer
positions), and serialization is deterministic: fixed key order, entries
sorted by basis position.  parse(render(entry)) reproduces the entry
exactly, so the files double as golden data for the test suite.
"""

from __future__ import annotations

import json
from typing import Dict, List

from .catalog import CatalogEntry
from .errors import StructureValidationError
from .graded import (
    AlgebraElement,
    GradedAlgebra,
    GradedBasis,
    LinearMap,
    StructureConstants,
    TensorElement,
)
from .quasihopf import QuasiHopfStructure
from .representations import Representation
from .scalars import FieldDescriptor, Scalar, parse_scalar
from .twisting import Twistor


# ---------------------------------------------------------------------------
# rendering


def _field_dict(field: FieldDescriptor) -> dict:
    if field.kind == "cyclotomic":
        return {"kind": "cyclotomic", "order": field.order}
    if field.kind == "rational-functions":
        return {"kind": "rational-functions", "indeterminate": field.indeterminate}
    return {"kind": "rationals"}


def _tensor_rows(t: TensorElement, labels) -> List[list]:
    rows = []
    for key in sorted(t.coeffs):
        rows.append([labels[i] for i in key] + [str(t.coeffs[key])])
    return rows


def _element_dict(x: AlgebraElement, labels) -> Dict[str, str]:
    return {labels[i]: str(c) for i, c in sorted(x.coeffs.items())}


def _map_table(m: LinearMap, labels) -> Dict[str, list]:
    table = {}
    for i, img in enumerate(m.images):
        table[labels[i]] = _tensor_rows(img, labels)
    return table


def entry_to_dict(entry: CatalogEntry) -> dict:
    H = entry.structure
    A = H.algebra
    labels = A.labels
    mul_rows = []
    for (i, j) in sorted(A._mul):
        for k in sorted(A._mul[(i, j)]):
            mul_rows.append([labels[i], labels[j], labels[k],
                             str(A._mul[(i, j)][k])])
    doc = {
        "name": entry.name,
        "notes": entry.notes,
        "field": _field_dict(A.field),
        "basis": {"labels": list(labels),
                  "parity": list(A.parity),
                  "unit": labels[A.basis.unit_index]},
        "mul": mul_rows,
        "coproduct": _map_table(H.coproduct, labels),
        "counit": {labels[i]: str(H.eps(A.basis_element(i)))
                   for i in range(A.dim)},
        "antipode": {labels[i]: _element_dict(H.s_basis(i), labels)
                     for i in range(A.dim)},
        "phi": _tensor_rows(H.phi, labels),
        "phi_inv": _tensor_rows(H.phi_inv, labels),
        "alpha": _element_dict(H.alpha, labels),
        "beta": _element_dict(H.beta, labels),
        "r": None if H.r is None else _tensor_rows(H.r, labels),
        "r_inv": None if H.r_inv is None else _tensor_rows(H.r_inv, labels),
        "twistors": {
            name: {"f": _tensor_rows(tw.f, labels),
                   "f_inv": _tensor_rows(tw.f_inv, labels)}
            for name, tw in sorted(entry.twistors.items())},
        "representations": {
            name: {"parity": list(rep.carrier_parity),
                   "matrices": {labels[i]: [[str(c) for c in row]
                                            for row in rep.matrices[i]]
                                for i in range(A.dim)}}
            for name, rep in sorted(entry.representations.items())},
    }
    return doc


def render_entry(entry: CatalogEntry) -> str:
    return json.dumps(entry_to_dict(entry), sort_keys=True, indent=1) + "\n"


def save_entry(entry: CatalogEntry, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_entry(entry))


# ---------------------------------------------------------------------------
# parsing


def _require(doc: dict, key: str):
    if key not in doc:
        raise StructureValidationError(f"structure file is missing {key!r}")
    return doc[key]


def _parse_field(d: dict) -> FieldDescriptor:
    kind = _require(d, "kind")
    if kind == "rationals":
        return FieldDescriptor.rationals()
    if kind == "cyclotomic":
        return FieldDescriptor.cyclotomic(_require(d, "order"))
    if kind == "rational-functions":
        return FieldDescriptor.rational_functions(_require(d, "indeterminate"))
    raise StructureValidationError(f"unknown field kind {kind!r}")


def _parse_tensor(rows, A: GradedAlgebra, rank: int) -> TensorElement:
    coeffs = {}
    for row in rows:
        if len(row) != rank + 1:
            raise StructureValidationError(
                f"tensor row {row!r} does not have rank {rank}")
        *labs, text = row
        key = tuple(A.index_of(lab) for lab in labs)
        s = parse_scalar(text, A.field)
        coeffs[key] = coeffs.get(key, A.field.zero()) + s
    return TensorElement((A,) * rank, coeffs)


def _parse_element(d: Dict[str, str], A: GradedAlgebra) -> AlgebraElement:
    return AlgebraElement(A, {A.index_of(lab): parse_scalar(text, A.field)
                              for lab, text in d.items()})


def entry_from_dict(doc: dict) -> CatalogEntry:
    field = _parse_field(_require(doc, "field"))
    basis_doc = _require(doc, "basis")
    labels = tuple(_require(basis_doc, "labels"))
    parity = tuple(int(p) for p in _require(basis_doc, "parity"))
    unit = _require(basis_doc, "unit")
    if unit not in labels:
        raise StructureValidationError(f"unit label {unit!r} not in basis")
    basis = GradedBasis(labels, parity, labels.index(unit))

    entries = {}
    for row in _require(doc, "mul"):
        i, j, k, text = row
        key = (labels.index(i), labels.index(j), labels.index(k))
        entries[key] = parse_scalar(text, field)
    A = GradedAlgebra(basis, StructureConstants(entries), field,
                      name=doc.get("name", ""))

    cop_doc = _require(doc, "coproduct")
    cop_images = [_parse_tensor(cop_doc.get(lab, []), A, 2) for lab in labels]
    coproduct = LinearMap(A, (A, A), cop_images, name="coproduct")

    eps_doc = _require(doc, "counit")
    eps_images = []
    for lab in labels:
        s = parse_scalar(eps_doc.get(lab, "0"), field)
        eps_images.append(TensorElement((), {(): s} if not s.is_zero() else {}))
    counit = LinearMap(A, (), eps_images, name="counit")

    anti_doc = _require(doc, "antipode")
    anti_images = [TensorElement.of(_parse_element(anti_doc.get(lab, {}), A))
                   for lab in labels]
    antipode = LinearMap(A, (A,), anti_images, name="antipode")

    r_rows = doc.get("r")
    r_inv_rows = doc.get("r_inv")
    structure = QuasiHopfStructure(
        algebra=A, coproduct=coproduct, counit=counit, antipode=antipode,
        phi=_parse_tensor(_require(doc, "phi"), A, 3),
        phi_inv=_parse_tensor(_require(doc, "phi_inv"), A, 3),
        alpha=_parse_element(_require(doc, "alpha"), A),
        beta=_parse_element(_require(doc, "beta"), A),
        r=None if r_rows is None else _parse_tensor(r_rows, A, 2),
        r_inv=None if r_inv_rows is None else _parse_tensor(r_inv_rows, A, 2),
        name=doc.get("name", ""))

    twistors = {}
    for name, tw in doc.get("twistors", {}).items():
        twistors[name] = Twistor(_parse_tensor(_require(tw, "f"), A, 2),
                                 _parse_tensor(_require(tw, "f_inv"), A, 2),
                                 name=name)
    representations = {}
    for name, rp in doc.get("representations", {}).items():
        carrier = tuple(int(p) for p in _require(rp, "parity"))
        mats_doc = _require(rp, "matrices")
        matrices = []
        for lab in labels:
            rows = mats_doc[lab]
            matrices.append([[parse_scalar(c, field) for c in row]
                             for row in rows])
        representations[name] = Representation(A, carrier, matrices, name=name)
    return CatalogEntry(doc.get("name", ""), structure, twistors,
                        representations, notes=doc.get("notes", ""))


def parse_entry(text: str) -> CatalogEntry:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise StructureValidationError(f"not valid JSON: {err}") from None
    return entry_from_dict(doc)


def load_entry(path: str) -> CatalogEntry:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_entry(fh.read())
