"""The on-disk structure-file format (extension ``.qh``).

A structure file is a UTF-8 JSON document.  Scalars are strings in the
scalar grammar, multi-indices are arrays of basis labels (never integer
positions), and serialization is deterministic: fixed key order, entries
sorted by basis position.  parse(render(entry)) reproduces the entry
exactly, so the files double as golden data for the test suite.
"""

from __future__ import annotations

import functools
import json
from typing import Callable, Dict, List

from .catalog import CatalogEntry
from .errors import StructureValidationError
from .graded import (
    AlgebraElement,
    GradedAlgebra,
    GradedBasis,
    LinearMap,
    TensorElement,
    linear_form,
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
    return [[labels[i] for i in key] + [str(c)] for key, c in sorted(t.coeffs.items())]


def _element_dict(x: AlgebraElement, labels) -> Dict[str, str]:
    return {labels[i]: str(c) for i, c in sorted(x.coeffs.items())}


def _map_table(m: LinearMap, labels) -> Dict[str, list]:
    return {labels[i]: _tensor_rows(img, labels) for i, img in enumerate(m.images)}


def entry_to_dict(entry: CatalogEntry) -> dict:
    H = entry.structure
    A = H.algebra
    labels = A.labels
    mul_rows = [[labels[i], labels[j], labels[k], str(c)]
                for (i, j) in sorted(A._mul) for k, c in sorted(A._mul[(i, j)].items())]
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


_MISSING = object()
_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _typed(value, kind, path: str):
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise StructureValidationError(f"{path}: expected {_TYPE_NAMES[kind]}")
    return value


def _key(doc: dict, key: str, kind, path: str = "", default=_MISSING):
    """doc[key], checked to be of type kind; None passes when it is the default."""
    where = f"{path}.{key}" if path else key
    if key not in doc:
        if default is _MISSING:
            raise StructureValidationError(f"{where}: missing")
        return default
    value = doc[key]
    if value is None and default is None:
        return None
    return _typed(value, kind, where)


def _label_items(table, path: str, labels):
    """An object keyed by basis labels, as (label, value, path) triples."""
    _typed(table, dict, path)
    for lab in table:
        if lab not in labels:
            raise StructureValidationError(f"{path}: unknown label {lab!r}")
    return [(lab, value, f"{path}.{lab}") for lab, value in table.items()]


def _check_rows(rows, path: str, rank: int, labels) -> None:
    """A list of [label * rank, scalar string] rows."""
    _typed(rows, list, path)
    for i, row in enumerate(rows):
        where = f"{path}[{i}]"
        _typed(row, list, where)
        if len(row) != rank + 1:
            raise StructureValidationError(f"{where}: expected {rank + 1} items")
        for j, lab in enumerate(row[:rank]):
            if not (isinstance(lab, str) and lab in labels):
                raise StructureValidationError(f"{where}[{j}]: unknown label {lab!r}")
        _typed(row[rank], str, f"{where}[{rank}]")


def _check_shape(doc) -> None:
    """Check the JSON shape of a structure document before it is parsed.

    Every key, type, row length and basis label the parser reads is checked
    here, so a malformed file fails with one :class:`StructureValidationError`
    that names the JSON path, e.g. ``mul[0]: expected 4 items``.  The
    mathematics (associativity, gradings, invertibility) is checked later,
    by the constructors.
    """
    _typed(doc, dict, "structure file")
    _key(doc, "name", str, default="")
    _key(doc, "notes", str, default="")
    field = _key(doc, "field", dict)
    kind = _key(field, "kind", str, "field")
    if kind == "cyclotomic":
        _key(field, "order", int, "field")
    elif kind == "rational-functions":
        _key(field, "indeterminate", str, "field")
    basis = _key(doc, "basis", dict)
    labels = _key(basis, "labels", list, "basis")
    for i, lab in enumerate(labels):
        _typed(lab, str, f"basis.labels[{i}]")
    for i, p in enumerate(_key(basis, "parity", list, "basis")):
        _typed(p, int, f"basis.parity[{i}]")
    if _key(basis, "unit", str, "basis") not in labels:
        raise StructureValidationError(f"basis.unit: unknown label {basis['unit']!r}")
    labels = set(labels)
    for key, rank in (("mul", 3), ("phi", 3), ("phi_inv", 3)):
        _check_rows(_key(doc, key, list), key, rank, labels)
    for key in ("r", "r_inv"):
        rows = _key(doc, key, list, default=None)
        if rows is not None:
            _check_rows(rows, key, 2, labels)
    for _, rows, where in _label_items(_key(doc, "coproduct", dict), "coproduct", labels):
        _check_rows(rows, where, 2, labels)
    for key in ("counit", "alpha", "beta"):
        for _, text, where in _label_items(_key(doc, key, dict), key, labels):
            _typed(text, str, where)
    for _, image, where in _label_items(_key(doc, "antipode", dict), "antipode", labels):
        for _, text, at in _label_items(image, where, labels):
            _typed(text, str, at)
    for name, tw in _key(doc, "twistors", dict, default={}).items():
        where = f"twistors.{name}"
        _typed(tw, dict, where)
        for key in ("f", "f_inv"):
            _check_rows(_key(tw, key, list, where), f"{where}.{key}", 2, labels)
    for name, rep in _key(doc, "representations", dict, default={}).items():
        where = f"representations.{name}"
        _typed(rep, dict, where)
        for i, p in enumerate(_key(rep, "parity", list, where)):
            _typed(p, int, f"{where}.parity[{i}]")
        mats = _label_items(_key(rep, "matrices", dict, where), f"{where}.matrices", labels)
        missing = labels.difference(lab for lab, _, _ in mats)
        if missing:
            raise StructureValidationError(
                f"{where}.matrices: missing {sorted(missing)[0]!r}")
        for _, rows, at in mats:
            _typed(rows, list, at)
            for i, row in enumerate(rows):
                _typed(row, list, f"{at}[{i}]")
                for j, text in enumerate(row):
                    _typed(text, str, f"{at}[{i}][{j}]")


def _parse_field(d: dict) -> FieldDescriptor:
    kind = d["kind"]
    if kind == "rationals":
        return FieldDescriptor.rationals()
    if kind == "cyclotomic":
        return FieldDescriptor.cyclotomic(d["order"])
    if kind == "rational-functions":
        return FieldDescriptor.rational_functions(d["indeterminate"])
    raise StructureValidationError(f"unknown field kind {kind!r}")


def _scalar_parser(field: FieldDescriptor) -> Callable[[str], Scalar]:
    """parse_scalar over one field, once per distinct string for the life of
    the returned function (one load); a failed parse raises each time."""
    return functools.cache(lambda text: parse_scalar(text, field))


def _parse_tensor(rows, A: GradedAlgebra, rank: int, parse) -> TensorElement:
    return TensorElement.from_terms((A,) * rank, (
        (tuple(A.index_of(lab) for lab in labs), parse(text))
        for *labs, text in rows))


def _parse_element(d: Dict[str, str], A: GradedAlgebra, parse) -> AlgebraElement:
    return AlgebraElement(A, {A.index_of(lab): parse(text)
                              for lab, text in d.items()})


def entry_from_dict(doc: dict) -> CatalogEntry:
    _check_shape(doc)
    field = _parse_field(doc["field"])
    parse = _scalar_parser(field)
    basis_doc = doc["basis"]
    labels = tuple(basis_doc["labels"])
    basis = GradedBasis(labels, tuple(basis_doc["parity"]),
                        labels.index(basis_doc["unit"]))

    entries = {}
    for i, j, k, text in doc["mul"]:
        key = (labels.index(i), labels.index(j), labels.index(k))
        entries[key] = parse(text)
    A = GradedAlgebra(basis, entries, field, name=doc.get("name", ""))

    cop_doc = doc["coproduct"]
    cop_images = [_parse_tensor(cop_doc.get(lab, []), A, 2, parse) for lab in labels]
    coproduct = LinearMap(A, (A, A), cop_images, name="coproduct")

    eps_doc = doc["counit"]
    counit = linear_form(A, [parse(eps_doc.get(lab, "0")) for lab in labels],
                         name="counit")

    anti_doc = doc["antipode"]
    anti_images = [TensorElement.of(_parse_element(anti_doc.get(lab, {}), A, parse))
                   for lab in labels]
    antipode = LinearMap(A, (A,), anti_images, name="antipode")

    r_rows = doc.get("r")
    r_inv_rows = doc.get("r_inv")
    structure = QuasiHopfStructure(
        algebra=A, coproduct=coproduct, counit=counit, antipode=antipode,
        phi=_parse_tensor(doc["phi"], A, 3, parse),
        phi_inv=_parse_tensor(doc["phi_inv"], A, 3, parse),
        alpha=_parse_element(doc["alpha"], A, parse),
        beta=_parse_element(doc["beta"], A, parse),
        r=None if r_rows is None else _parse_tensor(r_rows, A, 2, parse),
        r_inv=None if r_inv_rows is None else _parse_tensor(r_inv_rows, A, 2, parse),
        name=doc.get("name", ""))

    twistors = {}
    for name, tw in doc.get("twistors", {}).items():
        twistors[name] = Twistor(_parse_tensor(tw["f"], A, 2, parse),
                                 _parse_tensor(tw["f_inv"], A, 2, parse),
                                 name=name)
    representations = {}
    for name, rp in doc.get("representations", {}).items():
        mats_doc = rp["matrices"]
        matrices = [[[parse(c) for c in row] for row in mats_doc[lab]]
                    for lab in labels]
        representations[name] = Representation(A, tuple(rp["parity"]), matrices,
                                               name=name)
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
