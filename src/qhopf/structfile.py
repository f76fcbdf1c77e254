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
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .errors import ScalarSyntaxError, StructureValidationError, UnknownNameError
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
from .twisting import Twistor, validate_twistor


class CatalogEntry:
    """A named structure with its twistors and representations, as one
    ``.qh`` file or one builtin holds them."""

    def __init__(self, name: str, structure: QuasiHopfStructure,
                 twistors: Dict[str, Twistor], representations: Dict[str, Representation],
                 notes: str = ""):
        self.name, self.structure, self.notes = name, structure, notes
        self.twistors, self.representations = twistors, representations

    def twistor(self, name: str) -> Twistor:
        if name not in self.twistors:
            raise UnknownNameError(f"entry {self.name} has no twistor {name!r}")
        return self.twistors[name]

    def representation(self, name: str) -> Representation:
        if name not in self.representations:
            raise UnknownNameError(f"entry {self.name} has no representation {name!r}")
        return self.representations[name]


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


def _map_table(m: LinearMap, labels) -> Dict[str, list]:
    return {labels[i]: _tensor_rows(img, labels) for i, img in enumerate(m.images)}


def entry_to_dict(entry: CatalogEntry) -> dict:
    H = entry.structure
    A = H.algebra
    labels = A.labels
    mul_rows = [[labels[i], labels[j], labels[k], str(c)] for i in range(A.dim)
                for j in range(A.dim) for k, c in sorted(A.mul_basis(i, j).items())]
    return {
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
        "antipode": {labels[i]: H.s_basis(i).to_dict() for i in range(A.dim)},
        "phi": _tensor_rows(H.phi, labels),
        "phi_inv": _tensor_rows(H.phi_inv, labels),
        "alpha": H.alpha.to_dict(),
        "beta": H.beta.to_dict(),
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


def render_entry(entry: CatalogEntry) -> str:
    return json.dumps(entry_to_dict(entry), sort_keys=True, indent=1) + "\n"


def save_entry(entry: CatalogEntry, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_entry(entry))


# ---------------------------------------------------------------------------
# reading


_MISSING = object()
_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _typed(value, kind, path: str):
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise StructureValidationError(f"{path}: expected {_TYPE_NAMES[kind]}")
    return value


def _key(doc: dict, key: str, kind, path: str = "", default=_MISSING):
    """doc[key], checked to be of type kind; a missing key gives the default,
    if there is one, and None passes when it is the default."""
    where = f"{path}.{key}" if path else key
    value = doc.get(key, default)
    if value is _MISSING:
        raise StructureValidationError(f"{where}: missing")
    if value is None and default is None:
        return None
    return _typed(value, kind, where)


def _items(values: list, kind, path: str) -> tuple:
    """The items of a list, each checked to be of type kind."""
    return tuple(_typed(v, kind, f"{path}[{i}]") for i, v in enumerate(values))


def _read_field(d: dict) -> FieldDescriptor:
    kind = _key(d, "kind", str, "field")
    if kind == "rationals":
        return FieldDescriptor.rationals()
    if kind == "cyclotomic":
        return FieldDescriptor.cyclotomic(_key(d, "order", int, "field"))
    if kind == "rational-functions":
        return FieldDescriptor.rational_functions(_key(d, "indeterminate", str, "field"))
    raise StructureValidationError(f"unknown field kind {kind!r}")


def _scalar_parser(field: FieldDescriptor) -> Callable[[str], Scalar]:
    """parse_scalar over one field, once per distinct string for the life of
    the returned function (one load); a failed parse raises each time."""
    return functools.cache(lambda text: parse_scalar(text, field))


class _Reader:
    """Checked accessors for the values of one document that hold basis
    labels or scalars.  Each takes a value and its JSON path, checks the
    value and returns it with labels as basis indices and scalars parsed,
    or raises StructureValidationError (ScalarSyntaxError for a scalar)
    naming the path."""

    def __init__(self, labels: Sequence[str], field: FieldDescriptor):
        self.labels = labels
        self.index: Dict[str, int] = {}
        for i, lab in enumerate(labels):
            if self.index.setdefault(lab, i) != i:
                raise StructureValidationError(f"basis.labels[{i}]: repeated label {lab!r}")
        self.parse = _scalar_parser(field)
        self.zero = field.zero()

    def label(self, lab, path: str) -> int:
        if not isinstance(lab, str) or lab not in self.index:
            raise StructureValidationError(f"{path}: unknown label {lab!r}")
        return self.index[lab]

    def scalar(self, text, path: str) -> Scalar:
        try:
            return self.parse(_typed(text, str, path))
        except ScalarSyntaxError as err:
            raise ScalarSyntaxError(f"{path}: {err.message}", err.position) from None

    def terms(self, rows, path: str, rank: int) -> List[Tuple[tuple, Scalar]]:
        """A list of [label * rank, scalar string] rows, as (key, Scalar) terms."""
        terms = []
        for i, row in enumerate(_typed(rows, list, path)):
            where = f"{path}[{i}]"
            if len(_typed(row, list, where)) != rank + 1:
                raise StructureValidationError(f"{where}: expected {rank + 1} items")
            key = tuple(self.label(lab, f"{where}[{j}]") for j, lab in enumerate(row[:rank]))
            terms.append((key, self.scalar(row[rank], f"{where}[{rank}]")))
        return terms

    def by_label(self, table, path: str, read: Callable, default=_MISSING) -> list:
        """An object keyed by basis labels, as read(value, path) per basis
        element; a label the object lacks gives default, or fails without one."""
        _typed(table, dict, path)
        values = {self.label(lab, path): read(value, f"{path}.{lab}")
                  for lab, value in table.items()}
        missing = sorted(set(self.labels).difference(table))
        if missing and default is _MISSING:
            raise StructureValidationError(f"{path}: missing {missing[0]!r}")
        return [values.get(i, default) for i in range(len(self.labels))]

    def element(self, table, path: str) -> Dict[int, Scalar]:
        return dict(enumerate(self.by_label(table, path, self.scalar, self.zero)))

    def matrix(self, rows, path: str) -> List[List[Scalar]]:
        return [[self.scalar(text, f"{path}[{i}][{j}]")
                 for j, text in enumerate(_typed(row, list, f"{path}[{i}]"))]
                for i, row in enumerate(_typed(rows, list, path))]


def _named(doc: dict, key: str):
    """The objects of doc[key] (none when absent), as (name, object, path)."""
    return [(name, _typed(value, dict, f"{key}.{name}"), f"{key}.{name}")
            for name, value in _key(doc, key, dict, default={}).items()]


def entry_from_dict(doc) -> CatalogEntry:
    """Read a structure document in one checked pass, then build its entry.

    Every value is checked where it is read, in the order field, basis, mul,
    coproduct, counit, antipode, phi, phi_inv, alpha, beta, r, r_inv,
    twistors, representations; the first fault raises one
    StructureValidationError naming its JSON path, e.g. ``mul[0]: expected
    4 items``.  The checks of the mathematics (associativity, unit laws, gradings,
    invertibility, each twistor) run once the whole document is read."""
    _typed(doc, dict, "structure file")
    name = _key(doc, "name", str, default="")
    notes = _key(doc, "notes", str, default="")
    field = _read_field(_key(doc, "field", dict))
    basis = _key(doc, "basis", dict)
    labels = _items(_key(basis, "labels", list, "basis"), str, "basis.labels")
    read = _Reader(labels, field)
    parity = _items(_key(basis, "parity", list, "basis"), int, "basis.parity")
    if len(parity) != len(labels):
        raise StructureValidationError(f"basis.parity: expected {len(labels)} items")
    for i, p in enumerate(parity):
        if p not in (0, 1):
            raise StructureValidationError(f"basis.parity[{i}]: expected 0 or 1")
    unit = read.label(_key(basis, "unit", str, "basis"), "basis.unit")
    if parity[unit]:
        raise StructureValidationError("basis.unit: the unit must be even")
    mul = dict(read.terms(_key(doc, "mul", list), "mul", 3))
    cop = read.by_label(_key(doc, "coproduct", dict), "coproduct",
                        lambda rows, at: read.terms(rows, at, 2), [])
    counit = read.by_label(_key(doc, "counit", dict), "counit", read.scalar, read.zero)
    anti = read.by_label(_key(doc, "antipode", dict), "antipode", read.element, {})
    phi = read.terms(_key(doc, "phi", list), "phi", 3)
    phi_inv = read.terms(_key(doc, "phi_inv", list), "phi_inv", 3)
    alpha = read.element(_key(doc, "alpha", dict), "alpha")
    beta = read.element(_key(doc, "beta", dict), "beta")
    r = _key(doc, "r", list, default=None)
    r = None if r is None else read.terms(r, "r", 2)
    r_inv = _key(doc, "r_inv", list, default=None)
    r_inv = None if r_inv is None else read.terms(r_inv, "r_inv", 2)
    twistors = {tw_name: [read.terms(_key(tw, key, list, where), f"{where}.{key}", 2)
                          for key in ("f", "f_inv")]
                for tw_name, tw, where in _named(doc, "twistors")}
    reps = {rep_name: (_items(_key(rep, "parity", list, where), int, f"{where}.parity"),
                       read.by_label(_key(rep, "matrices", dict, where),
                                     f"{where}.matrices", read.matrix))
            for rep_name, rep, where in _named(doc, "representations")}

    A = GradedAlgebra(GradedBasis(labels, parity, unit), mul, field, name=name)

    def tensor(terms, rank=2) -> Optional[TensorElement]:
        return None if terms is None else TensorElement.from_terms((A,) * rank, terms)

    structure = QuasiHopfStructure(
        algebra=A,
        coproduct=LinearMap(A, (A, A), [tensor(t) for t in cop], name="coproduct"),
        counit=linear_form(A, counit, name="counit"),
        antipode=LinearMap(A, (A,), [TensorElement.of(AlgebraElement(A, x)) for x in anti],
                           name="antipode"),
        phi=tensor(phi, 3), phi_inv=tensor(phi_inv, 3),
        alpha=AlgebraElement(A, alpha), beta=AlgebraElement(A, beta),
        r=tensor(r), r_inv=tensor(r_inv), name=name)
    return CatalogEntry(
        name, structure,
        {tw_name: validate_twistor(tensor(f), structure, tensor(f_inv), name=tw_name)
         for tw_name, (f, f_inv) in twistors.items()},
        {rep_name: Representation(A, rep_parity, matrices, name=rep_name)
         for rep_name, (rep_parity, matrices) in reps.items()},
        notes=notes)


def _unique_keys(pairs: List[Tuple[str, object]]) -> dict:
    """A JSON object's dict; a key given twice is an error, not its last value."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return doc


def parse_entry(text: Union[str, bytes]) -> CatalogEntry:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as err:  # also bad UTF-8, long ints, deep nesting
        raise StructureValidationError(f"not valid JSON: {err}") from None
    return entry_from_dict(doc)


def load_entry(path: str) -> CatalogEntry:
    with open(path, "rb") as fh:
        return parse_entry(fh.read())
