"""Exact sparse linear algebra over a FieldDescriptor.

A system is a list of sparse rows ``{column: Scalar}`` over the columns
0..cols-1; absent entries are zero.  ``rows_of`` builds the rows from
column images keyed by any hashable row label, so callers pass the
coefficient dicts they already have.  There is one elimination routine,
Gauss-Jordan ``rref``: it scans columns left to right and takes the
shortest candidate row as pivot.  A reduced row echelon form depends only
on the row space, so the returned kernel bases and particular solutions do
not depend on the row order or the pivot choice.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from .scalars import FieldDescriptor, Scalar

Row = Dict[int, Scalar]
Vector = List[Scalar]


def rows_of(columns: Sequence[Mapping[Hashable, Scalar]]) -> List[Row]:
    """Transpose column images: column j maps row labels to its entries."""
    rows: Dict[Hashable, Row] = {}
    for j, column in enumerate(columns):
        for label, c in column.items():
            rows.setdefault(label, {})[j] = c
    return list(rows.values())


def eliminate(row: dict, pivot: dict, c: int, ops) -> None:
    """The elimination step: row -= row[c] * pivot in place, with pivot[c] one."""
    add, mul, is_zero = ops.add, ops.mul, ops.is_zero
    f = ops.neg(row[c])
    for k, v in pivot.items():
        x = add(row[k], mul(f, v)) if k in row else mul(f, v)
        if is_zero(x):
            del row[k]
        else:
            row[k] = x


def rref(rows: Sequence[Mapping[int, Scalar]], cols: int) -> Tuple[List[Row], List[int]]:
    """Reduced row echelon form; pivots are taken in the columns below
    ``cols`` and entries at or beyond it are carried along.  Returns the
    nonzero reduced rows in pivot order and their pivot columns.  The
    elimination runs on payloads, and every pivot row is scaled by the
    inverse of its pivot (``ops.inv`` and ``ops.mul`` pass a one through)."""
    field = next((v.field for row in rows for v in row.values()), None)
    if field is None:
        return [], []
    ops = field.ops
    mul, is_zero = ops.mul, ops.is_zero
    pending = [r for r in ({k: v.value for k, v in row.items() if not is_zero(v.value)}
                           for row in rows) if r]
    reduced: List[dict] = []  # rows of payloads until the end
    pivots: List[int] = []
    for c in range(cols):
        candidates = [r for r in pending if c in r]
        if not candidates:
            continue
        chosen = min(candidates, key=len)
        inv = ops.inv(chosen[c])
        pivot = {k: mul(v, inv) for k, v in chosen.items()}
        for row in reduced + candidates:
            if c in row and row is not chosen:
                eliminate(row, pivot, c, ops)
        pending = [r for r in pending if r and c not in r]  # drops chosen
        reduced.append(pivot)
        pivots.append(c)
    return [{k: Scalar(field, v) for k, v in row.items()} for row in reduced], pivots


def nullspace(rows: Sequence[Mapping[int, Scalar]], cols: int,
              field: FieldDescriptor) -> List[Vector]:
    """Echelon-form basis of the kernel of the rows (which may be empty)."""
    return _kernel(*rref(rows, cols), cols, field)


def _kernel(red: List[Row], pivots: List[int], cols: int,
            field: FieldDescriptor) -> List[Vector]:
    """Kernel basis read off an RREF of the first ``cols`` columns; a pivot
    beyond them (an inconsistent right-hand side) is ignored."""
    zero, one = field.zero(), field.one()
    pivot_rows = [(pc, red[r]) for r, pc in enumerate(pivots) if pc < cols]
    basis = []
    for j in sorted(set(range(cols)) - set(pivots)):
        v = [zero] * cols
        v[j] = one
        for pc, row in pivot_rows:
            if j in row:
                v[pc] = -row[j]
        basis.append(v)
    return basis


def solve_affine(rows: Sequence[Mapping[int, Scalar]], cols: int,
                 field: FieldDescriptor) -> Tuple[Optional[Vector], List[Vector]]:
    """Solve the system whose right-hand side is column ``cols`` of the rows.
    Returns (particular solution or None, kernel basis)."""
    red, pivots = rref(rows, cols + 1)
    kernel = _kernel(red, pivots, cols, field)
    if cols in pivots:  # pivot in the rhs column: inconsistent
        return None, kernel
    particular = [field.zero()] * cols
    for row, pc in zip(red, pivots):
        particular[pc] = row.get(cols, particular[pc])
    return particular, kernel
