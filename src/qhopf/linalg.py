"""Exact dense linear algebra over a FieldDescriptor.

Matrices are lists of rows of Scalars.  Everything is deterministic:
elimination scans columns left to right and the returned bases are in
reduced row echelon form.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .scalars import FieldDescriptor, Scalar

Matrix = List[List[Scalar]]
Vector = List[Scalar]


def zeros(rows: int, cols: int, field: FieldDescriptor) -> Matrix:
    z = field.zero()
    return [[z for _ in range(cols)] for _ in range(rows)]


def identity(n: int, field: FieldDescriptor) -> Matrix:
    m = zeros(n, n, field)
    one = field.one()
    for i in range(n):
        m[i][i] = one
    return m


def rref(m: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot columns)."""
    m = [row[:] for row in m]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if not m[i][c].is_zero()), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inv()
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def nullspace(m: Matrix, cols: int, field: FieldDescriptor) -> List[Vector]:
    """Echelon-form basis of the kernel of m (m may have zero rows)."""
    return _kernel(*rref(m), cols, field)


def _kernel(red: Matrix, pivots: List[int], cols: int,
            field: FieldDescriptor) -> List[Vector]:
    """Kernel basis read off an RREF whose first ``cols`` columns are the
    coefficient matrix; pivots at or beyond ``cols`` are ignored."""
    pivots = [pc for pc in pivots if pc < cols]
    basis = []
    zero, one = field.zero(), field.one()
    for j in range(cols):
        if j in pivots:
            continue
        v = [zero] * cols
        v[j] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][j]
        basis.append(v)
    return basis


def solve_affine(m: Matrix, rhs: Vector, cols: int,
                 field: FieldDescriptor) -> Tuple[Optional[Vector], List[Vector]]:
    """Solve m x = rhs.  Returns (particular solution or None, kernel basis)."""
    aug = [row[:] + [b] for row, b in zip(m, rhs)]
    red, pivots = rref(aug)
    kernel = _kernel(red, pivots, cols, field)
    if cols in pivots:  # pivot in the rhs column: inconsistent
        return None, kernel
    particular = [field.zero()] * cols
    for r, pc in enumerate(pivots):
        particular[pc] = red[r][cols]
    return particular, kernel


def invert(m: Matrix, field: FieldDescriptor) -> Optional[Matrix]:
    """Inverse of a square matrix, or None if singular."""
    n = len(m)
    aug = [row[:] + identity(n, field)[i] for i, row in enumerate(m)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]
