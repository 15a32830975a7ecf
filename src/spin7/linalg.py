"""Exact linear algebra over the rationals.

Matrices are lists of lists of ``Fraction`` with at most 70 columns (the
space of 4-forms on R^8).  ``rref`` is the one elimination kernel: exact
Gauss-Jordan elimination that scales the pivot row once and updates every
other row only at the pivot row's nonzero columns.  The matrices met here
(Hodge star, infinitesimal actions, orbit rows) are mostly zeros, so this
skips most of the ``Fraction`` work of a full row update.  Adding zero
does not change an entry and the reduced row echelon form is unique, so
``rank``, ``nullspace`` and ``solve`` return exactly what a full row
update would.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def zeros(nrows: int, ncols: int) -> Matrix:
    return [[Fraction(0)] * ncols for _ in range(nrows)]


def rref(matrix: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices (exact)."""
    m = [row[:] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(row, nrows):
            if m[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        prow = m[row]
        # left of col the pivot row is zero: earlier pivot columns are
        # cleared and earlier free columns are zero below the pivot rows
        nz = [j for j in range(col, ncols) if prow[j]]
        inv = Fraction(1) / prow[col]
        for j in nz:
            prow[j] *= inv
        for r in range(nrows):
            target = m[r]
            factor = target[col]
            if factor and r != row:
                for j in nz:
                    target[j] -= factor * prow[j]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return m, pivots


def rank(matrix: Matrix) -> int:
    if not matrix:
        return 0
    return len(rref(matrix)[1])


def nullspace(matrix: Matrix) -> list[Vector]:
    """Basis of the right kernel (exact)."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    reduced, pivots = rref(matrix)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        basis.append(v)
    return basis


def solve(matrix: Matrix, rhs: Vector) -> Vector | None:
    """One exact solution of A x = b, or None if inconsistent."""
    aug = [row[:] + [b] for row, b in zip(matrix, rhs)]
    reduced, pivots = rref(aug)
    ncols = len(matrix[0])
    if ncols in pivots:
        return None  # pivot in the augmented column
    x = [Fraction(0)] * ncols
    for i, p in enumerate(pivots):
        x[p] = reduced[i][ncols]
    return x
