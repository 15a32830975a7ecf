"""Exact linear algebra over the rationals, on sparse rows.

A ``Row`` is a pair ``(entries, denominator)``: ``entries`` lists
``(column, int)`` pairs with nonzero ints, each column at most once, and
the row holds ``x / denominator`` at each listed column and zero elsewhere.
The rows that ``echelon`` and ``kernel`` return list their columns in
increasing order and share one positive denominator.  A column is any
nonnegative int key: the splits key the coefficient of dx_m by the
bitmask m, so the 70 columns of 4-forms on R^8 are the masks of four bits
below 256, and ``kernel`` is told which keys are columns.  ``echelon`` is
the one elimination kernel, a fraction-free Gauss-Jordan elimination over
the integers that keeps every row primitive (on fraction-free elimination:
Bareiss, Math. Comp. 22, 1968; von zur Gathen and Gerhard, *Modern
Computer Algebra*, ch. 5):

1. a row and its numerators span the same line, so denominators play no
   part in the elimination;
2. the rows are taken one at a time into a reduced basis, keyed by pivot
   column.  A basis row is its positive pivot value p and an int at each
   of its free columns, and it holds zero at every other pivot column;
3. an incoming row is multiplied by the least L that makes L f / p an
   int at each pivot column it hits, with entry f there, and the (L f / p)
   multiple of each hit basis row is subtracted.  As basis rows hold no
   pivot column, this adds only free columns;
4. a nonzero remainder is divided by its content and signed to a positive
   pivot at its least column.  Each basis row that holds that column is
   cross-multiplied to clear it and made primitive again.

A basis row is zero left of its pivot, so the basis is the reduced row
echelon form R up to the pivot values, exactly, with nothing to lift or
check.  A primitive row over its pivot value p is a reduced row whose
entries have least common denominator p, so the least shared denominator
D of R is the lcm of the pivot values, and S = D R is an int matrix.

``rref``, ``rank``, ``nullspace`` and ``solve`` are dense adapters over the
same kernel, on lists of ``int`` or ``Fraction`` entries; ``solve`` reads
the kernel of [A | -b].  In every dense result a nonzero entry is a
``Fraction`` and a zero is the int ``0``.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import gcd, lcm

# (column, nonzero numerator) pairs and one positive denominator
Row = tuple[list[tuple[int, int]], int]
# dense entries are int or Fraction; zeros in results are the int 0
Matrix = list[list[int | Fraction]]
Vector = list[int | Fraction]


def row(entries) -> Row:
    """The row of (column, rational) pairs with nonzero int or
    ``Fraction`` values, over the lcm of their denominators."""
    d = lcm(*[x.denominator for _, x in entries])
    return [(j, x.numerator * (d // x.denominator)) for j, x in entries], d


def _primitive(p: int, r: dict[int, int]) -> tuple[int, dict[int, int]]:
    """The row of pivot value p and free entries r over its content,
    signed to a positive pivot."""
    c = gcd(p, *r.values()) if p > 0 else -gcd(p, *r.values())
    if c == 1:
        return p, r
    return p // c, {j: x // c for j, x in r.items()}


def _reduce(rows: list[Row]
            ) -> tuple[list[int], list[list[tuple[int, int]]], int]:
    """The pivot columns, the free part of S = D R for each reduced row R
    (its columns in no particular order) and D."""
    # pivot column -> (pivot value, free column -> int), each primitive
    basis: dict[int, tuple[int, dict[int, int]]] = {}
    for entries, _ in rows:
        r = {}
        hits = []
        for j, x in entries:
            b = basis.get(j)
            if b is None:
                r[j] = x
            else:
                hits.append((b, x))
        if hits:
            scale = lcm(*[p // gcd(p, f) for (p, _), f in hits])
            if scale != 1:
                r = {j: scale * x for j, x in r.items()}
            for (p, b), f in hits:
                m = scale * f // p
                for j, x in b.items():
                    r[j] = r.get(j, 0) - m * x
            r = {j: x for j, x in r.items() if x}
        if not r:
            continue
        col = min(r)
        p = r.pop(col)
        p, r = _primitive(p, r)
        for k, (q, b) in basis.items():
            f = b.pop(col, 0)
            if f:
                g = gcd(p, f)
                u, v = p // g, f // g
                if u != 1:
                    b = {j: u * x for j, x in b.items()}
                for j, x in r.items():
                    b[j] = b.get(j, 0) - v * x
                basis[k] = _primitive(u * q, b)
        basis[col] = p, r
    pivots = sorted(basis)
    scale = lcm(*[p for p, _ in basis.values()])
    # a cancellation in a basis row leaves a zero there
    return pivots, [[(j, scale // p * x) for j, x in b.items() if x]
                    for p, b in (basis[col] for col in pivots)], scale


def echelon(rows: list[Row]) -> tuple[list[Row], list[int]]:
    """The nonzero rows of the reduced row echelon form and their pivot
    columns (exact)."""
    pivots, free, scale = _reduce(rows)
    return ([([(col, scale), *sorted(pairs)], scale)
             for col, pairs in zip(pivots, free)], pivots)


def kernel(rows: list[Row], columns: Iterable[int]) -> list[Row]:
    """Basis of the right kernel of rows over the column keys ``columns``,
    given in increasing order (exact): one vector per free column f, with
    1 at f and 0 at the other free columns."""
    pivots, free, scale = _reduce(rows)
    # row k is zero left of its pivot, so column f holds entries only of
    # rows whose pivot is left of f: appending (f, D) keeps them in order
    by_column: dict[int, list[tuple[int, int]]] = {j: [] for j in columns}
    for col, pairs in zip(pivots, free):
        for j, s in pairs:
            by_column[j].append((col, -s))
    pivot_set = set(pivots)
    return [(entries + [(f, scale)], scale)
            for f, entries in by_column.items() if f not in pivot_set]


def dense(r: Row, ncols: int) -> Vector:
    """A row as a list of ``ncols`` entries: Fractions and int zeros."""
    entries, d = r
    out: Vector = [0] * ncols
    for j, x in entries:
        out[j] = Fraction(x, d)
    return out


def _rows(matrix: Matrix) -> tuple[list[Row], int]:
    """The rows of a dense matrix, and its number of columns."""
    ncols = len(matrix[0]) if matrix else 0
    if any(len(r) != ncols for r in matrix):
        raise ValueError("rows of different lengths")
    return [row([(j, x) for j, x in enumerate(r) if x]) for r in matrix], ncols


def rref(matrix: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices (exact); the
    zero rows come last."""
    rows, ncols = _rows(matrix)
    reduced, pivots = echelon(rows)
    return ([dense(r, ncols) for r in reduced]
            + [[0] * ncols for _ in range(len(matrix) - len(pivots))], pivots)


def rank(matrix: Matrix) -> int:
    return len(echelon(_rows(matrix)[0])[1])


def nullspace(matrix: Matrix) -> list[Vector]:
    """Basis of the right kernel (exact); none for the empty matrix."""
    rows, ncols = _rows(matrix)
    return [dense(v, ncols) for v in kernel(rows, range(ncols))]


def solve(matrix: Matrix, rhs: Vector) -> Vector | None:
    """One exact solution of A x = b, or None if inconsistent: the
    kernel vector of [A | -b] that is free at the augmented column is
    (x, 1), with x zero at the other free columns.  The empty matrix is
    the system of no equations in no unknowns, solved by []."""
    if len(rhs) != len(matrix):
        raise ValueError(
            f"right-hand side has {len(rhs)} entries for {len(matrix)} rows")
    if not matrix:
        return []
    rows, width = _rows([r + [-b] for r, b in zip(matrix, rhs)])
    basis = kernel(rows, range(width))
    # each kernel vector ends at its free column; a pivot in the
    # augmented column leaves none free there
    if not basis or basis[-1][0][-1][0] != width - 1:
        return None
    return dense(basis[-1], width)[:-1]
