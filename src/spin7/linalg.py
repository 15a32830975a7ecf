"""Exact linear algebra over the rationals, on sparse rows.

A ``Row`` is a pair ``(entries, denominator)``: ``entries`` lists
``(column, int)`` pairs with nonzero ints, each column at most once, and
the row holds ``x / denominator`` at each listed column and zero elsewhere.
The rows that ``echelon`` and ``kernel`` return list their columns in
increasing order and share one positive denominator.  Nothing bounds the
number of columns; the splits pass at most 70, the space of 4-forms on
R^8.  ``echelon`` is the one elimination kernel; it eliminates modulo a
prime and certifies the result in exact integers:

1. a row and its numerators span the same line, so denominators play no
   part in the elimination;
2. Gauss-Jordan elimination modulo p = 2^30 - 35, the largest prime
   below 2^30, takes the rows one at a time into a reduced basis of
   sparse rows, keyed by pivot column; every residue is then a single
   30-bit CPython digit, the fast path of int arithmetic;
3. each nonzero residue of the reduced rows is lifted to the fraction n/d
   with |n|, d <= sqrt(p/2) that it represents, by Wang's rational
   reconstruction (Wang 1981; Monagan, ISSAC 2004);
4. the lifted rows R are accepted only if ``D a == sum_k a[pivot_k] S_k``
   holds in integers for every input row a, where D is the lcm of the
   lifted denominators and S = D R.  As S[i][pivot_k] = D if i = k and 0
   otherwise, it holds at the pivot columns by construction, and only the
   free columns are compared.

The rank modulo p is at most the rank over Q, and the identity puts every
input row in the span of R's rows, so R is *the* reduced row echelon form,
whatever the prime.  If a lift or the identity fails, the same elimination
runs again modulo the Mersenne prime 2^61 - 1, then modulo Mersenne primes
of about twice as many bits each, up to the first one above 2 H^2, H the
Hadamard bound of the integer rows.  Modulo that prime every minor is
nonzero exactly when it is nonzero, and every entry of the reduced form is
a ratio of two minors, so that run cannot fail.  The doubling steps stop
much earlier on dense rational input, whose reduced form needs far fewer
bits than the Hadamard bound allows.

``rref``, ``rank``, ``nullspace`` and ``solve`` are dense adapters over the
same kernel, on lists of ``int`` or ``Fraction`` entries.  In every dense
result a nonzero entry is a ``Fraction`` and a zero is the int ``0``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm, prod

# (column, nonzero numerator) pairs and one positive denominator
Row = tuple[list[tuple[int, int]], int]
# dense entries are int or Fraction; zeros in results are the int 0
Matrix = list[list[int | Fraction]]
Vector = list[int | Fraction]

# the first prime: the largest below 2^30, so a residue is one CPython digit
_FIRST_PRIME = (1 << 30) - 35
# exponents e of the Mersenne primes 2^e - 1 tried after it, each about
# twice the one before
_MERSENNE_EXPONENTS = (
    61, 127, 521, 1279, 2203, 4423, 9689, 19937, 44497, 86243, 216091,
    756839, 1398269, 2976221, 6972593, 13466917, 24036583, 57885161,
    136279841)


def row(entries) -> Row:
    """The row of (column, rational) pairs with nonzero int or
    ``Fraction`` values, over the lcm of their denominators."""
    d = lcm(*[x.denominator for _, x in entries])
    return [(j, x.numerator * (d // x.denominator)) for j, x in entries], d


def _eliminate(rows: list[Row], p: int) -> dict[int, dict[int, int]]:
    """The reduced rows modulo the prime p, by pivot column.  The pivot
    entry 1 is left out, so each row maps free columns to residues."""
    basis: dict[int, dict[int, int]] = {}
    for entries, _ in rows:
        r = {j: x % p for j, x in entries}
        # basis rows hold no pivot column: reducing r at one pivot column
        # adds no other
        for col in [j for j in r if j in basis]:
            f = r.pop(col)
            for j, x in basis[col].items():
                r[j] = (r.get(j, 0) - f * x) % p
        r = {j: x for j, x in r.items() if x}
        if not r:
            continue
        col = min(r)
        inv = pow(r.pop(col), -1, p)
        r = {j: x * inv % p for j, x in r.items()}
        for b in basis.values():
            f = b.pop(col, 0)
            if f:
                for j, x in r.items():
                    b[j] = (b.get(j, 0) - f * x) % p
        basis[col] = r
    return basis


def _lift(u: int, p: int, bound: int) -> tuple[int, int] | None:
    """(n, d) with |n|, d <= bound, d > 0, gcd(n, d) = 1 and n = u d mod p
    (Wang's rational reconstruction), or None if there is none."""
    r0, r1, s0, s1 = p, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _certified(rows: list[Row], p: int
               ) -> tuple[list[int], list[list[tuple[int, int]]], int] | None:
    """The pivot columns, the free part of S = D R for each reduced row R
    (its columns in no particular order) and D, if the elimination modulo
    p lifts to a certified result; otherwise None."""
    basis = _eliminate(rows, p)
    pivots = sorted(basis)
    bound = isqrt((p - 1) // 2)
    # few distinct residues occur
    lifted = {u: _lift(u, p, bound)
              for u in {u for r in basis.values() for u in r.values() if u}}
    if None in lifted.values():
        return None
    scale = lcm(*[d for _, d in lifted.values()])
    scaled = {u: n * (scale // d) for u, (n, d) in lifted.items()}
    free = [[(j, scaled[u]) for j, u in basis[col].items() if u]
            for col in pivots]
    # the certificate D a == sum_k a[pivot_k] S_k at the free columns
    by_pivot = dict(zip(pivots, free))
    for entries, _ in rows:
        combination: dict[int, int] = {}
        expected = {}
        for col, x in entries:
            pairs = by_pivot.get(col)
            if pairs is None:
                expected[col] = scale * x
            else:
                for j, s in pairs:
                    combination[j] = combination.get(j, 0) + x * s
        # expected holds no zero, so each entry must be met exactly once
        for j, v in combination.items():
            if v != expected.pop(j, 0):
                return None
        if expected:
            return None
    return pivots, free, scale


def _reduce(rows: list[Row]):
    """``_certified`` modulo 2^30 - 35, then modulo Mersenne primes of
    about doubling size from 2^61 - 1 up to the first above 2 H^2, where
    it cannot fail."""
    bound = None
    for p in chain((_FIRST_PRIME,),
                   ((1 << e) - 1 for e in _MERSENNE_EXPONENTS)):
        result = _certified(rows, p)
        if result is not None:
            return result
        bound = bound or 2 * prod(sum(x * x for _, x in entries)
                                  for entries, _ in rows if entries)
        if p > bound:
            break
    raise OverflowError(
        "entries too large: no listed Mersenne prime exceeds 2 H^2")


def echelon(rows: list[Row]) -> tuple[list[Row], list[int]]:
    """The nonzero rows of the reduced row echelon form and their pivot
    columns (exact)."""
    pivots, free, scale = _reduce(rows)
    return ([([(col, scale), *sorted(pairs)], scale)
             for col, pairs in zip(pivots, free)], pivots)


def kernel(rows: list[Row], ncols: int) -> list[Row]:
    """Basis of the right kernel of rows with ``ncols`` columns (exact),
    one vector per free column f, with 1 at f and 0 at the other free
    columns."""
    pivots, free, scale = _reduce(rows)
    # row k is zero left of its pivot, so column f holds entries only of
    # rows whose pivot is left of f: appending (f, D) keeps them in order
    columns: list[list[tuple[int, int]]] = [[] for _ in range(ncols)]
    for col, pairs in zip(pivots, free):
        for j, s in pairs:
            columns[j].append((col, -s))
    pivot_set = set(pivots)
    return [(columns[f] + [(f, scale)], scale)
            for f in range(ncols) if f not in pivot_set]


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
    return [dense(v, ncols) for v in kernel(rows, ncols)]


def solve(matrix: Matrix, rhs: Vector) -> Vector | None:
    """One exact solution of A x = b, or None if inconsistent.  The empty
    matrix is the system of no equations in no unknowns, solved by []."""
    if len(rhs) != len(matrix):
        raise ValueError(
            f"right-hand side has {len(rhs)} entries for {len(matrix)} rows")
    if not matrix:
        return []
    rows, width = _rows([r + [b] for r, b in zip(matrix, rhs)])
    ncols = width - 1
    reduced, pivots = echelon(rows)
    if ncols in pivots:
        return None  # pivot in the augmented column
    x: Vector = [0] * ncols
    for (entries, d), col in zip(reduced, pivots):
        j, b = entries[-1]  # the augmented column is the last
        if j == ncols:
            x[col] = Fraction(b, d)
    return x
