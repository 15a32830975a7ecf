"""Exact linear algebra over the rationals.

Matrices are lists of rows whose entries are ``int`` or ``Fraction``, with
at most 70 columns, the space of 4-forms on R^8.  In every result a nonzero
entry is a ``Fraction`` and a zero is the int ``0``, so callers test and
skip zeros without ``Fraction`` arithmetic.  ``rref`` is the one
elimination kernel; ``rank``, ``nullspace`` and ``solve`` read its result.
It eliminates modulo a prime and certifies the result in exact integers:

1. each row is scaled by the lcm of its denominators into an integer row,
   which keeps the row space and so the reduced row echelon form;
2. Gauss-Jordan elimination modulo p = 2^31 - 1 scales the pivot row once
   and updates every other row only at the pivot row's nonzero columns (the
   matrices of the splits are mostly zeros);
3. each nonzero residue of the reduced rows is lifted to the fraction n/d
   with |n|, d <= sqrt(p/2) that it represents, by Wang's rational
   reconstruction (Wang 1981; Monagan, ISSAC 2004);
4. the lifted rows R are accepted only if ``D a == sum_k a[pivot_k] S_k``
   holds in integers for every input row a, where D is the lcm of the lifted
   denominators and S = D R.

The rank modulo p is at most the rank over Q, and the identity puts every
input row in the span of R's rows, so R is *the* reduced row echelon form,
whatever the prime.  If a lift or the identity fails, the same elimination
runs again modulo a Mersenne prime of about twice as many bits, and so on
up to the first one above 2 H^2, H the Hadamard bound of the integer rows.
Modulo that prime every minor is nonzero exactly when it is nonzero, and
every entry of the reduced form is a ratio of two minors, so that run cannot
fail.  The doubling steps stop much earlier on dense rational input, whose
reduced form needs far fewer bits than the Hadamard bound allows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod

# entries are int or Fraction; zeros in results are the int 0
Matrix = list[list[int | Fraction]]
Vector = list[int | Fraction]

# exponents e of Mersenne primes 2^e - 1, each about twice the one before
_MERSENNE_EXPONENTS = (
    31, 61, 127, 521, 1279, 2203, 4423, 9689, 19937, 44497, 86243, 216091,
    756839, 1398269, 2976221, 6972593, 13466917, 24036583, 57885161,
    136279841)


def zeros(nrows: int, ncols: int) -> Matrix:
    return [[0] * ncols for _ in range(nrows)]


def _integer_rows(matrix: Matrix) -> list[list[tuple[int, int]]]:
    """The nonzero rows, each scaled by the lcm of its denominators, as
    (column, integer) pairs."""
    rows = []
    for row in matrix:
        entries = [(j, x) for j, x in enumerate(row) if x]
        if entries:
            scale = lcm(*[x.denominator for _, x in entries])
            rows.append([(j, x.numerator * (scale // x.denominator))
                         for j, x in entries])
    return rows


def _moduli(rows: list[list[tuple[int, int]]]):
    """Mersenne primes of about doubling size, from 2^31 - 1 up to the first
    above 2 H^2, where the elimination cannot fail."""
    bound = None
    for e in _MERSENNE_EXPONENTS:
        yield (1 << e) - 1
        # reached only after a failure
        bound = bound or 2 * prod(sum(x * x for _, x in row) for row in rows)
        if (1 << e) - 1 > bound:
            return


def _eliminate(rows: list[list[tuple[int, int]]], ncols: int,
               p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced rows modulo the prime p and their pivot columns."""
    m = []
    for pairs in rows:
        dense = [0] * ncols
        for j, x in pairs:
            dense[j] = x % p
        m.append(dense)
    nrows = len(m)
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, nrows):
            if m[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        prow = m[rank]
        # left of col the pivot row is zero: earlier pivot columns are
        # cleared and earlier free columns are zero below the pivot rows
        inv = pow(prow[col], -1, p)
        nz = []
        for j in range(col, ncols):
            if prow[j]:
                prow[j] = prow[j] * inv % p
                nz.append((j, prow[j]))
        for r in range(nrows):
            target = m[r]
            if target[col] and r != rank:
                factor = p - target[col]
                for j, x in nz:
                    target[j] = (target[j] + factor * x) % p
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return m[:rank], pivots


def _lift(u: int, p: int, bound: int) -> Fraction | None:
    """The fraction n/d with |n|, d <= bound and n = u d mod p (Wang's
    rational reconstruction), or None if there is none."""
    r0, r1, s0, s1 = p, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _certified_rref(rows: list[list[tuple[int, int]]], ncols: int,
                    p: int) -> tuple[list[list[tuple[int, Fraction]]],
                                     list[int]] | None:
    """The nonzero rows of the reduced row echelon form as (column,
    fraction) pairs, and the pivot columns, if the elimination modulo p
    lifts to a certified result; otherwise None."""
    reduced, pivots = _eliminate(rows, ncols, p)
    bound = isqrt((p - 1) // 2)
    lifted: dict[int, Fraction | None] = {}  # few distinct residues occur
    out = []
    for row, col in zip(reduced, pivots):
        pairs = []
        for j in range(col, ncols):
            u = row[j]
            if u:
                if u not in lifted:
                    lifted[u] = _lift(u, p, bound)
                x = lifted[u]
                if x is None:
                    return None
                pairs.append((j, x))
        out.append(pairs)
    # the certificate D a == sum_k a[pivot_k] S_k, with S = D R integral
    scale = lcm(*[x.denominator for x in lifted.values()])
    scaled = [[(j, x.numerator * (scale // x.denominator)) for j, x in pairs]
              for pairs in out]
    for pairs in rows:
        a = dict(pairs)
        combination: dict[int, int] = {}
        for col, s_row in zip(pivots, scaled):
            c = a.get(col)
            if c:
                for j, s in s_row:
                    combination[j] = combination.get(j, 0) + c * s
        if {j: v for j, v in combination.items() if v} != {
                j: scale * x for j, x in pairs}:
            return None
    return out, pivots


def rref(matrix: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices (exact); the
    zero rows come last."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if any(len(row) != ncols for row in matrix):
        raise ValueError("rows of different lengths")
    rows = _integer_rows(matrix)
    for p in _moduli(rows):
        result = _certified_rref(rows, ncols, p)
        if result is not None:
            break
    else:
        raise OverflowError(
            "entries too large: no listed Mersenne prime exceeds 2 H^2")
    nonzero, pivots = result
    reduced = zeros(nrows, ncols)
    for row, pairs in zip(reduced, nonzero):
        for j, x in pairs:
            row[j] = x
    return reduced, pivots


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
        v = [0] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            x = reduced[i][f]
            if x:
                v[p] = -x
        basis.append(v)
    return basis


def solve(matrix: Matrix, rhs: Vector) -> Vector | None:
    """One exact solution of A x = b, or None if inconsistent.  The empty
    matrix is the system of no equations in no unknowns, solved by []."""
    if len(rhs) != len(matrix):
        raise ValueError(
            f"right-hand side has {len(rhs)} entries for {len(matrix)} rows")
    if not matrix:
        return []
    aug = [row[:] + [b] for row, b in zip(matrix, rhs)]
    reduced, pivots = rref(aug)
    ncols = len(matrix[0])
    if ncols in pivots:
        return None  # pivot in the augmented column
    x = [0] * ncols
    for i, p in enumerate(pivots):
        x[p] = reduced[i][ncols]
    return x
