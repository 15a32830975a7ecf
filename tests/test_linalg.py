"""Properties of the exact elimination kernel on sparse and dense input,
and its agreement with a plain Fraction Gauss-Jordan elimination."""

import copy
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin7 import linalg

MAX_ROWS, MAX_COLS = 12, 16

ROOT = pathlib.Path(__file__).resolve().parent.parent

entries = st.builds(Fraction, st.integers(-6, 6),
                    st.sampled_from((1, 2, 3, 5)))
# numerators of 41-49 bits over denominators of 17-21 bits
large_entries = st.builds(
    Fraction, st.integers(2 ** 40, 2 ** 48) | st.integers(-2 ** 48, -2 ** 40),
    st.integers(2 ** 16 + 1, 2 ** 20))


def zeros(nrows, ncols):
    return [[0] * ncols for _ in range(nrows)]


@st.composite
def matrices(draw, entries=entries):
    """Rational matrices up to 12 x 16: sparse, dense or a product of
    lower rank, with some rows and columns zeroed."""
    nonzero = entries.filter(bool)
    nrows = draw(st.integers(1, MAX_ROWS))
    ncols = draw(st.integers(1, MAX_COLS))
    kind = draw(st.sampled_from(("sparse", "dense", "low-rank")))
    if kind == "sparse":
        m = zeros(nrows, ncols)
        cells = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
        for i, j in draw(st.lists(cells, max_size=nrows * ncols // 4 + 1)):
            m[i][j] = draw(nonzero)
    elif kind == "dense":
        m = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    else:
        k = draw(st.integers(1, min(nrows, ncols)))
        left = [[draw(entries) for _ in range(k)] for _ in range(nrows)]
        right = [[draw(entries) for _ in range(ncols)] for _ in range(k)]
        m = [[sum((a * b for a, b in zip(row, col)), Fraction(0))
              for col in zip(*right)] for row in left]
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=nrows // 2)):
        m[i] = [Fraction(0)] * ncols
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=ncols // 2)):
        for row in m:
            row[j] = Fraction(0)
    return m


def reference_rref(matrix):
    """The sparse Fraction Gauss-Jordan elimination that ``rref`` replaced:
    it scales the pivot row once and updates every other row at the pivot
    row's nonzero columns."""
    m = [row[:] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    row = 0
    for col in range(ncols):
        pivot_row = next((r for r in range(row, nrows) if m[r][col]), None)
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        prow = m[row]
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


def mat_vec(matrix, v):
    return [sum((a * x for a, x in zip(row, v)), Fraction(0))
            for row in matrix]


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_rref_is_reduced_echelon_form_of_the_same_row_space(m):
    before = copy.deepcopy(m)
    reduced, pivots = linalg.rref(m)
    assert m == before  # the argument is not mutated
    assert len(reduced) == len(m)
    assert all(len(row) == len(m[0]) for row in reduced)
    assert pivots == sorted(set(pivots))
    for i, p in enumerate(pivots):
        assert reduced[i][p] == 1
        assert not any(reduced[i][:p])
        assert all(not reduced[r][p] for r in range(len(m)) if r != i)
    assert not any(any(row) for row in reduced[len(pivots):])
    assert linalg.rank(m) == len(pivots)
    # the output spans no more than the input
    assert linalg.rank(m + reduced) == len(pivots)


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_nullspace_is_annihilated_and_has_the_complementary_dimension(m):
    before = copy.deepcopy(m)
    kernel = linalg.nullspace(m)
    assert m == before
    ncols = len(m[0])
    assert len(kernel) == ncols - linalg.rank(m)
    for v in kernel:
        assert not any(mat_vec(m, v))
    if kernel:
        assert linalg.rank(kernel) == len(kernel)


@settings(max_examples=80, deadline=None)
@given(matrices(), st.data())
def test_solve_solves_or_reports_inconsistency(m, data):
    ncols = len(m[0])
    y = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
    consistent = mat_vec(m, y)
    arbitrary = data.draw(st.lists(entries, min_size=len(m),
                                   max_size=len(m)))
    before = copy.deepcopy(m)
    for rhs in (consistent, arbitrary):
        rhs_before = list(rhs)
        x = linalg.solve(m, rhs)
        assert m == before and rhs == rhs_before
        augmented = [row + [b] for row, b in zip(m, rhs)]
        if x is None:
            assert rhs is not consistent
            assert linalg.rank(augmented) > linalg.rank(m)
        else:
            assert mat_vec(m, x) == rhs


@settings(max_examples=80, deadline=None)
@given(matrices() | matrices(large_entries))
def test_rref_equals_the_reference_elimination(m):
    assert linalg.rref(m) == reference_rref(m)


def _exact(entries) -> bool:
    """Every nonzero entry is a Fraction and every zero the int 0."""
    return all(type(x) is Fraction if x else type(x) is int for x in entries)


@settings(max_examples=60, deadline=None)
@given(matrices(st.integers(-6, 6)), st.data())
def test_results_do_not_depend_on_the_input_number_types(m, data):
    ints = [[int(x) for x in row] for row in m]
    fractions = [[Fraction(x) for x in row] for row in m]
    reduced, pivots = linalg.rref(ints)
    assert (reduced, pivots) == linalg.rref(fractions)
    assert all(_exact(row) for row in reduced)
    kernel = linalg.nullspace(ints)
    assert kernel == linalg.nullspace(fractions)
    assert all(_exact(v) for v in kernel)
    ncols = len(m[0])
    y = data.draw(st.lists(st.integers(-6, 6), min_size=ncols,
                           max_size=ncols))
    arbitrary = data.draw(st.lists(st.integers(-6, 6), min_size=len(m),
                                   max_size=len(m)))
    for rhs in ([int(b) for b in mat_vec(ints, y)], arbitrary):
        x = linalg.solve(ints, rhs)
        assert x == linalg.solve(fractions, [Fraction(b) for b in rhs])
        assert x is None or _exact(x)


@pytest.mark.parametrize("matrix, expected", [
    # primes of 30 and 31 bits, 10^6 and their reciprocals: entries and
    # denominators far above the small ones of the splits
    ([[Fraction(2 ** 31 - 1)]], ([[1]], [0])),
    ([[Fraction(2 ** 31 - 1), Fraction(1)]], ([[1, Fraction(1, 2 ** 31 - 1)]],
                                              [0])),
    ([[Fraction(1, 10 ** 6), Fraction(1)], [Fraction(0), Fraction(0)]],
     ([[1, 10 ** 6], [0, 0]], [0])),
    ([[Fraction(10 ** 6), Fraction(1)], [Fraction(3), Fraction(7, 10 ** 6)]],
     ([[1, 0], [0, 1]], [0, 1])),
    ([[Fraction(10 ** 6), Fraction(1), Fraction(0)],
      [Fraction(0), Fraction(1, 10 ** 6), Fraction(1)]],
     ([[1, 0, -1], [0, 1, 10 ** 6]], [0, 1])),
    ([[Fraction(2 ** 30 - 35), Fraction(1)]],
     ([[1, Fraction(1, 2 ** 30 - 35)]], [0])),
    ([[Fraction(1, 2 ** 30 - 35), Fraction(1)]], ([[1, 2 ** 30 - 35]], [0])),
    ([[Fraction(1), Fraction(1, 30000)]], ([[1, Fraction(1, 30000)]], [0])),
])
def test_rref_is_exact_at_large_and_small_entries(matrix, expected):
    assert linalg.rref(matrix) == expected == reference_rref(matrix)


def test_rref_edge_shapes():
    assert linalg.rref([]) == ([], [])
    assert linalg.rank([]) == 0 and linalg.nullspace([]) == []
    zero = zeros(3, 4)
    assert linalg.rref(zero) == (zero, [])
    assert len(linalg.nullspace(zero)) == 4
    one = [[Fraction(0), Fraction(2), Fraction(4)]]
    assert linalg.rref(one) == ([[0, 1, 2]], [1])
    assert linalg.solve([[Fraction(0)]], [Fraction(1)]) is None
    assert linalg.solve([], []) == []


def test_shape_errors():
    with pytest.raises(ValueError):
        linalg.solve([[Fraction(1)], [Fraction(2)]], [Fraction(1)])
    with pytest.raises(ValueError):
        linalg.solve([[Fraction(1)]], [Fraction(1), Fraction(2)])
    with pytest.raises(ValueError):
        linalg.rref([[Fraction(1)], [Fraction(1), Fraction(2)]])
    with pytest.raises(ValueError):
        linalg.rref([[Fraction(1), Fraction(2)], [Fraction(1)]])


@st.composite
def sparse_rows(draw):
    """Sparse rows with up to 12 x 16 entries, each over its own
    denominator, possibly no rows or no columns, zero rows, and rows that
    combine earlier rows."""
    ncols = draw(st.integers(0, MAX_COLS))
    rows = []
    for _ in range(draw(st.integers(0, MAX_ROWS))):
        columns = draw(st.lists(st.integers(0, ncols - 1), unique=True,
                                max_size=min(ncols, 6))) if ncols else []
        rows.append(([(j, draw(st.integers(-6, 6).filter(bool)))
                      for j in columns],
                     draw(st.sampled_from((1, 2, 3, 6, 35)))))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        x, y = draw(entries), draw(entries)
        combined = [x * u + y * v for u, v in zip(linalg.dense(a, ncols),
                                                  linalg.dense(b, ncols))]
        rows.append(linalg.row([(j, c) for j, c in enumerate(combined) if c]))
    return rows, ncols


def _well_formed(r, ncols) -> bool:
    """Columns increasing and in range, nonzero int numerators, a positive
    int denominator."""
    entries, d = r
    columns = [j for j, _ in entries]
    return (columns == sorted(set(columns))
            and all(0 <= j < ncols for j in columns)
            and all(type(x) is int and x for _, x in entries)
            and type(d) is int and d > 0)


@settings(max_examples=150, deadline=None)
@given(sparse_rows())
def test_sparse_kernel_agrees_with_the_reference_elimination(case):
    rows, ncols = case
    dense = [linalg.dense(r, ncols) for r in rows]
    expected, expected_pivots = reference_rref(dense)
    reduced, pivots = linalg.echelon(rows)
    assert pivots == expected_pivots
    assert [linalg.dense(r, ncols) for r in reduced] == expected[:len(pivots)]
    # one kernel vector per free column f: 1 at f, 0 at the other free
    # columns and minus column f of the reduced form at the pivots
    kernel = linalg.kernel(rows, range(ncols))
    free = [f for f in range(ncols) if f not in pivots]
    assert len(kernel) == len(free)
    for v, f in zip(kernel, free):
        want = [0] * ncols
        want[f] = 1
        for i, p in enumerate(pivots):
            want[p] = -expected[i][f]
        assert linalg.dense(v, ncols) == want
        assert not any(mat_vec(dense, linalg.dense(v, ncols)))
    for r in reduced + kernel:
        assert _well_formed(r, ncols)
    for (entries, d), p in zip(reduced, pivots):
        assert entries[0] == (p, d)


def _least_shared_denominator(rows) -> bool:
    """The rows share one denominator D, and no prime divides D and every
    numerator: D is the least shared denominator."""
    if not rows:
        return True
    (d,) = {d for _, d in rows}
    return math.gcd(d, *[x for entries, _ in rows for _, x in entries]) == 1


@settings(max_examples=100, deadline=None)
@given(sparse_rows() | matrices(large_entries).map(
    lambda m: ([linalg.row([(j, x) for j, x in enumerate(r) if x]) for r in m],
               len(m[0]))))
def test_results_have_the_least_shared_denominator(case):
    rows, ncols = case
    assert _least_shared_denominator(linalg.echelon(rows)[0])
    assert _least_shared_denominator(linalg.kernel(rows, range(ncols)))


@settings(max_examples=80, deadline=None)
@given(sparse_rows(), st.data())
def test_increasing_column_keys_relabel_the_results(case, data):
    # the splits key columns by monomial mask: any increasing relabelling
    # of the columns relabels pivots, reduced rows and kernel alike
    rows, ncols = case
    keys = sorted(data.draw(st.sets(st.integers(0, 255), min_size=ncols,
                                    max_size=ncols)))

    def relabel(r):
        entries, d = r
        return [(keys[j], x) for j, x in entries], d

    reduced, pivots = linalg.echelon(rows)
    keyed, keyed_pivots = linalg.echelon([relabel(r) for r in rows])
    assert keyed_pivots == [keys[p] for p in pivots]
    assert keyed == [relabel(r) for r in reduced]
    assert (linalg.kernel([relabel(r) for r in rows], keys)
            == [relabel(v) for v in linalg.kernel(rows, range(ncols))])


@settings(max_examples=80, deadline=None)
@given(matrices() | matrices(large_entries), st.data())
def test_dense_results_hold_fractions_and_int_zeros(m, data):
    reduced, _ = linalg.rref(m)
    assert all(_exact(row) for row in reduced)
    assert all(_exact(v) for v in linalg.nullspace(m))
    rhs = data.draw(st.lists(entries, min_size=len(m), max_size=len(m)))
    x = linalg.solve(m, rhs)
    assert x is None or _exact(x)


def test_verify_forms_imports_no_numpy():
    script = ("import sys\n"
              "import spin7.splits\n"
              "from spin7 import cli\n"
              "assert cli.main(['verify-forms']) == 0\n"
              "assert 'numpy' not in sys.modules\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    result = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
