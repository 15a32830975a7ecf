"""Workload ``exact-forms``: the exact pointwise algebra of the Cayley form.

Two request kinds alternate:

- ``verify``: ``spin7 verify-forms`` in process.  Its input is the fixed
  Cayley form: sparse, integer and identical on every request.
- ``split``: the 2-, 3- and 4-form type splits and the stabilizer
  dimension of one seeded admissible 4-form g.Phi, where g is a signed
  permutation of determinant +1 composed with the exact plane rotations
  (3/5, 4/5) and (5/13, 12/13).  These forms are dense, rational and do
  not repeat.

The exact elimination kernel sees an integer, sparse, repeated input on
one kind and a rational, dense, distinct input on the other, so a
fraction-free kernel or a result cache shows a different effect on each.
"""

from __future__ import annotations

import random
from fractions import Fraction

from common import run_cli
from spin7 import splits
from spin7.forms import Multivector, cayley_form, wedge

KINDS = ("verify", "split")
# (cos, sin) of the two plane rotations in g
ROTATIONS = ((Fraction(3, 5), Fraction(4, 5)),
             (Fraction(5, 13), Fraction(12, 13)))
SPLIT_EXPECTED = ((7, 21), (8, 48), (1, 7, 27, 35), 21)


def setup():
    """Nothing beyond importing the exact modules."""


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _permutation_sign(perm) -> int:
    sign, seen = 1, set()
    for start in range(len(perm)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = perm[i]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def seeded_rotation(rng: random.Random) -> list[list[Fraction]]:
    """A seeded element of SO(8) with rational entries."""
    perm = list(range(8))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(8)]
    parity = _permutation_sign(perm) * (-1) ** signs.count(-1)
    if parity < 0:
        signs[0] = -signs[0]
    g = [[Fraction(signs[i]) if j == perm[i] else Fraction(0)
          for j in range(8)] for i in range(8)]
    for cos, sin in ROTATIONS:
        i, j = rng.sample(range(8), 2)
        r = [[Fraction(int(a == b)) for b in range(8)] for a in range(8)]
        r[i][i] = r[j][j] = cos
        r[i][j], r[j][i] = sin, -sin
        g = _matmul(r, g)
    return g


def act(g, form: Multivector) -> Multivector:
    """Substitute dx_i -> sum_j g[i][j] dx_j in ``form``."""
    n = form.dimension
    images = [Multivector(n, 1, {1 << j: g[i][j] for j in range(n)
                                 if g[i][j]}) for i in range(n)]
    out = Multivector.zero(n, form.degree)
    for mask, coeff in form.terms.items():
        factors = [images[i] for i in range(n) if mask >> i & 1]
        term = factors[0]
        for f in factors[1:]:
            term = wedge(term, f)
        out = out + coeff * term
    return out


def _split(phi):
    return (splits.two_form_split(phi).ranks,
            splits.three_form_split(phi).ranks,
            splits.four_form_split(phi).ranks,
            splits.stabilizer_dimension(phi).dim)


def verify_ok(result) -> bool:
    """A ``verify-forms`` run passes: exit 0 and no FAIL line."""
    code, out, _ = result
    return code == 0 and "FAIL" not in out


def requests(seed: int, workdir):
    """Endless seeded stream of (kind, run, check) requests (``workdir``
    is unused: this workload writes no files)."""
    rng = random.Random(seed)
    phi0 = cayley_form()
    while True:
        yield "verify", lambda: run_cli(["verify-forms"]), verify_ok
        phi = act(seeded_rotation(rng), phi0)
        yield ("split", lambda phi=phi: _split(phi),
               lambda result: result == SPLIT_EXPECTED)
