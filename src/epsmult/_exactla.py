"""Small dense exact linear algebra.

Two kinds of routine live here, sized for desk-scale systems (d <= 4 facet
solves, boundary matrices of complexes on at most four vertices,
interpolation systems with a handful of unknowns):

* ``bareiss``: fraction-free Gauss-Jordan elimination of an integer matrix.
  Every intermediate entry is a minor of the input, so all divisions are
  exact and nothing leaves the integers.  ``int_det``, ``int_solve`` and
  ``int_null_vector`` read the determinant, a square solve and a primitive
  null vector off its result; the polytope code runs on these.
* ``rank``, ``solve_least_determined`` and ``affine_rank``: Gaussian
  elimination over ``Fraction``, for the rational interpolation systems of
  the quasi-polynomial fit and for boundary ranks.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence


def _frac_rows(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def rank(rows: Sequence[Sequence]) -> int:
    """Rank over Q by Gaussian elimination."""
    m = _frac_rows(rows)
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][col]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col] / inv
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def solve_least_determined(rows: Sequence[Sequence], rhs: Sequence):
    """Solve a (possibly overdetermined) consistent system with full column rank.

    Returns (solution, ok).  ok is False when the rows are rank-deficient in
    the unknowns or mutually inconsistent.
    """
    if not rows:
        return None, False
    ncols = len(rows[0])
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    r = 0
    pivots = []
    for col in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][col]
        m[r] = [a / inv for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    if len(pivots) < ncols:
        return None, False
    for i in range(r, len(m)):
        if m[i][ncols] != 0:
            return None, False
    sol = [Fraction(0)] * ncols
    for row_idx, col in enumerate(pivots):
        sol[col] = m[row_idx][ncols]
    return sol, True


def affine_rank(points: Sequence[Sequence]) -> int:
    """Dimension of the affine hull of a point set (-1 for the empty set)."""
    if not points:
        return -1
    base = points[0]
    diffs = [[Fraction(a) - Fraction(b) for a, b in zip(p, base)] for p in points[1:]]
    return rank(diffs)


def bareiss(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Returns (m, pivots, sign).  Row i < len(pivots) of m has its pivot in
    column pivots[i]; every pivot column is zero apart from its pivot, and
    all pivots share one value D, the last pivot.  sign is the parity of the
    row swaps, so a square nonsingular matrix has determinant sign * D, and
    m[i][j] / D is the reduced row echelon form.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots: list[int] = []
    sign, prev = 1, 1
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if m[i][col]), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        top = m[r]
        piv = top[col]
        for i in range(nrows):
            if i != r:
                f = m[i][col]
                m[i] = [(piv * a - f * b) // prev for a, b in zip(m[i], top)]
        prev = piv
        pivots.append(col)
    return m, pivots, sign


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix."""
    m, pivots, sign = bareiss(rows)
    return sign * m[-1][-1] if len(pivots) == len(m) else 0


def int_solve(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> Optional[tuple[list[int], int]]:
    """Solution of a square integer system as (numerators, D), x = nums / D.

    Returns None when the system is singular.
    """
    n = len(rows)
    m, pivots, _ = bareiss([list(r) + [b] for r, b in zip(rows, rhs)])
    if pivots[n - 1:n] != [n - 1]:
        return None
    return [row[n] for row in m], m[0][0]


def int_null_vector(rows: Sequence[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """Primitive integer spanning vector of a one-dimensional null space.

    The free coordinate is positive.  Returns None unless the null space has
    dimension exactly 1.
    """
    if not rows:
        return None
    m, pivots, _ = bareiss(rows)
    free = [c for c in range(len(m[0])) if c not in pivots]
    if len(free) != 1:
        return None
    fc = free[0]
    scale = m[0][pivots[0]] if pivots else 1
    vec = [0] * len(m[0])
    vec[fc] = scale
    for row, col in zip(m, pivots):
        vec[col] = -row[fc]
    g = 0
    for v in vec:
        g = gcd(g, v)
    if scale < 0:
        g = -g
    return tuple(v // g for v in vec)
