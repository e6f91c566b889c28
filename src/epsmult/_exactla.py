"""Small dense exact linear algebra on one routine.

``bareiss`` is fraction-free Gauss-Jordan elimination of an integer matrix.
Every intermediate entry is a minor of the input, so all divisions are
exact and nothing leaves the integers.  The other routines read their
answers off its result: ``rank`` (boundary ranks, polytope dimensions) and
``int_det`` (simplex volumes).  Two callers eliminate augmented systems
with it directly: ``polyhedra._extreme_rays`` seeds each double-description
run with the columns of det(B) B^-1 read off [B | I], and the
quasi-polynomial fit solves the k x (k+1) normal equations of each residue
class.  Sizes are desk-scale: n x 2n seed systems, boundary matrices of
complexes on at most four vertices, normal equations with a few dozen
unknowns.
"""

from __future__ import annotations

from typing import Sequence


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


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix."""
    return len(bareiss(rows)[1])


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix."""
    m, pivots, sign = bareiss(rows)
    return sign * m[-1][-1] if len(pivots) == len(m) else 0
