"""Shared fixtures and brute-force oracles for the test suite."""

import itertools
import math
import random
from fractions import Fraction
from math import factorial, gcd
from typing import Optional

import pytest

from epsmult._exactla import bareiss, rank
from epsmult.asymptotics import Index, LengthTable, QuasiPolynomial, _monomial_basis
from epsmult.errors import InsufficientDataError, NoFitError, PreconditionError
from epsmult.ideal_core import MonomialIdeal
from epsmult.polyhedra import OutRegionReport, newton_polyhedron, volume_from_constraints


# small coordinates, ones on both sides of 2**31, and ones past 2**64
STRADDLE = (0, 1, 2, 2**31 - 1, 2**31, 2**40, 2**64)


@pytest.fixture
def rng():
    return random.Random(20240817)


def brute_minimal(rows):
    """Minimal elements of the exponent vectors *rows*, lex sorted, by
    checking each against every other (degree order makes one pass sound)."""
    rows = sorted(set(map(tuple, rows)), key=lambda g: (sum(g), g))
    kept = []
    for g in rows:
        if not any(all(k[i] <= g[i] for i in range(len(g))) for k in kept):
            kept.append(g)
    return tuple(sorted(kept))


def brute_rung(pairs, extra=()):
    """A sum of products by tuples alone: the minimal elements of every sum
    g + h, g in a and h in b, over the generator sets (a, b) in *pairs*, and
    of the generators in the sets in *extra*."""
    return brute_minimal([tuple(x + y for x, y in zip(g, h)) for a, b in pairs for g in a for h in b]
                         + [g for e in extra for g in e])


def box_points(bounds):
    """All lattice points p with 0 <= p_i <= bounds_i (inclusive)."""
    return itertools.product(*(range(b + 1) for b in bounds))


def brute_members(gens, bounds):
    """Membership oracle: points of the box divisible by some generator."""
    out = set()
    for p in box_points(bounds):
        if any(all(g[i] <= p[i] for i in range(len(p))) for g in gens):
            out.add(p)
    return out


def brute_socle(ideal: MonomialIdeal, bounds):
    """Points of sat(I) \\ I inside the (inclusive) box, by raw scanning: p is
    in sat(I) iff p + K e_i is in I for every i, K the largest exponent of a
    generator (then p + k e_i in I for some k implies it for k = K)."""
    gens = ideal.gens
    big = max(map(max, gens))

    def hit(p):
        return any(all(g[i] <= p[i] for i in range(len(p))) for g in gens)

    return {p for p in box_points(bounds)
            if not hit(p) and all(hit(p[:i] + (p[i] + big,) + p[i + 1:]) for i in range(len(p)))}


def brute_delta(ideal: MonomialIdeal, point):
    """Takayama's complex by its definition: the subsets F of {1..d} with
    x^point outside the localization I R_(x_F), one localized ideal per F."""
    d = ideal.d
    subsets = (frozenset(f) for k in range(d + 1) for f in itertools.combinations(range(1, d + 1), k))
    return frozenset(f for f in subsets if not ideal.localize(f).contains(point))


def brute_count(box, sat, outer, inner):
    """Points p of the half-open box [0, box) with p in (sat) and (outer)
    but not in (inner), by raw scanning: (count, largest degree or -1)."""
    def hit(gens, p):
        return any(all(g[i] <= p[i] for i in range(len(p))) for g in gens)
    count, maxdeg = 0, -1
    for p in itertools.product(*(range(b) for b in box)):
        if hit(sat, p) and hit(outer, p) and not hit(inner, p):
            count += 1
            maxdeg = max(maxdeg, sum(p))
    return count, maxdeg


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def int_null_vector(rows):
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


def brute_extreme_rays(rows):
    """Extreme rays of the cone {v : <r, v> >= 0} as a set of primitive
    vectors, by scanning every subset of n - 1 rows: an extreme ray spans
    the null space of some such subset, signed into the cone, or dropped
    when neither sign fits."""
    seen = set()
    rays = set()
    for combo in itertools.combinations(rows, len(rows[0]) - 1):
        vec = int_null_vector(combo)
        if vec is None or vec in seen:
            continue
        seen.add(vec)
        pos = neg = False
        for r in rows:
            t = dot(r, vec)
            pos |= t > 0
            neg |= t < 0
            if pos and neg:
                break  # neither sign fits
        else:
            rays.add(tuple(-v for v in vec) if neg else vec)
    return rays


def brute_newton_vertices(gens, facets, d):
    """(vertices, vertex indices per facet) of the Newton polyhedron with the
    given facets: a generator is a vertex iff the normals of the facets it
    lies on have rank d."""
    vertices = sorted(g for g in gens if rank([nu for nu, c in facets if dot(nu, g) == c]) == d)
    return vertices, [frozenset(i for i, v in enumerate(vertices) if dot(nu, v) == c)
                      for nu, c in facets]


def brute_triangulate(points, facet_sets):
    """Pulling triangulation of conv(points) that finds the faces by rank: a
    k-face is coned from its least vertex over the distinct cuts F & G that
    miss it and have affine rank k - 1."""
    def dim(face):
        return rank([points[i] for i in face]) - 1

    def pull(face, k):
        if len(face) == k + 1:
            return [tuple(sorted(face))]
        apex = min(face)
        out = []
        for sub in dict.fromkeys(face & g for g in facet_sets):
            if apex not in sub and len(sub) >= k and dim(sub) == k - 1:
                out += [(apex,) + s for s in pull(sub, k - 1)]
        return out

    full = frozenset(range(len(points)))
    k = dim(full)
    return pull(full, k) if k > 0 else []


def brute_out_region(ideal):
    """The volume between NP(I) and its zero-coordinate-normal relaxation,
    both cut by the box 0 <= u_i <= M, M = 1 + max c / min(nu) over the
    strictly positive facets <nu, u> >= c."""
    np_ = newton_polyhedron(ideal)
    d = np_.d
    strict = [(nu, c) for nu, c in np_.facets if all(v > 0 for v in nu)]
    loose = [(nu, c) for nu, c in np_.facets if not all(v > 0 for v in nu)]
    if not strict:
        return OutRegionReport(Fraction(0), Fraction(0), None)
    m_bound = 1 + max(Fraction(c, min(nu)) for nu, c in strict)
    box = []
    for i in range(d):
        e = tuple(1 if j == i else 0 for j in range(d))
        box.append((e, 0))
        box.append((tuple(-x for x in e), -m_bound))
    volume = (volume_from_constraints(loose + box, d)
              - volume_from_constraints(list(np_.facets) + box, d))
    return OutRegionReport(volume, factorial(d) * volume, m_bound)


def brute_spread(ideal):
    """1 + the largest dimension of a bounded face of NP(I), from the closure
    of the facets under pairwise intersection: a face is a (vertex index
    set, coordinate ray set) pair, the rays of a facet <nu, u> >= c are the
    e_i with nu_i = 0, and a bounded face's dimension is the rank of its
    vertices' differences."""
    np_ = newton_polyhedron(ideal)
    faces = {(verts, frozenset(i for i, x in enumerate(nu) if x == 0))
             for verts, (nu, _) in zip(np_.facet_vertices, np_.facets)}
    frontier = set(faces)
    while frontier:
        fresh = set()
        for v1, r1 in frontier:
            for v2, r2 in faces:
                cand = (v1 & v2, r1 & r2)
                if (cand[0] or cand[1]) and cand not in faces:
                    fresh.add(cand)
        faces |= fresh
        frontier = fresh
    best = 0
    for verts, rays in faces:
        if verts and not rays:
            pts = [np_.vertices[i] for i in sorted(verts)]
            best = max(best, rank([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]))
    return 1 + best


def tall_fit_quasi_polynomial(table: LengthTable, degree: int, period_max: int = 6,
                              holdout: int = 0, start: Optional[int] = None) -> QuasiPolynomial:
    """``asymptotics.fit_quasi_polynomial`` by one tall elimination per
    residue class: Bareiss of the rows [n^e for e in the basis | length at n]
    tells full column rank (k pivots in the first k columns), consistency (no
    pivot in the length column) and the coefficients (that column over the
    shared pivot)."""
    if any(type(v) is not int for v in table.entries.values()):
        raise PreconditionError("length table entries must be integers")
    r = table.arity
    window = table.indices()
    if start is not None:
        window = [i for i in window if all(c >= start for c in i)]
    if len(window) <= holdout:
        raise InsufficientDataError("window smaller than the holdout")
    fit_idx = window[: len(window) - holdout] if holdout else window
    hold_idx = window[len(window) - holdout:] if holdout else []
    basis = _monomial_basis(r, degree)
    k = len(basis)
    # interpolation row of each index, augmented by its length: [n^e ... | l_n]
    augmented = {i: [math.prod(n ** p for n, p in zip(i, e)) for e in basis] + [table.entries[i]]
                 for i in fit_idx}

    best: tuple[int, int, Optional[Index]] = (-1, 1 << 60, None)
    tried_any = False
    for a in range(1, period_max + 1):
        classes: dict[Index, list[Index]] = {}
        for i in fit_idx:
            classes.setdefault(tuple(n % a for n in i), []).append(i)
        full: dict[Index, int] = {}
        for i in window:
            res = tuple(n % a for n in i)
            full[res] = full.get(res, 0) + 1
        # every class needs k points to interpolate and at least one more,
        # in-window or held out, to actually verify the claimed fit
        if any(len(pts) < k for pts in classes.values()):
            continue
        if any(full.get(res, 0) < k + 1 for res in classes):
            continue
        # one elimination per class: k pivots in the first k columns mean full
        # column rank, a further pivot (in the length column) inconsistency,
        # and otherwise the solution is column k over the shared pivot
        solutions: dict[Index, Optional[list[Fraction]]] = {}
        for res, pts in sorted(classes.items()):
            m, pivots, _ = bareiss([augmented[i] for i in pts])
            if pivots[:k] != list(range(k)):
                break
            solutions[res] = (None if len(pivots) > k else
                              [Fraction(m[j][k], m[k - 1][k - 1]) for j in range(k)])
        if len(solutions) < len(classes):
            continue  # a rank-deficient class: the period cannot be decided
        tried_any = True
        coeffs: dict[tuple[Index, Index], Fraction] = {}
        fails = 0
        first_fail: Optional[Index] = None
        for res, sol in solutions.items():
            if sol is None:
                fails += 1
                if first_fail is None:
                    first_fail = classes[res][0]
                continue
            for e, c in zip(basis, sol):
                coeffs[(res, e)] = c
        candidate = QuasiPolynomial(r, a, degree, coeffs)
        if fails == 0:
            for i in hold_idx:
                res = tuple(n % a for n in i)
                if res not in classes or candidate.evaluate(i) != table.entries[i]:
                    fails += 1
                    if first_fail is None:
                        first_fail = i
        if fails == 0:
            return candidate
        if fails < best[1]:
            best = (a, fails, first_fail)
    if not tried_any:
        raise InsufficientDataError(
            f"no period <= {period_max} has {k} independent points per residue class")
    raise NoFitError(
        f"no exact quasi-polynomial of degree <= {degree} and period <= {period_max}",
        best_period=best[0], first_fail=best[2])
