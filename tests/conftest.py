"""Shared fixtures and brute-force oracles for the test suite."""

import itertools
import random

import pytest

from epsmult._exactla import int_null_vector
from epsmult.ideal_core import MonomialIdeal


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
    """Points of sat(I) \\ I inside the (inclusive) box, by raw scanning."""
    sat = ideal.saturate()
    return {p for p in box_points(bounds)
            if sat.contains(p) and not ideal.contains(p)}


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


def brute_extreme_rays(rows):
    """Extreme rays of the cone {v : <r, v> >= 0} as a set of primitive
    vectors, by scanning every subset of n - 1 rows: an extreme ray spans
    the null space of some such subset, signed into the cone, or dropped
    when neither sign fits."""
    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))
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
