"""The antichain and d = 2 key kernels against the brute-force oracle."""

import random

import numpy as np
import pytest

from epsmult import _kernels
from epsmult.ideal_core import _antichain

from conftest import brute_minimal

# coordinates at the int64 kernel bound and past int64 itself
EDGES = (0, 2**31 - 1, 2**31, 2**64)


def key_minimal(rows):
    """The d = 2 key kernel on rows: pack, minimal_keys, key_rows."""
    return _kernels.key_rows(_kernels.minimal_keys(_kernels.pack(np.array(rows, dtype=np.int64))))


def random_rows(rng, n, d, hi):
    return rng.integers(0, hi, size=(n, d)).astype(np.int64)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_minimal_rows_matches_reference(d):
    rng = np.random.default_rng(5)
    for n in (1, 2, 17, 200):
        rows = random_rows(rng, n, d, 7).tolist()
        rows += rows[: n // 3]  # duplicates
        if d == 2:
            rows += [[0, 2**32 - 1], [2**32 - 1, 0], [2**31 - 1, 2**31 - 1]]
            got = key_minimal(rows)
        else:
            rows += [[EDGES[(i + j) % 4] for j in range(d)] for i in range(4)]
            got = _antichain(list(map(tuple, rows)))
        assert got == brute_minimal(rows)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_antichain_matches_brute_force(d):
    rng = random.Random(1000 + d)
    for _ in range(250):
        values = rng.choice(((0, 1, 2, 3), (0, 1, 2, 3, 4, 5, 6, 7, 8), (*EDGES, 1, 5)))
        rows = [tuple(rng.choice(values) for _ in range(d)) for _ in range(rng.randint(1, 30))]
        rows += rng.sample(rows, rng.randint(0, len(rows)))  # duplicates
        assert _antichain(rows) == brute_minimal(rows)
    assert _antichain([]) == ()


def test_minimal_rows_handles_duplicates():
    assert key_minimal([[1, 2], [1, 2], [2, 0], [2, 0], [3, 3]]) == ((1, 2), (2, 0))


def test_keys_round_trip_and_add_without_carry():
    top = 2**32 - 1
    rows = np.array([[0, 0], [0, top], [top, 0], [top, top], [1, 2**31 - 1]], dtype=np.int64)
    keys = _kernels.pack(rows)
    assert keys.dtype == np.uint64
    assert keys.tolist() == [(x << 32) | y for x, y in rows.tolist()]
    assert _kernels.key_rows(keys) == tuple(map(tuple, rows.tolist()))
    # below 2**31 the sum of two keys is the key of the row sum
    safe = np.array([[0, 0], [0, 2**31 - 1], [2**31 - 1, 1], [2**31 - 1, 2**31 - 1]], dtype=np.int64)
    sums = _kernels.pack(safe)[:, None] + _kernels.pack(safe)[None, :]
    rows = tuple((a + c, b + e) for a, b in safe.tolist() for c, e in safe.tolist())
    assert _kernels.key_rows(sums.ravel()) == rows


def staircase_keys(rng, n, steps, base=0):
    """The keys of an n-generator staircase from (base, y0) to (x1, base),
    each step a (width, drop) drawn from *steps*: with few distinct steps,
    equal steps and non-convex corners are common."""
    drawn = [rng.choice(steps) for _ in range(n - 1)]
    x, y = base, base + sum(drop for _, drop in drawn)
    rows = [(x, y)]
    for width, drop in drawn:
        x, y = x + width, y - drop
        rows.append((x, y))
    return _kernels.pack(np.array(rows, dtype=np.int64))


def all_sums(a, b):
    return [(p + r, q + s) for p, q in _kernels.key_rows(a) for r, s in _kernels.key_rows(b)]


def uncovered(a, b):
    steps = _kernels._steps([a, b])
    return _kernels._uncovered(steps[id(a)], steps[id(b)])


def check_prune(a, b):
    """The kept sums of a*b generate it, and a sum that is a minimal
    generator is kept iff its neighbour a_(i+1) + b_(j-1) is not equal to it:
    of a run of equal minimal sums on an anti-diagonal exactly one is kept.
    Returns the number of such ties."""
    keep = uncovered(a, b)
    assert keep.shape == (a.size, b.size)
    sums = a[:, None] + b
    minimal = brute_minimal(all_sums(a, b))
    assert _kernels.key_rows(_kernels.minimal_keys(sums[keep])) == minimal
    minimal_set = set(_kernels.pack(np.array(minimal, dtype=np.int64)).tolist())
    ties = 0
    for i in range(a.size):
        for j in range(b.size):
            if int(sums[i, j]) in minimal_set:
                tied = i + 1 < a.size and j > 0 and sums[i, j] == sums[i + 1, j - 1]
                assert keep[i, j] != tied
                ties += tied
    return ties


def test_prune_keeps_one_of_two_equal_sums():
    # steps (1, 2), (1, 1), (1, 3) on both factors: not convex, and
    # a_i + b_(i+1) = a_(i+1) + b_i for each step i; the sums (1, 10) and
    # (5, 3) are minimal, (3, 7) is covered by (3, 6) = a_3 + b_0
    a = _kernels.pack(np.array([(0, 6), (1, 4), (2, 3), (3, 0)], dtype=np.int64))
    b = a.copy()
    assert check_prune(a, b) == 2
    keep = uncovered(a, b)
    assert not keep[1, 2] and not keep[2, 1] and keep[3, 0]


def test_prune_keeps_every_minimal_sum():
    rng = random.Random(77)
    step_sets = (((1, 1),), ((1, 1), (1, 2), (2, 1)), ((1, 3), (2, 2), (3, 1), (1, 1)),
                 ((5, 1), (1, 5), (2, 2)))
    checked = ties = 0
    for _ in range(250):
        steps = rng.choice(step_sets)
        a = staircase_keys(rng, rng.randint(1, 12), steps, rng.randint(0, 3))
        b = staircase_keys(rng, rng.randint(1, 12), rng.choice((steps, rng.choice(step_sets))))
        ties += check_prune(a, b)
        checked += a.size * b.size
    assert checked > 4000 and ties > 100


def test_product_keys_matches_brute_force_across_the_cutoff():
    # staircases of 20-90 generators: products on both sides of PRUNE_MIN_SUMS
    rng = random.Random(78)
    steps = ((1, 1), (1, 2), (2, 1), (3, 1), (1, 4))
    sizes = set()
    for _ in range(12):
        pairs = [(staircase_keys(rng, rng.randint(20, 90), steps),
                  staircase_keys(rng, rng.randint(20, 90), steps)) for _ in range(rng.randint(1, 3))]
        extra = [staircase_keys(rng, rng.randint(1, 30), steps, rng.randint(0, 200))
                 for _ in range(rng.randint(0, 2))]
        expected = brute_minimal([s for a, b in pairs for s in all_sums(a, b)]
                                 + [g for e in extra for g in _kernels.key_rows(e)])
        assert _kernels.key_rows(_kernels.product_keys(pairs, extra)) == expected
        sizes |= {a.size * b.size >= _kernels.PRUNE_MIN_SUMS for a, b in pairs}
    assert sizes == {False, True}
