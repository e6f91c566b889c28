"""The antichain and d = 2 key kernels against the brute-force oracle."""

import os
import random
import subprocess
import sys

import numpy as np
import pytest

import epsmult
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


def staircase_keys(rng, n, steps):
    """The keys of an n-generator staircase from (0, y0) to (x1, 0), each
    step a (width, drop) drawn from *steps*: with few distinct steps, equal
    steps and non-convex corners are common."""
    drawn = [rng.choice(steps) for _ in range(n - 1)]
    x, y = 0, sum(drop for _, drop in drawn)
    rows = [(x, y)]
    for width, drop in drawn:
        x, y = x + width, y - drop
        rows.append((x, y))
    return _kernels.pack(np.array(rows, dtype=np.int64))


def all_sums(a, b):
    return [(p + r, q + s) for p, q in _kernels.key_rows(a) for r, s in _kernels.key_rows(b)]


def test_product_keys_matches_brute_force():
    # staircases of 20-90 generators, one to three products at once
    rng = random.Random(78)
    steps = ((1, 1), (1, 2), (2, 1), (3, 1), (1, 4))
    for _ in range(12):
        pairs = [(staircase_keys(rng, rng.randint(20, 90), steps),
                  staircase_keys(rng, rng.randint(20, 90), steps)) for _ in range(rng.randint(1, 3))]
        expected = brute_minimal([s for a, b in pairs for s in all_sums(a, b)])
        assert _kernels.key_rows(_kernels.product_keys(pairs)) == expected


def test_product_keys_runs_match_brute_force():
    # 1 to 60 pairs per call, factors of 1 to 12 keys with the smaller one on
    # either side, one-key factors, coordinates up to 2^31 - 1; few distinct
    # values make equal sums from different runs common
    rng = random.Random(2131)
    top = _kernels.INT64_SAFE - 1
    for k in range(120):
        values = ((0, 1, 2, 3, 5), (0, 1, top - 1, top), (0, 2**30, top))[k % 3]
        pairs = []
        for _ in range(rng.choice((1, 2, 7, 60))):
            sizes = (rng.choice((1, 1, 2, 5)), rng.randint(1, 12))
            pairs.append(tuple(_kernels.pack(np.array(
                brute_minimal([(rng.choice(values), rng.choice(values)) for _ in range(n)]),
                dtype=np.int64)) for n in (sizes if rng.random() < 0.5 else sizes[::-1])))
        expected = brute_minimal([s for a, b in pairs for s in all_sums(a, b)])
        assert _kernels.key_rows(_kernels.product_keys(pairs)) == expected
    # equal sums from different runs: (1, 0) + (0, 1) = (0, 1) + (1, 0)
    a, b = _kernels.pack([(0, 1), (1, 0)]), _kernels.pack([(0, 1), (1, 0), (top, 0)])
    assert _kernels.key_rows(_kernels.product_keys([(a, b), (b, a)])) == ((0, 2), (1, 1), (2, 0))
    one = _kernels.pack([(top, top)])
    assert _kernels.key_rows(_kernels.product_keys([(one, one)])) == ((2 * top, 2 * top),)


def test_numpy_loads_on_the_first_d2_product():
    # importing the package and a d = 3 length leave numpy unloaded; the first
    # d = 2 product loads it
    script = "\n".join((
        "import contextlib, io, sys",
        "import epsmult",
        "from epsmult import cli",
        "assert 'numpy' not in sys.modules",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert cli.main(['h0', '--ideal', '[[1,1,0],[0,1,1],[2,0,1]]']) == 0",
        "assert 'numpy' not in sys.modules",
        "I = epsmult.MonomialIdeal.from_gens(2, [(1, 2), (3, 0)])",
        "assert (I * I).gens == ((2, 4), (4, 2), (6, 0))",
        "assert 'numpy' in sys.modules",
    ))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(epsmult.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
