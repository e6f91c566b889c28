"""The antichain and the d = 2 product kernel against the brute-force oracle."""

import json
import os
import random
import subprocess
import sys

import pytest

import epsmult
from epsmult import _kernels
from epsmult.ideal_core import _antichain

import test_cli
from conftest import brute_minimal, brute_rung

# coordinates at 2**31, at the top of 32 bits and past 64 bits
EDGES = (0, 2**31 - 1, 2**31, 2**64)
UNIT = ((0, 0),)


def key_minimal(rows):
    """The d = 2 kernel as a minimalization: each row times the unit ideal."""
    return _kernels.product([((tuple(r),), UNIT) for r in rows])


def random_rows(rng, n, d, hi):
    return [[rng.randrange(hi) for _ in range(d)] for _ in range(n)]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_minimal_rows_matches_reference(d):
    rng = random.Random(5)
    for n in (1, 2, 17, 200):
        rows = random_rows(rng, n, d, 7)
        rows += rows[: n // 3]  # duplicates
        if d == 2:
            rows += [[0, 2**32 - 1], [2**32 - 1, 0], [2**31 - 1, 2**31 - 1], [2**64, 1], [1, 2**64]]
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
    # a row times the unit ideal is the row itself, at any size; a y-sum that
    # needs one more bit than either summand never carries into x
    for row in ((0, 0), (0, 2**32 - 1), (2**32 - 1, 0), (2**64, 2**64), (1, 2**31 - 1)):
        assert _kernels.product([((row,), UNIT)]) == (row,)
    for top in (2**31 - 1, 2**32 - 1, 2**64 - 1):
        square = ((0, top), (top, 0))
        assert _kernels.product([(square, square)]) == ((0, 2 * top), (top, top), (2 * top, 0))
        corner = ((top, top),)
        assert _kernels.product([(corner, corner)]) == ((2 * top, 2 * top),)


def staircase(rng, n, steps):
    """An n-generator staircase from (0, y0) to (x1, 0), each step a (width,
    drop) drawn from *steps*: with few distinct steps, equal steps and
    non-convex corners are common."""
    drawn = [rng.choice(steps) for _ in range(n - 1)]
    x, y = 0, sum(drop for _, drop in drawn)
    rows = [(x, y)]
    for width, drop in drawn:
        x, y = x + width, y - drop
        rows.append((x, y))
    return tuple(rows)


def test_product_keys_matches_brute_force():
    # staircases of 20-90 generators, one to three products at once
    rng = random.Random(78)
    steps = ((1, 1), (1, 2), (2, 1), (3, 1), (1, 4))
    for _ in range(12):
        pairs = [(staircase(rng, rng.randint(20, 90), steps),
                  staircase(rng, rng.randint(20, 90), steps)) for _ in range(rng.randint(1, 3))]
        assert _kernels.product(pairs) == brute_rung(pairs)


def test_product_keys_runs_match_brute_force():
    # 1 to 60 pairs per call, factors of 1 to 12 generators with the smaller
    # one on either side, one-generator factors, coordinates up to 2^31 and
    # past 2^64; few distinct values make equal sums from different runs and
    # duplicate pairs common
    rng = random.Random(2131)
    top = 2**31 - 1
    for k in range(160):
        values = ((0, 1, 2, 3, 5), (0, 1, top - 1, top), (0, 2**30, top), (0, 3, 2**64, 2**64 + 1))[k % 4]
        pairs = []
        for _ in range(rng.choice((1, 2, 7, 60))):
            sizes = (rng.choice((1, 1, 2, 5)), rng.randint(1, 12))
            pairs.append(tuple(brute_minimal([(rng.choice(values), rng.choice(values)) for _ in range(n)])
                               for n in (sizes if rng.random() < 0.5 else sizes[::-1])))
        pairs += rng.sample(pairs, rng.randint(0, len(pairs)))  # duplicate pairs
        assert _kernels.product(pairs) == brute_rung(pairs)
    # equal sums from different runs: (1, 0) + (0, 1) = (0, 1) + (1, 0)
    a, b = ((0, 1), (1, 0)), ((0, 1), (1, 0), (top, 0))
    assert _kernels.product([(a, b), (b, a)]) == ((0, 2), (1, 1), (2, 0))


def test_repro_cases_run_without_numpy():
    # with numpy made unimportable, the package imports and all five
    # reproduction cases print their pinned output
    script = "\n".join((
        "import contextlib, hashlib, io, json, sys",
        "sys.modules['numpy'] = None",
        "from epsmult import cli",
        "for case, pin in json.loads(sys.argv[1]).items():",
        "    out = io.StringIO()",
        "    with contextlib.redirect_stdout(out):",
        "        assert cli.main(['repro', '--case', case]) == 0, case",
        "    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == pin, case",
    ))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(epsmult.__file__)))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(test_cli.TestReproCommand.PINNED)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
