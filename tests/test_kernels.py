"""The numpy antichain and product kernels against plain-Python references."""

import numpy as np
import pytest

from epsmult import _kernels


def reference_minimal(rows):
    rows = sorted(set(map(tuple, rows)), key=lambda g: (sum(g), g))
    kept = []
    for g in rows:
        if not any(all(k[i] <= g[i] for i in range(len(g))) for k in kept):
            kept.append(g)
    return sorted(kept)


def random_rows(rng, n, d, hi):
    return rng.integers(0, hi, size=(n, d)).astype(np.int64)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_minimal_rows_matches_reference(d):
    rng = np.random.default_rng(5)
    for n in (1, 2, 17, 200):
        arr = random_rows(rng, n, d, 7)
        fn = _kernels.minimal_rows_2d if d == 2 else _kernels.minimal_rows_nd
        got = [tuple(int(x) for x in row) for row in fn(arr)]
        assert got == reference_minimal(arr.tolist())


def test_minimal_rows_handles_duplicates():
    arr = np.array([[1, 2], [1, 2], [2, 0], [2, 0], [3, 3]], dtype=np.int64)
    got = [tuple(r) for r in _kernels.minimal_rows_2d(arr)]
    assert got == [(1, 2), (2, 0)]


def test_pairwise_sums():
    a = np.array([[1, 2], [2, 0]], dtype=np.int64)
    got = sorted(map(tuple, _kernels.pairwise_sums(a, a).tolist()))
    assert got == [(2, 4), (3, 2), (3, 2), (4, 0)]
