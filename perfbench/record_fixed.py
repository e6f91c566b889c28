#!/usr/bin/env python3
"""Write perfbench/fixed.json: the benchmark's fixed inputs and their outputs.

The seeded workloads draw fresh ideals from ``--seed``.  A few inputs are
fixed instead, because a random draw of them would make the run's cost depend
on the seed far more than on the code (see README.md).  The volume ideals
run as stored; for the fit-grid inputs the seed only orders the grid's
factors and swaps x and y, which leaves their outputs as they are and moves
their cost little.
This script defines those inputs and stores the outputs the package gives for
them, which the benchmark's checks compare against.

Run from the repository root:  python3 perfbench/record_fixed.py
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import epsmult  # noqa: E402
from epsmult import asymptotics, families, polyhedra  # noqa: E402
from epsmult.ideal_core import MonomialIdeal  # noqa: E402

import workloads  # noqa: E402

# d = 3 volume pool: the first draws of this master seed, each with 1..7
# generators of exponents <= 6.
D3_MASTER_SEED = 2011
D3_POOL_SIZE = 25

# d = 4 volume items, each well under 2 s.  All have epsilon = 0 (spread 2
# or 3): every d = 4 ideal with epsilon > 0 tried takes longer, the cheapest
# being the maximal ideal at 3.5-4.5 s (see README.md).
D4_LIST = [
    [[1, 1, 0, 0], [0, 0, 1, 1]],
    [[0, 0, 1, 1], [0, 1, 0, 1], [1, 0, 0, 1]],
    [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]],
    [[0, 2, 3, 3], [1, 1, 3, 0], [2, 1, 1, 0]],
    [[1, 1, 3, 1], [2, 1, 0, 3], [2, 1, 1, 1], [3, 2, 0, 0]],
]

# Excluded on purpose: each takes minutes in out_region (polyhedra's
# brute-force hull), and the benchmark is run 22 times per workload per check.
D4_EXCLUDED = [
    {"gens": [[2, 0, 0, 1], [0, 2, 0, 1], [0, 0, 2, 1], [1, 1, 1, 0]],
     "out_region_seconds": 124},
    {"gens": [[0, 2, 3, 0], [0, 4, 0, 3], [1, 4, 2, 0], [4, 0, 2, 2]],
     "out_region_seconds": 77},
]

# Factors of the 3-factor mixed grid: two generators each, exponents <= 4.
GRID_FACTORS = [[[1, 2], [2, 0]], [[0, 3], [2, 1]], [[0, 2], [3, 1]]]

# Noetherian families {degree: generators} whose length tables fit with
# periods 2..12.  The first, third and fifth have the closed form
# epsilon = a*b/p for seeds {1: x^a, p: y^b}.
FAMILIES = [
    {"1": [[2, 0]], "2": [[0, 3]]},
    {"1": [[1, 1]], "3": [[1, 0], [0, 1]]},
    {"1": [[1, 0]], "4": [[0, 2]]},
    {"1": [[1, 1]], "2": [[0, 1]], "3": [[1, 0]]},
    {"1": [[3, 0]], "7": [[0, 2]]},
    {"1": [[1, 1]], "2": [[0, 1]], "5": [[1, 0]]},
    {"1": [[1, 2]], "3": [[3, 0]], "4": [[0, 3]]},
]


def d3_pool() -> list[list[list[int]]]:
    rng = random.Random(D3_MASTER_SEED)
    pool = []
    while len(pool) < D3_POOL_SIZE:
        gens = [[rng.randint(0, 6) for _ in range(3)] for _ in range(rng.randint(1, 7))]
        gens = [g for g in gens if any(g)]
        if gens:
            pool.append([list(g) for g in MonomialIdeal.from_gens(3, gens).gens])
    return pool


def volume_row(gens) -> dict:
    ideal = MonomialIdeal.from_gens(len(gens[0]), gens)
    return {"gens": gens,
            "epsilon": workloads.rat(polyhedra.out_region(ideal).epsilon),
            "spread": polyhedra.analytic_spread(ideal)}


def fit_row(item) -> dict:
    return workloads.FitGrid.summarize(item, workloads.FitGrid.run(item))


def main() -> None:
    base = MonomialIdeal.from_gens(3, workloads.H0Box.POWER_BASE)
    table = asymptotics.length_table(families.power_family(base),
                                     range(1, workloads.H0Box.POWERS + 1))
    status, text = workloads.LimitFamily.run(("cli", workloads.LimitFamily.argv(), []))
    if status != 0:
        raise SystemExit(f"eps family run exited {status}")
    fixed = {
        "epsmult_version": epsmult.__version__,
        "limit_family": {"stdout_sha256": hashlib.sha256(text.encode()).hexdigest()},
        "h0_box": {"power_lengths": [v for _, v in table.series()]},
        "epsilon_volume": {"d3_pool": [volume_row(g) for g in d3_pool()],
                           "d4": [volume_row(g) for g in D4_LIST],
                           "d4_excluded": D4_EXCLUDED},
        "fit_grid": {
            "grid": {"factors": GRID_FACTORS,
                     "mixed": fit_row(("grid", GRID_FACTORS, [0, 1, 2]))["mixed"]},
            "families": [{"seeds": s, **fit_row(("family", 0, False, s))} for s in FAMILIES]},
    }
    with open(os.path.join(HERE, "fixed.json"), "w", encoding="utf-8") as fh:
        json.dump(fixed, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
