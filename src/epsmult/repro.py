"""Reproduction bundles: the checks behind `eps repro` and the acceptance suite.

Every function returns a JSON-ready dict with a boolean "pass" plus enough
detail to see what was computed.  Random instances are drawn from an explicit
seed so reruns are byte-identical.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from math import isqrt
from typing import Optional, Sequence

from .asymptotics import fit_epsilons, length_table
from .cohomology import h0_length
from .families import (CounterRule, FamilySpec, HyperbolaRule, LimitRecursiveRule,
                       SqrtPrincipalRule, _ceil_div, eval_family, power_family,
                       product_grid_family)
from .ideal_core import MonomialIdeal, _checked_int
from .polyhedra import analytic_spread, out_region


def rat(x: Fraction) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def random_ideal(rng: random.Random, d: int, max_exp: int, max_gens: int) -> MonomialIdeal:
    """A random proper monomial ideal (never zero, never the unit ideal)."""
    while True:
        count = rng.randint(1, max_gens)
        gens = []
        for _ in range(count):
            g = tuple(rng.randint(0, max_exp) for _ in range(d))
            if any(g):
                gens.append(g)
        if gens:
            return MonomialIdeal.from_gens(d, gens)


# ---------------------------------------------------------------------------
# Example counter: l(R/(X Y^{a_n}, X^2)) = a_n.


def counter_reproduction(a_spec, n_max: int = 30) -> dict:
    spec = FamilySpec(2, CounterRule(a_spec))
    table = length_table(spec, range(1, n_max + 1))
    expected = [spec.rule.value(n) for n in range(1, n_max + 1)]
    got = [table.value(n) for n in range(1, n_max + 1)]
    return {
        "a": a_spec if isinstance(a_spec, str) else list(a_spec),
        "n_max": n_max,
        "lengths": got,
        "pass": got == expected,
    }


# ---------------------------------------------------------------------------
# Example limit: hyperbola closed forms, the erratum check, the sandwich,
# and the n^2 ln n trend.


def _ceil_sum(n: int) -> int:
    return sum(_ceil_div(n * n, a) for a in range(1, n + 1))


def hyperbola_sum_closed_form(n_max: int = 40) -> dict:
    """h0(J_n + J'_n) = 2 sum_a ceil(n^2/a) - (n^2 + 2n - 1), exactly."""
    spec = FamilySpec(2, HyperbolaRule("sum"))
    mismatches = []
    for n in range(1, n_max + 1):
        direct = h0_length(eval_family(spec, n)).length
        formula = 2 * _ceil_sum(n) - (n * n + 2 * n - 1)
        if direct != formula:
            mismatches.append({"n": n, "direct": direct, "formula": formula})
    return {"n_max": n_max, "mismatches": mismatches, "pass": not mismatches}


def lower_family_ideal(n: int) -> MonomialIdeal:
    """Y^{n-1} J_n + X^{n-1} J'_n."""
    j_lower = eval_family(FamilySpec(2, HyperbolaRule("lower")), n)
    j_upper = eval_family(FamilySpec(2, HyperbolaRule("upper")), n)
    y_shift = MonomialIdeal.from_gens(2, [(0, n - 1)])
    x_shift = MonomialIdeal.from_gens(2, [(n - 1, 0)])
    return y_shift.multiply(j_lower).add(x_shift.multiply(j_upper))


def lower_family_length(n: int) -> int:
    """l(H^0(R/(Y^{n-1} J_n + X^{n-1} J'_n))) = 2 sum_a ceil(n^2/a) + 2n^2 - 8n + 4, n >= 2."""
    return 2 * _ceil_sum(n) + 2 * n * n - 8 * n + 4


def lower_family_erratum(ns: Sequence[int] = (2, 3)) -> dict:
    """Direct counts vs the closed-form prediction for the lower family.

    The prediction 2 sum_a ceil(n^2/a) + 2(n^2 - 3n + 1) overshoots direct
    enumeration by exactly 2(n - 1) (10 vs 8 at n = 2, 36 vs 32 at n = 3);
    enumeration is the ground truth here and the discrepancy is flagged, not
    patched.  The identity is ``lower_family_length``.

    Proof.  Let g(a) = n - 1 + ceil(n^2/a), weakly decreasing from
    n^2 + n - 1 to g(n) = 2n - 1.  The generators are (a, g(a)) and their
    mirrors (g(a), a), a = 1..n.  All lie in (XY), and X Y^(g(1)) and
    X^(g(1)) Y are among them, so the saturation is (XY) and the length
    counts the points (u, v) >= (1, 1) outside the ideal.  In column u <= n
    the lowest generator at or left of u is (u, g(u)), as every mirror has
    X >= 2n - 1 > u, so the column holds g(u) - 1 points: in all
    sum_a ceil(n^2/a) + n^2 - 2n with u <= n, and as many with v <= n by
    symmetry.  The n^2 points with u, v <= n are counted twice.  Every
    generator has a coordinate >= 2n - 1, so a point with u, v > n lies in
    the ideal exactly when u or v is >= 2n - 1, by (2n - 1, n) or
    (n, 2n - 1): (n - 2)^2 points remain.  So the length is
    2 (sum_a ceil(n^2/a) + n^2 - 2n) - n^2 + (n - 2)^2
    = 2 sum_a ceil(n^2/a) + 2n^2 - 8n + 4.
    """
    rows = []
    for n in ns:
        direct = h0_length(lower_family_ideal(n)).length
        formula = 2 * _ceil_sum(n) + 2 * (n * n - 3 * n + 1)
        rows.append({"n": n, "direct": direct, "formula": formula,
                     "matches": direct == formula})
    return {"rows": rows, "flagged": any(not r["matches"] for r in rows),
            "pass": True}  # informational: enumeration is authoritative


def limit_sandwich(n_max: int = 25) -> dict:
    """Lower ideal <= I_n <= hyperbola sum, equal saturations, length order."""
    limit_spec = FamilySpec(2, LimitRecursiveRule())
    sum_spec = FamilySpec(2, HyperbolaRule("sum"))
    xy = MonomialIdeal.from_gens(2, [(1, 1)])
    failures = []
    for n in range(2, n_max + 1):
        lower = lower_family_ideal(n)
        mid = eval_family(limit_spec, n)
        upper = eval_family(sum_spec, n)
        checks = {
            "lower_in_mid": lower.is_subset(mid),
            "mid_in_upper": mid.is_subset(upper),
            "saturations_xy": lower.saturate() == xy and mid.saturate() == xy
                              and upper.saturate() == xy,
        }
        l_lower = h0_length(lower).length
        l_mid = h0_length(mid).length
        l_upper = h0_length(upper).length
        checks["length_order"] = l_upper <= l_mid <= l_lower
        if not all(checks.values()):
            failures.append({"n": n, **checks})
    return {"n_max": n_max, "failures": failures, "pass": not failures}


def limit_trend(points: Sequence[int] = (25, 50, 100),
                final_bounds: tuple[float, float] = (2.0, 2.6)) -> dict:
    spec = FamilySpec(2, LimitRecursiveRule())
    values = []
    for n in points:
        length = h0_length(eval_family(spec, n)).length
        values.append((n, length / (n * n * math.log(n))))
    decreasing = all(b < a for (_, a), (_, b) in zip(values, values[1:]))
    lo, hi = final_bounds
    final_ok = lo <= values[-1][1] <= hi
    return {
        "points": list(points),
        "normalized": [{"n": n, "value": v} for n, v in values],
        "decreasing": decreasing,
        "final_in_range": final_ok,
        "pass": decreasing and final_ok,
    }


def limit_exact_length(points: Sequence[int] = (25, 50, 100, 997), lower_max: int = 40) -> dict:
    """The limit family's O(sqrt n) length (``LimitRecursiveRule.length``)
    against the staircase of its built rung at *points*, and the lower
    family's identity (``lower_family_length``) against enumeration for
    n = 2..lower_max."""
    spec = FamilySpec(2, LimitRecursiveRule())
    lengths = [spec.rule.length(n) for n in points]
    staircase = [h0_length(eval_family(spec, n)).length for n in points]
    lower = [n for n in range(2, lower_max + 1)
             if h0_length(lower_family_ideal(n)).length != lower_family_length(n)]
    return {
        "points": list(points),
        "lengths": lengths,
        "equals_staircase": lengths == staircase,
        "lower_n_max": lower_max,
        "lower_mismatches": lower,
        "pass": lengths == staircase and not lower,
    }


# ---------------------------------------------------------------------------
# The volume identity and positivity.


def fit_epsilon(ideal: MonomialIdeal, n_max: int = 12, start: Optional[int] = 3,
                period_max: int = 6, holdout: int = 2):
    """(epsilon, fit) from the length quasi-polynomial of the powers 1..n_max (``fit_epsilons``)."""
    quasi, report = fit_epsilons(power_family(ideal), range(1, _checked_int(n_max, "fit n_max") + 1),
                                 period_max=period_max, holdout=holdout, start=start)
    return report.epsilon, quasi


def jm_fixed_cases() -> dict:
    cases = [
        ([(1, 2), (2, 0)], Fraction(2)),
        ([(2, 0), (0, 2)], Fraction(4)),
        ([(1, 0)], Fraction(0)),
    ]
    rows = []
    for gens, expected in cases:
        ideal = MonomialIdeal.from_gens(2, gens)
        vol_eps = out_region(ideal).epsilon
        fit_eps, _ = fit_epsilon(ideal)
        rows.append({
            "ideal": [list(g) for g in gens],
            "epsilon_volume": rat(vol_eps),
            "epsilon_fit": rat(fit_eps),
            "expected": rat(expected),
            "pass": vol_eps == fit_eps == expected,
        })
    return {"rows": rows, "pass": all(r["pass"] for r in rows)}


def jm_random_cases(seed: int = 2024, count: int = 25, n_max: int = 12) -> dict:
    rng = random.Random(seed)
    rows = []
    for _ in range(count):
        ideal = random_ideal(rng, 2, max_exp=5, max_gens=5)
        vol_eps = out_region(ideal).epsilon
        fit_eps, quasi = fit_epsilon(ideal, n_max=n_max)
        rows.append({
            "ideal": [list(g) for g in ideal.gens],
            "epsilon_volume": rat(vol_eps),
            "epsilon_fit": rat(fit_eps),
            "period": quasi.period,
            "pass": vol_eps == fit_eps,
        })
    return {"seed": seed, "count": count, "rows": rows,
            "pass": all(r["pass"] for r in rows)}


def positivity_equivalence(seed: int = 2024, count_d2: int = 25, count_d3: int = 10) -> dict:
    rng = random.Random(seed)
    rows = []
    for d, count, max_exp in ((2, count_d2, 5), (3, count_d3, 4)):
        for _ in range(count):
            ideal = random_ideal(rng, d, max_exp=max_exp, max_gens=5)
            eps = out_region(ideal).epsilon
            spread = analytic_spread(ideal)
            rows.append({
                "d": d,
                "ideal": [list(g) for g in ideal.gens],
                "epsilon": rat(eps),
                "spread": spread,
                "pass": (eps > 0) == (spread == d),
            })
    return {"seed": seed, "rows_checked": len(rows),
            "failures": [r for r in rows if not r["pass"]],
            "pass": all(r["pass"] for r in rows)}


# ---------------------------------------------------------------------------
# Mixed epsilon grid and the irrational family.


def mixed_grid_case(grid_max: int = 8, start: int = 3) -> dict:
    ideal = MonomialIdeal.from_gens(2, [(1, 2), (2, 0)])
    spec = product_grid_family([ideal, ideal])
    grid = [(i, j) for i in range(1, grid_max + 1) for j in range(1, grid_max + 1)]
    quasi, report = fit_epsilons(spec, grid, period_max=4, holdout=4, start=start)
    expected_top = {(2, 0): Fraction(1), (1, 1): Fraction(2), (0, 2): Fraction(1)}
    expected_mixed = {(2, 0): Fraction(2), (1, 1): Fraction(2), (0, 2): Fraction(2)}
    return {
        "grid_max": grid_max,
        "period": quasi.period,
        "top_form": {f"{e[0]},{e[1]}": rat(v) for e, v in sorted(report.leading_form.items())},
        "mixed": {f"{e[0]},{e[1]}": rat(v) for e, v in sorted(report.mixed.items())},
        "pass": report.leading_form == expected_top and report.mixed == expected_mixed,
    }


def irrational_case(n: int = 10_000, k: int = 2) -> dict:
    """|l(R/I_n)/n - sqrt(k)| <= 2/n certified by integer square root bounds."""
    spec = FamilySpec(1, SqrtPrincipalRule(k))
    length = h0_length(eval_family(spec, n)).length
    lower_ok = (length - 2) ** 2 <= k * n * n   # length - 2 <= n sqrt(k)
    upper_ok = k * n * n <= (length + 2) ** 2   # n sqrt(k) <= length + 2
    return {
        "n": n,
        "k": k,
        "length": length,
        "isqrt_value": isqrt(k * n * n) + 1,
        "pass": lower_ok and upper_ok and length == isqrt(k * n * n) + 1,
    }


# ---------------------------------------------------------------------------
# Case table for the CLI: each case builds its named parts from the seed.


def _counter_parts(seed: int) -> dict:
    rng = random.Random(seed)
    random_list = tuple(rng.randint(0, 50) for _ in range(30))
    return {"n^2": counter_reproduction("n^2"), "n^3": counter_reproduction("n^3"),
            "random_list": counter_reproduction(random_list)}


CASES = {
    "example-counter": _counter_parts,
    "example-limit": lambda seed: {"hyperbola_sum_closed_form": hyperbola_sum_closed_form(40),
                                   "lower_family_erratum": lower_family_erratum(),
                                   "sandwich": limit_sandwich(25), "trend": limit_trend(),
                                   "exact_length": limit_exact_length()},
    "jm-volume": lambda seed: {"fixed": jm_fixed_cases(), "random": jm_random_cases(seed=seed),
                               "positivity": positivity_equivalence(seed=seed)},
    "mixed-grid": lambda seed: {"mixed_grid": mixed_grid_case()},
    "irrational": lambda seed: {"irrational": irrational_case()},
}


def run_case(name: str, seed: Optional[int] = None) -> dict:
    if name not in CASES:
        raise ValueError(f"unknown repro case {name!r}")
    parts = CASES[name](2024 if seed is None else seed)
    return {"case": name, **parts, "pass": all(p["pass"] for p in parts.values())}
