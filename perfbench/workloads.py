"""The benchmark's four workloads.

Each workload turns a seed into a list of items, runs one item through the
package's public API (``run``, the timed call), reduces the result to JSON
(``summarize``) and checks every item by a second route (``check``), which
runs after the timed phase.  Package functions are looked up through their
modules at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import product

from epsmult import asymptotics, cli, cohomology, families, polyhedra, repro
from epsmult.ideal_core import MonomialIdeal

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))


def rat(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def load_fixed() -> dict:
    with open(os.path.join(HERE, "fixed.json"), encoding="utf-8") as fh:
        return json.load(fh)


def shuffled_perm(rng: random.Random, d: int) -> list[int]:
    perm = list(range(d))
    rng.shuffle(perm)
    return perm


def inner_antichain(rng: random.Random, top, k: int) -> list[tuple[int, ...]]:
    """k distinct points of one total degree strictly inside the box ``top``.

    Equal degree makes them an antichain, and coordinates >= 1 keep them off
    the pure powers, so with those the ideal has exactly d + k generators.
    """
    degree = sum(top) // 2
    points: set[tuple[int, ...]] = set()
    while len(points) < k:
        head = [rng.randint(1, t - 1) for t in top[:-1]]
        last = degree - sum(head)
        if 1 <= last < top[-1]:
            points.add((*head, last))
    return sorted(points)


def convex_staircase(rng: random.Random, k: int) -> list[tuple[int, int]]:
    """k generators in d = 2 that are all vertices of the Newton polygon.

    Edges with distinct slopes, steepest first, make the chain strictly
    convex, so the polygon's size depends on k alone.
    """
    x, y = rng.randint(0, 2), rng.randint(0 if k > 1 else 1, 2)
    slopes = {}
    while len(slopes) < k - 1:
        dx, dy = rng.randint(1, 3), rng.randint(1, 3)
        slopes.setdefault(Fraction(dy, dx), (dx, dy))
    edges = [slopes[s] for s in sorted(slopes, reverse=True)]
    y += sum(dy for _, dy in edges)
    gens = [(x, y)]
    for dx, dy in edges:
        x, y = x + dx, y - dy
        gens.append((x, y))
    return gens


class LimitFamily:
    """``eps family run`` on the recursive limit family, in-process via cli.main.

    The spec is fixed, so the seed only picks the indices that get the
    generator-level sandwich check; the timed call is the same for every seed.
    """

    N = 100
    SPEC = os.path.join(HERE, "limit_recursive.json")
    SANDWICH_SAMPLE = 10

    @classmethod
    def argv(cls) -> list[str]:
        return ["family", "run", "--spec", cls.SPEC, "--range", f"2:{cls.N}",
                "--normalizer", "n^2*ln(n)"]

    @classmethod
    def make_items(cls, seed: int) -> list:
        rng = random.Random(seed)
        sample = sorted(rng.sample(range(2, cls.N + 1), cls.SANDWICH_SAMPLE))
        return [("cli", cls.argv(), sample)]

    @staticmethod
    def run(item):
        buf = io.StringIO()
        with redirect_stdout(buf):
            status = cli.main(item[1])
        return status, buf.getvalue()

    @staticmethod
    def summarize(item, raw) -> dict:
        status, text = raw
        return {"status": status, "stdout": text}

    @staticmethod
    def _hyperbola_lower(n: int) -> list[tuple[int, int]]:
        return [(a, -(-n * n // a)) for a in range(1, n + 1)]

    @classmethod
    def check(cls, items, raws) -> dict:
        status, text = raws[0]
        if status != 0:
            return {0: f"exit status {status}"}
        payload = json.loads(text)
        entries = payload["entries"]
        if [e["index"] for e in entries] != list(range(2, cls.N + 1)):
            return {0: "wrong index range"}
        spec = families.FamilySpec(2, families.LimitRecursiveRule())
        normalized = []
        for e in entries:
            n, length = e["index"], e["length"]
            mid = [tuple(g) for g in families.eval_family(spec, n).gens]
            lower_j = cls._hyperbola_lower(n)
            lower = oracles.add(oracles.multiply([(0, n - 1)], lower_j),
                                oracles.multiply([(n - 1, 0)], [(b, a) for a, b in lower_j]))
            upper_closed = 2 * sum(b for _, b in lower_j) - (n * n + 2 * n - 1)
            if oracles.h0(mid) != length:
                return {0: f"length of I_{n} disagrees with the column count"}
            if not upper_closed <= length <= oracles.h0(lower):
                return {0: f"length of I_{n} outside the sandwich bounds"}
            if n in items[0][2]:
                upper = oracles.add(lower_j, [(b, a) for a, b in lower_j])
                if not (oracles.contained(lower, mid) and oracles.contained(mid, upper)
                        and oracles.saturate(mid) == [(1, 1)]):
                    return {0: f"I_{n} fails the generator-level sandwich"}
            value = length / (n * n * math.log(n))
            if not math.isclose(e["normalized"], value, rel_tol=1e-12):
                return {0: f"normalized value of I_{n} is off"}
            normalized.append(value)
        steps = [b - a for a, b in zip(normalized, normalized[1:])]
        trend = ("decreasing" if all(s <= 0 for s in steps) else
                 "increasing" if all(s >= 0 for s in steps) else "oscillating")
        if payload["trend"] != trend:
            return {0: "trend tag disagrees"}
        if hashlib.sha256(text.encode()).hexdigest() != load_fixed()["limit_family"]["stdout_sha256"]:
            return {0: "stdout differs from the stored output"}
        return {}


class H0Box:
    """Box-route H^0 lengths: powers of (xy, yz, x^2 z) and m-primary ideals.

    Box extents and generator counts follow a fixed ladder, and the seed
    draws the shape and the inner generators; so the seed moves the inputs
    but hardly their cost.
    """

    POWER_BASE = [(1, 1, 0), (0, 1, 1), (2, 0, 1)]
    POWERS = 30
    MPRIMARY = ((3, 30, 90, 60), (4, 8, 22, 50))  # (d, exponent lo, hi, count)
    TAKAYAMA_MAX_POWER = 3
    OWN_POWER_MAX = 8

    @classmethod
    def make_items(cls, seed: int) -> list:
        rng = random.Random(seed)
        items = []
        for d, lo, hi, count in cls.MPRIMARY:
            for j in range(count):
                # box volume scale**d on a ladder; the seed only draws the shape
                scale = lo * 1.25 + (hi * 0.8 - lo * 1.25) * (j + 0.5) / count
                shape = [rng.uniform(0.8, 1.25) for _ in range(d)]
                norm = math.prod(shape) ** (1 / d)
                top = [min(hi, max(lo, round(scale * f / norm))) for f in shape]
                gens = [tuple(top[i] if k == i else 0 for k in range(d)) for i in range(d)]
                gens += inner_antichain(rng, top, 2 + j % 6)
                items.append(("ideal", gens))
        rng.shuffle(items)
        return [("powers", cls.POWERS)] + items

    @classmethod
    def run(cls, item):
        if item[0] == "powers":
            base = MonomialIdeal.from_gens(3, cls.POWER_BASE)
            return asymptotics.length_table(families.power_family(base), range(1, item[1] + 1))
        gens = item[1]
        return cohomology.h0_length(MonomialIdeal.from_gens(len(gens[0]), gens))

    @staticmethod
    def summarize(item, raw) -> dict:
        if item[0] == "powers":
            return {"lengths": [v for _, v in raw.series()], "methods": list(raw.methods)}
        return {"length": raw.length, "method": raw.method}

    @classmethod
    def check(cls, items, raws) -> dict:
        box = cohomology.METHOD_BOX
        bad = {}
        for i, (item, raw) in enumerate(zip(items, raws)):
            if item[0] == "powers":
                lengths = [v for _, v in raw.series()]
                spec = families.power_family(MonomialIdeal.from_gens(3, cls.POWER_BASE))
                if lengths != load_fixed()["h0_box"]["power_lengths"] or raw.methods != (box,):
                    bad[i] = "power lengths differ from the stored output"
                for n, length in enumerate(lengths, start=1):
                    ideal = families.eval_family(spec, n)
                    gens = [tuple(g) for g in ideal.gens]
                    if oracles.h0(gens) != length:
                        bad[i] = f"I^{n}: column count disagrees"
                    if n <= cls.OWN_POWER_MAX and oracles.power(cls.POWER_BASE, n, 3) != gens:
                        bad[i] = f"I^{n}: generators differ from the plain product"
                    if n <= cls.TAKAYAMA_MAX_POWER and \
                            cohomology.h0_length_takayama(ideal).length != length:
                        bad[i] = f"I^{n}: Takayama route disagrees"
            elif raw.method != box or oracles.h0(oracles.minimal(item[1])) != raw.length:
                bad[i] = "column count disagrees"
        return bad


class EpsilonVolume:
    """out_region + analytic_spread on d = 2, 3 and 4 ideals.

    d = 2 ideals are seeded convex staircases on a ladder of 1..5 steps.  The
    d = 3 and d = 4 ideals come from fixed.json as stored: a random d = 3 draw
    has a heavy-tailed cost, random d = 4 draws hit minute-long items, and
    even a variable permutation moves a d = 3 item's cost by up to about 45 %
    (the triangulation fans out from the lexicographically least vertex).
    The seed draws the d = 2 ideals and the order of all items.
    """

    D2_COUNT = 70

    @classmethod
    def make_items(cls, seed: int) -> list:
        rng = random.Random(seed)
        fixed = load_fixed()["epsilon_volume"]
        items = [("d2", None, convex_staircase(rng, 1 + j % 5)) for j in range(cls.D2_COUNT)]
        for key in ("d3_pool", "d4"):
            for idx, row in enumerate(fixed[key]):
                items.append((key, idx, [tuple(g) for g in row["gens"]]))
        rng.shuffle(items)
        return items

    @staticmethod
    def run(item):
        gens = item[2]
        ideal = MonomialIdeal.from_gens(len(gens[0]), gens)
        return polyhedra.out_region(ideal), polyhedra.analytic_spread(ideal)

    @staticmethod
    def summarize(item, raw) -> dict:
        return {"epsilon": rat(raw[0].epsilon), "spread": raw[1]}

    @classmethod
    def check(cls, items, raws) -> dict:
        fixed = load_fixed()["epsilon_volume"]
        bad = {}
        for i, (item, raw) in enumerate(zip(items, raws)):
            kind, idx, gens = item
            d = len(gens[0])
            eps, spread = raw[0].epsilon, raw[1]
            minimal = oracles.minimal(gens)
            if (eps > 0) != (spread == d):
                bad[i] = "positivity and maximal spread disagree"
            elif (eps > 0) != oracles.has_compact_facet(minimal):
                bad[i] = "positivity disagrees with the compact-facet test"
            elif kind == "d2":
                fitted, _ = repro.fit_epsilon(MonomialIdeal.from_gens(2, gens))
                if fitted != eps:
                    bad[i] = f"volume epsilon {eps} but fitted {fitted}"
            else:
                row = fixed[kind][idx]
                if [rat(eps), spread] != [row["epsilon"], row["spread"]]:
                    bad[i] = "differs from the stored output"
        return bad


class FitGrid:
    """Length tables and exact fits: a 3-factor mixed grid and 7 families.

    Both come from fixed.json; the seed orders the grid's factors, swaps x
    and y in the grid and in each family, which moves neither cost nor the
    outputs beyond relabelling.
    """

    GRID = 12
    FAMILY_N = 60
    EXTRAPOLATE_GRID = [(13, 13, 13), (14, 3, 9), (3, 15, 4)]
    EXTRAPOLATE_FAMILY = range(61, 65)

    @classmethod
    def make_items(cls, seed: int) -> list:
        rng = random.Random(seed)
        fixed = load_fixed()["fit_grid"]
        perm, swap = shuffled_perm(rng, 3), rng.random() < 0.5
        factors = [[g[::-1] if swap else g for g in fixed["grid"]["factors"][i]] for i in perm]
        items = [("grid", factors, perm)]
        for idx, row in enumerate(fixed["families"]):
            swap = rng.random() < 0.5
            seeds = {deg: [g[::-1] if swap else g for g in gens] for deg, gens in row["seeds"].items()}
            items.append(("family", idx, swap, seeds))
        return items

    @classmethod
    def run(cls, item):
        if item[0] == "grid":
            spec = families.product_grid_family([MonomialIdeal.from_gens(2, f) for f in item[1]])
            table = asymptotics.length_table(spec, list(product(range(1, cls.GRID + 1), repeat=3)))
            quasi = asymptotics.fit_quasi_polynomial(table, degree=2, period_max=4, holdout=4, start=3)
        else:
            rule = families.NoetherianSeedsRule(tuple(sorted(
                (int(deg), tuple(tuple(g) for g in gens)) for deg, gens in item[3].items())))
            table = asymptotics.length_table(families.FamilySpec(2, rule), range(1, cls.FAMILY_N + 1))
            quasi = asymptotics.fit_quasi_polynomial(table, degree=2, period_max=12, holdout=2, start=5)
        return quasi, asymptotics.extract_epsilons(quasi, 2)

    @staticmethod
    def summarize(item, raw) -> dict:
        quasi, report = raw
        if item[0] == "grid":
            return {"period": quasi.period,
                    "mixed": {",".join(map(str, e)): rat(v) for e, v in sorted(report.mixed.items())}}
        return {"period": quasi.period, "epsilon": rat(report.epsilon)}

    @staticmethod
    def _noetherian(seeds, n_max: int) -> list:
        """I_0..I_n_max of the family, by the plain recursion."""
        table = [[(0, 0)]]
        for n in range(1, n_max + 1):
            acc: list = []
            for deg, gens in seeds.items():
                if int(deg) <= n:
                    acc = oracles.add(acc, oracles.multiply([tuple(g) for g in gens], table[n - int(deg)]))
            table.append(acc)
        return table

    @classmethod
    def check(cls, items, raws) -> dict:
        stored = load_fixed()["fit_grid"]
        bad = {}
        for i, (item, raw) in enumerate(zip(items, raws)):
            quasi, report = raw
            if item[0] == "grid":
                _, factors, perm = item
                canonical = {",".join(str(e[perm.index(j)]) for j in range(3)): rat(v)
                             for e, v in report.mixed.items()}
                if canonical != stored["grid"]["mixed"]:
                    bad[i] = "mixed multiplicities differ from the stored output"
                whole = oracles.multiply(oracles.multiply(factors[0], factors[1]), factors[2])
                eps = polyhedra.out_region(MonomialIdeal.from_gens(2, whole)).epsilon
                if eps != 2 * sum(report.leading_form.values()):
                    bad[i] = f"volume epsilon {eps} disagrees with the fitted leading form"
                for idx in cls.EXTRAPOLATE_GRID:
                    gens = [(0, 0)]
                    for f, n in zip(factors, idx):
                        gens = oracles.multiply(gens, oracles.power(f, n, 2))
                    if quasi.evaluate(idx) != oracles.h0(gens):
                        bad[i] = f"fit misses the length at {idx}"
                continue
            _, idx, _, seeds = item
            summary = cls.summarize(item, raw)
            row = stored["families"][idx]
            if [summary["period"], summary["epsilon"]] != [row["period"], row["epsilon"]]:
                bad[i] = "period or epsilon differs from the stored output"
            if len(seeds) == 2 and all(len(v) == 1 and min(v[0]) == 0 for v in seeds.values()):
                (p, ((b_x, b_y),)), = [(int(k), v) for k, v in seeds.items() if k != "1"]
                a = max(seeds["1"][0])
                if report.epsilon != Fraction(a * max(b_x, b_y), p):
                    bad[i] = "epsilon misses the closed form a*b/p"
            own = cls._noetherian(seeds, max(cls.EXTRAPOLATE_FAMILY))
            for n in cls.EXTRAPOLATE_FAMILY:
                if quasi.evaluate(n) != oracles.h0(own[n]):
                    bad[i] = f"fit misses the length at n = {n}"
        return bad


WORKLOADS = {
    "limit-family": LimitFamily,
    "h0-box": H0Box,
    "epsilon-volume": EpsilonVolume,
    "fit-grid": FitGrid,
}
