"""Per-layer tracing from outside the package.

``install`` replaces each traced function by a timing wrapper wherever
callers look it up: the module attribute, every epsmult module that imported
the name, and the ``MonomialIdeal`` class dict (aliases such as ``__mul__``
included).  Each wrapper opens a span; a span's self time is its duration
minus the time its child spans cover.  Counters are taken from the traced
calls' arguments and results at the same boundary.  Spans are folded into
per-function totals as they close, so memory stays flat.
"""

from __future__ import annotations

import math
import sys
from time import perf_counter

from epsmult import (_exactla, _kernels, asymptotics, cli, cohomology, families,
                     ideal_core, polyhedra)

# Metric prefix -> (module, function names).  Modules with a leading
# underscore are reported without it, since metric names start with a letter.
TRACED = {
    "cli": (cli, ["main"]),
    "families": (families, ["eval_family"]),
    "ideal_core": (ideal_core, ["from_gens", "multiply", "add", "intersect", "saturate",
                                "is_subset"]),
    "kernels": (_kernels, ["minimal_rows_2d", "minimal_rows_nd", "pairwise_sums", "count_box"]),
    "cohomology": (cohomology, ["h0_length"]),
    "polyhedra": (polyhedra, ["newton_polyhedron", "out_region", "volume_from_constraints",
                              "triangulate_points", "analytic_spread"]),
    "asymptotics": (asymptotics, ["length_table", "fit_quasi_polynomial", "extract_epsilons"]),
    "exactla": (_exactla, ["rank", "det", "solve_unique", "solve_least_determined",
                           "nullspace_vector", "affine_rank"]),
}

# Counters reported as they are, with their units.
REPORTED = {
    "kernels.rows_in": "count", "kernels.rows_out": "count", "kernels.bytes_computed": "B",
    "cohomology.box_points": "count", "polyhedra.facets": "count",
    "polyhedra.vertices": "count", "polyhedra.simplices": "count",
    "asymptotics.entries": "count", "asymptotics.fit_period": "count",
    "exactla.matrix_entries": "count",
}
# Counters that only enter the ratios.
RATIO_PARTS = ("ideal_core.gens_in", "ideal_core.gens_out", "cohomology.box_length",
               "polyhedra.vertex_subsets")


def _matrix_entries(rows) -> int:
    return len(rows) * (len(rows[0]) if len(rows) else 0)


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts = dict.fromkeys([*REPORTED, *RATIO_PARTS], 0)
        self._stack: list[list] = []  # [span name, time covered by children]
        self._undo: list[tuple] = []

    # -- counters, read at the traced boundary ------------------------------

    def _count(self, name, parent, args, kwargs, result):
        c = self.counts
        if name in ("ideal_core.multiply", "ideal_core.add"):
            a, b = len(args[0].gens), len(args[1].gens)
            c["ideal_core.gens_in"] += a * b if name.endswith("multiply") else a + b
            c["ideal_core.gens_out"] += len(result.gens)
        elif name in ("kernels.minimal_rows_2d", "kernels.minimal_rows_nd"):
            c["kernels.rows_in"] += len(args[0])
            c["kernels.rows_out"] += len(result)
            c["kernels.bytes_computed"] += (args[0].size + result.size) * 8
        elif name == "kernels.pairwise_sums":
            c["kernels.bytes_computed"] += (args[0].size + args[1].size + result.size) * 8
        elif name == "kernels.count_box":
            box = [int(b) for b in args[0]]
            lo = kwargs.get("lo", args[4] if len(args) > 4 else None) or 0
            hi = kwargs.get("hi", args[5] if len(args) > 5 else None)
            hi = box[0] if hi is None else hi
            points = max(0, hi - lo) * math.prod(box[1:])
            c["kernels.bytes_computed"] += (points * len(box) + sum(a.size for a in args[1:4])) * 8
        elif name == "cohomology.h0_length":
            if result.method == cohomology.METHOD_BOX:
                c["cohomology.box_points"] += math.prod(args[0].max_exponents())
                c["cohomology.box_length"] += result.length
        elif name == "polyhedra.newton_polyhedron":
            c["polyhedra.facets"] += len(result.facets)
            c["polyhedra.vertices"] += len(result.vertices)
            c["polyhedra.vertex_subsets"] += math.comb(len(result.facets), result.d)
        elif name == "polyhedra.triangulate_points":
            if parent != name:
                c["polyhedra.simplices"] += len(result)
        elif name == "asymptotics.length_table":
            c["asymptotics.entries"] += len(result.entries)
        elif name == "asymptotics.fit_quasi_polynomial":
            c["asymptotics.fit_period"] += result.period
        elif name.startswith("exactla.") and not (parent or "").startswith("exactla."):
            c["exactla.matrix_entries"] += _matrix_entries(args[0])

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name, func):
        stack, calls, self_s = self._stack, self.calls, self.self_s

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            try:
                self._count(name, parent, args, kwargs, result)
            except (AttributeError, IndexError, TypeError):
                pass  # a counter this version's arguments or results cannot feed
            return result

        traced.__wrapped__ = func
        return traced

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n == "epsmult" or n.startswith("epsmult.")]
        for prefix, (module, names) in TRACED.items():
            cls = ideal_core.MonomialIdeal if module is ideal_core else None
            for fname in names:
                name = f"{prefix}.{fname}"
                # a function the package no longer has is reported as never called
                self.calls[name], self.self_s[name] = 0, 0.0
                if cls is not None:
                    raw = cls.__dict__.get(fname)
                    if raw is None:
                        continue
                    is_cm = isinstance(raw, classmethod)
                    wrapped = self._wrap(name, raw.__func__ if is_cm else raw)
                    new = classmethod(wrapped) if is_cm else wrapped
                    for attr, value in list(cls.__dict__.items()):
                        if value is raw:
                            self._replace(cls, attr, new)
                    continue
                orig = getattr(module, fname, None)
                if orig is None:
                    continue
                wrapped = self._wrap(name, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._replace(mod, attr, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # -- report ----------------------------------------------------------------

    def metrics(self, memo_hit_ratio) -> dict:
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        c = self.counts
        for key, unit in REPORTED.items():
            out[key] = (c[key], unit)

        def ratio(num, den):
            return num / den if den else 0.0

        out["ideal_core.gens_kept_ratio"] = (ratio(c["ideal_core.gens_out"], c["ideal_core.gens_in"]), "ratio")
        out["cohomology.useful_ratio"] = (ratio(c["cohomology.box_length"], c["cohomology.box_points"]), "ratio")
        out["polyhedra.vertex_useful_ratio"] = (ratio(c["polyhedra.vertices"], c["polyhedra.vertex_subsets"]), "ratio")
        out["families.memo_hit_ratio"] = (memo_hit_ratio, "ratio")
        return out


def memo_hit_ratio() -> float:
    """Hit ratio of the family memo, from its cache_info; 0 when it has none."""
    info = getattr(getattr(families, "_eval", None), "cache_info", None)
    if info is None:
        return 0.0
    stats = info()
    total = stats.hits + stats.misses
    return stats.hits / total if total else 0.0
