"""Length tables, exact quasi-polynomial fitting, epsilon extraction.

Fitting is exact rational interpolation, never least squares: eventual
quasi-polynomiality is a theorem for Noetherian monomial families, so any
residual means the window is wrong, and the fitter says so instead of
approximating.  The period search ascends and accepts the first exact fit.
A residue class with interpolation rows A = [n^e for e in the monomial
basis] and lengths l is solved through its k x (k+1) normal equations
[A^T A | A^T l], formed in Python ints and eliminated fraction-free once
(``_exactla.bareiss``).  Over the rationals rank(A^T A) = rank(A), so a
singular A^T A is exactly a class without full column rank; otherwise the
elimination gives D x = num, the only possible solution, and the class is
consistent iff every row satisfies D l_i == A_i . num in integers.

A period is decided when every class has full column rank.  Its failures
are the first point of each inconsistent class or, if there is none, each
held-out index the candidate misses.  ``NoFitError`` carries the decided
period with the fewest failures (the earliest on ties) and its first one;
``InsufficientDataError`` means that no period was decided.

A period is judged only up to its first rank-deficient or inconsistent
class, so a period-p fit whose smaller periods each fail at their first
class runs (p - 1) + p^r eliminations, not one per class of every period.
The error path loses nothing by the stop and solves no class again.  Each
class of each period holds a subset of the rows of period 1's one class.
So period 1 is decided whenever another period is, and one inconsistent
class anywhere makes period 1 inconsistent: it fails once, the fewest
possible, and is named.  Otherwise every full-rank class is consistent, and
each decided period is judged to its end, its holdouts included.

``fit_epsilons`` is the one route from a family to its epsilons: it checks
the fit arguments and the window, then tabulates, fits and extracts.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iter_product
from math import factorial
from operator import add, mul
from typing import Optional, Sequence

from ._exactla import bareiss
from .cohomology import METHOD_CLOSED_FORM, h0_length
from .errors import (EpsmultError, InsufficientDataError, NoFitError, PreconditionError,
                     TheoremViolationError, ZeroIdealError)
from .families import FamilySpec, LimitRecursiveRule, _checked_index, _key, _walk, eval_family
from .ideal_core import _checked_int

Index = tuple[int, ...]


def _as_index(idx) -> Index:
    """*idx* as a tuple of non-negative ints (a float or a bool is no index)."""
    return tuple(map(_checked_index, idx if isinstance(idx, tuple) else (idx,)))


@dataclass
class LengthTable:
    arity: int
    entries: dict[Index, int]
    methods: tuple[str, ...]

    def indices(self) -> list[Index]:
        return sorted(self.entries)

    def value(self, idx) -> int:
        return self.entries[_as_index(idx)]

    def series(self) -> list[tuple[Index, int]]:
        return [(i, self.entries[i]) for i in self.indices()]


def length_table(spec: FamilySpec, indices: Sequence) -> LengthTable:
    """H^0 lengths of R/I_n over the given indices, by the slab route.

    The distinct indices are measured in sorted order (``families._walk``),
    and each ideal is let go as soon as no later index steps from it, so the
    table holds one int per entry and a few ideals, not every ideal it built.
    If an index fails (it is not a valid index, the family has no such ideal
    or it is zero), the indices are evaluated again in the order given, so
    the error names the first that fails there.  The limit family builds no
    ideal: each length is ``LimitRecursiveRule.length``, O(sqrt n) per index.
    """
    idxs = [i if isinstance(i, tuple) else (i,) for i in indices]
    if not idxs:
        raise PreconditionError("empty index range")
    if isinstance(spec.rule, LimitRecursiveRule):
        keys = sorted({_key(spec, i) for i in idxs})
        return LengthTable(1, {(n,): spec.rule.length(n) for n in keys}, (METHOD_CLOSED_FORM,))
    lengths, methods = {}, set()
    try:
        for key, ideal in _walk(spec, sorted({_key(spec, i) for i in idxs})):
            if ideal.is_zero:
                break
            count = h0_length(ideal)
            lengths[key if isinstance(key, tuple) else (key,)] = count.length
            methods.add(count.method)
        else:
            return LengthTable(spec.arity, lengths, tuple(sorted(methods)))
    except EpsmultError:
        pass
    memo: dict = {}
    for idx in idxs:
        if eval_family(spec, idx, memo).is_zero:
            raise ZeroIdealError(f"I_{idx[0] if len(idx) == 1 else idx} is the zero ideal")
    raise AssertionError("an index failed the sorted walk but not the ordered one")


# ---------------------------------------------------------------------------
# Quasi-polynomials.


def _monomial_basis(arity: int, degree: int) -> list[Index]:
    basis = [e for e in iter_product(range(degree + 1), repeat=arity) if sum(e) <= degree]
    basis.sort(key=lambda e: (sum(e), e))
    return basis


@dataclass
class QuasiPolynomial:
    arity: int
    period: int
    degree: int
    coeffs: dict[tuple[Index, Index], Fraction] = field(default_factory=dict)
    # keys are (residue tuple mod period, exponent tuple)

    def residues(self) -> list[Index]:
        return sorted({res for res, _ in self.coeffs})

    def evaluate(self, idx) -> Fraction:
        i = _as_index(idx)
        res = tuple(n % self.period for n in i)
        return sum((c * math.prod(map(pow, i, e)) for (own, e), c in self.coeffs.items()
                    if own == res), Fraction(0))


def _check_fit(degree, period_max, holdout, start, least_degree: int = 0) -> None:
    """Raise PreconditionError unless the fit arguments are integers in range."""
    for name, value, least in (("degree", degree, least_degree), ("period_max", period_max, 1),
                               ("holdout", holdout, 0)):
        if _checked_int(value, f"fit {name}") < least:
            raise PreconditionError(f"fit {name} must be at least {least}, got {value}")
    if start is not None:
        _checked_int(start, "fit start")


def fit_quasi_polynomial(table: LengthTable, degree: int, period_max: int = 6,
                         holdout: int = 0, start: Optional[int] = None) -> QuasiPolynomial:
    """Smallest-period exact quasi-polynomial reproducing the table.

    The last ``holdout`` window entries are excluded from interpolation and
    must be reproduced exactly; ``start`` drops indices with any coordinate
    below it before fitting.  Entries must be Python ints (lengths).  A period
    is judged up to its first rank-deficient or inconsistent class, which
    the module docstring shows is enough to name the decided period with
    the fewest failing classes or holdouts (the earliest on ties) and its
    first failing index in ``NoFitError``.
    """
    _check_fit(degree, period_max, holdout, start)
    if any(type(v) is not int for v in table.entries.values()):
        raise PreconditionError("length table entries must be integers")
    r = table.arity
    window = table.indices()
    if start is not None:
        window = [i for i in window if min(i) >= start]
    if len(window) <= holdout:
        raise InsufficientDataError("window smaller than the holdout")
    fit_idx, hold_idx = window[:len(window) - holdout], window[len(window) - holdout:]
    basis = _monomial_basis(r, degree)
    k = len(basis)
    # basis[j] is basis[lower] times the variable v, with lower < j
    steps = []
    for e in basis[1:]:
        v = next(v for v, p in enumerate(e) if p)
        steps.append((basis.index(e[:v] + (e[v] - 1,) + e[v + 1:]), v))
    # the Gram entry (u, w) is the moment of the exponent basis[u] + basis[w];
    # pairs holds one (u, w) per distinct such exponent, slots[u][w] its place
    pairs: list[tuple[int, int]] = []
    slot: dict[Index, int] = {}
    slots = [[0] * k for _ in range(k)]
    for u, eu in enumerate(basis):
        for w, ew in enumerate(basis):
            f = tuple(map(add, eu, ew))
            if f not in slot:
                slot[f] = len(pairs)
                pairs.append((u, w))
            slots[u][w] = slot[f]

    best: Optional[tuple[int, list[Index]]] = None  # (period, its failures)
    for a in range(1, period_max + 1):
        classes: dict[Index, list[Index]] = {}
        for i in fit_idx:
            classes.setdefault(tuple(n % a for n in i), []).append(i)
        held = Counter(tuple(n % a for n in i) for i in hold_idx)
        # every class needs k points to interpolate and at least one more,
        # in-window or held out, to actually verify the claimed fit
        if any(len(pts) < k or len(pts) + held[res] < k + 1 for res, pts in classes.items()):
            continue
        # per class the normal equations [A^T A | A^T l] of its rows A = [n^e]
        # and lengths l; the module docstring says why they decide rank and
        # consistency exactly, and why one inconsistent class ends the period
        coeffs: dict[tuple[Index, Index], Fraction] = {}
        fails: list[Index] = []
        for res, pts in sorted(classes.items()):
            cols = [[1] * len(pts)]
            coords = list(zip(*pts))
            for lower, v in steps:
                cols.append(list(map(mul, cols[lower], coords[v])))
            lengths = [table.entries[i] for i in pts]
            moments = [sum(map(mul, cols[u], cols[w])) for u, w in pairs]
            m, pivots, _ = bareiss([[moments[t] for t in row] + [sum(map(mul, col, lengths))]
                                    for row, col in zip(slots, cols)])
            if pivots != list(range(k)):
                break  # a rank-deficient class: the period cannot be decided
            den = m[k - 1][k - 1]
            num = [m[j][k] for j in range(k)]
            if not all(den * li == sum(map(mul, row, num)) for row, li in zip(zip(*cols), lengths)):
                fails = [pts[0]]  # one failure: exact at period 1, which then wins
                break
            coeffs.update(((res, e), Fraction(x, den)) for e, x in zip(basis, num))
        else:
            candidate = QuasiPolynomial(r, a, degree, coeffs)
            fails = [i for i in hold_idx if tuple(n % a for n in i) not in classes
                     or candidate.evaluate(i) != table.entries[i]]
            if not fails:
                return candidate
        if fails and (best is None or len(fails) < len(best[1])):
            best = (a, fails)
    if best is None:
        raise InsufficientDataError(
            f"no period <= {period_max} has {k} independent points per residue class")
    raise NoFitError(
        f"no exact quasi-polynomial of degree <= {degree} and period <= {period_max}",
        best_period=best[0], first_fail=best[1][0])


@dataclass
class EpsilonReport:
    degree: int
    mixed: dict[Index, Fraction]
    leading_form: dict[Index, Fraction]
    epsilon: Optional[Fraction] = None   # r = 1 only
    raw_limit: Optional[Fraction] = None  # r = 1 only


def extract_epsilons(quasi: QuasiPolynomial, d: int) -> EpsilonReport:
    """Mixed epsilon multiplicities from the degree-d part of the fit.

    Every total-degree-d coefficient must be residue-independent; the mixed
    value of type (d_1..d_r) is d_1! ... d_r! times that coefficient.
    """
    if quasi.degree < d:
        raise PreconditionError("fit degree bound is below the ambient dimension")
    residues = quasi.residues()
    mixed: dict[Index, Fraction] = {}
    leading: dict[Index, Fraction] = {}
    for e in _monomial_basis(quasi.arity, quasi.degree):
        if sum(e) != d:
            continue
        vals = {quasi.coeffs.get((res, e), Fraction(0)) for res in residues}
        if len(vals) > 1:
            raise TheoremViolationError(
                f"degree-{d} coefficient at {e} varies with the residue class: "
                f"{sorted(vals)}")
        val = vals.pop() if vals else Fraction(0)
        leading[e] = val
        mixed[e] = val * math.prod(factorial(p) for p in e)
    report = EpsilonReport(d, mixed, leading)
    if quasi.arity == 1:
        report.epsilon = mixed[(d,)]
        report.raw_limit = leading[(d,)]
    return report


def fit_epsilons(spec: FamilySpec, indices: Sequence, degree: Optional[int] = None, period_max: int = 6,
                 holdout: int = 0, start: Optional[int] = None) -> tuple[QuasiPolynomial, EpsilonReport]:
    """Fit the lengths of *spec* over *indices*; return the fit and its degree-d part, d = spec.d.

    *degree* None is d, *start* None is d + 1.  The arguments and the window (period 1 needs k
    points and max(holdout, 1) more) are checked before any ideal is built."""
    degree = spec.d if degree is None else degree
    start = spec.d + 1 if start is None else start
    _check_fit(degree, period_max, holdout, start, least_degree=spec.d)
    window = {i for i in map(_as_index, indices) if all(n >= start for n in i)}
    need = math.comb(degree + spec.arity, degree) + max(holdout, 1)
    if len(window) < need:
        raise InsufficientDataError(f"{len(window)} indices in the window; a degree-{degree} fit "
                                    f"with {holdout} held out needs {need}")
    quasi = fit_quasi_polynomial(length_table(spec, indices), degree, period_max, holdout, start)
    return quasi, extract_epsilons(quasi, spec.d)


# ---------------------------------------------------------------------------
# Convergence diagnostics for non-Noetherian families.


@dataclass
class ConvergenceReport:
    normalizer: str
    values: tuple[tuple[int, float], ...]
    window_max: float
    trend: str


def _parse_normalizer(text: str) -> tuple[Fraction, bool]:
    import re

    # a power p or p/q with q > 0, in ASCII digits
    m = re.fullmatch(r"n(?:\^\(?([0-9]+(?:/0*[1-9][0-9]*)?)\)?)?(\*ln\(n\))?", text.replace(" ", ""))
    if not m:
        raise PreconditionError(f"cannot parse normalizer {text!r}; use n^p or n^p*ln(n)")
    p = Fraction(m.group(1)) if m.group(1) else Fraction(1)
    return p, bool(m.group(2))


def convergence_report(table: LengthTable, normalizer: str) -> ConvergenceReport:
    """Normalized length sequence with a limsup proxy and trend tag."""
    if table.arity != 1:
        raise PreconditionError("convergence reports are for singly indexed tables")
    power, with_log = _parse_normalizer(normalizer)
    values = []
    for idx, length in table.series():
        n = idx[0]
        if n < 1 or (with_log and n == 1):
            continue
        denom = float(n) ** float(power)
        if with_log:
            denom *= math.log(n)
        values.append((n, length / denom))
    if not values:
        raise PreconditionError("no usable indices for this normalizer")
    tail = [v for _, v in values[-min(5, len(values)):]]
    diffs = [b - a for (_, a), (_, b) in zip(values, values[1:])]
    if all(x <= 0 for x in diffs):
        trend = "decreasing"
    elif all(x >= 0 for x in diffs):
        trend = "increasing"
    else:
        trend = "oscillating"
    return ConvergenceReport(normalizer, tuple(values), max(tail), trend)
