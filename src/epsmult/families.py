"""Declarative graded families {I_n} and their structural checks.

A FamilySpec pairs an ambient dimension with one of the built-in rules
(power, product grid, the two-generated counter family, principal ideals
with irrational slope, hyperbola-staircase families, the recursive limit
family, Noetherian families built from seeds, or an explicit table).
Evaluation fills a memo dict owned by the caller: the seeds rules keep
their seed ideals and their ideals I_0, I_1, ... under the spec, and a
product grid keeps its factor ideals and one dict of the entries built so
far, so callers that share one dict pay for each ideal once, and nothing
outlives the dict.  A grid entry I1^a ... Ik^c is the entry one step down
in its last nonzero index times that one factor, so a table walked in lex
order makes about one product by a factor per entry.
Power and Noetherian families are seeds rules: I_m is the sum of
seed * I_(m-deg) over the seeds of degree deg <= m, one call of
``ideal_core.sum_of_products``, minimalized once.  A power family has one
seed, in degree 1.  The limit family forms no product: each I_n is read off
its closed form (``LimitRecursiveRule``).
``_RULES`` gives each rule class its JSON type, field key and fixed d, if
any; ``FamilySpec``, ``family_from_json`` and ``family_to_json`` all read it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import accumulate, repeat
from math import isqrt
from typing import Optional, Union

from .cohomology import max_socle_degree
from .errors import ParseError, PreconditionError, ZeroIdealError
from .ideal_core import Monomial, MonomialIdeal, _checked_int, json_int, sum_of_products

Gens = tuple[Monomial, ...]
Index = Union[int, tuple[int, ...]]


@dataclass(frozen=True)
class PowerRule:
    gens: Gens


@dataclass(frozen=True)
class ProductGridRule:
    factors: tuple[Gens, ...]


@dataclass(frozen=True)
class CounterRule:
    """I_n = (X Y^{a_n}, X^2) with a_n a formula tag or an explicit tuple."""

    a: Union[str, tuple[int, ...]]
    _FORMULAS = {"n^2": lambda n: n * n, "n^3": lambda n: n ** 3, "2^n": lambda n: 2 ** n}

    def __post_init__(self):
        if isinstance(self.a, str) and self.a not in self._FORMULAS:
            raise PreconditionError(f"unknown counter formula {self.a!r}")

    def value(self, n: int) -> int:
        if isinstance(self.a, str):
            return self._FORMULAS[self.a](n)
        if n > len(self.a):
            raise PreconditionError(f"counter sequence has no term a_{n}")
        return self.a[n - 1]


@dataclass(frozen=True)
class SqrtPrincipalRule:
    """I_n = (X^{ceil(n sqrt(k))}) for a non-square k, via exact isqrt."""

    k: int

    def __post_init__(self):
        if _checked_int(self.k, "k") < 1 or isqrt(self.k) ** 2 == self.k:
            raise PreconditionError("k must be a positive non-square integer")


@dataclass(frozen=True)
class HyperbolaRule:
    variant: str  # lower | upper | sum

    def __post_init__(self):
        if self.variant not in ("lower", "upper", "sum"):
            raise PreconditionError(f"unknown hyperbola variant {self.variant!r}")


@dataclass(frozen=True)
class LimitRecursiveRule:
    """I_n = sum over 0 < t < n of I_t I_(n-t), plus S_n = (x y^(n^2), x^(n^2) y).

    In closed form (``rung``), I_n = (x^a y^f(a), x^f(a) y^a : 1 <= a <= n),
    where f(a) is the least sum of squares of a positive parts of n: with
    n = qa + r and 0 <= r < a, f(a) = (a - r) q^2 + r (q + 1)^2.

    Proof.  Unrolled, I_n is the sum of the products S_(k_1) ... S_(k_c) over
    the compositions k_1 + ... + k_c = n.  So its generators are the points
    (X, Y) = (sum u_i^2, sum v_i^2) with each (u_i, v_i) = (1, k_i) or
    (k_i, 1), and sum u_i v_i = n.  All u_i = 1 with the parts as even as
    possible gives (a, f(a)), and all v_i = 1 its mirror: the listed
    generators lie in I_n.  Conversely, (k - m)(k - m - 1) >= 0 for integers
    k and m, so k^2 >= (2m + 1) k - m(m + 1), with equality at k = m, m + 1:
    for a <= n, f(a) is the largest (2m + 1) n - m(m + 1) a over m >= 1,
    reached at m = q.  For m >= 1 the term v_i^2 + m(m + 1) u_i^2 -
    (2m + 1) u_i v_i is (k - m)(k - m - 1) >= 0 when u_i = 1 and
    (mk - 1)((m + 1) k - 1) >= 0 when v_i = 1.  Summed over i:
    Y >= (2m + 1) n - m(m + 1) X for every m >= 1, so Y >= f(X) when
    X <= n, and X >= f(Y) when Y <= n by symmetry.  Otherwise X, Y > n,
    above (n, f(n)) = (n, n).  So every generator lies in the listed ideal.

    Splitting a part k >= 2 into 1 and k - 1 lowers the sum of squares, so f
    strictly decreases from n^2 to n on 1..n, and the list, (a, f(a)) for
    a = 1..n then (f(a), a) for a = n - 1..1, is lex sorted and minimal.
    """

    def rung(self, n: int) -> Gens:
        """The minimal generators of I_n, n >= 1, lex sorted."""
        f = []
        for a in range(1, n + 1):
            q, r = divmod(n, a)
            f.append((a - r) * q * q + r * (q + 1) * (q + 1))
        return (*zip(range(1, n + 1), f), *zip(f[-2::-1], range(n - 1, 0, -1)))


@dataclass(frozen=True)
class NoetherianSeedsRule:
    seeds: tuple[tuple[int, Gens], ...]  # sorted (degree, generators)

    def __post_init__(self):
        if len({deg for deg, _ in self.seeds}) < len(self.seeds):
            raise PreconditionError("two noetherian seeds share a degree")
        if any(deg < 1 for deg, _ in self.seeds):
            raise PreconditionError("a noetherian seed needs degree >= 1")


@dataclass(frozen=True)
class TableRule:
    ideals: tuple[Gens, ...]


Rule = Union[PowerRule, ProductGridRule, CounterRule, SqrtPrincipalRule,
             HyperbolaRule, LimitRecursiveRule, NoetherianSeedsRule, TableRule]

# rule class: (JSON type, JSON key of its field or None, the one d it lives in or None)
_RULES = {
    PowerRule: ("power", "ideal", None),
    ProductGridRule: ("product_grid", "ideals", None),
    CounterRule: ("counter", "a", 2),
    SqrtPrincipalRule: ("sqrt", "k", 1),
    HyperbolaRule: ("hyperbola", "variant", 2),
    LimitRecursiveRule: ("limit_recursive", None, 2),
    NoetherianSeedsRule: ("noetherian", "seeds", None),
    TableRule: ("table", "ideals", None),
}


def _check_fixed_d(cls: type, d: int, error: type = PreconditionError) -> None:
    """Raise *error* if the rules of class *cls* live in one d and it is not *d*."""
    kind, _, fixed = _RULES[cls]
    if fixed not in (None, d):
        raise error(f"a {kind} family lives in d = {fixed}, not d = {d}")


@dataclass(frozen=True)
class FamilySpec:
    d: int
    rule: Rule

    def __post_init__(self):
        if type(self.rule) not in _RULES:
            raise PreconditionError(f"unknown family rule {self.rule!r}")
        _check_fixed_d(type(self.rule), self.d)
        if isinstance(self.rule, ProductGridRule) and not self.rule.factors:
            raise PreconditionError("product grid needs at least one factor")
        if isinstance(self.rule, TableRule):
            if not self.rule.ideals:
                raise PreconditionError("table family needs at least I_0")
            first = MonomialIdeal.from_gens(self.d, self.rule.ideals[0])
            if not first.is_unit:
                raise PreconditionError("a graded family needs I_0 = R")

    @property
    def arity(self) -> int:
        return len(self.rule.factors) if isinstance(self.rule, ProductGridRule) else 1


def power_family(ideal: MonomialIdeal) -> FamilySpec:
    return FamilySpec(ideal.d, PowerRule(ideal.gens))


def product_grid_family(ideals: list[MonomialIdeal]) -> FamilySpec:
    if not ideals:
        raise PreconditionError("product grid needs at least one factor")
    d = ideals[0].d
    for i in ideals:
        if i.d != d:
            raise PreconditionError("product grid factors must share the ambient ring")
    return FamilySpec(d, ProductGridRule(tuple(i.gens for i in ideals)))


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _eval(spec: FamilySpec, idx: Index, memo: dict) -> MonomialIdeal:
    """I_idx of *spec*, built through *memo*.

    A product grid keeps under its spec a dict of the entries built so far,
    seeded with R at the zero index, and its factor ideals.  A missing entry
    is the entry one step down in its last nonzero index times that factor:
    the walk goes down to the first entry held and climbs back one factor at
    a time, keeping every entry on the way.  A seeds rule keeps its seeds and
    its ladder I_0, I_1, ... and extends the ladder one rung at a time.  The
    limit family keeps nothing: each I_n is its closed form.
    """
    d, rule = spec.d, spec.rule
    if isinstance(rule, ProductGridRule):
        held = memo.get(spec)
        if held is None:
            held = memo[spec] = ({(0,) * len(rule.factors): MonomialIdeal.unit(d)},
                                 [MonomialIdeal.from_gens(d, f) for f in rule.factors])
        grid, factors = held
        steps = []
        while idx not in grid:
            j = max(i for i, n in enumerate(idx) if n)
            steps.append((idx, j))
            idx = idx[:j] + (idx[j] - 1,) + idx[j + 1:]
        entry = grid[idx]
        for up, j in reversed(steps):
            entry = grid[up] = entry.multiply(factors[j])
        return entry
    n = idx
    if n == 0:
        return MonomialIdeal.unit(d)
    if isinstance(rule, LimitRecursiveRule):
        return MonomialIdeal(2, rule.rung(n), _trusted=True)
    if isinstance(rule, (PowerRule, NoetherianSeedsRule)):
        # rung m is the sum of seed * I_(m-deg) over the seeds of degree at
        # most m, one sum_of_products call
        entry = memo.get(spec)
        if entry is None:
            seeds = rule.seeds if isinstance(rule, NoetherianSeedsRule) else ((1, rule.gens),)
            entry = memo[spec] = ([(deg, MonomialIdeal.from_gens(d, gens)) for deg, gens in seeds],
                                  [MonomialIdeal.unit(d)])
        seeds, ladder = entry
        while len(ladder) <= n:
            m = len(ladder)
            ladder.append(sum_of_products(d, [(seed, ladder[m - deg]) for deg, seed in seeds if deg <= m]))
        return ladder[n]
    if isinstance(rule, CounterRule):
        return MonomialIdeal.from_gens(2, [(1, rule.value(n)), (2, 0)])
    if isinstance(rule, SqrtPrincipalRule):
        return MonomialIdeal.from_gens(1, [(isqrt(n * n * rule.k) + 1,)])
    if isinstance(rule, HyperbolaRule):
        lower = [(a, _ceil_div(n * n, a)) for a in range(1, n + 1)]
        if rule.variant == "lower":
            return MonomialIdeal.from_gens(2, lower)
        upper = [(b, a) for a, b in lower]
        if rule.variant == "upper":
            return MonomialIdeal.from_gens(2, upper)
        return MonomialIdeal.from_gens(2, lower + upper)
    if isinstance(rule, TableRule):
        if n >= len(rule.ideals):
            raise PreconditionError(f"table family has no I_{n}")
        return MonomialIdeal.from_gens(d, rule.ideals[n])


def _checked_index(n) -> int:
    """n itself when it is a non-negative int (a bool is not)."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise PreconditionError(f"family indices must be integers, got {n!r}")
    if n < 0:
        raise PreconditionError("family indices must be non-negative")
    return n


def eval_family(spec: FamilySpec, index: Index, memo: Optional[dict] = None) -> MonomialIdeal:
    """The ideal I_index of the family, minimalized.

    *memo* (None: a fresh dict) caches the ideals built on the way; it changes
    no result, but calls that share one dict share their work.
    """
    memo = {} if memo is None else memo
    if isinstance(spec.rule, ProductGridRule):
        if not isinstance(index, tuple) or len(index) != spec.arity:
            raise PreconditionError(f"product grid index must be a {spec.arity}-tuple")
        return _eval(spec, tuple(map(_checked_index, index)), memo)
    if isinstance(index, tuple):
        if len(index) != 1:
            raise PreconditionError("this family is singly indexed")
        index = index[0]
    return _eval(spec, _checked_index(index), memo)


# ---------------------------------------------------------------------------
# Structural checks.


@dataclass(frozen=True)
class StructureReport:
    passed: bool
    mode: str
    upto: int
    violation: Optional[dict]


def check_structure(spec: FamilySpec, upto: int, mode: str = "graded") -> StructureReport:
    """Verify I_n I_m <= I_{n+m} (and descent, in filtration mode) up to N."""
    if mode not in ("graded", "filtration"):
        raise PreconditionError(f"unknown mode {mode!r}")
    if _checked_int(upto, "N") < 2:
        raise PreconditionError("need N >= 2")
    if isinstance(spec.rule, ProductGridRule):
        raise PreconditionError("structure checks apply to singly indexed families")
    memo: dict = {}
    for n in range(1, upto):
        for m in range(n, upto - n + 1):
            prod = eval_family(spec, n, memo).multiply(eval_family(spec, m, memo))
            if not prod.is_subset(eval_family(spec, n + m, memo)):
                return StructureReport(False, mode, upto,
                                       {"kind": "product", "pair": (n, m)})
    if mode == "filtration":
        for n in range(upto):
            if not eval_family(spec, n + 1, memo).is_subset(eval_family(spec, n, memo)):
                return StructureReport(False, mode, upto,
                                       {"kind": "chain", "index": n + 1})
    return StructureReport(True, mode, upto, None)


def generation_degree(spec: FamilySpec, a_max: int, window: int) -> Optional[int]:
    """Smallest a with I_{an+r} = I_a^{n-1} I_{a+r} on the test window, if any."""
    if _checked_int(a_max, "a_max") < 1 or _checked_int(window, "window") < 2:
        raise PreconditionError("need a_max >= 1 and window >= 2")
    if isinstance(spec.rule, ProductGridRule):
        raise PreconditionError("generation degree applies to singly indexed families")
    memo: dict = {}
    for a in range(1, a_max + 1):
        base = eval_family(spec, a, memo)
        # I_a^(n-1) for n = 2, 3, ...: one product each, built only as far as needed
        powers = accumulate(repeat(base, window - 1), MonomialIdeal.multiply)
        try:
            if all(eval_family(spec, a * n + r, memo)
                   == power.multiply(eval_family(spec, a + r, memo))
                   for n, power in zip(range(2, window + 1), powers) for r in range(a)):
                return a
        except PreconditionError:  # the family has no I_{an+r}
            continue
    return None


@dataclass(frozen=True)
class GrowthReport:
    n: int
    max_socle_degree: int
    minimal_c_linear: int
    minimal_c_quadratic: int


def growth_constants(spec: FamilySpec, n: int, memo: Optional[dict] = None) -> GrowthReport:
    """Socle degree of I_n and the minimal truncation constants at index n.

    The truncation identity I_n cap m^t = sat(I_n) cap m^t holds exactly when
    t exceeds the maximal socle degree, so the minimal linear (quadratic)
    constant is ceil((max+1)/n) (resp. over n^2).  *memo* is passed on to
    ``eval_family``.
    """
    if _checked_int(n, "n") < 1:
        raise PreconditionError("growth constants need n >= 1")
    ideal = eval_family(spec, n, memo)
    if ideal.is_zero:
        raise ZeroIdealError(f"I_{n} is the zero ideal")
    if ideal.is_unit:
        raise PreconditionError(f"I_{n} is the unit ideal")
    msd = max_socle_degree(ideal)
    return GrowthReport(n, msd, _ceil_div(msd + 1, n), _ceil_div(msd + 1, n * n))


# ---------------------------------------------------------------------------
# JSON interchange for family specs.


def _json_gens(rows) -> Gens:
    return tuple(tuple(json_int(e) for e in g) for g in rows)


def family_from_json(data) -> FamilySpec:
    """Build a FamilySpec from a dict / JSON string (see README for shapes)."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad family spec JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("family spec must be a JSON object")
    rule_obj = data.get("rule", data)
    if not isinstance(rule_obj, dict):
        raise ParseError("family rule must be a JSON object")
    kind = rule_obj.get("type")
    d = data.get("d")
    if d is not None and json_int(d) < 1:
        raise ParseError(f"family dimension d must be positive, got {d}")
    cls = next((c for c, entry in _RULES.items() if entry[0] == kind), None)
    if cls is None:
        raise ParseError(f"unknown family rule type {kind!r}")
    _, key, fixed = _RULES[cls]
    d = fixed if d is None else d
    _check_fixed_d(cls, d, ParseError)
    gen_sets: tuple[Gens, ...] = ()
    try:
        field = rule_obj[key] if key else None
        if cls is NoetherianSeedsRule:
            bad = [deg for deg in field.keys() if not re.fullmatch("[1-9][0-9]*", str(deg))]
            if bad:
                raise ParseError(f"noetherian seed degree {bad[0]!r} is not a plain decimal >= 1")
            field = tuple(sorted((int(deg), _json_gens(gens)) for deg, gens in field.items()))
            if not field:
                raise ParseError("noetherian rule needs at least one seed")
            gen_sets = tuple(gens for _, gens in field)
        elif cls is PowerRule:
            field = _json_gens(field)
            gen_sets = (field,)
        elif cls in (ProductGridRule, TableRule):
            field = gen_sets = tuple(map(_json_gens, field))
            if cls is ProductGridRule and not field:
                raise ParseError("product grid needs at least one factor")
        elif cls is CounterRule:
            field = tuple(map(json_int, field)) if isinstance(field, list) else str(field)
        elif cls is HyperbolaRule:
            field = str(field)
        elif cls is SqrtPrincipalRule:
            field = json_int(field)
        rule = cls(field) if key else cls()
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed family spec: {exc}") from exc
    if d is None:
        widths = {len(g) for gens in gen_sets for g in gens}
        if len(widths) != 1:
            raise ParseError(f"{kind} rule needs an explicit d")
        d = widths.pop()
    bad = [g for gens in gen_sets for g in gens if len(g) != d]
    if bad:
        raise ParseError(f"generator {list(bad[0])} does not have d = {d} exponents")
    return FamilySpec(d, rule)


def _plain(value):
    """A rule field as JSON: tuples become lists, and (degree, gens) seeds an object."""
    if not isinstance(value, tuple):
        return value
    if value and all(type(s) is tuple and len(s) == 2 and type(s[0]) is int
                     and type(s[1]) is tuple for s in value):
        return {str(deg): _plain(gens) for deg, gens in value}
    return [_plain(v) for v in value]


def family_to_json(spec: FamilySpec) -> dict:
    kind, key, _ = _RULES[type(spec.rule)]
    return {"d": spec.d, "rule": {"type": kind, **{key: _plain(v) for v in vars(spec.rule).values()}}}
