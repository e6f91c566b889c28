import gc
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tall_fit_quasi_polynomial
from epsmult import asymptotics, cohomology, families
from epsmult.asymptotics import (LengthTable, convergence_report, extract_epsilons, fit_epsilons,
                                 fit_quasi_polynomial, length_table)
from epsmult.cohomology import h0_length
from epsmult.errors import (InsufficientDataError, NoFitError, PreconditionError,
                            TheoremViolationError, ZeroIdealError)
from epsmult.families import (CounterRule, FamilySpec, LimitRecursiveRule, NoetherianSeedsRule,
                              SqrtPrincipalRule, TableRule, eval_family, power_family,
                              product_grid_family)
from epsmult.ideal_core import MonomialIdeal
from epsmult.polyhedra import out_region
from epsmult.repro import fit_epsilon, random_ideal

I = MonomialIdeal.from_gens(2, [(1, 2), (2, 0)])


def table_from(fn, upto, arity=1):
    return LengthTable(arity, {(n,): fn(n) for n in range(1, upto + 1)}, ())


class TestLengthTable:
    def test_power_lengths(self):
        t = length_table(power_family(I), range(1, 4))
        assert [t.value(n) for n in (1, 2, 3)] == [2, 6, 12]
        assert t.methods == ("box-enumeration",)

    def test_counter_list(self):
        t = length_table(FamilySpec(2, CounterRule((5, 7, 11))), [1, 2, 3])
        assert [t.value(n) for n in (1, 2, 3)] == [5, 7, 11]

    def test_product_grid_entry(self):
        t = length_table(product_grid_family([I, I]), [(1, 1)])
        assert t.value((1, 1)) == 6

    def test_unit_index_is_zero(self):
        t = length_table(power_family(I), [0, 1])
        assert t.value(0) == 0

    def test_powers_share_one_memo(self, monkeypatch):
        # one rung, one sum_of_products call, per power
        calls = []
        rung = families.sum_of_products
        monkeypatch.setattr(families, "sum_of_products",
                            lambda *args: calls.append(1) or rung(*args))
        length_table(power_family(I), range(1, 9))
        assert len(calls) == 8

    def test_failure_named_in_the_order_given(self):
        # the walk meets the indices sorted; the error still names the first
        # index that fails in the order given, duplicates and all
        odd_zero = FamilySpec(1, NoetherianSeedsRule(((2, ((1,),)),)))  # I_n = 0 for odd n
        grid = product_grid_family([I, MonomialIdeal.zero(2)])
        short = FamilySpec(1, TableRule((((0,),), ((1,),), ((2,),))))
        for spec, idxs, error, message in [
            (odd_zero, [4, 3, 2, 3, 1], ZeroIdealError, "I_3 is the zero ideal"),
            (odd_zero, [3, 1.5], ZeroIdealError, "I_3 is the zero ideal"),
            (grid, [(1, 0), (2, 1), (0, 1), (2, 1)], ZeroIdealError, "I_(2, 1) is the zero ideal"),
            (short, [1, 4, 1, 3], PreconditionError, "table family has no I_4"),
        ]:
            with pytest.raises(error) as info:
                length_table(spec, idxs)
            assert str(info.value) == message

    def test_empty_range_rejected(self):
        with pytest.raises(PreconditionError):
            length_table(power_family(I), [])

    @pytest.mark.parametrize("bad", [1.5, 2.9, True, (1.0,)])
    def test_indices_must_be_ints(self, bad):
        # int(...) read [1.5, 2] as {(1,): 2, (2,): 6} and value(2.9) as the n = 2 entry
        t = length_table(power_family(I), [1, 2])
        q = asymptotics.QuasiPolynomial(1, 1, 2, {((0,), (2,)): Fraction(1)})
        expected = f"family indices must be integers, got {bad[0] if isinstance(bad, tuple) else bad!r}"
        for call in (lambda: length_table(power_family(I), [bad, 2]), lambda: t.value(bad),
                     lambda: q.evaluate(bad)):
            with pytest.raises(PreconditionError) as info:
                call()
            assert str(info.value) == expected
        assert t.value(2) == t.value((2,)) == 6 and q.evaluate(3) == 9


def _tables(rng):
    """(spec, indices) pairs: product grids with r = 1..3 over boxes from 0
    and from 1 and over scattered points, Noetherian ladders with seed degrees
    up to 7, and the power, counter, table and limit rules; the indices are
    shuffled, with repeats."""
    cases = []
    for r in (1, 2, 3):
        spec = product_grid_family([random_ideal(rng, 2, 3, 3) for _ in range(r)])
        side = {1: 9, 2: 5, 3: 4}[r]
        for lo in (0, 1):
            cases.append((spec, list(itertools.product(range(lo, lo + side), repeat=r))))
        cases.append((spec, [tuple(rng.randrange(6) for _ in range(r)) for _ in range(12)]))
    for _ in range(6):
        degrees = rng.sample(range(1, 8), rng.randint(1, 3))
        seeds = tuple(sorted((deg, random_ideal(rng, 2, 3, 2).gens) for deg in degrees))
        cases.append((FamilySpec(2, NoetherianSeedsRule(seeds)), rng.sample(range(16), 10)))
    cases.append((power_family(random_ideal(rng, 3, 2, 3)), list(range(7))))
    cases.append((FamilySpec(2, CounterRule("n^2")), list(range(1, 9))))
    table = (((0, 0),), *(random_ideal(rng, 2, 4, 3).gens for _ in range(5)))
    cases.append((FamilySpec(2, TableRule(table)), list(range(6))))
    cases.append((FamilySpec(2, LimitRecursiveRule()), [0, *rng.sample(range(1, 40), 10)]))
    for spec, idxs in cases:
        idxs += rng.choices(idxs, k=len(idxs) // 3)
        rng.shuffle(idxs)
        yield spec, idxs


def test_table_matches_each_ideal(rng):
    # every entry equals the length of its ideal built on its own; a family
    # with a zero ideal raises for the first zero index in the order given
    for spec, idxs in _tables(rng):
        ideals = [eval_family(spec, i) for i in idxs]
        zero = next((i for i, ideal in zip(idxs, ideals) if ideal.is_zero), None)
        if zero is not None:
            with pytest.raises(ZeroIdealError) as info:
                length_table(spec, idxs)
            assert str(info.value) == f"I_{zero} is the zero ideal"
            continue
        table = length_table(spec, idxs)
        assert table.entries == {i if isinstance(i, tuple) else (i,): h0_length(ideal).length
                                 for i, ideal in zip(idxs, ideals)}
        limit = isinstance(spec.rule, LimitRecursiveRule)
        assert table.methods == (("closed-form",) if limit else ("box-enumeration",))


def test_limit_table_builds_no_rung(monkeypatch, rng):
    # the limit family's lengths come from its O(sqrt n) sum: no rung is
    # built and no staircase summed, and each entry still equals the length
    # of its ideal built on its own
    spec = FamilySpec(2, LimitRecursiveRule())
    idxs = [0, 1, 2, 3, *rng.sample(range(4, 300), 20), 997]
    idxs += rng.choices(idxs, k=8)
    rng.shuffle(idxs)
    expected = {(n,): h0_length(eval_family(spec, n)).length for n in idxs}
    monkeypatch.setattr(LimitRecursiveRule, "rung", lambda self, n: pytest.fail("a rung was built"))
    monkeypatch.setattr(cohomology, "h0_length", lambda *args, **kw: pytest.fail("a staircase was summed"))
    monkeypatch.setattr(asymptotics, "h0_length", lambda *args, **kw: pytest.fail("a staircase was summed"))
    table = length_table(spec, idxs)
    assert table.entries == expected and table.methods == ("closed-form",)


@pytest.mark.parametrize("bad, message", [
    ([3, -1, "x"], "family indices must be non-negative"),
    ([3, 2.0, -1], "family indices must be integers, got 2.0"),
    ([(2, 3), 4], "this family is singly indexed"),
])
def test_limit_table_names_the_first_bad_index(bad, message):
    with pytest.raises(PreconditionError) as info:
        length_table(FamilySpec(2, LimitRecursiveRule()), bad)
    assert str(info.value) == message


def _live_ideals() -> int:
    return sum(type(o) is MonomialIdeal for o in gc.get_objects())


@pytest.mark.parametrize("spec, idxs, held", [
    # a 6^3 grid from 1 holds its 3 factors, R and at most 3 entries
    (product_grid_family([MonomialIdeal.from_gens(2, g) for g in
                          ([(1, 2), (2, 0)], [(0, 3), (2, 1)], [(0, 2), (3, 1)])]),
     list(itertools.product(range(1, 7), repeat=3)), 3 + 3 + 1),
    # a ladder with seeds in degrees 1, 3 and 7 holds them and 7 rungs
    (FamilySpec(2, NoetherianSeedsRule(((1, ((1, 2),)), (3, ((3, 0),)), (7, ((0, 5),))))),
     range(1, 31), 3 + 7),
])
def test_table_lets_go_of_ideals(monkeypatch, spec, idxs, held):
    gc.collect()
    before, peak = _live_ideals(), []
    monkeypatch.setattr(asymptotics, "h0_length",
                        lambda ideal: peak.append(_live_ideals() - before) or h0_length(ideal))
    length_table(spec, idxs)
    assert len(peak) == len(idxs) and max(peak) <= held


class TestFit:
    def test_polynomial_with_trivial_period(self):
        t = table_from(lambda n: n * (n + 1), 12)
        q = fit_quasi_polynomial(t, degree=2, period_max=4)
        assert q.period == 1
        assert q.coeffs[((0,), (2,))] == 1
        assert q.coeffs[((0,), (1,))] == 1
        assert q.coeffs[((0,), (0,))] == 0

    def test_ceiling_has_period_two(self):
        t = table_from(lambda n: -((-3 * n) // 2), 12)
        q = fit_quasi_polynomial(t, degree=1, period_max=4)
        assert q.period == 2
        assert q.coeffs[((0,), (1,))] == Fraction(3, 2)
        assert q.coeffs[((0,), (0,))] == 0
        assert q.coeffs[((1,), (0,))] == Fraction(1, 2)

    def test_exponential_has_no_fit(self):
        t = table_from(lambda n: 2 ** n, 12)
        with pytest.raises(NoFitError) as info:
            fit_quasi_polynomial(t, degree=3, period_max=6)
        assert info.value.best_period is not None

    def test_fit_reproduces_every_entry(self):
        t = table_from(lambda n: 3 * n * n + (1 if n % 2 else 4), 16)
        q = fit_quasi_polynomial(t, degree=2, period_max=4, holdout=3)
        for idx, val in t.entries.items():
            assert q.evaluate(idx) == val

    def test_holdout_is_verified(self):
        entries = {(n,): n * n for n in range(1, 13)}
        entries[(12,)] = 145  # corrupt the holdout point
        t = LengthTable(1, entries, ())
        with pytest.raises(NoFitError) as info:
            fit_quasi_polynomial(t, degree=2, period_max=2, holdout=2)
        # both periods miss only the holdout 12; the earlier one is named
        assert (info.value.best_period, info.value.first_fail) == (1, (12,))

    def test_insufficient_data(self):
        t = table_from(lambda n: n, 3)
        with pytest.raises(InsufficientDataError):
            fit_quasi_polynomial(t, degree=3, period_max=2)

    def test_start_restricts_window(self):
        # quadratic only from n = 4 onwards; the early garbage must be ignored
        def fn(n):
            return n * n if n >= 4 else 999
        t = table_from(fn, 14)
        q = fit_quasi_polynomial(t, degree=2, period_max=2, start=4)
        assert q.evaluate((10,)) == 100

    def test_stability_under_start_shift(self):
        t = length_table(power_family(I), range(1, 13))
        q3 = fit_quasi_polynomial(t, degree=2, period_max=4, holdout=2, start=3)
        q4 = fit_quasi_polynomial(t, degree=2, period_max=4, holdout=2, start=4)
        top3 = {e: v for (res, e), v in q3.coeffs.items() if sum(e) == 2}
        top4 = {e: v for (res, e), v in q4.coeffs.items() if sum(e) == 2}
        assert top3 == top4

    @pytest.mark.parametrize("convert", [Fraction, float, bool])
    def test_non_integer_entries_rejected(self, convert):
        entries = {(n,): n * n for n in range(1, 13)}
        entries[(1,)] = convert(1)  # equal to the true length 1, but not an int
        with pytest.raises(PreconditionError):
            fit_quasi_polynomial(LengthTable(1, entries, ()), degree=2)

    def test_tall_arity_three_matches_fraction_solve(self):
        def fn(a, b, c):
            return a * b + 2 * c * c + (a % 2) * b + 3 * ((b + c) % 2) - (c % 2) * a
        entries = {(a, b, c): fn(a, b, c)
                   for a in range(1, 7) for b in range(1, 7) for c in range(1, 7)}
        t = LengthTable(3, entries, ())
        q = fit_quasi_polynomial(t, degree=2, period_max=2, holdout=3)
        assert q.period == 2
        basis = [e for e in sorted(itertools.product(range(3), repeat=3), key=lambda e: (sum(e), e))
                 if sum(e) <= 2]
        fit_idx = sorted(entries)[:-3]
        for res in itertools.product(range(2), repeat=3):
            pts = [i for i in fit_idx if tuple(n % 2 for n in i) == res]
            rows = [[math.prod(n ** p for n, p in zip(i, e)) for e in basis] for i in pts]
            expected = fraction_solve(rows, [entries[i] for i in pts])
            assert [q.coeffs[(res, e)] for e in basis] == expected
        assert all(q.evaluate(i) == v for i, v in entries.items())

    def test_one_inconsistent_class(self):
        def fn(n):
            return n * n + (3 * n if n % 2 else 1)
        clean = table_from(fn, 20)
        assert fit_quasi_polynomial(clean, degree=2, period_max=3, start=3).period == 2
        # the odd class stops being quadratic; periods 1 and 2 each fail once
        t = table_from(lambda n: fn(n) + (n == 11), 20)
        with pytest.raises(NoFitError) as info:
            fit_quasi_polynomial(t, degree=2, period_max=3, start=3)
        assert (info.value.best_period, info.value.first_fail) == (1, (3,))

    @pytest.mark.parametrize("fn", [lambda n: 3 * n, lambda n: n * n])
    def test_every_period_rank_deficient(self, fn):
        # on the diagonal n1 = n2 the columns n1 and n2 of a degree-1 fit
        # coincide, whether or not the lengths lie in the span of the rest
        t = LengthTable(2, {(n, n): fn(n) for n in range(1, 21)}, ())
        with pytest.raises(InsufficientDataError):
            fit_quasi_polynomial(t, degree=1, period_max=4)


    @pytest.mark.parametrize("kwargs", [{"degree": -1}, {"period_max": 0}, {"holdout": -3}])
    def test_bad_arguments_rejected(self, kwargs):
        t = table_from(lambda n: n * n, 12)
        with pytest.raises(PreconditionError):
            fit_quasi_polynomial(t, **{"degree": 2, **kwargs})

    @pytest.mark.parametrize("name, value", [("degree", 2.0), ("degree", True),
                                             ("period_max", "4"), ("holdout", 1.5),
                                             ("start", 2.5), ("start", True)])
    def test_non_integer_arguments_rejected(self, name, value):
        t = table_from(lambda n: n * n, 12)
        with pytest.raises(PreconditionError) as info:
            fit_quasi_polynomial(t, **{"degree": 2, name: value})
        assert str(info.value) == f"fit {name} must be an integer, got {value!r}"


class TestFitEpsilons:
    """The one table -> fit -> degree-d pipeline, and the checks it makes first."""

    I = MonomialIdeal.from_gens(2, [(1, 2), (2, 0)])

    def test_matches_the_steps_it_runs(self):
        spec = product_grid_family([self.I, MonomialIdeal.from_gens(2, [(1, 1), (0, 3)])])
        grid = list(itertools.product(range(1, 9), repeat=2))
        quasi, report = fit_epsilons(spec, grid, period_max=4, holdout=4)
        by_hand = fit_quasi_polynomial(length_table(spec, grid), 2, period_max=4, holdout=4, start=3)
        assert quasi == by_hand and report == extract_epsilons(by_hand, 2)

    @pytest.mark.parametrize("kwargs, message", [
        ({"degree": 1}, "fit degree must be at least 2, got 1"),
        ({"degree": 2.0}, "fit degree must be an integer, got 2.0"),
        ({"period_max": 0}, "fit period_max must be at least 1, got 0"),
        ({"holdout": -1}, "fit holdout must be at least 0, got -1"),
        ({"start": 2.5}, "fit start must be an integer, got 2.5"),
        ({"start": True}, "fit start must be an integer, got True"),
        # period 1 needs 3 points and 2 more: powers 3..6 are 4
        ({"holdout": 2}, "4 indices in the window; a degree-2 fit with 2 held out needs 5"),
        ({"start": 7}, "0 indices in the window; a degree-2 fit with 0 held out needs 4"),
    ])
    def test_arguments_and_window_checked_before_the_table(self, monkeypatch, kwargs, message):
        monkeypatch.setattr(asymptotics, "length_table", lambda *args: pytest.fail("length table built"))
        with pytest.raises(PreconditionError) as info:
            fit_epsilons(power_family(self.I), range(1, 7), **kwargs)
        assert str(info.value) == message

    def test_window_just_large_enough(self):
        quasi, report = fit_epsilons(power_family(self.I), range(1, 7), holdout=1)
        assert (quasi.period, report.epsilon) == (1, 2)

    @pytest.mark.parametrize("n_max", [12.5, "12", True])
    def test_fit_epsilon_checks_n_max(self, n_max):
        with pytest.raises(PreconditionError) as info:
            fit_epsilon(self.I, n_max=n_max)
        assert type(info.value) is PreconditionError
        assert str(info.value) == f"fit n_max must be an integer, got {n_max!r}"

    @pytest.mark.parametrize("start", [2.5, True])
    def test_fit_epsilon_checks_start(self, start):
        with pytest.raises(PreconditionError, match="fit start must be an integer"):
            fit_epsilon(self.I, start=start)


def random_fit_case(rng):
    """(table, fit arguments) of a seeded random quasi-polynomial table.

    The values are sum c_{res,e} prod_i C(n_i, e_i) with integer c per
    residue class mod the period, so the lengths are integers and the
    monomial coefficients fractions.  Some entries are perturbed (classes
    turn inconsistent), and some windows lie on a line, are thinned or have
    few values of the first coordinate (classes turn rank-deficient).
    """
    arity, degree, period = rng.randint(1, 3), rng.randint(0, 3), rng.randint(1, 4)
    while arity == 3 and period * (degree + 1) > 8:
        period = rng.randint(1, 4)
    k = math.comb(arity + degree, degree)
    side = {1: period * (k + 3) + rng.randint(0, 6),
            2: period * (degree + 2) + rng.randint(0, 3),
            3: period * (degree + 1) + rng.randint(0, 1)}[arity]
    basis = [e for e in itertools.product(range(degree + 1), repeat=arity) if sum(e) <= degree]
    coeffs = {(res, e): rng.randint(-3, 3)
              for res in itertools.product(range(period), repeat=arity) for e in basis}
    window = list(itertools.product(range(1, side + 1), repeat=arity))
    shape = rng.choice(["full"] * 5 + ["line", "thin", "slab"]) if arity > 1 else "full"
    if shape == "line":
        window = [i for i in window if i[0] == i[-1]]
    elif shape == "thin":
        window = [i for i in window if rng.random() < 0.5]
    elif shape == "slab":
        window = [i for i in window if i[0] <= max(degree, 1)]
    entries = {}
    for i in window:
        res = tuple(n % period for n in i)
        entries[i] = sum(c * math.prod(map(math.comb, i, e))
                         for e in basis if (c := coeffs[(res, e)]))
    if rng.random() < 0.3:
        for i in rng.sample(window, min(len(window), rng.randint(1, 3))):
            entries[i] += rng.choice([-2, -1, 1, 2])
    kwargs = {"degree": max(0, degree + rng.choice([-1, 0, 0, 0, 1])),
              "period_max": rng.randint(1, 5), "holdout": rng.randint(0, 4),
              "start": rng.choice([None, 1, 2, 3])}
    return LengthTable(arity, entries, ()), kwargs


def fit_outcome(fit, table, kwargs):
    """(period, coefficients) of a fit, or what the fit raised."""
    try:
        q = fit(table, **kwargs)
    except NoFitError as exc:
        return ("no fit", exc.best_period, exc.first_fail)
    except InsufficientDataError as exc:
        return ("insufficient", str(exc))
    return ("fit", q.period, q.coeffs)


def period_table(rng, arity, period, degree, window):
    """Lengths over *window* of sum c_{res,e} prod_i C(n_i, e_i), with integer
    c per residue class mod *period*.  The constant term of a class is its
    place in the list of residues, so no two classes share a polynomial."""
    basis = [e for e in itertools.product(range(degree + 1), repeat=arity) if sum(e) <= degree]
    residues = list(itertools.product(range(period), repeat=arity))
    coeffs = {(res, e): (place if not any(e) else rng.randint(-3, 3))
              for place, res in enumerate(residues) for e in basis}
    entries = {}
    for i in window:
        res = tuple(n % period for n in i)
        entries[i] = sum(coeffs[(res, e)] * math.prod(map(math.comb, i, e)) for e in basis)
    return LengthTable(arity, entries, ())


def long_period_case(rng):
    """(table, fit arguments) of a seeded period-1..12 table in one index,
    fitted with periods up to 14; some entries are perturbed."""
    period, degree = rng.randint(1, 12), rng.randint(0, 2)
    side = period * (degree + 3) + rng.randint(0, 6)
    table = period_table(rng, 1, period, degree, [(n,) for n in range(1, side + 1)])
    if rng.random() < 0.4:
        for i in rng.sample(sorted(table.entries), rng.randint(1, 3)):
            table.entries[i] += rng.choice([-2, -1, 1, 2])
    kwargs = {"degree": max(0, degree + rng.choice([-1, 0, 0, 1])), "period_max": rng.randint(1, 14),
              "holdout": rng.randint(0, 4), "start": rng.choice([None, 1, 5])}
    return table, kwargs


class TestNormalEquations:
    """The fit solves each residue class through its k x (k+1) normal
    equations; the tall elimination of every interpolation row, in
    conftest, is its oracle."""

    CASES = 300

    def test_matches_tall_elimination(self):
        rng = random.Random(20261019)
        kinds = set()
        for _ in range(self.CASES):
            table, kwargs = random_fit_case(rng)
            got = fit_outcome(fit_quasi_polynomial, table, kwargs)
            assert got == fit_outcome(tall_fit_quasi_polynomial, table, kwargs), (table, kwargs)
            kinds.add((got[0], table.arity))
        # every outcome is reached, and every arity fits exactly
        assert {kind for kind, _ in kinds} == {"fit", "no fit", "insufficient"}
        assert {("fit", arity) for arity in (1, 2, 3)} <= kinds

    def test_every_elimination_is_k_by_k_plus_one(self, monkeypatch):
        shapes = []
        bareiss = asymptotics.bareiss

        def recording(rows):
            shapes.append((len(rows), {len(row) for row in rows}))
            return bareiss(rows)
        monkeypatch.setattr(asymptotics, "bareiss", recording)
        rng = random.Random(20261019)
        calls = 0
        for _ in range(self.CASES // 2):
            table, kwargs = random_fit_case(rng)
            k = math.comb(table.arity + kwargs["degree"], kwargs["degree"])
            shapes.clear()
            fit_outcome(fit_quasi_polynomial, table, kwargs)
            assert all(shape == (k, {k + 1}) for shape in shapes), (k, shapes)
            calls += len(shapes)
        assert calls > 0

    def test_matches_tall_elimination_on_long_periods(self):
        rng = random.Random(20261021)
        kinds = set()
        for _ in range(self.CASES):
            table, kwargs = long_period_case(rng)
            got = fit_outcome(fit_quasi_polynomial, table, kwargs)
            assert got == fit_outcome(tall_fit_quasi_polynomial, table, kwargs), (table, kwargs)
            window = [i for i in table.indices() if i[0] >= (kwargs["start"] or 0)]
            if got[:2] == ("fit", 12):
                kinds.add("periods 2..11 stopped with classes left")
            if got[0] == "no fit" and got[2] in window[:len(window) - kwargs["holdout"]]:
                # the named period failed at a class, so the search judged no
                # more of it; by the subset argument it is period 1
                assert got[1] == 1, (table, kwargs)
                if kwargs["holdout"] and kwargs["period_max"] > 1:
                    kinds.add("named a period stopped before its holdouts")
        assert kinds == {"periods 2..11 stopped with classes left",
                         "named a period stopped before its holdouts"}

    @pytest.mark.parametrize("period_max, outcome", [(2, "no fit"), (3, "fit")])
    def test_rank_deficient_class_after_a_failing_one(self, period_max, outcome):
        # a period-3 table of degree 1 whose points with both coordinates odd
        # lie on the diagonal: mod 2 the class (0, 0) is inconsistent and the
        # class (1, 1) rank-deficient, so period 2 is never decided
        window = [i for i in itertools.product(range(1, 10), repeat=2)
                  if i[0] % 2 == 0 or i[1] % 2 == 0 or i[0] == i[1]]
        table = period_table(random.Random(3), 2, 3, 1, window)

        def fit_class(res):
            sub = {i: v for i, v in table.entries.items() if (i[0] % 2, i[1] % 2) == res}
            return fit_outcome(fit_quasi_polynomial, LengthTable(2, sub, ()),
                               {"degree": 1, "period_max": 1})
        assert fit_class((0, 0))[0] == "no fit" and fit_class((1, 1))[0] == "insufficient"
        kwargs = {"degree": 1, "period_max": period_max, "holdout": 2}
        got = fit_outcome(fit_quasi_polynomial, table, kwargs)
        assert got == fit_outcome(tall_fit_quasi_polynomial, table, kwargs)
        assert got[:2] == (outcome, 3 if outcome == "fit" else 1)

    @pytest.mark.parametrize("arity, period", [(1, p) for p in range(2, 13)] + [(2, 2), (2, 3)])
    def test_a_failed_period_stops_at_its_first_failing_class(self, monkeypatch, arity, period):
        calls = []
        bareiss = asymptotics.bareiss
        monkeypatch.setattr(asymptotics, "bareiss", lambda rows: calls.append(rows) or bareiss(rows))
        rng = random.Random(100 * arity + period)
        degree = rng.randint(0, 2)
        # every class of every period up to period + 2 has points enough for
        # full rank, so judging each period to its end takes sum a^arity
        # eliminations
        side = (period + 2) * (degree + 3)
        window = list(itertools.product(range(1, side + 1), repeat=arity))
        table = period_table(rng, arity, period, degree, window)

        def eliminations(period_max):
            calls.clear()
            got = fit_outcome(fit_quasi_polynomial, table, {"degree": degree, "period_max": period_max,
                                                            "holdout": 2})
            return got, len(calls)

        got, count = eliminations(period + 2)
        assert got[:2] == ("fit", period) and count <= period - 1 + period ** arity
        got, count = eliminations(period - 1)
        assert got[0] == "no fit" and count <= sum(a ** arity for a in range(1, period))
        table.entries[window[rng.randrange(len(window) - 2)]] += 1
        got, count = eliminations(period + 2)
        assert got[0] == "no fit" and count <= sum(a ** arity for a in range(1, period + 3))


def fraction_solve(rows, rhs):
    """Solution of a consistent full-column-rank system by Fraction elimination."""
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    k = len(rows[0])
    for col in range(k):
        p = next(i for i in range(col, len(m)) if m[i][col] != 0)
        m[col], m[p] = m[p], m[col]
        m[col] = [a / m[col][col] for a in m[col]]
        for i in range(len(m)):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    assert all(row[k] == 0 for row in m[k:])
    return [m[j][k] for j in range(k)]


@settings(max_examples=40, deadline=None)
@given(
    period=st.integers(1, 3),
    lead=st.fractions(min_value=Fraction(1, 3), max_value=Fraction(4), max_denominator=6),
    linear=st.lists(st.fractions(min_value=Fraction(0), max_value=Fraction(3),
                                 max_denominator=4), min_size=3, max_size=3),
    consts=st.lists(st.integers(0, 5), min_size=3, max_size=3),
)
def test_fit_recovers_known_quasi_polynomial(period, lead, linear, consts):
    # tabulate sigma_2 n^2 + sigma_1(n) n + sigma_0(n) and demand exact recovery
    def value(n):
        r = n % period
        return lead * n * n + linear[r] * n + consts[r]
    entries = {}
    for n in range(1, 25):
        v = value(n)
        if v.denominator != 1:
            return  # lengths are integers; skip non-integral instances
        entries[(n,)] = int(v)
    table = LengthTable(1, entries, ())
    q = fit_quasi_polynomial(table, degree=2, period_max=4, holdout=3)
    for idx, val in entries.items():
        assert q.evaluate(idx) == val
    # ascending search: never a larger period than the construction, and a
    # period-1 claim forces the residue parts to genuinely coincide
    assert q.period <= period
    if q.period == 1:
        assert all(linear[r] == linear[0] and consts[r] == consts[0]
                   for r in range(period))


class TestExtract:
    def test_univariate(self):
        t = table_from(lambda n: n * (n + 1), 12)
        q = fit_quasi_polynomial(t, degree=2, period_max=4)
        report = extract_epsilons(q, 2)
        assert report.epsilon == 2
        assert report.raw_limit == 1
        assert report.mixed[(2,)] == 2

    def test_bivariate_square_form(self):
        entries = {(i, j): (i + j) ** 2 for i in range(1, 7) for j in range(1, 7)}
        t = LengthTable(2, entries, ())
        q = fit_quasi_polynomial(t, degree=2, period_max=2)
        report = extract_epsilons(q, 2)
        assert report.mixed == {(2, 0): Fraction(2), (1, 1): Fraction(2), (0, 2): Fraction(2)}

    def test_zero_polynomial(self):
        t = table_from(lambda n: 0, 12)
        q = fit_quasi_polynomial(t, degree=2, period_max=2)
        report = extract_epsilons(q, 2)
        assert report.epsilon == 0 and report.raw_limit == 0

    def test_residue_dependent_top_is_flagged(self):
        t = table_from(lambda n: n * n if n % 2 else 2 * n * n, 16)
        q = fit_quasi_polynomial(t, degree=2, period_max=4)
        assert q.period == 2
        with pytest.raises(TheoremViolationError):
            extract_epsilons(q, 2)

    def test_degree_bound_checked(self):
        t = table_from(lambda n: n, 12)
        q = fit_quasi_polynomial(t, degree=1, period_max=2)
        with pytest.raises(PreconditionError):
            extract_epsilons(q, 2)


class TestCrossMethod:
    def test_fit_equals_volume_on_randoms(self, rng):
        for _ in range(6):
            ideal = random_ideal(rng, 2, 5, 5)
            eps_fit, _ = fit_epsilon(ideal)
            assert eps_fit == out_region(ideal).epsilon

    def test_product_grid_top_form_constant_and_symmetric(self, rng):
        # equal factors: the grid is symmetric, so the mixed values must be,
        # and the degree-d coefficients must come out residue-independent
        from epsmult.polyhedra import analytic_spread
        for _ in range(3):
            ideal = random_ideal(rng, 2, 4, 3)
            if analytic_spread(ideal) != 2:
                continue
            spec = product_grid_family([ideal, ideal])
            grid = [(i, j) for i in range(1, 9) for j in range(1, 9)]
            t = length_table(spec, grid)
            q = fit_quasi_polynomial(t, degree=2, period_max=4, holdout=4, start=3)
            report = extract_epsilons(q, 2)  # must not raise
            assert report.mixed[(2, 0)] == report.mixed[(0, 2)]
            assert report.mixed[(2, 0)] == out_region(ideal).epsilon


class TestConvergence:
    def test_counter_cubic_normalizer_decreases(self):
        spec = FamilySpec(2, CounterRule("n^2"))
        t = length_table(spec, range(1, 21))
        report = convergence_report(t, "n^3")
        assert report.trend == "decreasing"
        assert report.values[-1][1] == pytest.approx(1 / 20)

    def test_sqrt_family_converges_to_sqrt2(self):
        spec = FamilySpec(1, SqrtPrincipalRule(2))
        t = length_table(spec, range(1, 201))
        report = convergence_report(t, "n")
        import math
        for n, v in report.values:
            assert abs(v - math.sqrt(2)) <= 2 / n

    def test_log_normalizer_parses(self):
        t = table_from(lambda n: n * n, 10)
        report = convergence_report(t, "n^2*ln(n)")
        assert report.values[0][0] == 2  # n = 1 skipped, ln(1) = 0

    def test_parse_error(self):
        t = table_from(lambda n: n, 5)
        with pytest.raises(PreconditionError):
            convergence_report(t, "exp(n)")

    def test_increasing_trend(self):
        t = table_from(lambda n: n * n, 10)
        assert convergence_report(t, "n").trend == "increasing"

    @pytest.mark.parametrize("table, normalizer, message", [
        (LengthTable(2, {(1, 1): 2, (2, 2): 4}, ()), "n",
         "convergence reports are for singly indexed tables"),
        (table_from(lambda n: n, 1), "n^2*ln(n)", "no usable indices for this normalizer"),
    ])
    def test_unusable_tables_rejected(self, table, normalizer, message):
        with pytest.raises(PreconditionError) as info:
            convergence_report(table, normalizer)
        assert str(info.value) == message
