"""Lengths of degree-zero local cohomology for monomial quotients.

The length of H^0 against the graded maximal ideal equals the number of
lattice points in sat(I) \\ I.  Two independent routes are implemented:

* slabs: the finite region J \\ I between two monomial ideals J >= I is cut
  at the distinct last exponents of the generators, and the region between
  the (d-1)-variable cuts recurses, in Python ints, so the cost follows the
  number of generators, not the size of the exponents (``ideal_core._cuts``
  sweeps the cuts, as it does for minimalization).  A length builds no
  box: in two variables sat(I) is the staircase corner and the length the
  area between the two, read off the generators' columns; above two it is
  the sum of (z' - z) * |S_z \\ I_z| over the slices S_z of sat(I)
  (``ideal_core._sat_slices``), each counted by ``_between``.  The torsion
  of a quotient J / J' is |sat(J') \\ J'| - |(sat(J') + J) \\ J|, two
  ``_between`` counts with no intersection built.  Only witnesses and the
  largest socle degree tile the region with boxes (``_slabs``).
* Takayama's formula: the number of exponents p whose complex Delta_p =
  {F : x^p not in I R_(x_F)}, read off the generators (``delta_complex``),
  is {empty face}; it shares no code with the slab route, which it checks.

The slab route, counting or tiling, reports ``box-enumeration`` for every d.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from . import ideal_core
from ._exactla import rank
from .errors import PreconditionError, ZeroIdealError
from .ideal_core import Monomial, MonomialIdeal, _sat_slices

METHOD_BOX = "box-enumeration"
METHOD_TAKAYAMA = "takayama"


@dataclass(frozen=True)
class SimplicialComplex:
    """Faces over the ground set {1..d}; no faces at all means the void complex,
    a lone empty face the irrelevant complex."""

    ground: int
    faces: frozenset[frozenset[int]]

    def __post_init__(self):
        for f in self.faces:
            if not f <= frozenset(range(1, self.ground + 1)):
                raise PreconditionError(f"face {sorted(f)} outside ground set 1..{self.ground}")
            for v in f:
                if f - {v} not in self.faces:
                    raise PreconditionError("face set is not downward closed")

    @property
    def is_void(self) -> bool:
        return not self.faces

    @classmethod
    def void(cls, ground: int) -> "SimplicialComplex":
        return cls(ground, frozenset())

    @classmethod
    def irrelevant(cls, ground: int) -> "SimplicialComplex":
        return cls(ground, frozenset([frozenset()]))


@dataclass(frozen=True)
class H0Count:
    length: int
    method: str
    witnesses: Optional[tuple[Monomial, ...]] = None

    def __post_init__(self):
        if self.witnesses is not None and len(self.witnesses) != self.length:
            raise PreconditionError("witness count disagrees with length")


# ---------------------------------------------------------------------------
# Slab decomposition.

# (lo, hi, number of points): the half-open box lo <= p < hi componentwise
Box = tuple[Monomial, Monomial, int]


def _infinite() -> PreconditionError:
    return PreconditionError("the region between the two ideals is infinite")


def _slabs(outer: Sequence[Monomial], inner: Sequence[Monomial]) -> list[Box]:
    """Boxes tiling the monomials of (outer) that are not in (inner).

    Both arguments are minimal generator tuples in lex order with (inner)
    inside (outer).  The region is cut at the distinct last exponents
    z_0 < ... < z_k of the generators (``ideal_core._cuts``); on
    [z_i, z_(i+1)) it is the region between the (d-1)-variable cuts, which
    recurses.  Raises PreconditionError when the region is infinite, i.e.
    the top slab [z_k, oo) is not empty.
    """
    if len(outer[0]) == 1:
        if not inner:
            raise _infinite()
        lo, hi = outer[0], inner[0]
        return [(lo, hi, hi[0] - lo[0])] if lo < hi else []
    boxes = []
    for z, top, *cut in ideal_core._cuts(outer, inner):
        inside = _slabs(*cut)
        if top is None:
            if inside:
                raise _infinite()
        else:
            boxes.extend((lo + (z,), hi + (top,), n * (top - z)) for lo, hi, n in inside)
    return boxes


def _count(outer: MonomialIdeal, inner: MonomialIdeal) -> H0Count:
    """Length and the lex-sorted points of the region between the two
    ideals, read off its slabs."""
    boxes = _slabs(outer.gens, inner.gens)
    points = tuple(sorted(p for lo, hi, _ in boxes for p in itertools.product(*map(range, lo, hi))))
    return H0Count(sum(n for _, _, n in boxes), METHOD_BOX, points)


def _staircase_area(xs: Sequence[int], ys: Sequence[int]) -> int:
    """The number of points of sat(I) \\ I for a staircase in two variables,
    given the columns of its minimal generators (x ascending, y descending).

    sat(I) = (x^(x_0) y^(y_k)), so the region is the area between the corner
    and the staircase: the sum of (x_(i+1) - x_i) * (y_i - y_k), column strip
    by column strip.  The widths add up to x_k - x_0, which takes the y_k
    terms out of the sum.
    """
    return sum(map(operator.mul, map(operator.sub, xs[1:], xs), ys)) - (xs[-1] - xs[0]) * ys[-1]


def _between(outer: Sequence[Monomial], inner: Sequence[Monomial]) -> int:
    """The number of monomials of (outer) that are not in (inner), for
    minimal lex-sorted generator tuples with (inner) inside (outer) and a
    finite region between them.

    The sweep of ``_slabs``, counting in place of listing boxes.  In two
    variables the region is finite only if the two staircases share their
    corner, so it holds the difference of their areas (``_staircase_area``).
    """
    d = len(outer[0])
    if d == 2:
        return _staircase_area(*zip(*inner)) - _staircase_area(*zip(*outer))
    if d == 1:
        return inner[0][0] - outer[0][0]
    return sum((up - z) * _between(o, i) for z, up, o, i in ideal_core._cuts(outer, inner)
               if up is not None and o != i)


def h0_length(ideal: MonomialIdeal, method: str = METHOD_BOX, witnesses: bool = False) -> H0Count:
    """Length of H^0 of R/I, i.e. the number of monomials in sat(I) \\ I.

    Without witnesses no box is built: one variable gives the exponent, two
    the staircase area, and more the sum of (z' - z) * |S_z \\ I_z| over the
    slices of ``ideal_core._sat_slices``, skipping those with S_z = I_z.
    """
    if ideal.is_zero:
        raise ZeroIdealError("H^0 length of R/0 is undefined here")
    if method == METHOD_TAKAYAMA:
        return h0_length_takayama(ideal, witnesses=witnesses)
    if method != METHOD_BOX:
        raise PreconditionError(f"unknown h0 method {method!r}")
    if witnesses:
        return _count(ideal.saturate(), ideal)
    if ideal.d == 1:
        return H0Count(ideal.gens[0][0], METHOD_BOX)
    if ideal.d == 2:
        return H0Count(_staircase_area(*zip(*ideal.gens)), METHOD_BOX)
    length = sum((up - z) * _between(piece, cut) for z, up, cut, piece, _ in _sat_slices(ideal.gens)
                 if up is not None and piece != cut)
    return H0Count(length, METHOD_BOX)


def h0_of_quotient(outer: MonomialIdeal, inner: MonomialIdeal, witnesses: bool = False) -> H0Count:
    """Length of the maximal-ideal torsion of J/J', for monomial J' inside J.

    That is the number of monomials of J & S that are not in J', S = sat(J').
    As J' lies in J, the points of S \\ J' outside J are S \\ J = (S + J) \\ J,
    so the count is |S \\ J'| - |(S + J) \\ J|, two ``_between`` sweeps and
    no intersection.  Witnesses are listed off the slabs of J & S.
    """
    if inner.is_zero:
        raise ZeroIdealError("quotient by the zero ideal is not supported")
    outer._same_ring(inner)
    if not inner.is_subset(outer):
        raise PreconditionError("inner ideal is not contained in the outer ideal")
    sat = inner.saturate()
    if witnesses:
        return _count(outer.intersect(sat), inner)
    length = _between(sat.gens, inner.gens) - _between(sat.add(outer).gens, outer.gens)
    return H0Count(length, METHOD_BOX)


def max_socle_degree(ideal: MonomialIdeal) -> int:
    """Largest total degree over sat(I) \\ I, 0 when the socle is empty."""
    if ideal.is_zero:
        raise ZeroIdealError("socle of R/0 is undefined here")
    boxes = _slabs(ideal.saturate().gens, ideal.gens)
    return max((sum(hi) - len(hi) for _, hi, _ in boxes), default=0)


# ---------------------------------------------------------------------------
# The simplicial route.


def delta_complex(ideal: MonomialIdeal, point: Sequence[int]) -> SimplicialComplex:
    """Takayama's Delta_p, p = point: the subsets F of {1..d} with x^p outside
    I R_(x_F), i.e. with no generator g such that g_i <= p_i for every i
    outside F; so F holds no set {i : g_i > p_i}.  No localization is built."""
    if ideal.is_zero:
        raise ZeroIdealError("complex of the zero ideal is undefined")
    d = ideal.d
    p = ideal_core._check_monomial(d, point)
    above = [{i + 1 for i in range(d) if g[i] > p[i]} for g in ideal.gens]
    subsets = (frozenset(f) for k in range(d + 1) for f in itertools.combinations(range(1, d + 1), k))
    return SimplicialComplex(d, frozenset(f for f in subsets if not any(a <= f for a in above)))


def _boundary_rank(faces_lower: list[tuple[int, ...]], faces_upper: list[tuple[int, ...]]) -> int:
    if not faces_lower or not faces_upper:
        return 0
    index = {f: i for i, f in enumerate(faces_lower)}
    rows = [[0] * len(faces_upper) for _ in faces_lower]
    for j, f in enumerate(faces_upper):
        for i, v in enumerate(f):
            sub = f[:i] + f[i + 1:]
            rows[index[sub]][j] = (-1) ** i
    return rank(rows)


def reduced_betti(complex_: SimplicialComplex, q: int) -> int:
    """Rank over Q of the q-th reduced simplicial homology group."""
    if complex_.is_void:
        return 0
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for f in complex_.faces:
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    for fs in by_dim.values():
        fs.sort()
    dim_q = len(by_dim.get(q, []))
    if dim_q == 0:
        return 0
    rank_down = _boundary_rank(by_dim.get(q - 1, []), by_dim.get(q, [])) if q >= 0 else 0
    rank_up = _boundary_rank(by_dim.get(q, []), by_dim.get(q + 1, []))
    return dim_q - rank_down - rank_up


def _lex_points(box: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The lattice points of [0, box) in lex order, built one at a time
    (``itertools.product`` would first turn every range into a tuple)."""
    if not box:
        return iter([()])
    return ((x,) + rest for x in range(box[0]) for rest in _lex_points(box[1:]))


def h0_length_takayama(ideal: MonomialIdeal, witnesses: bool = False) -> H0Count:
    """H^0 length by Takayama's formula: the number of p whose complex
    ``delta_complex(I, p)`` is {empty face} (reduced Betti number 1 in degree
    -1), the points of sat(I) \\ I.  A p with p_i >= max_i outside I has the
    face {i}, so the scan runs lazily over [0, max exponents)."""
    if ideal.is_zero:
        raise ZeroIdealError("H^0 length of R/0 is undefined here")
    points = (p for p in _lex_points(ideal.max_exponents())
              if reduced_betti(delta_complex(ideal, p), -1) == 1)
    if witnesses:
        found = tuple(points)
        return H0Count(len(found), METHOD_TAKAYAMA, found)
    return H0Count(sum(1 for _ in points), METHOD_TAKAYAMA)
