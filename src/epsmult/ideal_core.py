"""Exact monomial-ideal arithmetic in K[X1,...,Xd].

A ``MonomialIdeal`` holds its unique minimal generating antichain in
lexicographic order, so equality and hashing are structural.  The empty
generator set encodes the zero ideal, ``{(0,...,0)}`` the unit ideal.  Its
number of variables ``d`` is a plain int, checked to be positive by
``from_gens``, ``zero`` and ``unit``; the internal constructors, such as
``sum_of_products(d, pairs)``, pass it on as it is.

``sum_of_products`` builds a sum of products of ideals (a rung of a
Noetherian family, or the one product of ``multiply``) and minimalizes it
once: in two variables by ``_kernels.product`` (integer keys, one sort and
one scan), in three by ``_antichain`` over the distinct sums of
``_kernels.distinct_sums`` (integer keys in a set, one sort), and above
three by ``_antichain`` over all the sums as tuples.  ``_antichain`` does
every other minimalization too: one lex sort and one pass in two and three
variables, and above three a level sweep that ends in the three-variable pass.
Exponents are Python ints throughout, so there is no overflow ceiling.
``_cuts`` is the one sweep up the distinct last exponents, with a running
(d-1)-variable cut per generator set.  That minimalization, the slices of
sat(I) in d >= 3 (``_sat_slices``, for ``_saturation`` and the lengths of
``cohomology.h0_length``) and ``cohomology``'s region counts all walk it.

Variable indices in the public API are 1-based (x1..xd), matching the text
format accepted by the CLI.
"""

from __future__ import annotations

import bisect
import json
import re
import operator
from typing import Iterable, Iterator, Optional, Sequence

from . import _kernels
from .errors import DimensionMismatchError, ParseError, PreconditionError, ZeroIdealError

Monomial = tuple[int, ...]
_prefix = operator.itemgetter(slice(-1))  # g -> g[:-1]


def _checked_d(d) -> int:
    """d itself when it is a positive int (a bool is not)."""
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise PreconditionError(f"ambient dimension must be a positive integer, got {d!r}")
    return d


def _checked_int(value, name: str) -> int:
    """value itself when it is an int (a bool is not); *name* is the argument's."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise PreconditionError(f"{name} must be an integer, got {value!r}")
    return value


def _check_monomial(d: int, m: Sequence[int]) -> Monomial:
    t = tuple(m)
    for e in t:
        if type(e) is not int:  # a float, a str or a bool is not an exponent
            raise PreconditionError(f"expected an integer, got {e!r}")
    if len(t) != d:
        raise DimensionMismatchError(f"monomial {t} does not live in {d} variables")
    if any(e < 0 for e in t):
        raise PreconditionError(f"monomial {t} has a negative exponent")
    return t


def _antichain(gens: Sequence[Monomial]) -> tuple[Monomial, ...]:
    """Minimal elements of the exponent tuples *gens*, lex sorted.

    Lex order puts every divisor before its multiples, so one pass over the
    sorted rows keeps exactly the rows that no kept row divides.  In two
    variables that pass is a scan of the running least y.  In three it is
    the maxima sweep of Kung, Luccio and Preparata: it keeps the staircase
    of the (y, z) of the rows kept so far, y ascending and z strictly
    descending.  A row is kept iff the entry with the largest y' <= y has
    z' > z, and then it replaces the entries with y' >= y and z' >= z.
    Above three: the sweep of ``_cuts`` up the distinct last exponents z,
    each cut minimalized one variable down.  A prefix at z gives a minimal
    element iff it is in the cut at z but not in ``below``, the cut under it.
    """
    if not gens:
        return ()
    d = len(gens[0])
    if d == 1:
        return (min(gens),)
    if d == 2:
        kept, low = [], None
        for g in sorted(gens):
            if low is None or g[1] < low:
                kept.append(g)
                low = g[1]
        return tuple(kept)
    if d == 3:
        kept, ys, zs = [], [], []
        for g in sorted(gens):
            _, y, z = g
            i = bisect.bisect_right(ys, y)
            if i and zs[i - 1] <= z:
                continue
            kept.append(g)
            if i and ys[i - 1] == y:
                i -= 1
            j = i
            while j < len(zs) and zs[j] >= z:
                j += 1
            ys[i:j], zs[i:j] = [y], [z]
        return tuple(kept)
    new, below = [], ()
    for z, _, cut in _cuts(gens):
        new.append((z, set(cut).difference(below)))
        below = cut
    return tuple(sorted(p + (z,) for z, ps in new for p in ps))


def _cuts(*sides: Sequence[Monomial]) -> Iterator[tuple]:
    """(z, z', C_1, ..., C_k) for each distinct last exponent z of the k
    *sides*, ascending: z' is the next one (None past the last), and C_i the
    (d-1)-variable cut of (side i) at x_d = z, the minimal prefixes of its
    generators with last exponent <= z.  A zip of one ``_grown`` per side:
    a cut is built only when the sweep is read that far, and a one-sided
    sweep pays one generator step per level, with no loop over the sides.
    """
    levels = []
    for gens in sides:
        level: dict[int, list[Monomial]] = {}
        for g in gens:
            level.setdefault(g[-1], []).append(g[:-1])
        levels.append(level)
    zs = sorted(set().union(*levels))
    return zip(zs, [*zs[1:], None], *map(_grown, levels, [zs] * len(levels)))


def _grown(level: dict[int, list[Monomial]], zs: Sequence[int]) -> Iterator[tuple[Monomial, ...]]:
    """One side's cut at each z of *zs*: the cut below and the prefixes at z
    (``level[z]``, if any), minimalized one variable down."""
    cut = ()
    for z in zs:
        rows = level.get(z)
        if rows:
            cut = _antichain([*cut, *rows])
        yield cut


def _clip(top: Sequence[Monomial], a: int, b: int) -> tuple[Monomial, ...]:
    """Minimal generators of (x^a y^b) & (top), lex sorted, for a two-variable
    antichain *top* (x ascending, y descending) with a generator of x <= a
    and one of y <= b.

    Let i be the last generator with x <= a and j the first with y <= b.  The
    lcms with x^a y^b of the generators up to i are multiples of (a, y_i),
    those from j on multiples of (x_j, b), and the generators in between lie
    in (x^a y^b) already.  When y_i <= b the clip is (x^a y^b) itself.
    """
    i = bisect.bisect_right(top, a, key=operator.itemgetter(0)) - 1
    if top[i][1] <= b:
        return ((a, b),)
    j = bisect.bisect_left(top, -b, i + 1, key=lambda g: -g[1])
    return ((a, top[i][1]), *top[i + 1:j], (top[j][0], b))


def _sat_slices(gens: Sequence[Monomial]) -> Iterator[tuple[int, Optional[int], tuple, tuple, bool]]:
    """The slices of sat(I) along the last variable, for the lex-sorted
    minimal generators *gens* of a nonzero ideal I in d >= 3 variables:
    (z, z', I_z, S_z, full) for each level (z, z', I_z) of ``_cuts``.

    On [z, z'), sat(I) has the slice S_z = sat(I_z) & I_top, I_top the cut
    at z = oo: in three variables ``_clip`` of I_top at the corner of I_z,
    above three the lcms of ``_saturation(I_z)`` with I_top.  The slices
    grow with z; once one reaches I_top (``full``), none is built again.
    """
    d = len(gens[0])
    top = _antichain(list(map(_prefix, gens)))
    full = False
    for z, up, cut in _cuts(gens):
        if not full:
            if d == 3:
                piece = _clip(top, cut[0][0], cut[-1][1])
            else:
                piece = _antichain([tuple(map(max, s, t)) for s in _saturation(cut) for t in top])
            full = piece == top
        yield z, up, cut, piece, full


def _saturation(gens: Sequence[Monomial]) -> tuple[Monomial, ...]:
    """Minimal generators of sat(I), lex sorted, for the lex-sorted minimal
    generators *gens* of a nonzero ideal I.

    One variable: the unit ideal.  Two: the staircase corner (x of the first
    generator, y of the last).  Above two: the generators of each slice of
    ``_sat_slices`` that the slice below lacks, up to the first full one.
    """
    d = len(gens[0])
    if d == 1:
        return ((0,),)
    if d == 2:
        return ((gens[0][0], gens[-1][1]),)
    new, below = [], ()
    for z, _, _, piece, full in _sat_slices(gens):
        new.append((z, set(piece).difference(below)))
        if full:
            break
        below = piece
    return tuple(sorted(p + (z,) for z, ps in new for p in ps))


def sum_of_products(d: int, pairs: Iterable[tuple["MonomialIdeal", "MonomialIdeal"]]) -> "MonomialIdeal":
    """The ideal sum of a*b over *pairs*, minimalized once.

    Every factor must live in *d* variables, zero pairs included; zero pairs
    are then dropped.  In d = 2 one ``_kernels.product`` builds every product
    at once.  In d = 3 ``_kernels.distinct_sums`` packs every sum into an
    integer key and drops the repeats, and one ``_antichain`` sweeps the
    distinct sums, already lex sorted.  Above three one ``_antichain`` runs
    over all the sums as tuples.
    """
    live = []
    for a, b in pairs:
        if a.d != d or b.d != d:
            raise DimensionMismatchError(f"ideals live in {a.d if a.d != d else b.d} and {d} variables")
        if a.gens and b.gens:
            live.append((a.gens, b.gens))
    if not live:
        return MonomialIdeal.zero(d)
    if d == 2:
        return MonomialIdeal(d, _kernels.product(live), _trusted=True)
    if d == 3:
        return MonomialIdeal(d, _antichain(_kernels.distinct_sums(live)), _trusted=True)
    rows = [tuple(map(operator.add, g, h)) for a, b in live for g in a for h in b]
    return MonomialIdeal(d, _antichain(rows), _trusted=True)


class MonomialIdeal:
    """A monomial ideal, held as its minimal generating antichain.

    ``_gens`` holds it as lex-sorted tuples of Python ints, read through the
    read-only ``gens``.  ``_newton`` caches the Newton polyhedron
    (``polyhedra.newton_polyhedron``).
    """

    __slots__ = ("d", "_gens", "_newton")

    def __init__(self, d: int, gens: tuple[Monomial, ...], _trusted: bool = False):
        if not _trusted:
            raise PreconditionError("use MonomialIdeal.from_gens / zero / unit")
        self.d = d
        self._gens = gens
        self._newton = None

    @classmethod
    def from_gens(cls, d: int, gens: Iterable[Sequence[int]]) -> "MonomialIdeal":
        d = _checked_d(d)
        return cls(d, _antichain([_check_monomial(d, g) for g in gens]), _trusted=True)

    @classmethod
    def zero(cls, d: int) -> "MonomialIdeal":
        return cls(_checked_d(d), (), _trusted=True)

    @classmethod
    def unit(cls, d: int) -> "MonomialIdeal":
        return cls(_checked_d(d), ((0,) * d,), _trusted=True)

    # -- structure ---------------------------------------------------------

    @property
    def gens(self) -> tuple[Monomial, ...]:
        """The minimal generators as lex-sorted tuples of Python ints."""
        return self._gens

    @property
    def is_zero(self) -> bool:
        return not self._gens

    @property
    def is_unit(self) -> bool:
        return len(self._gens) == 1 and not any(self._gens[0])

    def max_exponents(self) -> Monomial:
        """Componentwise maximum of the minimal generators (zero ideal -> 0s)."""
        if self.is_zero:
            return (0,) * self.d
        return tuple(map(max, zip(*self._gens)))

    def _same_ring(self, other: "MonomialIdeal") -> None:
        if self.d != other.d:
            raise DimensionMismatchError(f"ideals live in {self.d} and {other.d} variables")

    # -- membership and containment ----------------------------------------

    def contains(self, m: Sequence[int]) -> bool:
        mono = _check_monomial(self.d, m)
        return any(all(g[i] <= mono[i] for i in range(self.d)) for g in self.gens)

    def is_subset(self, other: "MonomialIdeal") -> bool:
        return self.add(other) == other

    def __le__(self, other: "MonomialIdeal") -> bool:
        return self.is_subset(other)

    # -- arithmetic ----------------------------------------------------------

    def multiply(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._same_ring(other)
        return sum_of_products(self.d, [(self, other)])

    __mul__ = multiply

    def power(self, n: int) -> "MonomialIdeal":
        if _checked_int(n, "ideal power") < 0:
            raise PreconditionError("negative ideal power")
        result = MonomialIdeal.unit(self.d)
        for _ in range(n):
            result = result.multiply(self)
        return result

    __pow__ = power

    def add(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._same_ring(other)
        if self.is_zero or other.is_zero:
            return other if self.is_zero else self
        return MonomialIdeal(self.d, _antichain(self.gens + other.gens), _trusted=True)

    __add__ = add

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._same_ring(other)
        lcms = [tuple(map(max, g, h)) for g in self.gens for h in other.gens]
        return MonomialIdeal(self.d, _antichain(lcms), _trusted=True)

    def saturate(self) -> "MonomialIdeal":
        """I : m^infinity, the intersection of the I : xi^infinity.

        In one variable that is the unit ideal; in two it is principal, at
        the corner of the staircase.  Above two, ``_saturation`` builds it
        slice by slice along the last variable: the slice at x_d = z is
        sat(I_z) & I_top, for the (d-1)-variable cuts I_z of I at z and I_top
        at z = oo.
        """
        if self.is_zero:
            raise ZeroIdealError("saturation of the zero ideal is undefined")
        return MonomialIdeal(self.d, _saturation(self.gens), _trusted=True)

    def localize(self, variables: Iterable[int]) -> "MonomialIdeal":
        """Monomial image after inverting the given variables (1-based); for
        one variable xi that is the stable colon I : xi^infinity."""
        if self.is_zero:
            raise ZeroIdealError("localization of the zero ideal is undefined")
        fs = frozenset(variables)
        for i in fs:
            if isinstance(i, bool) or not isinstance(i, int):
                raise PreconditionError(f"variable indices must be integers, got {i!r}")
        if not fs:
            return self
        if not fs <= set(range(1, self.d + 1)):
            raise PreconditionError(f"variable subset {sorted(fs)} out of range 1..{self.d}")
        keep = [int(i not in fs) for i in range(1, self.d + 1)]
        dropped = [tuple(map(operator.mul, g, keep)) for g in self.gens]
        return MonomialIdeal(self.d, _antichain(dropped), _trusted=True)

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialIdeal)
            and self.d == other.d
            and self.gens == other.gens
        )

    def __hash__(self) -> int:
        return hash((self.d, self.gens))

    def __repr__(self) -> str:
        if self.is_zero:
            return f"MonomialIdeal(d={self.d}, zero)"
        return f"MonomialIdeal(d={self.d}, <{format_ideal(self)}>)"


# ---------------------------------------------------------------------------
# Text / JSON interchange.
#
# Accepted ideal syntax: either a JSON array of exponent arrays, e.g.
# [[1,2],[2,0]], or a comma-separated monomial string such as
# "x1*x2^2, x1^2".  For d <= 3 the aliases x, y, z stand for x1, x2, x3.
# "1" denotes the unit ideal and "0" the zero ideal.  Variable indices and
# exponents are written in the ASCII digits 0-9 only.

_FACTOR_RE = re.compile(r"^(x([0-9]+)|[xyz])(?:\^([0-9]+))?$")
_ALIAS = {"x": 1, "y": 2, "z": 3}


def _parse_term(term: str) -> dict[int, int]:
    exps: dict[int, int] = {}
    for factor in term.split("*"):
        factor = factor.strip()
        if factor == "1":
            continue
        m = _FACTOR_RE.match(factor)
        if not m:
            raise ParseError(f"cannot parse monomial factor {factor!r}")
        if m.group(2) is not None:
            idx = int(m.group(2))
            if idx < 1:
                raise ParseError(f"variable index in {factor!r} must be >= 1")
        else:
            idx = _ALIAS[m.group(1)]
        exps[idx] = exps.get(idx, 0) + (int(m.group(3)) if m.group(3) else 1)
    return exps


def json_int(value) -> int:
    """value itself when it is an integer; bools and floats are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"expected an integer, got {value!r}")
    return value


def parse_ideal(text: str, d: Optional[int] = None) -> MonomialIdeal:
    """Parse an ideal from its textual or JSON form."""
    if d is not None:
        try:
            _checked_d(d)
        except PreconditionError as exc:
            raise ParseError(str(exc)) from exc
    s = text.strip()
    if not s:
        raise ParseError("empty ideal specification")
    if s.startswith("["):
        try:
            rows = json.loads(s)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON ideal: {exc}") from exc
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ParseError("JSON ideal must be an array of exponent arrays")
        if not rows:
            if d is None:
                raise ParseError("zero ideal [] needs an explicit dimension")
            return MonomialIdeal.zero(d)
        rows = [[json_int(e) for e in r] for r in rows]
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ParseError("exponent arrays have inconsistent lengths")
        dim = widths.pop()
        if d is not None and d != dim:
            raise ParseError(f"ideal is {dim}-dimensional but --dim {d} was given")
        try:
            return MonomialIdeal.from_gens(dim, rows)
        except PreconditionError as exc:
            raise ParseError(str(exc)) from exc
    if s == "0":
        if d is None:
            raise ParseError("zero ideal needs an explicit dimension")
        return MonomialIdeal.zero(d)
    terms = [t for t in (p.strip() for p in s.split(",")) if t]
    if not terms:
        raise ParseError(f"cannot parse ideal {text!r}")
    parsed = [_parse_term(t) for t in terms]
    used = max((max(e) for e in parsed if e), default=1)
    dim = d if d is not None else used
    if used > dim:
        raise ParseError(f"ideal mentions x{used} but --dim {dim} was given")
    gens = [tuple(e.get(i, 0) for i in range(1, dim + 1)) for e in parsed]
    return MonomialIdeal.from_gens(dim, gens)


def format_ideal(ideal: MonomialIdeal, style: str = "text") -> str:
    """Render an ideal in the textual or JSON interchange form."""
    if style == "json":
        return json.dumps([list(g) for g in ideal.gens])
    if ideal.is_zero:
        return "0"
    names = ["x", "y", "z"][: ideal.d] if ideal.d <= 3 else [f"x{i}" for i in range(1, ideal.d + 1)]
    terms = []
    for g in ideal.gens:
        factors = [names[i] + (f"^{e}" if e > 1 else "") for i, e in enumerate(g) if e > 0]
        terms.append("*".join(factors) if factors else "1")
    return ", ".join(terms)
