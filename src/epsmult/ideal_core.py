"""Exact monomial-ideal arithmetic in K[X1,...,Xd].

A ``MonomialIdeal`` holds its unique minimal generating antichain in
lexicographic order, so equality and hashing are structural.  The empty
generator set encodes the zero ideal, ``{(0,...,0)}`` the unit ideal.

The antichain lives in one of two forms:

* ``_keys``, for an int64-safe ideal in two variables: the ascending uint64
  keys (x << 32) | y of ``_kernels``.  Products and sums work on keys alone,
  and intersections and colons of more than two candidate rows end as keys;
  ``gens`` is built from the keys on first read and cached.
* ``gens``, the tuple of Python-int tuples, for every other ideal: every
  ideal in d != 2, and d = 2 ideals with a coordinate at or above
  ``_kernels.INT64_SAFE``, so there is no overflow ceiling.

Minimalization is ``_kernels.minimal_keys`` on d = 2 keys and
``_antichain``, a level sweep on Python ints, everywhere else.
``sum_of_products`` builds a sum of products of ideals (a rung of a
recursive family) and minimalizes it once: by one ``_kernels.product_keys``
sort on d = 2 keys, by one ``_antichain`` otherwise.  Saturation in d >= 3 is
``_saturation``, the same sweep over the slices of sat(I).

Variable indices in the public API are 1-based (x1..xd), matching the text
format accepted by the CLI.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
import operator
from typing import Iterable, Optional, Sequence

import numpy as np

from . import _kernels
from .errors import DimensionMismatchError, ParseError, PreconditionError, ZeroIdealError

Monomial = tuple[int, ...]


@dataclass(frozen=True)
class AmbientRing:
    """A polynomial ring in d variables with its graded maximal ideal."""

    d: int

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 1:
            raise PreconditionError(f"ambient dimension must be a positive integer, got {self.d!r}")


def _check_monomial(d: int, m: Sequence[int]) -> Monomial:
    t = tuple(int(e) for e in m)
    if len(t) != d:
        raise DimensionMismatchError(f"monomial {t} does not live in {d} variables")
    if any(e < 0 for e in t):
        raise PreconditionError(f"monomial {t} has a negative exponent")
    return t


def _antichain(gens: Sequence[Monomial]) -> tuple[Monomial, ...]:
    """Minimal elements of the exponent tuples *gens*, lex sorted.

    In two variables: one sort and a scan of the running least y.  Above two:
    a sweep up the distinct last exponents z, keeping ``below``, the antichain
    of the (d-1)-prefixes seen so far (the cut ``cohomology._slabs`` makes).  A
    prefix at z gives a minimal element iff it is in the antichain of
    ``below`` and z's prefixes but not in ``below``.
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
    levels: dict[int, list[Monomial]] = {}
    for g in gens:
        levels.setdefault(g[-1], []).append(g[:-1])
    kept, below = [], ()
    for z in sorted(levels):
        cut = _antichain([*below, *levels[z]])
        kept.extend(p + (z,) for p in set(cut).difference(below))
        below = cut
    return tuple(sorted(kept))


def _saturation(gens: Sequence[Monomial]) -> tuple[Monomial, ...]:
    """Minimal generators of sat(I), lex sorted, for the lex-sorted minimal
    generators *gens* of a nonzero ideal I.

    One variable: the unit ideal.  Two: the staircase corner (x of the first
    generator, y of the last).  Above two: a sweep up the distinct last
    exponents z, as in ``_antichain``.  The slice of sat(I) at x_d = z is
    sat(I_z) & I_top, where I_z is the (d-1)-variable cut of I at z and I_top
    the cut at z = oo.  A generator of a slice is new at z iff it is not a
    generator of the previous slice; once a slice reaches I_top, no later
    one grows.
    """
    d = len(gens[0])
    if d == 1:
        return ((0,),)
    if d == 2:
        return ((gens[0][0], gens[-1][1]),)
    levels: dict[int, list[Monomial]] = {}
    for g in gens:
        levels.setdefault(g[-1], []).append(g[:-1])
    top = _antichain([g[:-1] for g in gens])
    kept, cut, below = [], (), ()
    for z in sorted(levels):
        cut = _antichain([*cut, *levels[z]])
        piece = _antichain([tuple(map(max, s, t)) for s in _saturation(cut) for t in top])
        kept.extend(p + (z,) for p in set(piece).difference(below))
        if piece == top:
            break
        below = piece
    return tuple(sorted(kept))


def _of_keys(ambient: AmbientRing, keys: np.ndarray) -> "MonomialIdeal":
    """The ideal in two variables generated by the rows of *keys*, a fresh
    vector that is sorted in place and may become the result's."""
    return MonomialIdeal(ambient, None, _trusted=True, keys=_kernels.minimal_keys(keys))


def _product_fits(a: "MonomialIdeal", b: "MonomialIdeal") -> bool:
    """Whether the nonzero d = 2 product a*b is int64-safe: its largest
    coordinate is the sum of the factors' largest."""
    return max(map(operator.add, a.max_exponents(), b.max_exponents())) < _kernels.INT64_SAFE


def sum_of_products(ambient: AmbientRing,
                    pairs: Iterable[tuple["MonomialIdeal", "MonomialIdeal"]]) -> "MonomialIdeal":
    """The ideal sum of a*b over *pairs*, minimalized once.

    In d = 2, with every product int64-safe, ``_kernels.product_keys`` sorts
    all the products' sums at once; otherwise one ``_antichain`` runs over
    them as Python-int tuples.
    """
    pairs = [(a, b) for a, b in pairs if not (a.is_zero or b.is_zero)]
    for ideal in (f for pair in pairs for f in pair):
        if ideal.d != ambient.d:
            raise DimensionMismatchError(f"ideals live in {ideal.d} and {ambient.d} variables")
    if not pairs:
        return MonomialIdeal.zero(ambient.d)
    if ambient.d == 2 and all(_product_fits(a, b) for a, b in pairs):
        keys = _kernels.product_keys([(a._as_keys(), b._as_keys()) for a, b in pairs])
        return MonomialIdeal(ambient, None, _trusted=True, keys=keys)
    rows = [tuple(map(operator.add, g, h)) for a, b in pairs for g in a.gens for h in b.gens]
    return MonomialIdeal(ambient, _antichain(rows), _trusted=True)


def _minimalize(ambient: AmbientRing, gens: list[Monomial]) -> "MonomialIdeal":
    """The ideal generated by *gens*: keys when d = 2 and they fit, else tuples."""
    if ambient.d == 2 and len(gens) > 2:
        arr = _kernels.as_array(gens)
        if arr is not None:
            return _of_keys(ambient, _kernels.pack(arr))
    return MonomialIdeal(ambient, _antichain(gens), _trusted=True)


class MonomialIdeal:
    """A monomial ideal, held as its minimal generating antichain.

    At least one of ``_gens`` (tuples) and ``_keys`` (d = 2 uint64 keys) is
    set; keys are only ever stored for an int64-safe ideal in two variables,
    and read-only.  ``_newton`` caches the Newton polyhedron
    (``polyhedra.newton_polyhedron``).
    """

    __slots__ = ("ambient", "_gens", "_keys", "_newton")

    def __init__(self, ambient: AmbientRing, gens: Optional[tuple[Monomial, ...]],
                 _trusted: bool = False, keys: Optional[np.ndarray] = None):
        if not _trusted:
            raise PreconditionError("use MonomialIdeal.from_gens / zero / unit")
        if keys is not None:
            keys.flags.writeable = False
        self.ambient = ambient
        self._gens = gens
        self._keys = keys
        self._newton = None

    @classmethod
    def from_gens(cls, d: int, gens: Iterable[Sequence[int]]) -> "MonomialIdeal":
        checked = [_check_monomial(d, g) for g in gens]
        return _minimalize(AmbientRing(d), checked)

    @classmethod
    def zero(cls, d: int) -> "MonomialIdeal":
        return cls(AmbientRing(d), (), _trusted=True)

    @classmethod
    def unit(cls, d: int) -> "MonomialIdeal":
        return cls(AmbientRing(d), ((0,) * d,), _trusted=True)

    # -- structure ---------------------------------------------------------

    @property
    def d(self) -> int:
        return self.ambient.d

    @property
    def gens(self) -> tuple[Monomial, ...]:
        """The minimal generators as lex-sorted tuples of Python ints."""
        if self._gens is None:
            self._gens = _kernels.key_rows(self._keys)
        return self._gens

    def _count(self) -> int:
        return len(self._gens if self._gens is not None else self._keys)

    @property
    def is_zero(self) -> bool:
        return self._count() == 0

    @property
    def is_unit(self) -> bool:
        return self._count() == 1 and not any(self.gens[0])

    @property
    def is_proper(self) -> bool:
        return not self.is_zero and not self.is_unit

    def max_exponents(self) -> Monomial:
        """Componentwise maximum of the minimal generators (zero ideal -> 0s)."""
        if self.is_zero:
            return (0,) * self.d
        if self._keys is not None:
            return _kernels.key_extent(self._keys)
        return tuple(map(max, zip(*self._gens)))

    def fits_int64(self) -> bool:
        return (self._keys is not None or self.is_zero
                or max(self.max_exponents()) < _kernels.INT64_SAFE)

    def _as_keys(self) -> np.ndarray:
        """The read-only d = 2 keys of a nonzero ideal (cached; requires fits_int64)."""
        if self._keys is None:
            keys = _kernels.pack(_kernels.as_array(self._gens))
            keys.flags.writeable = False
            self._keys = keys
        return self._keys

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
        if self.is_zero or other.is_zero:
            return MonomialIdeal.zero(self.d)
        if self.d == 2 and _product_fits(self, other):
            sums = self._as_keys()[:, None] + other._as_keys()[None, :]
            return _of_keys(self.ambient, sums.ravel())
        prods = [tuple(map(operator.add, g, h)) for g in self.gens for h in other.gens]
        return MonomialIdeal(self.ambient, _antichain(prods), _trusted=True)

    __mul__ = multiply

    def power(self, n: int) -> "MonomialIdeal":
        if n < 0:
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
        if self.d == 2 and self.fits_int64() and other.fits_int64():
            return _of_keys(self.ambient, np.concatenate((self._as_keys(), other._as_keys())))
        return MonomialIdeal(self.ambient, _antichain(self.gens + other.gens), _trusted=True)

    __add__ = add

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._same_ring(other)
        return _minimalize(self.ambient, [tuple(map(max, g, h)) for g in self.gens for h in other.gens])

    def _drop(self, variables: frozenset[int]) -> "MonomialIdeal":
        """The ideal with the exponents of *variables* (1-based) set to zero."""
        keep = [int(i not in variables) for i in range(1, self.d + 1)]
        return _minimalize(self.ambient, [tuple(map(operator.mul, g, keep)) for g in self.gens])

    def colon_var_sat(self, i: int) -> "MonomialIdeal":
        """The stable colon I : xi^infinity (variable index 1-based)."""
        if self.is_zero:
            raise ZeroIdealError("saturation of the zero ideal is undefined")
        if not 1 <= i <= self.d:
            raise PreconditionError(f"variable index {i} out of range 1..{self.d}")
        return self._drop(frozenset((i,)))

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
        return MonomialIdeal(self.ambient, _saturation(self.gens), _trusted=True)

    def localize(self, variables: Iterable[int]) -> "MonomialIdeal":
        """Monomial image after inverting the given variables (1-based)."""
        if self.is_zero:
            raise ZeroIdealError("localization of the zero ideal is undefined")
        fs = frozenset(int(i) for i in variables)
        if not fs:
            return self
        if not fs <= set(range(1, self.d + 1)):
            raise PreconditionError(f"variable subset {sorted(fs)} out of range 1..{self.d}")
        return self._drop(fs)

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
# "1" denotes the unit ideal and "0" the zero ideal.

_FACTOR_RE = re.compile(r"^(x(\d+)|[xyz])(?:\^(\d+))?$")
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
