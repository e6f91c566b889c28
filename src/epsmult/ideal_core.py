"""Exact monomial-ideal arithmetic in K[X1,...,Xd].

A ``MonomialIdeal`` holds its unique minimal generating antichain in
lexicographic order, so equality and hashing are structural.  The empty
generator set encodes the zero ideal, ``{(0,...,0)}`` the unit ideal.

The antichain lives in up to three forms, each built from another on first
read and cached:

* ``gens``, the tuple of Python-int tuples.  Ideals with a coordinate at or
  above ``_kernels.INT64_SAFE`` have only this form and use pure-Python
  big-integer routes, so there is no overflow ceiling.
* ``_keys``, for an int64-safe ideal in two variables: the ascending uint64
  keys (x << 32) | y of ``_kernels``.  Products and sums work on keys alone.
* ``_arr``, an (m, d) int64 array: the working form of int64-safe ideals in
  other d, and of intersections and colons in every d.

Minimalization is ``_kernels.minimal_keys`` on d = 2 keys and
``_antichain``, a level sweep on Python ints, everywhere else.

Variable indices in the public API are 1-based (x1..xd), matching the text
format accepted by the CLI.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import reduce
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


def _of_keys(ambient: AmbientRing, keys: np.ndarray) -> "MonomialIdeal":
    """The ideal in two variables generated by the rows of *keys*, a fresh
    vector that is sorted in place and may become the result's."""
    return MonomialIdeal(ambient, None, _trusted=True, keys=_kernels.minimal_keys(keys))


def _of_rows(ambient: AmbientRing, arr: np.ndarray) -> "MonomialIdeal":
    """The ideal generated by the rows of an int64-safe (m, d) array."""
    if ambient.d == 2:
        return _of_keys(ambient, _kernels.pack(arr))
    rows = _antichain(list(map(tuple, arr.tolist())))
    return MonomialIdeal(ambient, None, _trusted=True,
                         arr=np.array(rows, dtype=np.int64).reshape(-1, ambient.d))


def _minimalize(ambient: AmbientRing, gens: list[Monomial]) -> "MonomialIdeal":
    """The ideal generated by *gens*: keys when d = 2 and they fit, else tuples."""
    if ambient.d == 2 and len(gens) > 2:
        arr = _kernels.as_array(gens)
        if arr is not None:
            return _of_rows(ambient, arr)
    return MonomialIdeal(ambient, _antichain(gens), _trusted=True)


class MonomialIdeal:
    """A monomial ideal, held as its minimal generating antichain.

    At least one of ``_gens`` (tuples), ``_keys`` (d = 2 uint64 keys) and
    ``_arr`` (int64 rows) is set; keys and arrays are only ever stored for an
    int64-safe ideal, and read-only.  ``_newton`` caches the Newton
    polyhedron (``polyhedra.newton_polyhedron``).
    """

    __slots__ = ("ambient", "_gens", "_keys", "_arr", "_newton")

    def __init__(self, ambient: AmbientRing, gens: Optional[tuple[Monomial, ...]],
                 _trusted: bool = False, arr: Optional[np.ndarray] = None,
                 keys: Optional[np.ndarray] = None):
        if not _trusted:
            raise PreconditionError("use MonomialIdeal.from_gens / zero / unit")
        for form in (arr, keys):
            if form is not None:
                form.flags.writeable = False
        self.ambient = ambient
        self._gens = gens
        self._keys = keys
        self._arr = arr
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
            self._gens = (tuple(map(tuple, self._arr.tolist())) if self._arr is not None
                          else _kernels.key_rows(self._keys))
        return self._gens

    def _count(self) -> int:
        for form in (self._gens, self._keys, self._arr):
            if form is not None:
                return len(form)

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
        if self._gens is None:
            return tuple(self._arr.max(axis=0).tolist())
        return tuple(map(max, zip(*self._gens)))

    def fits_int64(self) -> bool:
        return (self._keys is not None or self._arr is not None or self.is_zero
                or max(self.max_exponents()) < _kernels.INT64_SAFE)

    def as_array(self) -> np.ndarray:
        """Generators as a read-only (m, d) int64 array (cached; requires fits_int64)."""
        if self._arr is None:
            if self._keys is not None:
                arr = _kernels.unpack(self._keys)
            elif not self.fits_int64():
                raise PreconditionError("generators exceed the int64-safe range")
            else:
                arr = _kernels.as_array(self._gens) if self._gens else np.empty((0, self.d), dtype=np.int64)
            arr.flags.writeable = False
            self._arr = arr
        return self._arr

    def _as_keys(self) -> np.ndarray:
        """The read-only d = 2 keys (cached; requires fits_int64)."""
        if self._keys is None:
            keys = _kernels.pack(self.as_array())
            keys.flags.writeable = False
            self._keys = keys
        return self._keys

    def _both_int64(self, other: "MonomialIdeal") -> bool:
        return self.fits_int64() and other.fits_int64()

    def _same_ring(self, other: "MonomialIdeal") -> None:
        if self.d != other.d:
            raise DimensionMismatchError(f"ideals live in {self.d} and {other.d} variables")

    # -- membership and containment ----------------------------------------

    def contains(self, m: Sequence[int]) -> bool:
        mono = _check_monomial(self.d, m)
        return any(all(g[i] <= mono[i] for i in range(self.d)) for g in self.gens)

    def is_subset(self, other: "MonomialIdeal") -> bool:
        self._same_ring(other)
        if self._both_int64(other):
            a, b = self.as_array(), other.as_array()
            return bool((b[None] <= a[:, None]).all(-1).any(-1).all())
        return all(other.contains(g) for g in self.gens)

    def __le__(self, other: "MonomialIdeal") -> bool:
        return self.is_subset(other)

    # -- arithmetic ----------------------------------------------------------

    def multiply(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._same_ring(other)
        if self.is_zero or other.is_zero:
            return MonomialIdeal.zero(self.d)
        # the largest coordinate of a product is the sum of the factors' largest
        tops = zip(self.max_exponents(), other.max_exponents())
        if max(a + b for a, b in tops) < _kernels.INT64_SAFE:
            if self.d == 2:
                sums = self._as_keys()[:, None] + other._as_keys()[None, :]
                return _of_keys(self.ambient, sums.ravel())
            return _of_rows(self.ambient, _kernels.pairwise_sums(self.as_array(), other.as_array()))
        prods = [tuple(a + b for a, b in zip(g, h)) for g in self.gens for h in other.gens]
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
        if self._both_int64(other):
            if self.d == 2:
                return _of_keys(self.ambient, np.concatenate((self._as_keys(), other._as_keys())))
            return _of_rows(self.ambient, np.concatenate((self.as_array(), other.as_array())))
        return MonomialIdeal(self.ambient, _antichain(self.gens + other.gens), _trusted=True)

    __add__ = add

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._same_ring(other)
        if self._both_int64(other):
            a, b = self.as_array(), other.as_array()
            return _of_rows(self.ambient, np.maximum(a[:, None], b[None]).reshape(-1, self.d))
        lcms = [tuple(max(a, b) for a, b in zip(g, h)) for g in self.gens for h in other.gens]
        return MonomialIdeal(self.ambient, _antichain(lcms), _trusted=True)

    def _drop(self, variables: frozenset[int]) -> "MonomialIdeal":
        """The ideal with the exponents of *variables* (1-based) set to zero."""
        if self.fits_int64():
            arr = self.as_array().copy()
            arr[:, [i - 1 for i in variables]] = 0
            return _of_rows(self.ambient, arr)
        dropped = [tuple(0 if (i + 1) in variables else e for i, e in enumerate(g)) for g in self.gens]
        return _minimalize(self.ambient, dropped)

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
        the corner of the staircase (x of the first generator in lex order,
        y of the last).
        """
        if self.is_zero:
            raise ZeroIdealError("saturation of the zero ideal is undefined")
        if self.d == 1:
            return MonomialIdeal.unit(1)
        if self.d == 2:
            return MonomialIdeal(self.ambient, ((self.gens[0][0], self.gens[-1][1]),), _trusted=True)
        parts = [self.colon_var_sat(i) for i in range(1, self.d + 1)]
        return reduce(lambda a, b: a.intersect(b), parts)

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
