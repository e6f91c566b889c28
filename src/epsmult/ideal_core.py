"""Exact monomial-ideal arithmetic in K[X1,...,Xd].

Monomials are tuples of arbitrary-precision non-negative integers; a
``MonomialIdeal`` stores its unique minimal generating antichain in
lexicographic order, so equality and hashing are structural.  The empty
generator set encodes the zero ideal, ``{(0,...,0)}`` the unit ideal.

Variable indices in the public API are 1-based (x1..xd), matching the text
format accepted by the CLI.  Hot paths route through the int64 kernels in
``_kernels`` whenever every coordinate is small enough; otherwise pure-Python
big-integer fallbacks are used, so there is no overflow ceiling.
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


def _minimalize_python(gens: list[Monomial]) -> tuple[Monomial, ...]:
    by_degree = sorted(set(gens), key=lambda g: (sum(g), g))
    kept: list[Monomial] = []
    for g in by_degree:
        if not any(all(k[i] <= g[i] for i in range(len(g))) for k in kept):
            kept.append(g)
    return tuple(sorted(kept))


def _minimalize(d: int, gens: list[Monomial]) -> tuple[Monomial, ...]:
    if len(gens) <= 2:
        return _minimalize_python(gens)
    if max(max(g) for g in gens) >= _kernels.INT64_SAFE:
        return _minimalize_python(gens)
    arr = _kernels.as_array(gens)
    out = _kernels.minimal_rows_2d(arr) if d == 2 else _kernels.minimal_rows_nd(arr)
    return tuple(tuple(int(e) for e in row) for row in out)


class MonomialIdeal:
    """A monomial ideal, held as its minimal generating antichain."""

    __slots__ = ("ambient", "gens", "_arr")

    def __init__(self, ambient: AmbientRing, gens: tuple[Monomial, ...], _trusted: bool = False):
        if not _trusted:
            raise PreconditionError("use MonomialIdeal.from_gens / zero / unit")
        self.ambient = ambient
        self.gens = gens
        self._arr: Optional[np.ndarray] = None

    @classmethod
    def from_gens(cls, d: int, gens: Iterable[Sequence[int]]) -> "MonomialIdeal":
        ambient = AmbientRing(d)
        checked = [_check_monomial(d, g) for g in gens]
        return cls(ambient, _minimalize(d, checked), _trusted=True)

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
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and not any(self.gens[0])

    @property
    def is_proper(self) -> bool:
        return not self.is_zero and not self.is_unit

    def max_exponents(self) -> Monomial:
        """Componentwise maximum of the minimal generators (zero ideal -> 0s)."""
        if self.is_zero:
            return (0,) * self.d
        return tuple(max(g[i] for g in self.gens) for i in range(self.d))

    def fits_int64(self) -> bool:
        return self.is_zero or max(self.max_exponents()) < _kernels.INT64_SAFE

    def as_array(self) -> np.ndarray:
        """Generators as an (m, d) int64 array (cached; requires fits_int64)."""
        if self._arr is None:
            if not self.fits_int64():
                raise PreconditionError("generators exceed the int64-safe range")
            self._arr = _kernels.as_array(self.gens) if self.gens else np.empty((0, self.d), dtype=np.int64)
        return self._arr

    def _same_ring(self, other: "MonomialIdeal") -> None:
        if self.d != other.d:
            raise DimensionMismatchError(f"ideals live in {self.d} and {other.d} variables")

    # -- membership and containment ----------------------------------------

    def contains(self, m: Sequence[int]) -> bool:
        mono = _check_monomial(self.d, m)
        return any(all(g[i] <= mono[i] for i in range(self.d)) for g in self.gens)

    def is_subset(self, other: "MonomialIdeal") -> bool:
        self._same_ring(other)
        return all(other.contains(g) for g in self.gens)

    def __le__(self, other: "MonomialIdeal") -> bool:
        return self.is_subset(other)

    # -- arithmetic ----------------------------------------------------------

    def multiply(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._same_ring(other)
        if self.is_zero or other.is_zero:
            return MonomialIdeal.zero(self.d)
        if self.fits_int64() and other.fits_int64():
            sums = _kernels.pairwise_sums(self.as_array(), other.as_array())
            if int(sums.max(initial=0)) < _kernels.INT64_SAFE:
                out = _kernels.minimal_rows_2d(sums) if self.d == 2 else _kernels.minimal_rows_nd(sums)
                gens = tuple(tuple(int(e) for e in row) for row in out)
                return MonomialIdeal(self.ambient, gens, _trusted=True)
        prods = [tuple(a + b for a, b in zip(g, h)) for g in self.gens for h in other.gens]
        return MonomialIdeal(self.ambient, _minimalize_python(prods), _trusted=True)

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
        return MonomialIdeal(self.ambient, _minimalize(self.d, list(self.gens + other.gens)), _trusted=True)

    __add__ = add

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._same_ring(other)
        lcms = [tuple(max(a, b) for a, b in zip(g, h)) for g in self.gens for h in other.gens]
        return MonomialIdeal(self.ambient, _minimalize(self.d, lcms), _trusted=True)

    def colon_var_sat(self, i: int) -> "MonomialIdeal":
        """The stable colon I : xi^infinity (variable index 1-based)."""
        if self.is_zero:
            raise ZeroIdealError("saturation of the zero ideal is undefined")
        if not 1 <= i <= self.d:
            raise PreconditionError(f"variable index {i} out of range 1..{self.d}")
        dropped = [g[: i - 1] + (0,) + g[i:] for g in self.gens]
        return MonomialIdeal(self.ambient, _minimalize(self.d, dropped), _trusted=True)

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
        dropped = [tuple(0 if (i + 1) in fs else e for i, e in enumerate(g)) for g in self.gens]
        return MonomialIdeal(self.ambient, _minimalize(self.d, dropped), _trusted=True)

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
