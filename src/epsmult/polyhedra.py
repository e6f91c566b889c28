"""Newton polyhedra, analytic spread, and the volume route to epsilon.

The Newton polyhedron NP(I) = conv(generators) + R_{>=0}^d is handled in
exact integer arithmetic (``_exactla.bareiss``).  One routine,
``_extreme_rays``, enumerates the extreme rays of a pointed cone given by
integer inequalities, each with the bitmask of the rows it is tight on, and
both polyhedral jobs are such an enumeration.  It is the double description
method (Fukuda-Prodon): a simplicial cone on n independent rows is cut by
the other rows one at a time, and each cut joins only adjacent rays, found
from their masks, so the work follows the actual rays rather than the row
subsets.  Facets are the extreme rays of the dual cone of the
homogenization cone spanned by (g, 1) and (e_i, 0): every extreme ray
(nu, c') with nu != 0 gives the facet <nu, u> >= -c', and its mask names
the generators on it.  Every vertex of NP(I) is a minimal generator, and a
generator is a vertex iff no other generator lies on all of its facets.

Faces are index sets, walked by one rule, ``_facets_of``: a face is the cut
of the facets that hold it, so the facets of F are its maximal cuts F & G.
The analytic spread is 1 + the largest dimension of a bounded face
(Bivia-Ausina 2003): the walk descends from the facets of NP(I), as sets of
vertices and rays e_i (nu_i = 0), one dimension per level, and stops at the
first level with a ray-free face.

epsilon is d! times the volume of Q \\ NP(I), where the relaxation Q keeps
only the loose facets, those whose normal has a zero coordinate.  It is a
sum of pieces pyr(0, F) & Q, one per strict facet F (normal > 0): a loose
facet has nu >= 0 and c >= 0, so t Q lies in Q for t >= 1, and the ray from
0 through a point of Q \\ NP(I) enters NP(I) through a strict facet, at a
single point; so the pieces tile Q \\ NP(I) with disjoint interiors.  Each
piece is cut out by NP(I)'s own data: the cap <nu_F, u> <= c_F, one row
through 0 and each ridge F & G, and the loose facets with c > 0.  Volumes of
such bounded polyhedra come from their vertices, the extreme rays (x, D)
with D > 0 of the cone {(u, D) : <nu, u> >= c D}, and from their
vertex-facet incidences, read off the masks, which drive a pulling
triangulation; no convex hull is ever recomputed.

In two variables NP(I) is a polygon, and both jobs shrink to one pass over
the staircase: its vertices are the lower convex hull of the lex-sorted
generators (``_newton_polygon``, a monotone chain), and epsilon is twice the
area between that hull and its corner (x_0, y_h), a sum of trapezoids in
Python integers.  The route is chosen by d alone.  The double description
stays for d = 1 and d >= 3, where no such chain orders the boundary, and it
stays callable on d = 2 input, where the tests use it as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, prod
from typing import Optional, Sequence

from ._exactla import bareiss, int_det, rank
from .errors import PreconditionError, ZeroIdealError
from .ideal_core import MonomialIdeal

Facet = tuple[tuple[int, ...], int]  # (primitive normal, offset): <normal, u> >= offset
Point = tuple[int, ...]  # homogeneous (x_1, ..., x_d, D), D > 0, gcd 1: the point x / D


@dataclass(frozen=True)
class NewtonPolyhedron:
    d: int
    vertices: tuple[tuple[int, ...], ...]
    facets: tuple[Facet, ...]
    facet_vertices: tuple[frozenset[int], ...]  # vertex indices per facet


@dataclass(frozen=True)
class OutRegionReport:
    volume: Fraction
    epsilon: Fraction
    box_bound: Optional[Fraction]


def _require_proper(ideal: MonomialIdeal) -> None:
    if ideal.is_zero:
        raise ZeroIdealError("the zero ideal has no Newton polyhedron")
    if ideal.is_unit:
        raise PreconditionError("the unit ideal has no Newton polyhedron here")


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def _extreme_rays(rows: Sequence[Sequence[int]]) -> dict[tuple[int, ...], int]:
    """Extreme rays of the pointed cone {v : <r, v> >= 0 for every row r}.

    Each ray is a primitive integer vector, mapped to the bitmask of the rows
    it is tight on (bit i for rows[i]).  Double description: start from the
    simplicial cone of n linearly independent rows B, whose rays are the
    columns of det(B) B^-1 read off one elimination of [B | I], then cut by
    one row at a time.  A cut keeps the rays on its nonnegative side and
    joins each adjacent pair across it; two rays are adjacent when their
    common tight rows number at least n - 2 and no third ray is tight on all
    of them.  Rows of rank below n leave a line in the cone, so there are no
    rays.
    """
    n = len(rows[0])
    basis = bareiss(list(zip(*rows)))[1]  # pivot columns of the transpose
    if len(basis) < n:
        return {}
    done = sum(1 << i for i in basis)
    m = bareiss([list(rows[i]) + [int(j == k) for j in range(n)] for k, i in enumerate(basis)])[0]
    rays: dict[tuple[int, ...], int] = {}
    for k, i in enumerate(basis):  # column k of D B^-1: D on rows[i], 0 on the other basis rows
        v = [row[n + k] for row in m]
        g = gcd(*v) if m[0][0] > 0 else -gcd(*v)
        rays[tuple(x // g for x in v)] = done & ~(1 << i)
    for i, r in enumerate(rows):
        if done >> i & 1:
            continue
        bit = 1 << i
        masks = list(rays.values())
        pos, neg, cut = [], [], {}
        for v, z in rays.items():
            t = _dot(r, v)
            if t > 0:
                pos.append((v, z, t))
                cut[v] = z
            elif t < 0:
                neg.append((v, z, t))
            else:
                cut[v] = z | bit
        for p, zp, tp in pos:
            for q, zq, tq in neg:
                common = zp & zq
                if (common.bit_count() >= n - 2
                        and sum((z & common) == common for z in masks) == 2):
                    w = [tp * b - tq * a for a, b in zip(p, q)]
                    g = gcd(*w)
                    cut[tuple(x // g for x in w)] = common | bit
        rays = cut
    return rays


def newton_polyhedron(ideal: MonomialIdeal) -> NewtonPolyhedron:
    """H- and V-representation of conv(generator exponents) + orthant.

    Built once per ideal object and kept on it: ``out_region``,
    ``analytic_spread`` and ``eps newton`` all start from it.
    """
    if ideal._newton is None:
        ideal._newton = _build_newton(ideal)
    return ideal._newton


def _build_newton(ideal: MonomialIdeal) -> NewtonPolyhedron:
    _require_proper(ideal)
    if ideal.d == 2:
        return _newton_polygon(*zip(*ideal.gens))
    return _newton_by_rays(ideal.d, ideal.gens)


def _newton_polygon(xs: Sequence[int], ys: Sequence[int]) -> NewtonPolyhedron:
    """NP(I) in two variables from the columns of the lex-sorted minimal
    generators (x ascending, y descending).

    Its vertices are the lower convex hull of the generators, one monotone
    chain that drops a point unless the chain turns left at it (collinear
    points too).  Each hull edge is a facet with normal (y_i - y_(i+1),
    x_(i+1) - x_i) made primitive; x >= x_0 and y >= y_h close the polygon.
    """
    hull: list[tuple[int, int]] = []
    for x, y in zip(xs, ys):
        while len(hull) > 1:
            (ox, oy), (ax, ay) = hull[-2:]
            if (ax - ox) * (y - oy) > (ay - oy) * (x - ox):
                break  # the chain turns left at (ax, ay)
            hull.pop()
        hull.append((x, y))
    h = len(hull) - 1
    found = [((1, 0), hull[0][0], frozenset({0})), ((0, 1), hull[h][1], frozenset({h}))]
    for i, ((x0, y0), (x1, y1)) in enumerate(zip(hull, hull[1:])):
        g = gcd(y0 - y1, x1 - x0)
        nu = ((y0 - y1) // g, (x1 - x0) // g)
        found.append((nu, nu[0] * x0 + nu[1] * y0, frozenset({i, i + 1})))
    found.sort(key=lambda f: f[:2])  # the order of the double description's facets
    return NewtonPolyhedron(2, tuple(hull), tuple(f[:2] for f in found), tuple(f[2] for f in found))


def _newton_by_rays(d: int, gens: Sequence[tuple[int, ...]]) -> NewtonPolyhedron:
    """NP(I) in any dimension by one double description of the
    homogenization cone's dual."""
    # the orthant rows first, so that every intermediate cone of the double
    # description already lies in it; generator j is row d + j
    rows = [tuple(1 if j == i else 0 for j in range(d)) + (0,) for i in range(d)]
    rows += [tuple(g) + (1,) for g in gens]
    # a ray (nu, c') with nu != 0 is the facet <nu, u> >= -c', tight on the rows of its mask
    found = sorted((v[:d], -v[d], z) for v, z in _extreme_rays(rows).items() if any(v[:d]))
    facets: list[Facet] = [(nu, c) for nu, c, _ in found]
    on = [sum(1 << f for f, (_, _, z) in enumerate(found) if z >> (d + j) & 1) for j in range(len(gens))]
    # g is a vertex iff no other generator lies on all of its facets: the least
    # face holding g is a vertex or holds another vertex, and vertices are generators
    keep = [j for j, s in enumerate(on) if not any(t & s == s for k, t in enumerate(on) if k != j)]
    if not keep:
        raise PreconditionError("no vertex found; Newton polyhedron degenerate")
    facet_vertices = []
    for f, (nu, c) in enumerate(facets):
        active = frozenset(i for i, j in enumerate(keep) if on[j] >> f & 1)
        if len(active) + nu.count(0) < d:  # e_i lies on the facet iff nu_i = 0
            raise PreconditionError("facet supported by fewer than d vertices and rays")
        facet_vertices.append(active)
    return NewtonPolyhedron(d, tuple(gens[j] for j in keep), tuple(facets), tuple(facet_vertices))


# ---------------------------------------------------------------------------
# Faces as index sets, and the analytic spread.


def _facets_of(face: frozenset[int], facet_sets: Sequence[frozenset[int]]) -> list[frozenset[int]]:
    """The facets of a face: its inclusion-maximal cuts face & G, G in
    facet_sets, other than face itself."""
    cuts = dict.fromkeys(face & g for g in facet_sets)
    cuts.pop(face, None)
    return [sub for sub in cuts if not any(sub < c for c in cuts)]


def analytic_spread(ideal: MonomialIdeal) -> int:
    """1 + the largest dimension of a bounded face of the Newton polyhedron.

    A face is the set of its vertex indices and of n + i for each ray
    e_(i+1) in it; level k holds the k-faces that hold a vertex.
    """
    np_ = newton_polyhedron(ideal)
    n, k = len(np_.vertices), np_.d - 1
    facet_sets = [verts | {n + i for i, x in enumerate(nu) if x == 0}
                  for verts, (nu, _) in zip(np_.facet_vertices, np_.facets)]
    level = set(facet_sets)
    while all(max(face) >= n for face in level):
        level = {sub for face in level for sub in _facets_of(face, facet_sets) if min(sub) < n}
        k -= 1
    return 1 + k


# ---------------------------------------------------------------------------
# Exact polytope volume: vertices and incidences -> pulling triangulation.


def triangulate_points(points: Sequence[Point],
                       facet_sets: Sequence[frozenset[int]]) -> list[tuple[int, ...]]:
    """Simplices (index tuples) triangulating the polytope conv(points).

    points are the polytope's vertices in homogeneous integer coordinates,
    in any order; facet_sets hold the vertex indices of each facet (sets of
    lower faces, or empty ones, may be mixed in).  Pulling triangulation: a
    k-face F is coned from its least-indexed vertex over its facets
    (``_facets_of``) that miss that vertex, which is valid for any order of
    the points.  Only the dimension of conv(points) takes a rank: a k-face
    with k + 1 vertices is a simplex.
    """
    def pull(face: frozenset[int], k: int) -> list[tuple[int, ...]]:
        if len(face) == k + 1:
            return [tuple(sorted(face))]
        apex = min(face)
        return [(apex,) + s for sub in _facets_of(face, facet_sets) if apex not in sub
                for s in pull(sub, k - 1)]

    k = rank(points) - 1
    return pull(frozenset(range(len(points))), k) if k > 0 else []


def volume_from_constraints(constraints: Sequence[Facet], d: int) -> Fraction:
    """Exact volume of the (bounded) polyhedron cut out by the constraints.

    Its vertices are the extreme rays (x, D) with D > 0 of the cone of
    integer rows r with <r, (u, 1)> >= 0, taken in the order the double
    description finds them; the tight-row masks give the vertex set of each
    constraint.
    """
    rows = []  # a rational offset is scaled out
    for nu, c in constraints:
        c = Fraction(c)
        rows.append(tuple(c.denominator * x for x in nu) + (-c.numerator,))
    rays = _extreme_rays(rows)
    vertices = [p for p in rays if p[d] > 0]
    tight = [frozenset(k for k, p in enumerate(vertices) if rays[p] >> i & 1) for i in range(len(rows))]
    simplices = triangulate_points(vertices, tight)
    if not simplices or len(simplices[0]) < d + 1:  # conv(vertices) is lower-dimensional
        return Fraction(0)
    total = Fraction(0)
    for simplex in simplices:
        corners = [vertices[i] for i in simplex]
        total += Fraction(abs(int_det(corners)), prod(r[-1] for r in corners))
    return total / factorial(d)


def out_region(ideal: MonomialIdeal) -> OutRegionReport:
    """Volume of Q \\ NP(I), Q the relaxation to the loose facets.

    epsilon = d! * vol; it is positive exactly when some facet normal is
    strictly positive, i.e. when the analytic spread is maximal.  In one and
    two variables it is read off the facet or the hull vertices, with no
    volume system.  For d >= 3 it is the sum of vol(pyr(0, F) & Q) over the
    strict facets F.  Proof: t Q lies in Q for t >= 1, since every loose
    facet has nu >= 0 and c >= 0, so the ray from 0 through a point of
    Q \\ NP(I) enters NP(I) through a strict facet; and it enters only once,
    so the pieces' interiors are disjoint.  box_bound, M = 1 + max c / min nu
    over the strict facets, bounds every coordinate of Q \\ NP(I).
    """
    np_ = newton_polyhedron(ideal)
    d = np_.d
    strict = [(nu, c) for nu, c in np_.facets if all(v > 0 for v in nu)]
    if not strict:
        return OutRegionReport(Fraction(0), Fraction(0), None)
    m_bound = 1 + max(Fraction(c, min(nu)) for nu, c in strict)
    if d == 1:  # NP(I) = [c, oo): the piece over its one facet is [0, c]
        volume = Fraction(strict[0][1])
        return OutRegionReport(volume, volume, m_bound)
    if d == 2:  # twice the area between the hull and the corner (x_0, y_h)
        vs = np_.vertices
        epsilon = Fraction(sum((b[0] - a[0]) * (a[1] + b[1] - 2 * vs[-1][1])
                               for a, b in zip(vs, vs[1:])))
        return OutRegionReport(epsilon / 2, epsilon, m_bound)
    # the loose facets with c = 0 hold on the whole orthant, so on every piece
    q_rows = [(nu, c) for nu, c in np_.facets if c > 0 and 0 in nu]
    volume = Fraction(0)
    for (nu_f, c_f), verts in zip(np_.facets, np_.facet_vertices):
        if 0 in nu_f:
            continue
        # the cone over F: one row through 0 and each ridge F & G
        rows: list[Facet] = [(tuple(c_f * g - c_g * f for f, g in zip(nu_f, nu_g)), 0)
                             for (nu_g, c_g), other in zip(np_.facets, np_.facet_vertices)
                             if len(verts & other) >= d - 1 and nu_g != nu_f]
        rows.append((tuple(-x for x in nu_f), -c_f))
        volume += volume_from_constraints(rows + q_rows, d)
    return OutRegionReport(volume, factorial(d) * volume, m_bound)
