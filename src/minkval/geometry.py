"""Exact convex polytopes in R^n at desk scale.

Vertex-representation geometry in exact integer arithmetic: hull
pruning, facet and face enumeration, halfspace splits through the
origin, volumes, and special linear transforms.  A body is one table of
integer points over a common denominator; `fractions.Fraction` appears
only at the API boundary, in the views `points`, `vertices`, the face
and simplex tuples, facet offsets and weights, and volumes.  Everything
that is rational in the input stays exact; floating point enters only
through explicit double-mode helpers.

One hull engine serves every body: an integer double description on the
point table (Fukuda & Prodon 1996) gives each facet with its primitive
normal, integer offset and the bitmask of the points it is tight at.
Vertices, the face lattice (the facet masks closed under intersection,
as in Kaibel & Pfetsch 2002), the pulling triangulation and the position
of the origin follow from those bitmasks; volumes and facet weights are
sums of integer determinants.

All exact linear algebra reads one fraction-free Gauss-Jordan
elimination (`echelon`, Bareiss 1968), which ends with d times the
reduced row echelon form, the pivot columns and the last pivot d: the
determinants above 4 x 4, the inverse of a `LinearMap`, the hull
engine's start rays, start points and span tests, the normal of a flat
body's hyperplane and the projection onto a body's linear hull.

Every polytope is assumed to contain the origin (the class the valuation
operators act on); `convex_hull` enforces this, internal constructors
trust the caller.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul

ZERO = Fraction(0)
ONE = Fraction(1)


class GeometryError(Exception):
    pass


class EmptyInputError(GeometryError):
    pass


class OriginNotContainedError(GeometryError):
    pass


class OriginNotInteriorError(GeometryError):
    pass


class SingularMapError(GeometryError):
    pass


class DimensionOutOfRangeError(GeometryError):
    pass


class DimensionMismatchError(GeometryError):
    pass


class DegenerateBasisError(GeometryError):
    pass


class RayOutsideBodyError(GeometryError):
    pass


def frac(x) -> Fraction:
    """Coerce ints, 'p/q' strings, floats and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def vec(xs):
    return tuple(frac(x) for x in xs)


def zero_vec(n):
    return (ZERO,) * n


def unit_vec(n, i):
    return tuple(ONE if j == i else ZERO for j in range(n))


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vneg(u):
    return tuple(-a for a in u)


def vscale(s, u):
    return tuple(s * a for a in u)


# "p" and "p/q" with an optional sign and surrounding white space, the
# forms `str(Fraction)` writes; Fraction accepts more (decimals, exponents,
# underscores), and `_ratio` hands those to it
_PLAIN_RATIONAL = re.compile(r"\s*([-+]?\d+)(?:/(\d+))?\s*")


def _ratio(x):
    """(a, b) with b > 0 and a / b == frac(x), not necessarily in lowest
    terms; an input frac rejects raises what frac raises."""
    t = type(x)
    if t is int:
        return x, 1
    if t is str:
        m = _PLAIN_RATIONAL.fullmatch(x)
        if m:
            b = int(m[2]) if m[2] else 1
            if b:
                return int(m[1]), b
    elif t is float:
        return x.as_integer_ratio()
    x = frac(x)
    return x.numerator, x.denominator


def int_vector(x):
    """(z, s): integers z and a positive integer s with x = z / s.  A
    vector of ints is returned as it is, with s = 1: tested by one
    unrolled comparison per length 2-6, as `dots` unrolls, and by the
    generic scan otherwise."""
    n = len(x)
    if n == 3:
        a, b, c = x
        if type(a) is int and type(b) is int and type(c) is int:
            return x, 1
    elif n == 4:
        a, b, c, d = x
        if type(a) is int and type(b) is int and type(c) is int and type(d) is int:
            return x, 1
    elif n == 2:
        a, b = x
        if type(a) is int and type(b) is int:
            return x, 1
    elif n == 5:
        a, b, c, d, e = x
        if (type(a) is int and type(b) is int and type(c) is int and type(d) is int
                and type(e) is int):
            return x, 1
    elif n == 6:
        a, b, c, d, e, f = x
        if (type(a) is int and type(b) is int and type(c) is int and type(d) is int
                and type(e) is int and type(f) is int):
            return x, 1
    elif all(type(c) is int for c in x):
        return x, 1
    x = [frac(c) for c in x]
    s = math.lcm(*(c.denominator for c in x))
    return [c.numerator * (s // c.denominator) for c in x], s


def dots(rows, x):
    """[r . x for r in rows], for rows of the length of x: one unrolled
    comprehension per length 2-6, the generic product sum otherwise."""
    n = len(x)
    if n == 3:
        a, b, c = x
        return [a * r0 + b * r1 + c * r2 for r0, r1, r2 in rows]
    if n == 4:
        a, b, c, d = x
        return [a * r0 + b * r1 + c * r2 + d * r3 for r0, r1, r2, r3 in rows]
    if n == 2:
        a, b = x
        return [a * r0 + b * r1 for r0, r1 in rows]
    if n == 5:
        a, b, c, d, e = x
        return [a * r0 + b * r1 + c * r2 + d * r3 + e * r4 for r0, r1, r2, r3, r4 in rows]
    if n == 6:
        a, b, c, d, e, f = x
        return [a * r0 + b * r1 + c * r2 + d * r3 + e * r4 + f * r5
                for r0, r1, r2, r3, r4, r5 in rows]
    return [sum(map(mul, r, x)) for r in rows]


# ---------------------------------------------------------------------------
# linear algebra: one fraction-free elimination


def echelon(rows):
    """Fraction-free Gauss-Jordan elimination of integer rows (Bareiss 1968).

    Returns (m, cols, d): the rows m, of which the first len(cols) end as
    d times the reduced row echelon form of the input and the rest as
    zero; the pivot columns cols, ascending; and d, the last pivot (1 when
    there is none).  Each step multiplies every row by the new pivot and
    divides exactly by the one before.  A row swap negates the row moved
    down, which keeps the determinant, so d is the determinant of a square
    matrix of full rank.
    """
    m = [list(r) for r in rows]
    k = len(m)
    cols, prev = [], 1
    for c in range(len(m[0]) if m else 0):
        r = len(cols)
        piv = next((i for i in range(r, k) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], [-a for a in m[r]]
        row = m[r]
        p = row[c]
        for i in range(k):
            if i != r:
                f = m[i][c]
                m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], row)]
        cols.append(c)
        prev = p
        if r + 1 == k:
            break
    return m, cols, prev


def _primitive(v):
    g = math.gcd(*v)
    return tuple([a // g for a in v]) if g > 1 else tuple(v)


def _spanned(z, span):
    """Whether the integer vector z lies in the row space of span =
    echelon(rows): then d z is its combination of the rows at their pivots."""
    m, cols, d = span
    return all(d * a == sum(z[c] * r[j] for c, r in zip(cols, m)) for j, a in enumerate(z))


def _adjugate(rows):
    """(det R, rows of det R * R^-1) for a nonsingular square integer R,
    read off the elimination of [R | I]; None when R is singular."""
    k = len(rows)
    m, cols, d = echelon([[*r, *(int(i == j) for j in range(k))] for i, r in enumerate(rows)])
    if cols != list(range(k)):
        return None
    return d, [r[k:] for r in m]


def _kernel(rows, n):
    """A basis of the integer vectors v in Z^n with rows . v = 0: for each
    free column f of the echelon, the primitive vector that is positive at
    f and zero at the other free columns."""
    m, cols, d = echelon(rows)
    s = 1 if d > 0 else -1
    out = []
    for f in range(n):
        if f not in cols:
            v = [0] * n
            v[f] = s * d
            for c, r in zip(cols, m):
                v[c] = -s * r[f]
            out.append(_primitive(v))
    return out


class LinearMap:
    """Square rational matrix acting on column vectors.

    The rows are kept twice: as Fractions, and scaled once to integers
    over their least common denominator.  An int or Fraction probe z / s
    maps to the Fractions (row . z) / (den * s) of the integer rows, and
    the determinant is int_det of those rows over den^n.  The
    determinant, the transpose and the inverse are cached, and so are the
    images of the last probe set mapped by `images`.
    """

    __slots__ = ("n", "rows", "_ints", "_den", "_det", "_tr", "_inv", "_memo")

    def __init__(self, rows):
        rows = tuple(tuple(frac(a) for a in r) for r in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DimensionMismatchError("matrix must be square")
        self.n = n
        self.rows = rows
        self._den = den = math.lcm(*(a.denominator for r in rows for a in r))
        self._ints = tuple(tuple(a.numerator * (den // a.denominator) for a in r)
                           for r in rows)
        self._det = self._tr = self._inv = self._memo = None

    @classmethod
    def identity(cls, n):
        return cls([unit_vec(n, i) for i in range(n)])

    @classmethod
    def from_columns(cls, cols):
        return cls(list(zip(*cols)))

    @property
    def det(self):
        if self._det is None:
            self._det = Fraction(int_det(self._ints), self._den ** self.n)
        return self._det

    @property
    def is_sl(self):
        return self.det == 1

    def __call__(self, x):
        if len(x) != self.n:
            raise DimensionMismatchError("vector length mismatch")
        if all(type(c) is int or type(c) is Fraction for c in x):
            z, s = int_vector(x)
            den = self._den * s
            return tuple([Fraction(a, den) for a in dots(self._ints, z)])
        return tuple(dot(r, x) for r in self.rows)

    def images(self, xs):
        """[self(x) for x in xs], except that an int vector under a map
        with integer entries goes to the equal tuple of ints.  Equal
        coordinates of the images of int vectors share one object.  The
        images of the last probe set are kept, keyed by the tuple of its
        probes as tuples: a probe set equal to it (as tuples compare) gets
        them again.  They are kept as one flat tuple of coordinates, a
        third to a quarter of the memory of the image tuples, and each
        call returns a new list of new tuples."""
        key = tuple(map(tuple, xs))
        n, memo = self.n, self._memo
        if memo is None or memo[0] != key:
            rows, den = self._ints, self._den
            vals = {}       # row . x -> its coordinate, (row . x) / den
            flat = []
            for x in key:
                if len(x) == n and all(type(c) is int for c in x):
                    flat += [vals[a] if a in vals else
                             vals.setdefault(a, a if den == 1 else Fraction(a, den))
                             for a in dots(rows, x)]
                else:
                    flat += self(x)
            memo = self._memo = key, tuple(flat)
        flat = memo[1]
        return [flat[i:i + n] for i in range(0, len(flat), n)] if n else [()] * len(key)

    def transpose(self):
        if self._tr is None:
            self._tr = LinearMap(tuple(zip(*self.rows)))
        return self._tr

    def inverse(self):
        if self._inv is None:
            adj = _adjugate(self._ints)
            if adj is None:
                raise SingularMapError("map not invertible")
            d, rows = adj
            den = self._den
            self._inv = LinearMap([[Fraction(den * a, d) for a in r] for r in rows])
        return self._inv

    def compose(self, other):
        if other.n != self.n:
            raise DimensionMismatchError("size mismatch")
        cols = [self(col) for col in zip(*other.rows)]
        return LinearMap.from_columns(cols)

    __matmul__ = compose

    def __eq__(self, other):
        return isinstance(other, LinearMap) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"LinearMap({self.rows!r})"


# ---------------------------------------------------------------------------
# the hull engine: integer double description on the scaled points


def int_det(rows):
    """Integer determinant: closed forms up to 4 x 4 (the 4 x 4 by Laplace
    expansion along its first two rows), the 5 x 5 by expansion along its
    first row onto the 4 x 4 form, the last pivot of `echelon` above."""
    k = len(rows)
    if k == 0:
        return 1
    if k == 1:
        return rows[0][0]
    if k == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if k == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if k == 4:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = rows
        return ((a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
                - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
                + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
                + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
                - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
                + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0))
    if k == 5:
        rest = rows[1:]
        return sum((-a if j % 2 else a) * int_det([r[:j] + r[j + 1:] for r in rest])
                   for j, a in enumerate(rows[0]) if a)
    m, cols, d = echelon(rows)
    return d if len(cols) == k else 0


def _bits(mask):
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _index_order(mask):
    """Sort key for masks none of which contains another: descending keys
    are ascending `_bits` lists (the first differing bit decides both)."""
    return bin(mask)[:1:-1]


def _start_rays(pts):
    """The start rays of the double description on n + 1 integer points
    p_0..p_n of Z^n, or None when they are affinely dependent: ray i is
    primitive, orthogonal to every lifted point (1, p_j) but the i-th and
    positive at that one.  With E the n x n edge matrix of rows p_j - p_0,
    E adj(E) = det(E) I, so the columns w of adj(E), turned round when
    det(E) < 0, give the rays (-w . p_0, w) of p_1..p_n, and their negated
    sum w_0 the ray (|det E| - w_0 . p_0, w_0) opposite p_0."""
    p0 = pts[0]
    adj = _adjugate([[a - b for a, b in zip(p, p0)] for p in pts[1:]])
    if adj is None:
        return None
    d, rows = adj
    s = 1 if d > 0 else -1
    cols = [[s * a for a in c] for c in zip(*rows)]
    w0 = [-s * sum(r) for r in rows]
    cols.insert(0, w0)
    offs = dots(cols, p0)
    offs[0] -= abs(d)
    return [_primitive([-o, *w]) for o, w in zip(offs, cols)]


class _Hull:
    """conv(points) by the double description method, in integers.

    The integer points p are lifted to (1, p).  When the first n + 1 of
    them are affinely independent they are the start simplex; otherwise
    the start simplex is the first affinely independent points, the pivot
    columns of the echelon of the lifted points taken as columns, and the
    points are projected onto the pivot coordinates of their affine hull,
    an exact affine isomorphism onto R^dim.  The valid inequalities
    y0 + y.p >= 0 form a pointed cone whose extreme rays are the facets;
    they are built one point at a time, and a new ray is made only from a
    pair of rays that the combinatorial test finds adjacent (no third ray
    is tight at every point both are tight at).  Each facet keeps its
    primitive outward normal, offset and tight-point bitmask, in ascending
    order of normal; the vertices, the face lattice and the pulling
    triangulation are read off those bitmasks.
    """

    __slots__ = ("dim", "cols", "span", "normals", "offsets", "fmasks", "vmask")

    def __init__(self, ints):
        n = len(ints[0])
        # span, the echelon of the lifted affine hull, is None when that
        # hull is all of R^(n+1): then no point needs a span test
        rays = _start_rays(ints[:n + 1]) if len(ints) > n else None
        if rays is not None:
            self.span, self.cols, self.dim, start = None, list(range(n)), n, range(n + 1)
        else:
            rows = [(1,) + p for p in ints]
            start = echelon(list(zip(*rows)))[1]
            span = echelon([rows[i] for i in start])
            self.dim = d = len(start) - 1
            self.span = span if d < n else None
            self.cols = cols = [c - 1 for c in span[1][1:]]
            if d == 0:
                self.normals, self.offsets, self.fmasks, self.vmask = (), (), (), 1
                return
            if d < n:
                ints = [tuple([p[c] for c in cols]) for p in ints]
            rays = _start_rays([ints[i] for i in start])
        d = self.dim
        rows = [(1,) + p for p in ints]
        zeros = [sum(1 << j for j in start if j != i) for i in start]
        done = set(start)
        for i, q in enumerate(rows):
            if i in done:
                continue
            bit = 1 << i
            s = dots(rays, q)
            neg = [k for k, v in enumerate(s) if v < 0]
            if not neg:
                zeros = [z | bit if v == 0 else z for z, v in zip(zeros, s)]
                continue
            new_rays = [r for r, v in zip(rays, s) if v >= 0]
            new_zeros = [z | bit if v == 0 else z for z, v in zip(zeros, s) if v >= 0]
            for kp, sp in enumerate(s):
                if sp <= 0:
                    continue
                zp, rp = zeros[kp], rays[kp]
                for kn in neg:
                    common = zp & zeros[kn]
                    if common.bit_count() < d - 1:
                        continue
                    if sum(1 for z in zeros if z & common == common) > 2:
                        continue
                    sn = s[kn]
                    new_rays.append(_primitive([sp * a - sn * b for a, b in zip(rays[kn], rp)]))
                    new_zeros.append(common | bit)
            rays, zeros = new_rays, new_zeros
        vmask = 0
        for i in range(len(rows)):
            bit = 1 << i
            meet = -1
            for z in zeros:
                if z & bit:
                    meet &= z
            if meet == bit:
                vmask |= bit
        self.vmask = vmask
        facets = []
        for r, z in zip(rays, zeros):
            g = math.gcd(*r[1:])
            facets.append((tuple(-a // g for a in r[1:]), r[0] // g, z & vmask))
        facets.sort()
        self.normals, self.offsets, self.fmasks = zip(*facets)

    def contains(self, z, s):
        """Whether z / s, for integers z and a positive integer s, lies in
        the hull of the points, in the coordinates of the points: a flat
        hull tests the lifted (s, z) against its span first."""
        if self.span:
            if not _spanned([s, *z], self.span):
                return False
            z = [z[c] for c in self.cols]
        return all(t <= s * off for t, off in zip(dots(self.normals, z), self.offsets))

    def origin_face(self):
        """Vertex mask of the smallest face holding the origin (the meet of
        the offset-0 facets), or None when the origin is outside."""
        if self.span and not _spanned([1] + [0] * (len(self.span[0][0]) - 1), self.span):
            return None     # off the affine hull
        if any(off < 0 for off in self.offsets):
            return None
        face = self.vmask
        for off, m in zip(self.offsets, self.fmasks):
            if off == 0:
                face &= m
        return face

    def meets(self, F):
        """Facets of the face with vertex mask F: the maximal proper,
        nonempty meets of F with the body's facets, unordered.  Taken
        largest first, a meet is maximal when no meet kept before it
        contains it: a larger meet holding it is kept or lies in one that is.
        The body's own facets are its facet masks."""
        if F == self.vmask:
            return list(self.fmasks)
        kept = []
        for m in sorted({F & G for G in self.fmasks} - {0, F},
                        key=int.bit_count, reverse=True):
            for e in kept:
                if m & e == m:
                    break
            else:
                kept.append(m)
        return kept

    def subfaces(self, F, memo):
        """The facets of F in index order."""
        out = memo.get(F)
        if out is None:
            out = memo[F] = sorted(self.meets(F), key=_index_order, reverse=True)
        return out

    def lattice(self):
        """{j: the j-faces as ascending point-index tuples, sorted}, for
        0 <= j < dim.  A (j+1)-face with j + 2 vertices is a simplex, whose
        j-faces are its (j+1)-subsets; only the other faces are met with
        the facets (the simplicial case of Kaibel & Pfetsch 2002), so only
        they are kept with their vertex mask."""
        top = tuple(_bits(self.vmask))
        simplices, others = set(), {top: self.vmask}
        if len(top) == self.dim + 1:
            simplices, others = {top}, {}
        levels = {}
        for j in range(self.dim - 1, -1, -1):
            below, met = set(), {}
            for f in simplices:
                below.update(combinations(f, j + 1))
            for f, F in others.items():
                for m in self.meets(F):
                    met[tuple(i for i in f if m >> i & 1)] = m
            below.update(met)
            levels[j] = tuple(sorted(below))
            others = {f: m for f, m in met.items() if len(f) > j + 1}
            simplices = below.difference(others) if others else below
        return levels

    def triangulate(self, F, k, memo, cells):
        """Pulling triangulation of the k-face F: its smallest vertex coned
        over the triangulations of its facets that miss it; simplices are
        ascending index tuples."""
        out = cells.get(F)
        if out is None:
            idx = _bits(F)
            if len(idx) == k + 1:
                out = [tuple(idx)]
            else:
                apex = F & -F
                out = [(idx[0],) + s for G in self.subfaces(F, memo) if not G & apex
                       for s in self.triangulate(G, k - 1, memo, cells)]
            cells[F] = out
        return out

    def simplices(self):
        return tuple(self.triangulate(self.vmask, self.dim, {}, {}))


def _shadow_weight(cells, ints, den, N):
    """t with area vector t*N for the union of the (n-1)-simplices cells of
    a hyperplane with primitive normal N: the volume of their shadow along
    a coordinate k with N_k != 0, divided by |N_k|."""
    n = len(N)
    k = next(i for i, a in enumerate(N) if a)
    total = 0
    for s in cells:
        w0 = ints[s[0]]
        rows = [[a - b for a, b in zip(ints[i], w0)] for i in s[1:]]
        for r in rows:
            del r[k]
        total += abs(int_det(rows))
    return Fraction(total, abs(N[k]) * den ** (n - 1) * math.factorial(n - 1))


# ---------------------------------------------------------------------------
# the polytope class


@dataclass(frozen=True)
class FacetData:
    """One facet of a full-dimensional polytope.

    The area vector (outward unit normal times (n-1)-volume) equals
    weight * normal with a primitive integer normal, so every facet sum
    with matching normalization stays rational.
    """

    normal: tuple          # primitive integer outward normal
    offset: Fraction       # support value h_P(normal), >= 0
    weight: Fraction       # area vector = weight * normal


class Polytope:
    """Convex hull of rational points containing the origin.

    A body is one table of integer points over one positive denominator D
    (`iscale`): the generator points times D, sorted and without repeats,
    with D the least common denominator of their coordinates.  The table
    may hold non-extreme points until `vertices` prunes them.
    `Polytope(n, points)` scales rational points into the table; the
    constructors that already hold integers (JSON input, linear maps,
    scaling, reflection, polar bodies) fill it directly.

    Immutable after construction; vertices, facets, faces, triangulations
    and the Fraction views `points`, `vertices` and face tuples are
    computed on first request and cached.  The geometry all comes from one
    `_Hull` run on the table on first request and kept for the body's
    life: its facet normals and offsets are the body's facet table, and
    membership, dimension and the origin's location are read off it.
    """

    __slots__ = ("n", "_ints", "_den", "_pts", "_vidx", "_verts", "_hull", "_facets",
                 "_faces", "_fto", "_fview", "_tri", "_vol", "_surf", "_ops", "_hashv")

    def __init__(self, n, points, *, pruned=False):
        rows = [[_ratio(c) for c in p] for p in points]
        den = math.lcm(*(b for r in rows for _, b in r))
        self._fill(n, [tuple([a * (den // b) for a, b in r]) for r in rows], den, pruned)

    @classmethod
    def _from_ints(cls, n, rows, den, *, pruned=False):
        """The body of the points rows / den, for integer tuples rows (in
        any order, repeats allowed) over a positive integer den."""
        P = cls.__new__(cls)
        P._fill(n, rows, den, pruned)
        return P

    def _fill(self, n, rows, den, pruned):
        """Set the table to rows / den reduced: the gcd of den and every
        entry divided out, the rows sorted and without repeats."""
        g = den
        for r in rows:
            g = math.gcd(g, *r)
            if g == 1:
                break
        if g > 1:
            den //= g
            rows = [tuple([a // g for a in r]) for r in rows]
        ints = sorted(set(rows))
        if not ints:
            raise EmptyInputError("no points given")
        if any(len(p) != n for p in ints):
            raise DimensionMismatchError("point length mismatch")
        self.n = n
        self._ints = tuple(ints)
        self._den = den
        self._vidx = tuple(range(len(ints))) if (pruned or len(ints) <= 2) else None
        self._pts = self._verts = self._hull = None
        self._facets = self._faces = self._fto = self._fview = self._tri = None
        self._vol = self._surf = self._hashv = None
        self._ops = {}

    def _engine(self):
        if self._hull is None:
            self._hull = _Hull(self._ints)
        return self._hull

    def _views(self, faces):
        """Each index tuple of faces as the tuple of its points."""
        pts = self.points
        return tuple([tuple([pts[i] for i in f]) for f in faces])

    # -- basic geometry ----------------------------------------------------

    @property
    def points(self):
        """Generator points (may include non-extreme ones), as Fraction tuples."""
        if self._pts is None:
            den = self._den
            self._pts = tuple(tuple(Fraction(a, den) for a in p) for p in self._ints)
        return self._pts

    def _vertex_indices(self):
        """Indices of the vertices in the table, ascending."""
        if self._vidx is None:
            self._vidx = tuple(_bits(self._engine().vmask))
        return self._vidx

    @property
    def vertices(self):
        if self._verts is None:
            vidx, pts = self._vertex_indices(), self.points
            self._verts = pts if len(vidx) == len(pts) else tuple([pts[i] for i in vidx])
        return self._verts

    @property
    def dim(self):
        return self._engine().dim

    def iscale(self):
        """(integer point table, denominator D): point = ints / D."""
        return self._ints, self._den

    def support(self, x):
        """h(x) = max over the body of the inner product with x, exact."""
        if len(x) != self.n:
            raise DimensionMismatchError("vector length mismatch")
        return Fraction(max(dots(self._ints, x)), self._den)

    def contains(self, x):
        """Exact membership of x = z / s: whether D z / s, in the table's
        coordinates, lies in the hull."""
        if len(x) != self.n:
            raise DimensionMismatchError("vector length mismatch")
        z, s = int_vector(x)
        return self._engine().contains([self._den * c for c in z], s)

    def origin_location(self):
        """One of 'interior', 'relative-interior', 'relative-boundary', 'outside'.

        'interior' only for full-dimensional bodies; lower-dimensional
        bodies with the origin inside their relative interior report
        'relative-interior'.
        """
        h = self._engine()
        face = h.origin_face()
        if face is None:
            return "outside"
        if h.dim == 0:
            return "relative-interior"
        if face != h.vmask:
            return "relative-boundary"
        return "interior" if h.dim == self.n else "relative-interior"

    # -- facets and faces --------------------------------------------------

    def _facet_table(self):
        """(normals, offs, D): the engine's facets N . x <= off / D of a
        full-dimensional body, N the primitive outward normal, in ascending
        order of N, over the table's denominator D; empty for a flat body."""
        h = self._engine()
        if h.dim < self.n:
            return (), (), self._den
        return h.normals, h.offsets, self._den

    @property
    def facets(self):
        """FacetData list; empty for lower-dimensional bodies."""
        if self._facets is None:
            self._facets = self._compute_facets() if self.dim == self.n else ()
        return self._facets

    def _compute_facets(self):
        h = self._engine()
        n, ints, den = self.n, self._ints, self._den
        memo, cells = {}, {}
        return tuple(FacetData(normal=N, offset=Fraction(off, den),
                               weight=_shadow_weight(h.triangulate(m, n - 1, memo, cells),
                                                     ints, den, N))
                     for N, off, m in zip(h.normals, h.offsets, h.fmasks))

    def _face_table(self):
        """({j: the j-faces as ascending index tuples into `points`},
        {j: those holding the origin}, or None for the second when the
        origin is outside); filled once, the second sharing the tuples of
        the first."""
        if self._faces is None:
            h = self._engine()
            levels, origin = h.lattice(), h.origin_face()
            if origin is None or origin == h.vmask:
                # outside, or inside the relative interior: no proper face
                through = None if origin is None else {}
            else:
                o = frozenset(_bits(origin))
                through = {j: tuple(f for f in fs if o.issubset(f)) for j, fs in levels.items()}
            self._faces, self._fto = levels, through
        return self._faces, self._fto

    def face_lattice(self):
        """Proper faces by dimension: {j: (vertex tuples...)}, 0 <= j < dim."""
        if self._fview is None:
            self._fview = {j: self._views(fs) for j, fs in self._face_table()[0].items()}
        return dict(self._fview)

    def faces(self, j):
        return self.face_lattice().get(j, ())

    def faces_through_origin(self, j):
        """j-faces whose point set contains the origin."""
        return self._views(self.face_indices_through_origin(j))

    def face_indices_through_origin(self, j):
        """The j-faces containing the origin, as ascending index tuples
        into `points`."""
        through = self._face_table()[1]
        return () if through is None else through.get(j, ())

    # -- measures ----------------------------------------------------------

    def simplex_indices(self):
        """Full-dimensional triangulation as ascending index tuples into
        `points` (empty for lower-dimensional)."""
        if self._tri is None:
            self._tri = self._engine().simplices() if self.dim == self.n else ()
        return self._tri

    def triangulation(self):
        """Full-dimensional triangulation as vertex tuples (empty for
        lower-dimensional)."""
        return self._views(self.simplex_indices())

    @property
    def volume(self):
        if self._vol is None:
            if self.dim < self.n:
                self._vol = ZERO
            else:
                ints = self._ints
                total = 0
                for s in self.simplex_indices():
                    w0 = ints[s[0]]
                    total += abs(int_det([[a - b for a, b in zip(ints[i], w0)]
                                          for i in s[1:]]))
                self._vol = Fraction(total, self._den ** self.n * math.factorial(self.n))
        return self._vol

    def surface_atom(self):
        """For an (n-1)-dimensional body: (N, t) with area vector t*N.

        N is the primitive integer normal of the span (which passes through
        the origin), t > 0 rational, and t*|N| is the (n-1)-volume.
        """
        if self._surf is None:
            if self.dim != self.n - 1:
                raise DimensionMismatchError("surface atom needs dim == n-1")
            ints = self._ints
            (N,) = _kernel([[a - b for a, b in zip(p, ints[0])] for p in ints[1:]], self.n)
            t = _shadow_weight(self._engine().simplices(), self._ints, self._den, N)
            self._surf = (N, t)
        return self._surf

    # -- transforms --------------------------------------------------------

    def _generators(self):
        """(integer rows, pruned): the vertex rows when they are known,
        else every row of the table."""
        vidx, ints = self._vidx, self._ints
        if vidx is None:
            return ints, False
        return (ints if len(vidx) == len(ints) else [ints[i] for i in vidx]), True

    def map(self, A: LinearMap):
        if A.det == 0:
            raise SingularMapError("polytope image under singular map")
        if A.n != self.n:
            raise DimensionMismatchError("vector length mismatch")
        rows, pruned = self._generators()
        return Polytope._from_ints(self.n, [tuple(dots(A._ints, p)) for p in rows],
                                   A._den * self._den, pruned=pruned)

    def scale(self, s):
        s = frac(s)
        if s <= 0:
            raise ValueError("scale must be positive")
        rows, pruned = self._generators()
        a = s.numerator
        return Polytope._from_ints(self.n, [tuple(a * c for c in p) for p in rows],
                                   self._den * s.denominator, pruned=pruned)

    def reflect(self):
        rows, pruned = self._generators()
        return Polytope._from_ints(self.n, [tuple(-c for c in p) for p in rows], self._den,
                                   pruned=pruned)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polytope):
            return NotImplemented
        return self.n == other.n and self.vertices == other.vertices

    def __hash__(self):
        if self._hashv is None:
            self._hashv = hash((self.n, self.vertices))
        return self._hashv

    def __repr__(self):
        pts = self.points
        vs = ", ".join("(" + ", ".join(str(c) for c in v) + ")" for v in pts[:6])
        more = "..." if len(pts) > 6 else ""
        return f"Polytope(n={self.n}, [{vs}{more}])"


# ---------------------------------------------------------------------------
# construction and splitting


def convex_hull(points, n=None, require_origin=True):
    """Polytope from a point cloud; checks that the origin is inside."""
    pts = list(points)
    if not pts:
        raise EmptyInputError("no points given")
    return _origin_checked(Polytope(len(pts[0]) if n is None else n, pts), require_origin)


def _origin_checked(P, require_origin):
    if require_origin and P.origin_location() == "outside":
        raise OriginNotContainedError("hull does not contain the origin")
    return P


@dataclass(frozen=True)
class SplitCase:
    """A polytope cut by a hyperplane through the origin.

    lower/upper are the pieces on the two closed sides of the plane,
    section is the slice on the plane itself.  degenerate means the plane
    missed the relative interior, so one side is the whole body.
    """

    parent: Polytope
    normal: tuple
    lower: Polytope
    upper: Polytope
    section: Polytope
    degenerate: bool

    def quad(self):
        """(K, L, K union L, K intersect L) for valuation identities."""
        return (self.lower, self.upper, self.parent, self.section)


def halfspace_split(P, normal):
    """Split P by the hyperplane through the origin with the given normal."""
    a = vec(normal)
    if not any(a):
        raise DegenerateBasisError("zero normal")
    neg, pos, on = [], [], []
    for p in P.points:
        s = dot(a, p)
        if s < 0:
            neg.append(p)
        elif s > 0:
            pos.append(p)
        else:
            on.append(p)
    cross = []
    for u in neg:
        su = dot(a, u)
        for w in pos:
            t = su / (su - dot(a, w))
            cross.append(vadd(u, vscale(t, vsub(w, u))))
    lower = Polytope(P.n, neg + on + cross)
    upper = Polytope(P.n, pos + on + cross)
    section = Polytope(P.n, on + cross)
    return SplitCase(parent=P, normal=a, lower=lower, upper=upper,
                     section=section, degenerate=not (neg and pos))


def transform_phi(kind, lam, n, mode="exact"):
    """The four hyperplane-split transforms of the standard simplex battery.

    Kinds 1 and 2 are rational special-linear maps returned exactly.
    Kinds 3 and 4 carry an irrational dilation (1/lam)^(1/n) resp.
    (1/(1-lam))^(1/n); mode "float" returns them as nested float lists,
    mode "shear" drops the dilation and returns the exact rational shear
    (determinant lam resp. 1-lam).
    """
    lam = frac(lam)
    if not 0 < lam < 1:
        raise ValueError("lam must be strictly between 0 and 1")
    if n < 3:
        raise DimensionOutOfRangeError("transforms need n >= 3")
    cols = [list(unit_vec(n, i)) for i in range(n)]
    mixed = [lam if i == 0 else (1 - lam) if i == 1 else ZERO for i in range(n)]
    if kind == 1:
        cols[0] = mixed
        cols[n - 1] = [c / lam for c in cols[n - 1]]
    elif kind == 2:
        cols[1] = mixed
        cols[n - 1] = [c / (1 - lam) for c in cols[n - 1]]
    elif kind in (3, 4):
        cols[0 if kind == 3 else 1] = mixed
        shear = LinearMap.from_columns(cols)
        if mode == "shear":
            return shear
        if mode != "float":
            raise ValueError("kinds 3 and 4 are only available as 'float' or 'shear'")
        s = (1 / float(lam if kind == 3 else 1 - lam)) ** (1.0 / n)
        return [[s * float(a) for a in row] for row in shear.rows]
    else:
        raise ValueError("kind must be 1, 2, 3 or 4")
    return LinearMap.from_columns(cols)


def standard_simplex(d, n, s=1):
    """[o, s e_1, ..., s e_d] in R^n."""
    if not 1 <= d <= n:
        raise DimensionOutOfRangeError("need 1 <= d <= n")
    s = frac(s)
    if s <= 0:
        raise ValueError("scale must be positive")
    pts = [zero_vec(n)] + [vscale(s, unit_vec(n, i)) for i in range(d)]
    return Polytope(n, pts, pruned=True)


def hat_simplex(d, n, s=1):
    """[o, s e_1, s e_3, ..., s e_d]: the companion (d-1)-simplex of T^d."""
    if not 2 <= d <= n:
        raise DimensionOutOfRangeError("need 2 <= d <= n")
    s = frac(s)
    if s <= 0:
        raise ValueError("scale must be positive")
    idx = [0] + list(range(2, d))
    pts = [zero_vec(n)] + [vscale(s, unit_vec(n, i)) for i in idx]
    return Polytope(n, pts, pruned=True)


# ---------------------------------------------------------------------------
# projections


def project_onto_body(x, P):
    """x | P: orthogonal projection of x onto the linear hull of P, as
    B^t (B B^t)^-1 B x for the nonzero echelon rows B of P's points."""
    m, cols, _ = echelon(P._ints)
    B = m[:len(cols)]
    if not B:
        return zero_vec(P.n)
    z, s = int_vector(x)
    g, adj = _adjugate([dots(B, u) for u in B])
    y = dots(adj, dots(B, z))
    return tuple([Fraction(a, g * s) for a in dots(list(zip(*B)), y)])


# ---------------------------------------------------------------------------
# serialization


def polytope_to_json(P):
    return {
        "n": P.n,
        "vertices": [[str(c) for c in v] for v in P.vertices],
    }


def polytope_from_json(obj, require_origin=True):
    """The body of a `polytope_to_json` object (or of one with "mode":
    "float", whose coordinates are read as floats), as convex_hull checks
    it.  Coordinates go straight to the integer table, without Fractions."""
    try:
        n = int(obj["n"])
        raw = obj["vertices"]
    except (KeyError, TypeError) as e:
        raise GeometryError(f"bad polytope object: {e}") from None
    if obj.get("mode", "exact") == "float":
        raw = [[float(c) for c in row] for row in raw]
    return _origin_checked(Polytope(n, raw), require_origin)
