"""Support-function evaluation and L_p algebra.

A `SupportEval` packages a positively homogeneous evaluation x -> value
together with its exponent p: for finite p the stored field is h(x)^p,
for p = inf it is h(x) itself.  An exact field is data (`FieldData`):
vertex-max terms, facet atoms and simplex cells with integer
coefficients over one denominator, evaluated in Python ints to one
Fraction per probe; sums and L_p combinations merge their operands'
data.  Signed powers and the subadditivity certification check live
here too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import index, mul
from typing import Callable, Optional

from .geometry import DimensionMismatchError, dots, frac, int_vector

INF = math.inf
_ZERO = Fraction(0)     # most probe values are 0; they share one object


class NegativeInputError(ValueError):
    pass


def normalize_p(p):
    """Canonical exponent: int when integral, Fraction otherwise, inf as inf."""
    if p == INF:
        return INF
    q = frac(p)
    if q < 1:
        raise ValueError("exponent must be >= 1")
    if q.denominator == 1:
        return int(q)
    return q


def as_int(p) -> Optional[int]:
    """p as a Python int when it is an integer, else None."""
    if p == INF:
        return None
    q = frac(p)
    return int(q) if q.denominator == 1 else None


def signed_power(a, p):
    """sgn(a) |a|^p; exact for rational a and integer p."""
    if p == INF:
        raise ValueError("signed power undefined at p = inf")
    neg = a < 0
    mag = -a if neg else a
    q = as_int(p)
    if q is not None and not isinstance(mag, float):
        r = frac(mag) ** q
    else:
        r = float(mag) ** float(p)
    return -r if neg else r


def signed_root(a, p):
    """sgn(a) |a|^(1/p); identity at p=1, float otherwise."""
    if p == INF:
        raise ValueError("signed root undefined at p = inf")
    if p == 1:
        return a
    neg = a < 0
    mag = -a if neg else a
    r = float(mag) ** (1.0 / float(p))
    return -r if neg else r


def _hq(z, q):
    """Complete homogeneous symmetric polynomial h_q(z), the divided
    difference of t -> t^(q + len(z) - 1) over the nodes z, from the power
    sums p_k of z: closed forms for q <= 3, Newton's identity k h_k =
    sum_i p_i h_(k-i) beyond.  Every division is exact."""
    if q == 1:
        return sum(z)
    if q == 0:
        return 1
    p1 = sum(z)
    p2 = sum(map(mul, z, z))
    if q == 2:
        return (p1 * p1 + p2) // 2
    pw = [a * a * a for a in z]
    p3 = sum(pw)
    if q == 3:
        return (p1 * (p1 * p1 + 3 * p2) + 2 * p3) // 6
    ps = [p1, p2, p3]
    for _ in range(4, q + 1):
        pw = list(map(mul, pw, z))
        ps.append(sum(pw))
    h = [1]
    for k in range(1, q + 1):
        h.append(sum(map(mul, ps[:k], reversed(h))) // k)
    return h[q]


def _pos_divdiff(z, m):
    """(num, den) of the divided difference of t -> max(t, 0)^m over the
    integer nodes z, for m >= len(z).

    The divided difference is a sum of one residue per distinct node u of
    multiplicity k: the coefficient of s^(k-1) in (u+s)^m over the product
    of (u-v+s)^k_v over the other nodes v.  t -> max(t, 0)^m and its first
    m - 1 derivatives vanish at every node u <= 0, so only the positive
    nodes contribute, each as for the polynomial t^m.
    """
    mult = {}
    for a in z:
        mult[a] = mult.get(a, 0) + 1
    num, den = 0, 1
    for u, k in mult.items():
        if u <= 0:
            continue
        if k == 1:
            tn, td = u ** m, 1
            for v, kv in mult.items():
                if v != u:
                    td *= (u - v) ** kv
        else:
            series = [math.comb(m, i) * u ** (m - i) for i in range(k)]
            td = 1
            for v, kv in mult.items():
                if v == u:
                    continue
                d = u - v
                # (d + s)^-kv = sum_j C(kv+j-1, j) (-s)^j d^(-kv-j), over d^(kv+k-1)
                fac = [math.comb(kv + j - 1, j) * (-1) ** j * d ** (k - 1 - j)
                       for j in range(k)]
                series = [sum(series[i] * fac[j - i] for i in range(j + 1))
                          for j in range(k)]
                td *= d ** (kv + k - 1)
            tn = series[k - 1]
        num = num * td + tn * den
        den *= td
    return num, den


def _cell(z, q, cp, cn):
    """(num, den) of cp D(z) + cn D(-z), D the divided difference of
    t -> max(t, 0)^(q + len(z) - 1); uses D(z) - (-1)^q D(-z) = h_q(z).
    A side with coefficient 0 is not computed."""
    if min(z) >= 0:
        return (cp * _hq(z, q) if cp else 0), 1
    if max(z) <= 0:
        return (cn * (-1) ** q * _hq(z, q) if cn else 0), 1
    m = q + len(z) - 1
    sign = (-1) ** q
    if len({a for a in z if a > 0}) <= len({a for a in z if a < 0}):
        pn, den = _pos_divdiff(z, m)
        if not cn:
            return cp * pn, den
        mn = sign * (_hq(z, q) * den - pn)
    else:
        mn, den = _pos_divdiff([-a for a in z], m)
        if not cp:
            return cn * mn, den
        pn = _hq(z, q) * den - sign * mn
    return cp * pn + cn * mn, den


@dataclass(frozen=True, slots=True, eq=False)
class FieldData:
    """Integer data of an exact field of integer degree q in the probe.

    At an integer probe x the field is total / den, where total sums three
    kinds of term with integer coefficients:

    - vertex-max terms (t, idx, cmax, cmin) over the point table
      points[t]: cmax M^q + cmin (-m)^q, with M and m the largest and the
      smallest x . v over the points idx (all of them when idx is None);
    - facet atoms (N, cp, cn) with N's first nonzero entry positive:
      cp t^q when t = x . N > 0 and cn (-t)^q when t < 0, so c |x . N| is
      (N, c, c) at q = 1 and c (x . N)_+^q is (N, c, 0);
    - simplex cells (verts, cp, cn): cp D(z) + cn D(-z), with z the values
      x . v at the n + 1 vertices and D the divided difference of
      t -> max(t, 0)^(q+n) (Baldoni, Berline, De Loera, Koeppe & Vergne,
      How to integrate a polynomial over a simplex, 2011).

    Every term has degree q in x, so a rational probe xi / s is evaluated
    at xi and divided by s^q.  guards are data that must be nonnegative at
    every probe: the operands of an L_p combination whose sign their own
    data does not settle.

    The indexed vertex-max terms of a table (the faces of a face-lattice
    sum) are evaluated by one sweep of its points per side: in descending
    order of x . v for the cmax side, ascending for the cmin side.  The
    terms a point is the first to cover have their extremum there, so
    each adds its coefficient times that point's value; the sweep stops
    once every term is covered.  Tied points give equal values, so the
    order among them does not matter.  sweeps holds, per table with
    vertex-max terms, the data of that sweep (see `_sweeps`).  The point
    tables and the cells' vertices are dotted with the probe by
    `geometry.dots`; the atoms, mostly one or two a field, each by one
    product sum, which costs less than a call for so few rows.
    """

    q: int
    den: int
    points: tuple
    hulls: tuple
    atoms: tuple
    cells: tuple
    guards: tuple
    sweeps: tuple = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "sweeps", _sweeps(self.points, self.hulls))

    @classmethod
    def build(cls, q, points=(), hulls=(), atoms=(), cells=(), guards=()):
        """Data from terms with rational coefficients.  Terms on the same
        point set, the same normal line or the same simplex are merged,
        zero terms dropped, and every coefficient is put over their least
        common denominator."""
        acc = ({}, {}, {})
        for t, idx, cmax, cmin in hulls:
            _add(acc[0], (t, idx), cmax, cmin)
        for N, cp, cn in atoms:
            if N < (0,) * len(N):       # the first nonzero entry is negative
                N, cp, cn = tuple(-a for a in N), cn, cp
            _add(acc[1], N, cp, cn)
        for verts, cp, cn in cells:
            _add(acc[2], verts, cp, cn)
        den = math.lcm(*{c.denominator for part in acc for pair in part.values() for c in pair})
        ints = [[(key, cp.numerator * (den // cp.denominator),
                  cn.numerator * (den // cn.denominator))
                 for key, (cp, cn) in part.items() if cp or cn] for part in acc]
        return cls(q, den, tuple(points),
                   tuple((t, idx, cmax, cmin) for (t, idx), cmax, cmin in ints[0]),
                   tuple(ints[1]), tuple(ints[2]), tuple(guards))

    @classmethod
    def merge(cls, weighted, guards=()):
        """Data of sum w * field over (w, data) pairs of one degree: one
        flat term list, point tables shared when they are equal."""
        q = weighted[0][1].q
        tables, hulls, atoms, cells, extra = [], [], [], [], list(guards)
        for w, d in weighted:
            if d.q != q:
                raise DimensionMismatchError("merged fields differ in degree")
            s = Fraction(w) / d.den
            tmap = []
            for table in d.points:
                k = next((i for i, u in enumerate(tables) if u is table or u == table), None)
                if k is None:
                    k = len(tables)
                    tables.append(table)
                tmap.append(k)
            hulls += [(tmap[t], idx, s * a, s * b) for t, idx, a, b in d.hulls]
            atoms += [(N, s * a, s * b) for N, a, b in d.atoms]
            cells += [(v, s * a, s * b) for v, a, b in d.cells]
            extra += d.guards
        return cls.build(q, tables, hulls, atoms, cells, extra)

    def reflect(self):
        """Data of x -> field(-x): the same construction on the reflected body."""
        return FieldData(self.q, self.den, self.points,
                         tuple((t, idx, b, a) for t, idx, a, b in self.hulls),
                         tuple((N, b, a) for N, a, b in self.atoms),
                         tuple((v, b, a) for v, a, b in self.cells),
                         tuple(g.reflect() for g in self.guards))

    def nonnegative(self):
        """Whether the terms alone show the field is >= 0 at every probe."""
        terms = self.atoms + self.cells
        return (all(a >= 0 and b >= 0 for _, a, b in terms)
                and all(a >= 0 and b >= 0 for _, _, a, b in self.hulls)
                and (self.q % 2 == 0 or not self.hulls))

    def __call__(self, x):
        """The field at probe x as one Fraction."""
        x, s = int_vector(x)
        if self.guards:
            for g in self.guards:
                if g.numerator(x)[0] < 0:
                    raise NegativeInputError("negative evaluation in L_p combination")
        num, den = self.numerator(x)
        if not num:
            return _ZERO
        return Fraction(num, self.den * den if s == 1 else self.den * den * s ** self.q)

    def numerator(self, x):
        """(num, den) with den > 0 and field(x) = num / (den * self.den),
        for an integer probe x."""
        q = self.q
        total = 0
        for t, whole, inc, tops, bottoms in self.sweeps:
            d = dots(self.points[t], x)
            if whole:
                cmax, cmin = whole
                if cmax:
                    total += cmax * max(d) ** q
                if cmin:
                    total += cmin * (-min(d)) ** q
            if inc:
                order = sorted(range(len(d)), key=d.__getitem__)
                if tops:
                    total += _sweep(reversed(order), d, inc, tops, q)
                if bottoms:
                    total += (-1) ** q * _sweep(order, d, inc, bottoms, q)
        for N, cp, cn in self.atoms:
            t = sum(map(mul, N, x))
            if t > 0:
                total += cp * t ** q
            elif t < 0:
                total += cn * (-t) ** q
        if not self.cells:
            return total, 1
        num, den = 0, 1
        for verts, cp, cn in self.cells:
            cnum, cden = _cell(dots(verts, x), q, cp, cn)
            if cden == 1:
                num += cnum * den
            else:
                num, den = num * cden + cnum * den, den * cden
        if den < 0:
            num, den = -num, -den
        return total * den + num, den


def _add(acc, key, a, b):
    old = acc.get(key)
    acc[key] = (a, b) if old is None else (old[0] + a, old[1] + b)


def _sweeps(points, hulls):
    """Per point table with vertex-max terms: (t, whole, inc, tops,
    bottoms).  whole is the summed (cmax, cmin) of the whole-table terms,
    or None.  The indexed terms of the table are numbered in order:
    inc[i] is the bitmask of those holding point i (None when there are
    none), and tops (bottoms) is (all, ((c, mask), ...)): the bitmask of
    the terms with a nonzero cmax (cmin) and one bitmask per distinct
    coefficient, or None when no term has one."""
    by_table = {}
    for t, idx, cmax, cmin in hulls:
        by_table.setdefault(t, []).append((idx, cmax, cmin))
    out = []
    for t, terms in by_table.items():
        wholes = [(cmax, cmin) for idx, cmax, cmin in terms if idx is None]
        indexed = [term for term in terms if term[0] is not None]
        inc, sides = [0] * len(points[t]), ({}, {})
        for k, (idx, cmax, cmin) in enumerate(indexed):
            for i in idx:
                inc[i] |= 1 << k
            for c, masks in zip((cmax, cmin), sides):
                if c:
                    masks[c] = masks.get(c, 0) | 1 << k
        out.append((t, tuple(map(sum, zip(*wholes))) if wholes else None,
                    tuple(inc) if indexed else None,
                    *((sum(m.values()), tuple(m.items())) if m else None for m in sides)))
    return tuple(out)


def _sweep(order, d, inc, side, q):
    """Sum over the terms of one side of c * d_i^q, d_i the value of the
    first point in order that the term holds: the max of the term's
    points when order descends, the min when it ascends."""
    rest, groups = side
    total = 0
    for i in order:
        new = inc[i] & rest
        if new:
            rest ^= new
            if d[i]:
                total += sum(c * (new & m).bit_count() for c, m in groups) * d[i] ** q
            if not rest:
                break
    return total


@dataclass(frozen=True, slots=True)
class SupportEval:
    """A p-homogeneous evaluation attached to a body construction.

    fn(x) returns the p-field value: h(x)^p for finite p, h(x) for p=inf.
    Exact fields at integer p (and p = inf) carry their FieldData as data
    and fn is that data; fractional-p fields carry a float or Monte-Carlo
    fn and no data.  exact means rational output on rational input.
    body_degree records how the construction scales in its body argument
    (h_{op(sP)} = s^degree h_{op(P)}), None when not applicable.
    """

    n: int
    p: object
    fn: Callable = None
    exact: bool = False
    body_degree: object = None
    data: Optional[FieldData] = None

    def __post_init__(self):
        if self.fn is None:
            if self.data is None:
                raise ValueError("a field needs fn or data")
            object.__setattr__(self, "fn", self.data)

    def value(self, x):
        """The stored p-field at x (h^p for finite p, h for p=inf)."""
        if len(x) != self.n:
            raise DimensionMismatchError("probe length mismatch")
        return self.fn(tuple(x))

    def support(self, x):
        """h(x); a signed p-th root of the field, so float for p >= 2."""
        v = self.value(x)
        if self.p == INF:
            return v
        return signed_root(v, self.p)

    __call__ = support

    @property
    def support_exact(self):
        """Whether support() stays rational on rational probes."""
        return self.exact and (self.p == 1 or self.p == INF)


def from_polytope(P, p=1):
    """Support evaluation of a polytope, raised to the p-field: one
    vertex-max term over the integer-scaled points."""
    p = normalize_p(p)
    q = 1 if p == INF else as_int(p)
    if q is None:
        return SupportEval(n=P.n, p=p, fn=lambda x, _p=float(p): float(P.support(x)) ** _p,
                           exact=False, body_degree=1)
    ints, den = P.iscale()
    data = FieldData.build(q, (ints,), [(0, None, Fraction(1, den ** q), 0)])
    return SupportEval(n=P.n, p=p, exact=True, body_degree=1, data=data)


def reflected(h):
    """The field x -> h(-x): for every construction here, the same
    construction on the reflected body."""
    kw = dict(n=h.n, p=h.p, exact=h.exact, body_degree=h.body_degree)
    if h.data is not None:
        return SupportEval(data=h.data.reflect(), **kw)
    return SupportEval(fn=lambda x: h.value(tuple(-c for c in x)), **kw)


def lp_combine(h1, h2, p, c1=1, c2=1):
    """L_p combination of two nonnegative evaluations with body weights.

    Result field is c1^p h1^p + c2^p h2^p (so its support function is the
    L_p sum of c1-scaled and c2-scaled bodies); for p=inf the pointwise
    max of c1 h1 and c2 h2.  Weights must be nonnegative; a negative
    operand evaluation surfaces as NegativeInputError at probe time.  At
    integer p the operands' data are merged into one term list, and an
    operand whose data does not show it nonnegative is kept as a guard.
    """
    if h1.n != h2.n:
        raise DimensionMismatchError("operand dimensions differ")
    c1 = frac(c1)
    c2 = frac(c2)
    if c1 < 0 or c2 < 0:
        raise NegativeInputError("combination weights must be nonnegative")
    p = normalize_p(p)
    n = h1.n
    if p == INF:
        def fn(x):
            a = h1.support(x)
            b = h2.support(x)
            if a < 0 or b < 0:
                raise NegativeInputError("negative evaluation in max combination")
            return max(c1 * a, c2 * b)
        return SupportEval(n=n, p=p, fn=fn, exact=h1.support_exact and h2.support_exact)
    if h1.p != p or h2.p != p:
        raise ValueError("operands must carry the combination exponent")
    q = as_int(p)
    if q is not None and h1.data is not None and h2.data is not None:
        guards = [h.data for h in (h1, h2) if not h.data.nonnegative()]
        data = FieldData.merge([(c1 ** q, h1.data), (c2 ** q, h2.data)], guards)
        return SupportEval(n=n, p=p, exact=True, data=data)
    if q is not None:
        w1, w2 = c1 ** q, c2 ** q
    else:
        w1, w2 = float(c1) ** float(p), float(c2) ** float(p)

    def fn(x):
        a = h1.value(x)
        b = h2.value(x)
        if a < 0 or b < 0:
            raise NegativeInputError("negative evaluation in L_p combination")
        return w1 * a + w2 * b
    return SupportEval(n=n, p=p, fn=fn, exact=h1.exact and h2.exact and q is not None)


def field_sum(terms, p, n, *, body_degree=None):
    """Weighted sum of p-field evaluations; weights may be negative.

    Internal workhorse for face-lattice and difference-type constructions
    whose fields are signed; not a body combination, so no sign checks.
    Operands with data are merged into one flat term list; operands
    without it (fractional p) are summed probe by probe.
    """
    p = normalize_p(p)
    if p == INF:
        raise ValueError("field sums need a finite exponent")
    prepared = [(frac(c), h) for c, h in terms]
    for _, h in prepared:
        if h.n != n or h.p != p:
            raise DimensionMismatchError("term shape mismatch")
    if prepared and all(h.data is not None for _, h in prepared):
        data = FieldData.merge([(c, h.data) for c, h in prepared])
        return SupportEval(n=n, p=p, exact=True, body_degree=body_degree, data=data)

    def fn(x):
        return sum(c * h.value(x) for c, h in prepared)

    return SupportEval(n=n, p=p, fn=fn, exact=all(h.exact for _, h in prepared),
                       body_degree=body_degree)


_ZEROS = {}


def constant_zero(n, p):
    """The field of the one-point body {o}, shared by every caller with
    the same (n, p)."""
    p = normalize_p(p)
    h = _ZEROS.get((n, p))
    if h is None:
        q = 1 if p == INF else as_int(p) or 1
        h = _ZEROS[n, p] = SupportEval(n=n, p=p, exact=True, data=FieldData.build(q))
    return h


# ---------------------------------------------------------------------------
# probe sets


def sign_patterns(n, include_zero_coords=True):
    """All vectors in {-1,0,1}^n except the origin (no zeros if disabled)."""
    vals = (-1, 0, 1) if include_zero_coords else (-1, 1)
    return [v for v in itertools.product(vals, repeat=n) if any(v)]


def special_vectors(n):
    """Curated integer probes known to separate face-lattice sums."""
    base = [(1, 3, 3, 2), (1, 3, 2, 3), (2, 6, 5, 5)]
    out = []
    for v in base:
        if len(v) == n:
            out.append(v)
            out.append(tuple(-c for c in v))
    return out


_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed):
    """The four 64-bit words of numpy's SeedSequence(seed).generate_state(4,
    uint64): the seed's 32-bit words hashed into a pool of four and mixed,
    then hashed out again (O'Neill's seed_seq_fe)."""
    seed = index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _M32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _M32)
    const = 0x43B0D7E5

    def hashmix(v):
        nonlocal const
        v ^= const
        const = const * 0x931E8875 & _M32
        v = v * const & _M32
        return v ^ v >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(e))
    const, words = 0x8B51F9DD, []
    for i in range(8):
        v = pool[i % 4] ^ const
        const = const * 0x58F38DED & _M32
        v = v * const & _M32
        words.append(v ^ v >> 16)
    return [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]


class _PCG64:
    """The bit stream of numpy.random.default_rng(seed) in Python ints.

    PCG64 is a 128-bit LCG with the XSL-RR output (O'Neill 2014), seeded
    from the SeedSequence words; a 32-bit draw uses the low half of a
    64-bit output and buffers the high half for the next one.  Bounded
    draws follow numpy's random_bounded_uint64_fill: Lemire's method
    (ACM TOMACS 2019) on 32-bit draws when the range fits 32 bits, on
    64-bit draws otherwise, and raw draws for a full-width range.
    """

    __slots__ = ("state", "inc", "half")

    def __init__(self, seed):
        s0, s1, i0, i1 = _seed_words(seed)
        self.inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        self.state = ((self.inc + (s0 << 64 | s1)) * _PCG_MULT + self.inc) & _M128
        self.half = None

    def next64(self):
        s = self.state = (self.state * _PCG_MULT + self.inc) & _M128
        rot = s >> 122
        v = (s >> 64) ^ (s & _M64)
        return (v >> rot | v << (64 - rot)) & _M64

    def next32(self):
        if self.half is not None:
            v, self.half = self.half, None
            return v
        v = self.next64()
        self.half = v >> 32
        return v & _M32

    def integers(self, low, high, size):
        """size draws from [low, high], as Generator.integers(low, high + 1,
        size) with its default int64 dtype."""
        rng = high - low
        if rng == 0:
            return [low] * size
        if rng == _M32 or rng == _M64:
            draw = self.next32 if rng == _M32 else self.next64
            return [low + draw() for _ in range(size)]
        bits, draw = (32, self.next32) if rng < _M32 else (64, self.next64)
        mask, excl = (1 << bits) - 1, rng + 1
        out = []
        for _ in range(size):
            m = draw() * excl
            if m & mask < excl:
                threshold = (mask - rng) % excl
                while m & mask < threshold:
                    m = draw() * excl
            out.append(low + (m >> bits))
        return out


def random_int_vectors(n, count, seed, bound=9):
    """Deterministic nonzero integer probes with entries in [-bound, bound]:
    the vectors numpy.random.default_rng(seed).integers(-bound, bound + 1,
    size=n) draws one after another, skipping the zero vector."""
    if not 1 <= bound < 1 << 63:
        raise ValueError("bound must be between 1 and 2^63 - 1")
    rng = _PCG64(seed)
    out = []
    while len(out) < count:
        v = tuple(rng.integers(-bound, bound, n))
        if any(v):
            out.append(v)
    return out


def probe_directions(n, count, seed=20260823):
    """Standard probe battery: sign patterns, curated vectors, random ints."""
    if count < 0:
        raise ValueError("probe count must be >= 0")
    probes = []
    if n <= 4:
        probes.extend(sign_patterns(n))
    else:
        probes.extend(sign_patterns(n, include_zero_coords=False))
    probes.extend(special_vectors(n))
    seen = set(probes)
    for v in random_int_vectors(n, max(0, count - len(probes)) + 8, seed):
        if v not in seen:
            seen.add(v)
            probes.append(v)
        if len(probes) >= count:
            break
    return probes[:count]


# ---------------------------------------------------------------------------
# certification checks


@dataclass(frozen=True)
class SubadditivityReport:
    passed: bool
    witness: Optional[tuple]   # (x, y, h(x), h(y), h(x+y)) at the worst violation
    samples: int
    tol: float
    seed: int

    def to_json(self):
        out = {
            "check": "subadditivity",
            "pass": self.passed,
            "samples": self.samples,
            "tol": self.tol,
            "seed": self.seed,
        }
        if self.witness is not None:
            x, y, hx, hy, hxy = self.witness
            out["witness"] = {
                "x": [str(c) for c in x],
                "y": [str(c) for c in y],
                "h_x": float(hx),
                "h_y": float(hy),
                "h_x_plus_y": float(hxy),
            }
        return out


def _violation(h, x, y, tol, exact):
    hx = h.support(x)
    hy = h.support(y)
    hxy = h.support(tuple(a + b for a, b in zip(x, y)))
    if exact:
        bad = hxy > hx + hy
        gap = hxy - hx - hy
    else:
        gap = float(hxy) - float(hx) - float(hy)
        bad = gap > tol
    return (bad, gap, (x, y, hx, hy, hxy))


def subadditivity_check(h, samples=200, tol=1e-9, seed=20260823):
    """Probe h(x+y) <= h(x) + h(y) on adversarial and random pairs.

    Adversarial set: all sign patterns (n <= 4), curated integer vectors,
    and their pairwise combinations against coordinate directions; checked
    exactly when the evaluation is exact at p=1.  Random set: seeded unit
    sphere pairs at the given tolerance (numpy's normal stream, so numpy is
    imported here rather than with the module).
    """
    import numpy as np

    n = h.n
    exact = h.support_exact
    adversarial = []
    patterns = sign_patterns(n) if n <= 4 else sign_patterns(n, False)
    patterns = patterns + special_vectors(n)
    for x in patterns:
        for y in patterns:
            adversarial.append((x, y))
    worst = None
    worst_gap = 0
    for x, y in adversarial:
        bad, gap, wit = _violation(h, x, y, tol, exact)
        if bad and gap > worst_gap:
            worst_gap, worst = gap, wit
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        u = rng.normal(size=n)
        v = rng.normal(size=n)
        x = tuple(Fraction(c).limit_denominator(10 ** 6) for c in u / np.linalg.norm(u))
        y = tuple(Fraction(c).limit_denominator(10 ** 6) for c in v / np.linalg.norm(v))
        bad, gap, wit = _violation(h, x, y, tol, exact=False)
        if bad and gap > worst_gap:
            worst_gap, worst = gap, wit
    return SubadditivityReport(passed=worst is None, witness=worst,
                               samples=samples + len(adversarial), tol=tol, seed=seed)
