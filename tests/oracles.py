"""Oracles shared by the test modules: plain routes kept apart from the
library's kernels."""

import math
from fractions import Fraction
from itertools import combinations

from minkval.geometry import SingularMapError, _adjugate, _primitive, int_det
from minkval.supports import _cell


def mat_det(rows):
    """Determinant by Fraction Gaussian elimination: the plain rational
    route, kept apart from the library's integer `int_det`."""
    m = [[Fraction(a) for a in r] for r in rows]
    k = len(m)
    det = Fraction(1)
    for c in range(k):
        piv = next((i for i in range(c, k) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        lead = m[c][c]
        det *= lead
        for i in range(c + 1, k):
            if m[i][c] != 0:
                f = m[i][c] / lead
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def rref(rows):
    """Reduced row echelon form by Fraction Gauss-Jordan elimination:
    (rows, pivot columns), the plain rational route kept apart from the
    library's fraction-free `echelon`."""
    m = [[Fraction(a) for a in r] for r in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [a / m[r][c] for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def rank(rows):
    return len(rref(rows)[1])


def solve_linear(rows, rhs):
    """The solution of a square nonsingular system, in Fractions."""
    k = len(rows)
    red, pivots = rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if pivots != list(range(k)):
        raise SingularMapError("singular linear system")
    return tuple(red[i][k] for i in range(k))


def nullspace(rows, n):
    """A basis of {x in Q^n : rows . x = 0}: one vector per free column f,
    1 at f and 0 at the other free columns."""
    red, pivots = rref(rows)
    basis = []
    for f in range(n):
        if f not in pivots:
            v = [Fraction(0)] * n
            v[f] = Fraction(1)
            for r, c in enumerate(pivots):
                v[c] = -red[r][f]
            basis.append(tuple(v))
    return basis


def span_basis(points):
    """A maximal independent subset of points, the first that Fraction
    rank admits."""
    basis = []
    for p in points:
        if rank(basis + [p]) > len(basis):
            basis.append(p)
    return basis


def facet_inequalities(points):
    """(eqs, ineqs) with conv(points) = {x : e . x = 0 for e in eqs and
    a . x <= b for (a, b) in ineqs}, in Fractions, for points whose hull
    holds the origin, so that their linear span is their affine hull: eqs
    span the complement of that span, and every d points (d its dimension)
    whose differences leave one normal a inside the span give a . x <= b
    and -a . x <= b' with b, b' the maxima over the points.  Each inequality
    is valid, and each facet is spanned by d of the points."""
    pts = [tuple(Fraction(c) for c in p) for p in points]
    basis = span_basis(pts)
    d = len(basis)
    ineqs = set()
    for S in combinations(pts, d) if d else ():
        diffs = [[sum((a - b) * c for a, b, c in zip(p, S[0], u)) for u in basis]
                 for p in S[1:]]
        ns = nullspace(diffs, d)
        if len(ns) != 1:
            continue
        a = tuple(sum(c * u[i] for c, u in zip(ns[0], basis)) for i in range(len(pts[0])))
        for s in (1, -1):
            sa = tuple(s * c for c in a)
            ineqs.add((sa, max(sum(x * y for x, y in zip(sa, p)) for p in pts)))
    return nullspace(pts, len(pts[0])), ineqs


def in_facet_inequalities(eqs, ineqs, x):
    x = [Fraction(c) for c in x]
    return (all(sum(a * b for a, b in zip(e, x)) == 0 for e in eqs)
            and all(sum(c * y for c, y in zip(a, x)) <= b for a, b in ineqs))


def gram_coordinates(basis, v):
    """The coordinates of v in span(basis), from the Gram system."""
    gram = [[sum(a * b for a, b in zip(u, w)) for w in basis] for u in basis]
    return solve_linear(gram, [sum(a * b for a, b in zip(v, w)) for w in basis])


def gram_schmidt_projection(x, basis):
    """The orthogonal projection of x onto span(basis), by Gram-Schmidt in
    Fractions."""
    x = [Fraction(c) for c in x]
    out, ortho = [Fraction(0)] * len(x), []
    for b in basis:
        v = [Fraction(c) for c in b]
        for g in ortho:
            t = sum(a * c for a, c in zip(v, g)) / sum(c * c for c in g)
            v = [a - t * c for a, c in zip(v, g)]
        ortho.append(v)
        t = sum(a * c for a, c in zip(x, v)) / sum(c * c for c in v)
        out = [a + t * c for a, c in zip(out, v)]
    return tuple(out)


def int_cross(vectors):
    """Integer vector orthogonal to k independent integer vectors in Z^(k+1),
    by k + 1 cofactor determinants."""
    k = len(vectors)
    return [(-1) ** j * int_det([v[:j] + v[j + 1:] for v in vectors]) for j in range(k + 1)]


def vertex_max_numerator(data, x):
    """The vertex-max part of data.numerator(x) term by term: cmax M^q +
    cmin (-m)^q with M and m the max and min of x . v over each term's
    points, for an integer probe x."""
    total = 0
    for t, idx, cmax, cmin in data.hulls:
        table = data.points[t]
        d = [sum(a * b for a, b in zip(table[i], x))
             for i in (range(len(table)) if idx is None else idx)]
        total += cmax * max(d) ** data.q + cmin * (-min(d)) ** data.q
    return total


def field_value(data, x):
    """data.numerator(x) over its den, term by term: the vertex-max terms
    as above, each atom as cp t^q for t = x . N > 0 and cn (-t)^q for
    t < 0, and each cell from the plain dot products at its vertices."""
    total = Fraction(vertex_max_numerator(data, x))
    for N, cp, cn in data.atoms:
        t = sum(a * b for a, b in zip(N, x))
        if t > 0:
            total += cp * t ** data.q
        elif t < 0:
            total += cn * (-t) ** data.q
    for verts, cp, cn in data.cells:
        total += Fraction(*_cell([sum(a * b for a, b in zip(v, x)) for v in verts],
                                 data.q, cp, cn))
    return total


def hsym(z, q):
    """Complete homogeneous symmetric polynomial h_q(z) by the recurrence
    over the nodes, h_k <- h_k + a h_(k-1) for each node a: the plain
    route kept apart from the library's power-sum forms."""
    h = [1] + [0] * q
    for a in z:
        for k in range(1, q + 1):
            h[k] += a * h[k - 1]
    return h[q]


def int_vector(x):
    """(z, s) with x = z / s by the generic definition: a vector of ints
    as it is over 1, else the Fractions of x over the lcm of their
    denominators."""
    if all(type(c) is int for c in x):
        return x, 1
    x = [Fraction(c) for c in x]
    s = math.lcm(*(c.denominator for c in x))
    return [c.numerator * (s // c.denominator) for c in x], s


def inverse_columns(rows):
    """The columns of R^-1 for a nonsingular integer R, each primitive and
    with a positive dot product with its row of R: the columns of the
    adjugate of the (n+1) x (n+1) matrix, turned round when det R < 0.
    None when R is singular.  The library reads the start rays of its hull
    engine off the n x n edge matrix instead (`_start_rays`)."""
    adj = _adjugate(rows)
    if adj is None:
        return None
    s = 1 if adj[0] > 0 else -1
    return [_primitive([s * a for a in col]) for col in zip(*adj[1])]
