"""Oracles shared by the test modules: plain routes kept apart from the
library's kernels."""

from fractions import Fraction

from minkval.geometry import int_det


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
