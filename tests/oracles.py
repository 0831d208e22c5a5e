"""Fraction oracles shared by the test modules."""

from fractions import Fraction


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
