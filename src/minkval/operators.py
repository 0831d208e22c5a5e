"""Valuation operators on polytopes containing the origin.

Projection-type maps (symmetric, origin-symmetrized, one-sided L_p and
L_inf), moment maps, face-lattice sums, generalized difference bodies,
and the classified operator families built from them.  Exact rational
evaluation wherever the exponent is an integer; Monte-Carlo fallback for
fractional moment exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .geometry import (
    DimensionMismatchError,
    GeometryError,
    OriginNotInteriorError,
    Polytope,
    RayOutsideBodyError,
    _spanned,
    dot,
    dots,
    frac,
    int_det,
    int_vector,
    vec,
    vscale,
    vsub,
    zero_vec,
)
from .supports import (
    INF,
    FieldData,
    SupportEval,
    as_int,
    constant_zero,
    field_sum,
    from_polytope,
    lp_combine,
    normalize_p,
    reflected,
    signed_power,
)


class LowerDimensionalError(GeometryError):
    pass


class OriginConditionViolatedError(GeometryError):
    pass


class ConstraintViolationError(ValueError):
    pass


class FamilyDimensionMismatchError(ValueError):
    pass


def _cache(P, key, build):
    if key not in P._ops:
        P._ops[key] = build()
    return P._ops[key]


# ---------------------------------------------------------------------------
# projection-type operators (contravariant)


def projection_body(P, strict=False):
    """Symmetric projection operator as a 1-field.

    h(x) is half the facet sum of |x . normal| weighted by facet measure.
    Lower-dimensional bodies carry the two-sided degenerate area measure,
    so a body of dimension n-1 still has a nonzero image (a segment body);
    anything flatter maps to {o}.  strict=True keeps the full-dimensional
    precondition and raises instead.
    """
    if P.dim < P.n and strict:
        raise LowerDimensionalError("projection operator needs a full-dimensional body")
    if P.dim < P.n - 1:
        return constant_zero(P.n, 1)

    def build():
        if P.dim == P.n:
            halves = [f.weight / 2 for f in P.facets]
            atoms = [(f.normal, c, c) for f, c in zip(P.facets, halves)]
        else:
            N0, t = P.surface_atom()
            atoms = [(N0, t, t)]
        return SupportEval(n=P.n, p=1, exact=True, body_degree=P.n - 1,
                           data=FieldData.build(1, atoms=atoms))
    return _cache(P, ("proj",), build)


def lp_projection_body(P, p, sign=1, strict=False):
    """One-sided L_p projection operator as a p-field.

    Field value: sum over facets off the origin of max{sign x . u, 0}^p
    times h(u)^(1-p) times facet measure; with primitive integer normals
    the normalizations cancel, so integer p stays rational.  Vanishes on
    lower-dimensional bodies (their support measure sits on the origin
    cone, which the defining domain excludes).
    """
    p = normalize_p(p)
    if p == INF:
        raise ValueError("use the vertex form for the limiting operator")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if strict and P.dim < P.n:
        raise LowerDimensionalError("one-sided projection needs a full-dimensional body")
    q = as_int(p)
    if q is not None and P.dim < P.n:
        return constant_zero(P.n, q)

    def build():
        n = P.n
        atoms = []
        for f in P.facets:
            if f.offset > 0:
                if q is not None:
                    c = f.weight / f.offset ** (q - 1)
                    atoms.append((f.normal, c, 0) if sign == 1 else (f.normal, 0, c))
                else:
                    atoms.append((f.normal, float(f.weight) * float(f.offset) ** (1.0 - float(p))))
        if q is not None:
            return SupportEval(n=n, p=q, exact=True, body_degree=Fraction(n, q) - 1,
                               data=FieldData.build(q, atoms=atoms))

        def fn(x):
            total = 0.0
            for N, c in atoms:
                s = sign * dot(x, N)
                if s > 0:
                    total += c * float(s) ** float(p)
            return total

        return SupportEval(n=n, p=p, fn=fn, exact=False, body_degree=n / float(p) - 1)
    return _cache(P, ("lp_proj", p, sign), build)


def origin_projection_body(P, strict=False):
    """Projection operator re-centered by the one-sided part (a 1-field).

    h = h_projection - h_one_sided(+); on [0,1]^3 this gives [-1,0]^3.
    """
    if strict and P.dim < P.n:
        raise LowerDimensionalError("origin projection needs a full-dimensional body")

    def build():
        return field_sum([(1, projection_body(P)), (-1, lp_projection_body(P, 1, 1))],
                         1, P.n, body_degree=P.n - 1)
    return _cache(P, ("proj_o",), build)


def _polar_table(P):
    """(rows, D): the point N / offset of every facet of P off the origin,
    as integer rows over one denominator D; the polar body and both L_inf
    projection bodies read it.  A facet N . x <= off / d of P's facet table
    gives N (d / g) / (off / g) with g = gcd(off, d), and since N is
    primitive, off / g is the least denominator of that point: over D, the
    lcm of those, the table is already reduced."""
    normals, offs, d = P._facet_table()
    pts = []
    for N, off in zip(normals, offs):
        if off > 0:
            g = math.gcd(off, d)
            pts.append((N, d // g, off // g))
    D = math.lcm(*(e for _, _, e in pts))
    return [tuple([a * (c * (D // e)) for a in N]) for N, c, e in pts], D


def _origin_hull(n, terms):
    """conv of the origin and the points c r / den for every (c, rows, den)
    in terms and r in rows, with c rational and rows / den an integer
    table: one integer table over the lcm of the c.denominator * den."""
    D = math.lcm(*(c.denominator * den for c, _, den in terms))
    out = [(0,) * n]
    for c, rows, den in terms:
        k = c.numerator * (D // (c.denominator * den))
        out += [tuple([k * a for a in r]) for r in rows]
    return Polytope._from_ints(n, out, D)


def linf_projection_body(P, sign=1):
    """Limiting one-sided projection operator, as a polytope.

    Hull of the origin and normal/offset for every facet off the origin.
    Lower-dimensional bodies map to {o}.  sign=-1 reflects through the
    origin.  Not cached on P: it is cheap to rebuild from P's cached facet
    table, and a cached body would live as long as P.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    n = P.n
    rows, D = _polar_table(P) if P.dim == n else ([], 1)
    if sign == -1:
        rows = [tuple(-a for a in r) for r in rows]
    return Polytope._from_ints(n, [(0,) * n] + rows, D)


def polar_body(K):
    """Dual body {y : y . v <= 1 for every vertex v}; requires the origin
    strictly inside.  Each facet N . x <= offset of K gives the vertex
    N / offset, so the result needs no pruning.  This shares its points
    with `linf_projection_body`; the harness certifies both by the
    bipolar identity polar_body(polar_body(K)) == K.
    """
    if K.origin_location() != "interior":
        raise OriginNotInteriorError("polar body needs the origin strictly inside")
    rows, D = _polar_table(K)
    return Polytope._from_ints(K.n, rows, D, pruned=True)


# ---------------------------------------------------------------------------
# moment-type operators (covariant)


def moment_body(P, p, sign=1, samples=200_000, seed=20260823):
    """One-sided moment operator as a p-field.

    Field value is the integral over the body of max{sign x . y, 0}^p.
    Integer p is exact: per triangulation simplex the integral reduces to
    a confluent divided difference of t -> max(t,0)^(p+n) at the vertex
    values of x . y, scaled by the simplex determinant; the simplices are
    the field's cells.  Fractional p falls back to the seeded Monte-Carlo
    estimate and is approximate.
    """
    p = normalize_p(p)
    if p == INF:
        raise ValueError("use the vertex form for the limiting operator")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    q = as_int(p)
    n = P.n

    if q is None:
        deg = n / float(p) + 1

        def fn_mc(x):
            return moment_field_mc(P, p, x, sign=sign, samples=samples, seed=seed)[0]

        return SupportEval(n=n, p=p, fn=fn_mc, exact=False, body_degree=deg)
    if P.dim < n:
        return constant_zero(n, q)

    def build():
        ints, den = P.iscale()
        scale = Fraction(math.factorial(q), math.factorial(q + n) * den ** (n + q))
        cells = []
        for simplex in P.simplex_indices():
            w = tuple(ints[i] for i in simplex)
            c = abs(int_det([[a - b for a, b in zip(w[i], w[0])] for i in range(1, n + 1)]))
            cells.append((w, c * scale, 0) if sign == 1 else (w, 0, c * scale))
        return SupportEval(n=n, p=q, exact=True, body_degree=Fraction(n, q) + 1,
                           data=FieldData.build(q, cells=cells))
    return _cache(P, ("moment", q, sign), build)


def moment_field_mc(P, p, x, sign=1, samples=100_000, seed=20260823):
    """Monte-Carlo estimate of the one-sided moment p-field at x.

    Returns (estimate, standard_error).  Sampling: pick a triangulation
    simplex with probability proportional to volume, then a uniform
    barycentric point.  Deterministic for fixed seed.  numpy is imported
    here rather than with the module, which needs it nowhere else.
    """
    import numpy as np

    if P.dim < P.n:
        return 0.0, 0.0
    n = P.n
    tri = P.triangulation()
    Vs = [np.array([[float(c) for c in v] for v in s]) for s in tri]
    vols = np.array([abs(np.linalg.det(V[1:] - V[0])) for V in Vs])
    vols /= vols.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(samples, vols)
    xf = np.array([float(c) for c in x]) * sign
    vals = np.empty(samples)
    pos = 0
    for V, cnt in zip(Vs, counts):
        if cnt == 0:
            continue
        W = rng.dirichlet(np.ones(n + 1), size=cnt)
        t = (W @ V) @ xf
        vals[pos:pos + cnt] = np.maximum(t, 0.0) ** float(p)
        pos += cnt
    vol = float(P.volume)
    est = vol * float(vals.mean())
    se = vol * float(vals.std(ddof=1)) / math.sqrt(samples)
    return est, se


def linf_moment_body(P, sign=1):
    """Limiting moment operator: the body itself when full-dimensional
    (its reflection for sign=-1), otherwise {o}."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if P.dim == P.n:
        return P if sign == 1 else P.reflect()
    return Polytope(P.n, [zero_vec(P.n)])


# ---------------------------------------------------------------------------
# face-lattice sums and difference bodies


def face_sum_valuation(P, p, a1, a2):
    """Alternating face-lattice sum as a p-field.

    lead * h_P^p + (a2-a1) * sum over 1 <= j < dim P of (-1)^j times the
    h^p sum over j-faces containing the origin, where lead is a1 for odd
    dim and 2 a2 - a1 for even dim.  The point body maps to the zero
    field.  Every face is a vertex-max term over an index list into the
    body's integer-scaled points.
    """
    p = normalize_p(p)
    if p == INF:
        raise ValueError("face sums need a finite exponent")
    a1 = frac(a1)
    a2 = frac(a2)
    n = P.n
    d = P.dim
    if d == 0:
        return constant_zero(n, p)
    q = as_int(p)
    lead = a1 if d % 2 == 1 else 2 * a2 - a1
    diff = a2 - a1
    levels = [(lead, (None,))]       # (coefficient, index lists of its faces)
    if diff != 0:
        levels += [(diff * (-1) ** j, P.face_indices_through_origin(j)) for j in range(1, d)]
    ints, den = P.iscale()
    if q is not None:
        hulls = []
        for c, faces in levels:
            c /= den ** q
            hulls += [(0, idx, c, 0) for idx in faces]
        data = FieldData.build(q, (ints,), hulls)
        return SupportEval(n=n, p=p, exact=True, body_degree=1, data=data)

    def fn(x):
        vals = dots(ints, x)
        total = 0.0
        for c, faces in levels:
            for idx in faces:
                h = max(vals) if idx is None else max(vals[i] for i in idx)
                if h:
                    total += c * float(Fraction(h, den)) ** float(p)
        return total

    return SupportEval(n=n, p=p, fn=fn, exact=False, body_degree=1)


def face_sum_closed_form(v0, d, m, x, p, a1, a2, b1, b2):
    """Closed form of the face-lattice sums of the simplex [v0, e1..e_d].

    Requires the origin in the relative interior of [v0, e1..e_m] (so v0
    has strictly negative entries in the first m coordinates and zeros
    elsewhere; m=0 forces v0 = o).  Returns the pair (value for the
    simplex with weights a1, a2; value for its reflection with b1, b2),
    evaluated at x with signed powers.
    """
    v0 = vec(v0)
    x = vec(x)
    n = len(x)
    if len(v0) != n or not 1 <= d <= n or not 0 <= m <= d:
        raise ValueError("bad shape arguments")
    ok = all(v0[i] < 0 for i in range(m)) and all(v0[i] == 0 for i in range(m, n))
    if not ok:
        raise OriginConditionViolatedError(
            "origin not in the relative interior of the base face")
    a1, a2, b1, b2 = frac(a1), frac(a2), frac(b1), frac(b2)

    def sp(t):
        return signed_power(t, p)

    alpha_set = [dot(v0, x)] + [x[i] for i in range(m)]
    al1 = sp(max(alpha_set))
    al2 = sp(min(alpha_set))
    if m == d:
        lead_a = a1 if d % 2 == 1 else 2 * a2 - a1
        lead_b = b1 if d % 2 == 1 else 2 * b2 - b1
        return lead_a * al1, lead_b * (-al2)
    beta_set = [x[i] for i in range(m, d)]
    be1 = sp(max(beta_set))
    be2 = sp(min(beta_set))
    sgn = (-1) ** m
    a_val = a2 * max(al1, be1) - sgn * (a2 - a1) * max(al1, be2) + sgn * (a2 - a1) * al1
    b_val = b2 * max(-al2, -be2) - sgn * (b2 - b1) * max(-al2, -be1) + sgn * (b2 - b1) * (-al2)
    return a_val, b_val


def _check_difference_params(a1, a2, b1, b2):
    if min(a1, a2, b1, b2) < 0:
        raise ConstraintViolationError("difference-body weights must be nonnegative")
    if a1 > a2 or b1 > b2:
        raise ConstraintViolationError("difference-body weights must be ordered")
    if a2 - a1 > b2 or b2 - b1 > a2:
        raise ConstraintViolationError("difference-body cross constraints violated")


def difference_body(P, a1, a2, b1, b2, checked=True):
    """Generalized difference body of a 3-dimensional-ambient body, as a 1-field.

    Sum of the face-lattice valuation of P with weights (a1, a2) and of
    the reflected body with weights (b1, b2).  checked mode enforces
    a1 <= a2, b1 <= b2, a2-a1 <= b2, b2-b1 <= a2 and nonnegativity, the
    exact region where the field stays a support function for every body.
    """
    if P.n != 3:
        raise FamilyDimensionMismatchError("difference body is a 3-dimensional construction")
    a1, a2, b1, b2 = frac(a1), frac(a2), frac(b1), frac(b2)
    if checked:
        _check_difference_params(a1, a2, b1, b2)
    fa = face_sum_valuation(P, 1, a1, a2)
    fb = reflected(face_sum_valuation(P, 1, b1, b2))
    return field_sum([(1, fa), (1, fb)], 1, P.n, body_degree=1)


def difference_body_simplex(T, a1, a2, b1, b2, checked=True):
    """Generalized difference body of a simplex [o, v1..vd], as a polytope.

    Vertex form: hull of a2 vi - b2 vj, a2 vi - (a2-a1) vj and
    (b2-b1) vi - b2 vj over all i, j; for d = 1 the segment
    [-b1 v1, a1 v1].
    """
    a1, a2, b1, b2 = frac(a1), frac(a2), frac(b1), frac(b2)
    if checked:
        _check_difference_params(a1, a2, b1, b2)
    verts = list(T.vertices)
    o = zero_vec(T.n)
    if o not in verts:
        raise OriginConditionViolatedError("simplex must have the origin as a vertex")
    vs = [v for v in verts if v != o]
    d = len(vs)
    if d != T.dim:
        raise ValueError("body is not a simplex with apex at the origin")
    if d == 0:
        return Polytope(T.n, [o])
    if d == 1:
        v1 = vs[0]
        return Polytope(T.n, [vscale(-b1, v1), vscale(a1, v1)])
    pts = []
    for vi in vs:
        for vj in vs:
            pts.append(vsub(vscale(a2, vi), vscale(b2, vj)))
            pts.append(vsub(vscale(a2, vi), vscale(a2 - a1, vj)))
            pts.append(vsub(vscale(b2 - b1, vi), vscale(b2, vj)))
    return Polytope(T.n, pts)


# ---------------------------------------------------------------------------
# radial function


def radial_function(P, x):
    """Largest lambda with lambda x in P, exact.

    Raises RayOutsideBodyError when the ray immediately leaves the body
    (the zero-radius case) or misses its affine span.  The probe is scaled
    to integers z / s once, and lambda = s min off / (D z . N) over the
    facets N . x <= off / D of the body's hull record with z . N > 0 is
    found by integer cross-multiplication.  A flat body's record is in the
    pivot coordinates `cols` of its span: the direction lies in the body's
    linear span when the lifted (0, z) lies in the record's span, and is
    then read at those coordinates.
    """
    if len(x) != P.n:
        raise DimensionMismatchError("vector length mismatch")
    z, s = int_vector(x)
    if not any(z):
        raise ValueError("direction must be nonzero")
    h = P._engine()
    if h.span:
        if not _spanned([0, *z], h.span):
            raise RayOutsideBodyError("ray leaves the linear span of the body")
        z = [z[c] for c in h.cols]
    num, den = None, 1      # the smallest off / (z . N) so far
    for t, off in zip(dots(h.normals, z), h.offsets):
        if t > 0 and (num is None or off * den < num * t):
            num, den = off, t
    if num is None:
        raise GeometryError("direction never exits the body")
    if num == 0:
        raise RayOutsideBodyError("ray exits the body at the origin")
    return Fraction(num * s, P._den * den)


# ---------------------------------------------------------------------------
# classified operator families


FAMILIES = (
    "l1_contravariant",
    "lp_contravariant",
    "linf_contravariant_pair",
    "hull_weighted",
    "lp_covariant",
    "covariant_l1_3d",
)


@dataclass(frozen=True)
class ValuationParams:
    """Coefficient bundle for a classified family.

    c: scalar weights (meaning depends on the family), a/b: ordered
    weight vectors (per-dimension for the hull family, pairs for the
    difference family).
    """

    p: object = 1
    c: tuple = ()
    a: tuple = ()
    b: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "p", normalize_p(self.p))
        object.__setattr__(self, "c", tuple(frac(v) for v in self.c))
        object.__setattr__(self, "a", tuple(frac(v) for v in self.a))
        object.__setattr__(self, "b", tuple(frac(v) for v in self.b))

    def to_json(self, family=None, mode="exact"):
        out = {
            "p": "inf" if self.p == INF else str(Fraction(self.p)),
            "coefficients": {
                "c": [str(v) for v in self.c],
                "a": [str(v) for v in self.a],
                "b": [str(v) for v in self.b],
            },
            "mode": mode,
        }
        if family is not None:
            out["family"] = family
        return out


def validate_params(family, params, n):
    """Family constraint check; raises on violation."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family: {family}")
    p, c, a, b = params.p, params.c, params.a, params.b
    if family == "l1_contravariant":
        if n < 3:
            raise FamilyDimensionMismatchError("family needs n >= 3")
        if len(c) != 3:
            raise ConstraintViolationError("need three weights")
        if c[0] < 0 or c[0] + c[1] + c[2] < 0:
            raise ConstraintViolationError("weights outside the admissible cone")
    elif family == "lp_contravariant":
        if n < 3:
            raise FamilyDimensionMismatchError("family needs n >= 3")
        if p == INF or p <= 1:
            raise ConstraintViolationError("family needs 1 < p < inf")
        if len(c) != 2 or min(c) < 0:
            raise ConstraintViolationError("need two nonnegative weights")
    elif family == "linf_contravariant_pair":
        if n < 3:
            raise FamilyDimensionMismatchError("family needs n >= 3")
        if len(c) != 2 or min(c) < 0:
            raise ConstraintViolationError("need two nonnegative weights")
    elif family == "hull_weighted":
        if n < 3:
            raise FamilyDimensionMismatchError("family needs n >= 3")
        if len(a) != n or len(b) != n:
            raise ConstraintViolationError("need weight vectors of length n")
        if a[0] < 0 or b[0] < 0:
            raise ConstraintViolationError("weights must be nonnegative")
        if any(a[i] > a[i + 1] for i in range(n - 1)) or \
           any(b[i] > b[i + 1] for i in range(n - 1)):
            raise ConstraintViolationError("weight vectors must be nondecreasing")
    elif family == "lp_covariant":
        if p == INF:
            raise ConstraintViolationError("family needs finite p")
        if p == 1 and n < 4:
            raise FamilyDimensionMismatchError("p = 1 needs n >= 4")
        if p > 1 and n < 3:
            raise FamilyDimensionMismatchError("family needs n >= 3")
        if len(c) != 4 or min(c) < 0:
            raise ConstraintViolationError("need four nonnegative weights")
    elif family == "covariant_l1_3d":
        if n != 3:
            raise FamilyDimensionMismatchError("family is specific to n = 3")
        if len(c) != 2 or min(c) < 0:
            raise ConstraintViolationError("need two nonnegative weights")
        if len(a) != 2 or len(b) != 2:
            raise ConstraintViolationError("need weight pairs a and b")
        if min(a) < 0 or min(b) < 0:
            raise ConstraintViolationError("weights must be nonnegative")
        _check_difference_params(a[0], a[1], b[0], b[1])


def classified_operator(family, params, mode="exact"):
    """Operator of a classified family as a map polytope -> field or body.

    mode "unchecked" skips the constraint validation so deliberately
    invalid weights can be probed for identity failures; the point body
    always maps to the zero field / {o}.
    """
    if not isinstance(params, ValuationParams):
        params = ValuationParams(**params)
    checked = mode != "unchecked"

    def op(P):
        if checked:
            validate_params(family, params, P.n)
        n = P.n
        if family == "l1_contravariant":
            c1, c2, c3 = params.c
            h = origin_projection_body(P)
            terms = [(c1, projection_body(P)), (c2, h), (c3, reflected(h))]
            return field_sum(terms, 1, n, body_degree=n - 1)
        if family == "lp_contravariant":
            h1 = lp_projection_body(P, params.p, 1)
            h2 = lp_projection_body(P, params.p, -1)
            return lp_combine(h1, h2, params.p, params.c[0], params.c[1])
        if family == "linf_contravariant_pair":
            # c1 linf_projection_body(P, 1) and c2 linf_projection_body(P, -1)
            c1, c2 = params.c
            rows, D = _polar_table(P) if P.dim == n else ([], 1)
            terms = []
            if c1 > 0:
                terms.append((c1, rows, D))
            if c2 > 0:
                terms.append((-c2, rows, D))
            return _origin_hull(n, terms)
        if family == "hull_weighted":
            d = P.dim
            terms = []
            if d > 0:
                ad, bd = params.a[d - 1], params.b[d - 1]
                ints, den = P.iscale()
                verts = [ints[i] for i in P._vertex_indices()]
                if ad > 0:
                    terms.append((ad, verts, den))
                if bd > 0:
                    terms.append((-bd, verts, den))
            return _origin_hull(n, terms)
        if family == "lp_covariant":
            p = params.p
            c1, c2, c3, c4 = params.c
            q = as_int(p)
            w = [v ** q if q is not None else float(v) ** float(p) for v in params.c]
            terms = []
            if w[0]:
                terms.append((w[0], moment_body(P, p, 1)))
            if w[1]:
                terms.append((w[1], moment_body(P, p, -1)))
            if w[2]:
                terms.append((w[2], from_polytope(P, p)))
            if w[3]:
                terms.append((w[3], reflected(from_polytope(P, p))))
            if not terms:
                return constant_zero(n, p)
            return field_sum(terms, p, n)
        if family == "covariant_l1_3d":
            c1, c2 = params.c
            a1, a2 = params.a
            b1, b2 = params.b
            terms = [(1, difference_body(P, a1, a2, b1, b2, checked=checked))]
            if c1:
                terms.append((c1, moment_body(P, 1, 1)))
            if c2:
                terms.append((c2, moment_body(P, 1, -1)))
            return field_sum(terms, 1, n)
        raise ValueError(f"unknown family: {family}")

    return op
