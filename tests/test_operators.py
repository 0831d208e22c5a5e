"""Operator constructions checked against independent oracles.

The projection body is cross-checked against float shadow areas, the
moment body against a second integration route (complete homogeneous
symmetric polynomial over a triangulation of the positive piece), the
L_infinity projection against the dual hull, and the face-lattice sum
against its closed form.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from minkval.geometry import (
    convex_hull,
    DimensionMismatchError,
    halfspace_split,
    LinearMap,
    Polytope,
    standard_simplex,
    vneg,
    zero_vec,
)
from minkval.operators import (
    classified_operator,
    ConstraintViolationError,
    difference_body,
    difference_body_simplex,
    face_sum_closed_form,
    face_sum_valuation,
    FAMILIES,
    FamilyDimensionMismatchError,
    linf_moment_body,
    linf_projection_body,
    LowerDimensionalError,
    lp_projection_body,
    moment_body,
    moment_field_mc,
    OriginConditionViolatedError,
    origin_projection_body,
    OriginNotInteriorError,
    polar_body,
    projection_body,
    radial_function,
    RayOutsideBodyError,
    ValuationParams,
    validate_params,
)
from minkval.supports import INF, probe_directions, random_int_vectors

from oracles import mat_det

F = Fraction


def unit_cube01(n=3):
    import itertools
    return convex_hull(list(itertools.product((0, 1), repeat=n)))


def shadow_area(P, u):
    """Float area of the orthogonal projection of P onto u-perp (n=3)."""
    u = np.array([float(c) for c in u])
    u /= np.linalg.norm(u)
    seed = np.array([1.0, 0, 0]) if abs(u[0]) < 0.9 else np.array([0, 1.0, 0])
    b1 = np.cross(u, seed)
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(u, b1)
    pts = [(float(np.dot(b1, [float(c) for c in v])),
            float(np.dot(b2, [float(c) for c in v]))) for v in P.vertices]
    pts = sorted(set(pts))
    if len(pts) < 3:
        return 0.0
    # monotone chain hull, then the shoelace formula
    def half(seq):
        out = []
        for q in seq:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (q[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (q[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(q)
        return out[:-1]
    hull = half(pts) + half(pts[::-1])
    area = 0.0
    for i in range(len(hull)):
        x1, y1 = hull[i]
        x2, y2 = hull[(i + 1) % len(hull)]
        area += x1 * y2 - x2 * y1
    return abs(area) / 2


def hcomplete(p, vals):
    """Complete homogeneous symmetric polynomial of degree p."""
    h = [F(1)] + [F(0)] * p
    for v in vals:
        v = F(v)
        for k in range(1, p + 1):
            h[k] += v * h[k - 1]
    return h[p]


def moment_oracle(P, x, p):
    """Second route to the positive moment field: split, triangulate, sum."""
    sc = halfspace_split(P, x)
    piece = sc.upper if not sc.degenerate else (
        P if P.support(vneg(x)) <= 0 else None)
    if piece is None or piece.dim < P.n:
        return F(0)
    n = P.n
    fact_ratio = F(math.factorial(p), math.factorial(p + n))
    total = F(0)
    for cell in piece.triangulation():
        rows = [tuple(F(a) - F(b) for a, b in zip(v, cell[0])) for v in cell[1:]]
        det = abs(mat_det(rows))
        nodes = [sum(F(c) * F(vc) for c, vc in zip(x, v)) for v in cell]
        total += det * fact_ratio * hcomplete(p, nodes)
    return total


class TestProjectionBody:
    def test_unit_cube_is_l1(self):
        h = projection_body(unit_cube01())
        for x in probe_directions(3, 20):
            assert h.value(x) == sum(abs(F(c)) for c in x)

    def test_triangle_value(self):
        h = projection_body(standard_simplex(2, 2))
        assert h.value((1, 0)) == 1

    def test_shadow_area_oracle(self, tri3, cube3):
        for P in (tri3, cube3):
            h = projection_body(P)
            for u in [(1, 0, 0), (1, 1, 1), (2, -1, 3), (-1, 4, 1), (0, 1, -1)]:
                norm = math.sqrt(sum(c * c for c in u))
                assert float(h.value(u)) / norm == pytest.approx(
                    shadow_area(P, u), rel=1e-9)

    def test_origin_projection_unit_cube(self):
        h = origin_projection_body(unit_cube01())
        for x in probe_directions(3, 20):
            assert h.value(x) == sum(max(-F(c), 0) for c in x)

    def test_lower_dim_strict(self, tri2in3):
        with pytest.raises(LowerDimensionalError):
            projection_body(tri2in3, strict=True)

    def test_lower_dim_surface_pair(self, tri2in3):
        h = projection_body(tri2in3)
        assert h.value((0, 0, 1)) == F(1, 2)
        assert h.value((1, 0, 0)) == 0


class TestLpProjection:
    def test_unit_cube_p1_plus(self):
        h = lp_projection_body(unit_cube01(), 1, 1)
        for x in probe_directions(3, 20):
            assert h.value(x) == sum(max(F(c), 0) for c in x)

    def test_triangle_p1(self):
        h = lp_projection_body(standard_simplex(2, 2), 1, 1)
        for x in probe_directions(2, 15):
            assert h.value(x) == max(F(x[0]) + F(x[1]), 0)

    def test_minus_is_reflected_plus(self, cube3):
        hp = lp_projection_body(cube3, 2, 1)
        hm = lp_projection_body(cube3, 2, -1)
        for x in probe_directions(3, 15):
            assert hm.value(x) == hp.value(vneg(x))

    def test_field_homogeneity_exact(self, tri3):
        n = 3
        for p in (1, 2, 3):
            base = lp_projection_body(tri3, p, 1)
            for s in (F(1, 2), 2, 3):
                scaled = lp_projection_body(tri3.scale(s), p, 1)
                for x in ((1, 2, 3), (-1, 1, 2)):
                    assert scaled.value(x) == F(s) ** (n - p) * base.value(x)

    def test_fractional_p_float_route(self, cube3):
        h = lp_projection_body(cube3, F(3, 2), 1)
        assert not h.exact
        direct = 0.0
        for f in cube3.facets:
            nn = math.sqrt(sum(float(c) ** 2 for c in f.normal))
            off = float(f.offset) / nn
            if off <= 0:
                continue
            direct += max(1.0 * float(f.normal[0]) / nn, 0.0) ** 1.5 \
                * off ** (1 - 1.5) * float(f.weight) * nn
        assert h.value((1, 0, 0)) == pytest.approx(direct, rel=1e-12)

    def test_vanishes_lower_dim(self, tri2in3):
        h = lp_projection_body(tri2in3, 2, 1)
        assert all(h.value(x) == 0 for x in probe_directions(3, 10))


class TestLinfProjection:
    def test_simplex_segment(self):
        for n in (2, 3, 4):
            B = linf_projection_body(standard_simplex(n, n), 1)
            assert set(B.vertices) == {zero_vec(n), tuple(F(1) for _ in range(n))}

    def test_cube_is_cross_polytope(self, cube3):
        B = linf_projection_body(cube3, 1)
        expect = {tuple(F(s) if i == j else F(0) for j in range(3))
                  for i in range(3) for s in (1, -1)}
        assert set(B.vertices) == expect

    def test_matches_polar(self, cube3):
        assert linf_projection_body(cube3, 1) == polar_body(cube3)

    def test_lower_dim_origin(self, tri2in3):
        assert linf_projection_body(tri2in3, 1).vertices == (zero_vec(3),)

    def test_minus_reflects(self, cube3):
        Bp = linf_projection_body(cube3, 1)
        Bm = linf_projection_body(cube3, -1)
        assert set(Bm.vertices) == {vneg(v) for v in Bp.vertices}


class TestPolar:
    def test_requires_interior_origin(self, tri3):
        with pytest.raises(OriginNotInteriorError):
            polar_body(tri3)

    def test_double_polar(self, cube3):
        assert polar_body(polar_body(cube3)) == cube3

    def test_box_polar_vertices(self):
        box = convex_hull([(x, y, z) for x in (-1, 2) for y in (-1, 1)
                           for z in (-1, 1)])
        B = polar_body(box)
        assert (F(1, 2), 0, 0) in set(B.vertices)
        assert (-1, 0, 0) in set(B.vertices)


class TestMomentBody:
    def test_triangle_first_moment(self):
        h = moment_body(standard_simplex(2, 2), 1, 1)
        assert h.value((1, 0)) == F(1, 6)

    def test_square_first_moment(self):
        sq = convex_hull([(x, y) for x in (-1, 1) for y in (-1, 1)])
        h = moment_body(sq, 1, 1)
        assert h.value((1, 0)) == 1

    def test_vanishes_on_negative_side(self, tri3):
        h = moment_body(tri3, 2, 1)
        assert h.value((-1, -1, -1)) == 0

    def test_oracle_agreement(self, tri3, cube3):
        probes = random_int_vectors(3, 12, seed=11) + [(1, 1, 1), (-2, 1, 1)]
        for P in (tri3, cube3, unit_cube01()):
            for p in (1, 2, 3):
                h = moment_body(P, p, 1)
                for x in probes:
                    assert h.value(x) == moment_oracle(P, x, p)

    def test_minus_is_reflected_plus(self, tri3):
        hp = moment_body(tri3, 2, 1)
        hm = moment_body(tri3, 2, -1)
        for x in probe_directions(3, 12):
            assert hm.value(x) == hp.value(vneg(x))

    def test_field_homogeneity_exact(self, tri3):
        n = 3
        for p in (1, 2):
            base = moment_body(tri3, p, 1)
            for s in (F(1, 2), 2, 3):
                scaled = moment_body(tri3.scale(s), p, 1)
                for x in ((1, 2, 3), (1, -1, 0)):
                    assert scaled.value(x) == F(s) ** (n + p) * base.value(x)

    def test_vanishes_lower_dim(self, tri2in3):
        h = moment_body(tri2in3, 1, 1)
        assert all(h.value(x) == 0 for x in probe_directions(3, 10))

    def test_fractional_p_mc_flagged(self, tri3):
        h = moment_body(tri3, F(3, 2), 1, samples=4000, seed=3)
        assert not h.exact
        assert h.value((1, 1, 1)) > 0

    def test_mc_agrees_with_exact(self, tri3):
        exact = float(moment_body(tri3, 2, 1).value((1, 1, 1)))
        est, se = moment_field_mc(tri3, 2, (1, 1, 1), 1, samples=40_000, seed=9)
        assert abs(est - exact) <= 4 * se

    def test_linf_moment(self, tri3, tri2in3):
        assert linf_moment_body(tri3, 1) == tri3
        assert set(linf_moment_body(tri3, -1).vertices) == \
            {vneg(v) for v in tri3.vertices}
        assert linf_moment_body(tri2in3, 1).vertices == (zero_vec(3),)


class TestFaceSum:
    def test_simplex_minmax_form(self):
        for d in (1, 2, 3):
            T = standard_simplex(d, 3)
            for p in (1, 2):
                h = face_sum_valuation(T, p, 2, 5)
                for x in random_int_vectors(3, 25, seed=d * 10 + p):
                    b1 = max(x[:d])
                    b2 = min(x[:d])
                    sp = lambda t: F(t) ** p if t >= 0 else -(F(-t) ** p)
                    expect = 5 * max(sp(b1), 0) - 3 * max(sp(b2), 0)
                    assert h.value(x) == expect

    def test_e1_spot_values(self):
        e1 = (1, 0, 0, 0)
        for d in (2, 3, 4):
            T = standard_simplex(d, 4)
            va = face_sum_valuation(T, 1, 2, 7).value(e1)
            vb = face_sum_valuation(T.reflect(), 1, 1, 4).value(e1)
            assert va + vb == 7
        T1 = standard_simplex(1, 4)
        va = face_sum_valuation(T1, 1, 2, 7).value(e1)
        vb = face_sum_valuation(T1.reflect(), 1, 1, 4).value(e1)
        assert va + vb == 2

    def test_crosspolytope_edge_instance(self):
        P = convex_hull([(-1, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0),
                         (0, 0, 1, 0), (0, 0, 0, 1)])
        x = (1, 3, 3, 2)
        for a1, a2, b1, b2 in ((0, 1, 0, 0), (1, 3, 0, 5)):
            va = face_sum_valuation(P, 1, a1, a2).value(x)
            vb = face_sum_valuation(P.reflect(), 1, b1, b2).value(x)
            assert va + vb == 3 * a2 + 2 * (a2 - a1) - (a2 - a1) + b2

    def test_closed_form_instance(self):
        for a1, a2, b1, b2 in ((0, 1, 0, 0), (1, 3, 2, 5)):
            va, vb = face_sum_closed_form((-1, 0, 0, 0), 4, 1, (2, 6, 5, 5),
                                          1, a1, a2, b1, b2)
            assert va == 6 * a2 + 5 * (a2 - a1) - 2 * (a2 - a1)
            assert vb == 2 * b2

    def test_closed_form_matches_lattice(self):
        P = convex_hull([(-1, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0),
                         (0, 0, 1, 0), (0, 0, 0, 1)])
        ha = face_sum_valuation(P, 1, 1, 3)
        hb = face_sum_valuation(P.reflect(), 1, 2, 4)
        for x in random_int_vectors(4, 100, seed=17):
            va, vb = face_sum_closed_form((-1, 0, 0, 0), 4, 1, x, 1, 1, 3, 2, 4)
            assert (ha.value(x), hb.value(x)) == (va, vb)

    def test_origin_condition(self):
        with pytest.raises(OriginConditionViolatedError):
            face_sum_closed_form((1, 0, 0), 3, 1, (1, 1, 1), 1, 0, 1, 0, 1)

    def test_point_is_zero(self):
        pt = Polytope(3, [(0, 0, 0)])
        assert face_sum_valuation(pt, 1, 1, 3).value((1, 2, 3)) == 0


class TestDifferenceBody:
    def test_segment(self):
        T = standard_simplex(1, 3)
        D = difference_body_simplex(T, F(1, 2), 1, F(3, 4), F(3, 2))
        assert set(D.vertices) == {(F(-3, 4), 0, 0), (F(1, 2), 0, 0)}

    def test_constant_weights_minkowski(self, tri3):
        a, b = F(2), F(3)
        D = difference_body_simplex(tri3, a, a, b, b)
        for x in probe_directions(3, 20):
            assert D.support(x) == a * tri3.support(x) + b * tri3.support(vneg(x))

    def test_field_route_matches_vertex_route(self, tri3):
        h = difference_body(tri3, 1, 3, 2, 4)
        D = difference_body_simplex(tri3, 1, 3, 2, 4)
        for x in probe_directions(3, 30):
            assert h.value(x) == D.support(x)

    def test_sorted_max_form(self):
        a1, a2, b1, b2 = 1, 3, 2, 4
        for d in (2, 3):
            T = standard_simplex(d, 3)
            D = difference_body_simplex(T, a1, a2, b1, b2)
            for x in random_int_vectors(3, 30, seed=d):
                hi = max(x[:d])
                lo = min(x[:d])
                expect = max(a2 * hi - b2 * lo, a2 * hi - (a2 - a1) * lo,
                             (b2 - b1) * hi - b2 * lo)
                assert D.support(x) == expect

    def test_constraints(self, tri3):
        with pytest.raises(ConstraintViolationError):
            difference_body(tri3, 2, 1, 0, 1)      # a1 > a2
        with pytest.raises(ConstraintViolationError):
            difference_body(tri3, 0, 2, 0, 1)      # a2 - a1 > b2
        with pytest.raises(ConstraintViolationError):
            difference_body_simplex(tri3, 0, 1, 0, 2)  # b2 - b1 > a2

    def test_needs_dim_three(self):
        T4 = standard_simplex(4, 4)
        with pytest.raises(FamilyDimensionMismatchError):
            difference_body(T4, 1, 1, 1, 1)

    def test_origin_vertex_required(self):
        P = convex_hull([(-1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        with pytest.raises(OriginConditionViolatedError):
            difference_body_simplex(P, 1, 1, 1, 1)


class TestRadial:
    def test_cube(self, cube3):
        assert radial_function(cube3, (1, 0, 0)) == 1
        assert radial_function(cube3, (1, 1, 1)) == 1
        assert radial_function(cube3, (2, 0, 0)) == F(1, 2)

    def test_triangle(self):
        assert radial_function(standard_simplex(2, 2), (1, 1)) == F(1, 2)

    def test_polar_reciprocal(self, cube3):
        B = linf_projection_body(cube3, 1)
        for x in random_int_vectors(3, 20, seed=23):
            hv = max(sum(F(c) * F(v) for c, v in zip(x, vert))
                     for vert in B.vertices)
            assert hv * radial_function(cube3, x) == 1

    def test_lower_dim_in_span(self, tri2in3):
        assert radial_function(tri2in3, (1, 0, 0)) == 1

    def test_outside_span(self, tri2in3):
        with pytest.raises(RayOutsideBodyError):
            radial_function(tri2in3, (0, 0, 1))

    def test_length_mismatch(self, tri3, tri2in3):
        for P in (tri3, tri2in3):
            for x in ((1, 0), (1, 0, 0, 0)):
                with pytest.raises(DimensionMismatchError):
                    radial_function(P, x)


class TestClassifiedFamilies:
    def test_family_list(self):
        assert set(FAMILIES) == {
            "l1_contravariant", "lp_contravariant", "linf_contravariant_pair",
            "hull_weighted", "lp_covariant", "covariant_l1_3d"}

    def test_hull_weighted_zero_b_scales(self, tri3):
        op = classified_operator("hull_weighted",
                                 ValuationParams(p=INF, a=(1, 2, 3), b=(0, 0, 0)))
        assert op(tri3) == tri3.scale(3)
        assert op(standard_simplex(2, 3)) == standard_simplex(2, 3).scale(2)

    def test_linf_pair_single_side(self):
        T = standard_simplex(3, 3)
        op = classified_operator("linf_contravariant_pair",
                                 ValuationParams(p=INF, c=(1, 0)))
        assert set(op(T).vertices) == {(0, 0, 0), (1, 1, 1)}

    def test_lp_covariant_reflection_pair(self):
        T = standard_simplex(4, 4)
        op = classified_operator("lp_covariant",
                                 ValuationParams(p=2, c=(0, 0, 1, 1)))
        h = op(T)
        for x in probe_directions(4, 20):
            assert h.value(x) == T.support(x) ** 2 + T.support(vneg(x)) ** 2

    def test_l1_contravariant_composes(self, cube3):
        op = classified_operator("l1_contravariant",
                                 ValuationParams(p=1, c=(2, 1, 1)))
        h = op(cube3)
        base = projection_body(cube3)
        po = origin_projection_body(cube3)
        for x in probe_directions(3, 15):
            assert h.value(x) == 2 * base.value(x) + po.value(x) \
                + po.value(vneg(x))

    def test_validation_errors(self):
        with pytest.raises(ConstraintViolationError):
            validate_params("hull_weighted",
                            ValuationParams(p=INF, a=(1, 3, 2), b=(0, 0, 0)), 3)
        with pytest.raises(ConstraintViolationError):
            validate_params("lp_contravariant",
                            ValuationParams(p=2, c=(-1, 1)), 3)
        with pytest.raises(ConstraintViolationError):
            validate_params("l1_contravariant",
                            ValuationParams(p=1, c=(1, -3, 1)), 3)
        with pytest.raises(FamilyDimensionMismatchError):
            validate_params("lp_covariant",
                            ValuationParams(p=1, c=(1, 1, 1, 1)), 3)
        with pytest.raises(FamilyDimensionMismatchError):
            validate_params("covariant_l1_3d",
                            ValuationParams(p=1, c=(1, 1), a=(1, 1), b=(1, 1)), 4)

    def test_point_maps_to_point(self):
        pt = Polytope(3, [(0, 0, 0)])
        op = classified_operator("hull_weighted",
                                 ValuationParams(p=INF, a=(1, 2, 3), b=(1, 1, 1)))
        assert op(pt).vertices == (zero_vec(3),)


class TestEquivariance:
    def test_projection_contravariant(self, tri3):
        A = LinearMap.from_columns([(1, 0, 0), (2, 1, 0), (1, 1, 1)])
        assert A.is_sl
        Ainv = A.inverse()
        left = projection_body(tri3.map(A))
        right = projection_body(tri3)
        for x in probe_directions(3, 15):
            assert left.value(x) == right.value(Ainv(x))

    def test_moment_covariant(self, tri3):
        A = LinearMap.from_columns([(1, 1, 0), (0, 1, 0), (2, 0, 1)])
        At = A.transpose()
        left = moment_body(tri3.map(A), 2, 1)
        right = moment_body(tri3, 2, 1)
        for x in probe_directions(3, 15):
            assert left.value(x) == right.value(At(x))
