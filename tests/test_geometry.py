"""Exact polytope geometry: hulls, facets, splits, maps, serialization,
and the fraction-free elimination against the Fraction oracles."""

import gc
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from minkval.geometry import (
    convex_hull,
    DimensionMismatchError,
    dot,
    echelon,
    EmptyInputError,
    halfspace_split,
    hat_simplex,
    LinearMap,
    OriginNotContainedError,
    Polytope,
    polytope_from_json,
    polytope_to_json,
    SingularMapError,
    standard_simplex,
    transform_phi,
    unit_vec,
    vscale,
    zero_vec,
    _kernel,
)

from oracles import (
    facet_inequalities,
    in_facet_inequalities,
    mat_det,
    nullspace,
    rref,
    solve_linear,
)

F = Fraction


class TestHull:
    def test_interior_points_pruned(self):
        P = convex_hull([(0, 0), (2, 0), (0, 2), (1, 1), (F(1, 2), F(1, 2))])
        assert set(P.vertices) == {(0, 0), (2, 0), (0, 2)}

    def test_cube_vertices(self, cube3):
        assert len(cube3.vertices) == 8
        assert cube3.dim == 3

    def test_duplicate_points_collapse(self):
        P = convex_hull([(0, 0), (1, 0), (1, 0), (0, 1)])
        assert len(P.vertices) == 3

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            convex_hull([])

    def test_origin_required(self):
        with pytest.raises(OriginNotContainedError):
            convex_hull([(1, 0), (2, 0), (1, 1)])
        P = convex_hull([(1, 0), (2, 0), (1, 1)], require_origin=False)
        assert P.dim == 2

    def test_mixed_dimension_rejected(self):
        with pytest.raises(DimensionMismatchError):
            convex_hull([(0, 0), (1, 0, 0)])


class TestDimensionAndVolume:
    def test_simplex_dim_chain(self):
        for d in range(1, 5):
            assert standard_simplex(d, 4).dim == d

    def test_cube_volume(self, cube3):
        assert cube3.volume == 8

    def test_simplex_volume(self):
        for n in (2, 3, 4):
            T = standard_simplex(n, n)
            fact = 1
            for k in range(2, n + 1):
                fact *= k
            assert T.volume == F(1, fact)

    def test_scaling_volume(self, tri3):
        assert tri3.scale(F(1, 2)).volume == tri3.volume / 8

    def test_lower_dim_volume_zero(self, tri2in3):
        assert tri2in3.volume == 0

    def test_triangulation_volumes_add(self, cube3):
        total = F(0)
        for cell in cube3.triangulation():
            rows = [tuple(F(a) - F(b) for a, b in zip(v, cell[0]))
                    for v in cell[1:]]
            total += abs(mat_det(rows))
        assert total / 6 == cube3.volume


class TestSupport:
    def test_cube_support(self, cube3):
        assert cube3.support((1, 2, 3)) == 6
        assert cube3.support((-1, -2, -3)) == 6
        assert cube3.support((0, 0, 0)) == 0

    def test_simplex_support(self, tri3):
        assert tri3.support((1, 2, 3)) == 3
        assert tri3.support((-1, -1, -1)) == 0

    def test_rational_exactness(self):
        P = convex_hull([(0, 0), (F(1, 3), 0), (0, F(1, 7))])
        assert P.support((21, 0)) == 7
        assert P.support((0, 21)) == 3

    @given(st.tuples(*[st.integers(-20, 20)] * 3),
           st.tuples(*[st.integers(-20, 20)] * 3))
    @settings(max_examples=60, deadline=None)
    def test_subadditive(self, x, y):
        P = convex_hull([(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 1), (1, 1, 1)])
        xy = tuple(a + b for a, b in zip(x, y))
        assert P.support(xy) <= P.support(x) + P.support(y)

    @given(st.tuples(*[st.integers(-10, 10)] * 3), st.fractions(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_positive_homogeneity(self, x, lam):
        P = convex_hull([(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 1)])
        assert P.support(vscale(lam, x)) == lam * P.support(x)


class TestFacets:
    def test_normals_primitive_and_outward(self, cube3):
        assert len(cube3.facets) == 6
        for f in cube3.facets:
            g = 0
            for c in f.normal:
                g = abs(c) if g == 0 else __import__("math").gcd(g, abs(int(c)))
            assert g == 1
            assert f.offset == cube3.support(f.normal)

    def test_area_vectors_close(self, tri3):
        n = tri3.n
        total = zero_vec(n)
        for f in tri3.facets:
            total = tuple(t + f.weight * c for t, c in zip(total, f.normal))
        assert all(c == 0 for c in total)

    def test_facet_weights_cube(self, cube3):
        for f in cube3.facets:
            assert f.weight == 4

    def test_lower_dim_has_no_facets(self, tri2in3):
        assert tri2in3.facets == ()

    def test_surface_atom(self, tri2in3):
        N0, t = tri2in3.surface_atom()
        assert dot(N0, (1, 0, 0)) == 0 or N0 == (0, 0, 1)
        assert t == F(1, 2)


class TestOriginLocation:
    def test_interior(self, cube3):
        assert cube3.origin_location() == "interior"

    def test_boundary_vertex(self, tri3):
        assert tri3.origin_location() == "relative-boundary"

    def test_relative_interior(self):
        P = convex_hull([(-1, -1, 0), (2, 0, 0), (0, 2, 0)])
        assert P.origin_location() == "relative-interior"

    def test_relative_boundary(self, tri2in3):
        assert tri2in3.origin_location() == "relative-boundary"

    def test_outside(self):
        P = convex_hull([(1, 1), (2, 1), (1, 2)], require_origin=False)
        assert P.origin_location() == "outside"

    @pytest.mark.parametrize("pts", [[(1, 0, 1), (0, 1, 1)],
                                     [(-1, -1, 1), (2, 0, 1), (0, 2, 1)]])
    def test_outside_the_affine_hull(self, pts):
        """Flat bodies whose affine hull misses the origin, although their
        shadow on the hull's pivot coordinates holds it."""
        assert Polytope(3, pts).origin_location() == "outside"


class TestVectorLength:
    """A vector of the wrong length raises, as the fields and maps do."""

    def test_support(self, tri3):
        for x in ((1, 2), (1, 2, 3, 4)):
            with pytest.raises(DimensionMismatchError):
                tri3.support(x)

    def test_contains(self, tri3, tri2in3, cube3):
        # tri3 and cube3 answer from their cached facet table, the flat
        # tri2in3 and a fresh simplex from the hull engine
        assert tri3.facets and cube3.facets
        for P in (tri3, cube3, tri2in3, standard_simplex(3, 3)):
            for x in ((0, 0), (5,), (0, 0, 0, 0)):
                with pytest.raises(DimensionMismatchError):
                    P.contains(x)


class TestMembership:
    def test_contains(self, tri3):
        assert tri3.contains((F(1, 4), F(1, 4), F(1, 4)))
        assert not tri3.contains((1, 1, 1))

    def test_contains_flat(self, tri2in3):
        assert tri2in3.contains((F(1, 4), F(1, 4), 0))
        assert not tri2in3.contains((F(1, 4), F(1, 4), F(1, 2)))
        assert not tri2in3.contains((1, 1, 0))


class TestFaceLattice:
    @pytest.mark.parametrize("d", [0, 1])
    def test_point_and_segment(self, d):
        P = standard_simplex(1, 3) if d else Polytope(3, [(0, 0, 0)])
        assert P.dim == d
        assert P.face_lattice() == ({0: (((0, 0, 0),), ((1, 0, 0),))} if d else {})
        assert P.origin_location() == ("relative-boundary" if d else "relative-interior")
        assert P.facets == () and P.triangulation() == () and P.volume == 0

    def test_counts_simplex(self, tri3):
        for j in range(0, 3):
            from math import comb
            assert len(tri3.faces(j)) == comb(4, j + 1)

    def test_faces_through_origin(self, tri3):
        assert len(tri3.faces_through_origin(1)) == 3
        assert len(tri3.faces_through_origin(2)) == 3


class TestSplit:
    def test_volumes_add(self, cube3):
        sc = halfspace_split(cube3, (1, 2, 1))
        assert not sc.degenerate
        assert sc.lower.volume + sc.upper.volume == cube3.volume

    def test_section_flat(self, cube3):
        sc = halfspace_split(cube3, (1, 0, 0))
        assert sc.section.dim == 2
        for v in sc.section.vertices:
            assert v[0] == 0

    def test_no_crossing_degenerate(self, tri3):
        sc = halfspace_split(tri3, (1, 1, 1))
        assert sc.degenerate

    def test_pieces_inside_parent(self, tri3):
        sc = halfspace_split(tri3, (1, -1, 0))
        for piece in (sc.lower, sc.upper):
            for v in piece.vertices:
                assert tri3.contains(v)

    def test_quad_order(self, cube3):
        sc = halfspace_split(cube3, (0, 1, 1))
        K, L, U, I = sc.quad()
        assert U == cube3 and I == sc.section


class TestLinearMap:
    def test_det_and_inverse(self):
        A = LinearMap.from_columns([(2, 1), (1, 1)])
        assert A.det == 1
        assert A.is_sl
        B = A.inverse()
        assert (A @ B).rows == LinearMap.identity(2).rows

    def test_singular(self):
        A = LinearMap.from_columns([(1, 2), (2, 4)])
        with pytest.raises(SingularMapError):
            A.inverse()

    def test_map_volume_scaling(self, tri3):
        A = LinearMap([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
        assert tri3.map(A).volume == 8 * tri3.volume

    def test_transpose_roundtrip(self):
        """The transpose is built once and cached on the map."""
        A = LinearMap.from_columns([(1, 2, 0), (0, 1, F(5, 2)), (3, 0, 1)])
        T = A.transpose()
        assert T is A.transpose()
        assert T.rows == tuple(zip(*A.rows))
        assert A.transpose().transpose().rows == A.rows

    def test_transpose_holds_no_cycle(self):
        """A map does not hang off its transpose, so the map, its transpose
        and the probe images the transpose keeps go by reference count."""
        gc.collect()
        gc.disable()
        try:
            before = sum(type(o) is LinearMap for o in gc.get_objects())
            M = LinearMap([[1, 2], [0, 1]])
            M.transpose().images([(1, 2)])
            del M
            after = sum(type(o) is LinearMap for o in gc.get_objects())
        finally:
            gc.enable()
        assert after - before == 0


BIG = 10**6
rationals = st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG))
probe_entries = st.one_of(st.integers(-BIG, BIG), rationals)


@st.composite
def maps_and_probes(draw):
    """(rows, probe) in dims 2-5: rational entries up to 10^6 / 10^6, and
    an int, a Fraction or a mixed probe."""
    n = draw(st.integers(2, 5))
    rows = [[draw(rationals) for _ in range(n)] for _ in range(n)]
    entries = draw(st.sampled_from([st.integers(-BIG, BIG), rationals, probe_entries]))
    return rows, tuple(draw(entries) for _ in range(n))


def fraction_image(rows, x):
    return tuple(sum((F(a) * b for a, b in zip(r, x)), F(0)) for r in rows)


class TestLinearMapKernel:
    """The integer-row map against the Fraction dot product and the
    Fraction determinant."""

    @given(maps_and_probes())
    @settings(max_examples=150, deadline=None)
    def test_call_matches_fraction_dot(self, case):
        rows, x = case
        y = LinearMap(rows)(x)
        assert y == fraction_image(rows, x)
        assert all(type(c) is F for c in y)

    @given(maps_and_probes())
    @settings(max_examples=60, deadline=None)
    def test_float_probe_unchanged(self, case):
        rows, x = case
        xf = tuple(float(c) for c in x)
        y = LinearMap(rows)(xf)
        assert y == tuple(dot(tuple(F(a) for a in r), xf) for r in rows)
        assert all(type(c) is float for c in y)

    @given(maps_and_probes())
    @settings(max_examples=60, deadline=None)
    def test_det_matches_fraction_elimination(self, case):
        rows, _ = case
        A = LinearMap(rows)
        assert A.det == mat_det(rows) and type(A.det) is F
        assert A.transpose().det == A.det

    def test_singular_and_unimodular_det(self):
        assert LinearMap([[1, 2, 3], [2, 4, 6], [F(1, 3), 0, 1]]).det == 0
        A = LinearMap([[F(1, 2), 0], [F(7, 3), 2]])
        assert A.det == 1 and A.is_sl
        assert LinearMap.identity(4).det == 1

    def test_length_mismatch(self):
        A = LinearMap([[1, 2], [3, F(1, 2)]])
        for x in ((1, 2, 3), (F(1, 2),), (1.0, 2.0, 3.0)):
            with pytest.raises(DimensionMismatchError):
                A(x)

    def test_polytope_map_matches_fraction_images(self):
        P = Polytope(3, [(0, 0, 0), (F(1, 2), 0, 0), (0, F(2, 3), 1), (1, 1, F(-1, 5))])
        rows = [[2, F(1, 3), 0], [0, 1, F(-3, 7)], [F(5, 2), 0, 1]]
        Q = P.map(LinearMap(rows))
        assert Q.vertices == Polytope(3, [fraction_image(rows, v)
                                          for v in P.vertices]).vertices


class TestTrianglePair:
    def test_unimodular_exact(self):
        for kind in (1, 2):
            for lam in (F(1, 4), F(1, 2), F(2, 3)):
                A = transform_phi(kind, lam, 4)
                assert A.det == 1

    def test_shear_determinants(self):
        lam = F(1, 3)
        assert transform_phi(3, lam, 3, mode="shear").det == lam
        assert transform_phi(4, lam, 3, mode="shear").det == 1 - lam

    def test_float_mode(self):
        A = transform_phi(1, F(1, 2), 3, mode="float")
        assert A.det != 0


class TestSerialization:
    def test_round_trip(self, cube3):
        obj = polytope_to_json(cube3)
        Q = polytope_from_json(obj)
        assert Q == cube3

    def test_fraction_strings(self, tri3):
        obj = polytope_to_json(tri3.scale(F(1, 3)))
        assert any("/" in c for row in obj["vertices"] for c in row)
        Q = polytope_from_json(obj)
        assert Q.volume == tri3.volume / 27

    def test_float_mode_parse(self):
        obj = {"n": 2, "mode": "float",
               "vertices": [[0.0, 0.0], [0.5, 0.0], [0.0, 0.25]]}
        P = polytope_from_json(obj)
        assert P.support((2, 0)) == 1

    @staticmethod
    def with_coordinate(c, mode=None):
        """The body of (c, 1), (-1, -1) and (1, -1) as JSON input."""
        obj = {"n": 2, "vertices": [[c, 1], ["-1", -1], [1, "-1"]]}
        if mode is not None:
            obj["mode"] = mode
        return polytope_from_json(obj, require_origin=False)

    @pytest.mark.parametrize("c", [3, -7, 0, 2.5, -0.1, 1e-3, "+3/4", "-3/4", " 7/2 ",
                                   "0.5", "1e-3", "6/8", "-0", "\t12/5\n", "1_000/3",
                                   "5/1", "-.25"])
    def test_coordinates_read_as_fraction_reads_them(self, c):
        """JSON ints, floats and strings go straight to the integer table;
        the body is the one of the Fraction points."""
        P = self.with_coordinate(c)
        expected = Polytope(2, [(F(c), 1), (-1, -1), (1, -1)])
        assert P.points == expected.points and P.iscale() == expected.iscale()
        assert (F(c), F(1)) in P.points
        assert all(type(a) is F for p in P.points for a in p)

    @pytest.mark.parametrize("c", ["0.1", 0.1, "1/3", 3, "-2.5e-2"])
    def test_float_mode_reads_floats(self, c):
        if c == "1/3":
            with pytest.raises(ValueError):
                self.with_coordinate(c, mode="float")
            return
        P = self.with_coordinate(c, mode="float")
        assert (F(float(c)), F(1)) in P.points

    @pytest.mark.parametrize("c", ["3/-4", "1/0", "abc", "", "1/", "/2", "1 /2", "0/0",
                                   float("nan"), float("inf"), None, [1]])
    def test_bad_coordinates_raise_what_fraction_raises(self, c):
        with pytest.raises(Exception) as expected:
            F(c)
        with pytest.raises(Exception) as got:
            self.with_coordinate(c)
        assert type(got.value) is type(expected.value)

    @given(st.text(alphabet="0123456789+-/ ._eE", max_size=8))
    @settings(max_examples=400, deadline=None)
    def test_any_string_reads_as_fraction(self, c):
        try:
            expected = F(c)
        except Exception as exc:
            with pytest.raises(type(exc)):
                self.with_coordinate(c)
            return
        assert (expected, F(1)) in self.with_coordinate(c).points

    def test_json_shape_errors(self):
        with pytest.raises(EmptyInputError):
            polytope_from_json({"n": 2, "vertices": []})
        with pytest.raises(DimensionMismatchError):
            polytope_from_json({"n": 2, "vertices": [[0, 0], [1, 0, 0], [0, 1]]})
        with pytest.raises(DimensionMismatchError):
            polytope_from_json({"n": 3, "vertices": [[0, 0], [1, 0], [0, 1]]})
        with pytest.raises(OriginNotContainedError):
            polytope_from_json({"n": 2, "vertices": [["1", 1], [2, "1/2"], [1, 2]]})


class TestSmallHelpers:
    def test_hat_simplex_contains_origin(self):
        for d in (2, 3):
            H = hat_simplex(d, 3)
            assert H.contains(zero_vec(3))
            assert H.dim == d - 1

    def test_unit_vec(self):
        assert unit_vec(3, 1) == (0, 1, 0)


class TestHullEngine:
    @staticmethod
    def f_vector(P):
        return [len(P.faces(j)) for j in range(P.dim)]

    def test_five_cube(self):
        import itertools
        import time
        t0 = time.perf_counter()
        P = Polytope(5, list(itertools.product((-1, 1), repeat=5)))
        assert self.f_vector(P) == [32, 80, 80, 40, 10]
        assert len(P.facets) == 10
        assert P.volume == 32
        assert len(P.triangulation()) == 120
        assert time.perf_counter() - t0 < 2.0

    def test_six_cube_f_vector(self):
        import itertools
        P = Polytope(6, list(itertools.product((-1, 1), repeat=6)))
        assert self.f_vector(P) == [64, 192, 240, 160, 60, 12]

    @pytest.mark.parametrize("extra", [(0, 1, 1), (F(1, 2), F(1, 3), 1), (0, 0, F(-1, 2))])
    def test_boundary_point_pruned(self, cube3, extra):
        # an edge midpoint, a point inside a facet, a point inside the body
        P = convex_hull(list(cube3.vertices) + [extra])
        assert P.vertices == cube3.vertices
        assert P.facets == cube3.facets
        assert P.face_lattice() == cube3.face_lattice()
        assert P.volume == cube3.volume


@st.composite
def rational_clouds(draw):
    """Random rational point clouds in dims 2-5 holding the origin: in the
    interior (the centroid), on the boundary (the lexicographically smallest
    point, always a vertex), or inside a lower-dimensional body."""
    n = draw(st.integers(2, 5))
    where = draw(st.sampled_from(("interior", "boundary", "flat")))
    coord = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 6))
    if where == "flat":
        pts = [p[:-1] + (F(0),) for p in pts]
    if where == "boundary":
        o = min(pts)
    else:
        o = tuple(sum(c) / len(pts) for c in zip(*pts))
    return where, Polytope(n, [tuple(a - b for a, b in zip(p, o)) for p in pts])


class TestHullProperties:
    @given(rational_clouds())
    @settings(max_examples=80, deadline=None)
    def test_exact_identities(self, cloud):
        where, P = cloud
        n, d = P.n, P.dim
        assert n * P.volume == sum(f.offset * f.weight for f in P.facets)
        for i in range(n):
            assert sum(f.weight * f.normal[i] for f in P.facets) == 0
        # Euler: sum_{j<d} (-1)^j f_j = 1 - (-1)^d
        assert sum((-1) ** j * len(P.faces(j)) for j in range(d)) == 1 - (-1) ** d
        if d >= 1:
            assert len(P.faces(0)) == len(P.vertices)
        if d == n:
            assert len(P.faces(n - 1)) == len(P.facets)
        assert all(P.contains(p) for p in P.points)
        loc = P.origin_location()
        if d == 0:
            assert loc == "relative-interior"
        elif where == "boundary":
            assert loc == "relative-boundary"
        else:
            assert loc == ("interior" if d == n else "relative-interior")

    @given(rational_clouds(),
           st.lists(st.tuples(*[st.fractions(-5, 5, max_denominator=6)] * 5), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_contains_by_facets(self, cloud, xs):
        """A body whose facets are cached reads membership as its facet
        inequalities N . x <= offset do, and as a fresh body of the same
        points does."""
        _, P = cloud
        facets = P.facets
        for x in [x[:P.n] for x in xs] + list(P.points):
            got = P.contains(x)
            assert got == Polytope(P.n, P.points).contains(x)
            if P.dim == P.n:
                assert got == all(sum(a * b for a, b in zip(f.normal, x)) <= f.offset
                                  for f in facets), x

    @given(rational_clouds(),
           st.lists(st.one_of(st.tuples(*[st.integers(-5, 5)] * 5),
                              st.tuples(*[st.fractions(-5, 5, max_denominator=6)] * 5)),
                    max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_contains_matches_facet_oracle(self, cloud, drawn):
        """Membership of int, Fraction and str probes on full and flat
        bodies against the Fraction facet inequalities of their points,
        before and after every cache of the body is filled, and on a fresh
        body of the same points.  The probes are drawn ones, the points,
        the points pushed out and pulled in by 1/16 and, on a flat body,
        the drawn ones dropped into its span and the points lifted off
        it."""
        _, P = cloud
        n = P.n
        eqs, ineqs = facet_inequalities(P.points)
        xs = [x[:n] for x in drawn]
        for p in P.points:
            xs += [p, tuple(c * F(17, 16) for c in p), tuple(c * F(15, 16) for c in p)]
        if P.dim < n:
            xs += [x[:n - 1] + (0,) for x in drawn]
            xs += [p[:-1] + (F(1, 16),) for p in P.points]

        def check():
            for x in xs:
                want = in_facet_inequalities(eqs, ineqs, x)
                assert P.contains(x) == want, x
                assert Polytope(n, P.points).contains(x) == want, x
                assert P.contains(tuple(str(F(c)) for c in x)) == want, x
                if all(F(c).denominator == 1 for c in x):
                    assert P.contains(tuple(int(c) for c in x)) == want, x

        check()
        P.vertices, P.facets, P.face_lattice(), P.triangulation(), P.volume
        P.origin_location(), P.faces_through_origin(0)
        if P.dim == n - 1:
            P.surface_atom()
        check()

    @given(rational_clouds())
    @settings(max_examples=60, deadline=None)
    def test_against_qhull(self, cloud):
        np = pytest.importorskip("numpy")
        spatial = pytest.importorskip("scipy.spatial")
        _, P = cloud
        if P.dim < P.n:
            return
        hull = spatial.ConvexHull(np.array([[float(c) for c in v] for v in P.vertices]))
        vol = float(P.volume)
        assert abs(hull.volume - vol) <= 1e-9 * max(1.0, vol)
        planes = {tuple(np.round(eq, 8)) for eq in hull.equations}
        assert len(planes) == len(P.facets)


@st.composite
def int_matrices(draw, rows=(1, 7), cols=(1, 7)):
    """Integer matrices of shape rows x cols with entries up to 3 or up to
    10^12: some rows replaced by integer combinations of the others (rank
    deficient) or by zeros, a zero column, and a leading block of zeros
    that forces row swaps."""
    k, n = draw(st.integers(*rows)), draw(st.integers(*cols))
    entries = draw(st.sampled_from((st.integers(-3, 3), st.integers(-10 ** 12, 10 ** 12))))
    m = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(k)]
    for i in range(k):
        how = draw(st.sampled_from(("keep", "keep", "combine", "zero")))
        if how == "zero":
            m[i] = [0] * n
        elif how == "combine" and k > 1:
            c = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
            m[i] = [sum(a * r[j] for a, r in zip(c, m) if r is not m[i]) for j in range(n)]
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for r in m:
            r[j] = 0
    zr, zc = draw(st.integers(0, k)), draw(st.integers(0, n))
    for r in m[:zr]:
        r[:zc] = [0] * zc
    return m


class TestEchelon:
    """`echelon` and its readers against Fraction Gauss-Jordan."""

    @given(int_matrices())
    @settings(max_examples=300, deadline=None)
    def test_rref(self, rows):
        m, cols, d = echelon(rows)
        red, pivots = rref(rows)
        assert cols == pivots and d != 0
        assert [[d * a for a in r] for r in red] == m
        assert all(type(a) is int for r in m for a in r)

    @given(int_matrices())
    @settings(max_examples=300, deadline=None)
    def test_kernel(self, rows):
        """A basis of primitive integer vectors, one per free column, each
        the Fraction nullspace vector scaled."""
        n = len(rows[0])
        ker = _kernel(rows, n)
        assert len(ker) == n - len(rref(rows)[1])
        for v, w in zip(ker, nullspace(rows, n)):
            assert all(sum(a * b for a, b in zip(r, v)) == 0 for r in rows)
            assert math.gcd(*v) == 1
            s = math.lcm(*(a.denominator for a in w))
            g = math.gcd(*(int(a * s) for a in w))
            assert v == tuple(int(a * s) // g for a in w)

    @given(int_matrices(rows=(1, 7), cols=(1, 1)), st.data())
    @settings(max_examples=200, deadline=None)
    def test_solve(self, column, data):
        """The square system A x = b from the elimination of [A | b]: the
        last column over d, or no solution when A is singular."""
        k = len(column)
        A = data.draw(int_matrices(rows=(k, k), cols=(k, k)))
        m, cols, d = echelon([r + c for r, c in zip(A, column)])
        try:
            x = solve_linear(A, [c[0] for c in column])
        except SingularMapError:
            assert cols[:k] != list(range(k))
        else:
            assert cols[:k] == list(range(k))
            assert x == tuple(Fraction(r[k], d) for r in m)

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_linear_map_inverse(self, k, data):
        """Rational maps, singular ones included, against the Fraction
        Gauss-Jordan inverse."""
        nums = data.draw(int_matrices(rows=(k, k), cols=(k, k)))
        dens = data.draw(st.lists(st.integers(1, 10 ** 6), min_size=k * k, max_size=k * k))
        rows = [[F(a, dens[i * k + j]) for j, a in enumerate(r)] for i, r in enumerate(nums)]
        red, pivots = rref([r + [F(int(i == j)) for j in range(k)] for i, r in enumerate(rows)])
        A = LinearMap(rows)
        if pivots[:k] != list(range(k)):
            with pytest.raises(SingularMapError):
                A.inverse()
            return
        B = A.inverse()
        assert B.rows == tuple(tuple(r[k:]) for r in red)
        assert (A @ B).rows == LinearMap.identity(k).rows
