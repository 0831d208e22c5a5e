"""Differential tests of the integer kernels.

Every exact field is evaluated from its integer data (vertex-max terms,
facet atoms, simplex cells over one denominator).  Here each kernel is
checked against a plain Fraction formula of the same field, evaluated
probe by probe from the body's geometry, on random rational bodies with
the origin in the interior, on a vertex, on the boundary, or inside a
lower-dimensional body, and with large numerators and denominators.
The facet-side kernels (the radial function, the polar body and the
face lattice) are checked the same way against the Fraction minimum,
the Fraction enumeration and the quadratic maximal-meet rule.  Bodies
whose constructors fill the integer point table directly are checked
against the same body built from its Fraction points, and `int_det`
against Fraction elimination.
"""

import itertools
import math
from fractions import Fraction
from operator import mul
from types import SimpleNamespace

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from minkval.geometry import (
    GeometryError,
    LinearMap,
    Polytope,
    RayOutsideBodyError,
    SingularMapError,
    OriginNotInteriorError,
    _bits,
    _Hull,
    _primitive,
    _start_rays,
    convex_hull,
    dot,
    dots,
    echelon,
    halfspace_split,
    int_det,
    int_vector,
    polytope_from_json,
    project_onto_body,
    standard_simplex,
)
from minkval.operators import (
    _polar_table,
    classified_operator,
    difference_body,
    face_sum_valuation,
    linf_projection_body,
    lp_projection_body,
    moment_body,
    origin_projection_body,
    polar_body,
    projection_body,
    radial_function,
)
from minkval.supports import FieldData, _cell, _hq, _pos_divdiff, lp_combine, reflected

from oracles import (
    field_value,
    gram_coordinates,
    gram_schmidt_projection,
    hsym,
    int_cross,
    int_vector as int_vector_oracle,
    inverse_columns,
    mat_det,
    nullspace,
    rank,
    solve_linear,
    span_basis,
    vertex_max_numerator,
)

F = Fraction


# ---------------------------------------------------------------------------
# Fraction oracles: the fields as sums over faces, facets and simplices


def h(P, x):
    return max(dot(x, v) for v in P.points)


def face_sum_oracle(P, q, a1, a2, x):
    d = P.dim
    if d == 0:
        return F(0)
    a1, a2 = F(a1), F(a2)
    lead = a1 if d % 2 == 1 else 2 * a2 - a1
    total = lead * h(P, x) ** q
    for j in range(1, d):
        for fv in P.faces_through_origin(j):
            total += (a2 - a1) * (-1) ** j * h(Polytope(P.n, fv, pruned=True), x) ** q
    return total


def projection_oracle(P, x):
    if P.dim == P.n:
        return sum((f.weight / 2 * abs(dot(x, f.normal)) for f in P.facets), F(0))
    if P.dim == P.n - 1:
        N, t = P.surface_atom()
        return t * abs(dot(x, N))
    return F(0)


def lp_projection_oracle(P, q, sign, x):
    total = F(0)
    for f in P.facets:
        s = sign * dot(x, f.normal)
        if f.offset > 0 and s > 0:
            total += f.weight / f.offset ** (q - 1) * s ** q
    return total


def origin_projection_oracle(P, x):
    return projection_oracle(P, x) - lp_projection_oracle(P, 1, 1, x)


def _pospow(t, q):
    return F(0) if t <= 0 else F(t) ** q


def divdiff_oracle(nodes, q):
    """Divided difference of t -> max(t,0)^q by the recursive table."""
    z = sorted(nodes)
    col = [_pospow(t, q) for t in z]
    for j in range(1, len(z)):
        col = [math.comb(q, j) * _pospow(z[i], q - j) if z[i + j] == z[i]
               else (col[i + 1] - col[i]) / (z[i + j] - z[i])
               for i in range(len(z) - j)]
    return col[0]


def moment_oracle(P, q, sign, x):
    """Integral of max(sign x . y, 0)^q over P, simplex by simplex:
    n! vol q!/(q+n)! times the divided difference at the vertex values."""
    n = P.n
    if P.dim < n:
        return F(0)
    total = F(0)
    for s in P.triangulation():
        det = abs(mat_det([[a - b for a, b in zip(v, s[0])] for v in s[1:]]))
        nodes = [sign * dot(x, v) for v in s]
        total += det * F(math.factorial(q), math.factorial(q + n)) \
            * divdiff_oracle(nodes, q + n)
    return total


def polar_oracle(K):
    """The C(V, n) enumeration in Fractions."""
    out = []
    for S in itertools.combinations(K.vertices, K.n):
        try:
            y = solve_linear(list(S), [F(1)] * K.n)
        except SingularMapError:
            continue
        if all(dot(y, v) <= 1 for v in K.vertices):
            out.append(y)
    return Polytope(K.n, out, pruned=True)


def radial_oracle(P, x):
    """The smallest offset / (x . N) over the facets with x . N > 0, in
    Fractions, or the error radial_function raises: GeometryError when
    there is no such facet, RayOutsideBodyError when the minimum is 0."""
    x = tuple(F(c) for c in x)
    best = None
    for f in P.facets:
        t = dot(x, f.normal)
        if t > 0 and (best is None or f.offset / t < best):
            best = f.offset / t
    if best is None:
        return GeometryError
    return RayOutsideBodyError if best == 0 else best


def flat_radial_oracle(P, x):
    """The radial function of a flat body by the Gram route: the body and
    x in the coordinates of a basis of P's linear span, each solved from
    the Gram system, and radial_oracle there; RayOutsideBodyError when x
    is off the span."""
    basis = span_basis(P.points)
    if rank(basis + [x]) > len(basis):
        return RayOutsideBodyError
    Q = Polytope(len(basis), [gram_coordinates(basis, v) for v in P.points])
    return radial_oracle(Q, gram_coordinates(basis, x))


def subfaces_oracle(h, F):
    """The facets of the face F by the quadratic rule: the meets of F with
    the body's facets that no other meet contains."""
    meets = {F & G for G in h.fmasks} - {0, F}
    return sorted((m for m in meets if not any(m != e and m & e == m for e in meets)),
                  key=_bits)


def lattice_oracle(h):
    levels, level = {}, [h.vmask]
    for j in range(h.dim - 1, -1, -1):
        below = set()
        for F in level:
            below.update(subfaces_oracle(h, F))
        level = levels[j] = sorted(below, key=_bits)
    return levels


# ---------------------------------------------------------------------------
# random bodies


def _shift(pts, o):
    return [tuple(a - b for a, b in zip(p, o)) for p in pts]


@st.composite
def bodies(draw, dims=(3, 4), wheres=("interior", "vertex", "boundary", "flat")):
    """(where, body): the origin in the interior (the centroid), on a vertex
    (the lexicographically smallest point), on the boundary (a piece of a
    split of an interior body through the origin), or in a flat body.
    Coordinates are fractions with numerators and denominators up to
    10^6."""
    n = draw(st.sampled_from(dims))
    where = draw(st.sampled_from(wheres))
    coord = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6)
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 3,
                        unique=True))
    if where == "flat":
        k = draw(st.integers(1, n - 1))
        pts = [p[:k] + (F(0),) * (n - k) for p in pts]
        mix = draw(st.tuples(*[st.integers(-3, 3)] * n))
        pts = [p[:-1] + (p[-1] + sum(m * c for m, c in zip(mix, p)),) for p in pts]
    centroid = tuple(sum(c) / len(pts) for c in zip(*pts))
    if where == "vertex":
        P = Polytope(n, _shift(pts, min(pts)))
    else:
        P = Polytope(n, _shift(pts, centroid))
    if where == "boundary":
        normal = draw(st.tuples(*[st.integers(-3, 3)] * n).filter(any))
        P = halfspace_split(P, normal).upper
    return where, P


# The tests on bodies() and on generated field data report a failing
# example as drawn, without shrinking it: shrinking replays the hull and
# the Fraction oracles, or the field, for thousands of candidates, so a
# failing kernel took minutes to report.
AS_DRAWN = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)

probes = st.lists(st.tuples(*[st.integers(-9, 9)] * 5).filter(any), min_size=3, max_size=6)
rational_probe = st.tuples(*[st.fractions(-5, 5, max_denominator=7)] * 5)
big_probe = st.tuples(*[st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 6)] * 5)


def probe_set(n, ints, *rats):
    return [x[:n] for x in ints if any(x[:n])] + [r[:n] for r in rats]


def assert_same(field, oracle, xs):
    for x in xs:
        v = field.value(x)
        assert type(v) is Fraction
        assert v == oracle(x), x


# ---------------------------------------------------------------------------
# the kernels against their oracles


class TestKernels:
    @given(bodies(), probes, rational_probe,
           st.sampled_from([(1, 3), (2, 5), (F(1, 3), F(7, 2)), (F(-2, 9), 0)]))
    @settings(max_examples=40, deadline=None, phases=AS_DRAWN)
    def test_face_sum(self, body, ints, rat, weights):
        _, P = body
        xs = probe_set(P.n, ints, rat)
        for q in (1, 2, 3):
            assert_same(face_sum_valuation(P, q, *weights),
                        lambda x: face_sum_oracle(P, q, *weights, x), xs)

    @given(bodies(), probes, rational_probe)
    @settings(max_examples=40, deadline=None, phases=AS_DRAWN)
    def test_projections(self, body, ints, rat):
        _, P = body
        xs = probe_set(P.n, ints, rat)
        assert_same(projection_body(P), lambda x: projection_oracle(P, x), xs)
        assert_same(origin_projection_body(P), lambda x: origin_projection_oracle(P, x), xs)
        for q in (1, 2, 3):
            for sign in (1, -1):
                assert_same(lp_projection_body(P, q, sign),
                            lambda x: lp_projection_oracle(P, q, sign, x), xs)

    @given(bodies(), probes, rational_probe)
    @settings(max_examples=30, deadline=None, phases=AS_DRAWN)
    def test_moment(self, body, ints, rat):
        _, P = body
        xs = probe_set(P.n, ints, rat)
        for q in (1, 2, 3):
            for sign in (1, -1):
                assert_same(moment_body(P, q, sign),
                            lambda x: moment_oracle(P, q, sign, x), xs)

    @given(bodies(), probes, rational_probe)
    @settings(max_examples=30, deadline=None, phases=AS_DRAWN)
    def test_merged_composites(self, body, ints, rat):
        _, P = body
        n = P.n
        xs = probe_set(n, ints, rat)
        R = P.reflect()
        l1 = classified_operator("l1_contravariant", {"c": (2, 1, -1)})
        assert_same(l1(P), lambda x: 2 * projection_oracle(P, x)
                    + origin_projection_oracle(P, x) - origin_projection_oracle(R, x), xs)
        lpc = classified_operator("lp_contravariant", {"p": 2, "c": (1, F(3, 2))})
        assert_same(lpc(P), lambda x: lp_projection_oracle(P, 2, 1, x)
                    + F(9, 4) * lp_projection_oracle(P, 2, -1, x), xs)
        for q in (1, 2) if n >= 4 else (2,):
            cov = classified_operator("lp_covariant", {"p": q, "c": (1, 2, F(1, 2), 3)})
            assert_same(cov(P), lambda x: moment_oracle(P, q, 1, x)
                        + 2 ** q * moment_oracle(P, q, -1, x)
                        + F(1, 2) ** q * h(P, x) ** q + 3 ** q * h(R, x) ** q, xs)
        if n == 3:
            assert_same(difference_body(P, 1, 2, F(1, 2), 2),
                        lambda x: face_sum_oracle(P, 1, 1, 2, x)
                        + face_sum_oracle(R, 1, F(1, 2), 2, x), xs)
            c3 = classified_operator("covariant_l1_3d",
                                     {"c": (1, 2), "a": (1, 2), "b": (1, 2)})
            assert_same(c3(P), lambda x: face_sum_oracle(P, 1, 1, 2, x)
                        + face_sum_oracle(R, 1, 1, 2, x)
                        + moment_oracle(P, 1, 1, x) + 2 * moment_oracle(P, 1, -1, x), xs)

    @given(st.lists(st.integers(-6, 6), min_size=2, max_size=6), st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_divided_difference(self, nodes, extra):
        m = len(nodes) - 1 + extra + 1
        num, den = _pos_divdiff(nodes, m)
        assert F(num, den) == divdiff_oracle(nodes, m)

    @given(bodies(dims=(2, 3, 4, 5), wheres=("interior",)))
    @settings(max_examples=30, deadline=None, phases=AS_DRAWN)
    def test_polar_body(self, body):
        _, P = body
        if P.dim == P.n:
            Q = polar_body(P)
            assert Q == polar_oracle(P)
            # the polar's points come over their least common denominator
            rows, D = _polar_table(P)
            assert Q.iscale() == (tuple(sorted(rows)), D) == table_oracle(Q.points)

    @given(bodies(), probes, rational_probe)
    @settings(max_examples=20, deadline=None, phases=AS_DRAWN)
    def test_reflection_is_the_field_at_minus_x(self, body, ints, rat):
        _, P = body
        xs = probe_set(P.n, ints, rat)
        fields = [moment_body(P, 2, 1), lp_projection_body(P, 3, -1),
                  origin_projection_body(P), face_sum_valuation(P, 2, 1, 3),
                  classified_operator("lp_contravariant", {"p": 2, "c": (1, 2)})(P)]
        for f in fields:
            assert_same(reflected(f), lambda x: f.value(tuple(-c for c in x)), xs)


def _cube(n):
    return [tuple(F(c) for c in v) for v in itertools.product((-1, 1), repeat=n)]


def _cross(n):
    return [tuple(F(s) if j == i else F(0) for j in range(n)) for i in range(n) for s in (-1, 1)]


def _prism(base):
    return [tuple(F(c) for c in p) + (F(h),) for p in base for h in (-1, 1)]


def _cut_corner(n):
    """The cube [-1, 1]^n with the corner (1, ..., 1) cut off at 1/2: a
    simplex facet among cube facets that lose their corner."""
    one = (F(1),) * n
    return [v for v in _cube(n) if v != one] + [one[:i] + (F(1, 2),) + one[i + 1:]
                                                for i in range(n)]


_SQUARE = [(F(a), F(b), F(0)) for a in (-1, 1) for b in (-1, 1)]


class TestFacetSideKernels:
    @staticmethod
    def check_radial(P, xs, oracle):
        for x in xs:
            if not any(x):
                continue
            expected = oracle(P, x)
            if isinstance(expected, type):
                with pytest.raises(expected) as err:
                    radial_function(P, x)
                assert type(err.value) is expected
            else:
                v = radial_function(P, x)
                assert type(v) is Fraction and v == expected, x

    @given(bodies(dims=(2, 3, 4, 5)), probes, rational_probe, big_probe, st.data())
    @settings(max_examples=80, deadline=None, phases=AS_DRAWN)
    def test_radial_function(self, body, ints, rat, big, data):
        """Full-dimensional bodies against the Fraction minimum over the
        facets; flat ones against the Gram route, at probes off their span
        and at integer combinations of their points, with the origin inside
        and moved to a vertex."""
        _, P = body
        xs = probe_set(P.n, ints, rat, big)
        if P.dim == P.n:
            self.check_radial(P, xs, radial_oracle)
            return
        m = len(P.points)
        for _ in range(3):
            c = data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
            xs.append(tuple(sum(a * p[j] for a, p in zip(c, P.points)) for j in range(P.n)))
        self.check_radial(P, xs, flat_radial_oracle)
        self.check_radial(Polytope(P.n, _shift(P.points, min(P.points))), xs,
                          flat_radial_oracle)

    def test_flat_radial_builds_projection_once(self, monkeypatch):
        """A flat body reads its own hull record and builds no projected
        body, on any call; every value still matches the Gram route."""
        built = []
        from_ints = Polytope._from_ints.__func__

        def spy(cls, n, rows, den, **kw):
            built.append(n)
            return from_ints(cls, n, rows, den, **kw)

        P = standard_simplex(2, 3)
        monkeypatch.setattr(Polytope, "_from_ints", classmethod(spy))
        xs = [(1, 1, 0), (2, 1, 0), (1, 0, 0), (0, 3, 0), (F(1, 2), F(1, 3), 0),
              (-1, 2, 0), (1, 1, 1), (0, 0, -1)]
        for _ in range(3):
            self.check_radial(P, xs, flat_radial_oracle)
        assert built == []

    @given(bodies(dims=(2, 3, 4), wheres=("flat",)))
    @settings(max_examples=40, deadline=None, phases=AS_DRAWN)
    def test_surface_atom(self, body):
        """The normal of a flat (n-1)-body against the Fraction nullspace of
        its difference rows, scaled to a primitive integer vector with the
        same sign: positive at its free coordinate."""
        _, P = body
        assume(P.dim == P.n - 1)
        pts = P.points
        (g,) = nullspace([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]], P.n)
        s = math.lcm(*(a.denominator for a in g))
        v = [int(a * s) for a in g]
        N, t = P.surface_atom()
        assert N == tuple(a // math.gcd(*v) for a in v)
        assert type(t) is Fraction and t > 0

    @given(bodies(dims=(2, 3, 4)), probes, rational_probe)
    @settings(max_examples=40, deadline=None, phases=AS_DRAWN)
    def test_project_onto_body(self, body, ints, rat):
        """The projection onto the linear hull of oblique flat bodies, split
        pieces and full-dimensional bodies against Fraction Gram-Schmidt on
        a basis of the body's points."""
        _, P = body
        basis = span_basis(P.points)
        for x in probe_set(P.n, ints, rat):
            y = project_onto_body(x, P)
            assert all(type(c) is Fraction for c in y)
            assert y == gram_schmidt_projection(x, basis), x

    def test_radial_function_error_paths(self):
        # The normals of a bounded body surround every direction, so the
        # "never exits" error needs a facet table that does not: x_1 <= 1.
        record = SimpleNamespace(span=None, normals=((1, 0),), offsets=(1,))
        half = SimpleNamespace(n=2, _den=1, _engine=lambda: record)
        with pytest.raises(GeometryError) as err:
            radial_function(half, (-1, 5))
        assert type(err.value) is GeometryError
        assert radial_function(half, (F(1, 3), 7)) == 3
        T = standard_simplex(2, 2)
        with pytest.raises(RayOutsideBodyError):
            radial_function(T, (-1, F(1, 2)))
        with pytest.raises(ValueError):
            radial_function(T, (0, F(0)))
        assert radial_function(T, ("1/2", "1/4")) == F(4, 3)
        point = Polytope(3, [(0, 0, 0)])
        with pytest.raises(RayOutsideBodyError):
            radial_function(point, (1, 0, 0))
        assert project_onto_body((1, 2, 3), point) == (0, 0, 0)

    @given(bodies(dims=(2, 3, 4, 5), wheres=("vertex", "boundary")))
    @settings(max_examples=30, deadline=None, phases=AS_DRAWN)
    def test_polar_body_needs_interior_origin(self, body):
        with pytest.raises(OriginNotInteriorError):
            polar_body(body[1])

    @given(st.sampled_from((4, 5)), st.data())
    @settings(max_examples=8, deadline=None)
    def test_polar_body_singular_subsets(self, n, data):
        """The 4-cube and the 5-cross-polytope, where most vertex n-subsets
        are singular (antipodal pairs, vertices of one facet), under a
        random invertible map L D, which keeps every singular subset
        singular: L unit lower triangular, D diagonal."""
        pts = _cube(4) if n == 4 else _cross(5)
        low = data.draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
        diag = data.draw(st.lists(st.fractions(-3, 3, max_denominator=4).filter(bool),
                                  min_size=n, max_size=n))
        A = LinearMap([[(1 if i == j else low[i * n + j] if j < i else 0) * diag[j]
                        for j in range(n)] for i in range(n)])
        K = Polytope(n, [A(p) for p in pts])
        assert polar_body(K) == polar_oracle(K)

    @given(bodies(dims=(2, 3, 4, 5)))
    @settings(max_examples=60, deadline=None, phases=AS_DRAWN)
    def test_face_lattice(self, body):
        self.check_lattice(body[1])

    @pytest.mark.parametrize("pts", [
        _cube(3), _cube(4), _cube(5), _cross(4), _cross(5),
        _cube(3) + [(0, 1, 1), (F(1, 2), F(1, 3), 1), (0, 0, F(-1, 2))],
        _prism([(0, 0), (2, 0), (0, 1)]),
        _prism([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        _SQUARE + [(F(1, 3), 0, F(2))],
        _SQUARE + [(0, 0, F(1)), (F(1, 2), F(-1, 3), F(-3, 2))],
        _cut_corner(3), _cut_corner(4),
    ], ids=["cube3", "cube4", "cube5", "cross4", "cross5", "cube3-extra",
            "prism-triangle", "prism-tetrahedron", "square-pyramid", "square-bipyramid",
            "cube3-cut", "cube4-cut"])
    def test_face_lattice_fixed(self, pts):
        """Simple, simplicial and mixed bodies: the prisms, the pyramid and
        the cut cubes have simplex faces, which the lattice reads off by
        vertex deletion, next to faces it meets with the facets."""
        self.check_lattice(Polytope(len(pts[0]), pts))

    @staticmethod
    def check_lattice(P):
        h = _Hull(P.iscale()[0])
        levels = lattice_oracle(h)
        assert h.lattice() == {j: tuple(tuple(_bits(m)) for m in ms) for j, ms in levels.items()}
        for face in [h.vmask] + [m for ms in levels.values() for m in ms]:
            assert h.subfaces(face, {}) == subfaces_oracle(h, face)
        assert P.face_lattice() == {j: tuple(tuple(P.points[i] for i in _bits(m)) for m in ms)
                                    for j, ms in levels.items()}


def table_oracle(points):
    """The integer table by Fractions: the distinct points, sorted, times
    the least common denominator of their coordinates."""
    pts = sorted(set(points))
    den = math.lcm(*(c.denominator for p in pts for c in p))
    return tuple(tuple(int(c * den) for c in p) for p in pts), den


def assert_same_body(A, B):
    """Every accessor of A equals that of B; B is asked first for its
    faces and origin, A for its facets, so the caches fill in two orders."""
    B.face_lattice()
    B.origin_location()
    assert A.n == B.n and A.facets == B.facets
    assert A.points == B.points and A.iscale() == B.iscale()
    assert A.iscale() == table_oracle(A.points)
    assert all(type(c) is F for p in A.points for c in p)
    assert A.vertices == B.vertices
    assert A.face_lattice() == B.face_lattice()
    for j in range(A.n):
        assert A.faces_through_origin(j) == B.faces_through_origin(j)
        assert A.face_indices_through_origin(j) == B.face_indices_through_origin(j)
    assert A.triangulation() == B.triangulation()
    assert A.volume == B.volume and type(A.volume) is F
    assert A.origin_location() == B.origin_location()


def fraction_image(rows, x):
    return tuple(sum((F(a) * b for a, b in zip(r, x)), F(0)) for r in rows)


class TestIntegerTable:
    """Bodies whose constructor fills the integer table directly against
    the same body built from its Fraction points."""

    @given(bodies(dims=(2, 3, 4), wheres=("interior", "vertex", "boundary", "flat")),
           st.integers(1, 6), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None, phases=AS_DRAWN)
    def test_integer_built_equals_fraction_built(self, body, k, rnd):
        _, P = body
        expected = Polytope(P.n, P.points)
        ints, den = P.iscale()
        # a table that is not reduced, not sorted and has repeats
        rows = [tuple(k * a for a in p) for p in ints] * 2
        rnd.shuffle(rows)
        assert_same_body(Polytope._from_ints(P.n, rows, k * den), expected)
        obj = {"n": P.n, "vertices": [[str(c) for c in p] for p in P.points]}
        assert_same_body(polytope_from_json(obj, require_origin=False),
                         Polytope(P.n, P.points))
        assert_same_body(P, Polytope(P.n, P.points))

    @given(bodies(dims=(2, 3, 4)), st.data())
    @settings(max_examples=60, deadline=None, phases=AS_DRAWN)
    def test_map_scale_reflect_images(self, body, draw):
        """The images under an invertible rational map, a positive scale
        and the reflection, from the vertex rows when the body knows them
        and from every row otherwise."""
        _, P = body
        n = P.n
        entry = st.fractions(-3, 3, max_denominator=4)
        rows = draw.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                  min_size=n, max_size=n))
        assume(mat_det(rows) != 0)
        s = draw.draw(st.fractions(0, 5, max_denominator=6).filter(lambda v: v > 0))
        if draw.draw(st.booleans()):
            P.vertices
        gens = P.vertices if P._vidx is not None else P.points
        assert_same_body(P.map(LinearMap(rows)),
                         Polytope(n, [fraction_image(rows, p) for p in gens]))
        assert_same_body(P.scale(s), Polytope(n, [tuple(s * c for c in p) for p in gens]))
        assert_same_body(P.reflect(), Polytope(n, [tuple(-c for c in p) for p in gens]))


    @given(bodies(dims=(3, 4)), st.sampled_from(((1, 2), (F(2, 3), 0), (0, F(5, 4)), (-1, 3))))
    @settings(max_examples=40, deadline=None, phases=AS_DRAWN)
    def test_scaled_hull_families(self, body, weights):
        """The two families whose output is a body, built from integer
        tables, against the hull of their Fraction points; a weight that is
        not positive drops its part (unchecked mode lets -1 through)."""
        _, P = body
        n = P.n
        c1, c2 = (F(w) for w in weights)
        o = (F(0),) * n
        pair = classified_operator("linf_contravariant_pair", {"p": math.inf, "c": weights},
                                   mode="unchecked")(P)
        A, B = linf_projection_body(P, 1), linf_projection_body(P, -1)
        expected = [o] + [tuple(c1 * a for a in v) for v in A.points if c1 > 0] \
            + [tuple(c2 * a for a in v) for v in B.points if c2 > 0]
        assert_same_body(pair, Polytope(n, expected))
        a = (F(7, 2),) * (n - 1) + (c1,)
        b = (F(1, 3),) * (n - 1) + (c2,)
        hull = classified_operator("hull_weighted", {"p": math.inf, "a": a, "b": b},
                                   mode="unchecked")(P)
        d = P.dim
        expected = [o] if d == 0 else [o] + [tuple(a[d - 1] * c for c in v)
                                             for v in P.vertices if a[d - 1] > 0] \
            + [tuple(-b[d - 1] * c for c in v) for v in P.vertices if b[d - 1] > 0]
        assert_same_body(hull, Polytope(n, expected))


class TestDeterminant:
    @given(st.integers(0, 7), st.data())
    @settings(max_examples=400, deadline=None)
    def test_int_det_matches_fraction_elimination(self, k, data):
        """The closed forms, the 5 x 5 expansion and `echelon` (k > 5) against
        Fraction elimination, with entries up to 10^12 and matrices made
        singular by a zero row or column or a row or column that is an
        integer combination of the others."""
        entries = data.draw(st.sampled_from((st.integers(-3, 3),
                                             st.integers(-10 ** 12, 10 ** 12))))
        rows = [data.draw(st.lists(entries, min_size=k, max_size=k)) for _ in range(k)]
        how = data.draw(st.sampled_from(("none", "zero", "row", "column")))
        if k and how != "none":
            cols = how == "column"
            m = [list(c) for c in zip(*rows)] if cols else rows
            i = data.draw(st.integers(0, k - 1))
            coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
            m[i] = [0] * k if how == "zero" else [
                sum(c * r[j] for c, r in zip(coeffs, m) if r is not m[i]) for j in range(k)]
            rows = [list(c) for c in zip(*m)] if cols else m
            assert mat_det(rows) == 0
        assert int_det(rows) == mat_det(rows)
        assert int_det([tuple(r) for r in rows]) == mat_det(rows)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_five_by_five_expansion(self, data):
        """The 5 x 5 expansion along the first row against Fraction
        elimination and `echelon`: entries up to 10^12, zeros in the
        expanded row, and rank at most r (r = 0..5) from rows that are integer
        combinations of the rows above them."""
        entries = data.draw(st.sampled_from((st.integers(-3, 3),
                                             st.integers(-10 ** 12, 10 ** 12))))
        rows = [data.draw(st.lists(entries, min_size=5, max_size=5)) for _ in range(5)]
        rank = data.draw(st.integers(0, 5))
        for i in range(rank, 5):
            coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=i, max_size=i))
            rows[i] = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(5)]
        rows = data.draw(st.permutations(rows))
        expected = mat_det(rows)
        if rank < 5:
            assert expected == 0
        m, cols, d = echelon(rows)
        assert int_det(rows) == expected == (d if len(cols) == 5 else 0)
        assert int_det([tuple(r) for r in rows]) == expected


class TestDots:
    @given(st.integers(0, 8), st.data())
    @settings(max_examples=200, deadline=None)
    def test_dots_is_the_product_sum(self, n, data):
        """Every arity, unrolled or not, against the generic product sum,
        with entries up to 10^30 and with no rows at all."""
        entry = st.integers(-3, 3) | st.integers(-10 ** 30, 10 ** 30)
        vector = st.tuples(*[entry] * n)
        rows = data.draw(st.lists(vector, max_size=6))
        x = data.draw(vector)
        assert dots(rows, x) == [sum(map(mul, r, x)) for r in rows]
        assert dots(rows, list(x)) == dots(rows, x)
        assert dots([], x) == []

    def test_dots_rationals(self):
        rows = [(1, 2, 3), (F(1, 2), -1, 0)]
        x = (F(1, 3), 2, F(-5, 7))
        assert dots(rows, x) == [sum(map(mul, r, x)) for r in rows]


class TestIntVector:
    @given(st.integers(0, 8), st.data())
    @settings(max_examples=300, deadline=None)
    def test_int_vector_is_the_generic_definition(self, n, data):
        """Every length, unrolled or not, against the generic definition:
        vectors of ints come back as they are, over 1; bools, Fractions
        with and without denominator 1, floats and 'p/q' strings go over
        the lcm of their denominators."""
        ints = st.integers(-3, 3) | st.integers(-10 ** 20, 10 ** 20)
        other = (st.booleans() | st.fractions(-50, 50, max_denominator=12)
                 | ints.map(F) | st.floats(-1e6, 1e6, allow_nan=False)
                 | st.sampled_from(["1/2", "-3/4", "5", "0"]))
        k = data.draw(st.integers(0, n))
        x = data.draw(st.permutations([data.draw(ints) for _ in range(n - k)]
                                      + [data.draw(other) for _ in range(k)]))
        for v in (tuple(x), list(x)):
            z, s = int_vector(v)
            want = int_vector_oracle(v)
            assert (z, s) == want and type(z) is type(want[0])
            if all(type(c) is int for c in v):
                assert z is v and s == 1
            else:
                assert all(type(c) is int for c in z) and s >= 1
                assert [F(c, s) for c in z] == [F(c) for c in v]


class TestPowerSums:
    nodes = st.lists(st.integers(-3, 3) | st.integers(-10 ** 12, 10 ** 12),
                     min_size=1, max_size=7)

    @given(nodes, st.integers(0, 6), st.data())
    @settings(max_examples=400, deadline=None)
    def test_hq_is_the_recurrence(self, z, q, data):
        """h_q from power sums against the node recurrence, for q = 0-6,
        nodes up to 10^12 in size, repeated nodes and mixed signs."""
        z = z + data.draw(st.lists(st.sampled_from(z), max_size=3))
        assert _hq(z, q) == hsym(z, q)
        assert _hq([-a for a in z], q) == (-1) ** q * hsym(z, q)

    @given(st.lists(st.integers(-6, 6), min_size=2, max_size=6), st.integers(1, 4),
           st.sampled_from(((3, 0), (0, 2), (3, 2), (0, 0), (-1, 5))))
    @settings(max_examples=300, deadline=None)
    def test_cell_sides(self, z, q, coefficients):
        """cp D(z) + cn D(-z) against the divided-difference table, also
        when a side's coefficient is 0 and that side is not computed."""
        cp, cn = coefficients
        m = q + len(z) - 1
        num, den = _cell(z, q, cp, cn)
        want = cp * divdiff_oracle(z, m) + cn * divdiff_oracle([-a for a in z], m)
        assert F(num, den) == want


class TestStartSimplex:
    @staticmethod
    def oracle(rows):
        """Ray i orthogonal to every start row but row i, by cofactors, and
        turned to a positive dot product with row i."""
        out = []
        for i, row in enumerate(rows):
            r = _primitive(int_cross([rows[j] for j in range(len(rows)) if j != i]))
            if dot(r, row) < 0:
                r = tuple(-a for a in r)
            out.append(r)
        return out

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_inverse_columns(self, k, data):
        """Random nonsingular integer matrices, a leading block of zeros in
        the first column forcing row swaps in half of them."""
        rows = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=k, max_size=k),
                                  min_size=k, max_size=k))
        zeros = data.draw(st.integers(1, k - 1)) if data.draw(st.booleans()) else 0
        for r in rows[:zeros]:
            r[0] = 0
        if mat_det(rows) == 0:
            return
        assert inverse_columns(rows) == self.oracle(rows)

    @pytest.mark.parametrize("rows", [
        [[-1, 0], [0, 1]],
        [[0, 1], [-1, 0]],
        [[0, 0, 1], [0, 1, 0], [-1, 0, 0]],
        [[0, 2, 1, 0], [1, 1, 0, 0], [3, 0, 0, 0], [0, 0, 0, -1]],
    ], ids=["neg2", "swap2", "swap3", "zero-pivot4"])
    def test_inverse_columns_negative_pivot(self, rows):
        """The elimination ends on a negative pivot, so every column of
        d R^-1 must be turned round."""
        assert inverse_columns(rows) == self.oracle(rows)

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=200, deadline=None)
    def test_start_rays(self, n, data):
        """The rays read off the n x n edge matrix against the columns of
        the inverse of the (n+1) x (n+1) lifted matrix, on random start
        points, affinely dependent ones (None from both) included, and
        with an edge matrix of either determinant sign."""
        coord = st.integers(-4, 4) | st.integers(-10 ** 12, 10 ** 12)
        pts = data.draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 1))
        if data.draw(st.booleans()):
            pts[0], pts[-1] = pts[-1], pts[0]
        assert _start_rays(pts) == inverse_columns([(1,) + p for p in pts])

    @pytest.mark.parametrize("pts", [
        [(0,), (-3,)],
        [(0, 0), (0, 1), (1, 0)],
        [(1, 1, 1), (1, 1, 1), (0, 0, 0), (2, 0, 0)],
        [(5, 0, 0), (0, 5, 0), (0, 0, 5), (0, 0, 0)],
    ], ids=["neg1", "neg2", "repeat3", "far3"])
    def test_start_rays_fixed(self, pts):
        want = inverse_columns([(1,) + p for p in pts])
        assert _start_rays(pts) == want
        assert want is None or want == self.oracle([(1,) + p for p in pts])


@st.composite
def vertex_max_data(draw):
    """FieldData of vertex-max terms only: one to three tables of 1-12
    small integer points in dimension 1-4, each point new, a repeat of an
    earlier one or a multiple of it (collinear with the origin), and up
    to ten terms on random index sets or whole tables, with coefficients
    of both signs that often repeat."""
    n = draw(st.integers(1, 4))
    tables = []
    for _ in range(draw(st.integers(1, 3))):
        pts = []
        for _ in range(draw(st.integers(1, 12))):
            if pts and draw(st.booleans()):
                k = draw(st.integers(-2, 2))
                pts.append(tuple(k * a for a in draw(st.sampled_from(pts))))
            else:
                pts.append(draw(st.tuples(*[st.integers(-3, 3)] * n)))
        tables.append(tuple(pts))
    coeff = st.sampled_from((0, 1, -1, F(1, 2), F(-3, 2))) | st.fractions(-5, 5,
                                                                          max_denominator=6)
    hulls = []
    for _ in range(draw(st.integers(1, 10))):
        t = draw(st.integers(0, len(tables) - 1))
        m = len(tables[t])
        idx = draw(st.none() | st.lists(st.integers(0, m - 1), min_size=1, max_size=m,
                                        unique=True).map(lambda ix: tuple(sorted(ix))))
        hulls.append((t, idx, draw(coeff), draw(coeff)))
    return FieldData.build(draw(st.sampled_from((1, 2, 3))), tables, hulls)


@st.composite
def atom_data(draw, n, q):
    """FieldData of degree q in dimension n with facet atoms on 1-6 random
    normals (some on one normal line, some with a negative first nonzero
    entry, which `build` turns round) and cp, cn drawn apart, so mostly
    unequal; sometimes with a vertex-max term and a cell too."""
    coeff = st.fractions(-5, 5, max_denominator=6)
    normal = st.tuples(*[st.integers(-3, 3)] * n).filter(any)
    atoms = []
    for _ in range(draw(st.integers(1, 6))):
        N = draw(normal)
        if atoms and draw(st.booleans()):
            N = tuple(-a for a in draw(st.sampled_from(atoms))[0])
        atoms.append((N, draw(coeff), draw(coeff)))
    table = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=n + 1,
                          max_size=n + 1))
    hulls = [(0, None, draw(coeff), draw(coeff))] if draw(st.booleans()) else []
    cells = [(tuple(table), draw(coeff), draw(coeff))] if draw(st.booleans()) else []
    return FieldData.build(q, (tuple(table),), hulls, atoms, cells)


class TestFieldData:
    def test_flat_bodies_share_one_zero_field(self):
        A, B = standard_simplex(2, 3), standard_simplex(1, 3)
        fields = [moment_body(A, 2, 1), moment_body(B, 2, -1),
                  lp_projection_body(A, 2, 1), lp_projection_body(B, 2, -1)]
        assert all(f is fields[0] for f in fields)
        assert fields[0].value((1, 2, 3)) == 0 and fields[0].p == 2
        assert moment_body(A, 1, 1) is not fields[0]
        assert not A._ops and not B._ops

    def test_composites_are_one_flat_term_list(self):
        cube = convex_hull([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
        l1 = classified_operator("l1_contravariant", {"c": (2, 1, -1)})(cube)
        # six facets on three normal lines: one atom per line
        assert len(l1.data.atoms) == 3 and not l1.data.hulls and not l1.data.cells
        T = standard_simplex(3, 3)
        c3 = classified_operator("covariant_l1_3d",
                                 {"c": (1, 2), "a": (1, 2), "b": (1, 2)})(T)
        # the body and its reflection share one point table and one cell list
        assert len(c3.data.points) == 1 and len(c3.data.cells) == len(T.triangulation())
        assert all(cp and cn for _, cp, cn in c3.data.cells)

    @given(vertex_max_data(), st.data())
    @settings(max_examples=300, deadline=None, phases=AS_DRAWN)
    def test_sweep_is_the_per_term_extremum(self, data, draw):
        """The probe-order sweep against the per-term max and min, exactly,
        on probes with zero entries over tables with repeated points and
        multiples of one point, where many dot products tie."""
        n = len(data.points[0][0])
        xs = draw.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=8))
        R = data.reflect()
        for x in xs:
            assert data.numerator(x) == (vertex_max_numerator(data, x), 1), x
            assert R.numerator(x) == (vertex_max_numerator(R, x), 1), x
            assert R.numerator(x) == data.numerator(tuple(-c for c in x))

    @given(st.integers(1, 5), st.sampled_from((1, 2, 3)), st.data())
    @settings(max_examples=100, deadline=None, phases=AS_DRAWN)
    def test_numerator_is_the_per_term_sum(self, n, q, draw):
        """Atoms with the other terms against the per-term oracle, on
        probes orthogonal to an atom's normal (t = 0) among others, for
        the data, its reflection and its merge with the reflection of
        further data."""
        data = draw.draw(atom_data(n, q))
        other = draw.draw(atom_data(n, q))
        xs = draw.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=6))
        if n > 1:
            xs += [(N[1], -N[0]) + (0,) * (n - 2) for N, _, _ in data.atoms]
        merged = FieldData.merge([(F(3, 2), data), (-2, other.reflect())])
        for D in (data, data.reflect(), merged):
            for x in xs:
                num, den = D.numerator(x)
                assert F(num, den) == field_value(D, x), x

    @given(bodies(dims=(3, 4), wheres=("vertex", "boundary")), probes,
           st.sampled_from((1, 2, 3)), st.data())
    @settings(max_examples=40, deadline=None, phases=AS_DRAWN)
    def test_sweep_in_guarded_combinations(self, body, ints, q, draw):
        """An L_p combination of a face-lattice sum and a reflected one,
        whose operands can be negative and so are kept as guards."""
        _, P = body
        weight = st.fractions(-3, 3, max_denominator=4).filter(bool)
        a = draw.draw(st.tuples(weight, weight))
        b = draw.draw(st.tuples(weight, weight))
        h = lp_combine(face_sum_valuation(P, q, *a), reflected(face_sum_valuation(P, q, *b)),
                       q, 1, F(1, 2))
        assume(h.data.guards)
        assert not h.data.atoms and not h.data.cells
        for x in probe_set(P.n, ints):
            for D in (h.data,) + h.data.guards:
                assert D.numerator(x) == (vertex_max_numerator(D, x), 1), x
