"""Support evaluations, L_p combination, probe sets, certification checks."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from minkval import supports
from minkval.geometry import convex_hull, DimensionMismatchError, standard_simplex
from minkval.harness import homogeneity_failures
from minkval.supports import (
    _PCG64,
    as_int,
    constant_zero,
    field_sum,
    from_polytope,
    INF,
    lp_combine,
    NegativeInputError,
    normalize_p,
    probe_directions,
    random_int_vectors,
    sign_patterns,
    signed_power,
    signed_root,
    special_vectors,
    subadditivity_check,
    SupportEval,
)

F = Fraction


class TestExponents:
    def test_normalize(self):
        assert normalize_p(2.0) == 2 and isinstance(normalize_p(2.0), int)
        assert normalize_p(F(3, 2)) == F(3, 2)
        assert normalize_p(1.5) == F(3, 2)
        assert normalize_p(INF) == INF

    def test_below_one_rejected(self):
        with pytest.raises(ValueError):
            normalize_p(F(1, 2))

    def test_as_int(self):
        assert as_int(3) == 3
        assert as_int(F(3, 2)) is None
        assert as_int(INF) is None


class TestSignedPower:
    def test_fractional_exponent(self):
        assert signed_power(-4, F(1, 2)) == -2

    def test_integer_exact(self):
        assert signed_power(-2, 3) == -8
        assert signed_power(F(1, 2), 2) == F(1, 4)
        assert isinstance(signed_power(F(1, 2), 2), Fraction)

    def test_odd_symmetry(self):
        for a in (F(3, 7), 2, 0.5):
            assert signed_power(-a, 2) == -signed_power(a, 2)

    def test_root_inverts(self):
        assert signed_root(-8, 3) == pytest.approx(-2.0)
        assert signed_root(F(5, 3), 1) == F(5, 3)

    def test_inf_rejected(self):
        with pytest.raises(ValueError):
            signed_power(2, INF)
        with pytest.raises(ValueError):
            signed_root(2, INF)


class TestSupportEval:
    def test_polytope_backed_p1(self, tri3):
        h = from_polytope(tri3)
        assert h.value((1, 2, 3)) == 3
        assert h.support((1, 2, 3)) == 3
        assert h.support_exact

    def test_p2_field_is_square(self, cube3):
        h = from_polytope(cube3, 2)
        assert h.value((1, 2, 3)) == 36
        assert h.support((1, 2, 3)) == pytest.approx(6.0)
        assert h.exact and not h.support_exact

    def test_inf_field(self, cube3):
        h = from_polytope(cube3, INF)
        assert h.value((1, 2, 3)) == 6
        assert h.support_exact

    def test_fractional_p_float(self, tri3):
        h = from_polytope(tri3, F(3, 2))
        assert not h.exact
        assert h.value((1, 0, 0)) == pytest.approx(1.0)

    def test_probe_length_checked(self, tri3):
        with pytest.raises(DimensionMismatchError):
            from_polytope(tri3).value((1, 2))


class TestLpCombine:
    def test_p1_is_weighted_sum(self, tri3, cube3):
        h = lp_combine(from_polytope(tri3), from_polytope(cube3), 1, 2, 3)
        x = (1, -2, 5)
        assert h.value(x) == 2 * tri3.support(x) + 3 * cube3.support(x)

    def test_p2_field(self, tri3, cube3):
        h1, h2 = from_polytope(tri3, 2), from_polytope(cube3, 2)
        h = lp_combine(h1, h2, 2, 1, 2)
        x = (1, 1, 1)
        assert h.value(x) == tri3.support(x) ** 2 + 4 * cube3.support(x) ** 2

    def test_inf_is_hull_of_union(self, tri3, cube3):
        h = lp_combine(from_polytope(tri3, INF), from_polytope(cube3, INF), INF)
        hull = convex_hull(list(tri3.vertices) + list(cube3.vertices))
        for x in probe_directions(3, 30):
            assert h.value(x) == hull.support(x)

    def test_inf_weighted(self, tri3):
        h = lp_combine(from_polytope(tri3, INF), from_polytope(tri3, INF),
                       INF, 1, 4)
        assert h.value((1, 0, 0)) == 4

    def test_negative_weight_rejected(self, tri3):
        with pytest.raises(NegativeInputError):
            lp_combine(from_polytope(tri3), from_polytope(tri3), 1, -1, 1)

    def test_negative_operand_at_probe(self, tri3):
        neg = field_sum([(-1, from_polytope(tri3))], 1, 3)
        h = lp_combine(neg, from_polytope(tri3), 1)
        with pytest.raises(NegativeInputError):
            h.value((1, 1, 1))

    def test_exponent_mismatch(self, tri3):
        with pytest.raises(ValueError):
            lp_combine(from_polytope(tri3, 1), from_polytope(tri3, 2), 2)

    def test_dim_mismatch(self, tri3):
        h2 = from_polytope(standard_simplex(2, 2))
        with pytest.raises(DimensionMismatchError):
            lp_combine(from_polytope(tri3), h2, 1)

    @given(st.tuples(*[st.integers(-6, 6)] * 3))
    @settings(max_examples=50, deadline=None)
    def test_norm_interpolation(self, x):
        T = standard_simplex(3, 3)
        C = convex_hull([(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1)
                         for sz in (-1, 1)])
        hi = lp_combine(from_polytope(T, INF), from_polytope(C, INF), INF)
        h2 = lp_combine(from_polytope(T, 2), from_polytope(C, 2), 2)
        h1 = lp_combine(from_polytope(T), from_polytope(C), 1)
        lo, mid, hi_v = float(hi.support(x)), h2.support(x), float(h1.support(x))
        assert lo <= mid + 1e-9 and mid <= hi_v + 1e-9


class TestFieldSum:
    def test_signed_weights(self, tri3):
        h = field_sum([(1, from_polytope(tri3)), (-1, from_polytope(tri3))], 1, 3)
        assert h.value((3, 1, 4)) == 0

    def test_inf_rejected(self, tri3):
        with pytest.raises(ValueError):
            field_sum([(1, from_polytope(tri3, INF))], INF, 3)

    def test_constant_zero(self):
        z = constant_zero(3, 2)
        assert z.value((5, -1, 2)) == 0 and z.exact


class TestProbeSets:
    def test_sign_pattern_counts(self):
        assert len(sign_patterns(3)) == 26
        assert len(sign_patterns(3, include_zero_coords=False)) == 8

    def test_special_vectors(self):
        vs = special_vectors(4)
        assert (1, 3, 3, 2) in vs and (-2, -6, -5, -5) in vs
        assert special_vectors(3) == []

    def test_random_vectors_deterministic(self):
        a = random_int_vectors(3, 10, seed=7)
        b = random_int_vectors(3, 10, seed=7)
        assert a == b and all(any(v) for v in a)

    def test_probe_directions_count(self):
        for n in (2, 3, 4):
            assert len(probe_directions(n, 50)) == 50


def numpy_int_vectors(n, count, seed, bound=9):
    """The numpy loop random_int_vectors reproduces, kept as its oracle."""
    import numpy as np
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        v = tuple(int(c) for c in rng.integers(-bound, bound + 1, size=n))
        if any(v):
            out.append(v)
    return out


_RANDOM = random.Random(20260823)
STREAM_SEEDS = ([0, 7, 20260823, 31337, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 5, 2**256 - 1]
                + [_RANDOM.getrandbits(_RANDOM.choice((16, 32, 33, 64, 100, 200)))
                   for _ in range(200)])


class TestProbeStream:
    """random_int_vectors draws numpy's default_rng(seed).integers stream
    in Python ints; numpy's own loop is the oracle."""

    @pytest.mark.parametrize("bound", [1, 9, 2**31 - 1, 2**31, 2**40])
    def test_matches_numpy(self, bound):
        for seed in STREAM_SEEDS:
            for n in range(1, 7):
                assert random_int_vectors(n, 3, seed, bound) == numpy_int_vectors(n, 3, seed, bound)

    def test_probe_directions_match_numpy(self, monkeypatch):
        got = {(n, c, s): probe_directions(n, c, s)
               for s in STREAM_SEEDS[:30] for n in range(1, 7) for c in (12, 90)}
        monkeypatch.setattr(supports, "random_int_vectors", numpy_int_vectors)
        assert got == {(n, c, s): probe_directions(n, c, s) for n, c, s in got}

    @pytest.mark.parametrize("low, high", [
        (5, 5),                        # empty range: no draw
        (-9, 9), (-3, 2**32 - 5),      # Lemire on 32-bit draws
        (0, 2**32 - 1),                # full 32-bit range: raw 32-bit draws
        (-2**31, 2**31), (0, 2**50),   # Lemire on 64-bit draws
        (-2**63, 2**63 - 1),           # full 64-bit range: raw 64-bit draws
    ])
    def test_bounded_branches(self, low, high):
        import numpy as np
        for seed in STREAM_SEEDS[:40]:
            ours, theirs = _PCG64(seed), np.random.default_rng(seed)
            for size in (1, 3, 4):      # odd sizes leave a buffered 32-bit half
                want = [int(c) for c in theirs.integers(low, high + 1, size=size)]
                assert ours.integers(low, high, size) == want

    def test_negative_seed_raises(self):
        import numpy as np
        with pytest.raises(ValueError):
            np.random.default_rng(-1)
        with pytest.raises(ValueError):
            random_int_vectors(3, 5, -1)
        with pytest.raises(TypeError):
            random_int_vectors(3, 5, 1.5)

    def test_bad_bound_raises(self):
        for bound in (0, -3, 2**63):
            with pytest.raises(ValueError):
                random_int_vectors(3, 5, 7, bound)


class TestSubadditivity:
    def test_convex_support_passes(self, cube3):
        rep = subadditivity_check(from_polytope(cube3), samples=30)
        assert rep.passed and rep.witness is None

    def test_violation_found_with_witness(self):
        h = SupportEval(n=2, p=1, fn=lambda x: Fraction(max(x[0], 0)) ** 2, exact=True)
        rep = subadditivity_check(h, samples=0)
        assert not rep.passed
        x, y, hx, hy, hxy = rep.witness
        assert hxy > hx + hy

    def test_report_json(self, cube3):
        rep = subadditivity_check(from_polytope(cube3), samples=5)
        out = rep.to_json()
        assert out["pass"] and out["check"] == "subadditivity"


class TestHomogeneity:
    """The harness's exact homogeneity check, on a body's own support."""

    def test_degree_one_body(self, tri3):
        assert homogeneity_failures(from_polytope, tri3, probe_directions(3, 24)) == []

    def test_wrong_degree_detected(self, tri3):
        assert homogeneity_failures(from_polytope, tri3, probe_directions(3, 24), degree=2)
