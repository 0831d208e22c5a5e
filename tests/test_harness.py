"""Split generation, identity checkers, and the bundled verification run."""

import dataclasses
import gc
import platform
from fractions import Fraction

import pytest

from minkval.geometry import DimensionMismatchError, LinearMap, standard_simplex, zero_vec
from minkval.harness import (
    _equivariance_battery,
    _suite_closed_form,
    _suite_difference,
    _suite_equivariance,
    _suite_homogeneity,
    _suite_lower_dim,
    _suite_lp_to_linf,
    _suite_polar,
    _suite_projection_property,
    _suite_valuation,
    as_field,
    bundle_ok,
    bundle_to_json,
    check_equivariance,
    check_valuation_identity,
    ConfigError,
    DomainViolationError,
    generate_simplex_splits,
    generate_union_chain,
    GenerationFailedError,
    integer_unimodular_maps,
    NotSpecialLinearError,
    run_suite,
    sublinearity_counterexample,
    SuiteConfig,
    Verdict,
)
import minkval
from hypothesis import given, settings, strategies as st
from minkval import geometry, harness, operators
from minkval.operators import moment_body, projection_body
from minkval.supports import INF, from_polytope, probe_directions, SupportEval

F = Fraction

SMALL = SuiteConfig(dims=(3,), lambdas=(F(1, 3), F(1, 2)), scales=(1,),
                    probes=40, depth=2)


class TestSplitGeneration:
    def test_grid_shape(self):
        insts = generate_simplex_splits(3, 2, (F(1, 4), F(1, 2)), (1, 2))
        assert len(insts) == 4
        lams = {inst.lam for inst in insts}
        assert lams == {F(1, 4), F(1, 2)}

    def test_pieces_partition_parent(self):
        for inst in generate_simplex_splits(4, 3, (F(1, 3),), (1,)):
            sc = inst.case
            assert not sc.degenerate
            assert sc.lower.volume + sc.upper.volume == sc.parent.volume
            assert sc.lower == inst.predicted["lower"]
            assert sc.upper == inst.predicted["upper"]
            assert sc.section == inst.predicted["section"]

    def test_full_dim_case(self):
        for inst in generate_simplex_splits(3, 3, (F(2, 3),), (F(1, 2),)):
            sc = inst.case
            assert sc.parent.dim == 3
            assert sc.section.dim == 2


class TestUnionChain:
    def test_deterministic(self):
        a = generate_union_chain(3, depth=2, seed=5, count=4)
        b = generate_union_chain(3, depth=2, seed=5, count=4)
        assert [q.union.vertices for q in a] == [q.union.vertices for q in b]

    def test_quads_are_valid(self):
        for q in generate_union_chain(3, depth=2, seed=7, count=4):
            assert q.union.volume == q.K.volume + q.L.volume - q.inter.volume
            assert q.inter.dim <= q.union.dim

    def test_depth_limit(self):
        with pytest.raises(GenerationFailedError):
            generate_union_chain(3, depth=4, seed=1)


class TestUnimodularMaps:
    def test_exactly_special_linear(self):
        maps = integer_unimodular_maps(4, count=10, seed=3)
        assert len(maps) == 10
        for A in maps:
            assert A.det == 1
            assert all(c.denominator == 1 for row in A.rows for c in row)

    def test_seeded(self):
        a = integer_unimodular_maps(3, count=5, seed=11)
        b = integer_unimodular_maps(3, count=5, seed=11)
        assert [A.rows for A in a] == [B.rows for B in b]


class TestValuationChecker:
    def quad(self):
        inst = generate_simplex_splits(3, 3, (F(1, 2),), (1,))[0]
        sc = inst.case
        return (sc.lower, sc.upper, sc.parent, sc.section)

    def test_true_operator_passes(self):
        v = check_valuation_identity(projection_body, 1, self.quad(),
                                     probe_directions(3, 30))
        assert v.passed and v.cases == 30

    def test_broken_operator_caught(self):
        def warped(P):
            h = moment_body(P, 1, 1)
            return SupportEval(n=3, p=1, fn=lambda x: h.value(x) ** 2 + h.value(x),
                               exact=True)
        v = check_valuation_identity(warped, 1, self.quad(),
                                     probe_directions(3, 30))
        assert not v.passed
        assert v.failures

    def test_p_mismatch_rejected(self):
        quad = self.quad()
        op = lambda P: moment_body(P, 2, 1)
        with pytest.raises(DomainViolationError):
            check_valuation_identity(op, 1, quad, probe_directions(3, 5))

    def test_build_and_eval_seconds(self):
        op = lambda P: moment_body(P, 1, 1)
        quad, probes = self.quad(), probe_directions(3, 30)
        v = check_valuation_identity(op, 1, quad, probes)
        spent = v.details["build_seconds"], v.details["eval_seconds"]
        assert all(s > 0 for s in spent) and sum(spent) <= v.seconds
        cached = check_valuation_identity(op, 1, quad, probes,
                                          values={id(B): (B, [0] * 30) for B in quad})
        assert cached.details["build_seconds"] == cached.details["eval_seconds"] == 0

    def test_values_cache_outlives_bodies(self):
        # the caller drops each quad before the next is made, so without
        # the body kept in the cache a new body could reuse a cached id
        probes = probe_directions(3, 12)
        cache = {}
        for lam in (F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4)):
            sc = generate_simplex_splits(3, 3, (lam,), (1,))[0].case
            v = check_valuation_identity(projection_body, 1, sc.quad(), probes,
                                         values=cache)
            assert v.passed
            del sc, v
            gc.collect()
        assert len(cache) == 5 * 4
        assert all(id(B) == key for key, (B, _) in cache.items())


class TestEquivarianceChecker:
    def test_non_sl_rejected(self):
        A = LinearMap([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
        with pytest.raises(NotSpecialLinearError):
            check_equivariance(projection_body, "contravariant", [A],
                               [standard_simplex(3, 3)], probe_directions(3, 5))

    def test_details(self):
        maps = integer_unimodular_maps(3, count=2, seed=2)
        v = check_equivariance(lambda P: moment_body(P, 1), "covariant", maps,
                               [standard_simplex(3, 3)], probe_directions(3, 20))
        assert v.passed and v.cases == 40
        d = v.details
        assert d["exact"] is True
        assert d["map_seconds"] > 0 and d["build_seconds"] > 0 and d["eval_seconds"] > 0
        assert d["map_seconds"] + d["build_seconds"] + d["eval_seconds"] <= v.seconds

    def test_float_fields_not_exact(self):
        def op(P):
            h = from_polytope(P)
            return SupportEval(n=3, p=1, fn=lambda x: float(h.value(x)), exact=False)
        v = check_equivariance(op, "covariant", integer_unimodular_maps(3, count=1, seed=2),
                               [standard_simplex(3, 3)], probe_directions(3, 10))
        assert v.passed and v.details["exact"] is False

    def test_wrong_kind_caught(self):
        maps = integer_unimodular_maps(3, count=2, seed=2)
        v = check_equivariance(projection_body, "covariant", maps,
                               [standard_simplex(3, 3)], probe_directions(3, 20))
        assert not v.passed


def _close(a, b, rel=1e-9, floor=1e-12):
    fa, fb = float(a), float(b)
    return abs(fa - fb) <= max(floor, rel * max(abs(fa), abs(fb)))


def _exact(*vals):
    return all(type(v) is int or type(v) is F for v in vals)


def per_probe_valuation(p, lists, probes):
    """(cases, failures, exact) of the valuation comparison with each
    probe's four values tested for exactness on their own."""
    vK, vL, vU, vI = lists
    failures, exact_all = [], True
    for x, k, l, u, i in zip(probes, vK, vL, vU, vI):
        exact = _exact(u, i, k, l)
        exact_all = exact_all and exact
        lhs, rhs = (max(u, i), max(k, l)) if p == INF else (u + i, k + l)
        if not (lhs == rhs if exact else _close(lhs, rhs)):
            failures.append({"probe": [str(c) for c in x], "lhs": float(lhs),
                             "rhs": float(rhs)})
    return len(probes), failures, exact_all


def per_probe_equivariance(vm, vb, probes):
    """(cases, failures, exact) of the equivariance comparison with each
    probe's pair of values tested for exactness on its own."""
    failures, exact_all = [], True
    for x, a, b in zip(probes, vm, vb):
        exact = _exact(a, b)
        exact_all = exact_all and exact
        if not (a == b if exact else _close(a, b)):
            failures.append({"probe": [str(c) for c in x], "moved": float(a),
                             "base": float(b)})
    return len(probes), failures, exact_all


def equivariance_on_lists(vm, vb, probes):
    """check_equivariance under the identity map on one body, whose base
    field reads vb and whose moved field reads vm at the probes."""
    lists = iter((vb, vm))

    def op(P):
        table = dict(zip(probes, next(lists)))
        return SupportEval(n=3, p=1, fn=lambda x: table[tuple(x)])
    return check_equivariance(op, "covariant", [LinearMap.identity(3)],
                              [standard_simplex(3, 3)], probes)


def valuation_on_lists(p, lists, probes):
    """check_valuation_identity on four value lists served from its cache."""
    bodies = [object() for _ in lists]
    return check_valuation_identity(None, p, bodies, probes,
                                    values={id(B): (B, vs) for B, vs in zip(bodies, lists)})


def _written(draw, v):
    """v as drawn: a Fraction, a float or, when integral, an int."""
    kinds = ["fraction", "float"] + (["int"] if v.denominator == 1 else [])
    kind = draw(st.sampled_from(kinds))
    return F(v) if kind == "fraction" else float(v) if kind == "float" else int(v)


rationals = st.fractions(-20, 20, max_denominator=9)


class TestExactnessPerList:
    """Exactness is decided once per value list; the verdicts equal those
    of a probe-by-probe test on lists that mix floats, Fractions and ints,
    with and without a planted wrong value."""

    @given(st.sampled_from((1, 2, INF)), st.integers(1, 12), st.data())
    @settings(max_examples=200, deadline=None)
    def test_valuation_matches_per_probe(self, p, count, data):
        probes = probe_directions(3, count)
        k = data.draw(st.lists(rationals, min_size=count, max_size=count))
        l = data.draw(st.lists(rationals, min_size=count, max_size=count))
        if p == INF:
            u, i = list(map(max, k, l)), list(map(min, k, l))
        else:
            i = data.draw(st.lists(rationals, min_size=count, max_size=count))
            u = [a + b - c for a, b, c in zip(k, l, i)]
        if data.draw(st.booleans()):
            j = data.draw(st.integers(0, count - 1))
            u[j] += data.draw(st.sampled_from((F(1), F(1, 10 ** 30))))
        mixed = data.draw(st.booleans())
        lists = [[_written(data.draw, v) if mixed else v for v in vs] for vs in (k, l, u, i)]
        v = valuation_on_lists(p, lists, probes)
        assert (v.cases, v.failures, v.details["exact"]) == per_probe_valuation(p, lists, probes)
        assert v.passed == (not v.failures)

    @given(st.integers(1, 12), st.data())
    @settings(max_examples=100, deadline=None)
    def test_equivariance_matches_per_probe(self, count, data):
        probes = probe_directions(3, count)
        vb = data.draw(st.lists(rationals, min_size=count, max_size=count))
        vm = list(vb)
        if data.draw(st.booleans()):
            j = data.draw(st.integers(0, count - 1))
            vm[j] += data.draw(st.sampled_from((F(1), F(1, 10 ** 30))))
        if data.draw(st.booleans()):
            vm = [_written(data.draw, v) for v in vm]
            vb = [_written(data.draw, v) for v in vb]
        v = equivariance_on_lists(vm, vb, probes)
        assert (v.cases, v.failures, v.details["exact"]) == per_probe_equivariance(vm, vb, probes)

    def test_planted_value_fails_exactly(self):
        """A wrong value below every tolerance fails, since exact lists are
        compared exactly; written as a float, the same value passes."""
        probes = probe_directions(3, 8)
        k, l, i = [F(j, 3) for j in range(8)], [F(1, 7)] * 8, [F(-j, 5) for j in range(8)]
        u = [a + b - c for a, b, c in zip(k, l, i)]
        u[5] += F(1, 10 ** 30)
        v = valuation_on_lists(1, [k, l, u, i], probes)
        assert not v.passed and v.details["exact"] is True
        assert [f["probe"] for f in v.failures] == [[str(c) for c in probes[5]]]
        u[5] = float(u[5])
        v = valuation_on_lists(1, [k, l, u, i], probes)
        assert v.passed and v.details["exact"] is False
        vb = [F(j, 3) for j in range(8)]
        vm = vb[:5] + [vb[5] + F(1, 10 ** 30)] + vb[6:]
        v = equivariance_on_lists(vm, vb, probes)
        assert not v.passed and v.details["exact"] is True and len(v.failures) == 1

    def test_ints_count_as_exact(self):
        probes = probe_directions(3, 6)
        vals = [0, 1, F(1, 2), 3, F(7, 3), 2]
        v = equivariance_on_lists(vals, [F(a) for a in vals], probes)
        assert v.passed and v.details["exact"] is True
        v = valuation_on_lists(1, [vals, vals, vals, vals], probes)
        assert v.passed and v.details["exact"] is True


class TestIntegerImages:
    """`LinearMap.images`, the probe images of `check_equivariance`, on the
    maps back of the SL(n) battery: phi^t (covariant) and phi^-1
    (contravariant) of its 10 integer and 4 rational maps."""

    SEED = SuiteConfig().seed

    @pytest.mark.parametrize("n", (3, 4))
    def test_images_match_call(self, n):
        probes = probe_directions(n, 48) + [tuple(F(1, k + 2) for k in range(n))]
        integral = 0
        for M in _equivariance_battery(n, self.SEED)[0]:
            for back in (M.transpose(), M.inverse()):
                images = back.images(probes)
                assert images == [back(x) for x in probes]
                exact_ints = all(a.denominator == 1 for r in back.rows for a in r)
                integral += exact_ints
                for x, y in zip(probes, images):
                    want = int if exact_ints and all(type(c) is int for c in x) else F
                    assert type(y) is tuple and all(type(c) is want for c in y)
                with pytest.raises(DimensionMismatchError):
                    back.images([(1,) * (n + 1)])
        assert integral == 2 * 10

    @pytest.mark.parametrize("n", (3, 4))
    def test_images_kept_per_probe_set(self, n, monkeypatch):
        """An equal probe list gets the kept images again without mapping
        a probe, a different one gets its own, and a caller that changes a
        returned list or keeps it changes nothing kept."""
        calls = []
        dots = geometry.dots
        monkeypatch.setattr(geometry, "dots", lambda rows, x: calls.append(x) or dots(rows, x))
        probes = probe_directions(n, 20) + [tuple(F(1, k + 2) for k in range(n))]
        other = [tuple(2 * c for c in x) for x in probes]
        for M in _equivariance_battery(n, self.SEED)[0]:
            for back in (M.transpose(), M.inverse()):
                want = [back(x) for x in probes]
                calls.clear()
                first = back.images(probes)
                assert first == want and len(calls) == len(probes)
                calls.clear()
                again = back.images([list(x) for x in probes])
                assert again == first and again is not first and not calls
                want_other = [back(x) for x in other]
                calls.clear()
                assert back.images(other) == want_other and len(calls) == len(other)
                mine = back.images(probes)
                mine[0] = None
                mine.append(())
                assert back.images(tuple(probes)) == want

    def test_verdicts_match_fraction_route(self, monkeypatch):
        """Each battery operator, wrapped so that its fields record every
        value asked of them, gives the same verdicts, case counts and
        values from the int images as from the Fraction images back(x)."""
        def run():
            out = []
            for n in (3, 4):
                probes = probe_directions(n, 10, self.SEED)
                maps, bodies, battery = _equivariance_battery(n, self.SEED)
                for name, kind, op in battery:
                    seen = []

                    def recording(P, op=op, seen=seen):
                        h = as_field(op(P))

                        def fn(x):
                            v = h.fn(x)
                            seen.append((x, type(v), str(v)))
                            return v
                        return dataclasses.replace(h, fn=fn)

                    v = check_equivariance(recording, kind, maps, bodies, probes, name=name)
                    out.append((name, v.passed, v.cases, v.failures, seen))
            return out

        ints = run()
        monkeypatch.setattr(LinearMap, "images", lambda self, xs: [self(x) for x in xs])
        fractions = run()
        assert ints == fractions
        assert all(passed for _, passed, _, _, _ in ints)
        assert sum(cases for _, _, cases, _, _ in ints) == 2 * 8 * 14 * 2 * 10

    def test_non_output_rejected(self):
        maps = integer_unimodular_maps(3, count=1, seed=2)
        with pytest.raises(DomainViolationError):
            check_equivariance(lambda P: P.vertices, "covariant", maps,
                               [standard_simplex(3, 3)], probe_directions(3, 4))

    def test_as_field_default_exponent(self):
        P = standard_simplex(3, 3)
        h = moment_body(P, 2, 1)
        assert as_field(h) is h and as_field(h, 2) is h
        assert as_field(P).p == 1 and as_field(P).value((1, 1, 1)) == 1
        with pytest.raises(DomainViolationError):
            as_field(h, 1)
        with pytest.raises(DomainViolationError):
            as_field(P.vertices)


class TestCounterexample:
    def test_values_and_margin(self):
        v = sublinearity_counterexample()
        assert v.passed
        assert v.details["values"] == ["4", "4", "9"]
        assert v.details["margin"] == "1"


class TestRunSuite:
    def test_small_bundle_green(self):
        bundle = run_suite(SMALL)
        assert bundle_ok(bundle)
        assert "valuation_identity" in bundle
        assert all(isinstance(v, Verdict) for v in bundle.values())

    def test_fixed_grids_read_probes(self):
        """Criteria 2 and 10 draw min(500, probes) points per case: a small
        config shrinks their grids, a large one stops at 500."""
        small = SuiteConfig(dims=(3,), probes=10)
        v = _suite_closed_form(small)
        assert v.passed and v.cases == 3 * 3 * 10 * 2 + 3    # d x p x draws x bodies + e1
        v = _suite_difference(small)
        assert v.passed and v.cases == 3 * 5 * 10            # d x weight tuples x draws
        v = _suite_difference(SuiteConfig(dims=(2,), probes=600))
        assert v.passed and v.cases == 2 * 5 * 500

    def test_small_grids_read_probes(self):
        """Criteria 5, 6 and 7, the lower-dimensional vanishing and the
        projection property draw min(k, probes) probes: a small config
        shrinks their grids."""
        small = SuiteConfig(dims=(3,), probes=5)
        v = _suite_homogeneity(small)
        assert v.passed and v.cases == 16 * 3 * 5        # operators x scales x probes
        v = _suite_polar(small)
        assert v.passed and v.cases == 4 * (1 + 5)         # bodies x (vertex sets + probes)
        v = _suite_projection_property(small)
        assert v.passed and v.cases == 2 * 2 * 5           # d x fields x probes
        v = _suite_lp_to_linf(SuiteConfig(dims=(3,), probes=30))
        assert v.passed and v.cases == 11                  # the first 30 probes where h > 0
        assert _suite_lower_dim(small).passed

    def test_zero_case_verdict_fails(self):
        """At 5 probes no probe of criterion 7 has a positive L_inf
        projection of T^3: a verdict that checked nothing does not pass."""
        v = _suite_lp_to_linf(SuiteConfig(dims=(3,), probes=5))
        assert v.cases == 0 and not v.failures and not v.passed
        assert Verdict("empty").close().passed is False
        assert not bundle_ok({"a": Verdict("a", cases=3), "b": v})

    def test_fold(self):
        """A fold sums cases, seconds and numeric details, keeps the first k
        witnesses of each sub-verdict and ANDs exact."""
        subs = [Verdict("a", cases=4, failures=[1, 2, 3, 4], seconds=0.5,
                        details={"build_seconds": 0.25, "eval_seconds": 1.0, "exact": True}),
                Verdict("b", cases=6, seconds=0.25,
                        details={"build_seconds": 0.5, "eval_seconds": 2.0, "exact": False}),
                Verdict("c", cases=1, failures=[5], seconds=1.0,
                        details={"build_seconds": 1.0, "eval_seconds": 0.5, "exact": True})]
        v = Verdict("all")
        for sub in subs:
            v.fold(sub, 3)
        assert (v.cases, v.failures, v.seconds) == (11, [1, 2, 3, 5], 1.75)
        assert v.details == {"build_seconds": 1.75, "eval_seconds": 3.5, "exact": False}
        v = Verdict("one")
        v.fold(subs[0])
        assert v.failures == [1, 2, 3, 4] and v.details["exact"] is True

    def test_planted_failing_operator(self, monkeypatch):
        """A battery operator that breaks the identity fails its
        sub-verdict, which the suite names in details["sub"] and in its
        failures, while the sound operator's stays out of both."""
        def warped(P):
            h = moment_body(P, 1, 1)
            return SupportEval(n=3, p=1, fn=lambda x: h.value(x) ** 2 + h.value(x),
                               exact=True)
        monkeypatch.setattr(harness, "operator_battery", lambda n, families: [
            ("projection", 1, projection_body), ("warped", 1, warped)])
        v = _suite_valuation(SuiteConfig(dims=(3,), lambdas=(F(1, 2),), scales=(1,),
                                         probes=8, depth=1))
        assert not v.passed and v.cases == 2 * (2 + 6) * 8    # operators x quads x probes
        assert v.details["sub"] == ["valuation[warped,n=3]"]
        assert [f["suite"] for f in v.failures] == ["valuation[warped,n=3]"]
        assert all(len(w["probe"]) == 3 for w in v.failures[0]["witnesses"])
        assert set(v.details["operators"]) == {"valuation[projection,n=3]",
                                               "valuation[warped,n=3]"}
        assert not bundle_to_json({v.name: v})["ok"]

    def test_empty_families(self):
        cfg = SuiteConfig(families=(), dims=(3,))
        assert run_suite(cfg) == {}

    def test_bundle_json(self):
        bundle = run_suite(SuiteConfig(families=("projection",), dims=(3,),
                                       lambdas=(F(1, 2),), scales=(1,),
                                       probes=10, depth=1))
        out = bundle_to_json(bundle, SMALL)
        assert out["ok"] in (True, False)
        assert "config" in out and "suites" in out
        assert out["provenance"] == {"minkval": minkval.__version__,
                                     "python": platform.python_version(),
                                     "seed": SMALL.seed}
        assert bundle_to_json(bundle)["provenance"]["seed"] is None
        for suite in out["suites"]:
            assert set(suite) == {"suite", "pass", "cases", "failures", "seconds", "details"}
            assert suite["pass"] is bundle[suite["suite"]].passed
        assert SuiteConfig.from_json(out["config"]) == SMALL

    def test_valuation_sub_verdicts(self):
        cfg = SuiteConfig(families=("projection", "moment"), dims=(3,),
                          lambdas=(F(1, 2),), scales=(1,), probes=8, depth=1)
        v = _suite_valuation(cfg)
        ops = v.details["operators"]
        assert set(ops) == {"valuation[projection,n=3]", "valuation[origin_projection,n=3]"} | {
            f"valuation[moment[p={p}]{s},n=3]" for p in (1, 2, 3) for s in "+-"}
        assert all(o["exact"] is True and o["seconds"] >= 0 for o in ops.values())
        assert 0 < sum(o["seconds"] for o in ops.values()) <= v.seconds + 0.01
        for o in ops.values():
            assert o["build_seconds"] > 0 and o["eval_seconds"] > 0
            assert o["build_seconds"] + o["eval_seconds"] <= o["seconds"] + 0.002
        assert bundle_to_json({v.name: v})["suites"][0]["details"]["operators"] == ops

    def test_equivariance_sub_verdicts(self):
        v = _suite_equivariance(SuiteConfig(dims=(3,), probes=4))
        assert v.passed
        ops = v.details["operators"]
        assert set(ops) == {"projection", "origin_projection", "lp_projection[p=2]+",
                            "linf_projection+", "moment[p=1]+", "moment[p=2]-",
                            "linf_moment+", "face_sum[p=1]"}
        keys = ("seconds", "map_seconds", "build_seconds", "eval_seconds")
        for o in ops.values():
            assert set(o) == {*keys, "exact"} and o["exact"] is True
            assert all(o[k] >= 0 for k in keys)
            assert o["map_seconds"] + o["build_seconds"] + o["eval_seconds"] <= o["seconds"] + 0.002
        assert 0 < sum(o["seconds"] for o in ops.values()) <= v.seconds + 0.01
        assert bundle_to_json({v.name: v})["suites"][0]["details"]["operators"] == ops

    def test_polar_sub_timings(self):
        v = _suite_polar(SuiteConfig(dims=(3,)))
        assert v.passed and v.cases == 404
        assert set(v.details) == {"polar_seconds", "linf_seconds", "radial_seconds",
                                  "bipolar_seconds"}
        assert all(t > 0 for t in v.details.values())
        assert sum(v.details.values()) <= v.seconds
        assert bundle_to_json({v.name: v})["suites"][0]["details"] == v.details

    @pytest.mark.parametrize("mutation", ["drop_facet", "perturb_vertex"])
    def test_polar_bipolar_certificate(self, monkeypatch, mutation):
        """The L_inf projection body and the polar read the same integer
        table of facet points, so a fault there can pass their comparison;
        the bipolar identity catches it on every body."""
        read = operators._polar_table

        def faulty(P):
            rows, D = read(P)
            if mutation == "drop_facet":
                return rows[1:], D
            # the first point moved by 1/1000 along e_1, over 1000 D
            moved = [tuple(1000 * a for a in r) for r in rows]
            moved[0] = (moved[0][0] + D,) + moved[0][1:]
            return moved, 1000 * D

        monkeypatch.setattr(operators, "_polar_table", faulty)
        v = _suite_polar(SuiteConfig(dims=(3,)))
        assert not v.passed
        assert {f["body"] for f in v.failures
                if f.get("case") == "polar of the polar is not K"} == {0, 1, 2, 3}

    @pytest.mark.parametrize("bad", [
        {"dims": []}, {"dims": [2]}, {"probes": 0}, {"seed": -3}, {"depth": 0},
        {"depth": 4}, {"lambdas": [0]}, {"lambdas": [1]}, {"scales": [0]},
        {"rel_tol": -1}, {"abs_tol": -1e-12}, {"dims": ["x"]}, "dims",
        {"dims": [3], "probe": 5}, {"seeds": [1]},
    ])
    def test_config_bounds(self, bad):
        with pytest.raises(ConfigError):
            SuiteConfig.from_json(bad)

    def test_config_edges_accepted(self):
        cfg = SuiteConfig.from_json({"dims": [3], "probes": 1, "depth": 3, "seed": 0,
                                     "lambdas": ["1/100", "99/100"], "scales": ["1/1000"],
                                     "rel_tol": 0, "abs_tol": 0})
        assert cfg.depth == 3 and cfg.rel_tol == 0

    def test_config_round_trip(self):
        cfg = SuiteConfig(dims=(3, 4), probes=77, lambdas=(F(1, 4),))
        again = SuiteConfig.from_json(cfg.to_json())
        assert again == cfg
