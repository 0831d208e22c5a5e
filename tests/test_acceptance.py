"""Acceptance gate: ten pinned criteria, one test each.

Each test is named test_criterion_NN_<slug>; conftest prints a one-line
PASS/FAIL verdict per criterion after the run.  Every criterion but 8
runs the harness suite that `minkval verify` runs, on the pinned grid
in the dimensions set here; criteria 2, 5, 6, 7 and 10 pin the exact
case count of their grid.  Grids, probe counts, seeds, and tolerances
should not be loosened.
"""

from fractions import Fraction

from minkval.geometry import convex_hull, standard_simplex
from minkval.harness import (
    _suite_closed_form,
    _suite_constraint_boundary,
    _suite_difference,
    _suite_equivariance,
    _suite_homogeneity,
    _suite_lp_to_linf,
    _suite_negative_hull,
    _suite_polar,
    _suite_valuation,
    sublinearity_counterexample,
    SuiteConfig,
)
from minkval.operators import moment_body, moment_field_mc

F = Fraction
SEED = 20260823


def _fail_lines(verdict):
    return "\n".join(str(f) for f in verdict.failures[:8])


def test_criterion_01_counterexample_exact():
    v = sublinearity_counterexample()
    assert v.details["values"] == ["4", "4", "9"]
    assert v.details["margin"] == "1"
    assert v.passed, _fail_lines(v)


def test_criterion_02_closed_form_agreement():
    v = _suite_closed_form(SuiteConfig(dims=(4,)))
    assert v.passed, _fail_lines(v)
    assert v.cases == 12_004     # 4 d x 3 p x 500 draws x 2 bodies + 4 spot values


def test_criterion_03_valuation_identity_full_grid():
    v = _suite_valuation(SuiteConfig())
    assert v.passed, _fail_lines(v)
    assert v.cases > 400_000


def test_criterion_04_equivariance_exact():
    v = _suite_equivariance(SuiteConfig())
    assert v.passed, _fail_lines(v)


def test_criterion_05_homogeneity_degrees():
    v = _suite_homogeneity(SuiteConfig(dims=(3,)))
    assert v.passed, _fail_lines(v)
    assert v.cases == 960        # 16 operators x 3 scales x 20 probes


def test_criterion_06_polar_identity():
    v = _suite_polar(SuiteConfig(dims=(3,)))
    assert v.passed, _fail_lines(v)
    assert v.cases == 404        # 4 bodies x (1 vertex-set check + 100 probes)


def test_criterion_07_lp_to_linf_limit():
    v = _suite_lp_to_linf(SuiteConfig(dims=(3,)))
    assert v.passed, _fail_lines(v)
    assert v.cases == 96         # the 200 probes where the L_inf projection is positive


def test_criterion_08_moment_oracle_and_mc():
    T2 = standard_simplex(2, 2)
    assert moment_body(T2, 1, 1).value((1, 0)) == F(1, 6)
    sq = convex_hull([(x, y) for x in (-1, 1) for y in (-1, 1)])
    assert moment_body(sq, 1, 1).value((1, 0)) == 1
    T = standard_simplex(3, 3)
    cube = convex_hull([(x, y, z) for x in (-1, 1) for y in (-1, 1)
                        for z in (-1, 1)])
    instances = [(T, 1, 1, (1, 2, 3)), (T, 2, 1, (1, -1, 2)),
                 (cube, 1, 1, (1, 1, 1)), (cube, 3, 1, (2, -1, 1)),
                 (T, 3, -1, (1, 2, -1))]
    for P, p, sign, x in instances:
        exact = float(moment_body(P, p, sign).value(x))
        est, se = moment_field_mc(P, p, x, sign, samples=10 ** 6, seed=SEED)
        assert abs(est - exact) <= 3 * se, (p, sign, x, est, exact, se)


def test_criterion_09_negative_tests():
    v1 = _suite_negative_hull(SuiteConfig())
    assert v1.passed, "no valuation-identity witness for a = (1,3,2,4)"
    v2 = _suite_constraint_boundary(SuiteConfig())
    assert v2.passed, _fail_lines(v2)


def test_criterion_10_difference_simplex_equality():
    v = _suite_difference(SuiteConfig(dims=(4,)))
    assert v.passed, _fail_lines(v)
    assert v.cases == 10_000     # 4 d x 5 weight tuples x 500 draws
