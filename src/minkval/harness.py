"""Verification harness: instance generation and identity suites.

Generates simplex splits with predicted transform images, origin-vertex
simplex union chains, and batteries of special linear maps, then runs
the valuation-identity, equivariance, homogeneity, agreement and
counterexample suites, producing machine-readable verdicts.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import partial

from .geometry import (
    GeometryError,
    LinearMap,
    Polytope,
    frac,
    halfspace_split,
    hat_simplex,
    project_onto_body,
    standard_simplex,
    transform_phi,
    unit_vec,
    vneg,
    vscale,
    zero_vec,
)
from .supports import (
    INF,
    SupportEval,
    field_sum,
    from_polytope,
    probe_directions,
    subadditivity_check,
)
from .operators import (
    ValuationParams,
    classified_operator,
    difference_body,
    difference_body_simplex,
    face_sum_closed_form,
    face_sum_valuation,
    linf_moment_body,
    linf_projection_body,
    lp_projection_body,
    moment_body,
    origin_projection_body,
    polar_body,
    projection_body,
    radial_function,
)


class ConfigError(Exception):
    pass


class NotSpecialLinearError(ValueError):
    pass


class GenerationFailedError(RuntimeError):
    pass


class DomainViolationError(ValueError):
    pass


DEFAULT_LAMBDAS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                   Fraction(2, 3), Fraction(3, 4))
DEFAULT_SCALES = (Fraction(1, 2), Fraction(1), Fraction(2))


@dataclass(frozen=True)
class SuiteConfig:
    """Settings for a full harness run; equal configs replay identically."""

    families: tuple = ("all",)
    dims: tuple = (3, 4)
    lambdas: tuple = DEFAULT_LAMBDAS
    scales: tuple = DEFAULT_SCALES
    probes: int = 500
    seed: int = 20260823
    depth: int = 2
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12

    def to_json(self):
        return {
            "families": list(self.families),
            "dims": list(self.dims),
            "lambdas": [str(v) for v in self.lambdas],
            "scales": [str(v) for v in self.scales],
            "probes": self.probes,
            "seed": self.seed,
            "depth": self.depth,
            "rel_tol": self.rel_tol,
            "abs_tol": self.abs_tol,
        }

    @classmethod
    def from_json(cls, obj):
        """Parse and check a config object, whose keys are those of
        `to_json`; raises ConfigError on any other key and when a value is
        malformed or out of range."""
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(obj).difference(f.name for f in fields(cls))
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(map(repr, unknown)))}")
        kw = {}
        try:
            if "families" in obj:
                kw["families"] = tuple(obj["families"])
            if "dims" in obj:
                kw["dims"] = tuple(int(d) for d in obj["dims"])
            if "lambdas" in obj:
                kw["lambdas"] = tuple(frac(v) for v in obj["lambdas"])
            if "scales" in obj:
                kw["scales"] = tuple(frac(v) for v in obj["scales"])
            for key in ("probes", "seed", "depth"):
                if key in obj:
                    kw[key] = int(obj[key])
            for key in ("rel_tol", "abs_tol"):
                if key in obj:
                    kw[key] = float(obj[key])
        except (TypeError, ValueError, ZeroDivisionError) as e:
            raise ConfigError(f"bad config value: {e}") from None
        cfg = cls(**kw)
        bounds = [
            (cfg.dims and all(d >= 3 for d in cfg.dims), "dims must be non-empty, each >= 3"),
            (cfg.probes >= 1, "probes must be >= 1"),
            (cfg.seed >= 0, "seed must be >= 0"),
            (1 <= cfg.depth <= 3, "depth must be between 1 and 3"),
            (all(0 < lam < 1 for lam in cfg.lambdas), "lambdas must lie in (0, 1)"),
            (all(s > 0 for s in cfg.scales), "scales must be > 0"),
            (cfg.rel_tol >= 0 and cfg.abs_tol >= 0, "tolerances must be >= 0"),
        ]
        for ok, why in bounds:
            if not ok:
                raise ConfigError(why)
        return cfg


@dataclass
class Verdict:
    """The tally of one suite or check: the cases it checked, a witness for
    each that failed, its seconds and its details.  It passes when it
    checked a case and none failed.  Its seconds are set by `close`, the
    time since it was made, or summed by `fold`."""

    name: str
    cases: int = 0
    failures: list = field(default_factory=list)
    seconds: float = 0.0
    details: dict = field(default_factory=dict)
    _start: float = field(init=False, default_factory=time.perf_counter,
                          repr=False, compare=False)

    @property
    def passed(self):
        return self.cases > 0 and not self.failures

    def close(self):
        self.seconds = time.perf_counter() - self._start
        return self

    def fold(self, sub, k=None):
        """Add sub in: its cases, its first k failures (all when k is None),
        its seconds and its numeric details, with `exact` ANDed."""
        self.cases += sub.cases
        self.failures += sub.failures[:k]
        self.seconds += sub.seconds
        for key, x in sub.details.items():
            self.details[key] = (self.details.get(key, True) and x if key == "exact"
                                 else self.details.get(key, 0) + x)

    def record(self, case, ok, **info):
        """Count one named case; one that failed is kept as its record."""
        self.cases += 1
        if not ok:
            self.failures.append({"case": case, "pass": False, **info})

    def to_json(self):
        return {
            "suite": self.name,
            "pass": self.passed,
            "cases": self.cases,
            "failures": self.failures[:20],
            "seconds": round(self.seconds, 3),
            "details": self.details,
        }


def _operators(subs):
    """details["operators"]: each sub-verdict's seconds and details by name,
    the seconds rounded to 6 places."""
    return {v.name: {"seconds": round(v.seconds, 6),
                     **{k: round(x, 6) for k, x in v.details.items() if k != "exact"},
                     "exact": v.details["exact"]}
            for v in subs}


# ---------------------------------------------------------------------------
# instance generation


@dataclass(frozen=True)
class SplitInstance:
    """One hyperplane split of a scaled standard simplex.

    predicted maps piece names to the transform images the split must
    equal: shear images of the simplex and of its companion simplex.
    """

    case: SplitCase
    predicted: dict
    n: int
    d: int
    lam: Fraction
    s: Fraction


def generate_simplex_splits(n, d, lambdas=DEFAULT_LAMBDAS, scales=DEFAULT_SCALES):
    """Splits of s T^d by the origin hyperplane mixing e1 and e2.

    Carries predicted images: for d < n the two exact special linear
    shears move T^d onto the pieces; for d = n the non-normalized shear
    pair does (their unit-determinant versions differ by an irrational
    dilation, kept out of the exact path).
    """
    if not 2 <= d <= n:
        raise ValueError("need 2 <= d <= n")
    out = []
    for s in scales:
        s = frac(s)
        T = standard_simplex(d, n, s)
        Th = hat_simplex(d, n, s)
        for lam in lambdas:
            lam = frac(lam)
            normal = (1 - lam, -lam) + (Fraction(0),) * (n - 2)
            if d <= n - 1:
                m_lo = transform_phi(1, lam, n)
                m_hi = transform_phi(2, lam, n)
            else:
                m_lo = transform_phi(3, lam, n, mode="shear")
                m_hi = transform_phi(4, lam, n, mode="shear")
            case = halfspace_split(T, normal)
            predicted = {
                "lower": T.map(m_lo),
                "upper": T.map(m_hi),
                "section": Th.map(m_lo),
            }
            out.append(SplitInstance(case=case, predicted=predicted,
                                     n=n, d=d, lam=lam, s=s))
    return out


@dataclass(frozen=True)
class UnionQuad:
    """A quadruple (K, L, union, intersection) valid for the valuation law."""

    K: Polytope
    L: Polytope
    union: Polytope
    inter: Polytope
    note: str = ""


def _split_origin_simplex(T, i, j, mu):
    """Split [o, v1..vd] through the plane spanned by o, the other
    vertices, and the point mu vi + (1-mu) vj; returns two origin-vertex
    simplices and their shared facet simplex."""
    o = zero_vec(T.n)
    vs = [v for v in T.vertices if v != o]
    mid = tuple(mu * a + (1 - mu) * b for a, b in zip(vs[i], vs[j]))
    rest = [v for k, v in enumerate(vs) if k not in (i, j)]
    A = Polytope(T.n, [o, vs[i], mid] + rest, pruned=True)
    B = Polytope(T.n, [o, mid, vs[j]] + rest, pruned=True)
    shared = Polytope(T.n, [o, mid] + rest, pruned=True)
    return A, B, shared


def generate_union_chain(n, depth=2, seed=20260823, count=6, max_tries=200):
    """Union quadruples over origin-vertex simplices, nested up to depth.

    Each quadruple is a simplex split into two origin-vertex simplices
    sharing a facet; deeper levels re-split a piece.  All portions keep
    the origin as a vertex, so every body stays in the valuation domain.
    """
    if depth < 1 or depth > 3:
        raise GenerationFailedError("depth must be between 1 and 3")
    rng = random.Random(seed)
    quads = []
    tries = 0
    while len(quads) < count:
        tries += 1
        if tries > max_tries:
            raise GenerationFailedError(f"no valid chain after {max_tries} tries")
        d = rng.choice(range(2, n + 1))
        vs = []
        for _ in range(d):
            vs.append(tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)))
        T = Polytope(n, [zero_vec(n)] + vs)
        if T.dim != d or len(T.vertices) != d + 1 or zero_vec(n) not in T.vertices:
            continue
        level = T
        for _ in range(depth):
            verts = [v for v in level.vertices if v != zero_vec(n)]
            if len(verts) < 2:
                break
            i, j = rng.sample(range(len(verts)), 2)
            mu = rng.choice(DEFAULT_LAMBDAS)
            A, B, shared = _split_origin_simplex(level, i, j, mu)
            union = Polytope(n, list(A.vertices) + list(B.vertices))
            if union != level:
                raise GenerationFailedError("split pieces fail to reassemble")
            quads.append(UnionQuad(K=A, L=B, union=level, inter=shared,
                                   note=f"d={d}"))
            level = rng.choice((A, B))
            if len(quads) >= count:
                break
    return quads


def integer_unimodular_maps(n, count=10, seed=20260823, shears=4):
    """Determinant-one integer maps built from elementary shears."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        M = LinearMap.identity(n)
        for _ in range(shears):
            i, j = rng.sample(range(n), 2)
            k = rng.choice((-2, -1, 1, 2))
            rows = [list(unit_vec(n, r)) for r in range(n)]
            rows[i][j] = Fraction(k)
            M = LinearMap(rows) @ M
        out.append(M)
    return out


# ---------------------------------------------------------------------------
# identity checks


def as_field(obj, p=None):
    """Uniform p-field view of an operator output (polytope or field).
    Without p a field keeps its own exponent and a polytope gives its
    1-field."""
    if isinstance(obj, Polytope):
        return from_polytope(obj, 1 if p is None else p)
    if isinstance(obj, SupportEval):
        if p is not None and obj.p != p:
            raise DomainViolationError("field exponent mismatch")
        return obj
    raise DomainViolationError(f"not an operator output: {type(obj)!r}")


def _close(a, b, rel, abs_floor):
    fa, fb = float(a), float(b)
    return abs(fa - fb) <= max(abs_floor, rel * max(abs(fa), abs(fb)))


def _sum_equal(a, b, c, d):
    """a + b == c + d for Fractions, by integer cross-multiplication."""
    ad, bd, cd, dd = a.denominator, b.denominator, c.denominator, d.denominator
    return ((a.numerator * bd + b.numerator * ad) * cd * dd
            == (c.numerator * dd + d.numerator * cd) * ad * bd)


_RATIONAL = frozenset((int, Fraction))


def _rational(*lists):
    """Whether every value in the lists is an int or a Fraction: decided
    once per list from the set of its value types, not value by value."""
    return all(_RATIONAL.issuperset(map(type, vals)) for vals in lists)


def check_valuation_identity(op, p, quad, probes, rel_tol=1e-9, abs_tol=1e-12,
                             name="valuation", values=None):
    """Pointwise h^p additivity (max identity at p = inf) over a quadruple.

    quad is (K, L, union, intersection); values, when given, is a cache
    dict mapping id(body) to (body, probe-value list) so shared bodies are
    evaluated once.  Keeping the body in the entry keeps its id from being
    reused by another body while the cache lives.  details records the
    seconds spent building fields (op(B)) and evaluating them, apart from
    the comparison.
    """
    K, L, U, I = quad
    start = time.perf_counter()
    spent = {"build_seconds": 0.0, "eval_seconds": 0.0}

    def get(B):
        key = id(B)
        if values is not None and key in values:
            return values[key][1]
        t0 = time.perf_counter()
        try:
            h = as_field(op(B), p)
        except (GeometryError, ValueError) as e:
            raise DomainViolationError(f"operator rejected a body: {e}") from None
        t1 = time.perf_counter()
        vals = [h.value(x) for x in probes]
        spent["build_seconds"] += t1 - t0
        spent["eval_seconds"] += time.perf_counter() - t1
        if values is not None:
            values[key] = (B, vals)
        return vals

    vK, vL, vU, vI = get(K), get(L), get(U), get(I)
    failures = []
    exact_all = _rational(vU, vI, vK, vL)
    for x, u, i, k, l in zip(probes, vU, vI, vK, vL):
        exact = exact_all or _rational((u, i, k, l))
        if p == INF:
            lhs, rhs = max(u, i), max(k, l)
            ok = lhs == rhs if exact else _close(lhs, rhs, rel_tol, abs_tol)
        elif exact:
            ok = _sum_equal(u, i, k, l)
        else:
            ok = _close(u + i, k + l, rel_tol, abs_tol)
        if not ok:
            lhs, rhs = (max(u, i), max(k, l)) if p == INF else (u + i, k + l)
            failures.append({
                "probe": [str(c) for c in x],
                "lhs": float(lhs),
                "rhs": float(rhs),
            })
    return Verdict(name=name, cases=len(probes), failures=failures,
                   seconds=time.perf_counter() - start, details={"exact": exact_all, **spent})


def check_equivariance(op, kind, transforms, bodies, probes,
                       rel_tol=1e-9, abs_tol=1e-12, name="equivariance"):
    """h_{Z(phi P)}(x) against h_{Z P}(phi^t x) or h_{Z P}(phi^{-1} x).

    kind is "covariant" or "contravariant"; transforms must be special
    linear (checked exactly).  The probe images come from
    `LinearMap.images`, as int vectors when the map back and the probe are
    integral; the map back keeps them, so they are computed once per map
    and probe set, across calls.
    details records the seconds spent mapping bodies and probes, building
    fields (op(B)) and evaluating them, and whether every comparison was
    exact.
    """
    if kind not in ("covariant", "contravariant"):
        raise ValueError("kind must be covariant or contravariant")
    start = time.perf_counter()
    spent = {"map_seconds": 0.0, "build_seconds": 0.0, "eval_seconds": 0.0}
    failures = []
    cases = 0
    exact_all = True
    for M in transforms:
        if not M.is_sl:
            raise NotSpecialLinearError(f"determinant {M.det} != 1")
        t0 = time.perf_counter()
        back = M.transpose() if kind == "covariant" else M.inverse()
        images = back.images(probes)
        spent["map_seconds"] += time.perf_counter() - t0
        for P in bodies:
            t0 = time.perf_counter()
            base = op(P)
            t1 = time.perf_counter()
            image = P.map(M)
            t2 = time.perf_counter()
            moved = op(image)
            hb, hm = as_field(base), as_field(moved)
            t3 = time.perf_counter()
            vm = [hm.value(x) for x in probes]
            vb = [hb.value(y) for y in images]
            spent["map_seconds"] += t2 - t1
            spent["build_seconds"] += (t1 - t0) + (t3 - t2)
            spent["eval_seconds"] += time.perf_counter() - t3
            cases += len(probes)
            exact = _rational(vm, vb)
            for x, a, b in zip(probes, vm, vb):
                if exact or _rational((a, b)):
                    ok = a == b
                else:
                    exact_all = False
                    ok = _close(a, b, rel_tol, abs_tol)
                if not ok:
                    failures.append({"probe": [str(c) for c in x],
                                     "moved": float(a), "base": float(b)})
    return Verdict(name=name, cases=cases, failures=failures,
                   seconds=time.perf_counter() - start, details={"exact": exact_all, **spent})


def sublinearity_counterexample():
    """The face-lattice sum that is a valuation but not a support function.

    On the 4-simplex with the origin inside an edge, weights (0,1) plus
    reflected weights (0,0) give probe values 4, 4 and 9: subadditivity
    fails by exactly the weight gap.  The 3-dimensional analogue built
    with admissible difference-body weights passes the same probes.
    """
    out = Verdict("sublinearity_counterexample")
    P = Polytope(4, [(-1, 0, 0, 0), (1, 0, 0, 0),
                     (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    field4 = field_sum([(1, face_sum_valuation(P, 1, 0, 1)),
                        (1, face_sum_valuation(P.reflect(), 1, 0, 0))], 1, 4)
    x, y = (1, 3, 3, 2), (1, 3, 2, 3)
    xy = tuple(a + b for a, b in zip(x, y))
    vals = tuple(field4.value(v) for v in (x, y, xy))
    out.record("probe values", vals == (4, 4, 9), got=[str(v) for v in vals])
    margin = vals[2] - vals[0] - vals[1]
    out.record("violation margin", margin == 1, got=str(margin))
    rep = subadditivity_check(field4, samples=40)
    out.record("4d subadditivity fails", not rep.passed,
               witness=rep.to_json().get("witness"))
    Q = Polytope(3, [(-1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    h3 = difference_body(Q, 0, 1, 1, 1)
    out.record("3d analogue subadditive", subadditivity_check(h3, samples=40).passed)
    out.details = {"values": [str(v) for v in vals], "margin": str(margin)}
    return out.close()


# ---------------------------------------------------------------------------
# operator battery and the full suite


def operator_battery(n, families=("all",)):
    """(name, exponent, operator) triples for the identity suite."""
    want = set(families)

    def on(*keys):
        return "all" in want or any(k in want for k in keys)

    ops = []
    if on("projection"):
        ops.append(("projection", 1, projection_body))
        ops.append(("origin_projection", 1, origin_projection_body))
    if on("lp_projection"):
        for p in (1, 2, 3):
            for sg, tag in ((1, "+"), (-1, "-")):
                ops.append((f"lp_projection[p={p}]{tag}", p,
                            partial(lp_projection_body, p=p, sign=sg)))
    if on("linf_projection"):
        for sg, tag in ((1, "+"), (-1, "-")):
            ops.append((f"linf_projection{tag}", INF,
                        partial(linf_projection_body, sign=sg)))
    if on("moment"):
        for p in (1, 2, 3):
            for sg, tag in ((1, "+"), (-1, "-")):
                ops.append((f"moment[p={p}]{tag}", p,
                            partial(moment_body, p=p, sign=sg)))
    if on("linf_moment"):
        for sg, tag in ((1, "+"), (-1, "-")):
            ops.append((f"linf_moment{tag}", INF,
                        partial(linf_moment_body, sign=sg)))
    if on("face_sum"):
        for p in (1, 2, 3):
            ops.append((f"face_sum[p={p}]", p,
                        lambda P, _p=p: face_sum_valuation(P, _p, 1, 3)))
    if on("hull_weighted"):
        a = tuple(range(1, n + 1))
        b = tuple((i + 2) // 2 for i in range(n))
        ops.append(("hull_weighted", INF, classified_operator(
            "hull_weighted", ValuationParams(p=INF, a=a, b=b))))
    if on("linf_contravariant_pair"):
        ops.append(("linf_contravariant_pair", INF, classified_operator(
            "linf_contravariant_pair", ValuationParams(p=INF, c=(1, 2)))))
    if on("lp_contravariant"):
        ops.append(("lp_contravariant[p=2]", 2, classified_operator(
            "lp_contravariant", ValuationParams(p=2, c=(1, 2)))))
    if on("lp_covariant"):
        ops.append(("lp_covariant[p=2]", 2, classified_operator(
            "lp_covariant", ValuationParams(p=2, c=(1, 2, 1, 3)))))
        if n >= 4:
            ops.append(("lp_covariant[p=1]", 1, classified_operator(
                "lp_covariant", ValuationParams(p=1, c=(1, 2, 1, 3)))))
    if on("l1_contravariant"):
        ops.append(("l1_contravariant", 1, classified_operator(
            "l1_contravariant", ValuationParams(p=1, c=(2, 1, -1)))))
    if on("covariant_l1_3d") and n == 3:
        ops.append(("covariant_l1_3d", 1, classified_operator(
            "covariant_l1_3d", ValuationParams(p=1, c=(1, 2), a=(1, 2), b=(1, 2)))))
    return ops


def _suite_split_predictions(config):
    v = Verdict("split_predictions")
    for n in config.dims:
        for d in range(2, n + 1):
            for inst in generate_simplex_splits(n, d, config.lambdas, config.scales):
                v.cases += 1
                sc = inst.case
                ok = (sc.lower == inst.predicted["lower"]
                      and sc.upper == inst.predicted["upper"]
                      and sc.section == inst.predicted["section"]
                      and not sc.degenerate)
                if not ok:
                    v.failures.append({"n": n, "d": d, "lam": str(inst.lam),
                                       "s": str(inst.s)})
    return v.close()


def _suite_valuation(config):
    """Criterion 3: the valuation identity of every battery operator on
    every split and union quadruple, one sub-verdict per operator and
    dimension; each quadruple adds at most 3 witnesses."""
    out = Verdict("valuation_identity")
    subs = []
    for n in config.dims:
        probes = probe_directions(n, config.probes, config.seed)
        quads = [inst.case.quad() for d in range(2, n + 1)
                 for inst in generate_simplex_splits(n, d, config.lambdas, config.scales)]
        quads += [(uq.K, uq.L, uq.union, uq.inter)
                  for uq in generate_union_chain(n, depth=config.depth, seed=config.seed)]
        for name, p, op in operator_battery(n, config.families):
            sub = Verdict(f"valuation[{name},n={n}]")
            cache = {}
            for quad in quads:
                sub.fold(check_valuation_identity(op, p, quad, probes,
                                                  config.rel_tol, config.abs_tol,
                                                  name=name, values=cache), 3)
            subs.append(sub)
            out.cases += sub.cases
            if not sub.passed:
                out.failures.append({"suite": sub.name, "witnesses": sub.failures})
    out.details = {"sub": [f["suite"] for f in out.failures], "operators": _operators(subs)}
    return out.close()


def _equivariance_battery(n, seed):
    """(maps, bodies, operators) of the SL(n) suite: 10 integer unimodular
    maps and the 4 rational maps phi, two simplices, and the (name, kind,
    operator) triples."""
    maps = integer_unimodular_maps(n, count=10, seed=seed)
    maps += [transform_phi(k, lam, n) for k in (1, 2)
             for lam in (Fraction(1, 4), Fraction(1, 2))]
    bodies = [standard_simplex(n, n),
              standard_simplex(n, n, Fraction(1, 2)).map(
                  integer_unimodular_maps(n, 1, seed + 1)[0])]
    battery = [
        ("projection", "contravariant", projection_body),
        ("origin_projection", "contravariant", origin_projection_body),
        ("lp_projection[p=2]+", "contravariant", partial(lp_projection_body, p=2, sign=1)),
        ("linf_projection+", "contravariant", partial(linf_projection_body, sign=1)),
        ("moment[p=1]+", "covariant", partial(moment_body, p=1, sign=1)),
        ("moment[p=2]-", "covariant", partial(moment_body, p=2, sign=-1)),
        ("linf_moment+", "covariant", partial(linf_moment_body, sign=1)),
        ("face_sum[p=1]", "covariant", lambda P: face_sum_valuation(P, 1, 1, 3)),
    ]
    return maps, bodies, battery


def _suite_equivariance(config):
    """Criterion 4: the SL(n) battery at min(60, config.probes) probes, one
    sub-verdict per operator across the dimensions."""
    out = Verdict("equivariance")
    subs = {}
    for n in config.dims:
        probes = probe_directions(n, min(60, config.probes), config.seed)
        maps, bodies, battery = _equivariance_battery(n, config.seed)
        for name, kind, op in battery:
            v = check_equivariance(op, kind, maps, bodies, probes,
                                   config.rel_tol, config.abs_tol, name=name)
            subs.setdefault(name, Verdict(name)).fold(v)
            out.cases += v.cases
            if not v.passed:
                out.failures.append({"op": name, "n": n, "witnesses": v.failures[:3]})
    out.details = {"operators": _operators(subs.values())}
    return out.close()


HOMOGENEITY_SCALES = (Fraction(1, 2), Fraction(2), Fraction(3))


def homogeneity_failures(op, P, probes, degree=None):
    """Probes where h_{op(sP)} = s^k h_{op(P)} fails exactly, for s in
    HOMOGENEITY_SCALES.  k is the field's degree in the body: the support
    degree (the field's body_degree, or degree when given) times p for
    finite p."""
    base = op(P)
    k = base.body_degree if degree is None else degree
    if base.p != INF:
        k *= base.p
    out = []
    for s in HOMOGENEITY_SCALES:
        scaled = op(P.scale(s))
        factor = s ** Fraction(k)
        out += [{"s": str(s), "probe": [str(c) for c in x]} for x in probes
                if scaled.value(x) != factor * base.value(x)]
    return out


def _suite_homogeneity(config):
    """Criterion 5: every operator below on s T^n against T^n, exactly, at
    min(20, config.probes) probes; the polytope-valued L_inf projection
    has degree -1."""
    out = Verdict("homogeneity")
    for n in config.dims:
        T = standard_simplex(n, n)
        probes = probe_directions(n, min(20, config.probes), config.seed)
        checks = [("projection", projection_body, None),
                  ("face_sum[p=2]", lambda P: face_sum_valuation(P, 2, 1, 3), None)]
        for sg, tag in ((1, "+"), (-1, "-")):
            checks.append((f"linf_projection{tag}",
                           lambda P, sg=sg: from_polytope(linf_projection_body(P, sg), INF),
                           -1))
            for p in (1, 2, 3):
                checks.append((f"moment[p={p}]{tag}", partial(moment_body, p=p, sign=sg),
                               None))
                checks.append((f"lp_projection[p={p}]{tag}",
                               partial(lp_projection_body, p=p, sign=sg), None))
        for name, op, degree in checks:
            out.cases += len(HOMOGENEITY_SCALES) * len(probes)
            bad = homogeneity_failures(op, T, probes, degree)
            if bad:
                out.failures.append({"op": name, "n": n, "witnesses": bad[:3]})
    return out.close()


def _suite_lower_dim(config):
    """The L_p projection and moment fields of every flat T^d vanish at
    min(40, config.probes) probes, and the L_inf bodies are {o}."""
    out = Verdict("lower_dim_vanishing")
    for n in config.dims:
        flat = [standard_simplex(d, n) for d in range(1, n)]
        probes = probe_directions(n, min(40, config.probes), config.seed)
        for P in flat:
            for name, h in (("lp_projection[p=1]+", lp_projection_body(P, 1, 1)),
                            ("lp_projection[p=2]-", lp_projection_body(P, 2, -1)),
                            ("moment[p=1]+", moment_body(P, 1, 1)),
                            ("moment[p=3]-", moment_body(P, 3, -1))):
                out.cases += 1
                if any(h.value(x) != 0 for x in probes):
                    out.failures.append({"op": name, "n": n, "d": P.dim})
            for name, B in (("linf_projection+", linf_projection_body(P, 1)),
                            ("linf_moment+", linf_moment_body(P, 1))):
                out.cases += 1
                if B.vertices != (zero_vec(n),):
                    out.failures.append({"op": name, "n": n, "d": P.dim})
    return out.close()


def _suite_projection_property(config):
    """On every flat T^d the covariant fields read a probe as its
    projection onto the body's span, at min(40, config.probes) probes."""
    out = Verdict("projection_property")
    for n in config.dims:
        probes = probe_directions(n, min(40, config.probes), config.seed)
        for d in range(1, n):
            P = standard_simplex(d, n)
            covariant = [
                ("face_sum[p=1]", face_sum_valuation(P, 1, 1, 3)),
                ("hull_weighted", from_polytope(classified_operator(
                    "hull_weighted", ValuationParams(
                        p=INF, a=tuple(range(1, n + 1)),
                        b=tuple((i + 2) // 2 for i in range(n))))(P), 1)),
            ]
            for name, h in covariant:
                for x in probes:
                    out.cases += 1
                    xp = project_onto_body(x, P)
                    if h.value(x) != h.value(xp):
                        out.failures.append({"op": name, "n": n, "d": d,
                                             "probe": [str(c) for c in x]})
    return out.close()


def _suite_polar(config):
    """Criterion 6: linf_projection_body(K) == polar_body(K) and
    h_{K*}(x) rho_K(x) = 1 at min(100, config.probes) probes, for K the
    cube [-1, 1]^n, the box [-1, 2] x [-1, 1]^(n-1), the first seeded
    random simplex with vertices in [-5, 5]^n and the origin inside, and
    conv(-1, 2 e_1, ..., 2 e_n).

    Both read K's facets, so each body case also asserts the bipolar
    identity polar_body(polar_body(K)) == K: Q° = K holds exactly when
    Q = K°, and the outer call runs the hull engine on the polar's points."""
    out = Verdict("polar_consistency")
    details = out.details = {"polar_seconds": 0.0, "linf_seconds": 0.0,
                             "radial_seconds": 0.0, "bipolar_seconds": 0.0}
    for n in config.dims:
        rng = random.Random(config.seed)
        while True:
            simplex = Polytope(n, [tuple(rng.randint(-5, 5) for _ in range(n))
                                   for _ in range(n + 1)])
            if len(simplex.vertices) == n + 1 and simplex.origin_location() == "interior":
                break
        bodies = [Polytope(n, itertools.product((-1, 1), repeat=n)),
                  Polytope(n, itertools.product((-1, 2), *[(-1, 1)] * (n - 1))),
                  simplex,
                  Polytope(n, [(-1,) * n] + [vscale(2, unit_vec(n, i)) for i in range(n)])]
        probes = probe_directions(n, min(100, config.probes), config.seed)
        for k, K in enumerate(bodies):
            out.cases += 1
            t0 = time.perf_counter()
            A = linf_projection_body(K, 1)
            t1 = time.perf_counter()
            B = polar_body(K)
            t2 = time.perf_counter()
            bipolar = B.origin_location() == "interior" and polar_body(B) == K
            details["linf_seconds"] += t1 - t0
            details["polar_seconds"] += t2 - t1
            details["bipolar_seconds"] += time.perf_counter() - t2
            if not bipolar:
                out.failures.append({"n": n, "body": k, "case": "polar of the polar is not K"})
            if A != B:
                out.failures.append({"n": n, "body": k, "case": "vertex sets differ"})
                continue
            h = from_polytope(A, INF)
            for x in probes:
                out.cases += 1
                t0 = time.perf_counter()
                r = radial_function(K, x)
                details["radial_seconds"] += time.perf_counter() - t0
                if h.value(x) * r != 1:
                    out.failures.append({"n": n, "body": k, "probe": [str(c) for c in x]})
    return out.close()


def _suite_closed_form(config):
    """Criterion 2: the face-lattice sums of T = [o, e1..ed] and
    E = [-e1, e1..ed], weights (2, 5) and reflected (1, 4), against
    face_sum_closed_form at min(500, config.probes) draws in [-9, 9]^n per
    (d, p), plus the spot value of the pair at e1."""
    out = Verdict("closed_form_agreement")
    a1, a2, b1, b2 = 2, 5, 1, 4
    draws = min(500, config.probes)
    for n in config.dims:
        rng = random.Random(config.seed)
        e1 = unit_vec(n, 0)
        for d in range(1, n + 1):
            bodies = [("T", zero_vec(n), 0, standard_simplex(d, n)),
                      ("E", vneg(e1), 1,
                       Polytope(n, [vneg(e1)] + [unit_vec(n, i) for i in range(d)]))]
            for p in (1, 2, 3):
                fields = [(name, v0, m, face_sum_valuation(B, p, a1, a2),
                           face_sum_valuation(B.reflect(), p, b1, b2))
                          for name, v0, m, B in bodies]
                for _ in range(draws):
                    x = tuple(rng.randint(-9, 9) for _ in range(n))
                    for name, v0, m, ha, hb in fields:
                        out.cases += 1
                        if (ha.value(x), hb.value(x)) != face_sum_closed_form(
                                v0, d, m, x, p, a1, a2, b1, b2):
                            out.failures.append({"body": f"{name}^{d}", "n": n, "p": p,
                                                 "x": list(x)})
                if p == 1:
                    # at e1 the pair of sums on T collapses to a2 (d >= 2) or a1 (d = 1)
                    _, _, _, ha, hb = fields[0]
                    out.cases += 1
                    if ha.value(e1) + hb.value(e1) != (a1 if d == 1 else a2):
                        out.failures.append({"body": f"T^{d}", "n": n, "x": "e1"})
    return out.close()


def _suite_difference(config):
    """Criterion 10: the vertex form of the difference body of T^d against
    its face-lattice field, for five weight tuples at min(500,
    config.probes) draws in [-7, 7]^n."""
    out = Verdict("difference_vertex_vs_field")
    weights = [(0, 1, 1, 2), (1, 1, 1, 1), (1, 3, 2, 4), (0, 2, 2, 2),
               (Fraction(1, 2), 1, Fraction(3, 4), Fraction(3, 2))]
    draws = min(500, config.probes)
    for n in config.dims:
        rng = random.Random(config.seed)
        for d in range(1, n + 1):
            T = standard_simplex(d, n)
            for a1, a2, b1, b2 in weights:
                D = difference_body_simplex(T, a1, a2, b1, b2)
                ha = face_sum_valuation(T, 1, a1, a2)
                hb = face_sum_valuation(T.reflect(), 1, b1, b2)
                for _ in range(draws):
                    x = tuple(rng.randint(-7, 7) for _ in range(n))
                    out.cases += 1
                    if D.support(x) != ha.value(x) + hb.value(x):
                        out.failures.append({"n": n, "d": d, "weights": [
                            str(v) for v in (a1, a2, b1, b2)], "x": list(x)})
    return out.close()


def _suite_lp_to_linf(config):
    """Criterion 7: at each of min(200, config.probes) probes where the
    L_inf projection of T^n is positive, the L_p projections for p = 1, 2,
    4, .., 64 approach it monotonically (to 1e-6) and end within 5%."""
    out = Verdict("lp_to_linf_limit")
    for n in config.dims:
        T = standard_simplex(n, n)
        hinf = from_polytope(linf_projection_body(T, 1), INF)
        fields = [lp_projection_body(T, p, 1) for p in (1, 2, 4, 8, 16, 32, 64)]
        for x in probe_directions(n, min(200, config.probes), config.seed):
            limit = hinf.value(x)
            if limit <= 0:
                continue
            out.cases += 1
            limit = float(limit)
            errs = [abs(float(h.support(x)) - limit) for h in fields]
            if (any(b > a + 1e-6 for a, b in zip(errs, errs[1:]))
                    or errs[-1] > 0.05 * limit):
                out.failures.append({"n": n, "probe": [str(c) for c in x],
                                     "errors": errs, "limit": limit})
    return out.close()


def _suite_negative_hull(config):
    """Non-monotone weight vector must break the max-form identity."""
    out = Verdict("negative_non_monotone_hull", cases=1)
    a_bad = (1, 3, 2, 4)
    n = 4
    if n not in config.dims:
        n = max(config.dims)
        a_bad = a_bad[:n]
    op = classified_operator("hull_weighted",
                             ValuationParams(p=INF, a=a_bad, b=(0,) * n),
                             mode="unchecked")
    probes = probe_directions(n, min(200, config.probes), config.seed)
    for d in range(2, n + 1):
        for inst in generate_simplex_splits(n, d, config.lambdas[:2],
                                            config.scales[:1]):
            v = check_valuation_identity(op, INF, inst.case.quad(), probes)
            if v.failures:
                out.details["witness"] = {"n": n, "d": d, "lam": str(inst.lam),
                                          "witness": v.failures[0]}
                return out.close()
    out.failures.append({"case": "no witness found"})
    return out.close()


def _suite_constraint_boundary(config):
    """Difference-body constraints are sharp at the boundary."""
    out = Verdict("constraint_boundary")
    Q = Polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    h_edge = difference_body(Q, 0, 1, 0, 1)     # a2 - a1 = b2 exactly
    out.record("boundary a2-a1 = b2 subadditive",
               subadditivity_check(h_edge, samples=40).passed)
    eps = Fraction(1, 10)
    h_bad = difference_body(Q, 0, 1 + eps, 0, 1, checked=False)
    rep = subadditivity_check(h_bad, samples=40)
    out.record("a2-a1 = b2 + 1/10 violates", not rep.passed,
               witness=rep.to_json().get("witness"))
    return out.close()


def run_suite(config=None):
    """Full verification battery; returns {suite name: Verdict}."""
    if config is None:
        config = SuiteConfig()
    if not config.families:
        return {}
    suites = [
        _suite_split_predictions,
        _suite_valuation,
        _suite_equivariance,
        _suite_homogeneity,
        _suite_lower_dim,
        _suite_projection_property,
        _suite_polar,
        _suite_closed_form,
        _suite_difference,
        _suite_lp_to_linf,
        lambda cfg: sublinearity_counterexample(),
        _suite_negative_hull,
        _suite_constraint_boundary,
    ]
    bundle = {}
    for fn in suites:
        v = fn(config)
        bundle[v.name] = v
    return bundle


def bundle_ok(bundle):
    return all(v.passed for v in bundle.values())


def bundle_to_json(bundle, config=None):
    """The bundle as JSON: verdicts, the config when given, and provenance
    (the minkval and Python versions and the config's seed, None without
    a config)."""
    import platform

    from . import __version__

    out = {
        "ok": bundle_ok(bundle),
        "suites": [v.to_json() for v in bundle.values()],
        "provenance": {"minkval": __version__,
                       "python": platform.python_version(),
                       "seed": None if config is None else config.seed},
    }
    if config is not None:
        out["config"] = config.to_json()
    return out
