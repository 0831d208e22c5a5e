"""The benchmark's workloads: seeded inputs, timed units, output digests
and independent oracles.

Each workload's `setup(seed, size)` makes every input from the seed.
`run_pass(inputs, tracer)` runs one pass over the workload's units on
fresh copies of those inputs, one unit after the other in this thread,
and returns one `UnitResult` per unit.  A unit's digest covers every
exact output it produced, written as exact rational strings, so a
change that returns a different value, or a float where a rational was
returned before, changes the digest.

With a `Tracer` the pass also records spans: operator builds, per-probe
field evaluations, the harness call around them, and the lazy geometry
each operator is about to use, forced just before the operator sees the
body.  Without one, the only wrapping is a one-list-append capture of
each field value returned into the harness, which the digest needs.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import functools
import hashlib
import itertools
import numbers
import random
from fractions import Fraction
from time import perf_counter

from minkval import operators
from minkval.geometry import (
    Polytope,
    polytope_from_json,
    polytope_to_json,
    standard_simplex,
    transform_phi,
)
from minkval.harness import (
    DEFAULT_LAMBDAS,
    DEFAULT_SCALES,
    SuiteConfig,
    check_equivariance,
    check_valuation_identity,
    generate_simplex_splits,
    generate_union_chain,
    integer_unimodular_maps,
    operator_battery,
)
from minkval.operators import (
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
from minkval.supports import SupportEval, from_polytope, probe_directions

from spans import NullTracer

FAMILIES = (
    "projection", "origin_projection", "lp_projection", "linf_projection",
    "moment", "linf_moment", "face_sum", "hull_weighted",
    "linf_contravariant_pair", "lp_contravariant", "lp_covariant",
    "l1_contravariant", "covariant_l1_3d", "polar_body",
)

# Lazy geometry each operator family reads from its body argument; the
# traced run computes exactly these before the operator runs, so the
# traced pass does the same work as the untraced one.
NEEDS = {
    "projection": ("facets", "surface"),
    "origin_projection": ("facets", "surface"),
    "l1_contravariant": ("facets", "surface"),
    "lp_projection": ("facets",),
    "linf_projection": ("facets",),
    "linf_contravariant_pair": ("facets",),
    "lp_contravariant": ("facets",),
    "moment": ("simplices",),
    "lp_covariant": ("simplices",),
    "face_sum": ("faces",),
    "covariant_l1_3d": ("faces", "simplices"),
    "linf_moment": (),
    "hull_weighted": (),
}

# Public operator factories whose calls from inside other operators are
# also traced, so builds and cache hits of composed operators are seen.
FACTORIES = {
    "projection_body": "projection",
    "origin_projection_body": "origin_projection",
    "lp_projection_body": "lp_projection",
    "linf_projection_body": "linf_projection",
    "moment_body": "moment",
    "linf_moment_body": "linf_moment",
    "face_sum_valuation": "face_sum",
}


@dataclasses.dataclass
class UnitResult:
    key: str
    seconds: float
    digest: str = ""
    ok: bool = False          # the harness verdict or the unit's own checks
    exact: int = 0            # comparisons decided by exact rational equality
    compared: int = 0
    cases: int = 0
    error: str = ""


def family_of(name):
    """Operator family of a battery entry such as 'lp_projection[p=2]+'."""
    return name.split("[")[0].rstrip("+-")


def is_exact(v):
    return isinstance(v, numbers.Rational) and not isinstance(v, bool)


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _error(exc):
    return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# wrappers around operators and the fields they return


def _capture(fn, values, tracer, family):
    if tracer is None:
        def run(x):
            v = fn(x)
            values.append(v)
            return v
        return run
    begin, end = tracer.begin, tracer.end

    def run(x):
        begin("supports.eval", family)
        try:
            v = fn(x)
        finally:
            end()
        values.append(v)
        return v
    return run


def wrap_operator(op, family, p, outputs, tracer):
    """Battery operator whose returned field records its values in
    outputs[id(body)]; polytope outputs become their p-field first, as
    the harness would do itself."""
    needs = NEEDS[family]

    def run(P):
        if tracer is not None:
            tracer.count("operators.requests")
            tracer.force(P, needs)
            tracer.begin("operators.build", family)
        try:
            out = op(P)
            field = out if isinstance(out, SupportEval) else from_polytope(out, p)
        finally:
            if tracer is not None:
                tracer.end()
        if tracer is not None:
            tracer.note_factory_result(P, out, family)
        values = outputs[id(P)] = []
        return dataclasses.replace(field, fn=_capture(field.fn, values, tracer, family))
    return run


def _traced_factory(fn, family, tracer):
    needs = NEEDS[family]

    @functools.wraps(fn)
    def call(P, *args, **kwargs):
        tracer.force(P, needs)
        tracer.begin("operators.build", family)
        try:
            out = fn(P, *args, **kwargs)
        finally:
            tracer.end()
        tracer.note_factory_result(P, out, family)
        return out
    return call


@contextlib.contextmanager
def traced_library(tracer):
    """Trace factory calls made inside operators and Polytope.map calls
    made inside the harness, for the duration of one traced pass."""
    if tracer is None:
        yield
        return
    saved = {name: getattr(operators, name) for name in FACTORIES}
    saved_map = Polytope.map

    def traced_map(self, A):
        tracer.begin("geometry.map")
        try:
            return saved_map(self, A)
        finally:
            tracer.end()

    for name, family in FACTORIES.items():
        setattr(operators, name, _traced_factory(saved[name], family, tracer))
    Polytope.map = traced_map
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(operators, name, fn)
        Polytope.map = saved_map


def _timed_unit(results, key, tracer, call):
    """Run call() as one unit inside a harness span; returns its value or
    None after recording the exception on a failed UnitResult."""
    if tracer is not None:
        tracer.unit = key
        tracer.begin("harness.check")
    t0 = perf_counter()
    try:
        out = call()
        err = None
    except Exception as exc:    # a raising unit is a failed unit, not a crash
        out, err = None, _error(exc)
    seconds = perf_counter() - t0
    if tracer is not None:
        tracer.end()
    res = UnitResult(key=key, seconds=seconds, error=err or "")
    results.append(res)
    return out, res


class Workload:
    FIELDS_PER_UNIT = 0       # fields a unit asks the operator for, before caching

    def oracles(self, state):
        """({unit key: [failure, ...]}, exact comparisons, all comparisons)."""
        return {}, 0, 0


# ---------------------------------------------------------------------------
# valuation_grid


class ValuationGrid(Workload):
    """Criterion-3 identity grid, as `_suite_valuation` builds it."""

    name = "valuation_grid"
    FIELDS_PER_UNIT = 4
    SIZES = {
        "full": dict(dims=(3, 4), lambdas=DEFAULT_LAMBDAS, scales=DEFAULT_SCALES,
                     probes=48, depth=2),
        "tiny": dict(dims=(3,), lambdas=DEFAULT_LAMBDAS[:1], scales=DEFAULT_SCALES[:1],
                     probes=4, depth=1),
    }

    def setup(self, seed, size):
        s = self.SIZES[size]
        cfg = SuiteConfig(dims=s["dims"], lambdas=s["lambdas"], scales=s["scales"],
                          probes=s["probes"], seed=seed, depth=s["depth"])
        groups, battery = [], {}
        probes_s = instances_s = 0.0
        for n in cfg.dims:
            t0 = perf_counter()
            probes = probe_directions(n, cfg.probes, cfg.seed)
            t1 = perf_counter()
            quads = []
            for d in range(2, n + 1):
                for inst in generate_simplex_splits(n, d, cfg.lambdas, cfg.scales):
                    sc = inst.case
                    quads.append((sc.lower, sc.upper, sc.parent, sc.section))
            for uq in generate_union_chain(n, depth=cfg.depth, seed=cfg.seed):
                quads.append((uq.K, uq.L, uq.union, uq.inter))
            battery[n] = operator_battery(n, cfg.families)
            t2 = perf_counter()
            probes_s += t1 - t0
            instances_s += t2 - t1
            groups.append((n, probes, quads))
        bodies = len({id(B) for _, _, quads in groups for q in quads for B in q})
        return dict(groups=groups, battery=battery, probes_s=probes_s,
                    instances_s=instances_s, bodies=bodies)

    def run_pass(self, inputs, tracer):
        groups = copy.deepcopy(inputs["groups"])
        results = []
        with traced_library(tracer):
            for n, probes, quads in groups:
                for name, p, op in inputs["battery"][n]:
                    cache, outputs, text = {}, {}, {}
                    wrapped = wrap_operator(op, family_of(name), p, outputs, tracer)
                    for qi, quad in enumerate(quads):
                        key = f"n={n}|{name}|q={qi}"
                        v, res = _timed_unit(results, key, tracer, lambda: check_valuation_identity(
                            wrapped, p, quad, probes, name=name, values=cache))
                        if v is not None:
                            self._finish(res, v, quad, outputs, text, len(probes))
        return results, None

    @staticmethod
    def _finish(res, verdict, quad, outputs, text, nprobes):
        try:
            vals = [outputs[id(B)] for B in quad]
        except KeyError:
            res.error = "a body's field values were never requested"
            return
        for B, vs in zip(quad, vals):
            if id(B) not in text:
                text[id(B)] = [str(v) for v in vs]
        res.digest = digest([text[id(B)] for B in quad])
        res.ok = verdict.passed
        res.cases = verdict.cases
        res.compared = nprobes
        res.exact = sum(1 for i in range(nprobes) if all(is_exact(vs[i]) for vs in vals))


# ---------------------------------------------------------------------------
# equivariance_cold


def _equivariance_battery():
    """The operators and kinds `_suite_equivariance` checks."""
    return [
        ("projection", "contravariant", projection_body),
        ("origin_projection", "contravariant", origin_projection_body),
        ("lp_projection[p=2]+", "contravariant", functools.partial(lp_projection_body, p=2, sign=1)),
        ("linf_projection+", "contravariant", functools.partial(linf_projection_body, sign=1)),
        ("moment[p=1]+", "covariant", functools.partial(moment_body, p=1, sign=1)),
        ("moment[p=2]-", "covariant", functools.partial(moment_body, p=2, sign=-1)),
        ("linf_moment+", "covariant", functools.partial(linf_moment_body, sign=1)),
        ("face_sum[p=1]", "covariant", lambda P: face_sum_valuation(P, 1, 1, 3)),
    ]


class EquivarianceCold(Workload):
    """SL(n) battery of `_suite_equivariance`, one unit per (operator, map, body)."""

    name = "equivariance_cold"
    FIELDS_PER_UNIT = 2
    SIZES = {
        "full": dict(dims=(3, 4), probes=48, random_maps=10),
        "tiny": dict(dims=(3,), probes=4, random_maps=1),
    }
    LAMS = (Fraction(1, 4), Fraction(1, 2))

    def setup(self, seed, size):
        s = self.SIZES[size]
        groups = []
        probes_s = instances_s = 0.0
        for n in s["dims"]:
            t0 = perf_counter()
            probes = probe_directions(n, min(60, s["probes"]), seed)
            t1 = perf_counter()
            maps = integer_unimodular_maps(n, count=s["random_maps"], seed=seed)
            maps += [transform_phi(1, lam, n) for lam in self.LAMS]
            maps += [transform_phi(2, lam, n) for lam in self.LAMS]
            bodies = [standard_simplex(n, n),
                      standard_simplex(n, n, Fraction(1, 2)).map(
                          integer_unimodular_maps(n, 1, seed + 1)[0])]
            t2 = perf_counter()
            probes_s += t1 - t0
            instances_s += t2 - t1
            groups.append((n, probes, maps, bodies))
        bodies = sum(len(b) * (1 + len(m) * len(_equivariance_battery()))
                     for _, _, m, b in groups)
        return dict(groups=groups, battery=_equivariance_battery(),
                    probes_s=probes_s, instances_s=instances_s, bodies=bodies)

    def run_pass(self, inputs, tracer):
        groups = copy.deepcopy(inputs["groups"])
        results, outputs = [], {}
        wrapped = {(n, name): wrap_operator(op, family_of(name), 1, outputs, tracer)
                   for n, _, _, _ in groups for name, _, op in inputs["battery"]}
        # Map-major order: the work is the same as the harness's
        # operator-major loop, but each operator's units (the 4-d face_sum
        # ones are the tail) are spread over the whole pass instead of one
        # contiguous block that a few seconds of machine noise can cover.
        _, _, maps0, bodies0 = groups[0]
        with traced_library(tracer):
            for mi, bi in itertools.product(range(len(maps0)), range(len(bodies0))):
                for n, probes, maps, bodies in groups:
                    M, P = maps[mi], bodies[bi]
                    for name, kind, _ in inputs["battery"]:
                        outputs.clear()
                        key = f"n={n}|{name}|m={mi}|b={bi}"
                        v, res = _timed_unit(results, key, tracer, lambda: check_equivariance(
                            wrapped[n, name], kind, [M], [P], probes, name=name))
                        if v is not None:
                            self._finish(res, v, P, outputs)
        return results, None

    @staticmethod
    def _finish(res, verdict, P, outputs):
        base = outputs.get(id(P))
        moved = [vs for k, vs in outputs.items() if k != id(P)]
        if base is None or len(moved) != 1 or len(moved[0]) != len(base):
            res.error = "expected one base and one moved field with matching probes"
            return
        moved = moved[0]
        res.digest = digest([[str(v) for v in moved], [str(v) for v in base]])
        res.ok = verdict.passed
        res.cases = verdict.cases
        res.compared = len(base)
        res.exact = sum(1 for a, b in zip(moved, base) if is_exact(a) and is_exact(b))


# ---------------------------------------------------------------------------
# hull_lattice


T_POOL = tuple(Fraction(a, 2) for a in range(-5, 6))


def moment_cloud(rng, n, count, interior):
    """count random rational points on the moment curve t -> (t, ..., t^n).

    Such points are always in convex position and span a cyclic polytope,
    whose face lattice depends only on (n, count), so a body of one class
    costs about the same whatever the seed.  interior: the origin is moved
    to the centroid, strictly inside; otherwise onto one of the points,
    which makes it a vertex.
    """
    pts = [tuple(t ** k for k in range(1, n + 1)) for t in rng.sample(T_POOL, count)]
    o = tuple(sum(c) / count for c in zip(*pts)) if interior else rng.choice(pts)
    return sorted(tuple(a - b for a, b in zip(p, o)) for p in pts)


def _build(T, family, P, make):
    with T.span("operators.build", family):
        out = make(P)
    T.note_factory_result(P, out, family)
    return out


def _cube(n):
    return [tuple(Fraction(c) for c in v) for v in itertools.product((-1, 1), repeat=n)]


def _cross(n):
    return [tuple(Fraction(s) if j == i else Fraction(0) for j in range(n))
            for i in range(n) for s in (-1, 1)]


def _canonical_faces(faces):
    return sorted(sorted(tuple(str(c) for c in v) for v in f) for f in faces)


def _vertex_strings(P):
    return sorted(tuple(str(c) for c in v) for v in P.vertices)


class HullLattice(Workload):
    """Geometry core on seeded rational clouds and three fixed bodies."""

    name = "hull_lattice"
    PROBES = 24
    # Fixed bodies by name; random clouds as (dimension, points, origin
    # strictly inside).  Runs pool two passes, so unit_p50_ms is read near
    # the middle of the 4-d class and unit_tail_ms (five units above it per
    # pass) inside the 5-d class, never on the edge between two classes of
    # different cost.  The classes take turns, so a few seconds of machine
    # noise cannot cover all units of one class.
    C3, B3, C4, B5 = (3, 8, True), (3, 8, False), (4, 8, True), (5, 8, False)
    SIZES = {
        "full": ["cube4", B5, C4, C3, B5, C4, B3, "cross5", B5, C4, C3, B5, C4, B3,
                 "cube3", B5, C4, C3, C4, B3],
        "tiny": ["cube3", C3, B3],
    }
    FIXED = {"cube3": (3, _cube), "cube4": (4, _cube), "cross5": (5, _cross)}

    def setup(self, seed, size):
        t0 = perf_counter()
        rng = random.Random(seed)
        bodies = []
        for i, spec in enumerate(self.SIZES[size]):
            if spec in self.FIXED:
                n, make = self.FIXED[spec]
                bodies.append((spec, n, make(n), True))
            else:
                n, count, interior = spec
                tag = "in" if interior else "bd"
                bodies.append((f"{i}-cloud-d{n}-{count}{tag}", n,
                               moment_cloud(rng, n, count, interior), interior))
        bodies = [(name, n, {"n": n, "vertices": [[str(c) for c in p] for p in pts]}, inside)
                  for name, n, pts, inside in bodies]
        t1 = perf_counter()
        probes = {n: probe_directions(n, self.PROBES, seed) for n in {b[1] for b in bodies}}
        t2 = perf_counter()
        return dict(items=bodies, probes=probes, probes_s=t2 - t1,
                    instances_s=t1 - t0, bodies=len(bodies))

    def run_pass(self, inputs, tracer):
        T = tracer if tracer is not None else NullTracer()
        results, state = [], []
        for name, n, obj, interior in inputs["items"]:
            probes = inputs["probes"][n]
            T.unit = name
            t0 = perf_counter()
            try:
                with T.span("unit"):
                    out = self._unit(T, obj, interior, probes)
                err = None
            except Exception as exc:    # a raising unit is a failed unit, not a crash
                out, err = None, _error(exc)
            res = UnitResult(key=name, seconds=perf_counter() - t0, error=err or "")
            results.append(res)
            if out is not None:
                try:
                    self._finish(res, out, interior, probes)
                except Exception as exc:
                    res.error = _error(exc)
                state.append((res, out, interior, probes))
        return results, state

    @staticmethod
    def _unit(T, obj, interior, probes):
        with T.span("geometry.json"):
            P = polytope_from_json(obj)
        with T.span("geometry.vertices"):
            P.dim
            verts = P.vertices
        with T.span("geometry.facets"):
            facets = P.facets
        with T.span("geometry.face_lattice"):
            lattice = P.face_lattice()
            through = {j: P.faces_through_origin(j) for j in range(1, P.dim)}
        with T.span("geometry.triangulation"):
            tri = P.triangulation()
            vol = P.volume
        with T.span("geometry.origin_location"):
            loc = P.origin_location()
        T.count("geometry.bodies")
        T.count("geometry.vertices", len(verts))
        T.count("geometry.facets", len(facets))
        T.count("geometry.faces", sum(len(f) for f in lattice.values()))
        T.count("geometry.simplices", len(tri))
        out = dict(P=P, loc=loc, vol=vol, through=through)
        if interior:
            out["polar"] = _build(T, "polar_body", P, polar_body)
            out["linf"] = _build(T, "linf_projection", P, linf_projection_body)
            rho = []
            for x in probes:
                with T.span("operators.radial"):
                    rho.append(radial_function(P, x))
            hpol = []
            for x in probes:
                with T.span("supports.eval", "polar_body"):
                    hpol.append(out["polar"].support(x))
            out.update(rho=rho, hpol=hpol)
        fields = []
        for family, make in (("projection", projection_body),
                             ("face_sum", lambda B: face_sum_valuation(B, 1, 1, 3))):
            h = _build(T, family, P, make)
            vals = []
            for x in probes:
                with T.span("supports.eval", family):
                    vals.append(h.value(x))
            fields.append(vals)
        out["fields"] = fields
        with T.span("geometry.json"):
            out["json"] = polytope_to_json(P)
        return out

    @staticmethod
    def _finish(res, out, interior, probes):
        P = out["P"]
        record = [
            _vertex_strings(P),
            sorted((f.normal, str(f.offset), str(f.weight)) for f in P.facets),
            {j: _canonical_faces(fs) for j, fs in sorted(P.face_lattice().items())},
            {j: _canonical_faces(fs) for j, fs in sorted(out["through"].items())},
            str(out["vol"]), out["loc"], out["json"],
            [[str(v) for v in vs] for vs in out["fields"]],
        ]
        values = [v for vs in out["fields"] for v in vs]
        if interior:
            record += [_vertex_strings(out["polar"]),
                       [str(v) for v in out["rho"]], [str(v) for v in out["hpol"]]]
            values += out["rho"] + out["hpol"]
        res.digest = digest(record)
        res.cases = len(probes)
        res.ok = (out["loc"] == ("interior" if interior else "relative-boundary")
                  and all(is_exact(v) for v in values))

    def oracles(self, state):
        """Exact facet identities, polar duality and a scipy qhull cross-check."""
        import numpy as np
        from scipy.spatial import ConvexHull

        failures, exact, total = {}, 0, 0
        for res, out, interior, probes in state:
            P = out["P"]
            n = P.n
            checks = [
                ("n vol = sum offset weight",
                 n * out["vol"] == sum(f.offset * f.weight for f in P.facets)),
                ("sum weight normal = 0",
                 all(sum(f.weight * f.normal[i] for f in P.facets) == 0 for i in range(n))),
            ]
            if interior:
                checks.append(("linf projection body = polar body", out["linf"] == out["polar"]))
                checks += [(f"h_polar rho = 1 at {x}", h * r == 1)
                           for x, h, r in zip(probes, out["hpol"], out["rho"])]
            exact += len(checks)
            hull = ConvexHull(np.array([[float(c) for c in v] for v in P.vertices]))
            planes = {tuple(np.round(eq, 8)) for eq in hull.equations}
            vol = float(out["vol"])
            checks += [
                ("qhull volume", abs(hull.volume - vol) <= 1e-9 * max(1.0, vol)),
                ("qhull facet count", len(planes) == len(P.facets)),
            ]
            total += len(checks)
            bad = [name for name, ok in checks if not ok]
            if bad:
                failures[res.key] = bad
        return failures, exact, total


WORKLOADS = {w.name: w for w in (ValuationGrid(), EquivarianceCold(), HullLattice())}
