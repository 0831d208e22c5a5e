"""Command line surface: compute bodies, verify identities, emit slices.

Verbs: compute (apply an operator to a polytope file), verify (run the
harness from a config file), counterexample (the non-sublinear face-sum
instance), suite (emit a default config), slice (CSV support-function
slice for plotting).  Stdout carries human-readable text; JSON and CSV
go to --out files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .geometry import (
    DegenerateBasisError,
    GeometryError,
    dot,
    frac,
    polytope_from_json,
    polytope_to_json,
    Polytope,
)
from .supports import INF, from_polytope, probe_directions
from .operators import (
    FAMILIES,
    ValuationParams,
    classified_operator,
    difference_body,
    difference_body_simplex,
    face_sum_valuation,
    linf_moment_body,
    linf_projection_body,
    lp_projection_body,
    moment_body,
    origin_projection_body,
    polar_body,
    projection_body,
)
from .harness import (
    ConfigError,
    SuiteConfig,
    bundle_ok,
    bundle_to_json,
    run_suite,
    sublinearity_counterexample,
)


DEFAULT_PROBES = 64          # compute and slice; verify and suite default to SuiteConfig's
DEFAULT_SEED = 20260823


OPERATORS = ("projection", "origin_projection", "lp_projection",
             "linf_projection", "polar", "moment", "linf_moment",
             "face_sum", "difference_body", "difference_simplex") + FAMILIES


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed JSON in {path}: {e}") from None


def _parse_params(raw):
    if not raw:
        return {}
    if os.path.exists(raw):
        return _read_json(raw)
    try:
        params = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ConfigError(f"bad --params: {e}") from None
    if not isinstance(params, dict):
        raise ConfigError("--params must be a JSON object")
    return params


def _number(value, what):
    """A parsed number as an exact rational; ConfigError when it is not one."""
    try:
        return frac(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ConfigError(f"{what} is not a rational number: {value!r}") from None


def _numbers(params, key, default=()):
    seq = params.get(key, default)
    if not isinstance(seq, (list, tuple)):
        raise ConfigError(f"parameter {key} needs a list of numbers")
    return tuple(_number(v, f"parameter {key}") for v in seq)


def _pvalue(params, default=1):
    p = params.get("p", default)
    if p in ("inf", "oo", "infinity") or p == INF:
        return INF
    return _number(p, "parameter p")


def _pair(params, key, default=(1, 1)):
    pair = _numbers(params, key, default)
    if len(pair) != 2:
        raise ConfigError(f"parameter {key} needs two entries")
    return pair


def _sign(params):
    s = params.get("sign", 1)
    if s in (1, "+", "+1"):
        return 1
    if s in (-1, "-", "-1"):
        return -1
    raise ConfigError("sign must be +1 or -1")


def build_operator(name, params, mode="exact"):
    """Resolve an operator name and parameters to a callable."""
    if name == "projection":
        return projection_body
    if name == "origin_projection":
        return origin_projection_body
    if name == "lp_projection":
        p = _pvalue(params)
        sg = _sign(params)
        return lambda P: lp_projection_body(P, p, sg)
    if name == "linf_projection":
        sg = _sign(params)
        return lambda P: linf_projection_body(P, sg)
    if name == "polar":
        return polar_body
    if name == "moment":
        p = _pvalue(params)
        sg = _sign(params)
        return lambda P: moment_body(P, p, sg)
    if name == "linf_moment":
        sg = _sign(params)
        return lambda P: linf_moment_body(P, sg)
    if name == "face_sum":
        p = _pvalue(params)
        a1, a2 = _pair(params, "a")
        return lambda P: face_sum_valuation(P, p, a1, a2)
    if name == "difference_body":
        a1, a2 = _pair(params, "a")
        b1, b2 = _pair(params, "b")
        checked = mode != "unchecked"
        return lambda P: difference_body(P, a1, a2, b1, b2, checked=checked)
    if name == "difference_simplex":
        a1, a2 = _pair(params, "a")
        b1, b2 = _pair(params, "b")
        checked = mode != "unchecked"
        return lambda P: difference_body_simplex(P, a1, a2, b1, b2, checked=checked)
    if name in FAMILIES:
        co = params.get("coefficients", params)
        if not isinstance(co, dict):
            raise ConfigError("parameter coefficients needs an object")
        vp = ValuationParams(p=_pvalue(params), c=_numbers(co, "c"),
                             a=_numbers(co, "a"), b=_numbers(co, "b"))
        return classified_operator(name, vp, mode=mode)
    raise ConfigError(f"unknown operator {name!r}; choose from {', '.join(OPERATORS)}")


def _write_or_print(payload, out, as_text=False):
    body = payload if as_text else json.dumps(payload, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(body if body.endswith("\n") else body + "\n")
    else:
        print(body)


def cmd_compute(args):
    params = _parse_params(args.params)
    if not args.input:
        raise ConfigError("--input polytope file required")
    if not args.operator:
        raise ConfigError("--operator required")
    P = polytope_from_json(_read_json(args.input))
    op = build_operator(args.operator, params, args.mode)
    result = op(P)
    provenance = {
        "operator": args.operator,
        "params": params,
        "mode": args.mode,
    }
    if isinstance(result, Polytope):
        payload = dict(polytope_to_json(result))
        payload.update(provenance)
        payload["kind"] = "polytope"
    else:
        count = args.probes if args.probes is not None else DEFAULT_PROBES
        seed = args.seed if args.seed is not None else DEFAULT_SEED
        probes = probe_directions(P.n, count, seed)
        rows = []
        for x in probes:
            val = result.value(x)
            rows.append({
                "x": [str(c) for c in x],
                "value": str(val) if result.exact else float(val),
                "support": float(result.support(x)),
            })
        payload = dict(provenance)
        payload.update({
            "kind": "support-values",
            "n": P.n,
            "p": "inf" if result.p == INF else str(Fraction(result.p)),
            "exact": result.exact,
            "probes": rows,
        })
    _write_or_print(payload, args.out)
    return 0


def _config_from_args(args):
    """The config file (or the defaults), with explicit flags taking precedence."""
    obj = _read_json(args.input) if args.input else {}
    if isinstance(obj, dict):
        flags = {key: getattr(args, key) for key in ("probes", "seed")
                 if getattr(args, key) is not None}
        obj = {**obj, **flags}
    return SuiteConfig.from_json(obj)


def cmd_verify(args):
    cfg = _config_from_args(args)
    bundle = run_suite(cfg)
    ok = bundle_ok(bundle)
    for name, v in bundle.items():
        status = "pass" if v.as_expected else "FAIL"
        print(f"{status}  {name}: {v.cases} cases, {v.seconds:.2f}s")
    print(f"overall: {'pass' if ok else 'FAIL'} ({len(bundle)} suites)")
    if args.out:
        _write_or_print(bundle_to_json(bundle, cfg), args.out)
    return 0 if ok else 1


def cmd_counterexample(args):
    v = sublinearity_counterexample()
    vals = v.details.get("values", [])
    if len(vals) == 3:
        print("face-sum values: "
              f"h(1,3,3,2) = {vals[0]}, h(1,3,2,3) = {vals[1]}, "
              f"h(2,6,5,5) = {vals[2]}")
        print("subadditivity: "
              f"{vals[2]} > {vals[0]} + {vals[1]} (violation margin 1)")
    print(f"{'pass' if v.passed else 'FAIL'}: {v.cases} checks")
    if args.out:
        _write_or_print(v.to_json(), args.out)
    return 0 if v.passed else 1


def cmd_suite(args):
    cfg = _config_from_args(args)
    _write_or_print(cfg.to_json(), args.out)
    return 0


def cmd_slice(args):
    params = _parse_params(args.params)
    if not args.input:
        raise ConfigError("--input polytope file required")
    P = polytope_from_json(_read_json(args.input))
    name = args.operator or "projection"
    op = build_operator(name, params, args.mode)
    result = op(P)
    if isinstance(result, Polytope):
        result = from_polytope(result, INF)
    basis = []
    if args.plane:
        for part in args.plane.split(";"):
            basis.append(tuple(_number(c, "--plane coordinate") for c in part.split(",")))
        if len(basis) != 2:
            raise ConfigError("--plane needs two ;-separated vectors")
    else:
        basis = [tuple(Fraction(int(i == k)) for i in range(P.n)) for k in (0, 1)]
    # the plane's basis by Gram-Schmidt, without normalization
    u1, b = basis
    if not any(u1):
        raise DegenerateBasisError("dependent basis")
    t = dot(b, u1) / dot(u1, u1)
    u2 = tuple(c - t * a for a, c in zip(u1, b))
    if not any(u2):
        raise DegenerateBasisError("dependent basis")
    nu1 = math.sqrt(float(sum(c * c for c in u1)))
    nu2 = math.sqrt(float(sum(c * c for c in u2)))
    rows = ["theta,support"]
    res = args.probes if args.probes is not None else DEFAULT_PROBES
    for k in range(res):
        theta = 2 * math.pi * k / res
        x = tuple(Fraction(math.cos(theta) / nu1).limit_denominator(10 ** 9) * a
                  + Fraction(math.sin(theta) / nu2).limit_denominator(10 ** 9) * b
                  for a, b in zip(u1, u2))
        rows.append(f"{theta:.10f},{float(result.support(x)):.12f}")
    _write_or_print("\n".join(rows), args.out, as_text=True)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="minkval",
        description="Exact Minkowski valuation operators on polytopes")
    sub = ap.add_subparsers(dest="verb", required=True)
    verbs = {
        "compute": "apply an operator to a polytope file",
        "verify": "run the verification harness",
        "counterexample": "show the non-sublinear face-sum instance",
        "suite": "emit a harness configuration",
        "slice": "CSV slice of a support function in a plane",
    }
    for verb, help_text in verbs.items():
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--input", help="input JSON file (polytope or config)")
        p.add_argument("--operator", help="operator or family name")
        p.add_argument("--params", help="JSON string or file with parameters")
        p.add_argument("--out", help="output file (JSON or CSV)")
        p.add_argument("--mode", choices=("exact", "unchecked"), default="exact",
                       help="exact, or unchecked to skip family constraint checks")
        p.add_argument("--seed", type=int,
                       help=f"probe seed (default: the config's, else {DEFAULT_SEED})")
        p.add_argument("--probes", type=int,
                       help="probe count / slice resolution "
                            f"(default: the config's, else {DEFAULT_PROBES})")
        if verb == "slice":
            p.add_argument("--plane",
                           help="two ;-separated comma vectors spanning the slice plane")
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    handlers = {
        "compute": cmd_compute,
        "verify": cmd_verify,
        "counterexample": cmd_counterexample,
        "suite": cmd_suite,
        "slice": cmd_slice,
    }
    try:
        if args.probes is not None and args.probes < 1:
            raise ConfigError("--probes must be >= 1")
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed must be >= 0")
        return handlers[args.verb](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (GeometryError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
