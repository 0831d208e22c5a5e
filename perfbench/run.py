"""Seeded benchmark for minkval.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload valuation_grid --seed 1 --seconds 30 --trace 0

The process imports minkval from this checkout's `src/` and makes the
workload's inputs from the seed; set-up is timed in five fresh
interpreters that do the same.  It then runs passes over the workload's
units, one unit after the other in one thread (a closed loop with a
single caller), until the next pass would end after `--seconds`, with
at least two passes.  Every pass runs on fresh copies of the inputs, so
caches start cold in each pass exactly as in the harness.

Every unit's output digest is compared with the recorded one in
`perfbench/reference/` when the seed was recorded, and with the first
pass's digest otherwise; a unit that raised, failed its check or
changed its digest is a failed unit.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` passes alternate
between untraced and traced, the metrics are the per-layer ones from
the traced passes, and the spans of the last traced pass are written
to `.bench_build/perfbench/`.  The line before it holds provenance and
run details.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(HERE, "reference")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

DEFAULT_SEED = 20260823      # SuiteConfig's seed: the criterion-3 grid itself
SETUP_REPEATS = 5
MIN_PASSES = 2
TAIL_BEYOND = 10             # units above the reported tail percentile

UNITS = {"_s": "s", "_ms": "ms", "_us": "us", "_mb": "MB", "_share": "share"}


def unit_of(name):
    for suffix, unit in UNITS.items():
        if name.endswith(suffix) or f"{suffix}." in name:
            return unit
    return "count"


def import_program():
    """Import minkval from this checkout's src/, and nothing else."""
    sys.path.insert(0, SRC)
    try:
        import minkval
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import minkval from {SRC}: {exc}")
    if not os.path.abspath(minkval.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: minkval came from {minkval.__file__}, not {SRC}")
    return minkval


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def load_reference(workload, seed, size):
    """Recorded per-unit digests for this workload and seed, or None."""
    if size != "full":
        return None
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)["seeds"].get(str(seed))


def fresh_setup_seconds(workload, seed, size):
    """Median wall time of SETUP_REPEATS fresh interpreters that each import
    the benchmark (and with it minkval and numpy) and make the inputs:
    process start to the point where the first unit could start."""
    code = (f"import sys; sys.path[:0] = [{SRC!r}, {HERE!r}]; import workloads; "
            f"workloads.WORKLOADS[{workload!r}].setup({seed!r}, {size!r})")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail(values, units_per_pass):
    """(percentile, value): the highest percentile that leaves TAIL_BEYOND
    units above it in a run of MIN_PASSES passes, read off the pooled
    units of all passes by nearest rank."""
    q = max(0.5, 1 - TAIL_BEYOND / (MIN_PASSES * units_per_pass))
    ordered = sorted(values)
    return 100 * q, ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def check_units(passes, reference):
    """Mark failed units; returns (attempted, failed, failure notes)."""
    first = passes[0]["results"]
    expected = reference if reference is not None else [r.digest for r in first]
    attempted = failed = 0
    notes = []
    for pi, p in enumerate(passes):
        results = p["results"]
        attempted += max(len(results), len(expected))
        failed += abs(len(results) - len(expected))
        for r, want in zip(results, expected):
            why = r.error or ("check failed" if not r.ok else
                              "digest differs" if r.digest != want else "")
            if why:
                failed += 1
                if len(notes) < 20:
                    notes.append(f"pass {pi} {r.key}: {why}")
    return attempted, failed, notes


def layer_metrics(tracer, results, fields_per_unit):
    """Per-layer numbers of one traced pass."""
    from workloads import FAMILIES

    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    m = {}
    for what in ("vertices", "facets", "face_lattice", "triangulation",
                 "origin_location", "map", "json"):
        m[f"geometry.{what}_s"] = s.get((f"geometry.{what}", ""), 0.0)
    for what in ("bodies", "vertices", "facets", "faces", "simplices"):
        m[f"geometry.{what}"] = counts.get(f"geometry.{what}", 0)
    hits = sum(counts.get(("hit", f), 0) for f in FAMILIES)
    misses = sum(counts.get(("miss", f), 0) for f in FAMILIES)
    m["operators.build_s"] = sum(s.get(("operators.build", f), 0.0) for f in FAMILIES)
    m["operators.builds"] = misses
    for f in FAMILIES:
        built = counts.get(("miss", f), 0)
        m[f"operators.build_ms.{f}"] = (1e3 * s.get(("operators.build", f), 0.0) / built
                                        if built else 0.0)
    m["operators.cache_hit_share"] = hits / (hits + misses) if hits + misses else 0.0
    radial = calls.get(("operators.radial", ""), 0)
    m["operators.radial_us"] = (1e6 * s.get(("operators.radial", ""), 0.0) / radial
                                if radial else 0.0)
    m["supports.eval_s"] = sum(s.get(("supports.eval", f), 0.0) for f in FAMILIES)
    m["supports.evals"] = sum(calls.get(("supports.eval", f), 0) for f in FAMILIES)
    for f in FAMILIES:
        k = calls.get(("supports.eval", f), 0)
        m[f"supports.eval_us.{f}"] = 1e6 * s.get(("supports.eval", f), 0.0) / k if k else 0.0
    m["harness.compare_s"] = s.get(("harness.check", ""), 0.0)
    m["harness.cases"] = sum(r.cases for r in results)
    requests = counts.get("operators.requests", 0)
    lookups = fields_per_unit * len(results)
    m["harness.values_cache_hit_share"] = 1 - requests / lookups if lookups else 0.0
    layers = sum(v for (name, _), v in s.items()
                 if name.split(".")[0] in ("geometry", "operators", "supports", "harness"))
    wall = sum(r.seconds for r in results)
    m["trace.unaccounted_share"] = (wall - layers) / wall if wall else 0.0
    return m


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def main(argv=None, size="full"):
    """Run one workload; returns the result object it printed last.

    size selects the workload's input size ("tiny" for the smoke test).
    """
    import_program()
    import numpy
    from spans import Tracer
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    W = WORKLOADS[args.workload]

    inputs = W.setup(args.seed, size)
    setup_s = None if args.trace else fresh_setup_seconds(W.name, args.seed, size)

    passes = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = args.trace == 1 and len(passes) % 2 == 1
        tracer = Tracer() if traced else None
        gc.collect()
        t0 = time.perf_counter()
        results, state = W.run_pass(inputs, tracer)
        clock = time.perf_counter() - t0
        passes.append(dict(traced=traced, results=results, tracer=tracer,
                           state=state if not passes else None,
                           wall=sum(r.seconds for r in results)))
        if tracer is not None:
            passes[-1]["layers"] = layer_metrics(tracer, results, W.FIELDS_PER_UNIT)
            for p in passes[:-1]:
                p["tracer"] = None      # keep the spans of the last traced pass only
        if len(passes) >= MIN_PASSES and time.perf_counter() + clock > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reference = load_reference(W.name, args.seed, size)
    oracle_failures, oracle_exact, oracle_total = W.oracles(passes[0]["state"])
    for r in passes[0]["results"]:
        if r.key in oracle_failures:
            r.ok = False
            r.error = r.error or "oracle: " + "; ".join(oracle_failures[r.key][:3])
    attempted, failed, notes = check_units(passes, reference)

    units_per_pass = len(passes[0]["results"])
    plain = [p for p in passes if not p["traced"]]
    unit_s = [r.seconds for p in plain for r in p["results"]]
    tail_pct, tail_s = tail(unit_s, units_per_pass)
    exact = sum(r.exact for p in passes for r in p["results"]) + oracle_exact
    compared = sum(r.compared for p in passes for r in p["results"]) + oracle_total
    wall_s = statistics.median(p["wall"] for p in plain)

    if args.trace:
        traced = [p for p in passes if p["traced"]]
        metrics = {k: statistics.median(p["layers"][k] for p in traced)
                   for k in traced[0]["layers"]}
        metrics["supports.probes_s"] = inputs["probes_s"]
        metrics["harness.instances_s"] = inputs["instances_s"]
        metrics["trace.wall_s"] = statistics.median(p["wall"] for p in traced)
        metrics["trace.overhead_share"] = metrics["trace.wall_s"] / wall_s - 1
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "unit_p50_ms": 1e3 * statistics.median(unit_s),
            "unit_tail_ms": 1e3 * tail_s,
            "peak_rss_mb": peak_rss_mb,
            "exact_share": exact / compared if compared else 0.0,
        }

    info = {
        "provenance": {
            "workload": W.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": size, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": git_sha(), "reference": reference is not None,
        },
        "counts": {
            "passes": len(passes), "units_per_pass": units_per_pass,
            "cases_per_pass": sum(r.cases for r in passes[0]["results"]),
            "bodies": inputs["bodies"], "tail_percentile": tail_pct,
            "pass_walls_s": [p["wall"] for p in passes],
        },
        "failed_share": failed / attempted if attempted else 0.0,
        "failures": notes,
    }
    print(json.dumps(info))
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        last = [p for p in passes if p["tracer"] is not None][-1]
        path = os.path.join(TRACE_DIR, f"{W.name}-seed{args.seed}.jsonl")
        last["tracer"].write(path, dict(info, layers=metrics))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
