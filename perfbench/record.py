"""Record the per-unit output digests that runs are checked against.

Run from the repository root:

    python3 perfbench/record.py

For each workload and each seed in SEEDS (the harness's default seed and
one held-out seed) this runs one untraced pass at full size, requires
every unit to pass its check and every oracle to hold, and writes
perfbench/reference/<workload>.json.  Re-record only when a workload's
inputs or its digest format change on purpose, never to make a changed
output pass.
"""

import json
import os

import run

SEEDS = (run.DEFAULT_SEED, 7)


def main():
    run.import_program()
    from workloads import WORKLOADS

    os.makedirs(run.REFERENCE_DIR, exist_ok=True)
    for name, W in WORKLOADS.items():
        seeds = {}
        for seed in SEEDS:
            results, state = W.run_pass(W.setup(seed, "full"), None)
            failures, _, _ = W.oracles(state)
            bad = [r.key for r in results if r.error or not r.ok] + sorted(failures)
            if bad:
                raise SystemExit(f"{name} seed {seed}: refusing to record, failed units {bad[:5]}")
            seeds[str(seed)] = [r.digest for r in results]
            print(f"{name} seed {seed}: {len(results)} units")
        with open(os.path.join(run.REFERENCE_DIR, f"{name}.json"), "w") as fh:
            json.dump({"size": "full", "seeds": seeds}, fh, indent=0)
            fh.write("\n")


if __name__ == "__main__":
    main()
