"""Smoke test of the benchmark itself, every workload at a tiny size.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_tiny(workload, trace, capsys):
    run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
              "--trace", str(trace)], size="tiny")
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, group, capsys):
    result = run_tiny(workload, trace, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC[group]}
    for m in SPEC[group]:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"], m["name"]
        assert isinstance(printed["value"], (int, float)), m["name"]


def _perturb_first_rational(obj):
    """Copy of a digest record with its first exact value changed by 1/10^9."""
    done = False

    def walk(x):
        nonlocal done
        if isinstance(x, str) and not done:
            try:
                v = Fraction(x)
            except ValueError:
                return x
            done = True
            return str(v + Fraction(1, 10 ** 9))
        if isinstance(x, (list, tuple)):
            return type(x)(walk(y) for y in x)
        if isinstance(x, dict):
            return {k: walk(v) for k, v in x.items()}
        return x

    out = walk(obj)
    assert done, "digest record holds no exact value"
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_output_counts_as_failed(workload, capsys, monkeypatch):
    import workloads

    real, calls = workloads.digest, []

    def digest_with_one_perturbed_value(record):
        calls.append(None)
        return real(_perturb_first_rational(record) if len(calls) == 1 else record)

    monkeypatch.setattr(workloads, "digest", digest_with_one_perturbed_value)
    result = run_tiny(workload, 0, capsys)
    # the first pass's first unit is perturbed, so the second pass's
    # correct output no longer matches it: exactly one failed unit
    assert result["failed"] == 1
    assert result["correct"] is False
