"""Smoke test of the e2e benchmark harness (not part of tier-1).

Run explicitly::

    python -m pytest benchmarks/e2e -q

Every workload runs with ``--quick`` (one rep), so this checks the harness
and the exact counts, never a timing.
"""

import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def quick(workload, trace):
    """One ``--quick`` run through the command of ``BENCHMARK.json``;
    returns (printed text, the contract's last-line object)."""
    done = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "7", "--quick",
                           "--trace", str(trace), "--label", "smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    assert done.returncode == 0, done.stdout
    return done.stdout, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_prints_every_metric_and_counts_repeat(workload, trace):
    text, first = quick(workload, trace)
    _text, second = quick(workload, trace)
    assert "NOT valid for comparison" in text
    for result in (first, second):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1

    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(first["metrics"]) == {m["name"] for m in named}
    for metric in named:
        name = metric["name"]
        assert NAME.fullmatch(name)
        assert first["metrics"][name]["unit"] == metric["unit"]
        # printed by name with its unit
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {metric['unit']}$",
                         text, re.M), name

    exact = [name for name in first["metrics"]
             if name == "sim_events_per_op" or name.endswith(".calls")]
    assert exact
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name

    if trace:
        shares = [m["value"] for name, m in first["metrics"].items()
                  if name.endswith(".self_share")]
        assert len(shares) == 26
        assert abs(sum(shares) - 1.0) < 0.01


def test_failing_check_and_failing_rep_raise_error_rate():
    import child
    from probe import Probe
    from workloads import WORKLOADS as DEFINED

    def failing_check(inputs, m):
        with m.timed():
            pass
        return {"x": 1}, [("injected", False)]

    def raising(inputs, m):
        raise RuntimeError("injected")

    base = DEFINED["pingpong_eager"]
    session = child.Session(dataclasses.replace(base, rep=failing_check),
                            {}, Probe())
    sample = session.rep()
    assert sample is not None          # the rep still yields a timing
    assert session.failed_checks == ["rep1:injected"]
    assert session.checks_attempted == 2

    session = child.Session(dataclasses.replace(base, rep=raising),
                            {}, Probe())
    assert session.rep() is None       # a failed rep, not a crash
    assert session.failed_checks == ["rep1:completed"]
    assert session.checks_attempted == 1


def test_compare_flags_worse_and_unresolved():
    import run

    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    assert run.verdict(steady, steady, "lower", 0.10)["status"] == "ok"
    slower = [v * 1.2 for v in steady]
    assert run.verdict(steady, slower, "lower", 0.10)["status"] == "worse"
    assert run.verdict(slower, steady, "lower", 0.10)["status"] == "ok"
    noisy = [1.0, 1.3, 0.7, 1.2, 0.8, 1.0, 1.4, 0.6, 1.1, 0.9]
    assert run.verdict(noisy, noisy, "lower", 0.10)["status"] == "unresolved"
