"""The benchmark's own test. Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

It runs every workload on the tiny job list that ``--seconds 1`` buys,
untraced and traced, and checks that every metric is printed with its unit and that no job
failed; that one seed always writes the same job lists and files; and
that the tracer follows from-imports and renames and reports a missing
function without stopping.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402

END_TO_END = {"setup_s": "s", "jobs_per_s": "jobs/s", "job_p50_s": "s",
              "job_tail_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_EXTRA = {"serialize.bytes_out": "bytes",
                   "derivations.search.candidates": "count",
                   "derivations.search.hit_ratio": "ratio",
                   "linalg.rref.cells": "count", "linalg.Matrix.entries": "count",
                   "trace.overhead_jobs_per_s": "jobs/s"}


def _bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    record_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(record_line)["record"], json.loads(result_line)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_and_no_job_fails(trace):
    record, result = _bench("--workload", "all", "--seed", "3", "--seconds", "1",
                            "--trace", str(trace))
    expected = dict(END_TO_END)
    if trace:
        expected = {f"{s}.{kind}": unit for s in SPAN_NAMES
                    for kind, unit in (("calls", "count"), ("self_s", "s"))}
        expected.update(PER_LAYER_EXTRA)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    for workload in run.WORKLOADS:
        assert record[workload]["failed_ratio"] == {"value": 0.0, "unit": "ratio"}
        for name, unit in expected.items():
            metric = result["metrics"][f"{workload}.{name}"]
            assert metric["unit"] == unit
            assert isinstance(metric["value"], (int, float))
    for key in ("python", "git_rev", "nproc", "seed"):
        assert key in record


def _prepare(root, seed):
    subprocess.run([sys.executable, os.path.join(HERE, "prepare.py"),
                    "--src", os.path.join(ROOT, "src"), "--root", root,
                    "--seed", str(seed), "--seconds", "30", "--report", root + ".json"],
                   cwd=ROOT, check=True, timeout=600)


def test_same_seed_writes_identical_inputs(tmp_path):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        _prepare(str(tmp_path / name), seed)
    a, b, c = (run.job_lists(str(tmp_path / n)) for n in "abc")
    assert a == b
    assert a != c
    for workload in run.WORKLOADS:
        jobs = json.loads(a[workload])
        assert len({tuple(j["argv"]) for j in jobs}) == len(jobs)


def _fake_package(monkeypatch):
    """A two-module stand-in: `derivations` from-imports `rref` under another name."""
    pkg = types.ModuleType("fakelie")
    linalg = types.ModuleType("fakelie.linalg")

    def rref(m):
        return m

    linalg.rref = rref
    derivations = types.ModuleType("fakelie.derivations")
    derivations.reduce_rows = rref

    def derivation_space(m):
        return derivations.reduce_rows(m)

    derivations.derivation_space = derivation_space
    for name, module in (("fakelie", pkg), ("fakelie.linalg", linalg),
                         ("fakelie.derivations", derivations)):
        monkeypatch.setitem(sys.modules, name, module)
    return derivations


def test_tracer_follows_renamed_from_imports_and_reports_missing(monkeypatch):
    derivations = _fake_package(monkeypatch)
    tracer = Tracer()
    tracer.install("fakelie")
    matrix = types.SimpleNamespace(rows=3, cols=4)
    derivations.derivation_space(matrix)
    assert tracer.calls["linalg.rref"] == 1
    assert tracer.calls["derivations.derivation_space"] == 1
    assert tracer.counters["linalg.rref.cells"] == 12
    assert "derivations.is_derivation" in tracer.missing
    assert "linalg.Matrix.entries" in tracer.missing
    assert tracer.self_s["derivations.derivation_space"] >= 0.0
