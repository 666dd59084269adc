"""lieaffine benchmark: end-to-end and per-layer numbers for two workloads.

Run from the repository root (stdlib only; the program is imported from
``src/``):

    python3 perfbench/run.py --workload synth-sweep --seed 1 --seconds 45 --trace 0

``--workload`` is synth-sweep, obstruction, or ``all`` to print every
workload in one call. Set-up runs SETUP_REPEATS times, each in a fresh
interpreter that imports the package and writes every workload's job
list from ``--seed``; ``setup_s`` is the median, and the copies must be
byte-identical. The job list then runs once in a fresh child process
(see measure.py). With ``--trace 1`` the same list also runs under the
tracer (tracer.py) and the per-layer numbers are printed instead. The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a JSON record of the
run's context (Python, git rev, nproc, seed), the sample count behind
each percentile and ``failed_ratio``.

End-to-end metrics (``--trace 0``). Times are wall times rescaled to a
reference host speed by a probe timed around each interval (hostspeed.py);
the raw wall-time figures are in the record line.
  setup_s      median time of one set-up: import plus every job list
  jobs_per_s   jobs completed / wall time of the job loop, without the
               probes the benchmark times between jobs (see measure.py)
  job_p50_s    median job time
  job_tail_s   highest whole percentile with at least ten samples beyond it
  peak_rss_mb  ru_maxrss of the measuring child after the timed loop
A job whose exit code or payload check fails counts in ``failed``
(``failed_ratio`` = failed / attempted); it never stops the run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from hostspeed import at_reference_speed  # noqa: E402
from tracer import SPAN_NAMES, TRACED  # noqa: E402

WORKLOADS = ("synth-sweep", "obstruction")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _child(script: str, *args: str) -> None:
    cmd = [sys.executable, os.path.join(HERE, script), *args]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{script} exited {proc.returncode}:\n{proc.stderr[-4000:]}")


def job_lists(root: str) -> dict:
    """The bytes of every workload's job list written under `root`."""
    lists = {}
    for workload in WORKLOADS:
        with open(os.path.join(root, "jobs", f"{workload}.json"), "rb") as fh:
            lists[workload] = fh.read()
    return lists


def setup(work: str, src: str, args, repeats: int):
    """Run set-up `repeats` times; return (input dir, rescaled times, wall
    times, whether every copy is byte-identical)."""
    times, walls, roots = [], [], []
    for rep in range(repeats):
        root = os.path.join(work, f"setup{rep}")
        report = os.path.join(work, f"setup{rep}.json")
        _child("prepare.py", "--src", src, "--root", root, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--report", report)
        with open(report, encoding="utf-8") as fh:
            doc = json.load(fh)
        times.append(doc["setup_s"])
        walls.append(doc["wall_s"])
        roots.append(root)
    identical = all(job_lists(roots[0]) == job_lists(r) for r in roots[1:])
    return roots[0], times, walls, identical


def measure(work: str, src: str, root: str, workload: str, trace: int) -> dict:
    out = os.path.join(work, f"{workload}.trace{trace}.json")
    _child("measure.py", "--src", src, "--root", root, "--workload", workload,
           "--trace", str(trace), "--out", out)
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def tail(times: list):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(times)
    pct = max(0, math.floor(100 - 1000 / n))
    if pct == 0 or n < 2:
        value = min(times)
    else:
        value = statistics.quantiles(times, n=100, method="inclusive")[pct - 1]
    return pct, value, sum(t > value for t in times)


def rescaled(result: dict, key: str) -> list:
    """Each job's `key` times ("times" or "slots") at the reference host
    speed (hostspeed.py).

    The measuring child times the probe before the first job and after
    each one; job i is rescaled by the two probes around it.
    """
    probes = result["probes"]
    return [at_reference_speed(t, probes[i], probes[i + 1])
            for i, t in enumerate(result[key])]


def jobs_per_s(result: dict) -> float:
    return result["completed"] / sum(rescaled(result, "slots"))


def end_to_end(result: dict, setup_s: float) -> tuple:
    times = rescaled(result, "times")
    pct, tail_s, beyond = tail(times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (jobs_per_s(result), "jobs/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail_s, "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }
    raw = result["times"]
    samples = {"job_samples": len(times), "job_tail_percentile": pct,
               "job_tail_beyond": beyond,
               "probe_median_s": statistics.median(result["probes"]),
               "raw_wall": {"jobs_per_s": result["completed"] / sum(result["slots"]),
                            "job_p50_s": statistics.median(raw),
                            "job_tail_s": tail(raw)[1]}}
    return metrics, samples


def per_layer(traced: dict, untraced: dict) -> tuple:
    trace = traced["trace"]
    metrics = {}
    for span in SPAN_NAMES:
        metrics[f"{span}.calls"] = (trace["calls"][span], "count")
        metrics[f"{span}.self_s"] = (trace["self_s"][span], "s")
    counters = trace["counters"]
    metrics["serialize.bytes_out"] = (counters["serialize.bytes_out"], "bytes")
    metrics["derivations.search.candidates"] = (
        counters["derivations.search.candidates"], "count")
    calls = counters["derivations.search.calls"]
    metrics["derivations.search.hit_ratio"] = (
        counters["derivations.search.hits"] / calls if calls else 0.0, "ratio")
    metrics["linalg.rref.cells"] = (counters["linalg.rref.cells"], "count")
    metrics["linalg.Matrix.entries"] = (counters["linalg.Matrix.entries"], "count")
    metrics["trace.overhead_jobs_per_s"] = (jobs_per_s(traced) - jobs_per_s(untraced),
                                            "jobs/s")

    layer_s = {layer: sum(trace["self_s"][f"{layer}.{name}"] for name in names)
               for layer, names in TRACED.items()}
    total = sum(layer_s.values()) or 1.0
    top = sorted(SPAN_NAMES, key=lambda s: -trace["self_s"][s])[:5]
    info = {
        # serialize.bytes_in is not measured: no workload reads an input file.
        "missing": trace["missing"] + ["serialize.bytes_in"],
        "layer_self_share": {k: round(v / total, 4) for k, v in layer_s.items()},
        "top_self_s": {s: round(trace["self_s"][s], 4) for s in top},
        "search_calls": calls,
    }
    return metrics, info


def _git_rev(root: str) -> str:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and os.path.samefile(top.stdout.strip(), root):
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10)
            if rev.returncode == 0:
                return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unavailable"


def context(root: str, args) -> dict:
    return {
        "python": platform.python_version(),
        "git_rev": _git_rev(root),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "client": "closed loop, 1 client, 1 process, 1 thread, in-process cli.main",
    }


def _fmt(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lieaffine", "cli.py")):
        print("error: src/lieaffine not found; run from the repository root",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    work = os.path.join(HERE, ".work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        # A traced run reports no set-up time, so one set-up is enough.
        inputs, setup_times, setup_walls, identical = setup(
            work, src, args, 1 if args.trace else SETUP_REPEATS)
        record = context(root, args)
        record.update(setup_samples=len(setup_times), setup_identical=identical,
                      setup_wall_s=setup_walls)
        attempted = failed = 0
        metrics = {}
        for workload in workloads:
            result = untraced = measure(work, src, inputs, workload, 0)
            if args.trace:
                result = measure(work, src, inputs, workload, 1)
                found, info = per_layer(result, untraced)
            else:
                found, info = end_to_end(untraced, statistics.median(setup_times))
            n_jobs = len(result["times"])
            n_failed = len(result["failures"])  # a job that raised fails its check
            info.update(jobs=n_jobs, failures=result["failures"][:5],
                        failed_ratio={"value": n_failed / n_jobs, "unit": "ratio"})
            record[workload] = info
            attempted += n_jobs
            failed += n_failed
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in found.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            os.rmdir(os.path.dirname(work))
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and identical, "attempted": attempted,
                      "failed": failed, "metrics": _fmt(metrics)}))
    return 0


if __name__ == "__main__":
    # Turn SIGTERM into SystemExit, so subprocess.run kills the running child
    # and the work directory is removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
