"""Measuring child: run one workload's job list once, in-process.

One client, one thread, closed loop: each job is a ``lieaffine.cli.main``
call with stdout and stderr captured, started as soon as the previous one
has returned. The call is timed on its own (``times``) and as part of its
loop slot (``slots``): the call, the capture and a garbage collection, as
a fresh CLI process would start clean. A fixed probe is timed before the
first job and after each slot, so run.py can rescale both to a reference
host speed; the probes are the only part of the loop outside the slots.
After the loop the child reads its peak RSS, then checks every payload,
and writes a JSON result to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time

from hostspeed import probe


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    from lieaffine import cli  # loads every layer, so the tracer can find them

    with open(os.path.join(args.root, "jobs", f"{args.workload}.json"),
              encoding="utf-8") as fh:
        jobs = json.load(fh)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    times, slots, codes, stdouts = [], [], [], []
    probes = [probe()]
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        code = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(job["argv"])
        except Exception:  # counted as a failed job; the run goes on
            pass
        times.append(time.perf_counter() - start)
        codes.append(code)
        stdouts.append(out.getvalue())
        gc.collect()
        slots.append(time.perf_counter() - start)
        probes.append(probe())
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    trace = tracer.snapshot() if tracer else None
    if trace:
        # No job reads an input file or writes --out, so stdout is all the
        # serialized output.
        trace["counters"]["serialize.bytes_out"] = sum(
            len(text.encode("utf-8")) for text in stdouts)

    import checks

    failures = []
    for index, (job, code, text) in enumerate(zip(jobs, codes, stdouts)):
        reason = checks.check(job, code, text)
        if reason is not None:
            failures.append({"job": index, "argv": job["argv"], "reason": reason})

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"times": times, "slots": slots,
                   "completed": sum(c is not None for c in codes),
                   "failures": failures, "peak_rss_kb": peak_rss_kb, "probes": probes,
                   "trace": trace}, fh)


if __name__ == "__main__":
    main()
