"""Count the Fractions formed by the benchmark's job lists, run in-process.

Builds the job list of each workload of ``perfbench/workloads.py`` for
seed 11 and 45 s, as ``perfbench/run.py --seed 11 --seconds 45`` writes
them, and runs every job through ``lieaffine.cli.main`` in one process,
its output captured, with ``fractions.Fraction.__new__`` counted. It
prints one "workload jobs fractions" row per workload. Fractions formed
while the job lists are built are not counted. Standard library only,
plus ``lieaffine`` from ``PYTHONPATH``; ``perfbench/`` is read, never
changed, and the script has no options. From the repository root:

    PYTHONPATH=src python3 tools/fraction_count.py
"""

import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from lieaffine import cli  # noqa: E402

SEED = 11
SECONDS = 45


def job_lists():
    """{workload: job list} for ``SEED`` and ``SECONDS``, as ``workloads.write_jobs`` draws them."""
    return {
        "synth-sweep": workloads.synth_sweep_jobs(random.Random(f"{SEED}/synth-sweep"), SECONDS),
        "obstruction": workloads.obstruction_jobs(random.Random(f"{SEED}/obstruction"), SECONDS),
    }


def count_fractions(jobs) -> int:
    """The number of ``Fraction.__new__`` calls made while the jobs run, in order."""
    new = Fraction.__new__
    count = 0

    def counted(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return new(cls, *args, **kwargs)

    Fraction.__new__ = counted
    try:
        for job in jobs:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                cli.main(job["argv"])
    finally:
        Fraction.__new__ = new
    return count


def main():
    for workload, jobs in job_lists().items():
        print(f"{workload} {len(jobs)} {count_fractions(jobs)}")


if __name__ == "__main__":
    main()
