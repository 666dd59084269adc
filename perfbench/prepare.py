"""Set-up child: import the program and write every workload's job list.

Run by ``run.py`` in a fresh interpreter, so the measured time includes
the package import. Prints nothing on success; the elapsed time, raw and
rescaled to the reference host speed (hostspeed.py), goes to the
``--report`` file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from hostspeed import at_reference_speed, probe


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--report", required=True)
    args = parser.parse_args()

    before = probe()
    start = time.perf_counter()
    sys.path.insert(0, args.src)
    import lieaffine.cli  # noqa: F401  (the whole package, as a CLI call loads it)
    import workloads

    workloads.write_jobs(args.root, args.seed, args.seconds)
    elapsed = time.perf_counter() - start
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": elapsed,
                   "setup_s": at_reference_speed(elapsed, before, probe())}, fh)


if __name__ == "__main__":
    main()
