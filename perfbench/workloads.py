"""Seeded job lists for the benchmark workloads.

Every job is one ``lieaffine`` command line, run in-process through
``lieaffine.cli.main``. The synth-sweep list is a sequence of rounds; a
round holds every entry of the pool exactly once, in an order drawn from
the seed, so every seed measures the same mix of algebras and only the
order, the ``--seed`` values and the Cn parameters change. Obstruction
jobs come in (synth, char-nilp) pairs whose t values run through seeded
permutations of the seven t. Each workload draws its ``--seed`` values
without replacement from its own range, so no (command, algebra, --seed)
triple repeats within a run.

This module imports the program; it runs only inside the set-up child.
"""

from __future__ import annotations

import json
import os
import random

from lieaffine import catalog

# Job lists are sized from --seconds alone, so the list and every
# percentile's sample count never depend on how fast the host ran. On a
# 2-vCPU VM under Python 3.11 one synth-sweep round costs 17-24 s and an
# obstruction pair (a Benoist synth plus a char-nilp) 3-4.5 s. At 45 s that
# is two rounds (66 jobs; one round spread jobs_per_s twice as wide over
# seeds) and 14 pairs: two whole passes over t, and 28 samples, enough for
# a tail percentile above the median. Below one round or pair, the list
# shrinks to the share of it that --seconds buys, never below one job.
SYNTH_ROUND_SECONDS = 20.0
OBSTRUCTION_PAIR_SECONDS = 3.2

_SEED_RANGES = {
    "synth-sweep": (1, 1_000_000),
    "obstruction": (1_000_000, 2_000_000),
}

BENOIST_T = ("0", "1", "-1", "2", "1/3", "-1/2", "7/5")
OBSTRUCTION_TRIALS = 64

# synth-sweep pool: (family, n, strategy, number of distinct Cn parameter
# draws). The eight C12 draws sit in the middle of the cost order, so the
# median job is one of many alike rather than a single job's time.
SYNTH_POOL = (
    [("Ln", n, "auto", 0) for n in (12, 16, 20, 24)]
    + [(fam, n, "auto", 0) for fam, n in
       (("Qn", 10), ("QnZ", 12), ("Qn", 14), ("QnZ", 16))]
    + [("Cn", n, "derived-regular", draws)
       for n, draws in ((8, 2), (10, 4), (12, 8), (14, 4))]
    + [("Ln", n, "symplectic", 0) for n in (12, 14, 16, 18, 20, 22, 24)]
)

# Strategy the certificate must name. Ln and Qn carry an invertible
# diagonal derivation (their torus), so `auto` certifies `regular` first.
EXPECTED_STRATEGY = {"auto": "regular", "derived-regular": "derived-regular",
                     "symplectic": "symplectic"}


class _Seeds:
    """--seed values drawn without replacement from a workload's range."""

    def __init__(self, rng: random.Random, workload: str):
        self._rng = rng
        self._used = set()
        self._lo, self._hi = _SEED_RANGES[workload]

    def draw(self) -> int:
        while True:
            s = self._rng.randrange(self._lo, self._hi)
            if s not in self._used:
                self._used.add(s)
                return s


def _cn_lambdas(rng: random.Random, n: int, count: int, taken: set) -> list:
    """`count` new Cn parameter vectors whose Jacobi report is empty.

    Entries are +-1, so every draw has the same bracket table shape and
    about the same cost; a zero entry would drop a whole shift of products,
    and larger entries spread the cost of the search.
    """
    out = []
    for _ in range(1000):
        lams = tuple(rng.choice((-1, 1)) for _ in range((n - 2) // 2 - 1))
        if (n, lams) in taken or catalog.make_cn(n, list(lams))[1]:
            continue
        taken.add((n, lams))
        out.append(list(lams))
        if len(out) == count:
            return out
    raise RuntimeError(f"found only {len(out)} of {count} Jacobi-valid C{n} parameters")


def _family_argv(spec: dict) -> list:
    argv = ["--family", spec["family"], "--n", str(spec["n"])]
    for lam in spec.get("lambdas", ()):
        argv.append(f"--lambda={lam}")
    return argv


def _specs(rng, pool_entry, taken):
    family, n, _, draws = pool_entry
    if family != "Cn":
        return [{"family": family, "n": n}]
    return [{"family": family, "n": n, "lambdas": lams}
            for lams in _cn_lambdas(rng, n, draws, taken)]


def synth_sweep_jobs(rng: random.Random, seconds: int) -> list:
    seeds = _Seeds(rng, "synth-sweep")
    jobs = []
    for _ in range(max(1, round(seconds / SYNTH_ROUND_SECONDS))):
        taken: set = set()  # an algebra may recur in a later round, with a new --seed
        round_jobs = []
        for entry in SYNTH_POOL:
            strategy = entry[2]
            for spec in _specs(rng, entry, taken):
                argv = (["affine", "synth"] + _family_argv(spec)
                        + ["--strategy", strategy, "--seed", str(seeds.draw()),
                           "--reproducible"])
                round_jobs.append({"argv": argv, "check": "synth", "algebra": spec,
                                   "strategy": EXPECTED_STRATEGY[strategy]})
        rng.shuffle(round_jobs)
        jobs.extend(round_jobs)
    if seconds < SYNTH_ROUND_SECONDS:
        jobs = jobs[:max(1, round(len(jobs) * seconds / SYNTH_ROUND_SECONDS))]
    return jobs


def obstruction_jobs(rng: random.Random, seconds: int) -> list:
    """(synth, char-nilp) pairs; t runs through seeded permutations of
    BENOIST_T, so every t is drawn once before any is drawn again."""
    seeds = _Seeds(rng, "obstruction")
    pairs = max(1, round(seconds / OBSTRUCTION_PAIR_SECONDS))
    ts: list = []
    while len(ts) < pairs:
        ts.extend(rng.sample(BENOIST_T, len(BENOIST_T)))
    jobs = []
    for t in ts[:pairs]:
        jobs.append({
            "argv": ["affine", "synth", "--family", "Benoist", f"--t={t}",
                     "--trials", str(OBSTRUCTION_TRIALS),
                     "--seed", str(seeds.draw()), "--reproducible"],
            "check": "no-strategy",
        })
        jobs.append({
            "argv": ["der", "char-nilp", "--family", "Benoist", f"--t={t}",
                     "--seed", str(seeds.draw()), "--reproducible"],
            "check": "char-nilpotent-likely",
        })
    rng.shuffle(jobs)
    return jobs


def write_jobs(root: str, seed: int, seconds: int) -> None:
    """Write jobs/<workload>.json for every workload.

    The same seed and --seconds write byte-identical files.
    """
    lists = {
        "synth-sweep": synth_sweep_jobs(random.Random(f"{seed}/synth-sweep"), seconds),
        "obstruction": obstruction_jobs(random.Random(f"{seed}/obstruction"), seconds),
    }
    os.makedirs(os.path.join(root, "jobs"), exist_ok=True)
    for workload, jobs in lists.items():
        with open(os.path.join(root, "jobs", f"{workload}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(jobs, fh, sort_keys=True, indent=1)
            fh.write("\n")
