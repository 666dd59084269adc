"""Digest the output of a fixed sweep of command-line calls, to compare two trees.

Runs a fixed list of in-process ``lieaffine.cli.main`` calls, every one
with ``--reproducible``, and prints the number of calls, the count of
each exit code and one sha256 over the (argv, stdout, stderr, exit code)
of every call. Two trees that print the same lines give the same
bytes on every call of the sweep. Standard library only, plus
``lieaffine`` from ``PYTHONPATH``, through its public names; it has no
options and imports nothing from ``tests/``, so one copy digests any
tree. Its two fixtures are read from the ``tests/`` of the checkout that
``lieaffine`` is imported from, and the sweep stops with exit 1 when they
are not there. From the repository root:

    PYTHONPATH=src python3 tools/digest_sweep.py
    PYTHONPATH=/path/to/other/tree/src python3 tools/digest_sweep.py

The calls, in order:

* ``catalog list``, then every subcommand that reads an algebra (each
  search at its defaults and at ``--seed 5 --trials 3``, ``affine synth``
  under every strategy), ``catalog show`` and ``der torus`` on Ln 3-16,
  Qn and QnZ 6-12, Cn 6-12 (two seeded draws of lambda from {1, -1,
  2/3, 1/2} per size), Benoist with t = 0, 1 and 7/5, then the paper's
  A_n^k and B_n^k: Ank (n, k; lambda) = (7, 2; 1, 1/2), (9, 3; 1, 1),
  (11, 3; 1, 1, 2/3) and (9, 2; 1, 1, 2/3), which is not Lie, and Bnk
  (6, 2; 1), (8, 4; 1), (8, 5; no lambda) and (8, 2; 1, 1), which is not
  Lie;
* the same subcommands with ``--in`` on ``tests/half_weights.json`` and
  ``tests/half_form.json``, and on L8, Q8, C8 (1, -1) and Benoist(1)
  moved onto the basis P e_1, ..., P e_n: P is a seeded sparse +-1,
  dense +-1, rational or lower unitriangular +-1 change of basis, drawn
  from ``random.Random(n)`` until it is invertible, and the brackets of
  the algebra's JSON document are moved in Fractions,
  c' = P^-1 [P e_i, P e_j], and written to a temporary directory. The
  unitriangular move keeps each span(e_m, ..., e_n), so its tables stay
  in a basis adapted to the lower central series, with tails below each
  leading bracket;
* ``--help`` at the top, at each group and at each command, with
  ``COLUMNS`` set to 80 because argparse wraps help at the terminal width;
  the argvs of ``test_cli_cuts_long_argument_values``, each a usage error
  with a long argument value; an unrecognized argument and an unknown
  option after a command, a ``--`` after a command and before the group,
  a missing required ``--cert`` and an abbreviated option (``--fam``);
* ``der diag``, ``der regular``, ``der derived-regular`` and ``affine
  synth`` with ``--in`` on two tables in a basis adapted to their lower
  central series, written as JSON to the temporary directory, one for
  each kind of closed-form weight space outside the catalog: a Lie table
  whose one weight, (2, 1, 3, 4, 5), puts the weight space over
  denominator 2, and a table that fails Jacobi and allows no nonzero
  weight, on which every command stops at the Lie check with exit 1;
* ``catalog show``, ``verify jacobi`` and ``affine synth``, with no
  ``--out``, on the members whose integer tables carry a den or drop a
  constant: Benoist at t = 0, -448/2475, 448/3525 and 448/1525, each of
  which zeroes a constant, Cn with a zero lambda and with lambdas over a
  shared den, and Ank and Bnk with fractional lambda. They come after
  every call above, so ``sweep(limit)`` within those calls is unchanged;
* ``--in`` documents that spell rationals out of lowest terms or
  as zeros, written to the temporary directory, one through each reader
  of outside rationals: ``verify jacobi`` and ``affine synth`` on an
  algebra with a "0" and a "-3/6" coefficient, and ``io validate`` on a
  twoform with "0" and "4/8" entries, an affine document whose gamma
  holds "0/3" and a NotCharNilpotent verdict whose witness rows hold
  "2/4" and "0/5";
* last, the ``SPELLINGS``: ``--t 1`` as two tokens, ``--family=Ln``,
  ``--seed -2`` as its own token, a repeated ``--n`` and ``--lambda
  -1/2``, a usage error;
* ``affine verify`` and ``io validate`` on every certificate that
  ``affine synth --out`` wrote, and ``affine verify`` on a tampered copy
  of it, whose first coefficient of e_i.e_j with i != j is shifted by 1:
  that shifts the torsion residual of {i, j} by 1, so every tampered
  re-check fails and the digest covers its residual counts too; and
  ``der verify-witness`` and ``io validate`` on every verdict that
  ``der char-nilp --out`` wrote.

The temporary directory and the repository root are replaced by fixed
names before hashing, so the digest does not depend on where either lives.
"""

import hashlib
import io
import json
import os
import random
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import lieaffine
from lieaffine import LieAlgebra, catalog, cli
from lieaffine.serialize import algebra_to_json, json_text

# the checkout of the package under test: src/lieaffine/__init__.py -> its root
ROOT = Path(lieaffine.__file__).resolve().parents[2]

LAMBDAS = ("1", "-1", "2/3", "1/2")
SEARCH = (["--seed", "5", "--trials", "3"],)
# (command, extra argv variants, what an --out file of it holds)
READERS = [
    (["verify", "jacobi"], (), None),
    (["verify", "filiform"], (), None),
    (["verify", "nilpotent"], (), None),
    (["der", "space"], (), None),
    (["der", "diag"], (), None),
    (["der", "regular"], SEARCH, None),
    (["der", "derived-regular"], SEARCH, None),
    (["der", "char-nilp"], SEARCH, "verdict"),
    (["affine", "symplectic-find"], SEARCH, None),
    *((["affine", "synth", "--strategy", s], (), "certificate")
      for s in ("auto", "regular", "derived-regular", "symplectic")),
]
# (family, n, k, lambdas) of the Ank and Bnk members; A9^2 and B8^2 are not Lie
ANK_BNK = [("Ank", 7, 2, ("1", "1/2")), ("Ank", 9, 3, ("1", "1")), ("Ank", 11, 3, ("1", "1", "2/3")),
           ("Ank", 9, 2, ("1", "1", "2/3")), ("Bnk", 6, 2, ("1",)), ("Bnk", 8, 4, ("1",)),
           ("Bnk", 8, 5, ()), ("Bnk", 8, 2, ("1", "1"))]


# (name, dim, brackets) of the two tail_filtered tables outside the catalog
FILTERED = [("den2", 5, {(0, 1): {2: 1}, (0, 2): {4: 1}, (1, 2): {3: 1}, (1, 3): {4: 1}}),
            ("rank2", 6, {**{(0, m): {m + 1: 1} for m in range(1, 5)},
                          (1, 2): {4: 1}, (2, 3): {5: 1}})]
FILTERED_COMMANDS = (["der", "diag"], ["der", "regular"], ["der", "derived-regular"],
                     ["affine", "synth"])

# the members whose integer tables carry a den or drop a constant: Benoist
# at the t that each zero a constant, then (family, n, k, lambdas) of Cn
# with a zero or fractional lambda and Ank and Bnk with fractional lambda
ADOPTED_T = ("0", "-448/2475", "448/3525", "448/1525")
ADOPTED_LAMBDAS = [("Cn", 10, None, ("1/2", "0", "3/4")), ("Cn", 8, None, ("0", "1/3")),
                   ("Cn", 12, None, ("2/3", "0", "-5/6", "1/4")),
                   ("Ank", 7, 2, ("2/3", "1/3")), ("Ank", 9, 3, ("1/2", "1/2")),
                   ("Ank", 11, 3, ("1/3", "1/3", "2/9")), ("Bnk", 6, 2, ("1/2",)),
                   ("Bnk", 8, 4, ("3/2",)), ("Bnk", 10, 2, ("1/2", "1/3", "1/4"))]
ADOPTED_COMMANDS = (["catalog", "show"], ["verify", "jacobi"], ["affine", "synth"])

# (file name, leading argv, JSON document) of the rationals spelled out of
# lowest terms or as zeros; the algebra is L5 with [e1, e2] = -1/2 e3
SPELLED = [
    ("spelled-algebra", (["verify", "jacobi"], ["affine", "synth"]),
     {"name": "spelled", "dim": 5, "basis": ["e1", "e2", "e3", "e4", "e5"],
      "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "-3/6", "5": "0"}},
                   {"i": 1, "j": 3, "coeffs": {"4": "1"}},
                   {"i": 1, "j": 4, "coeffs": {"5": "1"}},
                   {"i": 2, "j": 3, "coeffs": {"5": "0"}}]}),
    ("spelled-twoform", (["io", "validate", "--kind", "twoform"],),
     {"dim": 4, "entries": [{"i": 1, "j": 2, "value": "0"}, {"i": 1, "j": 4, "value": "4/8"},
                            {"i": 2, "j": 3, "value": "1"}]}),
    ("spelled-affine", (["io", "validate", "--kind", "affine"],),
     {"dim": 2, "gamma": [{"i": 1, "j": 1, "coeffs": {"2": "0/3"}},
                          {"i": 2, "j": 1, "coeffs": {"1": "1", "2": "0/3"}}]}),
    ("spelled-verdict", (["io", "validate", "--kind", "verdict"],),
     {"kind": "NotCharNilpotent", "witness": [["2/4", "0/5"], ["0/5", "1"]],
      "seed": 0, "trials": 1}),
]


# argv spellings past the ones above, last in the sweep: a separate --t
# value and an '='-joined --family, then a negative --seed in its own
# token, a repeated --n and a negative --lambda in its own token, which
# only argparse reads (the last is a usage error)
SPELLINGS = [["der", "char-nilp", "--family", "Benoist", "--t", "1"],
             ["affine", "synth", "--family=Ln", "--n", "6"],
             ["der", "regular", "--family", "Ln", "--n", "6", "--seed", "-2"],
             ["catalog", "show", "--family", "Ln", "--n", "5", "--n", "7"],
             ["catalog", "show", "--family", "Cn", "--n", "8", "--lambda", "-1/2"]]


# every command of each group, for the help calls
COMMANDS = {
    "catalog": ("list", "show"),
    "verify": ("jacobi", "filiform", "nilpotent"),
    "der": ("space", "diag", "regular", "derived-regular", "char-nilp", "torus",
            "verify-witness"),
    "affine": ("synth", "verify", "symplectic-find"),
    "io": ("validate",),
}
LONG = "x" * 5000


def _families():
    """The --family argv of every catalog member the sweep reads."""
    out = [["--family", "Ln", "--n", str(n)] for n in range(3, 17)]
    out += [["--family", f, "--n", str(n)] for f in ("Qn", "QnZ") for n in range(6, 13, 2)]
    rng = random.Random(44)
    for n in range(6, 13, 2):
        for _ in range(2):
            out.append(["--family", "Cn", "--n", str(n)]
                       + [f"--lambda={rng.choice(LAMBDAS)}" for _ in range(n // 2 - 2)])
    out += [["--family", "Benoist", f"--t={t}"] for t in ("0", "1", "7/5")]
    for family, n, k, lambdas in ANK_BNK:
        out.append(["--family", family, "--n", str(n), "--k", str(k)]
                   + [f"--lambda={x}" for x in lambdas])
    return out


def _adopted_members():
    """The --family argv of the ``ADOPTED_T`` and ``ADOPTED_LAMBDAS`` members."""
    out = [["--family", "Benoist", f"--t={t}"] for t in ADOPTED_T]
    for family, n, k, lambdas in ADOPTED_LAMBDAS:
        out.append(["--family", family, "--n", str(n)] + (["--k", str(k)] if k else [])
                   + [f"--lambda={x}" for x in lambdas])
    return out


def _sparse_change(n, rng):
    """I plus four seeded +-1 entries off the diagonal."""
    grid = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(4):
        i, j = rng.sample(range(n), 2)
        grid[i][j] = rng.choice((-1, 1))
    return grid


def _dense_change(n, rng):
    """A unit diagonal and a seeded +-1 everywhere off it."""
    return [[1 if i == j else rng.choice((-1, 1)) for j in range(n)] for i in range(n)]


def _rational_change(n, rng):
    """A unit diagonal and seeded p/q entries (q = 2, 3) at about 30% of the places off it."""
    return [[1 if i == j else Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((2, 3)))
             if rng.random() < 0.3 else 0 for j in range(n)] for i in range(n)]


def _unitriangular_change(n, rng):
    """A unit diagonal, a seeded +-1 everywhere below it and 0 above: P e_j is e_j plus later vectors."""
    return [[1 if i == j else rng.choice((-1, 1)) if i > j else 0 for j in range(n)]
            for i in range(n)]


MOVES = {"sparse": _sparse_change, "dense": _dense_change, "rational": _rational_change,
         "unitriangular": _unitriangular_change}


def _inverse(grid):
    """The inverse rows of a square grid, by Gauss-Jordan in Fractions, or None if singular."""
    n = len(grid)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(grid)]
    for c in range(n):
        pick = next((r for r in range(c, n) if rows[r][c]), None)
        if pick is None:
            return None
        rows[c], rows[pick] = rows[pick], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def _moved(doc, change, rng):
    """The brackets {(i, j): {k: c}} of an algebra document on the basis P e_1, ..., P e_n.

    P = change(n, rng), drawn again until it is invertible; the new
    constants are c' = P^-1 [P e_i, P e_j], in Fractions.
    """
    n = doc["dim"]
    brackets = {(b["i"] - 1, b["j"] - 1): {int(k) - 1: Fraction(c) for k, c in b["coeffs"].items()}
                for b in doc["brackets"]}
    while True:
        p = change(n, rng)
        pinv = _inverse(p)
        if pinv is not None:
            break
    cols = [[row[i] for row in p] for i in range(n)]
    moved = {}
    for i in range(n):
        for j in range(i + 1, n):
            image = [Fraction(0)] * n
            for (a, b), coeffs in brackets.items():
                t = cols[i][a] * cols[j][b] - cols[i][b] * cols[j][a]
                for k, c in coeffs.items():
                    image[k] += t * c
            moved[i, j] = {k: sum(x * y for x, y in zip(row, image)) for k, row in enumerate(pinv)}
    return moved


def _moved_inputs(tmp):
    """Write the moved algebras to ``tmp`` and return their --in argv."""
    bases = {"L8": catalog.make_ln(8), "Q8": catalog.make_qn(8),
             "C8": catalog.make_cn(8, [1, -1])[0], "Benoist1": catalog.make_benoist(Fraction(1))}
    out = []
    for name, alg in bases.items():
        doc = algebra_to_json(alg)
        for kind, change in MOVES.items():
            path = Path(tmp) / f"{name}-{kind}.json"
            moved = LieAlgebra(alg.dim, _moved(doc, change, random.Random(alg.dim)))
            path.write_text(json_text(algebra_to_json(moved)) + "\n", encoding="utf-8")
            out.append(["--in", str(path)])
    return out


def _filtered_inputs(tmp):
    """Write the ``FILTERED`` tables to ``tmp`` and return their --in argv."""
    out = []
    for name, dim, brackets in FILTERED:
        path = Path(tmp) / f"{name}.json"
        alg = LieAlgebra(dim, brackets, name=name)
        path.write_text(json_text(algebra_to_json(alg)) + "\n", encoding="utf-8")
        out.append(["--in", str(path)])
    return out


def _spelled_calls(tmp):
    """Write the ``SPELLED`` documents to ``tmp`` and return their calls."""
    out = []
    for name, commands, doc in SPELLED:
        path = Path(tmp) / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out += [command + ["--in", str(path)] for command in commands]
    return out


def _fixture(name):
    """The --in argv of ``tests/<name>`` in the checkout under test; stops if it is not there."""
    path = ROOT / "tests" / name
    if not path.is_file():
        raise SystemExit(f"digest_sweep: no fixture {path}; "
                         "run it on a checkout's src through PYTHONPATH")
    return ["--in", str(path)]


def _usage_calls():
    """--help at every level, then usage errors and an abbreviated option."""
    out = [["--help"]]
    for group, commands in COMMANDS.items():
        out += [[group, "--help"], *([group, command, "--help"] for command in commands)]
    ln4 = ["--family", "Ln", "--n", "4"]
    trials = ["der", "regular", *ln4, "--trials"]
    out += [["catalog", "show", "--family", "Ln", "--n", LONG],
            ["catalog", "show", "--family", "Ln", "--n", "9" * 4000],
            [*trials, LONG], ["der", "regular", *ln4, "--seed", LONG],
            ["catalog", "show", "--family", "Ank", "--n", "5", "--k", LONG, "--lambda", "1"],
            ["catalog", "show", "--family", LONG],
            ["affine", "synth", *ln4, "--strategy", LONG], ["io", "validate", "--kind", LONG],
            [*trials, str(cli.MAX_TRIALS + 1)], [*trials, "9" * 4000],
            ["catalog", "list", LONG], [LONG], ["catalog", LONG],
            ["catalog", "show", f"--reproducible={LONG}"], ["catalog", "show", f"--={LONG}"],
            ["catalog", "list", "extra"],
            ["affine", "synth", "--family", "Ln", "--n", "5", "--bogus"],
            ["affine", "synth", "--fam", "Ln", "--n", "5"], ["affine", "verify", *ln4],
            ["catalog", "list", "--"], ["--", "catalog", "list"]]
    return out


def calls(tmp):
    """The fixed (argv, source argv, --out kind) list, before the re-checks of the files written."""
    out = [(["catalog", "list"], None, None)]
    fixtures = [_fixture(name) for name in ("half_weights.json", "half_form.json")]
    for source in _families() + fixtures + _moved_inputs(tmp):
        for command, variants, kind in READERS:
            for extra in ([], *variants):
                out.append((command + source + extra, source, kind))
        if source[0] == "--family":
            out += [(["catalog", "show", *source], None, None),
                    (["der", "torus", *source], None, None)]
    out += [(argv, None, None) for argv in _usage_calls()]
    out += [(command + source, None, None)
            for source in _filtered_inputs(tmp) for command in FILTERED_COMMANDS]
    out += [(command + source, None, None)
            for source in _adopted_members() for command in ADOPTED_COMMANDS]
    out += [(argv, None, None) for argv in _spelled_calls(tmp)]
    return out + [(argv, None, None) for argv in SPELLINGS]


def _tampered(path):
    """Write a copy of the certificate at ``path`` with the first product e_i.e_j, i != j, moved.

    Its coefficient on its lowest basis index is shifted by 1.
    """
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    gamma = doc["witnesses"]["affine_structure"]["gamma"]
    coeffs = next(entry["coeffs"] for entry in gamma if entry["i"] != entry["j"])
    k = min(coeffs, key=int)
    coeffs[k] = str(Fraction(coeffs[k]) + 1)
    out = str(Path(path).with_suffix(".tampered.json"))
    Path(out).write_text(json.dumps(doc), encoding="utf-8")
    return out


def _recheck(source, kind, path):
    """The calls that re-check a certificate or verdict written at ``path``.

    A certificate is re-checked once more as its ``_tampered`` copy.
    """
    check = (["affine", "verify"] if kind == "certificate" else ["der", "verify-witness"])
    out = [check + source + ["--cert", path], ["io", "validate", "--kind", kind, "--in", path]]
    if kind == "certificate":
        out.append(check + source + ["--cert", _tampered(path)])
    return out


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv + ["--reproducible"])
    return out.getvalue(), err.getvalue(), code


def sweep(limit=None):
    """(calls, exit-code counts, sha256) of the first ``limit`` calls and their re-checks."""
    digest, codes = hashlib.sha256(), Counter()
    # argparse wraps help at the terminal width
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        names = {tmp: "<tmp>", str(ROOT): "<repo>"}

        def record(argv):
            stdout, stderr, code = _run(argv)
            text = json.dumps([argv, stdout, stderr, code])
            for path, name in names.items():
                text = text.replace(path, name)
            digest.update(text.encode() + b"\n")
            codes[code] += 1
            return code

        rechecks = []
        for k, (argv, source, kind) in enumerate(calls(tmp)[:limit]):
            if kind is None:
                record(argv)
                continue
            path = str(Path(tmp) / f"out-{k}.json")
            code = record(argv + ["--out", path])
            if kind == "verdict" or code == 0:
                rechecks += _recheck(source, kind, path)
        for argv in rechecks:
            record(argv)
    return sum(codes.values()), codes, digest.hexdigest()


def main():
    count, codes, digest = sweep()
    print(f"calls {count}")
    for code in sorted(codes):
        print(f"exit {code}: {codes[code]}")
    print(f"sha256 {digest}")


if __name__ == "__main__":
    main()
