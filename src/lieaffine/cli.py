"""Command-line front end.

Every invocation prints exactly one JSON document on stdout. Exit code 0
means pass/success, 1 is reserved for mathematically meaningful negative
verdicts (Jacobi violation, failed searches, NoStrategySucceeded, torus
failure), and 2 means a usage or input error (diagnostic on stderr),
including a failed write to stdout (a closed pipe, a full device).
Payloads carry a "generated_at" timestamp unless --reproducible is given;
otherwise identical argv produce byte-identical output.

The stdout format is a contract, and ``--out`` files hold the same bytes:
a 2-space indent, ASCII escapes for every other character, keys in the
order the payload builds them and one final newline, which is exactly
``json.dumps(payload, indent=2)`` plus a newline (``serialize.json_text``).

Each catalog family is listed once, in ``_FAMILIES``: ``catalog list``,
the ``--family`` help, the dispatch and the check that refuses a
parameter option the family does not take all read it. Options that
take one of a fixed set of values use argparse ``choices``; every usage
error is one line on stderr, with any echoed argument value cut to 20
characters.

Each command is listed once, in ``_COMMANDS``, and one helper gives a
parser its options. An argv that starts with a group and one of its
commands is parsed by that command's parser alone, built on first use.
When the rest is a plain line (exact long options, each value in its
own token or joined by '=', see ``_plain_namespace``) its namespace is
read straight off that parser's actions, and argparse does not run;
help, abbreviations, negative values in their own token and every
usage error go to that parser's argparse. The whole tree of
``build_parser`` is built only for help above command level and for
the usage errors it reports. Either way every help text and usage
error has the same bytes, since the tree holds the same command parsers
under the same ``prog``.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from functools import cache, partial

from . import catalog
from .affine import NOT_A_PROOF, STRATEGIES, reverify_certificate, synthesize
from .derivations import (
    CHAR_NILPOTENT_LIKELY,
    DEFAULT_TRIALS,
    NOT_CHAR_NILPOTENT,
    char_nilpotent_verdict,
    derivation_space,
    diagonal_derivations,
    verify_torus,
    verify_witness,
)
from .errors import BadRange, LieToolError, NoStrategySucceeded, SchemaError, UnknownFamily
from .liealg import (
    algebra_hash,
    is_filiform,
    is_nilpotent_algebra,
    jacobi_report,
    lower_central_series,
)
from .linalg import _RATIONAL
from .serialize import (
    MAX_DIM,
    _echo,
    _witness_codec,
    affine_from_json,
    algebra_from_json,
    algebra_to_json,
    certificate_from_json,
    certificate_to_json,
    checks_to_json,
    format_rational,
    jacobi_to_json,
    json_text,
    load_json,
    matrix_to_json,
    parse_rational,
    twoform_from_json,
    verdict_from_json,
    verdict_to_json,
)

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="FILE", help="also write the payload to FILE")
    parser.add_argument(
        "--reproducible",
        action="store_true",
        help="omit the generated_at timestamp for byte-identical output",
    )


def _add_algebra_source(parser: argparse.ArgumentParser) -> None:
    """--in or --family, never both, and the family parameters."""
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--in",
        dest="infile",
        metavar="FILE",
        help="algebra JSON file ('-' or omitted reads stdin when no --family)",
    )
    _add_family(parser, source)


def _add_family(parser: argparse.ArgumentParser, source=None) -> None:
    """--family, on the group ``source`` when given, and its parameter options."""
    (source or parser).add_argument("--family", help=f"family id: {', '.join(_FAMILIES)}; "
                                    "parameters via --n, --k, --lambda (repeatable), --t")
    parser.add_argument("--n", type=_option_type(f"must lie between 1 and {MAX_DIM}",
                                                 lambda n: 1 <= n <= MAX_DIM),
                        help=f"family dimension, 1..{MAX_DIM}")
    parser.add_argument("--k", type=_INTEGER, help="shift parameter for Ank/Bnk")
    parser.add_argument(
        "--lambda",
        dest="lambdas",
        action="append",
        metavar="RAT",
        help="family parameter, repeatable (use --lambda=-1/2 for negatives)",
    )
    parser.add_argument("--t", dest="t_param", metavar="RAT",
                        help="parameter t for the Benoist family (default 0)")


def _option_type(rule: str, admit=lambda value: True):
    """An argparse ``type`` reading an integer, refused when misspelled or refused by ``admit``.

    The integer is spelled as the rational grammar's integer part, 'p'
    alone in ASCII digits (a full match of ``linalg._RATIONAL`` with no
    '/'), as every rational option and document spells its numbers, and
    is read by ``int``, so it forms no Fraction; a text past Python's
    int-string digit limit is refused too. The diagnostic states ``rule``
    and echoes at most 20 characters of the value.
    """
    def parse(text: str):
        if "/" not in text and _RATIONAL.fullmatch(text):
            try:
                value = int(text)
            except ValueError:  # Python's limit on digits in an int string
                pass
            else:
                if admit(value):
                    return value
        raise argparse.ArgumentTypeError(f"{rule}, got {_echo(text)}")
    return parse


_INTEGER = _option_type("must be an integer")


# the largest --trials a search may be asked for, so its work stays bounded
MAX_TRIALS = 10_000


def _add_search(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_INTEGER, default=0, help="random seed (default 0)")
    parser.add_argument("--trials", type=_option_type(f"must lie between 1 and {MAX_TRIALS}",
                                                      lambda t: 1 <= t <= MAX_TRIALS),
                        default=DEFAULT_TRIALS,
                        help=f"random trial count, 1..{MAX_TRIALS} (default {DEFAULT_TRIALS})")


# each family parameter option -> the args field that holds it
_PARAMETERS = {"n": "n", "k": "k", "lambda": "lambdas", "t": "t_param"}


def _need(args, name: str):
    value = getattr(args, _PARAMETERS[name])
    if value is None:
        raise BadRange(f"--{name} is required for family {args.family}")
    return value


def _lambda_family(make: str, names: tuple, required: bool, args):
    """The algebra of ``catalog.<make>`` of the ``names`` parameters and the --lambda values.

    The values are parsed first, and --lambda may be omitted only where
    ``required`` is false (Bnk). The Jacobi report the constructor returns
    is the one kept on the algebra, so it is dropped here.
    """
    texts = _need(args, "lambda") if required else args.lambdas or ()
    lams = [parse_rational(s) for s in texts]
    return getattr(catalog, make)(*(_need(args, name) for name in names), lams)[0]


# id -> (the parameters `catalog list` shows, the only ones the family takes,
# the builder of the algebra);
# the order is the order of `catalog list`. No family is trusted to be Lie:
# every command reads the Jacobi report kept on the algebra it builds.
_FAMILIES = {
    "Ln": ("--n N (N >= 3)", lambda a: catalog.make_ln(_need(a, "n"))),
    "Qn": ("--n N (even N >= 6)", lambda a: catalog.make_qn(_need(a, "n"))),
    "QnZ": ("--n N (even N >= 6), adapted basis",
            lambda a: catalog.make_qn(_need(a, "n"), adapted=True)),
    "Ank": ("--n N --k K --lambda ... (t-1 values)",
            partial(_lambda_family, "make_ank", ("n", "k"), True)),
    "Bnk": ("--n N --k K --lambda ... (t-1 values, even N)",
            partial(_lambda_family, "make_bnk", ("n", "k"), False)),
    "Cn": ("--n N --lambda ... (m-1 values, N = 2m+2)",
           partial(_lambda_family, "make_cn", ("n",), True)),
    "Benoist": ("--t RAT (dimension 11)",
                lambda a: catalog.make_benoist(parse_rational(a.t_param or "0"))),
}


def _algebra_from_family(args):
    """The algebra that the ``_FAMILIES`` builder of --family makes.

    A parameter option that the family does not take is refused, not
    dropped: the ones it takes are those its ``catalog list`` entry names.
    """
    if args.family not in _FAMILIES:
        raise UnknownFamily(f"unknown family {_echo(args.family)}")
    params, build = _FAMILIES[args.family]
    for name, field in _PARAMETERS.items():
        if getattr(args, field) is not None and f"--{name} " not in params:
            raise BadRange(f"--{name} is not a parameter of family {args.family}")
    return build(args)


def _read_document(infile):
    """The JSON document in file ``infile``, or on stdin when it is None or '-'."""
    return load_json(sys.stdin if infile in (None, "-") else infile)


def _load(args):
    """The algebra of --family or of the --in document."""
    if args.family:
        return _algebra_from_family(args)
    return algebra_from_json(_read_document(args.infile))


class _NotLie(Exception):
    """Ends a command on a non-Lie algebra with exit 1; ``args[0]`` is its Jacobi payload."""


def _load_algebra(args):
    """The algebra of args; one that is not Lie raises ``_NotLie``.

    Every algebra, of a family or of an --in document, is checked through
    the Jacobi report kept on it (``jacobi_report``), computed once: a
    constructor that already checked it, the Lie gate of ``synthesize``
    and the Der(g) solves that read it share that report. ``verify
    jacobi`` prints the same payload, with exit 0 on a Lie algebra.
    """
    alg = _load(args)
    if jacobi_report(alg):
        raise _NotLie(jacobi_to_json(alg))
    return alg


# --- handlers ----------------------------------------------------------------

def _cmd_catalog_list(args):
    return {"families": [{"id": family, "params": params}
                         for family, (params, _) in _FAMILIES.items()]}, 0


def _cmd_catalog_show(args):
    if not args.family:
        raise UnknownFamily("catalog show requires --family")
    return algebra_to_json(_algebra_from_family(args)), 0


def _cmd_verify_jacobi(args):
    return jacobi_to_json(_load_algebra(args)), 0


def _cmd_verify_series(key, holds, args):
    """Report ``key``, the verdict of the predicate ``holds``, with the series dimensions."""
    alg = _load_algebra(args)
    result = holds(alg)
    payload = {
        "name": alg.name,
        "dim": alg.dim,
        key: result,
        "series_dims": [s.dim for s in lower_central_series(alg)],
    }
    return payload, 0 if result else 1


def _cmd_der_space(args):
    alg = _load_algebra(args)
    space = derivation_space(alg)
    return {
        "name": alg.name,
        "dim": space.dim,
        "basis": [matrix_to_json(m) for m in space.basis],
    }, 0


def _cmd_der_diag(args):
    alg = _load_algebra(args)
    weights = diagonal_derivations(alg)
    return {
        "name": alg.name,
        "dim": weights.dim,
        "weights": [[format_rational(x) for x in w] for w in weights.basis],
    }, 0


def _cmd_search(key, strategy, args):
    """Payload of the seeded search of ``STRATEGIES[strategy]``: it finds ``key`` or None.

    The witness is written as a certificate writes it, by the codec of the
    strategy's ``witness`` kind.
    """
    alg = _load_algebra(args)
    found = STRATEGIES[strategy].search(alg, args.seed, args.trials)
    payload = {
        "name": alg.name,
        "found": found is not None,
        key: _witness_codec(STRATEGIES[strategy].witness)[0](found) if found is not None else None,
        "seed": args.seed,
        "trials": args.trials,
    }
    return payload, 0 if found is not None else 1


def _cmd_der_char_nilp(args):
    alg = _load_algebra(args)
    verdict = char_nilpotent_verdict(alg, seed=args.seed, trials=args.trials)
    payload = verdict_to_json(verdict)
    payload["name"] = alg.name
    if verdict.kind == CHAR_NILPOTENT_LIKELY:
        payload["note"] = (
            "one-sided probabilistic verdict: no non-nilpotent derivation was "
            "found by the seeded search"
        )
    return payload, 0 if verdict.kind == NOT_CHAR_NILPOTENT else 1


def _cmd_der_torus(args):
    family = args.family
    if family not in ("Ln", "QnZ", "Cn"):
        raise UnknownFamily(
            "der torus needs --family Ln, QnZ or Cn (the families with a "
            "distinguished diagonal torus)"
        )
    alg = _load_algebra(args)
    maps = catalog.standard_torus(family, args.n)
    report = verify_torus(alg, maps)
    payload = {
        "name": alg.name,
        "passed": report.passed,
        "derivation_failures": [
            {"map": idx, "violations": len(v)} for idx, v in report.derivation_failures
        ],
        "commutation_failures": [list(p) for p in report.commutation_failures],
        "semisimplicity_failures": [
            {"map": idx, "reason": reason}
            for idx, reason in report.semisimplicity_failures
        ],
        "notes": report.notes,
        "maps": [matrix_to_json(m) for m in maps],
    }
    return payload, 0 if report.passed else 1


def _cmd_der_verify_witness(args):
    alg = _load_algebra(args)
    verdict = verdict_from_json(load_json(args.cert))
    if verdict.witness is None:
        raise SchemaError("the verdict carries no witness to verify")
    report = verify_witness(alg, verdict.witness)
    return {"name": alg.name, "kind": verdict.kind, **report}, 0 if report["sound"] else 1


def _cmd_affine_synth(args):
    alg = _load_algebra(args)
    try:
        _, cert = synthesize(alg, strategy=args.strategy, seed=args.seed,
                             trials=args.trials)
    except NoStrategySucceeded as exc:
        payload = {
            "name": alg.name,
            "error": "NoStrategySucceeded",
            "reasons": exc.reasons,
            "note": NOT_A_PROOF,
            "seed": args.seed,
            "trials": args.trials,
        }
        return payload, 1
    payload = certificate_to_json(cert)
    payload["name"] = alg.name
    return payload, 0


def _cmd_affine_verify(args):
    """Re-verify the certificate, once its algebra hash is that of the supplied algebra.

    A certificate for another algebra is a usage error (exit 2), found before
    any of its checks runs.
    """
    alg = _load(args)
    cert = certificate_from_json(load_json(args.cert))
    if algebra_hash(alg) != cert.algebra_hash:
        raise SchemaError(
            "certificate algebra hash does not match the supplied algebra"
        )
    report = reverify_certificate(alg, cert)
    payload = {
        "name": alg.name,
        "hash_match": report.hash_match,
        "checks": checks_to_json(report.checks),
        "ok": report.ok,
    }
    return payload, 0 if report.ok else 1


_VALIDATORS = {
    "algebra": algebra_from_json,
    "twoform": twoform_from_json,
    "affine": affine_from_json,
    "certificate": certificate_from_json,
    "verdict": verdict_from_json,
}


def _cmd_io_validate(args):
    _VALIDATORS[args.kind](_read_document(args.infile))
    return {"kind": args.kind, "valid": True}, 0


def _add_strategy(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--strategy", default="auto", choices=("auto", *STRATEGIES))


def _add_cert(help_text: str, parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cert", required=True, metavar="FILE", help=help_text)


def _add_document(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", required=True, choices=_VALIDATORS)
    parser.add_argument("--in", dest="infile", metavar="FILE",
                        help="document file ('-' or omitted reads stdin)")


_GROUPS = {
    "catalog": "algebra family constructors",
    "verify": "axiom and shape checks",
    "der": "derivation algebra analysis",
    "affine": "affine structure synthesis and checks",
    "io": "schema validation",
}

_SOURCE = (_add_algebra_source,)
_SEARCH = (_add_algebra_source, _add_search)

# (group, command) -> (help or None, handler, argument adders after _add_common)
_COMMANDS = {
    ("catalog", "list"): ("list families and parameters", _cmd_catalog_list, ()),
    ("catalog", "show"): ("print a family member as algebra JSON", _cmd_catalog_show,
                          (_add_family,)),
    ("verify", "jacobi"): (None, _cmd_verify_jacobi, _SOURCE),
    ("verify", "filiform"): (None, partial(_cmd_verify_series, "filiform", is_filiform),
                             _SOURCE),
    ("verify", "nilpotent"): (None, partial(_cmd_verify_series, "nilpotent",
                                            is_nilpotent_algebra), _SOURCE),
    ("der", "space"): ("basis of the derivation algebra", _cmd_der_space, _SOURCE),
    ("der", "diag"): ("diagonal derivation weight space", _cmd_der_diag, _SOURCE),
    ("der", "regular"): ("search for an invertible derivation",
                         partial(_cmd_search, "witness", "regular"), _SEARCH),
    ("der", "derived-regular"): ("search for a derivation invertible on the derived subalgebra",
                                 partial(_cmd_search, "witness", "derived-regular"), _SEARCH),
    ("der", "char-nilp"): ("characteristic nilpotency verdict", _cmd_der_char_nilp, _SEARCH),
    ("der", "torus"): ("verify the family's standard torus", _cmd_der_torus, (_add_family,)),
    ("der", "verify-witness"): ("re-check a char-nilp witness", _cmd_der_verify_witness,
                                _SOURCE + (partial(_add_cert,
                                                   "verdict JSON from 'der char-nilp'"),)),
    ("affine", "synth"): ("construct and certify an affine structure", _cmd_affine_synth,
                          _SEARCH + (_add_strategy,)),
    ("affine", "verify"): ("re-verify a synthesis certificate", _cmd_affine_verify,
                           _SOURCE + (partial(_add_cert, "certificate JSON"),)),
    ("affine", "symplectic-find"): ("search for a symplectic form",
                                    partial(_cmd_search, "two_form", "symplectic"), _SEARCH),
    ("io", "validate"): ("validate a JSON document", _cmd_io_validate, (_add_document,)),
}


# the argument values argparse echoes in its own usage errors
_ARGPARSE_ECHO = re.compile(
    r"(?<=unrecognized arguments: ).+|(?<=ignored explicit argument ).+"
    r"|(?<=invalid choice: ).+(?= \(choose from )|(?<=ambiguous option: ).+(?= could match )",
    re.S)


class _Parser(argparse.ArgumentParser):
    """Prints a usage error as one line, as every other diagnostic is, and exits 2.

    An argument value that argparse echoes is cut as ``_echo`` cuts it.
    """

    def error(self, message):
        message = _ARGPARSE_ECHO.sub(lambda m: _echo(m.group()), message)
        self.exit(2, f"{self.prog}: error: {message} (see --help)\n")


def _add_command(group: str, name: str, parser: argparse.ArgumentParser):
    """Give ``parser`` the options and the handler of command ``name`` of ``group``.

    The tree's subparsers set ``group`` and ``cmd`` themselves; the same
    defaults give a command parser used alone the namespace the tree gives.
    """
    _, handler, adders = _COMMANDS[group, name]
    _add_common(parser)
    for add in adders:
        add(parser)
    parser.set_defaults(handler=handler, group=group, cmd=name)
    return parser


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of the whole command line, built on first use and kept.

    ``main`` parses with it only an argv that does not start with a group
    and one of its commands (help above command level, a missing or
    unknown name, a leading option or ``--``) and one that leaves arguments
    its command does not read, which the tree reports as a top-level usage
    error. ``parse_args`` keeps no state between calls: each returns a
    fresh namespace, and an ``append`` option copies its default.
    """
    parser = _Parser(
        prog="lieaffine",
        description="Exact toolkit for filiform Lie algebras, their derivation "
        "algebras and affine (left-symmetric) structures.",
    )
    sub = parser.add_subparsers(dest="group", required=True)
    groups = {
        name: sub.add_parser(name, help=text).add_subparsers(dest="cmd", required=True)
        for name, text in _GROUPS.items()
    }
    for (group, name), (text, _, _) in _COMMANDS.items():
        # help=None would still list the command with an empty help line
        leaf = groups[group].add_parser(name, **({"help": text} if text else {}))
        _add_command(group, name, leaf)
    return parser


@cache
def _leaf_parser(group: str, name: str) -> argparse.ArgumentParser:
    """The parser of command ``name`` of ``group`` alone, built on first use and kept.

    It is the tree's parser of that command: the same options, the same
    ``prog`` and so the same help and in-command usage errors.
    """
    return _add_command(group, name, _Parser(prog=f"lieaffine {group} {name}"))


def _command_parser(argv):
    """The parser of the command the first two arguments of ``argv`` name, or None."""
    key = tuple(argv[:2])
    return _leaf_parser(*key) if key in _COMMANDS else None


# the argparse actions a plain line may give: an option with one value,
# a flag and a repeatable option; help and every other action go to argparse
_PLAIN_ACTIONS = (argparse._StoreAction, argparse._StoreTrueAction, argparse._AppendAction)


def _plain_namespace(parser: argparse.ArgumentParser, tokens):
    """The namespace of ``parser.parse_args(tokens)`` when ``tokens`` is a plain line, else None.

    A plain line gives each option by its exact long name, as ``--name
    value`` or ``--name=value`` (a flag alone): no value is empty or
    '--', none starts with '-' unless joined by '=', only an appended
    option repeats, no two options share an exclusive group, every
    required option is there and every value passes its action's ``type``
    and ``choices``. Anything else (help, an abbreviation, '--', a
    negative value in its own token, a bad value) is None, and argparse
    parses it. The options are read off the parser's own actions, so the
    table is the one ``_add_command`` builds; nothing is printed and
    nothing exits. A default is taken as it is: no string default has a
    ``type`` and no appended option has a default (a test checks both).
    """
    given = {}
    tokens = iter(tokens)
    for token in tokens:
        name, joined, value = token.partition("=")
        action = parser._option_string_actions.get(name) if name.startswith("--") else None
        if type(action) not in _PLAIN_ACTIONS or action.nargs not in (None, 0):
            return None
        append = type(action) is argparse._AppendAction
        if action in given and not append:
            return None
        if action.nargs == 0:  # a flag takes no value
            if joined:
                return None
            given[action] = True
            continue
        if not joined:
            value = next(tokens, "-")  # a missing value reads as '-'
            if value.startswith("-"):
                return None
        if value in ("", "--"):
            return None
        try:
            value = action.type(value) if action.type else value
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        if append:
            given.setdefault(action, []).append(value)
        else:
            given[action] = value
    for group in parser._mutually_exclusive_groups:
        if sum(action in given for action in group._group_actions) > 1:
            return None
    namespace = argparse.Namespace()
    for action in parser._actions:
        if action in given:
            setattr(namespace, action.dest, given[action])
        elif action.required:
            return None
        elif action.default is not argparse.SUPPRESS:
            setattr(namespace, action.dest, action.default)
    for dest, value in parser._defaults.items():
        vars(namespace).setdefault(dest, value)
    return namespace


def _parse(argv):
    """The namespace of ``argv``, parsed by its command's parser where it names one.

    A plain line after the command (``_plain_namespace``) is read off the
    command parser's actions without running argparse; any other line
    after a command goes to that parser's ``parse_known_args``. Any other
    argv, and one that leaves arguments its command does not read, goes
    through ``build_parser``.
    """
    parser = _command_parser(argv)
    if parser is not None:
        args = _plain_namespace(parser, argv[2:])
        if args is not None:
            return args
        args, left = parser.parse_known_args(argv[2:])
        if not left:
            return args
    return build_parser().parse_args(argv)


def _utc_stamp(ns: int) -> str:
    """The UTC instant ``ns`` nanoseconds after the epoch, to the microsecond, as ISO 8601.

    The shape of ``datetime.isoformat()`` on an aware UTC datetime,
    ``YYYY-MM-DDTHH:MM:SS[.ffffff]+00:00`` with the fraction left out when
    it is 0, built with ``time`` alone: importing ``datetime`` costs a
    process about 1.3 ms and 0.5 MB.
    """
    seconds, us = divmod(ns // 1000, 10**6)
    fraction = f".{us:06d}" if us else ""
    return f"{time.strftime('%Y-%m-%dT%H:%M:%S', time.gmtime(seconds))}{fraction}+00:00"


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, code = args.handler(args)
    except _NotLie as exc:
        payload, code = exc.args[0], 1
    except (LieToolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.reproducible:
        payload = {**payload, "generated_at": _utc_stamp(time.time_ns())}
    text = json_text(payload) + "\n"
    if args.out:
        # written before stdout, so a failed write prints no verdict
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        _silence_stdout()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def _silence_stdout() -> None:
    """Point stdout's file descriptor at the null device after a failed write.

    The unwritten bytes stay in the stream's buffer, and the interpreter
    flushes it once more at exit; on the null device that flush succeeds
    instead of printing a second error. A stdout without a descriptor is
    left as it is.
    """
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
