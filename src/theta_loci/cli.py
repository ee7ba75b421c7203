"""Command-line interface.

Subcommands: run, example, gb, bott, vinberg, schur-dim, verlinde.
Exit codes: 0 all verdicts pass, 2 a NONGENERIC report, 1 malformed input,
malformed arguments, or an answer too long to print (the message names the
offending field or value).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .errors import InputError, UsageError
from . import bott as bott_mod
from .groebner import Ideal, eliminate, hilbert, saturate
from .pipeline import CASES, GALLERY, example_gallery, report_emit, run_case
from .poly import PolynomialRing
from . import vinberg as vinberg_mod


# an integer on the command line: an optional sign and ASCII digits, so no
# digit-group underscores or other scripts' digits, which int() would take
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _too_long(digits: int) -> str:
    return f"{digits} digits, more than the limit of {sys.get_int_max_str_digits()}"


def _parse_int(text: str) -> int:
    """An integer option's value (argparse type)."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    try:
        return int(text)
    except ValueError:  # for such text, only Python's digit limit
        raise argparse.ArgumentTypeError(
            f"expected an integer, got one of {_too_long(len(text.lstrip('+-')))}") from None


def _parse_int_list(text: str, option: str) -> list[int]:
    """The integers of option's comma-separated list; an empty entry is an
    error, and the empty string is the empty list."""
    items = text.replace(" ", "")
    entries = items.split(",") if items else []
    if not all(_INTEGER.fullmatch(x) for x in entries):
        raise InputError(f"{option} expects a comma-separated integer list, got {text!r}")
    out = []
    for i, x in enumerate(entries):
        try:
            out.append(int(x))
        except ValueError:  # for such text, only Python's digit limit
            raise InputError(f"{option} entry {i} has "
                             f"{_too_long(len(x.lstrip('+-')))}") from None
    return out


class _LongInt:
    """A JSON integer with more digits than int() reads, kept so that the
    field holding it can be named."""

    def __init__(self, text: str):
        self.digits = len(text.lstrip("-"))


def _json_int(text: str):
    try:
        return int(text)
    except ValueError:
        return _LongInt(text)


def _read_json(path: str, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what}: {exc}") from exc
    try:
        return json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{what} nests too deeply: {exc}") from None


def _not_an_integer(value, field: str) -> InputError:
    """The error for a JSON field that should be an integer and is not (a
    field is checked by type(), so a bool is refused too)."""
    if isinstance(value, _LongInt):
        return InputError(f"{field} has {_too_long(value.digits)}")
    return InputError(f"{field} must be an integer")


def _print(out) -> int:
    """Print a command's answer as JSON; an int prints as itself."""
    try:
        text = json.dumps(out, sort_keys=True, indent=2)
    except ValueError as exc:  # Python's limit on turning an int into text
        raise UsageError(f"the answer has an integer of more than "
                         f"{sys.get_int_max_str_digits()} digits") from exc
    sys.stdout.write(text + "\n")
    return 0


def _cmd_run(args) -> int:
    report = run_case(args.case, prime=args.prime, seed=args.seed, chart=args.chart)
    payload = report_emit(report, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return report.exit_code


def _cmd_example(args) -> int:
    report = example_gallery(args.name, prime=args.prime)
    sys.stdout.write(report_emit(report, args.format))
    return report.exit_code


def _load_gb_input(path: str):
    data = _read_json(path, "gb input file")
    if not isinstance(data, dict):
        raise InputError("gb input must be a JSON object")
    for name in ("prime", "variables", "generators"):
        if name not in data:
            raise InputError(f"gb input missing field {name!r}")
    if type(data["prime"]) is not int:
        raise _not_an_integer(data["prime"], "gb input field 'prime'")
    if not isinstance(data["variables"], list) or not data["variables"] \
            or not all(isinstance(v, str) for v in data["variables"]):
        raise InputError("gb input field 'variables' must be a nonempty list of strings")
    if not isinstance(data["generators"], list):
        raise InputError("gb input field 'generators' must be a list")
    try:
        ring = PolynomialRing(prime=data["prime"], variables=data["variables"])
    except UsageError as exc:
        raise InputError(f"gb input field 'prime'/'variables' invalid: {exc}") from exc
    gens = []
    for i, text in enumerate(data["generators"]):
        if not isinstance(text, str):
            raise InputError(f"gb input generators[{i}] must be a string")
        try:
            gens.append(ring.parse(text))
        except UsageError as exc:
            raise InputError(f"gb input generators[{i}] invalid: {exc}") from exc
    return ring, Ideal(ring, gens)


def _cmd_gb(args) -> int:
    ring, ideal = _load_gb_input(args.input)
    if args.saturate:
        try:
            f = ring.parse(args.saturate)
        except UsageError as exc:
            raise InputError(f"--saturate polynomial invalid: {exc}") from exc
        ideal = saturate(ideal, f)
    if args.eliminate:
        names = args.eliminate.replace(" ", "").split(",")
        if not all(names):
            raise InputError(f"--eliminate expects a comma-separated variable list, "
                             f"got {args.eliminate!r}")
        ideal = eliminate(ideal, names)
    gb = ideal.groebner_basis()
    out = {"basis": [str(g) for g in gb.elements]}
    if args.hilbert:
        hd = hilbert(ideal)
        out["numerator"] = str(hd.numerator)
        out["dim"] = hd.krull_dimension
        out["degree"] = hd.degree
    return _print(out)


def _load_resolution(path: str):
    data = _read_json(path, "resolution file")
    if not isinstance(data, dict):
        raise InputError("resolution file must be a JSON object")
    if "space" not in data or "terms" not in data:
        raise InputError("resolution file missing field 'space' or 'terms'")
    space_data = data["space"]
    if not isinstance(space_data, dict):
        raise InputError("resolution file field 'space' must be an object")
    family = space_data.get("type")
    if family not in ("A", "C"):
        raise InputError(f"space field 'type' must be 'A' or 'C', got {family!r}")
    name = "N" if family == "A" else "n"
    if name not in space_data:
        raise InputError(f"space of type {family} missing field {name!r}")
    if type(space_data[name]) is not int:
        raise _not_an_integer(space_data[name], f"space field {name!r}")
    if space_data[name] < 1:
        raise InputError(f"space field {name!r} must be an integer >= 1")
    if not isinstance(data["terms"], list):
        raise InputError("resolution file field 'terms' must be a list")
    terms = []
    for i, t in enumerate(data["terms"]):
        if not isinstance(t, dict):
            raise InputError(f"terms[{i}] must be an object")
        for field in ("weight", "twist", "h"):
            if field not in t:
                raise InputError(f"terms[{i}] missing field {field!r}")
        weight, mult = t["weight"], t.get("mult", 1)
        if not isinstance(weight, list):
            raise InputError(f"terms[{i}] field 'weight' must be a list of integers")
        for j, x in enumerate(weight):
            if type(x) is not int:
                raise _not_an_integer(x, f"terms[{i}] field 'weight' entry {j}")
        for field, value in (("twist", t["twist"]), ("h", t["h"]), ("mult", mult)):
            if type(value) is not int:
                raise _not_an_integer(value, f"terms[{i}] field {field!r}")
        terms.append(bott_mod.ResolutionTerm(tuple(weight), t["twist"], t["h"], mult))
    return terms, bott_mod.Space(family, space_data[name])


def _cmd_bott(args) -> int:
    if args.resolution_file:
        terms, space = _load_resolution(args.resolution_file)
        table = bott_mod.cohomology_of_resolution(terms, space)
        out = {
            "degeneration_verified": table.degeneration_verified,
            "contributions": [{"h": h, "degree": j, "dimension": d}
                              for h, j, d in table.contributions],
        }
        if table.entries is not None:
            out["h"] = list(table.entries)
        return _print(out)

    if args.weight is None:
        raise InputError("bott needs --weight (or resolution --file)")
    weight = _parse_int_list(args.weight, "--weight")
    if args.rho_added:
        n = len(weight)
        rho = list(range(n - 1, -1, -1)) if args.type == "A" else list(range(n, 0, -1))
        weight = [w - r for w, r in zip(weight, rho)]
    outcome = (bott_mod.bott_type_a(weight) if args.type == "A"
               else bott_mod.bott_type_c(weight))
    if outcome.vanishes:
        out = {"vanishes": True}
    else:
        out = {"vanishes": False, "degree": outcome.degree,
               "dominant_weight": list(outcome.dominant_weight),
               "dimension": outcome.dimension}
    return _print(out)


def _cmd_vinberg(args) -> int:
    if args.action == "table":
        rows = vinberg_mod.orbit_table()
        lines = [f"{'label':>5}  {'type':<8}{'dim':>4}  representative"]
        for rec in rows:
            rep = " + ".join("[" + ",".join(map(str, t)) + "]"
                             for t in rec.representative_triples) or "0"
            lines.append(f"{rec.label:>5}  {rec.support_type:<8}"
                         f"{rec.expected_dimension:>4}  {rep}")
        sys.stdout.write("\n".join(lines) + "\n")
        return 0
    if args.action == "dim":
        if not args.terms:
            raise InputError("vinberg dim needs --terms")
        v = vinberg_mod.parse_bracket_terms(args.terms)
        return _print(vinberg_mod.orbit_dimension(v))
    if args.action == "supports":
        if not args.type:
            raise InputError("vinberg supports needs --type")
        count, reps = vinberg_mod.enumerate_supports(args.type)
        out = {"count": count,
               "representatives": [[list(t) for t in r.triples()] for r in reps]}
        return _print(out)
    raise InputError(f"unknown vinberg action {args.action!r}")


def _cmd_schur_dim(args) -> int:
    return _print(bott_mod.schur_dim(_parse_int_list(args.lam, "--lambda"), args.n))


def _cmd_verlinde(args) -> int:
    return _print(bott_mod.verlinde(args.g, args.k))


class _Parser(argparse.ArgumentParser):
    """argparse, but a malformed argument exits 1 like other malformed input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache  # built on the first call; a new parser per call leaves cyclic garbage
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="theta-loci",
        description="Pfaffian degeneracy loci over small prime fields")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a degeneracy-locus case")
    p.add_argument("--case", required=True, choices=CASES)
    p.add_argument("--prime", type=_parse_int, default=101)
    p.add_argument("--seed", type=_parse_int, default=0)
    p.add_argument("--chart", type=_parse_int, default=None,
                   help="saturation coordinate (default: the last one)")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("example", help="run a singular-quintic gallery example")
    p.add_argument("--name", required=True, choices=GALLERY)
    p.add_argument("--prime", type=_parse_int, default=101)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("gb", help="Groebner basis of a JSON-described ideal")
    p.add_argument("input", help="JSON file {prime, variables, generators}")
    p.add_argument("--saturate", default=None, metavar="POLY")
    p.add_argument("--eliminate", default=None, metavar="VARS")
    p.add_argument("--hilbert", action="store_true")
    p.set_defaults(func=_cmd_gb)

    p = sub.add_parser("bott", help="dotted-action cohomology calculator")
    p.add_argument("positional", nargs="?", choices=("resolution",),
                   help="'resolution' to process a term file")
    p.add_argument("--type", choices=("A", "C"), default="A")
    p.add_argument("--weight", default=None)
    p.add_argument("--rho-added", action="store_true",
                   help="the input weight already includes rho")
    p.add_argument("--file", dest="resolution_file", default=None)
    p.set_defaults(func=_cmd_bott)

    p = sub.add_parser("vinberg", help="orbit classification tools")
    p.add_argument("action", choices=("table", "dim", "supports"))
    p.add_argument("--terms", default=None, help='e.g. "[1,2,3]+[4,5,6]"')
    p.add_argument("--type", default=None, help="support type, e.g. 3A1")
    p.set_defaults(func=_cmd_vinberg)

    p = sub.add_parser("schur-dim", help="Schur module dimension (Weyl's formula)")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--n", type=_parse_int, required=True)
    p.set_defaults(func=_cmd_schur_dim)

    p = sub.add_parser("verlinde", help="rank-2 Verlinde number")
    p.add_argument("--g", type=_parse_int, required=True)
    p.add_argument("--k", type=_parse_int, required=True)
    p.set_defaults(func=_cmd_verlinde)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
