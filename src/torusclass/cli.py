"""Command-line front end.

Verdicts are data (JSON on stdout), never exit codes.  ``main`` returns

* 0 when the command ran, and for ``--help`` (printed to stdout);
* 1 for a usage or parse error: an unknown command or option, a missing
  or malformed argument, a bad descriptor or matrix file.  The usage
  line and the error go to stderr, and stdout stays empty;
* 2 for an internal consistency failure, reported on stderr.

A reader that closes stdout early (``| head``) ends the command with exit
1 and no message.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from torusclass import classify, quasitoric
from torusclass.classify import InternalConsistencyError
from torusclass.invariants import DescriptorError, ManifoldDescriptor, cohomology, report
from torusclass.isosearch import find_iso


class UsageError(Exception):
    """Bad input found after parsing; reported like a parse error."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors exit 1, the CLI's usage-error code."""

    def error(self, message):
        self.exit(1, f"{self.format_usage()}{self.prog}: error: {message}\n")


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _descriptor(text: str) -> ManifoldDescriptor:
    try:
        return ManifoldDescriptor.parse(text)
    except DescriptorError as e:
        raise UsageError(str(e))


def _range(text: str) -> range:
    """Inclusive integer range 'a..b', or a single integer."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse range {text!r}: expected 'a..b' or 'a'")
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _existing_file(text: str) -> str:
    if not os.path.exists(text):
        raise argparse.ArgumentTypeError(f"file {text!r} does not exist")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"file {text!r} is a directory")
    return text


def invariants_cmd(args):
    """Dimension, cohomology ring, Pontrjagin and Stiefel-Whitney classes."""
    _emit(report(_descriptor(args.descriptor)).to_json())


def compare_cmd(args):
    """Pairwise report: ring isomorphism, class preservation, verdict."""
    d1, d2 = _descriptor(args.first), _descriptor(args.second)
    _emit(classify.compare_report(d1, d2).to_json())


def rigidity_cmd(args):
    """Rigidity stratum of a descriptor, with the matching clause."""
    d = _descriptor(args.descriptor)
    tag = classify.rigidity_class(d)
    (_, clause), = classify.rigidity_clauses(d)
    _emit({"descriptor": d.render(), "rigidity": tag, "clause": clause})


def dj_cmd(args):
    """Cohomology presentation and characteristic classes from facet data."""
    try:
        with open(args.matrix, encoding="utf-8") as fh:
            data = json.load(fh)
        cm = quasitoric.CharMatrix.from_json(data)
        fr = quasitoric.face_ring(cm.blocks)
        pres = quasitoric.eliminate(fr, quasitoric.linear_ideal(cm))
        p, w = quasitoric.dj_characteristic_classes(cm)
    except (KeyError, TypeError, ValueError) as e:
        raise UsageError(f"bad matrix file: {e}")
    _emit({
        "matrix": cm.to_json(),
        "presentation": pres.to_json(),
        "pontrjagin": p.text(),
        "stiefel_whitney": w.text(),
    })


def oracle_iso_cmd(args):
    """Exact search for a graded ring isomorphism."""
    d1, d2 = _descriptor(args.first), _descriptor(args.second)
    res = find_iso(cohomology(d1), cohomology(d2))
    payload = {
        "descriptors": [d1.render(), d2.render()],
        "status": res.status,
        "witness": None,
    }
    if res.witness is not None:
        payload["witness"] = {n: img.text() for n, img in res.witness.images.items()}
    _emit(payload)


def table_cmd(args):
    """Classification table over a parameter grid, one row per descriptor."""
    families = [args.family] if args.family else ["A", "B"]
    rows = []
    for fam in families:
        for ell in args.l:
            for rho in args.rho:
                for k1 in args.k1:
                    for k2 in args.k2:
                        try:
                            d = ManifoldDescriptor(fam, ell, rho, k1, k2)
                        except DescriptorError:
                            continue
                        r = report(d)
                        rows.append({
                            "descriptor": d.render(),
                            "dimension": r.dimension,
                            "cohomology": str(r.cohomology),
                            "pontrjagin": r.pontrjagin.text(),
                            "stiefel_whitney": r.stiefel_whitney.text(),
                            "rigidity": classify.rigidity_class(d),
                        })
    if args.format == "json":
        _emit(rows)
        return
    cols = ["descriptor", "dimension", "cohomology", "pontrjagin",
            "stiefel_whitney", "rigidity"]
    print("\t".join(cols))
    for row in rows:
        print("\t".join(str(row[c]) for c in cols))


# options that take a value; the token after one is always its value
_VALUE_OPTIONS = ("--l", "--rho", "--k1", "--k2", "--family", "--format", "--matrix")


def _parser() -> _Parser:
    def command(name, run, *positionals):
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__,
                                  add_help=False, allow_abbrev=False)
        sub.add_argument("--help", action="help", help="Show this message and exit.")
        for metavar in positionals:
            sub.add_argument(metavar.lower(), metavar=metavar)
        sub.set_defaults(run=run, parser=sub)
        return sub

    parser = _Parser(
        prog="torusclass", add_help=False, allow_abbrev=False,
        description="Exact invariants and diffeomorphism classification for the two "
                    "bundle families A(l,rho,k1,k2) and B(l,rho,k1,k2).")
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True,
                                     parser_class=_Parser)
    command("invariants", invariants_cmd, "DESCRIPTOR")
    command("compare", compare_cmd, "FIRST", "SECOND")
    command("rigidity", rigidity_cmd, "DESCRIPTOR")
    command("dj", dj_cmd).add_argument(
        "--matrix", metavar="FILE", type=_existing_file, required=True,
        help='JSON file {"blocks": [...], "rows": [[...], ...]}.')
    command("oracle-iso", oracle_iso_cmd, "FIRST", "SECOND")
    table = command("table", table_cmd)
    for name in ("--l", "--rho", "--k1", "--k2"):
        table.add_argument(name, metavar="RANGE", type=_range, required=True,
                           help="'a..b' or 'a'.")
    table.add_argument("--family", choices=["A", "B"], default=None,
                       help="Restrict to one family (default: both).")
    table.add_argument("--format", choices=["json", "tsv"], default="json",
                       help="Output format (default: json).")
    return parser


def _join_values(argv) -> list[str]:
    """Write '--rho -1..1' as '--rho=-1..1'.

    argparse reads a separate token that starts with '-' and is not a
    number as an option, never as a value.
    """
    out = []
    tokens = iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in _VALUE_OPTIONS else None
        out.append(token if value is None else f"{token}={value}")
    return out


def main(argv=None) -> int:
    # coefficients grow past the default 4,300-digit limit of int -> str
    # (C(l+1, i) for l in the thousands, rho^k1 for a large twist)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = _parser().parse_args(_join_values(sys.argv[1:] if argv is None else argv))
        try:
            args.run(args)
        except UsageError as e:
            args.parser.error(str(e))
    except SystemExit as e:  # from --help (0) or a usage error (1)
        return e.code
    except InternalConsistencyError as e:
        print(f"internal consistency failure: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so the flush
        # at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
