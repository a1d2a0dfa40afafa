"""Command-line front end.

Verdicts are data (JSON on stdout), never exit codes: 0 means the command
ran, 1 is a usage or parse error, 2 an internal consistency failure.
"""

from __future__ import annotations

import json
import sys

import click

from torusclass import classify, quasitoric
from torusclass.classify import InternalConsistencyError
from torusclass.invariants import DescriptorError, ManifoldDescriptor, report
from torusclass.isosearch import find_iso


def _emit(payload) -> None:
    click.echo(json.dumps(payload, indent=2, sort_keys=True))


def _descriptor(text: str) -> ManifoldDescriptor:
    try:
        return ManifoldDescriptor.parse(text)
    except DescriptorError as e:
        raise click.UsageError(str(e))


class RangeType(click.ParamType):
    """Inclusive integer range 'a..b', or a single integer."""

    name = "range"

    def convert(self, value, param, ctx):
        if isinstance(value, range):
            return value
        text = str(value)
        try:
            if ".." in text:
                lo, hi = text.split("..", 1)
                lo, hi = int(lo), int(hi)
            else:
                lo = hi = int(text)
        except ValueError:
            self.fail(f"cannot parse range {text!r}: expected 'a..b' or 'a'", param, ctx)
        if hi < lo:
            self.fail(f"empty range {text!r}", param, ctx)
        return range(lo, hi + 1)


RANGE = RangeType()


@click.group()
def cli():
    """Exact invariants and diffeomorphism classification for the two
    bundle families A(l,rho,k1,k2) and B(l,rho,k1,k2)."""


@cli.command("invariants")
@click.argument("descriptor")
def invariants_cmd(descriptor):
    """Dimension, cohomology ring, Pontrjagin and Stiefel-Whitney classes."""
    d = _descriptor(descriptor)
    _emit(report(d).to_json())


@cli.command("compare")
@click.argument("first")
@click.argument("second")
def compare_cmd(first, second):
    """Pairwise report: ring isomorphism, class preservation, verdict."""
    d1, d2 = _descriptor(first), _descriptor(second)
    _emit(classify.compare_report(d1, d2).to_json())


@cli.command("rigidity")
@click.argument("descriptor")
def rigidity_cmd(descriptor):
    """Rigidity stratum of a descriptor, with the matching clause."""
    d = _descriptor(descriptor)
    tag = classify.rigidity_class(d)
    (_, clause), = classify.rigidity_clauses(d)
    _emit({"descriptor": d.render(), "rigidity": tag, "clause": clause})


@cli.command("dj")
@click.option("--matrix", "matrix_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="JSON file {\"blocks\": [...], \"rows\": [[...], ...]}.")
def dj_cmd(matrix_path):
    """Cohomology presentation and characteristic classes from facet data."""
    try:
        with open(matrix_path, encoding="utf-8") as fh:
            data = json.load(fh)
        cm = quasitoric.CharMatrix.from_json(data)
        fr = quasitoric.face_ring(cm.blocks)
        pres = quasitoric.eliminate(fr, quasitoric.linear_ideal(cm))
        p, w = quasitoric.dj_characteristic_classes(cm)
    except (KeyError, TypeError, ValueError) as e:
        raise click.UsageError(f"bad matrix file: {e}")
    _emit({
        "matrix": cm.to_json(),
        "presentation": pres.to_json(),
        "pontrjagin": p.text(),
        "stiefel_whitney": w.text(),
    })


@cli.command("oracle-iso")
@click.argument("first")
@click.argument("second")
@click.option("--bound", type=click.IntRange(min=1, max=30), default=None,
              help="Enumerate coefficients in [-N, N] (1 <= N <= 30) instead of "
                   "solving exactly.")
def oracle_iso_cmd(first, second, bound):
    """Exact search (or, with --bound, bounded enumeration) for a graded
    ring isomorphism."""
    from torusclass.invariants import cohomology

    d1, d2 = _descriptor(first), _descriptor(second)
    res = find_iso(cohomology(d1), cohomology(d2), bound=bound)
    payload = {
        "descriptors": [d1.render(), d2.render()],
        "bound": bound,
        "mode": "exact" if bound is None else "enum",
        "status": res.status,
        "witness": None,
    }
    if res.witness is not None:
        payload["witness"] = {n: img.text() for n, img in res.witness.images.items()}
    _emit(payload)


@cli.command("table")
@click.option("--l", "l_range", type=RANGE, required=True)
@click.option("--rho", "rho_range", type=RANGE, required=True)
@click.option("--k1", "k1_range", type=RANGE, required=True)
@click.option("--k2", "k2_range", type=RANGE, required=True)
@click.option("--family", type=click.Choice(["A", "B"]), default=None,
              help="Restrict to one family (default: both).")
@click.option("--format", "fmt", type=click.Choice(["json", "tsv"]), default="json",
              show_default=True)
def table_cmd(l_range, rho_range, k1_range, k2_range, family, fmt):
    """Classification table over a parameter grid, one row per descriptor."""
    families = [family] if family else ["A", "B"]
    rows = []
    for fam in families:
        for ell in l_range:
            for rho in rho_range:
                for k1 in k1_range:
                    for k2 in k2_range:
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
    if fmt == "json":
        _emit(rows)
        return
    cols = ["descriptor", "dimension", "cohomology", "pontrjagin",
            "stiefel_whitney", "rigidity"]
    click.echo("\t".join(cols))
    for row in rows:
        click.echo("\t".join(str(row[c]) for c in cols))


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as e:
        return int(e.exit_code)
    except click.ClickException as e:
        e.show()
        return 1
    except InternalConsistencyError as e:
        click.echo(f"internal consistency failure: {e}", err=True)
        return 2
    except DescriptorError as e:
        click.echo(f"error: {e}", err=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
