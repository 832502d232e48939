"""Command-line interface.

Subcommands mirror the library: validate a block-list file, build the
Hermitian unital H(q), inspect the full points of a block pair, list
embedded dual 3-nets, run a census over a directory, and run the
self-check against the embedded order-4 reference unital.  Errors exit
nonzero with one machine-parseable line ``ERROR <code>: <message>`` on
stderr.
"""

from __future__ import annotations

import csv
import dataclasses
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import click

from . import census as census_mod
from . import formats, nets
from .design import NotAUnital
from .hermitian import hermitian_unital
from .persp import full_points


def _fail(code: str, message: str) -> None:
    click.echo(f"ERROR {code}: {message}", err=True)
    sys.exit(1)


def _check_out_dir(option: str, path: str) -> None:
    """Fail before any work is done when the directory of an output path is missing."""
    out_dir = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(out_dir):
        _fail("OUT", f"{option} directory {out_dir} does not exist")


def _worker_count() -> int:
    raw = os.environ.get("UNITAL_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    return n if n > 0 else (os.cpu_count() or 1)


@click.group()
def main() -> None:
    """Full-point analysis of abstract unitals."""


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def validate(file: str) -> None:
    """Validate FILE as a 2-(n^3+1, n+1, 1) design."""
    try:
        u = formats.load_unital(file)
    except formats.ParseError as e:
        _fail("PARSE", str(e))
    except NotAUnital as e:
        _fail("NOT_A_UNITAL", str(e))
    click.echo(f"OK: unital of order {u.order} with {u.num_points} points and {u.num_blocks} blocks")


@main.command()
@click.option("--q", type=int, required=True, help="order of the Hermitian unital")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="output JSON file")
@click.option("--coords", type=click.Path(dir_okay=False), default=None, help="coordinate side file")
def hermitian(q: int, out: str | None, coords: str | None) -> None:
    """Construct H(q) and write it in JSON format."""
    for option, path in (("--out", out), ("--coords", coords)):
        if path:
            _check_out_dir(option, path)
    try:
        emb = hermitian_unital(q)
    except ValueError as e:
        _fail("HERMITIAN", str(e))
    payload = formats.serialize_json(emb.unital, name=f"hermitian-{q}")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        click.echo(f"wrote H({q}) to {out}")
    else:
        click.echo(payload)
    if coords:
        f = emb.plane.field
        with open(coords, "w", encoding="utf-8") as fh:
            fh.write(f"# point id -> homogeneous coordinates over GF({f.p}^{f.k}), coefficient vectors low degree first\n")
            for pid, pt in enumerate(emb.point_coords, start=1):
                fh.write(f"{pid}\t" + " ".join(str(list(f.coeffs(c))) for c in pt) + "\n")
        click.echo(f"wrote coordinates to {coords}")


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--blocks", "pair", required=True, help="comma-separated block pair, e.g. 1,33")
def fullpoints(file: str, pair: str) -> None:
    """Full points and perspectivity group of one block pair."""
    try:
        b1, b2 = (int(x) for x in pair.split(","))
    except ValueError:
        _fail("ARGS", f"--blocks expects two comma-separated indices, got {pair!r}")
    try:
        u = formats.load_unital(file)
    except (formats.ParseError, NotAUnital) as e:
        _fail("LOAD", str(e))
    if not (1 <= b1 <= u.num_blocks and 1 <= b2 <= u.num_blocks) or b1 == b2:
        _fail("ARGS", f"block indices must be distinct and in 1..{u.num_blocks}")
    fp = full_points(u, b1, b2)
    pa = census_mod.analyze_pair(u, b1, b2, fp=fp)
    click.echo(f"full points of ({b1},{b2}): {list(fp)}")
    if pa.group_order is not None:
        click.echo(f"group order {pa.group_order}, structure {pa.group_name}")
    else:
        click.echo("group trivial (fewer than 2 full points)")
    if pa.disjoint:
        click.echo(f"SFPR triple: {pa.sfpr}")
    else:
        click.echo("blocks intersect; regularity flags apply to disjoint pairs only")


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--latin", is_flag=True, help="also print the coordinate latin squares")
def dualnets(file: str, latin: bool) -> None:
    """List all embedded dual 3-nets of FILE with cyclicity verdicts."""
    try:
        u = formats.load_unital(file)
    except (formats.ParseError, NotAUnital) as e:
        _fail("LOAD", str(e))
    found = nets.find_dual_3nets(u)
    click.echo(f"{len(found)} embedded dual 3-net(s)")
    for net in found:
        cyc = nets.is_cyclic_3net(u, net)
        click.echo(f"blocks {list(net)}: {'cyclic' if cyc else 'non-cyclic'}")
        if latin:
            click.echo(nets.latin_square_from_3net(u, net).serialize())


def _census_worker(path):
    """Classify one file; the report comes back without its pair records and
    nets, since the tables read only its flags and group keys."""
    try:
        u = formats.load_unital(path)
    except (formats.ParseError, NotAUnital) as e:
        return (path, None, str(e))
    report = census_mod.classify_unital(u, name=os.path.basename(path))
    return (path, dataclasses.replace(report, pairs=[], nets=[], net_cyclic=[]), None)


@main.command("census")
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
@click.option("--out", "prefix", required=True, help="output CSV prefix")
@click.option("--library", default=None, help="library label (default: directory name)")
def census_cmd(directory: str, prefix: str, library: str | None) -> None:
    """Classify every unital file in DIRECTORY and write table CSVs."""
    _check_out_dir("--out", prefix)
    paths = sorted(
        os.path.join(directory, f)
        for f in os.listdir(directory)
        if not f.startswith(".") and os.path.isfile(os.path.join(directory, f))
    )
    if not paths:
        _fail("CENSUS", f"no unital files in {directory}")
    label = library or os.path.basename(os.path.abspath(directory))

    workers = min(_worker_count(), len(paths))
    reports = []
    failures = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = pool.map(_census_worker, paths)
    else:
        results = map(_census_worker, paths)
    for path, report, error in results:
        if error is not None:
            failures.append((path, error))
            click.echo(f"skipped {path}: {error}", err=True)
        else:
            reports.append(report)

    with open(f"{prefix}_groups.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["full_points", "group", "count"])
        w.writerows(census_mod.group_table_rows(reports))
    with open(f"{prefix}_totals.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["library", "unitals", "fpr", "sfpr"])
        w.writerow(census_mod.totals_row(label, reports))
    with open(f"{prefix}_large.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["set", "property", "count"])
        w.writerows(census_mod.large_set_rows(reports))
    click.echo(
        f"census of {len(reports)} unital(s) written to {prefix}_groups.csv, "
        f"{prefix}_totals.csv, {prefix}_large.csv"
        + (f" ({len(failures)} file(s) skipped)" if failures else "")
    )


@main.command("appendix-check")
def appendix_check() -> None:
    """Golden self-check against the embedded order-4 reference unital."""
    if formats.appendix_digest() != formats.APPENDIX_SHA256:
        _fail("GOLDEN", "embedded dataset hash drifted")
    u = formats.builtin_appendix_unital()
    click.echo(f"dataset hash ok; validates as 2-({u.num_points},{u.order + 1},1) with {u.num_blocks} blocks")

    net = (1, 33, 200)
    if not nets.is_dual_knet(u, net):
        _fail("GOLDEN", f"blocks {net} no longer form a dual 3-net")
    click.echo(f"blocks {list(net)} form an embedded dual 3-net")

    sq = nets.latin_square_from_3net(u, net)
    based = nets.is_group_based(sq)
    if based is not None:
        _fail("GOLDEN", f"latin square unexpectedly group-based ({based})")
    click.echo("coordinate latin square is not group-based (net is non-cyclic)")

    pa = census_mod.analyze_pair(u, 1, 33)
    if (pa.group_order, pa.group_name) != (120, "S5"):
        _fail("GOLDEN", f"perspectivity group of (1,33) changed: order {pa.group_order}, structure {pa.group_name}")
    click.echo(f"perspectivity group of (1,33): order {pa.group_order}, structure {pa.group_name}")
    click.echo("PASS")


if __name__ == "__main__":
    main()
