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
import errno
import os
import sys

import click

from . import census as census_mod
from . import formats
from .design import NotAUnital
from .groups import GroupTooLarge


def _fail(code: str, message: str) -> None:
    click.echo(f"ERROR {code}: {message}", err=True)
    sys.exit(1)


def _check_out_dir(option: str, path: str) -> None:
    """Fail before any work is done when the directory of an output path is missing."""
    out_dir = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(out_dir):
        _fail("OUT", f"{option} directory {out_dir} does not exist")


def _write(path: str, fill) -> None:
    """Open PATH for writing and hand the file to `fill`; any OSError, at
    open, write or close, is one ``ERROR OUT:`` line."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fill(fh)
    except OSError as e:
        _fail("OUT", f"cannot write {path}: {e.strerror or e}")


class _Group(click.Group):
    """Usage errors as one ``ERROR ARGS:`` line, from the group's options and
    from a command; a bare ``unital`` (a usage error in click 8.2+) prints help.
    A standard output that cannot be written is one ``ERROR OUT:`` line."""

    def parse_args(self, ctx: click.Context, args: list[str]) -> list[str]:
        try:
            return super().parse_args(ctx, args)
        except getattr(click.exceptions, "NoArgsIsHelpError", ()):
            raise
        except click.UsageError as e:
            _fail("ARGS", e.format_message())

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except click.UsageError as e:
            _fail("ARGS", e.format_message())
        except OSError as e:
            import traceback
            # standard output is written by `click.echo` without err=True; click ends a broken pipe quietly
            frames = [frame for frame, _ in traceback.walk_tb(e.__traceback__)]
            if e.errno == errno.EPIPE or not any(f.f_code is click.echo.__code__ and not f.f_locals["err"] for f in frames):
                raise
            # what stays buffered is flushed at exit: to nowhere, not to a second error line
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            _fail("OUT", f"cannot write standard output: {e.strerror or e}")


@click.group(cls=_Group)
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
    from .hermitian import hermitian_unital
    for option, path in (("--out", out), ("--coords", coords)):
        if path:
            _check_out_dir(option, path)
    try:
        emb = hermitian_unital(q)
    except ValueError as e:
        _fail("HERMITIAN", str(e))
    payload = formats.serialize_json(emb.unital, name=f"hermitian-{q}")
    if out:
        _write(out, lambda fh: fh.write(payload + "\n"))
        click.echo(f"wrote H({q}) to {out}")
    else:
        click.echo(payload)
    if coords:
        f = emb.plane.field
        text = f"# point id -> homogeneous coordinates over GF({f.p}^{f.k}), coefficient vectors low degree first\n"
        text += "".join(f"{pid}\t{' '.join(str(list(f.coeffs(c))) for c in pt)}\n" for pid, pt in enumerate(emb.point_coords, 1))
        _write(coords, lambda fh: fh.write(text))
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
    try:
        fp, pa = census_mod.analyze_pair(u, b1, b2)
    except GroupTooLarge as e:
        _fail("GROUP", str(e))
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
    from . import nets
    try:
        u = formats.load_unital(file)
    except (formats.ParseError, NotAUnital) as e:
        _fail("LOAD", str(e))
    found = nets.find_dual_3nets(u)
    click.echo(f"{len(found)} embedded dual 3-net(s)")
    for net in found:
        sq = nets.latin_square_from_3net(u, net)
        click.echo(f"blocks {list(net)}: {'cyclic' if nets.is_cyclic_square(sq) else 'non-cyclic'}")
        if latin:
            click.echo(sq.serialize())


def _census_worker(path):
    """Classify one file as (path, report, error); error says why the file
    is skipped.  `census` looks this name up for each file, so a wrapper
    bound to it sees every file."""
    try:
        u = formats.load_unital(path)
        return (path, census_mod.classify_unital(u, name=os.path.basename(path)), None)
    except (formats.ParseError, NotAUnital, GroupTooLarge) as e:
        return (path, None, str(e))


@main.command("census")
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
@click.option("--out", "prefix", required=True, help="output CSV prefix")
@click.option("--library", default=None, help="library label (default: directory name)")
def census_cmd(directory: str, prefix: str, library: str | None) -> None:
    """Classify every unital file in DIRECTORY and write table CSVs."""
    _check_out_dir("--out", prefix)
    try:
        names = os.listdir(directory)
    except OSError as e:
        _fail("CENSUS", f"cannot read {directory}: {e.strerror or e}")
    paths = sorted(
        os.path.join(directory, f) for f in names if not f.startswith(".") and os.path.isfile(os.path.join(directory, f))
    )
    if not paths:
        _fail("CENSUS", f"no unital files in {directory}")
    label = library or os.path.basename(os.path.abspath(directory))

    reports, skipped = [], 0
    for path in paths:
        _, report, error = _census_worker(path)
        if error is not None:
            skipped += 1
            click.echo(f"skipped {path}: {error}", err=True)
        else:
            reports.append(report)

    tables = (
        ("groups", ["full_points", "group", "count"], census_mod.group_table_rows(reports)),
        ("totals", ["library", "unitals", "fpr", "sfpr"], [census_mod.totals_row(label, reports)]),
        ("large", ["set", "property", "count"], census_mod.large_set_rows(reports)),
    )
    for table, header, rows in tables:
        _write(f"{prefix}_{table}.csv", lambda fh: csv.writer(fh).writerows([header, *rows]))
    click.echo(
        f"census of {len(reports)} unital(s) written to {prefix}_groups.csv, "
        f"{prefix}_totals.csv, {prefix}_large.csv"
        + (f" ({skipped} file(s) skipped)" if skipped else "")
    )


@main.command("appendix-check")
def appendix_check() -> None:
    """Golden self-check against the embedded order-4 reference unital."""
    from . import nets
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

    _, pa = census_mod.analyze_pair(u, 1, 33)
    if (pa.group_order, pa.group_name) != (120, "S5"):
        _fail("GOLDEN", f"perspectivity group of (1,33) changed: order {pa.group_order}, structure {pa.group_name}")
    click.echo(f"perspectivity group of (1,33): order {pa.group_order}, structure {pa.group_name}")

    found = nets.find_dual_3nets(u)
    listed = (len(found), sum(nets.is_cyclic_3net(u, net) for net in found))
    report = census_mod.classify_unital(u, "appendix")
    if listed != (86, 81) or (report.net_count, report.cyclic_net_count) != listed:
        _fail("GOLDEN", f"(nets, cyclic) listed {listed}, census {report.net_count, report.cyclic_net_count}, expected (86, 81)")
    click.echo("86 embedded dual 3-nets, 81 cyclic, by the net listing and by the census")
    click.echo("PASS")


if __name__ == "__main__":
    main()
