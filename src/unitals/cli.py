"""Command-line interface.

Subcommands mirror the library: validate a block-list file, build the
Hermitian unital H(q), inspect the full points of a block pair, list
embedded dual 3-nets, run a census over a directory, and run the
self-check against the embedded order-4 reference unital.  Errors exit
nonzero with one machine-parseable line ``ERROR <code>: <message>`` on
stderr.  An output is checked by opening it, all before any is written; a
``--blocks`` id by `formats.parse_ids` and `AbstractUnital.block_pos`.
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
from .persp import SameBlock


def _fail(code: str, message: str) -> None:
    click.echo(f"ERROR {code}: {message}", err=True)
    sys.exit(1)


def _echo(message: str) -> None:
    """Every standard-output line: a failed write is one ``ERROR OUT:`` line,
    and a broken pipe is re-raised for click, which ends it quietly."""
    try:
        click.echo(message)
    except OSError as e:
        if e.errno == errno.EPIPE:
            raise
        # what stays buffered is flushed at exit: to nowhere, not to a second error line
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _fail("OUT", f"cannot write standard output: {e.strerror or e}")


def _open(path: str):
    """PATH opened for writing, closed with the click context; an OSError is one ``ERROR OUT:`` line."""
    try:
        return click.get_current_context().with_resource(open(path, "w", newline="", encoding="utf-8"))
    except OSError as e:
        _fail("OUT", f"cannot write {path}: {e.strerror or e}")


def _write(fh, fill) -> None:
    """Fill FH, from `_open`, and close it; an OSError is one ``ERROR OUT:`` line."""
    try:
        with fh:
            fill(fh)
    except OSError as e:
        _fail("OUT", f"cannot write {fh.name}: {e.strerror or e}")


# the code of each way a unital file fails, in every command that reads one
_CODES = {formats.ParseError: "PARSE", NotAUnital: "NOT_A_UNITAL", GroupTooLarge: "GROUP"}


def _load(file: str):
    try:
        return formats.load_unital(file)
    except tuple(_CODES) as e:
        _fail(_CODES[type(e)], str(e))


class _Group(click.Group):
    """Usage errors as one ``ERROR ARGS:`` line, from the group's options and
    from a command; a bare ``unital`` (a usage error in click 8.2+) prints help."""

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


@click.group(cls=_Group)
def main() -> None:
    """Full-point analysis of abstract unitals."""


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def validate(file: str) -> None:
    """Validate FILE as a 2-(n^3+1, n+1, 1) design."""
    u = _load(file)
    _echo(f"OK: unital of order {u.order} with {u.num_points} points and {u.num_blocks} blocks")


@main.command()
@click.option("--q", type=int, required=True, help="order of the Hermitian unital")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="output JSON file")
@click.option("--coords", type=click.Path(dir_okay=False), default=None, help="coordinate side file")
def hermitian(q: int, out: str | None, coords: str | None) -> None:
    """Construct H(q) and write it in JSON format."""
    if out and coords and os.path.realpath(out) == os.path.realpath(coords):
        _fail("ARGS", f"--out {out} and --coords {coords} name one file")
    from .hermitian import hermitian_unital
    try:
        emb = hermitian_unital(q)
    except ValueError as e:
        _fail("HERMITIAN", str(e))
    out_fh, coords_fh = (_open(path) if path else None for path in (out, coords))
    payload = formats.serialize_json(emb.unital, name=f"hermitian-{q}")
    if out_fh:
        _write(out_fh, lambda fh: fh.write(payload + "\n"))
        _echo(f"wrote H({q}) to {out}")
    else:
        _echo(payload)
    if coords_fh:
        f = emb.plane.field
        text = f"# point id -> homogeneous coordinates over GF({f.p}^{f.k}), coefficient vectors low degree first\n"
        text += "".join(f"{pid}\t{' '.join(str(list(f.coeffs(c))) for c in pt)}\n" for pid, pt in enumerate(emb.point_coords, 1))
        _write(coords_fh, lambda fh: fh.write(text))
        _echo(f"wrote coordinates to {coords}")


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--blocks", "pair", required=True, help="two block ids, as on a block-list line, e.g. 1,33")
def fullpoints(file: str, pair: str) -> None:
    """Full points and perspectivity group of one block pair."""
    try:
        b1, b2 = formats.parse_ids(pair)
    except formats.ParseError as e:
        _fail("ARGS", f"--blocks: {e}")
    except ValueError:  # not two ids
        _fail("ARGS", f"--blocks expects two block ids, got {pair!r}")
    u = _load(file)
    try:
        fp, pa = census_mod.analyze_pair(u, b1, b2)
    except (IndexError, SameBlock) as e:  # from full_points, which checks both ids before any analysis
        _fail("ARGS", f"--blocks: {e}")
    except GroupTooLarge as e:
        _fail(_CODES[type(e)], str(e))
    _echo(f"full points of ({b1},{b2}): {list(fp)}")
    _echo(f"group order {pa.group_order}, structure {pa.group_name}" if pa.group_order is not None
          else "group trivial (fewer than 2 full points)")
    _echo(f"SFPR triple: {pa.sfpr}" if u.blocks_disjoint(b1, b2) else "blocks intersect; regularity flags apply to disjoint pairs only")


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--latin", is_flag=True, help="also print the coordinate latin squares")
def dualnets(file: str, latin: bool) -> None:
    """List all embedded dual 3-nets of FILE with cyclicity verdicts."""
    from . import nets
    u = _load(file)
    found = nets.find_dual_3nets(u)
    _echo(f"{len(found)} embedded dual 3-net(s)")
    for net in found:
        _echo(f"blocks {list(net)}: {'cyclic' if nets.is_cyclic_3net(u, net) else 'non-cyclic'}")
        if latin:
            _echo(nets.latin_square_from_3net(u, net).serialize())


def _census_worker(path):
    """Classify one file as (path, report, error); error is ``CODE: reason``
    for a file that is skipped.  `census` looks this name up for each file,
    so a wrapper bound to it sees every file."""
    try:
        u = formats.load_unital(path)
        return (path, census_mod.classify_unital(u), None)
    except tuple(_CODES) as e:
        return (path, None, f"{_CODES[type(e)]}: {e}")


@main.command("census")
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
@click.option("--out", "prefix", required=True, help="output CSV prefix")
def census_cmd(directory: str, prefix: str) -> None:
    """Classify every unital file in DIRECTORY and write table CSVs; the
    totals row labels the library by DIRECTORY's name."""
    try:
        names = os.listdir(directory)
    except OSError as e:
        _fail("CENSUS", f"cannot read {directory}: {e.strerror or e}")
    tables = [f"{prefix}_{table}.csv" for table in ("groups", "totals", "large")]
    own = {os.path.realpath(t) for t in tables}  # a table of an earlier run into DIRECTORY is not an input
    # any other entry but a directory is an input: one that is not a regular file is skipped with load_unital's reason
    paths = sorted(p for p in (os.path.join(directory, f) for f in names if not f.startswith("."))
                   if not os.path.isdir(p) and os.path.realpath(p) not in own)
    if not paths:
        _fail("CENSUS", f"no unital files in {directory}")
    handles = [_open(t) for t in tables]

    reports, skipped = [], 0
    for path in paths:
        _, report, error = _census_worker(path)
        if error is not None:
            skipped += 1
            click.echo(f"skipped {path}: {error}", err=True)
        else:
            reports.append(report)

    contents = (
        [["full_points", "group", "count"], *census_mod.group_table_rows(reports)],
        [["library", "unitals", "fpr", "sfpr"], census_mod.totals_row(os.path.basename(os.path.abspath(directory)), reports)],
        [["set", "property", "count"], *census_mod.large_set_rows(reports)],
    )
    for fh, rows in zip(handles, contents):
        _write(fh, lambda fh: csv.writer(fh).writerows(rows))
    _echo(f"census of {len(reports)} unital(s) written to {', '.join(tables)}" + (f" ({skipped} file(s) skipped)" if skipped else ""))


@main.command("appendix-check")
def appendix_check() -> None:
    """Golden self-check against the embedded order-4 reference unital."""
    from . import nets
    if formats.appendix_digest() != formats.APPENDIX_SHA256:
        _fail("GOLDEN", "embedded dataset hash drifted")
    u = formats.builtin_appendix_unital()
    _echo(f"dataset hash ok; validates as 2-({u.num_points},{u.order + 1},1) with {u.num_blocks} blocks")

    net = (1, 33, 200)
    if not nets.is_dual_knet(u, net):
        _fail("GOLDEN", f"blocks {net} no longer form a dual 3-net")
    _echo(f"blocks {list(net)} form an embedded dual 3-net")

    based = nets.is_group_based(nets.latin_square_from_3net(u, net))
    if based is not None:
        _fail("GOLDEN", f"latin square unexpectedly group-based ({based})")
    _echo("coordinate latin square is not group-based (net is non-cyclic)")

    _, pa = census_mod.analyze_pair(u, 1, 33)
    if (pa.group_order, pa.group_name) != (120, "S5"):
        _fail("GOLDEN", f"perspectivity group of (1,33) changed: order {pa.group_order}, structure {pa.group_name}")
    _echo(f"perspectivity group of (1,33): order {pa.group_order}, structure {pa.group_name}")

    found = nets.find_dual_3nets(u)
    listed = (len(found), sum(nets.is_cyclic_3net(u, net) for net in found))
    if listed != (86, 81):
        _fail("GOLDEN", f"(nets, cyclic) listed {listed}, expected (86, 81)")
    _echo("86 embedded dual 3-nets, 81 cyclic")
    _echo("PASS")


if __name__ == "__main__":
    main()
