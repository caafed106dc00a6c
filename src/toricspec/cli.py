"""Command line interface.

Subcommands: spectrum, close, gap, weyl, gap-asymptotics, index, union,
validate. Exit codes: 0 success, 2 validation or precondition failure or
a request too large for memory, 3 I/O failure. Each command returns exact
rows: Fractions, integers, booleans, None and raw witnesses, which each
handler turns once into JSON data (io.jsonable_rows); cached rows are in
that form already. The only text a command makes itself is an advisory
12-digit `*_approx` column and the "inf" marker; io renders the rows as CSV
(default) or JSON.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache
from typing import Callable, Optional, Sequence

from .domains import Ball, DisjointUnion, Domain, Ellipsoid, load_domain, read_json
from .echindex import (
    ellipsoid_action,
    ellipsoid_index,
    index_action_scan,
    orbit_set_from_jsonable,
    star_shaped_index,
)
from .errors import ToricSpecError, ValidationError
# perfbench's traced runs wrap best_approx_* and ellipsoid_close under these names
from .gaps import (best_approx_above, best_approx_below, ellipsoid_close,  # noqa: F401
                   ellipsoid_close_detail, gap_asymptotics, spectral_gap)
from .io import RowCache, json_text, jsonable_rows, render_csv, render_json, write_manifest
from .rationals import _shown, approx_string, parse_rat
from .spectra import spectrum_for, weyl_report


def _rat_arg(text: str) -> Fraction:
    try:
        return parse_rat(text)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid int value: {_shown(text)}") from exc


def _list_arg(parse: Callable[[str], object]) -> Callable[[str], list]:
    """Argument type for a nonempty comma-separated list, each item read by `parse`,
    the argument type of the single-value flag of its kind, with that flag's message."""
    def convert(text: str) -> list:
        parts = text.split(",")
        if not all(part.strip() for part in parts):
            raise argparse.ArgumentTypeError(f"empty list item: {_shown(text)}")
        return [parse(part) for part in parts]
    return convert


def _add_domain_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--ellipsoid", nargs=2, type=_rat_arg, metavar=("A", "B"))
    group.add_argument("--ball", type=_rat_arg, metavar="A")
    group.add_argument("--domain", metavar="FILE", help="domain JSON file")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", default="-", metavar="FILE")
    parser.add_argument("--manifest", default=None, metavar="FILE")


def _domain_from_args(args: argparse.Namespace) -> Domain:
    if args.ellipsoid is not None:
        return Ellipsoid(args.ellipsoid[0], args.ellipsoid[1])
    if args.ball is not None:
        return Ball(args.ball)
    domain = load_domain(args.domain)
    if args.command == "union" and not isinstance(domain, DisjointUnion):
        raise ValidationError("union command needs a domain file of type 'union'")
    return domain


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="toricspec")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="spectral invariants c_0..c_k with witnesses")
    _add_domain_flags(p)
    p.add_argument("--k-max", type=_int_arg, required=True)
    _add_output_flags(p)

    p = sub.add_parser("close", help="ellipsoid closing bound at a cutoff")
    p.add_argument("--a", type=_rat_arg, required=True)
    p.add_argument("--b", type=_rat_arg, required=True)
    p.add_argument("--L", type=_rat_arg, required=True, dest="cutoff")
    _add_output_flags(p)

    p = sub.add_parser("gap", help="minimum spectral gap below a cutoff")
    _add_domain_flags(p)
    p.add_argument("--L", type=_rat_arg, required=True, dest="cutoff")
    _add_output_flags(p)

    p = sub.add_parser("weyl", help="growth diagnostics c_k^2 / k against twice the volume")
    _add_domain_flags(p)
    p.add_argument("--k", type=_list_arg(_int_arg), required=True, dest="ks",
                   metavar="K1,K2,...")
    p.add_argument("--volume", type=_rat_arg, default=None)
    _add_output_flags(p)

    p = sub.add_parser("gap-asymptotics", help="cutoff * gap over a cutoff grid")
    _add_domain_flags(p)
    p.add_argument("--L-grid", type=_list_arg(_rat_arg), required=True, dest="grid",
                   metavar="L1,L2,...")
    _add_output_flags(p)

    p = sub.add_parser("index", help="orbit-set index: closed form, scan, or file")
    p.add_argument("--a", type=_rat_arg)
    p.add_argument("--b", type=_rat_arg)
    p.add_argument("--m1", type=_int_arg)
    p.add_argument("--m2", type=_int_arg)
    p.add_argument("--scan", type=_int_arg, default=None, metavar="M_MAX")
    p.add_argument("--orbit-file", default=None, metavar="FILE")
    _add_output_flags(p)

    p = sub.add_parser("union", help="spectrum of a disjoint union with partitions")
    p.add_argument("--domain", required=True, metavar="FILE")
    p.add_argument("--k-max", type=_int_arg, required=True)
    p.set_defaults(ellipsoid=None, ball=None)
    _add_output_flags(p)

    p = sub.add_parser("validate", help="validate a domain file and echo canonical JSON")
    p.add_argument("file", metavar="FILE")

    return parser


def _cmd_spectrum(args: argparse.Namespace) -> tuple[list[str], list[dict], Optional[dict]]:
    if args.k_max < 0:
        raise ValidationError("--k-max must be nonnegative")
    domain, cols = _domain_from_args(args), ["k", "exact", "approx", "witness"]
    cache = RowCache({"op": "spectrum", "domain": domain.to_jsonable(), "k_max": args.k_max})
    rows = cache.load()
    if rows is None:
        rows = jsonable_rows(cols, [
            {"k": k, "exact": value, "approx": approx_string(value), "witness": witness}
            for k, (value, witness) in enumerate(spectrum_for(domain).entries(args.k_max))])
        cache.store(rows)
    return cols, rows, domain.to_jsonable()


def _cmd_close(args: argparse.Namespace) -> tuple[list[str], list[dict], Optional[dict]]:
    a, b, cutoff = args.a, args.b, args.cutoff
    value, below, above = ellipsoid_close_detail(a, b, cutoff)
    row = {"cutoff": cutoff, "close": value,
           "close_approx": approx_string(value),
           "m_minus": below.m, "n_minus": below.n,
           "m_plus": above.m, "n_plus": above.n}
    cols = ["cutoff", "close", "close_approx", "m_minus", "n_minus", "m_plus", "n_plus"]
    return cols, jsonable_rows(cols, [row]), Ellipsoid(a, b).to_jsonable()


def _cmd_gap(args: argparse.Namespace) -> tuple[list[str], list[dict], Optional[dict]]:
    domain = _domain_from_args(args)
    report = spectral_gap(spectrum_for(domain), args.cutoff)
    row = {"cutoff": report.cutoff,
           "gap": "inf" if report.is_infinite else report.gap,
           "gap_approx": None if report.is_infinite else approx_string(report.gap),
           "achieving_k": report.achieving_k}
    cols = ["cutoff", "gap", "gap_approx", "achieving_k"]
    return cols, jsonable_rows(cols, [row]), domain.to_jsonable()


def _cmd_weyl(args: argparse.Namespace) -> tuple[list[str], list[dict], Optional[dict]]:
    domain = _domain_from_args(args)
    rows = weyl_report(spectrum_for(domain), args.ks, args.volume)
    for r in rows:
        for col in ("value", "ratio", "deviation"):
            r[f"{col}_approx"] = approx_string(r[col])
    cols = ["k", "value", "value_approx", "ratio", "ratio_approx",
            "deviation", "deviation_approx"]
    return cols, jsonable_rows(cols, rows), domain.to_jsonable()


def _cmd_gap_asymptotics(args: argparse.Namespace) -> tuple[list[str], list[dict], Optional[dict]]:
    domain = _domain_from_args(args)
    rows = gap_asymptotics(spectrum_for(domain), args.grid)
    for r in rows:
        if r["infinite"]:
            r["gap"] = "inf"
    cols = ["cutoff", "gap", "scaled", "suffix_sup", "infinite"]
    return cols, jsonable_rows(cols, rows), domain.to_jsonable()


def _cmd_index(args: argparse.Namespace) -> tuple[list[str], list[dict], Optional[dict]]:
    if args.orbit_file is not None:
        orbit_set = orbit_set_from_jsonable(read_json(args.orbit_file, "orbit JSON"))
        return ["index"], jsonable_rows(["index"], [{"index": star_shaped_index(orbit_set)}]), None
    if args.a is None or args.b is None:
        raise ValidationError("index needs --a and --b unless --orbit-file is given")
    domain = Ellipsoid(args.a, args.b).to_jsonable()
    if args.scan is not None:
        report = index_action_scan(args.a, args.b, args.scan)
        rows = [{"m1": r.m1, "m2": r.m2, "action": r.action,
                 "action_approx": approx_string(r.action), "index": r.index,
                 "rank": r.rank, "tangent_count": r.tangent_count}
                for r in report.rows]
        cols = ["m1", "m2", "action", "action_approx", "index", "rank", "tangent_count"]
        return cols, jsonable_rows(cols, rows), domain
    if args.m1 is None or args.m2 is None:
        raise ValidationError("index needs --m1 and --m2, or --scan, or --orbit-file")
    action = ellipsoid_action(args.a, args.b, args.m1, args.m2)
    row = {"m1": args.m1, "m2": args.m2, "action": action,
           "action_approx": approx_string(action),
           "index": ellipsoid_index(args.a, args.b, args.m1, args.m2)}
    cols = ["m1", "m2", "action", "action_approx", "index"]
    return cols, jsonable_rows(cols, [row]), domain


def _cmd_validate(args: argparse.Namespace) -> int:
    domain = load_domain(args.file)
    sys.stdout.write(json_text(domain.to_jsonable(), "\n") + "\n")
    return 0


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "close": _cmd_close,
    "gap": _cmd_gap,
    "weyl": _cmd_weyl,
    "gap-asymptotics": _cmd_gap_asymptotics,
    "index": _cmd_index,
    "union": _cmd_spectrum,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        columns, rows, domain_jsonable = _COMMANDS[args.command](args)
        if args.format == "json":
            text = render_json(args.command, {"argv": argv}, columns, rows)
        else:
            text = render_csv(columns, rows)
        # the manifest first, so a run that cannot record itself delivers nothing
        if args.manifest:
            write_manifest(args.manifest, argv, domain_jsonable, columns, rows)
        if args.output == "-":
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        return 0
    except ToricSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a stopgap until requests are sized before any work starts
        print(f"error: {args.command} ran out of memory; try a smaller --k-max or cutoff",
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
