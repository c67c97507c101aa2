"""Command-line front end.

Subcommands mirror the library layers: `count` and `product` expand the
two sides of an identity into series files (one coefficient per line),
`euler` factors such a file and reports the periodic verdict, `search`
sweeps a bounds box from a JSON config, `verify` runs the registered
checks for a family, `bijection` applies a family map to one partition,
and `overpartition` prints the two-variable overline table.
"""

from __future__ import annotations

import argparse
import sys


def _emit(text: str, out) -> None:
    """Write the text and a newline to the file `out`, else to stdout."""
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def cmd_count(args) -> int:
    from .conditions import parse_condition_set
    from .counting import count_by_predicate, sum_series_brute, sum_series_dp
    from .families import get_identity
    if args.family:
        ident = get_identity(args.family)
        series = (count_by_predicate(ident.sum_pred, args.order) if args.brute
                  else ident.count_series(args.order))
    else:
        count = sum_series_brute if args.brute else sum_series_dp
        series = count(parse_condition_set(args.rules), args.order)
    _emit("\n".join(map(str, series)), args.out)
    return 0


def cmd_product(args) -> int:
    from .series import ProductSpec, product_series
    if args.family:
        from .families import get_identity
        spec = get_identity(args.family).product
    elif args.residues:
        spec = ProductSpec.from_residues(args.modulus, args.residues)
    else:
        spec = ProductSpec(args.modulus, args.classes)
    _emit("\n".join(map(str, product_series(spec, args.order))), args.out)
    return 0


def cmd_euler(args) -> int:
    from .errors import InsufficientOrder
    from .euler import detect_period, euler_exponents
    from .series import load_series
    fac = euler_exponents(load_series(args.series))
    try:
        verdict = detect_period(fac, args.dmax, args.emax)
    except InsufficientOrder as exc:  # the exponents stand without a verdict
        _emit("\n".join(map(str, fac.exponents)), args.out)
        print("error: %s" % exc, file=sys.stderr)
        return 1
    _emit("\n".join(map(str, fac.exponents)), args.out)
    if verdict.periodic:
        classes = ",".join("%d:%d" % c for c in verdict.class_exponents)
        print("period=%d classes=%s" % (verdict.period, classes))
    else:
        print("aperiodic")
    return 0


def cmd_search(args) -> int:
    from .search import SearchBounds, reports_to_json, search, verify_candidate
    with open(args.bounds) as fh:
        bounds = SearchBounds.from_json(fh.read())
    reports = search(bounds, nontrivial=not args.include_trivial)
    if args.verify is not None:
        reports = [verify_candidate(r, args.verify) for r in reports]
    _emit(reports_to_json(reports), args.out)
    return 0


def cmd_verify(args) -> int:
    from .verify import verify_all, verify_identity
    if args.all:
        ok = True
        for report in verify_all(args.nmax):
            print(report)
            ok = ok and report.passed
        return 0 if ok else 1
    report = verify_identity(args.family, args.nmax)
    print(report)
    return 0 if report.passed else 1


_TRACE_RENAMES = {"evens_halved": "halved evens",
                  "affine_mapped": "residue-mapped",
                  "odd_mapped": "residue-mapped"}


def _trace_label(key: str) -> str:
    """The printed name of a trace key: pi_1_double_prime is pi_1''."""
    return _TRACE_RENAMES.get(
        key, key.replace("_double_prime", "''").replace("_prime", "'"))


def cmd_bijection(args) -> int:
    from .bijections import family_maps
    from .partitions import parse_partition, render_partition

    parts = parse_partition(args.input)
    trace = {} if args.trace else None
    fwd, inv, _core = family_maps(args.family, args.k)
    image = (inv if args.inverse else fwd)(parts, trace=trace)
    if trace is not None:
        for key, value in trace.items():
            print("%s = %s" % (_trace_label(key), render_partition(value)))
    print(render_partition(image))
    return 0


def cmd_overpartition(args) -> int:
    from .overpartitions import count_A, product_biseries, specialize
    if args.specialize:
        s, t = args.specialize
        _emit("\n".join(map(str, specialize(args.k, s, t, args.nmax))), args.out)
        return 0
    if args.enumerate:
        table = count_A(args.k, args.nmax, args.mmax)
    else:
        table = product_biseries(args.k, args.nmax, args.mmax)
    _emit(str(table), args.out)
    return 0


def _nonnegative(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(
            "must be a nonnegative integer, got %r" % text)
    return int(text)


def _int_list(text: str, sep: str = ",", size: int | None = None) -> tuple:
    """The integers of a `sep`-joined list, `size` of them if given."""
    try:
        values = tuple(int(tok) for tok in text.split(sep))
    except ValueError:
        values = ()
    if not values or size not in (None, len(values)):
        raise argparse.ArgumentTypeError(
            "must be %s integers joined by %r, got %r"
            % (size or "one or more", sep, text))
    return values


def _class_pairs(text: str) -> dict:
    return dict(_int_list(tok, ":", 2) for tok in text.split(","))


def _int_pair(text: str) -> tuple:
    return _int_list(text, size=2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatpart",
        description="Discover and verify partition identities built from "
                    "forbidden flattest windows.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="expand a sum-side counting series")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rules", help="window rules as a condition set prints "
                       "them, e.g. '1:2:1:2;1:3:0:3 +1z'")
    group.add_argument("--family", help="registered family name")
    p.add_argument("--order", type=_nonnegative, default=40)
    p.add_argument("--brute", action="store_true",
                   help="count by enumeration, up to order 60: pruned literal "
                   "window checks with --rules, the prose predicate with --family")
    p.add_argument("--out", help="series file (default stdout)")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("product", help="expand a residue-class product")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", help="registered family name")
    group.add_argument("--residues", type=_int_list,
                       help="comma list of allowed residues")
    group.add_argument("--classes", type=_class_pairs,
                       help="residue:exponent pairs, comma-joined")
    p.add_argument("--modulus", type=int,
                   help="required with --residues/--classes")
    p.add_argument("--order", type=_nonnegative, default=40)
    p.add_argument("--out", help="series file (default stdout)")
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("euler", help="factor a series file into (1-q^m) powers")
    p.add_argument("series", help="series file, one coefficient per line")
    p.add_argument("--dmax", type=_nonnegative, default=8)
    p.add_argument("--emax", type=_nonnegative, default=4)
    p.add_argument("--out", help="write exponents here instead of stdout")
    p.set_defaults(fn=cmd_euler)

    p = sub.add_parser("search", help="sweep a bounds box for candidates")
    p.add_argument("--bounds", required=True, help="JSON bounds file")
    p.add_argument("--verify", type=_nonnegative, metavar="N",
                   help="re-check survivors to order N (at least the "
                   "order they were screened to)")
    p.add_argument("--include-trivial", action="store_true")
    p.add_argument("--out", help="JSON report file (default stdout)")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("verify", help="run the registered checks for a family")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", help="registered family name")
    group.add_argument("--all", action="store_true",
                       help="count check for every registered identity")
    p.add_argument("--nmax", type=_nonnegative)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bijection", help="apply a family bijection")
    p.add_argument("--family", required=True,
                   help="a family of Families 1-7, e.g. FAM1_2 or FAM6")
    p.add_argument("--k", type=_nonnegative, required=True)
    p.add_argument("--input", required=True,
                   help="partition, e.g. '5,3,3,1' ('-' for empty)")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--trace", action="store_true",
                   help="print intermediate partitions")
    p.set_defaults(fn=cmd_bijection)

    p = sub.add_parser("overpartition", help="print the overline table")
    p.add_argument("--k", type=_nonnegative, required=True)
    p.add_argument("--nmax", type=_nonnegative, default=20)
    p.add_argument("--mmax", type=_nonnegative, default=6)
    p.add_argument("--specialize", metavar="S,T", type=_int_pair,
                   help="collapse a^m q^n to q^(T*n+S*m)")
    p.add_argument("--enumerate", action="store_true",
                   help="build the table by enumeration instead of the product")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_overpartition)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "product" and not args.family and args.modulus is None:
        parser.error("argument --modulus: required with --residues/--classes")
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 0
    except Exception as exc:                       # noqa: BLE001
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
