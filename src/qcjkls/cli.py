"""Command-line interface.

Subcommands:

  quandle build | quandle check   construct/validate quandle tables
  cocycle check                   validate a cocycle file
  invariant <braid>               state sum, coloring count, crossing number, f
  colorings <braid>               list closure colorings
  family <id> --n A..B            closed-form family sweep, optional brute-force check
  limits --families ...           convergence reports and a distinctness matrix

Exit status is 0 iff no verification failed; syntax and usage problems
exit 2.  The QCJKLS_CACHE environment variable overrides --cache.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import re
import sys

from .braid import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    enumerate_colorings,
    enumerate_colorings_affine,
    parse_braid,
)
from .cocycle import (
    CocycleError,
    build_s4_cocycle,
    build_trivial_cocycle,
    load_cocycle,
    verify_cocycle,
)
from .group_algebra import build_cyclic_group
from .invariant import InvariantCache, compute_invariant
from .limits import DEFAULT_TOLERANCE, Box, _check_tolerance, closed_form_limit, distinguish_limits, limit_estimate
from .quandle import (
    AlexanderQuandleSpec,
    QuandleError,
    S4_SPEC,
    build_alexander_quandle,
    build_s4,
    load_quandle,
    save_quandle,
    verify_quandle_axioms,
)
from .sequences import family_closed_Z, family_closed_f, family_point, family_texts, parse_family_id

_TERM = re.compile(r"(\d+)?(?:T(?:\^(\d+))?)?\Z")


def _parse_poly(text: str) -> tuple[int, ...]:
    """Parse "T^2+T+1" or "T-2" style polynomials into ascending coefficients."""
    compact = text.replace(" ", "")
    if not compact:
        raise ValueError("empty polynomial")
    coeffs: dict[int, int] = {}
    for sign_ch, term in re.findall(r"([+-]?)([^+-]+)", compact):
        match = _TERM.match(term)
        if not match or (match.group(1) is None and "T" not in term):
            raise ValueError(f"bad polynomial term {term!r}")
        coefficient = int(match.group(1)) if match.group(1) else 1
        if "T" in term:
            degree = int(match.group(2)) if match.group(2) else 1
        else:
            degree = 0
        if sign_ch == "-":
            coefficient = -coefficient
        coeffs[degree] = coeffs.get(degree, 0) + coefficient
    top = max(coeffs)
    return tuple(coeffs.get(d, 0) for d in range(top + 1))


# Cap on the samples one `family` or `limits` command takes: the members of
# its --n range, times the number of families for `limits`.  The limit check
# compares every pair of tail samples, so 10^4 samples take about a second.
MAX_SAMPLES = 10**4


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        lo, hi = int(lo_text), int(hi_text)
    else:
        lo = hi = int(text)
    if lo < 1 or hi < lo:
        raise ValueError(f"bad range {text!r}")
    if hi - lo + 1 > MAX_SAMPLES:
        raise ValueError(f"range {text!r} has {hi - lo + 1} members, above the cap of {MAX_SAMPLES}")
    return lo, hi


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _resolve_cache(args) -> InvariantCache | None:
    path = os.environ.get("QCJKLS_CACHE") or getattr(args, "cache", None)
    return InvariantCache(path) if path else None


def _load_quandle_cocycle(args):
    """Quandle/cocycle pair for invariant-style commands.

    Defaults to the 4-element quandle with its standard cocycle.  A
    custom quandle without a cocycle gets the trivial cocycle over Z_2.
    A cocycle file must satisfy the 2-cocycle condition, or the state
    sum would not be an invariant.
    """
    if getattr(args, "cocycle", None):
        cocycle = load_cocycle(args.cocycle)
        report = verify_cocycle(cocycle)
        if not report.ok:
            raise CocycleError(f"{args.cocycle} is not a 2-cocycle: {report.lines(cocycle.quandle.labels)[0]}")
        if getattr(args, "quandle", None):
            quandle = load_quandle(args.quandle)
            if quandle.op != cocycle.quandle.op:
                raise CocycleError("--quandle and --cocycle disagree about the quandle")
        return cocycle.quandle, cocycle
    if getattr(args, "quandle", None):
        quandle = load_quandle(args.quandle)
        return quandle, build_trivial_cocycle(quandle, build_cyclic_group(2))
    cocycle = build_s4_cocycle()
    return cocycle.quandle, cocycle


def _floats(values) -> str:
    return "(" + ", ".join(repr(float(x)) for x in values) + ")"


def _csv_writer():
    return csv.writer(sys.stdout, lineterminator="\n")


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _cmd_quandle_build(args) -> int:
    if args.kind == "s4":
        quandle = build_s4()
    else:
        if args.mod is None or args.poly is None:
            print("error: alexander quandles need --mod and --poly", file=sys.stderr)
            return 2
        spec = AlexanderQuandleSpec(args.mod, _parse_poly(args.poly))
        quandle = build_alexander_quandle(spec)
    if args.out:
        save_quandle(quandle, args.out)
        print(f"wrote {quandle.size}-element quandle to {args.out}")
        return 0
    if args.format == "json":
        print(json.dumps(quandle.to_json(), sort_keys=True))
        return 0
    width = max(len(l) for l in quandle.labels)
    head = " ".join(l.rjust(width) for l in quandle.labels)
    print(f"{quandle.size}-element quandle; a*b rows a, columns b")
    print(" " * (width + 3) + head)
    for a in range(quandle.size):
        row = " ".join(quandle.labels[v].rjust(width) for v in quandle.op[a])
        print(f"{quandle.labels[a].rjust(width)} | {row}")
    return 0


def _cmd_quandle_check(args) -> int:
    try:
        quandle = load_quandle(args.file)
    except (QuandleError, ValueError) as exc:
        print(f"load error: {exc}")
        return 1
    report = verify_quandle_axioms(quandle)
    if report.ok:
        print(f"ok: quandle axioms hold ({quandle.size} elements)")
        return 0
    for line in report.lines(quandle.labels):
        print(line)
    return 1


def _cmd_cocycle_check(args) -> int:
    try:
        cocycle = load_cocycle(args.file)
    except (CocycleError, QuandleError, ValueError) as exc:
        print(f"load error: {exc}")
        return 1
    report = verify_cocycle(cocycle)
    if report.ok:
        print(
            f"ok: 2-cocycle condition holds "
            f"({cocycle.quandle.size}-element quandle, group order {cocycle.group.order})"
        )
        return 0
    for line in report.lines(cocycle.quandle.labels):
        print(line)
    return 1


def _cmd_invariant(args) -> int:
    word = parse_braid(args.braid)
    quandle, cocycle = _load_quandle_cocycle(args)
    record = compute_invariant(
        word,
        quandle,
        cocycle,
        budget=args.budget,
        assume_crossing_number=args.assume_crossing_number,
        cache=_resolve_cache(args),
    )
    if args.format == "json":
        print(json.dumps(record.to_json(), sort_keys=True))
    elif args.format == "csv":
        writer = _csv_writer()
        labels = record.z.group.labels
        writer.writerow(
            ["braid", "coloring_count", "crossing_number"]
            + [f"z[{l}]" for l in labels]
            + [f"f_{k + 1}" for k in range(len(labels))]
        )
        f_cells = [_g17(x) for x in record.f] if record.f else [""] * len(labels)
        writer.writerow(
            [record.braid, record.coloring_count, record.crossing_number if record.crossing_number else ""]
            + [str(c) for c in record.z.coeffs]
            + f_cells
        )
    else:
        print(f"braid: {record.braid}")
        print(f"quandle: {quandle.size} elements [{record.quandle_id[:12]}]")
        print(f"cocycle: group order {cocycle.group.order} [{record.cocycle_id[:12]}]")
        print(f"Z: {record.z}")
        print(f"colorings: {record.coloring_count}")
        if record.crossing_number is not None:
            print(f"crossing_number: {record.crossing_number}")
            # an empty word has crossing number 0 and no per-crossing free energy
            print(f"f: {_floats(record.f) if record.f is not None else 'unavailable'}")
        else:
            print("crossing_number: unknown (closure not verified reduced alternating; pass --assume-crossing-number)")
            print("f: unavailable")
    return 0


def _cmd_colorings(args) -> int:
    word = parse_braid(args.braid)
    if args.mod is not None and not args.poly:
        print("error: --mod needs --poly", file=sys.stderr)
        return 2
    if args.quandle and (args.mod is not None or args.poly):
        print("error: --quandle and --mod/--poly name two different quandles; give one", file=sys.stderr)
        return 2
    if args.poly and args.mod is None:
        print("error: --poly needs --mod", file=sys.stderr)
        return 2
    if args.affine:
        if args.quandle:
            print("error: --affine needs an Alexander presentation (--mod/--poly or the default)", file=sys.stderr)
            return 2
        spec = AlexanderQuandleSpec(args.mod, _parse_poly(args.poly)) if args.mod is not None else S4_SPEC
        quandle = build_alexander_quandle(spec)
        colorings = enumerate_colorings_affine(word, spec, budget=args.budget)
    else:
        if args.quandle:
            quandle = load_quandle(args.quandle)
        elif args.mod is not None:
            quandle = build_alexander_quandle(AlexanderQuandleSpec(args.mod, _parse_poly(args.poly)))
        else:
            quandle = build_s4()
        colorings = enumerate_colorings(word, quandle, budget=args.budget)

    if args.format == "json":
        print(
            json.dumps(
                {
                    "braid": word.canonical(),
                    "count": len(colorings),
                    "colorings": [list(quandle.label_tuple(c)) for c in colorings],
                },
                sort_keys=True,
            )
        )
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow([f"strand_{k + 1}" for k in range(word.strands)])
        for coloring in colorings:
            writer.writerow(list(quandle.label_tuple(coloring)))
    else:
        print(f"braid: {word.canonical()}")
        print(f"colorings: {len(colorings)}")
        for coloring in colorings:
            print("  (" + ", ".join(quandle.label_tuple(coloring)) + ")")
    return 0


def _cmd_family(args) -> int:
    family = parse_family_id(args.id)
    lo, hi = _parse_range(args.n)
    _check_tolerance(args.tolerance)
    # Z grows with n, so the last member holds the widest coefficient.  Python 3.10.7+
    # refuses to print an int of more digits than sys.get_int_max_str_digits() (0: no
    # limit); 10**limit has more than 3 * limit bits, so it is built only when needed.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    widest = max(family_closed_Z(family, hi).coeffs)
    if limit and widest.bit_length() > 3 * limit and widest >= 10**limit:
        raise ValueError(
            f"family {family} at n={hi} has a Z coefficient of more than {limit} digits, "
            "above the integer string conversion limit; raise it with PYTHONINTMAXSTRDIGITS"
        )
    cocycle = build_s4_cocycle()
    quandle = cocycle.quandle
    cache = _resolve_cache(args)

    points = []
    failed = False
    for n in range(lo, hi + 1):
        point = family_point(family, n)
        check = None
        if args.verify:
            if len(point.braid.letters) != point.closed_c:
                check = "differ"
            else:
                try:
                    record = compute_invariant(
                        point.braid,
                        quandle,
                        cocycle,
                        budget=args.budget,
                        cache=cache,
                    )
                    check = "agree" if record.z.coeffs == point.closed_Z.coeffs else "differ"
                except BudgetExceededError:
                    check = "skipped"
            failed = failed or check == "differ"
        points.append((point, check))

    report = None
    if len(points) >= 3:
        report = limit_estimate(
            [(p.n, p.closed_f) for p, _ in points],
            tolerance=args.tolerance,
            family=family,
            closed_form=closed_form_limit(family),
        )

    if args.format == "json":
        payload = {
            "family": str(family),
            "points": [
                {
                    "n": p.n,
                    "braid": text,
                    "strands": p.strands,
                    "crossings": p.closed_c,
                    "Z": p.closed_Z.to_json(),
                    "f": list(p.closed_f),
                    **({"check": check} if check is not None else {}),
                }
                for (p, check), text in zip(points, family_texts(family, lo, hi))
            ],
            "limit_report": report.to_json() if report else None,
        }
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "csv":
        writer = _csv_writer()
        header = ["family", "m", "n", "strands", "crossings", "z_1", "z_2", "f_1", "f_2"]
        if args.verify:
            header.append("check")
        writer.writerow(header)
        for p, check in points:
            row = [
                family.kind,
                family.m if family.m is not None else "",
                p.n,
                p.strands,
                p.closed_c,
                str(p.closed_Z.coeffs[0]),
                str(p.closed_Z.coeffs[1]),
                _g17(p.closed_f[0]),
                _g17(p.closed_f[1]),
            ]
            if args.verify:
                row.append(check)
            writer.writerow(row)
        if report:
            print("# limit " + json.dumps(report.to_json(), sort_keys=True))
    else:
        print(f"family {family}: n = {lo}..{hi}")
        for p, check in points:
            line = (
                f"n={p.n} strands={p.strands} crossings={p.closed_c} "
                f"Z={p.closed_Z} f={_floats(p.closed_f)}"
            )
            if check is not None:
                line += f" check={check}"
            print(line)
        if report:
            print(_format_report(report))

    return 1 if failed else 0


def _format_region(region) -> str:
    if isinstance(region, Box):
        return f"box lo={_floats(region.lo)} hi={_floats(region.hi)}"
    return _floats(region)


def _format_report(report) -> str:
    name = str(report.family) if report.family is not None else "sequence"
    closed = f" closed_form={_format_region(report.closed_form)}" if report.closed_form is not None else ""
    return (
        f"limit[{name}]: converged={report.converged} "
        f"estimate={_format_region(report.estimate)}{closed}"
    )


def _cmd_limits(args) -> int:
    families = [parse_family_id(token) for token in args.families.split(",") if token.strip()]
    if not families:
        print("error: --families needs at least one family id", file=sys.stderr)
        return 2
    lo, hi = _parse_range(args.n)
    if len(families) * (hi - lo + 1) > MAX_SAMPLES:
        raise ValueError(f"{len(families)} families x {hi - lo + 1} members is above the cap of {MAX_SAMPLES} samples")
    if hi - lo < 2:
        print("error: need at least 3 samples; widen --n", file=sys.stderr)
        return 2

    reports = []
    for family in families:
        samples = [(n, family_closed_f(family, n)) for n in range(lo, hi + 1)]
        reports.append(
            limit_estimate(
                samples,
                tolerance=args.tolerance,
                family=family,
                closed_form=closed_form_limit(family),
            )
        )
    matrix = distinguish_limits(reports, tolerance=args.tolerance)

    if args.format == "json":
        print(
            json.dumps(
                {
                    "families": [str(f) for f in families],
                    "reports": [r.to_json() for r in reports],
                    "matrix": matrix,
                },
                sort_keys=True,
            )
        )
    else:
        for report in reports:
            print(_format_report(report))
        names = [str(f) for f in families]
        width = max(len(n) for n in names + ["OVERLAPPING"])
        print()
        print(" ".join([" " * width] + [n.rjust(width) for n in names]))
        for name, row in zip(names, matrix):
            print(" ".join([name.rjust(width)] + [cell.rjust(width) for cell in row]))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcjkls",
        description="Exact quandle 2-cocycle state sums of braid closures.",
        epilog="QCJKLS_CACHE overrides --cache when set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("pretty", "json", "csv")):
        p.add_argument("--format", choices=choices, default="pretty")

    q = sub.add_parser("quandle", help="build or check quandle tables")
    qsub = q.add_subparsers(dest="subcommand", required=True)
    qb = qsub.add_parser("build", help="construct a quandle table")
    qb.add_argument("kind", choices=("s4", "alexander"))
    qb.add_argument("--mod", type=int, help="coefficient modulus for alexander")
    qb.add_argument("--poly", help='quotient polynomial, e.g. "T^2+T+1" or "T-2"')
    qb.add_argument("--out", help="write the quandle JSON to this file")
    add_format(qb, ("pretty", "json"))
    qb.set_defaults(handler=_cmd_quandle_build)
    qc = qsub.add_parser("check", help="verify the quandle axioms of a file")
    qc.add_argument("file")
    qc.set_defaults(handler=_cmd_quandle_check)

    c = sub.add_parser("cocycle", help="check cocycle files")
    csub = c.add_subparsers(dest="subcommand", required=True)
    cc = csub.add_parser("check", help="verify the 2-cocycle condition of a file")
    cc.add_argument("file")
    cc.set_defaults(handler=_cmd_cocycle_check)

    inv = sub.add_parser("invariant", help="state sum and derived invariants of a braid closure")
    inv.add_argument("braid", help='braid word, e.g. "s1^3" or "B3: s2^-3 s1^3 s2^-3"')
    inv.add_argument("--quandle", help="quandle JSON file (default: built-in 4-element quandle)")
    inv.add_argument("--cocycle", help="cocycle JSON file (default: standard cocycle)")
    inv.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    inv.add_argument("--assume-crossing-number", type=_positive_int, default=None)
    inv.add_argument("--cache", help="JSON-lines result cache path")
    add_format(inv)
    inv.set_defaults(handler=_cmd_invariant)

    col = sub.add_parser("colorings", help="list closure colorings of a braid")
    col.add_argument("braid")
    col.add_argument("--quandle", help="quandle JSON file")
    col.add_argument("--mod", type=int, help="Alexander modulus")
    col.add_argument("--poly", help="Alexander quotient polynomial")
    col.add_argument("--affine", action="store_true", help="solve the linear fixed-point system instead of enumerating")
    col.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    add_format(col)
    col.set_defaults(handler=_cmd_colorings)

    fam = sub.add_parser("family", help="closed-form sweep of a built-in braid family")
    fam.add_argument("id", help="Kn, KPrime, K0, Km:<m> or KPrimeM:<m>, e.g. Km:2")
    fam.add_argument("--n", required=True, help="index range A..B")
    fam.add_argument("--verify", action="store_true", help="brute-force cross-check each member")
    fam.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    fam.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    fam.add_argument("--cache", help="JSON-lines result cache path")
    add_format(fam)
    fam.set_defaults(handler=_cmd_family)

    lim = sub.add_parser("limits", help="limit reports and a distinctness matrix")
    lim.add_argument("--families", required=True, help='comma list, e.g. "Kn,K0,KPrime,Km:1"')
    lim.add_argument("--n", default="1..200", help="sample range A..B (default 1..200)")
    lim.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    add_format(lim, ("pretty", "json"))
    lim.set_defaults(handler=_cmd_limits)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (QuandleError, CocycleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
