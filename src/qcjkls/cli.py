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
    MAX_LETTERS,
    enumerate_colorings,
    enumerate_colorings_affine,
    exceeds_budget,
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
    MAX_QUANDLE_SIZE,
    AlexanderQuandleSpec,
    QuandleError,
    S4_SPEC,
    build_alexander_quandle,
    build_s4,
    load_quandle,
    save_quandle,
    verify_quandle_axioms,
)
from . import sequences
from .sequences import family_rows, family_texts, parse_family_id

_TERM = re.compile(r"(\d+)?(?:T(?:\^(\d+))?)?\Z")
# Highest degree of a --poly: over a modulus of at least 2, a quotient ring of
# higher degree has more than 2**10 = MAX_QUANDLE_SIZE elements.
MAX_POLY_DEGREE = MAX_QUANDLE_SIZE.bit_length() - 1
# Longest --poly coefficient numeral read with int(), leading zeros included: Python's
# default limit on converting a decimal string, so the refused numerals stay those int() refuses.
MAX_COEFFICIENT_DIGITS = 4300


def _parse_poly(text: str) -> tuple[int, ...]:
    """Parse "T^2+T+1" or "T-2" style polynomials into ascending coefficients."""
    compact = text.replace(" ", "")
    if not compact:
        raise ValueError("empty polynomial")
    pieces = re.findall(r"([+-]?)([^+-]+)", compact)
    if "".join(map("".join, pieces)) != compact:  # a stray sign, as in "+", "T++1" or "1-"
        raise ValueError(f"bad polynomial {text!r}")
    coeffs: dict[int, int] = {}
    for sign_ch, term in pieces:
        match = _TERM.match(term)
        if not match or (match.group(1) is None and "T" not in term):
            raise ValueError(f"bad polynomial term {term!r}")
        numeral = match.group(1)
        if numeral and len(numeral) > MAX_COEFFICIENT_DIGITS:
            raise ValueError(f"polynomial coefficient has more than {MAX_COEFFICIENT_DIGITS} digits")
        coefficient = int(numeral) if numeral else 1
        if "T" in term:
            digits = (match.group(2) or "1").lstrip("0") or "0"
            # refused before int() reads a long numeral and before a coefficient per degree is built
            if len(digits) > 2 or int(digits) > MAX_POLY_DEGREE:
                raise ValueError(
                    f"polynomial degree above {MAX_POLY_DEGREE}: the quotient ring would have "
                    f"more than {MAX_QUANDLE_SIZE} elements"
                )
            degree = int(digits)
        else:
            degree = 0
        if sign_ch == "-":
            coefficient = -coefficient
        coeffs[degree] = coeffs.get(degree, 0) + coefficient
    top = max(coeffs)
    return tuple(coeffs.get(d, 0) for d in range(top + 1))


# Cap on the samples one `family` or `limits` command takes: the members of
# its --n range, times the number of families for `limits`.  The limit check
# compares every pair of tail samples, so 10^4 samples take about half a second.
MAX_SAMPLES = 10**4
# Cap on the family index n: member n's Z has up to 4n + 2 bits (K0), so an
# unbounded n would build unbounded integers before any output.
MAX_INDEX = 10**5
# Cap on the twist blocks the words of a `family --format json` range sum to:
# K0's words grow as n^2, so the output of a range grows as n^3 inside MAX_SAMPLES.
MAX_BLOCKS = 2 * 10**7
# Rows a pretty or CSV family sweep formats and writes at a time.
BATCH_ROWS = 256


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
    if hi > MAX_INDEX:
        raise ValueError(f"range {text!r} reaches n={hi}, above the index cap of {MAX_INDEX}")
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
                    "colorings": list(map(quandle.label_tuple, colorings)),
                },
                sort_keys=True,
            )
        )
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow([f"strand_{k + 1}" for k in range(word.strands)])
        for coloring in colorings:
            writer.writerow(quandle.label_tuple(coloring))
    else:
        print(f"braid: {word.canonical()}")
        print(f"colorings: {len(colorings)}")
        for coloring in colorings:
            print("  (" + ", ".join(quandle.label_tuple(coloring)) + ")")
    return 0


def _batches(rows, checks):
    """zip(rows, checks) in slices of BATCH_ROWS: a pretty or CSV sweep formats and
    writes one slice's lines at a time, so it never holds the lines of the whole range."""
    for at in range(0, len(rows), BATCH_ROWS):
        yield zip(rows[at : at + BATCH_ROWS], checks[at : at + BATCH_ROWS])


def _cmd_family(args) -> int:
    family = parse_family_id(args.id)
    lo, hi = _parse_range(args.n)
    _check_tolerance(args.tolerance)
    # Z grows with n, so the last member holds the widest coefficient; it is built
    # first, so a refused range builds no other member.  Python 3.10.7+ refuses to
    # print an int of more digits than sys.get_int_max_str_digits() (0: no limit);
    # 10**limit has more than 3 * limit bits, so it is built only when needed.
    (last,) = family_rows(family, hi, hi)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    widest = max(last.z)
    if limit and widest.bit_length() > 3 * limit and widest >= 10**limit:
        raise ValueError(
            f"family {family} at n={hi} has a Z coefficient of more than {limit} digits, "
            "above the integer string conversion limit; raise it with PYTHONINTMAXSTRDIGITS"
        )
    rows = [*family_rows(family, lo, hi - 1), last]
    if args.format == "json":
        blocks = sum(row.crossings for row in rows) // (3 * family.scale)
        if blocks > MAX_BLOCKS:
            raise ValueError(
                f"family {family} over n={lo}..{hi} has {blocks} twist blocks in its words, "
                f"above the JSON cap of {MAX_BLOCKS}; narrow --n, or use --format pretty or csv"
            )

    checks = [None] * len(rows)
    if args.verify:
        cocycle = build_s4_cocycle()
        cache = _resolve_cache(args)
        for i, row in enumerate(rows):
            # a member whose letters a braid text could not hold, or whose scan the
            # budget refuses, is skipped before a single letter is built
            if row.crossings > MAX_LETTERS or exceeds_budget(cocycle.quandle.size, row.strands, args.budget):
                checks[i] = "skipped"
                continue
            word = sequences.family_braid(family, row.n)
            if (word.strands, word.crossings) != (row.strands, row.crossings):
                checks[i] = "differ"
                continue
            record = compute_invariant(word, cocycle.quandle, cocycle, budget=args.budget, cache=cache)
            checks[i] = "agree" if record.z.coeffs == row.z else "differ"

    report = None
    if len(rows) >= 3:
        report = limit_estimate(
            [(row.n, row.f) for row in rows],
            tolerance=args.tolerance,
            family=family,
            closed_form=closed_form_limit(family),
        )

    one, t = build_cyclic_group(2).labels
    write = sys.stdout.write
    if args.format == "json":
        # The bytes of json.dumps(payload, sort_keys=True), written member by member:
        # the texts hold only "B", "s", digits, ":", "^", "-" and spaces, which JSON
        # never escapes; every f is finite (each member has 3 or more crossings), and
        # JSON prints a float as its repr.  "limit_report" sorts before "points".
        head = json.dumps({"family": str(family), "limit_report": report.to_json() if report else None}, sort_keys=True)
        labels = json.dumps([one, t])
        write(head[:-1] + ', "points": [')
        sep = ""
        for (n, strands, crossings, z, f), check, text in zip(rows, checks, family_texts(family, lo, hi)):
            cell = f'"check": "{check}", ' if check is not None else ""
            write(
                f'{sep}{{"Z": {{"coeffs": ["{z[0]}", "{z[1]}"], "group_labels": {labels}}}, "braid": "{text}", '
                f'{cell}"crossings": {crossings}, "f": [{f[0]!r}, {f[1]!r}], "n": {n}, "strands": {strands}}}'
            )
            sep = ", "
        write("]}\n")
    elif args.format == "csv":
        # the bytes csv.writer writes: no cell holds a comma, a quote or a newline,
        # and the empty m cell never stands alone in a row
        kind, m = family.kind, family.m if family.m is not None else ""
        write("family,m,n,strands,crossings,z_1,z_2,f_1,f_2" + (",check" if args.verify else "") + "\n")
        for batch in _batches(rows, checks):
            write("".join([
                f"{kind},{m},{n},{strands},{crossings},{z[0]},{z[1]},{f[0]:.17g},{f[1]:.17g}"
                f"{'' if check is None else ',' + check}\n"
                for (n, strands, crossings, z, f), check in batch
            ]))
        if report:
            write("# limit " + json.dumps(report.to_json(), sort_keys=True) + "\n")
    else:
        write(f"family {family}: n = {lo}..{hi}\n")
        for batch in _batches(rows, checks):
            write("".join([
                f"n={n} strands={strands} crossings={crossings} Z={z[0]}*{one} + {z[1]}*{t} f=({f[0]!r}, {f[1]!r})"
                f"{'' if check is None else ' check=' + check}\n"
                for (n, strands, crossings, z, f), check in batch
            ]))
        if report:
            write(_format_report(report) + "\n")

    return 1 if "differ" in checks else 0


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
        samples = [(row.n, row.f) for row in family_rows(family, lo, hi)]
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
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser, and the subparser of each command by name."""
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

    return parser, sub.choices


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """parse_args of the full parser, with the command's own subparser reading the rest.

    The subparser alone is about twice as fast.  When argv is empty, names
    no command or leaves arguments over, the full parser parses it again,
    so every usage error, help text and exit status is its own.
    """
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:])
        if not extra:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
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
