"""Seeded command lists for the qcjkls benchmark, and the checks on their answers.

A workload is a fixed list of CLI argument vectors plus the files they
read.  The seed picks letters, signs, output formats and command order.
The shape of each command (strand count, word length, family range) is
fixed by its slot, so the work in a pass barely depends on the seed and
passes of different seeds can be compared.

Every answer is checked against relations that need no stored answer,
computed here without the library:

- family members' Z, crossing count and f equal the closed forms;
- limit reports equal the tail rule applied to those closed forms;
- an invariant's coloring count equals the sum of Z's coefficients and
  the count a ``colorings`` command reports for the same word;
- brute-force colorings equal the affine ones, byte for byte;
- a cached answer equals the answer computed without the cache.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import qcjkls.cli
from qcjkls import (
    AlexanderQuandleSpec,
    FamilyId,
    InvariantCache,
    build_alexander_quandle,
    build_s4,
    build_s4_cocycle,
    compute_invariant,
    family_braid,
    parse_braid,
    save_quandle,
)

WORKLOADS = ("scan", "long_words", "sweep", "cache")
FORMATS = ("pretty", "json", "csv")
CACHE_FILE = "cache.jsonl"
TOLERANCE = 1e-3  # the CLI's default --tolerance

# Alexander quandles passed as files: name -> (modulus, --poly text, coefficients).
QUANDLES = {
    "r3": (3, "T+1", (1, 1)),
    "r4": (4, "T+1", (1, 1)),
    "r5": (5, "T+3", (3, 1)),
}
PRIME_FIELDS = ("r3", "r5")  # Z_p[T]/(T - t): colorings can be counted mod p


@dataclass
class Command:
    argv: list[str]
    kind: str  # invariant | colorings | family | limits
    fmt: str = "pretty"
    group: str | None = None  # commands about the same word and quandle
    qsize: int = 4  # elements of the quandle the command colors with
    expect_z: tuple[int, ...] | None = None
    expect_cn: object = ...  # crossing number the invariant must report (... = any)
    expect_stdout: str | None = None  # the uncached answer, for cached commands
    expect_count: int | None = None  # colorings, counted here by linear algebra mod p


@dataclass
class Workload:
    name: str
    seed: int
    commands: list[Command]
    files: dict[str, bytes] = field(default_factory=dict)  # rewritten before every pass


@dataclass
class Result:
    code: int | None
    stdout: str
    error: str | None  # traceback of an exception that escaped main


def call(argv) -> Result:
    """One closed-loop request: run ``qcjkls argv`` in-process and capture it."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = qcjkls.cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        return Result(exc.code if isinstance(exc.code, int) else 2, out.getvalue(), None)
    except Exception:
        return Result(None, out.getvalue(), traceback.format_exc())
    return Result(code, out.getvalue(), None)


def braid_text(strands: int, letters) -> str:
    parts = []
    k = 0
    while k < len(letters):
        j = k
        while j < len(letters) and letters[j] == letters[k]:
            j += 1
        exponent = (j - k) * (1 if letters[k] > 0 else -1)
        parts.append(f"s{abs(letters[k])}" + ("" if exponent == 1 else f"^{exponent}"))
        k = j
    return f"B{strands}: " + " ".join(parts)


def _random_letters(rng, strands, length):
    return [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]


# ---------------------------------------------------------------- closed forms


def _family_scale(kind, m):
    return 2 * m + 1 if kind in ("Km", "KPrimeM") else 1


def family_expect(kind: str, m: int | None, n: int):
    """(strands, crossings, (z_1, z_2)) of a family member, from the closed forms."""
    scale = _family_scale(kind, m)
    if kind in ("Kn", "Km"):
        return n + 1, 3 * scale * (2 * n - 1), (4**n, 3 * 4**n)
    if kind == "K0":
        return 2 * n, 3 * n * n + 3 * n - 3, (4 ** (2 * n - 1), 3 * 4 ** (2 * n - 1))
    half = (n + 1) // 2
    power = half if n % 2 else half + 1
    crossings = ((15 * n - 9) // 2 if n % 2 else (15 * n - 12) // 2) * scale
    # sum over even / odd k of C(h, k) 3^k is ((1+3)^h +- (1-3)^h) / 2
    even, odd = (4**half + (-2) ** half) // 2, (4**half - (-2) ** half) // 2
    return n + 1, crossings, (4**power * even, 4**power * odd)


def _log(c: int) -> float:
    return math.log(c) if c > 0 else 0.0


def close(a: float, b: float) -> bool:
    """Equal up to the last bits, as two exact routes to one float give."""
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def _expected_limit(points, tolerance):
    """(converged, estimate) by the library's documented tail rule."""
    tail = [p for _, p in points[-max(2, math.ceil(len(points) / 3)):]]
    deviation = max(math.dist(a, b) for i, a in enumerate(tail) for b in tail[i + 1:])
    if deviation <= tolerance:
        return True, (points[-1][1], points[-1][1])
    return False, (tuple(map(min, zip(*tail))), tuple(map(max, zip(*tail))))


def _box_gap(a, b) -> float:
    return math.hypot(*(max(0.0, lo2 - hi1, lo1 - hi2) for lo1, hi1, lo2, hi2 in zip(a[0], a[1], b[0], b[1])))


def family_f(kind, m, n):
    _, c, z = family_expect(kind, m, n)
    return tuple(_log(x) / c for x in z)


# ---------------------------------------------------------------- parsing


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.strip("()").split(","))


def _z_pretty(text: str, order: int) -> list[int]:
    z = [0] * order
    if text != "0":
        for part in text.split(" + "):
            count, label = part.split("*", 1)
            z[0 if label == "1" else 1 if label == "t" else int(label[2:])] = int(count)
    return z


def parse_invariant(out: str, fmt: str):
    """(Z coefficients, coloring count, crossing number or None, f or None)."""
    if fmt == "json":
        d = json.loads(out)
        return [int(c) for c in d["Z"]["coeffs"]], d["coloring_count"], d["crossing_number"], d["f"]
    if fmt == "csv":
        head, row = list(csv.reader(io.StringIO(out)))
        cols = dict(zip(head, row))
        z = [int(cols[h]) for h in head if h.startswith("z[")]
        cn = int(cols["crossing_number"]) if cols["crossing_number"] else None
        f = [float(cols[h]) for h in head if h.startswith("f_")] if cn else None
        return z, int(cols["coloring_count"]), cn, f
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    order = int(lines["cocycle"].split()[2])
    cn = None if lines["crossing_number"].startswith("unknown") else int(lines["crossing_number"])
    return _z_pretty(lines["Z"], order), int(lines["colorings"]), cn, _floats(lines["f"]) if cn else None


def parse_colorings(out: str, fmt: str) -> list[tuple[str, ...]]:
    if fmt == "json":
        d = json.loads(out)
        colorings = [tuple(c) for c in d["colorings"]]
        if d["count"] != len(colorings):
            raise ValueError("count disagrees with the listed colorings")
        return colorings
    if fmt == "csv":
        return [tuple(row) for row in list(csv.reader(io.StringIO(out)))[1:]]
    lines = out.splitlines()
    colorings = [tuple(line.strip()[1:-1].split(", ")) for line in lines[2:]]
    if int(lines[1].split(": ")[1]) != len(colorings):
        raise ValueError("count disagrees with the listed colorings")
    return colorings


_POINT = re.compile(r"n=(\d+) strands=(\d+) crossings=(\d+) Z=(.*) f=(\(.*\))(?: check=(\w+))?\Z")


def parse_family(out: str, fmt: str):
    """([(n, strands, crossings, z, f, check)], (converged, (lo, hi)) or None)."""
    if fmt == "json":
        d = json.loads(out)
        points = [
            (p["n"], p["strands"], p["crossings"], tuple(int(c) for c in p["Z"]["coeffs"]), tuple(p["f"]), p.get("check"))
            for p in d["points"]
        ]
        return points, _limit(d["limit_report"]) if d["limit_report"] else None
    if fmt == "csv":
        rows = [line for line in out.splitlines() if not line.startswith("# limit ")]
        limit = [json.loads(line[8:]) for line in out.splitlines() if line.startswith("# limit ")]
        table = list(csv.DictReader(io.StringIO("\n".join(rows))))
        points = [
            (
                int(r["n"]),
                int(r["strands"]),
                int(r["crossings"]),
                (int(r["z_1"]), int(r["z_2"])),
                (float(r["f_1"]), float(r["f_2"])),
                r.get("check"),
            )
            for r in table
        ]
        return points, _limit(limit[0]) if limit else None
    points, limit = [], None
    for line in out.splitlines()[1:]:
        match = _POINT.match(line)
        if match:
            n, s, c, z, f, check = match.groups()
            points.append((int(n), int(s), int(c), tuple(_z_pretty(z, 2)), _floats(f), check))
        elif line.startswith("limit["):
            limit = _report_line(line)[1:]
        else:
            raise ValueError(f"unexpected line {line!r}")
    return points, limit


def _region(r):
    """A point or box, from JSON, as (lo, hi)."""
    if isinstance(r, dict):
        return tuple(r["lo"]), tuple(r["hi"])
    return tuple(r), tuple(r)


def _limit(report: dict):
    """(converged, (lo, hi)) of a JSON limit report."""
    return report["converged"], _region(report["estimate"])


def _report_line(line: str):
    """(family, converged, (lo, hi)) of a pretty "limit[F]: converged=..." line."""
    head, rest = line.split(": converged=", 1)
    converged, estimate = rest.split(" estimate=", 1)
    estimate = estimate.split(" closed_form=")[0]
    if estimate.startswith("box lo="):
        lo, hi = estimate[7:].split(" hi=")
        region = _floats(lo), _floats(hi)
    else:
        region = _floats(estimate), _floats(estimate)
    return head[len("limit["):-1], converged == "True", region


def parse_limits(out: str, fmt: str):
    """([(family, converged, (lo, hi))], matrix)."""
    if fmt == "json":
        d = json.loads(out)
        return [(r["family"], *_limit(r)) for r in d["reports"]], d["matrix"]
    lines = out.splitlines()
    blank = lines.index("")
    reports = [_report_line(line) for line in lines[:blank]]
    matrix = [line.split()[1:] for line in lines[blank + 2:]]
    return reports, matrix


# ---------------------------------------------------------------- checks


def _parse_family_id(text):
    kind, _, m = text.partition(":")
    return kind, int(m) if m else None


def _check_family(cmd: Command, out: str):
    fam, rng = cmd.argv[1], cmd.argv[cmd.argv.index("--n") + 1]
    kind, m = _parse_family_id(fam)
    lo, hi = (int(x) for x in rng.split(".."))
    verify = "--verify" in cmd.argv
    points, limit = parse_family(out, cmd.fmt)
    if [p[0] for p in points] != list(range(lo, hi + 1)):
        return "wrong member indices"
    for n, strands, crossings, z, f, check in points:
        want = family_expect(kind, m, n)
        if (strands, crossings, z) != want:
            return f"n={n}: strands/crossings/Z {(strands, crossings, z)} != closed form {want}"
        if not all(map(close, f, family_f(kind, m, n))):
            return f"n={n}: f {f} != closed form"
        if verify and check != "agree":
            return f"n={n}: check={check}"
    if (limit is None) != (len(points) < 3):
        return "limit report missing or unexpected"
    if limit is not None and not _same_limit(limit, [(n, family_f(kind, m, n)) for n in range(lo, hi + 1)]):
        return "limit report differs from the tail rule"
    return None


def _same_limit(limit, points) -> bool:
    converged, (lo, hi) = _expected_limit(points, TOLERANCE)
    return limit[0] == converged and all(map(close, limit[1][0] + limit[1][1], lo + hi))


def _check_limits(cmd: Command, out: str):
    families = [_parse_family_id(f) for f in cmd.argv[cmd.argv.index("--families") + 1].split(",")]
    lo, hi = (int(x) for x in cmd.argv[cmd.argv.index("--n") + 1].split(".."))
    reports, matrix = parse_limits(out, cmd.fmt)
    if len(reports) != len(families):
        return "wrong number of reports"
    estimates = []
    for (kind, m), (_, converged, region) in zip(families, reports):
        points = [(n, family_f(kind, m, n)) for n in range(lo, hi + 1)]
        if not _same_limit((converged, region), points):
            return f"{kind}: limit report differs from the tail rule"
        estimates.append(region)
    want_matrix = [
        ["OVERLAPPING" if i == j or _box_gap(a, b) <= TOLERANCE else "DISTINCT" for j, b in enumerate(estimates)]
        for i, a in enumerate(estimates)
    ]
    return None if matrix == want_matrix else "distinctness matrix differs"


def check(workload: Workload, results: list[Result]) -> list[str | None]:
    """For each command, why its answer is wrong, or None when it is right."""
    reasons: list[str | None] = []
    counts: dict[str, set[int]] = {}
    colorings: dict[str, set[tuple]] = {}
    for cmd, res in zip(workload.commands, results):
        reason = None
        if res.error is not None:
            reason = "traceback: " + res.error.strip().splitlines()[-1]
        elif res.code != 0:
            reason = f"exit code {res.code}"
        elif cmd.expect_stdout is not None and res.stdout != cmd.expect_stdout:
            reason = "cached answer differs from the uncached one"
        else:
            try:
                reason = _check_one(cmd, res.stdout, counts, colorings)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                reason = f"unparseable output: {exc!r}"
        reasons.append(reason)
    for i, cmd in enumerate(workload.commands):
        if reasons[i] is None and cmd.group is not None:
            if len(counts.get(cmd.group, ())) > 1:
                reasons[i] = f"coloring counts disagree within group: {sorted(counts[cmd.group])}"
            elif len(colorings.get(cmd.group, ())) > 1:
                reasons[i] = "brute-force and affine colorings differ"
    return reasons


def _check_one(cmd: Command, out: str, counts, colorings):
    if cmd.kind == "family":
        return _check_family(cmd, out)
    if cmd.kind == "limits":
        return _check_limits(cmd, out)
    if cmd.kind == "colorings":
        found = parse_colorings(out, cmd.fmt)
        if len(found) < cmd.qsize:
            return f"{len(found)} colorings, fewer than the {cmd.qsize} constant ones"
        if cmd.expect_count is not None and len(found) != cmd.expect_count:
            return f"{len(found)} colorings, expected {cmd.expect_count}"
        if cmd.group is not None:
            counts.setdefault(cmd.group, set()).add(len(found))
            colorings.setdefault(cmd.group, set()).add(tuple(found))
        return None
    z, count, cn, f = parse_invariant(out, cmd.fmt)
    if sum(z) != count:
        return f"coloring count {count} != sum of Z coefficients {sum(z)}"
    if count < cmd.qsize:
        return f"{count} colorings, fewer than the {cmd.qsize} constant ones"
    if cmd.expect_z is not None and tuple(z) != cmd.expect_z:
        return f"Z {z} != closed form {list(cmd.expect_z)}"
    if cmd.expect_cn is not ... and cn != cmd.expect_cn:
        return f"crossing number {cn} != {cmd.expect_cn}"
    if cn is not None and not all(map(close, f, [_log(x) / cn for x in z])):
        return "f != log(Z) / crossing number"
    if cmd.group is not None:
        counts.setdefault(cmd.group, set()).add(count)
    return None


# ---------------------------------------------------------------- workloads


def _coboundary(rng, quandle, order) -> list[list[int]]:
    """phi(a, b) = g(a) - g(a*b): a valid 2-cocycle for any g."""
    g = [rng.randrange(order) for _ in range(quandle.size)]
    return [[(g[a] - g[quandle.op[a][b]]) % order for b in range(quandle.size)] for a in range(quandle.size)]


def _write_quandle_files(rng, workdir: Path) -> None:
    for name, (mod, _, poly) in QUANDLES.items():
        quandle = build_alexander_quandle(AlexanderQuandleSpec(mod, poly))
        save_quandle(quandle, workdir / f"q_{name}.json")
        cocycle = {"quandle": f"q_{name}.json", "group_order": mod, "table": _coboundary(rng, quandle, mod)}
        (workdir / f"c_{name}.json").write_text(json.dumps(cocycle) + "\n", encoding="utf-8")


# (quandle, strands, letters): brute force costs |X|^strands * letters per
# word.  Words close into knots, so the colorings stay few; that needs
# letters = strands - 1 (mod 2), since the permutation must be one cycle.
SCAN_SLOTS = [
    ("s4", 5, 36), ("s4", 6, 19), ("s4", 6, 31), ("s4", 7, 10), ("s4", 7, 14), ("s4", 8, 9),
    ("s4", 5, 24), ("s4", 6, 25), ("s4", 7, 8),
    ("r3", 6, 37), ("r3", 7, 24), ("r3", 7, 36), ("r3", 8, 19), ("r3", 8, 27), ("r3", 5, 36),
    ("r3", 7, 30), ("r3", 8, 13),
    ("r4", 5, 36), ("r4", 6, 19), ("r4", 6, 31), ("r4", 7, 10), ("r4", 7, 14), ("r4", 5, 28),
    ("r4", 6, 25), ("r4", 7, 8),
    ("r5", 5, 18), ("r5", 5, 30), ("r5", 6, 7), ("r5", 6, 11), ("r5", 5, 24), ("r5", 6, 9),
    ("r5", 5, 36), ("r5", 6, 13),
]
# (family, m, highest n) for family --verify; brute force stays within the default budget.
SCAN_FAMILIES = [("Kn", None, 5), ("KPrime", None, 5), ("K0", None, 3), ("Km", 1, 4), ("KPrimeM", 1, 4)]


def _family_arg(kind, m):
    return kind if m is None else f"{kind}:{m}"


def _scan(rng, workdir):
    _write_quandle_files(rng, workdir)
    commands = []
    for kind, m, hi in SCAN_FAMILIES:
        fmt = rng.choice(FORMATS)
        argv = ["family", _family_arg(kind, m), "--n", f"1..{hi}", "--verify", "--format", fmt]
        commands.append(Command(argv, "family", fmt))
    for k, (qname, strands, length) in enumerate(SCAN_SLOTS):
        letters = _random_letters(rng, strands, length)
        while len(set(_components(strands, letters))) > 1:
            letters = _random_letters(rng, strands, length)
        word = braid_text(strands, letters)
        group = f"w{k}"
        count = None
        if qname == "s4":
            qsize, inv_args, brute, alexander = 4, [], [], []
        else:
            mod, poly, coeffs = QUANDLES[qname]
            qsize = mod
            if qname in PRIME_FIELDS:
                count = affine_count(strands, letters, mod, -coeffs[0] % mod)
            inv_args = ["--quandle", f"q_{qname}.json", "--cocycle", f"c_{qname}.json"]
            alexander = ["--mod", str(mod), "--poly", poly]
            brute = rng.choice([["--quandle", f"q_{qname}.json"], alexander])
        fmt = rng.choice(FORMATS)
        commands.append(Command(["invariant", word, *inv_args, "--format", fmt], "invariant", fmt, group, qsize))
        fmt = rng.choice(FORMATS)
        for args in (brute, [*alexander, "--affine"]):
            argv = ["colorings", word, *args, "--format", fmt]
            commands.append(Command(argv, "colorings", fmt, group, qsize, expect_count=count))
    rng.shuffle(commands)
    return commands


def _alternating_runs(rng, pattern, crossings, lone=None, lone_at=0):
    """An alternating word: generator i keeps sign pattern[i-1]; each syllable >= 1 letter.

    Every generator occurs in at least two syllables, so no crossing is
    nugatory, unless ``lone`` adds one letter of an extra generator at
    position ``lone_at``, which makes that crossing nugatory.
    """
    gens = list(range(1, len(pattern) + 1))
    syllables = crossings // 4
    order = [gens[k % len(gens)] for k in range(syllables)]
    cuts = sorted(rng.sample(range(1, crossings), syllables - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [crossings])]
    letters = []
    for gen, size in zip(order, sizes):
        letters.extend([gen * pattern[gen - 1]] * size)
    if lone is not None:
        letters[lone_at] = lone
    return letters


# Full reducedness check (verified reduced alternating): (family, m, n) and random words.
LONG_FAMILIES = [("Km", 5, 2), ("KPrimeM", 2, 3), ("Km", 7, 2), ("KPrimeM", 3, 3)]
LONG_REDUCED = [(3, 100), (3, 120), (4, 140), (3, 160)]
# Rejected at an early crossing: (crossings, position of the nugatory crossing).
# Their costs form an even ramp where the 90th percentile falls.
LONG_REJECTED = [(300 + 500 * k // 15, 4) for k in range(16)]
# Not alternating: rejected in one linear pass; the state sum does the work.
LONG_RANDOM = [(3, 100 + 14 * k) for k in range(50)]
# Affine colorings of knotted closures: (quandle, strands).
LONG_AFFINE = [(q, s) for s in (10, 16, 24, 32) for q in ("r3", "r5")] * 4


def _components(strands: int, letters) -> list[int]:
    """For each lane, the closure component it lies on (a cycle of the permutation)."""
    perm = list(range(strands))
    for letter in letters:
        i = abs(letter)
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    component = [-1] * strands
    for start in range(strands):
        x = start
        while component[x] < 0:
            component[x] = start
            x = perm[x]
    return component


def _knot_letters(rng, strands, length):
    """Random letters, then letters that join the closure into one component."""
    letters = _random_letters(rng, strands, length)
    while True:
        component = _components(strands, letters)
        joins = [i for i in range(1, strands) if component[i - 1] != component[i]]
        if not joins:
            return letters
        letters.append(rng.choice((1, -1)) * joins[0])


def affine_count(strands: int, letters, p: int, t: int) -> int:
    """Closure colorings over Z_p[T]/(T - t), p prime: p ** nullity(M - I) mod p.

    M is the word's transfer matrix: a positive letter maps lanes (x, y)
    to (y, t x + (1 - t) y), a negative one to (t^-1 y + (1 - t^-1) x, x).
    """
    t_inv = pow(t, -1, p)
    rows = [[int(i == k) for i in range(strands)] for k in range(strands)]
    for letter in letters:
        a, b = abs(letter) - 1, abs(letter)
        ra, rb = rows[a], rows[b]
        if letter > 0:
            rows[a], rows[b] = rb, [(t * x + (1 - t) * y) % p for x, y in zip(ra, rb)]
        else:
            rows[a], rows[b] = [(t_inv * y + (1 - t_inv) * x) % p for x, y in zip(ra, rb)], ra
    matrix = [[(v - (i == k)) % p for i, v in enumerate(row)] for k, row in enumerate(rows)]
    rank = 0
    for col in range(strands):
        pivot = next((r for r in range(rank, strands) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = pow(matrix[rank][col], -1, p)
        for r in range(strands):
            if r != rank and matrix[r][col]:
                f = matrix[r][col] * inv
                matrix[r] = [(x - f * y) % p for x, y in zip(matrix[r], matrix[rank])]
        rank += 1
    return p ** (strands - rank)


def _long_words(rng, workdir):
    commands = []

    def invariant(word, **expect):
        fmt = rng.choice(FORMATS)
        commands.append(Command(["invariant", word, "--format", fmt], "invariant", fmt, **expect))

    for kind, m, n in LONG_FAMILIES:
        word = family_braid(FamilyId(kind, m), n)
        _, crossings, z = family_expect(kind, m, n)
        invariant(word.canonical(), expect_z=z, expect_cn=crossings)
    for strands, crossings in LONG_REDUCED:
        pattern = [1, -1, 1][: strands - 1]
        invariant(braid_text(strands, _alternating_runs(rng, pattern, crossings)), expect_cn=crossings)
    for crossings, at in LONG_REJECTED:
        letters = _alternating_runs(rng, [1], crossings, lone=-2, lone_at=at)
        invariant(braid_text(3, letters), expect_cn=None)
    for strands, length in LONG_RANDOM:
        invariant(braid_text(strands, _random_letters(rng, strands, length)))
    for qname, strands in LONG_AFFINE:
        mod, poly, coeffs = QUANDLES[qname]
        while True:  # at most mod**2 colorings, so output size does not depend on the seed
            letters = _knot_letters(rng, strands, 2 * strands)
            count = affine_count(strands, letters, mod, -coeffs[0] % mod)
            if count <= mod**2:
                break
        fmt = rng.choice(FORMATS)
        argv = ["colorings", braid_text(strands, letters), "--mod", str(mod), "--poly", poly, "--affine", "--format", fmt]
        commands.append(Command(argv, "colorings", fmt, qsize=mod, expect_count=count))
    rng.shuffle(commands)
    return commands


# (family, m, number of members): each slot runs at SWEEP_SIZES lengths,
# cycling through the three formats, so command costs spread evenly and
# no single cost gap sits at the 90th percentile.  Only the lowest n and
# the order are drawn, so every seed does nearly the same work.
SWEEP_FAMILIES = [
    ("Kn", None, 45), ("KPrime", None, 180), ("K0", None, 15),
    ("Km", 1, 30), ("Km", 2, 30), ("KPrimeM", 1, 30), ("KPrimeM", 2, 30),
]
SWEEP_SIZES = 12
# (families, highest n) for limits.
SWEEP_LIMITS = [("Kn,K0,KPrime,Km:1", 30), ("Kn,Km:2,KPrimeM:1", 45), ("K0,KPrime", 24), ("Km:1,Km:3,KPrime", 36)]


def _sweep(rng, workdir):
    commands = []
    for kind, m, members in SWEEP_FAMILIES:
        for k in range(SWEEP_SIZES):
            lo = rng.randint(1, 4)  # the top members cost most, so hi is fixed
            hi = round(members * (0.6 + 0.8 * k / (SWEEP_SIZES - 1)))
            fmt = FORMATS[k % 3]
            argv = ["family", _family_arg(kind, m), "--n", f"{lo}..{hi}", "--format", fmt]
            commands.append(Command(argv, "family", fmt))
    for families, hi in SWEEP_LIMITS * 2:
        lo = rng.randint(1, 4)
        for fmt in ("pretty", "json"):
            argv = ["limits", "--families", families, "--n", f"{lo}..{hi}", "--format", fmt]
            commands.append(Command(argv, "limits", fmt))
    rng.shuffle(commands)
    return commands


CACHE_RECORDS = 1000  # records pre-seeded into the cache file
CACHE_HITS, CACHE_MISSES = 54, 36  # invariant --cache commands per pass on seeded / new words
CACHE_FAMILIES = [("Kn", None, 4), ("KPrime", None, 4), ("K0", None, 2), ("Km", 1, 3), ("KPrimeM", 1, 3)] * 2


def _small_word(rng):
    strands = rng.randint(2, 4)
    return braid_text(strands, _random_letters(rng, strands, rng.randint(3, 12)))


def _cache(rng, workdir):
    quandle, cocycle = build_s4(), build_s4_cocycle()
    cache = InvariantCache(workdir / CACHE_FILE)
    seeded: dict[str, str] = {}  # canonical word -> text
    while len(seeded) < CACHE_RECORDS:
        text = _small_word(rng)
        word = parse_braid(text)
        if word.canonical() not in seeded:
            compute_invariant(word, quandle, cocycle, cache=cache)
            seeded[word.canonical()] = text
    seeded_texts = list(seeded.values())
    for kind, m, hi in CACHE_FAMILIES[:5]:
        family = FamilyId(kind, m)
        for n in range(1, hi):  # the top member of each range is left to miss
            compute_invariant(family_braid(family, n), quandle, cocycle,
                              assume_crossing_number=family_expect(kind, m, n)[1], cache=cache)

    commands = []
    texts = rng.sample(seeded_texts, CACHE_HITS)
    while len(texts) < CACHE_HITS + CACHE_MISSES:
        text = _small_word(rng)
        if parse_braid(text).canonical() not in seeded:
            texts.append(text)
    for text in texts:
        fmt = rng.choice(FORMATS)
        commands.append(Command(["invariant", text, "--format", fmt], "invariant", fmt))
    for kind, m, hi in CACHE_FAMILIES:
        fmt = rng.choice(FORMATS)
        commands.append(Command(["family", _family_arg(kind, m), "--n", f"1..{hi}", "--verify", "--format", fmt], "family", fmt))
    rng.shuffle(commands)
    for cmd in commands:
        cmd.expect_stdout = call(cmd.argv).stdout
        cmd.argv += ["--cache", CACHE_FILE]
    return commands


_GENERATORS = {"scan": _scan, "long_words": _long_words, "sweep": _sweep, "cache": _cache}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the workload's input files into ``workdir`` and return its commands.

    Commands name files relative to ``workdir``; run them from there.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    for stale in workdir.iterdir():
        stale.unlink()
    rng = random.Random(f"{name}:{seed}")
    commands = _GENERATORS[name](rng, workdir)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return Workload(name, seed, commands, files)
