"""Random words, small quandle tables, mirrors and Markov moves,
single-coloring propagation, twist-block weights, letter-by-letter family
words, the generic family sweep writers, Euclidean distance, a
token-by-token braid parser, canonical texts built from runs and the slow
reference builders and checks shared by the tests."""

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from itertools import compress, product
from operator import ne, sub

from qcjkls import braid
from qcjkls.braid import DEFAULT_BUDGET, BraidSyntaxError, BraidWord, BudgetExceededError, _kernel_mod
from qcjkls.cocycle import Cocycle, CocycleError, build_s4_cocycle
from qcjkls.group_algebra import build_cyclic_group
from qcjkls.invariant import cjkls_state_sum
from qcjkls.limits import closed_form_limit, limit_estimate
from qcjkls.quandle import _QUOTE_CHARS, AlexanderQuandleSpec, QuandleTable, ResidueRing, make_quandle
from qcjkls.sequences import family_rows


def reference_runs(letters) -> tuple[tuple[int, int], ...]:
    """Maximal equal-letter runs derived from the letters alone: the oracle for BraidWord.runs."""
    n = len(letters)
    starts = [0, *compress(range(1, n), map(ne, letters, letters[1:]))] if n else []
    return tuple(zip(map(letters.__getitem__, starts), map(sub, starts[1:] + [n], starts)))


def reference_canonical(word: BraidWord) -> str:
    """The canonical text built from the word's runs, one spelled token per run:
    the oracle for BraidWord.canonical, which reuses a parsed text already in this form."""
    text = {(l, c): f"s{l}" if l > 0 and c == 1 else f"s{abs(l)}^{c if l > 0 else -c}" for l, c in set(word.runs)}
    return f"B{word.strands}: {' '.join(map(text.__getitem__, word.runs))}".rstrip()


def random_word(rng, strands, runs, longest=3):
    """A word of ``runs`` runs sigma_i^{+-k}, 1 <= k <= ``longest``."""
    letters = []
    for _ in range(runs):
        letters += [rng.choice((1, -1)) * rng.randint(1, strands - 1)] * rng.randint(1, longest)
    return BraidWord(strands, tuple(letters))


_REFERENCE_PREFIX = re.compile(r"\s*B0*(\d+):")
_REFERENCE_ITEM = re.compile(r"s0*(\d+)(?:\^([+-]?)0*(\d+))?\Z")


def reference_parse_braid(text: str) -> BraidWord:
    """parse_braid one token at a time, with leading zeros dropped by the
    patterns themselves: the oracle for parse_braid's results, messages
    and positions.  The 0* patterns backtrack quadratically on long runs
    of zeros, so inputs should keep those short.  MAX_LETTERS is read
    from the braid module at each call, so a patched cap applies; a bad
    token is quoted up to its first _QUOTE_CHARS characters."""
    max_letters, max_digits, quoted = braid.MAX_LETTERS, braid._MAX_DIGITS, _QUOTE_CHARS
    prefix = _REFERENCE_PREFIX.match(text)
    declared = None
    start = 0
    if prefix:
        if len(prefix.group(1)) > max_digits:
            raise BraidSyntaxError(f"strand count has more than {max_digits} digits", 0)
        declared = int(prefix.group(1))
        if declared < 2:
            raise BraidSyntaxError(f"strand count must be >= 2, got {declared}", 0)
        start = prefix.end()

    letters: list[int] = []
    max_index = 0
    saw_item = False
    for token in re.finditer(r"\S+", text[start:]):
        at = start + token.start()
        item = _REFERENCE_ITEM.match(token.group(0))
        if not item:
            bad = token.group(0)
            shown = repr(bad) if len(bad) <= quoted else repr(bad[:quoted]) + "..."
            raise BraidSyntaxError(f"expected s<i> or s<i>^<e>, got {shown}", at)
        index_digits, sign, exponent_digits = item.groups("")
        if len(index_digits) > max_digits:
            raise BraidSyntaxError(f"generator index has more than {max_digits} digits", at)
        index = int(index_digits)
        if index < 1:
            raise BraidSyntaxError("generator indices start at 1", at)
        if declared is not None and index >= declared:
            raise BraidSyntaxError(f"generator s{index} does not exist on {declared} strands", at)
        if len(exponent_digits) > max_digits:
            raise BraidSyntaxError(f"braid word would exceed {max_letters} letters", at)
        exponent = int(sign + exponent_digits) if exponent_digits else 1
        if exponent == 0:
            raise BraidSyntaxError("exponent 0 is not allowed", at)
        if len(letters) + abs(exponent) > max_letters:
            raise BraidSyntaxError(f"braid word would exceed {max_letters} letters", at)
        letters.extend([index if exponent > 0 else -index] * abs(exponent))
        max_index = max(max_index, index)
        saw_item = True

    if declared is None:
        if not saw_item:
            raise BraidSyntaxError("empty braid word needs a strand prefix like 'B2:'", 0)
        declared = max_index + 1
    return BraidWord(declared, tuple(letters))


def _block(index, exponent):
    letter = index if exponent > 0 else -index
    return [letter] * abs(exponent)


def _tower_letters(n, k):
    """Letters of the Kn word with block exponent k: odd indices +, even -."""
    letters = []
    for i in range(n, 1, -1):
        letters.extend(_block(i, k if i % 2 == 1 else -k))
    letters.extend(_block(1, k))
    for i in range(2, n + 1):
        letters.extend(_block(i, k if i % 2 == 1 else -k))
    return letters


def _kprime_letters(n, k):
    if n == 1:
        return _block(1, k)
    if n % 2 == 0:
        cap = _block(n, -k)
        return cap + _kprime_letters(n - 1, k) + cap
    # odd n = 2i+1 >= 3: descend n..2 alternating, s1, ascend the odd
    # indices 3..n, then ascend 2..n alternating.
    letters = []
    for i in range(n, 1, -1):
        letters.extend(_block(i, k if i % 2 == 1 else -k))
    letters.extend(_block(1, k))
    for i in range(3, n + 1, 2):
        letters.extend(_block(i, k))
    for i in range(2, n + 1):
        letters.extend(_block(i, k if i % 2 == 1 else -k))
    return letters


def _pyramid_letters(n, k):
    """K0 word in B_{2n}: rows 1..n..1; row r uses indices r, r+2, ..., 2n-r."""
    rows = list(range(1, n + 1)) + list(range(n - 1, 0, -1))
    letters = []
    for r in rows:
        for i in range(r, 2 * n - r + 1, 2):
            letters.extend(_block(i, k if i % 2 == n % 2 else -k))
    return letters


def reference_family_braid(family, n):
    """The n-th family word built letter by letter: the oracle for family_braid."""
    k = 3 * (2 * family.m + 1) if family.kind in ("Km", "KPrimeM") else 3
    if family.kind in ("Kn", "Km"):
        return BraidWord(n + 1, tuple(_tower_letters(n, k)))
    if family.kind in ("KPrime", "KPrimeM"):
        return BraidWord(n + 1, tuple(_kprime_letters(n, k)))
    return BraidWord(2 * n, tuple(_pyramid_letters(n, k)))


def reference_family_stdout(family, lo, hi, fmt, verify=False, budget=DEFAULT_BUDGET):
    """The stdout of `family --format json|csv` written the generic way: the
    whole payload dict through json.dumps, or every row through csv.writer.
    The oracle for the streamed writers.  Texts come from the letter-by-letter
    words, and --verify builds every member's letters and lets the scan's
    budget refuse it."""
    rows = list(family_rows(family, lo, hi))
    checks = [None] * len(rows)
    if verify:
        cocycle = build_s4_cocycle()
        for i, row in enumerate(rows):
            word = reference_family_braid(family, row.n)
            try:
                z = cjkls_state_sum(word, cocycle.quandle, cocycle, budget=budget)
                checks[i] = "agree" if z.coeffs == row.z else "differ"
            except BudgetExceededError:
                checks[i] = "skipped"
    report = None
    if len(rows) >= 3:
        samples = [(row.n, row.f) for row in rows]
        report = limit_estimate(samples, family=family, closed_form=closed_form_limit(family))
    one, t = build_cyclic_group(2).labels
    out = io.StringIO()
    if fmt == "json":
        payload = {
            "family": str(family),
            "points": [
                {
                    "n": row.n,
                    "braid": reference_family_braid(family, row.n).canonical(),
                    "strands": row.strands,
                    "crossings": row.crossings,
                    "Z": {"group_labels": [one, t], "coeffs": [str(row.z[0]), str(row.z[1])]},
                    "f": list(row.f),
                    **({"check": check} if check is not None else {}),
                }
                for row, check in zip(rows, checks)
            ],
            "limit_report": report.to_json() if report else None,
        }
        print(json.dumps(payload, sort_keys=True), file=out)
        return out.getvalue()
    writer = csv.writer(out, lineterminator="\n")
    header = ["family", "m", "n", "strands", "crossings", "z_1", "z_2", "f_1", "f_2"]
    writer.writerow(header + ["check"] if verify else header)
    for row, check in zip(rows, checks):
        cells = [family.kind, "" if family.m is None else family.m, row.n, row.strands, row.crossings, *row.z]
        cells += [format(x, ".17g") for x in row.f]
        writer.writerow(cells + [check] if verify else cells)
    if report:
        print("# limit " + json.dumps(report.to_json(), sort_keys=True), file=out)
    return out.getvalue()


def dihedral(n):
    """The dihedral quandle on Z_n: a * b = 2b - a."""
    return make_quandle(tuple(tuple((2 * b - a) % n for b in range(n)) for a in range(n)))


def column_permutations(rng, n):
    """A right-invertible table that is no quandle: each column a random permutation."""
    columns = [rng.sample(range(n), n) for _ in range(n)]
    return make_quandle(tuple(tuple(columns[b][a] for b in range(n)) for a in range(n)))


def mirror(word: BraidWord) -> BraidWord:
    """Flip every crossing; the closure becomes the mirror image."""
    return BraidWord(word.strands, tuple(-l for l in word.letters))


def markov_conjugate(word: BraidWord, letter: int) -> BraidWord:
    """Markov conjugation w -> g^-1 w g by a single generator letter."""
    if letter == 0 or abs(letter) >= word.strands:
        raise ValueError(f"letter {letter} is not a generator on {word.strands} strands")
    return BraidWord(word.strands, (-letter,) + word.letters + (letter,))


def markov_stabilize(word: BraidWord, sign: int = 1) -> BraidWord:
    """Markov stabilization w -> w * s_n^(+-1) on one extra strand."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return BraidWord(word.strands + 1, word.letters + (sign * word.strands,))


@dataclass(frozen=True)
class ColoringTrace:
    """Propagation transcript: colors in, colors out, total crossing weight.

    per_crossing lists (under color a, over color b, sign) per letter,
    where a is the under-arc color satisfying a*b == other under color;
    the letter contributes phi(a, b)^sign to the weight.
    """

    top: tuple[int, ...]
    bottom: tuple[int, ...]
    weight: int
    per_crossing: tuple[tuple[int, int, int], ...]


def propagate(word: BraidWord, quandle: QuandleTable, cocycle: Cocycle, top) -> ColoringTrace:
    """Push a top coloring through the word one crossing at a time, by the
    crossing rule of the braid module's docstring, collecting cocycle weights."""
    if cocycle.quandle.op != quandle.op:
        raise CocycleError("cocycle is defined over a different quandle")
    top = tuple(int(x) for x in top)
    if len(top) != word.strands:
        raise ValueError(f"top coloring has {len(top)} entries for {word.strands} strands")
    if any(not 0 <= x < quandle.size for x in top):
        raise ValueError("top coloring contains indices outside the quandle")

    group = cocycle.group
    v = list(top)
    weight = group.identity
    trace = []
    for letter in word.letters:
        i = abs(letter)
        x, y = v[i - 1], v[i]
        if letter > 0:
            v[i - 1], v[i] = y, quandle.op[x][y]
            a, b = x, y
            factor = cocycle.table[a][b]
        else:
            a, b = quandle.inv_op[y][x], x
            v[i - 1], v[i] = a, b
            factor = group.inverse_table[cocycle.table[a][b]]
        weight = group.mul[weight][factor]
        trace.append((a, b, 1 if letter > 0 else -1))
    return ColoringTrace(top=top, bottom=tuple(v), weight=weight, per_crossing=tuple(trace))


def twist_block_weight(c: Cocycle, a: int, b: int) -> int:
    """Total weight phi(a,b) * phi(b,a*b) * phi(a*b,a) of a triple twist.

    This is what a sigma_i^3 block contributes for a closure coloring
    whose two strands enter the block colored (a, b); the block returns
    the same pair at the bottom.
    """
    ab = c.quandle.op[a][b]
    mul = c.group.mul
    return mul[mul[c.table[a][b]][c.table[b][ab]]][c.table[ab][a]]


def ring_add(ring: ResidueRing, i: int, j: int) -> int:
    """Index of the sum of two ring elements, coefficient by coefficient."""
    m = ring.modulus
    return ring.index_of(tuple((x + y) % m for x, y in zip(ring.elements[i], ring.elements[j])))


def reference_affine_colorings(word: BraidWord, spec: AlexanderQuandleSpec, budget: int = DEFAULT_BUDGET):
    """Closure colorings over an Alexander quandle via exact linear algebra,
    with the transfer matrix built by ring arithmetic in t, t^-1, 1-t and
    1-t^-1: the oracle for enumerate_colorings_affine.

    Color propagation is linear over the coefficient ring, so the fixed
    tuples form the kernel of (M - I) where M is the word's transfer
    matrix.  The kernel is found over Z_m after expanding each ring
    entry to a degree x degree integer block, so no enumeration of
    candidate tuples happens; output matches enumerate_colorings
    exactly, including order.  The budget bounds the number of
    colorings materialized, checked before any are produced.
    """
    ring = spec.ring()
    t = ring.t
    t_inv = ring.t_inverse()
    one_minus_t = ring.sub(ring.one, t)
    one_minus_t_inv = ring.sub(ring.one, t_inv)
    s = word.strands

    rows = [[ring.one if i == k else 0 for i in range(s)] for k in range(s)]
    for letter in word.letters:
        i = abs(letter)
        a, b = i - 1, i
        ra, rb = rows[a], rows[b]
        if letter > 0:
            new_b = [ring_add(ring, ring.mul(t, ra[j]), ring.mul(one_minus_t, rb[j])) for j in range(s)]
            rows[a], rows[b] = rb, new_b
        else:
            new_a = [
                ring_add(ring, ring.mul(t_inv, rb[j]), ring.mul(one_minus_t_inv, ra[j]))
                for j in range(s)
            ]
            rows[a], rows[b] = new_a, ra

    mod, deg = ring.modulus, ring.degree
    basis = [ring.index_of(tuple(int(j == e) for j in range(deg))) for e in range(deg)]
    n_vars = s * deg
    system = [[0] * n_vars for _ in range(n_vars)]
    for k in range(s):
        for i in range(s):
            entry = rows[k][i]
            if i == k:
                entry = ring.sub(entry, ring.one)
            if entry == 0:
                continue
            for e in range(deg):
                coeffs = ring.elements[ring.mul(entry, basis[e])]
                for r in range(deg):
                    system[k * deg + r][i * deg + e] = coeffs[r]

    count, v, steps = _kernel_mod(system, mod)
    if count > budget:
        raise BudgetExceededError(f"{count} colorings exceed the budget {budget}")

    free = [(j, g, step) for j, (g, step) in enumerate(steps) if g > 1]
    columns = {j: [v[i][j] % mod for i in range(n_vars)] for j, _, _ in free}

    colorings = []
    for choice in product(*[range(g) for _, g, _ in free]):
        x = [0] * n_vars
        for (j, _, step), k in zip(free, choice):
            y = (k * step) % mod
            if y:
                col = columns[j]
                for i in range(n_vars):
                    x[i] += col[i] * y
        coloring = tuple(
            ring.index_of(tuple(x[i * deg + e] % mod for e in range(deg))) for i in range(s)
        )
        colorings.append(coloring)
    colorings.sort()
    return colorings


def reference_alexander_quandle(spec: AlexanderQuandleSpec) -> QuandleTable:
    """a*b = T a + (1-T) b tabulated entry by entry through ring_add:
    the oracle for build_alexander_quandle."""
    ring = spec.ring()
    t = ring.t
    t_inv = ring.t_inverse()
    one_minus_t = ring.sub(ring.one, t)
    one_minus_t_inv = ring.sub(ring.one, t_inv)

    size = ring.size
    ta = [ring.mul(t, a) for a in range(size)]
    tia = [ring.mul(t_inv, a) for a in range(size)]
    ub = [ring.mul(one_minus_t, b) for b in range(size)]
    uib = [ring.mul(one_minus_t_inv, b) for b in range(size)]

    op = tuple(tuple(ring_add(ring, ta[a], ub[b]) for b in range(size)) for a in range(size))
    inv_op = tuple(tuple(ring_add(ring, tia[a], uib[b]) for b in range(size)) for a in range(size))
    labels = tuple(ring.label(i) for i in range(size))
    return QuandleTable(size=size, op=op, inv_op=inv_op, labels=labels)


def euclidean_distance(u, v) -> float:
    """Plain Euclidean distance between two coordinate tuples."""
    u, v = tuple(u), tuple(v)
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return math.dist(u, v)


def _closure_arc_edges(word: BraidWord):
    """Edges joining crossing ports along arcs of the closure shadow.

    Ports are numbered 4k + {0: top-left, 1: top-right, 2: bottom-left,
    3: bottom-right} for crossing k.
    """
    edges = []
    pending = [None] * word.strands
    first = [None] * word.strands
    for k, letter in enumerate(word.letters):
        i = abs(letter)
        for lane, top_port, bottom_port in ((i - 1, 4 * k, 4 * k + 2), (i, 4 * k + 1, 4 * k + 3)):
            if pending[lane] is None:
                first[lane] = top_port
            else:
                edges.append((pending[lane], top_port))
            pending[lane] = bottom_port
    for lane in range(word.strands):
        if pending[lane] is not None:
            edges.append((pending[lane], first[lane]))  # braid closure wraps each lane
    return edges


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        self.parent[self.find(x)] = self.find(y)


def reference_reduced(word: BraidWord) -> bool:
    """O(c^2) oracle for is_reduced_closure: smooth every crossing both ways.

    A crossing is nugatory exactly when one of its two smoothings
    disconnects the shadow, so each crossing is smoothed both ways in a
    union-find over crossing ports; only the connected component the
    crossing lives in is compared.
    """
    c = len(word.letters)
    if c == 0:
        return True
    edges = _closure_arc_edges(word)
    nodes = 4 * c

    def build(smooth_at, horizontal):
        uf = _UnionFind(nodes)
        for x, y in edges:
            uf.union(x, y)
        for k in range(c):
            base = 4 * k
            if k == smooth_at:
                if horizontal:
                    uf.union(base, base + 1)
                    uf.union(base + 2, base + 3)
                else:
                    uf.union(base, base + 2)
                    uf.union(base + 1, base + 3)
            else:
                uf.union(base, base + 1)
                uf.union(base, base + 2)
                uf.union(base, base + 3)
        return uf

    baseline = build(None, False)
    for tau in range(c):
        home = baseline.find(4 * tau)
        local = [p for p in range(nodes) if baseline.find(p) == home]
        for horizontal in (False, True):
            uf = build(tau, horizontal)
            roots = {uf.find(p) for p in local}
            if len(roots) > 1:
                return False
    return True
