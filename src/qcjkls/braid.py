"""Braid words, their closures, and quandle colorings of those closures.

A braid word on s strands is a sequence of signed generator indices:
letter +i crosses strand i under strand i+1, letter -i crosses strand i
over strand i+1 (1-based indices, lanes i-1 and i).  Coloring a
closure means assigning quandle elements to the top of every lane so
that pushing the colors through all crossings reproduces the top tuple
at the bottom.

Crossing rule for a local pair (x, y) = (left lane, right lane):

    positive letter:  (x, y) -> (y, x*y)    weight phi(x, y)
    negative letter:  (x, y) -> (y ~* x, x) weight phi(y ~* x, x)^-1

The weight arguments are always (under-arc color that gets starred,
over-arc color).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import chain, compress, product, repeat, starmap
from math import gcd
from operator import itemgetter, ne, not_, sub

from .cocycle import Cocycle, verify_cocycle
from .quandle import AlexanderQuandleSpec, QuandleTable, build_alexander_quandle, verify_quandle_axioms

# Cap on the number of candidate top tuples (quandle_size ** strands) a
# brute-force enumeration will walk, and on the number of colorings the
# linear fast path will materialize.
DEFAULT_BUDGET = 4**12
# Cap on the letters parse_braid expands a braid text into, so that a
# huge exponent is refused instead of materialized.
MAX_LETTERS = 10**6
# Longest numeral (leading zeros dropped) parse_braid converts with int().
_MAX_DIGITS = len(str(MAX_LETTERS))
# Characters of a bad token that a syntax error quotes: at most 10 each in a repr.
_QUOTE_CHARS = 12


class BraidSyntaxError(ValueError):
    """Unparseable braid text; carries the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured budget."""


@dataclass(frozen=True)
class BraidWord:
    """Braid group element as a word in signed generator letters."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 2:
            raise ValueError(f"a braid needs at least 2 strands, got {self.strands}")
        letters = tuple(map(int, self.letters))
        object.__setattr__(self, "letters", letters)
        bad = {l for l in set(letters) if l == 0 or abs(l) >= self.strands}
        if bad:
            first = next(l for l in letters if l in bad)
            raise ValueError(f"letter {first} is not a generator of the {self.strands}-strand braid group")

    @cached_property
    def runs(self) -> tuple[tuple[int, int], ...]:
        """Maximal equal-letter runs as (letter, length) pairs, in word order."""
        letters, n = self.letters, len(self.letters)
        starts = [0, *compress(range(1, n), map(ne, letters, letters[1:]))] if n else []
        return tuple(zip(map(letters.__getitem__, starts), map(sub, starts[1:] + [n], starts)))

    def canonical(self) -> str:
        """Serialize as "B<s>: s<i>^<e> ...", merging maximal equal-letter runs; exponent 1 is left out."""
        text = {(l, c): f"s{l}" if l > 0 and c == 1 else f"s{abs(l)}^{c if l > 0 else -c}" for l, c in set(self.runs)}
        return f"B{self.strands}: {' '.join(map(text.__getitem__, self.runs))}".rstrip()

    def __str__(self) -> str:
        return self.canonical()


# Leading zeros are stripped after matching: 0*(\d+) backtracks quadratically on a long run of them.
_PREFIX = re.compile(r"\s*B(\d+):")
_ITEM = re.compile(r"s(\d+)(?:\^([+-]?)(\d+))?\Z")


def _read_token(token: str, declared: int | None, at: int) -> tuple[int, int]:
    """The (letter, count) run one token spells; raises BraidSyntaxError at position ``at``."""
    item = _ITEM.match(token)
    if not item:
        more = "..." if len(token) > _QUOTE_CHARS else ""
        raise BraidSyntaxError(f"expected s<i> or s<i>^<e>, got {token[:_QUOTE_CHARS]!r}{more}", at)
    index_digits, sign, exponent_digits = map(str.lstrip, item.groups(""), repeat("0"))
    if len(index_digits) > _MAX_DIGITS:
        raise BraidSyntaxError(f"generator index has more than {_MAX_DIGITS} digits", at)
    index = int(index_digits or "0")
    if index < 1:
        raise BraidSyntaxError("generator indices start at 1", at)
    if declared is not None and index >= declared:
        raise BraidSyntaxError(f"generator s{index} does not exist on {declared} strands", at)
    if len(exponent_digits) > _MAX_DIGITS:
        raise BraidSyntaxError(f"braid word would exceed {MAX_LETTERS} letters", at)
    exponent = int(sign + (exponent_digits or "0")) if item.group(3) else 1
    if exponent == 0:
        raise BraidSyntaxError("exponent 0 is not allowed", at)
    return (index if exponent > 0 else -index), abs(exponent)


def parse_braid(text: str) -> BraidWord:
    """Parse "s1^3", "s2^-3 s1^3 s2^-3", or "B4: s1 s3^-2" into a BraidWord.

    Without a "B<s>:" prefix the strand count is one more than the
    largest generator index.  Exponent 0, numerals with more digits than
    MAX_LETTERS and words of more than MAX_LETTERS letters are rejected;
    syntax errors report a character position.  The body is split once
    and each distinct token read once; only a text that fails a check
    is walked token by token, to find the first problem's position.
    """
    prefix = _PREFIX.match(text)
    declared = None
    start = 0
    if prefix:
        digits = prefix.group(1).lstrip("0")
        if len(digits) > _MAX_DIGITS:
            raise BraidSyntaxError(f"strand count has more than {_MAX_DIGITS} digits", 0)
        declared = int(digits or "0")
        if declared < 2:
            raise BraidSyntaxError(f"strand count must be >= 2, got {declared}", 0)
        start = prefix.end()

    tokens = text[start:].split()
    try:
        read = {token: _read_token(token, declared, 0) for token in set(tokens)}
    except BraidSyntaxError:
        read = {}
    runs = list(map(read.get, tokens))
    if None not in runs and (declared or runs) and sum(map(itemgetter(1), runs)) <= MAX_LETTERS:
        strands = declared or max(abs(letter) for letter, _ in read.values()) + 1
        return BraidWord(strands, tuple(chain.from_iterable(starmap(repeat, runs))))

    total = 0
    for token in re.compile(r"\S+").finditer(text, start):
        total += _read_token(token.group(0), declared, token.start())[1]
        if total > MAX_LETTERS:
            raise BraidSyntaxError(f"braid word would exceed {MAX_LETTERS} letters", token.start())
    raise BraidSyntaxError("empty braid word needs a strand prefix like 'B2:'", 0)


def _run_word(letters, op, inv_op, v, phi=None, gmul=None, ginv=None, identity=0):
    """Push colors in v (mutated in place) through the word; returns the weight index."""
    weight = identity
    for letter in letters:
        if letter > 0:
            a = letter - 1
            b = letter
            x, y = v[a], v[b]
            v[a] = y
            v[b] = op[x][y]
            if phi is not None:
                weight = gmul[weight][phi[x][y]]
        else:
            b = -letter
            a = b - 1
            x, y = v[a], v[b]
            z = inv_op[y][x]
            v[a] = z
            v[b] = x
            if phi is not None:
                weight = gmul[weight][ginv[phi[z][x]]]
    return weight


def _weight_args(cocycle: Cocycle | None) -> dict:
    """_run_word keyword arguments that make it accumulate cocycle weights."""
    if cocycle is None:
        return {}
    group = cocycle.group
    return {"phi": cocycle.table, "gmul": group.mul, "ginv": group.inverse_table, "identity": group.identity}


# Largest quandle size and group order whose indices fit a 4-bit nibble,
# so a pair of them fits one byte: the limit of the packed scan.
PACKED_MAX = 16
# Candidate tuples per chunk of the packed scan (one byte each per lane).
CHUNK_TUPLES = 4**8
# Most colored states (group order * quandle_size ** strands) a byte can name.
STATES_MAX = 256

# Maps a nonzero byte of the lane difference to a value no weight index has.
_UNFIXED = bytes([0]) + bytes([0xF0]) * 255
# Map a pair byte (x << 4) | y to its right lane y or its left lane x.
_RIGHT = bytes(i & 15 for i in range(256))
_LEFT = bytes(i >> 4 for i in range(256))
# Swap the nibbles of a byte; the identity translate table.
_SWAP_NIBBLES = bytes((i & 15) << 4 | i >> 4 for i in range(256))
_IDENTITY = bytes(range(256))
# Tuple-steps of the packed scan that cost about as much as mapping and sorting one coloring.
MAP_COST = 64


def _nibble_table(rows) -> bytes:
    """Translate table mapping byte (x << 4) | y to rows[x][y]; other bytes map to 0."""
    table = bytearray(256)
    for x, row in enumerate(rows):
        table[x << 4 : (x << 4) + len(row)] = bytes(row)
    return bytes(table)


def _pack(high: bytes, low: bytes) -> bytes:
    """Bytes (high[i] << 4) | low[i] of two equally long columns of nibbles."""
    return (int.from_bytes(high, "little") << 4 | int.from_bytes(low, "little")).to_bytes(len(low), "little")


def _column(q: int, block: int, size: int) -> int:
    """Integer whose byte i is color (i // block) % q, for i < size; size is a multiple of block * q."""
    return int.from_bytes(b"".join(bytes([d]) * block for d in range(q)) * (size // (block * q)), "little")


class ScanTables:
    """The byte tables the scans read off one quandle and cocycle (or None).

    ``gmul`` maps byte (w << 4) | x to the group product w * x, and
    ``gmul_swapped`` maps (x << 4) | w to it.  ``orbits`` is the packed
    scan's plan for lane 0 (see _scan): (representative, move) per color
    x, the least of x's orbit and a translate table taking it to x.
    ``orbit_size`` counts each representative's orbit.  The scans get
    their tables from _scan_tables and their runs of letters from _run.

    The orbits are those of the group generated by the right
    translations R_a(x) = x*a that satisfy, at c = a and all x, y, the
    two laws verify_quandle_axioms and verify_cocycle check: R_a is an
    automorphism, (x*y)*a = (x*a)*(y*a), and, with a cocycle,
    phi(x*a, y*a) phi(x, a) = phi(x, y) phi(x*y, a).  R_a is a bijection
    in every QuandleTable.  ``move`` composes such R_a, so it keeps both
    laws too.
    """

    def __init__(self, quandle: QuandleTable, cocycle: Cocycle | None):
        self.quandle, self.cocycle = quandle, cocycle
        self.identity = cocycle.group.identity if cocycle is not None else 0
        self.gmul = _nibble_table(cocycle.group.mul if cocycle is not None else ())
        self.gmul_swapped = _SWAP_NIBBLES.translate(self.gmul)
        q, op = quandle.size, quandle.op
        failed = {elems[-1] for axiom, elems in verify_quandle_axioms(quandle).violations if axiom == "self_distributivity"}
        if cocycle is not None:
            failed.update(c for _, _, c in verify_cocycle(cocycle).condition_violations)
        moves = [bytes(op[x][a] for x in range(q)) + _IDENTITY[q:] for a in range(q) if a not in failed]
        plan = [None] * q
        for rep in range(q):
            if plan[rep] is None:
                plan[rep] = (rep, _IDENTITY)
                reached = [rep]
                for y in reached:
                    for move in moves:
                        if plan[move[y]] is None:
                            plan[move[y]] = (rep, plan[y][1].translate(move))
                            reached.append(move[y])
        self.orbits = plan
        self.orbit_size = Counter(rep for rep, _ in plan)


# _scan_tables(quandle, cocycle): the ScanTables of the most recently scanned pairs.  The
# key is the pair's value, so a quandle and cocycle loaded from files share the tables of
# an equal built-in pair; only pairs of at most PACKED_MAX elements reach it.
_scan_tables = lru_cache(ScanTables)


@lru_cache
def _run(tables: ScanTables, sign: int, k: int) -> tuple[bytes, bytes]:
    """The (pair table, weight table) of k >= 1 letters of one sign on one lane pair.

    They map a pair byte (x << 4) | y to the pair the run leaves and to
    the run's weight; bytes that are no pair of colors map to themselves
    with the identity weight.  A single letter comes from _run_word on
    the |X|^2 pairs, and the run of k composes the run of k // 2 with
    itself (and one letter more for odd k), so it costs O(log k)
    compositions.  The memo keeps the most recently used runs, so many
    distinct exponents stay bounded.
    """
    if k == 1:
        quandle, kwargs = tables.quandle, _weight_args(tables.cocycle)
        pairs, weights = bytearray(range(256)), bytearray([tables.identity]) * 256
        for x in range(quandle.size):
            for y in range(quandle.size):
                v = [x, y]
                weights[x << 4 | y] = _run_word((sign,), quandle.op, quandle.inv_op, v, **kwargs)
                pairs[x << 4 | y] = v[0] << 4 | v[1]
        return bytes(pairs), bytes(weights)
    pairs, weights = half = _run(tables, sign, k // 2)
    for then_pairs, then_weights in [half] + [_run(tables, sign, 1)] * (k % 2):
        pairs, weights = pairs.translate(then_pairs), _pack(weights, pairs.translate(then_weights)).translate(tables.gmul)
    return pairs, weights


def _compile_steps(runs, tables: ScanTables):
    """Packed-scan steps (left lane, kind, table, weight table), one per run.

    The table maps a pair byte (x << 4) | y of the two lanes to the new
    right lane (kind 1, one positive letter), the new left lane (kind -1,
    one negative letter) or the output pair (kind 0, a longer run; None
    when the run fixes every pair).  The weight table is None when the
    weight is always the identity.  A run's weight table maps the pair
    byte to the run's weight.  A single letter's weight rides in the
    high nibble of its table's output, so one translate gives both, and
    its weight table is tables.gmul_swapped, which multiplies it in.
    A run that fixes every pair with the identity weight is left out.
    """
    steps = []
    for letter, k in runs:
        sign = 1 if letter > 0 else -1
        pairs, weights = _run(tables, sign, k)
        if weights.count(tables.identity) == 256:
            weights = None
        if k == 1:
            pairs = pairs.translate(_RIGHT if sign > 0 else _LEFT)
            if weights is not None:
                pairs = _pack(weights, pairs)
                weights = tables.gmul_swapped
        elif pairs == _IDENTITY:
            if weights is None:
                continue
            pairs = None
        steps.append((abs(letter) - 1, 0 if k > 1 else sign, pairs, weights))
    return steps


def _scan_states(word: BraidWord, quandle: QuandleTable, cocycle: Cocycle | None):
    """The byte-state scan behind _scan; needs group order * q**s <= STATES_MAX.

    Byte w * q**s + i names the top tuple of lexicographic index i with
    weight w.  Each distinct run becomes one 256-byte table over these
    states, built from its two-lane tables by carry-free arithmetic on
    columns of state bytes, so the word is one bytes.translate per run
    of the identity-weight states.  Tuple i closes up with weight g where
    its final state is g * q**s + i.
    """
    q, s = quandle.size, word.strands
    order, identity = (cocycle.group.order, cocycle.group.identity) if cocycle is not None else (1, 0)
    n, size = q**s, order * q**s
    tables = _scan_tables(quandle, cocycle)
    times_n = (int.from_bytes(tables.gmul, "little") * n).to_bytes(256, "little")
    index = int.from_bytes(bytes(range(n)) * order, "little")
    weight = _column(order, n, size) << 4
    low = int.from_bytes(b"\x0f" * size, "little")
    digits = [_column(q, q ** (s - 1 - j), size) for j in range(s)]
    steps = {}
    for letter, k in set(word.runs):
        a = abs(letter) - 1
        hi, lo, x, y = q ** (s - 1 - a), q ** (s - 2 - a), digits[a], digits[a + 1]
        pairs = (x << 4 | y).to_bytes(size, "little")
        moves, weights = _run(tables, 1 if letter > 0 else -1, k)
        moved = int.from_bytes(pairs.translate(moves), "little")
        key = (weight | int.from_bytes(pairs.translate(weights), "little")).to_bytes(size, "little")
        # each byte stays in [0, size), so no sum or difference carries between bytes
        state = int.from_bytes(key.translate(times_n), "little") + index - x * hi - y * lo
        steps[letter, k] = (state + (moved >> 4 & low) * hi + (moved & low) * lo).to_bytes(256, "little")
    start = bytes(range(identity * n, identity * n + n))
    final = int.from_bytes(reduce(bytes.translate, map(steps.__getitem__, word.runs), start), "little")
    diffs = [(final ^ int.from_bytes(bytes(range(g * n, g * n + n)), "little")).to_bytes(n, "little") for g in range(order)]
    if cocycle is None:
        return list(compress(product(range(q), repeat=s), map(not_, diffs[0])))
    return [diff.count(0) for diff in diffs]


def _step_chunk(steps, top, n: int, tables: ScanTables, weighted: bool):
    """Push the n tuples whose top lanes are the columns ``top`` through the steps.

    Returns (fixed, weight): ``fixed`` has a zero byte exactly where the
    tuple closes up, i.e. every final lane equals its top lane, and the
    weight column (0 when not ``weighted``) holds each tuple's group
    index.  A step packs its two lanes into pair bytes with a shift and
    an OR, and one bytes.translate looks up the step's table.  Weights
    are multiplied in by a translate over the weight column and the
    step's factors, packed into one byte each.
    """
    low = int.from_bytes(b"\x0f" * n, "little")
    high = low << 4
    lanes = top[:]
    weight = int.from_bytes(bytes([tables.identity]) * n, "little") if weighted else 0
    for a, kind, table, weights in steps:
        left, right = lanes[a], lanes[a + 1]
        pair = (left << 4 | right).to_bytes(n, "little")
        if kind == 0:
            if table is not None:
                out = int.from_bytes(pair.translate(table), "little")
                lanes[a], lanes[a + 1] = out >> 4 & low, out & low
            if weights is not None:
                factor = int.from_bytes(pair.translate(weights), "little")
                weight = int.from_bytes((weight << 4 | factor).to_bytes(n, "little").translate(tables.gmul), "little")
            continue
        out = int.from_bytes(pair.translate(table), "little")
        if weights is not None:
            weight = int.from_bytes((out & high | weight).to_bytes(n, "little").translate(weights), "little")
            out &= low
        if kind > 0:
            lanes[a], lanes[a + 1] = right, out
        else:
            lanes[a], lanes[a + 1] = out, left
    diff = 0
    for lane, start in zip(lanes, top):
        diff |= lane ^ start
    return diff.to_bytes(n, "little"), weight


def _scan_packed(word: BraidWord, quandle: QuandleTable, cocycle: Cocycle | None):
    """The packed-column scan behind _scan; needs quandle and group sizes <= 16.

    Lane j of a chunk is an integer whose little-endian bytes hold lane
    j's color for every candidate tuple of the chunk, so one step moves
    all of them (_step_chunk).  Lane 0 and the other leading lanes are
    fixed per chunk and the trailing lanes run through all values, so a
    chunk holds at most CHUNK_TUPLES tuples and chunks come in
    lexicographic order.  Fixed tuples are the zero bytes of the chunk's
    ``fixed``.

    Lane 0 is scanned at one color per orbit of ScanTables.orbits.  A
    state sum counts a representative's block, its chunks, once per
    orbit member.  The colorings of another member x are its
    representative's, mapped by ``move`` and sorted, unless that block
    holds so many colorings that mapping them would cost more than
    scanning (MAP_COST); then block x is scanned too.
    """
    q, s = quandle.size, word.strands
    tables = _scan_tables(quandle, cocycle)
    steps = _compile_steps(word.runs, tables)
    trailing = 0
    while trailing < s - 1 and q ** (trailing + 1) <= CHUNK_TUPLES:
        trailing += 1
    n = q**trailing
    weighted = any(step[3] is not None for step in steps)
    constant = [int.from_bytes(bytes([d]) * n, "little") for d in range(q)]
    tops = [_column(q, q**p, n) for p in reversed(range(trailing))]
    # tuple index i of a chunk spells the trailing colors high + low
    low_tails = list(product(range(q), repeat=trailing // 2))
    high_tails = list(product(range(q), repeat=trailing - trailing // 2))
    width = len(low_tails)
    leading = [range(q)] * (s - 1 - trailing)
    coeffs = [0] * (cocycle.group.order if cocycle is not None else 1)
    found = []
    blocks = {}
    for x, (rep, move) in enumerate(tables.orbits):
        if rep != x:
            if cocycle is not None:
                continue
            start, stop = blocks[rep]
            if (stop - start) * MAP_COST < q ** (s - 1) * len(steps):
                moved = bytes(chain.from_iterable(found[start:stop])).translate(move)
                found += sorted(zip(*[iter(moved)] * s))
                continue
        start = len(found)
        for prefix in product((x,), *leading):
            fixed, weight = _step_chunk(steps, [constant[d] for d in prefix] + tops, n, tables, weighted)
            if cocycle is None:
                # visit only the rows of len(low_tails) tuples that hold a coloring
                index = fixed.find(0)
                while index >= 0:
                    row = index // width
                    head = prefix + high_tails[row]
                    found += map(head.__add__, compress(low_tails, map(not_, fixed[row * width : row * width + width])))
                    index = fixed.find(0, row * width + width)
            elif weighted:
                keyed = (int.from_bytes(fixed.translate(_UNFIXED), "little") | weight).to_bytes(n, "little")
                for g in range(len(coeffs)):
                    coeffs[g] += keyed.count(g) * tables.orbit_size[x]
            else:
                coeffs[cocycle.group.identity] += fixed.count(0) * tables.orbit_size[x]
        blocks[x] = (start, len(found))
    return found if cocycle is None else coeffs


def _scan_tuples(word: BraidWord, quandle: QuandleTable, cocycle: Cocycle | None):
    """Per-tuple reference scan through _run_word; same results as _scan_states and _scan_packed."""
    kwargs = _weight_args(cocycle)
    op, inv_op = quandle.op, quandle.inv_op
    letters = word.letters
    coeffs = [0] * (cocycle.group.order if cocycle is not None else 1)
    found = []
    for top in product(range(quandle.size), repeat=word.strands):
        v = list(top)
        weight = _run_word(letters, op, inv_op, v, **kwargs)
        if tuple(v) == top:
            found.append(top)
            coeffs[weight] += 1
    return found if cocycle is None else coeffs


def _scan(word: BraidWord, quandle: QuandleTable, cocycle: Cocycle | None, budget: int):
    """One brute-force pass over all quandle_size ** strands top tuples.

    Raises BudgetExceededError, before any work, when that count exceeds
    the budget.  Without a cocycle, returns the closure colorings as top
    tuples in lexicographic order; with one, returns the coefficient
    list of the state sum over the cocycle's group.  A quandle and group
    of at most PACKED_MAX elements each take the byte-state path when
    their colored states fit STATES_MAX, else the packed-column path;
    larger ones take the per-tuple path.

    The packed scan sweeps lane 0 at one color per orbit of
    ScanTables.orbits (see _scan_packed).  That is exact.  For each
    generator R = R_a:
    - R acts on tuples lane by lane.  It is an automorphism, so it
      commutes with both crossings: (x, y) -> (y, x*y) becomes
      (Rx, Ry) -> (Ry, Rx*Ry), and likewise for the inverse operation.
      So a tuple closes up exactly when its image does, and R maps the
      colorings with lane-0 color x one to one onto those with R(x).
    - The cocycle check says phi(Rx, Ry) = phi(x, y) f(x*y) / f(x), with
      f = phi(., a).  A positive crossing's under-arc enters with x and
      leaves with x*y.  A negative one weighs phi(z, x)^-1, where
      z*x = y, and its under-arc enters with y and leaves with z, so R
      multiplies it by f(z) / f(y).  Either way R multiplies a crossing's
      weight by f(out) / f(in) of its under-arc.
    - An arc keeps its color through over-crossings, so along a closed
      strand each under-crossing's out is the next one's in, and in the
      abelian group the factors cancel: R keeps every coloring's weight.
    Compositions of generators keep both properties.  So the colorings
    with lane-0 color x are those of x's orbit representative moved
    over, with the same weights, and their state sum is the same.
    """
    q, s = quandle.size, word.strands
    # exact q ** s > budget: capping s at budget.bit_length() + 1 keeps the power small,
    # and any q >= 2 raised to that cap already exceeds the budget
    if q ** min(s, budget.bit_length() + 1) > budget:
        raise BudgetExceededError(f"{q}^{s} candidate tuples exceed the budget {budget}")
    order = cocycle.group.order if cocycle is not None else 1
    if q > PACKED_MAX or order > PACKED_MAX:
        return _scan_tuples(word, quandle, cocycle)
    # likewise 2 ** 9 > STATES_MAX, so s capped at 9 decides the state count exactly
    return (_scan_states if order * q ** min(s, 9) <= STATES_MAX else _scan_packed)(word, quandle, cocycle)


def enumerate_colorings(word: BraidWord, quandle: QuandleTable, budget: int = DEFAULT_BUDGET):
    """All closure colorings as top tuples, in lexicographic index order.

    Walks every quandle_size ** strands candidate, subject to ``budget``.
    """
    return _scan(word, quandle, None, budget)


def _diagonalize(a: list[list[int]], mod: int):
    """Diagonalization over Z_mod, A -> U A V = D; returns (diag, V).

    Row operations are not tracked (only the kernel is wanted); column
    operations are mirrored into V, which stays invertible over Z_mod.
    Entries are kept in [0, mod).  The pivot is the first unit met, else
    the smallest nonzero entry: a unit clears its row and column exactly,
    any other pivot leaves remainders smaller than itself, so the loop
    ends.  Only the pivot row's nonzero columns and the rows that meet
    the pivot column are touched.  Diagonal entries need not form a
    divisibility chain.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    t = 0
    while t < m and t < n:
        pivot = None
        best = None
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                e = row[j]
                if e and (best is None or e < best):
                    pivot, best = (i, j), e
            if best is not None and gcd(best, mod) == 1:
                break
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]

        inverse = pow(best, -1, mod) if gcd(best, mod) == 1 else None
        dirty = False
        pivot_row = a[t]
        support = [j for j in range(t, n) if pivot_row[j]]
        for row in a:
            if row is not pivot_row and row[t]:
                q = row[t] * inverse % mod if inverse else row[t] // best
                for j in support:
                    row[j] = (row[j] - q * pivot_row[j]) % mod
                dirty = dirty or row[t] != 0
        live = [row for row in a + v if row[t]]
        for j in support[1:]:
            q = pivot_row[j] * inverse % mod if inverse else pivot_row[j] // best
            for row in live:
                row[j] = (row[j] - q * row[t]) % mod
            dirty = dirty or pivot_row[j] != 0
        if not dirty:
            t += 1
    diag = [a[i][i] for i in range(min(m, n))]
    return diag, v


def _kernel_mod(a: list[list[int]], mod: int):
    """Solutions of A x == 0 over Z_mod: returns (solution count, V, step table)."""
    diag, v = _diagonalize([[e % mod for e in row] for row in a], mod)
    n = len(a[0]) if a else 0
    steps = []
    count = 1
    for j in range(n):
        d = diag[j] if j < len(diag) else 0
        g = gcd(d, mod)
        steps.append((g, mod // g))
        count *= g
    return count, v, steps


def enumerate_colorings_affine(word: BraidWord, spec: AlexanderQuandleSpec, budget: int = DEFAULT_BUDGET):
    """Closure colorings over an Alexander quandle via exact linear algebra.

    a*b = T a + (1-T) b is linear over the ring Z_m[T]/(p(T)), so pushing
    colors through the word multiplies them by its transfer matrix M,
    and the closure colorings form the kernel of (M - I).  Column (i, e)
    of M is the basis coloring T^e on lane i, zero elsewhere, pushed
    through the crossing loop _run_word; each lane's coefficients form
    a degree-sized block of the integer system, which is solved over
    Z_m, so no enumeration of candidate tuples happens.  Output matches
    enumerate_colorings exactly, including order.  The budget bounds
    the number of colorings materialized, checked before any are
    produced.
    """
    quandle = build_alexander_quandle(spec)
    mod, deg, s = spec.modulus, len(spec.poly) - 1, word.strands
    n_vars = s * deg
    places = [mod**e for e in range(deg)]  # an element's index reads its coefficients in base mod
    images = []
    for col in range(n_vars):
        lane, e = divmod(col, deg)
        v = [0] * s
        v[lane] = places[e]  # T^e
        _run_word(word.letters, quandle.op, quandle.inv_op, v)
        images.append([color // place % mod for color in v for place in places])
    system = [list(row) for row in zip(*images)]
    for i in range(n_vars):
        system[i][i] = (system[i][i] - 1) % mod

    count, v, steps = _kernel_mod(system, mod)
    if count > budget:
        raise BudgetExceededError(f"{count} colorings exceed the budget {budget}")

    free = [(j, g, step) for j, (g, step) in enumerate(steps) if g > 1]
    columns = {j: [v[i][j] % mod for i in range(n_vars)] for j, _, _ in free}

    colorings = []
    for choice in product(*[range(g) for _, g, _ in free]):
        x = [0] * n_vars
        for (j, _, step), k in zip(free, choice):
            y = k * step % mod
            x = [xi + ci * y for xi, ci in zip(x, columns[j])]
        digits = [xi % mod * place for xi, place in zip(x, places * s)]
        colorings.append(tuple(map(sum, zip(*[iter(digits)] * deg))))
    colorings.sort()
    return colorings


def is_alternating_closure(word: BraidWord) -> bool:
    """Does the closure diagram alternate over/under along every component?

    Lane j is the right lane of s_j and the left lane of s_(j+1).  A
    strand entering a crossing along lane j passes over at s_j^+ and
    s_(j+1)^-, and under at s_j^- and s_(j+1)^+; the strand leaving along
    lane j is the other one, so it passes the opposite way.  Passes
    therefore alternate along lane j, closure arcs included, exactly when
    every crossing on it is entered the same way: each generator occurs
    with a single sign, and neighbouring generators carry opposite signs.
    """
    signs: dict[int, bool] = {}
    for letter, _ in word.runs:
        positive = letter > 0
        if signs.setdefault(abs(letter), positive) != positive:
            return False
    return all(signs.get(i + 1, not positive) != positive for i, positive in signs.items())


def is_reduced_closure(word: BraidWord) -> bool:
    """No crossing of the closure diagram is nugatory: no generator occurs exactly once.

    Lane j runs through the s_j and s_(j+1) crossings and wraps round,
    so it is one cycle of the closure's shadow, and lanes i-1 and i meet
    only at s_i crossings.  A crossing is nugatory exactly when it is
    alone on a lane (a kink) or is a cut vertex of the shadow: removing
    it splits its four edge ends 2 + 2, planarity makes the two ends on
    each side adjacent, so one of its smoothings disconnects the shadow.

    - A lone s_i crossing is either alone on a lane (s_(i-1) or s_(i+1)
      does not occur) or a cut vertex between the lanes to its left and
      the lanes to its right.
    - When every generator in the word occurs at least twice, removing
      one crossing leaves each lane's crossings as a path.  Every pair
      of neighbouring lanes still shares a crossing, so nothing is cut.
    - The empty word is reduced, and crossing-free lanes add no vertex.
    """
    return 1 not in Counter(map(abs, word.letters)).values()
