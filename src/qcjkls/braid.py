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
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import chain, compress, groupby, product, repeat, starmap
from math import gcd, prod
from operator import eq, itemgetter, mul, not_
from typing import NamedTuple

from .cocycle import Cocycle, verify_cocycle
from .quandle import AlexanderQuandleSpec, QuandleTable, build_alexander_quandle, quote_prefix, verify_quandle_axioms

# Cap on the number of candidate top tuples (quandle_size ** strands) a
# brute-force enumeration will walk, and on the number of colorings the
# linear fast path will materialize.
DEFAULT_BUDGET = 4**12
# Cap on the letters parse_braid expands a braid text into, so that a
# huge exponent is refused instead of materialized.
MAX_LETTERS = 10**6
# Longest numeral (leading zeros dropped) parse_braid converts with int().
_MAX_DIGITS = len(str(MAX_LETTERS))
# Cap on the unknowns (strands * ring degree) of the affine coloring system:
# its packed lanes and rows hold about MAX_AFFINE_VARS ** 2 bytes each.
MAX_AFFINE_VARS = 2048
# Cap on the unknowns of an affine system that is diagonalized over Z_m, cubic in pure
# Python (a composite modulus, or a ring of more than PACKED_MAX elements): a dense
# 512-unknown system over Z_16 took 3.3 s on a 2-vCPU machine.
MAX_DIAGONAL_VARS = 512


class BraidSyntaxError(ValueError):
    """Unparseable braid text; carries the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured budget."""


@dataclass(frozen=True, init=False)
class BraidWord:
    """Braid group element as its maximal runs of equal signed generator letters.

    ``runs`` lists (letter, count) pairs in word order, adjacent runs
    differing in letter; maximal runs are canonical, so two words are
    equal exactly when their strands and runs are.  ``letters`` is the
    expanded word, built only on request: every scan, the affine solver,
    both closure checks and ``canonical`` read the runs alone.
    """

    strands: int
    runs: tuple[tuple[int, int], ...]

    def __init__(self, strands: int, letters):
        if strands < 2:
            raise ValueError(f"a braid needs at least 2 strands, got {strands}")
        letters = tuple(map(int, letters))
        bad = {l for l in set(letters) if l == 0 or abs(l) >= strands}
        if bad:
            first = next(l for l in letters if l in bad)
            raise ValueError(f"letter {first} is not a generator of the {strands}-strand braid group")
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "runs", _maximal_runs(list(zip(letters, repeat(1)))))

    @classmethod
    def _from_runs(cls, strands: int, runs: tuple[tuple[int, int], ...]) -> BraidWord:
        """The word of maximal runs (letter, count); its letters are built only on request.

        Nothing is checked: the caller vouches that strands >= 2, that
        every letter is a generator on that many strands, that every
        count is at least 1 and that adjacent runs differ in letter.
        """
        word = object.__new__(cls)
        object.__setattr__(word, "strands", strands)
        object.__setattr__(word, "runs", runs)
        return word

    @cached_property
    def letters(self) -> tuple[int, ...]:
        """The signed generator letters, each run expanded; built once, on first access."""
        return tuple(chain.from_iterable(starmap(repeat, self.runs)))

    @property
    def crossings(self) -> int:
        """The number of letters, i.e. crossings of the closure diagram: the sum of the run lengths."""
        return sum(map(itemgetter(1), self.runs))

    def canonical(self) -> str:
        """Serialize as "B<s>: s<i>^<e> ...", one token per maximal run; exponent 1 is left out.

        The text is built once per word.  parse_braid hands over the text
        of a word whose tokens already spell its runs this way, joined
        from those tokens.
        """
        return self._canonical

    @cached_property
    def _canonical(self) -> str:
        text = {(l, c): f"s{l}" if l > 0 and c == 1 else f"s{abs(l)}^{c if l > 0 else -c}" for l, c in set(self.runs)}
        return f"B{self.strands}: {' '.join(map(text.__getitem__, self.runs))}".rstrip()

    def __str__(self) -> str:
        return self.canonical()


# Leading zeros are stripped after matching: 0*(\d+) backtracks quadratically on a long run of them.
_PREFIX = re.compile(r"\s*B(\d+):")
_ITEM = re.compile(r"s(\d+)(?:\^([+-]?)(\d+))?\Z")
# The tokens most texts hold: ASCII digits without leading zeros or "+", at most _MAX_DIGITS
# of them, so every match is a run _read_token reads the same; it reads all the others.
_PLAIN_ITEM = re.compile(rf"s([1-9][0-9]{{0,{_MAX_DIGITS - 1}}})(?:\^(-?)([1-9][0-9]{{0,{_MAX_DIGITS - 1}}}))?\Z")


def _read_token(token: str, declared: int | None, at: int) -> tuple[int, int]:
    """The (letter, count) run one token spells; raises BraidSyntaxError at position ``at``."""
    item = _ITEM.match(token)
    if not item:
        raise BraidSyntaxError(f"expected s<i> or s<i>^<e>, got {quote_prefix(token)}", at)
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


def _read_tokens(tokens, declared: int | None) -> tuple[dict[str, tuple[int, int]], bool]:
    """The (letter, count) run of each distinct token, and whether _PLAIN_ITEM read them all.

    A token _PLAIN_ITEM rejects, or whose generator the declared strand
    count lacks, goes to _read_token, which reads it or raises at position 0.
    """
    read = {}
    plain = True
    for token, item in zip(tokens, map(_PLAIN_ITEM.match, tokens)):
        if item is not None:
            index, minus, count = item.groups()
            index = int(index)
            if declared is None or index < declared:
                read[token] = (-index if minus else index), int(count) if count else 1
                continue
        read[token] = _read_token(token, declared, 0)
        plain = False
    return read, plain


def _maximal_runs(runs: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The (letter, count) runs with adjacent runs of one letter merged, as in "s1 s1^2"."""
    letters = list(map(itemgetter(0), runs))
    if not any(map(eq, letters, letters[1:])):
        return tuple(runs)
    merged: list[tuple[int, int]] = []
    last = 0
    for letter, k in runs:
        if letter == last:
            merged[-1] = (letter, merged[-1][1] + k)
        else:
            merged.append((letter, k))
            last = letter
    return tuple(merged)


def parse_braid(text: str) -> BraidWord:
    """Parse "s1^3", "s2^-3 s1^3 s2^-3", or "B4: s1 s3^-2" into a BraidWord.

    Without a "B<s>:" prefix the strand count is one more than the
    largest generator index.  Exponent 0, numerals with more digits than
    MAX_LETTERS and words of more than MAX_LETTERS letters are rejected;
    syntax errors report a character position.  The body is split once
    and each distinct token read once, as a (letter, count) run checked
    against the strand count; only a text that fails a check is walked
    token by token, to find the first problem's position.  Adjacent
    runs of one letter merge, and the word is its maximal runs: no
    letter is expanded.  When no tokens merge and each is spelled as
    canonical() spells its run, the canonical text is the tokens joined
    by single spaces after the "B<s>: " prefix, so a text already in
    canonical form comes back as it is, without a token being rebuilt.
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
        read, plain = _read_tokens(list(set(tokens)), declared)
    except BraidSyntaxError:
        read, plain = {}, False
    runs = list(map(read.get, tokens))
    if None not in runs and (declared or runs) and sum(map(itemgetter(1), runs)) <= MAX_LETTERS:
        strands = declared or max(abs(letter) for letter, _ in read.values()) + 1
        merged = _maximal_runs(runs)
        word = BraidWord._from_runs(strands, merged)
        if plain and len(merged) == len(tokens):
            # one token per run, each spelled as canonical() spells it unless it ends in "^1"
            canonical = f"B{strands}: {' '.join(tokens)}".rstrip()
            if "^1 " not in canonical and not canonical.endswith("^1"):
                word.__dict__["_canonical"] = canonical
        return word

    total = 0
    for token in re.compile(r"\S+").finditer(text, start):
        total += _read_token(token.group(0), declared, token.start())[1]
        if total > MAX_LETTERS:
            raise BraidSyntaxError(f"braid word would exceed {MAX_LETTERS} letters", token.start())
    raise BraidSyntaxError("empty braid word needs a strand prefix like 'B2:'", 0)


def _run_word(runs, quandle: QuandleTable, cocycle: Cocycle | None, v) -> int:
    """Push colors in v (mutated in place) through the (letter, count) runs; returns the weight index (0 without a cocycle)."""
    op, inv_op = quandle.op, quandle.inv_op
    weight = 0
    if cocycle is not None:
        phi, gmul, ginv, weight = cocycle.table, cocycle.group.mul, cocycle.group.inverse_table, cocycle.group.identity
    for letter, count in runs:
        a, b = abs(letter) - 1, abs(letter)
        for _ in range(count):
            x, y = v[a], v[b]
            if letter > 0:
                v[a] = y
                v[b] = op[x][y]
                if cocycle is not None:
                    weight = gmul[weight][phi[x][y]]
            else:
                z = inv_op[y][x]
                v[a] = z
                v[b] = x
                if cocycle is not None:
                    weight = gmul[weight][ginv[phi[z][x]]]
    return weight


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


# Entries of the column memo of the packed scans; an entry holds at most CHUNK_TUPLES bytes.
COLUMN_MEMO_SIZE = 256


@lru_cache(maxsize=COLUMN_MEMO_SIZE)
def _column(colors: bytes, block: int, times: int = 1) -> int:
    """Integer whose bytes are block copies of each of the colors in turn, the whole repeated ``times`` times."""
    return int.from_bytes(b"".join(bytes([c]) * block for c in colors) * times, "little")


class OrbitPlan(NamedTuple):
    """The packed scan's plan for the first lanes of a tuple (see _orbits).

    ``prefixes`` lists the colorings of those lanes in lexicographic
    order.  ``members`` maps each orbit's representative, the index of
    its least prefix, to the orbit as (prefix index, move) pairs, the
    representative first: ``move`` is a translate table taking the
    representative's prefix to that member's; representatives come in
    index order.  ``size`` counts each orbit, by increasing size, so the
    scan steps blocks of equal size next to each other.  ``spread`` maps
    each move but the identity to the representatives it takes to
    another member; equal moves are one object.
    """

    prefixes: list[tuple[int, ...]]
    members: dict[int, list[tuple[int, bytes]]]
    size: dict[int, int]
    spread: dict[bytes, list[int]]


class ScanTables:
    """The byte tables the scans read off one quandle and cocycle (or None).

    ``gmul`` maps byte (w << 4) | x to the group product w * x, and
    ``gmul_swapped`` maps (x << 4) | w to it.  ``letter`` maps each sign
    to the (pair table, weight table) of one letter of that sign (see
    _run), pushed through _run_word from each of the |X|^2 pairs.  The
    scans get their tables from _scan_tables, their runs of letters from
    _compiled_run and the packed scan's orbits from _orbits.
    """

    def __init__(self, quandle: QuandleTable, cocycle: Cocycle | None):
        self.quandle, self.cocycle = quandle, cocycle
        self.identity = cocycle.group.identity if cocycle is not None else 0
        self.gmul = _nibble_table(cocycle.group.mul if cocycle is not None else ())
        self.gmul_swapped = _SWAP_NIBBLES.translate(self.gmul)
        self.letter = {}
        for sign in (1, -1):
            pairs, weights = bytearray(range(256)), bytearray([self.identity]) * 256
            for x, y in product(range(quandle.size), repeat=2):
                v = [x, y]
                weights[x << 4 | y] = _run_word(((sign, 1),), quandle, cocycle, v)
                pairs[x << 4 | y] = v[0] << 4 | v[1]
            self.letter[sign] = bytes(pairs), bytes(weights)


# Entries of the orbit plan memo: a plan holds at most STATES_MAX prefixes.
ORBIT_MEMO_SIZE = 64


@lru_cache(maxsize=ORBIT_MEMO_SIZE)
def _orbits(tables: ScanTables, width: int) -> OrbitPlan:
    """The packed scan's plan for the first ``width`` lanes (see _scan): the orbits of their prefixes.

    The orbits are those of the group generated by the right
    translations R_a(x) = x*a that satisfy, at c = a and all x, y, the
    two laws verify_quandle_axioms and verify_cocycle check: R_a is an
    automorphism, (x*y)*a = (x*a)*(y*a), and, with a cocycle,
    phi(x*a, y*a) phi(x, a) = phi(x, y) phi(x*y, a).  R_a is a bijection
    in every QuandleTable.  A breadth-first search applies each R_a to a
    whole prefix with one translate; a plan's ``move`` composes such
    R_a, so it keeps both laws too.
    """
    quandle, cocycle = tables.quandle, tables.cocycle
    q, op = quandle.size, quandle.op
    failed = {elems[-1] for axiom, elems in verify_quandle_axioms(quandle).violations if axiom == "self_distributivity"}
    if cocycle is not None:
        failed.update(c for _, _, c in verify_cocycle(cocycle).condition_violations)
    moves = [bytes(op[x][a] for x in range(q)) + _IDENTITY[q:] for a in range(q) if a not in failed]
    prefixes = list(product(range(q), repeat=width))
    keys = list(map(bytes, prefixes))
    index = dict(zip(keys, range(len(keys))))
    moved: list = [None] * len(keys)  # the move reaching each prefix from its representative
    members = {}
    distinct: dict[bytes, bytes] = {}  # equal moves share one table
    for rep in range(len(keys)):
        if moved[rep] is None:
            moved[rep] = _IDENTITY
            orbit = members[rep] = [(rep, _IDENTITY)]
            for y, move_y in orbit:
                for move in moves:
                    z = index[keys[y].translate(move)]
                    if moved[z] is None:
                        composed = move_y.translate(move)
                        moved[z] = distinct.setdefault(composed, composed)
                        orbit.append((z, moved[z]))
    spread: dict[bytes, list[int]] = {}
    for rep, orbit in members.items():
        for _, move in orbit[1:]:
            spread.setdefault(move, []).append(rep)
    size = {rep: len(members[rep]) for rep in sorted(members, key=lambda rep: len(members[rep]))}
    return OrbitPlan(prefixes, members, size, spread)


# _scan_tables(quandle, cocycle): the ScanTables of the most recently scanned pairs.  The
# key is the pair's value, so a quandle and cocycle loaded from files share the tables of
# an equal built-in pair; only pairs of at most PACKED_MAX elements reach it.
_scan_tables = lru_cache(ScanTables)


# Entries of each run memo.  An entry holds at most two 256-byte tables, so the two
# full memos (_compiled_run, _state_table) stay under about 1 MB.
RUN_MEMO_SIZE = 1024


def _run(tables: ScanTables, sign: int, k: int) -> tuple[bytes, bytes]:
    """The (pair table, weight table) of k >= 1 letters of one sign on one lane pair.

    They map a pair byte (x << 4) | y to the pair the run leaves and to
    the run's weight; bytes that are no pair of colors map to themselves
    with the identity weight.  A single letter's tables are
    tables.letter[sign], and the run of k composes the run of k // 2
    with itself (and one letter more for odd k), so it costs O(log k)
    compositions.  Nothing is memoized here: _compiled_run keeps the
    runs the scans read.
    """
    if k == 1:
        return tables.letter[sign]
    pairs, weights = half = _run(tables, sign, k // 2)
    for then_pairs, then_weights in [half] + [tables.letter[sign]] * (k % 2):
        pairs, weights = pairs.translate(then_pairs), _pack(weights, pairs.translate(then_weights)).translate(tables.gmul)
    return pairs, weights


@lru_cache(maxsize=RUN_MEMO_SIZE)
def _compiled_run(tables: ScanTables, sign: int, k: int):
    """The packed-scan step (kind, table, weight table) of k >= 1 letters of one sign.

    None for a run that fixes every pair with the identity weight; see
    _compile_steps.  The memo keeps the most recently used runs, so many
    distinct exponents stay bounded.
    """
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
            return None
        pairs = None
    return (0 if k > 1 else sign, pairs, weights)


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
    Each run's step comes from the memo _compiled_run; its lane is
    attached here.  The steps are yielded as the runs are read.
    """
    for letter, k in runs:
        step = _compiled_run(tables, 1 if letter > 0 else -1, k)
        if step is not None:
            yield (abs(letter) - 1, *step)


@lru_cache(maxsize=RUN_MEMO_SIZE)
def _state_table(tables: ScanTables, strands: int, letter: int, k: int) -> bytes:
    """The 256-byte table of _scan_states that takes every colored state through letter^k.

    Every top tuple, once per group element w, is pushed through the
    run's step at once (_push): state w * q**s + i goes to
    (w * g) * q**s + j, where tuple i ends as tuple j with weight g.
    Like _compiled_run, the memo keeps the most recently used runs, so
    many distinct runs stay bounded.
    """
    q, s = tables.quandle.size, strands
    order = tables.cocycle.group.order if tables.cocycle is not None else 1
    n, size = q**s, order * q**s
    lanes = [_column(_IDENTITY[:q], q ** (s - 1 - p), q**p * order) for p in range(s)]
    weight = _push(_compile_steps(((letter, k),), tables), lanes, size, tables)
    products = (_column(_IDENTITY[:order], n) << 4 | weight).to_bytes(size, "little").translate(tables.gmul)
    # each byte stays in [0, size), so no product or sum carries between bytes
    state = int.from_bytes(products, "little") * n + sum(lane * q ** (s - 1 - p) for p, lane in enumerate(lanes))
    return state.to_bytes(size, "little") + _IDENTITY[size:]


def _scan_states(word: BraidWord, quandle: QuandleTable, cocycle: Cocycle | None):
    """The byte-state scan behind _scan; needs group order * q**s <= STATES_MAX.

    Byte w * q**s + i names the top tuple of lexicographic index i with
    weight w.  Each distinct run becomes one 256-byte table over these
    states, built by pushing all of them through the run's packed step,
    so the word is one bytes.translate per run of the identity-weight
    states.  Tuple i closes up with weight g where its final state is
    g * q**s + i.  The tables come from the memo _state_table, looked up
    once per distinct run of the word.
    """
    q, s = quandle.size, word.strands
    order, identity = (cocycle.group.order, cocycle.group.identity) if cocycle is not None else (1, 0)
    n = q**s
    tables = _scan_tables(quandle, cocycle)
    steps = {run: _state_table(tables, s, *run) for run in set(word.runs)}
    start = bytes(range(identity * n, identity * n + n))
    final = int.from_bytes(reduce(bytes.translate, map(steps.__getitem__, word.runs), start), "little")
    diffs = [(final ^ int.from_bytes(bytes(range(g * n, g * n + n)), "little")).to_bytes(n, "little") for g in range(order)]
    if cocycle is None:
        return list(compress(product(range(q), repeat=s), map(not_, diffs[0])))
    return [diff.count(0) for diff in diffs]


def _push(steps, lanes: list[int], n: int, tables: ScanTables) -> int:
    """Push n packed colorings, lanes (mutated in place), through the compiled steps.

    Lane j is an integer whose n little-endian bytes hold lane j's color
    in each coloring.  A step packs its two lanes into pair bytes with a
    shift and an OR, and one bytes.translate looks up the step's table.
    Returns the weight column, each coloring's group index, which starts
    at tables.identity (0 without a cocycle); weights are multiplied in
    by a translate over the weight column and the step's factors, packed
    into one byte each.
    """
    low = int.from_bytes(b"\x0f" * n, "little")
    high = low << 4
    weight = int.from_bytes(bytes([tables.identity]) * n, "little")
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
    return weight


def _prefix_width(q: int, s: int) -> int:
    """The lanes the packed scan reduces by orbits: the most, from 1 to s, whose q ** width prefixes fit STATES_MAX."""
    width = 1
    while width < s and q ** (width + 1) <= STATES_MAX:
        width += 1
    return width


def _chunks(steps, heads, q: int, trailing: int, tables: ScanTables):
    """Step, for each head, the block of tuples whose leading lanes spell it and whose trailing lanes run through all colors.

    A block holds m = q ** trailing tuples.  Consecutive blocks share a
    chunk of at most CHUNK_TUPLES tuples, block u of a chunk at bytes
    u * m to (u + 1) * m.  Each chunk is pushed through the steps
    (_push), and yields (index of its first head, fixed, weight):
    ``fixed`` has a zero byte exactly where the tuple closes up, i.e.
    every final lane equals its top lane, and the weight column holds
    each tuple's group index.  The chunk's top lanes come from the
    column memo.
    """
    m = q**trailing
    per = CHUNK_TUPLES // m
    for at in range(0, len(heads), per):
        group = heads[at : at + per]
        n = len(group) * m
        top = [_column(bytes(lane), m) for lane in zip(*group)]
        top += [_column(_IDENTITY[:q], q**p, n // q ** (p + 1)) for p in reversed(range(trailing))]
        lanes = top[:]
        weight = _push(steps, lanes, n, tables)
        diff = 0
        for lane, start in zip(lanes, top):
            diff |= lane ^ start
        yield at, diff.to_bytes(n, "little"), weight


def _scan_packed(word: BraidWord, quandle: QuandleTable, cocycle: Cocycle | None):
    """The packed-column scan behind _scan; needs quandle and group sizes <= 16.

    Lane j of a chunk is an integer whose little-endian bytes hold lane
    j's color for every candidate tuple of the chunk, so one step moves
    all of them (_chunks).  Fixed tuples are the zero bytes of the
    chunk's ``fixed``.

    The first _prefix_width lanes, the prefix, are scanned at one
    prefix per orbit of _orbits.  A block fixes the prefix and any
    middle lanes, and its trailing lanes run through all colors
    (_chunks): the middle lanes are those past the prefix that do not
    fit a chunk, so each prefix's blocks come in lexicographic order.
    A state sum steps the representatives' blocks, ordered by orbit
    size, and counts each block once per orbit member.  The colorings
    of another member x are its representative's, mapped by ``move``,
    unless they are so many that mapping them would cost more than
    scanning x's blocks (MAP_COST); then x's blocks are scanned too.
    The scanned blocks, in prefix order, are one sorted run, and one
    sort merges the mapped colorings into it.
    """
    q, s = quandle.size, word.strands
    tables = _scan_tables(quandle, cocycle)
    steps = list(_compile_steps(word.runs, tables))
    width = _prefix_width(q, s)
    orbits = _orbits(tables, width)
    trailing = 0
    while trailing < s - width and q ** (trailing + 1) <= CHUNK_TUPLES:
        trailing += 1
    middles = list(product(range(q), repeat=s - width - trailing))
    m = q**trailing
    if cocycle is not None:
        heads = [orbits.prefixes[rep] + middle for rep in orbits.size for middle in middles]
        sizes = [size for size in orbits.size.values() for _ in middles]
        coeffs = [0] * cocycle.group.order
        for at, fixed, weight in _chunks(steps, heads, q, trailing, tables):
            fixed = (int.from_bytes(fixed.translate(_UNFIXED), "little") | weight).to_bytes(len(fixed), "little")
            start = 0
            # one count per group element and run of blocks of equal orbit size
            for size, run in groupby(sizes[at : at + len(fixed) // m]):
                stop = start + len(list(run)) * m
                for g in range(len(coeffs)):
                    coeffs[g] += fixed.count(g, start, stop) * size
                start = stop
        return coeffs

    def colorings(prefixes):
        """The colorings of each prefix, as a list per prefix, in lexicographic order."""
        heads = [prefix + middle for prefix in prefixes for middle in middles]
        # tuple index i of a block spells the trailing colors high + low
        low_tails = list(product(range(q), repeat=trailing // 2))
        high_tails = list(product(range(q), repeat=trailing - trailing // 2))
        row_len, rows = len(low_tails), len(high_tails)
        found = [[] for _ in prefixes]
        for at, fixed, _ in _chunks(steps, heads, q, trailing, tables):
            # visit only the rows of len(low_tails) tuples that hold a coloring
            index = fixed.find(0)
            while index >= 0:
                row = index // row_len
                block, high = divmod(row, rows)
                head = heads[at + block] + high_tails[high]
                found[(at + block) // len(middles)] += map(
                    head.__add__, compress(low_tails, map(not_, fixed[row * row_len : row * row_len + row_len]))
                )
                index = fixed.find(0, row * row_len + row_len)
        return found

    found = dict(zip(orbits.size, colorings([orbits.prefixes[x] for x in orbits.size])))
    work = len(middles) * m * len(steps)  # tuple-steps of scanning one prefix
    mapped = {rep: bytes(chain.from_iterable(block)) for rep, block in found.items() if block and len(block) * MAP_COST < work}
    dense = [x for rep, block in found.items() if len(block) * MAP_COST >= work for x, _ in orbits.members[rep][1:]]
    found.update(zip(dense, colorings([orbits.prefixes[x] for x in dense])))
    result = [coloring for _, block in sorted(found.items()) for coloring in block]
    # one translate per move maps the colorings of every representative it moves
    moved = b"".join(
        b"".join(mapped[rep] for rep in reps if rep in mapped).translate(move) for move, reps in orbits.spread.items()
    )
    if moved:
        # the scanned blocks are one sorted run, so the sort merges the mapped colorings into it
        result += zip(*[iter(moved)] * s)
        result.sort()
    return result


def _scan_tuples(word: BraidWord, quandle: QuandleTable, cocycle: Cocycle | None):
    """Per-tuple reference scan through _run_word; same results as _scan_states and _scan_packed."""
    coeffs = [0] * (cocycle.group.order if cocycle is not None else 1)
    found = []
    for top in product(range(quandle.size), repeat=word.strands):
        v = list(top)
        weight = _run_word(word.runs, quandle, cocycle, v)
        if tuple(v) == top:
            found.append(top)
            coeffs[weight] += 1
    return found if cocycle is None else coeffs


def exceeds_budget(q: int, s: int, budget: int) -> bool:
    """Whether a scan of the q ** s top tuples of an s-strand word over a q-element quandle exceeds the budget."""
    # exact q ** s > budget: capping s at budget.bit_length() + 1 keeps the power small,
    # and any q >= 2 raised to that cap already exceeds the budget
    return q ** min(s, budget.bit_length() + 1) > budget


def _scan(word: BraidWord, quandle: QuandleTable, cocycle: Cocycle | None, budget: int):
    """One brute-force pass over all quandle_size ** strands top tuples.

    Raises BudgetExceededError, before any work, when that count exceeds
    the budget.  Without a cocycle, returns the closure colorings as top
    tuples in lexicographic order; with one, returns the coefficient
    list of the state sum over the cocycle's group.  A quandle and group
    of at most PACKED_MAX elements each take the byte-state path when
    their colored states fit STATES_MAX, else the packed-column path;
    larger ones take the per-tuple path.

    The packed scan steps the first _prefix_width lanes at one prefix
    per orbit of _orbits (see _scan_packed).  That is exact.
    For each generator R = R_a:
    - R acts on tuples lane by lane.  It is an automorphism, so it
      commutes with both crossings: (x, y) -> (y, x*y) becomes
      (Rx, Ry) -> (Ry, Rx*Ry), and likewise for the inverse operation.
      So a tuple closes up exactly when its image does.  R acts on
      every lane, so it maps the tuples with prefix p one to one onto
      those with prefix R(p), and the colorings among them likewise.
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
    with prefix p are those of p's orbit representative moved over,
    with the same weights, and their state sum is the same.
    """
    q, s = quandle.size, word.strands
    if exceeds_budget(q, s, budget):
        raise BudgetExceededError(f"{q}^{s} candidate tuples exceed the budget {budget}")
    order = cocycle.group.order if cocycle is not None else 1
    if q > PACKED_MAX or order > PACKED_MAX:
        return _scan_tuples(word, quandle, cocycle)
    # likewise 2 ** 9 > STATES_MAX, so s capped at 9 decides the state count exactly
    return (_scan_states if order * q ** min(s, 9) <= STATES_MAX else _scan_packed)(word, quandle, cocycle)


def enumerate_colorings(word: BraidWord, quandle: QuandleTable, budget: int = DEFAULT_BUDGET):
    """All closure colorings as top tuples, in lexicographic index order.

    The budget counts all quandle_size ** strands candidate tuples,
    though the packed scan steps one prefix of leading lanes per orbit
    (see _scan).
    """
    return _scan(word, quandle, None, budget)


def _diagonalize(a: list[list[int]], mod: int):
    """Diagonalization over Z_mod, A -> U A V = D; returns (diag, V).

    Row operations are not tracked (only the kernel is wanted); column
    operations are mirrored into V, which stays invertible over Z_mod.
    Entries are kept in [0, mod).  The pivot is the least nonzero entry
    (the first of equals) of the rows read in order, stopping at the
    first row after which it is a unit; each row's least entry is one
    min over the row.  A unit clears its row and column exactly, any
    other pivot leaves remainders smaller than itself, so the loop
    ends.  Only the pivot row's nonzero columns and the rows that meet
    the pivot column are touched.  Diagonal entries need not form a
    divisibility chain.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    v = [[0] * n for _ in range(n)]
    for i, row in enumerate(v):
        row[i] = 1
    t = 0
    while t < m and t < n:
        pivot = None
        best = None
        for i in range(t, m):
            row = a[i]
            e = min(filter(None, row[t:]), default=0)
            if e and (best is None or e < best):
                pivot, best = (i, row.index(e, t)), e
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
    """Solutions of A x == 0 over Z_mod: returns (solution count, V, step table).

    A's entries must lie in [0, mod); A is reduced in place.
    """
    diag, v = _diagonalize(a, mod)
    orders = [gcd(diag[j] if j < len(diag) else 0, mod) for j in range(len(v))]
    return prod(orders), v, [(g, mod // g) for g in orders]


@lru_cache
def _digit_tables(mod: int, deg: int) -> list[bytes]:
    """Translate tables, one per e < deg, mapping an element index to its coefficient of T^e."""
    return [bytes(i // mod**e % mod for i in range(256)) for e in range(deg)]


# The prime moduli of rings of at most PACKED_MAX elements.  A row operation
# of _kernel_prime keeps each byte at most (p - 1) + (p - 1) ** 2 <= 156.
_PACKED_PRIMES = (2, 3, 5, 7, 11, 13)


def _kernel_prime(matrix: bytes, n: int, p: int) -> list[int]:
    """A basis of the solutions of A x == 0 over the field Z_p, p in _PACKED_PRIMES.

    ``matrix`` holds A's m rows one after another, n bytes each, with
    entries in [0, p).  Each basis vector is an integer whose
    little-endian byte j is x_j.  Column j of A, read off the rows as one
    bytes slice, and the unit vector e_j are packed into one integer,
    A's m bytes low and e_j's n bytes above them.  These are reduced one
    by one on their low bytes against the pivots so far, each keyed by
    its lowest nonzero byte, which is 1: when the column's lowest
    nonzero byte f sits at a pivot's key, adding (p - f) times that
    pivot clears it, and one translate takes every byte back mod p.  A
    column whose low bytes reach zero is a combination of A's columns
    that sums to zero, so its high bytes are a kernel vector; those of
    all such columns are independent, and there are n - rank(A) of them.
    """
    m = len(matrix) // n
    width, low = m + n, (1 << 8 * m) - 1
    table = _digit_tables(p, 1)[0]
    pivots: dict[int, int] = {}
    basis = []
    for j in range(n):
        column = int.from_bytes(matrix[j::n], "little") | 1 << 8 * (m + j)
        while column & low:
            at = (column & -column).bit_length() - 1 >> 3
            f = column >> 8 * at & 255
            pivot = pivots.get(at)
            if pivot is None:
                pivots[at] = int.from_bytes((column * pow(f, -1, p)).to_bytes(width, "little").translate(table), "little")
                break
            column = int.from_bytes((column + (p - f) * pivot).to_bytes(width, "little").translate(table), "little")
        else:
            basis.append(column >> 8 * m)
    return basis


def enumerate_colorings_affine(word: BraidWord, spec: AlexanderQuandleSpec, budget: int = DEFAULT_BUDGET):
    """Closure colorings over an Alexander quandle via exact linear algebra.

    a*b = T a + (1-T) b is linear over the ring Z_m[T]/(p(T)), so pushing
    colors through the word multiplies them by its transfer matrix M,
    and the closure colorings form the kernel of (M - I).  Column (i, e)
    of M is the basis coloring T^e on lane i, zero elsewhere, pushed
    through the word; each lane's coefficients form a degree-sized block
    of the integer system, which is solved over Z_m, so no enumeration
    of candidate tuples happens.  Over a ring of at most PACKED_MAX
    elements all s * deg basis colorings are pushed at once, one byte
    each per packed lane, through the packed scan's steps of the word's
    runs (_compile_steps, _push), and row (i, e) of M is lane i's bytes
    translated to their T^e coefficients; a larger ring pushes each
    column through the runs with _run_word.

    The kernel is spanned by generators (vector, order): over such a
    ring with m prime, the field solver _kernel_prime's basis, each of
    order m; otherwise the free columns of V from _kernel_mod's
    diagonalization, each scaled by its step.  The colorings are the
    sums of all multiples of the generators, built one generator at a
    time.  Over a ring of at most PACKED_MAX elements the sums are packed
    bytes, reduced by one translate per sum (a byte stays below
    15 + 15 * 15), and lane i's element index, the sum over e of byte
    (i, e) * m^e, adds up from the deg slices without carries; a larger
    ring sums lists.  Output matches enumerate_colorings exactly,
    including order.

    Raises ValueError, before any lane is built, when s * deg exceeds
    MAX_AFFINE_VARS, or MAX_DIAGONAL_VARS for a system that _kernel_mod
    solves.  The budget bounds the number of colorings materialized,
    checked before any are produced.
    """
    mod, deg, s = spec.modulus, len(spec.poly) - 1, word.strands
    n_vars = s * deg
    if n_vars > MAX_AFFINE_VARS:
        raise ValueError(
            f"the affine system has {s} strands x degree {deg} = {n_vars} unknowns, above the cap of {MAX_AFFINE_VARS}"
        )
    if n_vars > MAX_DIAGONAL_VARS and (mod not in _PACKED_PRIMES or mod**deg > PACKED_MAX):
        raise ValueError(
            f"the affine system has {s} strands x degree {deg} = {n_vars} unknowns, above the cap of "
            f"{MAX_DIAGONAL_VARS} for a ring over Z_{mod} of {mod}^{deg} elements; a prime modulus with a ring "
            f"of at most {PACKED_MAX} elements solves up to {MAX_AFFINE_VARS}"
        )
    quandle = build_alexander_quandle(spec)
    places = [mod**e for e in range(deg)]  # an element's index reads its coefficients in base mod
    packed = quandle.size <= PACKED_MAX
    if packed:
        # byte (j, e) of lane i is lane i's color in the basis coloring T^e on lane j
        lanes = [int.from_bytes(bytes(places), "little") << 8 * i * deg for i in range(s)]
        tables = _scan_tables(quandle, None)
        _push(_compile_steps(word.runs, tables), lanes, n_vars, tables)
        digits = _digit_tables(mod, deg)
        rows = [bytearray(lane.to_bytes(n_vars, "little").translate(digit)) for lane in lanes for digit in digits]
    else:
        images = []
        for col in range(n_vars):
            lane, e = divmod(col, deg)
            v = [0] * s
            v[lane] = places[e]  # T^e
            _run_word(word.runs, quandle, None, v)
            images.append([color // place % mod for color in v for place in places])
        rows = [list(row) for row in zip(*images)]
    for i, row in enumerate(rows):
        row[i] = (row[i] - 1) % mod

    if packed and mod in _PACKED_PRIMES:
        generators = [(vector.to_bytes(n_vars, "little"), mod) for vector in _kernel_prime(b"".join(rows), n_vars, mod)]
    else:
        _, v, steps = _kernel_mod(list(map(list, rows)), mod)
        generators = [([row[j] * step % mod for row in v], g) for j, (g, step) in enumerate(steps) if g > 1]
    count = prod(g for _, g in generators)
    if count > budget:
        raise BudgetExceededError(f"{count} colorings exceed the budget {budget}")

    if packed:
        table = _digit_tables(mod, 1)[0]
        colorings = [bytes(n_vars)]
        for vector, g in generators:
            multiples = [k * int.from_bytes(bytes(vector), "little") for k in range(g)]
            sums = [int.from_bytes(x, "little") for x in colorings]
            colorings = [(x + k).to_bytes(n_vars, "little").translate(table) for x in sums for k in multiples]
        if deg > 1:
            colorings = [
                sum(int.from_bytes(x[e::deg], "little") * place for e, place in enumerate(places)).to_bytes(s, "little")
                for x in colorings
            ]
    else:
        # the same sums as lists: colors of a ring this large need not fit a byte
        colorings = [[0] * n_vars]
        for vector, g in generators:
            colorings = [[(xi + k * ci) % mod for xi, ci in zip(x, vector)] for x in colorings for k in range(g)]
        colorings = [list(map(sum, zip(*[iter(map(mul, x, places * s))] * deg))) for x in colorings]
    colorings.sort()
    return list(map(tuple, colorings))


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

    A generator's count is the sum of its run lengths, so the check
    costs the word's runs, not its letters.
    """
    counts: dict[int, int] = {}
    for letter, k in word.runs:
        counts[abs(letter)] = counts.get(abs(letter), 0) + k
    return 1 not in counts.values()
