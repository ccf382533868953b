"""Random words, small quandle tables, Markov moves, single-coloring
propagation, letter-by-letter family words and the slow reference checks
shared by the tests."""

from dataclasses import dataclass

from qcjkls.braid import BraidWord
from qcjkls.cocycle import Cocycle, CocycleError
from qcjkls.quandle import QuandleTable, make_quandle


def random_word(rng, strands, runs, longest=3):
    """A word of ``runs`` runs sigma_i^{+-k}, 1 <= k <= ``longest``."""
    letters = []
    for _ in range(runs):
        letters += [rng.choice((1, -1)) * rng.randint(1, strands - 1)] * rng.randint(1, longest)
    return BraidWord(strands, tuple(letters))


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


def dihedral(n):
    """The dihedral quandle on Z_n: a * b = 2b - a."""
    return make_quandle(tuple(tuple((2 * b - a) % n for b in range(n)) for a in range(n)))


def column_permutations(rng, n):
    """A right-invertible table that is no quandle: each column a random permutation."""
    columns = [rng.sample(range(n), n) for _ in range(n)]
    return make_quandle(tuple(tuple(columns[b][a] for b in range(n)) for a in range(n)))


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
