"""Random words, small quandle tables and the slow reference checks shared
by the tests."""

from qcjkls.braid import BraidWord
from qcjkls.quandle import make_quandle


def random_word(rng, strands, runs, longest=3):
    """A word of ``runs`` runs sigma_i^{+-k}, 1 <= k <= ``longest``."""
    letters = []
    for _ in range(runs):
        letters += [rng.choice((1, -1)) * rng.randint(1, strands - 1)] * rng.randint(1, longest)
    return BraidWord(strands, tuple(letters))


def dihedral(n):
    """The dihedral quandle on Z_n: a * b = 2b - a."""
    return make_quandle(tuple(tuple((2 * b - a) % n for b in range(n)) for a in range(n)))


def column_permutations(rng, n):
    """A right-invertible table that is no quandle: each column a random permutation."""
    columns = [rng.sample(range(n), n) for _ in range(n)]
    return make_quandle(tuple(tuple(columns[b][a] for b in range(n)) for a in range(n)))


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
