"""Random words and small quandle tables shared by the scan tests."""

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
