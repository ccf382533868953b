"""Infinite braid families with closed-form invariants.

Five families of braid words over the default 4-element quandle and its
standard Z_2-valued cocycle.  Each is built from sigma^(+-3k) twist
blocks arranged so that the closures stay reduced and alternating and
the state sum has a closed form, which makes them exact test beds for
the limit analysis:

  Kn       palindromic tower in B_{n+1}: descending blocks n..2 with
           alternating signs, a central s1^3, then the mirror ascent.
  KPrime   variant of Kn whose state sum picks up binomial-sum
           coefficients; recursive over n with an explicit odd-n word.
  K0       pyramid in B_{2n} whose per-crossing free energy collapses
           to the origin.
  Km       Kn with every block exponent scaled by (2m+1).
  KPrimeM  KPrime with every block exponent scaled by (2m+1).

Exponent scaling by an odd factor never changes the state sum (a
sigma^3 block and a sigma^(3(2m+1)) block transfer colors identically
and contribute identical weights), so Km and KPrimeM share Z with Kn
and KPrime while their crossing numbers grow, which drives the
per-crossing free energy toward zero at controlled rates.

A word is stored as its twist blocks, one signed generator each, all
with the family's exponent; adjacent blocks never share a generator.
FamilyPoint reads the strand count and canonical text off the blocks;
only family_braid expands them into letters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat

from .braid import BraidWord
from .group_algebra import GroupAlgebraElement, build_cyclic_group

FAMILY_KINDS = ("Kn", "KPrime", "K0", "Km", "KPrimeM")

_Z2 = build_cyclic_group(2)
_LN2 = math.log(2.0)
_LN3 = math.log(3.0)


@dataclass(frozen=True)
class FamilyId:
    """One of the built-in families; Km and KPrimeM carry the twist parameter m."""

    kind: str
    m: int | None = None

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family {self.kind!r}; pick from {FAMILY_KINDS}")
        if self.kind in ("Km", "KPrimeM"):
            if self.m is None or self.m < 1:
                raise ValueError(f"family {self.kind} needs an integer parameter m >= 1")
        elif self.m is not None:
            raise ValueError(f"family {self.kind} takes no parameter m")

    def __str__(self) -> str:
        return self.kind if self.m is None else f"{self.kind}({self.m})"


def parse_family_id(text: str) -> FamilyId:
    """Parse "Kn", "Km:2", or "Km(2)" into a FamilyId."""
    text = text.strip()
    for sep in (":", "("):
        if sep in text:
            kind, _, rest = text.partition(sep)
            rest = rest.rstrip(")")
            try:
                m = int(rest)
            except ValueError:
                raise ValueError(f"bad family parameter in {text!r}") from None
            return FamilyId(kind.strip(), m)
    return FamilyId(text)


def _descent(n: int) -> list[int]:
    """Blocks n..2 in descending order: odd indices positive, even negative."""
    return [i if i % 2 else -i for i in range(n, 1, -1)]


def _kprime_blocks(n: int) -> list[int]:
    if n == 1:
        return [1]
    if n % 2 == 0:
        return [-n] + _kprime_blocks(n - 1) + [-n]
    # odd n = 2i+1 >= 3: descend n..2 alternating, s1, ascend the odd
    # indices 3..n, then ascend 2..n alternating.
    down = _descent(n)
    return down + [1] + list(range(3, n + 1, 2)) + down[::-1]


def _blocks(family: FamilyId, n: int) -> list[int]:
    """One signed generator per twist block of the n-th word (n >= 1)."""
    if n < 1:
        raise ValueError(f"family index must be >= 1, got {n}")
    if family.kind in ("Kn", "Km"):  # descend n..2, s1, then ascend 2..n
        down = _descent(n)
        return down + [1] + down[::-1]
    if family.kind in ("KPrime", "KPrimeM"):
        return _kprime_blocks(n)
    # K0 in B_{2n}: rows 1..n..1; row r uses indices r, r+2, ..., 2n-r
    rows = list(range(1, n + 1)) + list(range(n - 1, 0, -1))
    return [i if i % 2 == n % 2 else -i for r in rows for i in range(r, 2 * n - r + 1, 2)]


def _strands(family: FamilyId, n: int) -> int:
    return 2 * n if family.kind == "K0" else n + 1


def _twist_exponent(family: FamilyId) -> int:
    return 3 * (2 * family.m + 1) if family.kind in ("Km", "KPrimeM") else 3


def family_braid(family: FamilyId, n: int) -> BraidWord:
    """The n-th braid word of the family (n >= 1): each block repeated k times."""
    blocks, k = _blocks(family, n), _twist_exponent(family)
    return BraidWord(_strands(family, n), tuple(chain.from_iterable(repeat(b, k) for b in blocks)))


def family_crossing_number(family: FamilyId, n: int) -> int:
    """Closed-form crossing number of the n-th closure (letters count)."""
    if n < 1:
        raise ValueError(f"family index must be >= 1, got {n}")
    scale = 2 * family.m + 1 if family.kind in ("Km", "KPrimeM") else 1
    if family.kind in ("Kn", "Km"):
        return 3 * scale * (2 * n - 1)
    if family.kind in ("KPrime", "KPrimeM"):
        base = (15 * n - 9) // 2 if n % 2 == 1 else (15 * n - 12) // 2
        return base * scale
    return 3 * n * n + 3 * n - 3


def binomial_sums(m: int) -> tuple[int, int]:
    """(sum over even k, sum over odd k) of C(m, k) * 3^k: (4^m +- (-2)^m) / 2."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return (4**m + (-2) ** m) // 2, (4**m - (-2) ** m) // 2


def _closed_coeffs(family: FamilyId, n: int) -> tuple[int, int]:
    if family.kind in ("Kn", "Km"):
        return 4**n, 3 * 4**n
    if family.kind in ("KPrime", "KPrimeM"):
        power = n // 2 + 1
        even, odd = binomial_sums((n + 1) // 2)
        return 4**power * even, 4**power * odd
    return 4 ** (2 * n - 1), 3 * 4 ** (2 * n - 1)


def family_closed_Z(family: FamilyId, n: int) -> GroupAlgebraElement:
    """Closed-form state sum over Z_2 coefficients (exact)."""
    if n < 1:
        raise ValueError(f"family index must be >= 1, got {n}")
    return GroupAlgebraElement(_Z2, _closed_coeffs(family, n))


def family_closed_f(family: FamilyId, n: int) -> tuple[float, float]:
    """Closed-form per-crossing free energy, written out analytically.

    Expressed through log 2, log 3, and logs of the binomial sums
    rather than by delegating to the generic state-sum path, so tests
    can compare the two routes.
    """
    c = family_crossing_number(family, n)  # raises for n < 1
    if family.kind in ("Kn", "Km", "K0"):
        power = n if family.kind in ("Kn", "Km") else 2 * n - 1
        return (2 * power * _LN2 / c, (2 * power * _LN2 + _LN3) / c)
    power = n // 2 + 1
    even, odd = binomial_sums((n + 1) // 2)
    return (
        (2 * power * _LN2 + math.log(even)) / c,
        (2 * power * _LN2 + math.log(odd)) / c,
    )


@dataclass(frozen=True)
class FamilyPoint:
    """One sampled family member with its closed-form data; letters only on demand."""

    family: FamilyId
    n: int
    strands: int
    closed_Z: GroupAlgebraElement
    closed_c: int
    closed_f: tuple[float, float]

    def canonical(self) -> str:
        """family_braid(...).canonical(), written from the blocks: adjacent blocks never merge.

        Every block has the same exponent k >= 3, so each signed generator
        is formatted once.
        """
        k, blocks = _twist_exponent(self.family), _blocks(self.family, self.n)
        texts = {b: f"s{b}^{k}" if b > 0 else f"s{-b}^{-k}" for b in set(blocks)}
        return f"B{self.strands}: " + " ".join(map(texts.__getitem__, blocks))

    @cached_property
    def braid(self) -> BraidWord:
        return family_braid(self.family, self.n)


def family_point(family: FamilyId, n: int) -> FamilyPoint:
    return FamilyPoint(
        family=family,
        n=n,
        strands=_strands(family, n),
        closed_Z=family_closed_Z(family, n),
        closed_c=family_crossing_number(family, n),
        closed_f=family_closed_f(family, n),
    )
