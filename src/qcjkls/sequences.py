"""Infinite braid families with closed-form invariants.

Five families of braid words over the default 4-element quandle and its
standard Z_2-valued cocycle.  Each is built from sigma^(+-3k) twist
blocks arranged so that the closures stay reduced and alternating and
the state sum has a closed form, which makes them exact test beds for
the limit analysis:

  Kn       palindromic tower in B_{n+1}: descending blocks n..2 with
           alternating signs, a central s1^3, then the mirror ascent.
  KPrime   variant of Kn whose state sum picks up binomial-sum
           coefficients: an ascent over the odd indices 3..n sits
           between the descent and the ascent.
  K0       pyramid in B_{2n} whose per-crossing free energy collapses
           to the origin.
  Km       Kn with every block exponent scaled by (2m+1).
  KPrimeM  KPrime with every block exponent scaled by (2m+1).

Exponent scaling by an odd factor never changes the state sum (a
sigma^3 block and a sigma^(3(2m+1)) block transfer colors identically
and contribute identical weights), so Km and KPrimeM share Z with Kn
and KPrime while their crossing numbers grow, which drives the
per-crossing free energy toward zero at controlled rates.

A word is stored as a few runs of block indices (ranges of step -1, 1
or 2), one twist block per index; adjacent blocks never share a
generator.  Block i is positive exactly when i % 2 equals the word's
parity: 1 for Kn, Km, KPrime and KPrimeM, n % 2 for K0.  family_texts
cuts each run's text as one slice out of a ladder string of block
texts and yields one member's text at a time; family_braid builds the
word whose runs are its blocks, and no letter is expanded until one is
asked for.

family_rows yields a range's closed forms (strands, crossings, Z and f)
as plain rows; family_crossing_number, family_closed_Z and
family_closed_f are its one-member views.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, repeat
from typing import NamedTuple

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

    @property
    def scale(self) -> int:
        """The twist factor 2m + 1 of Km and KPrimeM, 1 for the other families: each block is s_i^(3 * scale)."""
        return 2 * self.m + 1 if self.kind in ("Km", "KPrimeM") else 1


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


def _runs(family: FamilyId, n: int) -> tuple[int, list[range]]:
    """The n-th word (n >= 1) as runs of block indices, and its sign parity.

    Block i is sigma_i^k when i % 2 equals the parity and sigma_i^-k
    otherwise.  A run may be empty.
    """
    if n < 1:
        raise ValueError(f"family index must be >= 1, got {n}")
    if family.kind in ("Kn", "Km"):  # descend n..1, then ascend 2..n
        return 1, [range(n, 0, -1), range(2, n + 1)]
    if family.kind in ("KPrime", "KPrimeM"):  # the same around an odd ascent 3, 5, ..
        return 1, [range(n, 0, -1), range(3, n + 1, 2), range(2, n + 1)]
    # K0 in B_{2n}: rows 1..n..1; row r uses indices r, r+2, ..., 2n-r
    rows = chain(range(1, n + 1), range(n - 1, 0, -1))
    return n % 2, [range(r, 2 * n - r + 1, 2) for r in rows]


def _blocks(family: FamilyId, n: int) -> list[int]:
    """One signed generator per twist block of the n-th word (n >= 1)."""
    parity, runs = _runs(family, n)
    return [i if i % 2 == parity else -i for run in runs for i in run]


def _strands(family: FamilyId, n: int) -> int:
    return 2 * n if family.kind == "K0" else n + 1


def family_braid(family: FamilyId, n: int) -> BraidWord:
    """The n-th braid word of the family (n >= 1): each block repeated k times.

    Adjacent blocks never share a generator, so the blocks are the
    word's maximal runs, and the word is built from them.
    """
    blocks, k = _blocks(family, n), 3 * family.scale
    return BraidWord._from_runs(_strands(family, n), tuple(zip(blocks, repeat(k))))


def _ladder(texts: list[str], order: range) -> tuple[str, list[int], list[int]]:
    """texts[i] for i in order joined by spaces, with where each index's text starts and ends."""
    start, end = [0] * len(texts), [0] * len(texts)
    at = 0
    for i in order:
        start[i] = at
        at += len(texts[i])
        end[i] = at
        at += 1
    return " ".join([texts[i] for i in order]), start, end


def family_texts(family: FamilyId, lo: int, hi: int) -> Iterator[str]:
    """family_braid(family, n).canonical() for n = lo..hi, as slices of shared ladders.

    Each index's block text is formatted once per sign parity, up to the
    top index of member hi.  A ladder joins them along a run's direction:
    descending by 1, ascending by 1, or ascending by 2 from an odd or an
    even index.  Every run of every member is then one slice of a ladder.
    The range is checked at the call; the texts are then yielded one
    member at a time, so a caller that writes each as it comes holds one
    member's text, not the range's.
    """
    if lo < 1 or hi < lo:
        raise ValueError(f"bad family range {lo}..{hi}")
    return _texts(family, lo, hi)


def _texts(family: FamilyId, lo: int, hi: int) -> Iterator[str]:
    k, top = 3 * family.scale, _strands(family, hi) - 1
    texts: dict[int, list[str]] = {}  # parity -> text of block i at index i
    ladders: dict[tuple[int, int, int], tuple[str, list[int], list[int]]] = {}
    for n in range(lo, hi + 1):
        parity, runs = _runs(family, n)
        pieces = []
        for run in runs:
            if not run:
                continue
            first = top if run.step < 0 else (run.start - 1) % run.step + 1
            key = (parity, first, run.step)
            if key not in ladders:
                if parity not in texts:
                    texts[parity] = [""] + [f"s{i}^{k if i % 2 == parity else -k}" for i in range(1, top + 1)]
                ladders[key] = _ladder(texts[parity], range(first, 0 if run.step < 0 else top + 1, run.step))
            text, start, end = ladders[key]
            pieces.append(text[start[run[0]] : end[run[-1]]])
        yield f"B{_strands(family, n)}: " + " ".join(pieces)


def binomial_sums(m: int) -> tuple[int, int]:
    """(sum over even k, sum over odd k) of C(m, k) * 3^k: (4^m +- (-2)^m) / 2."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return (4**m + (-2) ** m) // 2, (4**m - (-2) ** m) // 2


class FamilyRow(NamedTuple):
    """One member's closed forms: Z's coefficients at 1 and t, and their logs over the crossings."""

    n: int
    strands: int
    crossings: int
    z: tuple[int, int]
    f: tuple[float, float]


def family_rows(family: FamilyId, lo: int, hi: int) -> Iterator[FamilyRow]:
    """The closed forms of members n = lo..hi (none when hi < lo), in order.

    Kn, Km and K0 have Z = 4^p (1 + 3t) with p = n (Kn, Km) or 2n - 1
    (K0).  KPrime and KPrimeM have Z = 4^(n // 2 + 1) times the
    binomial sums of m = ceil(n / 2), which odd n and n + 1 share.  A
    generator, so a caller that keeps only f holds one member's Z at a time.
    """
    if lo < 1:
        raise ValueError(f"family index must be >= 1, got {lo}")
    scale = family.scale
    if family.kind in ("KPrime", "KPrimeM"):
        m = 0
        for n in range(lo, hi + 1):
            if m != (n + 1) // 2:
                m = (n + 1) // 2
                big, small = 1 << 2 * m - 1, 1 << m - 1  # 4^m / 2 and 2^m / 2
                even, odd = (big + small, big - small) if m % 2 == 0 else (big - small, big + small)
                log_even, log_odd = math.log(even), math.log(odd)
            power = n // 2 + 1
            c = scale * ((15 * n - 9) // 2 if n % 2 == 1 else (15 * n - 12) // 2)
            ln = 2 * power * _LN2
            z = (even << 2 * power, odd << 2 * power)
            yield FamilyRow(n, n + 1, c, z, ((ln + log_even) / c, (ln + log_odd) / c))
        return
    k0 = family.kind == "K0"
    for n in range(lo, hi + 1):
        power, strands, c = (2 * n - 1, 2 * n, 3 * n * n + 3 * n - 3) if k0 else (n, n + 1, 3 * scale * (2 * n - 1))
        ln = 2 * power * _LN2
        one = 1 << 2 * power
        yield FamilyRow(n, strands, c, (one, 3 * one), (ln / c, (ln + _LN3) / c))


def _row(family: FamilyId, n: int) -> FamilyRow:
    return next(family_rows(family, n, n))


def family_crossing_number(family: FamilyId, n: int) -> int:
    """Closed-form crossing number of the n-th closure (letters count)."""
    return _row(family, n).crossings


def family_closed_Z(family: FamilyId, n: int) -> GroupAlgebraElement:
    """Closed-form state sum over Z_2 coefficients (exact)."""
    return GroupAlgebraElement(_Z2, _row(family, n).z)


def family_closed_f(family: FamilyId, n: int) -> tuple[float, float]:
    """Closed-form per-crossing free energy, written out analytically.

    Expressed through log 2, log 3, and logs of the binomial sums
    rather than by delegating to the generic state-sum path, so tests
    can compare the two routes.
    """
    return _row(family, n).f
