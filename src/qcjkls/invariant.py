"""State-sum invariants of braid closures and the per-crossing free energy.

The state sum Z adds one group-algebra term per closure coloring: the
product over crossings of phi(under, over)^sign.  With the trivial
cocycle it degenerates to the coloring count times the identity.  The
free energy applies coordinate-wise extended log (log 0 := 0) to the
coefficient vector; dividing by the diagram's crossing number gives the
per-crossing free energy, which is the quantity whose limits along
braid families are studied in the limits module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .braid import BraidWord, DEFAULT_BUDGET, _scan, is_alternating_closure, is_reduced_closure
from .cocycle import Cocycle, CocycleError
from .group_algebra import GroupAlgebraElement, element_from_json
from .quandle import QuandleTable


class NotReducedAlternatingError(ValueError):
    """The closure diagram was not verified reduced and alternating."""


def cjkls_state_sum(
    word: BraidWord,
    quandle: QuandleTable,
    cocycle: Cocycle,
    budget: int = DEFAULT_BUDGET,
) -> GroupAlgebraElement:
    """Exact state sum of the braid closure over all colorings.

    Enumerates quandle_size ** strands candidate top tuples (subject to
    ``budget``) and accumulates the crossing-weight product of each
    closure coloring.  The coefficient sum of the result equals the
    number of colorings, so it is at least quandle_size (constant
    colorings always close up with identity weight).
    """
    if cocycle.quandle.op != quandle.op:
        raise CocycleError("cocycle is defined over a different quandle")
    return GroupAlgebraElement(cocycle.group, tuple(_scan(word, quandle, cocycle, budget)))


def free_energy(z: GroupAlgebraElement) -> tuple[float, ...]:
    """Coordinate-wise extended log of the coefficient vector (log 0 := 0).

    Logs are taken on the exact integers, so coefficients far beyond
    float range are fine.
    """
    return tuple(math.log(c) if c > 0 else 0.0 for c in z.coeffs)


def free_energy_per_crossing(z: GroupAlgebraElement, crossing_number: int) -> tuple[float, ...]:
    """free_energy(z) divided by the crossing number of the underlying diagram."""
    if crossing_number < 1:
        raise ValueError(f"crossing number must be >= 1, got {crossing_number}")
    return tuple(x / crossing_number for x in free_energy(z))


def crossing_number_reduced_alternating(word: BraidWord) -> int:
    """Crossing count, valid as the crossing number of the closure.

    For a reduced alternating diagram the crossing count is minimal
    over all diagrams of the knot, so it can be reported as the
    crossing number.  Raises NotReducedAlternatingError otherwise: a
    non-minimal diagram would silently skew every per-crossing
    quantity.
    """
    if not is_alternating_closure(word):
        raise NotReducedAlternatingError("closure diagram is not alternating")
    if not is_reduced_closure(word):
        raise NotReducedAlternatingError("closure diagram is alternating but not reduced")
    return len(word.letters)


def _derived_crossing_number(word: BraidWord) -> int | None:
    try:
        return crossing_number_reduced_alternating(word)
    except NotReducedAlternatingError:
        return None


@dataclass(frozen=True)
class InvariantRecord:
    """One computed invariant: braid, data hashes, Z, and derived values."""

    braid: str
    quandle_id: str
    cocycle_id: str
    z: GroupAlgebraElement
    coloring_count: int
    crossing_number: int | None
    f: tuple[float, ...] | None

    def __post_init__(self):
        if self.f is not None and self.crossing_number is None:
            raise ValueError("per-crossing free energy without a crossing number")
        if self.coloring_count != self.z.coefficient_sum():
            raise ValueError("coloring count does not match the state-sum coefficients")

    def to_json(self) -> dict:
        return {
            "braid": self.braid,
            "quandle_id": self.quandle_id,
            "cocycle_id": self.cocycle_id,
            "Z": self.z.to_json(),
            "coloring_count": self.coloring_count,
            "crossing_number": self.crossing_number,
            "f": list(self.f) if self.f is not None else None,
        }


def record_from_json(data: dict) -> InvariantRecord:
    f = data.get("f")
    return InvariantRecord(
        braid=data["braid"],
        quandle_id=data["quandle_id"],
        cocycle_id=data["cocycle_id"],
        z=element_from_json(data["Z"]),
        coloring_count=int(data["coloring_count"]),
        crossing_number=(None if data.get("crossing_number") is None else int(data["crossing_number"])),
        f=None if f is None else tuple(float(x) for x in f),
    )


class InvariantCache:
    """Append-only JSON-lines store of invariant records.

    Records are keyed by (braid, quandle id, cocycle id), the inputs of
    the state sum, and carry the crossing number derived from the
    diagram.  Lines that are not a valid record, such as one cut off by
    an interrupted write, are skipped and counted in ``skipped``; so are
    lines with an "assumed_crossing_number" field, which older versions
    wrote for a record whose crossing number was assumed, not derived.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.skipped = 0
        self._records: dict[tuple[str, str, str], InvariantRecord] = {}
        self._torn_tail = False
        if self.path.exists():
            # undecodable bytes become U+FFFD, so reading a line never raises
            with open(self.path, "r", encoding="utf-8", errors="replace") as fh:
                raw = ""
                for raw in fh:
                    line = raw.strip()
                    if not line:
                        continue
                    try:
                        data = json.loads(line)
                        if "assumed_crossing_number" in data:
                            raise ValueError("record under an assumed crossing number")
                        rec = record_from_json(data)
                    except (ValueError, KeyError, TypeError, AttributeError):
                        self.skipped += 1
                        continue
                    self._records[rec.braid, rec.quandle_id, rec.cocycle_id] = rec
                self._torn_tail = bool(raw) and not raw.endswith("\n")

    def __len__(self) -> int:
        return len(self._records)

    def lookup(self, braid: str, quandle_id: str, cocycle_id: str) -> InvariantRecord | None:
        return self._records.get((braid, quandle_id, cocycle_id))

    def store(self, record: InvariantRecord) -> None:
        key = (record.braid, record.quandle_id, record.cocycle_id)
        if key in self._records:
            return
        self._records[key] = record
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            # a line cut off without its newline must not swallow the next record
            fh.write(("\n" if self._torn_tail else "") + json.dumps(record.to_json(), sort_keys=True) + "\n")
        self._torn_tail = False


def compute_invariant(
    word: BraidWord,
    quandle: QuandleTable,
    cocycle: Cocycle,
    *,
    budget: int = DEFAULT_BUDGET,
    assume_crossing_number: int | None = None,
    cache: InvariantCache | None = None,
) -> InvariantRecord:
    """Full record for one braid: Z, coloring count, crossing number, f.

    The crossing number is derived from the diagram when its closure is
    verified reduced and alternating, otherwise left unset (and f with
    it).  The cache holds that record, which depends on the inputs
    alone; a cache hit skips all computation.  An
    ``assume_crossing_number`` (at least 1) then replaces the crossing
    number of the returned record, and f with it.
    """
    if assume_crossing_number is not None and assume_crossing_number < 1:
        raise ValueError(f"assumed crossing number must be >= 1, got {assume_crossing_number}")
    braid = word.canonical()
    quandle_id = quandle.content_hash()
    cocycle_id = cocycle.content_hash()
    record = cache.lookup(braid, quandle_id, cocycle_id) if cache is not None else None
    if record is None:
        z = cjkls_state_sum(word, quandle, cocycle, budget=budget)
        crossing_number = _derived_crossing_number(word)
        record = InvariantRecord(
            braid=braid,
            quandle_id=quandle_id,
            cocycle_id=cocycle_id,
            z=z,
            coloring_count=z.coefficient_sum(),
            crossing_number=crossing_number,
            f=free_energy_per_crossing(z, crossing_number) if crossing_number else None,
        )
        if cache is not None:
            cache.store(record)
    if assume_crossing_number is None or assume_crossing_number == record.crossing_number:
        return record
    return replace(
        record,
        crossing_number=assume_crossing_number,
        f=free_energy_per_crossing(record.z, assume_crossing_number),
    )
