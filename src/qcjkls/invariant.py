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
from functools import cached_property
from pathlib import Path

from .braid import BraidWord, DEFAULT_BUDGET, _scan, is_alternating_closure, is_reduced_closure
from .cocycle import Cocycle, CocycleError
from .group_algebra import GroupAlgebraElement, element_from_json, group_from_labels
from .quandle import QuandleTable


def cjkls_state_sum(
    word: BraidWord,
    quandle: QuandleTable,
    cocycle: Cocycle,
    budget: int = DEFAULT_BUDGET,
) -> GroupAlgebraElement:
    """Exact state sum of the braid closure over all colorings.

    Accumulates the crossing-weight product of each closure coloring.
    The budget counts all quandle_size ** strands candidate top tuples,
    though the packed scan steps one prefix of leading lanes per orbit
    and counts it once per orbit member (see _scan).  The coefficient
    sum of the result equals the number of colorings, so it is at least
    quandle_size (constant colorings always close up with identity
    weight).
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


def _derived_crossing_number(word: BraidWord) -> int | None:
    """The crossing count when the closure diagram is reduced and alternating, else None.

    A reduced alternating diagram has the fewest crossings of any
    diagram of its knot, so its crossing count is the crossing number.
    Any other diagram may have more, which would skew every
    per-crossing quantity, so no number is derived for it.
    """
    return word.crossings if is_alternating_closure(word) and is_reduced_closure(word) else None


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
        if self.f is not None and not self.crossing_number:
            raise ValueError("per-crossing free energy without a crossing number")
        if self.coloring_count != self.z.coefficient_sum():
            raise ValueError("coloring count does not match the state-sum coefficients")
        if self.crossing_number and self.f != free_energy_per_crossing(self.z, self.crossing_number):
            raise ValueError("per-crossing free energy does not match Z and the crossing number")

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


def _record_from_line(text: str) -> InvariantRecord | None:
    """The record on one stripped cache line, or None if it holds no valid one."""
    try:
        data = json.loads(text)
        if "assumed_crossing_number" in data:
            raise ValueError("record under an assumed crossing number")
        return record_from_json(data)
    except (ValueError, KeyError, TypeError, AttributeError):
        return None


def _key(record: InvariantRecord) -> tuple[str, str, str]:
    return record.braid, record.quandle_id, record.cocycle_id


class InvariantCache:
    """Append-only JSON-lines store of invariant records.

    Records are keyed by (braid, quandle id, cocycle id), the inputs of
    the state sum, and carry the crossing number derived from the
    diagram.  Opening the cache reads the file and parses nothing.
    ``lookup`` parses only the lines that contain the braid's JSON
    text, newest first, and returns the newest valid record under the
    key, so a line appended later supersedes an earlier one.  Lines
    that hold no valid record (see InvariantRecord: ``f`` must match
    ``Z`` and the crossing number), such as one cut off by an
    interrupted write, are never returned and are counted in
    ``skipped``; so are lines with an "assumed_crossing_number" field,
    which older versions wrote for a record whose crossing number was
    assumed, not derived.  ``len`` and ``skipped`` parse the whole file
    once, when first asked.  compute_invariant also checks a hit
    against the word and the cocycle before using it.
    """

    def __init__(self, path):
        self.path = Path(path)
        try:
            self._data = self.path.read_bytes()
        except FileNotFoundError:
            self._data = b""
        self._torn_tail = bool(self._data) and not self._data.endswith(b"\n")
        self._written: dict[tuple[str, str, str], InvariantRecord] = {}

    @cached_property
    def _census(self) -> tuple[frozenset[tuple[str, str, str]], int]:
        """Keys of the valid lines read at open, and the number of invalid ones."""
        keys, skipped = set(), 0
        for line in self._data.split(b"\n"):
            # undecodable bytes become U+FFFD, so reading a line never raises
            text = line.decode("utf-8", "replace").strip()
            if not text:
                continue
            record = _record_from_line(text)
            if record is None:
                skipped += 1
            else:
                keys.add(_key(record))
        return frozenset(keys), skipped

    @property
    def skipped(self) -> int:
        return self._census[1]

    def __len__(self) -> int:
        return len(self._census[0] | self._written.keys())

    def lookup(self, braid: str, quandle_id: str, cocycle_id: str) -> InvariantRecord | None:
        key = (braid, quandle_id, cocycle_id)
        if key in self._written:
            return self._written[key]
        data, needle = self._data, json.dumps(braid).encode()
        end = len(data)
        while (hit := data.rfind(needle, 0, end)) >= 0:
            end = data.rfind(b"\n", 0, hit) + 1  # the hit's line starts here; older lines lie before
            stop = data.find(b"\n", hit)
            line = data[end:] if stop < 0 else data[end:stop]
            record = _record_from_line(line.decode("utf-8", "replace").strip())
            if record is not None and _key(record) == key:
                return record
        return None

    def store(self, record: InvariantRecord) -> None:
        """Append the record, unless this cache has already written its key."""
        key = _key(record)
        if key in self._written:
            return
        self._written[key] = record
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            # a line cut off without its newline must not swallow the next record
            fh.write(("\n" if self._torn_tail else "") + json.dumps(record.to_json(), sort_keys=True) + "\n")
        self._torn_tail = False


def _fits(record: InvariantRecord, word: BraidWord, cocycle: Cocycle) -> bool:
    """Whether a cached record can be the state sum of ``word`` under ``cocycle``."""
    return record.z.group.labels == cocycle.group.labels and record.crossing_number in (None, word.crossings)


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
    alone; a cache hit skips all computation.  A cached record is used
    only if its group labels are the cocycle's and its crossing number
    is unset or the word's crossing count; otherwise it is recomputed and
    the new record appended, which supersedes it.  An
    ``assume_crossing_number`` (at least 1) then replaces the crossing
    number of the returned record, and f with it.  A cocycle whose group
    is not the cyclic one on its labels bypasses the cache.
    """
    if assume_crossing_number is not None and assume_crossing_number < 1:
        raise ValueError(f"assumed crossing number must be >= 1, got {assume_crossing_number}")
    braid = word.canonical()
    quandle_id = quandle.content_hash()
    cocycle_id = cocycle.content_hash()
    if group_from_labels(cocycle.group.labels) != cocycle.group:
        cache = None  # the key and a read-back Z assume the cyclic group on these labels
    record = cache.lookup(braid, quandle_id, cocycle_id) if cache is not None else None
    if record is not None and not _fits(record, word, cocycle):
        record = None
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
