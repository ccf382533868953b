"""Quandle 2-cocycles valued in a finite abelian group.

A 2-cocycle phi on a quandle X assigns a group element to each ordered
pair of colors, subject to

    phi(a, a) == 1
    phi(a, b) * phi(a*b, c) == phi(a, c) * phi(a*c, b*c)

which is exactly what makes the crossing-weight state sum invariant
under Reidemeister moves.  Tables store group element indices.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path

from .group_algebra import AbelianGroup, build_cyclic_group
from .quandle import MalformedTableError, QuandleTable, build_s4, quandle_from_json


class CocycleError(Exception):
    """Invalid cocycle data, or a cocycle paired with the wrong quandle."""


@dataclass(frozen=True)
class Cocycle:
    """2-cocycle as a size x size table of group element indices."""

    quandle: QuandleTable
    group: AbelianGroup
    table: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {
            "quandle": self.quandle.to_json(),
            "group_order": self.group.order,
            "table": [list(row) for row in self.table],
        }

    def content_hash(self) -> str:
        """sha256 of the quandle's hash, the group's order and labels and the table; computed once per object."""
        return self._content_hash

    @cached_property
    def _content_hash(self) -> str:
        blob = json.dumps(
            {
                "quandle": self.quandle.content_hash(),
                "group_order": self.group.order,
                "group_labels": list(self.group.labels),
                "table": [list(row) for row in self.table],
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CocycleReport:
    """Violations of the 2-cocycle condition, if any."""

    identity_violations: tuple[int, ...]
    condition_violations: tuple[tuple[int, int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.identity_violations and not self.condition_violations

    def lines(self, labels=None) -> list[str]:
        def show(i):
            return labels[i] if labels else i

        out = [f"phi({show(a)}, {show(a)}) != identity" for a in self.identity_violations]
        out.extend(
            f"cocycle condition fails at ({show(a)}, {show(b)}, {show(c)})"
            for a, b, c in self.condition_violations
        )
        return out


def _check_cocycle_shape(c: Cocycle) -> None:
    size, order = c.quandle.size, c.group.order
    if len(c.table) != size or any(len(row) != size for row in c.table):
        raise MalformedTableError(f"cocycle table is not {size}x{size}")
    for row in c.table:
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < order:
                raise MalformedTableError(f"cocycle entry {v!r} is not a group index in 0..{order - 1}")


def verify_cocycle(c: Cocycle) -> CocycleReport:
    """Exhaustively check the 2-cocycle condition over all triples."""
    _check_cocycle_shape(c)
    op = c.quandle.op
    mul = c.group.mul
    phi = c.table
    identity = c.group.identity
    rng = range(c.quandle.size)

    diag = tuple(a for a in rng if phi[a][a] != identity)
    bad = []
    for a in rng:
        for b in rng:
            ab = op[a][b]
            for cc in rng:
                if mul[phi[a][b]][phi[ab][cc]] != mul[phi[a][cc]][phi[op[a][cc]][op[b][cc]]]:
                    bad.append((a, b, cc))
    return CocycleReport(diag, tuple(bad))


def build_trivial_cocycle(quandle: QuandleTable, group: AbelianGroup) -> Cocycle:
    """The constant-identity cocycle; its state sum counts colorings."""
    row = (group.identity,) * quandle.size
    return Cocycle(quandle=quandle, group=group, table=(row,) * quandle.size)


@cache
def build_s4_cocycle() -> Cocycle:
    """The standard non-trivial 2-cocycle on the default 4-element quandle; built once.

    Coefficients are Z_2 = {1, t}.  The value is the identity when the
    two colors agree or when either color is T, and t otherwise.
    """
    quandle = build_s4()
    group = build_cyclic_group(2)
    t_index = 2  # element order is 0, 1, T, T+1
    table = tuple(
        tuple(0 if a == b or a == t_index or b == t_index else 1 for b in range(4))
        for a in range(4)
    )
    return Cocycle(quandle=quandle, group=group, table=table)


def cocycle_from_json(data: dict, base_dir=None) -> Cocycle:
    """Parse {"quandle": <object or path>, "group_order": N, "table": [[...]]}.

    A string "quandle" entry is a path to a quandle file, resolved
    relative to ``base_dir`` when given.
    """
    if not isinstance(data, dict):
        raise CocycleError("cocycle document must be a JSON object")
    try:
        qfield = data["quandle"]
        order = int(data["group_order"])
        table = data["table"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CocycleError(f"cocycle document missing or bad field: {exc}") from exc

    if isinstance(qfield, str):
        qpath = Path(qfield)
        if base_dir is not None and not qpath.is_absolute():
            qpath = Path(base_dir) / qpath
        with open(qpath, "r", encoding="utf-8") as fh:
            quandle = quandle_from_json(json.load(fh))
    else:
        quandle = quandle_from_json(qfield)

    group = build_cyclic_group(order)
    c = Cocycle(
        quandle=quandle,
        group=group,
        table=tuple(tuple(int(v) for v in row) for row in table),
    )
    _check_cocycle_shape(c)
    return c


def load_cocycle(path) -> Cocycle:
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        return cocycle_from_json(json.load(fh), base_dir=path.parent)


def save_cocycle(c: Cocycle, path) -> None:
    with open(Path(path), "w", encoding="utf-8") as fh:
        json.dump(c.to_json(), fh, indent=2)
        fh.write("\n")
