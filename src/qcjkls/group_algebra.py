"""Finite abelian groups and non-negative integer group-algebra vectors.

State sums live in the integral group algebra Z[A] of a finite abelian
group A, restricted to non-negative coefficients (each coefficient
counts colorings).  Coefficients are exact Python ints, so they may be
astronomically large; the float view is taken only at the very end,
through logarithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property


@dataclass(frozen=True)
class AbelianGroup:
    """Finite abelian group as a multiplication table over indices."""

    order: int
    mul: tuple[tuple[int, ...], ...]
    identity: int
    labels: tuple[str, ...]

    @cached_property
    def inverse_table(self) -> tuple[int, ...]:
        inv = [-1] * self.order
        for i in range(self.order):
            for j in range(self.order):
                if self.mul[i][j] == self.identity:
                    inv[i] = j
                    break
            if inv[i] < 0:
                raise ValueError(f"group element {i} has no inverse")
        return tuple(inv)


@cache
def build_cyclic_group(order: int) -> AbelianGroup:
    """Cyclic group of the given order with labels 1, t, t^2, ...; built once per order."""
    if order < 1:
        raise ValueError(f"group order must be >= 1, got {order}")
    mul = tuple(tuple((i + j) % order for j in range(order)) for i in range(order))
    labels = tuple("1" if k == 0 else ("t" if k == 1 else f"t^{k}") for k in range(order))
    return AbelianGroup(order=order, mul=mul, identity=0, labels=labels)


def group_from_labels(labels) -> AbelianGroup:
    """Rebuild the cyclic group a serialized element was written over."""
    group = build_cyclic_group(len(labels))
    labels = tuple(labels)
    return group if labels == group.labels else AbelianGroup(group.order, group.mul, group.identity, labels)


@dataclass(frozen=True)
class GroupAlgebraElement:
    """Element of Z[A] with non-negative exact integer coefficients."""

    group: AbelianGroup
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.group.order:
            raise ValueError(
                f"{len(self.coeffs)} coefficients for a group of order {self.group.order}"
            )
        if any(c < 0 for c in self.coeffs):
            raise ValueError("group algebra coefficients must be non-negative")

    def coefficient_sum(self) -> int:
        return sum(self.coeffs)

    def __str__(self) -> str:
        parts = [f"{c}*{lbl}" for c, lbl in zip(self.coeffs, self.group.labels) if c]
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {
            "group_labels": list(self.group.labels),
            "coeffs": [str(c) for c in self.coeffs],
        }


def element_from_json(data: dict, group: AbelianGroup | None = None) -> GroupAlgebraElement:
    labels = tuple(data["group_labels"])
    if group is None:
        group = group_from_labels(labels)
    elif tuple(group.labels) != labels:
        raise ValueError("serialized element was written over a different group")
    return GroupAlgebraElement(group, tuple(int(c) for c in data["coeffs"]))
