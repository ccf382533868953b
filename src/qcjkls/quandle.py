"""Finite quandles, with Alexander quandles over quotient polynomial rings.

A quandle is a set with a binary operation ``*`` satisfying, for all
``a, b, c``:

1. idempotence: ``a*a == a``
2. right invertibility: ``x*b == a`` has exactly one solution ``x``,
   written ``a ~* b``
3. right self-distributivity: ``(a*b)*c == (a*c)*(b*c)``

Quandles are stored as dense lookup tables over element indices
``0..size-1``; ``labels`` carry display names.  Alexander quandles are
built from the ring ``Z_m[T]/(p(T))`` via ``a*b = T a + (1-T) b``; the
inverse operation is then ``a ~* b = T^-1 a + (1-T^-1) b``, which needs
``T`` to be invertible in the quotient ring.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cache, cached_property
from math import gcd
from pathlib import Path

# Largest element count for constructed quandle/ring tables.  A table of
# this size is still exhaustively checkable; anything bigger is refused
# instead of silently thrashing.
MAX_QUANDLE_SIZE = 1024
# Characters of a bad text or number that a refusal quotes: at most 10 each in a repr.
_QUOTE_CHARS = 12


def quote_prefix(value: str | int) -> str:
    """The first _QUOTE_CHARS characters of value (a text in repr() quotes), then "..." if it is longer."""
    text = str(value)
    head = repr(text[:_QUOTE_CHARS]) if isinstance(value, str) else text[:_QUOTE_CHARS]
    return head + "..." if len(text) > _QUOTE_CHARS else head


class QuandleError(Exception):
    """Invalid quandle data or construction request."""


class MalformedTableError(QuandleError):
    """Operation table is structurally broken (shape or entry range)."""


@dataclass(frozen=True)
class QuandleTable:
    """Finite quandle as dense op/inverse-op tables over element indices."""

    size: int
    op: tuple[tuple[int, ...], ...]
    inv_op: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]

    def label_tuple(self, coloring) -> tuple[str, ...]:
        return tuple(map(self.labels.__getitem__, coloring))

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "op": [list(row) for row in self.op],
            "labels": list(self.labels),
        }

    def content_hash(self) -> str:
        """sha256 of the canonical JSON of the table and labels; computed once per object."""
        return self._content_hash

    @cached_property
    def _content_hash(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _check_table_shape(table, size: int, name: str) -> None:
    if len(table) != size:
        raise MalformedTableError(f"{name} table has {len(table)} rows, expected {size}")
    for a, row in enumerate(table):
        if len(row) != size:
            raise MalformedTableError(f"{name} table row {a} has {len(row)} entries, expected {size}")
        for b, entry in enumerate(row):
            if not isinstance(entry, int) or isinstance(entry, bool) or not 0 <= entry < size:
                raise MalformedTableError(f"{name} table entry at ({a}, {b}) is {entry!r}, not an index in 0..{size - 1}")


def _inverse_table(op) -> tuple[tuple[int, ...], ...]:
    """Solve x*b == a for every (a, b); fails if some column is not a bijection."""
    size = len(op)
    inv = [[0] * size for _ in range(size)]
    for b in range(size):
        seen = [-1] * size
        for x in range(size):
            y = op[x][b]
            if seen[y] != -1:
                raise QuandleError(
                    f"right translation by {b} is not a bijection: "
                    f"{seen[y]}*{b} == {x}*{b} == {y}"
                )
            seen[y] = x
        for a in range(size):
            inv[a][b] = seen[a]
    return tuple(tuple(row) for row in inv)


def make_quandle(op, labels=None) -> QuandleTable:
    """Build a QuandleTable from an op table, deriving the inverse table.

    Raises MalformedTableError on bad shape and QuandleError when some
    right translation is not invertible.  Axioms beyond invertibility
    are not checked here; see verify_quandle_axioms.
    """
    size = len(op)
    if size == 0:
        raise MalformedTableError("empty operation table")
    op_rows = tuple(tuple(int(v) for v in row) for row in op)
    _check_table_shape(op_rows, size, "op")
    if labels is None:
        labels = tuple(str(i) for i in range(size))
    else:
        labels = tuple(str(x) for x in labels)
        if len(labels) != size:
            raise MalformedTableError(f"{len(labels)} labels for {size} elements")
    return QuandleTable(size=size, op=op_rows, inv_op=_inverse_table(op_rows), labels=labels)


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of a quandle axiom check: empty violations means a quandle."""

    violations: tuple[tuple[str, tuple[int, ...]], ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self, labels=None) -> list[str]:
        out = []
        for axiom, elems in self.violations:
            shown = tuple(labels[i] for i in elems) if labels else elems
            out.append(f"{axiom} violated at {shown}")
        return out


def verify_quandle_axioms(q: QuandleTable) -> AxiomReport:
    """Exhaustively check the three quandle axioms plus inv_op consistency.

    Structural problems (wrong shape, out-of-range entries) raise
    MalformedTableError before any axiom is evaluated.  Otherwise every
    violating instance is reported, tagged with an axiom id.
    """
    size = q.size
    if size < 1:
        raise MalformedTableError("quandle must have at least one element")
    _check_table_shape(q.op, size, "op")
    _check_table_shape(q.inv_op, size, "inv_op")

    violations: list[tuple[str, tuple[int, ...]]] = []
    op = q.op
    rng = range(size)

    for a in rng:
        if op[a][a] != a:
            violations.append(("idempotence", (a,)))

    for b in rng:
        if len({op[x][b] for x in rng}) != size:
            violations.append(("right_invertibility", (b,)))

    for a in rng:
        for b in rng:
            ab = op[a][b]
            for c in rng:
                if op[ab][c] != op[op[a][c]][op[b][c]]:
                    violations.append(("self_distributivity", (a, b, c)))

    for a in rng:
        for b in rng:
            if q.inv_op[op[a][b]][b] != a or op[q.inv_op[a][b]][b] != a:
                violations.append(("inverse_table", (a, b)))

    return AxiomReport(tuple(violations))


def _normalize_poly(modulus: int, poly) -> tuple[int, ...]:
    if modulus < 2:
        raise QuandleError(f"coefficient modulus must be >= 2, got {quote_prefix(modulus)}")
    coeffs = [int(c) % modulus for c in poly]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        raise QuandleError("quotient polynomial must have degree >= 1 after reduction")
    if gcd(coeffs[-1], modulus) != 1:
        raise QuandleError(
            f"leading coefficient {quote_prefix(coeffs[-1])} of the quotient polynomial "
            f"is not a unit mod {quote_prefix(modulus)}"
        )
    return tuple(coeffs)


class ResidueRing:
    """The ring Z_m[T]/(p(T)), elements indexed by base-m coefficient digits.

    Element i has coefficient tuple elements[i], constant term first;
    the index is the tuple read as a base-m integer, so the canonical
    element order for m=2, p=T^2+T+1 is 0, 1, T, T+1.
    """

    def __init__(self, modulus: int, poly):
        self.poly = _normalize_poly(modulus, poly)
        self.modulus = modulus
        self.degree = len(self.poly) - 1
        # modulus >= 2, so capping the exponent at the budget's bit length keeps the
        # power small and still decides the check exactly, as braid.exceeds_budget does
        cap = MAX_QUANDLE_SIZE.bit_length()
        size = modulus ** min(self.degree, cap)
        if size > MAX_QUANDLE_SIZE:
            count = quote_prefix(size) if self.degree <= cap else f"{quote_prefix(modulus)}^{self.degree}"
            raise QuandleError(f"ring has {count} elements, above the table budget {MAX_QUANDLE_SIZE}")
        self.size = size
        self._lead_inv = pow(self.poly[-1], -1, modulus)
        self.elements = tuple(self._coeffs_of(i) for i in range(size))
        self.one = self.index_of((1,) + (0,) * (self.degree - 1))
        self.t = self.index_of(self._reduce([0, 1]))

    def _coeffs_of(self, index: int) -> tuple[int, ...]:
        digits = []
        for _ in range(self.degree):
            index, digit = divmod(index, self.modulus)
            digits.append(digit)
        return tuple(digits)

    def index_of(self, coeffs) -> int:
        index = 0
        for c in reversed(tuple(coeffs)):
            index = index * self.modulus + (c % self.modulus)
        return index

    def _reduce(self, coeffs: list[int]) -> tuple[int, ...]:
        m, deg, p = self.modulus, self.degree, self.poly
        c = [v % m for v in coeffs] + [0] * max(0, deg - len(coeffs))
        for k in range(len(c) - 1, deg - 1, -1):
            if c[k]:
                factor = (c[k] * self._lead_inv) % m
                base = k - deg
                for j in range(deg + 1):
                    c[base + j] = (c[base + j] - factor * p[j]) % m
        return tuple(c[:deg])

    def sub(self, i: int, j: int) -> int:
        m = self.modulus
        return self.index_of(
            tuple((x - y) % m for x, y in zip(self.elements[i], self.elements[j]))
        )

    def mul(self, i: int, j: int) -> int:
        a, b = self.elements[i], self.elements[j]
        prod = [0] * (2 * self.degree - 1)
        for da, ca in enumerate(a):
            if ca:
                for db, cb in enumerate(b):
                    prod[da + db] += ca * cb
        return self.index_of(self._reduce(prod))

    def t_inverse(self) -> int:
        for i in range(self.size):
            if self.mul(self.t, i) == self.one:
                return i
        raise QuandleError(
            f"T (= {self.label(self.t)}) is not invertible in "
            f"Z_{self.modulus}[T]/({_poly_text(self.poly)})"
        )

    def label(self, index: int) -> str:
        return _poly_text(self.elements[index]) or "0"


@dataclass(frozen=True)
class AlexanderQuandleSpec:
    """Parameters (modulus m, quotient polynomial p) of an Alexander quandle.

    ``poly`` lists coefficients of p(T) with the constant term first.
    The leading coefficient must be a unit mod m; construction also
    requires T to be invertible in the quotient ring.
    """

    modulus: int
    poly: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "poly", _normalize_poly(self.modulus, self.poly))

    def ring(self) -> ResidueRing:
        return ResidueRing(self.modulus, self.poly)


def _poly_text(poly: tuple[int, ...]) -> str:
    terms = []
    for deg in range(len(poly) - 1, -1, -1):
        c = poly[deg]
        if c == 0:
            continue
        if deg == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            terms.append(f"{head}T" if deg == 1 else f"{head}T^{deg}")
    return "+".join(terms)


# The 4-element Alexander quandle on Z_2[T]/(T^2+T+1); element order
# 0, 1, T, T+1.  This is the default quandle throughout.
S4_SPEC = AlexanderQuandleSpec(2, (1, 1, 1))


def _translation(ring: ResidueRing, x: int) -> list[int]:
    """Index of x + y for every index y: addition is digitwise mod m in the base-m index."""
    m, row, place = ring.modulus, [0], 1
    for _ in range(ring.degree):  # one more digit of y per pass, lowest first
        x, digit = divmod(x, m)
        shifts = [place * ((c + digit) % m) for c in range(m)]
        row = [v + shift for shift in shifts for v in row]
        place *= m
    return row


@cache
def build_alexander_quandle(spec: AlexanderQuandleSpec) -> QuandleTable:
    """Tabulate a*b = T a + (1-T) b over the quotient ring of ``spec``; built once per spec.

    Row a of the table is the translation by T a applied to the column
    (1-T) b, and row a of the inverse the translation by T^-1 a applied
    to (1-T^-1) b.  Deterministic: element order is fixed by the base-m
    index encoding.  Raises QuandleError when T is not invertible (no
    inverse operation would exist) or when the ring exceeds
    MAX_QUANDLE_SIZE elements.
    """
    ring = spec.ring()
    t, t_inv, size = ring.t, ring.t_inverse(), ring.size

    def rows(left: int, right: int) -> tuple[tuple[int, ...], ...]:  # left a + right b
        column = [ring.mul(right, b) for b in range(size)]
        return tuple(
            tuple(map(_translation(ring, ring.mul(left, a)).__getitem__, column)) for a in range(size)
        )

    op = rows(t, ring.sub(ring.one, t))
    inv_op = rows(t_inv, ring.sub(ring.one, t_inv))
    labels = tuple(ring.label(i) for i in range(size))
    return QuandleTable(size=size, op=op, inv_op=inv_op, labels=labels)


def build_s4() -> QuandleTable:
    """The default 4-element Alexander quandle (labels 0, 1, T, T+1)."""
    return build_alexander_quandle(S4_SPEC)


def quandle_from_json(data: dict) -> QuandleTable:
    """Parse the quandle file format {"size", "op", "labels"[, "inv_op"]}.

    The inverse table is always recomputed from "op"; a provided
    "inv_op" that disagrees with the recomputed one is a load error.
    """
    if not isinstance(data, dict):
        raise MalformedTableError("quandle document must be a JSON object")
    try:
        size = int(data["size"])
        op = data["op"]
        labels = data["labels"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedTableError(f"quandle document missing or bad field: {exc}") from exc
    if len(op) != size:
        raise MalformedTableError(f'"size" is {size} but op has {len(op)} rows')
    q = make_quandle(op, labels)
    if "inv_op" in data:
        declared = tuple(tuple(int(v) for v in row) for row in data["inv_op"])
        if declared != q.inv_op:
            raise QuandleError('declared "inv_op" does not match the table recomputed from "op"')
    return q


def load_quandle(path) -> QuandleTable:
    with open(Path(path), "r", encoding="utf-8") as fh:
        return quandle_from_json(json.load(fh))


def save_quandle(q: QuandleTable, path) -> None:
    with open(Path(path), "w", encoding="utf-8") as fh:
        json.dump(q.to_json(), fh, indent=2)
        fh.write("\n")
