"""Convergence detection and limit bookkeeping for per-crossing free energy.

A family of closures yields a sequence of points f(n) in R^N.  The
estimator is deliberately simple and conservative: look at the last
third of the samples, and call the sequence converged when those tail
points pairwise sit within the tolerance.  A converged sequence is
summarized by its final sample; a non-converged one by the tail's
coordinate-wise bounding box.  Distinctness of two limits is then a
set-separation question between points/boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, starmap

from .sequences import FamilyId

DEFAULT_TOLERANCE = 1e-3

_LN2 = math.log(2.0)
_LN12 = math.log(12.0)


@dataclass(frozen=True)
class Box:
    """Axis-aligned bounding box; degenerate boxes are points."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("box corners have different dimensions")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValueError("box lower corner exceeds upper corner")

    def to_json(self) -> dict:
        return {"lo": list(self.lo), "hi": list(self.hi)}


def _as_box(region) -> Box:
    if isinstance(region, Box):
        return region
    point = tuple(float(x) for x in region)
    return Box(point, point)


def region_distance(a, b) -> float:
    """Euclidean distance between two points/boxes (0 when they meet)."""
    box_a, box_b = _as_box(a), _as_box(b)
    if len(box_a.lo) != len(box_b.lo):
        raise ValueError("regions have different dimensions")
    gaps = [
        max(0.0, lo2 - hi1, lo1 - hi2)
        for lo1, hi1, lo2, hi2 in zip(box_a.lo, box_a.hi, box_b.lo, box_b.hi)
    ]
    return math.hypot(*gaps)


@dataclass(frozen=True)
class LimitReport:
    """Convergence verdict for one sampled sequence."""

    family: FamilyId | None
    converged: bool
    estimate: tuple[float, ...] | Box
    max_tail_deviation: float
    closed_form: tuple[float, ...] | Box | None = None

    def to_json(self) -> dict:
        def region(r):
            if r is None:
                return None
            return r.to_json() if isinstance(r, Box) else list(r)

        return {
            "family": str(self.family) if self.family is not None else None,
            "estimate": region(self.estimate),
            "closed_form": region(self.closed_form),
            "converged": self.converged,
        }


def _check_tolerance(tolerance: float) -> None:
    # NaN fails every comparison: a "tolerance <= 0" check passes it, and then no tail
    # converges and every pair of limits overlaps
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tolerance}")


def limit_estimate(
    samples,
    tolerance: float = DEFAULT_TOLERANCE,
    family: FamilyId | None = None,
    closed_form=None,
) -> LimitReport:
    """Cauchy-style convergence check over the tail of a sampled sequence.

    ``samples`` is a list of (n, point) with strictly increasing n and
    at least 3 entries.  The tail is the last third (never fewer than
    two samples).  Converged means every tail pair lies within
    ``tolerance``, which must be finite and positive; the estimate is
    then the final sample, otherwise the tail bounding box.
    """
    samples = [(int(n), tuple(float(x) for x in point)) for n, point in samples]
    if len(samples) < 3:
        raise ValueError(f"need at least 3 samples, got {len(samples)}")
    if any(b[0] <= a[0] for a, b in zip(samples, samples[1:])):
        raise ValueError("sample indices must be strictly increasing")
    dims = {len(point) for _, point in samples}
    if len(dims) != 1:
        raise ValueError("samples have inconsistent dimensions")
    _check_tolerance(tolerance)

    tail_len = max(2, math.ceil(len(samples) / 3))
    tail = [point for _, point in samples[-tail_len:]]
    deviation = max(starmap(math.dist, combinations(tail, 2)))
    converged = deviation <= tolerance
    if converged:
        estimate: tuple[float, ...] | Box = samples[-1][1]
    else:
        estimate = Box(
            tuple(min(p[k] for p in tail) for k in range(len(tail[0]))),
            tuple(max(p[k] for p in tail) for k in range(len(tail[0]))),
        )
    return LimitReport(
        family=family,
        converged=converged,
        estimate=estimate,
        max_tail_deviation=deviation,
        closed_form=closed_form,
    )


def closed_form_limit(family: FamilyId):
    """Analytic limit of the family's per-crossing free energy.

    Kn and Km converge to equal-coordinate points, K0 to the origin.
    For KPrime (and its KPrimeM scalings) no single limit point is
    certified, only sequence-wide bounds on both coordinates, so a Box
    is returned; every accumulation point lies inside it.
    """
    if family.kind in ("Kn", "Km"):
        value = _LN2 / (3 * family.scale)
        return (value, value)
    if family.kind == "K0":
        return (0.0, 0.0)
    lo = _LN12 / (15 * family.scale)
    hi = 4 * _LN2 / (15 * family.scale)
    return Box((lo, lo), (hi, hi))


def distinguish_limits(reports, tolerance: float = DEFAULT_TOLERANCE):
    """Pairwise separation matrix over report estimates.

    Entry (i, j) is "DISTINCT" when the two estimates (points or boxes)
    are separated by more than ``tolerance`` (finite and positive), else
    "OVERLAPPING".  The matrix is symmetric with an OVERLAPPING diagonal.
    """
    _check_tolerance(tolerance)
    regions = [report.estimate for report in reports]
    size = len(regions)
    matrix = [["OVERLAPPING"] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            if region_distance(regions[i], regions[j]) > tolerance:
                matrix[i][j] = matrix[j][i] = "DISTINCT"
    return matrix
