"""Convergence detection, closed-form limits, and the distinctness matrix.

The per-crossing free energy of every built-in family is available in
closed form at any index, which makes these tests cheap: sampling f at
n up to a few hundred costs microseconds, yet exercises exactly the
sequences the limit machinery exists for.
"""

import math
import random

import pytest
from _helpers import euclidean_distance

from qcjkls.limits import (
    Box,
    LimitReport,
    closed_form_limit,
    distinguish_limits,
    limit_estimate,
    region_distance,
)
from qcjkls.sequences import FamilyId, family_closed_f

LN2 = math.log(2.0)
LN3 = math.log(3.0)
LN12 = math.log(12.0)

KN = FamilyId("Kn")
KPRIME = FamilyId("KPrime")
K0 = FamilyId("K0")


def _samples(family, ns):
    return [(n, family_closed_f(family, n)) for n in ns]


def test_kn_converges_to_closed_form():
    report = limit_estimate(
        _samples(KN, range(10, 201, 10)),
        tolerance=0.02,
        family=KN,
        closed_form=closed_form_limit(KN),
    )
    assert report.converged
    assert isinstance(report.estimate, tuple)
    target = (LN2 / 3, LN2 / 3)
    assert math.dist(report.estimate, target) < 0.02
    assert report.max_tail_deviation <= 0.02


def test_constant_sequence_converges():
    report = limit_estimate([(1, (0.5, 0.5)), (2, (0.5, 0.5)), (3, (0.5, 0.5))])
    assert report.converged
    assert report.max_tail_deviation == 0.0
    assert report.estimate == (0.5, 0.5)


def test_k0_tail_still_moving_at_tight_tolerance():
    report = limit_estimate(_samples(K0, range(10, 201, 10)), tolerance=1e-3, family=K0)
    assert not report.converged
    assert isinstance(report.estimate, Box)
    # the tail box has shrunk close to the origin but not onto it
    assert all(0.0 < x < 0.01 for x in report.estimate.lo)
    assert all(0.0 < x < 0.02 for x in report.estimate.hi)


def test_k0_converges_at_looser_tolerance():
    report = limit_estimate(_samples(K0, range(10, 201, 10)), tolerance=0.02)
    assert report.converged
    assert math.dist(report.estimate, (0.0, 0.0)) < 0.02


def test_kprime_samples_stay_inside_certified_band():
    from qcjkls.sequences import family_crossing_number

    # every coordinate sits strictly above ln12/15; the upper side needs
    # a finite-n margin because both binomial sums are below 4^m, giving
    # ln Z <= (2n+2) ln2, and the sequence approaches 4 ln2 / 15 from
    # above as that slack decays
    for n in range(3, 201):
        upper = (2 * n + 2) * LN2 / family_crossing_number(KPRIME, n)
        for coord in family_closed_f(KPRIME, n):
            assert LN12 / 15 < coord <= upper, n
    # by n = 25 the margin has shrunk inside a fixed 0.02 band
    for n in range(25, 201):
        for coord in family_closed_f(KPRIME, n):
            assert LN12 / 15 - 0.02 < coord < 4 * LN2 / 15 + 0.02, n


def test_kprime_unconverged_tail_reports_box():
    report = limit_estimate(_samples(KPRIME, range(25, 201, 25)), tolerance=1e-4, family=KPRIME)
    assert not report.converged
    box = report.estimate
    assert isinstance(box, Box)
    for k in range(2):
        assert LN12 / 15 - 0.02 < box.lo[k] <= box.hi[k] < 4 * LN2 / 15 + 0.02


def test_closed_form_limits():
    assert closed_form_limit(KN) == (LN2 / 3, LN2 / 3)
    assert closed_form_limit(K0) == (0.0, 0.0)
    assert closed_form_limit(FamilyId("Km", 1)) == (LN2 / 9, LN2 / 9)
    assert closed_form_limit(FamilyId("Km", 2)) == (LN2 / 15, LN2 / 15)

    band = closed_form_limit(KPRIME)
    assert isinstance(band, Box)
    assert band.lo == (LN12 / 15, LN12 / 15)
    assert band.hi == (4 * LN2 / 15, 4 * LN2 / 15)

    scaled = closed_form_limit(FamilyId("KPrimeM", 1))
    assert scaled.lo[0] == pytest.approx(LN12 / 45)
    assert scaled.hi[0] == pytest.approx(4 * LN2 / 45)


def test_sample_distance_to_limit_shrinks_monotonically():
    # max-coordinate distance to the closed-form limit decreases in n
    # and is below 0.01 by n = 100 for the point-limit families
    for family in (KN, K0, FamilyId("Km", 1), FamilyId("Km", 2)):
        limit = closed_form_limit(family)
        previous = None
        for n in range(2, 101):
            f = family_closed_f(family, n)
            dist = max(abs(f[k] - limit[k]) for k in range(2))
            if previous is not None:
                assert dist < previous, (str(family), n)
            previous = dist
        assert previous < 0.01, str(family)


def test_limit_estimate_input_validation():
    good = [(1, (0.0,)), (2, (0.0,)), (3, (0.0,))]
    with pytest.raises(ValueError, match="at least 3"):
        limit_estimate(good[:2])
    with pytest.raises(ValueError, match="strictly increasing"):
        limit_estimate([(1, (0.0,)), (1, (0.0,)), (2, (0.0,))])
    with pytest.raises(ValueError, match="dimension"):
        limit_estimate([(1, (0.0,)), (2, (0.0, 0.0)), (3, (0.0,))])
    with pytest.raises(ValueError, match="tolerance"):
        limit_estimate(good, tolerance=0.0)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0, -1.0])
def test_tolerance_must_be_finite_and_positive(tolerance):
    good = [(1, (0.0,)), (2, (0.0,)), (3, (0.0,))]
    with pytest.raises(ValueError, match="finite and positive"):
        limit_estimate(good, tolerance=tolerance)
    report = limit_estimate(good)
    with pytest.raises(ValueError, match="finite and positive"):
        distinguish_limits([report, report], tolerance=tolerance)


def test_tail_is_last_third_never_below_two():
    # 9 samples: tail = 3, so a jump at position 6 blocks convergence
    flat = [(n, (0.0, 0.0)) for n in range(1, 7)]
    spiky = flat + [(7, (1.0, 1.0)), (8, (0.0, 0.0)), (9, (0.0, 0.0))]
    assert not limit_estimate(spiky, tolerance=0.5).converged
    # with 3 samples the tail is still 2: the early outlier is ignored
    assert limit_estimate(
        [(1, (9.0, 9.0)), (2, (0.0, 0.0)), (3, (0.0, 0.0))], tolerance=0.5
    ).converged


def test_region_distance_points_and_boxes():
    assert region_distance((0.0, 0.0), (LN2 / 3, LN2 / 3)) == pytest.approx(
        math.sqrt(2.0) * LN2 / 3
    )
    box = Box((0.1, 0.1), (0.2, 0.2))
    assert region_distance(box, (0.15, 0.18)) == 0.0  # inside
    assert region_distance(box, (0.3, 0.2)) == pytest.approx(0.1)
    assert region_distance(box, Box((0.25, 0.1), (0.3, 0.2))) == pytest.approx(0.05)


def test_distinguish_limits_certifies_separations():
    reports = [
        limit_estimate(_samples(f, range(10, 201, 10)), tolerance=0.02, family=f)
        for f in (KN, K0, KPRIME)
    ]
    matrix = distinguish_limits(reports)
    assert [row[i] for i, row in enumerate(matrix)] == ["OVERLAPPING"] * 3
    for i in range(3):
        for j in range(3):
            assert matrix[i][j] == matrix[j][i]
            if i != j:
                assert matrix[i][j] == "DISTINCT"


def test_distinguish_limits_overlapping_duplicates():
    report = limit_estimate(_samples(KN, range(10, 201, 10)), tolerance=0.02, family=KN)
    matrix = distinguish_limits([report, report])
    assert matrix == [["OVERLAPPING", "OVERLAPPING"], ["OVERLAPPING", "OVERLAPPING"]]


def test_distinguish_km_parameters_pairwise():
    reports = [
        limit_estimate(
            _samples(FamilyId("Km", m), range(10, 201, 10)), tolerance=0.02, family=FamilyId("Km", m)
        )
        for m in (1, 2, 3)
    ]
    matrix = distinguish_limits(reports)
    for i in range(3):
        for j in range(3):
            assert matrix[i][j] == ("OVERLAPPING" if i == j else "DISTINCT")


def test_report_json_shapes():
    point = limit_estimate(
        _samples(KN, range(10, 201, 10)), tolerance=0.02, family=KN,
        closed_form=closed_form_limit(KN),
    ).to_json()
    assert sorted(point.keys()) == ["closed_form", "converged", "estimate", "family"]
    assert point["family"] == "Kn"
    assert point["converged"] is True
    assert isinstance(point["estimate"], list)

    boxy = limit_estimate(
        _samples(KPRIME, range(25, 201, 25)), tolerance=1e-4, family=KPRIME,
        closed_form=closed_form_limit(KPRIME),
    ).to_json()
    assert set(boxy["estimate"].keys()) == {"lo", "hi"}
    assert set(boxy["closed_form"].keys()) == {"lo", "hi"}

    anonymous = limit_estimate([(1, (0.0,)), (2, (0.0,)), (3, (0.0,))]).to_json()
    assert anonymous["family"] is None
    assert anonymous["closed_form"] is None


def test_box_validation():
    with pytest.raises(ValueError):
        Box((0.0, 0.0), (1.0,))
    with pytest.raises(ValueError):
        Box((1.0,), (0.0,))
    assert Box((0.0,), (0.0,)).to_json() == {"lo": [0.0], "hi": [0.0]}


def test_max_tail_deviation_is_the_largest_pairwise_distance():
    rng = random.Random(7)
    for dims in (1, 2, 3, 4):
        for count in (3, 4, 10, 31, 83):
            samples = [(n, tuple(rng.uniform(-1.0, 1.0) for _ in range(dims))) for n in range(1, count + 1)]
            tail = [point for _, point in samples[-max(2, math.ceil(count / 3)) :]]
            expected = max(euclidean_distance(a, b) for a in tail for b in tail)
            assert limit_estimate(samples).max_tail_deviation == expected, (dims, count)
