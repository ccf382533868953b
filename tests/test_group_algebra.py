import math

import pytest

from _helpers import euclidean_distance
from qcjkls.group_algebra import (
    GroupAlgebraElement,
    build_cyclic_group,
    element_from_json,
    group_from_labels,
)


def test_cyclic_group_golden():
    g = build_cyclic_group(2)
    assert g.order == 2
    assert g.labels == ("1", "t")
    assert g.mul[1][1] == 0
    assert g.inverse_table[1] == 1


def test_cyclic_power():
    g = build_cyclic_group(5)
    assert g.mul[2][3] == 0


def test_cyclic_groups_validate():
    # the table is Z_n: addition mod n with identity 0
    for order in range(1, 7):
        g = build_cyclic_group(order)
        assert g.identity == 0
        for i in range(order):
            for j in range(order):
                assert g.mul[i][j] == (i + j) % order


def test_str_rendering():
    g = build_cyclic_group(2)
    assert str(GroupAlgebraElement(g, (4, 12))) == "4*1 + 12*t"
    assert str(GroupAlgebraElement(g, (0, 3))) == "3*t"
    assert str(GroupAlgebraElement(g, (0, 0))) == "0"


def test_coefficient_validation():
    g = build_cyclic_group(2)
    with pytest.raises(ValueError):
        GroupAlgebraElement(g, (1,))
    with pytest.raises(ValueError):
        GroupAlgebraElement(g, (1, -1))


def test_json_round_trip_exact_big_integers():
    g = build_cyclic_group(2)
    big = 4**200 + 1
    elem = GroupAlgebraElement(g, (big, 3))
    doc = elem.to_json()
    assert doc["coeffs"] == [str(big), "3"]
    back = element_from_json(doc)
    assert back.coeffs == (big, 3)
    assert back.group.labels == g.labels


def test_element_from_json_group_mismatch():
    g2 = build_cyclic_group(2)
    doc = GroupAlgebraElement(g2, (1, 2)).to_json()
    with pytest.raises(ValueError, match="different group"):
        element_from_json(doc, group=build_cyclic_group(3))


def test_group_from_labels_keeps_cyclic_structure():
    g = group_from_labels(("1", "t", "t^2"))
    assert g.order == 3
    assert g.mul[1][2] == 0


def test_euclidean_distance():
    assert euclidean_distance((0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)
    assert euclidean_distance((1.5, 2.5), (1.5, 2.5)) == 0.0
    ln2 = math.log(2.0)
    assert euclidean_distance((0.0, 0.0), (ln2 / 3, ln2 / 3)) == pytest.approx(
        math.sqrt(2.0) * ln2 / 3
    )
    with pytest.raises(ValueError, match="dimension"):
        euclidean_distance((1.0,), (1.0, 2.0))


def test_euclidean_distance_metric_properties():
    pts = [(0.0, 0.0), (1.0, 0.5), (0.25, 2.0), (3.0, 3.0)]
    for u in pts:
        for v in pts:
            d = euclidean_distance(u, v)
            assert d >= 0.0
            assert d == euclidean_distance(v, u)
            for w in pts:
                assert euclidean_distance(u, w) <= d + euclidean_distance(v, w) + 1e-12
