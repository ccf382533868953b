"""The standard Z_2-valued 2-cocycle on the 4-element quandle, and checks."""

import pytest
from _helpers import twist_block_weight

import qcjkls.cocycle
import qcjkls.quandle
from qcjkls.cocycle import (
    Cocycle,
    CocycleError,
    build_s4_cocycle,
    build_trivial_cocycle,
    cocycle_from_json,
    load_cocycle,
    save_cocycle,
    verify_cocycle,
)
from qcjkls.group_algebra import build_cyclic_group
from qcjkls.quandle import build_s4, make_quandle, save_quandle

# phi(a, b) = t unless a == b or T is one of the colors (element 2 is T)
PHI_TABLE = (
    (0, 1, 0, 1),
    (1, 0, 0, 1),
    (0, 0, 0, 0),
    (1, 1, 0, 0),
)

R3_OP = tuple(tuple((2 * b - a) % 3 for b in range(3)) for a in range(3))


def test_standard_table_golden():
    c = build_s4_cocycle()
    assert c.group.order == 2
    assert c.table == PHI_TABLE


def test_standard_values():
    c = build_s4_cocycle()
    t = 1
    assert c.table[0][1] == t
    assert c.table[1][0] == t
    for a in range(4):
        assert c.table[a][a] == 0
        assert c.table[2][a] == 0
        assert c.table[a][2] == 0


def test_standard_cocycle_verifies():
    report = verify_cocycle(build_s4_cocycle())
    assert report.ok
    assert report.identity_violations == ()
    assert report.condition_violations == ()


def test_trivial_cocycles_verify():
    z2 = build_cyclic_group(2)
    assert verify_cocycle(build_trivial_cocycle(build_s4(), z2)).ok
    assert verify_cocycle(build_trivial_cocycle(make_quandle(R3_OP), build_cyclic_group(3))).ok


def test_mutated_diagonal_reported():
    c = build_s4_cocycle()
    table = [list(row) for row in c.table]
    table[0][0] = 1
    report = verify_cocycle(Cocycle(c.quandle, c.group, tuple(tuple(r) for r in table)))
    assert not report.ok
    assert 0 in report.identity_violations
    assert any("phi(0, 0)" in line for line in report.lines())


def test_mutated_entry_breaks_condition():
    c = build_s4_cocycle()
    table = [list(row) for row in c.table]
    table[0][1] = 0
    report = verify_cocycle(Cocycle(c.quandle, c.group, tuple(tuple(r) for r in table)))
    assert report.condition_violations != ()


def test_twist_block_weight_detects_unequal_pairs():
    # phi(a,b) phi(b,a*b) phi(a*b,a) accumulates to t exactly when a != b,
    # checked both against the closed pattern and the explicit product
    c = build_s4_cocycle()
    mul = c.group.mul
    op = c.quandle.op
    for a in range(4):
        for b in range(4):
            w = twist_block_weight(c, a, b)
            assert w == (0 if a == b else 1)
            ab = op[a][b]
            assert w == mul[mul[c.table[a][b]][c.table[b][ab]]][c.table[ab][a]]


def test_json_round_trip(tmp_path):
    c = build_s4_cocycle()
    path = tmp_path / "phi.json"
    save_cocycle(c, path)
    loaded = load_cocycle(path)
    assert loaded.table == c.table
    assert loaded.quandle.op == c.quandle.op
    assert loaded.group.order == 2
    assert loaded.content_hash() == c.content_hash()


def test_content_hashes_are_computed_once_per_object(monkeypatch):
    fresh = lambda: Cocycle(make_quandle(build_s4().op), build_cyclic_group(2), PHI_TABLE)
    c = fresh()
    expected = (c.quandle.content_hash(), c.content_hash())
    # a second call hashes nothing: with hashlib gone from both modules it still answers
    monkeypatch.setattr(qcjkls.quandle, "hashlib", None)
    monkeypatch.setattr(qcjkls.cocycle, "hashlib", None)
    assert (c.quandle.content_hash(), c.content_hash()) == expected
    monkeypatch.undo()
    other = fresh()
    assert other == c and (other.quandle.content_hash(), other.content_hash()) == expected


def test_json_quandle_by_relative_path(tmp_path):
    import json

    save_quandle(build_s4(), tmp_path / "s4.json")
    doc = {
        "quandle": "s4.json",
        "group_order": 2,
        "table": [list(row) for row in PHI_TABLE],
    }
    (tmp_path / "phi.json").write_text(json.dumps(doc))
    loaded = load_cocycle(tmp_path / "phi.json")
    assert loaded.table == PHI_TABLE
    assert loaded.quandle.labels == ("0", "1", "T", "T+1")


def test_json_shape_errors():
    with pytest.raises(CocycleError):
        cocycle_from_json({"group_order": 2, "table": []})
    doc = build_s4_cocycle().to_json()
    doc["table"] = doc["table"][:2]
    with pytest.raises(Exception):
        cocycle_from_json(doc)


def test_trivial_state_weights_are_identity():
    q = build_s4()
    c = build_trivial_cocycle(q, build_cyclic_group(2))
    assert all(v == 0 for row in c.table for v in row)
    assert verify_cocycle(c).ok
