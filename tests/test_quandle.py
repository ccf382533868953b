"""Axioms, the default 4-element quandle, Alexander construction, JSON I/O."""

import json

import pytest
from _helpers import reference_alexander_quandle

from qcjkls.quandle import (
    S4_SPEC,
    AlexanderQuandleSpec,
    MalformedTableError,
    QuandleError,
    build_alexander_quandle,
    build_s4,
    load_quandle,
    make_quandle,
    quandle_from_json,
    save_quandle,
    verify_quandle_axioms,
)

# a*b = Ta + (1-T)b in Z_2[T]/(T^2+T+1), elements ordered 0, 1, T, T+1
S4_OP = (
    (0, 3, 1, 2),
    (2, 1, 3, 0),
    (3, 0, 2, 1),
    (1, 2, 0, 3),
)

# dihedral quandle on Z_3: a*b = 2b - a
R3_OP = tuple(tuple((2 * b - a) % 3 for b in range(3)) for a in range(3))


def test_s4_table_golden():
    q = build_s4()
    assert q.size == 4
    assert q.op == S4_OP
    assert q.labels == ("0", "1", "T", "T+1")


def test_s4_spot_values():
    q = build_s4()
    # 1 * (T+1) = T + (1-T)(T+1) = T + (1 - T^2) = T + T = 0  (T^2 = T+1)
    assert q.op[1][3] == 0
    # x * 1 == 0 has the unique solution x = T
    assert q.inv_op[0][1] == 2
    for a in range(4):
        assert q.op[a][a] == a


def test_s4_axioms_hold():
    report = verify_quandle_axioms(build_s4())
    assert report.ok
    assert report.violations == ()


def test_dihedral_r3_is_a_quandle():
    report = verify_quandle_axioms(make_quandle(R3_OP))
    assert report.ok


def test_r3_equals_alexander_mod3():
    # T = 2 in Z_3[T]/(T - 2) gives a*b = 2a - b = 2b - a (mod 3)
    q = build_alexander_quandle(AlexanderQuandleSpec(3, (-2, 1)))
    assert q.size == 3
    assert q.op == R3_OP
    assert build_alexander_quandle(AlexanderQuandleSpec(3, (1, 1))) is q  # same ring, built once


# (modulus, poly with constant term first): moduli 2-9, degrees 1-5, T invertible
TRANSLATION_RINGS = [
    (2, (1, 1, 0, 0, 1, 1)),
    (3, (2, 0, 1, 1, 1)),
    (4, (1, 1, 0, 1)),
    (4, (3, 0, 1, 1, 0, 1)),
    (5, (2, 3, 1)),
    (6, (5, 1, 1)),
    (6, (1, 4, 1)),
    (7, (3, 2, 1)),
    (8, (3, 1)),
    (8, (1, 2, 1)),
    (9, (4, 1)),
    (9, (2, 3, 1)),
]


@pytest.mark.parametrize("modulus, poly", TRANSLATION_RINGS)
def test_alexander_rows_by_translation_match_entrywise_ring_arithmetic(modulus, poly):
    spec = AlexanderQuandleSpec(modulus, poly)
    q = build_alexander_quandle(spec)
    assert q.size == modulus ** (len(spec.poly) - 1)
    assert q == reference_alexander_quandle(spec)  # op, inv_op and labels


def test_alexander_inverse_op_matches_t_inverse():
    ring = S4_SPEC.ring()
    assert ring.t_inverse() == 3  # T^-1 = T+1
    q = build_s4()
    for a in range(4):
        for b in range(4):
            assert q.op[q.inv_op[a][b]][b] == a


def test_idempotence_violations_reported():
    # columns stay bijective, so the table builds, but a*a = a+1
    shift = tuple(tuple((a + 1) % 3 for _b in range(3)) for a in range(3))
    report = verify_quandle_axioms(make_quandle(shift))
    assert not report.ok
    idem = [v for v in report.violations if v[0] == "idempotence"]
    assert len(idem) == 3
    assert any("idempotence" in line for line in report.lines())


def test_distributivity_violation_reported():
    # swapping two off-diagonal entries of one column keeps idempotence
    # and invertibility but breaks (a*b)*c = (a*c)*(b*c)
    op = [list(row) for row in R3_OP]
    op[0][1], op[2][1] = op[2][1], op[0][1]
    report = verify_quandle_axioms(make_quandle(op))
    assert not report.ok
    kinds = {v[0] for v in report.violations}
    assert kinds == {"self_distributivity"}
    assert ("self_distributivity", (0, 1, 0)) in report.violations


def test_non_bijective_column_rejected():
    with pytest.raises(QuandleError, match="not a bijection"):
        make_quandle(((0, 0), (1, 0)))


def test_malformed_tables_rejected():
    with pytest.raises(MalformedTableError):
        make_quandle(((0, 1), (1,)))
    with pytest.raises(MalformedTableError):
        make_quandle(((0, 5), (1, 0)))
    with pytest.raises(MalformedTableError):
        make_quandle(())


def test_spec_normalization_and_errors():
    assert AlexanderQuandleSpec(3, (-2, 1)).poly == (1, 1)
    assert AlexanderQuandleSpec(2, (1, 1, 1)).poly == (1, 1, 1)
    with pytest.raises(QuandleError, match="degree >= 1"):
        AlexanderQuandleSpec(3, (1,))
    with pytest.raises(QuandleError, match="not a unit"):
        AlexanderQuandleSpec(4, (1, 2))
    with pytest.raises(QuandleError, match="modulus"):
        AlexanderQuandleSpec(1, (1, 1))


def test_non_invertible_t_rejected():
    # T = -2 = 2 is a zero divisor mod 4
    with pytest.raises(QuandleError, match="not invertible"):
        build_alexander_quandle(AlexanderQuandleSpec(4, (2, 1)))


def test_ring_size_budget():
    spec = AlexanderQuandleSpec(2, (1,) + (0,) * 10 + (1,))
    with pytest.raises(QuandleError, match="table budget"):
        build_alexander_quandle(spec)


def test_ring_size_budget_is_checked_without_the_full_power():
    # 3^11 is printed; 2^(10^5) would take seconds to build and cannot be printed
    with pytest.raises(QuandleError, match="ring has 177147 elements, above the table budget 1024"):
        AlexanderQuandleSpec(3, (1,) + (0,) * 10 + (1,)).ring()
    with pytest.raises(QuandleError, match=r"ring has 2\^100000 elements, above the table budget 1024"):
        AlexanderQuandleSpec(2, (1,) + (0,) * 99999 + (1,)).ring()
    assert AlexanderQuandleSpec(2, (1,) + (0,) * 9 + (1,)).ring().size == 1024


def test_ring_element_order_little_endian():
    ring = S4_SPEC.ring()
    assert ring.elements == ((0, 0), (1, 0), (0, 1), (1, 1))
    assert [ring.label(i) for i in range(4)] == ["0", "1", "T", "T+1"]
    assert ring.index_of((0, 1)) == 2


def test_label_tuple():
    q = build_s4()
    assert q.label_tuple((0, 2, 3)) == ("0", "T", "T+1")


def test_json_round_trip(tmp_path):
    for q in (build_s4(), make_quandle(R3_OP)):
        path = tmp_path / "q.json"
        save_quandle(q, path)
        loaded = load_quandle(path)
        assert loaded.op == q.op
        assert loaded.inv_op == q.inv_op
        assert loaded.labels == q.labels
        assert loaded.content_hash() == q.content_hash()


def test_json_declared_inverse_must_match():
    doc = build_s4().to_json()
    bad = [list(row) for row in build_s4().inv_op]
    bad[0][1], bad[1][1] = bad[1][1], bad[0][1]
    doc["inv_op"] = bad
    with pytest.raises(QuandleError, match="inv_op"):
        quandle_from_json(doc)


def test_json_size_mismatch_rejected():
    doc = build_s4().to_json()
    doc["size"] = 3
    with pytest.raises(MalformedTableError):
        quandle_from_json(doc)


def test_content_hash_tracks_labels():
    a = make_quandle(R3_OP)
    b = make_quandle(R3_OP, labels=("x", "y", "z"))
    assert a.content_hash() == make_quandle(R3_OP).content_hash()
    assert a.content_hash() != b.content_hash()


def test_random_alexander_quandles_satisfy_axioms():
    # every (modulus, poly) pair with invertible T must give a quandle
    specs = [
        AlexanderQuandleSpec(2, (1, 1)),
        AlexanderQuandleSpec(2, (1, 1, 1)),
        AlexanderQuandleSpec(2, (1, 1, 0, 1)),
        AlexanderQuandleSpec(3, (1, 1)),
        AlexanderQuandleSpec(3, (2, 0, 1)),
        AlexanderQuandleSpec(5, (3, 1)),
        AlexanderQuandleSpec(5, (1, 2, 1)),
        AlexanderQuandleSpec(7, (4, 1)),
    ]
    for spec in specs:
        q = build_alexander_quandle(spec)
        assert verify_quandle_axioms(q).ok, spec


def test_save_matches_document_format(tmp_path):
    path = tmp_path / "s4.json"
    save_quandle(build_s4(), path)
    doc = json.loads(path.read_text())
    assert sorted(doc.keys()) == ["labels", "op", "size"]
    assert doc["size"] == 4
