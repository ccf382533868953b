"""State sum, free energy, crossing numbers, records, and the cache."""

import gc
import json
import math
import random
from dataclasses import replace
from itertools import product

import pytest
from _helpers import column_permutations, dihedral, propagate, random_word

from qcjkls import braid, cli, invariant
from qcjkls.braid import BraidWord, _scan_tuples, enumerate_colorings_affine, parse_braid
from qcjkls.cli import main
from qcjkls.cocycle import Cocycle, CocycleError, build_s4_cocycle, build_trivial_cocycle, load_cocycle, save_cocycle
from qcjkls.group_algebra import AbelianGroup, GroupAlgebraElement, build_cyclic_group
from qcjkls.invariant import (
    InvariantCache,
    InvariantRecord,
    cjkls_state_sum,
    compute_invariant,
    free_energy,
    free_energy_per_crossing,
    record_from_json,
)
from qcjkls.quandle import (
    S4_SPEC,
    AlexanderQuandleSpec,
    build_alexander_quandle,
    build_s4,
    load_quandle,
    make_quandle,
    save_quandle,
)

TREFOIL = parse_braid("B2: s1^3")
F_TREFOIL = (2 * math.log(2) / 3, (2 * math.log(2) + math.log(3)) / 3)


def test_trefoil_state_sum_golden():
    z = cjkls_state_sum(TREFOIL, build_s4(), build_s4_cocycle())
    assert z.coeffs == (4, 12)
    assert z.coefficient_sum() == 16


def test_mirror_trefoil_state_sum():
    z = cjkls_state_sum(parse_braid("B2: s1^-3"), build_s4(), build_s4_cocycle())
    assert z.coeffs == (4, 12)


def test_nested_tower_state_sum():
    z = cjkls_state_sum(parse_braid("B3: s2^-3 s1^3 s2^-3"), build_s4(), build_s4_cocycle())
    assert z.coeffs == (16, 48)


def test_trivial_cocycle_counts_colorings():
    q = build_s4()
    z = cjkls_state_sum(TREFOIL, q, build_trivial_cocycle(q, build_cyclic_group(2)))
    assert z.coeffs == (16, 0)


def test_state_sum_rejects_mismatched_quandle():
    r3 = make_quandle(tuple(tuple((2 * b - a) % 3 for b in range(3)) for a in range(3)))
    with pytest.raises(CocycleError):
        cjkls_state_sum(TREFOIL, r3, build_s4_cocycle())


def test_free_energy_extended_log():
    g = build_cyclic_group(2)
    assert free_energy(GroupAlgebraElement(g, (4, 12))) == (math.log(4), math.log(12))
    assert free_energy(GroupAlgebraElement(g, (0, 5))) == (0.0, math.log(5))
    assert free_energy(GroupAlgebraElement(g, (0, 0))) == (0.0, 0.0)


def test_free_energy_handles_big_integers():
    # exact coefficients overflow float conversion well before log does
    g = build_cyclic_group(2)
    big = 4**300
    fe = free_energy(GroupAlgebraElement(g, (big, 1)))
    assert fe[0] == pytest.approx(300 * math.log(4), rel=1e-15)
    assert fe[1] == 0.0


def test_free_energy_per_crossing():
    g = build_cyclic_group(2)
    f = free_energy_per_crossing(GroupAlgebraElement(g, (4, 12)), 3)
    assert f[0] == pytest.approx(F_TREFOIL[0], abs=1e-12)
    assert f[1] == pytest.approx(F_TREFOIL[1], abs=1e-12)
    with pytest.raises(ValueError):
        free_energy_per_crossing(GroupAlgebraElement(g, (4, 12)), 0)


def test_crossing_number_requires_reduced_alternating():
    assert invariant._derived_crossing_number(TREFOIL) == 3
    assert invariant._derived_crossing_number(parse_braid("B3: s1 s2")) is None  # not alternating
    assert invariant._derived_crossing_number(parse_braid("B2: s1")) is None  # alternating, not reduced


def test_record_validation():
    g = build_cyclic_group(2)
    z = GroupAlgebraElement(g, (4, 12))
    with pytest.raises(ValueError, match="crossing number"):
        InvariantRecord("B2: s1^3", "q", "c", z, 16, None, (1.0, 2.0))
    with pytest.raises(ValueError, match="coloring count"):
        InvariantRecord("B2: s1^3", "q", "c", z, 15, 3, None)
    with pytest.raises(ValueError, match="does not match Z"):
        InvariantRecord("B2: s1^3", "q", "c", z, 16, 3, (9.0, 9.0))
    with pytest.raises(ValueError, match="does not match Z"):
        InvariantRecord("B2: s1^3", "q", "c", z, 16, 3, None)
    with pytest.raises(ValueError, match="without a crossing number"):
        InvariantRecord("B2:", "q", "c", z, 16, 0, (0.0, 0.0))
    assert InvariantRecord("B2:", "q", "c", z, 16, 0, None).f is None


def test_record_json_round_trip():
    g = build_cyclic_group(2)
    rec = InvariantRecord("B2: s1^3", "qid", "cid", GroupAlgebraElement(g, (4, 12)), 16, 3, F_TREFOIL)
    doc = rec.to_json()
    assert doc["Z"]["coeffs"] == ["4", "12"]
    back = record_from_json(json.loads(json.dumps(doc)))
    assert back == rec

    bare = InvariantRecord("B3: s1 s2", "qid", "cid", GroupAlgebraElement(g, (4, 0)), 4, None, None)
    assert record_from_json(bare.to_json()) == bare


def test_compute_invariant_full_record():
    rec = compute_invariant(TREFOIL, build_s4(), build_s4_cocycle())
    assert rec.braid == "B2: s1^3"
    assert rec.z.coeffs == (4, 12)
    assert rec.coloring_count == 16
    assert rec.crossing_number == 3
    assert rec.f[0] == pytest.approx(F_TREFOIL[0], abs=1e-12)


def test_compute_invariant_unknown_crossing_number():
    rec = compute_invariant(parse_braid("B3: s1 s2"), build_s4(), build_s4_cocycle())
    assert rec.crossing_number is None
    assert rec.f is None


def test_compute_invariant_assumed_crossing_number():
    rec = compute_invariant(
        parse_braid("B3: s1 s2"), build_s4(), build_s4_cocycle(), assume_crossing_number=1
    )
    assert rec.crossing_number == 1
    assert rec.f is not None


def test_cache_round_trip(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = InvariantCache(path)
    assert len(cache) == 0

    q, c = build_s4(), build_s4_cocycle()
    rec1 = compute_invariant(TREFOIL, q, c, cache=cache)
    rec2 = compute_invariant(parse_braid("B2: s1^-3"), q, c, cache=cache)
    assert len(cache) == 2
    assert len(path.read_text().strip().splitlines()) == 2

    # same key hits the cache and appends nothing
    again = compute_invariant(TREFOIL, q, c, cache=cache)
    assert again == rec1
    assert len(path.read_text().strip().splitlines()) == 2

    reopened = InvariantCache(path)
    assert len(reopened) == 2
    assert reopened.lookup(rec1.braid, rec1.quandle_id, rec1.cocycle_id) == rec1
    assert reopened.lookup(rec2.braid, rec2.quandle_id, rec2.cocycle_id) == rec2
    assert reopened.lookup("B2: s1^5", rec1.quandle_id, rec1.cocycle_id) is None


def test_cache_keys_include_data_hashes(tmp_path):
    # the same braid under the trivial cocycle must not collide
    cache = InvariantCache(tmp_path / "c.jsonl")
    q = build_s4()
    rec_phi = compute_invariant(TREFOIL, q, build_s4_cocycle(), cache=cache)
    rec_triv = compute_invariant(TREFOIL, q, build_trivial_cocycle(q, build_cyclic_group(2)), cache=cache)
    assert len(cache) == 2
    assert rec_phi.z.coeffs == (4, 12)
    assert rec_triv.z.coeffs == (16, 0)


def test_state_sum_budget():
    from qcjkls.braid import BudgetExceededError

    with pytest.raises(BudgetExceededError):
        cjkls_state_sum(BraidWord(13, ()), build_s4(), build_s4_cocycle())


# ------------------------------------------- packed scan against the oracle
# _scan_tuples, the per-tuple _run_word loop, is the oracle; the name imported
# here stays unpatched when the packed_only fixture makes braid's copy refuse.


def _random_cocycle_table(rng, quandle, group):
    """Random weights, identity on the diagonal; the scan never needs the cocycle condition."""
    n = quandle.size
    return tuple(
        tuple(group.identity if a == b else rng.randrange(group.order) for b in range(n)) for a in range(n)
    )


def _random_quandle(rng, n):
    return dihedral(n) if rng.random() < 0.5 else column_permutations(rng, n)


def _reference_state_sum(word, cocycle):
    return _scan_tuples(word, cocycle.quandle, cocycle)


# Z_2 x Z_2 with the identity at index 3, so neither cyclic nor identity 0
KLEIN = AbelianGroup(
    order=4,
    mul=tuple(tuple(3 ^ ((3 ^ i) ^ (3 ^ j)) for j in range(4)) for i in range(4)),
    identity=3,
    labels=("a", "b", "c", "1"),
)


def test_packed_state_sum_matches_reference_for_group_orders_1_to_16(packed_only):
    rng = random.Random(4242)
    for order in range(1, 17):
        group = build_cyclic_group(order)
        for n in (2 + order % 4, rng.randint(2, 16)):
            quandle = _random_quandle(rng, n)
            cocycle = Cocycle(quandle, group, _random_cocycle_table(rng, quandle, group))
            strands = max(2, min(5, 14 // n.bit_length()))
            word = random_word(rng, strands, rng.randint(0, 7))
            z = cjkls_state_sum(word, quandle, cocycle)
            assert list(z.coeffs) == _reference_state_sum(word, cocycle), (order, n, word)
            assert braid._scan_packed(word, quandle, cocycle) == list(z.coeffs), (order, n, word)


def test_packed_state_sum_over_a_non_cyclic_group(packed_only):
    rng = random.Random(3)
    q = build_s4()
    cocycle = Cocycle(q, KLEIN, _random_cocycle_table(rng, q, KLEIN))
    for _ in range(5):
        word = random_word(rng, 4, 6)
        assert list(cjkls_state_sum(word, q, cocycle).coeffs) == _reference_state_sum(word, cocycle)


@pytest.mark.parametrize("chunk", [5, 16, 30])
def test_packed_state_sum_across_many_chunks(packed_only, monkeypatch, chunk):
    rng = random.Random(chunk)
    monkeypatch.setattr(braid, "CHUNK_TUPLES", chunk)
    group = build_cyclic_group(5)
    for n in (3, 4, 5):
        quandle = _random_quandle(rng, n)
        cocycle = Cocycle(quandle, group, _random_cocycle_table(rng, quandle, group))
        word = random_word(rng, 4, 6)
        assert list(cjkls_state_sum(word, quandle, cocycle).coeffs) == _reference_state_sum(word, cocycle), word


def test_packed_state_sum_at_full_chunk_size(packed_only):
    # 4^9 tuples make four chunks of 4^8; the oracle weighs only the affine colorings
    rng = random.Random(9)
    q, c = build_s4(), build_s4_cocycle()
    for _ in range(2):
        word = random_word(rng, 9, 12)
        coeffs = [0] * c.group.order
        for top in enumerate_colorings_affine(word, S4_SPEC):
            coeffs[propagate(word, q, c, top).weight] += 1
        assert list(cjkls_state_sum(word, q, c).coeffs) == coeffs


def test_packed_state_sum_long_runs(packed_only):
    rng = random.Random(5)
    quandle = _random_quandle(rng, 6)
    group = build_cyclic_group(7)
    cocycle = Cocycle(quandle, group, _random_cocycle_table(rng, quandle, group))
    for text in ("B3: s1^40 s2^-25 s1^-7", "B4: s3^12 s1^-33 s2^2 s3^-1", "B2: s1^-64"):
        word = parse_braid(text)
        expected = _reference_state_sum(word, cocycle)
        assert braid._scan_packed(word, quandle, cocycle) == expected, text
        assert list(cjkls_state_sum(word, quandle, cocycle).coeffs) == expected, text


def test_packed_state_sum_empty_word(packed_only):
    assert braid._scan_packed(BraidWord(3, ()), build_s4(), build_s4_cocycle()) == [64, 0]
    z = cjkls_state_sum(BraidWord(3, ()), build_s4(), build_s4_cocycle())
    assert z.coeffs == (64, 0)


# ------------------------------------------ byte-state scan against the oracle


def _scan_case(seed, q, group):
    rng = random.Random(seed)
    quandle = _random_quandle(rng, q)
    return rng, quandle, Cocycle(quandle, group, _random_cocycle_table(rng, quandle, group))


def _assert_scans_agree(word, quandle, cocycle):
    """Both byte scans equal the per-tuple oracle, with and without weights."""
    expected = _reference_state_sum(word, cocycle)
    assert braid._scan_states(word, quandle, cocycle) == expected, word
    assert braid._scan_packed(word, quandle, cocycle) == expected, word
    colorings = _scan_tuples(word, quandle, None)
    assert braid._scan_states(word, quandle, None) == colorings, word
    assert braid._scan_packed(word, quandle, None) == colorings, word


@pytest.mark.parametrize("q, strands, order", [(4, 3, 4), (2, 7, 2), (16, 2, 1)])
def test_byte_states_at_the_256_state_boundary(q, strands, order):
    rng, quandle, cocycle = _scan_case(q * 100 + strands * 10 + order, q, build_cyclic_group(order))
    for _ in range(4):
        _assert_scans_agree(random_word(rng, strands, rng.randint(1, 8), longest=4), quandle, cocycle)


@pytest.mark.parametrize(
    "q, strands, order, path",
    [
        (4, 3, 4, "_scan_states"), (4, 3, 5, "_scan_packed"),
        (2, 7, 2, "_scan_states"), (2, 7, 3, "_scan_packed"), (2, 8, 2, "_scan_packed"),
        (16, 2, 1, "_scan_states"), (16, 2, 2, "_scan_packed"), (3, 5, 1, "_scan_states"), (3, 6, 1, "_scan_packed"),
    ],
)
def test_scan_path_follows_the_state_count(monkeypatch, q, strands, order, path):
    used = []
    for name in ("_scan_states", "_scan_packed"):
        original = getattr(braid, name)
        monkeypatch.setattr(braid, name, lambda *args, name=name, original=original: used.append(name) or original(*args))
    rng, quandle, cocycle = _scan_case(7, q, build_cyclic_group(order))
    word = random_word(rng, strands, 5)
    assert list(cjkls_state_sum(word, quandle, cocycle).coeffs) == _reference_state_sum(word, cocycle)
    assert used == [path]


def test_byte_states_over_a_non_cyclic_group():
    rng, quandle, cocycle = _scan_case(12, 4, KLEIN)
    for strands in (2, 3):
        for _ in range(4):
            _assert_scans_agree(random_word(rng, strands, 6), quandle, cocycle)


def test_byte_states_empty_word():
    _, quandle, cocycle = _scan_case(13, 5, build_cyclic_group(2))
    _assert_scans_agree(BraidWord(3, ()), quandle, cocycle)
    assert braid._scan_states(BraidWord(3, ()), quandle, cocycle) == [125, 0]


def test_scans_leave_no_reference_cycles():
    # the run-table memo of a scan is freed by reference counting, not left for the cyclic collector
    q, c = build_s4(), build_s4_cocycle()
    gc.collect()
    gc.disable()
    try:
        for text in ("B3: s1^5 s2^-7 s1^3", "B4: s1^5 s2^-7 s3^3 s1"):  # byte-state and packed
            cjkls_state_sum(parse_braid(text), q, c)
            braid.enumerate_colorings(parse_braid(text), q)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("k", [1, 2, 3, 64, 65])
def test_byte_states_compose_long_runs(k):
    # runs of k are built by doubling: 64 = 2^6 and 65 = 2^6 + 1 take every branch
    _, quandle, cocycle = _scan_case(k, 6, build_cyclic_group(7))  # 2 strands: 252 states
    for text in (f"B2: s1^{k}", f"B2: s1^-{k}", f"B2: s1^{k} s1^-1 s1^3"):
        _assert_scans_agree(parse_braid(text), quandle, cocycle)
    for q, order in ((4, 4), (3, 9)):  # 256 and 243 states
        _, quandle, cocycle = _scan_case(k, q, build_cyclic_group(order))
        for text in (f"B3: s2^-{k} s1^{k} s2^{k}", f"B3: s1^{k} s2 s1^-{k} s2^-3"):
            _assert_scans_agree(parse_braid(text), quandle, cocycle)


def test_state_sum_falls_back_above_16(monkeypatch):
    def refuse(*args):
        raise AssertionError("packed scan used beyond 16 elements")

    monkeypatch.setattr(braid, "_scan_packed", refuse)
    monkeypatch.setattr(braid, "_scan_states", refuse)
    rng = random.Random(17)
    group = build_cyclic_group(17)
    for quandle, strands in ((build_s4(), 4), (build_alexander_quandle(AlexanderQuandleSpec(17, (1, 1))), 3)):
        cocycle = Cocycle(quandle, group, _random_cocycle_table(rng, quandle, group))
        word = random_word(rng, strands, 4)
        assert list(cjkls_state_sum(word, quandle, cocycle).coeffs) == _reference_state_sum(word, cocycle), word


def test_the_per_tuple_scan_matches_the_letter_by_letter_oracle_above_16():
    # _scan_tuples walks runs through _run_word, which also builds the single-letter tables the
    # byte-state and packed scans read; propagate walks the letters by a loop of its own.  Runs
    # of 1 to 50 letters over the dihedral quandle on Z_17 and over Z_5[T]/(T^2+2), weighed by a
    # coboundary, by a random table and by the trivial cocycle.
    rng = random.Random(37)
    nontrivial = set()
    for spec, runs in ((AlexanderQuandleSpec(17, (1, 1)), 4), (AlexanderQuandleSpec(5, (2, 0, 1)), 2)):
        quandle, group = build_alexander_quandle(spec), build_cyclic_group(spec.modulus)
        g = [rng.randrange(group.order) for _ in range(quandle.size)]
        coboundary = tuple(tuple((g[a] - g[b]) % group.order for b in quandle.op[a]) for a in range(quandle.size))
        cocycles = [Cocycle(quandle, group, table) for table in (coboundary, _random_cocycle_table(rng, quandle, group))]
        trivial = build_trivial_cocycle(quandle, group)
        for strands in (2, 3):
            word = parse_braid(f"B{strands}: s1^50 " + " ".join(
                f"s{rng.randint(1, strands - 1)}^{rng.choice((1, -1)) * rng.randint(1, 50)}" for _ in range(runs)
            ) + " s1^-1")
            for cocycle in cocycles:
                colorings, coeffs = [], [0] * group.order
                for top in product(range(quandle.size), repeat=strands):
                    trace = propagate(word, quandle, cocycle, top)
                    if trace.bottom == top:
                        colorings.append(top)
                        coeffs[trace.weight] += 1
                assert _scan_tuples(word, quandle, cocycle) == coeffs, (spec, word)
            assert _scan_tuples(word, quandle, None) == colorings, (spec, word)
            assert _scan_tuples(word, quandle, trivial) == [len(colorings)] + [0] * (group.order - 1), (spec, word)
            if len(colorings) > quandle.size:
                nontrivial.add(spec)
    assert len(nontrivial) == 2  # each quandle colors some word beyond the constant colorings


# ------------------------------------------------ orbit scan against the oracle
# The packed scan steps one prefix of the leading lanes per orbit of braid._orbits;
# _scan_tuples, the per-tuple loop, scans every tuple.


def _coboundary(rng, quandle, group):
    """phi(a, b) = f(a) f(a*b)^-1 for a random f: a cocycle of every quandle."""
    f = [rng.randrange(group.order) for _ in range(quandle.size)]
    inverse = group.inverse_table
    return Cocycle(quandle, group, tuple(tuple(group.mul[f[a]][inverse[f[row[b]]]] for b in range(quandle.size)) for a, row in enumerate(quandle.op)))


def _orbit_reps(quandle, cocycle, width=1):
    """The representative of each prefix of ``width`` lanes, in prefix order."""
    orbits = braid._orbits(braid.ScanTables(quandle, cocycle), width)
    return [rep for _, rep in sorted((x, rep) for rep, orbit in orbits.members.items() for x, _ in orbit)]


def _assert_orbit_scan_exact(rng, quandle, cocycles, strands, words=4):
    """_scan equals the oracle with no cocycle and with each cocycle, on packed-path words."""
    for _ in range(words):
        word = random_word(rng, rng.choice(strands), rng.randint(1, 8), longest=rng.choice((1, 3)))
        assert braid._scan(word, quandle, None, 10**9) == _scan_tuples(word, quandle, None), word
        for cocycle in cocycles:
            assert braid._scan(word, quandle, cocycle, 10**9) == _reference_state_sum(word, cocycle), word


Z3_T2_MINUS_1 = AlexanderQuandleSpec(3, (-1, 0, 1))  # Z_3[T]/(T^2 - 1): not connected


@pytest.mark.parametrize(
    "name, reps",
    [
        ("s4", [0, 0, 0, 0]),
        ("dihedral 3", [0, 0, 0]),
        ("dihedral 5", [0] * 5),
        ("dihedral 4", [0, 1, 0, 1]),
        ("Z_3[T]/(T^2-1)", [0, 1, 2, 1, 2, 0, 2, 0, 1]),
        ("trivial 3", [0, 1, 2]),
    ],
)
def test_orbit_scan_matches_reference_on_quandles(packed_only, name, reps):
    quandle = {
        "s4": build_s4(),
        "dihedral 3": dihedral(3),
        "dihedral 5": dihedral(5),
        "dihedral 4": dihedral(4),
        "Z_3[T]/(T^2-1)": build_alexander_quandle(Z3_T2_MINUS_1),
        "trivial 3": make_quandle(((0, 0, 0), (1, 1, 1), (2, 2, 2))),
    }[name]
    rng = random.Random(name)
    q = quandle.size
    cocycles = [_coboundary(rng, quandle, build_cyclic_group(order)) for order in (2, 3, 4)]
    cocycles.append(Cocycle(quandle, build_cyclic_group(3), _random_cocycle_table(rng, quandle, build_cyclic_group(3))))
    assert _orbit_reps(quandle, None) == reps
    assert all(_orbit_reps(quandle, cocycle) == reps for cocycle in cocycles[:3])
    assert _orbit_reps(quandle, cocycles[3]) == list(range(q))  # no R_a keeps a random table's weights
    _assert_orbit_scan_exact(rng, quandle, cocycles, [s for s in range(3, 8) if 256 < q**s <= 4096])


def test_orbit_scan_with_the_standard_cocycle(packed_only):
    q, c = build_s4(), build_s4_cocycle()
    assert _orbit_reps(q, c) == [0, 0, 0, 0]
    _assert_orbit_scan_exact(random.Random(44), q, [c], [4, 5, 6], words=6)


def test_orbit_scan_on_tables_that_are_no_quandles(packed_only):
    rng = random.Random(8)
    for n in (3, 4, 5, 6):
        quandle = column_permutations(rng, n)
        group = build_cyclic_group(rng.randint(2, 5))
        cocycles = [_coboundary(rng, quandle, group), Cocycle(quandle, group, _random_cocycle_table(rng, quandle, group))]
        _assert_orbit_scan_exact(rng, quandle, cocycles, [s for s in range(3, 8) if 256 < n**s <= 4096])


def test_orbit_scan_over_klein(packed_only):
    # the Klein group's identity is index 3, so every weight column starts at 3, not 0
    rng = random.Random(4)
    q = build_s4()
    cocycles = [_coboundary(rng, q, KLEIN), Cocycle(q, KLEIN, _random_cocycle_table(rng, q, KLEIN))]
    assert _orbit_reps(q, cocycles[0]) == [0, 0, 0, 0]
    _assert_orbit_scan_exact(rng, q, cocycles, [5, 6], words=6)


def test_prefix_orbit_counts_follow_burnside():
    # the default quandle's translations generate A_4: its 8 three-cycles fix one color, so one
    # prefix each, and its 3 double transpositions none, so (4^L + 8) / 12 orbits by Burnside's lemma
    q, c = build_s4(), build_s4_cocycle()
    for tables in (braid.ScanTables(q, None), braid.ScanTables(q, c)):
        counts = []
        for width in range(1, 5):
            orbits = braid._orbits(tables, width)
            assert sum(orbits.size.values()) == len(orbits.prefixes) == 4**width
            assert _orbit_reps(q, tables.cocycle, width).count(0) == orbits.size[0] == len(orbits.members[0])
            counts.append(len(orbits.size))
        assert counts == [1, 2, 6, 22] == [(4**width + 8) // 12 for width in range(1, 5)]
    for quandle, width, count in [
        (build_alexander_quandle(AlexanderQuandleSpec(5, (3, 1))), 3, 7),
        (dihedral(3), 5, 41),
        (build_alexander_quandle(AlexanderQuandleSpec(4, (1, 1))), 4, 72),
    ]:
        orbits = braid._orbits(braid.ScanTables(quandle, None), width)
        assert braid._prefix_width(quandle.size, 10) == width
        assert len(orbits.size) == count and sum(orbits.size.values()) == quandle.size**width


def test_prefix_moves_map_each_prefix_from_its_representative():
    q = build_alexander_quandle(Z3_T2_MINUS_1)
    orbits = braid._orbits(braid.ScanTables(q, None), 2)
    assert sorted(x for orbit in orbits.members.values() for x, _ in orbit) == list(range(81))
    for rep, orbit in orbits.members.items():
        assert orbit[0] == (rep, braid._IDENTITY)
        for x, move in orbit:
            assert rep <= x and bytes(orbits.prefixes[rep]).translate(move) == bytes(orbits.prefixes[x])


@pytest.mark.parametrize("chunk", [3, 7, braid.CHUNK_TUPLES])
def test_prefix_scan_is_exact_at_every_width(monkeypatch, chunk):
    # STATES_MAX decides the prefix width; each value below reaches one width from 1 to s.
    # The packed scan is called directly, since _scan sends small state counts elsewhere.
    monkeypatch.setattr(braid, "CHUNK_TUPLES", chunk)
    rng = random.Random(chunk)
    quandles = [
        build_s4(), dihedral(3), dihedral(4), dihedral(5), build_alexander_quandle(Z3_T2_MINUS_1),
        make_quandle(((0, 0, 0), (1, 1, 1), (2, 2, 2))),
    ]
    for quandle in quandles:
        q = quandle.size
        s = 3 if q > 5 else 4
        groups = [build_cyclic_group(2), KLEIN]
        cocycles = [_coboundary(rng, quandle, group) for group in groups]
        # random weights keep no translation: every prefix is its own orbit
        cocycles += [Cocycle(quandle, group, _random_cocycle_table(rng, quandle, group)) for group in groups]
        cocycles.append(build_trivial_cocycle(quandle, build_cyclic_group(3)))  # every weight is the identity
        cocycles.append(build_trivial_cocycle(quandle, KLEIN))  # likewise, at an identity that is not index 0
        words = [random_word(rng, s, rng.randint(1, 6), longest=rng.choice((1, 3))) for _ in range(2)]
        for width in range(1, s + 1):
            monkeypatch.setattr(braid, "STATES_MAX", q**width)
            assert braid._prefix_width(q, s) == width
            for word in words:
                assert braid._scan_packed(word, quandle, None) == _scan_tuples(word, quandle, None), (width, word)
                for cocycle in cocycles:
                    assert braid._scan_packed(word, quandle, cocycle) == _reference_state_sum(word, cocycle), (width, word)


def _stepped_prefixes(monkeypatch, width):
    """Record, for every chunk the packed scan steps, its tuple count and the prefixes of its blocks."""
    seen = []
    original = braid._push

    def recorded(steps, lanes, n, tables):
        top = [lane.to_bytes(n, "little") for lane in lanes[:width]]
        seen.append((n, sorted(set(zip(*top)))))
        return original(steps, lanes, n, tables)

    monkeypatch.setattr(braid, "_push", recorded)
    return seen


def test_orbit_scan_steps_one_prefix_per_orbit_of_a_connected_quandle(monkeypatch):
    # 8 strands over the default quandle: the first 4 lanes are reduced by orbits, 22 of 256
    # prefixes, and each representative's block of 4^4 tuples shares one chunk
    seen = _stepped_prefixes(monkeypatch, 4)
    q, c = build_s4(), build_s4_cocycle()
    orbits = braid._orbits(braid.ScanTables(q, c), 4)
    reps = sorted(orbits.prefixes[rep] for rep in orbits.size)
    word = parse_braid("B8: s1 s2^-1 s3 s4^-1 s5 s6^-1 s7 s1^2 s4 s7^-2")
    assert list(cjkls_state_sum(word, q, c).coeffs) == _reference_state_sum(word, c)
    assert seen == [(22 * 4**4, reps)]
    seen.clear()
    assert braid.enumerate_colorings(word, q) == _scan_tuples(word, q, None)
    assert seen == [(22 * 4**4, reps)]  # few colorings: the rest are mapped
    seen.clear()
    assert braid._scan_packed(word, q, c) == _reference_state_sum(word, c)
    assert [n for n, _ in seen] == [22 * 4**4]  # called directly too


def test_a_four_strand_state_sum_steps_one_tuple_per_orbit(monkeypatch):
    # 2 x 4^4 colored states do not fit a byte, so the packed scan runs, on the 22 orbits of tuples
    seen = _stepped_prefixes(monkeypatch, 4)
    q, c = build_s4(), build_s4_cocycle()
    word = parse_braid("B4: s1 s2^-1 s3 s1^5")
    assert braid._scan(word, q, c, 10**9) == _reference_state_sum(word, c)
    assert [n for n, _ in seen] == [22]


def test_dense_colorings_are_scanned_not_mapped(monkeypatch):
    # sigma^3 fixes every pair over S4: every tuple colors, so mapping would cost more than scanning
    seen = _stepped_prefixes(monkeypatch, 4)
    q = build_s4()
    orbits = braid._orbits(braid.ScanTables(q, None), 4)
    reps = sorted(orbits.prefixes[rep] for rep in orbits.size)
    members = sorted(set(orbits.prefixes) - set(reps))
    word = parse_braid("B7: s1^3 s2^-3 s3^3 s4^-3 s5^3 s6^-3 s1 s1^-1")
    assert braid.enumerate_colorings(word, q) == _scan_tuples(word, q, None) == list(product(range(4), repeat=7))
    assert seen == [(22 * 4**3, reps), (234 * 4**3, members)]
    seen.clear()
    sparse = parse_braid("B7: s1^3 s2^-3 s3^3 s4^-3 s5^3 s6^-3 s1 s2 s1 s4 s5 s4")
    colorings = braid.enumerate_colorings(sparse, q)
    assert colorings == _scan_tuples(sparse, q, None) and len(colorings) == 64
    assert seen == [(22 * 4**3, reps)]


# ---------------------------------------------------------- scan table memos
# _scan_tables, _compiled_run and _state_table keep the tables of recent pairs and runs;
# each test clears them first, so it does not depend on which scans ran before it.
_SCAN_MEMOS = (braid._scan_tables, braid._compiled_run, braid._state_table)


def _clear_scan_memos():
    for memo in _SCAN_MEMOS:
        memo.cache_clear()


def test_a_loaded_pair_shares_the_tables_of_the_built_in_pair(tmp_path):
    _clear_scan_memos()
    q, c = build_s4(), build_s4_cocycle()
    save_quandle(q, tmp_path / "q.json")
    save_cocycle(c, tmp_path / "c.json")
    loaded_q, loaded_c = load_quandle(tmp_path / "q.json"), load_cocycle(tmp_path / "c.json")
    assert (loaded_q, loaded_c) == (q, c) and loaded_c is not c
    assert braid._scan_tables(loaded_q, loaded_c) is braid._scan_tables(q, c)
    assert braid._scan_tables.cache_info().currsize == 1


def test_a_second_invariant_command_builds_no_run_tables(capsys, monkeypatch):
    _clear_scan_memos()
    monkeypatch.delenv("QCJKLS_CACHE", raising=False)
    calls = []
    original = braid._run_word

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(braid, "_run_word", counted)
    assert main(["invariant", "B4: s1 s2^-1 s3 s1^5"]) == 0
    assert calls  # the first command builds the single-letter tables of the default pair
    calls.clear()
    assert main(["invariant", "B3: s1^2 s2^-7 s1"]) == 0
    assert calls == []
    capsys.readouterr()


@pytest.fixture
def parsed_words(monkeypatch):
    """The words the CLI parses, in order, kept after each command."""
    monkeypatch.delenv("QCJKLS_CACHE", raising=False)
    words = []

    def parse(text):
        words.append(parse_braid(text))
        return words[-1]

    monkeypatch.setattr(cli, "parse_braid", parse)
    return words


def test_the_invariant_command_builds_no_letters(capsys, parsed_words, tmp_path):
    # the byte-state scan (3 strands), the packed scan (5 strands), both closure checks, the
    # crossing count, the canonical text and a cache miss and hit all read the runs alone
    _clear_scan_memos()
    cache = str(tmp_path / "cache.jsonl")
    for text in ("B3: s1^2 s2^-7 s1", "s1 s1^2 s2^-1 s2^-2", "B5: s1^3 s2^-3 s3^3 s4^-3 s1"):
        for extra in (["--format", "json"], ["--format", "csv"], ["--cache", cache], ["--cache", cache]):
            assert main(["invariant", text, *extra]) == 0
    assert len(parsed_words) == 12
    assert all("letters" not in word.__dict__ for word in parsed_words)
    assert parsed_words[-1].letters[:4] == (1, 1, 1, -2)  # still built on request
    capsys.readouterr()


def test_commands_over_quandles_above_16_build_no_letters(capsys, parsed_words, tmp_path):
    # the per-tuple scan of invariant and colorings over a 17-element quandle file, and the
    # affine push over Z_17[T]/(T+3), walk the runs too
    path = str(tmp_path / "q17.json")
    save_quandle(build_alexander_quandle(AlexanderQuandleSpec(17, (1, 1))), path)
    text = "B3: s1^20 s2^-17 s1 s2^3"
    for argv in (["invariant", "--quandle", path], ["colorings", "--quandle", path], ["colorings", "--affine", "--mod", "17", "--poly", "T+3"]):
        assert main([argv[0], text, *argv[1:], "--format", "json"]) == 0, argv
    assert len(parsed_words) == 3
    assert all("letters" not in word.__dict__ for word in parsed_words)
    capsys.readouterr()


def test_a_second_invariant_command_builds_no_state_table(capsys, monkeypatch):
    _clear_scan_memos()
    monkeypatch.delenv("QCJKLS_CACHE", raising=False)
    assert main(["invariant", "B3: s1^2 s2^-7 s1"]) == 0
    built = braid._state_table.cache_info().misses
    assert built == 3  # the byte-state scan of 2 * 4^3 colored states, one table per distinct run
    assert main(["invariant", "B3: s1 s2^-7 s1^2 s2^-7"]) == 0  # the same runs in another order
    assert main(["invariant", "B3: s1^2 s2^-7 s1"]) == 0
    assert braid._state_table.cache_info().misses == built
    capsys.readouterr()


def test_memoized_run_tables_equal_fresh_builds():
    _clear_scan_memos()
    rng = random.Random(77)
    q, group = build_s4(), build_cyclic_group(2)
    pairs = [(q, None), (q, build_s4_cocycle()), (q, Cocycle(q, group, _random_cocycle_table(rng, q, group)))]
    for quandle, cocycle in pairs:
        tables = braid._scan_tables(quandle, cocycle)
        for strands, letter, k in [(2, 1, 1), (3, -2, 5), (3, 1, 3), (4, 3, 2), (4, -1, 13)]:
            if (2 if cocycle else 1) * 4**strands <= braid.STATES_MAX:
                memoized = braid._state_table(tables, strands, letter, k)
                assert braid._state_table(tables, strands, letter, k) is memoized
                assert memoized == braid._state_table.__wrapped__(tables, strands, letter, k)
            sign = 1 if letter > 0 else -1
            step = braid._compiled_run(tables, sign, k)
            assert braid._compiled_run(tables, sign, k) is step
            assert step == braid._compiled_run.__wrapped__(tables, sign, k)
    # the memos hold what a scan with nothing memoized computes
    word = parse_braid("B3: s2^-5 s1^3 s2^-5 s1")
    memoized = [braid._scan_states(word, q, cocycle) for _, cocycle in pairs]
    _clear_scan_memos()
    assert [braid._scan_states(word, q, cocycle) for _, cocycle in pairs] == memoized
    assert memoized == [_scan_tuples(word, q, cocycle) for _, cocycle in pairs]


def test_run_memos_keep_more_than_128_runs():
    # an LRU memo under cyclic access past its bound misses every time: 300 distinct runs,
    # computed twice, must each miss exactly once
    _clear_scan_memos()
    tables = braid._scan_tables(build_s4(), build_s4_cocycle())
    runs = [(letter, k) for k in range(1, 151) for letter in (1, -2)]
    memos = {
        braid._compiled_run: lambda letter, k: braid._compiled_run(tables, 1 if letter > 0 else -1, k),
        braid._state_table: lambda letter, k: braid._state_table(tables, 3, letter, k),
    }
    for memo, compute in memos.items():
        for expected_misses in (len(runs), 0):
            before = memo.cache_info().misses
            for letter, k in runs:
                compute(letter, k)
            assert memo.cache_info().misses - before == expected_misses, memo


def test_scan_memos_stay_bounded():
    # 2000 words with distinct exponents over 200 distinct pairs: more than any memo keeps.
    # The 3-strand words take the byte-state scan, the 5-strand ones the packed scan.
    _clear_scan_memos()
    rng = random.Random(1000)
    q, group = build_s4(), build_cyclic_group(2)
    cocycles = [Cocycle(q, group, _random_cocycle_table(rng, q, group)) for _ in range(200)]
    for k in range(1, 1001):
        cjkls_state_sum(parse_braid(f"B3: s1^{k} s2^-{k + 1}"), q, cocycles[k % 200])
        cjkls_state_sum(parse_braid(f"B5: s1^{k} s4^-{k + 1}"), q, cocycles[k % 200])
    for memo in _SCAN_MEMOS:
        info = memo.cache_info()
        assert info.currsize <= info.maxsize < info.misses, (memo, info)
    # tables and runs that were dropped are rebuilt exactly
    for word in (parse_braid("B3: s1^7 s2^-9 s1^-2"), parse_braid("B5: s1^7 s4^-9 s2^-2 s3")):
        assert braid._scan(word, q, cocycles[1], 10**9) == _scan_tuples(word, q, cocycles[1])


# ---------------------------------------------------------- cache robustness


def test_cache_is_bypassed_for_a_non_cyclic_group(tmp_path):
    # Z_2 with its identity at index 1 under the cyclic labels: the key
    # matches the cyclic cocycle with the same table, and a cached Z would
    # come back over the cyclic group
    flipped = AbelianGroup(order=2, mul=((1, 0), (0, 1)), identity=1, labels=("1", "t"))
    q, standard = build_s4(), build_s4_cocycle()
    cocycle = Cocycle(q, flipped, tuple(tuple(1 - v for v in row) for row in standard.table))
    assert cocycle.content_hash() == Cocycle(q, build_cyclic_group(2), cocycle.table).content_hash()
    uncached = compute_invariant(TREFOIL, q, cocycle)
    path = tmp_path / "c.jsonl"
    for _ in range(2):
        assert compute_invariant(TREFOIL, q, cocycle, cache=InvariantCache(path)) == uncached
    assert not path.exists()


def test_assumed_run_stores_the_plain_record(tmp_path):
    path = tmp_path / "c.jsonl"
    q, c = build_s4(), build_s4_cocycle()
    assumed = compute_invariant(TREFOIL, q, c, assume_crossing_number=7, cache=InvariantCache(path))
    assert assumed.crossing_number == 7
    assert assumed.f == free_energy_per_crossing(assumed.z, 7)
    cache = InvariantCache(path)
    plain = cache.lookup(assumed.braid, assumed.quandle_id, assumed.cocycle_id)
    assert (plain.crossing_number, plain.f) == (3, F_TREFOIL)
    assert path.read_text() == json.dumps(plain.to_json(), sort_keys=True) + "\n"
    assert compute_invariant(TREFOIL, q, c, cache=cache) == plain
    assert compute_invariant(TREFOIL, q, c, assume_crossing_number=7, cache=cache) == assumed
    assert len(path.read_text().splitlines()) == 1


def test_cache_assumption_that_agrees_shares_the_plain_record(tmp_path):
    path = tmp_path / "c.jsonl"
    q, c = build_s4(), build_s4_cocycle()
    agreeing = compute_invariant(TREFOIL, q, c, assume_crossing_number=3, cache=InvariantCache(path))
    assert path.read_text() == json.dumps(agreeing.to_json(), sort_keys=True) + "\n"
    cache = InvariantCache(path)
    assert compute_invariant(TREFOIL, q, c, cache=cache) == agreeing
    assert compute_invariant(TREFOIL, q, c, assume_crossing_number=3, cache=cache) == agreeing
    assert compute_invariant(TREFOIL, q, c, assume_crossing_number=5, cache=cache).crossing_number == 5
    # a differing assumption is applied on read and adds no line
    assert len(path.read_text().splitlines()) == 1


def test_legacy_assumed_line_is_skipped(tmp_path):
    # older versions filed a record under an assumed crossing number with this extra field
    path = tmp_path / "c.jsonl"
    q, c = build_s4(), build_s4_cocycle()
    legacy = compute_invariant(TREFOIL, q, c, assume_crossing_number=7)
    path.write_text(json.dumps({**legacy.to_json(), "assumed_crossing_number": 7}, sort_keys=True) + "\n")
    cache = InvariantCache(path)
    assert (len(cache), cache.skipped) == (0, 1)
    assert cache.lookup(legacy.braid, legacy.quandle_id, legacy.cocycle_id) is None
    plain = compute_invariant(TREFOIL, q, c, cache=cache)
    assert (plain.crossing_number, plain.f) == (3, F_TREFOIL)
    again = InvariantCache(path)
    assert (len(again), again.skipped) == (1, 1)
    assert again.lookup(plain.braid, plain.quandle_id, plain.cocycle_id) == plain


def test_cached_and_uncached_records_agree_under_any_assumption(tmp_path):
    q, c = build_s4(), build_s4_cocycle()
    rng = random.Random(41)
    for k in range(60):
        word = random_word(rng, rng.randint(2, 4), rng.randint(1, 5))
        plain = compute_invariant(word, q, c)
        shared = tmp_path / f"{k}.jsonl"
        for assumed in (None, plain.crossing_number, (plain.crossing_number or len(word.letters)) + 1):
            uncached = compute_invariant(word, q, c, assume_crossing_number=assumed)
            own = tmp_path / f"{k}-{assumed}.jsonl"
            cold = compute_invariant(word, q, c, assume_crossing_number=assumed, cache=InvariantCache(own))
            warm = compute_invariant(word, q, c, assume_crossing_number=assumed, cache=InvariantCache(own))
            # the shared file was written under the first assumption only
            shared_hit = compute_invariant(word, q, c, assume_crossing_number=assumed, cache=InvariantCache(shared))
            assert cold == warm == shared_hit == uncached, (word, assumed)
            assert uncached.crossing_number == (plain.crossing_number if assumed is None else assumed)
            assert own.read_text() == shared.read_text() == json.dumps(plain.to_json(), sort_keys=True) + "\n"


def test_compute_invariant_checks_the_diagram_once(tmp_path, monkeypatch):
    calls = []
    derive = invariant._derived_crossing_number
    monkeypatch.setattr(invariant, "_derived_crossing_number", lambda w: calls.append(w) or derive(w))
    q, c = build_s4(), build_s4_cocycle()
    cache = InvariantCache(tmp_path / "c.jsonl")
    assert compute_invariant(TREFOIL, q, c, assume_crossing_number=3, cache=cache).crossing_number == 3
    assert len(calls) == 1
    assert compute_invariant(TREFOIL, q, c, assume_crossing_number=5, cache=cache).crossing_number == 5
    assert len(calls) == 1


@pytest.mark.parametrize("assumed", [0, -3])
def test_compute_invariant_rejects_assumption_below_1(assumed):
    with pytest.raises(ValueError, match="assumed crossing number must be >= 1"):
        compute_invariant(TREFOIL, build_s4(), build_s4_cocycle(), assume_crossing_number=assumed)


def test_cache_skips_torn_and_foreign_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    q, c = build_s4(), build_s4_cocycle()
    cache = InvariantCache(path)
    rec = compute_invariant(TREFOIL, q, c, cache=cache)
    whole = path.read_text()
    path.write_text(whole + "[1, 2]\n" + "not json\n" + whole[: len(whole) // 2])  # torn last line
    reopened = InvariantCache(path)
    assert len(reopened) == 1
    assert reopened.skipped == 3
    assert reopened.lookup(rec.braid, rec.quandle_id, rec.cocycle_id) == rec

    # a record stored after the torn line starts on its own line
    mirror_rec = compute_invariant(parse_braid("B2: s1^-3"), q, c, cache=reopened)
    again = InvariantCache(path)
    assert len(again) == 2
    assert again.skipped == 3
    assert again.lookup(mirror_rec.braid, mirror_rec.quandle_id, mirror_rec.cocycle_id) == mirror_rec


def test_cache_skips_undecodable_bytes(tmp_path):
    path = tmp_path / "c.jsonl"
    q, c = build_s4(), build_s4_cocycle()
    cache = InvariantCache(path)
    words = [parse_braid(t) for t in ("B2: s1^3", "B2: s1^-3", "B3: s1 s2^-1 s1 s2^-1")]
    recs = [compute_invariant(w, q, c, cache=cache) for w in words]
    lines = path.read_bytes().splitlines(keepends=True)

    # an invalid byte in the middle line loses that line only
    path.write_bytes(lines[0] + b"{\xff" + lines[1][1:] + lines[2])
    middle = InvariantCache(path)
    assert (len(middle), middle.skipped) == (2, 1)
    assert middle.lookup(recs[2].braid, recs[2].quandle_id, recs[2].cocycle_id) == recs[2]

    # a file that ends inside a UTF-8 sequence loads, and the next record starts a new line
    path.write_bytes(b"".join(lines[:2]) + b"\xc3")
    tail = InvariantCache(path)
    assert (len(tail), tail.skipped) == (2, 1)
    compute_invariant(words[2], q, c, cache=tail)
    again = InvariantCache(path)
    assert (len(again), again.skipped) == (3, 1)
    assert again.lookup(recs[2].braid, recs[2].quandle_id, recs[2].cocycle_id) == recs[2]


# ------------------------------------------------------- checked, lazy lookup


def _trefoil_line(**fields) -> str:
    """The trefoil's cache line under the default cocycle, with some fields replaced."""
    plain = compute_invariant(TREFOIL, build_s4(), build_s4_cocycle())
    return json.dumps({**plain.to_json(), **fields}, sort_keys=True) + "\n"


def _superseded(path, line):
    """Serve ``line`` from a cache file and check that compute_invariant
    recomputes the record and appends a line that the next open returns."""
    q, c = build_s4(), build_s4_cocycle()
    path.write_text(line)
    uncached = compute_invariant(TREFOIL, q, c)
    assert compute_invariant(TREFOIL, q, c, cache=InvariantCache(path)) == uncached
    assert path.read_text() == line + json.dumps(uncached.to_json(), sort_keys=True) + "\n"
    again = InvariantCache(path)
    assert again.lookup(uncached.braid, uncached.quandle_id, uncached.cocycle_id) == uncached
    assert compute_invariant(TREFOIL, q, c, cache=again) == uncached
    assert len(path.read_text().splitlines()) == 2
    return again


def test_cached_record_over_another_group_is_recomputed(tmp_path):
    z3 = GroupAlgebraElement(build_cyclic_group(3), (4, 6, 6))
    line = _trefoil_line(Z=z3.to_json(), f=list(free_energy_per_crossing(z3, 3)))
    again = _superseded(tmp_path / "c.jsonl", line)
    assert (len(again), again.skipped) == (1, 0)


def test_cached_crossing_number_must_be_the_letter_count(tmp_path):
    z = GroupAlgebraElement(build_cyclic_group(2), (4, 12))
    line = _trefoil_line(crossing_number=7, f=list(free_energy_per_crossing(z, 7)))
    again = _superseded(tmp_path / "c.jsonl", line)
    assert (len(again), again.skipped) == (1, 0)


def test_cached_f_must_match_z_and_the_crossing_number(tmp_path):
    line = _trefoil_line(f=[9.0, 9.0])
    again = _superseded(tmp_path / "c.jsonl", line)
    assert (len(again), again.skipped) == (1, 1)


def test_lookup_returns_the_newest_valid_line(tmp_path):
    path = tmp_path / "c.jsonl"
    q, c = build_s4(), build_s4_cocycle()
    plain = compute_invariant(TREFOIL, q, c)
    unset = replace(plain, crossing_number=None, f=None)
    older, newer = (json.dumps(r.to_json(), sort_keys=True) + "\n" for r in (unset, plain))
    path.write_text(older + newer + _trefoil_line(f=[9.0, 9.0]) + newer[:40])
    cache = InvariantCache(path)
    assert cache.lookup(plain.braid, plain.quandle_id, plain.cocycle_id) == plain
    path.write_text(newer + older)
    cache = InvariantCache(path)
    assert cache.lookup(plain.braid, plain.quandle_id, plain.cocycle_id) == unset
    assert compute_invariant(TREFOIL, q, c, cache=cache) == unset


def test_lookup_parses_only_lines_that_hold_the_braid(tmp_path, monkeypatch):
    path = tmp_path / "c.jsonl"
    q, c = build_s4(), build_s4_cocycle()
    plain = compute_invariant(TREFOIL, q, c)
    base = plain.to_json()
    lines = [json.dumps({**base, "braid": f"B3: s1^{k} s2"}, sort_keys=True) for k in range(1000)]
    target = json.dumps(base, sort_keys=True)
    garbage = [
        "not json",
        "[1, 2]",
        'junk "B2: s1^3"',  # holds the braid text but is no record
        json.dumps({**base, "assumed_crossing_number": 3}, sort_keys=True),
        target[: len(target) // 2],
    ]
    foreign = json.dumps({**base, "cocycle_id": "other"}, sort_keys=True)
    body = lines[:500] + garbage + [target, foreign] + lines[500:]
    path.write_bytes("\n".join(body).encode() + b"\n\xff\n" + target[:30].encode())
    holding = sum(b'"B2: s1^3"' in line for line in path.read_bytes().split(b"\n"))
    assert holding == 5

    calls = []
    parse = invariant.record_from_json
    monkeypatch.setattr(invariant, "record_from_json", lambda data: calls.append(data) or parse(data))
    cache = InvariantCache(path)
    assert calls == []
    assert cache.lookup(plain.braid, plain.quandle_id, plain.cocycle_id) == plain
    assert len(calls) <= holding
    calls.clear()
    assert cache.lookup(plain.braid, plain.quandle_id, "missing") is None
    assert len(calls) <= holding
    calls.clear()
    assert cache.lookup("B2: s1^5", plain.quandle_id, plain.cocycle_id) is None
    assert calls == []
    assert cache.lookup("B3: s1^999 s2", plain.quandle_id, plain.cocycle_id).braid == "B3: s1^999 s2"
    assert len(calls) == 1
    assert (len(cache), cache.skipped) == (1002, len(garbage) + 2)
