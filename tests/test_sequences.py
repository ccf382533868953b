"""Braid families, their crossing counts, closed-form state sums, and f."""

import math

import pytest

from _helpers import reference_family_braid, reference_runs
from qcjkls.braid import is_alternating_closure, is_reduced_closure
from qcjkls.cocycle import build_s4_cocycle
from qcjkls.invariant import cjkls_state_sum, free_energy_per_crossing
from qcjkls.quandle import build_s4
from qcjkls.sequences import (
    FamilyId,
    _blocks,
    binomial_sums,
    family_braid,
    family_closed_Z,
    family_closed_f,
    family_crossing_number,
    family_rows,
    family_texts,
    parse_family_id,
)

KN = FamilyId("Kn")
KPRIME = FamilyId("KPrime")
K0 = FamilyId("K0")

WORD_GOLDENS = {
    (KN, 1): "B2: s1^3",
    (KN, 2): "B3: s2^-3 s1^3 s2^-3",
    (KN, 3): "B4: s3^3 s2^-3 s1^3 s2^-3 s3^3",
    (KPRIME, 1): "B2: s1^3",
    (KPRIME, 2): "B3: s2^-3 s1^3 s2^-3",
    (KPRIME, 3): "B4: s3^3 s2^-3 s1^3 s3^3 s2^-3 s3^3",
    (KPRIME, 4): "B5: s4^-3 s3^3 s2^-3 s1^3 s3^3 s2^-3 s3^3 s4^-3",
    (K0, 1): "B2: s1^3",
    (K0, 2): "B4: s1^-3 s3^-3 s2^3 s1^-3 s3^-3",
    (K0, 3): "B6: s1^3 s3^3 s5^3 s2^-3 s4^-3 s3^3 s2^-3 s4^-3 s1^3 s3^3 s5^3",
    (FamilyId("Km", 1), 1): "B2: s1^9",
    (FamilyId("Km", 1), 2): "B3: s2^-9 s1^9 s2^-9",
    (FamilyId("KPrimeM", 2), 1): "B2: s1^15",
}


def test_family_word_goldens():
    for (family, n), text in WORD_GOLDENS.items():
        assert family_braid(family, n).canonical() == text


# (family, largest n) checked against the letter-by-letter builders
ORACLE_CASES = [(KN, 60), (KPRIME, 60), (K0, 30)] + [
    (FamilyId(kind, m), 60) for kind, ms in (("Km", (1, 2, 3)), ("KPrimeM", (1, 2))) for m in ms
]


def test_family_braid_matches_letter_oracle():
    for family, max_n in ORACLE_CASES:
        for n in range(1, max_n + 1):
            assert family_braid(family, n) == reference_family_braid(family, n), (family, n)


@pytest.mark.parametrize("family", ["Kn", "KPrime", "K0", "Km:1", "KPrimeM:2"])
def test_family_braid_runs_are_its_twist_blocks(family):
    family = parse_family_id(family)
    k = 3 * (2 * family.m + 1) if family.m is not None else 3
    for n in range(1, 40):
        word, expected = family_braid(family, n), reference_family_braid(family, n)
        assert word == expected and hash(word) == hash(expected), n
        assert word.runs == reference_runs(expected.letters) == tuple((block, k) for block in _blocks(family, n)), n


def test_family_row_text_comes_from_blocks():
    for family, max_n in ORACLE_CASES:
        for n in range(1, max_n + 1):
            blocks = _blocks(family, n)
            # no merge across blocks, so the block text is the merged-run text
            assert all(a != b for a, b in zip(blocks, blocks[1:])), (family, n)
            word, (row,) = family_braid(family, n), family_rows(family, n, n)
            assert (next(family_texts(family, n, n)), row.strands) == (word.canonical(), word.strands), (family, n)


_LN2, _LN3 = math.log(2.0), math.log(3.0)


def _oracle_coeffs(family, n):
    # the per-member closed forms that family_rows replaced, kept verbatim
    if family.kind in ("Kn", "Km"):
        return 4**n, 3 * 4**n
    if family.kind in ("KPrime", "KPrimeM"):
        power = n // 2 + 1
        even, odd = binomial_sums((n + 1) // 2)
        return 4**power * even, 4**power * odd
    return 4 ** (2 * n - 1), 3 * 4 ** (2 * n - 1)


def _oracle_crossings(family, n):
    scale = 2 * family.m + 1 if family.kind in ("Km", "KPrimeM") else 1
    if family.kind in ("Kn", "Km"):
        return 3 * scale * (2 * n - 1)
    if family.kind in ("KPrime", "KPrimeM"):
        base = (15 * n - 9) // 2 if n % 2 == 1 else (15 * n - 12) // 2
        return base * scale
    return 3 * n * n + 3 * n - 3


def _oracle_f(family, n):
    c = _oracle_crossings(family, n)
    if family.kind in ("Kn", "Km", "K0"):
        power = n if family.kind in ("Kn", "Km") else 2 * n - 1
        return (2 * power * _LN2 / c, (2 * power * _LN2 + _LN3) / c)
    power = n // 2 + 1
    even, odd = binomial_sums((n + 1) // 2)
    return (
        (2 * power * _LN2 + math.log(even)) / c,
        (2 * power * _LN2 + math.log(odd)) / c,
    )


ROW_FAMILIES = [KN, KPRIME, K0] + [FamilyId(kind, m) for kind in ("Km", "KPrimeM") for m in (1, 2, 40)]


@pytest.mark.parametrize("family", ROW_FAMILIES, ids=str)
def test_family_rows_match_the_per_member_closed_forms(family):
    for lo in (1, 2, 3, 7):
        rows = list(family_rows(family, lo, 400))
        assert [row.n for row in rows] == list(range(lo, 401))
        for row in rows:
            n = row.n
            assert row.strands == (2 * n if family.kind == "K0" else n + 1), (family, n)
            assert (row.crossings, row.z) == (_oracle_crossings(family, n), _oracle_coeffs(family, n)), (family, n)
            assert row.f == _oracle_f(family, n), (family, n)  # bit for bit, not approximately
            if n <= 60:
                word = family_braid(family, n)
                assert (row.strands, row.crossings) == (word.strands, len(word.letters)), (family, n)


def test_family_rows_refuse_index_zero_and_may_be_empty():
    with pytest.raises(ValueError, match="family index must be >= 1"):
        list(family_rows(KN, 0, 3))
    assert list(family_rows(KPRIME, 5, 4)) == []


def test_family_texts_match_letter_oracle():
    for family, max_n in ORACLE_CASES:
        expected = [reference_family_braid(family, n).canonical() for n in range(1, max_n + 1)]
        assert list(family_texts(family, 1, max_n)) == expected, family
        # one member at a time, and ranges starting above 1 (K0: at both parities)
        for lo in range(1, max_n + 1):
            assert list(family_texts(family, lo, lo)) == [expected[lo - 1]], (family, lo)
        for lo, hi in ((2, 9), (3, 17), (max_n // 2, max_n), (max_n - 1, max_n)):
            assert list(family_texts(family, lo, hi)) == expected[lo - 1 : hi], (family, lo, hi)


def test_family_texts_refuse_bad_ranges():
    for lo, hi in ((0, 3), (4, 3)):
        with pytest.raises(ValueError, match="bad family range"):
            family_texts(KN, lo, hi)


def test_family_strand_counts():
    for n in range(1, 8):
        assert family_braid(KN, n).strands == n + 1
        assert family_braid(KPRIME, n).strands == n + 1
        assert family_braid(K0, n).strands == 2 * n
        assert family_braid(FamilyId("Km", 2), n).strands == n + 1


def test_crossing_numbers_match_words():
    families = [KN, KPRIME, K0, FamilyId("Km", 1), FamilyId("Km", 2), FamilyId("KPrimeM", 1)]
    for family in families:
        for n in range(1, 21):
            assert family_crossing_number(family, n) == len(family_braid(family, n).letters)


def test_crossing_number_closed_forms():
    for n in range(1, 21):
        assert family_crossing_number(KN, n) == 6 * n - 3
        assert family_crossing_number(K0, n) == 3 * n * n + 3 * n - 3
        expected = (15 * n - 9) // 2 if n % 2 else (15 * n - 12) // 2
        assert family_crossing_number(KPRIME, n) == expected
        for m in (1, 2, 3):
            assert family_crossing_number(FamilyId("Km", m), n) == 3 * (2 * m + 1) * (2 * n - 1)
            assert family_crossing_number(FamilyId("KPrimeM", m), n) == (2 * m + 1) * expected


def test_family_words_close_to_reduced_alternating_diagrams():
    cases = [(KN, 4), (KPRIME, 5), (K0, 40), (FamilyId("Km", 1), 2), (FamilyId("KPrimeM", 1), 3)]
    for family, max_n in cases:
        for n in range(1, max_n + 1):
            w = family_braid(family, n)
            assert is_alternating_closure(w), (str(family), n)
            assert is_reduced_closure(w), (str(family), n)


def test_binomial_sums_goldens():
    assert binomial_sums(1) == (1, 3)
    assert binomial_sums(2) == (10, 6)
    assert binomial_sums(3) == (28, 36)


def test_binomial_sums_closed_form():
    # the closed form (4^m +- (-2)^m) / 2 against the sums it replaces:
    # C(m,k) 3^k summed over even and over odd k
    for m in range(0, 201):
        even = sum(math.comb(m, k) * 3**k for k in range(0, m + 1, 2))
        odd = sum(math.comb(m, k) * 3**k for k in range(1, m + 1, 2))
        assert binomial_sums(m) == (even, odd)


def test_binomial_sums_inequalities():
    # strict bounds used by the limit analysis, exact in big integers
    for m in range(3, 201):
        even, odd = binomial_sums(m)
        assert 3**m < even < 4**m
        assert 3**m < odd < 4**m


def test_closed_Z_goldens():
    assert family_closed_Z(KN, 1).coeffs == (4, 12)
    assert family_closed_Z(KN, 2).coeffs == (16, 48)
    assert family_closed_Z(KPRIME, 3).coeffs == (160, 96)
    assert family_closed_Z(KPRIME, 4).coeffs == (640, 384)
    assert family_closed_Z(KPRIME, 5).coeffs == (1792, 2304)
    assert family_closed_Z(K0, 2).coeffs == (4**3, 3 * 4**3)
    assert family_closed_Z(FamilyId("Km", 2), 3).coeffs == (64, 192)


def test_closed_Z_matches_brute_force_small_n():
    q = build_s4()
    c = build_s4_cocycle()
    cases = [(KN, 4), (KPRIME, 4), (K0, 2), (FamilyId("Km", 1), 2), (FamilyId("KPrimeM", 1), 2)]
    for family, max_n in cases:
        for n in range(1, max_n + 1):
            w = family_braid(family, n)
            assert cjkls_state_sum(w, q, c).coeffs == family_closed_Z(family, n).coeffs


def test_closed_f_matches_generic_route():
    families = [KN, KPRIME, K0, FamilyId("Km", 1), FamilyId("Km", 3), FamilyId("KPrimeM", 2)]
    for family in families:
        for n in list(range(1, 30)) + [100, 200]:
            via_z = free_energy_per_crossing(
                family_closed_Z(family, n), family_crossing_number(family, n)
            )
            direct = family_closed_f(family, n)
            assert direct[0] == pytest.approx(via_z[0], abs=1e-12)
            assert direct[1] == pytest.approx(via_z[1], abs=1e-12)


def test_closed_f_trefoil():
    f = family_closed_f(KN, 1)
    assert f[0] == pytest.approx(2 * math.log(2) / 3, abs=1e-15)
    assert f[1] == pytest.approx((2 * math.log(2) + math.log(3)) / 3, abs=1e-15)


def test_coefficient_sums_count_all_colorings():
    # every strand tuple of these words closes up, so the count is
    # 4^strands exactly
    for family, max_n in [(KN, 6), (KPRIME, 6), (K0, 3)]:
        for n in range(1, max_n + 1):
            z = family_closed_Z(family, n)
            assert z.coefficient_sum() == 4 ** family_braid(family, n).strands


def test_family_row_bundles_fields():
    (p,) = family_rows(KN, 2, 2)
    assert p.n == 2
    assert family_braid(KN, p.n).canonical() == "B3: s2^-3 s1^3 s2^-3"
    assert next(family_texts(KN, 2, 2)) == "B3: s2^-3 s1^3 s2^-3"
    assert p.strands == 3
    assert p.crossings == 9
    assert p.z == (16, 48)
    assert p.f[0] == pytest.approx(math.log(16) / 9, abs=1e-15)


def test_family_id_parsing():
    assert parse_family_id("Kn") == KN
    assert parse_family_id(" KPrime ") == KPRIME
    assert parse_family_id("Km:2") == FamilyId("Km", 2)
    assert parse_family_id("Km(2)") == FamilyId("Km", 2)
    assert parse_family_id("KPrimeM(1)") == FamilyId("KPrimeM", 1)
    assert str(FamilyId("Km", 2)) == "Km(2)"
    assert str(KN) == "Kn"


def test_family_id_validation():
    with pytest.raises(ValueError):
        FamilyId("Qx")
    with pytest.raises(ValueError):
        FamilyId("Km")
    with pytest.raises(ValueError):
        FamilyId("Km", 0)
    with pytest.raises(ValueError):
        FamilyId("Kn", 2)
    with pytest.raises(ValueError):
        parse_family_id("Km(x)")
    with pytest.raises(ValueError):
        family_braid(KN, 0)


def test_odd_exponent_scaling_preserves_Z():
    # the defining property behind Km and KPrimeM
    q = build_s4()
    c = build_s4_cocycle()
    for n in (1, 2):
        base = cjkls_state_sum(family_braid(KN, n), q, c)
        for m in (1, 2):
            scaled = cjkls_state_sum(family_braid(FamilyId("Km", m), n), q, c)
            assert scaled.coeffs == base.coeffs
