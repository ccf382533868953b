"""Acceptance suite: eleven end-to-end criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  Exact integer equalities are asserted as such; float checks pin
their tolerances inline.  The brute-force records produced by criteria
1 through 6 are cached and shared so criterion 11 can audit every one
of them regardless of test execution order.
"""

import contextlib
import functools
import math
import random
import time

from _helpers import euclidean_distance, markov_conjugate, markov_stabilize

from qcjkls.braid import (
    BraidWord,
    enumerate_colorings,
    enumerate_colorings_affine,
    parse_braid,
)
from qcjkls.cocycle import Cocycle, build_s4_cocycle, build_trivial_cocycle, verify_cocycle
from qcjkls.group_algebra import build_cyclic_group
from qcjkls.invariant import cjkls_state_sum, compute_invariant
from qcjkls.limits import closed_form_limit, distinguish_limits, limit_estimate
from qcjkls.quandle import (
    AlexanderQuandleSpec,
    S4_SPEC,
    build_alexander_quandle,
    build_s4,
    verify_quandle_axioms,
)
from qcjkls.sequences import (
    FamilyId,
    binomial_sums,
    family_braid,
    family_closed_Z,
    family_closed_f,
    family_crossing_number,
)

LN2 = math.log(2.0)
LN3 = math.log(3.0)
LN12 = math.log(12.0)

KN = FamilyId("Kn")
KPRIME = FamilyId("KPrime")
K0 = FamilyId("K0")


@contextlib.contextmanager
def _verdict(num, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:02d} {label}: FAIL")
        raise
    print(f"[acceptance] criterion {num:02d} {label}: PASS")


@functools.lru_cache(maxsize=None)
def _quandle_and_cocycle():
    return build_s4(), build_s4_cocycle()


@functools.lru_cache(maxsize=None)
def _base_records():
    """Criteria 1 and 2: the 3-crossing torus braid and its mirror."""
    q, c = _quandle_and_cocycle()
    out = []
    for text in ("B2: s1^3", "B2: s1^-3"):
        out.append((text, compute_invariant(parse_braid(text), q, c)))
    return tuple(out)


# brute-force coverage per family, sized so the whole block stays at
# desk scale (the largest enumeration is 4^7 tuples)
FAMILY_BRUTE_RANGES = (
    (KN, (1, 2, 3, 4, 5, 6)),
    (KPRIME, (1, 2, 3, 4, 5)),
    (K0, (1, 2, 3)),
    (FamilyId("Km", 1), (1, 2, 3, 4)),
    (FamilyId("Km", 2), (1, 2, 3, 4)),
)


@functools.lru_cache(maxsize=None)
def _family_records():
    """Criteria 3 through 6: brute-force records keyed by (family, n)."""
    q, c = _quandle_and_cocycle()
    out = {}
    for family, ns in FAMILY_BRUTE_RANGES:
        for n in ns:
            word = family_braid(family, n)
            out[(family, n)] = compute_invariant(
                word, q, c, assume_crossing_number=family_crossing_number(family, n)
            )
    return out


def test_criterion_01_trefoil_golden():
    with _verdict(1, "trefoil state sum"):
        q, c = _quandle_and_cocycle()
        started = time.perf_counter()
        z = cjkls_state_sum(parse_braid("B2: s1^3"), q, c)
        elapsed = time.perf_counter() - started
        assert z.coeffs == (4, 12)
        assert z.coefficient_sum() == 16
        record = dict(_base_records())["B2: s1^3"]
        assert record.z.coeffs == (4, 12)
        assert record.crossing_number == 3
        assert abs(record.f[0] - 2 * LN2 / 3) <= 1e-12
        assert abs(record.f[1] - (2 * LN2 + LN3) / 3) <= 1e-12
        assert elapsed < 1.0


def test_criterion_02_mirror():
    with _verdict(2, "mirror state sum"):
        record = dict(_base_records())["B2: s1^-3"]
        assert record.z.coeffs == (4, 12)


def test_criterion_03_kn_oracle():
    with _verdict(3, "Kn oracle"):
        records = _family_records()
        for n in (1, 2, 3, 4, 5, 6):
            assert records[(KN, n)].z.coeffs == (4**n, 3 * 4**n)
        for n in range(1, 21):
            assert len(family_braid(KN, n).letters) == 6 * n - 3


def test_criterion_04_kprime_oracle():
    with _verdict(4, "KPrime oracle"):
        records = _family_records()
        for n in (1, 2, 3, 4, 5):
            assert records[(KPRIME, n)].z.coeffs == family_closed_Z(KPRIME, n).coeffs
        # spot-check the closed coefficients themselves
        assert family_closed_Z(KPRIME, 3).coeffs == (160, 96)
        assert family_closed_Z(KPRIME, 5).coeffs == (1792, 2304)
        for n in range(1, 21):
            expected = (15 * n - 9) // 2 if n % 2 else (15 * n - 12) // 2
            assert len(family_braid(KPRIME, n).letters) == expected


def test_criterion_05_k0_oracle():
    with _verdict(5, "K0 oracle"):
        records = _family_records()
        for n in (1, 2, 3):
            assert records[(K0, n)].z.coeffs == (4 ** (2 * n - 1), 3 * 4 ** (2 * n - 1))
        for n in range(1, 21):
            assert len(family_braid(K0, n).letters) == 3 * n * n + 3 * n - 3


def test_criterion_06_km_oracle():
    with _verdict(6, "Km oracle"):
        records = _family_records()
        for m in (1, 2):
            family = FamilyId("Km", m)
            for n in (1, 2, 3, 4):
                assert records[(family, n)].z.coeffs == records[(KN, n)].z.coeffs
            for n in range(1, 21):
                assert len(family_braid(family, n).letters) == 3 * (2 * m + 1) * (2 * n - 1)
            limit = closed_form_limit(family)
            assert limit[0] == LN2 / (3 * (2 * m + 1))
            sampled = family_closed_f(family, 200)
            assert euclidean_distance(sampled, limit) <= 0.005


def test_criterion_07_binomial_sum_bounds():
    with _verdict(7, "binomial sum bounds"):
        for m in range(1, 201):
            even, odd = binomial_sums(m)
            assert even + odd == 4**m
            if m > 2:
                assert 3**m < even < 4**m
                assert 3**m < odd < 4**m


def test_criterion_08_limit_convergence():
    with _verdict(8, "limit convergence"):
        kn_limit = closed_form_limit(KN)
        k0_limit = closed_form_limit(K0)
        for n in (100, 125, 150, 175, 200):
            assert euclidean_distance(family_closed_f(KN, n), kn_limit) <= 0.01
            assert euclidean_distance(family_closed_f(K0, n), k0_limit) <= 0.02
        lo = LN12 / 15 - 0.02
        hi = 4 * LN2 / 15 + 0.02
        for n in range(25, 201):
            for coord in family_closed_f(KPRIME, n):
                assert lo <= coord <= hi, n


def test_criterion_09_distinctness():
    with _verdict(9, "limit distinctness"):
        def report(family):
            samples = [(n, family_closed_f(family, n)) for n in range(10, 201, 10)]
            return limit_estimate(samples, tolerance=0.02, family=family,
                                  closed_form=closed_form_limit(family))

        matrix = distinguish_limits([report(KN), report(K0), report(KPRIME)])
        for i in range(3):
            for j in range(3):
                assert matrix[i][j] == ("OVERLAPPING" if i == j else "DISTINCT")

        km_matrix = distinguish_limits(
            [report(FamilyId("Km", m)) for m in (1, 2, 3)]
        )
        for i in range(3):
            for j in range(3):
                assert km_matrix[i][j] == ("OVERLAPPING" if i == j else "DISTINCT")


def _random_alexander_specs(count, rng):
    max_degree = {2: 4, 3: 3, 5: 2}
    specs = []
    while len(specs) < count:
        modulus = rng.choice((2, 3, 5))
        degree = rng.randint(1, max_degree[modulus])
        units = [u for u in range(1, modulus) if math.gcd(u, modulus) == 1]
        coeffs = [rng.randrange(modulus) for _ in range(degree)] + [rng.choice(units)]
        try:
            spec = AlexanderQuandleSpec(modulus, tuple(coeffs))
            build_alexander_quandle(spec)
        except Exception:
            continue
        specs.append(spec)
    return specs


def _random_word(rng, max_strands, max_length):
    strands = rng.randint(2, max_strands)
    length = rng.randint(0, max_length)
    letters = tuple(
        rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)
    )
    return BraidWord(strands, letters)


def test_criterion_10_property_suites():
    with _verdict(10, "property suites"):
        q, c = _quandle_and_cocycle()
        z2 = build_cyclic_group(2)
        rng = random.Random(20250814)

        # (a) quandle axioms, exhaustively, for the default quandle and
        # ten random Alexander quandles with ring size <= 27
        assert verify_quandle_axioms(q).ok
        specs = _random_alexander_specs(10, rng)
        for spec in specs:
            quandle = build_alexander_quandle(spec)
            assert quandle.size <= 27
            assert verify_quandle_axioms(quandle).ok, spec

        # (b) cocycle condition for the standard and trivial cocycles,
        # plus a mutated-table negative case
        assert verify_cocycle(c).ok
        trivial = build_trivial_cocycle(q, z2)
        assert verify_cocycle(trivial).ok
        mutated = [list(row) for row in c.table]
        mutated[0][1] ^= 1
        assert not verify_cocycle(Cocycle(q, z2, tuple(tuple(r) for r in mutated))).ok

        # (c) Markov invariance under 100 random conjugation and
        # stabilization sequences, exact equality
        for _ in range(100):
            word = _random_word(rng, max_strands=3, max_length=4)
            moved = word
            for _move in range(rng.randint(1, 3)):
                if moved.strands < 5 and rng.random() < 0.4:
                    moved = markov_stabilize(moved, rng.choice((1, -1)))
                elif len(moved.letters) <= 10:
                    gen = rng.randint(1, moved.strands - 1)
                    moved = markov_conjugate(moved, rng.choice((gen, -gen)))
            assert len(moved.letters) <= 12
            assert cjkls_state_sum(moved, q, c).coeffs == cjkls_state_sum(word, q, c).coeffs

        # (d) the affine solver agrees with brute force on 50 random
        # braids, and (e) the trivial cocycle always lands on the
        # coloring-count basis vector
        for _ in range(50):
            word = _random_word(rng, max_strands=6, max_length=12)
            brute = enumerate_colorings(word, q)
            assert enumerate_colorings_affine(word, S4_SPEC) == brute
            z = cjkls_state_sum(word, q, trivial)
            assert z.coeffs == (len(brute), 0)
        for spec in specs:
            quandle = build_alexander_quandle(spec)
            group = build_cyclic_group(2)
            z = cjkls_state_sum(
                parse_braid("B2: s1^3"), quandle, build_trivial_cocycle(quandle, group)
            )
            count = len(enumerate_colorings(parse_braid("B2: s1^3"), quandle))
            assert z.coeffs == (count, 0)


def test_criterion_11_proper_hyperfinite_records():
    with _verdict(11, "records stay proper"):
        audited = 0
        for record in [rec for _text, rec in _base_records()] + list(_family_records().values()):
            # coefficient sum >= quandle size: constant colorings always
            # close up with identity weight, so Z is never all-zero
            assert record.z.coefficient_sum() >= 4
            assert record.coloring_count == record.z.coefficient_sum()
            assert any(coeff > 0 for coeff in record.z.coeffs)
            audited += 1
        assert audited == 2 + sum(len(ns) for _f, ns in FAMILY_BRUTE_RANGES)
