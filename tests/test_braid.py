"""Braid words: parsing, Markov moves, propagation, coloring enumeration,
and the closure diagram checks (alternating, reduced)."""

import random
import re
import time
from collections import Counter
from itertools import groupby, product
from math import gcd

import pytest
from _helpers import (
    column_permutations,
    dihedral,
    markov_conjugate,
    markov_stabilize,
    mirror,
    propagate,
    random_word,
    reference_affine_colorings,
    reference_canonical,
    reference_family_braid,
    reference_parse_braid,
    reference_reduced,
    reference_runs,
)

from qcjkls import braid
from qcjkls.braid import (
    DEFAULT_BUDGET,
    BraidSyntaxError,
    BraidWord,
    BudgetExceededError,
    enumerate_colorings,
    enumerate_colorings_affine,
    is_alternating_closure,
    is_reduced_closure,
    parse_braid,
    _read_token,
    _scan_tuples,
)
from qcjkls.cocycle import build_s4_cocycle
from qcjkls.quandle import _QUOTE_CHARS, S4_SPEC, AlexanderQuandleSpec, build_alexander_quandle, build_s4, make_quandle
from qcjkls.sequences import FamilyId, family_braid

TREFOIL = parse_braid("B2: s1^3")
R3_SPEC = AlexanderQuandleSpec(3, (-2, 1))


# ------------------------------------------------------------------ parsing


def test_parse_golden():
    w = parse_braid("B2: s1^3")
    assert w.strands == 2
    assert w.letters == (1, 1, 1)


def test_parse_without_prefix_infers_strands():
    w = parse_braid("s1 s2^-2")
    assert w.strands == 3
    assert w.letters == (1, -2, -2)


def test_parse_identity_braid():
    w = parse_braid("B4:")
    assert w.strands == 4
    assert w.letters == ()
    assert w.canonical() == "B4:"


def test_parse_exponent_defaults_to_one():
    assert parse_braid("B3: s2").letters == (2,)


def test_canonical_round_trip():
    for text in (
        "B2: s1^3",
        "B3: s2^-3 s1^3 s2^-3",
        "B4: s3^3 s2^-3 s1^3 s2^-3 s3^3",
        "B5: s1 s4^-1 s2^2",
        "B6:",
    ):
        w = parse_braid(text)
        assert w.canonical() == text
        assert parse_braid(w.canonical()).letters == w.letters
        assert parse_braid(w.canonical()).strands == w.strands


def test_canonical_merges_runs():
    assert parse_braid("B2: s1 s1 s1").canonical() == "B2: s1^3"
    assert parse_braid("B3: s1 s1 s2^-1 s2^-1 s1").canonical() == "B3: s1^2 s2^-2 s1"
    assert parse_braid("B3: s1 s1 s2^-1 s2^-1 s1").runs == ((1, 2), (-2, 2), (1, 1))
    assert BraidWord(3, ()).runs == ()


def test_parse_caps_word_length(monkeypatch):
    monkeypatch.setattr(braid, "MAX_LETTERS", 10)
    assert len(parse_braid("s1^-4 s2^6").letters) == 10
    with pytest.raises(BraidSyntaxError) as err:
        parse_braid("s1^-4 s2^6 s1")
    assert err.value.position == 11
    assert len(family_braid(FamilyId("K0"), 2).letters) == 15  # library words are not capped


def test_parse_errors_carry_positions():
    with pytest.raises(BraidSyntaxError) as err:
        parse_braid("")
    assert err.value.position == 0

    with pytest.raises(BraidSyntaxError) as err:
        parse_braid("B2: s3")
    assert err.value.position == 4
    assert "2 strands" in str(err.value)

    with pytest.raises(BraidSyntaxError, match="exponent 0"):
        parse_braid("s1^0")

    with pytest.raises(BraidSyntaxError, match="indices start at 1"):
        parse_braid("s0")

    with pytest.raises(BraidSyntaxError) as err:
        parse_braid("B2: s1 foo")
    assert err.value.position == 7

    with pytest.raises(BraidSyntaxError):
        parse_braid("s1^")


@pytest.mark.parametrize("head", ["s", "B", "s1^"])
def test_parse_time_is_linear_in_a_run_of_zeros(head):
    # a 0*(\d+) pattern backtracks quadratically here: 8.8 s at 16000 zeros
    started = time.perf_counter()
    with pytest.raises(BraidSyntaxError, match="expected s<i>") as err:
        parse_braid(head + "0" * 10**5 + "x")
    assert time.perf_counter() - started < 1.0
    assert err.value.position == 0


def test_leading_zeros_do_not_count_as_digits():
    word = parse_braid("B" + "0" * 50 + "3: s" + "0" * 40 + "2^-" + "0" * 30 + "2")
    assert (word.strands, word.letters) == (3, (-2, -2))
    with pytest.raises(BraidSyntaxError, match="exponent 0"):
        parse_braid("s1^" + "0" * 10**5)
    with pytest.raises(BraidSyntaxError, match="indices start at 1"):
        parse_braid("s" + "0" * 10**5)


def test_syntax_errors_quote_the_same_bounded_prefix_as_the_reference():
    for token in ("s1^2^3", "s1^2^345678901", "s1^2^3456789012", "\u00e9" * 40, "s\x1b" * 9, "B3:" * 5):
        message, position = _parse_outcome(parse_braid, "B4: s1 " + token)
        assert (message, position) == _parse_outcome(reference_parse_braid, "B4: s1 " + token), token
        assert position == 7 and len(message) < 12 * 10 + 80, message
        assert message.endswith("... (at position 7)") == (len(token) > _QUOTE_CHARS), message


_SPACES = (" ", " ", " ", "  ", "\t", "\n ", "\u00a0", "\u2003", "\x1c", "\u3000", "\x85", "")
_BAD_TOKENS = ("foo", "s", "s1^", "s^2", "x1", "S1", "s1^2^3", "s-1", "s1^--2", "B2:", "s1,", "s1^+", "s\u200b1")
_PREFIXES = ("", "", "", "B3:", "B2: ", "B0003:", "B1:", "B0:", "B12345678:", "B000000009:", "  B4:", "B5", "B10:")


def _numeral(rng, low=1, high=4):
    roll = rng.random()
    if roll < 0.7:
        return str(rng.randint(low, high))
    if roll < 0.85:
        return "0" * rng.randint(1, 9) + str(rng.randint(0, 12))
    if roll < 0.93:
        return str(rng.randint(10**7, 10**9))  # more digits than MAX_LETTERS has
    return rng.choice(("0", "\u0663", "00000003", "9999999"))


def _braid_text(rng):
    tokens = []
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.04:
            tokens.append(rng.choice(_BAD_TOKENS))
            continue
        token = "s" + _numeral(rng)
        if rng.random() < 0.5:
            token += "^" + rng.choice(("", "", "+", "-", "-")) + _numeral(rng, 1, 6)
        tokens.append(token)
    body = "".join(token + rng.choice(_SPACES) for token in tokens)
    return rng.choice(("", " ", "\t")) + rng.choice(_PREFIXES) + rng.choice(("", " ")) + body


def _parse_outcome(parse, text):
    try:
        word = parse(text)
    except BraidSyntaxError as exc:
        return str(exc), exc.position
    return word.strands, word.letters


@pytest.mark.parametrize("max_letters", [None, 12])
def test_parse_matches_token_by_token_reference(monkeypatch, max_letters):
    if max_letters is not None:
        monkeypatch.setattr(braid, "MAX_LETTERS", max_letters)
    rng = random.Random(max_letters or 1)
    words = errors = 0
    for _ in range(2500):
        text = _braid_text(rng)
        outcome = _parse_outcome(parse_braid, text)
        assert outcome == _parse_outcome(reference_parse_braid, text), repr(text)
        words += isinstance(outcome[1], tuple)
        errors += isinstance(outcome[1], int)
    assert min(words, errors) >= 500, (words, errors)


def _spelling(rng, index, exponent):
    """One token for s<index>^<exponent>, spelled with optional zeros, signs and exponent 1."""
    text = "s" + "0" * rng.choice((0, 0, 0, 1, 3)) + str(index)
    if exponent == 1 and rng.random() < 0.5:
        return text
    sign = "-" if exponent < 0 else rng.choice(("", "", "+"))
    return f"{text}^{sign}" + "0" * rng.choice((0, 0, 0, 1, 3)) + str(abs(exponent))


def test_parsed_runs_match_the_letters():
    # adjacent equal tokens and tokens of one letter spelled apart ("s1 s1^1 s01^+2"), with
    # and without a strand prefix: the word equals the one built from its letters, and its
    # runs are the maximal runs those letters spell
    rng = random.Random(2020)
    texts = ["s1 s1^1 s01^+2 s2^-1 s2^-1 s1", "B4: s1 s1 s3^-1 s3^-1 s2 s2^1", "B13: s12 s12^1 s2^-0003", "B5:"]
    for _ in range(3000):
        strands = rng.randint(2, 13)
        tokens = []
        for _ in range(rng.randint(0, 12)):
            if tokens and rng.random() < 0.4:
                index = tokens[-1][0]  # the previous token's generator, of either sign
            else:
                index = rng.randint(1, strands - 1)
            tokens.append((index, rng.choice((1, -1)) * rng.choice((1, 1, 2, 3, 11))))
        body = " ".join(_spelling(rng, *token) for token in tokens)
        texts.append(f"B{strands}: {body}" if rng.random() < 0.5 or not tokens else body)
    merged = 0
    for text in texts:
        word, expected = parse_braid(text), reference_parse_braid(text)
        built = BraidWord(expected.strands, expected.letters)
        assert word == built and hash(word) == hash(built), text
        assert word.runs == reference_runs(built.letters) == built.runs, text
        assert word.canonical() == built.canonical(), text
        merged += len(word.runs) < len(text.split(":")[-1].split())
    assert merged >= 1000, merged


def test_parsed_word_letters_are_plain_ints():
    word = parse_braid("B3: s01^+2 s2^-0003")
    assert word.letters == (1, 1, -2, -2, -2)
    assert all(type(letter) is int for letter in word.letters)
    assert word.runs == ((1, 2), (-2, 3))


def test_parsed_words_and_canonical_texts_match_the_old_derivations():
    # texts with declared and undeclared strands ("B13:", "B03:"), adjacent equal tokens, the
    # spellings "s1^1", "s01^+2" and "s2^-0003", double spaces and tabs, and texts already in
    # canonical form: the word equals the one built from the reference letters, and its
    # canonical text is the one built from its runs
    rng = random.Random(2121)
    texts = ["B13: s12 s12^1 s2^-0003", "B03: s1  s1\ts2^-1", "B3: s1 s2^-1", "B3: s1^1 s2", "B3: s1 s1", "B4: "]
    for _ in range(3000):
        strands = rng.randint(2, 13)
        tokens = []
        for _ in range(rng.randint(0, 12)):
            index = tokens[-1][0] if tokens and rng.random() < 0.3 else rng.randint(1, strands - 1)
            tokens.append((index, rng.choice((1, -1)) * rng.choice((1, 1, 2, 3, 11))))
        if rng.random() < 0.3:  # a canonical text: the one built from the word's runs
            letters = [letter for i, e in tokens for letter in [i if e > 0 else -i] * abs(e)]
            texts.append(reference_canonical(BraidWord(strands, letters)))
            continue
        body = "".join(_spelling(rng, *token) + rng.choice((" ",) * 4 + ("  ", "\t", " \t ")) for token in tokens)
        prefix = rng.choice((f"B{strands}:", f"B0{strands}:", f"B{strands}: ", f" B{strands}:", ""))
        texts.append(prefix + rng.choice(("", " ")) + body if tokens or prefix else "s1")
    joined = 0
    for text in texts:
        word, expected = parse_braid(text), reference_parse_braid(text)
        joined += "_canonical" in word.__dict__  # the canonical text joined from the input's tokens
        built = BraidWord(expected.strands, expected.letters)
        assert word == built and hash(word) == hash(built), text
        assert word.runs == built.runs == reference_runs(expected.letters), text
        assert word.canonical() == reference_canonical(built) == built.canonical(), text
    assert joined >= 1000, joined


def _token(rng):
    """A token that _PLAIN_ITEM may or may not read: leading zeros, "+", non-ASCII digits, long numerals."""

    def numeral():
        if rng.random() < 0.6:
            return str(rng.randint(1, 12))
        return rng.choice(("0", "00", "", "\u0663", "1", "9")) + str(rng.randint(0, 10 ** rng.randint(0, 8)))

    token = rng.choice(("s",) * 8 + ("S", "x", "")) + numeral()
    if rng.random() < 0.6:
        token += rng.choice(("^",) * 6 + ("^^", "")) + rng.choice(("", "", "-", "-", "+", "--")) + numeral()
    return token


def test_plain_token_reader_agrees_with_read_token():
    # the same run, or the same message and position, for each token and declared strand count
    rng = random.Random(21)
    tokens = ["s1", "s1^1", "s1^-1", "s9999999", "s10000000", "s1^9999999", "s1^10000000", "s01", "s1^+2", "s1^-0", "s0"]
    tokens += [_token(rng) for _ in range(4000)]
    plain = 0
    for token, declared in product(tokens, (None, 2, 5, 10**7)):
        try:
            expected = _read_token(token, declared, 0)
        except BraidSyntaxError as exc:
            expected = (str(exc), exc.position)
        try:
            read, all_plain = braid._read_tokens([token], declared)
            outcome = read[token]
        except BraidSyntaxError as exc:
            outcome, all_plain = (str(exc), exc.position), False
        assert outcome == expected, (token, declared)
        plain += all_plain
    assert plain >= 3000, plain


def test_words_from_every_builder_compare_and_hash_equal():
    families = [FamilyId("Kn"), FamilyId("KPrime"), FamilyId("K0"), FamilyId("Km", 1), FamilyId("KPrimeM", 2)]
    for family, n in product(families, (1, 2, 5)):
        built = family_braid(family, n)
        parsed = parse_braid(built.canonical())
        lettered = reference_family_braid(family, n)
        assert built == parsed == lettered, (family, n)
        assert len({built, parsed, lettered}) == 1
        assert built.letters == parsed.letters == lettered.letters
        assert built.crossings == parsed.crossings == len(lettered.letters)
    assert parse_braid("B3: s1 s1^2") == BraidWord(3, (1, 1, 1)) != BraidWord(4, (1, 1, 1))
    assert parse_braid("B3: s1 s1^2") != parse_braid("B3: s1^2 s2")


def test_braid_word_validation():
    with pytest.raises(ValueError):
        BraidWord(1, ())
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(3, (3,))


def test_braid_word_validation_names_the_first_bad_letter():
    with pytest.raises(ValueError, match=r"letter 5 is not a generator of the 3-strand"):
        BraidWord(3, (1, 5, -2, 0, 7))
    with pytest.raises(ValueError, match=r"letter 0 is not"):
        BraidWord(3, [0, 5, 0])


# ------------------------------------------------------- mirror and Markov


def test_mirror_golden_and_involution():
    assert mirror(TREFOIL).canonical() == "B2: s1^-3"
    for text in ("B2: s1^3", "B3: s2^-3 s1^3 s2^-3", "B4: s1 s3^-2"):
        w = parse_braid(text)
        assert mirror(mirror(w)).letters == w.letters


def test_markov_conjugate_shape():
    w = markov_conjugate(TREFOIL, 1)
    assert w.strands == 2
    assert w.letters == (-1, 1, 1, 1, 1)
    w = markov_conjugate(TREFOIL, -1)
    assert w.letters == (1, 1, 1, 1, -1)


def test_markov_stabilize_shape():
    up = markov_stabilize(TREFOIL, 1)
    assert up.strands == 3
    assert up.letters == (1, 1, 1, 2)
    down = markov_stabilize(TREFOIL, -1)
    assert down.letters == (1, 1, 1, -2)


# ------------------------------------------------------------- propagation


def test_trefoil_propagation_all_pairs():
    q = build_s4()
    c = build_s4_cocycle()
    op = q.op
    for a in range(4):
        for b in range(4):
            trace = propagate(TREFOIL, q, c, (a, b))
            assert trace.top == (a, b)
            assert trace.bottom == (a, b)  # sigma_1^3 closes every pair
            assert trace.weight == (0 if a == b else 1)
            assert len(trace.per_crossing) == 3
            # second crossing sees the colors emitted by the first
            assert trace.per_crossing[0] == (a, b, 1)
            assert trace.per_crossing[1] == (b, op[a][b], 1)


def test_mirror_trefoil_propagation():
    q = build_s4()
    c = build_s4_cocycle()
    neg = mirror(TREFOIL)
    for a in range(4):
        for b in range(4):
            trace = propagate(neg, q, c, (a, b))
            assert trace.bottom == (a, b)
            # a negative crossing records the emerging under-color first
            assert trace.per_crossing[0] == (q.inv_op[b][a], a, -1)
            assert trace.per_crossing[0][2] == -1
            assert trace.weight == (0 if a == b else 1)


def test_propagate_validates_input():
    q = build_s4()
    c = build_s4_cocycle()
    with pytest.raises(ValueError):
        propagate(TREFOIL, q, c, (0,))
    with pytest.raises(ValueError):
        propagate(TREFOIL, q, c, (0, 9))


# ------------------------------------------------------------- enumeration


def test_trefoil_has_16_colorings():
    cols = enumerate_colorings(TREFOIL, build_s4())
    assert len(cols) == 16
    assert cols == sorted(cols)
    assert (0, 0) in cols and (2, 3) in cols


def test_single_crossing_only_constant_colorings():
    cols = enumerate_colorings(parse_braid("B2: s1"), build_s4())
    assert cols == [(0, 0), (1, 1), (2, 2), (3, 3)]


def test_identity_braid_all_tuples_color():
    cols = enumerate_colorings(parse_braid("B3:"), build_s4())
    assert len(cols) == 64


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_colorings(BraidWord(13, ()), build_s4(), budget=DEFAULT_BUDGET)
    with pytest.raises(BudgetExceededError):
        enumerate_colorings(TREFOIL, build_s4(), budget=15)
    assert len(enumerate_colorings(TREFOIL, build_s4(), budget=16)) == 16
    # the count is compared exactly without building 3^1000000; a 1-element quandle never exceeds
    with pytest.raises(BudgetExceededError, match=r"^3\^1000000 candidate tuples exceed the budget 16777216$"):
        enumerate_colorings(BraidWord(10**6, ()), dihedral(3))
    assert enumerate_colorings(BraidWord(100, (1, -1)), make_quandle(((0,),)), budget=1) == [(0,) * 100]


def test_affine_matches_brute_on_fixed_words():
    q = build_s4()
    for text in ("B2: s1^3", "B3: s2^-3 s1^3 s2^-3", "B3:", "B2: s1", "B2: s1^-3", "B4: s1 s3^-2"):
        w = parse_braid(text)
        assert enumerate_colorings_affine(w, S4_SPEC) == enumerate_colorings(w, q)


def test_affine_matches_brute_on_random_words():
    rng = random.Random(20250814)
    q4 = build_s4()
    q3 = build_alexander_quandle(R3_SPEC)
    for _ in range(25):
        strands = rng.randint(2, 5)
        length = rng.randint(0, 10)
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)
        )
        w = BraidWord(strands, letters)
        assert enumerate_colorings_affine(w, S4_SPEC) == enumerate_colorings(w, q4)
        assert enumerate_colorings_affine(w, R3_SPEC) == enumerate_colorings(w, q3)


# ------------------------------------------- packed scan against the oracle
# _scan_tuples, the per-tuple _run_word loop, is the oracle; the name imported
# here stays unpatched when the packed_only fixture makes braid's copy refuse.


def test_packed_colorings_match_reference_for_sizes_2_to_16(packed_only):
    rng = random.Random(2026)
    for n in range(2, 17):
        strands = max(2, min(6, 16 // n.bit_length()))
        for quandle in (dihedral(n), column_permutations(rng, n)):
            for _ in range(2):
                word = random_word(rng, strands, rng.randint(1, 8))
                expected = _scan_tuples(word, quandle, None)
                assert braid._scan_packed(word, quandle, None) == expected, (n, word)
                assert enumerate_colorings(word, quandle) == expected, (n, word)


@pytest.mark.parametrize("chunk", [5, 16, 30])
def test_packed_colorings_across_many_chunks(packed_only, monkeypatch, chunk):
    rng = random.Random(chunk)
    monkeypatch.setattr(braid, "CHUNK_TUPLES", chunk)
    for quandle in (build_s4(), dihedral(3), column_permutations(rng, 5)):
        for _ in range(4):
            word = random_word(rng, rng.randint(3, 5), rng.randint(2, 8))
            expected = _scan_tuples(word, quandle, None)
            assert braid._scan_packed(word, quandle, None) == expected, word
            assert enumerate_colorings(word, quandle) == expected, word


def test_packed_colorings_at_full_chunk_size_match_affine(packed_only):
    # 5^7 tuples make five chunks of 5^6; the affine solver is an independent oracle
    spec = AlexanderQuandleSpec(5, (-2, 1))
    quandle = build_alexander_quandle(spec)
    rng = random.Random(11)
    for _ in range(3):
        word = random_word(rng, 7, 10)
        assert enumerate_colorings(word, quandle) == enumerate_colorings_affine(word, spec)
        assert enumerate_colorings_affine(word, spec) == reference_affine_colorings(word, spec)


def test_packed_colorings_long_runs(packed_only):
    quandle = dihedral(5)
    for text in ("B3: s1^40 s2^-25 s1^-7", "B4: s3^12 s1^-33 s2^2 s3^-1", "B2: s1^-64"):
        word = parse_braid(text)
        expected = _scan_tuples(word, quandle, None)
        assert braid._scan_packed(word, quandle, None) == expected, text
        assert enumerate_colorings(word, quandle) == expected, text


def test_packed_colorings_empty_word(packed_only):
    assert braid._scan_packed(BraidWord(3, ()), dihedral(5), None) == list(product(range(5), repeat=3))
    assert enumerate_colorings(BraidWord(3, ()), dihedral(5)) == list(product(range(5), repeat=3))


def test_colorings_fall_back_above_16_elements(monkeypatch):
    def refuse(*args):
        raise AssertionError("packed scan used on a 17-element quandle")

    monkeypatch.setattr(braid, "_scan_packed", refuse)
    monkeypatch.setattr(braid, "_scan_states", refuse)
    spec = AlexanderQuandleSpec(17, (1, 1))  # T = -1: the dihedral quandle on Z_17
    quandle = build_alexander_quandle(spec)
    rng = random.Random(17)
    for _ in range(4):
        word = random_word(rng, 3, 4)
        assert enumerate_colorings(word, quandle) == enumerate_colorings_affine(word, spec), word
        assert enumerate_colorings_affine(word, spec) == reference_affine_colorings(word, spec), word


def _affine_outcome(solver, word, spec, budget):
    try:
        return solver(word, spec, budget=budget)
    except BudgetExceededError as exc:
        return str(exc)


@pytest.mark.parametrize("modulus", [4, 6, 8, 9, 12, 15, 16])
def test_affine_matches_brute_over_composite_moduli(modulus):
    # T + 1 is the dihedral quandle on Z_m; zero divisors of Z_m make the solve mod m nontrivial
    spec = AlexanderQuandleSpec(modulus, (1, 1))
    quandle = build_alexander_quandle(spec)
    rng = random.Random(modulus)
    words = [random_word(rng, rng.randint(2, 4), rng.randint(1, 6)) for _ in range(15)]
    # w w^-1 closes every tuple: the kernel is the whole space, modulus ** 4 colorings
    half = random_word(rng, 4, 6).letters
    words.append(BraidWord(4, half + tuple(-letter for letter in reversed(half))))
    for word in words:
        colorings = enumerate_colorings_affine(word, spec)
        assert colorings == enumerate_colorings(word, quandle), word
    assert len(colorings) == modulus**4


@pytest.mark.parametrize("modulus, degree", [(4, 2), (4, 3), (4, 4), (6, 2), (6, 3), (8, 2), (8, 3), (9, 2), (9, 3)])
def test_affine_matches_ring_arithmetic_reference_over_composite_moduli(modulus, degree):
    # the reference builds the transfer matrix by ring arithmetic in t, t^-1, 1-t and
    # 1-t^-1; a constant term that is a unit mod m makes T invertible
    rng = random.Random(modulus * 10 + degree)
    units = [u for u in range(1, modulus) if gcd(u, modulus) == 1]
    poly = (rng.choice(units),) + tuple(rng.randrange(modulus) for _ in range(degree - 1)) + (rng.choice(units),)
    spec = AlexanderQuandleSpec(modulus, poly)
    for _ in range(10):
        word = random_word(rng, rng.randint(2, 4), rng.randint(1, 6))
        expected = _affine_outcome(reference_affine_colorings, word, spec, 3000)
        assert _affine_outcome(enumerate_colorings_affine, word, spec, 3000) == expected, (spec, word)


def test_affine_budget_checked_before_output():
    with pytest.raises(BudgetExceededError):
        enumerate_colorings_affine(TREFOIL, S4_SPEC, budget=15)


# ------------------------------------- affine push by runs against the oracle
# reference_affine_colorings builds the transfer matrix letter by letter in ring
# arithmetic; the solver pushes every basis coloring at once through each run's tables.
_PACKED_AFFINE_SPECS = [
    AlexanderQuandleSpec(4, (1, 1)),  # the dihedral quandles of Z_4, Z_8 and Z_9
    AlexanderQuandleSpec(8, (1, 1)),
    AlexanderQuandleSpec(9, (1, 1)),
    AlexanderQuandleSpec(8, (3, 1)),
    S4_SPEC,  # Z_2[T]/(T^2+T+1)
    AlexanderQuandleSpec(3, (1, 0, 1)),
    AlexanderQuandleSpec(4, (1, 1, 1)),  # 16 elements
    AlexanderQuandleSpec(2, (1, 1, 0, 1)),
    AlexanderQuandleSpec(2, (1, 0, 0, 1, 1)),  # degree 4, 16 elements
]


def _run_text(rng, strands, longest):
    k = rng.choice((1, 2, 3, rng.randint(4, longest)))
    return f"s{rng.randint(1, strands - 1)}^{rng.choice((1, -1)) * k}"


def test_affine_push_by_runs_matches_the_reference():
    rng = random.Random(23)
    for spec in _PACKED_AFFINE_SPECS:
        assert build_alexander_quandle(spec).size <= braid.PACKED_MAX
        for _ in range(8):
            strands = rng.randint(2, 5)
            word = parse_braid(f"B{strands}: " + " ".join(_run_text(rng, strands, 400) for _ in range(rng.randint(0, 6))))
            outcome = _affine_outcome(enumerate_colorings_affine, word, spec, 3000)
            assert "letters" not in word.__dict__  # the packed push reads the runs alone
            assert outcome == _affine_outcome(reference_affine_colorings, word, spec, 3000), (spec, word)


def test_affine_push_by_runs_matches_the_reference_on_runs_of_10_to_the_5():
    # the reference walks about 15 microseconds per letter, so one such word is checked against it
    spec = AlexanderQuandleSpec(8, (3, 1))
    word = parse_braid(f"B2: s1^{random.Random(100000).randint(5 * 10**4, 10**5)}")
    colorings = enumerate_colorings_affine(word, spec)
    assert "letters" not in word.__dict__
    assert colorings == reference_affine_colorings(word, spec), word
    word = parse_braid("B3: s1^100000 s2^-99999")
    assert enumerate_colorings_affine(word, S4_SPEC) == enumerate_colorings(word, build_s4())


def test_affine_push_drops_runs_that_fix_every_pair():
    # over the dihedral quandle of Z_m, sigma^m takes (x, y) to (x + m d, y + m d) = (x, y), d = y - x
    for m in (4, 8, 9):
        spec = AlexanderQuandleSpec(m, (1, 1))
        tables = braid._scan_tables(build_alexander_quandle(spec), None)
        assert braid._compiled_run(tables, 1, m) is None and braid._compiled_run(tables, -1, 2 * m) is None
        for text in (f"B3: s1^{m} s2^-{2 * m}", f"B3: s1 s2^{3 * m} s1^-2 s2^{m}", f"B4: s2^-{m} s1^3 s3^{m} s2"):
            word = parse_braid(text)
            assert enumerate_colorings_affine(word, spec) == reference_affine_colorings(word, spec), text
    assert enumerate_colorings_affine(parse_braid("B3: s1^8 s2^-4"), AlexanderQuandleSpec(4, (1, 1))) == list(
        product(range(4), repeat=3)
    )


def test_affine_keeps_the_letter_push_above_16_elements():
    spec = AlexanderQuandleSpec(17, (1, 1))  # T = -1: the dihedral quandle on Z_17
    rng = random.Random(17)
    for _ in range(6):
        strands = rng.randint(2, 4)
        word = parse_braid(f"B{strands}: " + " ".join(_run_text(rng, strands, 40) for _ in range(rng.randint(1, 5))))
        colorings = enumerate_colorings_affine(word, spec)
        assert "letters" not in word.__dict__  # a ring this large pushes each basis coloring through the runs
        assert colorings == reference_affine_colorings(word, spec), word


def test_affine_budget_refuses_a_large_kernel_before_building_colorings(monkeypatch):
    # every one of the 4^40 tuples of the empty 40-strand word colors; building one would fail
    monkeypatch.setattr(braid, "product", None)
    with pytest.raises(BudgetExceededError, match=rf"^{4**40} colorings exceed the budget {DEFAULT_BUDGET}$"):
        enumerate_colorings_affine(BraidWord(40, ()), S4_SPEC)
    with pytest.raises(BudgetExceededError, match=r"^16 colorings exceed the budget 15$"):
        enumerate_colorings_affine(parse_braid("B2: s1^300000"), S4_SPEC, budget=15)


# ------------------------------------------- field solver against _kernel_mod
# _kernel_mod diagonalizes over Z_m; over a prime its kernel is the span of the
# columns of V whose diagonal entry is 0, and the field solver must span the same space.


def _rank_mod(vectors, p):
    """Rank over Z_p of integer vectors, by plain elimination on lists."""
    rows = [[x % p for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][col], -1, p)
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] * inverse
            rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _field_kernel(a, p):
    n = len(a[0])
    return [list(v.to_bytes(n, "little")) for v in braid._kernel_prime(b"".join(map(bytes, a)), n, p)]


def _random_matrices(rng, p):
    yield [[0]]
    yield [[rng.randrange(1, p)]]
    for n in (1, 2, 5, 17, 64):
        yield [[0] * n for _ in range(n)]
        yield [[int(i == j) for j in range(n)] for i in range(n)]
        yield [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        # rank at most k: an n x k times a k x n product
        k = rng.randint(0, n - 1)
        left = [[rng.randrange(p) for _ in range(k)] for _ in range(n)]
        right = [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
        yield [[sum(row[t] * right[t][j] for t in range(k)) % p for j in range(n)] for row in left]
        # sparse, like the M - I of a long word over few strands
        yield [[rng.randrange(p) if rng.random() < 0.1 else 0 for _ in range(n)] for _ in range(n)]
    for m, n in ((3, 7), (12, 4), (40, 9)):  # rows and columns differ, as in a cocycle system
        yield [[rng.randrange(p) for _ in range(n)] for _ in range(m)]


@pytest.mark.parametrize("p", braid._PACKED_PRIMES)
def test_field_solver_spans_the_kernel_of_kernel_mod(p):
    rng = random.Random(p)
    for a in _random_matrices(rng, p):
        n = len(a[0])
        basis = _field_kernel(a, p)
        count, v, steps = braid._kernel_mod([row[:] for row in a], p)
        assert p ** len(basis) == count, (p, a)
        assert all(sum(e * x for e, x in zip(row, vector)) % p == 0 for row in a for vector in basis), (p, a)
        free = [[v[i][j] for i in range(n)] for j, (g, _) in enumerate(steps) if g > 1]
        assert _rank_mod(basis, p) == _rank_mod(free, p) == _rank_mod(basis + free, p) == len(basis), (p, a)


def _field_specs(rng):
    """Specs over every prime ring of at most 16 elements, a random polynomial with unit ends each."""
    for p, degrees in ((2, (1, 2, 3, 4)), (3, (1, 2)), (5, (1,)), (7, (1,)), (11, (1,)), (13, (1,))):
        for degree in degrees:
            inner = tuple(rng.randrange(p) for _ in range(degree - 1))
            yield AlexanderQuandleSpec(p, (rng.randrange(1, p),) + inner + (rng.randrange(1, p),))


def test_affine_field_solver_matches_the_reference():
    rng = random.Random(24)
    for spec in _field_specs(rng):
        assert spec.modulus in braid._PACKED_PRIMES and build_alexander_quandle(spec).size <= braid.PACKED_MAX
        for strands in (2, 3, rng.randint(4, 12), rng.randint(13, 40), 40):
            word = random_word(rng, strands, rng.randint(0, 2 * strands))
            expected = _affine_outcome(reference_affine_colorings, word, spec, 3000)
            assert _affine_outcome(enumerate_colorings_affine, word, spec, 3000) == expected, (spec, word)


def test_affine_selects_the_field_solver_over_primes_only(monkeypatch):
    def refuse(*args):
        raise AssertionError("_diagonalize called")

    monkeypatch.setattr(braid, "_diagonalize", refuse)
    word = parse_braid("B4: s1^2 s2^-1 s3 s1^-3 s2")
    for spec in _field_specs(random.Random(5)):
        enumerate_colorings_affine(word, spec)
    for spec in (AlexanderQuandleSpec(4, (1, 1)), AlexanderQuandleSpec(17, (1, 1))):
        with pytest.raises(AssertionError, match="_diagonalize called"):
            enumerate_colorings_affine(word, spec)


def test_affine_system_is_capped_before_any_lane_is_built(monkeypatch):
    cap = braid.MAX_AFFINE_VARS
    spec = AlexanderQuandleSpec(3, (1, 1))  # degree 1: one unknown per strand
    # the cap itself is solved: s1 ... s_(cap-1) closes to a knot, with the 3 constant colorings
    knot = BraidWord(cap, tuple(range(1, cap)))
    assert enumerate_colorings_affine(knot, spec) == [(c,) * cap for c in range(3)]
    with pytest.raises(BudgetExceededError, match=rf"^{3**cap} colorings exceed the budget 1$"):
        enumerate_colorings_affine(BraidWord(cap, ()), spec, budget=1)

    def refuse(*args):
        raise AssertionError("a lane was built")

    monkeypatch.setattr(braid, "_scan_tables", refuse)
    monkeypatch.setattr(braid, "build_alexander_quandle", refuse)
    message = rf"^the affine system has {cap + 1} strands x degree 1 = {cap + 1} unknowns, above the cap of {cap}$"
    with pytest.raises(ValueError, match=message):
        enumerate_colorings_affine(BraidWord(cap + 1, (1,)), spec)


def test_a_diagonalized_affine_system_has_a_lower_cap(monkeypatch):
    # composite moduli and rings of more than 16 elements are diagonalized over Z_m, in cubic time
    cap = braid.MAX_DIAGONAL_VARS
    assert cap < braid.MAX_AFFINE_VARS
    z4 = AlexanderQuandleSpec(4, (1, 1))
    knot = BraidWord(cap, tuple(range(1, cap)))
    assert enumerate_colorings_affine(knot, z4) == [(c,) * cap for c in range(4)]
    with pytest.raises(BudgetExceededError, match=rf"^{4**cap} colorings exceed the budget 1$"):
        enumerate_colorings_affine(BraidWord(cap, ()), z4, budget=1)
    # a prime modulus over at most 16 elements takes the field solver past this cap
    assert enumerate_colorings_affine(BraidWord(cap + 1, tuple(range(1, cap + 1))), AlexanderQuandleSpec(3, (1, 1)))

    def refuse(*args):
        raise AssertionError("a lane was built")

    monkeypatch.setattr(braid, "_scan_tables", refuse)
    monkeypatch.setattr(braid, "build_alexander_quandle", refuse)
    for spec, label in [
        (z4, "Z_4 of 4^1"),
        (AlexanderQuandleSpec(17, (3, 1)), "Z_17 of 17^1"),
        (AlexanderQuandleSpec(2, (1, 0, 0, 0, 0, 1)), "Z_2 of 2^5"),
    ]:
        deg = len(spec.poly) - 1
        strands = cap // deg + 1
        message = (
            f"the affine system has {strands} strands x degree {deg} = {strands * deg} unknowns, above the cap of "
            f"{cap} for a ring over {label} elements; a prime modulus with a ring of at most 16 elements solves up "
            f"to {braid.MAX_AFFINE_VARS}"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            enumerate_colorings_affine(BraidWord(strands, (1,)), spec)


# -------------------------------------------------------- closure analysis


def _reference_alternating(word):
    """Follow every closed strand and check over/under passes alternate.

    Strand trajectories ignore crossing signs (both lanes always swap),
    so this stays independent of the propagation convention except for
    the one forced fact: at a positive letter the left strand goes
    under, at a negative letter the right strand does.
    """
    passes = [[] for _ in range(word.strands)]
    lanes = list(range(word.strands))
    for letter in word.letters:
        i = abs(letter)
        left, right = lanes[i - 1], lanes[i]
        passes[left].append(letter < 0)  # True = over
        passes[right].append(letter > 0)
        lanes[i - 1], lanes[i] = right, left
    seen = [False] * word.strands
    for start in range(word.strands):
        if seen[start]:
            continue
        component = []
        s = start
        while not seen[s]:
            seen[s] = True
            component.extend(passes[s])
            s = lanes.index(s)
        for k in range(len(component)):
            if component[k] == component[(k + 1) % len(component)]:
                return False
    return True


def test_alternating_goldens():
    assert is_alternating_closure(TREFOIL)
    assert is_alternating_closure(parse_braid("B2: s1"))
    assert is_alternating_closure(parse_braid("B3: s2^-3 s1^3 s2^-3"))
    assert is_alternating_closure(parse_braid("B3: s1 s2^-1"))
    assert is_alternating_closure(parse_braid("B3:"))
    assert not is_alternating_closure(parse_braid("B3: s1 s2"))
    assert not is_alternating_closure(parse_braid("B2: s1^3 s1^-1"))


def test_alternating_matches_reference_on_random_words():
    rng = random.Random(1123)
    for _ in range(200):
        strands = rng.randint(2, 5)
        length = rng.randint(0, 8)
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)
        )
        w = BraidWord(strands, letters)
        assert is_alternating_closure(w) == _reference_alternating(w), w.canonical()


def test_reduced_goldens():
    assert is_reduced_closure(TREFOIL)
    assert is_reduced_closure(parse_braid("B3:"))
    assert is_reduced_closure(parse_braid("B3: s1^3"))  # split unknot component
    assert not is_reduced_closure(parse_braid("B2: s1"))  # single kink
    assert not is_reduced_closure(parse_braid("B3: s2"))
    assert not is_reduced_closure(parse_braid("B3: s1^3 s2"))  # nugatory join
    assert not is_reduced_closure(parse_braid("B4: s1^2 s2 s3^2"))  # cut vertex, no kink
    assert not is_reduced_closure(parse_braid("B5: s1^2 s2 s3^2 s4^-2"))
    assert is_reduced_closure(parse_braid("B4: s1^2 s2^-2 s3^2"))
    assert is_reduced_closure(parse_braid("B3: s1 s2 s1 s2"))  # every generator twice, none in a run
    assert is_reduced_closure(parse_braid("B5: s1^3 s3^-3"))  # split, with a gap at s2 and s4


def _shape(word):
    """Which kinds of diagram the reducedness comparison has to cover."""
    used = {abs(l) for l in word.letters}
    once = {i for i in used if sum(abs(l) == i for l in word.letters) == 1}
    return {
        "empty": not word.letters,
        "trivial lane": any(j not in used and j + 1 not in used for j in range(word.strands)),
        "split": any(i + 1 not in used and max(used) > i + 1 for i in used),
        "single kink": any(i - 1 not in used and i + 1 not in used for i in once),
        "cut vertex": any(i - 1 in used and i + 1 in used for i in once),
        "long run": any(sum(1 for _ in run) >= 5 for _, run in groupby(word.letters)),
    }


def test_closure_checks_match_references_on_random_words():
    rng = random.Random(4213)
    words = [parse_braid(text) for text in ("B2:", "B2: s1", "B2: s1^-9", "B5: s1^3 s4^-6")]
    while len(words) < 5000:
        strands = rng.randint(2, 6)
        words.append(random_word(rng, strands, rng.randint(0, 6), longest=rng.choice((1, 2, 3, 6))))
    covered = dict.fromkeys(_shape(words[0]), 0)
    verdicts = set()
    for w in words:
        reduced = is_reduced_closure(w)
        assert reduced == reference_reduced(w), w.canonical()
        assert is_alternating_closure(w) == _reference_alternating(w), w.canonical()
        verdicts.add(reduced)
        for kind, present in _shape(w).items():
            covered[kind] += present
    assert verdicts == {False, True}
    assert min(covered.values()) >= 100, covered


def test_reduced_by_runs_matches_the_letter_count():
    # the per-letter rule: no generator occurs exactly once, on words from letters and from texts
    rng = random.Random(5150)
    verdicts = set()
    for _ in range(3000):
        strands = rng.randint(2, 7)
        w = random_word(rng, strands, rng.randint(0, 8), longest=rng.choice((1, 2, 4)))
        expected = 1 not in Counter(map(abs, w.letters)).values()
        parsed = parse_braid(w.canonical())
        assert is_reduced_closure(w) == is_reduced_closure(parsed) == expected, w.canonical()
        verdicts.add(expected)
    assert verdicts == {False, True}


def test_reduced_matches_reference_on_sparse_generator_pools():
    """Few letters drawn from a random subset of the generators: gaps, lone
    generators and split diagrams are common, so both verdicts are too."""
    rng = random.Random(2718)
    verdicts = []
    cut_vertices = 0
    for _ in range(2000):
        strands = rng.randint(2, 10)
        pool = [i for i in range(1, strands) if rng.random() < 0.6] or [rng.randint(1, strands - 1)]
        length = rng.randint(0, min(20, 3 * len(pool)))
        w = BraidWord(strands, tuple(rng.choice((1, -1)) * rng.choice(pool) for _ in range(length)))
        reduced = is_reduced_closure(w)
        assert reduced == reference_reduced(w), w.canonical()
        verdicts.append(reduced)
        cut_vertices += _shape(w)["cut vertex"]
    assert 500 <= sum(verdicts) <= 1500, sum(verdicts)
    assert cut_vertices >= 100, cut_vertices
