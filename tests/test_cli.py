"""End-to-end command-line checks, run in process via main(argv)."""

import json
import sys
import time
import tracemalloc

import pytest
from _helpers import reference_family_braid, reference_family_stdout

from qcjkls import cli, sequences
from qcjkls.cli import _parse_range, main
from qcjkls.cocycle import build_s4_cocycle, build_trivial_cocycle, save_cocycle
from qcjkls.group_algebra import build_cyclic_group
from qcjkls.quandle import AlexanderQuandleSpec, build_alexander_quandle, build_s4, save_quandle


@pytest.fixture(autouse=True)
def _no_ambient_cache(monkeypatch):
    monkeypatch.delenv("QCJKLS_CACHE", raising=False)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariant_pretty(capsys):
    code, out, err = run(capsys, ["invariant", "s1^3"])
    assert code == 0
    assert "braid: B2: s1^3" in out
    assert "Z: 4*1 + 12*t" in out
    assert "colorings: 16" in out
    assert "crossing_number: 3" in out
    assert "f: (0.46209812037329684, 0.8283022165960001)" in out


def test_invariant_json(capsys):
    code, out, err = run(capsys, ["invariant", "s1^3", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["braid"] == "B2: s1^3"
    assert doc["Z"]["coeffs"] == ["4", "12"]
    assert doc["coloring_count"] == 16
    assert doc["crossing_number"] == 3
    assert doc["f"] == [0.46209812037329684, 0.8283022165960001]


def test_invariant_csv(capsys):
    code, out, err = run(capsys, ["invariant", "s1^3", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "braid,coloring_count,crossing_number,z[1],z[t],f_1,f_2"
    assert lines[1].startswith("B2: s1^3,16,3,4,12,0.4620981203732968")


def test_invariant_without_crossing_number(capsys):
    code, out, err = run(capsys, ["invariant", "B3: s1 s2"])
    assert code == 0
    assert "crossing_number: unknown" in out
    assert "--assume-crossing-number" in out
    assert "f: unavailable" in out


def test_invariant_assumed_crossing_number(capsys):
    code, out, err = run(capsys, ["invariant", "B3: s1 s2", "--assume-crossing-number", "2"])
    assert code == 0
    assert "crossing_number: 2" in out


def test_invariant_mirror(capsys):
    code, out, err = run(capsys, ["invariant", "s1^-3", "--format", "json"])
    assert code == 0
    assert json.loads(out)["Z"]["coeffs"] == ["4", "12"]


def test_braid_syntax_error_exits_2(capsys):
    code, out, err = run(capsys, ["invariant", "s1^"])
    assert code == 2
    assert "position" in err


def test_huge_exponent_exits_2(capsys):
    code, out, err = run(capsys, ["invariant", "s1^99999999"])
    assert (code, out) == (2, "")
    assert "exceed 1000000 letters (at position 0)" in err
    # numerals too long for int() are refused at their token, not by Python
    nines = "9" * 5000
    for text in (f"s1^{nines}", f"s{nines}", f"B{nines}: s1"):
        code, out, err = run(capsys, ["invariant", text])
        assert (code, out) == (2, ""), text[:12]
        assert "at position" in err
        assert "int_max_str_digits" not in err


@pytest.mark.parametrize("token", ["s" + "0" * 10**5 + "x", "s1" + "\U0010ffff" * 10**4, "x" * 10**6])
def test_syntax_error_quotes_a_bounded_prefix(capsys, token):
    # quoting the whole token would write 100,059 bytes of stderr for the first one
    code, out, err = run(capsys, ["invariant", "B3: s1 s2^-1 " + token])
    assert (code, out) == (2, "")
    assert "expected s<i> or s<i>^<e>, got " in err and "..." in err and "at position 13" in err
    assert len(err.encode("utf-8")) < 200, err


def test_exponent_sum_over_cap_exits_2(capsys):
    code, out, err = run(capsys, ["invariant", "B3: s1^600000 s2 s1^-400000"])
    assert (code, out) == (2, "")
    assert "exceed 1000000 letters (at position 17)" in err


def test_budget_error_exits_1(capsys):
    code, out, err = run(capsys, ["invariant", "B13:", "--budget", "1000"])
    assert code == 1
    assert "budget" in err


@pytest.mark.parametrize("command", ["invariant", "colorings"])
def test_budget_message_for_thousands_of_strands(capsys, command):
    # 4^8000 has more digits than Python converts to a string
    code, out, err = run(capsys, [command, "B8000: s1"])
    assert (code, out) == (1, "")
    assert f"4^8000 candidate tuples exceed the budget {4**12}" in err


def test_invariant_empty_word_has_no_free_energy(capsys):
    code, out, err = run(capsys, ["invariant", "B2:"])
    assert code == 0
    assert "crossing_number: 0\nf: unavailable\n" in out


@pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
@pytest.mark.parametrize("assumed", ["0", "-2"])
def test_assumed_crossing_number_must_be_positive(capsys, fmt, assumed):
    with pytest.raises(SystemExit) as exc:
        main(["invariant", "s1^3", "--assume-crossing-number", assumed, "--format", fmt])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--assume-crossing-number: must be at least 1, got {assumed}" in captured.err


def test_colorings_pretty(capsys):
    code, out, err = run(capsys, ["colorings", "B2: s1^3"])
    assert code == 0
    assert "colorings: 16" in out
    assert "  (0, T)" in out


def test_colorings_affine_csv_matches_brute(capsys):
    code, brute, _ = run(capsys, ["colorings", "B3: s2^-3 s1^3 s2^-3", "--format", "csv"])
    assert code == 0
    code, affine, _ = run(
        capsys, ["colorings", "B3: s2^-3 s1^3 s2^-3", "--affine", "--format", "csv"]
    )
    assert code == 0
    assert affine == brute
    assert brute.splitlines()[0] == "strand_1,strand_2,strand_3"
    assert len(brute.strip().splitlines()) == 65  # header + 4^3 colorings


def test_colorings_alexander_options(capsys):
    code, out, err = run(capsys, ["colorings", "s1^3", "--mod", "3", "--poly", "T-2"])
    assert code == 0
    assert "colorings: 9" in out  # 3-colorings of the trefoil
    code, out, err = run(capsys, ["colorings", "s1^3", "--mod", "3"])
    assert code == 2
    assert "--poly" in err


@pytest.mark.parametrize("affine", [[], ["--affine"]])
def test_colorings_refuses_a_polynomial_without_a_modulus(capsys, affine):
    # a polynomial alone names no quandle, so it must not fall back to the default one
    code, out, err = run(capsys, ["colorings", "s1^3", "--poly", "T+3", *affine])
    assert (code, out) == (2, "")
    assert "--poly needs --mod" in err
    # --mod 0 names a modulus too: it is refused by the ring, not read as "no --mod"
    code, out, err = run(capsys, ["colorings", "s1^3", "--mod", "0", "--poly", "T+1", *affine])
    assert (code, out) == (2, "")
    assert "modulus" in err


def test_colorings_refuses_a_quandle_file_next_to_alexander_options(capsys, tmp_path):
    path = tmp_path / "s4.json"
    save_quandle(build_s4(), path)
    for extra in (["--mod", "5", "--poly", "T+3"], ["--poly", "T+3"]):
        code, out, err = run(capsys, ["colorings", "s1^3", "--quandle", str(path), *extra])
        assert (code, out) == (2, ""), extra
        assert "--quandle" in err and "--mod/--poly" in err, extra
    # a quandle file is no Alexander presentation, so the affine solver refuses it too
    code, out, err = run(capsys, ["colorings", "s1^3", "--quandle", str(path), "--affine"])
    assert (code, out, err) == (2, "", "error: --affine needs an Alexander presentation (--mod/--poly or the default)\n")


def test_quandle_build_pretty(capsys):
    code, out, err = run(capsys, ["quandle", "build", "s4"])
    assert code == 0
    assert "4-element quandle" in out
    assert "T+1" in out


def test_quandle_build_json(capsys):
    code, out, err = run(capsys, ["quandle", "build", "s4", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 4
    assert doc["op"][0] == [0, 3, 1, 2]


def test_quandle_build_check_cycle(capsys, tmp_path):
    path = tmp_path / "r3.json"
    code, out, err = run(
        capsys, ["quandle", "build", "alexander", "--mod", "3", "--poly", "T-2", "--out", str(path)]
    )
    assert code == 0
    assert path.exists()
    code, out, err = run(capsys, ["quandle", "check", str(path)])
    assert code == 0
    assert "ok" in out


def test_quandle_build_alexander_needs_args(capsys):
    code, out, err = run(capsys, ["quandle", "build", "alexander"])
    assert code == 2
    assert "--mod" in err


def test_quandle_build_rejects_bad_ring(capsys):
    code, out, err = run(capsys, ["quandle", "build", "alexander", "--mod", "4", "--poly", "T-2"])
    assert code == 2
    assert "not invertible" in err


@pytest.mark.parametrize("poly", ["T^30000000+1", "T^99999999999999+1", "T^11+1", "2T^" + "0" * 10**5 + "11"])
@pytest.mark.parametrize("head", [["colorings", "s1^3"], ["quandle", "build", "alexander"]])
def test_a_polynomial_of_degree_above_ten_is_refused_quickly(capsys, head, poly):
    # the degree used to size a coefficient tuple and the power mod**degree before any check
    start = time.perf_counter()
    code, out, err = run(capsys, [*head, "--mod", "3", "--poly", poly, *(["--affine"] if head[0] == "colorings" else [])])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: polynomial degree above 10: the quotient ring would have more than 1024 elements\n"


@pytest.mark.parametrize(
    "argv, unknowns",
    [
        (["colorings", "B9999999: s1", "--affine"], "9999999 strands x degree 2 = 19999998"),
        (["colorings", "B1025: s1", "--affine", "--budget", "1"], "1025 strands x degree 2 = 2050"),
        (["colorings", "B2049: s1", "--affine", "--mod", "5", "--poly", "T+3"], "2049 strands x degree 1 = 2049"),
    ],
)
def test_an_affine_system_above_the_cap_is_refused_quickly(capsys, argv, unknowns):
    # 9999999 strands were pushed as lanes of as many bytes until memory ran out
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: the affine system has {unknowns} unknowns, above the cap of 2048\n"


def test_a_composite_affine_system_above_its_cap_is_refused_quickly(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, ["colorings", "B513: s1", "--affine", "--mod", "4", "--poly", "T+1"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (
        "error: the affine system has 513 strands x degree 1 = 513 unknowns, above the cap of 512 for a ring over "
        "Z_4 of 4^1 elements; a prime modulus with a ring of at most 16 elements solves up to 2048\n"
    )


def test_an_affine_system_at_the_cap_is_solved(capsys):
    # 1024 strands of degree 2 are exactly the cap; all lanes but s1's pair are free
    code, out, err = run(capsys, ["colorings", "B1024: s1", "--affine", "--budget", "1"])
    assert (code, out) == (1, "")
    assert err == f"error: {4**1023} colorings exceed the budget 1\n"


@pytest.mark.parametrize("poly", ["1" * 5000 + "T+1", "T+" + "0" * 4300 + "1", "2T^2+" + "7" * 10**5])
@pytest.mark.parametrize("head", [["colorings", "s1^3"], ["quandle", "build", "alexander"]])
def test_a_coefficient_numeral_above_4300_digits_is_refused(capsys, head, poly):
    # int() refused these with Python's own message about its integer string conversion limit
    start = time.perf_counter()
    code, out, err = run(capsys, [*head, "--mod", "3", "--poly", poly, *(["--affine"] if head[0] == "colorings" else [])])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: polynomial coefficient has more than 4300 digits\n"


@pytest.mark.parametrize(
    "poly, coeffs",
    [
        ("+", None),
        ("-", None),
        ("T+1+", None),
        ("T++1", None),
        ("1-", None),
        ("T^2 + T + 1", (1, 1, 1)),
        ("+T+1", (1, 1)),
        ("T-2", (-2, 1)),
        ("2T", (0, 2)),
    ],
)
@pytest.mark.parametrize("head", [["colorings", "s1^3"], ["quandle", "build", "alexander"]])
def test_a_polynomial_is_read_only_when_its_signed_terms_spell_it(capsys, head, poly, coeffs):
    # "+" and "-" failed inside max() over no terms; the others lost a stray sign and read as T+1, T+1 and 1
    code, out, err = run(capsys, [*head, "--mod", "3", "--poly", poly])
    if coeffs is None:
        assert (code, out, err) == (2, "", f"error: bad polynomial {poly!r}\n")
    else:
        assert "bad polynomial" not in err and cli._parse_poly(poly) == coeffs


def test_a_coefficient_numeral_of_4300_digits_is_read(capsys):
    # 10^4299 = 1 mod 3, and so is the leading-zero numeral: T + 1 over Z_3
    for numeral in ("1" + "0" * 4299, "0" * 4299 + "1"):
        code, out, err = run(capsys, ["colorings", "s1^3", "--mod", "3", "--poly", f"T+{numeral}", "--affine"])
        assert code == 0, err
        assert out.startswith("braid: B2: s1^3\ncolorings: 9\n")


def test_a_polynomial_of_degree_ten_over_z2_is_within_the_budget(capsys):
    code, out, err = run(capsys, ["colorings", "s1^3", "--mod", "2", "--poly", "T^0010+T^3+1", "--affine"])
    assert code == 0, err
    assert out.startswith("braid: B2: s1^3\ncolorings: ")


def test_quandle_check_reports_violations(capsys, tmp_path):
    q = build_s4()
    doc = q.to_json()
    op = [list(row) for row in doc["op"]]
    op[0][1], op[3][1] = op[3][1], op[0][1]  # keeps columns bijective
    doc["op"] = op
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["quandle", "check", str(path)])
    assert code == 1
    assert "violated" in out


def test_quandle_check_load_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"size": 2, "op": [[0, 0], [1, 0]], "labels": ["a", "b"]}')
    code, out, err = run(capsys, ["quandle", "check", str(path)])
    assert code == 1
    assert "load error" in out


def test_cocycle_check(capsys, tmp_path):
    path = tmp_path / "phi.json"
    save_cocycle(build_s4_cocycle(), path)
    code, out, err = run(capsys, ["cocycle", "check", str(path)])
    assert code == 0
    assert "ok" in out

    doc = json.loads(path.read_text())
    doc["table"][0][0] = 1
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["cocycle", "check", str(path)])
    assert code == 1

    del doc["table"]
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["cocycle", "check", str(path)])
    assert code == 1
    assert out.startswith("load error: ")


def test_invariant_verifies_cocycle_file(capsys, tmp_path):
    path = tmp_path / "phi.json"
    save_cocycle(build_s4_cocycle(), path)
    code, out, err = run(capsys, ["invariant", "s1^3", "--cocycle", str(path), "--format", "json"])
    assert code == 0
    assert json.loads(out)["Z"]["coeffs"] == ["4", "12"]

    doc = json.loads(path.read_text())
    doc["table"][0][1] = 0  # phi(a, a) stays the identity; the 2-cocycle condition breaks
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["invariant", "s1^3", "--cocycle", str(path)])
    assert (code, out) == (2, "")
    assert "is not a 2-cocycle: cocycle condition fails at (0, 1, 0)" in err
    code, out, err = run(capsys, ["cocycle", "check", str(path)])
    assert code == 1
    assert len(out.splitlines()) == 10  # the full report, not just the first triple

    # a cocycle over the 3-element dihedral quandle next to a file of the 4-element one
    quandle_path, cocycle_path = tmp_path / "q4.json", tmp_path / "c3.json"
    save_quandle(build_s4(), quandle_path)
    dihedral = build_alexander_quandle(AlexanderQuandleSpec(3, (1, 1)))
    save_cocycle(build_trivial_cocycle(dihedral, build_cyclic_group(2)), cocycle_path)
    code, out, err = run(capsys, ["invariant", "s1^3", "--quandle", str(quandle_path), "--cocycle", str(cocycle_path)])
    assert (code, out, err) == (2, "", "error: --quandle and --cocycle disagree about the quandle\n")


def test_invariant_with_quandle_file_uses_trivial_cocycle(capsys, tmp_path):
    path = tmp_path / "s4.json"
    save_quandle(build_s4(), path)
    code, out, err = run(capsys, ["invariant", "s1^3", "--quandle", str(path), "--format", "json"])
    assert code == 0
    assert json.loads(out)["Z"]["coeffs"] == ["16", "0"]


def test_family_sweep_verify_csv(capsys):
    code, out, err = run(capsys, ["family", "Kn", "--n", "1..3", "--verify", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,m,n,strands,crossings,z_1,z_2,f_1,f_2,check"
    assert lines[1].startswith("Kn,,1,2,3,4,12,")
    assert lines[1].endswith("agree")
    assert lines[3].startswith("Kn,,3,4,15,64,192,")
    assert lines[4].startswith("# limit ")
    report = json.loads(lines[4].removeprefix("# limit "))
    assert report["family"] == "Kn"


SWEEP = ["family", "KPrimeM:2", "--n", "1..50"]


def test_family_sweep_builds_no_letters(capsys, monkeypatch):
    before = {fmt: run(capsys, SWEEP + ["--format", fmt]) for fmt in ("pretty", "json", "csv")}
    family = sequences.FamilyId("KPrimeM", 2)
    texts = [p["braid"] for p in json.loads(before["json"][1])["points"]]
    assert texts == [reference_family_braid(family, n).canonical() for n in range(1, 51)]

    def refuse(*args):
        raise AssertionError("family_braid called without --verify")

    monkeypatch.setattr(sequences, "family_braid", refuse)
    for fmt, (code, out, err) in before.items():
        assert code == 0
        assert run(capsys, SWEEP + ["--format", fmt]) == (0, out, err), fmt


def test_family_json_texts_match_the_per_point_path(capsys):
    code, out, err = run(capsys, ["family", "KPrime", "--n", "1..50", "--format", "json"])
    assert code == 0
    family = sequences.FamilyId("KPrime")
    points = json.loads(out)["points"]
    assert [p["n"] for p in points] == list(range(1, 51))
    for p in points:
        n = p["n"]
        assert p["braid"] == next(sequences.family_texts(family, n, n)), n
        assert p["braid"] == reference_family_braid(family, n).canonical(), n


def test_family_verify_builds_letters(capsys, monkeypatch):
    calls = []

    def counting(family, n):
        calls.append(n)
        return reference_family_braid(family, n)

    monkeypatch.setattr(sequences, "family_braid", counting)
    # 4^6 tuples: the budget admits members of at most 6 strands, n = 1..5
    code, out, err = run(capsys, SWEEP + ["--verify", "--budget", "4096", "--format", "csv"])
    assert code == 0
    assert calls == [1, 2, 3, 4, 5]
    rows = out.splitlines()[1:51]
    assert all(line.endswith(",agree") for line in rows[:5])
    assert all(line.endswith(",skipped") for line in rows[5:])


def test_family_verify_skips_members_without_building_letters(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("family_braid called for a member that cannot be scanned")

    monkeypatch.setattr(sequences, "family_braid", refuse)
    # Km:10^8 has about 6*10^8 letters at n = 1, above MAX_LETTERS on 2 strands;
    # K0 n=1000 has 3,002,997 letters on 2000 strands, far above both caps
    for argv, members in ((["family", "Km:100000000", "--n", "1..2"], 2), (["family", "K0", "--n", "1000"], 1)):
        start = time.perf_counter()
        code, out, err = run(capsys, argv + ["--verify"])
        assert time.perf_counter() - start < 1.0, argv
        assert (code, err) == (0, ""), argv
        lines = out.splitlines()[1 : 1 + members]
        assert len(lines) == members and all(line.endswith(" check=skipped") for line in lines), argv


def test_family_json_caps_the_blocks_of_a_range(capsys, monkeypatch):
    # Kn member n has 2n - 1 blocks, so n = 1..32 sums to 32^2 and 1..33 to 33^2
    monkeypatch.setattr(cli, "MAX_BLOCKS", 1024)
    code, out, err = run(capsys, ["family", "Kn", "--n", "1..32", "--format", "json"])
    assert (code, err) == (0, "")
    assert len(json.loads(out)["points"]) == 32
    code, out, err = run(capsys, ["family", "Kn", "--n", "1..33", "--format", "json"])
    assert (code, out) == (2, "")
    assert "1089 twist blocks" in err and "cap of 1024" in err and "Traceback" not in err
    for fmt in ("pretty", "csv"):  # they print no words
        code, out, err = run(capsys, ["family", "Kn", "--n", "1..33", "--format", fmt])
        assert (code, err) == (0, ""), fmt


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("family", ["Kn", "KPrime", "K0", "Km:1", "Km:40", "KPrimeM:2"])
def test_family_writers_match_the_generic_writers(capsys, family, fmt):
    # 4^4 tuples: members of up to 4 strands agree, the rest are skipped
    budget = 4**4
    for n in ("3", "3..4", "1..60", "7..40"):
        lo, hi = _parse_range(n)
        for verify in (False, True):
            argv = ["family", family, "--n", n, "--format", fmt] + (["--verify", "--budget", str(budget)] if verify else [])
            code, out, err = run(capsys, argv)
            assert (code, err) == (0, ""), argv
            expected = reference_family_stdout(sequences.parse_family_id(family), lo, hi, fmt, verify, budget)
            assert out == expected, argv
            if verify and n == "1..60":
                assert "agree" in out and "skipped" in out, argv


def test_family_json_holds_one_member_at_a_time(monkeypatch):
    class CountingSink:
        written = 0

        def write(self, text):
            self.written += len(text)
            return len(text)

        def flush(self):
            pass

    sink = CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["family", "K0", "--n", "1..120", "--format", "json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.written > 4 * 10**6
    assert peak < sink.written / 4, (peak, sink.written)


class _Sink:
    """A stdout that counts the characters written, and keeps each write if asked."""

    def __init__(self, keep=False):
        self.writes, self.written, self.keep = [], 0, keep

    def write(self, text):
        self.written += len(text)
        if self.keep:
            self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["pretty", "csv"])
def test_pretty_and_csv_sweeps_write_in_batches(capsys, monkeypatch, fmt):
    # 11 members with checks: the head, then ceil(11 / BATCH_ROWS) batches, then the limit report
    argv = ["family", "KPrime", "--n", "2..12", "--verify", "--budget", str(4**5), "--format", fmt]
    monkeypatch.setattr(cli, "BATCH_ROWS", 10**6)
    code, whole, err = run(capsys, argv)
    assert (code, err) == (0, "") and "agree" in whole and "skipped" in whole
    if fmt == "csv":
        assert whole == reference_family_stdout(sequences.parse_family_id("KPrime"), 2, 12, fmt, True, 4**5)
    for size in (1, 3, 11, 12):
        monkeypatch.setattr(cli, "BATCH_ROWS", size)
        sink = _Sink(keep=True)
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(argv) == 0
        assert "".join(sink.writes) == whole, size
        assert len(sink.writes) == 2 + -(-11 // size), size


@pytest.mark.parametrize("fmt", ["pretty", "csv"])
def test_pretty_and_csv_sweeps_hold_one_batch_of_lines(monkeypatch, fmt):
    # the rows, each with its Z, stay for the limit report; the lines printed from them do not
    monkeypatch.setattr(cli, "BATCH_ROWS", 16)
    tracemalloc.start()
    try:
        rows = list(sequences.family_rows(sequences.FamilyId("Kn"), 1, 2000))
        rows_peak = tracemalloc.get_traced_memory()[1]
        del rows
        tracemalloc.reset_peak()
        sink = _Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        code = main(["family", "Kn", "--n", "1..2000", "--format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.written > 2 * 10**6
    assert peak < rows_peak + sink.written / 2, (peak, rows_peak, sink.written)


@pytest.mark.parametrize("fmt", ["pretty", "csv"])
def test_family_sweep_body_is_the_single_member_bodies(capsys, fmt):
    # pretty: a head line, then one line per member, then the limit report (3+ members);
    # csv: a header, one row per member, then the "# limit" line
    code, out, err = run(capsys, ["family", "KPrime", "--n", "1..40", "--format", fmt])
    assert (code, err) == (0, "")
    body = out.splitlines()[1:-1]
    singles = []
    for n in range(1, 41):
        code, single, err = run(capsys, ["family", "KPrime", "--n", f"{n}..{n}", "--format", fmt])
        assert (code, err) == (0, ""), n
        singles += single.splitlines()[1:]
    assert body == singles


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "Kn", "--n", "9999999999999999999999..10000000000000000000000"],
        ["family", "Kn", "--n", "100000000..100000002"],
        ["family", "K0", "--n", "100001"],
        ["limits", "--families", "KPrime", "--n", "100000000..100000002"],
        ["limits", "--families", "Kn,K0", "--n", "99999..100001"],
    ],
)
def test_family_index_is_capped(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, ""), argv
    assert "above the index cap of 100000" in err and "Traceback" not in err


def test_family_index_cap_itself_is_accepted(capsys):
    code, out, err = run(capsys, ["limits", "--families", "Kn,KPrime,K0", "--n", "99998..100000"])
    assert (code, err) == (0, "")
    assert "limit[K0]" in out
    assert _parse_range("100000") == (100000, 100000)


def test_family_sweep_pretty(capsys):
    code, out, err = run(capsys, ["family", "KPrime", "--n", "1..4"])
    assert code == 0
    assert "n=3 strands=4 crossings=18 Z=160*1 + 96*t" in out
    assert "limit[KPrime]" in out


def test_family_with_parameter(capsys):
    code, out, err = run(capsys, ["family", "Km:2", "--n", "1..3", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "Km(2)"
    assert [p["n"] for p in doc["points"]] == [1, 2, 3]
    assert doc["points"][0]["crossings"] == 15


@pytest.fixture
def int_str_limit():
    """Set sys.set_int_max_str_digits for one test and restore it afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no integer string conversion limit")
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
def test_family_refuses_a_Z_above_the_int_string_limit(capsys, int_str_limit, fmt):
    # 3 * 4^n first has more than 4300 digits at n = 7142 (Kn) and 2n - 1 = 7143 (K0)
    int_str_limit(4300)
    for family, first_bad in (("Kn", 7142), ("K0", 3572)):
        code, out, err = run(capsys, ["family", family, "--n", f"{first_bad - 2}..{first_bad}", "--format", fmt])
        assert (code, out) == (2, "")
        assert f"family {family} at n={first_bad} " in err and "4300 digits" in err
        assert "PYTHONINTMAXSTRDIGITS" in err and "Traceback" not in err
    code, out, err = run(capsys, ["family", "Kn", "--n", "7140..7141", "--format", fmt])
    assert code == 0 and str(3 * 4**7141) in out
    int_str_limit(0)  # no limit: nothing is refused
    code, out, err = run(capsys, ["family", "Kn", "--n", "7142", "--format", fmt])
    assert code == 0 and str(3 * 4**7142) in out


def test_family_bad_range(capsys):
    code, out, err = run(capsys, ["family", "Kn", "--n", "3..1"])
    assert code == 2


def test_limits_json(capsys):
    code, out, err = run(
        capsys,
        ["limits", "--families", "Kn,K0,KPrime", "--n", "10..200", "--tolerance", "0.02",
         "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["families"] == ["Kn", "K0", "KPrime"]
    assert len(doc["reports"]) == 3
    matrix = doc["matrix"]
    for i in range(3):
        for j in range(3):
            assert matrix[i][j] == ("OVERLAPPING" if i == j else "DISTINCT")
    kn = doc["reports"][0]
    assert kn["converged"] is True
    assert kn["closed_form"] == [0.23104906018664842, 0.23104906018664842]


def test_limits_pretty_matrix(capsys):
    code, out, err = run(capsys, ["limits", "--families", "Kn,K0", "--n", "10..100"])
    assert code == 0
    assert "limit[Kn]" in out
    assert "DISTINCT" in out
    assert "OVERLAPPING" in out


@pytest.mark.parametrize(
    "argv",
    [["limits", "--families", "Kn", "--n", "1..3"], ["quandle", "build", "s4"]],
)
def test_csv_format_is_a_usage_error_without_a_csv_output(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "csv"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--format" in err
    assert "invalid choice: 'csv'" in err


@pytest.mark.parametrize("tolerance", ["nan", "inf", "0"])
@pytest.mark.parametrize("command", [["limits", "--families", "Kn,K0"], ["family", "Kn"]])
def test_tolerance_must_be_finite_and_positive(capsys, command, tolerance):
    # Kn and K0 (limits 0.231 and 0) must not be reported OVERLAPPING under a NaN tolerance
    code, out, err = run(capsys, command + ["--n", "1..30", "--tolerance", tolerance])
    assert (code, out) == (2, "")
    assert "finite and positive" in err and "Traceback" not in err


def test_family_checks_the_tolerance_before_the_first_member(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("compute_invariant ran before the tolerance was checked")

    monkeypatch.setattr(cli, "compute_invariant", refuse)
    for argv in (["family", "Kn", "--n", "1..2"], ["family", "Kn", "--n", "1..3", "--verify"]):
        code, out, err = run(capsys, argv + ["--tolerance", "nan"])
        assert (code, out) == (2, ""), argv
        assert "finite and positive" in err, argv


def test_limits_needs_enough_samples(capsys):
    code, out, err = run(capsys, ["limits", "--families", "Kn", "--n", "1..2"])
    assert code == 2
    assert "3 samples" in err
    code, out, err = run(capsys, ["limits", "--families", ","])
    assert (code, out, err) == (2, "", "error: --families needs at least one family id\n")


def test_sample_ranges_are_capped(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, ["limits", "--families", "Kn", "--n", "1..100000000"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "100000000 members" in err and "cap of 10000" in err and "Traceback" not in err
    for argv in (["limits", "--families", "Kn", "--n", "5..10005"], ["family", "Kn", "--n", "2..10002"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "") and "10001 members" in err, argv
    assert _parse_range("3..10002") == (3, 10002)  # the cap itself is accepted


def test_limits_cap_counts_every_family(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, ["limits", "--families", "Kn,K0,KPrime", "--n", "1..4000"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "3 families x 4000 members" in err and "cap of 10000" in err and "Traceback" not in err
    code, out, err = run(capsys, ["limits", "--families", "Kn,K0", "--n", "1..5000"])  # the cap itself
    assert (code, err) == (0, "")
    assert "limit[Kn]" in out and "limit[K0]" in out


def test_cache_file_round_trip(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    code, first, _ = run(capsys, ["invariant", "s1^3", "--cache", str(cache), "--format", "json"])
    assert code == 0
    assert len(cache.read_text().strip().splitlines()) == 1
    code, second, _ = run(capsys, ["invariant", "s1^3", "--cache", str(cache), "--format", "json"])
    assert code == 0
    assert second == first
    assert len(cache.read_text().strip().splitlines()) == 1


def test_cache_env_var_overrides_flag(capsys, tmp_path, monkeypatch):
    flag_cache = tmp_path / "flag.jsonl"
    env_cache = tmp_path / "env.jsonl"
    monkeypatch.setenv("QCJKLS_CACHE", str(env_cache))
    code, out, err = run(capsys, ["invariant", "s1^3", "--cache", str(flag_cache)])
    assert code == 0
    assert env_cache.exists()
    assert not flag_cache.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["invariant", "s1^3"],
        ["colorings", "s1^3"],
        ["colorings", "s1^3", "--affine"],
        ["family", "Kn", "--n", "1..2", "--verify"],
    ],
)
@pytest.mark.parametrize("budget", ["0", "-1"])
def test_budget_must_be_positive(capsys, argv, budget):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--budget", budget])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--budget" in err
    assert f"at least 1, got {budget}" in err


def test_cache_hit_respects_assumed_crossing_number(capsys, tmp_path):
    cache = str(tmp_path / "c.jsonl")
    code, out, _ = run(capsys, ["invariant", "s1^3", "--assume-crossing-number", "7", "--cache", cache])
    assert code == 0
    assert "crossing_number: 7" in out
    code, cached, _ = run(capsys, ["invariant", "s1^3", "--cache", cache, "--format", "json"])
    assert code == 0
    code, fresh, _ = run(capsys, ["invariant", "s1^3", "--format", "json"])
    assert cached == fresh
    assert json.loads(cached)["crossing_number"] == 3


def test_torn_cache_line_is_skipped(capsys, tmp_path):
    cache = tmp_path / "c.jsonl"
    code, first, _ = run(capsys, ["invariant", "s1^3", "--cache", str(cache), "--format", "json"])
    assert code == 0
    with open(cache, "a", encoding="utf-8") as fh:
        fh.write('{"braid": "B2: s1^-3", "Z": {"co')
    for _ in range(2):
        code, out, err = run(capsys, ["invariant", "s1^3", "--cache", str(cache), "--format", "json"])
        assert (code, out, err) == (0, first, "")
        code, out, err = run(capsys, ["invariant", "s1^-3", "--cache", str(cache), "--format", "json"])
        assert code == 0 and err == ""


# argvs whose parses, usage errors, help texts and exit statuses must not depend on the route
_ROUTE_ARGVS = [
    [], ["-h"], ["--help"], ["--version"], ["inv", "s1"], ["invariant"], ["invariant", "s1"],
    ["invariant", "s1", "extra"], ["invariant", "--", "s1"], ["invariant", "s1", "--form", "json"],
    ["invariant", "s1", "--format", "xml"], ["invariant", "-h"], ["invariant", "s1", "--budget", "0"],
    ["invariant", "s1", "--cache"], ["invariant", "s1", "s2"], ["invariant", "s1", "-x"],
    ["--format", "json", "invariant", "s1"], ["invariant", "s1^3", "--assume-crossing-number", "3"],
    ["quandle"], ["quandle", "build"], ["quandle", "build", "s4"], ["quandle", "build", "s4", "--format", "csv"],
    ["quandle", "check"], ["quandle", "frobnicate"], ["cocycle", "check"], ["cocycle"],
    ["colorings", "s1^3", "--affine", "--format", "csv"], ["colorings", "s1^3", "--mod", "3"],
    ["family", "Kn"], ["family", "Kn", "--n", "1..3", "--verify"], ["family", "--n", "2", "Kn", "--format", "json"],
    ["family", "Kn", "--n", "1..3", "extra", "--format", "csv"], ["limits"], ["limits", "--families", "Kn,K0", "--n", "1..5"],
    ["limits", "-h"], ["invariant", "s1^3", "--format=json"], ["invariant", "--format", "json", "s1"],
]


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_each_command_goes_to_its_subparser_with_the_full_parsers_outcome(capsys, monkeypatch):
    direct = [_outcome(capsys, argv) for argv in _ROUTE_ARGVS]
    parser = cli._build_parser()[0]
    with monkeypatch.context() as patch:
        patch.setattr(parser, "parse_args", None)  # a well-formed command never reaches the full parser
        assert _outcome(capsys, ["invariant", "s1^3", "--format", "json"])[0] == 0
    monkeypatch.setattr(cli, "_parse_args", parser.parse_args)
    full = [_outcome(capsys, argv) for argv in _ROUTE_ARGVS]
    for argv, a, b in zip(_ROUTE_ARGVS, direct, full):
        assert a == b, argv
    assert sum(code == 0 for code, _, _ in direct) >= 8
    assert sum(code == ("exit", 2) for code, _, _ in direct) >= 15
