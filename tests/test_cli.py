"""End-to-end command-line checks, run in process via main(argv)."""

import json
import sys
import time

import pytest
from _helpers import reference_family_braid

from qcjkls import cli, sequences
from qcjkls.cli import _parse_range, main
from qcjkls.cocycle import build_s4_cocycle, save_cocycle
from qcjkls.quandle import build_s4, save_quandle


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
        assert p["braid"] == sequences.family_texts(family, n, n)[0], n
        assert p["braid"] == reference_family_braid(family, n).canonical(), n


def test_family_verify_builds_letters(capsys, monkeypatch):
    calls = []

    def counting(family, n):
        calls.append(n)
        return reference_family_braid(family, n)

    monkeypatch.setattr(sequences, "family_braid", counting)
    code, out, err = run(capsys, SWEEP + ["--verify", "--budget", "1", "--format", "csv"])
    assert code == 0
    assert calls == list(range(1, 51))
    assert all(line.endswith(",skipped") for line in out.splitlines()[1:51])


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
