"""Command line round trips, driven through main() for real exit codes."""

import json

import pytest

from flatpart.cli import main


def run(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_count_by_family(capsys):
    rc, out, _ = run(capsys, "count", "--family", "RR1", "--order", "8")
    assert rc == 0
    assert [int(x) for x in out.split()] == [1, 1, 1, 1, 2, 2, 3, 3, 4]


def test_count_by_rules_matches_family(capsys):
    rc1, out1, _ = run(capsys, "count", "--family", "MACMAHON",
                       "--order", "20")
    rc2, out2, _ = run(capsys, "count", "--rules", "1:2:1:2",
                       "--zeros", "1", "--order", "20")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_count_brute_route_agrees(capsys):
    rc, fast, _ = run(capsys, "count", "--family", "SCHUR", "--order", "18")
    rc2, slow, _ = run(capsys, "count", "--family", "SCHUR", "--order", "18",
                       "--brute")
    assert rc == rc2 == 0
    assert fast == slow


def test_product_output(capsys):
    rc, out, _ = run(capsys, "product", "--family", "MACMAHON",
                     "--order", "6")
    assert rc == 0
    assert [int(x) for x in out.split()] == [1, 0, 1, 1, 2, 1, 4]


def test_product_from_residues(capsys):
    rc, out, _ = run(capsys, "product", "--residues", "1,4",
                     "--modulus", "5", "--order", "10")
    assert rc == 0
    rr = run(capsys, "count", "--family", "RR1", "--order", "10")[1]
    assert out == rr


def test_product_without_modulus_is_a_usage_error(capsys):
    for option, value in (("--residues", "1,4"), ("--classes", "1:1,4:1")):
        with pytest.raises(SystemExit) as exc:
            main(["product", option, value, "--order", "5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--modulus" in err and "NoneType" not in err


def test_euler_subcommand(tmp_path, capsys):
    series_file = tmp_path / "f.txt"
    rc, out, _ = run(capsys, "count", "--family", "MACMAHON",
                     "--order", "40", "--out", str(series_file))
    assert rc == 0
    rc, out, _ = run(capsys, "euler", str(series_file), "--dmax", "8")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "period=6 classes=0:1,1:0,2:1,3:1,4:1,5:0"
    # exponent lines are c_1, c_2, ... in order
    assert [int(x) for x in lines[:-1]][:6] == [0, 1, 1, 1, 0, 1]


def test_euler_aperiodic(tmp_path, capsys):
    series_file = tmp_path / "g.txt"
    # 1/(1-q) alone: exponent 1 at m=1 and 0 elsewhere is periodic;
    # use partial sums of partitions instead, which factor irregularly
    series_file.write_text("\n".join(
        str(x) for x in (1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144,
                         233, 377, 610, 987, 1597, 2584, 4181, 6765,
                         10946, 17711, 28657, 46368, 75025)) + "\n")
    rc, out, _ = run(capsys, "euler", str(series_file), "--dmax", "6")
    assert rc == 0
    assert out.strip().splitlines()[-1] == "aperiodic"


def test_euler_on_a_series_with_huge_exponents(tmp_path, capsys):
    # its exponents reach 10**8 by m = 40; a pass per unit of |c_m| hangs
    series_file = tmp_path / "h.txt"
    rc, _, _ = run(capsys, "count", "--rules", "2:2:0:2;1:2:2:3", "--zeros",
                   "1", "--order", "60", "--out", str(series_file))
    assert rc == 0
    rc, out, _ = run(capsys, "euler", str(series_file), "--dmax", "8")
    assert rc == 0
    assert out.strip().splitlines()[-1] == "aperiodic"


def test_search_subcommand(tmp_path, capsys):
    bounds = {"max_rules": 1, "a_range": [1, 1], "b_range": [2, 2],
              "d_range": [1, 6], "zeros_range": [0, 1], "n_check": 25}
    bounds_file = tmp_path / "bounds.json"
    bounds_file.write_text(json.dumps(bounds))
    out_file = tmp_path / "hits.json"
    rc, out, _ = run(capsys, "search", "--bounds", str(bounds_file),
                     "--out", str(out_file))
    assert rc == 0
    hits = json.loads(out_file.read_text())
    assert any(h["rules"] == "1:2:1:2" and h["zeros"] == 1 and
               h["period"] == 6 for h in hits)


def test_verify_pass_and_fail_exit_codes(capsys):
    rc, out, _ = run(capsys, "verify", "--family", "RR1", "--nmax", "60")
    assert rc == 0
    assert "RR1: pass" in out
    rc, out, _ = run(capsys, "verify", "--family", "FAM8_MOD10_S39")
    assert rc == 1
    assert "FAIL" in out
    assert "not a theorem" in out


def test_bijection_forward_inverse_and_trace(capsys):
    fwd = "40,23,14,14,12,11,6,6,6,5,5"
    img = "20,20,7,7,7,7,7,7,7,7,7,6,6,4,3,3,3,3,3,3,1,1,1,1,1"
    rc, out, _ = run(capsys, "bijection", "--family", "FAM2", "--k", "2",
                     "--input", fwd)
    assert rc == 0
    assert out.strip() == img
    rc, out, _ = run(capsys, "bijection", "--family", "FAM2", "--k", "2",
                     "--input", img, "--inverse", "--trace")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[-1] == fwd
    assert "pi_1 = 20,20,6,6,3,3,3,3,3,3" in out
    assert "mu'' = 23,11,5,5" in out


def test_overpartition_table(capsys):
    rc, out, _ = run(capsys, "overpartition", "--k", "2",
                     "--nmax", "4", "--mmax", "2")
    assert rc == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert [int(x) for x in rows[0]] == [1, 1, 2, 3, 5]
    assert [int(x) for x in rows[1]] == [0, 1, 1, 3, 4]


def test_overpartition_enumeration_matches_recursion(capsys):
    rc, rec, _ = run(capsys, "overpartition", "--k", "3",
                     "--nmax", "8", "--mmax", "2")
    rc2, enu, _ = run(capsys, "overpartition", "--k", "3",
                      "--nmax", "8", "--mmax", "2", "--enumerate")
    assert rc == rc2 == 0
    assert rec == enu


def test_overpartition_specialization(capsys):
    rc, out, _ = run(capsys, "overpartition", "--k", "2",
                     "--specialize=-1,2", "--nmax", "12")
    assert rc == 0
    rr = run(capsys, "count", "--family", "FAM9_K2", "--order", "12")[1]
    assert out == rr


def test_errors_go_to_stderr_with_exit_one(capsys):
    rc, out, err = run(capsys, "count", "--family", "NOPE")
    assert rc == 1
    assert out == ""
    assert "error:" in err


def test_negative_sizes_are_rejected_before_any_work(capsys):
    for args, option in (
            (("count", "--rules", "1:2:1:2", "--order", "-3"), "--order"),
            (("product", "--residues", "1,4", "--modulus", "5",
              "--order", "-3"), "--order"),
            (("verify", "--family", "RR1", "--nmax", "-1"), "--nmax"),
            (("search", "--bounds", "b.json", "--verify", "-5"), "--verify"),
            (("bijection", "--family", "FAM2", "--k", "-2",
              "--input", "5"), "--k"),
            (("overpartition", "--k", "2", "--mmax", "-1"), "--mmax")):
        with pytest.raises(SystemExit) as exc:
            main(list(args))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument %s: must be a nonnegative integer" % option in err


def test_invalid_period_bounds_are_rejected(tmp_path, capsys):
    from flatpart.errors import PreconditionViolated
    from flatpart.euler import detect_period, euler_exponents
    from flatpart.search import SearchBounds
    from flatpart.series import load_series
    series_file = tmp_path / "s.txt"
    rc, _, _ = run(capsys, "product", "--residues", "1,4", "--modulus", "5",
                   "--order", "30", "--out", str(series_file))
    assert rc == 0
    rc, out, _ = run(capsys, "euler", str(series_file))
    assert rc == 0 and out.splitlines()[-1].startswith("period=5 ")
    for args in (("euler", str(series_file), "--dmax", "-2"),
                 ("euler", str(series_file), "--emax", "-1"),
                 ("count", "--rules", "1:2:1:2", "--zeros", "-1")):
        with pytest.raises(SystemExit) as exc:
            main(list(args))
        assert exc.value.code == 2
        assert "nonnegative" in capsys.readouterr().err
    rc, out, err = run(capsys, "euler", str(series_file), "--dmax", "0")
    assert rc == 1 and out == "" and "error:" in err

    fac = euler_exponents(load_series(str(series_file)))
    assert detect_period(fac, 5, e_max=0).periodic is False
    for d_max, e_max in ((0, 4), (-2, 4), (5, -1)):
        with pytest.raises(PreconditionViolated):
            detect_period(fac, d_max, e_max)
        with pytest.raises(PreconditionViolated):
            SearchBounds(1, (1, 1), (2, 2), (2, 2), d_max=d_max, e_max=e_max)
