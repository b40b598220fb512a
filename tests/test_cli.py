"""Command-line behavior: exit codes, determinism, formats.

All invocations go through cli.main in-process; exit code 0 is success,
1 a failed --check or bad input (device string, file), 2 a one-line
argparse usage error (unknown flag, out-of-range count or n).
"""

import json
import os
import subprocess
import sys

import pytest

import certlab
from certlab.cli import main
from certlab.llqsv import from_llq1


def run(*argv):
    return main(list(argv))


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert "certlab" in capsys.readouterr().out


def test_import_leaves_scipy_integrate_and_stats_unloaded():
    # both are imported inside the functions that need them: loading them
    # at import time costs every CLI start most of a second
    src = os.path.dirname(os.path.dirname(certlab.__file__))
    code = ("import sys, certlab.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.stats') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run("pgpb", "--bogus")
    assert exc.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["derandomize", "--seeds", "0"],
    ["pgpb", "--threads", "-3"],
    ["llqsv", "--t", "0", "--check"],
    ["wht", "--n", "0"],
    ["wht", "--n", "25"],
    ["pgpb", "--trials", "0"],
    ["pgpb", "--trials", "ten"],
    ["hog", "--samples", "0"],
    ["sqforr", "--threads", "0"],
    ["protocol", "--t", "0"],
    ["hog", "--seed", "-1"],
    ["hog", "--seed", "0x10000000000000000"],
    ["derandomize", "--budget", "0"],
    ["protocol", "--extract-bits", "-1"],
], ids=" ".join)
def test_out_of_range_flag_is_one_line_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--out", "/dev/null")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert f"error: argument {argv[1]}:" in err


def test_bad_bfn1_file_reports_error(tmp_path, capsys):
    from certlab.boolfn import random_function, to_bfn1
    from certlab.rng import make_rng

    bad = tmp_path / "f.bfn1"
    bad.write_bytes(to_bfn1(random_function(4, make_rng(1))) + b"\x00")
    assert run("wht", "--in", str(bad), "--out", "/dev/null") == 1
    assert "certlab:" in capsys.readouterr().err


def test_wht_json_payload(tmp_path, capsys):
    out = tmp_path / "w.json"
    assert run("wht", "--n", "3", "--seed", "5", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["command"] == "wht"
    assert payload["config"]["seed"] == 5
    assert len(payload["results"]["coeffs"]) == 8
    assert payload["results"]["parseval_sum"] == pytest.approx(1.0)


def test_wht_check_passes(capsys):
    assert run("wht", "--n", "4", "--seed", "1", "--check",
               "--out", "/dev/null") == 0
    # the --check line format: CHECK PASS|FAIL name: detail, on stderr
    err = capsys.readouterr().err.splitlines()
    assert err[2] == "CHECK PASS integer-parseval: sum W^2 = 256 == N^2"
    assert len(err) == 3 and all(ln.startswith("CHECK PASS ") for ln in err)


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["pgpb", "--n", "8", "--trials", "3000", "--seed", "12"]
    assert run(*argv, "--out", str(a)) == 0
    assert run(*argv, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_results_independent_of_threads(tmp_path):
    one, four = tmp_path / "t1.json", tmp_path / "t4.json"
    argv = ["pgpb", "--n", "8", "--trials", "20000", "--seed", "12"]
    assert run(*argv, "--threads", "1", "--out", str(one)) == 0
    assert run(*argv, "--threads", "4", "--out", str(four)) == 0
    assert one.read_bytes() == four.read_bytes()


def test_sqforr_threads_and_check(tmp_path):
    one, three = tmp_path / "s1.json", tmp_path / "s3.json"
    argv = ["sqforr", "--n", "8", "--c", "1", "--trials", "10000",
            "--seed", "2"]
    assert run(*argv, "--threads", "1", "--out", str(one), "--check") == 0
    assert run(*argv, "--threads", "3", "--out", str(three)) == 0
    assert one.read_bytes() == three.read_bytes()


def test_rhog_check_modes(tmp_path):
    assert run("rhog", "--n", "8", "--c", "1", "--trials", "10000",
               "--seed", "3", "--check", "--out", "/dev/null") == 0
    assert run("rhog", "--n", "8", "--c", "1", "--trials", "5000",
               "--seed", "3", "--uniform-sampler", "--check",
               "--out", "/dev/null") == 0


def test_failed_check_exits_one(tmp_path):
    # an impossible tolerance forces the reference comparison to fail
    assert run("pgpb", "--n", "8", "--trials", "500", "--seed", "1",
               "--check", "--tol", "1e-9", "--out", "/dev/null") == 1


def test_csv_format(tmp_path):
    out = tmp_path / "w.csv"
    assert run("wht", "--n", "2", "--seed", "9", "--format", "csv",
               "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# certlab")
    assert lines[2] == "z,coeff,scaled"
    assert len(lines) == 3 + 4


@pytest.mark.parametrize("sampler", ["honest", "uniform"])
def test_pgpb_check_holds_exact_law(sampler):
    # at n=8 the exact rates sit ~0.03 from the Gaussian limit, beyond the
    # 0.02 tolerance, so a correct sampler passes only against the exact law
    assert run("pgpb", "--n", "8", "--trials", "20000", "--sampler", sampler,
               "--check", "--out", "/dev/null") == 0


def test_hog_check(tmp_path):
    assert run("hog", "--n", "8", "--samples", "20000", "--seed", "4",
               "--check", "--tol", "0.01", "--out", "/dev/null") == 0


def test_perturb_check_and_payload(tmp_path):
    out = tmp_path / "p.json"
    assert run("perturb", "--n", "6", "--seed", "5", "--check",
               "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    res = payload["results"]
    assert res["coeff_after"] == pytest.approx(res["coeff_expected"])
    assert res["tv_distance"] <= res["tv_bound"]


def test_perturb_odd_n_is_usage_error():
    assert run("perturb", "--n", "5", "--out", "/dev/null") == 2


def test_perturb_z_out_of_range_is_usage_error(capsys):
    assert run("perturb", "--n", "4", "--z", "16", "--out", "/dev/null") == 2
    assert capsys.readouterr().err == "perturb: --z must be in 0..15\n"


def test_derandomize_check(tmp_path):
    assert run("derandomize", "--device", "biased:0.98", "--n", "4",
               "--budget", "3000", "--seeds", "20", "--seed", "6",
               "--check", "--out", "/dev/null") == 0


def test_llqsv_writes_parseable_binary(tmp_path):
    out = tmp_path / "x.llq1"
    assert run("llqsv", "--n", "5", "--t", "300", "--case", "uniform",
               "--seed", "7", "--out", str(out), "--check") == 0
    inst = from_llq1(out.read_bytes(), "uniform")
    assert len(inst) == 300
    # same flags, same bytes
    out2 = tmp_path / "y.llq1"
    assert run("llqsv", "--n", "5", "--t", "300", "--case", "uniform",
               "--seed", "7", "--out", str(out2)) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_llqsv_past_dense_budget_is_one_line_error(capsys):
    # T * N = 17 * 2^24 sign entries: refused before any table is built
    assert run("llqsv", "--n", "24", "--t", "17", "--out", "/dev/null") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("certlab: ")
    assert "budget" in captured.err and captured.err.count("\n") == 1


def test_protocol_transcript_payload(tmp_path):
    out = tmp_path / "tr.json"
    assert run("protocol", "--n", "6", "--t", "512", "--device", "honest",
               "--claimed-q", "argmax", "--seed", "8", "--check",
               "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    res = payload["results"]
    assert res["score_pass"] is True
    assert len(res["challenges"]) == 512
    assert res["device"] == "honest"


def test_protocol_device_profiles(tmp_path):
    assert run("protocol", "--n", "6", "--t", "2048", "--device", "uniform",
               "--seed", "8", "--check", "--out", "/dev/null") == 0
    assert run("protocol", "--n", "6", "--t", "2048", "--device", "argmax",
               "--claimed-q", "argmax", "--seed", "8", "--check",
               "--out", "/dev/null") == 0


def test_invalid_device_reports_error(capsys):
    assert run("protocol", "--device", "warpdrive",
               "--out", "/dev/null") == 1
    assert "certlab:" in capsys.readouterr().err


def test_check_all_battery_passes(tmp_path, capsys):
    out = tmp_path / "battery.json"
    assert run("check-all", "--seed", "0", "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "FAIL" not in stdout
    payload = json.loads(out.read_text())
    checks = payload["results"]["checks"]
    assert len(checks) >= 20
    assert all(c["ok"] for c in checks)
