"""Command-line behavior: exit codes, determinism, formats.

All invocations go through cli.main in-process; exit code 0 is success,
1 a failed --check or bad input (device string, file), 2 a one-line
argparse usage error (unknown flag, out-of-range count or n).
"""

import concurrent.futures
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import certlab
from certlab import boolfn, cli, devices, entropy
from certlab.cli import main
from certlab.llqsv import from_llq1
from certlab.rng import make_rng


def run(*argv):
    return main(list(argv))


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert "certlab" in capsys.readouterr().out


# small versions of the four benchmark workloads' commands
COLD_START_COMMANDS = [
    ["pgpb", "--n", "8", "--trials", "2048", "--threads", "2"],
    ["protocol", "--n", "6", "--t", "4096"],
    ["rhog", "--n", "8", "--c", "1", "--trials", "4096"],
    ["llqsv", "--n", "8", "--t", "1000"],
    ["derandomize", "--device", "biased:0.98", "--n", "4", "--budget", "1000",
     "--seeds", "50"],
]


def test_import_leaves_scipy_integrate_and_stats_unloaded(tmp_path):
    # both are imported inside the functions that need them: loading them
    # at import time costs every CLI start most of a second.  A run without
    # --check loads no scipy module at all; pgpb --check and check-all
    # still load scipy.stats, for exact_band_rates' binomial masses.
    src = os.path.dirname(os.path.dirname(certlab.__file__))
    code = ("import json, sys, certlab.cli\n"
            "print(sorted(m for m in ('scipy.integrate', 'scipy.stats') if m in sys.modules))\n"
            "for i, argv in enumerate(json.loads(sys.argv[2])):\n"
            "    out = f'{sys.argv[1]}/{i}.out'\n"
            "    assert certlab.cli.main(argv + ['--out', out]) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path),
                          json.dumps(COLD_START_COMMANDS)], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=120).stdout
    assert out.splitlines() == ["[]", "[]"]
    assert len(list(tmp_path.iterdir())) == len(COLD_START_COMMANDS)


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run("pgpb", "--bogus")
    assert exc.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 2


# flags that a command would not read are not registered for it
UNREAD_FLAGS = [["hog", "--format", "csv"], ["protocol", "--tol", "1"],
                ["perturb", "--tol", "1"]]


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
    # one trial has no CI: mean_ci99 would write "ci99": Infinity
    ["sqforr", "--trials", "1"],
    ["rhog", "--trials", "1"],
    # a negative or non-finite tolerance would turn a passing check false
    ["wht", "--tol", "-1", "--n", "3", "--check"],
    ["wht", "--tol", "nan", "--n", "3", "--check"],
    ["hog", "--tol", "inf", "--check"],
    *UNREAD_FLAGS,
], ids=" ".join)
def test_out_of_range_flag_is_one_line_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--out", "/dev/null")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    if argv in UNREAD_FLAGS:
        assert f"error: unrecognized arguments: {' '.join(argv[1:])}" in err
    else:
        assert f"error: argument {argv[1]}:" in err


def test_bad_bfn1_file_reports_error(tmp_path, capsys):
    from certlab.boolfn import random_function, to_bfn1
    from certlab.rng import make_rng

    bad = tmp_path / "f.bfn1"
    bad.write_bytes(to_bfn1(random_function(4, make_rng(1))) + b"\x00")
    assert run("wht", "--in", str(bad), "--out", "/dev/null") == 1
    assert "certlab:" in capsys.readouterr().err


def test_perturb_at_zero_coefficient_is_one_line_error(capsys):
    # seed 2 draws an n = 4 function with fhat(1) = 0
    assert run("perturb", "--n", "4", "--z", "1", "--seed", "2") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "certlab: fhat(1) = 0 has no sign to move toward zero\n"
    assert "sign=" not in captured.err


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


# every command that fans out, at 20000 trials: chunks of 8192, 8192 and 3616
@pytest.mark.parametrize("argv", [
    ["pgpb", "--n", "8", "--seed", "12"],
    ["sqforr", "--n", "6", "--c", "1", "--estimator", "plain", "--seed", "4"],
    ["sqforr", "--n", "6", "--c", "1", "--estimator", "conditional", "--seed", "4"],
    ["rhog", "--n", "6", "--c", "1", "--seed", "3"],
], ids=["pgpb", "sqforr-plain", "sqforr-conditional", "rhog"])
def test_results_independent_of_threads(argv, tmp_path):
    outs = {k: tmp_path / f"{k}.json" for k in ("t1", "t3", "default")}
    argv = argv + ["--trials", "20000"]
    assert run(*argv, "--threads", "1", "--out", str(outs["t1"])) == 0
    assert run(*argv, "--threads", "3", "--out", str(outs["t3"])) == 0
    assert run(*argv, "--out", str(outs["default"])) == 0
    assert (outs["t1"].read_bytes() == outs["t3"].read_bytes()
            == outs["default"].read_bytes())


def test_threads_default_to_the_usable_cpus(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
        for command in ("pgpb", "sqforr", "rhog"):
            assert cli.build_parser().parse_args([command]).threads == cpus
    # where the affinity call is missing, os.cpu_count stands in, then 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert cli.build_parser().parse_args(["rhog"]).threads == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli.build_parser().parse_args(["rhog"]).threads == 1


class CountingPool(concurrent.futures.ThreadPoolExecutor):
    """A ThreadPoolExecutor that records the worker count it was given."""

    sizes: list = []

    def __init__(self, max_workers):
        CountingPool.sizes.append(max_workers)
        super().__init__(max_workers=max_workers)


@pytest.mark.parametrize("chunks,threads,workers", [(2, 8, 2), (3, 2, 2), (1, 8, 0)])
def test_fanout_pool_is_no_larger_than_the_chunk_count(monkeypatch, chunks,
                                                       threads, workers):
    # 8 threads on 2 chunks start a pool of 2; one chunk starts none and
    # runs on the calling thread
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(CountingPool, "sizes", [])
    ran = []

    def worker(i, count):
        ran.append((i, count, threading.get_ident()))
        return i

    total = (chunks - 1) * cli._CHUNK + 5
    assert cli._fanout(total, threads, worker) == list(range(chunks))
    assert CountingPool.sizes == ([workers] if workers else [])
    assert sorted((i, c) for i, c, _ in ran) == [
        (i, cli._CHUNK if i < chunks - 1 else 5) for i in range(chunks)]
    idents = {t for _, _, t in ran}
    if workers:
        assert len(idents) <= workers
    else:
        assert idents == {threading.get_ident()}


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


def test_hog_contract_rejects_uniform_answers_at_the_honest_target():
    # hog's draws at n = 8, seed 0, answered by the uniform device: their
    # score 0.0039 sits 0.0099 below the honest target sum fhat^4, inside
    # a flat 0.01 window but far outside 3 ci99 of the sample
    rng = make_rng(0, cli._TAG_HOG)
    spec = boolfn.wht(boolfn.random_function(8, rng))
    samples = devices.DeviceModel("uniform").sample_many(spec, 100000, rng)
    target = boolfn.fourth_moment(spec)
    assert abs(np.mean(spec.coeffs[samples] ** 2) - target) <= 0.01
    [(name, ok, detail)] = cli._hog_contract(spec, samples, target)
    assert name == "score" and not ok
    assert float(detail.rsplit("= ", 1)[1]) < 0.001


def test_check_and_check_all_call_the_same_contract(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_pgpb_contract",
                        lambda *args, **kw: [("planted", False, "planted fault")])
    assert run("pgpb", "--n", "6", "--trials", "500", "--check",
               "--out", "/dev/null") == 1
    assert "CHECK FAIL planted: planted fault" in capsys.readouterr().err.splitlines()
    assert run("check-all") == 1
    assert "FAIL pgpb-planted: planted fault" in capsys.readouterr().out.splitlines()


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


@pytest.mark.parametrize("device", ["biased:0.98", "honest"])
def test_derandomize_bytes_ignore_the_seed_block(device, tmp_path, monkeypatch):
    # the default block holds all 20 seeds; blocks of 1 and 7 give the same bytes
    argv = ["derandomize", "--device", device, "--n", "4", "--budget", "3000",
            "--seeds", "20", "--seed", "8"]
    assert entropy.seed_block(2, 16, 3000) >= 20
    outs = []
    for size in (None, 1, 7):
        if size is not None:
            monkeypatch.setattr(entropy, "seed_block",
                                lambda k, n, budget, size=size: size)
        path = tmp_path / f"{size}.json"
        assert run(*argv, "--out", str(path)) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_llqsv_writes_parseable_binary(tmp_path):
    out = tmp_path / "x.llq1"
    assert run("llqsv", "--n", "5", "--t", "300", "--case", "uniform",
               "--seed", "7", "--out", str(out), "--check") == 0
    inst = from_llq1(out.read_bytes())
    assert len(inst) == 300
    # same flags, same bytes
    out2 = tmp_path / "y.llq1"
    assert run("llqsv", "--n", "5", "--t", "300", "--case", "uniform",
               "--seed", "7", "--out", str(out2)) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_llqsv_check_lines_are_the_two_the_benchmark_reads(tmp_path, capsys):
    # perfbench's `lists` oracle wants exactly two CHECK lines, both PASS
    assert run("llqsv", "--n", "8", "--t", "10000", "--case", "fourier",
               "--seed", "0", "--check", "--out", str(tmp_path / "l.llq1")) == 0
    lines = [ln for ln in capsys.readouterr().err.splitlines()
             if ln.startswith("CHECK ")]
    assert len(lines) == 2
    assert all(ln.startswith("CHECK PASS") for ln in lines)


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


@pytest.mark.parametrize("spec", ["biased:abc", "biased:"])
@pytest.mark.parametrize("command", ["derandomize", "protocol"])
def test_malformed_biased_device_names_the_spec(command, spec, capsys):
    assert run(command, "--device", spec, "--out", "/dev/null") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"certlab: unknown device spec {spec!r}\n"


@pytest.mark.parametrize("b", ["inf", "nan", "1"])
def test_protocol_rejects_unusable_b(b, capsys):
    # an infinite bar would print "Infinity", which is not JSON, for a run
    # that can never pass
    assert run("protocol", "--b", b, "--t", "16", "--out", "/dev/null") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("certlab: ")
    assert "b must be" in captured.err and captured.err.count("\n") == 1


def test_out_of_memory_is_one_line_error(monkeypatch, capsys):
    from certlab import protocol

    def exhausted(*args):
        raise MemoryError("Unable to allocate 8.00 GiB for an array")

    monkeypatch.setattr(protocol, "run_protocol", exhausted)
    assert run("protocol", "--t", "16", "--out", "/dev/null") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("certlab: out of memory: "
                            "Unable to allocate 8.00 GiB for an array\n")
    assert "Traceback" not in captured.err


def test_check_all_battery_passes(tmp_path, capsys):
    out = tmp_path / "battery.json"
    assert run("check-all", "--seed", "0", "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "FAIL" not in stdout
    payload = json.loads(out.read_text())
    checks = payload["results"]["checks"]
    assert len(checks) == 25
    assert all(c["ok"] for c in checks)
    assert payload["results"]["summary"] == "25/25 checks passed"
    # every line is a contract record, and every contract has lines
    commands = sorted(name[1:-len("_contract")] for name in vars(cli)
                      if name.startswith("_") and name.endswith("_contract"))
    assert len(commands) == 9
    owners = [[c for c in commands if check["name"].startswith(c + "-")]
              for check in checks]
    assert all(len(owner) == 1 for owner in owners)
    assert sorted({owner[0] for owner in owners}) == commands


def test_check_all_runs_only_the_commands():
    # check-all's table holds command lines and nothing else: a check of
    # its own would be a unit test, which belongs in tests/
    commands = {name[1:-len("_contract")] for name in vars(cli)
                if name.startswith("_") and name.endswith("_contract")}
    assert len(commands) == 9
    for label, line in cli._CHECK_RUNS:
        assert line.split()[0] in commands
        assert label.split("-")[0] == line.split()[0]


def test_check_all_prints_each_commands_check_lines(capsys):
    # at seed 0, check-all's lines are, in order, each table run's own
    # --check lines, "CHECK PASS name" read as "PASS <label>-name"
    assert run("check-all", "--seed", "0") == 0
    lines = capsys.readouterr().out.splitlines()
    want = []
    for label, line in cli._CHECK_RUNS:
        assert run(*line.split(), "--seed", "0", "--check",
                   "--out", os.devnull) == 0
        for check in capsys.readouterr().err.splitlines():
            if check.startswith("CHECK "):
                status, rest = check[len("CHECK "):].split(" ", 1)
                want.append(f"{status} {label}-{rest}")
    assert len(want) == 25
    assert lines == want + ["25/25 checks passed"]
