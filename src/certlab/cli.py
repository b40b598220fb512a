"""Command-line front end.

Every subcommand takes a 64-bit --seed and emits a structured result
(JSON canonical, CSV for the tabular ones, raw binary for llqsv) whose
payload contains the package version and the full scientific
configuration, and never a timestamp — rerunning with identical flags
reproduces the output byte for byte.  Execution-only flags (--threads,
--check, --tol, --out, --format) are not part of the payload, so results
are also identical across thread counts.

--check turns each command into a self-test: the command's contract is
asserted within --tol and the process exits 1 on violation (2 remains the
usage-error exit, 0 the success exit).  `check-all` runs a fast battery
across every module and prints one PASS/FAIL line per check.
"""

from __future__ import annotations

import argparse
import binascii
import csv
import io
import json
import math
import sys

import numpy as np

from . import __version__
from . import boolfn, devices, entropy, fouriersample, llqsv, protocol, rejection
from . import sqforrelation as sqf
from .rng import MASK64, derive64, make_rng
from .stats import Z99

_CHUNK = 8192  # trials per fan-out chunk; fixed so results ignore --threads

# stream tags, one per command family
_TAG_PGPB = 10
_TAG_SQFORR = 11
_TAG_RHOG = 12
_TAG_HOG = 13
_TAG_PERTURB = 14
_TAG_DERAND = 15
_TAG_LLQSV = 16
_TAG_WHT = 17


# ---------------------------------------------------------------- plumbing

def _fanout(total: int, threads: int, worker):
    """Run worker(chunk_index, count) over fixed-size chunks of `total`.

    The chunk layout depends only on `total`, never on `threads`, and
    results are returned in chunk order — so merged outputs are identical
    for any thread count.
    """
    jobs = []
    start = idx = 0
    while start < total:
        cnt = min(_CHUNK, total - start)
        jobs.append((idx, cnt))
        idx += 1
        start += cnt
    if threads <= 1:
        return [worker(i, c) for i, c in jobs]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(worker, i, c) for i, c in jobs]
        return [f.result() for f in futures]


def _payload(args, command: str, results: dict) -> dict:
    skip = {"func", "out", "format", "threads", "check", "tol"}
    config = {
        k: v for k, v in sorted(vars(args).items())
        if k not in skip and k != "command"
    }
    return {
        "version": __version__,
        "command": command,
        "config": config,
        "results": results,
    }


def _write_text(out_path, *parts: str):
    """Write `parts` in order to `out_path` (stdout if unset), unjoined."""
    if out_path:
        with open(out_path, "w") as fh:
            for part in parts:
                fh.write(part)
    else:
        for part in parts:
            sys.stdout.write(part)


def _emit(args, command: str, results: dict, rows=None, header=None) -> None:
    payload = _payload(args, command, results)
    fmt = getattr(args, "format", "json")
    if fmt == "json" or rows is None:
        _write_text(getattr(args, "out", None),
                    json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    buf = io.StringIO()
    buf.write(f"# certlab {__version__} {command}\n")
    buf.write("# config: " +
              json.dumps(payload["config"], sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_text(getattr(args, "out", None), buf.getvalue())


class CheckReport:
    """Writes one `<prefix>PASS|FAIL name: detail` line per check as it is
    added (to stdout unless `file` is given) and keeps the records; exit
    code 1 if anything failed."""

    def __init__(self, prefix: str = "", file=None):
        self.lines = []
        self.failed = 0
        self.prefix = prefix
        self.file = file

    def add(self, name: str, ok: bool, detail: str):
        self.lines.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            self.failed += 1
        print(f"{self.prefix}{'PASS' if ok else 'FAIL'} {name}: {detail}",
              file=self.file)

    @property
    def exit_code(self) -> int:
        return 1 if self.failed else 0


def _check_result(checks) -> int:
    """Report --check assertions to stderr as CHECK lines; 1 if any failed."""
    report = CheckReport("CHECK ", sys.stderr)
    for name, ok, detail in checks:
        report.add(name, ok, detail)
    return report.exit_code


# ---------------------------------------------------------------- commands

def cmd_wht(args) -> int:
    rng = make_rng(args.seed, _TAG_WHT)
    if args.infile:
        with open(args.infile, "rb") as fh:
            f = boolfn.from_bfn1(fh.read())
    else:
        if args.n is None:
            print("wht: need --n when no --in file is given", file=sys.stderr)
            return 2
        f = boolfn.random_function(args.n, rng)
    spec = boolfn.wht(f)
    parseval = float(np.dot(spec.coeffs, spec.coeffs))
    results = {
        "n": f.n,
        "coeffs": [float(c) for c in spec.coeffs],
        "scaled": [int(w) for w in spec.scaled],
        "parseval_sum": parseval,
        "fourth_moment": boolfn.fourth_moment(spec),
        "function_bfn1_hex": binascii.hexlify(boolfn.to_bfn1(f)).decode(),
    }
    rows = [(z, float(spec.coeffs[z]), int(spec.scaled[z]))
            for z in range(f.size)]
    _emit(args, "wht", results, rows=rows, header=["z", "coeff", "scaled"])
    if args.check:
        tol = args.tol if args.tol is not None else 1e-12
        back = boolfn.spectrum_to_function(spec)
        int_parseval = int(np.sum(spec.scaled.astype(np.int64) ** 2))
        return _check_result([
            ("parseval", abs(parseval - 1.0) <= tol,
             f"|sum c^2 - 1| = {abs(parseval - 1.0):.3e} <= {tol}"),
            ("double-transform", back == f, "transform applied twice recovers f"),
            ("integer-parseval", int_parseval == f.size * f.size,
             f"sum W^2 = {int_parseval} == N^2"),
        ])
    return 0


def _sampler_by_name(name: str):
    return (fouriersample.honest_sampler if name == "honest"
            else fouriersample.uniform_sampler)


def cmd_pgpb(args) -> int:
    sampler = _sampler_by_name(args.sampler)

    def worker(i, count):
        rng = make_rng(args.seed, _TAG_PGPB, i)
        return fouriersample.pgpb_counts(args.n, sampler, count, rng)

    parts = _fanout(args.trials, args.threads, worker)
    n_light = sum(p[0] for p in parts)
    n_light4 = sum(p[1] for p in parts)
    est = fouriersample.pgpb_from_counts(n_light, n_light4, args.trials)
    ref_b, ref_l4, ref_g = fouriersample.gaussian_reference()
    results = {
        "p_b": est.p_b,
        "p_light4": est.p_light4,
        "p_g": est.p_g,
        "ci99": est.ci99,
        "trials": est.trials,
        "seed": args.seed,
        "reference": {"p_b": ref_b, "p_light4": ref_l4, "p_g": ref_g},
    }
    rows = [(est.p_b, est.p_light4, est.p_g, est.ci99["p_b"],
             est.ci99["p_light4"], est.ci99["p_g"], est.trials, args.seed)]
    _emit(args, "pgpb", results, rows=rows,
          header=["p_b", "p_light4", "p_g", "ci99_p_b", "ci99_p_light4",
                  "ci99_p_g", "trials", "seed"])
    if args.check:
        # a finite-n sample is held to the exact finite-N law, not the
        # Gaussian limit in `reference`
        tol = args.tol if args.tol is not None else 0.02
        exact = fouriersample.exact_band_rates(args.n, args.sampler)
        if args.sampler == "honest":
            named = zip(("p_b", "p_light4", "p_g"),
                        (est.p_b, est.p_light4, est.p_g), exact)
        else:
            named = [("p_b_uniform", est.p_b, exact[0])]
        return _check_result([
            (key, abs(got - ref) <= tol, f"|{got:.5f} - {ref:.5f}| <= {tol}")
            for key, got, ref in named
        ])
    return 0


def cmd_hog(args) -> int:
    rng = make_rng(args.seed, _TAG_HOG)
    f = boolfn.random_function(args.n, rng)
    spec = boolfn.wht(f)
    if args.sampler == "honest":
        samples = fouriersample.fourier_sample_many(spec, args.samples, rng)
        target = boolfn.fourth_moment(spec)
    else:
        samples = rng.integers(0, f.size, size=args.samples)
        target = 1.0 / f.size
    score = fouriersample.hog_score(spec, samples)
    results = {
        "n": args.n,
        "sampler": args.sampler,
        "samples": args.samples,
        "score": score,
        "target": target,
    }
    _emit(args, "hog", results)
    if args.check:
        tol = args.tol if args.tol is not None else 0.01
        return _check_result([
            ("hog-score", abs(score - target) <= tol,
             f"|{score:.6f} - {target:.6f}| <= {tol}"),
        ])
    return 0


def cmd_sqforr(args) -> int:
    params = sqf.DistParams(args.n, args.c)

    def worker(i, count):
        rng = make_rng(args.seed, _TAG_SQFORR, i)
        return sqf.phi_values(params, count, args.estimator, rng,
                              uniform_pairs=args.uniform_pairs)

    vals = np.concatenate(_fanout(args.trials, args.threads, worker))
    exp = sqf.phi_experiment_from_values(params, vals, args.estimator,
                                         args.uniform_pairs)
    results = {
        "epsilon": exp.epsilon,
        "mean_phi": exp.mean,
        "ci99": exp.ci99,
        "target_lower_bound": exp.target_lower_bound,
        "gprime_prediction": exp.gprime_prediction,
        "trials": exp.trials,
        "estimator": exp.estimator,
        "uniform_pairs": exp.uniform_pairs,
    }
    rows = [(exp.epsilon, exp.mean, exp.ci99, exp.target_lower_bound,
             exp.gprime_prediction, exp.trials, exp.estimator)]
    _emit(args, "sqforr", results, rows=rows,
          header=["epsilon", "mean_phi", "ci99", "target_lower_bound",
                  "gprime_prediction", "trials", "estimator"])
    if args.check:
        tol = args.tol if args.tol is not None else 0.0
        if args.uniform_pairs:
            ok = abs(exp.mean) <= exp.ci99 + tol
            return _check_result([
                ("phi-null", ok,
                 f"|{exp.mean:.3e}| <= ci99 {exp.ci99:.3e} + {tol}"),
            ])
        e2 = exp.target_lower_bound
        return _check_result([
            ("phi-above-eps2", exp.mean + tol >= e2,
             f"{exp.mean:.6f} + {tol} >= eps^2 = {e2:.6f}"),
            ("phi-ci-excludes-half", exp.mean - exp.ci99 > e2 / 2.0,
             f"{exp.mean:.6f} - {exp.ci99:.6f} > eps^2/2 = {e2 / 2:.6f}"),
        ])
    return 0


def cmd_rhog(args) -> int:
    params = sqf.DistParams(args.n, args.c)

    def worker(i, count):
        rng = make_rng(args.seed, _TAG_RHOG, i)
        return rejection.rhog_values(params, count, rng,
                                     uniform_pairs=args.uniform_pairs,
                                     uniform_sampler=args.uniform_sampler)

    vals = np.concatenate(_fanout(args.trials, args.threads, worker))
    res = rejection.rhog_from_values(params, vals)
    results = {
        "n_times_mean": res.n_times_mean,
        "ci99": res.ci99,
        "epsilon": res.epsilon,
        "target": res.target,
        "trials": res.trials,
        "uniform_pairs": args.uniform_pairs,
        "uniform_sampler": args.uniform_sampler,
    }
    rows = [(res.n_times_mean, res.ci99, res.epsilon, res.target, res.trials)]
    _emit(args, "rhog", results, rows=rows,
          header=["n_times_mean", "ci99", "epsilon", "target", "trials"])
    if args.check:
        tol = args.tol if args.tol is not None else 0.0
        if args.uniform_pairs or args.uniform_sampler:
            ok = abs(res.n_times_mean - 1.0) <= res.ci99 + tol
            return _check_result([
                ("rhog-null", ok,
                 f"|{res.n_times_mean:.5f} - 1| <= ci99 {res.ci99:.5f} + {tol}"),
            ])
        return _check_result([
            ("rhog-above-target", res.n_times_mean + tol >= res.target,
             f"{res.n_times_mean:.5f} + {tol} >= {res.target:.5f}"),
            ("rhog-ci-above-one", res.n_times_mean - res.ci99 > 1.0,
             f"{res.n_times_mean:.5f} - {res.ci99:.5f} > 1"),
        ])
    return 0


def cmd_perturb(args) -> int:
    if args.n % 2 != 0:
        print("perturb: --n must be even (sqrt(N)/2 integral)",
              file=sys.stderr)
        return 2
    if args.z is not None and not 0 <= args.z < 1 << args.n:
        print(f"perturb: --z must be in 0..{(1 << args.n) - 1}", file=sys.stderr)
        return 2
    rng = make_rng(args.seed, _TAG_PERTURB)
    f = boolfn.random_function(args.n, rng)
    spec = boolfn.wht(f)
    z = args.z if args.z is not None else devices.argmax_index(spec)
    before = float(spec.coeffs[z])
    sign = 1.0 if before > 0 else -1.0
    f2 = entropy.perturb_make_light(f, z, rng)
    spec2 = boolfn.wht(f2)
    after = float(spec2.coeffs[z])
    expected = before - sign / math.sqrt(f.size)
    tv = fouriersample.tv_distance(spec, spec2)
    bound = 2.0 * f.size ** (-1.0 / 8.0)
    results = {
        "n": args.n,
        "z": int(z),
        "coeff_before": before,
        "coeff_after": after,
        "coeff_expected": expected,
        "tv_distance": tv,
        "tv_bound": bound,
        "function_bfn1_hex": binascii.hexlify(boolfn.to_bfn1(f)).decode(),
        "perturbed_bfn1_hex": binascii.hexlify(boolfn.to_bfn1(f2)).decode(),
        "coefficients": [
            {"z": int(zz), "before": float(spec.coeffs[zz]),
             "after": float(spec2.coeffs[zz])}
            for zz in range(f.size)
        ],
    }
    rows = [(zz, float(spec.coeffs[zz]), float(spec2.coeffs[zz]))
            for zz in range(f.size)]
    _emit(args, "perturb", results, rows=rows,
          header=["z", "coeff_before", "coeff_after"])
    if args.check:
        tol = args.tol if args.tol is not None else 1e-12
        return _check_result([
            ("exact-step", abs(after - expected) <= tol,
             f"|{after:.10f} - {expected:.10f}| <= {tol}"),
            ("tv-bound", tv <= bound,
             f"tv {tv:.5f} <= 2 N^(-1/8) = {bound:.5f}"),
        ])
    return 0


def cmd_derandomize(args) -> int:
    device = devices.parse_device(args.device)
    f = boolfn.random_function(args.n, make_rng(args.seed, _TAG_DERAND, 0))
    pairs = []
    agree = 0
    for j in range(args.seeds):
        r = entropy.RejSampSeed(derive64(args.seed, _TAG_DERAND, 1, j))
        a = entropy.derandomize(device, f, r, args.budget,
                                make_rng(args.seed, _TAG_DERAND, 2, j))
        b = entropy.derandomize(device, f, r, args.budget,
                                make_rng(args.seed, _TAG_DERAND, 3, j))
        pairs.append([int(a), int(b)])
        agree += int(a == b)
    frac = agree / args.seeds
    results = {
        "n": args.n,
        "device": device.label,
        "budget": args.budget,
        "seeds": args.seeds,
        "agree_fraction": frac,
        "outputs": pairs,
    }
    rows = [(j, p[0], p[1]) for j, p in enumerate(pairs)]
    _emit(args, "derandomize", results, rows=rows,
          header=["seed_index", "run_a", "run_b"])
    if args.check:
        tol = args.tol if args.tol is not None else 0.1
        return _check_result([
            ("constancy", frac >= 1.0 - tol,
             f"agree fraction {frac:.3f} >= {1.0 - tol:.3f}"),
        ])
    return 0


def _sampled_power(inst) -> float:
    """mean_i fhat_i(s_i)^2 over a long list (0.0 when it is empty)."""
    if not len(inst):
        return 0.0
    c = boolfn.scaled_at(inst.tables, inst.s) / inst.tables.shape[1]
    return float(np.mean(c * c))


def _same_entries(a, b) -> bool:
    return np.array_equal(a.tables, b.tables) and np.array_equal(a.s, b.s)


def cmd_llqsv(args) -> int:
    rng = make_rng(args.seed, _TAG_LLQSV)
    inst = llqsv.llqsv_instance(args.n, args.t, args.case, rng)
    blob = llqsv.to_llq1(inst)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(blob)
    else:
        sys.stdout.buffer.write(blob)
    size = 1 << args.n
    mean_stat = _sampled_power(inst) * size
    print(f"llqsv: wrote {len(inst)} entries (case={args.case}), "
          f"N*mean fhat(s)^2 = {mean_stat:.4f}", file=sys.stderr)
    if args.check:
        tol = args.tol if args.tol is not None else 0.5
        back = llqsv.from_llq1(blob, case_label=args.case)
        round_ok = _same_entries(back, inst)
        expected = (3.0 * size - 2.0) / size if args.case == "fourier" else 1.0
        return _check_result([
            ("roundtrip", round_ok, f"{len(back)} entries survive LLQ1"),
            ("marginal-stat", abs(mean_stat - expected) <= tol,
             f"|{mean_stat:.4f} - {expected:.4f}| <= {tol}"),
        ])
    return 0


# Stands in for `challenges` in the payload handed to json.dumps.  JSON
# writes it as "\u0000challenges\u0000", which no flag value can contain.
_CHALLENGES = "\0challenges\0"

# One challenge record as json.dumps(indent=2, sort_keys=True) lays it out
# at payload["results"]["challenges"][i].
_CHALLENGE_ROW = '      {\n        "key": %d,\n        "p": %s,\n        "s": %d\n      }'


def _challenges_json(transcript) -> str:
    """The `challenges` array, byte-identical to what json.dumps writes for
    one {"key", "p", "s"} dict per challenge at the payload's depth.

    Keys reach Python through tolist(), so a uint64 never passes int64.
    p = w^2/N^2 takes few distinct values; each is formatted once with
    float.__repr__, which is json's float format (numpy's is not).
    """
    values, index = np.unique(transcript.probs, return_inverse=True)
    p_text = [float.__repr__(v) for v in values.tolist()]
    rows = zip(transcript.challenge_keys.tolist(),
               [p_text[i] for i in index.tolist()],
               transcript.samples.tolist())
    return "[\n" + ",\n".join(map(_CHALLENGE_ROW.__mod__, rows)) + "\n    ]"


def cmd_protocol(args) -> int:
    device = devices.parse_device(args.device)
    config = protocol.ProtocolConfig(
        n=args.n, T=args.t, b=args.b, eps_hog=args.eps,
        extractor_output_bits=args.extract_bits, seed=args.seed,
    )
    claimed = None if args.claimed_q == "none" else args.claimed_q
    transcript = protocol.run_protocol(config, device, claimed)
    results = protocol.transcript_to_dict(transcript)
    results["device"] = device.label
    results["challenges"] = _CHALLENGES
    text = json.dumps(_payload(args, "protocol", results),
                      indent=2, sort_keys=True) + "\n"
    parts = text.split(json.dumps(_CHALLENGES))
    if len(parts) != 2:
        raise RuntimeError("the challenges placeholder must occur exactly once")
    _write_text(args.out, parts[0], _challenges_json(transcript), parts[1])
    if args.check:
        checks = [
            ("score-recompute",
             protocol.verify_score(transcript, config) == transcript.score_pass,
             "verify_score agrees with the recorded verdict"),
        ]
        if device.kind == "honest":
            checks.append(("honest-pass", transcript.score_pass,
                           f"S = {transcript.S:.4f} >= "
                           f"{protocol.score_threshold(config):.4f}"))
        elif device.kind == "uniform":
            checks.append(("uniform-fail", not transcript.score_pass,
                           f"S = {transcript.S:.4f} < "
                           f"{protocol.score_threshold(config):.4f}"))
        if device.kind == "argmax" and claimed == "argmax":
            checks.append(("argmax-collides", transcript.V == config.T,
                           f"V = {transcript.V} == T"))
        return _check_result(checks)
    return 0


# ---------------------------------------------------------------- check-all

def _battery(seed: int, report: CheckReport) -> None:
    # -- transform basics
    rng = make_rng(seed, 100)
    f = boolfn.random_function(10, rng)
    spec = boolfn.wht(f)
    int_parseval = int(np.sum(spec.scaled.astype(np.int64) ** 2))
    report.add("wht-integer-parseval", int_parseval == f.size ** 2,
               f"sum W^2 = {int_parseval} vs N^2 = {f.size ** 2}")
    report.add("wht-double-transform",
               boolfn.spectrum_to_function(spec) == f,
               "second transform recovers the sign table")
    known = boolfn.wht(boolfn.BooleanFunction(
        2, np.array([1, 1, 1, -1], dtype=np.int8)))
    report.add("wht-small-known",
               np.allclose(known.coeffs, [0.5, 0.5, 0.5, -0.5]),
               f"n=2 spectrum {known.coeffs.tolist()}")
    report.add(
        "classify-boundaries",
        boolfn.classify(0.5, 4) is boolfn.HeavinessClass.LIGHT
        and boolfn.classify(0.75, 16) is boolfn.HeavinessClass.VERY_HEAVY
        and boolfn.classify(0.0, 1024) is boolfn.HeavinessClass.LIGHT,
        "inclusive thresholds at 1/sqrt(N), 2/sqrt(N)")

    # -- heaviness statistics
    est = fouriersample.estimate_pg_pb(
        10, fouriersample.honest_sampler, 20000, make_rng(seed, 101))
    ref_b, ref_l4, ref_g = fouriersample.exact_band_rates(10)
    report.add("pgpb-honest-windows",
               abs(est.p_b - ref_b) <= 0.03
               and abs(est.p_light4 - ref_l4) <= 0.03
               and abs(est.p_g - ref_g) <= 0.03,
               f"p_b={est.p_b:.4f} p_light4={est.p_light4:.4f} "
               f"p_g={est.p_g:.4f} vs exact n=10 ({ref_b:.4f}, {ref_l4:.4f}, "
               f"{ref_g:.4f})")
    estu = fouriersample.estimate_pg_pb(
        10, fouriersample.uniform_sampler, 10000, make_rng(seed, 102))
    ref_u = fouriersample.exact_band_rates(10, "uniform")[0]
    report.add("pgpb-uniform-sampler", abs(estu.p_b - ref_u) <= 0.03,
               f"p_b={estu.p_b:.4f} vs exact n=10 mass {ref_u:.4f}")

    g = make_rng(seed, 103)
    f8 = boolfn.random_function(8, g)
    spec8 = boolfn.wht(f8)
    samples = fouriersample.fourier_sample_many(spec8, 20000, g)
    score = fouriersample.hog_score(spec8, samples)
    fm = boolfn.fourth_moment(spec8)
    c2 = spec8.coeffs[samples] ** 2
    slack = Z99 * float(np.std(c2)) / math.sqrt(len(samples))
    report.add("hog-matches-fourth-moment", abs(score - fm) <= 3 * slack,
               f"score {score:.6f} vs fourth moment {fm:.6f} "
               f"(3x ci99 {3 * slack:.6f})")

    # -- correlated pairs
    params = sqf.DistParams(8, 1.0)
    exp = sqf.mean_phi_experiment(params, 20000, "conditional",
                                  make_rng(seed, 104))
    e2 = exp.target_lower_bound
    report.add("sqforr-signal",
               exp.mean >= e2 and exp.mean - exp.ci99 > e2 / 2.0,
               f"mean {exp.mean:.5f} vs eps^2 {e2:.5f} (ci {exp.ci99:.5f})")
    null = sqf.mean_phi_experiment(params, 20000, "plain",
                                   make_rng(seed, 105), uniform_pairs=True)
    report.add("sqforr-null", abs(null.mean) <= null.ci99,
               f"mean {null.mean:.2e} within ci99 {null.ci99:.2e}")
    params20 = sqf.DistParams(10, 20.0)
    tail = sqf.row_sum_tail_check(params20, 5000, make_rng(seed, 106))
    report.add("row-sum-tail", tail.rate <= tail.bound + tail.ci99,
               f"rate {tail.rate:.2e} <= bound {tail.bound:.2e} "
               f"+ ci {tail.ci99:.2e}")
    trunc, trunc_ci = sqf.truncation_rate(params20, 5000, make_rng(seed, 107))
    tlimit = 2.0 / params20.size ** 2
    report.add("truncation-rate", trunc <= tlimit + trunc_ci,
               f"rate {trunc:.2e} <= 2/N^2 {tlimit:.2e} + ci {trunc_ci:.2e}")

    # -- rejection sampling
    g1 = boolfn.BooleanFunction(
        2, np.array([1, -1, -1, -1], dtype=np.int8))
    dist = rejection.exact_distribution(g1)
    k16 = rejection.max_attempts(2)
    geom = sum((3 / 4) ** k * (1 / 4) for k in range(k16)) + (3 / 4) ** k16 / 4
    report.add("rejection-exact-law",
               abs(dist[0] - geom) <= 1e-12
               and abs(float(dist.sum()) - 1.0) <= 1e-12,
               f"single-point mass {dist[0]:.6f} vs series {geom:.6f}")
    res = rejection.rhog_score(params, 20000, make_rng(seed, 108))
    report.add("rhog-signal",
               res.n_times_mean >= res.target
               and res.n_times_mean - res.ci99 > 1.0,
               f"N*mean {res.n_times_mean:.4f} vs target {res.target:.4f}")
    resu = rejection.rhog_score(params, 10000, make_rng(seed, 109),
                                uniform_sampler=True)
    report.add("rhog-null", abs(resu.n_times_mean - 1.0) <= resu.ci99,
               f"N*mean {resu.n_times_mean:.4f} within ci of 1")

    # -- entropy tools
    f6 = boolfn.random_function(6, make_rng(seed, 110))
    spec6 = boolfn.wht(f6)
    z6 = devices.argmax_index(spec6)
    f6p = entropy.perturb_make_light(f6, z6, make_rng(seed, 111))
    w_before = int(spec6.scaled[z6])
    w_after = int(boolfn.wht(f6p).scaled[z6])
    root = math.isqrt(f6.size)
    report.add("perturb-exact-step",
               w_after == w_before - (root if w_before > 0 else -root),
               f"scaled coeff {w_before} -> {w_after}")
    report.add("degree-ratio",
               abs(entropy.degree_ratio(4) - 1.5) < 1e-12
               and abs(entropy.degree_ratio(64) - 58905 / 35960) < 1e-12
               and abs(entropy.degree_ratio(1 << 20) - math.exp(0.5)) < 0.01,
               "1.5 at N=4, 58905/35960 at N=64, ~sqrt(e) at N=2^20")
    d1 = entropy.OutcomeDistribution(np.array([2 / 3, 1 / 3, 0.0]))
    d2 = entropy.OutcomeDistribution(np.array([2 / 3, 0.0, 1 / 3]))
    coup = entropy.coupling_disagreement(d1, d2, 2000, make_rng(seed, 112))
    report.add("coupling-disjoint-pair",
               abs(coup.rate - coup.disjoint_rate) <= coup.ci99 + 0.01
               and abs(coup.exact_rate - 0.5) < 1e-12,
               f"rate {coup.rate:.4f} vs 2d/(1+d) = {coup.disjoint_rate:.4f}")
    dev = devices.biased(0.98)
    f4 = boolfn.random_function(4, make_rng(seed, 113))
    agree = 0
    for j in range(40):
        r = entropy.RejSampSeed(derive64(seed, 114, j))
        a = entropy.derandomize(dev, f4, r, 5000, make_rng(seed, 115, j))
        b = entropy.derandomize(dev, f4, r, 5000, make_rng(seed, 116, j))
        agree += int(a == b)
    report.add("derandomize-constancy", agree >= 36,
               f"{agree}/40 shared-seed reruns agreed")
    two = entropy.OutcomeDistribution(np.array([0.98, 0.02]))
    report.add("min-entropy-basics",
               entropy.min_entropy(entropy.OutcomeDistribution.point_mass(8, 3)) == 0.0
               and abs(entropy.min_entropy(entropy.OutcomeDistribution.uniform(256)) - 8.0) < 1e-12
               and 0.029 < entropy.min_entropy(two) < 0.0292,
               "point mass 0, uniform(256) = 8, (0.98,0.02) ~ 0.0291")

    # -- long lists
    inst = llqsv.llqsv_instance(6, 2000, "fourier", make_rng(seed, 117))
    back = llqsv.from_llq1(llqsv.to_llq1(inst), "fourier")
    report.add("llq1-roundtrip", _same_entries(back, inst),
               f"{len(back)} entries round-trip")
    stat = _sampled_power(inst) * 64
    expected = (3 * 64 - 2) / 64
    report.add("llqsv-fourier-stat", abs(stat - expected) <= 0.5,
               f"N*mean fhat(s)^2 = {stat:.3f} vs {expected:.3f}")
    adv = llqsv.advantage(llqsv.ScoreSumDistinguisher(), 6, 1000, 10,
                          make_rng(seed, 118))
    report.add("scoresum-advantage", adv.advantage >= 0.9,
               f"advantage {adv.advantage:.2f} "
               f"(fourier {adv.accept_fourier:.2f}, "
               f"uniform {adv.accept_uniform:.2f})")

    # -- extractor + protocol
    eg = make_rng(seed, 119)
    a_bits = eg.integers(0, 2, size=200, dtype=np.uint8)
    b_bits = eg.integers(0, 2, size=200, dtype=np.uint8)
    sd = eg.integers(0, 2, size=200 + 32 - 1, dtype=np.uint8)
    lin = np.array_equal(
        protocol.toeplitz_extract((a_bits ^ b_bits), sd, 32),
        protocol.toeplitz_extract(a_bits, sd, 32)
        ^ protocol.toeplitz_extract(b_bits, sd, 32))
    fast_matches = np.array_equal(
        protocol.toeplitz_extract(a_bits, sd, 32),
        protocol.toeplitz_extract_naive(a_bits, sd, 32))
    parity = protocol.toeplitz_extract(
        a_bits, np.ones(200, dtype=np.uint8), 1)
    report.add("toeplitz-extractor",
               lin and fast_matches and parity[0] == int(a_bits.sum()) % 2,
               "linear, fast path = naive, all-ones seed gives parity")
    cfgp = protocol.ProtocolConfig(n=6, T=4096, b=1.5, eps_hog=0.5,
                                   seed=seed)
    th = protocol.run_protocol(cfgp, devices.honest(), "argmax")
    tu = protocol.run_protocol(cfgp, devices.uniform_cheat(), "argmax")
    ta = protocol.run_protocol(cfgp, devices.argmax_deterministic(), "argmax")
    report.add("protocol-score-separation",
               th.score_pass and not tu.score_pass,
               f"honest S*N/T = {th.S * 64 / cfgp.T:.3f}, "
               f"uniform {tu.S * 64 / cfgp.T:.3f}, bar {cfgp.b - 0.25}")
    report.add("protocol-collisions",
               ta.V == cfgp.T
               and th.entropy_verdict is protocol.Verdict.QUANTUM_LIKE
               and tu.entropy_verdict is not protocol.Verdict.QUANTUM_LIKE,
               f"argmax V=T, honest V={th.V}, uniform V={tu.V} "
               f"(mu = {cfgp.T // 64})")
    report.add("protocol-extraction",
               len(th.extracted_bits) == 256
               and len(ta.extracted_bits) == 0,
               f"honest extracted {len(th.extracted_bits)} bits, "
               f"deterministic device {len(ta.extracted_bits)}")


def cmd_check_all(args) -> int:
    report = CheckReport()
    _battery(args.seed, report)
    summary = f"{len(report.lines) - report.failed}/{len(report.lines)} checks passed"
    print(summary)
    if args.out:
        payload = _payload(args, "check-all",
                           {"checks": report.lines, "summary": summary})
        with open(args.out, "w") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return report.exit_code


# ---------------------------------------------------------------- parser

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr and exits 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _int_in(low: int, high: int | None = None, base: int = 10):
    """argparse type: an int (parsed as int(text, base) does) in low..high."""

    def convert(text: str) -> int:
        try:
            value = int(text, base)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low or (high is not None and value > high):
            bounds = f"in {low}..{high}" if high is not None else f"at least {low}"
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value

    return convert


_N = _int_in(1, boolfn.MAX_N)
_COUNT = _int_in(1)
_SEED = _int_in(0, MASK64, base=0)  # decimal or 0x-prefixed, 64 bits


def _add_common(p, seed_default=0):
    p.add_argument("--seed", type=_SEED, default=seed_default,
                   help="64-bit master seed (default %(default)s)")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--check", action="store_true",
                   help="assert this command's contract; exit 1 on failure")
    p.add_argument("--tol", type=float, default=None,
                   help="tolerance for --check (command-specific default)")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="certlab",
        description="Fourier sampling, heaviness statistics, and the "
                    "certified-randomness protocol toolkit.",
    )
    ap.add_argument("--version", action="version",
                    version=f"certlab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wht", help="transform one function and dump its spectrum")
    p.add_argument("--n", type=_N, default=None)
    p.add_argument("--in", dest="infile", default=None,
                   help="read the function from a BFN1 file")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p)
    p.set_defaults(func=cmd_wht)

    p = sub.add_parser("pgpb", help="heaviness statistics of a sampler")
    p.add_argument("--n", type=_N, default=12)
    p.add_argument("--trials", type=_COUNT, default=100000)
    p.add_argument("--sampler", choices=("honest", "uniform"),
                   default="honest")
    p.add_argument("--threads", type=_COUNT, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p)
    p.set_defaults(func=cmd_pgpb)

    p = sub.add_parser("hog", help="heavy-output score on one random function")
    p.add_argument("--n", type=_N, default=8)
    p.add_argument("--samples", type=_COUNT, default=100000)
    p.add_argument("--sampler", choices=("honest", "uniform"),
                   default="honest")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p)
    p.set_defaults(func=cmd_hog)

    p = sub.add_parser("sqforr", help="mean phi over correlated pairs")
    p.add_argument("--n", type=_N, default=8)
    p.add_argument("--c", type=float, default=20.0)
    p.add_argument("--trials", type=_COUNT, default=100000)
    p.add_argument("--estimator", choices=("plain", "conditional"),
                   default="conditional")
    p.add_argument("--uniform-pairs", action="store_true")
    p.add_argument("--threads", type=_COUNT, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p)
    p.set_defaults(func=cmd_sqforr)

    p = sub.add_parser("rhog", help="N-scaled rejection placement score")
    p.add_argument("--n", type=_N, default=8)
    p.add_argument("--c", type=float, default=20.0)
    p.add_argument("--trials", type=_COUNT, default=100000)
    p.add_argument("--uniform-pairs", action="store_true")
    p.add_argument("--uniform-sampler", action="store_true")
    p.add_argument("--threads", type=_COUNT, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p)
    p.set_defaults(func=cmd_rhog)

    p = sub.add_parser("perturb",
                       help="flip sqrt(N)/2 agreement points and compare spectra")
    p.add_argument("--n", type=_N, default=8)
    p.add_argument("--z", type=int, default=None,
                   help="coefficient index (default: the argmax)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("derandomize",
                       help="replay a device through shared seed streams")
    p.add_argument("--device", default="biased:0.98",
                   help="honest | uniform | argmax | biased:<p>")
    p.add_argument("--n", type=_N, default=4)
    p.add_argument("--budget", type=_COUNT, default=10000)
    p.add_argument("--seeds", type=_COUNT, default=100)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p)
    p.set_defaults(func=cmd_derandomize)

    p = sub.add_parser("llqsv", help="generate a long-list instance (LLQ1)")
    p.add_argument("--n", type=_N, default=8)
    p.add_argument("--t", type=_COUNT, default=10000)
    p.add_argument("--case", choices=llqsv.CASES, default="fourier")
    _add_common(p)
    p.set_defaults(func=cmd_llqsv)

    p = sub.add_parser("protocol", help="run the full protocol once")
    p.add_argument("--n", type=_N, default=6)
    p.add_argument("--t", type=_COUNT, default=4096)
    p.add_argument("--b", type=float, default=1.5)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--device", default="honest",
                   help="honest | uniform | argmax | biased:<p>")
    p.add_argument("--claimed-q", choices=("none", "argmax"), default="none")
    p.add_argument("--extract-bits", type=_int_in(0), default=256)
    _add_common(p)
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("check-all", help="fast cross-module battery")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=_SEED, default=0)
    p.set_defaults(func=cmd_check_all)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"certlab: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
