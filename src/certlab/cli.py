"""Command-line front end.

Every subcommand takes a 64-bit --seed and emits a structured result
(JSON canonical, CSV for the tabular ones, raw binary for llqsv) whose
payload contains the package version and the full scientific
configuration, and never a timestamp — rerunning with identical flags
reproduces the output byte for byte.  Execution-only flags (--threads,
--check, --tol, --out, --format) are not part of the payload.

pgpb, sqforr and rhog cut their trials into fixed chunks and run them on
--threads worker threads, by default as many as the CPUs the process may
run on.  Each worker holds one batch of trials at a time, so memory grows
with the thread count; the output bytes never depend on it.

Each command's claims are written once, in a `_<command>_contract`
function that returns (name, ok, detail) records; its margin, where it has
one, is the keyword default `tol`, which --tol replaces.  Each
`cmd_<command>` writes its payload and returns its contract's records,
none without --check.  --check turns a command into a self-test: main
reports the records to stderr as CHECK lines and exits 1 on violation (2
remains the usage-error exit, 0 the success exit).  `check-all` runs each
command at the fixed flags of `_CHECK_RUNS`, with --check, at its own
--seed and with the payload sent to os.devnull, and prints one
`<label>-<name>` PASS/FAIL line per record.
"""

from __future__ import annotations

import argparse
import binascii
import csv
import io
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import boolfn, devices, entropy, fouriersample, llqsv, protocol, rejection
from . import sqforrelation as sqf
from .rng import MASK64, blocks, derive64, make_rng
from .stats import mean_ci99

# Trials per fan-out chunk, fixed so results ignore --threads; also the
# challenge rows per chunk of the protocol writer.
_CHUNK = 8192

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

def _usable_cpus() -> int:
    """The CPUs this process may run on: the default of --threads."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fanout(total: int, threads: int, worker):
    """Run worker(chunk_index, count) over fixed-size chunks of `total`.

    The chunk layout depends only on `total`, never on `threads`, and
    results are returned in chunk order — so merged outputs are identical
    for any thread count.  The pool has min(threads, chunks) workers, and
    a single worker runs on the calling thread.
    """
    counts = [c for _, c in blocks(total, _CHUNK)]
    workers = min(threads, len(counts))
    if workers <= 1:
        return list(map(worker, range(len(counts)), counts))
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, range(len(counts)), counts))


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


def _write_text(out, parts) -> None:
    """Write the strings of `parts` in order, as they come, to `out`: a
    path, an open text stream, or stdout when unset."""
    if isinstance(out, str) and out:
        with open(out, "w") as fh:
            fh.writelines(parts)
    else:
        (out or sys.stdout).writelines(parts)


def _emit(args, command: str, results: dict, rows=None, header=None) -> None:
    payload = _payload(args, command, results)
    if getattr(args, "format", "json") == "json":
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        _write_text(getattr(args, "out", None), [text + "\n"])
        return
    config = json.dumps(payload["config"], sort_keys=True, allow_nan=False)
    buf = io.StringIO()
    buf.write(f"# certlab {__version__} {command}\n# config: {config}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_text(getattr(args, "out", None), [buf.getvalue()])


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

    def extend(self, label: str, records):
        """Add a contract's records, each named `<label>-<name>`."""
        for name, ok, detail in records:
            self.add(f"{label}-{name}", ok, detail)

    @property
    def exit_code(self) -> int:
        return 1 if self.failed else 0


class _UsageError(Exception):
    """A command's own usage error: main prints its one line and exits 2."""


def _check(args, contract, *values) -> list:
    """With --check, the records of `contract` on `values` (with --tol as
    its margin when given); without, none."""
    if not args.check:
        return []
    margin = {} if getattr(args, "tol", None) is None else {"tol": args.tol}
    return contract(*values, **margin)


# ---------------------------------------------------------------- contracts
#
# One function per command; its --check reports the records, and check-all
# runs the commands.

def _wht_contract(f, spec, *, tol=1e-12):
    """Parseval in floats (within tol) and in integers, and the transform
    applied twice gives f back."""
    parseval = float(np.dot(spec.coeffs, spec.coeffs))
    int_parseval = int(np.sum(spec.scaled.astype(np.int64) ** 2))
    return [
        ("parseval", abs(parseval - 1.0) <= tol,
         f"|sum c^2 - 1| = {abs(parseval - 1.0):.3e} <= {tol}"),
        ("double-transform", boolfn.spectrum_to_function(spec) == f,
         "transform applied twice recovers f"),
        ("integer-parseval", int_parseval == f.size * f.size,
         f"sum W^2 = {int_parseval} == N^2"),
    ]


def _pgpb_contract(n, sampler, est, *, tol=0.02):
    """Each sampled band rate within tol of the exact finite-N law, not the
    Gaussian limit (only p_b for the uniform sampler)."""
    exact = fouriersample.exact_band_rates(n, sampler)
    if sampler == "honest":
        named = zip(("p_b", "p_light4", "p_g"),
                    (est.p_b, est.p_light4, est.p_g), exact)
    else:
        named = [("p_b_uniform", est.p_b, exact[0])]
    return [(key, abs(got - ref) <= tol, f"|{got:.5f} - {ref:.5f}| <= {tol}")
            for key, got, ref in named]


def _hog_contract(spec, samples, target, *, tol=0.0):
    """The score, mean fhat(s)^2 over the samples, within 3 ci99 + tol of
    its target."""
    est = mean_ci99(spec.coeffs[samples] ** 2)
    margin = 3.0 * est.ci99 + tol
    return [("score", abs(est.mean - target) <= margin,
             f"|{est.mean:.6f} - {target:.6f}| <= 3 ci99 + {tol} = {margin:.6f}")]


def _sqforr_contract(exp, *, tol=0.0):
    """Mean phi reaches eps^2 (within tol) and its CI clears eps^2 / 2; with
    uniform pairs it is 0 within ci99 + tol."""
    if exp.uniform_pairs:
        return [("phi-null", abs(exp.mean) <= exp.ci99 + tol,
                 f"|{exp.mean:.3e}| <= ci99 {exp.ci99:.3e} + {tol}")]
    e2 = exp.target_lower_bound
    return [
        ("phi-above-eps2", exp.mean + tol >= e2,
         f"{exp.mean:.6f} + {tol} >= eps^2 = {e2:.6f}"),
        ("phi-ci-excludes-half", exp.mean - exp.ci99 > e2 / 2.0,
         f"{exp.mean:.6f} - {exp.ci99:.6f} > eps^2/2 = {e2 / 2:.6f}"),
    ]


def _rhog_contract(res, null, *, tol=0.0):
    """N * mean reaches its target (within tol) and its CI clears 1; under a
    null control it is 1 within ci99 + tol."""
    if null:
        return [("null", abs(res.n_times_mean - 1.0) <= res.ci99 + tol,
                 f"|{res.n_times_mean:.5f} - 1| <= ci99 {res.ci99:.5f} + {tol}")]
    return [
        ("above-target", res.n_times_mean + tol >= res.target,
         f"{res.n_times_mean:.5f} + {tol} >= {res.target:.5f}"),
        ("ci-above-one", res.n_times_mean - res.ci99 > 1.0,
         f"{res.n_times_mean:.5f} - {res.ci99:.5f} > 1"),
    ]


def _tv_bound(size: int) -> float:
    """2 N^(-1/8), the perturbation's bound on the sampling law's move."""
    return 2.0 * size ** (-1.0 / 8.0)


def _perturb_contract(spec, spec2, z, tv):
    """The scaled coefficient W(z) = N fhat(z) moves exactly sqrt(N) toward
    zero, and the sampling law at most _tv_bound in TV."""
    before, after = int(spec.scaled[z]), int(spec2.scaled[z])
    root = math.isqrt(spec.size)
    step = before - (root if before > 0 else -root)
    bound = _tv_bound(spec.size)
    return [
        ("exact-step", after == step, f"W {before} -> {after} == {step}"),
        ("tv-bound", tv <= bound, f"tv {tv:.5f} <= 2 N^(-1/8) = {bound:.5f}"),
    ]


def _derandomize_contract(frac, *, tol=0.1):
    """Shared-seed reruns agree on at least 1 - tol of the seeds."""
    return [("constancy", frac >= 1.0 - tol,
             f"agree fraction {frac:.3f} >= {1.0 - tol:.3f}")]


def _marginal_stat(inst) -> float:
    """N mean_i fhat_i(s_i)^2 over a nonempty long list."""
    size = inst.tables.shape[1]
    c = boolfn.scaled_at(inst.tables, inst.s) / size
    return float(np.mean(c * c)) * size


def _llqsv_contract(inst, blob, case, stat, *, tol=0.5):
    """The list survives LLQ1, and its _marginal_stat is within tol of
    (3N - 2)/N for the fourier case, 1 for the uniform one."""
    back = llqsv.from_llq1(blob)
    same = np.array_equal(back.tables, inst.tables) and np.array_equal(back.s, inst.s)
    size = inst.tables.shape[1]
    expected = (3.0 * size - 2.0) / size if case == "fourier" else 1.0
    return [
        ("roundtrip", same, f"{len(back)} entries survive LLQ1"),
        ("marginal-stat", abs(stat - expected) <= tol,
         f"|{stat:.4f} - {expected:.4f}| <= {tol}"),
    ]


def _protocol_contract(transcript, config, device, claimed):
    """verify_score agrees with the recorded verdict; an honest device
    passes the score test and a uniform one fails it; an argmax device
    claimed as argmax collides on every challenge."""
    threshold = protocol.score_threshold(config)
    records = [
        ("score-recompute",
         protocol.verify_score(transcript, config) == transcript.score_pass,
         "verify_score agrees with the recorded verdict"),
    ]
    if device.kind == "honest":
        records.append(("honest-pass", transcript.score_pass,
                        f"S = {transcript.S:.4f} >= {threshold:.4f}"))
    elif device.kind == "uniform":
        records.append(("uniform-fail", not transcript.score_pass,
                        f"S = {transcript.S:.4f} < {threshold:.4f}"))
    if device.kind == "argmax" and claimed == "argmax":
        records.append(("argmax-collides", transcript.V == config.T,
                        f"V = {transcript.V} == T"))
    return records


# ---------------------------------------------------------------- commands

def cmd_wht(args) -> list:
    rng = make_rng(args.seed, _TAG_WHT)
    if args.infile:
        with open(args.infile, "rb") as fh:
            f = boolfn.from_bfn1(fh.read())
    else:
        if args.n is None:
            raise _UsageError("wht: need --n when no --in file is given")
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
    return _check(args, _wht_contract, f, spec)


def cmd_pgpb(args) -> list:
    device = devices.DeviceModel(args.sampler)

    def worker(i, count):
        rng = make_rng(args.seed, _TAG_PGPB, i)
        return fouriersample.pgpb_counts(args.n, device, count, rng)

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
    return _check(args, _pgpb_contract, args.n, args.sampler, est)


def cmd_hog(args) -> list:
    rng = make_rng(args.seed, _TAG_HOG)
    f = boolfn.random_function(args.n, rng)
    spec = boolfn.wht(f)
    samples = devices.DeviceModel(args.sampler).sample_many(spec, args.samples, rng)
    target = boolfn.fourth_moment(spec) if args.sampler == "honest" else 1.0 / f.size
    score = fouriersample.hog_score(spec, samples)
    results = {
        "n": args.n,
        "sampler": args.sampler,
        "samples": args.samples,
        "score": score,
        "target": target,
    }
    _emit(args, "hog", results)
    return _check(args, _hog_contract, spec, samples, target)


def cmd_sqforr(args) -> list:
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
    return _check(args, _sqforr_contract, exp)


def cmd_rhog(args) -> list:
    params = sqf.DistParams(args.n, args.c)
    device = devices.DeviceModel("uniform" if args.uniform_sampler else "honest")

    def worker(i, count):
        rng = make_rng(args.seed, _TAG_RHOG, i)
        return rejection.rhog_values(params, device, count, rng,
                                     uniform_pairs=args.uniform_pairs)

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
    return _check(args, _rhog_contract, res,
                  args.uniform_pairs or args.uniform_sampler)


def cmd_perturb(args) -> list:
    if args.n % 2 != 0:
        raise _UsageError("perturb: --n must be even (sqrt(N)/2 integral)")
    if args.z is not None and not 0 <= args.z < 1 << args.n:
        raise _UsageError(f"perturb: --z must be in 0..{(1 << args.n) - 1}")
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
    results = {
        "n": args.n,
        "z": int(z),
        "coeff_before": before,
        "coeff_after": after,
        "coeff_expected": expected,
        "tv_distance": tv,
        "tv_bound": _tv_bound(f.size),
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
    return _check(args, _perturb_contract, spec, spec2, z, tv)


def cmd_derandomize(args) -> list:
    device = devices.parse_device(args.device)
    f = boolfn.random_function(args.n, make_rng(args.seed, _TAG_DERAND, 0))
    spec = boolfn.wht(f)
    # seed j's key is derive64(seed, _TAG_DERAND, 1, j), and its two runs
    # draw from make_rng(seed, _TAG_DERAND, 2, j) and (..., 3, j)
    pairs = []
    for start, count in blocks(args.seeds,
                               entropy.seed_block(2, spec.size, args.budget)):
        js = range(start, start + count)
        pairs += entropy.derandomize(
            device, spec, [derive64(args.seed, _TAG_DERAND, 1, j) for j in js],
            args.budget, [[make_rng(args.seed, _TAG_DERAND, 2, j),
                           make_rng(args.seed, _TAG_DERAND, 3, j)]
                          for j in js]).tolist()
    agree = sum(a == b for a, b in pairs)
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
    return _check(args, _derandomize_contract, frac)


def cmd_llqsv(args) -> list:
    rng = make_rng(args.seed, _TAG_LLQSV)
    inst = llqsv.llqsv_instance(args.n, args.t, args.case, rng)
    blob = llqsv.to_llq1(inst)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(blob)
    else:
        sys.stdout.buffer.write(blob)
    mean_stat = _marginal_stat(inst)
    print(f"llqsv: wrote {len(inst)} entries (case={args.case}), "
          f"N*mean fhat(s)^2 = {mean_stat:.4f}", file=sys.stderr)
    return _check(args, _llqsv_contract, inst, blob, args.case, mean_stat)


# Stands in for `challenges` in the payload handed to json.dumps.  JSON
# writes it as "\u0000challenges\u0000", which no flag value can contain.
_CHALLENGES = "\0challenges\0"

# The text around the three fields of one challenge record, as
# json.dumps(indent=2, sort_keys=True) lays it out at
# payload["results"]["challenges"][i], followed by the ",\n" that separates
# it from the next record.
_ROW_TEXT = ('      {\n        "key": ', ',\n        "p": ', ',\n        "s": ',
             "\n      },\n")
_KEY_DIGITS = 20  # decimal digits of 2^64 - 1
_LIMB = 10**8  # 8 decimal digits, held in uint32
_GROUP = 10**4  # 4 decimal digits, written as one ASCII uint32 word


def _group_text() -> np.ndarray:
    """Four decimal digits per 4-byte ASCII word, in three runs of _GROUP by
    the group's place in its number: [0] left of the first digit (NUL), [1]
    the group holding the first digit (leading 0s as NUL, 0 as "0"), [2]
    right of it."""
    place = 10 ** np.arange(3, -1, -1)
    i = np.arange(_GROUP)[:, None]
    text = (i // place % 10 + ord("0")).astype(np.uint8)
    first = np.where((i >= place) | (place == 1), text, 0)
    return np.concatenate([np.zeros_like(text), first, text]).view(np.uint32).ravel()


_GROUP_TEXT = _group_text()


def _digits(values: np.ndarray, width: int) -> np.ndarray:
    """Decimal digits of nonnegative integers below 10^width, as ASCII in a
    (len, width) uint8 matrix; leading zeros are NUL, and 0 is "0".  Each
    8-digit uint32 limb is written as two 4-digit groups of _GROUP_TEXT."""
    limbs = -(-width // 8)
    words = np.empty((values.size, 2 * limbs), dtype=np.uint32)
    v = values.astype(np.uint64)
    for k in range(limbs - 1, -1, -1):
        q = v // _LIMB if k else 0
        limb = (v - q * _LIMB).astype(np.uint32)
        v, left = q, q > 0  # a digit left of the limb is not 0
        hi = limb // _GROUP
        lo = limb - hi * _GROUP
        lead = left | (hi > 0)  # a digit left of the low group is not 0
        words[:, 2 * k] = _GROUP_TEXT[hi + _GROUP * left + _GROUP * lead]
        mark = True if k == limbs - 1 else lead | (lo > 0)  # 0 is "0"
        words[:, 2 * k + 1] = _GROUP_TEXT[lo + _GROUP * lead + _GROUP * mark]
    return words.view(np.uint8)[:, -width:]


def _challenges_json(transcript):
    """The `challenges` array as ASCII chunks, byte-identical together to
    what json.dumps writes for one {"key", "p", "s"} dict per challenge at
    the payload's depth.

    Each chunk of _CHUNK rows fills one (rows, width) uint8 matrix, kept
    for every chunk: the text of _ROW_TEXT around the key and s digits
    (`_digits`) and the p text.  p = w^2/N^2 exactly, so its index is
    |w| = rint(sqrt(p) N), and ValueError is raised for a p off that grid;
    each |w| that occurs is formatted once with float.__repr__, which is
    json's float format (numpy's is not).  Every field is padded with NUL,
    and dropping the NULs leaves the rows.
    """
    size, probs = transcript.config.size, transcript.probs
    w = np.rint(np.sqrt(np.fmin(np.fmax(probs, 0.0), 1.0)) * size).astype(np.intp)
    present = np.bincount(w) > 0
    values = np.flatnonzero(present) ** 2 / float(size * size)
    index = (np.cumsum(present) - 1)[w]
    if not np.array_equal(values[index], probs):
        raise ValueError("a challenge's p is not w^2/N^2 for an integer w")
    p_text = np.array([float.__repr__(v).encode() for v in values.tolist()])
    p_table = p_text.view(np.uint8).reshape(values.size, -1)  # NUL-padded
    s_digits = len(str(size - 1))
    widths = (_KEY_DIGITS, p_table.shape[1], s_digits, 0)
    template = "".join(t + "\0" * w for t, w in zip(_ROW_TEXT, widths))
    template = np.frombuffer(template.encode(), dtype=np.uint8)
    ends = np.cumsum([len(t) + w for t, w in zip(_ROW_TEXT, widths)]).tolist()
    key_at, p_at, s_at = (slice(e - w, e) for e, w in zip(ends, widths[:3]))
    keys, samples = transcript.challenge_keys, transcript.samples
    T = samples.size
    M = np.repeat(template[None, :], min(T, _CHUNK), axis=0)
    yield "[\n"
    for start, count in blocks(T, _CHUNK):
        stop = start + count
        M[:count, key_at] = _digits(keys[start:stop], _KEY_DIGITS)
        M[:count, p_at] = p_table[index[start:stop]]
        M[:count, s_at] = _digits(samples[start:stop], s_digits)
        chunk = M[:count].tobytes().translate(None, b"\0").decode("ascii")
        yield chunk if stop < T else chunk[:-2]  # no ",\n" after the last row
    yield "\n    ]"


def _write_transcript(out, payload: dict, transcript) -> None:
    """Write the protocol payload, whose results["challenges"] is
    _CHALLENGES, with the transcript's challenges array in its place."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    parts = text.split(json.dumps(_CHALLENGES))
    if len(parts) != 2:
        raise RuntimeError("the challenges placeholder must occur exactly once")
    _write_text(out, itertools.chain(parts[:1], _challenges_json(transcript),
                                     parts[1:]))


def cmd_protocol(args) -> list:
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
    _write_transcript(args.out, _payload(args, "protocol", results), transcript)
    return _check(args, _protocol_contract, transcript, config, device,
                  claimed)


# ---------------------------------------------------------------- check-all

# check-all's runs, as (label, command line); each is run with --check at
# check-all's --seed, its payload sent to os.devnull
_CHECK_RUNS = [
    ("wht", "wht --n 10"),
    ("pgpb", "pgpb --n 10 --trials 20000"),
    ("pgpb", "pgpb --n 10 --trials 10000 --sampler uniform"),
    ("hog", "hog --n 8 --samples 20000"),
    ("sqforr", "sqforr --n 8 --c 1 --trials 20000 --estimator conditional"),
    ("sqforr", "sqforr --n 8 --c 1 --trials 20000 --estimator plain "
               "--uniform-pairs"),
    ("rhog", "rhog --n 8 --c 1 --trials 20000"),
    ("rhog", "rhog --n 8 --c 1 --trials 10000 --uniform-sampler"),
    ("perturb", "perturb --n 6"),
    ("derandomize", "derandomize --device biased:0.98 --n 4 --budget 5000 "
                    "--seeds 40"),
    ("llqsv", "llqsv --n 6 --t 2000 --case fourier"),
    ("protocol-honest", "protocol --n 6 --t 4096 --b 1.5 --eps 0.5 "
                        "--claimed-q argmax --device honest"),
    ("protocol-uniform", "protocol --n 6 --t 4096 --b 1.5 --eps 0.5 "
                         "--claimed-q argmax --device uniform"),
    ("protocol-argmax", "protocol --n 6 --t 4096 --b 1.5 --eps 0.5 "
                        "--claimed-q argmax --device argmax"),
]


def cmd_check_all(args) -> int:
    report = CheckReport()
    parser = build_parser()
    for label, line in _CHECK_RUNS:
        run = parser.parse_args(line.split() + [
            "--seed", str(args.seed), "--out", os.devnull, "--check"])
        report.extend(label, run.func(run))
    summary = f"{len(report.lines) - report.failed}/{len(report.lines)} checks passed"
    print(summary)
    if args.out:
        _emit(args, "check-all", {"checks": report.lines, "summary": summary})
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


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite float >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text}")
    return value


_N = _int_in(1, boolfn.MAX_N)
_COUNT = _int_in(1)
_SEED = _int_in(0, MASK64, base=0)  # decimal or 0x-prefixed, 64 bits


def _add_common(p, tol=True):
    p.add_argument("--seed", type=_SEED, default=0,
                   help="64-bit master seed (default %(default)s)")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--check", action="store_true",
                   help="assert this command's contract; exit 1 on failure")
    if tol:
        p.add_argument("--tol", type=_tolerance, default=None,
                       help="--check tolerance in place of the contract's "
                            "default")


def _add_threads(p):
    p.add_argument("--threads", type=_COUNT, default=_usable_cpus(),
                   help="worker threads, each holding one batch of trials "
                        "(default: the CPUs this process may run on, "
                        "%(default)s here); the output bytes never depend "
                        "on it")


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
    _add_threads(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p)
    p.set_defaults(func=cmd_pgpb)

    p = sub.add_parser("hog", help="heavy-output score on one random function")
    p.add_argument("--n", type=_N, default=8)
    p.add_argument("--samples", type=_COUNT, default=100000)
    p.add_argument("--sampler", choices=("honest", "uniform"),
                   default="honest")
    _add_common(p)
    p.set_defaults(func=cmd_hog)

    p = sub.add_parser("sqforr", help="mean phi over correlated pairs")
    p.add_argument("--n", type=_N, default=8)
    p.add_argument("--c", type=float, default=20.0)
    p.add_argument("--trials", type=_int_in(2), default=100000)
    p.add_argument("--estimator", choices=("plain", "conditional"),
                   default="conditional")
    p.add_argument("--uniform-pairs", action="store_true",
                   help="draw f and g as independent uniform functions "
                        "(the null control)")
    _add_threads(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p)
    p.set_defaults(func=cmd_sqforr)

    p = sub.add_parser("rhog", help="N-scaled rejection placement score")
    p.add_argument("--n", type=_N, default=8)
    p.add_argument("--c", type=float, default=20.0)
    p.add_argument("--trials", type=_int_in(2), default=100000)
    p.add_argument("--uniform-pairs", action="store_true",
                   help="draw f and g as independent uniform functions "
                        "(the null control)")
    p.add_argument("--uniform-sampler", action="store_true",
                   help="answer with the uniform device, not the honest "
                        "Fourier sampler (the null control)")
    _add_threads(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p)
    p.set_defaults(func=cmd_rhog)

    p = sub.add_parser("perturb",
                       help="flip sqrt(N)/2 agreement points and compare spectra")
    p.add_argument("--n", type=_N, default=8)
    p.add_argument("--z", type=int, default=None,
                   help="coefficient index (default: the argmax)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p, tol=False)
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
    _add_common(p, tol=False)
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("check-all",
                       help="run every command at fixed flags with --check")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=_SEED, default=0)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "check-all":
            return cmd_check_all(args)
        records = args.func(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"certlab: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"certlab: out of memory: {exc}", file=sys.stderr)
        return 1
    report = CheckReport("CHECK ", sys.stderr)
    for record in records:
        report.add(*record)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
