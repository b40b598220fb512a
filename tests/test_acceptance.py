"""Acceptance gate: the headline claims, each at its stated tolerance.

Every test here records exactly one PASS/FAIL line (replayed in the
terminal summary) and then asserts it.  Tolerances are pinned in the
asserts; none of them are tuned to the observed values.

A sample taken at finite n is held to the exact finite-N law, not to a
large-n limit.  Gate 1 compares the n=12 band rates with the exact
binomial band law (the Gaussian reference is only its limit and sits
0.0076 / 0.0068 away at n=12, more than the Monte Carlo CI).  Gate 3
compares the n=10 balance misses with the exact binomial tail (1.6e-3,
333x the 5 N^-2 allowance, which holds from n=16 on and is asserted
there in closed form).  The exact laws live in `exact_laws.py` and
import nothing from certlab; the rate harnesses of gates 3 and 7 live in
`rates.py`, and gate 9's advantage harness in `adversaries.py`.
"""

import math
from fractions import Fraction

import numpy as np

from certlab.boolfn import (
    BooleanFunction,
    coefficient_at,
    random_functions_batch,
    wht,
    wht_rows,
)
from certlab.devices import DeviceModel
from certlab.entropy import derandomize, perturb_make_light
from certlab.fouriersample import gaussian_reference, pgpb_counts, pgpb_from_counts
from certlab.llqsv import llqsv_instance
from certlab.protocol import ProtocolConfig, Verdict, run_protocol_arms
from certlab.rejection import rhog_from_values, rhog_values
from certlab.rng import derive64, make_rng
from certlab.sqforrelation import DistParams, phi_experiment_from_values, phi_values
from certlab.stats import mean_ci99
from adversaries import advantage, s_only_parity
from exact_laws import balance_tail, band_rates, classify_scaled, degree_ratio
from rates import coupling_disagreement, hamming_balance_rate, truncation_rate

SEED = 20260823  # master seed for the whole gate; everything derives from it


def test_01_band_rates_at_n12_match_reference(criterion):
    est = pgpb_from_counts(*pgpb_counts(12, DeviceModel("honest"), 100000,
                                        make_rng(SEED, 1)), 100000)
    exact_b, exact_l4, exact_g = (float(p) for p in band_rates(12))
    ref_b, ref_l4, ref_g = gaussian_reference()
    in_windows = (
        abs(est.p_b - 0.199) <= 0.01
        and abs(est.p_light4 - 0.739) <= 0.01
        and abs(est.p_g - 0.54) <= 0.015
    )
    within_ci = (
        abs(est.p_b - exact_b) <= est.ci99["p_b"]
        and abs(est.p_light4 - exact_l4) <= est.ci99["p_light4"]
        and abs(est.p_g - exact_g) <= est.ci99["p_g"]
    )
    ok = criterion(
        "1 band rates at n=12 (1e5 trials)",
        in_windows and within_ci,
        f"p_b={est.p_b:.5f} p_light4={est.p_light4:.5f} p_g={est.p_g:.5f}; "
        f"windows {'ok' if in_windows else 'VIOLATED'}; exact-law gaps "
        f"({abs(est.p_b - exact_b):.5f}, {abs(est.p_light4 - exact_l4):.5f}, "
        f"{abs(est.p_g - exact_g):.5f}) vs ci99 "
        f"({est.ci99['p_b']:.5f}, {est.ci99['p_light4']:.5f}, "
        f"{est.ci99['p_g']:.5f}); Gaussian-limit gaps "
        f"({abs(est.p_b - ref_b):.5f}, {abs(est.p_light4 - ref_l4):.5f}, "
        f"{abs(est.p_g - ref_g):.5f})",
    )
    assert ok, "band rates must match the exact n=12 law within ci99"


def test_02_correlated_pairs_lift_phi(criterion):
    params = DistParams(8, 1.0)
    eps2 = params.epsilon ** 2
    null = phi_experiment_from_values(params, phi_values(
        params, 100000, "plain", make_rng(SEED, 2), uniform_pairs=True),
        "plain", uniform_pairs=True)
    exp = phi_experiment_from_values(params, phi_values(
        params, 100000, "conditional", make_rng(SEED, 3)), "conditional")
    pred = exp.gprime_prediction
    ok = criterion(
        "2 phi signal at n=8, C=1 (1e5 trials)",
        abs(null.mean) <= null.ci99
        and exp.mean >= eps2
        and exp.mean - exp.ci99 > eps2 / 2
        and abs(exp.mean - pred) <= 0.3 * pred,
        f"null {null.mean:.2e} (ci {null.ci99:.2e}); signal {exp.mean:.5f} "
        f"(ci {exp.ci99:.5f}) vs eps^2 {eps2:.5f}, prediction {pred:.5f} "
        f"(gap {abs(exp.mean - pred) / pred:.1%})",
    )
    assert ok


def test_03_truncation_and_balance_concentration(criterion):
    params = DistParams(10, 20.0)
    N = params.size
    trunc, trunc_ci = truncation_rate(params, 10000, make_rng(SEED, 4))
    bal_fail, bal_ci = hamming_balance_rate(params, 10000, make_rng(SEED, 5))
    # the clamp binds ~12 sigma out, so the g-side ones count is
    # Binomial(N, 1/2) and its exact band-miss mass is the reference
    bal_exact = float(balance_tail(10))
    trunc_ok = trunc <= 2.0 / N**2 + trunc_ci
    bal_ok = abs(bal_fail - bal_exact) <= bal_ci
    # 5/N^2 is a large-n statement: it holds for the exact tail from n=16
    tails = {m: balance_tail(m) for m in (16, 18)}
    limit_ok = all(t <= Fraction(5, (1 << m) ** 2) for m, t in tails.items())
    ok = criterion(
        "3 truncation and balance at n=10, C=20 (1e4 draws)",
        trunc_ok and bal_ok and limit_ok,
        f"truncation {trunc:.2e} vs 2/N^2+ci {2 / N**2 + trunc_ci:.2e} "
        f"({'ok' if trunc_ok else 'VIOLATED'}); balance misses "
        f"{bal_fail:.2e} vs exact tail {bal_exact:.2e}, gap "
        f"{abs(bal_fail - bal_exact):.2e} vs ci {bal_ci:.2e} "
        f"({'ok' if bal_ok else 'VIOLATED'}); exact tail vs 5/N^2 at "
        + ", ".join(f"n={m} {float(t):.2e} vs {5 / (1 << m) ** 2:.2e}"
                    for m, t in tails.items())
        + f" ({'ok' if limit_ok else 'VIOLATED'})",
    )
    assert ok, "truncation or balance misses off their exact finite-N law"


def test_04_rejection_score_beats_target(criterion):
    params = DistParams(8, 1.0)
    res = rhog_from_values(params, rhog_values(
        params, DeviceModel("honest"), 100000, make_rng(SEED, 6)))
    ctrl = rhog_from_values(params, rhog_values(
        params, DeviceModel("honest"), 100000, make_rng(SEED, 7),
        uniform_pairs=True))
    ok = criterion(
        "4 rejection-score lift at n=8, C=1 (1e5 trials)",
        res.n_times_mean >= res.target
        and res.n_times_mean - res.ci99 > 1.0
        and abs(ctrl.n_times_mean - 1.0) <= ctrl.ci99,
        f"N*mean {res.n_times_mean:.4f} (ci {res.ci99:.4f}) vs target "
        f"{res.target:.4f}; uniform-pair control {ctrl.n_times_mean:.4f} "
        f"(ci {ctrl.ci99:.4f})",
    )
    assert ok


def test_05_perturbation_is_exact(criterion):
    n, count = 12, 1000
    N = 1 << n
    root = 1 << (n // 2)
    gen = make_rng(SEED, 8)
    picked = []  # (sign_row, z, w_before)
    while len(picked) < count:
        rows = random_functions_batch(n, 128, gen)
        scaled = wht_rows(rows.astype(np.int64))
        zs = gen.integers(0, N, size=128)
        for row, w_row, z in zip(rows, scaled, zs):
            w = int(w_row[int(z)])
            if classify_scaled(w, N).value == "SlightlyHeavy":
                picked.append((row, int(z), w))
                if len(picked) == count:
                    break
    perturbed = np.empty((count, N), dtype=np.int8)
    for i, (row, z, _) in enumerate(picked):
        f2 = perturb_make_light(BooleanFunction(n, row), z, gen)
        perturbed[i] = f2.values
    scaled_before = wht_rows(
        np.stack([row for row, _, _ in picked]).astype(np.int64)
    )
    scaled_after = wht_rows(perturbed.astype(np.int64))
    exact = 0
    tv_max = 0.0
    for i, (_, z, w) in enumerate(picked):
        step = root if w > 0 else -root
        if int(scaled_after[i, z]) == w - step:
            exact += 1
        d1 = scaled_before[i].astype(np.int64) ** 2
        d2 = scaled_after[i].astype(np.int64) ** 2
        tv_max = max(tv_max, float(np.abs(d1 - d2).sum()) / (2 * N * N))
    bound = 2.0 * N ** (-1.0 / 8.0)
    ok = criterion(
        "5 coefficient step exact on 1000 pairs at n=12",
        exact == count and tv_max <= bound,
        f"{exact}/{count} integer identities held (zero tolerance); "
        f"max tv {tv_max:.4f} <= {bound:.4f}",
    )
    assert ok


def test_06_degree_ratio_limits(criterion):
    sizes = [4**k for k in range(2, 11)]  # 16 .. 2^20
    vals = [degree_ratio(N) for N in sizes]
    monotone = all(a < b for a, b in zip(vals, vals[1:]))
    at_64 = degree_ratio(64)
    exact_64 = abs(at_64 - 58905 / 35960) < 1e-12 and round(at_64, 3) == 1.638
    at_top = abs(vals[-1] - math.exp(0.5)) <= 0.01
    ok = criterion(
        "6 degree ratio monotone with sqrt(e) limit",
        monotone and exact_64 and at_top,
        f"monotone over 16..2^20: {monotone}; N=64 value {at_64:.6f} "
        f"(= 58905/35960); 2^20 value {vals[-1]:.6f} vs sqrt(e) "
        f"{math.exp(0.5):.6f}",
    )
    assert ok


def test_07_shared_seed_coupling_rate(criterion):
    deltas = [0.1, 1 / 3, 0.5]
    details = []
    all_ok = True
    for j, delta in enumerate(deltas):
        d1 = np.array([1 - delta, delta, 0.0])
        d2 = np.array([1 - delta, 0.0, delta])
        res = coupling_disagreement(d1, d2, 100000, make_rng(SEED, 9, j))
        target = 2 * delta / (1 + delta)
        hit = abs(res.rate - target) <= res.ci99
        all_ok = all_ok and hit
        details.append(f"d={delta:.3f}: {res.rate:.4f} vs {target:.4f} "
                       f"(ci {res.ci99:.4f})")
    ok = criterion(
        "7 coupling disagreement matches 2d/(1+d) (1e5 seeds each)",
        all_ok,
        "; ".join(details),
    )
    assert ok


def test_08_derandomizer_contracts(criterion):
    from scipy.stats import chisquare

    # marginal equality over fresh seeds, honest device at n=4
    dev = DeviceModel("honest")
    rows = random_functions_batch(4, 1, make_rng(SEED, 10))
    spec = wht(BooleanFunction(4, rows[0]))
    spec_scaled = wht_rows(rows.astype(np.int64))[0]
    probs = (spec_scaled / 16.0) ** 2
    rng = make_rng(SEED, 11)
    counts = np.zeros(16)
    for j in range(2000):
        counts[derandomize(dev, spec, [derive64(SEED, 12, j)], 500, [[rng]])[0, 0]] += 1
    support = probs > 0
    leak = counts[~support].sum()
    _, pvalue = chisquare(counts[support], 2000 * probs[support])

    # fixed-seed constancy for a near-deterministic device
    dev98 = DeviceModel("biased", 0.98)
    constant_seeds = 0
    for j in range(100):
        outs = derandomize(dev98, spec, [derive64(SEED, 13, j)], 10000,
                           [[make_rng(SEED, 14, j, rep) for rep in range(20)]])[0]
        constant_seeds += int(len(set(outs.tolist())) == 1)
    ok = criterion(
        "8 derandomizer marginal + constancy at n=4",
        leak == 0 and pvalue > 0.01 and constant_seeds >= 90,
        f"chi-square p={pvalue:.3f} (0 draws off-support); "
        f"{constant_seeds}/100 seeds constant across 20 re-runs",
    )
    assert ok


def test_09_long_list_statistics(criterion):
    import itertools

    from certlab.boolfn import fourth_moment, wht

    # exhaustive oracle at n=2
    total = 0.0
    for signs in itertools.product([1, -1], repeat=4):
        total += fourth_moment(wht(BooleanFunction(2, np.array(signs,
                                                               np.int8))))
    oracle_n2 = total / 16
    oracle_ok = abs(oracle_n2 - 0.625) < 1e-12

    def list_mean(n, case, tag):
        inst = llqsv_instance(n, 20000, case, make_rng(SEED, tag))
        vals = np.array([coefficient_at(BooleanFunction(n, row), int(s)) ** 2
                         for row, s in zip(inst.tables, inst.s)])
        return mean_ci99(vals)

    f2 = list_mean(2, "fourier", 15)
    f8 = list_mean(8, "fourier", 16)
    u8 = list_mean(8, "uniform", 17)
    expect_f8 = (3 * 256 - 2) / 256**2  # the same oracle at n=8, ~3/N
    adv = advantage(s_only_parity, 8, 1000, 200, make_rng(SEED, 18))
    ok = criterion(
        "9 long-list sample statistics",
        oracle_ok
        and abs(f2.mean - 0.625) <= f2.ci99
        and abs(f8.mean - expect_f8) <= f8.ci99
        and abs(u8.mean - 1 / 256) <= u8.ci99
        and abs(adv.advantage) <= adv.ci99,
        f"enumerated n=2 oracle 0.625 exact: {oracle_ok}; fourier means "
        f"{f2.mean:.4f} (n=2) / {f8.mean:.6f} (n=8) vs {expect_f8:.6f}; "
        f"uniform {u8.mean:.6f} vs {1 / 256:.6f}; s-only advantage "
        f"{adv.advantage:+.4f} (ci {adv.ci99:.4f})",
    )
    assert ok


def test_10_protocol_separates_devices(criterion):
    runs = 100
    T = 1 << 18
    honest_pass = uniform_fail = uniform_verdict = argmax_verdict = 0
    for i in range(runs):
        cfg = ProtocolConfig(n=6, T=T, b=1.5, eps_hog=0.5,
                             seed=derive64(SEED, 19, i))
        tr_h, tr_u, tr_a = run_protocol_arms(cfg, [
            (DeviceModel("honest"), None),
            (DeviceModel("uniform"), "argmax"),
            (DeviceModel("argmax"), "argmax"),
        ])
        if tr_h.score_pass:
            honest_pass += 1
        if not tr_u.score_pass:
            uniform_fail += 1
        if tr_u.entropy_verdict is Verdict.UNIFORM_LIKE:
            uniform_verdict += 1
        if tr_a.entropy_verdict is Verdict.QUANTUM_LIKE:
            argmax_verdict += 1
    ok = criterion(
        "10 protocol separation at n=6, T=2^18 (100 runs/arm)",
        honest_pass >= 99 and uniform_fail >= 99
        and uniform_verdict >= 99 and argmax_verdict >= 99,
        f"honest pass {honest_pass}/100; uniform fail {uniform_fail}/100; "
        f"collision verdicts uniform {uniform_verdict}/100, argmax "
        f"{argmax_verdict}/100",
    )
    assert ok
