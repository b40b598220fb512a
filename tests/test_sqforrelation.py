"""Correlated pair distribution and the phi statistic.

phi(f, g) = sum_z fhat(z)^2 g(z) is evaluated in exact integer
arithmetic (N^2 phi is an integer), so the small closed-form cases here
carry zero tolerance.  The conditional estimator is checked as the exact
conditional expectation of phi over the rounding randomness by a paired
Monte Carlo run on one frozen real-valued draw.
"""

import math

import numpy as np
import pytest

from certlab import sqforrelation
from certlab.boolfn import BooleanFunction, character_values, random_function, wht_rows
from certlab.rng import make_rng
from certlab.sqforrelation import (
    DistParams,
    hamming_balance_rate,
    mean_phi_experiment,
    pair_rows,
    phi_conditional_rows,
    phi_experiment_from_values,
    phi_rows,
    phi_values,
    row_sum_tail_check,
    sample_gprime_rows,
    trnc,
    truncation_rate,
)
from exact_laws import balance_tail


def orthonormal_entry(n: int, i: int, j: int) -> float:
    """Matrix element H_ij = (-1)^{i.j}/sqrt(N) of the orthonormal Hadamard."""
    sign = -1.0 if bin(i & j).count("1") % 2 else 1.0
    return sign / math.sqrt(1 << n)


def phi(f: BooleanFunction, g: BooleanFunction) -> float:
    """phi of one pair, through phi_rows with one row."""
    return float(phi_rows(f.values[None, :], g.values[None, :])[0])


def round_to_boolean(X, Yp, u):
    """The rounding rule: coordinate c of clamp(X, Yp) becomes +1 exactly
    when its uniform lies below (1 + c)/2; u holds the f half's uniforms,
    then the g half's."""
    c = np.concatenate([np.clip(X, -1, 1), np.clip(Yp, -1, 1)], axis=-1)
    signs = np.where(u < (1.0 + c) / 2.0, 1, -1).astype(np.int8)
    return np.split(signs, 2, axis=-1)


def test_epsilon_definition():
    params = DistParams(8, 1.0)
    assert params.epsilon == pytest.approx(1.0 / math.log(256))
    assert params.size == 256
    with pytest.raises(ValueError):
        DistParams(8, -1.0)


def test_orthonormal_transform_is_an_involution():
    # Y = HX in sample_gprime_rows is wht_rows(X) / sqrt(N)
    def orthonormal(v):
        return wht_rows(v)[0] / 4.0

    v = np.arange(16.0)
    assert np.allclose(orthonormal(orthonormal(v)), v)
    # rows have unit norm: transform of a basis vector has norm 1
    e0 = np.zeros(16)
    e0[0] = 1.0
    assert np.linalg.norm(orthonormal(e0)) == pytest.approx(1.0)


def test_orthonormal_entry_sign_pattern():
    n = 3
    for i, j in [(0, 0), (3, 5), (7, 7), (2, 6)]:
        sign = -1 if bin(i & j).count("1") % 2 else 1
        assert orthonormal_entry(n, i, j) == pytest.approx(
            sign / math.sqrt(8)
        )


def test_gprime_covariance_structure():
    # X iid N(0, eps); Y = HX so cov(X_i, Y_j) = eps * H_ij
    params = DistParams(4, 2.0)
    eps = params.epsilon
    xs = np.empty((4000, 16))
    rng = make_rng(40, 0)
    for t in range(4000):
        xs[t] = sample_gprime_rows(params, 1, rng)[0][0]
    # recover Y from Yp = Y^2 - eps only up to sign; apply H directly
    H = np.array([[orthonormal_entry(4, i, j) for j in range(16)]
                  for i in range(16)])
    ys = xs @ H.T
    for (i, j) in [(0, 0), (1, 3), (5, 2)]:
        emp = float(np.mean(xs[:, i] * ys[:, j]))
        assert emp == pytest.approx(eps * orthonormal_entry(4, i, j),
                                    abs=5 * eps / math.sqrt(4000))


def test_gprime_yp_is_centered():
    params = DistParams(6, 2.0)
    rng = make_rng(40, 1)
    tot = np.zeros(64)
    for _ in range(2000):
        tot += sample_gprime_rows(params, 1, rng)[1][0]
    mean = tot / 2000
    assert np.all(np.abs(mean) < 6 * params.epsilon * math.sqrt(2 / 2000))


def test_trnc_clamps_to_unit_interval():
    v = np.array([-3.0, -1.0, -0.2, 0.0, 0.9, 1.0, 4.5])
    out = trnc(v)
    assert out.tolist() == [-1.0, -1.0, -0.2, 0.0, 0.9, 1.0, 1.0]


def test_pair_rows_rounding_marginal(monkeypatch):
    # P[+1] = (1 + c) / 2 per coordinate: 0.75 for the f half at c = 0.5,
    # 0.25 for the g half at c = -0.5 (the real draw is frozen there)
    monkeypatch.setattr(sqforrelation, "sample_gprime_rows",
                        lambda params, count, rng: (np.full((count, 512), 0.5),
                                                    np.full((count, 512), -0.5)))
    f, g = pair_rows(DistParams(9, 2.0), 500, make_rng(41, 0))
    assert float(np.mean(f == 1)) == pytest.approx(0.75, abs=0.01)
    assert float(np.mean(g == 1)) == pytest.approx(0.25, abs=0.01)


# ---------------------------------------------------------------- phi

def test_phi_closed_forms():
    f = BooleanFunction(2, np.array([1, 1, 1, -1], dtype=np.int8))
    ones = BooleanFunction(2, np.ones(4, dtype=np.int8))
    # g identically +1 sums the whole squared spectrum: phi = 1 exactly
    g_plus = BooleanFunction(2, np.array([1, 1, 1, 1], dtype=np.int8))
    assert phi(f, g_plus) == 1.0
    g_minus = BooleanFunction(2, np.array([-1, -1, -1, -1], dtype=np.int8))
    assert phi(f, g_minus) == -1.0
    # g = chi_1 as a +-1 table: phi = 1/4 + 1/4 - 1/4 - 1/4 = 0
    g_parity = BooleanFunction(2, character_values(2, 1))
    assert phi(f, g_parity) == 0.0
    # g = f's own sign table on the squared spectrum
    assert phi(f, f) == 0.5
    assert phi(ones, ones) == 1.0


def test_phi_negation_antisymmetry():
    f = random_function(5, make_rng(42, 0))
    g = random_function(5, make_rng(42, 1))
    g_neg = BooleanFunction(5, -g.values)
    assert phi(f, g) + phi(f, g_neg) == 0.0


def test_phi_times_size_squared_is_integer():
    f = random_function(6, make_rng(42, 2))
    g = random_function(6, make_rng(42, 3))
    val = phi(f, g) * 64 * 64
    assert val == round(val)


def test_pair_rows_round_like_round_to_boolean():
    # one correlated pair draws the same stream as sample_gprime_rows
    # followed by the rounding rule (N uniforms for f, then N for g)
    params = DistParams(5, 2.0)
    f, g = pair_rows(params, 1, make_rng(43, 0))
    rng = make_rng(43, 0)
    X, Yp = sample_gprime_rows(params, 1, rng)
    ref_f, ref_g = round_to_boolean(X[0], Yp[0], rng.random(64))
    assert f.dtype == g.dtype == np.int8 and f.shape == g.shape == (1, 32)
    assert np.array_equal(f[0], ref_f)
    assert np.array_equal(g[0], ref_g)
    # uniform pairs: the f rows are drawn before the g rows
    f, g = pair_rows(params, 3, make_rng(43, 1), uniform_pairs=True)
    bits = make_rng(43, 1).integers(0, 2, size=(6, 32), dtype=np.int8)
    assert np.array_equal(np.concatenate([f, g]), 1 - 2 * bits)


def test_phi_conditional_is_conditional_expectation():
    # freeze one real draw; average phi over 4000 independent roundings
    # and compare with the closed-form conditional value
    params = DistParams(5, 1.0)
    X, Yp = sample_gprime_rows(params, 1, make_rng(44, 0))
    cond = float(phi_conditional_rows(X, Yp)[0])
    f, g = round_to_boolean(X, Yp, make_rng(44, 1).random((4000, 64)))
    vals = phi_rows(f, g)
    err = 2.5758 * float(vals.std()) / math.sqrt(4000)
    assert float(vals.mean()) == pytest.approx(cond, abs=max(err, 1e-3))


def test_mean_phi_experiment_fields_and_signal():
    params = DistParams(8, 1.0)
    exp = mean_phi_experiment(params, 5000, "conditional", make_rng(45, 0))
    eps2 = params.epsilon ** 2
    assert exp.target_lower_bound == pytest.approx(eps2)
    assert exp.gprime_prediction == pytest.approx(eps2 * (2 - 2 / 256))
    assert exp.trials == 5000
    assert exp.estimator == "conditional"
    assert exp.mean - exp.ci99 > eps2 / 2


def test_uniform_pairs_have_no_signal():
    params = DistParams(8, 1.0)
    exp = mean_phi_experiment(params, 5000, "plain", make_rng(45, 1),
                              uniform_pairs=True)
    assert exp.uniform_pairs
    assert abs(exp.mean) < 4 * exp.ci99 + 1e-3


def test_phi_values_merge_matches_single_call():
    params = DistParams(6, 2.0)
    vals = phi_values(params, 300, "conditional", make_rng(46, 0))
    exp = phi_experiment_from_values(params, vals, "conditional", False)
    whole = mean_phi_experiment(params, 300, "conditional", make_rng(46, 0))
    assert exp.mean == whole.mean
    assert exp.ci99 == whole.ci99


def test_plain_and_conditional_estimators_agree_in_mean():
    params = DistParams(6, 1.0)
    plain = mean_phi_experiment(params, 20000, "plain", make_rng(47, 0))
    cond = mean_phi_experiment(params, 20000, "conditional", make_rng(47, 1))
    # same expectation; conditional has much smaller variance
    assert plain.mean == pytest.approx(cond.mean,
                                       abs=plain.ci99 + cond.ci99)
    assert cond.ci99 < plain.ci99


# ---------------------------------------------------------------- rates

def test_truncation_is_rare():
    params = DistParams(10, 20.0)
    rate, ci = truncation_rate(params, 2000, make_rng(48, 0))
    assert rate <= 2.0 / params.size ** 2 + ci


def test_row_sum_tail_check_fields():
    params = DistParams(10, 20.0)
    res = row_sum_tail_check(params, 2000, make_rng(48, 1))
    assert res.rate <= res.bound + res.ci99
    assert res.threshold == pytest.approx(3 * math.sqrt(params.size))
    assert res.bound == pytest.approx(2 * math.exp(-1 / params.epsilon))


def test_hamming_balance_rate_reports_fail_fraction():
    # the g-side ones count is Binomial(N, 1/2) (the clamp binds ~10 sigma
    # out at C=20), so the miss rate is its exact band tail, 1.025e-2 at n=8
    params = DistParams(8, 20.0)
    rate, ci = hamming_balance_rate(params, 2000, make_rng(48, 2))
    exact = float(balance_tail(8))
    assert exact == pytest.approx(1.025e-2, abs=1e-5)
    assert ci > 0.0
    assert abs(rate - exact) <= ci


def test_hamming_balance_rate_draws_pair_rows_blocks():
    # 5000 trials are pair_rows blocks of 4096 and 904, g half counted
    params = DistParams(4, 2.0)
    rng = make_rng(49, 0)
    ones = np.concatenate([np.count_nonzero(pair_rows(params, b, rng)[1] == 1,
                                            axis=1) for b in (4096, 904)])
    delta = 16 ** (-1 / 3)
    hits = int(np.count_nonzero(np.abs(ones - 8) > delta * 8))
    rate, _ = hamming_balance_rate(params, 5000, make_rng(49, 0))
    assert rate == hits / 5000
