"""Min-entropy accounting, seeded replay, coupling, and the perturbation.

The coupling law is the one place with a nontrivial closed form: for two
distributions at statistical distance delta the shared-stream replay
disagrees with probability (2 delta - sum |d - d'| min(d, d')) / (1 +
delta), which collapses to 2 delta / (1 + delta) exactly when the
difference sets are disjoint.  Both forms are exercised, including the
overlap counterexample where the simple formula is wrong.
"""

import math

import numpy as np
import pytest

from certlab.boolfn import character_values, random_function, wht
from certlab.devices import argmax_index, biased, honest, uniform_cheat
from certlab.entropy import (
    BudgetZero,
    EmptyDistribution,
    OddRoot,
    OutcomeDistribution,
    RejSampSeed,
    coupling_disagreement,
    coupling_rate_disjoint,
    degree_ratio,
    derandomize,
    empirical_distribution,
    exact_coupling_rate,
    min_entropy,
    perturb_make_light,
    rejsamp,
    statistical_distance,
)
from certlab.rng import derive64, make_rng

# closed form at N=64: C(36, 4) / C(32, 4) = 58905 / 35960
DEGREE_RATIO_64 = 58905 / 35960


# ---------------------------------------------------------------- distributions

def test_outcome_distribution_validation():
    with pytest.raises(EmptyDistribution):
        OutcomeDistribution(np.array([]))
    with pytest.raises(ValueError):
        OutcomeDistribution(np.array([0.5, 0.4]))  # does not sum to 1
    with pytest.raises(ValueError):
        OutcomeDistribution(np.array([1.5, -0.5]))


def test_min_entropy_values():
    assert min_entropy(OutcomeDistribution.point_mass(8, 3)) == 0.0
    assert min_entropy(OutcomeDistribution.uniform(256)) == pytest.approx(8.0)
    two = OutcomeDistribution(np.array([0.98, 0.02]))
    assert min_entropy(two) == pytest.approx(-math.log2(0.98))


def test_statistical_distance_examples():
    d1 = OutcomeDistribution(np.array([2 / 3, 1 / 3, 0.0]))
    d2 = OutcomeDistribution(np.array([2 / 3, 0.0, 1 / 3]))
    assert statistical_distance(d1, d2) == pytest.approx(1 / 3)
    assert statistical_distance(d1, d1) == 0.0


def test_from_counts_normalizes():
    d = OutcomeDistribution.from_counts(np.array([2, 6, 6, 2]))
    assert d.probs.tolist() == [0.125, 0.375, 0.375, 0.125]


def test_empirical_distribution():
    draws = np.array([0, 1, 1, 3, 3, 3, 3, 1])
    d = empirical_distribution(draws, 4)
    assert d.probs.tolist() == [0.125, 0.375, 0.0, 0.5]


# ---------------------------------------------------------------- rejsamp

def test_rejsamp_is_a_pure_function_of_seed():
    d = OutcomeDistribution(np.array([0.2, 0.5, 0.3]))
    r = RejSampSeed(777)
    assert rejsamp(d, r) == rejsamp(d, r)
    outs = {rejsamp(d, RejSampSeed(s)) for s in range(30)}
    assert outs.issubset({0, 1, 2}) and len(outs) > 1


def test_rejsamp_point_mass_always_returns_it():
    d = OutcomeDistribution.point_mass(16, 11)
    assert all(rejsamp(d, RejSampSeed(s)) == 11 for s in range(20))


def test_rejsamp_marginal_matches_distribution():
    d = OutcomeDistribution(np.array([0.1, 0.2, 0.3, 0.4]))
    rng = make_rng(60, 0)
    seeds = rng.integers(0, 1 << 63, size=20000)
    counts = np.zeros(4)
    for s in seeds:
        counts[rejsamp(d, RejSampSeed(int(s)))] += 1
    from scipy.stats import chisquare

    _, pvalue = chisquare(counts, 20000 * d.probs)
    assert pvalue > 1e-3


# ---------------------------------------------------------------- coupling

def test_disjoint_formula_values():
    assert coupling_rate_disjoint(1 / 3) == pytest.approx(0.5)
    assert coupling_rate_disjoint(0.0) == 0.0
    assert coupling_rate_disjoint(1.0) == 1.0


def test_exact_rate_equals_disjoint_formula_when_disjoint():
    d1 = OutcomeDistribution(np.array([2 / 3, 1 / 3, 0.0]))
    d2 = OutcomeDistribution(np.array([2 / 3, 0.0, 1 / 3]))
    assert exact_coupling_rate(d1, d2) == pytest.approx(
        coupling_rate_disjoint(1 / 3), abs=1e-12
    )


def test_exact_rate_overlap_counterexample():
    # (1, 0) vs (2/3, 1/3): delta = 1/3 but the difference supports
    # overlap through the shared acceptance region, so the disagreement
    # rate is 1/3, not 2 delta/(1+delta) = 1/2
    d1 = OutcomeDistribution(np.array([1.0, 0.0]))
    d2 = OutcomeDistribution(np.array([2 / 3, 1 / 3]))
    assert exact_coupling_rate(d1, d2) == pytest.approx(1 / 3, abs=1e-12)
    assert exact_coupling_rate(d1, d2) < coupling_rate_disjoint(1 / 3)


def test_identical_distributions_never_disagree():
    d = OutcomeDistribution(np.array([0.4, 0.6]))
    res = coupling_disagreement(d, d, 500, make_rng(61, 0))
    assert res.rate == 0.0
    assert res.delta == 0.0


def test_empirical_coupling_matches_exact_law():
    d1 = OutcomeDistribution(np.array([1.0, 0.0]))
    d2 = OutcomeDistribution(np.array([2 / 3, 1 / 3]))
    res = coupling_disagreement(d1, d2, 4000, make_rng(61, 1))
    assert res.exact_rate == pytest.approx(1 / 3, abs=1e-12)
    assert res.rate == pytest.approx(res.exact_rate, abs=res.ci99 + 0.01)


def test_coupling_result_reports_both_references():
    d1 = OutcomeDistribution(np.array([0.9, 0.1, 0.0]))
    d2 = OutcomeDistribution(np.array([0.9, 0.0, 0.1]))
    res = coupling_disagreement(d1, d2, 1000, make_rng(61, 2))
    assert res.delta == pytest.approx(0.1)
    assert res.disjoint_rate == pytest.approx(2 * 0.1 / 1.1)
    assert res.exact_rate == pytest.approx(res.disjoint_rate, abs=1e-12)
    assert res.trials == 1000


# ---------------------------------------------------------------- perturbation

def test_perturb_moves_coefficient_by_exact_step():
    f = random_function(8, make_rng(62, 0))
    spec = wht(f)
    z = argmax_index(spec)
    f2 = perturb_make_light(f, z, make_rng(62, 1))
    w_before = int(spec.scaled[z])
    w_after = int(wht(f2).scaled[z])
    step = 16 if w_before > 0 else -16  # sqrt(N) at n=8
    assert w_after == w_before - step
    # exactly sqrt(N)/2 positions changed
    assert int(np.sum(f.values != f2.values)) == 8


def test_perturb_only_touches_agreement_set():
    f = random_function(6, make_rng(62, 2))
    spec = wht(f)
    z = argmax_index(spec)
    sgn = 1 if spec.scaled[z] > 0 else -1
    chi = character_values(6, z)
    f2 = perturb_make_light(f, z, make_rng(62, 3))
    changed = np.nonzero(f.values != f2.values)[0]
    assert np.all(f.values[changed] == sgn * chi[changed])


def test_perturb_requires_even_bit_count():
    f = random_function(5, make_rng(62, 4))
    with pytest.raises(OddRoot):
        perturb_make_light(f, 0, make_rng(62, 5))


def test_degree_ratio_exact_values():
    assert degree_ratio(4) == pytest.approx(1.5, abs=1e-12)
    assert degree_ratio(64) == pytest.approx(DEGREE_RATIO_64, abs=1e-12)
    assert degree_ratio(1 << 20) == pytest.approx(math.exp(0.5), abs=1e-2)


def test_degree_ratio_monotone_and_bounded():
    sizes = [4 ** k for k in range(1, 11)]
    vals = [degree_ratio(N) for N in sizes]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    for N, v in zip(sizes, vals):
        root = math.isqrt(N)
        assert (1 + 1 / root) ** (root // 2) - 1e-9 <= v < math.exp(0.5)


def test_degree_ratio_rejects_odd_root():
    with pytest.raises(OddRoot):
        degree_ratio(8)  # sqrt(8) not an integer


# ---------------------------------------------------------------- derandomizer

def test_derandomize_same_seed_same_output():
    device = biased(0.98)
    f = random_function(4, make_rng(63, 0))
    r = RejSampSeed(derive64(63, 1))
    a = derandomize(device, f, r, 5000, make_rng(63, 2))
    b = derandomize(device, f, r, 5000, make_rng(63, 3))
    assert a == b


def test_derandomize_budget_must_be_positive():
    with pytest.raises(BudgetZero):
        derandomize(honest(), random_function(4, make_rng(63, 4)),
                    RejSampSeed(1), 0, make_rng(63, 5))


def test_derandomize_marginal_tracks_device():
    # over random seeds the replayed output has the device's distribution
    device = uniform_cheat()
    f = random_function(3, make_rng(64, 0))
    rng = make_rng(64, 1)
    counts = np.zeros(8)
    for j in range(4000):
        r = RejSampSeed(derive64(64, 2, j))
        counts[derandomize(device, f, r, 200, rng)] += 1
    from scipy.stats import chisquare

    _, pvalue = chisquare(counts)
    assert pvalue > 1e-3

