"""Capped rejection sampler: closed-form law and scores.

Oracle for the single-accepting-point case (n=2, one accepting input):
acceptance fraction a = 1/4, cap K = 4 n^2 = 16, so the accepting point
carries (1 - (1-a)^K)/(aN) + (1-a)^K / N and each rejected point
(1-a)^K / N.  The geometric series is summed independently below and the
value frozen.  For general g the law is held to `rejection_sample`, a
literal simulation of the attempts.
"""

import json
from typing import NamedTuple

import numpy as np
import pytest

from certlab import cli
from certlab.boolfn import BooleanFunction, random_function, wht
from certlab.devices import DeviceModel
from certlab.rng import blocks, make_rng
from certlab.rejection import (
    _placement,
    max_attempts,
    rhog_from_values,
    rhog_values,
)
from certlab.sqforrelation import DistParams

# sum_{k<16} (3/4)^k (1/4) + (3/4)^16 / 4, frozen from exact rationals
SINGLE_POINT_MASS = 0.9924830531817861


def exact_distribution(g: BooleanFunction) -> np.ndarray:
    """The sampler's output law on g as a length-N probability vector: the
    package's closed form (`_placement`), read at every x."""
    accept = g.values == 1
    return _placement(np.count_nonzero(accept), accept, g.n)


class RejectionOutcome(NamedTuple):
    """Result of one simulated rejection-sampling run."""

    output: int
    accepted: bool
    attempts_used: int


def rejection_sample(g: BooleanFunction, rng) -> RejectionOutcome:
    """The sampler run literally: up to K = 4 n^2 uniform attempts, and the
    first accepting x wins.  On total failure the output is one more fresh
    uniform draw with accepted = False.  All K attempt draws are taken up
    front, so each call advances the generator by a fixed amount."""
    K = 4 * g.n * g.n
    xs = rng.integers(0, g.size, size=K)
    hits = g.values[xs] == 1
    extra = int(rng.integers(0, g.size))
    if hits.any():
        first = int(np.argmax(hits))
        return RejectionOutcome(int(xs[first]), True, first + 1)
    return RejectionOutcome(extra, False, K)


def test_max_attempts_is_quadratic_in_bits():
    assert max_attempts(2) == 16
    assert max_attempts(6) == 144
    assert max_attempts(10) == 400


def test_exact_distribution_single_accepting_point():
    g = BooleanFunction(2, np.array([1, -1, -1, -1], dtype=np.int8))
    dist = exact_distribution(g)
    # independent geometric-series oracle
    a, K, N = 1 / 4, 16, 4
    tail = (1 - a) ** K
    series = sum((1 - a) ** k * a for k in range(K))
    assert dist[0] == pytest.approx(series / (a * N) + tail / N, abs=1e-15)
    assert dist[0] == pytest.approx(SINGLE_POINT_MASS, abs=1e-12)
    assert np.all(dist[1:] == dist[1])
    assert float(dist.sum()) == pytest.approx(1.0, abs=1e-12)


def test_exact_distribution_all_reject_is_uniform():
    g = BooleanFunction(3, -np.ones(8, dtype=np.int8))
    dist = exact_distribution(g)
    assert np.allclose(dist, 1 / 8)


def test_exact_distribution_all_accept_is_uniform():
    g = BooleanFunction(3, np.ones(8, dtype=np.int8))
    assert np.allclose(exact_distribution(g), 1 / 8)


def test_empirical_matches_exact_law():
    g = BooleanFunction(3, np.array([1, 1, -1, -1, 1, -1, -1, -1],
                                    dtype=np.int8))
    dist = exact_distribution(g)
    rng = make_rng(50, 0)
    counts = np.zeros(8)
    trials = 20000
    for _ in range(trials):
        counts[rejection_sample(g, rng).output] += 1
    from scipy.stats import chisquare

    _, pvalue = chisquare(counts, trials * dist)
    assert pvalue > 1e-3


def test_rejection_outcome_bookkeeping():
    g_accept = BooleanFunction(2, np.ones(4, dtype=np.int8))
    out = rejection_sample(g_accept, make_rng(50, 1))
    assert isinstance(out, RejectionOutcome)
    assert out.accepted and out.attempts_used == 1

    g_reject = BooleanFunction(2, -np.ones(4, dtype=np.int8))
    out = rejection_sample(g_reject, make_rng(50, 2))
    assert not out.accepted
    assert out.attempts_used == max_attempts(2)
    assert 0 <= out.output < 4


def test_rejection_sample_is_seed_deterministic():
    g = BooleanFunction(3, np.array([1, -1, 1, -1, 1, -1, 1, -1],
                                    dtype=np.int8))
    a = rejection_sample(g, make_rng(51, 0))
    b = rejection_sample(g, make_rng(51, 0))
    assert (a.output, a.accepted, a.attempts_used) == \
        (b.output, b.accepted, b.attempts_used)


def test_exact_law_tv_against_conditional_ideal():
    # with a large acceptance fraction the capped law is within the
    # fallback mass (1-a)^K of the ideal conditional-on-accept law
    g = BooleanFunction(3, np.array([1, 1, 1, 1, -1, -1, -1, -1],
                                    dtype=np.int8))
    dist = exact_distribution(g)
    ideal = np.where(g.values == 1, 1 / 4, 0.0)
    tv = 0.5 * float(np.abs(dist - ideal).sum())
    assert tv <= (1 - 0.5) ** max_attempts(3)


# ---------------------------------------------------------------- scores

def test_rhog_signal_beats_target():
    params = DistParams(8, 1.0)
    res = rhog_from_values(params, rhog_values(params, DeviceModel("honest"),
                                               20000, make_rng(52, 0)))
    assert res.target == pytest.approx(1 + params.epsilon ** 2 / 8)
    assert res.n_times_mean >= res.target
    assert res.n_times_mean - res.ci99 > 1.0
    assert res.trials == 20000


def test_rhog_uniform_pair_control_is_flat():
    params = DistParams(8, 1.0)
    res = rhog_from_values(params, rhog_values(params, DeviceModel("honest"),
                                               10000, make_rng(52, 1),
                                               uniform_pairs=True))
    assert res.n_times_mean == pytest.approx(1.0, abs=4 * res.ci99)


def test_rhog_uniform_sampler_control_is_flat():
    params = DistParams(8, 1.0)
    res = rhog_from_values(params, rhog_values(params, DeviceModel("uniform"),
                                               10000, make_rng(52, 2)))
    assert res.n_times_mean == pytest.approx(1.0, abs=4 * res.ci99)


def test_rhog_values_merge_matches_single_call(tmp_path):
    # the rhog command's score is rhog_from_values of its chunks' values in
    # chunk order, chunk i drawing from make_rng(seed, _TAG_RHOG, i)
    params = DistParams(6, 1.0)
    trials = cli._CHUNK + 500
    out = tmp_path / "rhog.json"
    assert cli.main(["rhog", "--n", "6", "--c", "1", "--trials", str(trials),
                     "--seed", "53", "--out", str(out)]) == 0
    whole = json.loads(out.read_text())["results"]
    vals = [rhog_values(params, DeviceModel("honest"), count,
                        make_rng(53, cli._TAG_RHOG, i))
            for i, (_, count) in enumerate(blocks(trials, cli._CHUNK))]
    merged = rhog_from_values(params, np.concatenate(vals))
    assert len(vals) == 2
    assert merged.n_times_mean == whole["n_times_mean"]
    assert merged.ci99 == whole["ci99"]


def test_rhog_probability_lookup_against_direct_sampler():
    # the score is N * P[R_g emits x]; spot-check one pair path by
    # recomputing the probability from the exact law
    f = random_function(4, make_rng(54, 0))
    g = random_function(4, make_rng(54, 1))
    dist = exact_distribution(g)
    spec = wht(f)
    x = int(np.argmax(spec.coeffs ** 2))
    assert 0.0 < dist[x] < 1.0
    assert float(dist.sum()) == pytest.approx(1.0, abs=1e-12)
    # and the law is close (in TV) to what the empirical sampler does
    counts = np.zeros(16)
    rng = make_rng(54, 2)
    for _ in range(4000):
        counts[rejection_sample(g, rng).output] += 1
    emp = counts / 4000
    assert 0.5 * float(np.abs(emp - dist).sum()) < 0.05
