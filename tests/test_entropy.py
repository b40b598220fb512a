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

from certlab import entropy
from certlab.boolfn import character_values, random_function, wht
from certlab.devices import DeviceModel, argmax_index, parse_device
from certlab.entropy import (
    BudgetZero,
    EmptyDistribution,
    OddRoot,
    derandomize,
    perturb_make_light,
    rejsamp,
)
from certlab.rng import derive64, make_rng
from exact_laws import (
    coupling_rate_disjoint,
    degree_ratio,
    exact_coupling_rate,
    min_entropy,
    statistical_distance,
)
from rates import coupling_disagreement

# closed form at N=64: C(36, 4) / C(32, 4) = 58905 / 35960
DEGREE_RATIO_64 = 58905 / 35960


# ---------------------------------------------------------------- distributions

def test_min_entropy_values():
    assert min_entropy(np.eye(8)[3]) == 0.0
    assert min_entropy(np.full(256, 1 / 256)) == pytest.approx(8.0)
    assert min_entropy(np.array([0.98, 0.02])) == pytest.approx(-math.log2(0.98))


def test_statistical_distance_examples():
    d1 = np.array([2 / 3, 1 / 3, 0.0])
    d2 = np.array([2 / 3, 0.0, 1 / 3])
    assert statistical_distance(d1, d2) == pytest.approx(1 / 3)
    assert statistical_distance(d1, d1) == 0.0


# ---------------------------------------------------------------- rejsamp

def lone_walk(probs, seed):
    """The one-law walk that rejsamp's stacked walk must reproduce: chunks
    of xs then ys from make_rng(seed, 0x72656A), the first x with y below
    its mass."""
    probs = np.asarray(probs, dtype=np.float64)
    size = probs.size
    g = make_rng(seed, 0x72656A)
    chunk = min(max(64, 2 * size), 1 << 20)
    while True:
        xs = g.integers(0, size, size=chunk)
        ys = g.random(chunk)
        hits = ys < probs[xs]
        if hits.any():
            return int(xs[int(np.argmax(hits))])


def law_stack(k, size, rng, shift):
    """k laws on 0..size-1, cycling through three kinds: a law with zero
    entries, a point mass, and a law of mass 1e-4 on each support point
    (whose walk runs many chunks past the others' first hits)."""
    laws = np.zeros((k, size))
    for i in range(k):
        kind = (i + shift) % 3
        support = rng.random(size) < 0.5
        support[rng.integers(size)] = True
        if kind == 0:
            w = rng.random(size) * support
            laws[i] = w / w.sum()
        elif kind == 1:
            laws[i, rng.integers(size)] = 1.0
        else:
            laws[i] = 1e-4 * support
    return laws


@pytest.mark.parametrize("size", [2, 3, 16, 100])
@pytest.mark.parametrize("k", [1, 2, 20])
def test_rejsamp_stack_matches_lone_walks(k, size):
    # one seed a call, then blocks of 2 and 7 seeds, each seed with its
    # own k laws; every law gets its lone walk's index on its seed
    rng = make_rng(67, k, size)
    shift = 0
    for seeds_n in (1, 1, 1, 1, 1, 1, 2, 7):
        laws, seeds = [], []
        for _ in range(seeds_n):
            laws.append(law_stack(k, size, rng, shift))
            seeds.append(int(rng.integers(0, 1 << 63)))
            shift += 1
        got = rejsamp(seeds, np.stack(laws), np.stack(laws))
        assert got.shape == (seeds_n, k)
        assert got.tolist() == [[lone_walk(law, seed) for law in stack]
                                for seed, stack in zip(seeds, laws)]


@pytest.mark.parametrize("size", [2, 16, 100])
def test_rejsamp_bounds_decide_as_the_exact_walk(size):
    # bounds lo <= law <= hi: a law's answer is its lone walk's index or -1
    # (undecided), and a law between equal bounds is always decided
    rng = make_rng(69, size)
    undecided = 0
    for _ in range(5):
        laws = np.stack([law_stack(6, size, rng, s) for s in range(4)])
        lo, hi = laws * rng.random(laws.shape), laws + 0.1 * rng.random(laws.shape)
        exact = rng.random((4, 6)) < 0.3
        lo[exact], hi[exact] = laws[exact], laws[exact]
        seeds = rng.integers(0, 1 << 63, size=4).tolist()
        got = rejsamp(seeds, lo, hi)
        for s, seed in enumerate(seeds):
            for i, law in enumerate(laws[s]):
                assert got[s, i] in (-1, lone_walk(law, seed))
        assert np.all(got[exact] >= 0)
        undecided += int(np.count_nonzero(got < 0))
    assert undecided > 0


def test_rejsamp_is_a_pure_function_of_seed():
    law = np.array([[[0.2, 0.5, 0.3]]])
    assert rejsamp([777], law, law)[0, 0] == rejsamp([777], law, law)[0, 0]
    outs = {int(rejsamp([s], law, law)[0, 0]) for s in range(30)}
    assert outs.issubset({0, 1, 2}) and len(outs) > 1


def test_rejsamp_point_mass_always_returns_it():
    law = np.broadcast_to(np.eye(16)[11], (20, 1, 16))
    assert np.all(rejsamp(list(range(20)), law, law) == 11)


def test_rejsamp_rejects_a_law_without_mass():
    with pytest.raises(EmptyDistribution):
        law = np.array([[[0.5, 0.5], [0.0, 0.0]]])
        rejsamp([1], law, law)
    # a massless law of one seed inside a block of several
    laws = np.full((3, 2, 2), 0.5)
    laws[1, 1] = 0.0
    with pytest.raises(EmptyDistribution):
        rejsamp([1, 2, 3], laws, laws)


def test_rejsamp_marginal_matches_distribution():
    d = np.array([0.1, 0.2, 0.3, 0.4])
    rng = make_rng(60, 0)
    seeds = rng.integers(0, 1 << 63, size=20000)
    counts = np.zeros(4)
    for s in seeds:
        counts[rejsamp([int(s)], d[None, None], d[None, None])[0, 0]] += 1
    from scipy.stats import chisquare

    _, pvalue = chisquare(counts, 20000 * d)
    assert pvalue > 1e-3


# ---------------------------------------------------------------- coupling

def test_disjoint_formula_values():
    assert coupling_rate_disjoint(1 / 3) == pytest.approx(0.5)
    assert coupling_rate_disjoint(0.0) == 0.0
    assert coupling_rate_disjoint(1.0) == 1.0


def test_exact_rate_equals_disjoint_formula_when_disjoint():
    d1 = np.array([2 / 3, 1 / 3, 0.0])
    d2 = np.array([2 / 3, 0.0, 1 / 3])
    assert exact_coupling_rate(d1, d2) == pytest.approx(
        coupling_rate_disjoint(1 / 3), abs=1e-12
    )


def test_exact_rate_overlap_counterexample():
    # (1, 0) vs (2/3, 1/3): delta = 1/3 but the difference supports
    # overlap through the shared acceptance region, so the disagreement
    # rate is 1/3, not 2 delta/(1+delta) = 1/2
    d1 = np.array([1.0, 0.0])
    d2 = np.array([2 / 3, 1 / 3])
    assert exact_coupling_rate(d1, d2) == pytest.approx(1 / 3, abs=1e-12)
    assert exact_coupling_rate(d1, d2) < coupling_rate_disjoint(1 / 3)


def test_identical_distributions_never_disagree():
    d = np.array([0.4, 0.6])
    res = coupling_disagreement(d, d, 500, make_rng(61, 0))
    assert res.rate == 0.0
    assert res.delta == 0.0


def test_empirical_coupling_matches_exact_law():
    d1 = np.array([1.0, 0.0])
    d2 = np.array([2 / 3, 1 / 3])
    res = coupling_disagreement(d1, d2, 4000, make_rng(61, 1))
    assert res.exact_rate == pytest.approx(1 / 3, abs=1e-12)
    assert res.rate == pytest.approx(res.exact_rate, abs=res.ci99 + 0.01)


def test_coupling_counts_the_two_lone_walks_of_each_seed():
    d1 = np.array([2 / 3, 1 / 3, 0.0])
    d2 = np.array([2 / 3, 0.0, 1 / 3])
    res = coupling_disagreement(d1, d2, 2000, make_rng(61, 3))
    seeds = make_rng(61, 3).integers(0, 1 << 63, size=2000)
    bad = sum(lone_walk(d1, int(s)) != lone_walk(d2, int(s))
              for s in seeds)
    assert res.rate == bad / 2000


def test_coupling_result_ignores_the_seed_block(monkeypatch):
    d1 = np.array([0.5, 0.3, 0.2, 0.0])
    d2 = np.array([0.4, 0.0, 0.3, 0.3])
    assert entropy.seed_block(2, 4, 0) > 300  # the default: one block
    want = coupling_disagreement(d1, d2, 300, make_rng(61, 4))
    for size in (1, 7):
        monkeypatch.setattr(entropy, "seed_block", lambda k, n, budget, size=size: size)
        assert coupling_disagreement(d1, d2, 300, make_rng(61, 4)) == want


def test_coupling_result_reports_both_references():
    d1 = np.array([0.9, 0.1, 0.0])
    d2 = np.array([0.9, 0.0, 0.1])
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
    with pytest.raises(ValueError, match="not an integer"):
        degree_ratio(8)  # sqrt(8) not an integer


# ---------------------------------------------------------------- derandomizer

def test_derandomize_same_seed_same_output():
    device = DeviceModel("biased", 0.98)
    spec = wht(random_function(4, make_rng(63, 0)))
    a, b = derandomize(device, spec, [derive64(63, 1)], 5000,
                       [[make_rng(63, 2), make_rng(63, 3)]])[0]
    assert a == b


def test_derandomize_budget_must_be_positive():
    with pytest.raises(BudgetZero):
        derandomize(DeviceModel("honest"),
                    wht(random_function(4, make_rng(63, 4))),
                    [1], 0, [[make_rng(63, 5)]])


# (label, seed, budget, shared): the first nine are the original cases;
# then every device kind at p in {0, 0.5, 0.98, 1}, budgets of each
# residue mod 4 (Philox gives words four at a time), distinct generators
# and one generator shared by every run
DERANDOMIZE_CASES = (
    [pytest.param(label, seed, 10000, False, id=f"{label}-{seed}")
     for label in ("argmax", "biased:0.98", "honest") for seed in (0, 1, 2)]
    + [pytest.param(label, 3, budget, shared,
                    id=f"{label}-b{budget}-{'shared' if shared else 'distinct'}")
       for label in ("honest", "uniform", "argmax", "biased:0", "biased:0.5",
                     "biased:0.98", "biased:1")
       for budget in (1000, 1001, 1002, 1003) for shared in (False, True)])


@pytest.mark.parametrize("label, seed, budget, shared", DERANDOMIZE_CASES)
def test_derandomize_matches_one_call_per_generator(label, seed, budget, shared):
    # the form derandomize replaced: each generator's draws become a law
    # (counts over their total) that walks its seed's stream on its own,
    # the generators drawn run after run; a squeezed call must give the
    # same indices and leave every generator in the same state
    device = parse_device(label)
    spec = wht(random_function(4, make_rng(68, seed)))
    seeds = [derive64(68, 1, seed)]
    seeds += [derive64(68, 1, seed, budget, j) for j in range(4)]

    def generators():
        if shared:
            g = make_rng(68, 2, seed, budget)
            return [[g, g] for _ in seeds]
        return [[make_rng(68, 2, seed, *tag), make_rng(68, 3, seed, *tag)]
                for tag in [()] + [(budget, j) for j in range(4)]]

    rngs, refs = generators(), generators()
    got = derandomize(device, spec, seeds, budget, rngs)
    assert got.shape == (len(seeds), 2)
    for s, r in enumerate(seeds):
        for j, g in enumerate(refs[s]):
            counts = np.bincount(device.sample_many(spec, budget, g), minlength=16)
            law = counts.astype(np.float64) / float(counts.sum())
            assert np.array_equal(counts / budget, law)
            assert got[s, j] == lone_walk(law, r)
    for run, ref in zip(rngs, refs):
        for g, h in zip(run, ref):
            assert repr(g.bit_generator.state) == repr(h.bit_generator.state)
            assert g.random() == h.random()


def test_fully_biased_device_derandomizes_to_its_argmax():
    # p = 1 leaves no answer to the Fourier search: the empirical law is a
    # point mass at the argmax, which every shared stream must return
    spec = wht(random_function(4, make_rng(65, 0)))
    z = argmax_index(spec)
    rng = make_rng(65, 1)
    for j in range(300):
        out = derandomize(DeviceModel("biased", 1.0), spec,
                          [derive64(65, 2, j)], 100, [[rng]])
        assert out[0, 0] == z


def test_derandomize_marginal_tracks_device():
    # over random seeds the replayed output has the device's distribution
    device = DeviceModel("uniform")
    spec = wht(random_function(3, make_rng(64, 0)))
    rng = make_rng(64, 1)
    counts = np.zeros(8)
    for j in range(4000):
        counts[derandomize(device, spec, [derive64(64, 2, j)], 200, [[rng]])[0, 0]] += 1
    from scipy.stats import chisquare

    _, pvalue = chisquare(counts)
    assert pvalue > 1e-3
