"""End-to-end protocol runs, scoring, collision verdicts, extraction.

The Toeplitz fast path's oracle is the quadratic bit-by-bit multiply;
the challenge stream's oracle is the scalar key derivation and the scalar
splitmix64 words of each key.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certlab.boolfn import BooleanFunction, wht, wht_rows
from certlab.devices import DeviceModel
from certlab.protocol import (
    EXTRACTOR_MARGIN_BITS,
    LengthMismatch,
    ProtocolConfig,
    Verdict,
    collision_verdict,
    index_bits,
    run_protocol,
    run_protocol_arms,
    score_threshold,
    toeplitz_extract,
    transcript_to_dict,
    verify_score,
)
from certlab.rng import GOLDEN, derive64, make_rng, mix64


def toeplitz_extract_naive(
    samples: np.ndarray, extractor_seed: np.ndarray, k: int
) -> np.ndarray:
    """Reference GF(2) Toeplitz multiply: row i of the matrix is
    seed[i : i+m] reversed.  Quadratic; the oracle for the fast path."""
    x = np.asarray(samples, dtype=np.uint8)
    seed = np.asarray(extractor_seed, dtype=np.uint8)
    m = x.size
    out = np.empty(k, dtype=np.uint8)
    xr = x[::-1]
    for i in range(k):
        out[i] = int(np.bitwise_xor.reduce(seed[i:i + m] & xr)) & 1
    return out


def challenge_key(seed: int, i: int) -> int:
    """64-bit seed of challenge i: tag 1 (the challenges) and index i."""
    return derive64(seed, 1, i)


def challenge_function(seed: int, i: int, n: int) -> BooleanFunction:
    """Challenge i's function, one scalar splitmix64 word at a time: word j
    is mix64(key + (j+1) GOLDEN), and sign x is -1 where bit x mod 64 of
    word x // 64 (LSB first) is set."""
    key = challenge_key(seed, i)
    words = [mix64(key + (j + 1) * GOLDEN) for j in range(max(1, (1 << n) // 64))]
    signs = [-1 if words[x // 64] >> (x % 64) & 1 else 1 for x in range(1 << n)]
    return BooleanFunction(n, np.array(signs, dtype=np.int8))


def small_config(**kw) -> ProtocolConfig:
    base = dict(n=6, T=2048, b=1.5, eps_hog=0.5, seed=31337)
    base.update(kw)
    return ProtocolConfig(**base)


# ---------------------------------------------------------------- challenges

def test_challenge_keys_match_scalar_derivation():
    cfg = small_config()
    tr = run_protocol(cfg, DeviceModel("honest"), None)
    for i in (0, 1, 100, cfg.T - 1):
        assert int(tr.challenge_keys[i]) == challenge_key(cfg.seed, i)


def test_challenge_function_regenerates_deterministically():
    f1 = challenge_function(9, 4, 6)
    f2 = challenge_function(9, 4, 6)
    f3 = challenge_function(9, 5, 6)
    assert f1 == f2
    assert f1 != f3
    assert f1.n == 6


def test_challenge_functions_look_balanced():
    # mean of all sign values over 200 challenges ~ N(0, 1/sqrt(200 * 64))
    tot = 0
    for i in range(200):
        tot += int(challenge_function(11, i, 6).values.sum())
    assert abs(tot) < 5 * (200 * 64) ** 0.5


# ---------------------------------------------------------------- scoring

def test_score_threshold_formula():
    cfg = small_config()
    assert score_threshold(cfg) == pytest.approx(
        (1.5 - 0.25) * cfg.T / 64
    )


def test_honest_passes_uniform_fails():
    cfg = small_config()
    tr_h = run_protocol(cfg, DeviceModel("honest"), None)
    tr_u = run_protocol(cfg, DeviceModel("uniform"), None)
    assert tr_h.score_pass
    assert not tr_u.score_pass
    assert verify_score(tr_h, cfg) is True
    assert verify_score(tr_u, cfg) is False


def test_verify_score_rejects_tampered_transcript():
    cfg = small_config()
    tr = run_protocol(cfg, DeviceModel("honest"), None)
    tr.probs[0] += 0.5  # inflate one per-challenge probability
    with pytest.raises(ValueError):
        verify_score(tr, cfg)


def test_transcript_probs_match_spectra():
    cfg = small_config(T=64)
    tr = run_protocol(cfg, DeviceModel("honest"), None)
    for i in (0, 13, 63):
        f = challenge_function(cfg.seed, i, cfg.n)
        spec = wht(f)
        assert tr.probs[i] == pytest.approx(
            float(spec.coeffs[tr.samples[i]] ** 2), abs=1e-12
        )


def test_run_protocol_is_deterministic():
    cfg = small_config()
    ta = run_protocol(cfg, DeviceModel("biased", 0.5), "argmax")
    tb = run_protocol(cfg, DeviceModel("biased", 0.5), "argmax")
    assert transcript_to_dict(ta) == transcript_to_dict(tb)
    for field in ("challenge_keys", "samples", "probs"):
        assert np.array_equal(getattr(ta, field), getattr(tb, field))


# ---------------------------------------------------------------- collisions

def test_collision_verdict_bands():
    # mu = 1000, eps = 0.1: UniformLike below 1010, QuantumLike above 1025
    assert collision_verdict(1009, 64000, 64, 0.1) is Verdict.UNIFORM_LIKE
    assert collision_verdict(1015, 64000, 64, 0.1) is Verdict.INCONCLUSIVE
    assert collision_verdict(1026, 64000, 64, 0.1) is Verdict.QUANTUM_LIKE


def test_collision_verdict_wide_eps_keeps_bands_ordered():
    # eps = 0.5 swaps the raw bars; the verdict must keep lo <= hi
    mu = 1000
    assert collision_verdict(1100, 64000, 64, 0.5) is Verdict.UNIFORM_LIKE
    assert collision_verdict(1200, 64000, 64, 0.5) is Verdict.INCONCLUSIVE
    assert collision_verdict(1300, 64000, 64, 0.5) is Verdict.QUANTUM_LIKE
    assert mu * (1 + 0.5 / 4) < mu * (1 + 0.5 ** 2)


def test_argmax_claim_collides_fully():
    cfg = small_config()
    tr = run_protocol(cfg, DeviceModel("argmax"), "argmax")
    assert tr.V == cfg.T
    assert tr.entropy_verdict is Verdict.QUANTUM_LIKE


def test_uniform_against_argmax_claim_reads_uniform():
    cfg = small_config(T=1 << 16)
    tr = run_protocol(cfg, DeviceModel("uniform"), "argmax")
    assert tr.entropy_verdict is Verdict.UNIFORM_LIKE


def test_honest_against_argmax_claim_reads_quantum_like():
    # n = 6, T = 4096, seed 0: the honest arm collides with the claimed
    # argmax far more often than the uniform arm beside it
    cfg = small_config(T=4096, seed=0)
    th, tu = run_protocol_arms(cfg, [(DeviceModel("honest"), "argmax"),
                                     (DeviceModel("uniform"), "argmax")])
    assert th.entropy_verdict is Verdict.QUANTUM_LIKE
    assert tu.entropy_verdict is not Verdict.QUANTUM_LIKE


def test_no_claim_means_no_collision_count():
    cfg = small_config(T=128)
    tr = run_protocol(cfg, DeviceModel("honest"), None)
    assert tr.V is None
    assert tr.entropy_verdict is None


def argmax_claim(rows):
    """The argmax claim, computed apart from certlab: first argmax of W^2."""
    w = rows.astype(np.int64)
    return np.argmax(w * w, axis=1)


def oracle_claims(cfg):
    """argmax_claim over the challenges regenerated one by one."""
    tables = [challenge_function(cfg.seed, i, cfg.n).values for i in range(cfg.T)]
    return argmax_claim(wht_rows(np.stack(tables)))


def test_argmax_claim_counts_against_oracle():
    cfg = small_config(T=64)
    claims = oracle_claims(cfg)
    tr = run_protocol(cfg, DeviceModel("argmax"), "argmax")
    assert tr.V == cfg.T and np.array_equal(tr.samples, claims)
    for device in (DeviceModel("honest"), DeviceModel("biased", 0.5)):
        tr = run_protocol(cfg, device, "argmax")
        assert tr.V == int(np.count_nonzero(tr.samples == claims))


@pytest.mark.parametrize("claim", ["maxarg", argmax_claim])
def test_unknown_claim_raises(claim):
    with pytest.raises(ValueError, match="unknown claim"):
        run_protocol(small_config(T=8), DeviceModel("honest"), claim)
    with pytest.raises(ValueError, match="unknown claim"):
        run_protocol_arms(small_config(T=8), [(DeviceModel("honest"), None),
                                              (DeviceModel("honest"), claim)])


def assert_same_transcript(got, want):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        else:
            assert a == b, field.name


@pytest.mark.parametrize("i", range(3))
def test_arms_equal_lone_runs(i):
    # gate 10's seeds and arms, plus biased and honest arms with the claim;
    # T spans three whole blocks and one partial one
    cfg = ProtocolConfig(n=6, T=3 * 4096 + 5, b=1.5, eps_hog=0.5,
                         seed=derive64(20260823, 19, i))
    arms = [(DeviceModel("honest"), None), (DeviceModel("uniform"), "argmax"),
            (DeviceModel("argmax"), "argmax"), (DeviceModel("biased", 0.5), "argmax"),
            (DeviceModel("honest"), "argmax")]
    got = run_protocol_arms(cfg, arms)
    assert len(got) == len(arms)
    claims = oracle_claims(cfg)
    for tr, (device, claim) in zip(got, arms):
        assert_same_transcript(tr, run_protocol(cfg, device, claim))
        if claim is not None:
            assert tr.V == int(np.count_nonzero(tr.samples == claims))


# ---------------------------------------------------------------- extraction

def test_index_bits_lsb_first():
    out = index_bits(np.array([3, 1]), 2)
    assert out.tolist() == [1, 1, 1, 0]
    # past one byte (uint16 at n = 12, uint32 at n = 24) against the shifts
    for n in (8, 9, 12, 16, 17, 24):
        s = make_rng(81, n).integers(0, 1 << n, size=100)
        want = [(int(x) >> i) & 1 for x in s for i in range(n)]
        got = index_bits(s, n)
        assert got.dtype == np.uint8 and got.tolist() == want


@given(st.integers(min_value=1, max_value=400),
       st.integers(min_value=0, max_value=64),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_toeplitz_fast_matches_naive(m, k, seed):
    k = min(k, m)
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=m, dtype=np.uint8)
    sd = rng.integers(0, 2, size=m + k - 1, dtype=np.uint8) if k else \
        np.zeros(0, dtype=np.uint8)
    if k == 0:
        assert toeplitz_extract(x, np.zeros(m - 1, dtype=np.uint8), 0).size == 0
        return
    assert np.array_equal(toeplitz_extract(x, sd, k),
                          toeplitz_extract_naive(x, sd, k))


# m off the 64-bit word size; k = 255 and 256 reach windows at byte offsets
# up to 31, most of them not 8-byte aligned; k = m is the square matrix
@pytest.mark.parametrize("m", [1, 7, 63, 64, 65, 257, 319, 1000, 4099])
@pytest.mark.parametrize("k", [1, 8, 255, 256, "m"])
def test_toeplitz_word_fold_matches_naive(m, k):
    k = m if k == "m" else min(k, m)
    rng = np.random.default_rng([m, k])
    x = rng.integers(0, 2, size=m, dtype=np.uint8)
    sd = rng.integers(0, 2, size=m + k - 1, dtype=np.uint8)
    assert np.array_equal(toeplitz_extract(x, sd, k),
                          toeplitz_extract_naive(x, sd, k))


def test_toeplitz_is_gf2_linear():
    rng = np.random.default_rng(99)
    a = rng.integers(0, 2, size=300, dtype=np.uint8)
    b = rng.integers(0, 2, size=300, dtype=np.uint8)
    sd = rng.integers(0, 2, size=300 + 48 - 1, dtype=np.uint8)
    assert np.array_equal(
        toeplitz_extract(a ^ b, sd, 48),
        toeplitz_extract(a, sd, 48) ^ toeplitz_extract(b, sd, 48),
    )


def test_toeplitz_all_ones_seed_is_parity():
    x = np.array([1, 0, 1, 1, 0, 1], dtype=np.uint8)
    out = toeplitz_extract(x, np.ones(6, dtype=np.uint8), 1)
    assert out[0] == int(x.sum()) % 2


def test_toeplitz_seed_length_enforced():
    x = np.zeros(10, dtype=np.uint8)
    with pytest.raises(LengthMismatch):
        toeplitz_extract(x, np.zeros(10, dtype=np.uint8), 4)  # needs 13
    with pytest.raises(LengthMismatch):
        toeplitz_extract(x, np.zeros(30, dtype=np.uint8), 11)  # k > m


def test_extracted_length_respects_entropy_budget():
    cfg = small_config(T=4096, extractor_output_bits=256)
    tr_h = run_protocol(cfg, DeviceModel("honest"), None)
    assert len(tr_h.extracted_bits) == 256
    assert set(tr_h.extracted_bits) <= {"0", "1"}
    # a deterministic device certifies nothing
    tr_a = run_protocol(cfg, DeviceModel("argmax"), None)
    assert tr_a.min_entropy_total == pytest.approx(0.0, abs=1e-9)
    assert tr_a.extracted_bits == ""
    # the budget rule: never more than floor(H) - margin
    assert 256 <= tr_h.min_entropy_total - EXTRACTOR_MARGIN_BITS


def test_small_entropy_budget_truncates_output():
    cfg = small_config(T=64, extractor_output_bits=4096)
    tr = run_protocol(cfg, DeviceModel("honest"), None)
    budget = int(tr.min_entropy_total) - EXTRACTOR_MARGIN_BITS
    expected = max(0, min(4096, budget, cfg.T * cfg.n))
    assert len(tr.extracted_bits) == expected


# ---------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(n=6, T=0, b=1.5, eps_hog=0.5)
    for b in (0.9, 1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            ProtocolConfig(n=6, T=16, b=b, eps_hog=0.5)
    with pytest.raises(ValueError):
        ProtocolConfig(n=6, T=16, b=1.5, eps_hog=0.0)
    cfg = ProtocolConfig(n=6, T=16, b=1.5, eps_hog=0.5)
    assert cfg.delta == pytest.approx(0.25)
    assert cfg.size == 64


def test_transcript_to_dict_is_json_ready():
    import json

    cfg = small_config(T=32)
    d = transcript_to_dict(run_protocol(cfg, DeviceModel("honest"), "argmax"))
    text = json.dumps(d, sort_keys=True)
    assert "score_pass" in d and "extracted_bits" in d
    assert json.loads(text)["config"]["T"] == 32
    # the per-challenge records stay in the arrays; the CLI writes them
    assert "challenges" not in d
