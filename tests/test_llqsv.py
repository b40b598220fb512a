"""Long-list instances, serialization, and distinguishers.

The n=2 fourth-moment value 0.625 is recomputed here by exhaustive
enumeration over all 16 sign tables — that enumeration is the oracle the
Fourier-case sample statistic is compared against.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certlab.boolfn import BooleanFunction, coefficient_at, fourth_moment, wht
from certlab.llqsv import (
    CASES,
    LLQ1_MAGIC,
    BadOffset,
    BalancedString,
    ListOracle,
    ScoreSumDistinguisher,
    advantage,
    agreement_weight,
    balance_instance,
    constant_accept,
    from_llq1,
    llqsv_instance,
    max_coeff_tail,
    s_only_parity,
    sample_u_d,
    stream_llqsv,
    to_llq1,
)
from certlab.rng import make_rng


def exhaustive_fourth_moment_n2() -> float:
    """Mean of sum_z fhat(z)^4 over all 16 two-bit sign tables."""
    total = 0.0
    for signs in itertools.product([1, -1], repeat=4):
        f = BooleanFunction(2, np.array(signs, dtype=np.int8))
        total += fourth_moment(wht(f))
    return total / 16


def test_exhaustive_fourth_moment_oracle():
    # (3N - 2) / N^2 at N = 4
    assert exhaustive_fourth_moment_n2() == pytest.approx(0.625, abs=1e-12)


# ---------------------------------------------------------------- instances

def test_cases_are_fixed():
    assert CASES == ("uniform", "fourier")


def test_instance_shapes_and_stream_agreement():
    inst = llqsv_instance(4, 64, "fourier", make_rng(80, 0))
    assert len(inst) == 64
    assert inst.case_label == "fourier"
    streamed = list(stream_llqsv(4, 64, "fourier", make_rng(80, 0)))
    assert len(streamed) == 64
    f0, s0 = inst.entries[0]
    g0, t0 = streamed[0]
    assert f0 == g0 and s0 == t0


def test_fourier_case_mean_tracks_fourth_moment():
    inst = llqsv_instance(2, 5000, "fourier", make_rng(80, 1))
    stat = float(np.mean([coefficient_at(f, s) ** 2 for f, s in inst.entries]))
    assert stat == pytest.approx(exhaustive_fourth_moment_n2(), abs=0.02)


def test_uniform_case_mean_is_one_over_n():
    inst = llqsv_instance(4, 5000, "uniform", make_rng(80, 2))
    stat = float(np.mean([coefficient_at(f, s) ** 2 for f, s in inst.entries]))
    assert stat == pytest.approx(1 / 16, abs=0.01)


def test_samples_stay_in_range():
    inst = llqsv_instance(5, 200, "fourier", make_rng(80, 3))
    assert all(0 <= s < 32 for _, s in inst.entries)


# ---------------------------------------------------------------- oracle access

def test_list_oracle_counts_reads():
    inst = llqsv_instance(3, 10, "uniform", make_rng(81, 0))
    orc = ListOracle(inst)
    assert orc.reads == 0
    f = orc.read_f(2)
    s = orc.read_s(2)
    orc.read_f(5)
    assert orc.reads == 3
    assert f == inst.entries[2][0]
    assert s == inst.entries[2][1]


# ---------------------------------------------------------------- serialization

@given(st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=30))
@settings(max_examples=25, deadline=None)
def test_llq1_roundtrip(n, t):
    inst = llqsv_instance(n, t, "fourier", make_rng(82, n * 31 + t))
    blob = to_llq1(inst)
    back = from_llq1(blob, case_label="fourier")
    assert len(back) == t
    assert all(
        bf == f and bs == s
        for (f, s), (bf, bs) in zip(inst.entries, back.entries)
    )


@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=4),
       st.sampled_from(CASES), st.data())
@settings(max_examples=300, deadline=None)
def test_llq1_accepts_only_canonical_bytes(n, t, case, data):
    # a parse either fails with ValueError or re-encodes to the same bytes
    blob = to_llq1(llqsv_instance(n, t, case, make_rng(83, n * 31 + t)))
    assert to_llq1(from_llq1(blob)) == blob
    pos = data.draw(st.integers(0, len(blob) - 1))
    kind = data.draw(st.sampled_from(["replace", "insert", "delete"]))
    if kind == "delete":
        bad = blob[:pos] + blob[pos + 1:]
    else:
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != blob[pos]))
        bad = blob[:pos] + bytes([byte]) + blob[pos + (kind == "replace"):]
    try:
        back = from_llq1(bad)
    except ValueError:
        return
    assert to_llq1(back) == bad


def test_llq1_rejects_noncanonical_headers_and_records():
    blob = to_llq1(llqsv_instance(2, 1, "uniform", make_rng(83, 0)))
    n_is_1 = blob[:4] + bytes([1]) + blob[5:]           # record still says n=2
    big_s = blob[:-4] + (4).to_bytes(4, "little")        # s = N
    empty_with_n = LLQ1_MAGIC + bytes([2, 0, 0, 0, 0, 0, 0, 0])
    huge_t = blob[:8] + (1 << 31).to_bytes(4, "little") + blob[12:]
    for bad in (n_is_1, big_s, empty_with_n, huge_t):
        with pytest.raises(ValueError):
            from_llq1(bad)


def test_llq1_header_layout():
    inst = llqsv_instance(3, 2, "uniform", make_rng(82, 0))
    blob = to_llq1(inst)
    assert blob[:4] == LLQ1_MAGIC
    import struct

    n, t = struct.unpack("<II", blob[4:12])
    assert (n, t) == (3, 2)


def test_llq1_rejects_trailing_garbage():
    inst = llqsv_instance(3, 2, "uniform", make_rng(82, 1))
    with pytest.raises(ValueError):
        from_llq1(to_llq1(inst) + b"\x00")
    with pytest.raises(ValueError):
        from_llq1(b"XXXX" + to_llq1(inst)[4:])


# ---------------------------------------------------------------- balance strings

def test_sample_u_d_hits_exact_weights():
    weights = {sample_u_d(64, 4, make_rng(83, i)).weight() for i in range(40)}
    assert weights == {28, 36}


def test_balanced_string_validates_weight():
    with pytest.raises(ValueError):
        BalancedString(64, np.zeros(8, dtype=np.uint8), 4)  # weight 0


def test_sample_u_d_validates_arguments():
    with pytest.raises(BadOffset):
        sample_u_d(63, 4, make_rng(83, 99))  # odd N
    with pytest.raises(BadOffset):
        sample_u_d(64, 40, make_rng(83, 99))  # d > N/2


def test_balance_instance_cases():
    strings = balance_instance([0, 4, 4], 64, make_rng(83, 100))
    assert strings[0].weight() == 32
    assert strings[1].weight() in (28, 36)
    assert strings[2].weight() in (28, 36)


def test_unpacked_matches_weight():
    s = sample_u_d(64, 4, make_rng(83, 102))
    assert int(s.unpacked().sum()) == s.weight()


# ---------------------------------------------------------------- distinguishers

def test_agreement_weight_identity():
    # weight of agreement with chi_s minus N/2 equals N fhat(s) / 2
    from certlab.boolfn import random_function

    f = random_function(5, make_rng(84, 0))
    spec = wht(f)
    for s in (0, 7, 31):
        assert agreement_weight(f, s) - 16 == spec.scaled[s] / 2


def test_score_sum_distinguisher_separates_cases():
    res = advantage(ScoreSumDistinguisher(), 6, 1000, 10, make_rng(84, 1))
    assert res.advantage >= 0.9
    assert res.accept_fourier > res.accept_uniform


def test_constant_distinguisher_has_no_advantage():
    res = advantage(constant_accept, 4, 100, 8, make_rng(84, 2))
    assert res.advantage == 0.0


def test_s_only_distinguisher_is_blind():
    # the s marginal is exactly uniform in both cases, so any s-only rule
    # has zero advantage in law
    res = advantage(s_only_parity, 6, 500, 20, make_rng(84, 3))
    assert abs(res.advantage) <= res.ci99 + 0.05


def test_advantage_reports_both_acceptance_rates():
    res = advantage(constant_accept, 4, 50, 4, make_rng(84, 4))
    assert res.accept_fourier == 1.0
    assert res.accept_uniform == 1.0
    assert res.trials == 4


# ---------------------------------------------------------------- tail bound

def test_max_coeff_tail_respects_bound():
    res = max_coeff_tail(8, 0.35, 200, make_rng(85, 0))
    assert 0.0 <= res.rate <= 1.0
    assert res.rate <= res.bound + res.ci99
    assert res.trials == 200
