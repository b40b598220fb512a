"""Output checks for the benchmark workloads, written apart from certlab.

Nothing here imports certlab.  Each check returns a list of problems (empty
when the output is correct) and never raises on bad output, so a wrong
answer is counted as a failed job rather than ending the run.

The checks recompute what they can from documented definitions: the
splitmix64 challenge derivation of a protocol transcript, the exact
finite-N law of the band rates, the LLQ1 layout and the fourier-case
marginal statistic.  Where no closed form exists (rhog, derandomize) they
apply the command's documented contract.
"""

from __future__ import annotations

import json
import math
import struct
from fractions import Fraction
from functools import lru_cache

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive64(seed: int, *tags: int) -> int:
    k = seed & MASK64
    for t in tags:
        k = mix64(k + GOLDEN + t)
    return k


def sign_table(key: int, n: int) -> list[int]:
    """Challenge signs: bits of mix64(key + (j+1) GOLDEN), LSB-first, 0 -> +1."""
    size = 1 << n
    bits = []
    for j in range(max(1, size // 64)):
        word = mix64(key + (j + 1) * GOLDEN)
        bits.extend((word >> b) & 1 for b in range(64))
    return [1 - 2 * b for b in bits[:size]]


def coefficient(table: list[int], s: int) -> Fraction:
    """fhat(s) = (1/N) sum_x f(x) (-1)^{popcount(s & x)}, exactly."""
    total = sum(v if bin(x & s).count("1") % 2 == 0 else -v
                for x, v in enumerate(table))
    return Fraction(total, len(table))


@lru_cache(maxsize=None)
def band_law(n: int) -> tuple[float, float]:
    """Exact honest-sampler (p_b, p_light4) at N = 2^n.

    By symmetry p = sum over w = 2k - N of (w^2/N) C(N, k) / 2^N, with
    w^2 <= N for p_b and w^2 <= 4N for p_light4.
    """
    size = 1 << n
    light = light4 = Fraction(0)
    for k in range(size + 1):
        w = 2 * k - size
        if w * w > 4 * size:
            continue
        term = Fraction(w * w * math.comb(size, k), size << size)
        light4 += term
        if w * w <= size:
            light += term
    return float(light), float(light4)


def _json(blob: bytes, problems: list):
    try:
        return json.loads(blob)
    except ValueError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None


def _config(doc, want: dict, problems: list) -> None:
    got = doc.get("config", {})
    for k, v in want.items():
        if got.get(k) != v:
            problems.append(f"config {k} = {got.get(k)!r}, expected {v!r}")


def check_protocol(blob: bytes, seed: int, n: int, T: int, spot: int = 16) -> list:
    """Honest device with the argmax claim: score and collision tests pass,
    256 bits are extracted, and `spot` challenges match an independent
    re-derivation of key and f_i(s_i)^2."""
    problems: list = []
    doc = _json(blob, problems)
    if doc is None:
        return problems
    res = doc.get("results", {})
    _config(doc, {"n": n, "t": T, "seed": seed}, problems)
    ch = res.get("challenges", [])
    if len(ch) != T:
        return problems + [f"{len(ch)} challenges, expected {T}"]
    S = math.fsum(c["p"] for c in ch)
    if abs(S - res.get("S", -1.0)) > 1e-6:
        problems.append(f"S = {res.get('S')} but the entries sum to {S}")
    size = 1 << n
    b, eps = res["config"]["b"], res["config"]["eps_hog"]
    bar = (b - eps / 2.0) * T / size
    if res.get("score_pass") is not True or not S >= bar:
        problems.append(f"honest score S = {S} misses the bar {bar}")
    if res.get("entropy_verdict") != "QuantumLike":
        problems.append(f"collision verdict {res.get('entropy_verdict')!r}")
    bits = res.get("extracted_bits", "")
    if len(bits) != 256 or set(bits) - {"0", "1"}:
        problems.append(f"extracted {len(bits)} bits, expected 256")
    base = derive64(seed, 1)
    step = max(1, T // spot)
    for i in range(seed % step, T, step):
        key = mix64(base + GOLDEN + i)
        c = ch[i]
        if c["key"] != key:
            problems.append(f"challenge {i}: key {c['key']} != {key}")
            continue
        want = coefficient(sign_table(key, n), c["s"]) ** 2
        if c["p"] != float(want):
            problems.append(f"challenge {i}: p {c['p']} != fhat(s)^2 {float(want)}")
    return problems


def check_pgpb(blob: bytes, n: int, trials: int, sigmas: float = 5.0) -> list:
    """Band rates within `sigmas` binomial deviations of the exact law."""
    problems: list = []
    doc = _json(blob, problems)
    if doc is None:
        return problems
    res = doc.get("results", {})
    _config(doc, {"n": n, "trials": trials}, problems)
    if res.get("trials") != trials:
        problems.append(f"trials {res.get('trials')} != {trials}")
    for key, exact in zip(("p_b", "p_light4"), band_law(n)):
        got = res.get(key, -1.0)
        tol = sigmas * math.sqrt(exact * (1.0 - exact) / trials)
        if not abs(got - exact) <= tol:
            problems.append(f"{key} = {got} is {abs(got - exact):.5f} from "
                            f"the exact {exact:.5f} (tolerance {tol:.5f})")
    if abs(res.get("p_g", -1.0) - (res.get("p_light4", 0.0) - res.get("p_b", 0.0))) > 1e-12:
        problems.append("p_g != p_light4 - p_b")
    return problems


def check_rhog(blob: bytes, n: int, c: float, trials: int) -> list:
    """The rhog contract: N*mean reaches 1 + eps^2/8 with eps = 1/(C ln N),
    and its 99% interval lies above 1."""
    problems: list = []
    doc = _json(blob, problems)
    if doc is None:
        return problems
    res = doc.get("results", {})
    _config(doc, {"n": n, "c": c, "trials": trials}, problems)
    eps = 1.0 / (c * math.log(1 << n))
    target = 1.0 + eps * eps / 8.0
    if abs(res.get("target", 0.0) - target) > 1e-12:
        problems.append(f"target {res.get('target')} != {target}")
    m, ci = res.get("n_times_mean", 0.0), res.get("ci99", 1.0)
    if not (m >= target and m - ci > 1.0):
        problems.append(f"N*mean {m} with ci99 {ci} fails the contract")
    return problems


def check_llqsv(blob: bytes, stderr: str, n: int, T: int) -> list:
    """LLQ1 layout, the command's own PASS lines, and an independent
    fourier-case statistic N * mean fhat_i(s_i)^2 near (3N - 2)/N."""
    problems: list = []
    size = 1 << n
    rec = 8 + (size + 7) // 8 + 4
    if len(blob) != 12 + T * rec or blob[:4] != b"LLQ1":
        return [f"LLQ1 payload of {len(blob)} bytes, expected {12 + T * rec}"]
    if struct.unpack("<II", blob[4:12]) != (n, T):
        problems.append("LLQ1 header does not carry (n, T)")
    lines = [ln for ln in stderr.splitlines() if ln.startswith("CHECK ")]
    if len(lines) != 2 or any(not ln.startswith("CHECK PASS") for ln in lines):
        problems.append(f"--check lines: {lines}")
    body = np.frombuffer(blob, dtype=np.uint8, offset=12).reshape(T, rec)
    bits = np.unpackbits(body[:, 8:rec - 4], axis=1, bitorder="little")[:, :size]
    signs = 1 - 2 * bits.astype(np.int64)
    s = body[:, rec - 4:].copy().view("<u4").ravel().astype(np.int64)
    if np.any(s >= size):
        return problems + ["s out of range"]
    x = np.arange(size)
    chi = 1 - 2 * (np.bitwise_count(s[:, None] & x[None, :]) & 1).astype(np.int64)
    stat = float(np.mean((np.sum(signs * chi, axis=1) / size) ** 2)) * size
    expected = (3.0 * size - 2.0) / size
    if abs(stat - expected) > 0.5:
        problems.append(f"N*mean fhat(s)^2 = {stat:.4f}, expected {expected:.4f}")
    return problems


def check_derandomize(blob: bytes, n: int, seeds: int, min_agree: float = 0.9) -> list:
    """Shape of the replay table, and the constancy contract (agree >= 0.9)."""
    problems: list = []
    doc = _json(blob, problems)
    if doc is None:
        return problems
    res = doc.get("results", {})
    outs = res.get("outputs", [])
    if len(outs) != seeds or any(not (0 <= a < (1 << n) and 0 <= b < (1 << n))
                                 for a, b in outs):
        return problems + ["replay table has the wrong shape or range"]
    agree = sum(a == b for a, b in outs) / seeds
    if res.get("agree_fraction") != agree:
        problems.append(f"agree_fraction {res.get('agree_fraction')} != {agree}")
    if agree < min_agree:
        problems.append(f"agree fraction {agree} < {min_agree}")
    return problems
