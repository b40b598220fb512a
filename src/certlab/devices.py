"""Simulated sampling devices with white-box output distributions.

Four kinds, all answering one challenge function with one index:

* honest            -- Fourier sampler, z ~ fhat(z)^2 (`honest_sampler`'s draw);
* uniform           -- ignores the function, uniform z (a blind cheat);
* argmax            -- deterministic, always the lexicographically-first
                       index of the largest |fhat| (max collision cheat);
* biased(p)         -- argmax with probability p, honest sample otherwise.

Each kind's output law has a closed form in the integer spectrum, so
min_entropy_rows is exact rather than estimated.

Every biased call tosses one coin per answer the same way (`_biased_split`):
it reads 2*count raw Philox words at once, coins then answers, the words of
two `rng.random` draws (the digests pin them), and searches only the answers
whose coin is >= p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boolfn import FourierSpectrum
from .fouriersample import fourier_rows, fourier_sample_many, honest_sampler

KINDS = ("honest", "uniform", "argmax", "biased")


def argmax_index(spec: FourierSpectrum) -> int:
    """Lexicographically-first z maximizing |fhat(z)| (exact, on integers)."""
    return int(argmax_rows(spec.scaled[None, :])[0])


def argmax_rows(scaled_rows: np.ndarray) -> np.ndarray:
    """Row-wise first argmax of |W|, the same index as the first argmax of W^2.

    |W| is taken in the input dtype, which holds it: a scaled spectrum has
    |W| <= N, and `wht_rows` returns int16 only when N < 2^15.
    """
    return np.argmax(np.abs(scaled_rows), axis=1).astype(np.int64)


@dataclass(frozen=True)
class DeviceModel:
    """A challenge-answering device; see module docstring for the kinds."""

    kind: str
    p: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown device kind {self.kind!r}")
        if self.kind == "biased" and not 0.0 <= self.p <= 1.0:
            raise ValueError("biased device needs p in [0, 1]")

    @property
    def label(self) -> str:
        return f"biased:{self.p:g}" if self.kind == "biased" else self.kind

    def sample_many(
        self, spec: FourierSpectrum, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """`count` independent answers on one fixed challenge."""
        size = spec.size
        if self.kind == "uniform":
            return rng.integers(0, size, size=count, dtype=np.int64)
        if self.kind == "argmax":
            return np.full(count, argmax_index(spec), dtype=np.int64)
        if self.kind == "honest":
            return fourier_sample_many(spec, rng.random(count))
        keep, u = self._biased_split(count, rng)
        out = np.full(count, argmax_index(spec), dtype=np.int64)
        out[keep] = fourier_sample_many(spec, u)
        return out

    def sample_counts(self, spec: FourierSpectrum, count: int, rng) -> np.ndarray:
        """Length-N int64 tally of `sample_many`'s answers, from its draws."""
        if self.kind != "biased":
            return np.bincount(self.sample_many(spec, count, rng), minlength=spec.size)
        _, u = self._biased_split(count, rng)
        counts = np.bincount(fourier_sample_many(spec, u), minlength=spec.size)
        counts[argmax_index(spec)] += count - u.size
        return counts

    def _biased_split(self, count, rng):
        """Coin mask and the kept answers' uniforms from 2*count raw words,
        coins first; rng.random's (w >> 11) * 2^-53 is >= p iff
        w >= ceil(p 2^53) 2^11."""
        w = rng.bit_generator.random_raw(2 * count)
        keep = w[:count] >= math.ceil(self.p * 2**53) << 11
        return keep, (w[count:][keep] >> np.uint64(11)) * 2.0**-53

    def sample_rows(
        self, scaled_rows: np.ndarray, rng: np.random.Generator, peak=None
    ) -> np.ndarray:
        """One answer per challenge, challenges given as scaled-spectrum rows.

        `peak`, when given, is `argmax_rows(scaled_rows)`, computed once by
        a caller that shares it between devices.
        """
        rows, size = scaled_rows.shape
        if self.kind == "uniform":
            return rng.integers(0, size, size=rows, dtype=np.int64)
        if self.kind == "honest":
            return honest_sampler.sample_batch(scaled_rows, rng)
        if peak is None:
            peak = argmax_rows(scaled_rows)
        if self.kind == "argmax":
            return peak
        keep, u = self._biased_split(rows, rng)
        out = peak.copy()
        out[keep] = fourier_rows(scaled_rows[keep], u)
        return out

    def min_entropy_rows(self, scaled_rows: np.ndarray, peak) -> np.ndarray:
        """Per-challenge min-entropy of the exact output law, in bits.

        The row max of |W| is read at `peak`, which is
        `argmax_rows(scaled_rows)`, and only that value is squared.
        """
        rows, size = scaled_rows.shape
        if self.kind == "uniform":
            n = size.bit_length() - 1
            return np.full(rows, float(n))
        if self.kind == "argmax":
            return np.zeros(rows)
        top = np.abs(scaled_rows[np.arange(rows), peak]).astype(np.int64)
        pmax = (top * top) / float(size * size)
        if self.kind == "biased":
            pmax = self.p + (1.0 - self.p) * pmax
        return -np.log2(pmax)


def honest() -> DeviceModel:
    return DeviceModel("honest")


def uniform_cheat() -> DeviceModel:
    return DeviceModel("uniform")


def argmax_deterministic() -> DeviceModel:
    return DeviceModel("argmax")


def biased(p: float) -> DeviceModel:
    return DeviceModel("biased", p)


def parse_device(text: str) -> DeviceModel:
    """Parse 'honest' | 'uniform' | 'argmax' | 'biased:<p>'."""
    if text.startswith("biased:"):
        try:
            p = float(text[len("biased:"):])
        except ValueError:
            raise ValueError(f"unknown device spec {text!r}") from None
        return biased(p)
    if text in ("honest", "uniform", "argmax"):
        return DeviceModel(text)
    raise ValueError(f"unknown device spec {text!r}")
