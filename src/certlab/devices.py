"""Simulated sampling devices with white-box output distributions.

Four kinds, all answering one challenge function with one index:

* honest            -- Fourier sampler, z with probability fhat(z)^2;
* uniform           -- ignores the function, uniform z (a blind cheat);
* argmax            -- deterministic, always the lexicographically-first
                       index of the largest |fhat| (max collision cheat);
* biased(p)         -- argmax with probability p, honest sample otherwise.

Every kind exposes its exact OutcomeDistribution for a given spectrum, so
entropy bookkeeping and verdict experiments can be checked against ground
truth rather than estimated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boolfn import FourierSpectrum
from .entropy import OutcomeDistribution
from .fouriersample import fourier_rows, fourier_sample_many

KINDS = ("honest", "uniform", "argmax", "biased")


def argmax_index(spec: FourierSpectrum) -> int:
    """Lexicographically-first z maximizing |fhat(z)| (exact, on integers)."""
    w = spec.scaled.astype(np.int64)
    return int(np.argmax(w * w))


def argmax_rows(scaled_rows: np.ndarray) -> np.ndarray:
    """Row-wise first argmax of the squared scaled coefficients."""
    w = scaled_rows.astype(np.int64)
    return np.argmax(w * w, axis=1).astype(np.int64)


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

    def distribution(self, spec: FourierSpectrum) -> OutcomeDistribution:
        """Exact output law of this device on the given spectrum."""
        size = spec.size
        if self.kind == "uniform":
            return OutcomeDistribution.uniform(size)
        if self.kind == "argmax":
            return OutcomeDistribution.point_mass(size, argmax_index(spec))
        w = spec.scaled.astype(np.int64)
        fourier = (w * w) / float(size * size)
        if self.kind == "honest":
            return OutcomeDistribution(fourier)
        mixed = (1.0 - self.p) * fourier
        mixed[argmax_index(spec)] += self.p
        return OutcomeDistribution(mixed)

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
            return fourier_sample_many(spec, count, rng)
        picks = rng.random(count) < self.p
        out = fourier_sample_many(spec, count, rng)
        out[picks] = argmax_index(spec)
        return out

    def sample_rows(
        self, scaled_rows: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One answer per challenge, challenges given as scaled-spectrum rows."""
        rows, size = scaled_rows.shape
        if self.kind == "uniform":
            return rng.integers(0, size, size=rows, dtype=np.int64)
        if self.kind == "argmax":
            return argmax_rows(scaled_rows)
        if self.kind == "honest":
            return fourier_rows(scaled_rows, rng.random(rows))
        picks = rng.random(rows) < self.p
        out = fourier_rows(scaled_rows, rng.random(rows))
        out[picks] = argmax_rows(scaled_rows)[picks]
        return out

    def min_entropy_rows(self, scaled_rows: np.ndarray) -> np.ndarray:
        """Per-challenge min-entropy of the exact output law, in bits."""
        rows, size = scaled_rows.shape
        if self.kind == "uniform":
            n = size.bit_length() - 1
            return np.full(rows, float(n))
        if self.kind == "argmax":
            return np.zeros(rows)
        w = scaled_rows.astype(np.int64)
        pmax = (w * w).max(axis=1) / float(size * size)
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
        return biased(float(text.split(":", 1)[1]))
    if text in ("honest", "uniform", "argmax"):
        return DeviceModel(text)
    raise ValueError(f"unknown device spec {text!r}")
