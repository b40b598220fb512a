"""Simulated sampling devices with white-box output distributions.

Four kinds, all answering one challenge function with one index:

* honest            -- Fourier sampler, z ~ fhat(z)^2 (`honest_sampler`'s draw);
* uniform           -- ignores the function, uniform z (a blind cheat);
* argmax            -- deterministic, always the lexicographically-first
                       index of the largest |fhat| (max collision cheat);
* biased:<p>        -- argmax with probability p, honest sample otherwise.

Each kind's output law has a closed form in the integer spectrum, so
min_entropy_rows is exact rather than estimated.

This is the one place that chooses who answers a challenge: every driver
(pgpb, rhog, llqsv, the protocol, derandomize) hands its challenges to a
DeviceModel; only the honest kind calls `honest_sampler` or `fourier_tables`.

Every biased call tosses one coin per answer the same way (`_biased_split`):
it reads 2*count raw Philox words, coins then answers, the words of two
`rng.random` draws (the digests pin them), and searches only the answers
whose coin is >= p.  `count_bounds` reads the coin half alone and bounds
each run's tally by it; the answer half is read only for the runs whose
bounds do not decide the caller's question, and every other generator is
moved past it as reading it would move it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boolfn import FourierSpectrum, wht_rows
from .fouriersample import (_NARROW, fourier_rows, fourier_sample_many,
                            fourier_tables, honest_sampler)
from .rng import skip_raw

KINDS = ("honest", "uniform", "argmax", "biased")


def argmax_index(spec: FourierSpectrum) -> int:
    """Lexicographically-first z maximizing |fhat(z)| (exact, on integers)."""
    return int(argmax_rows(spec.scaled[None, :])[0])


def argmax_rows(scaled_rows: np.ndarray) -> np.ndarray:
    """Row-wise first argmax of |W|, the same index as the first argmax of W^2.

    A scaled spectrum has |W| <= N, so the key |W| N + (N - 1 - j) is
    distinct per entry j, orders the entries by |W| and then by smallest j,
    and fits in int16 up to N = 128, int32 up to 2^15 and int64 above.  One
    row max of it gives the index N - 1 - (max mod N); on a column-major
    block that max reduces contiguous rows.
    """
    size = scaled_rows.shape[1]
    kt = np.int16 if size <= 128 else np.int32 if size <= 1 << 15 else np.int64
    key = np.abs(scaled_rows, dtype=kt)
    key *= size
    key += np.arange(size - 1, -1, -1, dtype=kt)
    return size - 1 - (key.max(axis=1) % size).astype(np.int64)


@dataclass(frozen=True)
class DeviceModel:
    """A challenge-answering device; see module docstring for the kinds.
    Challenges come as scaled spectra, or as sign tables (`answer_tables`)."""

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

    def count_bounds(self, spec: FourierSpectrum, count: int, rngs):
        """Bounds lo <= c <= hi on the (len(rngs), N) int64 tallies c of
        `sample_many`'s answers, row i from `count` draws of rngs[i], and
        `answer(need)`, which returns the exact rows where the boolean mask
        `need` holds and leaves every generator where drawing each run's
        `sample_many` in list order leaves it.

        Every kind but biased, and a biased call that repeats a generator
        (whose coins and answers would otherwise leave it out of that
        order), makes that eager draw here, so lo = hi = c.  Otherwise each
        generator gives its first `count` raw words, the coin half of
        `_biased_split`'s draw: with `kept` coins >= p, c lies in
        count - kept .. count at the argmax and in 0 .. kept elsewhere, and
        `answer` reads the answer words of the runs it needs and moves
        every other generator past them (`rng.skip_raw`).
        """
        if self.kind != "biased" or len({id(g) for g in rngs}) < len(rngs):
            answers = [self.sample_many(spec, count, g) for g in rngs]
            c = _tally(spec.size, np.concatenate(answers), [count] * len(rngs))
            return c, c, lambda need: c[need]
        keep = [self._coins(g.bit_generator.random_raw(count)) for g in rngs]
        kept = np.array([np.count_nonzero(mask) for mask in keep], dtype=np.int64)
        z = argmax_index(spec)
        lo = np.zeros((len(rngs), spec.size), dtype=np.int64)
        lo[:, z] = count - kept
        hi = np.repeat(kept[:, None], spec.size, axis=1)
        hi[:, z] = count

        def answer(need):
            u = []
            for g, mask, read in zip(rngs, keep, need):
                if read:
                    u.append(_uniforms(g.bit_generator.random_raw(count)[mask]))
                else:
                    skip_raw(g.bit_generator, count)
            return _kept_tallies(spec, count, u)

        return lo, hi, answer

    def _coins(self, words):
        """Coin mask of raw words: rng.random's (w >> 11) * 2^-53 is >= p iff
        w >= ceil(p 2^53) 2^11."""
        return words >= math.ceil(self.p * 2**53) << 11

    def _biased_split(self, count, rng):
        """Coin mask and the kept answers' uniforms from 2*count raw words,
        coins first."""
        w = rng.bit_generator.random_raw(2 * count)
        keep = self._coins(w[:count])
        return keep, _uniforms(w[count:][keep])

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

    def answer_tables(self, tables: np.ndarray, rng: np.random.Generator):
        """(z, W(z)) as int64 per +-1 sign table row: a gather after
        sample_rows(wht_rows(tables), rng), on the same stream.  Past the
        narrow scan (N > 128) honest ones come off the partial transform."""
        if self.kind == "honest" and tables.shape[1] > _NARROW:
            return fourier_tables(tables, rng.random(tables.shape[0]))
        scaled = wht_rows(tables)
        z = self.sample_rows(scaled, rng)
        return z, scaled[np.arange(len(z)), z].astype(np.int64)

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


def _uniforms(words: np.ndarray) -> np.ndarray:
    """rng.random's doubles from its raw words: (w >> 11) * 2^-53."""
    return (words >> np.uint64(11)) * 2.0**-53


def _tally(size: int, answers: np.ndarray, lengths) -> np.ndarray:
    """(len(lengths), size) int64 tallies of `answers`, whose first
    lengths[0] entries are row 0's, the next lengths[1] row 1's, and so on."""
    rows = len(lengths)
    at = np.repeat(np.arange(rows, dtype=np.int64) * size, lengths) + answers
    return np.bincount(at, minlength=rows * size).reshape(rows, size)


def _kept_tallies(spec: FourierSpectrum, count: int, u) -> np.ndarray:
    """Tallies of runs whose kept answers' uniforms are u[i], the other
    count - len(u[i]) answers of run i going to the argmax."""
    lengths = [x.size for x in u]
    answers = fourier_sample_many(spec, np.concatenate(u or [np.empty(0)]))
    counts = _tally(spec.size, answers, lengths)
    counts[:, argmax_index(spec)] += count - np.array(lengths, dtype=np.int64)
    return counts


def parse_device(text: str) -> DeviceModel:
    """Parse 'honest' | 'uniform' | 'argmax' | 'biased:<p>'."""
    if text.startswith("biased:"):
        try:
            p = float(text[len("biased:"):])
        except ValueError:
            raise ValueError(f"unknown device spec {text!r}") from None
        return DeviceModel("biased", p)
    if text in ("honest", "uniform", "argmax"):
        return DeviceModel(text)
    raise ValueError(f"unknown device spec {text!r}")
