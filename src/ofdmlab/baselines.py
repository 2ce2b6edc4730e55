"""Classical references: clipping-and-filtering, selected mapping, MLE, ZF.

Selected mapping uses one shared phase sequence per candidate across all
antennas and picks the candidate whose worst-antenna PAPR is lowest; the
chosen index is assumed known at the receiver. MLE searches all candidate
symbol vectors per subcarrier, which is exact but exponential in the
antenna count; both detectors work on all subcarriers of a frame at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import ChannelRealization
from .dsp import Stage, TimeFrame, synthesize
from .errors import ConfigError, NumericError
from .modulation import OfdmGrid, nearest_level_index, pam_levels, qam_alphabet
from .rf import bandpass_filter

MLE_CANDIDATE_GUARD = 2 ** 20
# Candidate rows per step of the exhaustive search: about 8 MB of work buffers
# at 4x4 16-QAM, K=72. Larger chunks were no faster, and slower on a busy host.
MLE_CHUNK = 1024
SLM_PHASES = np.array([1.0, -1.0, 1.0j, -1.0j])


@dataclass(frozen=True)
class ClipConfig:
    """Amplitude limit relative to the RMS level, in dB."""

    clip_ratio_db: float = 4.08

    def __post_init__(self):
        if not np.isfinite(self.clip_ratio_db):
            raise ValueError("clip ratio must be finite")


@dataclass(frozen=True)
class SlmCodebook:
    """Candidate phase sequences; entry 0 is always the identity sequence."""

    phases: np.ndarray      # [n_candidates, n_subcarriers], unit modulus
    seed: int

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=np.complex128)
        if phases.ndim != 2 or phases.size == 0:
            raise ValueError("phases must be [n_candidates, n_subcarriers]")
        if not np.allclose(np.abs(phases), 1.0, atol=0.0):
            raise ValueError("phase entries must have unit modulus")
        if not np.all(phases[0] == 1.0):
            raise ValueError("candidate 0 must be the identity sequence")
        object.__setattr__(self, "phases", phases)

    @property
    def n_candidates(self) -> int:
        return self.phases.shape[0]

    @classmethod
    def random(cls, seed: int, n_candidates: int, n_subcarriers: int) -> "SlmCodebook":
        if n_candidates < 1:
            raise ValueError("need at least one candidate")
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
        idx = rng.integers(0, 4, size=(n_candidates, n_subcarriers))
        phases = SLM_PHASES[idx]
        phases[0] = 1.0
        return cls(phases, seed)


def clip_only(frame: TimeFrame, cfg: ClipConfig) -> TimeFrame:
    """Hard-limit the envelope at rms * 10^(ratio/20), per frame; phase preserved."""
    power = frame.frame_power()
    if np.any(power == 0.0):
        raise ValueError("cannot clip an all-zero frame")
    limit = np.sqrt(power) * 10.0 ** (cfg.clip_ratio_db / 20.0)
    magnitude = np.abs(frame.samples)
    scale = np.where(magnitude > limit, limit / np.maximum(magnitude, 1e-300), 1.0)
    return frame.with_samples(frame.samples * scale)


def clip_and_filter(frame: TimeFrame, cfg: ClipConfig) -> TimeFrame:
    """One clip pass, then the band-pass filter.

    The filter restores strict band limitation at the price of some peak
    regrowth.
    """
    return bandpass_filter(clip_only(frame, cfg))


def slm_encode(grid: OfdmGrid, book: SlmCodebook, oversample: int) -> tuple[TimeFrame, int]:
    """Pick the candidate phase sequence with the lowest worst-antenna PAPR.

    All antennas share the candidate's sequence. Returns the synthesized
    frame of the winner and its index (side information for the receiver).
    """
    symbols = grid.symbols
    if book.phases.shape[1] != symbols.shape[1]:
        raise ValueError("codebook length does not match the grid")
    candidates = book.phases[:, None, :] * symbols[None, :, :]
    rows = synthesize(candidates, oversample)
    power = np.abs(rows) ** 2
    per_antenna = power.max(axis=2) / power.mean(axis=2)
    worst = per_antenna.max(axis=1)
    winner = int(np.argmin(worst))
    # a copy, so that a caller holding the frame does not hold every candidate
    return TimeFrame(rows[winner].copy(), L=oversample, stage=Stage.RAW), winner


def check_mle_size(order: int, n_tx: int) -> None:
    """ConfigError when an exhaustive search would exceed MLE_CANDIDATE_GUARD candidates."""
    count = qam_alphabet(order).size ** n_tx
    if count > MLE_CANDIDATE_GUARD:
        raise ConfigError(f"{count} MLE candidates exceed the exhaustive-search "
                          f"guard of {MLE_CANDIDATE_GUARD}")


@lru_cache(maxsize=None)
def _candidate_vectors(order: int, n_tx: int) -> np.ndarray:
    """All |M|^n_tx transmit vectors in lexicographic order, [count, n_tx].

    The table is cached per (order, n_tx) and read-only.
    """
    check_mle_size(order, n_tx)
    alphabet = qam_alphabet(order)
    index_grids = np.meshgrid(*([np.arange(alphabet.size)] * n_tx), indexing="ij")
    idx = np.stack(index_grids, axis=-1).reshape(-1, n_tx)
    candidates = alphabet[idx]
    candidates.setflags(write=False)
    return candidates


def mle_detect(chan: ChannelRealization, y_freq: np.ndarray, order: int) -> np.ndarray:
    """Exhaustive minimum-distance detection on every subcarrier at once.

    ``y_freq`` is [n_sub, n_rx]; returns the detected grid [n_tx, n_sub].
    The candidate table goes through in chunks of ``MLE_CHUNK`` rows; per
    chunk, each subcarrier's metric sum_r |y_r - (H c)_r|^2 is summed over
    the receive antennas in order. Ties break toward the lexicographically
    first candidate, also across chunks.
    """
    y_freq = np.asarray(y_freq, dtype=np.complex128)
    k, n_rx = chan.n_subcarriers, chan.n_rx
    if y_freq.shape != (k, n_rx):
        raise ValueError("y shape does not match the channel")
    candidates = _candidate_vectors(order, chan.n_tx)
    count = candidates.shape[0]
    chunk = min(count, MLE_CHUNK)
    h_t = np.swapaxes(chan.h, 1, 2)                      # [K, n_tx, n_rx]
    y_col = y_freq[:, None, :]
    hypotheses = np.empty((k, chunk, n_rx), dtype=np.complex128)
    distance = np.empty((k, chunk, n_rx))
    metric = np.empty((k, chunk))
    best_metric = np.full(k, np.inf)
    best = np.zeros(k, dtype=np.intp)
    rows = np.arange(k)
    for start in range(0, count, chunk):
        block = candidates[start:start + chunk]
        n = block.shape[0]
        hyp, dist, m = hypotheses[:, :n], distance[:, :n], metric[:, :n]
        np.matmul(block, h_t, out=hyp)
        np.subtract(y_col, hyp, out=hyp)
        np.abs(hyp, out=dist)
        np.square(dist, out=dist)
        np.copyto(m, dist[:, :, 0])
        for r in range(1, n_rx):
            m += dist[:, :, r]
        local = np.argmin(m, axis=1)
        value = m[rows, local]
        better = value < best_metric
        best_metric[better] = value[better]
        best[better] = local[better] + start
    return np.ascontiguousarray(candidates[best].T)


def zf_detect(chan: ChannelRealization, y_freq: np.ndarray, order: int) -> np.ndarray:
    """Pseudo-inverse equalization plus per-entry nearest constellation point.

    All subcarriers are equalized in one batched SVD and pseudo-inverse; a
    channel matrix whose smallest singular value is below 1e-12 is a
    NumericError that names the first such subcarrier.
    """
    y_freq = np.asarray(y_freq, dtype=np.complex128)
    if y_freq.shape != (chan.n_subcarriers, chan.n_rx):
        raise ValueError("y shape does not match the channel")
    smallest = np.linalg.svd(chan.h, compute_uv=False)[:, -1]
    singular = np.flatnonzero(smallest < 1e-12)
    if singular.size:
        raise NumericError(f"channel matrix at subcarrier {singular[0]} is singular")
    equalized = np.matmul(np.linalg.pinv(chan.h), y_freq[:, :, None])[:, :, 0]
    levels = pam_levels(order)
    re = levels[nearest_level_index(equalized.real, levels)]
    im = levels[nearest_level_index(equalized.imag, levels)]
    return np.ascontiguousarray((re + 1j * im).T)
