"""Complex-signal primitives shared by the whole transmit/receive chain.

Oversampled OFDM synthesis and analysis, peak-to-average power metrics,
and the per-frame periodogram. The data subcarriers occupy
the centre of the sampled spectrum; the outer (L-1)*K bins are the
oversampling guard band. All functions are pure and never mutate a frame.
Every frame-level function also takes a stack of frames [..., A, N] and
treats each [A, N] frame on its own, giving the same values as one frame
at a time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .modulation import OfdmGrid


class Stage(enum.Enum):
    """Position of a time frame along the transmit pipeline."""

    RAW = "raw"
    ENCODED = "encoded"
    FILTERED = "filtered"
    BACKED_OFF = "backed_off"
    AMPLIFIED = "amplified"


@dataclass(frozen=True)
class TimeFrame:
    """Time-domain MIMO signal, one row of complex samples per antenna.

    ``samples`` is one frame [A, N] or a stack of frames [..., A, N].
    """

    samples: np.ndarray
    L: int
    stage: Stage = Stage.RAW

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.ndim < 2 or samples.size == 0:
            raise ValueError("frame must be a non-empty complex array [..., A, N]")
        if self.L < 1:
            raise ValueError("oversampling factor must be >= 1")
        object.__setattr__(self, "samples", samples)

    @property
    def n_antennas(self) -> int:
        return self.samples.shape[-2]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[-1]

    @property
    def n_inband(self) -> int:
        """Number of data bins implied by the oversampling factor."""
        return self.n_samples // self.L

    def mean_power(self) -> float:
        """Mean |x|^2 over all antennas and samples (and frames)."""
        return float(np.mean(np.abs(self.samples) ** 2))

    def frame_power(self) -> np.ndarray:
        """Mean |x|^2 of each frame over its antennas and samples, shaped [..., 1, 1]."""
        return np.mean(np.abs(self.samples) ** 2, axis=(-2, -1), keepdims=True)

    def with_samples(self, samples: np.ndarray, stage: Stage | None = None) -> "TimeFrame":
        return TimeFrame(samples, self.L, self.stage if stage is None else stage)


@dataclass(frozen=True)
class PsdEstimate:
    """Averaged periodogram, bins ordered from -fs/2 to +fs/2.

    ``bin_power`` is normalized so its sum equals the mean signal power;
    a stack of frames gives one row of bins per frame, [..., n_bins].
    """

    bin_power: np.ndarray
    bin_spacing: float

    def __post_init__(self):
        power = np.asarray(self.bin_power, dtype=float)
        if power.ndim < 1 or power.size == 0:
            raise ValueError("bin_power must be a non-empty array [..., n_bins]")
        if np.any(power < 0):
            raise ValueError("bin powers must be nonnegative")
        object.__setattr__(self, "bin_power", power)

    @property
    def n_bins(self) -> int:
        return self.bin_power.shape[-1]

    def total_power(self) -> float:
        return float(self.bin_power.sum())


def inband_start(n_bins: int, n_inband: int) -> int:
    """First index of the centred data band in a shifted spectrum of ``n_bins``."""
    return (n_bins - n_inband) // 2


def _as_symbol_matrix(grid) -> np.ndarray:
    symbols = grid.symbols if isinstance(grid, OfdmGrid) else np.asarray(grid, dtype=np.complex128)
    if symbols.ndim < 2 or symbols.size == 0:
        raise ValueError("grid must be a non-empty complex array [..., A, K]")
    return symbols


def synthesize(symbols: np.ndarray, L: int) -> np.ndarray:
    """Oversampled time samples of symbol rows: [..., A, K] -> [..., A, L*K].

    Each K-bin row is placed on the K centre bins of an L*K-bin spectrum and
    transformed with an inverse FFT scaled by 1/sqrt(K), so a unit-energy
    grid yields unit mean power independent of L. Rows are independent: a
    stack of grids gives the same samples as one grid at a time.
    """
    if L < 1:
        raise ValueError("oversampling factor must be >= 1")
    k = symbols.shape[-1]
    n = L * k
    spectrum = np.zeros(symbols.shape[:-1] + (n,), dtype=np.complex128)
    start = inband_start(n, k)
    spectrum[..., start:start + k] = symbols
    return (n / np.sqrt(k)) * np.fft.ifft(np.fft.ifftshift(spectrum, axes=-1), axis=-1)


def idft_oversampled(grid, L: int) -> TimeFrame:
    """Synthesize the oversampled time-domain frame of one grid or a stack [..., A, K]."""
    return TimeFrame(synthesize(_as_symbol_matrix(grid), L), L=L, stage=Stage.RAW)


def dft_unpad(frame: TimeFrame, n_inband: int) -> np.ndarray:
    """Forward transform a frame and keep only the centre data bins.

    Exact inverse of :func:`idft_oversampled` for in-band content. Returns a
    grid-shaped complex array [..., n_antennas, n_inband].
    """
    n = frame.n_samples
    if n % n_inband != 0:
        raise ValueError("frame length must be divisible by the data bin count")
    spectrum = np.fft.fftshift(np.fft.fft(frame.samples, axis=-1), axes=-1)
    start = inband_start(n, n_inband)
    return spectrum[..., start:start + n_inband] * (np.sqrt(n_inband) / n)


def papr(samples: np.ndarray) -> float:
    """Peak-to-average power ratio of a complex sequence, linear units."""
    samples = np.asarray(samples, dtype=np.complex128).reshape(-1)
    if samples.size == 0:
        raise ValueError("empty signal")
    power = np.abs(samples) ** 2
    mean = power.mean()
    if mean == 0.0:
        raise ValueError("all-zero signal has no defined PAPR")
    return float(power.max() / mean)


def papr_db(samples: np.ndarray) -> float:
    return 10.0 * np.log10(papr(samples))


def papr_mimo(frame: TimeFrame):
    """Worst-antenna PAPR of a MIMO frame, linear units.

    A float for one frame; an array over the leading axes for a stack.
    """
    power = np.abs(frame.samples) ** 2
    mean = power.mean(axis=-1)
    if np.any(mean == 0.0):
        raise ValueError("all-zero signal has no defined PAPR")
    worst = (power.max(axis=-1) / mean).max(axis=-1)
    return float(worst) if worst.ndim == 0 else worst


def estimate_psd(frame: TimeFrame) -> PsdEstimate:
    """Rectangular-window periodogram of each antenna row, averaged over rows.

    Bin powers sum to the mean signal power (Parseval). A stack of frames
    gives one row of bins per frame.
    """
    n = frame.n_samples
    spectrum = np.fft.fftshift(np.fft.fft(frame.samples, axis=-1), axes=-1)
    bin_power = (np.abs(spectrum) ** 2 / n ** 2).mean(axis=-2)
    return PsdEstimate(bin_power, 1.0 / n)
