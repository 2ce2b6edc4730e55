"""Complex-signal primitives shared by the whole transmit/receive chain.

Oversampled OFDM synthesis and analysis, peak-to-average power metrics,
and the per-frame periodogram. The data subcarriers occupy
the centre of the sampled spectrum; the outer (L-1)*K bins are the
oversampling guard band. All functions are pure and never mutate their
input. Frames are plain complex arrays [A, N], one row per antenna; every
frame-level function also takes a stack of frames [..., A, N] and treats
each [A, N] frame on its own, giving the same values as one frame at a time.
"""

from __future__ import annotations

import numpy as np


def inband_start(n_bins: int, n_inband: int) -> int:
    """First index of the centred data band in a shifted spectrum of ``n_bins``."""
    return (n_bins - n_inband) // 2


def inband_bins(n_bins: int, n_inband: int) -> np.ndarray:
    """The centred data band's bins in unshifted FFT order, lowest frequency first.

    Entry j is where ``np.fft.fftshift`` takes shifted bin
    ``inband_start(n_bins, n_inband) + j`` from, so a stage that gathers or
    scatters through these bins needs no shift copy.
    """
    start = inband_start(n_bins, n_inband)
    return (np.arange(start, start + n_inband) - n_bins // 2) % n_bins


def idft_oversampled(symbols: np.ndarray, L: int) -> np.ndarray:
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
    return _synthesize_into(spectrum, symbols, spectrum)


def _synthesize_into(spectrum: np.ndarray, symbols: np.ndarray, out: np.ndarray) -> np.ndarray:
    """:func:`idft_oversampled` in caller-owned arrays; returns ``out``.

    ``spectrum`` [..., A, N] must hold zeros outside the data band. Only its
    in-band bins are written, so unless ``out`` is ``spectrum`` it can be
    reused for the next rows of the same shape.
    """
    n, k = spectrum.shape[-1], symbols.shape[-1]
    spectrum[..., inband_bins(n, k)] = symbols
    np.fft.ifft(spectrum, axis=-1, out=out)
    return np.multiply(n / np.sqrt(k), out, out=out)


def dft_unpad(samples: np.ndarray, n_inband: int) -> np.ndarray:
    """Forward transform frames [..., A, N] and keep only the centre data bins.

    Exact inverse of :func:`idft_oversampled` for in-band content. Returns a
    grid-shaped complex array [..., A, n_inband].
    """
    n = samples.shape[-1]
    if n % n_inband != 0:
        raise ValueError("frame length must be divisible by the data bin count")
    bins = np.fft.fft(samples, axis=-1)[..., inband_bins(n, n_inband)]
    return np.multiply(bins, np.sqrt(n_inband) / n, out=bins)


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


def papr_mimo(samples: np.ndarray):
    """Worst-antenna PAPR of a MIMO frame [A, N], linear units.

    A float for one frame; an array over the leading axes for a stack.
    """
    power = np.abs(samples) ** 2
    mean = power.mean(axis=-1)
    if np.any(mean == 0.0):
        raise ValueError("all-zero signal has no defined PAPR")
    worst = (power.max(axis=-1) / mean).max(axis=-1)
    return float(worst) if worst.ndim == 0 else worst


def estimate_psd(samples: np.ndarray) -> np.ndarray:
    """Rectangular-window periodogram of each antenna row, averaged over rows.

    Returns the bin powers [..., N], ordered from -fs/2 to +fs/2; they sum
    to the mean signal power (Parseval). A stack of frames gives one row of
    bins per frame.
    """
    n = samples.shape[-1]
    power = np.abs(np.fft.fft(samples, axis=-1))
    np.square(power, out=power)
    np.true_divide(power, n ** 2, out=power)
    return np.fft.fftshift(power.mean(axis=-2), axes=-1)
