"""Transmit RF front-end: band-pass filter, input back-off, RAPP amplifier.

Also provides the Bussgang linearization gain and the spectral metrics
ACPR (from PSD bins) and OBO. Every stage takes plain complex arrays: the
filter, back-off and amplifier one frame [A, N] or a stack [..., A, N];
the Bussgang gain and ACPR one frame; OBO the antenna powers of one frame
or of several.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import inband_start


@dataclass(frozen=True)
class RappParams:
    """Memoryless solid-state amplifier: saturation a0, gain v, smoothness p.

    AM/AM response: G(A) = v*A * (1 + (v*A/a0)^(2p))^(-1/(2p)); phase is
    passed through unchanged (no AM/PM conversion).
    """

    a0: float
    v: float = 1.0
    p: float = 2.0

    def __post_init__(self):
        if self.a0 <= 0 or self.v <= 0 or self.p <= 0:
            raise ValueError("RAPP parameters must all be positive")

    @classmethod
    def from_power_budget(cls, total_power: float, n_antennas: int,
                          v: float = 1.0, p: float = 2.0) -> "RappParams":
        """Split a total radiated power budget equally over the amplifiers."""
        return cls(a0=float(np.sqrt(total_power / n_antennas)), v=v, p=p)

    def amam(self, amplitude: np.ndarray) -> np.ndarray:
        """Output amplitude for a given input amplitude (array-safe)."""
        a = np.asarray(amplitude, dtype=float)
        return self.v * a * (1.0 + (self.v * a / self.a0) ** (2 * self.p)) ** (-1.0 / (2 * self.p))


def bandpass_filter(samples: np.ndarray, L: int) -> np.ndarray:
    """Zero every out-of-band bin; brick-wall response over the data band.

    The data band is the centre N // L bins of each [A, N] frame.
    """
    if L < 1:
        raise ValueError("oversampling factor must be >= 1")
    n = samples.shape[-1]
    k = n // L
    spectrum = np.fft.fftshift(np.fft.fft(samples, axis=-1), axes=-1)
    start = inband_start(n, k)
    mask = np.zeros(n)
    mask[start:start + k] = 1.0
    return np.fft.ifft(np.fft.ifftshift(spectrum * mask, axes=-1), axis=-1)


def apply_ibo(samples: np.ndarray, ibo_db: float, params: RappParams) -> np.ndarray:
    """Scale each frame so its mean power sits ``ibo_db`` below a0^2."""
    power = np.mean(np.abs(samples) ** 2, axis=(-2, -1), keepdims=True)
    if np.any(power == 0.0):
        raise ValueError("cannot back off an all-zero frame")
    target = params.a0 ** 2 / 10.0 ** (ibo_db / 10.0)
    scale = np.sqrt(target / power)
    return samples * scale


def rapp_amplify(samples: np.ndarray, params: RappParams) -> np.ndarray:
    """Apply the AM/AM response per sample; phase preserved.

    The complex gain is computed from |x|^2 directly, so the operation is
    smooth at the origin.
    """
    power = np.abs(samples) ** 2
    gain = params.v * (1.0 + (params.v ** 2 * power / params.a0 ** 2) ** params.p) ** (-1.0 / (2 * params.p))
    return samples * gain


def bussgang_alpha(x_in: np.ndarray, x_out: np.ndarray) -> complex:
    """Least-squares complex gain alpha minimizing E|x_out - alpha * x_in|^2.

    Expectations are sample means over all antennas and samples. The residual
    x_out - alpha * x_in is uncorrelated with the input by construction.
    """
    if x_in.shape != x_out.shape:
        raise ValueError("input and output frames must have equal shapes")
    denom = np.mean(np.abs(x_in) ** 2)
    if denom == 0.0:
        raise ValueError("filtered input has zero power")
    alpha = np.mean(x_out * np.conj(x_in)) / denom
    return complex(alpha)


def acpr(bin_power: np.ndarray, L: int) -> float:
    """Adjacent-channel power ratio in dB from the bins of a shifted-spectrum PSD.

    The main channel is the centre ``n_bins // L`` bins; the adjacent
    channels are the equally wide bands immediately above and below it
    (truncated to the sampled spectrum when L == 2). Returns
    10*log10(max(upper, lower) / main).
    """
    if L < 2:
        raise ValueError("adjacent bands require an oversampling factor >= 2")
    n = bin_power.shape[-1]
    bw = n // L
    start = inband_start(n, bw)
    main = bin_power[start:start + bw].sum()
    if main <= 0.0:
        raise ValueError("main channel has no power")
    lower = bin_power[max(0, start - bw):start].sum()
    upper = bin_power[start + bw:min(n, start + 2 * bw)].sum()
    return float(10.0 * np.log10(max(upper, lower) / main))


def obo(antenna_power: np.ndarray, total_power: float) -> float:
    """Output back-off in dB: the budget over the mean per-frame power.

    ``antenna_power`` holds each antenna's mean backed-off power, [A] for
    one frame or [F, A] for several; a frame's power is its antenna sum.
    """
    total = float(np.mean(np.sum(antenna_power, axis=-1)))
    if total == 0.0:
        raise ValueError("zero-power frame")
    return float(10.0 * np.log10(total_power / total))
