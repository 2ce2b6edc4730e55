"""Transmit RF front-end: band-pass filter, input back-off, RAPP amplifier.

Also provides the Bussgang linearization gain and the spectral metrics
ACPR (from a PSD estimate) and OBO. The filter, back-off and amplifier take
one frame or a stack of frames; the Bussgang gain, ACPR and OBO take one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import PsdEstimate, Stage, TimeFrame, inband_start


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


def bandpass_filter(frame: TimeFrame) -> TimeFrame:
    """Zero every out-of-band bin; brick-wall response over the data band."""
    if frame.stage not in (Stage.RAW, Stage.ENCODED):
        raise ValueError(f"cannot band-pass filter a frame at stage {frame.stage}")
    n = frame.n_samples
    k = frame.n_inband
    spectrum = np.fft.fftshift(np.fft.fft(frame.samples, axis=-1), axes=-1)
    start = inband_start(n, k)
    mask = np.zeros(n)
    mask[start:start + k] = 1.0
    filtered = np.fft.ifft(np.fft.ifftshift(spectrum * mask, axes=-1), axis=-1)
    return frame.with_samples(filtered, stage=Stage.FILTERED)


def apply_ibo(frame: TimeFrame, ibo_db: float, params: RappParams) -> TimeFrame:
    """Scale each frame so its mean power sits ``ibo_db`` below a0^2."""
    power = frame.frame_power()
    if np.any(power == 0.0):
        raise ValueError("cannot back off an all-zero frame")
    target = params.a0 ** 2 / 10.0 ** (ibo_db / 10.0)
    scale = np.sqrt(target / power)
    return frame.with_samples(frame.samples * scale, stage=Stage.BACKED_OFF)


def rapp_amplify(frame: TimeFrame, params: RappParams) -> TimeFrame:
    """Apply the AM/AM response per sample; phase preserved.

    The complex gain is computed from |x|^2 directly, so the operation is
    smooth at the origin.
    """
    power = np.abs(frame.samples) ** 2
    gain = params.v * (1.0 + (params.v ** 2 * power / params.a0 ** 2) ** params.p) ** (-1.0 / (2 * params.p))
    return frame.with_samples(frame.samples * gain, stage=Stage.AMPLIFIED)


def bussgang_alpha(filtered: TimeFrame, amplified: TimeFrame) -> complex:
    """Least-squares complex gain alpha minimizing E|x_out - alpha * x_in|^2.

    Expectations are sample means over all antennas and samples. The residual
    x_out - alpha * x_in is uncorrelated with the input by construction.
    """
    x_in = filtered.samples
    x_out = amplified.samples
    if x_in.shape != x_out.shape:
        raise ValueError("input and output frames must have equal shapes")
    denom = np.mean(np.abs(x_in) ** 2)
    if denom == 0.0:
        raise ValueError("filtered input has zero power")
    alpha = np.mean(x_out * np.conj(x_in)) / denom
    return complex(alpha)


def acpr(psd: PsdEstimate, L: int) -> float:
    """Adjacent-channel power ratio in dB from a shifted-spectrum PSD.

    The main channel is the centre ``n_bins // L`` bins; the adjacent
    channels are the equally wide bands immediately above and below it
    (truncated to the sampled spectrum when L == 2). Returns
    10*log10(max(upper, lower) / main).
    """
    if L < 2:
        raise ValueError("adjacent bands require an oversampling factor >= 2")
    n = psd.n_bins
    bw = n // L
    start = inband_start(n, bw)
    main = psd.bin_power[start:start + bw].sum()
    if main <= 0.0:
        raise ValueError("main channel has no power")
    lower = psd.bin_power[max(0, start - bw):start].sum()
    upper = psd.bin_power[start + bw:min(n, start + 2 * bw)].sum()
    return float(10.0 * np.log10(max(upper, lower) / main))


def obo(backed_off: TimeFrame, total_power: float) -> float:
    """Output back-off in dB: budget over summed per-antenna mean powers."""
    per_antenna = np.mean(np.abs(backed_off.samples) ** 2, axis=1)
    total = per_antenna.sum()
    if total == 0.0:
        raise ValueError("zero-power frame")
    return float(10.0 * np.log10(total_power / total))
