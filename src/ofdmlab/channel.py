"""Per-subcarrier MIMO fading channels and AWGN.

Frequency-selective realizations are generated from i.i.d. Gaussian tap
matrices with an exponential power-delay profile and transformed to one
matrix per subcarrier; the draw is normalized so E||H[k]||_F^2 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Awgn:
    """Fixed identity-like channel; requires n_rx == n_tx."""


@dataclass(frozen=True)
class MultipathTaps:
    """Rayleigh taps with geometric power decay.

    ``decay`` is the power ratio between consecutive taps; by default it is
    chosen so the last tap carries 1% of the first.
    """

    count: int = 13
    decay: float | None = None

    def tap_powers(self) -> np.ndarray:
        if self.count < 1:
            raise ValueError("tap count must be >= 1")
        decay = self.decay
        if decay is None:
            decay = 1.0 if self.count == 1 else 0.01 ** (1.0 / (self.count - 1))
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must lie in (0, 1]")
        powers = decay ** np.arange(self.count)
        return powers / powers.sum()


@dataclass(frozen=True)
class ChannelRealization:
    """One complex matrix per subcarrier plus the receiver noise variance."""

    h: np.ndarray          # [n_sub, n_rx, n_tx]
    sigma_w2: float
    pdp: np.ndarray        # tap-power profile used for the draw

    def __post_init__(self):
        h = np.asarray(self.h, dtype=np.complex128)
        if h.ndim != 3 or h.size == 0:
            raise ValueError("h must have shape [n_sub, n_rx, n_tx]")
        if not np.all(np.isfinite(h.view(float))):
            raise ValueError("channel entries must be finite")
        if self.sigma_w2 < 0:
            raise ValueError("noise variance must be nonnegative")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "pdp", np.asarray(self.pdp, dtype=float))

    @property
    def n_subcarriers(self) -> int:
        return self.h.shape[0]

    @property
    def n_rx(self) -> int:
        return self.h.shape[1]

    @property
    def n_tx(self) -> int:
        return self.h.shape[2]


def noise_variance_for_psnr(p_snr_db: float, total_power: float = 1.0) -> float:
    """Complex noise variance that realizes a peak-SNR target."""
    return total_power / 10.0 ** (p_snr_db / 10.0)


def draw_channel(rng: np.random.Generator, n_sub: int, n_tx: int, n_rx: int,
                 profile, sigma_w2: float = 0.0) -> ChannelRealization:
    """Draw one channel realization for a frame.

    ``Awgn`` yields the fixed matrix I/sqrt(n_tx) on every subcarrier;
    ``MultipathTaps`` draws tap matrices with entry variance p_t/(n_rx*n_tx)
    and FFTs across the tap axis, so E||H[k]||_F^2 = 1 either way.
    """
    if n_sub < 1 or n_tx < 1 or n_rx < 1:
        raise ValueError("dimensions must be positive")
    if isinstance(profile, Awgn):
        if n_rx != n_tx:
            raise ValueError("the AWGN profile requires n_rx == n_tx")
        h = np.broadcast_to(np.eye(n_tx) / np.sqrt(n_tx), (n_sub, n_rx, n_tx)).astype(np.complex128)
        return ChannelRealization(h.copy(), sigma_w2, np.ones(1))
    if isinstance(profile, MultipathTaps):
        if profile.count > n_sub:
            raise ValueError("tap count cannot exceed the subcarrier count")
        powers = profile.tap_powers() / (n_rx * n_tx)
        shape = (profile.count, n_rx, n_tx)
        taps = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        taps *= np.sqrt(powers)[:, None, None]
        padded = np.zeros((n_sub, n_rx, n_tx), dtype=np.complex128)
        padded[:profile.count] = taps
        h = np.fft.fft(padded, axis=0)
        return ChannelRealization(h, sigma_w2, powers * (n_rx * n_tx))
    raise ValueError(f"unknown channel profile {profile!r}")


def apply_channel(x_freq: np.ndarray, chan: ChannelRealization,
                  rng: np.random.Generator) -> np.ndarray:
    """Propagate per-subcarrier symbol vectors: y[k] = H[k] x[k] + n[k].

    ``x_freq`` has shape [n_sub, n_tx]; the noise is circularly symmetric
    complex Gaussian with per-entry variance ``chan.sigma_w2``.
    """
    x_freq = np.asarray(x_freq, dtype=np.complex128)
    if x_freq.shape != (chan.n_subcarriers, chan.n_tx):
        raise ValueError("x_freq shape does not match the channel")
    y = np.einsum("krt,kt->kr", chan.h, x_freq)
    if chan.sigma_w2 > 0.0:
        shape = y.shape
        noise = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        y = y + noise * np.sqrt(chan.sigma_w2 / 2.0)
    return y
