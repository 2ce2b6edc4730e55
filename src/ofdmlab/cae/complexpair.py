"""Complex arithmetic on the tape as (real, imag) tensor pairs.

The DFT matrices built here use the same centred-spectrum conventions as
the numpy signal chain, so tape forwards agree with it to rounding error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autodiff import DiffTensor, as_tensor, concat, matmul, narrow, transpose
from ..dsp import inband_start


@dataclass
class CPair:
    """A complex tensor as two equally shaped real tensors."""

    re: DiffTensor
    im: DiffTensor

    @property
    def shape(self):
        return self.re.values.shape

    def values(self) -> np.ndarray:
        """Complex numpy view of the current forward values."""
        return self.re.values + 1j * self.im.values


def cp_const(z: np.ndarray) -> CPair:
    z = np.asarray(z, dtype=np.complex128)
    return CPair(as_tensor(z.real.copy()), as_tensor(z.imag.copy()))


def cp_scale(a: CPair, s) -> CPair:
    """Multiply by a real scalar/tensor (broadcasting allowed)."""
    return CPair(a.re * s, a.im * s)


def cp_mul_complex(a: CPair, c) -> CPair:
    """Multiply by a complex constant (scalar or broadcastable array)."""
    c = np.asarray(c, dtype=np.complex128)
    return CPair(a.re * c.real - a.im * c.imag, a.re * c.imag + a.im * c.real)


def cp_abs2(a: CPair) -> DiffTensor:
    return a.re * a.re + a.im * a.im


def complexify_tensor(t: DiffTensor, axis: int = -1) -> CPair:
    """Split a realified tensor back into a pair; ``axis`` must be even-sized."""
    n = t.values.shape[axis]
    if n % 2 != 0:
        raise ValueError("realified axis must have even length")
    return CPair(narrow(t, axis, 0, n // 2), narrow(t, axis, n // 2, n // 2))


def vectors_to_rows(a: CPair) -> DiffTensor:
    """[B, K, A] per-subcarrier vectors -> realified antenna rows [B, A, 2K]."""
    re = transpose(a.re, (0, 2, 1))
    im = transpose(a.im, (0, 2, 1))
    return concat([re, im], axis=2)


def rows_to_vectors(t: DiffTensor) -> CPair:
    """Realified antenna rows [B, A, 2K] -> per-subcarrier vectors [B, K, A]."""
    pair = complexify_tensor(t, axis=2)
    return CPair(transpose(pair.re, (0, 2, 1)), transpose(pair.im, (0, 2, 1)))


# -- DFT matrices matching the numpy chain ----------------------------------


def synthesis_matrix(n_bins: int, n_inband: int) -> np.ndarray:
    """[n_bins, n_inband] matrix: time samples = A @ subcarrier symbols."""
    start = inband_start(n_bins, n_inband)
    freqs = np.arange(n_inband) + start - n_bins // 2
    n = np.arange(n_bins)[:, None]
    return np.exp(2j * np.pi * freqs[None, :] * n / n_bins) / np.sqrt(n_inband)


def analysis_matrix(n_bins: int, n_inband: int) -> np.ndarray:
    """[n_inband, n_bins] matrix undoing :func:`synthesis_matrix` exactly."""
    return synthesis_matrix(n_bins, n_inband).conj().T * (n_inband / n_bins)


def shifted_dft_matrix(n_bins: int) -> np.ndarray:
    """[n_bins, n_bins] forward DFT with rows in centred (shifted) order."""
    rows = np.arange(n_bins)[:, None] - n_bins // 2
    cols = np.arange(n_bins)[None, :]
    return np.exp(-2j * np.pi * rows * cols / n_bins)


def inband_mask(n_bins: int, n_inband: int) -> np.ndarray:
    mask = np.zeros(n_bins)
    start = inband_start(n_bins, n_inband)
    mask[start:start + n_inband] = 1.0
    return mask


@dataclass(frozen=True)
class DftBank:
    """Constant transform matrices for one (n_bins, n_inband) layout.

    All matrices are stored transposed so row-signal tensors [..., n] can be
    transformed with a single right-matmul.
    """

    n_bins: int
    n_inband: int
    analysis_t: np.ndarray    # [n_bins, n_inband]
    fwd_shift_t: np.ndarray   # [n_bins, n_bins]
    inv_shift_t: np.ndarray   # [n_bins, n_bins]
    mask: np.ndarray          # [n_bins]

    @classmethod
    def build(cls, n_bins: int, n_inband: int) -> "DftBank":
        fwd = shifted_dft_matrix(n_bins)
        return cls(
            n_bins=n_bins,
            n_inband=n_inband,
            analysis_t=analysis_matrix(n_bins, n_inband).T.copy(),
            fwd_shift_t=fwd.T.copy(),
            inv_shift_t=(fwd.conj().T / n_bins).T.copy(),
            mask=inband_mask(n_bins, n_inband),
        )


def cp_transform(a: CPair, matrix_t: np.ndarray) -> CPair:
    """Right-multiply the last axis by a constant complex matrix."""
    mr, mi = matrix_t.real.copy(), matrix_t.imag.copy()
    return CPair(
        matmul(a.re, mr) - matmul(a.im, mi),
        matmul(a.re, mi) + matmul(a.im, mr),
    )
