"""The four training loss components and the augmented-Lagrangian state.

The constrained objective (reconstruct accurately, keep both peak ratios
low, keep the adjacent-channel leakage under a requirement) is folded into
one scalar: multiplier-weighted linear terms, fixed quadratic penalties for
the equality constraints, and a clamped quadratic term for the inequality.
Multipliers are raised by dual ascent on epoch-mean constraint values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..autodiff import (DiffTensor, log, maximum, narrow, softmax_nll, tmax,
                        tmean, tsum)
from .complexpair import CPair, cp_abs2, cp_transform

LOG10_SCALE = 10.0 / np.log(10.0)


@dataclass(frozen=True)
class LagrangianState:
    """Multipliers (updated by dual ascent) and fixed penalty weights."""

    lambda_2a: float = 0.015
    lambda_2b: float = 0.001
    lambda_3: float = 0.005
    rho_2a: float = 0.0015
    rho_2b: float = 0.00001
    rho_3: float = 0.001
    epoch: int = 0

    def __post_init__(self):
        if min(self.rho_2a, self.rho_2b, self.rho_3) <= 0:
            raise ValueError("penalty weights must be positive")
        if self.lambda_3 < 0:
            raise ValueError("the inequality multiplier must be nonnegative")


def update_multipliers(state: LagrangianState, mean_l2a: float, mean_l2b: float,
                       mean_l3: float) -> LagrangianState:
    """One dual-ascent step on epoch-mean constraint values.

    Equality multipliers move proportionally to their constraint; the
    inequality multiplier is clamped at zero.
    """
    return replace(
        state,
        lambda_2a=state.lambda_2a + state.rho_2a * mean_l2a,
        lambda_2b=state.lambda_2b + state.rho_2b * mean_l2b,
        lambda_3=max(0.0, state.lambda_3 + state.rho_3 * mean_l3),
        epoch=state.epoch + 1,
    )


def loss_reconstruction(logits: DiffTensor, targets: np.ndarray) -> DiffTensor:
    """Negative log-likelihood summed over every position, batch-averaged.

    Positions are (antenna, subcarrier, real/imag part); weight decay is the
    optimizer's job.
    """
    n_batch = logits.values.shape[0]
    return softmax_nll(logits, targets) * (1.0 / n_batch)


def _papr_mimo_batch(frame: CPair) -> DiffTensor:
    """Worst-antenna peak-to-average ratio per example, [B]."""
    power = cp_abs2(frame)                      # [B, A, N]
    peak = tmax(power, axis=2)                  # [B, A]
    mean = tmean(power, axis=2)                 # [B, A]
    return tmax(peak / mean, axis=1)            # [B]


def loss_papr(frame_encoded: CPair, frame_filtered: CPair) -> tuple[DiffTensor, DiffTensor]:
    """Batch-mean worst-antenna PAPR before and after the band-pass filter.

    Both are linear ratios; the max passes a subgradient to the attaining
    sample and antenna.
    """
    return tmean(_papr_mimo_batch(frame_encoded)), tmean(_papr_mimo_batch(frame_filtered))


def loss_acpr(frame_amplified: CPair, bank, acpr_req_db: float) -> DiffTensor:
    """Adjacent-channel power ratio of the amplified frames minus the target.

    The PSD is a rectangular-window periodogram averaged over the batch and
    antennas; band sums follow the centred layout of ``bank``. Negative
    values mean the requirement is met.
    """
    spectrum = cp_transform(frame_amplified, bank.fwd_shift_t)
    power = cp_abs2(spectrum) * (1.0 / bank.n_bins ** 2)
    psd = tmean(power, axis=(0, 1))             # [n_bins]
    n, bw = bank.n_bins, bank.n_inband
    start = (n - bw) // 2
    main = tsum(narrow(psd, 0, start, bw))
    lo = max(0, start - bw)
    lower = tsum(narrow(psd, 0, lo, start - lo))
    hi = min(n, start + 2 * bw)
    upper = tsum(narrow(psd, 0, start + bw, hi - (start + bw)))
    acpr_db = log(maximum(upper, lower) / main) * LOG10_SCALE
    return acpr_db - acpr_req_db


def total_loss(l1: DiffTensor, l2a: DiffTensor, l2b: DiffTensor, l3: DiffTensor,
               state: LagrangianState) -> DiffTensor:
    """Augmented-Lagrangian composition of the four components.

    The multiplier is squared as a numpy float64: a square that overflows
    gives an infinite term rather than a Python OverflowError, so the
    caller's finiteness check reports it.
    """
    clamped = maximum(l3 * state.rho_3 + state.lambda_3, 0.0)
    inequality = (clamped * clamped - np.float64(state.lambda_3) ** 2) \
        * (1.0 / (2.0 * state.rho_3))
    return (l1
            + l2a * state.lambda_2a + l2a * l2a * (state.rho_2a / 2.0)
            + l2b * state.lambda_2b + l2b * l2b * (state.rho_2b / 2.0)
            + inequality)
