"""End-to-end differentiable chain: encoder, filter, amplifier, channel, decoder.

Mirrors the numpy signal chain exactly (same spectral layout and
normalizations) so tape forwards can be cross-checked against it. The
Bussgang gain is estimated from forward values and treated as a constant
during backpropagation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..autodiff import DiffTensor, as_tensor, no_grad, reshape, tmean, transpose
from ..config import RfConfig, SystemConfig
from ..dsp import idft_oversampled
from ..modulation import pam_levels, symbols_to_level_indices
from ..rf import RappParams
from .complexpair import (CPair, DftBank, complexify_tensor, cp_abs2, cp_const,
                          cp_mul_complex, cp_scale, cp_transform)
from .losses import loss_acpr, loss_papr, loss_reconstruction
from .model import DecoderNet, EncoderNet, hard_decisions, left_matmul


def tape_bandpass(frame: CPair, bank: DftBank) -> CPair:
    """Brick-wall filter: forward transform, zero guard bins, inverse."""
    spectrum = cp_transform(frame, bank.fwd_shift_t)
    masked = cp_scale(spectrum, bank.mask)
    return cp_transform(masked, bank.inv_shift_t)


def tape_input_backoff(frame: CPair, ibo_db: float, params: RappParams) -> CPair:
    """Scale each example so its mean power sits ibo_db below saturation."""
    mean_power = tmean(cp_abs2(frame), axis=(1, 2), keepdims=True)
    target = params.a0 ** 2 / 10.0 ** (ibo_db / 10.0)
    return cp_scale(frame, (mean_power * (1.0 / target)) ** -0.5)


def tape_rapp(frame: CPair, params: RappParams) -> CPair:
    """Smooth AM/AM gain computed from |x|^2; phase untouched."""
    power = cp_abs2(frame)
    gain = ((power * (params.v ** 2 / params.a0 ** 2)) ** params.p + 1.0) \
        ** (-1.0 / (2.0 * params.p)) * params.v
    return cp_scale(frame, gain)


def tape_unpad(frame: CPair, bank: DftBank) -> CPair:
    """Forward transform keeping only the data bins: [B, A, N] -> [B, A, K]."""
    return cp_transform(frame, bank.analysis_t)


def empirical_bussgang(filtered: np.ndarray, amplified: np.ndarray,
                       per_example: bool) -> np.ndarray:
    """Least-squares gain between two complex arrays [B, A, N].

    Returns complex gains shaped [B, 1, 1] (per example) or [1, 1, 1]
    (batch-wide).
    """
    axes = (1, 2) if per_example else None
    denom = np.mean(np.abs(filtered) ** 2, axis=axes, keepdims=True)
    alpha = np.mean(amplified * np.conj(filtered), axis=axes, keepdims=True) / denom
    return alpha.reshape(-1, 1, 1)


@dataclass
class BatchResult:
    logits: DiffTensor
    l1: DiffTensor
    l2a: DiffTensor
    l2b: DiffTensor
    l3: DiffTensor
    alpha: np.ndarray


@dataclass
class CaeSystem:
    """The trainable transmitter/receiver pair plus the link it was built for.

    ``geometry`` and ``rf`` are the ``[system]`` and ``[rf]`` values of that
    link; the front end is always a RAPP amplifier with unit gain.
    """

    encoder: EncoderNet
    decoder: DecoderNet
    geometry: SystemConfig
    rf: RfConfig
    acpr_req_db: float = -45.0
    rapp: RappParams = field(init=False)
    bank: DftBank = field(init=False)

    def __post_init__(self):
        g = self.geometry
        self.rapp = self.rf.rapp_params(g.n_tx)
        self.bank = DftBank.build(g.oversample * g.n_subcarriers, g.n_subcarriers)

    @property
    def n_tx(self) -> int:
        return self.encoder.n_antennas

    @property
    def n_levels(self) -> int:
        return pam_levels(self.geometry.mod_order).size

    def parameters(self) -> dict[str, DiffTensor]:
        return {**self.encoder.parameters(), **self.decoder.parameters()}

    def buffers(self) -> dict[str, np.ndarray]:
        return {**self.encoder.buffers(), **self.decoder.buffers()}

    def transmit(self, grids: np.ndarray, train: bool) -> dict:
        """Run the transmit side; returns the encoded, filtered and amplified tape pairs."""
        n_batch = grids.shape[0]
        raw = idft_oversampled(grids, self.geometry.oversample)
        enc_in = np.concatenate([raw.real, raw.imag], axis=2)
        enc_in = as_tensor(enc_in.reshape(n_batch, 1, self.n_tx, -1))
        encoded_rows = self.encoder.forward(enc_in, train)
        encoded = complexify_tensor(encoded_rows, axis=2)
        filtered = tape_bandpass(encoded, self.bank)
        amplified = tape_rapp(tape_input_backoff(filtered, self.rf.ibo_db, self.rapp), self.rapp)
        return {"encoded": encoded, "filtered": filtered, "amplified": amplified}

    def receive(self, amplified: CPair, filtered: CPair, h: np.ndarray,
                noise: np.ndarray, start: np.ndarray, train: bool,
                alpha_override: np.ndarray | None = None) -> tuple[DiffTensor, np.ndarray]:
        """Channel, gain compensation, and decoding; returns logits and alpha.

        ``h`` is [B, K, n_rx, n_tx] and ``noise`` is [B, K, n_rx]; noise is
        added before the gain compensation, exactly as a receiver would see
        it. The gain estimate never carries gradients: one per batch in
        training, one per example otherwise. ``alpha_override`` pins it to a
        fixed value (used by the finite-difference oracle). ``start`` is the
        decoder's starting point.
        """
        n_batch, k = h.shape[0], h.shape[1]
        x_freq = tape_unpad(amplified, self.bank)              # [B, A, K]
        x_vec = CPair(                                          # [B, K, A, 1]
            reshape(transpose(x_freq.re, (0, 2, 1)), (n_batch, k, self.n_tx, 1)),
            reshape(transpose(x_freq.im, (0, 2, 1)), (n_batch, k, self.n_tx, 1)),
        )
        hx = left_matmul(cp_const(h), x_vec)
        y = CPair(hx.re + noise.real.reshape(n_batch, k, -1, 1),
                  hx.im + noise.imag.reshape(n_batch, k, -1, 1))
        if alpha_override is not None:
            alpha = np.asarray(alpha_override, dtype=np.complex128).reshape(-1, 1, 1)
        else:
            alpha = empirical_bussgang(filtered.values(), amplified.values(), not train)
        inv_alpha = (np.conj(alpha) / np.abs(alpha) ** 2).reshape(-1, 1, 1, 1)
        y_comp = cp_mul_complex(y, inv_alpha)
        logits = self.decoder.forward(h, y_comp, start, train)
        return logits, alpha

    def run_batch(self, grids: np.ndarray, h: np.ndarray, noise: np.ndarray,
                  rng: np.random.Generator, train: bool,
                  alpha_override: np.ndarray | None = None) -> BatchResult:
        """Full forward pass with all four loss components; the decoder starts from ``rng``."""
        start = self.decoder.initial_estimate(rng, grids.shape[0])
        stages = self.transmit(grids, train)
        logits, alpha = self.receive(stages["amplified"], stages["filtered"],
                                     h, noise, start, train, alpha_override)
        l1 = loss_reconstruction(logits, self.targets_for(grids))
        l2a, l2b = loss_papr(stages["encoded"], stages["filtered"])
        l3 = loss_acpr(stages["amplified"], self.bank, self.acpr_req_db)
        return BatchResult(logits, l1, l2a, l2b, l3, alpha)

    def detect(self, grids: np.ndarray, h: np.ndarray, noise: np.ndarray,
               start: np.ndarray) -> np.ndarray:
        """Inference through the same link: hard symbols [B, n_tx, K], no tape kept."""
        with no_grad():
            stages = self.transmit(grids, train=False)
            logits, _ = self.receive(stages["amplified"], stages["filtered"],
                                     h, noise, start, train=False)
        return hard_decisions(logits.values, self.geometry.mod_order)

    def targets_for(self, grids: np.ndarray) -> np.ndarray:
        """Per-position level indices [B, n_tx, 2K]: real block then imag block."""
        re_idx, im_idx = symbols_to_level_indices(grids, self.geometry.mod_order)
        return np.concatenate([re_idx, im_idx], axis=2)


def build_system(n_tx: int, n_rx: int, n_subcarriers: int, oversample: int,
                 mod_order: int, ibo_db: float, total_power: float = 1.0,
                 smoothness: float = 2.0, acpr_req_db: float = -45.0,
                 iterations: int = 10, activation: str = "selu",
                 init_scale: float = 1.0, seed: int = 0) -> CaeSystem:
    """Construct a freshly initialized system for a given link geometry."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(101,)))
    return _assemble_system(SystemConfig(n_tx, n_rx, n_subcarriers, oversample, mod_order),
                            RfConfig(ibo_db=ibo_db, smoothness=smoothness,
                                     total_power=total_power),
                            acpr_req_db, iterations, activation, init_scale, rng)


def _assemble_system(geometry: SystemConfig, rf: RfConfig, acpr_req_db: float,
                     iterations: int, activation: str, init_scale: float, rng) -> CaeSystem:
    """The system of :func:`build_system`, its weights drawn by ``rng.uniform``."""
    g = geometry
    encoder = EncoderNet(g.n_tx, g.oversample * g.n_subcarriers, activation=activation,
                         rng=rng, init_scale=init_scale)
    decoder = DecoderNet(g.n_tx, g.n_rx, g.n_subcarriers, pam_levels(g.mod_order).size,
                         iterations=iterations, activation=activation, rng=rng,
                         init_scale=init_scale)
    return CaeSystem(encoder, decoder, geometry, rf, acpr_req_db)
