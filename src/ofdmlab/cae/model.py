"""Trainable encoder (peak reduction) and iterative decoder (detection).

The encoder treats each antenna row independently: 1x3 kernels slide along
the realified sample axis, a skip path adds the first stage's pre-activation
map to the last one, a per-antenna linear stage restores the frame shape,
and a power-normalization stage enforces unit mean power per frame.

The decoder unrolls a fixed number of projected-gradient-style iterations.
Each iteration stacks the current estimate with the matched-filter products
of the channel (scaled by learned per-iteration step sizes), runs a 3x3
conv stack, and maps back to an estimate; the last iteration instead emits
per-position logits over the per-axis amplitude levels.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import (ACTIVATIONS, BatchNorm, DiffTensor, as_tensor, concat,
                        conv2d, linear, matmul, parameter, reshape, transpose, tsum)
from ..modulation import pam_levels
from .complexpair import CPair, cp_const, rows_to_vectors, vectors_to_rows

ENCODER_CHANNELS = (21, 15, 21)
DECODER_CHANNELS = (15, 21)


def left_matmul(m: CPair, x: CPair) -> CPair:
    """``m @ x`` on the tape for a constant complex matrix stack ``m`` from :func:`cp_const`."""
    return CPair(matmul(m.re, x.re) - matmul(m.im, x.im),
                 matmul(m.re, x.im) + matmul(m.im, x.re))


def _uniform_init(rng: np.random.Generator, shape, fan_in: int,
                  scale: float = 1.0) -> DiffTensor:
    """A weight drawn uniformly from +-scale/sqrt(fan_in), held in the draw's own array."""
    bound = scale / np.sqrt(fan_in)
    return DiffTensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


class EncoderNet:
    """Per-antenna convolutional peak-reduction block."""

    def __init__(self, n_antennas: int, n_time: int, activation: str = "selu",
                 rng: np.random.Generator | None = None, init_scale: float = 1.0):
        rng = rng or np.random.default_rng(0)
        self.n_antennas = n_antennas
        self.n_time = n_time
        self.activation = activation
        self.act = ACTIVATIONS[activation]
        width = 2 * n_time
        c1, c2, c3 = ENCODER_CHANNELS
        self.conv_w = [
            _uniform_init(rng, (c1, 1, 1, 3), 3, init_scale),
            _uniform_init(rng, (c2, c1, 1, 3), c1 * 3, init_scale),
            _uniform_init(rng, (c3, c2, 1, 3), c2 * 3, init_scale),
        ]
        self.conv_b = [parameter(np.zeros(c)) for c in (c1, c2, c3)]
        self.bns = [BatchNorm(c) for c in (c1, c2, c3)]
        self.fc_w = _uniform_init(rng, (width, c3 * width), c3 * width, init_scale)
        self.fc_b = parameter(np.zeros(width))

    def conv_weight_count(self) -> int:
        """Number of convolution weight entries (biases excluded)."""
        return sum(w.values.size for w in self.conv_w)

    def forward(self, x: DiffTensor, train: bool) -> DiffTensor:
        """[B, 1, n_antennas, 2*n_time] -> power-normalized [B, n_antennas, 2*n_time]."""
        n_batch = x.values.shape[0]
        width = 2 * self.n_time
        # Each batch norm normalizes its conv output in place. An activation
        # writes over its input where nothing else reads it; the
        # pre-activations of stages 1 and 3 also feed the skip add.
        pad = (0, 1)
        stage1_pre = self.bns[0](conv2d(x, self.conv_w[0], self.conv_b[0], padding=pad), train,
                                 inplace=True)
        stage1 = self.act(stage1_pre)
        stage2 = self.act(self.bns[1](conv2d(stage1, self.conv_w[1], self.conv_b[1], padding=pad),
                                      train, inplace=True), inplace=True)
        stage3_pre = self.bns[2](conv2d(stage2, self.conv_w[2], self.conv_b[2], padding=pad), train,
                                 inplace=True)
        merged = self.act(stage3_pre + stage1_pre, inplace=True)
        # shared per-antenna linear stage: [B, C, A, W] -> [B*A, C*W] -> [B, A, W]
        per_antenna = transpose(merged, (0, 2, 1, 3))
        flat = reshape(per_antenna, (n_batch * self.n_antennas, -1))
        out = linear(flat, self.fc_w, self.fc_b)
        out = reshape(out, (n_batch, self.n_antennas, width))
        # unit mean complex power per frame; one real scale per example
        power = tsum(out * out, axis=(1, 2), keepdims=True) * (1.0 / (self.n_antennas * self.n_time))
        return out * power ** -0.5

    def parameters(self) -> dict[str, DiffTensor]:
        params = {}
        for i, (w, b, bn) in enumerate(zip(self.conv_w, self.conv_b, self.bns), start=1):
            params[f"enc/conv{i}/w"] = w
            params[f"enc/conv{i}/b"] = b
            params[f"enc/bn{i}/gamma"] = bn.gamma
            params[f"enc/bn{i}/beta"] = bn.beta
        params["enc/fc/w"] = self.fc_w
        params["enc/fc/b"] = self.fc_b
        return params

    def buffers(self) -> dict[str, np.ndarray]:
        out = {}
        for i, bn in enumerate(self.bns, start=1):
            out[f"enc/bn{i}/running_mean"] = bn.running_mean
            out[f"enc/bn{i}/running_var"] = bn.running_var
        return out


class DecoderNet:
    """Unrolled iterative detector with per-iteration weights."""

    def __init__(self, n_tx: int, n_rx: int, n_subcarriers: int, n_levels: int,
                 iterations: int = 10, activation: str = "selu",
                 conv_padding: int = 2, rng: np.random.Generator | None = None,
                 init_scale: float = 1.0):
        rng = rng or np.random.default_rng(0)
        self.n_tx = n_tx
        self.n_rx = n_rx
        self.n_subcarriers = n_subcarriers
        self.n_levels = n_levels
        self.iterations = iterations
        self.activation = activation
        self.act = ACTIVATIONS[activation]
        self.conv_padding = conv_padding
        c1, c2 = DECODER_CHANNELS
        height = 3 * n_tx
        width = 2 * n_subcarriers
        h_out = height + 2 * (2 * conv_padding - 2)
        w_out = width + 2 * (2 * conv_padding - 2)
        flat_in = c2 * h_out * w_out
        est_size = n_tx * width

        self.conv_a_w, self.conv_a_b, self.bn_a = [], [], []
        self.conv_b_w, self.conv_b_b, self.bn_b = [], [], []
        self.fc_w, self.fc_b = [], []
        self.delta1, self.delta2 = [], []
        for it in range(iterations):
            self.conv_a_w.append(_uniform_init(rng, (c1, 1, 3, 3), 9, init_scale))
            self.conv_a_b.append(parameter(np.zeros(c1)))
            self.bn_a.append(BatchNorm(c1))
            self.conv_b_w.append(_uniform_init(rng, (c2, c1, 3, 3), c1 * 9, init_scale))
            self.conv_b_b.append(parameter(np.zeros(c2)))
            self.bn_b.append(BatchNorm(c2))
            out_size = est_size if it < iterations - 1 else est_size * n_levels
            self.fc_w.append(_uniform_init(rng, (out_size, flat_in), flat_in, init_scale))
            self.fc_b.append(parameter(np.zeros(out_size)))
            self.delta1.append(parameter(1.0))
            self.delta2.append(parameter(-1.0))

    def initial_estimate(self, rng: np.random.Generator, n_batch: int) -> np.ndarray:
        """Random starting point [B, n_tx, 2K]; an all-zero start degrades convergence."""
        width = 2 * self.n_subcarriers
        return rng.uniform(-1.0, 1.0, size=(n_batch, self.n_tx, width))

    def forward(self, h: np.ndarray, y: CPair, start: np.ndarray, train: bool) -> DiffTensor:
        """Detect from per-subcarrier observations.

        ``h`` is the constant channel tensor [B, K, n_rx, n_tx]; ``y`` holds
        the (already gain-compensated) observations as [B, K, n_rx, 1] pairs;
        ``start`` [B, n_tx, 2K] is the starting point, drawn by
        :meth:`initial_estimate`. Returns logits [B, n_tx, 2K, n_levels].
        """
        n_batch, k = h.shape[0], h.shape[1]
        if k != self.n_subcarriers or h.shape[2] != self.n_rx or h.shape[3] != self.n_tx:
            raise ValueError("channel tensor does not match the decoder layout")
        hh = np.conj(np.swapaxes(h, -1, -2))                 # H^H
        hhh = cp_const(np.einsum("bkij,bkjl->bkil", hh, h))   # H^H H, split once

        # matched observation feature, shared across iterations
        hy = left_matmul(cp_const(hh), y)
        hy_rows = vectors_to_rows(CPair(reshape(hy.re, (n_batch, k, self.n_tx)),
                                        reshape(hy.im, (n_batch, k, self.n_tx))))

        estimate = as_tensor(start)
        logits = None
        for it in range(self.iterations):
            hhx = left_matmul(hhh, self._rows_to_matvec(estimate))
            hhx_rows = vectors_to_rows(CPair(
                reshape(hhx.re, (n_batch, k, self.n_tx)),
                reshape(hhx.im, (n_batch, k, self.n_tx)),
            ))
            features = concat([
                estimate,
                hy_rows * self.delta1[it],
                hhx_rows * self.delta2[it],
            ], axis=1)
            features = reshape(features, (n_batch, 1, 3 * self.n_tx, 2 * self.n_subcarriers))
            # conv -> batch norm -> activation, each writing over the last one's output
            pad = (self.conv_padding, self.conv_padding)
            conv_a = conv2d(features, self.conv_a_w[it], self.conv_a_b[it], padding=pad)
            hidden = self.act(self.bn_a[it](conv_a, train, inplace=True), inplace=True)
            conv_b = conv2d(hidden, self.conv_b_w[it], self.conv_b_b[it], padding=pad)
            hidden = self.act(self.bn_b[it](conv_b, train, inplace=True), inplace=True)
            flat = reshape(hidden, (n_batch, -1))
            out = linear(flat, self.fc_w[it], self.fc_b[it])
            if it < self.iterations - 1:
                estimate = reshape(out, (n_batch, self.n_tx, 2 * self.n_subcarriers))
            else:
                logits = reshape(out, (n_batch, self.n_tx, 2 * self.n_subcarriers, self.n_levels))
        return logits

    def _rows_to_matvec(self, estimate: DiffTensor) -> CPair:
        """Realified rows [B, A, 2K] -> per-subcarrier column vectors [B, K, A, 1]."""
        n_batch = estimate.values.shape[0]
        vec = rows_to_vectors(estimate)
        return CPair(
            reshape(vec.re, (n_batch, self.n_subcarriers, self.n_tx, 1)),
            reshape(vec.im, (n_batch, self.n_subcarriers, self.n_tx, 1)),
        )

    def parameters(self) -> dict[str, DiffTensor]:
        params = {}
        for it in range(self.iterations):
            prefix = f"dec/it{it:02d}"
            params[f"{prefix}/conv_a/w"] = self.conv_a_w[it]
            params[f"{prefix}/conv_a/b"] = self.conv_a_b[it]
            params[f"{prefix}/bn_a/gamma"] = self.bn_a[it].gamma
            params[f"{prefix}/bn_a/beta"] = self.bn_a[it].beta
            params[f"{prefix}/conv_b/w"] = self.conv_b_w[it]
            params[f"{prefix}/conv_b/b"] = self.conv_b_b[it]
            params[f"{prefix}/bn_b/gamma"] = self.bn_b[it].gamma
            params[f"{prefix}/bn_b/beta"] = self.bn_b[it].beta
            params[f"{prefix}/fc/w"] = self.fc_w[it]
            params[f"{prefix}/fc/b"] = self.fc_b[it]
            params[f"{prefix}/delta1"] = self.delta1[it]
            params[f"{prefix}/delta2"] = self.delta2[it]
        return params

    def buffers(self) -> dict[str, np.ndarray]:
        out = {}
        for it in range(self.iterations):
            prefix = f"dec/it{it:02d}"
            out[f"{prefix}/bn_a/running_mean"] = self.bn_a[it].running_mean
            out[f"{prefix}/bn_a/running_var"] = self.bn_a[it].running_var
            out[f"{prefix}/bn_b/running_mean"] = self.bn_b[it].running_mean
            out[f"{prefix}/bn_b/running_var"] = self.bn_b[it].running_var
        return out


def hard_decisions(logits_values: np.ndarray, mod_order: int) -> np.ndarray:
    """Map per-position argmax levels back to complex symbols [B, n_tx, K]."""
    levels = pam_levels(mod_order)
    idx = np.argmax(logits_values, axis=-1)
    k = idx.shape[2] // 2
    return levels[idx[:, :, :k]] + 1j * levels[idx[:, :, k:]]
