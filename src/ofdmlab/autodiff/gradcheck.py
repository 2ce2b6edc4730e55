"""Finite-difference verification of every layer's backward pass."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import layers
from .tensor import DiffTensor, concat, matmul, maximum, narrow, parameter, tmax, tmean, tsum

DEFAULT_STEP = 1e-6


def numerical_gradient(func, arrays: list[np.ndarray], step: float = DEFAULT_STEP) -> list[np.ndarray]:
    """Central finite differences of a scalar function of several arrays."""
    grads = []
    for array in arrays:
        grad = np.zeros_like(array)
        flat = array.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = func()
            flat[i] = orig - step
            down = func()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * step)
        grads.append(grad)
    return grads


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-8)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


@dataclass
class CheckResult:
    name: str
    max_relative_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_relative_error < self.tolerance


def check_scalar_fn(name: str, build_loss, params: list[DiffTensor],
                    tolerance: float = 1e-5, step: float = DEFAULT_STEP) -> CheckResult:
    """Compare backpropagated gradients of ``build_loss()`` to central differences."""
    loss = build_loss()
    for p in params:
        p.grad = None
    loss.backward()
    analytic = [np.array(p.grad) if p.grad is not None else np.zeros_like(p.values) for p in params]
    numeric = numerical_gradient(lambda: float(build_loss().values),
                                 [p.values for p in params], step=step)
    err = max(relative_error(a, n) for a, n in zip(analytic, numeric))
    return CheckResult(name, err, tolerance)


def run_all(seed: int = 0) -> list[CheckResult]:
    """Gradient-check each layer type on random small instances."""
    rng = np.random.default_rng(seed)
    results = []

    def rnd(*shape):
        return rng.standard_normal(shape)

    # elementwise arithmetic chain
    a = parameter(rnd(3, 4))
    b = parameter(rnd(3, 4) + 3.0)
    results.append(check_scalar_fn(
        "elementwise",
        lambda: tsum((a * b + a / b - b) * (a * b + a / b - b)),
        [a, b]))

    # exp/log/power
    c = parameter(np.abs(rnd(5)) + 0.5)
    from .tensor import exp as texp, log as tlog
    results.append(check_scalar_fn(
        "exp_log_pow",
        lambda: tsum(texp(c * 0.3) + tlog(c) + c ** 1.7),
        [c]))

    # max reductions and elementwise maximum
    d = parameter(rnd(4, 6))
    e = parameter(rnd(4, 6))
    results.append(check_scalar_fn(
        "max_ops",
        lambda: tsum(tmax(d, axis=1)) + tsum(maximum(d, e)) + tmean(d) * 2.0,
        [d, e]))

    # matmul / reshape / narrow / concat
    m1 = parameter(rnd(2, 3, 4))
    m2 = parameter(rnd(2, 4, 5))
    results.append(check_scalar_fn(
        "matmul_shape",
        lambda: tsum(matmul(m1, m2) * matmul(m1, m2))
        + tsum(concat([narrow(m1, 2, 0, 2), narrow(m1, 2, 2, 2)], axis=2)),
        [m1, m2]))

    # fully connected
    x = parameter(rnd(3, 6))
    w = parameter(rnd(4, 6) / np.sqrt(6))
    bias = parameter(rnd(4))
    results.append(check_scalar_fn(
        "fully_connected",
        lambda: tsum(layers.linear(x, w, bias) ** 2.0),
        [x, w, bias]))

    # conv2d
    xc = parameter(rnd(2, 3, 4, 7))
    wc = parameter(rnd(5, 3, 1, 3) / 3.0)
    bc = parameter(rnd(5))
    results.append(check_scalar_fn(
        "conv2d",
        lambda: tsum(layers.conv2d(xc, wc, bc, padding=(0, 1)) ** 2.0),
        [xc, wc, bc]))

    # activations at points away from the kink
    xa = parameter(np.concatenate([rnd(8) + 0.5, rnd(8) - 0.5]))
    results.append(check_scalar_fn(
        "selu", lambda: tsum(layers.selu(xa) ** 2.0), [xa]))
    results.append(check_scalar_fn(
        "gelu", lambda: tsum(layers.gelu(xa) ** 2.0), [xa]))

    # batch norm, training mode; random affine and a random projection keep
    # the loss sensitive to the input direction (plain sum-of-squares of a
    # normalized output is nearly input-invariant)
    xb = parameter(rnd(6, 3, 2, 5))
    bn = layers.BatchNorm(3)
    bn.gamma.values[:] = rng.standard_normal(3)
    bn.beta.values[:] = rng.standard_normal(3)
    proj = rng.standard_normal((6, 3, 2, 5))

    def bn_loss():
        bn.running_mean[:] = 0.0
        bn.running_var[:] = 1.0
        out = bn(xb, train=True)
        lin = tsum(out * proj)
        return lin * lin + tsum(out * out * proj)

    results.append(check_scalar_fn("batch_norm", bn_loss, [xb, bn.gamma, bn.beta]))

    # softmax + negative log likelihood
    logits = parameter(rnd(4, 5, 3))
    targets = rng.integers(0, 3, size=(4, 5))
    results.append(check_scalar_fn(
        "softmax_nll",
        lambda: layers.softmax_nll(logits, targets),
        [logits], tolerance=1e-5))

    return results
