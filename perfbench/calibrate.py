"""Host-speed calibration: a fixed numpy + Python kernel that owes nothing to ofdmlab.

On a shared host the CPU's speed drifts by tens of percent over minutes.
Code made of many small numpy calls and Python per-frame work (CCDF, PSD,
ACPR) slows down together with this kernel: CPU time tracks wall time and
steal time stays near zero, so the slowdown is the host's, not the
scheduler's. A workload that sets ``host_scaled`` runs this kernel between
its sub-runs and divides its rates by ``REFERENCE_S / median kernel time``
of the run.

Measured on a 2-vCPU x86 host, alternating kernel and sub-run calls for
5.5 minutes: scaling cut the per-call IQR/median of the papr-spectrum
sub-runs from 0.21-0.36 to 0.13-0.18. It did not help the BLAS-heavy
training step (0.08 raw, 0.14 scaled) or the 4x4 MLE (0.09 raw, 0.19
scaled), so train-smoke and detect-ber report raw rates.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.030     # kernel time that scaled rates are quoted at

_rng = np.random.default_rng(20230112)
_X = _rng.standard_normal((64, 2, 288)) + 1j * _rng.standard_normal((64, 2, 288))
_A = _rng.standard_normal((64, 64))


def kernel() -> float:
    total = 0.0
    for _ in range(20):
        power = np.abs(np.fft.ifft(_X, axis=-1)) ** 2
        ratio = power.max(axis=-1) / power.mean(axis=-1)
        total += float(np.sort(ratio, axis=None)[-1]) + float((_A @ _A)[0, 0])
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return total + acc


def sample() -> float:
    """Wall time of one kernel call."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
