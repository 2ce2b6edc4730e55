"""Linearizing a saturated amplifier with one least-squares gain.

The amplifier output splits into alpha * input + distortion, with the
distortion uncorrelated with the input. The demo estimates alpha at
several drive levels and shows the residual orthogonality.
"""

import numpy as np

from ofdmlab import (OfdmGrid, RappParams, apply_ibo, bandpass_filter,
                     bussgang_alpha, idft_oversampled, rapp_amplify)

rng = np.random.default_rng(3)
params = RappParams.from_power_budget(1.0, 2)
grid = OfdmGrid.random(rng, 2, 72, 4)
filtered = bandpass_filter(idft_oversampled(grid.symbols, 4), 4)

print(" IBO    alpha          |residual| / |signal|   E(res * conj(in))")
for ibo_db in (0.0, 3.0, 6.0, 9.0, 12.0):
    backed = apply_ibo(filtered, ibo_db, params)
    hot = rapp_amplify(backed, params)
    alpha = bussgang_alpha(filtered, hot)
    residual = hot - alpha * filtered
    ratio = np.sqrt(np.mean(np.abs(residual) ** 2) / np.mean(np.abs(hot) ** 2))
    cross = np.mean(residual * np.conj(filtered))
    print(f"{ibo_db:5.1f}  {alpha.real:.6f}{alpha.imag:+.1e}j   {ratio:10.4f}"
          f"            {abs(cross):.2e}")

print("\nharder drive -> smaller alpha and more uncorrelated distortion;")
print("the receiver divides by alpha before detection.")
