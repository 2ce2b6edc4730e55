"""The solid-state amplifier model and what it does to the spectrum.

Sweeps the AM/AM curve, then drives an OFDM frame through back-off and
saturation at several drive levels and reports the adjacent-channel power
ratio and output back-off of each.
"""

import numpy as np

from ofdmlab import (OfdmGrid, RappParams, acpr, apply_ibo, bandpass_filter,
                     estimate_psd, idft_oversampled, obo, rapp_amplify)

params = RappParams.from_power_budget(total_power=1.0, n_antennas=2)
print(f"amplifier: saturation amplitude {params.a0:.4f}, gain {params.v}, "
      f"smoothness {params.p}")

print("\nAM/AM response (input -> output amplitude):")
for a in (0.01, 0.2, 0.5, params.a0, 2.0, 10.0):
    print(f"  {a:6.2f} -> {params.amam(a):.4f}")
print(f"saturation never exceeds a0 = {params.a0:.4f}")

rng = np.random.default_rng(7)
grid = OfdmGrid.random(rng, 2, 72, 4)
filtered = bandpass_filter(idft_oversampled(grid.symbols, 4), 4)

print("\ndrive level vs. spectral purity (single frame):")
print("  IBO     ACPR        OBO")
for ibo_db in (3.0, 6.0, 9.0, 12.0):
    backed = apply_ibo(filtered, ibo_db, params)
    hot = rapp_amplify(backed, params)
    a = acpr(estimate_psd(hot), 4)
    o = obo(np.mean(np.abs(backed) ** 2, axis=-1), 1.0)
    print(f"  {ibo_db:4.1f}  {a:8.2f} dB  {o:6.2f} dB")
print("\nbacking off buys spectral purity and costs radiated power,")
print("which is exactly the trade the trained encoder negotiates.")
