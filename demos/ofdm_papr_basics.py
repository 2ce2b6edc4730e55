"""A first walk through the OFDM signal chain and its peak problem.

Builds QPSK frames, looks at the oversampled waveform, and tabulates
how often the worst-antenna peak-to-average ratio exceeds a threshold.
"""

import numpy as np

from ofdmlab import OfdmGrid, dft_unpad, idft_oversampled, papr_db, papr_mimo

rng = np.random.default_rng(1)

# one frame: 2 antennas, 72 subcarriers, QPSK, oversampled by 4
grid = OfdmGrid.random(rng, n_antennas=2, n_subcarriers=72, order=4)
frame = idft_oversampled(grid.symbols, 4)
print(f"frame shape: {frame.shape}, mean power {np.mean(np.abs(frame) ** 2):.6f}")
print(f"per-antenna PAPR: {[f'{papr_db(row):.2f} dB' for row in frame]}")
print(f"worst antenna:    {10 * np.log10(papr_mimo(frame)):.2f} dB")

# the transform pair is exact on the data band
recovered = dft_unpad(frame, 72)
print(f"round-trip error: {np.abs(recovered - grid.symbols).max():.3e}")

# how bad do the peaks get? empirical exceedance over 2000 frames
thresholds = np.arange(6.0, 12.5, 0.5)
values = []
for _ in range(2000):
    g = OfdmGrid.random(rng, 2, 72, 4)
    values.append(10 * np.log10(papr_mimo(idft_oversampled(g.symbols, 4))))
values = np.array(values)

print("\nthreshold  P(PAPR > threshold)")
for t in thresholds:
    print(f"  {t:5.1f} dB   {np.mean(values > t):.4f}")
print("\nhalf the frames sit above ~8 dB: that is the amplifier's problem.")
