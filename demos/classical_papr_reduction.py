"""Clipping-and-filtering versus selected mapping on the same frames.

Runs a paired Monte Carlo comparison and prints the exceedance curve of
the worst-antenna PAPR for each method.
"""

import numpy as np

from ofdmlab import OfdmGrid, bandpass_filter, idft_oversampled, papr_mimo
from ofdmlab.baselines import SlmCodebook, clip_and_filter, slm_encode

rng = np.random.default_rng(11)
book = SlmCodebook.random(seed=11, n_candidates=64, n_subcarriers=72)

plain, clipped, mapped = [], [], []
for _ in range(1500):
    grid = OfdmGrid.random(rng, 2, 72, 4)
    frame = idft_oversampled(grid.symbols, 4)
    plain.append(papr_mimo(bandpass_filter(frame, 4)))
    clipped.append(papr_mimo(clip_and_filter(frame, 4.08, 4)))
    slm_frame, _ = slm_encode(grid, book, 4)
    mapped.append(papr_mimo(bandpass_filter(slm_frame, 4)))

to_db = lambda x: 10 * np.log10(np.array(x))
plain, clipped, mapped = to_db(plain), to_db(clipped), to_db(mapped)

print("P(PAPR > t) on 1500 QPSK 2x2 frames, K=72, L=4")
print("   t      none     clip+filter   mapping(64)")
for t in np.arange(4.0, 11.5, 0.5):
    print(f"  {t:4.1f}   {np.mean(plain > t):7.4f}   {np.mean(clipped > t):9.4f}"
          f"   {np.mean(mapped > t):9.4f}")

for name, vals in (("none", plain), ("clip+filter", clipped), ("mapping", mapped)):
    print(f"{name:12s} 99th percentile: {np.quantile(vals, 0.99):.2f} dB")
