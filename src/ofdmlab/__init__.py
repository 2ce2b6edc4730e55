"""MIMO-OFDM waveform laboratory.

Library layers:
  modulation / dsp / rf / channel  -- numpy signal chain and metrics
  autodiff                         -- reverse-mode AD engine
  cae                              -- trainable encoder/decoder system
  baselines                        -- clipping-filtering, SLM, MLE, ZF
  harness / config / cli           -- seeded Monte Carlo experiments
"""

from . import autodiff
from .modulation import OfdmGrid, grid_bits, qam_alphabet, pam_levels, symbols_to_bits
from .dsp import dft_unpad, estimate_psd, idft_oversampled, papr, papr_db, papr_mimo
from .rf import (RappParams, acpr, apply_ibo, bandpass_filter, bussgang_alpha,
                 obo, rapp_amplify)
from .channel import (Awgn, ChannelRealization, MultipathTaps, apply_channel,
                      draw_channel, noise_variance_for_psnr)

__all__ = [
    "Awgn", "ChannelRealization", "MultipathTaps", "OfdmGrid", "RappParams",
    "acpr", "apply_channel", "apply_ibo", "autodiff", "bandpass_filter",
    "bussgang_alpha", "dft_unpad", "draw_channel", "estimate_psd", "grid_bits",
    "idft_oversampled", "noise_variance_for_psnr", "obo", "papr", "papr_db",
    "papr_mimo", "pam_levels", "qam_alphabet", "rapp_amplify", "symbols_to_bits",
]
