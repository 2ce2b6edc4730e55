"""Channel generation and noise calibration."""

import numpy as np
import pytest

from ofdmlab import (Awgn, MultipathTaps, apply_channel, draw_channel,
                     noise_variance_for_psnr)


class TestDrawChannel:
    def test_awgn_profile_is_scaled_identity(self):
        rng = np.random.default_rng(0)
        chan = draw_channel(rng, 8, 4, 4, Awgn())
        for k in range(8):
            assert np.abs(chan.h[k] - np.eye(4) / 2.0).max() < 1e-15
            assert abs(np.linalg.norm(chan.h[k], "fro") ** 2 - 1.0) < 1e-12

    def test_awgn_profile_needs_square_setup(self):
        with pytest.raises(ValueError):
            draw_channel(np.random.default_rng(0), 8, 2, 4, Awgn())

    def test_single_tap_is_frequency_flat(self):
        rng = np.random.default_rng(1)
        chan = draw_channel(rng, 16, 2, 2, MultipathTaps(1))
        assert np.abs(chan.h - chan.h[0][None]).max() < 1e-12

    def test_normalization_monte_carlo(self):
        rng = np.random.default_rng(2)
        total = 0.0
        draws = 20_000
        for _ in range(draws):
            chan = draw_channel(rng, 16, 2, 2, MultipathTaps(13, 0.5))
            total += np.mean(np.linalg.norm(chan.h, axis=(1, 2)) ** 2)
        assert abs(total / draws - 1.0) < 0.01

    def test_too_many_taps_rejected(self):
        with pytest.raises(ValueError):
            draw_channel(np.random.default_rng(3), 8, 2, 2, MultipathTaps(9))

    def test_default_decay_puts_last_tap_at_one_percent(self):
        powers = MultipathTaps(13).tap_powers()
        assert abs(powers[-1] / powers[0] - 0.01) < 1e-12


class TestApplyChannel:
    def test_noiseless_identity(self):
        rng = np.random.default_rng(4)
        chan = draw_channel(rng, 8, 2, 2, Awgn(), sigma_w2=0.0)
        x = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        y = apply_channel(x, chan, rng)
        assert np.abs(y - x / np.sqrt(2)).max() < 1e-12

    def test_pure_noise_variance(self):
        rng = np.random.default_rng(5)
        sigma = 0.37
        chan = draw_channel(rng, 50_000, 1, 1, MultipathTaps(1), sigma_w2=sigma)
        y = apply_channel(np.zeros((50_000, 1), dtype=complex), chan, rng)
        measured = np.mean(np.abs(y) ** 2)
        assert abs(measured / sigma - 1.0) < 0.02

    def test_known_product(self):
        rng = np.random.default_rng(6)
        h = np.array([[[1.0 + 1j, 2.0], [0.5j, -1.0]]])
        from ofdmlab import ChannelRealization
        chan = ChannelRealization(h, 0.0, np.ones(1))
        x = np.array([[1.0 - 1j, 2.0 + 0.5j]])
        y = apply_channel(x, chan, rng)
        assert np.abs(y[0] - h[0] @ x[0]).max() < 1e-12

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        chan = draw_channel(rng, 8, 2, 2, Awgn())
        with pytest.raises(ValueError):
            apply_channel(np.zeros((8, 3), dtype=complex), chan, rng)

    def test_psnr_noise_calibration(self):
        # realized noise power matches the peak-SNR target within 2%
        rng = np.random.default_rng(8)
        p_snr_db = 13.0
        sigma = noise_variance_for_psnr(p_snr_db, total_power=1.0)
        assert abs(sigma - 10 ** (-1.3)) < 1e-15
        chan = draw_channel(rng, 100_000, 1, 1, MultipathTaps(1), sigma_w2=sigma)
        y = apply_channel(np.zeros((100_000, 1), dtype=complex), chan, rng)
        assert abs(np.mean(np.abs(y) ** 2) / sigma - 1.0) < 0.02
