"""Band-pass filter, back-off, RAPP amplifier, Bussgang gain, ACPR/OBO."""

import numpy as np
import pytest

from ofdmlab import (OfdmGrid, RappParams, acpr, apply_ibo, bandpass_filter,
                     bussgang_alpha, estimate_psd, idft_oversampled, obo, papr_mimo,
                     rapp_amplify)
from ofdmlab.baselines import clip_only
from ofdmlab.dsp import inband_start


def ofdm_frame(seed=0, n_ant=2, k=72, oversample=4, order=4):
    rng = np.random.default_rng(seed)
    grid = OfdmGrid.random(rng, n_ant, k, order)
    return idft_oversampled(grid.symbols, oversample)


def mean_power(samples):
    return np.mean(np.abs(samples) ** 2)


class TestBandpass:
    def test_inband_signal_unchanged(self):
        frame = ofdm_frame(1)
        out = bandpass_filter(frame, 4)
        assert np.abs(out - frame).max() < 1e-12

    def test_guard_only_signal_zeroed(self):
        k, oversample = 8, 4
        n = k * oversample
        rng = np.random.default_rng(2)
        spectrum = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        start = inband_start(n, k)
        spectrum[start:start + k] = 0.0
        samples = n * np.fft.ifft(np.fft.ifftshift(spectrum))[None, :]
        out = bandpass_filter(samples, oversample)
        assert np.abs(out).max() < 1e-12

    def test_clipped_frame_is_band_limited_after_filter(self):
        frame = ofdm_frame(3)
        clipped = clip_only(frame, 2.0)
        filtered = bandpass_filter(clipped, 4)
        psd = estimate_psd(filtered)
        k, n = 72, frame.shape[-1]
        start = inband_start(n, k)
        guard = psd.sum() - psd[start:start + k].sum()
        assert guard < 1e-20 * psd.sum()

    def test_bad_oversampling_rejected(self):
        with pytest.raises(ValueError):
            bandpass_filter(ofdm_frame(4), 0)


class TestApplyIbo:
    def test_zero_backoff_hits_saturation_power(self):
        frame = ofdm_frame(5)
        params = RappParams(a0=1.0)
        out = apply_ibo(frame, 0.0, params)
        assert abs(mean_power(out) - 1.0) < 1e-9

    def test_three_db_is_half_power(self):
        frame = ofdm_frame(6)
        params = RappParams(a0=1.0)
        out = apply_ibo(frame, 3.010299957, params)
        assert abs(mean_power(out) - 0.5) < 1e-9

    def test_papr_unchanged(self):
        frame = ofdm_frame(7)
        params = RappParams.from_power_budget(1.0, frame.shape[0])
        out = apply_ibo(frame, 6.0, params)
        assert abs(papr_mimo(out) - papr_mimo(frame)) < 1e-12

    def test_zero_frame_rejected(self):
        params = RappParams(a0=1.0)
        with pytest.raises(ValueError):
            apply_ibo(np.zeros((1, 8), dtype=complex), 3.0, params)


class TestRapp:
    @pytest.mark.parametrize("p", [1.0, 2.0, 10.0])
    def test_saturation_point_value(self, p):
        # at input amplitude a0 the gain compresses by 2^(-1/(2p))
        a0 = 0.8
        params = RappParams(a0=a0, v=1.0, p=p)
        out = rapp_amplify(np.full((1, 4), a0 + 0j), params)
        expected = a0 * 2.0 ** (-1.0 / (2.0 * p))
        assert np.abs(np.abs(out) - expected).max() < 1e-12

    def test_small_signal_linear(self):
        params = RappParams(a0=1.0, v=1.0, p=2.0)
        amp_in = 1e-4
        out = rapp_amplify(np.full((1, 4), amp_in + 0j), params)
        assert abs(np.abs(out[0, 0]) / amp_in - 1.0) < 1e-6

    def test_hard_saturation_limit(self):
        params = RappParams(a0=1.0, v=1.0, p=2.0)
        out = rapp_amplify(np.full((1, 4), 100.0 + 0j), params)
        assert abs(np.abs(out[0, 0]) - 1.0) < 1e-4

    def test_monotone_and_bounded_on_grid(self):
        params = RappParams(a0=1.3, v=1.0, p=2.0)
        amplitude = np.linspace(0.0, 10.0, 10_000)
        gain = params.amam(amplitude)
        assert np.all(np.diff(gain) >= -1e-15)
        assert np.all(gain <= params.v * amplitude + 1e-15)
        assert np.all(gain < params.a0)

    def test_phase_preserved(self):
        rng = np.random.default_rng(8)
        samples = rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))
        out = rapp_amplify(samples, RappParams(a0=1.0))
        mask = np.abs(samples) > 0
        delta = np.angle(out[mask]) - np.angle(samples[mask])
        assert np.abs(delta).max() < 1e-12

    def test_budget_constructor(self):
        params = RappParams.from_power_budget(1.0, 4)
        assert abs(params.a0 - 0.5) < 1e-15
        with pytest.raises(ValueError):
            RappParams(a0=0.0)


class TestBussgang:
    def test_linear_gain_recovered(self):
        frame = ofdm_frame(9)
        assert abs(bussgang_alpha(frame, 2.0 * frame) - 2.0) < 1e-12

    def test_orthogonal_signals_give_zero(self):
        n = 64
        a = np.exp(2j * np.pi * 3 * np.arange(n) / n)[None, :]
        b = np.exp(2j * np.pi * 7 * np.arange(n) / n)[None, :]
        alpha = bussgang_alpha(a, b)
        assert abs(alpha) < 1e-12

    @pytest.mark.parametrize("ibo_db", [3.0, 6.0, 9.0])
    def test_alpha_minimizes_distortion_vs_grid_search(self, ibo_db):
        # independent oracle: complex grid of step 1e-3 around the estimate
        frame = bandpass_filter(ofdm_frame(10), 4)
        params = RappParams.from_power_budget(1.0, frame.shape[0])
        backed = apply_ibo(frame, ibo_db, params)
        amplified = rapp_amplify(backed, params)
        alpha = bussgang_alpha(frame, amplified)

        def distortion(a):
            return np.mean(np.abs(amplified - a * frame) ** 2)

        step = 1e-3
        offsets = np.arange(-10, 11) * step
        grid_vals = np.array([[distortion(alpha + dr + 1j * di) for di in offsets]
                              for dr in offsets])
        assert distortion(alpha) <= grid_vals.min() + 1e-15

    def test_residual_orthogonality(self):
        frame = bandpass_filter(ofdm_frame(11), 4)
        params = RappParams.from_power_budget(1.0, frame.shape[0])
        amplified = rapp_amplify(apply_ibo(frame, 6.0, params), params)
        alpha = bussgang_alpha(frame, amplified)
        residual = amplified - alpha * frame
        cross = np.mean(residual * np.conj(frame))
        assert abs(cross) < 1e-9 * mean_power(frame)

    def test_small_signal_alpha_equals_gain(self):
        frame = bandpass_filter(ofdm_frame(12), 4)
        params = RappParams(a0=1.0, v=1.0, p=2.0)
        tiny = frame * 1e-6
        amplified = rapp_amplify(tiny, params)
        alpha = bussgang_alpha(tiny, amplified)
        assert abs(alpha - params.v) < 1e-9

    def test_zero_power_input_rejected(self):
        zero = np.zeros((1, 8), dtype=complex)
        with pytest.raises(ValueError):
            bussgang_alpha(zero, zero)


class TestAcpr:
    def test_brick_wall_floor(self):
        frame = bandpass_filter(ofdm_frame(13), 4)
        assert acpr(estimate_psd(frame), 4) <= -60.0

    def test_equal_power_adjacent_band_is_zero_db(self):
        k, oversample = 8, 4
        n = k * oversample
        power = np.zeros(n)
        start = inband_start(n, k)
        power[start:start + k] = 1.0
        power[start + k:start + 2 * k] = 1.0
        assert abs(acpr(power, oversample)) < 1e-12

    def test_clipping_without_filter_is_worse(self):
        frame = ofdm_frame(14)
        clipped = clip_only(frame, 2.0)
        unfiltered = acpr(estimate_psd(clipped), 4)
        filtered = acpr(estimate_psd(bandpass_filter(clipped, 4)), 4)
        assert unfiltered > filtered

    def test_needs_guard_band(self):
        frame = ofdm_frame(15, oversample=1)
        with pytest.raises(ValueError):
            acpr(estimate_psd(frame), 1)


class TestObo:
    def test_quarter_power(self):
        powers = np.full(2, 0.125)   # total 0.25 over antennas
        assert abs(obo(powers, 1.0) - 6.0206) < 1e-3

    def test_full_power_is_zero_db(self):
        assert abs(obo(np.full(2, 0.5), 1.0)) < 1e-12

    def test_obo_tracks_ibo(self):
        # with per-frame input calibration the two back-offs coincide
        frame = bandpass_filter(ofdm_frame(16), 4)
        params = RappParams.from_power_budget(1.0, frame.shape[0])
        for ibo_db in (3.0, 6.0, 9.0):
            backed = apply_ibo(frame, ibo_db, params)
            assert abs(obo(np.mean(np.abs(backed) ** 2, axis=-1), 1.0) - ibo_db) < 1e-9

    def test_frames_average_their_power_sums(self):
        powers = np.array([[0.125, 0.125], [0.5, 0.25]])   # frame sums 0.25 and 0.75
        assert obo(powers, 1.0) == float(10.0 * np.log10(1.0 / 0.5))

    def test_zero_power_refused(self):
        with pytest.raises(ValueError, match="zero-power"):
            obo(np.zeros((3, 2)), 1.0)
