"""Transforms, PAPR metrics, and the periodogram."""

import numpy as np
import pytest

from ofdmlab import (OfdmGrid, Stage, TimeFrame, dft_unpad, estimate_psd,
                     idft_oversampled, papr, papr_mimo, qam_alphabet, synthesize)
from ofdmlab.dsp import inband_start


def random_grid(rng, n_ant=2, k=72, order=4):
    return OfdmGrid.random(rng, n_ant, k, order)


class TestIdft:
    def test_single_tone_constant_modulus(self):
        grid = np.zeros((1, 4), dtype=complex)
        grid[0, 0] = 1.0
        frame = idft_oversampled(grid, 1)
        assert np.allclose(np.abs(frame.samples), 0.5, atol=1e-12)

    def test_flat_spectrum_impulse(self):
        grid = np.ones((1, 72), dtype=complex)
        frame = idft_oversampled(grid, 1)
        assert abs(frame.samples[0, 0] - np.sqrt(72)) < 1e-9
        assert np.abs(frame.samples[0, 1:]).max() < 1e-9

    def test_matches_direct_sum_oracle(self):
        # direct evaluation of the synthesis sum at every output sample
        rng = np.random.default_rng(3)
        k, oversample = 72, 4
        grid = random_grid(rng, n_ant=2, k=k)
        frame = idft_oversampled(grid, oversample)
        n = oversample * k
        freqs = np.arange(k) + inband_start(n, k) - n // 2
        direct = np.zeros((2, n), dtype=complex)
        for ant in range(2):
            for nn in range(n):
                acc = 0.0j
                for kk in range(k):
                    acc += grid.symbols[ant, kk] * np.exp(2j * np.pi * freqs[kk] * nn / n)
                direct[ant, nn] = acc / np.sqrt(k)
        assert np.abs(frame.samples - direct).max() < 1e-9
        assert frame.samples.shape == (2, 288)

    def test_oversampling_preserves_mean_power(self):
        rng = np.random.default_rng(4)
        grid = random_grid(rng)
        base = idft_oversampled(grid, 1).mean_power()
        for oversample in (2, 4):
            other = idft_oversampled(grid, oversample).mean_power()
            assert abs(other - base) < 1e-9 * base

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            idft_oversampled(np.ones((1, 4), dtype=complex), 0)
        with pytest.raises(ValueError):
            idft_oversampled(np.zeros((0, 4), dtype=complex), 2)


class TestSynthesize:
    # (B, A, K, L, order): the stacked call must equal frame-by-frame synthesis
    @pytest.mark.parametrize("n_batch, n_ant, k, oversample, order", [
        (1, 1, 4, 1, 4), (3, 2, 16, 4, 4), (5, 2, 72, 4, 4), (4, 4, 72, 4, 16),
        (2, 3, 9, 2, 16), (64, 2, 72, 4, 4),
    ])
    def test_stack_equals_per_frame(self, n_batch, n_ant, k, oversample, order):
        rng = np.random.default_rng(n_batch * 1000 + k)
        grids = np.stack([random_grid(rng, n_ant, k, order).symbols for _ in range(n_batch)])
        stacked = synthesize(grids, oversample)
        assert stacked.shape == (n_batch, n_ant, oversample * k)
        for b in range(n_batch):
            assert np.array_equal(stacked[b], idft_oversampled(grids[b], oversample).samples)

    def test_leading_axes_are_independent(self):
        rng = np.random.default_rng(20)
        grids = np.stack([random_grid(rng, 2, 16).symbols for _ in range(6)]).reshape(2, 3, 2, 16)
        stacked = synthesize(grids, 4)
        assert np.array_equal(stacked.reshape(6, 2, 64), synthesize(grids.reshape(6, 2, 16), 4))


class TestRoundTrip:
    @pytest.mark.parametrize("k", [4, 16, 72])
    @pytest.mark.parametrize("oversample", [1, 2, 4])
    def test_unpad_inverts_synthesis(self, k, oversample):
        rng = np.random.default_rng(k * 10 + oversample)
        grid = random_grid(rng, n_ant=2, k=k)
        frame = idft_oversampled(grid, oversample)
        back = dft_unpad(frame, k)
        assert np.abs(back - grid.symbols).max() < 1e-12

    def test_impulse_gives_flat_spectrum(self):
        samples = np.zeros((1, 4), dtype=complex)
        samples[0, 0] = 1.0
        frame = TimeFrame(samples, L=1)
        bins = dft_unpad(frame, 4)
        assert np.abs(bins - bins[0, 0]).max() < 1e-12

    def test_guard_band_content_vanishes(self):
        # spectrum with energy only in the guard bins maps to a zero grid
        k, oversample = 8, 4
        n = k * oversample
        rng = np.random.default_rng(9)
        spectrum = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        start = inband_start(n, k)
        spectrum[start:start + k] = 0.0
        samples = n * np.fft.ifft(np.fft.ifftshift(spectrum))[None, :]
        frame = TimeFrame(samples, L=oversample)
        assert np.abs(dft_unpad(frame, k)).max() < 1e-12

    def test_length_mismatch_rejected(self):
        frame = TimeFrame(np.ones((1, 10), dtype=complex), L=2)
        with pytest.raises(ValueError):
            dft_unpad(frame, 4)


class TestPapr:
    def test_constant_modulus_is_unity(self):
        x = np.exp(1j * np.linspace(0, 5, 64))
        assert abs(papr(x) - 1.0) < 1e-12

    def test_flat_grid_hits_subcarrier_count(self):
        frame = idft_oversampled(np.ones((1, 72), dtype=complex), 1)
        value = papr(frame.samples[0])
        assert abs(value - 72.0) < 1e-9
        assert abs(10 * np.log10(value) - 18.573) < 1e-3

    def test_impulse_vector(self):
        assert abs(papr(np.array([1.0, 0, 0, 0])) - 4.0) < 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        base = papr(x)
        for c in (2.0, 1e-3, -0.7 + 2.1j):
            assert abs(papr(c * x) - base) < 1e-12 * base

    def test_at_least_one(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
            assert papr(x) >= 1.0

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            papr(np.zeros(8, dtype=complex))


class TestPaprMimo:
    def test_single_antenna_reduces_to_row(self):
        rng = np.random.default_rng(14)
        row = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        frame = TimeFrame(row[None, :], L=1)
        assert papr_mimo(frame) == papr(row)

    def test_takes_worst_antenna(self):
        a = np.ones(8, dtype=complex)            # ratio 1
        b = np.zeros(8, dtype=complex)
        b[0] = 1.0                               # ratio 8
        frame = TimeFrame(np.stack([a, b]), L=1)
        assert abs(papr_mimo(frame) - 8.0) < 1e-12

    def test_matches_per_row_maximum(self):
        rng = np.random.default_rng(15)
        samples = rng.standard_normal((2, 288)) + 1j * rng.standard_normal((2, 288))
        frame = TimeFrame(samples, L=4)
        assert papr_mimo(frame) == max(papr(samples[0]), papr(samples[1]))


class TestPsd:
    def test_single_exponential_concentrates(self):
        n = 64
        bin_index = 11
        freq = bin_index - n // 2
        x = np.exp(2j * np.pi * freq * np.arange(n) / n)
        psd = estimate_psd(TimeFrame(x[None, :], L=1))
        assert psd.bin_power[bin_index] / psd.total_power() > 0.999

    def test_white_noise_flat(self):
        # 1000 segments of 64 samples, one row each: the rows' periodograms average
        rng = np.random.default_rng(18)
        seg, n_seg = 64, 1000
        x = (rng.standard_normal((n_seg, seg))
             + 1j * rng.standard_normal((n_seg, seg))) / np.sqrt(2)
        psd = estimate_psd(TimeFrame(x, L=1))
        expected = psd.total_power() / seg
        assert np.abs(psd.bin_power / expected - 1.0).max() < 0.15

    def test_parseval(self):
        rng = np.random.default_rng(19)
        samples = rng.standard_normal((2, 256)) + 1j * rng.standard_normal((2, 256))
        frame = TimeFrame(samples, L=4)
        psd = estimate_psd(frame)
        assert abs(psd.total_power() - frame.mean_power()) < 1e-9 * frame.mean_power()


class TestFrameValidation:
    def test_rejects_empty_and_bad_oversampling(self):
        with pytest.raises(ValueError):
            TimeFrame(np.zeros((0, 4), dtype=complex), L=1)
        with pytest.raises(ValueError):
            TimeFrame(np.ones((1, 4), dtype=complex), L=0)

    def test_stage_tags(self):
        frame = TimeFrame(np.ones((1, 4), dtype=complex), L=1, stage=Stage.ENCODED)
        assert frame.with_samples(frame.samples, stage=Stage.FILTERED).stage == Stage.FILTERED


class TestGridValidation:
    def test_off_alphabet_symbols_rejected(self):
        with pytest.raises(ValueError):
            OfdmGrid(np.full((1, 4), 0.9 + 0.1j), 4)

    def test_alphabet_is_unit_energy(self):
        for order in (4, 16):
            alphabet = qam_alphabet(order)
            assert abs(np.mean(np.abs(alphabet) ** 2) - 1.0) < 1e-12
