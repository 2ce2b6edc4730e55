"""Clipping-and-filtering, selected mapping, and detection references."""

import itertools

import numpy as np
import pytest

from ofdmlab import (Awgn, MultipathTaps, OfdmGrid, draw_channel,
                     idft_oversampled, papr_mimo, qam_alphabet)
from ofdmlab.baselines import (SlmCodebook, _candidate_vectors, clip_and_filter,
                               clip_only, mle_detect, slm_encode, zf_detect)
from ofdmlab.channel import apply_channel
from ofdmlab.dsp import estimate_psd, inband_start
from ofdmlab.errors import ConfigError, NumericError
from ofdmlab.modulation import gray_code_table, pam_levels


def brute_force_mle(h, y, order):
    """Independent enumerator: plain Python loops over all candidates."""
    alphabet = qam_alphabet(order)
    n_tx = h.shape[1]
    best, best_err = None, np.inf
    for combo in itertools.product(range(alphabet.size), repeat=n_tx):
        x = alphabet[list(combo)]
        err = float(np.sum(np.abs(y - h @ x) ** 2))
        if err < best_err - 1e-15:
            best_err, best = err, x
    return best


class TestClipAndFilter:
    def test_low_papr_frame_unchanged(self):
        # constant-modulus per-antenna tones stay under a generous clip level
        n = 64
        tone = np.exp(2j * np.pi * 3 * np.arange(n) / n)
        frame = np.stack([tone, tone.conj()])
        out = clip_and_filter(frame, 6.0, 4)
        assert np.abs(out - frame).max() < 1e-12

    def test_hard_limit_on_peaks(self):
        rng = np.random.default_rng(0)
        grid = OfdmGrid.random(rng, 2, 72, 4)
        frame = idft_oversampled(grid.symbols, 4)
        clip_ratio_db = 2.0
        clipped = clip_only(frame, clip_ratio_db)
        limit = np.sqrt(np.mean(np.abs(frame) ** 2)) * 10 ** (clip_ratio_db / 20)
        assert np.abs(clipped).max() <= limit + 1e-12
        assert abs(np.abs(clipped).max() - limit) < 1e-9  # peaked frame

    def test_output_band_limited(self):
        rng = np.random.default_rng(1)
        grid = OfdmGrid.random(rng, 2, 72, 4)
        out = clip_and_filter(idft_oversampled(grid.symbols, 4), 4.08, 4)
        psd = estimate_psd(out)
        start = inband_start(288, 72)
        guard = psd.sum() - psd[start:start + 72].sum()
        assert guard < 1e-20 * psd.sum()

    def test_papr_reduced_monte_carlo(self):
        rng = np.random.default_rng(2)
        raw_db, cf_db = [], []
        for _ in range(300):
            grid = OfdmGrid.random(rng, 2, 72, 4)
            frame = idft_oversampled(grid.symbols, 4)
            raw_db.append(10 * np.log10(papr_mimo(frame)))
            cf_db.append(10 * np.log10(papr_mimo(clip_and_filter(frame, 4.08, 4))))
        # compare upper quantiles: the clipped curve sits far to the left
        assert np.quantile(raw_db, 0.99) - np.quantile(cf_db, 0.99) >= 2.0


class TestSlm:
    def test_codebook_structure(self):
        book = SlmCodebook.random(3, 64, 72)
        assert book.n_candidates == 64
        assert np.all(book.phases[0] == 1.0)
        assert np.allclose(np.abs(book.phases), 1.0)
        members = np.unique(book.phases)
        assert set(members) <= {1.0 + 0j, -1.0 + 0j, 1.0j, -1.0j}

    def test_identity_only_codebook_is_transparent(self):
        rng = np.random.default_rng(3)
        grid = OfdmGrid.random(rng, 2, 72, 4)
        book = SlmCodebook.random(3, 1, 72)
        frame, index = slm_encode(grid, book, 4)
        assert index == 0
        reference = idft_oversampled(grid.symbols, 4)
        assert np.abs(frame - reference).max() < 1e-12

    def test_winner_holds_only_its_own_samples(self):
        # a view into the candidate stack would keep all 64 candidates alive
        # for as long as a caller (a block of frames) holds the winner
        grid = OfdmGrid.random(np.random.default_rng(5), 2, 72, 4)
        frame, _ = slm_encode(grid, SlmCodebook.random(3, 64, 72), 4)
        assert frame.base is None

    def test_never_worse_than_identity(self):
        rng = np.random.default_rng(4)
        book = SlmCodebook.random(5, 16, 72)
        for _ in range(25):
            grid = OfdmGrid.random(rng, 2, 72, 4)
            chosen, _ = slm_encode(grid, book, 4)
            identity = idft_oversampled(grid.symbols, 4)
            assert papr_mimo(chosen) <= papr_mimo(identity) + 1e-12

    def test_phased_grid_stays_on_alphabet(self):
        rng = np.random.default_rng(5)
        for order in (4, 16):
            grid = OfdmGrid.random(rng, 2, 16, order)
            book = SlmCodebook.random(6, 8, 16)
            for phases in book.phases:
                OfdmGrid(grid.symbols * phases[None, :], order)  # must validate

    def test_monte_carlo_gain(self):
        rng = np.random.default_rng(6)
        book = SlmCodebook.random(7, 64, 72)
        plain_db, slm_db = [], []
        for _ in range(300):
            grid = OfdmGrid.random(rng, 2, 72, 4)
            plain_db.append(10 * np.log10(papr_mimo(idft_oversampled(grid.symbols, 4))))
            frame, _ = slm_encode(grid, book, 4)
            slm_db.append(10 * np.log10(papr_mimo(frame)))
        assert np.quantile(plain_db, 0.99) - np.quantile(slm_db, 0.99) >= 2.0


class TestMle:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            chan = draw_channel(rng, 6, 2, 2, MultipathTaps(3), sigma_w2=0.0)
            grid = OfdmGrid.random(rng, 2, 6, 4)
            y = apply_channel(grid.symbols.T, chan, rng)
            detected = mle_detect(chan, y, 4)
            assert np.abs(detected - grid.symbols).max() < 1e-9

    def test_single_antenna_nearest_neighbor(self):
        rng = np.random.default_rng(8)
        chan = draw_channel(rng, 8, 1, 1, MultipathTaps(2), sigma_w2=0.05)
        grid = OfdmGrid.random(rng, 1, 8, 4)
        y = apply_channel(grid.symbols.T, chan, rng)
        detected = mle_detect(chan, y, 4)
        alphabet = qam_alphabet(4)
        for k in range(8):
            equalized = y[k, 0] / chan.h[k, 0, 0]
            nearest = alphabet[np.argmin(np.abs(alphabet - equalized))]
            assert detected[0, k] == nearest

    def test_agrees_with_independent_enumerator_2x2(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            chan = draw_channel(rng, 1, 2, 2, MultipathTaps(1), sigma_w2=0.2)
            grid = OfdmGrid.random(rng, 2, 1, 4)
            y = apply_channel(grid.symbols.T, chan, rng)
            fast = mle_detect(chan, y, 4)[:, 0]
            slow = brute_force_mle(chan.h[0], y[0], 4)
            assert np.array_equal(fast, slow)

    def test_candidate_guard(self):
        rng = np.random.default_rng(10)
        chan = draw_channel(rng, 1, 6, 6, MultipathTaps(1))
        with pytest.raises(ConfigError):
            mle_detect(chan, np.zeros((1, 6), dtype=complex), 16)

    # (n_tx, order): 16 candidates take the exhaustive path, 65536 the sphere path
    @pytest.mark.parametrize("n_tx,order", [(2, 4), (4, 16)], ids=["exhaustive", "sphere"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_observation_is_numeric_error(self, n_tx, order, bad):
        rng = np.random.default_rng(14)
        chan = draw_channel(rng, 8, n_tx, n_tx, MultipathTaps(2), sigma_w2=0.01)
        with pytest.raises(NumericError, match="not finite"):
            mle_detect(chan, np.full((8, n_tx), bad, dtype=complex), order)
        y = apply_channel(OfdmGrid.random(rng, n_tx, 8, order).symbols.T, chan, rng)
        y[5, n_tx - 1] = complex(0.0, bad)
        with pytest.raises(NumericError, match="not finite"):
            mle_detect(chan, y, order)

    def test_constant_tables_read_only(self):
        tables = [_candidate_vectors(4, 2), _candidate_vectors(16, 2),
                  pam_levels(4), pam_levels(16), gray_code_table(2), gray_code_table(4)]
        for table in tables:
            with pytest.raises(ValueError):
                table[0] = table[1]
            with pytest.raises(ValueError):
                table *= 2
        assert _candidate_vectors(4, 2) is tables[0]
        assert pam_levels(16) is tables[3]
        assert np.array_equal(pam_levels(4), np.array([-1.0, 1.0]) / np.sqrt(2.0))


class TestZf:
    def test_identity_noiseless(self):
        rng = np.random.default_rng(11)
        chan = draw_channel(rng, 8, 2, 2, Awgn(), sigma_w2=0.0)
        grid = OfdmGrid.random(rng, 2, 8, 4)
        y = apply_channel(grid.symbols.T, chan, rng)
        assert np.abs(zf_detect(chan, y, 4) - grid.symbols).max() < 1e-12

    def test_diagonal_equalization(self):
        from ofdmlab import ChannelRealization
        h = np.zeros((2, 2, 2), dtype=complex)
        h[:, 0, 0] = 2.0
        h[:, 1, 1] = 0.5j
        chan = ChannelRealization(h, 0.0, np.ones(1))
        rng = np.random.default_rng(12)
        grid = OfdmGrid.random(rng, 2, 2, 4)
        y = np.einsum("krt,kt->kr", h, grid.symbols.T)
        assert np.abs(zf_detect(chan, y, 4) - grid.symbols).max() < 1e-12

    def test_zf_never_beats_mle(self):
        rng = np.random.default_rng(13)
        zf_errors = mle_errors = 0
        for _ in range(60):
            chan = draw_channel(rng, 12, 2, 2, MultipathTaps(4), sigma_w2=0.15)
            grid = OfdmGrid.random(rng, 2, 12, 4)
            y = apply_channel(grid.symbols.T, chan, rng)
            zf_errors += np.sum(zf_detect(chan, y, 4) != grid.symbols)
            mle_errors += np.sum(mle_detect(chan, y, 4) != grid.symbols)
        assert zf_errors >= mle_errors

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_observation_is_numeric_error(self, bad):
        rng = np.random.default_rng(15)
        chan = draw_channel(rng, 8, 2, 2, MultipathTaps(2), sigma_w2=0.01)
        with pytest.raises(NumericError, match="not finite"):
            zf_detect(chan, np.full((8, 2), bad, dtype=complex), 4)
        y = apply_channel(OfdmGrid.random(rng, 2, 8, 4).symbols.T, chan, rng)
        y[3, 0] = bad
        with pytest.raises(NumericError, match="not finite"):
            zf_detect(chan, y, 4)

    def test_singular_channel_rejected(self):
        from ofdmlab import ChannelRealization
        h = np.zeros((1, 2, 2), dtype=complex)
        h[0, 0, 0] = 1.0   # rank deficient
        chan = ChannelRealization(h, 0.0, np.ones(1))
        with pytest.raises(NumericError):
            zf_detect(chan, np.zeros((1, 2), dtype=complex), 4)
