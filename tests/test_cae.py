"""Autoencoder system: architecture contracts, losses, multiplier updates."""

import numpy as np
import pytest

import ofdmlab as ol
from ofdmlab.autodiff import no_grad
from ofdmlab.cae import (CaeSystem, LagrangianState, build_system, cp_const,
                         loss_acpr, loss_papr, loss_reconstruction, total_loss,
                         update_multipliers)
from ofdmlab.cae.complexpair import DftBank
from ofdmlab.cae.model import EncoderNet, hard_decisions
from ofdmlab.cae.pipeline import (empirical_bussgang, tape_bandpass,
                                  tape_input_backoff, tape_rapp, tape_unpad)
from ofdmlab.cae.training import TrainConfig, load_system, make_batch, save_system
from ofdmlab.autodiff import DiffTensor, as_tensor, softmax_values


def small_system(seed=0, **kwargs):
    defaults = dict(n_tx=2, n_rx=2, n_subcarriers=8, oversample=4, mod_order=4,
                    ibo_db=6.0, seed=seed)
    defaults.update(kwargs)
    return build_system(**defaults)


def random_batch(rng, system, n_batch=4, sigma_w2=1e-4):
    g = system.geometry
    alphabet = ol.qam_alphabet(g.mod_order)
    idx = rng.integers(0, alphabet.size, size=(n_batch, g.n_tx, g.n_subcarriers))
    grids = alphabet[idx]
    h = np.stack([
        ol.draw_channel(rng, g.n_subcarriers, g.n_tx, g.n_rx, ol.Awgn()).h
        for _ in range(n_batch)
    ])
    shape = (n_batch, g.n_subcarriers, g.n_rx)
    noise = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(sigma_w2 / 2)
    return grids, h, noise


class TestEncoder:
    def test_unit_power_every_frame(self):
        rng = np.random.default_rng(0)
        system = small_system()
        grids, _, _ = random_batch(rng, system, n_batch=6)
        stages = system.transmit(grids, train=True)
        power = np.mean(np.abs(stages["encoded"].values()) ** 2, axis=(1, 2))
        assert np.abs(power - 1.0).max() < 1e-9

    def test_antenna_permutation_equivariance(self):
        # shared per-antenna weights: permuting input rows permutes output rows
        rng = np.random.default_rng(1)
        system = small_system(n_tx=2, n_rx=2)
        grids, _, _ = random_batch(rng, system, n_batch=3)
        stages = system.transmit(grids, train=False)
        base = stages["encoded"].values()
        swapped = system.transmit(grids[:, ::-1, :], train=False)["encoded"].values()
        assert np.abs(swapped - base[:, ::-1, :]).max() < 1e-9

    def test_zeroed_middle_path_reduces_to_first_stage(self):
        # with the middle convolutions silenced, the skip path alone feeds
        # the linear stage: output depends only on stage-1 activations
        rng = np.random.default_rng(2)
        system = small_system(seed=3)
        enc = system.encoder
        for tensor in (enc.conv_w[1], enc.conv_b[1], enc.conv_w[2], enc.conv_b[2]):
            tensor.values[...] = 0.0
        grids, _, _ = random_batch(rng, system, n_batch=3)
        raw = ol.idft_oversampled(grids, system.geometry.oversample)
        enc_in = np.concatenate([raw.real, raw.imag], axis=2)[:, None, :, :]

        from ofdmlab.autodiff import conv2d, linear, reshape, selu, transpose, tsum
        x = as_tensor(enc_in)
        with no_grad():
            out = enc.forward(x, train=True)
            # zeroed conv2/conv3 leave only bn3's beta (zero) in the middle
            # path, so the merge reduces to selu(stage-1 pre-activation)
            pre1 = enc.bns[0](conv2d(x, enc.conv_w[0], enc.conv_b[0], padding=(0, 1)), True)
            stage1_only = selu(pre1)
            flat = reshape(transpose(stage1_only, (0, 2, 1, 3)), (3 * enc.n_antennas, -1))
            ref = reshape(linear(flat, enc.fc_w, enc.fc_b), (3, enc.n_antennas, 2 * enc.n_time))
            p = tsum(ref * ref, axis=(1, 2), keepdims=True) * (1.0 / (enc.n_antennas * enc.n_time))
            ref = ref * p ** -0.5
        assert np.abs(out.values - ref.values).max() < 1e-9

    def test_conv_weight_count_matches_design(self):
        enc = EncoderNet(4, 288)
        assert enc.conv_weight_count() == 1953


class TestDecoder:
    def test_probability_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        system = small_system(seed=5)
        grids, h, noise = random_batch(rng, system)
        with no_grad():
            result = system.run_batch(grids, h, noise, rng, train=False)
        probs = softmax_values(result.logits.values)
        assert probs.shape == (4, 2, 16, 2)
        assert np.all(probs >= 0)
        assert np.abs(probs.sum(axis=-1) - 1.0).max() < 1e-12

    def test_symmetric_logits_give_half(self):
        logits = np.zeros((1, 2, 4, 2))
        assert np.abs(softmax_values(logits) - 0.5).max() < 1e-15

    def test_hard_decisions_map_to_levels(self):
        rng = np.random.default_rng(4)
        system = small_system(seed=6)
        grids, h, noise = random_batch(rng, system)
        with no_grad():
            result = system.run_batch(grids, h, noise, rng, train=False)
        hard = hard_decisions(result.logits.values, 4)
        levels = ol.pam_levels(4)
        assert np.isin(hard.real.round(9), levels.round(9)).all()
        assert np.isin(hard.imag.round(9), levels.round(9)).all()


class TestTapeMatchesNumpyChain:
    def test_stage_by_stage_agreement(self):
        rng = np.random.default_rng(5)
        grid = ol.OfdmGrid.random(rng, 2, 16, 4)
        frame = ol.idft_oversampled(grid.symbols, 4)
        bank = DftBank.build(64, 16)
        pair = cp_const(frame[None])
        params = ol.RappParams.from_power_budget(1.0, 2)

        filt_np = ol.bandpass_filter(frame, 4)
        filt_tape = tape_bandpass(pair, bank)
        assert np.abs(filt_tape.values()[0] - filt_np).max() < 1e-12

        backed_np = ol.apply_ibo(filt_np, 7.3, params)
        backed_tape = tape_input_backoff(filt_tape, 7.3, params)
        assert np.abs(backed_tape.values()[0] - backed_np).max() < 1e-12

        amp_np = ol.rapp_amplify(backed_np, params)
        amp_tape = tape_rapp(backed_tape, params)
        assert np.abs(amp_tape.values()[0] - amp_np).max() < 1e-12

        unpad_np = ol.dft_unpad(amp_np, 16)
        unpad_tape = tape_unpad(amp_tape, bank)
        assert np.abs(unpad_tape.values()[0] - unpad_np).max() < 1e-12

    def test_tape_psd_acpr_matches_metrics(self):
        rng = np.random.default_rng(6)
        grid = ol.OfdmGrid.random(rng, 2, 16, 4)
        frame = ol.idft_oversampled(grid.symbols, 4)
        params = ol.RappParams.from_power_budget(1.0, 2)
        amp = ol.rapp_amplify(ol.apply_ibo(ol.bandpass_filter(frame, 4), 6.0, params), params)
        bank = DftBank.build(64, 16)
        l3 = loss_acpr(cp_const(amp[None]), bank, -45.0)
        reference = ol.acpr(ol.estimate_psd(amp), 4) + 45.0
        assert abs(l3.item() - reference) < 1e-9

    def test_bussgang_estimate_matches_metric(self):
        rng = np.random.default_rng(7)
        grid = ol.OfdmGrid.random(rng, 2, 16, 4)
        frame = ol.bandpass_filter(ol.idft_oversampled(grid.symbols, 4), 4)
        params = ol.RappParams.from_power_budget(1.0, 2)
        amp = ol.rapp_amplify(ol.apply_ibo(frame, 6.0, params), params)
        alpha = empirical_bussgang(frame[None], amp[None], per_example=True)
        reference = ol.bussgang_alpha(frame, amp)
        assert abs(alpha.ravel()[0] - reference) < 1e-12


class TestLosses:
    def test_reconstruction_perfect_prediction_is_zero(self):
        logits = np.zeros((2, 2, 8, 2))
        targets = np.random.default_rng(8).integers(0, 2, size=(2, 2, 8))
        for b in range(2):
            for a in range(2):
                for j in range(8):
                    logits[b, a, j, targets[b, a, j]] = 60.0
        loss = loss_reconstruction(as_tensor(logits), targets)
        assert loss.item() < 1e-10

    def test_reconstruction_uniform_counts_positions(self):
        # 2 antennas x 4 subcarriers x 2 parts at ln 2 each
        logits = as_tensor(np.zeros((3, 2, 8, 2)))
        targets = np.zeros((3, 2, 8), dtype=int)
        loss = loss_reconstruction(logits, targets)
        assert abs(loss.item() - 2 * 4 * 2 * np.log(2)) < 1e-12

    def test_reconstruction_matches_naive_loop(self):
        rng = np.random.default_rng(9)
        logits = rng.standard_normal((2, 2, 6, 4))
        targets = rng.integers(0, 4, size=(2, 2, 6))
        loss = loss_reconstruction(as_tensor(logits), targets)
        total = 0.0
        for b in range(2):
            for a in range(2):
                for j in range(6):
                    z = logits[b, a, j]
                    p = np.exp(z - z.max())
                    p /= p.sum()
                    total -= np.log(p[targets[b, a, j]])
        assert abs(loss.item() - total / 2) < 1e-12

    def test_papr_loss_constant_modulus(self):
        n = 32
        tone = np.exp(2j * np.pi * 3 * np.arange(n) / n)
        frames = np.stack([tone, tone.conj()])[None]
        pair = cp_const(frames)
        l2a, l2b = loss_papr(pair, pair)
        assert abs(l2a.item() - 1.0) < 1e-12
        assert abs(l2b.item() - 1.0) < 1e-12

    def test_papr_loss_equals_metric_and_batch_mean(self):
        rng = np.random.default_rng(10)
        frames = rng.standard_normal((2, 2, 64)) + 1j * rng.standard_normal((2, 2, 64))
        pair = cp_const(frames)
        l2a, _ = loss_papr(pair, pair)
        per_example = [ol.papr_mimo(f) for f in frames]
        assert abs(l2a.item() - np.mean(per_example)) < 1e-12

    def test_papr_losses_coincide_for_band_limited_input(self):
        # the filter is transparent on in-band content, so both components match
        rng = np.random.default_rng(15)
        grid = ol.OfdmGrid.random(rng, 2, 16, 4)
        frame = ol.idft_oversampled(grid.symbols, 4)
        pair = cp_const(frame[None])
        bank = DftBank.build(64, 16)
        l2a, l2b = loss_papr(pair, tape_bandpass(pair, bank))
        assert abs(l2a.item() - l2b.item()) < 1e-9

    def test_acpr_loss_signs(self):
        rng = np.random.default_rng(11)
        grid = ol.OfdmGrid.random(rng, 2, 16, 4)
        clean = ol.bandpass_filter(ol.idft_oversampled(grid.symbols, 4), 4)
        bank = DftBank.build(64, 16)
        satisfied = loss_acpr(cp_const(clean[None]), bank, -45.0)
        assert satisfied.item() <= -15.0
        params = ol.RappParams.from_power_budget(1.0, 2)
        hot = ol.rapp_amplify(ol.apply_ibo(clean, 0.0, params), params)
        violated = loss_acpr(cp_const(hot[None]), bank, -45.0)
        assert violated.item() > 0.0


class TestAugmentedLagrangian:
    def test_total_loss_hand_value(self):
        state = LagrangianState()
        one = as_tensor(1.0)
        value = total_loss(one, one, one, one, state).item()
        expected = (1.0 + 0.015 + 0.0015 / 2 + 0.001 + 0.00001 / 2
                    + (max(0.0, 0.005 + 0.001) ** 2 - 0.005 ** 2) / (2 * 0.001))
        assert abs(value - expected) < 1e-12

    def test_inactive_constraint_clamp_region(self):
        # deep in the feasible region the inequality term is a constant
        state = LagrangianState(lambda_2a=0.0, lambda_2b=0.0, lambda_3=0.005,
                                rho_2a=1e-9, rho_2b=1e-9, rho_3=0.001)
        l1 = as_tensor(2.0)
        zero = as_tensor(0.0)
        l3 = ol.autodiff.parameter(-10.0)
        loss = total_loss(l1, zero, zero, l3, state)
        expected = 2.0 - 0.005 ** 2 / (2 * 0.001)
        assert abs(loss.item() - expected) < 1e-12
        loss.backward()
        assert abs(float(l3.grad)) == 0.0

    def test_pure_reconstruction_when_multipliers_vanish(self):
        rng = np.random.default_rng(12)
        system = small_system(seed=13)
        grids, h, noise = random_batch(rng, system)
        result = system.run_batch(grids, h, noise, np.random.default_rng(3), train=True)
        state = LagrangianState(lambda_2a=0.0, lambda_2b=0.0, lambda_3=0.0,
                                rho_2a=1e-300, rho_2b=1e-300, rho_3=1.0)
        params = system.parameters()
        loss_full = total_loss(result.l1, result.l2a, result.l2b, result.l3, state)
        for p in params.values():
            p.grad = None
        loss_full.backward()
        if result.l3.item() <= 0:
            grads_full = {k: np.array(v.grad) for k, v in params.items() if v.grad is not None}
            result2 = system.run_batch(grids, h, noise, np.random.default_rng(3), train=True)
            for p in params.values():
                p.grad = None
            result2.l1.backward()
            for k, v in params.items():
                if v.grad is not None and k in grads_full:
                    assert np.abs(grads_full[k] - v.grad).max() < 1e-12

    def test_multiplier_updates_hand_computed(self):
        state = LagrangianState()
        new = update_multipliers(state, 2.0, 3.0, -1.0)
        assert abs(new.lambda_2a - (0.015 + 0.0015 * 2.0)) < 1e-15
        assert abs(new.lambda_2b - (0.001 + 0.00001 * 3.0)) < 1e-15
        assert abs(new.lambda_3 - max(0.0, 0.005 + 0.001 * (-1.0))) < 1e-15
        assert new.epoch == 1

    def test_lambda3_clamp(self):
        state = LagrangianState(lambda_3=0.005, rho_3=0.001)
        new = update_multipliers(state, 0.0, 0.0, -10.0)
        assert new.lambda_3 == 0.0

    def test_lambda3_never_negative_under_fuzz(self):
        rng = np.random.default_rng(13)
        state = LagrangianState()
        for _ in range(10_000):
            state = update_multipliers(state, rng.normal(), rng.normal(),
                                       rng.normal(scale=100.0))
            assert state.lambda_3 >= 0.0

    def test_zero_constraints_only_advance_epoch(self):
        state = LagrangianState()
        new = update_multipliers(state, 0.0, 0.0, 0.0)
        assert (new.lambda_2a, new.lambda_2b, new.lambda_3) == \
            (state.lambda_2a, state.lambda_2b, state.lambda_3)
        assert new.epoch == state.epoch + 1

    def test_nonpositive_penalty_rejected(self):
        with pytest.raises(ValueError):
            LagrangianState(rho_2a=0.0)


class TestCheckpointRoundTrip:
    def test_save_load_preserves_behavior(self, tmp_path):
        rng = np.random.default_rng(14)
        cfg = TrainConfig(n_tx=2, n_rx=2, n_subcarriers=8, oversample=4,
                          mod_order=4, channel_taps=0, epochs=1,
                          gradual_start_epoch=1, batches_per_epoch=1, seed=3)
        from ofdmlab.cae.training import build_from_config
        system = build_from_config(cfg)
        path = tmp_path / "model.bin"
        save_system(path, system, cfg)
        clone = load_system(path)
        grids, h, noise = random_batch(rng, system)
        with no_grad():
            a = system.run_batch(grids, h, noise, np.random.default_rng(4), train=False)
            b = clone.run_batch(grids, h, noise, np.random.default_rng(4), train=False)
        assert np.array_equal(a.logits.values, b.logits.values)
