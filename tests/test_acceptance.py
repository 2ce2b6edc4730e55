"""Acceptance criteria, one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Every tolerance is
fixed here; the slowest item is the end-to-end training smoke run (500
batches plus a bit-identical rerun).
"""

import itertools
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ofdmlab as ol
from ofdmlab.baselines import mle_detect
from ofdmlab.cae import (LagrangianState, TrainConfig, evaluate_ber, train,
                         update_multipliers)
from ofdmlab.config import parse_config
from ofdmlab.harness import run_ber, run_ccdf, run_gradcheck

GOLDEN_DIR = Path(__file__).parent / "golden"


def report(number: int, text: str):
    print(f"\nACCEPTANCE {number} PASS: {text}")


def base_config(n_sub=72, method="none", **run_kwargs):
    cfg = parse_config(f"""
[system]
n_tx = 2
n_rx = 2
n_subcarriers = {n_sub}
oversample = 4
mod_order = 4
""")
    cfg = replace(cfg, method=replace(cfg.method, name=method))
    if run_kwargs:
        cfg = replace(cfg, run=replace(cfg.run, **run_kwargs))
    return cfg.validated()


class TestCriterion1Gradients:
    def test_gradient_suite(self):
        start = time.time()
        results, ok = run_gradcheck(seed=2024)
        elapsed = time.time() - start
        for r in results:
            tol = 1e-4 if r.name == "end_to_end" else 1e-5
            assert r.max_relative_error < tol, f"{r.name}: {r.max_relative_error:.2e}"
        assert ok
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
        report(1, f"all layers < 1e-5, end-to-end < 1e-4 ({elapsed:.1f}s)")


class TestCriterion2DspOracles:
    def test_dsp_oracles(self):
        rng = np.random.default_rng(7)
        # transform round trip at every geometry
        for k in (4, 16, 72):
            for oversample in (1, 2, 4):
                grid = ol.OfdmGrid.random(rng, 2, k, 4)
                frame = ol.idft_oversampled(grid.symbols, oversample)
                err = np.abs(ol.dft_unpad(frame, k) - grid.symbols).max()
                assert err < 1e-12, f"K={k} L={oversample}: {err:.2e}"
        # flat grid peak ratio equals the subcarrier count
        flat = ol.idft_oversampled(np.ones((1, 72), dtype=complex), 1)
        ratio = ol.papr(flat[0])
        assert abs(ratio - 72.0) < 1e-9
        assert abs(10 * np.log10(ratio) - 18.57) < 5e-3
        # scale invariance
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        for c in (3.0, 1e-6, -2.0 + 1.0j):
            assert abs(ol.papr(c * x) - ol.papr(x)) < 1e-12 * ol.papr(x)
        # Parseval
        frame = ol.idft_oversampled(ol.OfdmGrid.random(rng, 2, 72, 4).symbols, 4)
        mean_power = np.mean(np.abs(frame) ** 2)
        assert abs(ol.estimate_psd(frame).sum() - mean_power) < 1e-9 * mean_power
        report(2, "round trips < 1e-12, flat-grid PAPR = K (18.57 dB), "
                  "scale invariance, Parseval < 1e-9")


class TestCriterion3RappOracle:
    def test_rapp_oracle(self):
        for p in (1.0, 2.0, 10.0):
            params = ol.RappParams(a0=0.7071, v=1.0, p=p)
            got = params.amam(params.a0)
            want = params.a0 * 2.0 ** (-1.0 / (2.0 * p))
            assert abs(got - want) < 1e-12, f"p={p}"
        params = ol.RappParams(a0=1.1, v=1.0, p=2.0)
        amplitude = np.linspace(0.0, 20.0, 10_000)
        gain = params.amam(amplitude)
        assert np.all(np.diff(gain) >= -1e-15)          # monotone
        assert np.all(gain <= amplitude + 1e-15)        # never above linear
        assert np.all(gain < params.a0)                 # never above saturation
        assert abs(params.amam(100.0) - params.a0) < 1e-4 * params.a0
        report(3, "saturation-point identity at p in {1,2,10} < 1e-12, "
                  "monotone and bounded on a 10^4 grid")


class TestCriterion4BussgangOracle:
    def test_bussgang_grid_search(self):
        rng = np.random.default_rng(11)
        grid = ol.OfdmGrid.random(rng, 2, 72, 4)
        filtered = ol.bandpass_filter(ol.idft_oversampled(grid.symbols, 4), 4)
        params = ol.RappParams.from_power_budget(1.0, 2)
        for ibo_db in (3.0, 6.0, 9.0):
            amplified = ol.rapp_amplify(ol.apply_ibo(filtered, ibo_db, params), params)
            alpha = ol.bussgang_alpha(filtered, amplified)

            def distortion(a):
                return np.mean(np.abs(amplified - a * filtered) ** 2)

            offsets = np.arange(-8, 9) * 1e-3
            best = min(distortion(alpha + dr + 1j * di)
                       for dr in offsets for di in offsets)
            assert distortion(alpha) <= best + 1e-15, f"ibo={ibo_db}"
        report(4, "estimated gain minimizes the distortion over a 1e-3 "
                  "complex grid at IBO 3/6/9 dB")


class TestCriterion5MleCorrectness:
    def test_exhaustive_search_agreement(self):
        start = time.time()
        rng = np.random.default_rng(23)

        # 1000 random 2x2 QPSK subcarrier instances vs a pure-Python enumerator
        alphabet4 = ol.qam_alphabet(4)
        for _ in range(1000):
            chan = ol.draw_channel(rng, 1, 2, 2, ol.MultipathTaps(1), sigma_w2=0.3)
            grid = ol.OfdmGrid.random(rng, 2, 1, 4)
            y = ol.apply_channel(grid.symbols.T, chan, rng)
            fast = mle_detect(chan, y, 4)[:, 0]
            best, best_err = None, np.inf
            for combo in itertools.product(range(4), repeat=2):
                x = alphabet4[list(combo)]
                err = float(np.sum(np.abs(y[0] - chan.h[0] @ x) ** 2))
                if err < best_err - 1e-15:
                    best_err, best = err, x
            assert np.array_equal(fast, best)

        # 100 random 4x4 16-QAM instances vs an independently coded
        # vectorized enumerator (per-antenna accumulation, reversed order)
        alphabet16 = ol.qam_alphabet(16)
        combos = np.array(list(itertools.product(range(16), repeat=4)))   # lexicographic
        cands = alphabet16[combos]
        for _ in range(100):
            chan = ol.draw_channel(rng, 1, 4, 4, ol.MultipathTaps(1), sigma_w2=0.3)
            grid = ol.OfdmGrid.random(rng, 4, 1, 16)
            y = ol.apply_channel(grid.symbols.T, chan, rng)
            fast = mle_detect(chan, y, 16)[:, 0]
            err = np.zeros(len(cands))
            for r in range(4):
                predicted = np.zeros(len(cands), dtype=complex)
                for t in reversed(range(4)):
                    predicted += chan.h[0, r, t] * cands[:, t]
                err += np.abs(y[0, r] - predicted) ** 2
            slow = cands[int(np.argmin(err))]
            assert np.array_equal(fast, slow)
        elapsed = time.time() - start
        assert elapsed < 300.0
        report(5, f"1000x 2x2 QPSK and 100x 4x4 16-QAM instances agree "
                  f"with independent enumerators ({elapsed:.0f}s)")


class TestCriterion6BerTheory:
    def test_matches_closed_form(self):
        # identity-profile channel scaled to unit Frobenius norm, no
        # amplifier: Gray-coded QPSK gives BER = Q(sqrt(p_snr / n_tx))
        start = time.time()
        cfg = base_config(n_sub=72, frames=400, p_snr_db=(4.0, 8.0, 12.0), seed=6)
        cfg = replace(cfg, rf=replace(cfg.rf, amplifier="linear")).validated()
        _, records = run_ber(cfg)
        for rec in records:
            assert rec.count >= 100_000
            snr = 10.0 ** (rec.x / 10.0) / cfg.system.n_tx
            theory = 0.5 * math.erfc(math.sqrt(snr / 2.0))
            dev = abs(rec.y - theory) / rec.stderr
            assert dev <= 3.0, f"p_snr={rec.x}: {rec.y:.5f} vs {theory:.5f} ({dev:.1f} sigma)"
        elapsed = time.time() - start
        assert elapsed < 300.0
        report(6, f"BER at 4/8/12 dB within 3 sigma of the Gaussian-tail "
                  f"curve, >=1e5 bits per point ({elapsed:.0f}s)")


class TestCriterion7CcdfGolden:
    THRESHOLDS = tuple(float(t) / 4.0 for t in range(16, 53))  # 4.0 .. 13.0 dB

    @staticmethod
    def crossing(records, level=1e-2):
        # first threshold where the curve dips below the level, linearly
        # interpolated in dB
        xs = np.array([r.x for r in records])
        ys = np.array([r.y for r in records])
        idx = np.argmax(ys < level)
        if idx == 0:
            return xs[0]
        x0, x1, y0, y1 = xs[idx - 1], xs[idx], ys[idx - 1], ys[idx]
        return x0 + (x1 - x0) * (y0 - level) / (y0 - y1)

    def test_golden_curves(self):
        start = time.time()
        crossings = {}
        for method in ("none", "cf", "slm"):
            cfg = base_config(method=method, frames=10_000, seed=1)
            text, records = run_ccdf(cfg, thresholds_db=self.THRESHOLDS)
            values = [r.y for r in records]
            assert all(a >= b for a, b in zip(values, values[1:])), "not monotone"
            golden = GOLDEN_DIR / f"ccdf_{method}_qpsk2x2_seed1.csv"
            assert text == golden.read_text(), f"{method} differs from the golden run"
            crossings[method] = self.crossing(records)
        assert crossings["none"] - crossings["cf"] >= 2.0
        assert crossings["none"] - crossings["slm"] >= 2.0
        elapsed = time.time() - start
        assert elapsed < 600.0
        report(7, "golden curves reproduced byte-identically; clip+filter "
                  f"and mapping sit {crossings['none'] - crossings['cf']:.1f} / "
                  f"{crossings['none'] - crossings['slm']:.1f} dB left of "
                  f"no-reduction at 1e-2 ({elapsed:.0f}s)")


class TestCriterion8SpectralRegrowth:
    def test_regrowth_directions(self):
        from ofdmlab.baselines import clip_only
        rng_seed = 31
        params = ol.RappParams.from_power_budget(1.0, 2)
        worse_unfiltered = 0
        worse_low_backoff = 0
        n_frames = 120
        for i in range(n_frames):
            rng = np.random.default_rng(rng_seed + i)
            grid = ol.OfdmGrid.random(rng, 2, 72, 4)
            frame = ol.idft_oversampled(grid.symbols, 4)
            clipped = clip_only(frame, 2.0)
            a_unfiltered = ol.acpr(ol.estimate_psd(clipped), 4)
            a_filtered = ol.acpr(ol.estimate_psd(ol.bandpass_filter(clipped, 4)), 4)
            worse_unfiltered += a_unfiltered > a_filtered

            filtered = ol.bandpass_filter(frame, 4)
            hot3 = ol.rapp_amplify(ol.apply_ibo(filtered, 3.0, params), params)
            hot9 = ol.rapp_amplify(ol.apply_ibo(filtered, 9.0, params), params)
            worse_low_backoff += (ol.acpr(ol.estimate_psd(hot3), 4)
                                  > ol.acpr(ol.estimate_psd(hot9), 4))
        assert worse_unfiltered == n_frames
        assert worse_low_backoff == n_frames
        report(8, "unfiltered clipping always leaks more than filtered; "
                  "IBO 3 dB always leaks more than IBO 9 dB (paired seeds)")


# 500 batches of 32 with the constraint phase from 40% of the epochs;
# small epochs give the dual-ascent updates a per-100-batch cadence
SMOKE_CONFIG = TrainConfig(
    n_tx=2, n_rx=2, n_subcarriers=16, oversample=4, mod_order=4,
    channel_taps=0, epochs=100, gradual_start_epoch=40, batches_per_epoch=5,
    batch_size=32, ibo_db=9.0, lr=0.002, seed=12,
)


class TestCriterion9TrainingSmoke:
    @pytest.mark.slow
    def test_training_smoke(self, tmp_path):
        start = time.time()
        ckpt_a = tmp_path / "run_a.bin"
        result = train(SMOKE_CONFIG, checkpoint_path=ckpt_a,
                       log_path=tmp_path / "run_a.csv")
        rows = result.log_rows

        # (a) final epoch-mean reconstruction loss at most half of epoch 1
        first_l1, last_l1 = rows[0][1], rows[-1][1]
        assert last_l1 <= 0.5 * first_l1, f"{last_l1:.3f} vs {first_l1:.3f}"

        # (b) filtered-frame peak ratio trends down across the constraint phase
        al_rows = [r for r in rows if r[0] >= SMOKE_CONFIG.gradual_start_epoch]
        l2b = np.array([r[3] for r in al_rows])
        assert len(l2b) >= 20
        assert l2b[-10:].mean() < l2b[:10].mean(), \
            f"late {l2b[-10:].mean():.3f} vs early {l2b[:10].mean():.3f}"

        # (c) hard-decision error rate on the identity-profile channel
        ber, bits = evaluate_ber(result.system, SMOKE_CONFIG, p_snr_db=30.0,
                                 n_frames=500, seed=777)
        assert bits >= 30_000
        assert ber <= 1e-2, f"BER {ber:.4f}"

        # (d) a rerun under the same seed is bit-identical
        ckpt_b = tmp_path / "run_b.bin"
        rerun = train(SMOKE_CONFIG, checkpoint_path=ckpt_b,
                      log_path=tmp_path / "run_b.csv")
        assert (tmp_path / "run_a.csv").read_bytes() == (tmp_path / "run_b.csv").read_bytes()
        assert ckpt_a.read_bytes() == ckpt_b.read_bytes()
        del rerun
        elapsed = (time.time() - start) / 60.0
        assert elapsed < 30.0
        report(9, f"L1 {first_l1:.1f} -> {last_l1:.2f}; filtered PAPR "
                  f"{l2b[:10].mean():.2f} -> {l2b[-10:].mean():.2f}; "
                  f"BER@30dB {ber:.2e}; rerun bit-identical ({elapsed:.1f} min)")


class TestCriterion10AlMechanics:
    def test_dual_ascent_and_clamp(self):
        state = LagrangianState()
        stepped = update_multipliers(state, 2.0, 3.0, -1.0)
        assert abs(stepped.lambda_2a - 0.018) < 1e-15
        assert abs(stepped.lambda_2b - 0.00103) < 1e-15
        assert abs(stepped.lambda_3 - 0.004) < 1e-15
        clamped = update_multipliers(state, 0.0, 0.0, -10.0)
        assert clamped.lambda_3 == 0.0

        rng = np.random.default_rng(17)
        fuzz = LagrangianState()
        for _ in range(10_000):
            fuzz = update_multipliers(fuzz, rng.normal(), rng.normal(),
                                      rng.normal(scale=50.0))
            assert fuzz.lambda_3 >= 0.0
        report(10, "dual-ascent updates match hand values; the inequality "
                   "multiplier stayed nonnegative through 1e4 fuzz steps")
