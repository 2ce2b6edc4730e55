"""Experiment harness: config parsing, determinism, CSV output, seeding."""

import math
from pathlib import Path

import numpy as np
import pytest

from ofdmlab.config import (_SCHEMA, ExperimentConfig, MethodConfig, RunConfig,
                            SystemConfig, load_config, parse_config,
                            serialize_config, with_overrides)
from ofdmlab.errors import ConfigError, NumericError
from ofdmlab.harness import frame_rng, run_acpr_obo, run_ber, run_ccdf, run_psd


def make_cfg(**kwargs):
    text = """
[system]
n_tx = 2
n_rx = 2
n_subcarriers = 24
oversample = 4
mod_order = 4
"""
    cfg = parse_config(text)
    from dataclasses import replace
    run = replace(cfg.run, **kwargs.pop("run", {}))
    method = replace(cfg.method, **kwargs.pop("method", {}))
    rf = replace(cfg.rf, **kwargs.pop("rf", {}))
    detector = kwargs.pop("detector", cfg.detector)
    return replace(cfg, run=run, method=method, rf=rf, detector=detector).validated()


class TestConfigParsing:
    def test_minimal_defaults(self):
        cfg = parse_config("[system]\nn_tx = 4\nn_rx = 4\n")
        assert cfg.system.n_subcarriers == 72
        assert cfg.system.oversample == 4
        assert cfg.rf.smoothness == 2.0
        assert cfg.method.clip_ratio_db == 4.08
        assert cfg.method.slm_candidates == 64
        assert cfg.train.lambda_2a == 0.015
        assert cfg.train.rho_2b == 0.00001
        assert cfg.run.frames == 7000

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="misspelled"):
            parse_config("[system]\nn_tx = 2\nn_rx = 2\nmisspelled = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("[wat]\nx = 1\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("[system]\nn_tx = 2\nn_rx = two\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError):
            parse_config("[system]\nn_tx = 2\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("[system]\nn_tx = 2\nn_tx = 3\nn_rx = 2\n")

    def test_full_config_round_trip(self):
        text = """
[system]
n_tx = 4
n_rx = 4
n_subcarriers = 72
oversample = 4
mod_order = 16

[channel]
profile = multipath
taps = 13

[rf]
amplifier = rapp
ibo_db = 7.0

[method]
name = slm
slm_candidates = 64

[detector]
name = mle

[run]
seed = 11
frames = 200
p_snr_db = 4, 8, 12
"""
        cfg = parse_config(text)
        assert cfg == parse_config(serialize_config(cfg))

    def test_detector_method_pairing_enforced(self):
        with pytest.raises(ConfigError):
            make_cfg(detector="cae")

    def test_cli_overrides(self):
        cfg = make_cfg()
        out = with_overrides(cfg, seed=9, frames=50, workers=2)
        assert (out.run.seed, out.run.frames, out.run.workers) == (9, 50, 2)

    def test_readme_example_parses_and_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        parse_config(example)
        written = {}
        for line in example.splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("["):
                section = line[1:-1]
            elif line:
                written.setdefault(section, []).append(line.partition("=")[0].strip())
        assert written == {name: list(keys) for name, (_, keys) in _SCHEMA.items()}

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")


class TestFrameSeeding:
    def test_streams_independent_and_reproducible(self):
        a = frame_rng(5, 0, 0).standard_normal(4)
        b = frame_rng(5, 1, 0).standard_normal(4)
        c = frame_rng(5, 0, 1).standard_normal(4)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)
        assert np.array_equal(a, frame_rng(5, 0, 0).standard_normal(4))


class TestRunBer:
    def test_noiseless_mle_is_error_free(self):
        cfg = make_cfg(run={"frames": 20, "p_snr_db": (300.0,)},
                       rf={"amplifier": "linear"})
        _, records = run_ber(cfg)
        assert records[0].y == 0.0

    def test_same_seed_byte_identical(self):
        cfg = make_cfg(run={"frames": 15, "p_snr_db": (8.0, 12.0)})
        text1, _ = run_ber(cfg)
        text2, _ = run_ber(cfg)
        assert text1 == text2

    def test_worker_count_invariance(self):
        cfg1 = make_cfg(run={"frames": 12, "p_snr_db": (6.0,), "workers": 1})
        cfg2 = make_cfg(run={"frames": 12, "p_snr_db": (6.0,), "workers": 3})
        assert run_ber(cfg1)[0] == run_ber(cfg2)[0]

    def test_matches_qpsk_theory_on_identity_channel(self):
        # closed-form Gray-coded bit error rate for the scaled identity
        # channel: Q(sqrt(p_snr_linear / n_tx))
        cfg = make_cfg(run={"frames": 700, "p_snr_db": (4.0, 8.0)},
                       rf={"amplifier": "linear"})
        _, records = run_ber(cfg)
        for rec in records:
            snr = 10 ** (rec.x / 10) / cfg.system.n_tx
            theory = 0.5 * math.erfc(math.sqrt(snr / 2.0))
            assert abs(rec.y - theory) <= 3.0 * rec.stderr

    def test_empty_grid_rejected(self):
        cfg = make_cfg(run={"p_snr_db": ()})
        with pytest.raises(ConfigError):
            run_ber(cfg)

    def test_ber_csv_format(self, tmp_path):
        out = tmp_path / "ber.csv"
        cfg = make_cfg(run={"frames": 5, "p_snr_db": (10.0,), "out": str(out)})
        text, _ = run_ber(cfg)
        assert out.read_text() == text
        header, row = text.strip().split("\n")
        assert header == "p_snr_db,ber,bit_count,stderr"
        assert len(row.split(",")) == 4

    @pytest.mark.parametrize("detector", ["mle", "zf"])
    def test_non_finite_received_signal_refused(self, detector, tmp_path, monkeypatch):
        import ofdmlab.harness as harness
        monkeypatch.setattr(harness, "apply_channel",
                            lambda x, chan, rng: np.full((x.shape[0], chan.n_rx), np.nan + 0j))
        out = tmp_path / "ber.csv"
        cfg = make_cfg(run={"frames": 3, "p_snr_db": (10.0,), "out": str(out)},
                       detector=detector)
        with pytest.raises(NumericError, match="received signal is not finite"):
            run_ber(cfg)
        assert not out.exists()

    def test_ber_nonincreasing_in_snr(self):
        # detection only improves with peak SNR (within Monte Carlo noise)
        cfg = make_cfg(run={"frames": 300, "p_snr_db": (2.0, 6.0, 10.0, 14.0)})
        _, records = run_ber(cfg)
        for lo, hi in zip(records, records[1:]):
            assert hi.y <= lo.y + 3.0 * (lo.stderr + hi.stderr)


class TestRunCcdf:
    def test_monotone_nonincreasing(self):
        cfg = make_cfg(run={"frames": 150})
        _, records = run_ccdf(cfg, thresholds_db=np.linspace(2, 12, 21))
        values = [r.y for r in records]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_extreme_thresholds(self):
        cfg = make_cfg(run={"frames": 120})
        _, records = run_ccdf(cfg, thresholds_db=[0.0, 60.0])
        assert records[0].y == 1.0
        assert records[1].y == 0.0

    def test_needs_minimum_frames(self):
        cfg = make_cfg(run={"frames": 50})
        with pytest.raises(ConfigError):
            run_ccdf(cfg, thresholds_db=[5.0])

    def test_reruns_identical(self):
        cfg = make_cfg(run={"frames": 120})
        t1, _ = run_ccdf(cfg, thresholds_db=[4.0, 8.0])
        t2, _ = run_ccdf(cfg, thresholds_db=[4.0, 8.0])
        assert t1 == t2


class TestRunPsd:
    def test_brick_wall_reference_floor(self):
        cfg = make_cfg(run={"frames": 30})
        text = run_psd(cfg)
        lines = text.strip().split("\n")[1:]
        ref = np.array([float(l.split(",")[2]) for l in lines])
        n = len(ref)
        k = n // cfg.system.oversample
        start = (n - k) // 2
        guard = np.concatenate([ref[:start], ref[start + k:]])
        assert guard.max() <= -60.0

    def test_regrowth_shoulder_above_reference(self):
        cfg = make_cfg(run={"frames": 30}, rf={"ibo_db": 3.0})
        text = run_psd(cfg)
        lines = text.strip().split("\n")[1:]
        psd = np.array([float(l.split(",")[1]) for l in lines])
        ref = np.array([float(l.split(",")[2]) for l in lines])
        n = len(ref)
        k = n // cfg.system.oversample
        start = (n - k) // 2
        guard_idx = np.concatenate([np.arange(0, start), np.arange(start + k, n)])
        assert np.all(psd[guard_idx] > ref[guard_idx])

    def test_deterministic(self):
        cfg = make_cfg(run={"frames": 10})
        assert run_psd(cfg) == run_psd(cfg)


class TestRunAcprObo:
    def test_identical_configs_identical_rows(self):
        cfg = make_cfg(run={"frames": 20})
        text = run_acpr_obo([cfg, cfg])
        lines = text.strip().split("\n")
        assert lines[1] == lines[2]

    def test_clipping_beats_no_reduction(self):
        plain = make_cfg(run={"frames": 40}, rf={"ibo_db": 5.0})
        clipped = make_cfg(run={"frames": 40}, rf={"ibo_db": 5.0},
                           method={"name": "cf"})
        text = run_acpr_obo([plain, clipped])
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        acpr_plain = float(rows[0][1])
        acpr_clipped = float(rows[1][1])
        assert acpr_plain > acpr_clipped

    def test_obo_matches_metric_on_stored_frames(self):
        # plumbing identity: the table's OBO equals the metric applied to
        # the same backed-off frames
        cfg = make_cfg(run={"frames": 8}, rf={"ibo_db": 6.0})
        text = run_acpr_obo([cfg])
        obo_db = float(text.strip().split("\n")[1].split(",")[2])
        from ofdmlab.harness import _FrameChain
        chain = _FrameChain(cfg)
        antenna_power = chain.spectral_block(range(8))[1]
        expected = 10 * np.log10(cfg.rf.total_power / np.mean(np.sum(antenna_power, axis=-1)))
        assert abs(obo_db - expected) < 1e-12

    def test_empty_list_rejected(self):
        with pytest.raises(ConfigError):
            run_acpr_obo([])


class TestGradcheckCommand:
    def test_reports_all_layers_and_end_to_end(self):
        from ofdmlab.harness import run_gradcheck
        results, ok = run_gradcheck(seed=1)
        names = {r.name for r in results}
        assert "conv2d" in names and "end_to_end" in names
        assert ok

    def test_negative_control(self, biased_conv2d):
        from ofdmlab.harness import run_gradcheck
        results, ok = run_gradcheck(seed=1)
        assert not ok
        assert not [r for r in results if r.name == "conv2d"][0].passed
