"""Command-line surface: subcommands, overrides, exit codes."""

import re
import warnings

import numpy as np
import pytest

from ofdmlab import cli
from ofdmlab.cli import main

BASE = """
[system]
n_tx = 2
n_rx = 2
n_subcarriers = 24
oversample = 4
mod_order = 4

[rf]
amplifier = linear

[run]
seed = 3
frames = 10
p_snr_db = 10
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(BASE)
    return path


class TestExitCodes:
    def test_missing_config_is_config_error(self, tmp_path):
        code = main(["ber", "--config", str(tmp_path / "nope.cfg")])
        assert code == 1

    def test_bad_key_is_config_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[system]\nn_tx = 2\nn_rx = 2\nwat = 1\n")
        assert main(["ber", "--config", str(path)]) == 1

    def test_success(self, cfg_file, tmp_path):
        out = tmp_path / "ber.csv"
        assert main(["ber", "--config", str(cfg_file), "--out", str(out)]) == 0
        assert out.exists()
        assert out.read_text().startswith("p_snr_db,ber,bit_count,stderr")

    def test_numeric_failure_is_exit_two(self, monkeypatch):
        import ofdmlab.harness as harness
        from ofdmlab.autodiff.gradcheck import CheckResult
        monkeypatch.setattr(harness, "run_gradcheck",
                            lambda seed=0: ([CheckResult("conv2d", 1.0, 1e-5)], False))
        assert main(["gradcheck"]) == 2


BAD_INPUTS = {   # name -> (text replacements applied to BASE, words of the message)
    "ibo_nan": ([("amplifier = linear", "amplifier = rapp\nibo_db = nan")], "ibo_db"),
    "psnr_inf": ([("p_snr_db = 10", "p_snr_db = 10, inf")], "p_snr_db"),
    "taps_over_k": ([("n_subcarriers = 24", "n_subcarriers = 16"),
                     ("[rf]", "[channel]\nprofile = multipath\ntaps = 100\n[rf]")], "taps"),
    "slm_zero": ([("[rf]", "[method]\nname = slm\nslm_candidates = 0\n[rf]")],
                 "slm_candidates"),
    "power_zero": ([("amplifier = linear", "amplifier = rapp\ntotal_power = 0")],
                   "total_power"),
    "clip_inf": ([("[rf]", "[method]\nname = cf\nclip_ratio_db = inf\n[rf]")],
                 "clip_ratio_db"),
    # 4000 dB overflowed in the back-off, 400 dB ran to a BER at chance
    "ibo_4000": ([("amplifier = linear", "amplifier = rapp\nibo_db = 4000")], "ibo_db"),
    "ibo_400": ([("amplifier = linear", "amplifier = rapp\nibo_db = 400")], "ibo_db"),
    "ibo_below": ([("amplifier = linear", "amplifier = rapp\nibo_db = -10.5")], "ibo_db"),
    # 1e-320 W wrote a PSD of -3000 dB; -4000 dB clipped every frame to zero,
    # -400 dB ran to a BER at chance and 4000 dB overflowed the clip limit
    "power_1e-320": ([("amplifier = linear", "amplifier = rapp\ntotal_power = 1e-320")],
                     "total_power"),
    "power_above": ([("amplifier = linear", "amplifier = rapp\ntotal_power = 2e6")],
                    "total_power"),
    "clip_-4000": ([("[rf]", "[method]\nname = cf\nclip_ratio_db = -4000\n[rf]")],
                   "clip_ratio_db"),
    "clip_-400": ([("[rf]", "[method]\nname = cf\nclip_ratio_db = -400\n[rf]")],
                  "clip_ratio_db"),
    "clip_4000": ([("[rf]", "[method]\nname = cf\nclip_ratio_db = 4000\n[rf]")],
                  "clip_ratio_db"),
    # decay 2 and NaN raised a ValueError from the tap profile
    "decay_2": ([("[rf]", "[channel]\nprofile = multipath\ndecay = 2.0\n[rf]")], "decay"),
    "decay_nan": ([("[rf]", "[channel]\nprofile = multipath\ndecay = nan\n[rf]")], "decay"),
    # a non-positive smoothness or gain raised a ValueError from RappParams, NaN
    # passed it, and a gain of 1e300 overflowed in the amplifier
    "smoothness_negative": ([("amplifier = linear", "amplifier = rapp\nsmoothness = -1")],
                            "smoothness"),
    "smoothness_nan": ([("amplifier = linear", "amplifier = rapp\nsmoothness = nan")],
                       "smoothness"),
    "gain_zero": ([("amplifier = linear", "amplifier = rapp\nsmall_signal_gain = 0")],
                  "small_signal_gain"),
    "gain_1e300": ([("amplifier = linear", "amplifier = rapp\nsmall_signal_gain = 1e300")],
                   "small_signal_gain"),
    # wrote a CSV holding a "nan,0" row and exited 0
    "thresholds_nan": ([("p_snr_db = 10", "p_snr_db = 10\nccdf_thresholds_db = nan, inf, 5")],
                       "ccdf_thresholds_db"),
    # the noise variance overflowed (1e300) or divided by zero (-1e300)
    "psnr_1e300": ([("p_snr_db = 10", "p_snr_db = 1e300")], "p_snr_db"),
    "psnr_-1e300": ([("p_snr_db = 10", "p_snr_db = -1e300")], "p_snr_db"),
}


class TestBadInputs:
    @pytest.mark.parametrize("name", sorted(BAD_INPUTS))
    def test_refused_as_config_error(self, name, tmp_path, capsys):
        replacements, words = BAD_INPUTS[name]
        text = BASE
        for old, new in replacements:
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        out = tmp_path / "ber.csv"
        assert main(["ber", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ") and words in err[0]
        assert not out.exists()

    def test_mle_guard_refused_before_any_frame(self, tmp_path, capsys, monkeypatch):
        import ofdmlab.harness as harness

        def no_frames(*args):
            raise AssertionError("a frame ran")

        monkeypatch.setattr(harness._FrameChain, "ber_block", no_frames)
        path = tmp_path / "big.cfg"
        path.write_text(BASE.replace("n_tx = 2\nn_rx = 2", "n_tx = 6\nn_rx = 6")
                        .replace("mod_order = 4", "mod_order = 16"))
        assert main(["ber", "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ") and "guard" in err[0]

    def test_singular_zf_channel_is_exit_two(self, cfg_file, tmp_path, capsys, monkeypatch):
        import ofdmlab.harness as harness
        from ofdmlab import ChannelRealization

        def rank_one(rng, n_sub, n_tx, n_rx, profile, sigma_w2):
            h = np.zeros((n_sub, n_rx, n_tx), dtype=complex)
            h[:, 0, 0] = 1.0
            return ChannelRealization(h, sigma_w2, np.ones(1))

        monkeypatch.setattr(harness, "draw_channel", rank_one)
        path = tmp_path / "zf.cfg"
        path.write_text(BASE + "\n[detector]\nname = zf\n")
        assert main(["ber", "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["numeric error: channel matrix at subcarrier 0 is singular"]


class TestUsageErrors:
    """argparse usage errors are configuration errors: one line, exit 1."""

    @pytest.mark.parametrize("argv,words", [
        (["ber", "--config", "x.cfg", "--frames", "abc"], "invalid int value: 'abc'"),
        (["bogus"], "invalid choice: 'bogus'"),
        (["ber"], "required: --config"),
        ([], "required: command"),
        (["train", "--config", "x.cfg", "--frames", "3"], "unrecognized arguments: --frames"),
        (["train", "--config", "x.cfg", "--workers", "2"], "unrecognized arguments: --workers"),
    ], ids=["bad_int", "unknown_subcommand", "missing_config", "no_subcommand",
            "train_frames", "train_workers"])
    def test_usage_error_is_config_error(self, argv, words, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ") and words in err[0]
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["-h"], ["ber", "-h"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: ofdmlab" in capsys.readouterr().out


class TestInputBackoffRange:
    def test_train_refuses_ibo_out_of_range(self, tmp_path, capsys, monkeypatch):
        _refuse_frames(monkeypatch)
        out = tmp_path / "model.bin"
        path = tmp_path / "train.cfg"
        path.write_text(BASE.replace("amplifier = linear", "amplifier = rapp\nibo_db = 400")
                        + f"out = {out}\n")
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ibo_db must lie within")
        assert not out.exists()

    @pytest.mark.parametrize("ibo_db", [-10.0, 40.0])
    def test_range_ends_accepted(self, cfg_file, tmp_path, ibo_db):
        path = tmp_path / "edge.cfg"
        path.write_text(BASE.replace("amplifier = linear", f"amplifier = rapp\nibo_db = {ibo_db}"))
        assert main(["ber", "--config", str(path), "--frames", "2",
                     "--out", str(tmp_path / "ber.csv")]) == 0

    @pytest.mark.parametrize("ibo_db", [400.0, float("nan")])
    def test_train_config_refuses_ibo_out_of_range(self, ibo_db):
        from ofdmlab.cae.training import TrainConfig
        from ofdmlab.errors import ConfigError
        with pytest.raises(ConfigError, match="ibo_db"):
            TrainConfig(ibo_db=ibo_db)


class TestPowerAndClipRanges:
    @pytest.mark.parametrize("line", ["total_power = 1e-06", "total_power = 1000000.0",
                                      "clip_ratio_db = -10.0", "clip_ratio_db = 30.0"])
    @pytest.mark.parametrize("command", ["ber", "psd"])
    def test_range_ends_run(self, tmp_path, line, command):
        section = "[rf]" if line.startswith("total_power") else "[method]\nname = cf"
        path = tmp_path / "edge.cfg"
        path.write_text(BASE.replace("amplifier = linear", "amplifier = rapp")
                        + f"{section}\n{line}\n")
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(path), "--frames", "3", "--out", str(out)]) == 0
        values = [float(v) for row in out.read_text().splitlines()[1:] for v in row.split(",")]
        assert values and all(np.isfinite(values))

    def test_train_refuses_total_power_out_of_range(self, tmp_path, capsys, monkeypatch):
        _refuse_frames(monkeypatch)
        out = tmp_path / "model.bin"
        path = tmp_path / "train.cfg"
        path.write_text(BASE.replace("amplifier = linear", "total_power = 1e-320")
                        + f"out = {out}\n")
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: total_power must lie within")
        assert not out.exists()

    @pytest.mark.parametrize("total_power", [1e-320, 0.0, 2e6, float("nan")])
    def test_train_config_refuses_total_power_out_of_range(self, total_power):
        from ofdmlab.cae.training import TrainConfig
        from ofdmlab.errors import ConfigError
        with pytest.raises(ConfigError, match="total_power"):
            TrainConfig(total_power=total_power)


def _nan_amplifier(monkeypatch):
    import ofdmlab.harness as harness
    monkeypatch.setattr(harness, "rapp_amplify", lambda samples, params: samples * np.nan)


class TestNonFiniteResults:
    """A non-finite BER, PSD, ACPR or OBO: one line, exit 2, no CSV."""

    def _refused(self, argv, out, words, capsys):
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"numeric error: {words} is nan")
        assert not out.exists()

    def test_ber(self, cfg_file, tmp_path, capsys, monkeypatch):
        import ofdmlab.harness as harness
        monkeypatch.setattr(harness._FrameChain, "ber_block",
                            lambda self, frames, point, sigma_w2: (float("nan"), 100))
        self._refused(["ber", "--config", str(cfg_file)], tmp_path / "ber.csv", "ber", capsys)

    def test_psd(self, tmp_path, capsys, monkeypatch):
        _nan_amplifier(monkeypatch)
        path = tmp_path / "rapp.cfg"
        path.write_text(BASE.replace("amplifier = linear", "amplifier = rapp"))
        self._refused(["psd", "--config", str(path)], tmp_path / "psd.csv", "psd_db", capsys)

    def test_acpr_obo(self, tmp_path, capsys, monkeypatch):
        _nan_amplifier(monkeypatch)
        path = tmp_path / "rapp.cfg"
        path.write_text(BASE.replace("amplifier = linear", "amplifier = rapp"))
        self._refused(["acpr-obo", "--config", str(path), "--frames", "3"],
                      tmp_path / "table.csv", "acpr_db", capsys)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_acpr_obo_without_leakage(self, tmp_path, capsys):
        """One subcarrier leaves the adjacent bands empty: ACPR is -inf, and numpy stays quiet."""
        path = tmp_path / "tone.cfg"
        path.write_text(BASE.replace("n_subcarriers = 24", "n_subcarriers = 1")
                        .replace("amplifier = linear", "amplifier = rapp"))
        out = tmp_path / "table.csv"
        assert main(["acpr-obo", "--config", str(path), "--frames", "100",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "numeric error: acpr_db is -inf at method = none; no CSV written"]
        assert not out.exists()


def _refuse_frames(monkeypatch):
    """Make any harness frame or training batch fail the test."""
    import ofdmlab.cae.training as training
    import ofdmlab.harness as harness

    def no_frames(*args):
        raise AssertionError("a frame ran")

    for name in ("ber_block", "cae_ber_block", "ccdf_block", "psd_block", "spectral_block"):
        monkeypatch.setattr(harness._FrameChain, name, no_frames)
    monkeypatch.setattr(training, "make_batch", no_frames)


class TestBoundaryFaults:
    """Bad seeds, config paths and output paths: one line, exit 1, no frame run."""

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 128)])
    def test_seed_out_of_range(self, cfg_file, seed, capsys, monkeypatch):
        _refuse_frames(monkeypatch)
        assert main(["ber", "--config", str(cfg_file), "--seed", seed]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: seed must be in [0, 2**128)"]

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 128)])
    def test_gradcheck_seed_out_of_range(self, seed, capsys, monkeypatch):
        import ofdmlab.harness as harness

        def no_checks(seed=0):
            raise AssertionError("a check ran")

        monkeypatch.setattr(harness, "run_gradcheck", no_checks)
        assert main(["gradcheck", "--seed", seed]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: seed must be in [0, 2**128)"]

    def test_largest_seed_runs(self, cfg_file, tmp_path):
        out = tmp_path / "ccdf.csv"
        assert main(["ccdf", "--config", str(cfg_file), "--frames", "100",
                     "--seed", str(2 ** 128 - 1), "--out", str(out)]) == 0

    def test_config_is_a_directory(self, tmp_path, capsys):
        assert main(["ccdf", "--config", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert "not a regular file" in err[0]

    def test_acpr_obo_without_guard_band(self, cfg_file, tmp_path, capsys, monkeypatch):
        _refuse_frames(monkeypatch)
        flat = tmp_path / "flat.cfg"
        flat.write_text(BASE.replace("oversample = 4", "oversample = 1"))
        out = tmp_path / "table.csv"
        # refused before the first config's frames, wherever it stands in the list
        assert main(["acpr-obo", "--config", str(cfg_file), str(flat), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: acpr-obo needs oversample >= 2: the adjacent bands lie in the "
            "guard band"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ber", "ccdf", "psd", "acpr-obo", "train"])
    @pytest.mark.parametrize("where", ["missing_dir", "is_dir"])
    def test_bad_output_path_refused_before_any_frame(self, cfg_file, tmp_path, capsys,
                                                      monkeypatch, command, where):
        _refuse_frames(monkeypatch)
        out = tmp_path / "nonexistent" / "x.csv" if where == "missing_dir" else tmp_path
        assert main([command, "--config", str(cfg_file), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: output ")
        assert not (tmp_path / "nonexistent").exists()


BAD_RECIPES = {   # [train] lines -> words of the message
    "activation = relu": "activation",
    "decoder_iterations = 0": "decoder_iterations",
    "epochs = 0": "epochs",
    "batches_per_epoch = 0": "batches_per_epoch",
    "batch_size = 1": "batch_size",
    "epochs = 3\ngradual_start_epoch = 9": "gradual_start_epoch",
    "gradual_start_epoch = 0": "gradual_start_epoch",
    "rho_2a = 0": "rho_2a",
    "rho_2b = -1e-5": "rho_2b",
    "rho_3 = nan": "rho_3",
    "lambda_3 = -0.5": "lambda_3",
    "lr = nan": "lr",
    # accepted before: a log CSV with a nan multiplier and exit 0
    "epochs = 1\ngradual_start_epoch = 2\nlambda_2a = nan": "lambda_2a must be finite",
    "lambda_2a = nan": "lambda_2a must be finite",
    "lambda_2b = -inf": "lambda_2b must be finite",
    "weight_decay = inf": "weight_decay",
    "train_snr_db = -inf": "train_snr_db",
    # 1e300 overflowed in the noise variance; the range is [run] p_snr_db's
    "train_snr_db = 1e300": "train_snr_db must lie within [-100, 400] dB",
    "train_snr_db = -100.5": "train_snr_db must lie within [-100, 400] dB",
    "acpr_req_db = nan": "acpr_req_db",
    "init_scale = inf": "init_scale",
    # -0 crashed in the weight draw; 0 drew all-zero weights and a nan loss
    "init_scale = -0": "init_scale must be positive and finite",
    "init_scale = 0": "init_scale must be positive and finite",
    # inf ended the first epoch as a numeric error
    "lambda_3 = inf": "lambda_3 must be finite and >= 0",
    "rho_3 = inf": "rho_3 must be positive and finite",
}


NO_GUARD_BAND = ("training needs oversample >= 2: the ACPR loss measures the adjacent "
                 "bands in the guard band")


class TestBadTrainingRecipe:
    def test_run_larger_than_memory_refused(self, tmp_path, capsys, monkeypatch):
        import ofdmlab.cae.training as training
        _refuse_frames(monkeypatch)
        monkeypatch.setattr(training, "_available_bytes", lambda: 1 << 20)
        out = tmp_path / "model.bin"
        path = tmp_path / "train.cfg"
        path.write_text(BASE.replace("amplifier = linear", "amplifier = rapp"))
        assert main(["train", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: training needs about ")
        assert err[0].endswith("but 0.00105 GB is available")
        assert not out.exists()

    @pytest.mark.parametrize("line,key", [("amplifier = linear", "amplifier"),
                                          ("small_signal_gain = 2", "small_signal_gain")])
    def test_front_end_other_than_unit_gain_rapp_refused(self, tmp_path, capsys, monkeypatch,
                                                         line, key):
        _refuse_frames(monkeypatch)
        out = tmp_path / "model.bin"
        path = tmp_path / "train.cfg"
        path.write_text(BASE.replace("amplifier = linear", line) + f"out = {out}\n")
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: the CAE trains through a RAPP amplifier with "
                       f"small_signal_gain = 1, not the config's [rf]: {key}"]
        assert not out.exists()

    # gradual_start_epoch = 2 > epochs is pure reconstruction; 1 runs the constraint phase
    @pytest.mark.parametrize("start", [1, 2], ids=["constrained", "reconstruction_only"])
    def test_no_guard_band_refused(self, tmp_path, capsys, monkeypatch, start):
        _refuse_frames(monkeypatch)
        out = tmp_path / "model.bin"
        path = tmp_path / "train.cfg"
        path.write_text(BASE.replace("amplifier = linear", "amplifier = rapp")
                        .replace("oversample = 4", "oversample = 1")
                        + f"out = {out}\n[train]\nepochs = 1\ngradual_start_epoch = {start}\n"
                        "batches_per_epoch = 1\nbatch_size = 2\n")
        assert main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"config error: {NO_GUARD_BAND}"]
        assert not out.exists()

    def test_overflowing_multiplier_is_numeric_error(self, tmp_path, capsys):
        """A finite lambda_3 whose square overflows: one line and exit 2, not a traceback."""
        out = tmp_path / "model.bin"
        path = tmp_path / "train.cfg"
        path.write_text(BASE.replace("amplifier = linear", "amplifier = rapp")
                        + f"out = {out}\n[train]\nepochs = 1\ngradual_start_epoch = 1\n"
                        "batches_per_epoch = 1\nbatch_size = 2\ndecoder_iterations = 1\n"
                        "lambda_3 = 1.3407807929942597e+154\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric error: non-finite loss at epoch 1")
        assert not out.exists() and not out.with_suffix(".log.csv").exists()

    def test_train_config_refuses_no_guard_band(self):
        from ofdmlab.cae.training import TrainConfig
        from ofdmlab.errors import ConfigError
        with pytest.raises(ConfigError) as exc:
            TrainConfig(oversample=1)
        assert str(exc.value) == NO_GUARD_BAND

    @pytest.mark.parametrize("lines", sorted(BAD_RECIPES))
    def test_refused_as_config_error(self, lines, tmp_path, capsys, monkeypatch):
        _refuse_frames(monkeypatch)
        out = tmp_path / "model.bin"
        path = tmp_path / "train.cfg"
        path.write_text(BASE + f"out = {out}\n[train]\n{lines}\n")
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert BAD_RECIPES[lines] in err[0]
        assert not out.exists() and not out.with_suffix(".log.csv").exists()


def _small_checkpoint(path):
    from ofdmlab.cae.pipeline import build_system
    from ofdmlab.cae.training import TrainConfig, save_system
    cfg = TrainConfig(n_tx=2, n_rx=2, n_subcarriers=24, oversample=4, mod_order=4,
                      decoder_iterations=1)
    save_system(path, build_system(2, 2, 24, 4, 4, ibo_db=6.0, iterations=1), cfg)


def _truncated_header(path):
    _small_checkpoint(path)
    path.write_bytes(path.read_bytes()[:6])


def _truncated_data(path):
    _small_checkpoint(path)
    path.write_bytes(path.read_bytes()[:5000])


def _foreign(path):
    path.write_text("not a checkpoint\n")


def _missing_entry(path):
    from ofdmlab.autodiff.checkpoint import load_tensors, save_tensors
    _small_checkpoint(path)
    tensors = load_tensors(path)
    del tensors["dec/it00/fc/w"]
    save_tensors(path, tensors)


def _non_finite_entry(path):
    from ofdmlab.autodiff.checkpoint import load_tensors, save_tensors
    _small_checkpoint(path)
    tensors = load_tensors(path)
    tensors["dec/it00/fc/w"][3, 5] = np.inf
    save_tensors(path, tensors)


def _wrong_shape(path):
    from ofdmlab.autodiff.checkpoint import load_tensors, save_tensors
    _small_checkpoint(path)
    tensors = load_tensors(path)
    tensors["enc/conv1/b"] = tensors["enc/conv1/b"][:1]
    save_tensors(path, tensors)


class TestBadCheckpoint:
    @pytest.mark.parametrize("make", [None, _truncated_header, _truncated_data, _foreign,
                                      _missing_entry, _non_finite_entry, _wrong_shape],
                             ids=["missing", "truncated_header", "truncated_data", "foreign",
                                  "missing_entry", "non_finite_entry", "wrong_shape"])
    def test_refused_as_config_error(self, make, tmp_path, capsys):
        checkpoint = tmp_path / "cae.bin"
        if make is not None:
            make(checkpoint)
        path = tmp_path / "cae.cfg"
        path.write_text(BASE + f"[method]\nname = cae\ncheckpoint = {checkpoint}\n"
                               "[detector]\nname = cae\n")
        assert main(["ber", "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert str(checkpoint) in err[0]

    @pytest.mark.parametrize("make,entry", [(_non_finite_entry, "dec/it00/fc/w"),
                                            (_wrong_shape, "enc/conv1/b")],
                             ids=["non_finite_entry", "wrong_shape"])
    def test_refusal_names_the_entry(self, make, entry, tmp_path, capsys):
        checkpoint = tmp_path / "cae.bin"
        make(checkpoint)
        path = tmp_path / "cae.cfg"
        path.write_text(BASE.replace("amplifier = linear", "amplifier = rapp")
                        + f"[method]\nname = cae\ncheckpoint = {checkpoint}\n"
                        "[detector]\nname = cae\n")
        assert main(["ber", "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(checkpoint) in err[0] and entry in err[0]

    def test_receive_antennas_mismatch_refused(self, tmp_path, capsys):
        checkpoint = tmp_path / "cae.bin"
        _small_checkpoint(checkpoint)                    # 2 x 2
        path = tmp_path / "cae.cfg"
        path.write_text(BASE.replace("n_rx = 2", "n_rx = 3")
                        + "[channel]\nprofile = multipath\ntaps = 4\n"
                        f"[method]\nname = cae\ncheckpoint = {checkpoint}\n"
                        "[detector]\nname = cae\n")
        assert main(["ber", "--config", str(path), "--frames", "2"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: checkpoint geometry does not match the config"]

    @pytest.mark.parametrize("command", ["ber", "psd", "acpr-obo"])
    @pytest.mark.parametrize("line,key", [("ibo_db = 3", "ibo_db"),
                                          ("total_power = 2", "total_power"),
                                          ("smoothness = 3", "smoothness"),
                                          ("amplifier = linear", "amplifier"),
                                          ("small_signal_gain = 2", "small_signal_gain")])
    def test_rf_mismatch_refused(self, tmp_path, capsys, monkeypatch, command, line, key):
        _refuse_frames(monkeypatch)
        checkpoint = tmp_path / "cae.bin"
        _small_checkpoint(checkpoint)        # RAPP, IBO 6 dB, power 1, smoothness 2, gain 1
        path = tmp_path / "cae.cfg"
        path.write_text(BASE.replace("amplifier = linear", line)
                        + f"[method]\nname = cae\ncheckpoint = {checkpoint}\n"
                        "[detector]\nname = cae\n")
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: checkpoint RF settings do not match "
                       f"the config's [rf]: {key}"]

    def test_intact_checkpoint_runs(self, tmp_path):
        checkpoint = tmp_path / "cae.bin"
        _small_checkpoint(checkpoint)
        path = tmp_path / "cae.cfg"
        path.write_text(BASE.replace("amplifier = linear", "amplifier = rapp")
                        + f"[method]\nname = cae\ncheckpoint = {checkpoint}\n"
                               "[detector]\nname = cae\n")
        assert main(["ber", "--config", str(path), "--frames", "2",
                     "--out", str(tmp_path / "ber.csv")]) == 0


class TestHugeWeights:
    """Finite weights that overflow the CAE's arithmetic end in one numeric error line."""

    @pytest.mark.parametrize("command,words", [("ber", "logits are not finite"),
                                               ("ccdf", "non-finite frame"),
                                               ("psd", "non-finite frame")])
    def test_numeric_error_without_warnings(self, command, words, tmp_path, capsys):
        from ofdmlab.cae.pipeline import build_system
        from ofdmlab.cae.training import TrainConfig, save_system
        checkpoint = tmp_path / "cae.bin"
        system = build_system(2, 2, 24, 4, 4, ibo_db=6.0, iterations=1)
        for p in system.parameters().values():
            p.values *= 1e300
        save_system(checkpoint, system, TrainConfig(n_tx=2, n_rx=2, n_subcarriers=24,
                                                    oversample=4, mod_order=4,
                                                    decoder_iterations=1))
        out = tmp_path / "out.csv"
        path = tmp_path / "cae.cfg"
        path.write_text(BASE.replace("amplifier = linear", "amplifier = rapp")
                        .replace("frames = 10", "frames = 100")
                        + f"[method]\nname = cae\ncheckpoint = {checkpoint}\n"
                        "[detector]\nname = cae\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric error: ") and words in err[0]
        assert not out.exists()


class TestDeterminism:
    def test_ber_rerun_byte_identical(self, cfg_file, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["ber", "--config", str(cfg_file), "--out", str(out1)]) == 0
        assert main(["ber", "--config", str(cfg_file), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_output(self, cfg_file, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["ber", "--config", str(cfg_file), "--out", str(out1), "--frames", "40"])
        main(["ber", "--config", str(cfg_file), "--out", str(out2), "--frames", "40",
              "--seed", "99"])
        assert out1.read_bytes() != out2.read_bytes()

    def test_ccdf_workers_invariant(self, cfg_file, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["ccdf", "--config", str(cfg_file), "--out", str(out1),
              "--frames", "120", "--workers", "1"])
        main(["ccdf", "--config", str(cfg_file), "--out", str(out2),
              "--frames", "120", "--workers", "3"])
        assert out1.read_bytes() == out2.read_bytes()


class TestSubcommands:
    def test_psd(self, cfg_file, tmp_path):
        out = tmp_path / "psd.csv"
        assert main(["psd", "--config", str(cfg_file), "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "normalized_freq,psd_db,linear_ref_db"

    def test_acpr_obo(self, cfg_file, tmp_path):
        rapp_cfg = tmp_path / "rapp.cfg"
        rapp_cfg.write_text(BASE.replace("amplifier = linear", "amplifier = rapp"))
        out = tmp_path / "table.csv"
        assert main(["acpr-obo", "--config", str(rapp_cfg), str(rapp_cfg),
                     "--out", str(out), "--frames", "5"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "method,acpr_db,obo_db"
        assert lines[1] == lines[2]

    @pytest.mark.parametrize("platform,maxrss,mb", [("linux", 3 << 10, 3.0),
                                                     ("darwin", 3 << 20, 3.0)])
    def test_peak_rss_units(self, monkeypatch, platform, maxrss, mb):
        class Usage:
            ru_maxrss = maxrss

        class Resource:
            RUSAGE_SELF = 0

            @staticmethod
            def getrusage(who):
                return Usage

        monkeypatch.setattr(cli, "resource", Resource)
        monkeypatch.setattr(cli.sys, "platform", platform)
        assert cli._peak_rss_mb() == mb
        monkeypatch.setattr(cli, "resource", None)
        assert cli._peak_rss_mb() is None

    def test_train_writes_checkpoint_and_log(self, tmp_path, capsys):
        path = tmp_path / "train.cfg"
        path.write_text("""
[system]
n_tx = 2
n_rx = 2
n_subcarriers = 8
oversample = 4
mod_order = 4

[run]
seed = 5
out = {out}

[train]
epochs = 2
gradual_start_epoch = 1
batches_per_epoch = 2
batch_size = 4
decoder_iterations = 2
""".format(out=tmp_path / "model.bin"))
        assert main(["train", "--config", str(path)]) == 0
        assert (tmp_path / "model.bin").exists()
        log = (tmp_path / "model.log.csv").read_text().splitlines()
        assert log[0] == "epoch,l1,l2a,l2b,l3,lambda_2a,lambda_2b,lambda_3,grad_norm"
        assert len(log) == 3

        # progress goes to stderr and leaves the log and checkpoint bytes alone
        stderr = capsys.readouterr().err.splitlines()
        assert len(stderr) == 2
        assert stderr[-1].startswith("epoch 2/2: ") and "batches/s, ETA 0:00:00" in stderr[-1]
        assert re.search(r", peak RSS \d+ MB$", stderr[-1]), stderr[-1]
        from ofdmlab.cae.training import train
        from ofdmlab.cli import train_config
        from ofdmlab.config import load_config
        train(train_config(load_config(path)), checkpoint_path=tmp_path / "quiet.bin",
              log_path=tmp_path / "quiet.csv")
        assert (tmp_path / "quiet.csv").read_bytes() == (tmp_path / "model.log.csv").read_bytes()
        assert (tmp_path / "quiet.bin").read_bytes() == (tmp_path / "model.bin").read_bytes()
