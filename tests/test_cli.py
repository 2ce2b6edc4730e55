"""Command-line surface: subcommands, overrides, exit codes."""

import numpy as np
import pytest

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
        from ofdmlab.cae.training import train
        from ofdmlab.cli import train_config
        from ofdmlab.config import load_config
        train(train_config(load_config(path)), checkpoint_path=tmp_path / "quiet.bin",
              log_path=tmp_path / "quiet.csv")
        assert (tmp_path / "quiet.csv").read_bytes() == (tmp_path / "model.log.csv").read_bytes()
        assert (tmp_path / "quiet.bin").read_bytes() == (tmp_path / "model.bin").read_bytes()
