"""Training-loop behavior at toy scale: staging, logging, determinism, memory budget."""

import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ofdmlab import modulation
from ofdmlab.autodiff import no_grad
from ofdmlab.cae import TrainConfig, pipeline, train, training
from ofdmlab.cae.model import hard_decisions
from ofdmlab.cae.training import _EVAL_STREAM, LOG_HEADER, counter_rng, make_batch
from ofdmlab.channel import noise_variance_for_psnr
from ofdmlab.cli import train_config
from ofdmlab.config import load_config, parse_config
from ofdmlab.errors import ConfigError
from ofdmlab.modulation import symbols_to_bits


def toy_config(**kwargs):
    defaults = dict(n_tx=2, n_rx=2, n_subcarriers=8, oversample=2, mod_order=4,
                    channel_taps=0, epochs=3, gradual_start_epoch=2,
                    batches_per_epoch=2, batch_size=4, decoder_iterations=2,
                    seed=5)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


class TestStaging:
    def test_pure_reconstruction_never_updates_multipliers(self):
        cfg = toy_config(gradual_start_epoch=4)   # epochs + 1
        result = train(cfg)
        assert result.state.epoch == 0
        assert result.state.lambda_2a == cfg.lambda_2a
        assert result.state.lambda_3 == cfg.lambda_3

    def test_constraint_phase_updates_multipliers(self):
        cfg = toy_config(gradual_start_epoch=2)
        result = train(cfg)
        assert result.state.epoch == 2            # epochs 2 and 3
        assert result.state.lambda_2a > cfg.lambda_2a

    def test_gradual_start_bounds_checked(self):
        with pytest.raises(ValueError):
            toy_config(gradual_start_epoch=5)     # > epochs + 1
        with pytest.raises(ValueError):
            toy_config(gradual_start_epoch=0)


class TestLogging:
    def test_log_rows_and_header(self, tmp_path):
        log = tmp_path / "log.csv"
        result = train(toy_config(), log_path=log)
        assert len(result.log_rows) == 3
        lines = log.read_text().splitlines()
        assert lines[0] == ",".join(LOG_HEADER)
        assert len(lines) == 4
        # multipliers logged are the values in force during the epoch
        assert float(lines[1].split(",")[5]) == 0.015

    def test_non_finite_log_value_writes_nothing(self, tmp_path, monkeypatch):
        """l2a is logged but not trained on before the constraint phase: a nan there
        is a NumericError, and neither the checkpoint nor the log is written."""
        from ofdmlab.autodiff import DiffTensor
        from ofdmlab.errors import NumericError
        monkeypatch.setattr(pipeline, "loss_papr",
                            lambda *args: (DiffTensor(np.nan), DiffTensor(0.0)))
        ckpt, log = tmp_path / "model.bin", tmp_path / "model.log.csv"
        with pytest.raises(NumericError, match="l2a is nan at epoch = 1; no checkpoint or log"):
            train(toy_config(epochs=1, gradual_start_epoch=2), checkpoint_path=ckpt,
                  log_path=log)
        assert not ckpt.exists() and not log.exists()

    def test_overflowing_step_writes_nothing(self, tmp_path):
        """A step that overflows the weights on the last batch leaves every logged
        loss finite: the checkpoint check ends the run, and numpy never warns."""
        from ofdmlab.errors import NumericError
        ckpt, log = tmp_path / "model.bin", tmp_path / "model.log.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericError, match="holds a non-finite value; nothing written"):
                train(toy_config(epochs=1, gradual_start_epoch=2, batches_per_epoch=1, lr=1e308),
                      checkpoint_path=ckpt, log_path=log)
            with pytest.raises(NumericError, match="non-finite loss at epoch 2"):
                train(toy_config(epochs=2, gradual_start_epoch=3, batches_per_epoch=1,
                                 lr=1e300))
        assert not ckpt.exists() and not log.exists()

    def test_lambda_column_tracks_updates(self):
        result = train(toy_config())
        lam_2a = [row[5] for row in result.log_rows]
        assert lam_2a[0] == lam_2a[1] == 0.015    # update happens after epoch 2
        assert lam_2a[2] > 0.015


class TestDeterminism:
    def test_identical_seeds_identical_logs(self):
        a = train(toy_config())
        b = train(toy_config())
        assert a.log_rows == b.log_rows
        pa, pb = a.system.parameters(), b.system.parameters()
        assert all(np.array_equal(pa[k].values, pb[k].values) for k in pa)

    def test_different_seed_differs(self):
        a = train(toy_config())
        b = train(toy_config(seed=6))
        assert a.log_rows != b.log_rows


class TestDataPlumbing:
    def test_batch_shapes(self):
        cfg = toy_config()
        grids, h, noise = make_batch(counter_rng(1, 0, 1), cfg, 1e-3)
        assert grids.shape == (4, 2, 8)
        assert h.shape == (4, 8, 2, 2)
        assert noise.shape == (4, 8, 2)
        assert abs(np.mean(np.abs(noise) ** 2) / 1e-3 - 1.0) < 0.5


def evaluate_ber_oracle(system, cfg: TrainConfig, p_snr_db: float,
                        n_frames: int, seed: int, batch: int = 32) -> tuple[float, int]:
    """The earlier evaluate_ber, verbatim: a full run_batch, losses included."""
    sigma_w2 = noise_variance_for_psnr(p_snr_db, cfg.total_power)
    errors = 0
    total = 0
    done = 0
    index = 0
    while done < n_frames:
        n = min(batch, n_frames - done)
        rng = counter_rng(seed, index, _EVAL_STREAM)
        grids, h, noise = make_batch(rng, cfg, sigma_w2, n_examples=n)
        with no_grad():
            result = system.run_batch(grids, h, noise, rng, train=False)
        hard = hard_decisions(result.logits.values, cfg.mod_order)
        sent = symbols_to_bits(grids, cfg.mod_order)
        got = symbols_to_bits(hard, cfg.mod_order)
        errors += int(np.sum(sent != got))
        total += sent.size
        done += n
        index += 1
    return errors / total, total


class TestEvaluateBer:
    @pytest.mark.parametrize("p_snr_db", [4.0, 30.0])
    def test_matches_run_batch_oracle(self, p_snr_db, monkeypatch):
        cfg = toy_config(channel_taps=3)
        system = train(cfg).system
        recorded = {"new": [], "old": []}
        original = modulation.symbols_to_bits

        def recorder(key):
            def record(symbols, order):
                bits = original(symbols, order)
                recorded[key].append(bits)
                return bits
            return record

        def no_losses(*args, **kwargs):
            raise AssertionError("evaluate_ber computed a training loss")

        with monkeypatch.context() as patch:
            patch.setattr(modulation, "symbols_to_bits", recorder("new"))
            for name in ("loss_reconstruction", "loss_papr", "loss_acpr"):
                patch.setattr(pipeline, name, no_losses)
            new = training.evaluate_ber(system, cfg, p_snr_db, 70, seed=4)
        monkeypatch.setattr(sys.modules[__name__], "symbols_to_bits", recorder("old"))
        old = evaluate_ber_oracle(system, cfg, p_snr_db, 70, seed=4)
        assert new == old
        assert len(recorded["new"]) == len(recorded["old"]) == 6   # sent + got per batch
        for a, b in zip(recorded["new"], recorded["old"]):
            assert np.array_equal(a, b)


    def test_no_frames_refused_before_any_draw(self, monkeypatch):
        cfg = toy_config()
        system = training.build_from_config(cfg)

        def no_draws(*args, **kwargs):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(training, "make_batch", no_draws)
        with pytest.raises(ConfigError, match="n_frames must be >= 1"):
            training.evaluate_ber(system, cfg, 10.0, 0, seed=1)


# The link of TrainConfig's defaults, as config-file values.
LINK_DEFAULTS = {("system", "n_tx"): 4, ("system", "n_rx"): 4, ("system", "n_subcarriers"): 72,
                 ("system", "oversample"): 4, ("system", "mod_order"): 16,
                 ("channel", "profile"): "multipath", ("channel", "taps"): 13}
# TrainConfig values that train() used to accept and then crash on, with the
# config-file values of the same link: name -> (TrainConfig keywords, values).
BAD_LINKS = {
    "awgn_n_rx": (dict(channel_taps=0, n_rx=3),
                  {("channel", "profile"): "awgn", ("system", "n_rx"): 3}),
    "seed": (dict(seed=-1), {("run", "seed"): -1}),
    "smoothness": (dict(smoothness=0.0), {("rf", "smoothness"): 0.0}),
    "mod_order": (dict(mod_order=8), {("system", "mod_order"): 8}),
    "taps_over_k": (dict(n_subcarriers=8, channel_taps=20),
                    {("system", "n_subcarriers"): 8, ("channel", "taps"): 20}),
    "decay": (dict(channel_decay=2.0), {("channel", "decay"): 2.0}),
    "no_subcarriers": (dict(n_subcarriers=0), {("system", "n_subcarriers"): 0}),
}


class TestLinkCheck:
    @pytest.mark.parametrize("name", sorted(BAD_LINKS))
    def test_refused_with_the_config_files_message(self, name):
        kwargs, values = BAD_LINKS[name]
        sections: dict[str, str] = {}
        for (section, key), value in {**LINK_DEFAULTS, **values}.items():
            sections[section] = sections.get(section, "") + f"{key} = {value}\n"
        text = "".join(f"[{section}]\n{lines}" for section, lines in sections.items())
        with pytest.raises(ConfigError) as from_file:
            parse_config(text)
        with pytest.raises(ConfigError) as from_train_config:
            TrainConfig(**kwargs)
        assert str(from_train_config.value) == str(from_file.value)


class TestMemoryBudget:
    """The estimate that refuses a run too large for the host, before it allocates."""

    @pytest.mark.parametrize("geometry", [
        dict(n_tx=2, n_rx=2, n_subcarriers=16, oversample=4, mod_order=4, decoder_iterations=10),
        dict(n_tx=2, n_rx=3, n_subcarriers=8, oversample=2, mod_order=16, decoder_iterations=2),
    ], ids=["smoke", "2x3_16qam"])
    def test_parameter_count_matches_built_system(self, geometry):
        cfg = toy_config(channel_taps=4, **geometry)
        system = training.build_from_config(cfg)
        built = sum(p.values.size for p in system.parameters().values())
        assert training._parameter_count(cfg) == built

    def test_shipped_recipe_refused_on_8_gb(self, monkeypatch):
        shipped = Path(__file__).resolve().parents[1] / "configs" / "train_16qam_4x4.cfg"
        cfg = train_config(load_config(shipped))
        assert training._training_bytes(cfg) > 9e9
        with pytest.raises(ConfigError, match=r"needs about 9\.82 GB .* 8\.59 GB"):
            training._check_memory(cfg, available=8 << 30)

        def no_build(cfg):
            raise AssertionError("the system was built")

        monkeypatch.setattr(training, "_available_bytes", lambda: 8 << 30)
        monkeypatch.setattr(training, "build_from_config", no_build)
        with pytest.raises(ConfigError, match="needs about"):
            train(cfg)

    def test_smoke_estimate_near_traced_peak(self):
        cfg = toy_config(n_subcarriers=16, oversample=4, decoder_iterations=10, batch_size=32,
                         epochs=1, gradual_start_epoch=1, batches_per_epoch=1)
        tracemalloc.start()
        try:
            train(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.7 * peak <= training._training_bytes(cfg) <= 1.3 * peak
