"""Property tests: BER, CCDF, PSD and ACPR-OBO output does not depend on how
the frames are split, any [train] text either builds a training config or is
a ConfigError, and any command line ends in a documented exit code."""

import contextlib
import io
import os
from dataclasses import fields, replace

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ofdmlab import harness  # noqa: E402
from ofdmlab.cae import training  # noqa: E402
from ofdmlab.cae.pipeline import build_system  # noqa: E402
from ofdmlab.cli import main, train_config  # noqa: E402
from ofdmlab.config import TrainSection, parse_config  # noqa: E402
from ofdmlab.errors import ConfigError  # noqa: E402

SYSTEM = ("[system]\nn_tx = 2\nn_rx = 2\nn_subcarriers = 16\noversample = 4\nmod_order = 4\n"
          "[channel]\nprofile = multipath\ntaps = 4\n[rf]\nibo_db = 9.0\n"
          "[run]\np_snr_db = 4, 16\n")


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    checkpoint = tmp_path_factory.mktemp("cae") / "cae.bin"
    smoke = training.TrainConfig(n_tx=2, n_rx=2, n_subcarriers=16, oversample=4,
                                 mod_order=4, channel_taps=0, epochs=1,
                                 gradual_start_epoch=1, batches_per_epoch=1,
                                 batch_size=4, ibo_db=9.0, seed=6)
    training.save_system(checkpoint, build_system(2, 2, 16, 4, 4, ibo_db=9.0, seed=6), smoke)
    return {
        "mle": parse_config(SYSTEM + "[method]\nname = cf\n[detector]\nname = mle\n"),
        "zf": parse_config(SYSTEM + "[method]\nname = slm\nslm_candidates = 4\n"
                                    "[detector]\nname = zf\n"),
        "cae": parse_config(SYSTEM + f"[method]\nname = cae\ncheckpoint = {checkpoint}\n"
                                     "[detector]\nname = cae\n"),
    }


@settings(max_examples=25, deadline=None, database=None)
@given(detector=st.sampled_from(["mle", "zf", "cae"]),
       seed=st.integers(0, 2 ** 32 - 1), frames=st.integers(1, 12),
       block=st.integers(1, 13), workers=st.sampled_from([1, 2]))
def test_ber_csv_independent_of_block_and_workers(configs, detector, seed, frames,
                                                  block, workers):
    cfg = configs[detector]
    cfg = replace(cfg, run=replace(cfg.run, seed=seed, frames=frames))
    reference, _ = harness.run_ber(cfg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "BLOCK_FRAMES", block)
        text, _ = harness.run_ber(replace(cfg, run=replace(cfg.run, workers=workers)))
    assert text == reference


TRANSMIT_RUNS = {
    "ccdf": lambda cfg: harness.run_ccdf(cfg)[0],
    "psd": harness.run_psd,
    "acpr_obo": lambda cfg: harness.run_acpr_obo([cfg]),
}


@settings(max_examples=40, deadline=None, database=None)
@given(run=st.sampled_from(sorted(TRANSMIT_RUNS)),
       method=st.sampled_from(["none", "cf", "slm", "cae"]),
       amplifier=st.sampled_from(["rapp", "linear"]),
       seed=st.integers(0, 2 ** 32 - 1), frames=st.integers(1, 40),
       block=st.integers(1, 45), workers=st.sampled_from([1, 2]))
def test_transmit_csv_independent_of_block_and_workers(configs, run, method, amplifier,
                                                       seed, frames, block, workers):
    cfg = configs["cae" if method == "cae" else "zf"]
    if run == "ccdf":
        frames += 99                      # the CCDF needs at least 100 frames
    cfg = replace(cfg, method=replace(cfg.method, name=method),
                  rf=replace(cfg.rf, amplifier=amplifier),
                  run=replace(cfg.run, seed=seed, frames=frames))
    reference = TRANSMIT_RUNS[run](cfg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "BLOCK_FRAMES", block)
        text = TRANSMIT_RUNS[run](replace(cfg, run=replace(cfg.run, workers=workers)))
    assert text == reference


TRAIN_KEYS = [f.name for f in fields(TrainSection)]
TRAIN_VALUES = st.one_of(
    st.integers(-3, 300).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["selu", "gelu", "relu", "", "1e400", "0x10"]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="#\n\r"),
            max_size=8),
)


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.tuples(st.sampled_from(TRAIN_KEYS), TRAIN_VALUES), max_size=6))
def test_train_text_builds_config_or_config_error(lines):
    text = "[system]\nn_tx = 2\nn_rx = 2\n[train]\n" + "".join(
        f"{key} = {value}\n" for key, value in lines)
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    built = train_config(cfg)
    assert isinstance(built, training.TrainConfig)
    for name in TRAIN_KEYS:
        assert repr(getattr(built, name)) == repr(getattr(cfg.train, name))


# -- command-line fuzzing ------------------------------------------------------

TINY_CONFIG = ("[system]\nn_tx = 2\nn_rx = 2\nn_subcarriers = 16\noversample = 4\n"
               "mod_order = 4\n[rf]\nibo_db = 9.0\n[run]\nframes = 5\np_snr_db = 10\n"
               "out = default.csv\n[train]\nepochs = 1\ngradual_start_epoch = 1\n"
               "batches_per_epoch = 1\nbatch_size = 2\ndecoder_iterations = 2\n")
SUBCOMMANDS = ["train", "ber", "ccdf", "psd", "acpr-obo", "gradcheck"]
# Option values are small and relative to the run's own directory; free tokens
# hold no digits, so no abbreviation of --frames or --workers can ask for a
# large run.
CONFIG_GROUPS = st.sampled_from([
    ["--config", "tiny.cfg"], ["--config", "tiny.cfg"], ["--config", "tiny.cfg", "tiny.cfg"],
    ["--config", "missing.cfg"], ["--config", "bad.cfg"], ["--config", "."], []])
OPTION_GROUPS = st.one_of(
    CONFIG_GROUPS,
    st.sampled_from(["0", "7", "-1", str(2 ** 128), "x"]).map(lambda v: ["--seed", v]),
    st.sampled_from(["-1", "0", "1", "2", "100", "abc"]).map(lambda v: ["--frames", v]),
    st.sampled_from(["0", "1", "2", "-2", "many"]).map(lambda v: ["--workers", v]),
    st.sampled_from(["out.csv", "nowhere/out.csv", "."]).map(lambda v: ["--out", v]),
    st.just(["-h"]),
    st.text(alphabet="abcfhow-=_", max_size=6).map(lambda v: [v]),
)


@settings(max_examples=300, deadline=None, database=None)
@given(command=st.sampled_from(SUBCOMMANDS), config=CONFIG_GROUPS,
       groups=st.lists(OPTION_GROUPS, max_size=4))
def test_cli_exits_with_a_documented_code(tmp_path_factory, command, config, groups):
    """Any argv: exit 0, 1 or 2; exits 1 and 2 print exactly one line; no traceback."""
    argv = [command] + config + [token for group in groups for token in group]
    run_dir = tmp_path_factory.mktemp("argv")
    (run_dir / "tiny.cfg").write_text(TINY_CONFIG)
    (run_dir / "bad.cfg").write_text("[system]\nn_tx = 2\nn_rx = 2\nwat = 1\n")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(run_dir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:       # -h prints the help and exits 0
                code = exc.code
    finally:
        os.chdir(cwd)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2), argv
    if code:
        prefix = "config error: " if code == 1 else "numeric error: "
        assert len(lines) == 1 and lines[0].startswith(prefix), (argv, lines)
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
