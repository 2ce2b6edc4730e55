"""Property tests: BER, CCDF, PSD and ACPR-OBO output does not depend on how
the frames are split, any [train] text either builds a training config or is
a ConfigError, any valid config survives its text form, and any command line
or config value ends in a documented exit code."""

import contextlib
import io
import math
import os
import re
from dataclasses import fields, replace

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from ofdmlab import harness  # noqa: E402
from ofdmlab.autodiff import ACTIVATIONS  # noqa: E402
from ofdmlab.cae import training  # noqa: E402
from ofdmlab.cae.pipeline import build_system  # noqa: E402
from ofdmlab.cli import main, train_config  # noqa: E402
from ofdmlab.config import (_SCHEMA, CLIP_RATIO_RANGE_DB, IBO_RANGE_DB,  # noqa: E402
                            TOTAL_POWER_RANGE, ChannelConfig, ExperimentConfig, MethodConfig,
                            RfConfig, RunConfig, SystemConfig, TrainSection, changed_fields,
                            parse_config, serialize_config)
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
    if method == "cae":
        amplifier = "rapp"                # the CAE runs the RAPP front end it was built with
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


# -- the config text format ----------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# a path-like value: no "#" (a comment), no line break, no edge blanks, not empty (None)
PATHS = st.none() | st.text(st.sampled_from("az09._/-= "), min_size=1, max_size=12).filter(
    lambda text: text == text.strip())


@st.composite
def valid_configs(draw):
    """Any configuration that ExperimentConfig.validated() accepts."""
    system = draw(st.builds(SystemConfig, n_tx=st.integers(1, 4), n_rx=st.integers(1, 4),
                            n_subcarriers=st.integers(1, 128), oversample=st.integers(1, 8),
                            mod_order=st.sampled_from([4, 16])))
    awgn = system.n_rx == system.n_tx and draw(st.booleans())
    channel = draw(st.builds(ChannelConfig, profile=st.just("awgn" if awgn else "multipath"),
                             taps=st.integers(1, system.n_subcarriers),
                             decay=st.none() | st.floats(0.0, 1.0, exclude_min=True)))
    rf = draw(st.builds(RfConfig, amplifier=st.sampled_from(["rapp", "linear"]),
                        ibo_db=st.floats(*IBO_RANGE_DB), smoothness=st.floats(0.1, 20.0),
                        small_signal_gain=st.floats(0.01, 100.0),
                        total_power=st.floats(*TOTAL_POWER_RANGE)))
    method = draw(st.builds(MethodConfig, name=st.sampled_from(["none", "cf", "slm", "cae"]),
                            clip_ratio_db=st.floats(*CLIP_RATIO_RANGE_DB),
                            slm_candidates=st.integers(1, 256), checkpoint=PATHS))
    detector = "cae" if method.name == "cae" else draw(st.sampled_from(["mle", "zf"]))
    run = draw(st.builds(RunConfig, seed=st.integers(0, 2 ** 128 - 1),
                         frames=st.integers(1, 10 ** 6),
                         p_snr_db=st.lists(st.floats(-100.0, 400.0), max_size=4).map(tuple),
                         ccdf_thresholds_db=st.lists(FINITE, max_size=4).map(tuple),
                         workers=st.integers(1, 8), out=PATHS))
    epochs = draw(st.integers(1, 300))
    train = draw(st.builds(
        TrainSection, lr=FINITE, weight_decay=FINITE, epochs=st.just(epochs),
        gradual_start_epoch=st.integers(1, epochs + 1), train_snr_db=st.floats(-100.0, 400.0),
        lambda_2a=FINITE, lambda_2b=FINITE, lambda_3=st.floats(0.0, allow_infinity=False),
        rho_2a=POSITIVE, rho_2b=POSITIVE, rho_3=POSITIVE, batch_size=st.integers(2, 512),
        batches_per_epoch=st.integers(1, 10 ** 5), acpr_req_db=FINITE,
        decoder_iterations=st.integers(1, 20), activation=st.sampled_from(sorted(ACTIVATIONS)),
        init_scale=POSITIVE))
    return ExperimentConfig(system=system, channel=channel, rf=rf, method=method,
                            detector=detector, run=run, train=train).validated()


@settings(max_examples=200, deadline=None, database=None)
@given(valid_configs())
def test_serialized_config_parses_back_equal(cfg):
    assert parse_config(serialize_config(cfg)) == cfg


def test_schema_holds_every_field_in_declaration_order():
    """Each ExperimentConfig field is one [section], in the order the files are
    written; each field of a section's dataclass is one of its keys, in order."""
    assert list(_SCHEMA) == ["system", "channel", "rf", "method", "detector", "run", "train"]
    assert list(_SCHEMA) == [f.name for f in fields(ExperimentConfig)]
    assert _SCHEMA["detector"][0] is None and list(_SCHEMA["detector"][1]) == ["name"]
    for name, kind in [("system", SystemConfig), ("channel", ChannelConfig), ("rf", RfConfig),
                       ("method", MethodConfig), ("run", RunConfig), ("train", TrainSection)]:
        assert _SCHEMA[name][0] is kind
        assert list(_SCHEMA[name][1]) == [f.name for f in fields(kind)]
    assert all(callable(parse) for _, keys in _SCHEMA.values() for parse in keys.values())


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


# -- config-value fuzzing ------------------------------------------------------

FUZZ_SYSTEM = {"n_tx": "2", "n_rx": "2", "n_subcarriers": "16", "oversample": "4",
               "mod_order": "4"}
FUZZ_FLOATS = st.one_of(
    st.sampled_from(["0", "-0", "-1", "0.5", "1", "2", "nan", "inf", "-inf", "1e300",
                     "-1e300", "1e-300", "1e400", "5e-324"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
FUZZ_FLOAT_LISTS = st.lists(FUZZ_FLOATS, min_size=1, max_size=3).map(", ".join)
# Sizes that ask for work ([system], slm_candidates, workers) stay small: a huge one is
# a request for memory or threads, not a numeric value to survive.
CONFIG_VALUES = {
    ("system", "n_tx"): st.sampled_from(["-1", "0", "1", "2", "3"]),
    ("system", "n_rx"): st.sampled_from(["-1", "0", "1", "2", "3"]),
    ("system", "n_subcarriers"): st.sampled_from(["-1", "0", "1", "4", "16"]),
    ("system", "oversample"): st.sampled_from(["0", "1", "2", "4"]),
    ("system", "mod_order"): st.sampled_from(["2", "4", "8", "16"]),
    ("channel", "profile"): st.sampled_from(["awgn", "multipath", "rician"]),
    ("channel", "taps"): st.sampled_from(["-1", "0", "1", "4", "16", "17", str(10 ** 6)]),
    ("channel", "decay"): FUZZ_FLOATS,
    ("rf", "amplifier"): st.sampled_from(["rapp", "linear", "tube"]),
    ("rf", "ibo_db"): FUZZ_FLOATS,
    ("rf", "smoothness"): FUZZ_FLOATS,
    ("rf", "small_signal_gain"): FUZZ_FLOATS,
    ("rf", "total_power"): FUZZ_FLOATS,
    ("method", "name"): st.sampled_from(["none", "cf", "slm", "pts"]),
    ("method", "clip_ratio_db"): FUZZ_FLOATS,
    ("method", "slm_candidates"): st.sampled_from(["-1", "0", "1", "4"]),
    ("run", "seed"): st.sampled_from(["-1", "0", "7", str(2 ** 128)]),
    ("run", "p_snr_db"): FUZZ_FLOAT_LISTS,
    ("run", "ccdf_thresholds_db"): FUZZ_FLOAT_LISTS,
    ("run", "workers"): st.sampled_from(["-1", "0", "1", "2"]),
}


@settings(max_examples=300, deadline=None, database=None)
@given(command=st.sampled_from(["ber", "ccdf", "psd", "acpr-obo"]),
       values=st.fixed_dictionaries({}, optional=CONFIG_VALUES))
def test_config_values_exit_with_a_documented_code(tmp_path_factory, command, values):
    """Any [system], [channel], [rf], [method], [run] values: exit 0, 1 or 2 with one
    line, no traceback, and a written CSV holds only finite numbers (acpr-obo's
    method column aside). The link values get the same verdict from
    cli.train_config as from parse_config, apart from training's oversample >= 2."""
    run_dir = tmp_path_factory.mktemp("values")
    values = {**{("system", key): value for key, value in FUZZ_SYSTEM.items()}, **values}
    text = _config_text(values)
    _check_train_config_verdict(values)
    (run_dir / "fuzz.cfg").write_text(text)
    out_csv = run_dir / "out.csv"
    argv = [command, "--config", str(run_dir / "fuzz.cfg"), "--out", str(out_csv),
            "--frames", "3" if command == "ber" else "100"]
    _check_exit(argv, text, out_csv, first_column=command != "acpr-obo")


# [train]: every float key, and sizes that keep `ofdmlab train` tiny. The
# fixed values run one batch of two examples through one decoder iteration,
# before the constraint phase.
FUZZ_TRAIN = {"epochs": "1", "gradual_start_epoch": "2", "batches_per_epoch": "1",
              "batch_size": "2", "decoder_iterations": "1"}
TRAIN_VALUES = {f.name: FUZZ_FLOATS for f in fields(TrainSection) if f.type == "float"}
TRAIN_VALUES.update({
    "epochs": st.sampled_from(["-1", "0", "1", "2"]),
    "gradual_start_epoch": st.sampled_from(["0", "1", "2", "3"]),
    "batches_per_epoch": st.sampled_from(["0", "1"]),
    "batch_size": st.sampled_from(["1", "2", "3"]),
    "decoder_iterations": st.sampled_from(["0", "1", "2"]),
    "activation": st.sampled_from(["selu", "gelu", "relu"]),
})


@settings(max_examples=150, deadline=None, database=None)
@given(values=st.fixed_dictionaries({}, optional=TRAIN_VALUES))
@example(values={"lambda_2a": "nan"})   # accepted before: exit 0 and a nan in the log
def test_train_values_exit_with_a_documented_code(tmp_path_factory, values):
    """Any [train] values on a tiny `ofdmlab train`: exit 0, 1 or 2 with one line after
    the progress lines, no traceback, and a written training log holds only finite
    numbers. A failed run writes neither its checkpoint nor its log."""
    run_dir = tmp_path_factory.mktemp("train")
    text = _config_text({**{("system", key): value for key, value in FUZZ_SYSTEM.items()},
                         **{("train", key): value for key, value in
                            {**FUZZ_TRAIN, **values}.items()}})
    (run_dir / "fuzz.cfg").write_text(text)
    checkpoint = run_dir / "model.bin"
    log = checkpoint.with_suffix(".log.csv")
    code = _check_exit(["train", "--config", str(run_dir / "fuzz.cfg"), "--out", str(checkpoint)],
                       text, log, progress=True)
    if code:
        assert not checkpoint.exists() and not log.exists(), text


PROGRESS_LINE = re.compile(r"epoch \d+/\d+: .* batches/s, ETA ")


def _check_exit(argv, text: str, out_csv, first_column: bool = True,
                progress: bool = False) -> int:
    """Run ``argv``: exit 0, 1 or 2; a failure prints one line (besides the progress
    lines of each finished epoch, if ``progress``); no traceback; on exit 0 ``out_csv``
    holds only finite numbers (from its second column unless ``first_column``)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = [line for line in err.getvalue().splitlines()
             if not (progress and PROGRESS_LINE.match(line))]
    assert code in (0, 1, 2), text
    assert "Traceback" not in out.getvalue() + err.getvalue(), text
    if code:
        prefix = "config error: " if code == 1 else "numeric error: "
        assert len(lines) == 1 and lines[0].startswith(prefix), (text, lines)
    else:
        rows = [line.split(",")[0 if first_column else 1:]
                for line in out_csv.read_text().splitlines()[1:]]
        assert rows and all(math.isfinite(float(v)) for row in rows for v in row), text
    return code


def _config_text(values: dict) -> str:
    sections: dict[str, str] = {}
    for (section, key), value in values.items():
        sections[section] = sections.get(section, "") + f"{key} = {value}\n"
    return "".join(f"[{name}]\n{lines}" for name, lines in sections.items())


LINK_SECTIONS = {"system": SystemConfig, "channel": ChannelConfig, "rf": RfConfig}
TRAIN_OVERSAMPLE_ERROR = ("training needs oversample >= 2: the ACPR loss measures "
                          "the adjacent bands in the guard band")


def _check_train_config_verdict(values: dict):
    """cli.train_config refuses the link with parse_config's message, or maps it intact."""
    link = {k: v for k, v in values.items() if k[0] in LINK_SECTIONS or k == ("run", "seed")}
    try:
        parsed = parse_config(_config_text(link))
        expected = None if parsed.system.oversample >= 2 else TRAIN_OVERSAMPLE_ERROR
    except ConfigError as exc:
        expected = str(exc)
    fields_of = {name: {} for name in (*LINK_SECTIONS, "run")}
    for (section, key), value in link.items():
        fields_of[section][key] = _SCHEMA[section][1][key](value)
    unchecked = ExperimentConfig(
        **{name: kind(**fields_of[name]) for name, kind in LINK_SECTIONS.items()},
        run=RunConfig(**fields_of["run"]))
    try:
        built = train_config(unchecked)
    except ConfigError as exc:
        assert str(exc) == expected, values
        return
    assert expected is None, values
    assert built.system == parsed.system
    assert built.channel.model() == parsed.channel.model()
    assert set(changed_fields(built.rf, parsed.rf)) <= {"amplifier", "small_signal_gain"}
