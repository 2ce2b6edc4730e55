"""Experiment configuration: a strict hierarchical key-value text format.

Files contain ``[section]`` headers and ``key = value`` lines; ``#`` starts
a comment. Unknown sections or keys are rejected with their line number,
as are malformed values. Only ``[system] n_tx / n_rx`` are required; every
other key has a documented default (72 subcarriers, oversampling 4,
smoothness 2, clip ratio 4.08 dB, 64 mapping candidates, and the standard
training recipe).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import get_type_hints

from .autodiff import ACTIVATIONS
from .channel import Awgn, MultipathTaps
from .errors import ConfigError
from .rf import RappParams


# Input back-off range, dB. Far outside it the back-off drives the frame
# power to ~1e-40 (400 dB: BER at chance, exit 0) or overflows (4000 dB).
IBO_RANGE_DB = (-10.0, 40.0)
# Total radiated power range (the amplifiers' shared budget; 1.0 by default).
# Far below it the frame power is subnormal: 1e-320 wrote a PSD of -3000 dB.
TOTAL_POWER_RANGE = (1e-6, 1e6)
# Clipping level range, dB above each frame's RMS. Far below it the clip keeps
# only each sample's phase (-400 dB: BER at chance) or zeroes the frame
# (-4000 dB); far above it the clip never acts and its scale overflows (4000 dB).
CLIP_RATIO_RANGE_DB = (-10.0, 30.0)
# Peak SNR range of [run] p_snr_db and [train] train_snr_db, dB. Far outside
# it the noise variance overflows or divides by zero (about ±3000 dB); -400 dB
# runs to a BER at chance, and at 300 dB the noise already sits below the
# signal's rounding.
_SNR_RANGE_DB = (-100.0, 400.0)


def check_range(name: str, value: float, bounds: tuple[float, float], unit: str = "") -> None:
    """ConfigError unless ``value`` lies in ``bounds`` (which rules out NaN and inf)."""
    low, high = bounds
    if not low <= value <= high:
        raise ConfigError(f"{name} must lie within [{low:g}, {high:g}]{unit}, got {value!r}")


def check_seed(seed: int) -> None:
    """ConfigError unless ``seed`` lies in [0, 2**128), the keys Philox takes."""
    if not 0 <= seed < 2 ** 128:
        raise ConfigError("seed must be in [0, 2**128)")


# The parser of each field annotation in the section dataclasses; an empty
# value is None where the annotation allows it.
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "float | None": lambda text: float(text) if text else None,
    "str | None": lambda text: text or None,
    "tuple[float, ...]": lambda text: tuple(float(t.strip()) for t in text.split(",")
                                            if t.strip()),
}


@dataclass(frozen=True)
class SystemConfig:
    n_tx: int
    n_rx: int
    n_subcarriers: int = 72
    oversample: int = 4
    mod_order: int = 4


@dataclass(frozen=True)
class ChannelConfig:
    profile: str = "awgn"          # awgn | multipath
    taps: int = 13
    decay: float | None = None

    def model(self):
        """The channel profile :func:`channel.draw_channel` draws from."""
        if self.profile == "awgn":
            return Awgn()
        return MultipathTaps(self.taps, self.decay)


@dataclass(frozen=True)
class RfConfig:
    amplifier: str = "rapp"        # rapp | linear
    ibo_db: float = 6.0
    smoothness: float = 2.0
    small_signal_gain: float = 1.0
    total_power: float = 1.0

    def rapp_params(self, n_tx: int) -> RappParams:
        """The RAPP amplifier of each of ``n_tx`` antennas, sharing ``total_power``."""
        return RappParams.from_power_budget(self.total_power, n_tx,
                                            v=self.small_signal_gain, p=self.smoothness)


def check_link(system: SystemConfig, channel: ChannelConfig, rf: RfConfig, seed: int) -> None:
    """ConfigError unless the link (geometry, channel, front end, seed) is one the chain can run.

    Experiments and training both describe their link this way, so a bad
    value is refused with the same message on either path.
    """
    if system.n_tx < 1 or system.n_rx < 1 or system.n_subcarriers < 1 or system.oversample < 1:
        raise ConfigError("system dimensions must be positive")
    if system.mod_order not in (4, 16):
        raise ConfigError("mod_order must be 4 or 16")
    if channel.profile not in ("awgn", "multipath"):
        raise ConfigError(f"unknown channel profile {channel.profile!r}")
    if channel.profile == "awgn" and system.n_rx != system.n_tx:
        raise ConfigError("the awgn profile requires n_rx == n_tx")
    if channel.profile == "multipath" and not 1 <= channel.taps <= system.n_subcarriers:
        raise ConfigError(f"taps must be between 1 and n_subcarriers ({system.n_subcarriers})")
    decay = channel.decay
    if channel.profile == "multipath" and decay is not None and not 0.0 < decay <= 1.0:
        raise ConfigError(f"decay must lie within (0, 1], got {decay!r}")
    if rf.amplifier not in ("rapp", "linear"):
        raise ConfigError(f"unknown amplifier {rf.amplifier!r}")
    check_range("ibo_db", rf.ibo_db, IBO_RANGE_DB, " dB")
    check_range("total_power", rf.total_power, TOTAL_POWER_RANGE)
    # The RAPP gain squares v and raises power ratios to the power p. Far
    # outside these ranges it overflows (v = 1e300; p = 100 with v = 1e6)
    # or its output underflows to zero (p = 1e-4).
    check_range("smoothness", rf.smoothness, (0.1, 20.0))
    check_range("small_signal_gain", rf.small_signal_gain, (0.01, 100.0))
    check_seed(seed)


def changed_fields(recorded, wanted) -> list[str]:
    """Names of the fields in which two values of one dataclass differ."""
    return [f.name for f in fields(recorded)
            if getattr(recorded, f.name) != getattr(wanted, f.name)]


@dataclass(frozen=True)
class MethodConfig:
    name: str = "none"             # none | cf | slm | cae
    clip_ratio_db: float = 4.08
    slm_candidates: int = 64
    checkpoint: str | None = None


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    frames: int = 7000
    p_snr_db: tuple[float, ...] = (4.0, 8.0, 12.0)
    ccdf_thresholds_db: tuple[float, ...] = tuple(float(x) / 4.0 for x in range(16, 53))
    workers: int = 1
    out: str | None = None


@dataclass(frozen=True)
class TrainSection:
    """The training recipe; every value is checked here, once, on construction."""

    lr: float = 0.001
    weight_decay: float = 0.01
    epochs: int = 140
    gradual_start_epoch: int = 45
    train_snr_db: float = 40.0
    lambda_2a: float = 0.015
    lambda_2b: float = 0.001
    lambda_3: float = 0.005
    rho_2a: float = 0.0015
    rho_2b: float = 0.00001
    rho_3: float = 0.001
    batch_size: int = 32
    batches_per_epoch: int = 4375
    acpr_req_db: float = -45.0
    decoder_iterations: int = 10
    activation: str = "selu"
    init_scale: float = 1.0

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r} "
                              f"(one of: {', '.join(ACTIVATIONS)})")
        for name in ("decoder_iterations", "epochs", "batches_per_epoch"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2: batch norm needs two examples")
        # gradual_start_epoch == epochs + 1 runs pure reconstruction training
        if not 1 <= self.gradual_start_epoch <= self.epochs + 1:
            raise ConfigError("gradual_start_epoch must lie within [1, epochs + 1]")
        # init_scale <= 0 draws all-zero weights (a nan loss) or an inverted range
        for name in ("rho_2a", "rho_2b", "rho_3", "init_scale"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite")
        if not 0.0 <= self.lambda_3 < math.inf:
            raise ConfigError("lambda_3 must be finite and >= 0")
        for name in ("lr", "weight_decay", "lambda_2a", "lambda_2b", "acpr_req_db"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        check_range("train_snr_db", self.train_snr_db, _SNR_RANGE_DB, " dB")


@dataclass(frozen=True)
class ExperimentConfig:
    system: SystemConfig
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    rf: RfConfig = field(default_factory=RfConfig)
    method: MethodConfig = field(default_factory=MethodConfig)
    detector: str = "mle"          # mle | zf | cae
    run: RunConfig = field(default_factory=RunConfig)
    train: TrainSection = field(default_factory=TrainSection)

    def validated(self) -> "ExperimentConfig":
        check_link(self.system, self.channel, self.rf, self.run.seed)
        if self.method.name not in ("none", "cf", "slm", "cae"):
            raise ConfigError(f"unknown method {self.method.name!r}")
        check_range("clip_ratio_db", self.method.clip_ratio_db, CLIP_RATIO_RANGE_DB, " dB")
        if self.method.slm_candidates < 1:
            raise ConfigError("slm_candidates must be >= 1")
        if self.detector not in ("mle", "zf", "cae"):
            raise ConfigError(f"unknown detector {self.detector!r}")
        if (self.detector == "cae") != (self.method.name == "cae"):
            raise ConfigError("the cae detector pairs exactly with the cae method")
        if self.run.frames < 1:
            raise ConfigError("frames must be >= 1")
        for p_snr_db in self.run.p_snr_db:
            check_range("p_snr_db", p_snr_db, _SNR_RANGE_DB, " dB")
        if not all(math.isfinite(t) for t in self.run.ccdf_thresholds_db):
            raise ConfigError("ccdf_thresholds_db values must be finite")
        if self.run.workers < 1:
            raise ConfigError("workers must be >= 1")
        return self


def _schema() -> dict[str, tuple[type | None, dict]]:
    """[section] -> (its dataclass, {key: parser}), one per ExperimentConfig field, in order.

    ``detector`` is a plain value, not a dataclass: its section has one key, ``name``.
    """
    kinds = get_type_hints(ExperimentConfig)
    schema = {}
    for f in fields(ExperimentConfig):
        if f.type in _PARSERS:
            schema[f.name] = (None, {"name": _PARSERS[f.type]})
        else:
            kind = kinds[f.name]
            schema[f.name] = (kind, {g.name: _PARSERS[g.type] for g in fields(kind)})
    return schema


_SCHEMA = _schema()


def parse_config(text: str) -> ExperimentConfig:
    """Parse configuration text; raises ConfigError with line numbers."""
    values: dict[str, dict] = {name: {} for name in _SCHEMA}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        keys = _SCHEMA[section][1]
        if key not in keys:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        if key in values[section]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{section}]")
        try:
            values[section][key] = keys[key](value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc

    if "n_tx" not in values["system"] or "n_rx" not in values["system"]:
        raise ConfigError("[system] must set n_tx and n_rx")
    sections = {}
    for name, (kind, _) in _SCHEMA.items():
        if kind is not None:
            sections[name] = kind(**values[name])
        elif values[name]:
            sections[name] = values[name]["name"]
    return ExperimentConfig(**sections).validated()


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    if not path.is_file():
        raise ConfigError(f"config path is not a regular file: {path}")
    return parse_config(path.read_text())


def _render_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ", ".join(f"{v:.17g}" for v in value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Full text rendering; parse(serialize(cfg)) == cfg."""
    lines = []
    for name, (kind, keys) in _SCHEMA.items():
        value = getattr(cfg, name)
        items = {"name": value} if kind is None else {key: getattr(value, key) for key in keys}
        lines += [f"[{name}]", *(f"{key} = {_render_value(v)}" for key, v in items.items()), ""]
    return "\n".join(lines)


def with_overrides(cfg: ExperimentConfig, **run) -> ExperimentConfig:
    """Apply the command line's [run] overrides (seed=, frames=, ...) that are not None."""
    run = {key: value for key, value in run.items() if value is not None}
    return replace(cfg, run=replace(cfg.run, **run)).validated()
