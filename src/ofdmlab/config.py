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

from .autodiff import ACTIVATIONS
from .errors import ConfigError


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


def check_range(name: str, value: float, bounds: tuple[float, float], unit: str = "") -> None:
    """ConfigError unless ``value`` lies in ``bounds`` (which rules out NaN and inf)."""
    low, high = bounds
    if not low <= value <= high:
        raise ConfigError(f"{name} must lie within [{low:g}, {high:g}]{unit}, got {value!r}")


def check_seed(seed: int) -> None:
    """ConfigError unless ``seed`` lies in [0, 2**128), the keys Philox takes."""
    if not 0 <= seed < 2 ** 128:
        raise ConfigError("seed must be in [0, 2**128)")


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    return tuple(float(t) for t in items)


def _parse_opt_float(text: str):
    return None if text == "" else float(text)


def _parse_opt_str(text: str):
    return None if text == "" else text


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


@dataclass(frozen=True)
class RfConfig:
    amplifier: str = "rapp"        # rapp | linear
    ibo_db: float = 6.0
    smoothness: float = 2.0
    small_signal_gain: float = 1.0
    total_power: float = 1.0


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
        for name in ("rho_2a", "rho_2b", "rho_3"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be positive")
        if not self.lambda_3 >= 0.0:
            raise ConfigError("lambda_3 must be >= 0")
        for name in ("lr", "weight_decay", "train_snr_db", "acpr_req_db", "init_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")


@dataclass(frozen=True)
class ExperimentConfig:
    system: SystemConfig
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    rf: RfConfig = field(default_factory=RfConfig)
    method: MethodConfig = field(default_factory=MethodConfig)
    detector: str = "mle"          # mle | zf | cae
    train: TrainSection = field(default_factory=TrainSection)
    run: RunConfig = field(default_factory=RunConfig)

    def validated(self) -> "ExperimentConfig":
        sys = self.system
        if sys.n_tx < 1 or sys.n_rx < 1 or sys.n_subcarriers < 1 or sys.oversample < 1:
            raise ConfigError("system dimensions must be positive")
        if sys.mod_order not in (4, 16):
            raise ConfigError("mod_order must be 4 or 16")
        if self.channel.profile not in ("awgn", "multipath"):
            raise ConfigError(f"unknown channel profile {self.channel.profile!r}")
        if self.channel.profile == "awgn" and sys.n_rx != sys.n_tx:
            raise ConfigError("the awgn profile requires n_rx == n_tx")
        if self.channel.profile == "multipath" and not 1 <= self.channel.taps <= sys.n_subcarriers:
            raise ConfigError(f"taps must be between 1 and n_subcarriers ({sys.n_subcarriers})")
        if self.rf.amplifier not in ("rapp", "linear"):
            raise ConfigError(f"unknown amplifier {self.rf.amplifier!r}")
        check_range("ibo_db", self.rf.ibo_db, IBO_RANGE_DB, " dB")
        check_range("total_power", self.rf.total_power, TOTAL_POWER_RANGE)
        if self.method.name not in ("none", "cf", "slm", "cae"):
            raise ConfigError(f"unknown method {self.method.name!r}")
        check_range("clip_ratio_db", self.method.clip_ratio_db, CLIP_RATIO_RANGE_DB, " dB")
        if self.method.slm_candidates < 1:
            raise ConfigError("slm_candidates must be >= 1")
        if self.detector not in ("mle", "zf", "cae"):
            raise ConfigError(f"unknown detector {self.detector!r}")
        if (self.detector == "cae") != (self.method.name == "cae"):
            raise ConfigError("the cae detector pairs exactly with the cae method")
        check_seed(self.run.seed)
        if self.run.frames < 1:
            raise ConfigError("frames must be >= 1")
        if not all(math.isfinite(p) for p in self.run.p_snr_db):
            raise ConfigError("p_snr_db values must be finite")
        if self.run.workers < 1:
            raise ConfigError("workers must be >= 1")
        return self


_SCHEMA = {
    "system": (SystemConfig, {
        "n_tx": int, "n_rx": int, "n_subcarriers": int,
        "oversample": int, "mod_order": int,
    }),
    "channel": (ChannelConfig, {
        "profile": str, "taps": int, "decay": _parse_opt_float,
    }),
    "rf": (RfConfig, {
        "amplifier": str, "ibo_db": float, "smoothness": float,
        "small_signal_gain": float, "total_power": float,
    }),
    "method": (MethodConfig, {
        "name": str, "clip_ratio_db": float, "slm_candidates": int,
        "checkpoint": _parse_opt_str,
    }),
    "detector": (None, {"name": str}),
    "run": (RunConfig, {
        "seed": int, "frames": int, "p_snr_db": _parse_float_list,
        "ccdf_thresholds_db": _parse_float_list, "workers": int,
        "out": _parse_opt_str,
    }),
    "train": (TrainSection, {
        "lr": float, "weight_decay": float, "epochs": int,
        "gradual_start_epoch": int, "train_snr_db": float,
        "lambda_2a": float, "lambda_2b": float, "lambda_3": float,
        "rho_2a": float, "rho_2b": float, "rho_3": float,
        "batch_size": int, "batches_per_epoch": int, "acpr_req_db": float,
        "decoder_iterations": int, "activation": str, "init_scale": float,
    }),
}


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
    try:
        cfg = ExperimentConfig(
            system=SystemConfig(**values["system"]),
            channel=ChannelConfig(**values["channel"]),
            rf=RfConfig(**values["rf"]),
            method=MethodConfig(**values["method"]),
            detector=values["detector"].get("name", "mle"),
            train=TrainSection(**values["train"]),
            run=RunConfig(**values["run"]),
        )
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg.validated()


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
    blocks = {
        "system": cfg.system,
        "channel": cfg.channel,
        "rf": cfg.rf,
        "method": cfg.method,
        "run": cfg.run,
        "train": cfg.train,
    }
    lines = []
    for name in ("system", "channel", "rf", "method"):
        lines.append(f"[{name}]")
        for f in fields(blocks[name]):
            lines.append(f"{f.name} = {_render_value(getattr(blocks[name], f.name))}")
        lines.append("")
    lines.append("[detector]")
    lines.append(f"name = {cfg.detector}")
    lines.append("")
    for name in ("run", "train"):
        lines.append(f"[{name}]")
        for f in fields(blocks[name]):
            lines.append(f"{f.name} = {_render_value(getattr(blocks[name], f.name))}")
        lines.append("")
    return "\n".join(lines)


def with_overrides(cfg: ExperimentConfig, seed: int | None = None,
                   frames: int | None = None, out: str | None = None,
                   workers: int | None = None) -> ExperimentConfig:
    """Apply command-line overrides onto a parsed configuration."""
    run = cfg.run
    if seed is not None:
        run = replace(run, seed=seed)
    if frames is not None:
        run = replace(run, frames=frames)
    if out is not None:
        run = replace(run, out=out)
    if workers is not None:
        run = replace(run, workers=workers)
    return replace(cfg, run=run).validated()
