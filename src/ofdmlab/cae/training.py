"""Two-stage training: reconstruction first, then the constrained objective.

Early epochs minimize the reconstruction loss alone; from the configured
epoch on, the full augmented-Lagrangian objective takes over and the
multipliers are raised once per epoch on epoch-mean constraint values.
Every random draw comes from counter-based generators keyed on the run
seed, so a rerun reproduces logs and checkpoints bit for bit.
"""

from __future__ import annotations

import os
import struct
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from ..autodiff import AdamW
from ..autodiff.checkpoint import load_tensors, save_tensors
from ..channel import draw_channel, noise_variance_for_psnr
from ..config import ChannelConfig, RfConfig, SystemConfig, TrainSection, check_link
from ..csvio import write_csv
from ..errors import ConfigError, NumericError
from ..modulation import bit_errors, pam_levels, qam_alphabet
from .losses import LagrangianState, total_loss, update_multipliers
from .model import DECODER_CHANNELS, ENCODER_CHANNELS
from .pipeline import CaeSystem, build_system

LOG_HEADER = ["epoch", "l1", "l2a", "l2b", "l3",
              "lambda_2a", "lambda_2b", "lambda_3", "grad_norm"]

_DATA_STREAM = 1
_EVAL_STREAM = 2
ACTIVATION_CODES = {"selu": 0, "gelu": 1}


@dataclass(frozen=True)
class TrainConfig(TrainSection):
    """The training recipe plus the link it trains for.

    The defaults are the full-scale recipe: 16-QAM 4x4 over the 13-tap
    fading profile. :func:`config.check_link` checks the link.
    """

    n_tx: int = 4
    n_rx: int = 4
    n_subcarriers: int = 72
    oversample: int = 4
    mod_order: int = 16
    channel_taps: int = 13            # 0 selects the fixed identity-like channel
    channel_decay: float | None = None
    ibo_db: float = 6.0
    total_power: float = 1.0
    smoothness: float = 2.0
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        check_link(self.system, self.channel, self.rf, self.seed)
        if self.oversample < 2:
            raise ConfigError("training needs oversample >= 2: the ACPR loss measures "
                              "the adjacent bands in the guard band")

    @property
    def system(self) -> SystemConfig:
        return SystemConfig(self.n_tx, self.n_rx, self.n_subcarriers, self.oversample,
                            self.mod_order)

    @property
    def channel(self) -> ChannelConfig:
        if self.channel_taps == 0:
            return ChannelConfig("awgn")
        return ChannelConfig("multipath", self.channel_taps, self.channel_decay)

    @property
    def rf(self) -> RfConfig:
        """The front end the CAE trains through: a RAPP amplifier with unit gain."""
        return RfConfig("rapp", self.ibo_db, self.smoothness, 1.0, self.total_power)


@dataclass
class TrainResult:
    system: CaeSystem
    log_rows: list[tuple] = field(default_factory=list)
    state: LagrangianState | None = None
    checkpoint_path: Path | None = None

    def log_csv(self) -> str:
        return write_csv(None, LOG_HEADER, self.log_rows)


def counter_rng(seed: int, index: int, stream: int) -> np.random.Generator:
    """Independent generator for one (batch, stream) cell of a seeded run.

    The identifiers sit in the high counter words so the streams cannot
    overlap as they advance.
    """
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, index, stream]))


def make_batch(rng: np.random.Generator, cfg: TrainConfig, sigma_w2: float,
               n_examples: int | None = None):
    """Draw one batch of (symbol grids, channel tensors, noise)."""
    n = n_examples if n_examples is not None else cfg.batch_size
    alphabet = qam_alphabet(cfg.mod_order)
    idx = rng.integers(0, alphabet.size, size=(n, cfg.n_tx, cfg.n_subcarriers))
    grids = alphabet[idx]
    profile = cfg.channel.model()
    h = np.stack([
        draw_channel(rng, cfg.n_subcarriers, cfg.n_tx, cfg.n_rx, profile).h
        for _ in range(n)
    ])
    shape = (n, cfg.n_subcarriers, cfg.n_rx)
    noise = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        * np.sqrt(sigma_w2 / 2.0)
    return grids, h, noise


def build_from_config(cfg: TrainConfig) -> CaeSystem:
    return build_system(**asdict(cfg.system), ibo_db=cfg.ibo_db, total_power=cfg.total_power,
                        smoothness=cfg.smoothness, acpr_req_db=cfg.acpr_req_db,
                        iterations=cfg.decoder_iterations, activation=cfg.activation,
                        init_scale=cfg.init_scale, seed=cfg.seed)


def _parameter_count(cfg: TrainConfig) -> int:
    """Trainable entries of the system :func:`build_from_config` would build."""
    width = 2 * cfg.oversample * cfg.n_subcarriers
    c1, c2, c3 = ENCODER_CHANNELS
    # conv weights, then conv bias + batch-norm gamma and beta per channel, then fc
    encoder = 3 * (c1 + c1 * c2 + c2 * c3) + 3 * (c1 + c2 + c3) + width * (c3 * width + 1)
    d1, d2 = DECODER_CHANNELS
    # the decoder's 3x3 convs pad by 2, so each grows its [3A, 2K] map by 2 per axis
    flat_in = d2 * (3 * cfg.n_tx + 4) * (2 * cfg.n_subcarriers + 4)
    estimate = cfg.n_tx * 2 * cfg.n_subcarriers
    per_iteration = 9 * (d1 + d1 * d2) + 3 * (d1 + d2) + 2
    fc_out = (cfg.decoder_iterations - 1) * estimate + estimate * pam_levels(cfg.mod_order).size
    return (encoder + cfg.decoder_iterations * per_iteration
            + fc_out * (flat_in + 1))


def _training_bytes(cfg: TrainConfig) -> int:
    """Estimated peak bytes of :func:`train`, from the geometry alone.

    Four parameter-sized float64 buffers (values, gradients and the two
    Adam moments), plus per example five float64 arrays for every entry of
    a convolution's output map, the tape's activations: the conv output,
    batch norm's normalized input and output, SELU's exponential and output.
    """
    width = 2 * cfg.oversample * cfg.n_subcarriers
    d1, d2 = DECODER_CHANNELS
    maps = (cfg.n_tx * width * sum(ENCODER_CHANNELS)
            + cfg.decoder_iterations * (
                d1 * (3 * cfg.n_tx + 2) * (2 * cfg.n_subcarriers + 2)
                + d2 * (3 * cfg.n_tx + 4) * (2 * cfg.n_subcarriers + 4)))
    return 8 * (4 * _parameter_count(cfg) + 5 * cfg.batch_size * maps)


def _available_bytes() -> int | None:
    """Physical memory, capped by the cgroup's ``memory.max`` where it can be read.

    None where ``os.sysconf`` cannot report it (as on Windows).
    """
    try:
        total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None
    try:
        limit = Path("/sys/fs/cgroup/memory.max").read_text().strip()
    except OSError:
        return total
    return min(total, int(limit)) if limit.isdigit() else total


def _check_memory(cfg: TrainConfig, available: int | None = None):
    """ConfigError if the run's estimated bytes exceed the available memory."""
    needed = _training_bytes(cfg)
    if available is None:
        available = _available_bytes()
    if available is not None and needed > available:
        raise ConfigError(f"training needs about {needed / 1e9:.3g} GB of memory, "
                          f"but {available / 1e9:.3g} GB is available")


def train(cfg: TrainConfig, checkpoint_path=None, log_path=None,
          progress=None) -> TrainResult:
    """Run the two-stage loop on batches drawn from the run seed.

    A run whose estimated memory exceeds the host's is refused before
    anything is allocated. Non-finite losses abort with a diagnostic. Each
    step's gradients are dropped once the optimizer has used them.
    """
    _check_memory(cfg)
    system = build_from_config(cfg)
    params = system.parameters()
    optimizer = AdamW(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    state = LagrangianState(cfg.lambda_2a, cfg.lambda_2b, cfg.lambda_3,
                            cfg.rho_2a, cfg.rho_2b, cfg.rho_3)
    sigma_w2 = noise_variance_for_psnr(cfg.train_snr_db, cfg.total_power)

    rows: list[tuple] = []
    global_batch = 0
    for epoch in range(1, cfg.epochs + 1):
        al_active = epoch >= cfg.gradual_start_epoch
        sums = np.zeros(5)
        for _ in range(cfg.batches_per_epoch):
            rng = counter_rng(cfg.seed, global_batch, _DATA_STREAM)
            grids, h, noise = make_batch(rng, cfg, sigma_w2)
            result = system.run_batch(grids, h, noise, rng, train=True)
            loss = (total_loss(result.l1, result.l2a, result.l2b, result.l3, state)
                    if al_active else result.l1)
            if not np.isfinite(loss.values):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {global_batch}: "
                    f"l1={result.l1.item():g} l2a={result.l2a.item():g} "
                    f"l2b={result.l2b.item():g} l3={result.l3.item():g}")
            loss.backward()
            grad_norm = optimizer.grad_norm()
            optimizer.step()
            optimizer.zero_grad()
            sums += [result.l1.item(), result.l2a.item(), result.l2b.item(),
                     result.l3.item(), grad_norm]
            global_batch += 1
        means = sums / cfg.batches_per_epoch
        rows.append((epoch, means[0], means[1], means[2], means[3],
                     state.lambda_2a, state.lambda_2b, state.lambda_3, means[4]))
        if al_active:
            state = update_multipliers(state, means[1], means[2], means[3])
        if progress is not None:
            progress(epoch, rows[-1])

    result = TrainResult(system, rows, state)
    if checkpoint_path is not None:
        save_system(checkpoint_path, system, cfg)
        result.checkpoint_path = Path(checkpoint_path)
    if log_path is not None:
        write_csv(log_path, LOG_HEADER, rows)
    return result


# -- checkpointing -----------------------------------------------------------


def save_system(path, system: CaeSystem, cfg: TrainConfig):
    """Serialize parameters, batch-norm buffers, and rebuild metadata."""
    meta = {**asdict(cfg.system), "decoder_iterations": cfg.decoder_iterations,
            "activation": ACTIVATION_CODES[cfg.activation], "ibo_db": cfg.ibo_db,
            "total_power": cfg.total_power, "smoothness": cfg.smoothness,
            "acpr_req_db": cfg.acpr_req_db}
    tensors = {f"meta/{name}": np.array(float(value)) for name, value in meta.items()}
    for name, p in system.parameters().items():
        tensors[name] = p.values
    for name, buf in system.buffers().items():
        tensors[name] = buf
    save_tensors(path, tensors)


def load_system(path) -> CaeSystem:
    """Rebuild a system from a checkpoint written by :func:`save_system`.

    A missing, truncated or foreign file, or one that lacks an entry the
    rebuilt system needs, is a ConfigError naming the path.
    """
    try:
        tensors = load_tensors(path)
        meta = {k.split("/", 1)[1]: float(v) for k, v in tensors.items() if k.startswith("meta/")}
        activation = {v: k for k, v in ACTIVATION_CODES.items()}[int(meta["activation"])]
        system = build_system(
            **{f.name: int(meta[f.name]) for f in fields(SystemConfig)}, ibo_db=meta["ibo_db"],
            total_power=meta["total_power"], smoothness=meta["smoothness"],
            acpr_req_db=meta["acpr_req_db"], iterations=int(meta["decoder_iterations"]),
            activation=activation)
        for name, p in system.parameters().items():
            p.values[...] = tensors[name]
        for name, buf in system.buffers().items():
            buf[...] = tensors[name]
    except KeyError as exc:
        raise ConfigError(f"checkpoint {path} has no entry {exc}") from exc
    except (OSError, ValueError, struct.error) as exc:
        raise ConfigError(f"cannot load checkpoint {path}: {exc}") from exc
    return system


# -- evaluation ---------------------------------------------------------------


def evaluate_ber(system: CaeSystem, cfg: TrainConfig, p_snr_db: float,
                 n_frames: int, seed: int) -> tuple[float, int]:
    """Hard-decision bit error rate of a trained system, Gray-coded bits.

    Frames go through :meth:`CaeSystem.detect` 32 at a time, each batch
    drawn from its own stream: symbols, channel, noise, decoder start.
    """
    if n_frames < 1:
        raise ConfigError("n_frames must be >= 1")
    sigma_w2 = noise_variance_for_psnr(p_snr_db, cfg.total_power)
    errors = 0
    total = 0
    for index, done in enumerate(range(0, n_frames, 32)):
        n = min(32, n_frames - done)
        rng = counter_rng(seed, index, _EVAL_STREAM)
        grids, h, noise = make_batch(rng, cfg, sigma_w2, n_examples=n)
        hard = system.detect(grids, h, noise, system.decoder.initial_estimate(rng, n))
        batch_errors, batch_bits = bit_errors(grids, hard, cfg.mod_order)
        errors += batch_errors
        total += batch_bits
    return errors / total, total
