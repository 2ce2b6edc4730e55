"""Two-stage training: reconstruction first, then the constrained objective.

Early epochs minimize the reconstruction loss alone; from the configured
epoch on, the full augmented-Lagrangian objective takes over and the
multipliers are raised once per epoch on epoch-mean constraint values.
Every random draw comes from counter-based generators keyed on the run
seed, so a rerun reproduces logs and checkpoints bit for bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..autodiff import AdamW, no_grad
from ..autodiff.checkpoint import load_tensors, save_tensors
from ..channel import Awgn, MultipathTaps, draw_channel, noise_variance_for_psnr
from ..config import IBO_RANGE_DB, TOTAL_POWER_RANGE, TrainSection, check_range
from ..csvio import write_csv
from ..errors import ConfigError, NumericError
from ..modulation import qam_alphabet, symbols_to_bits
from .losses import LagrangianState, total_loss, update_multipliers
from .model import hard_decisions
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
    fading profile.
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
        check_range("ibo_db", self.ibo_db, IBO_RANGE_DB, " dB")
        check_range("total_power", self.total_power, TOTAL_POWER_RANGE)

    def channel_profile(self):
        if self.channel_taps == 0:
            return Awgn()
        return MultipathTaps(self.channel_taps, self.channel_decay)


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
    profile = cfg.channel_profile()
    h = np.stack([
        draw_channel(rng, cfg.n_subcarriers, cfg.n_tx, cfg.n_rx, profile).h
        for _ in range(n)
    ])
    shape = (n, cfg.n_subcarriers, cfg.n_rx)
    noise = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        * np.sqrt(sigma_w2 / 2.0)
    return grids, h, noise


def build_from_config(cfg: TrainConfig) -> CaeSystem:
    return build_system(cfg.n_tx, cfg.n_rx, cfg.n_subcarriers, cfg.oversample,
                        cfg.mod_order, cfg.ibo_db, total_power=cfg.total_power,
                        smoothness=cfg.smoothness, acpr_req_db=cfg.acpr_req_db,
                        iterations=cfg.decoder_iterations, activation=cfg.activation,
                        init_scale=cfg.init_scale, seed=cfg.seed)


def train(cfg: TrainConfig, data=None, checkpoint_path=None, log_path=None,
          progress=None) -> TrainResult:
    """Run the two-stage loop; optionally stream batches from ``data``.

    ``data`` may be an iterable yielding (grids, h, noise) tuples; by default
    batches are generated internally from the run seed. Non-finite losses
    abort with a diagnostic.
    """
    system = build_from_config(cfg)
    params = system.parameters()
    optimizer = AdamW(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    state = LagrangianState(cfg.lambda_2a, cfg.lambda_2b, cfg.lambda_3,
                            cfg.rho_2a, cfg.rho_2b, cfg.rho_3)
    sigma_w2 = noise_variance_for_psnr(cfg.train_snr_db, cfg.total_power)
    data_iter = iter(data) if data is not None else None

    rows: list[tuple] = []
    global_batch = 0
    for epoch in range(1, cfg.epochs + 1):
        al_active = epoch >= cfg.gradual_start_epoch
        sums = np.zeros(5)
        for _ in range(cfg.batches_per_epoch):
            rng = counter_rng(cfg.seed, global_batch, _DATA_STREAM)
            if data_iter is not None:
                try:
                    grids, h, noise = next(data_iter)
                except StopIteration as exc:
                    raise NumericError("training data stream ran dry") from exc
            else:
                grids, h, noise = make_batch(rng, cfg, sigma_w2)
            result = system.run_batch(grids, h, noise, rng, train=True)
            loss = (total_loss(result.l1, result.l2a, result.l2b, result.l3, state)
                    if al_active else result.l1)
            if not np.isfinite(loss.values):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {global_batch}: "
                    f"l1={result.l1.item():g} l2a={result.l2a.item():g} "
                    f"l2b={result.l2b.item():g} l3={result.l3.item():g}")
            optimizer.zero_grad()
            loss.backward()
            grad_norm = optimizer.grad_norm()
            optimizer.step()
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
    tensors: dict[str, np.ndarray] = {
        "meta/n_tx": np.array(float(cfg.n_tx)),
        "meta/n_rx": np.array(float(cfg.n_rx)),
        "meta/n_subcarriers": np.array(float(cfg.n_subcarriers)),
        "meta/oversample": np.array(float(cfg.oversample)),
        "meta/mod_order": np.array(float(cfg.mod_order)),
        "meta/decoder_iterations": np.array(float(cfg.decoder_iterations)),
        "meta/activation": np.array(float(ACTIVATION_CODES[cfg.activation])),
        "meta/ibo_db": np.array(float(cfg.ibo_db)),
        "meta/total_power": np.array(float(cfg.total_power)),
        "meta/smoothness": np.array(float(cfg.smoothness)),
        "meta/acpr_req_db": np.array(float(cfg.acpr_req_db)),
    }
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
            int(meta["n_tx"]), int(meta["n_rx"]), int(meta["n_subcarriers"]),
            int(meta["oversample"]), int(meta["mod_order"]), meta["ibo_db"],
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
                 n_frames: int, seed: int, batch: int = 32) -> tuple[float, int]:
    """Hard-decision bit error rate of a trained system, Gray-coded bits."""
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
            stages = system.transmit(grids, train=False)
            logits, _ = system.receive(stages["amplified"], stages["filtered"], h, noise,
                                       rng, train=False, alpha_per_example=True)
        hard = hard_decisions(logits.values, cfg.mod_order)
        sent = symbols_to_bits(grids, cfg.mod_order)
        got = symbols_to_bits(hard, cfg.mod_order)
        errors += int(np.sum(sent != got))
        total += sent.size
        done += n
        index += 1
    return errors / total, total
