"""Trainable autoencoder system: encoder, iterative decoder, losses, training."""

from .complexpair import CPair, DftBank, cp_const
from .losses import (LagrangianState, loss_acpr, loss_papr, loss_reconstruction,
                     total_loss, update_multipliers)
from .model import DecoderNet, EncoderNet, hard_decisions
from .pipeline import BatchResult, CaeSystem, build_system
from .training import (TrainConfig, TrainResult, counter_rng, evaluate_ber,
                       load_system, make_batch, save_system, train)

__all__ = [
    "BatchResult", "CPair", "CaeSystem", "DecoderNet", "DftBank", "EncoderNet",
    "LagrangianState", "TrainConfig", "TrainResult", "build_system", "counter_rng",
    "cp_const", "evaluate_ber", "hard_decisions", "load_system", "loss_acpr",
    "loss_papr", "loss_reconstruction", "make_batch", "save_system", "total_loss",
    "train", "update_multipliers",
]
