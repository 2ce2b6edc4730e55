"""Command-line front end.

Subcommands: train, ber, ccdf, psd, acpr-obo, gradcheck. Exit codes:
0 success, 1 configuration error, 2 numeric or validation failure. A
command-line usage error (an unknown subcommand, a missing or malformed
option) is a configuration error: one ``config error:`` line on stderr and
exit 1. ``-h`` prints the help and exits 0.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

from .config import (ExperimentConfig, RunConfig, changed_fields, check_link, check_seed,
                     load_config, with_overrides)
from .errors import ConfigError, NumericError


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are configuration errors.

    The subcommand parsers are of this class too.
    """

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ofdmlab",
        description="MIMO-OFDM waveform experiments: training, BER, PAPR CCDF, spectra.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_overrides(p, run_size=True):
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=None, help="output file override")
        if run_size:
            p.add_argument("--frames", type=int, default=None, help="frames per point override")
            p.add_argument("--workers", type=int, default=None, help="worker thread count")

    for name, text in (("train", "train the autoencoder system"),
                       ("ber", "bit error rate over the peak-SNR grid"),
                       ("ccdf", "PAPR exceedance curve"),
                       ("psd", "averaged amplifier-output spectrum")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="experiment config file")
        add_overrides(p, run_size=name != "train")   # a training run's size is its [train]
    acpr_p = sub.add_parser("acpr-obo", help="ACPR/OBO table over several configs")
    acpr_p.add_argument("--config", required=True, nargs="+",
                        help="one or more experiment config files")
    add_overrides(acpr_p)
    grad_p = sub.add_parser("gradcheck", help="finite-difference verification")
    grad_p.add_argument("--seed", type=int, default=0)
    return parser


def _overrides(args) -> dict:
    """The [run] values the command line sets: each option named after a [run] key."""
    return {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}


def _load(args) -> ExperimentConfig:
    cfg = with_overrides(load_config(args.config), **_overrides(args))
    _check_out(cfg.run.out)
    return cfg


def _check_out(out) -> None:
    """ConfigError unless ``out`` can be a file in an existing directory.

    Checked before the first frame, so that a bad path does not cost a run.
    """
    if out is None:
        return
    path = Path(out)
    if not path.parent.is_dir():
        raise ConfigError(f"output directory does not exist: {path.parent}")
    if path.is_dir():
        raise ConfigError(f"output path is a directory: {path}")


def train_config(cfg: ExperimentConfig):
    """The TrainConfig an experiment file's [system], [channel], [rf] and [train] describe."""
    from .cae.training import TrainConfig
    # The flat fields cannot hold every section value (multipath with 0 taps
    # reads as AWGN; the amplifier and its gain are fixed), so the sections
    # are checked as written first.
    check_link(cfg.system, cfg.channel, cfg.rf, cfg.run.seed)
    return TrainConfig(
        **asdict(cfg.train), **asdict(cfg.system),
        channel_taps=0 if cfg.channel.profile == "awgn" else cfg.channel.taps,
        channel_decay=cfg.channel.decay, ibo_db=cfg.rf.ibo_db,
        total_power=cfg.rf.total_power, smoothness=cfg.rf.smoothness, seed=cfg.run.seed)


def _clock(seconds: float) -> str:
    seconds = int(round(seconds))
    return f"{seconds // 3600}:{seconds // 60 % 60:02d}:{seconds % 60:02d}"


def _cmd_train(args) -> int:
    from .cae.training import train
    cfg = _load(args)
    train_cfg = train_config(cfg)
    differ = changed_fields(train_cfg.rf, cfg.rf)
    if differ:
        raise ConfigError("the CAE trains through a RAPP amplifier with small_signal_gain = 1, "
                          "not the config's [rf]: " + ", ".join(differ))
    out = Path(cfg.run.out) if cfg.run.out else Path("cae_checkpoint.bin")
    log_path = out.with_suffix(".log.csv")
    start = time.perf_counter()

    def progress(epoch, row):
        print(f"epoch {epoch:4d}  l1={row[1]:.4f}  l2a={row[2]:.4f}  "
              f"l2b={row[3]:.4f}  l3={row[4]:.3f}  grad={row[8]:.2f}")
        # the rate counts set-up too: it is the whole run's pace so far
        done = epoch * train_cfg.batches_per_epoch
        rate = done / (time.perf_counter() - start)
        left = (train_cfg.epochs - epoch) * train_cfg.batches_per_epoch
        print(f"epoch {epoch}/{train_cfg.epochs}: {rate:.3g} batches/s, "
              f"ETA {_clock(left / rate)}", file=sys.stderr)

    result = train(train_cfg, checkpoint_path=out, log_path=log_path, progress=progress)
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"training log: {log_path}")
    return 0


def _cmd_experiment(args) -> int:
    """ber, ccdf or psd: the CSV goes to stdout unless [run] out names a file."""
    from . import harness
    cfg = _load(args)
    result = getattr(harness, f"run_{args.command}")(cfg)
    text = result if args.command == "psd" else result[0]
    if cfg.run.out is None:
        sys.stdout.write(text)
    if args.command == "ber":
        for r in result[1]:
            print(f"p_snr={r.x:6.2f} dB  ber={r.y:.6g}  bits={r.count}", file=sys.stderr)
    return 0


def _cmd_acpr_obo(args) -> int:
    from .harness import run_acpr_obo
    cfgs = [with_overrides(load_config(path), **_overrides(args)) for path in args.config]
    _check_out(args.out)
    text = run_acpr_obo(cfgs, out=args.out)
    if args.out is None:
        sys.stdout.write(text)
    return 0


def _cmd_gradcheck(args) -> int:
    from .harness import run_gradcheck
    check_seed(args.seed)
    results, ok = run_gradcheck(seed=args.seed)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:16s} max_rel_err={r.max_relative_error:.3e} "
              f"tol={r.tolerance:.0e}  {status}")
    if not ok:
        raise NumericError("gradient verification failed")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "ber": _cmd_experiment,
    "ccdf": _cmd_experiment,
    "psd": _cmd_experiment,
    "acpr-obo": _cmd_acpr_obo,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
