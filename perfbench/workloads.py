"""The benchmark's three workloads: inputs made from the seed, set-up, sub-runs.

Each workload writes its configs (and, for detect-ber, a checkpoint) from
the seed into a work directory, loads them through the program, and then
offers a list of sub-runs. A sub-run calls one public entry point once,
checks its output and returns (work units, measured seconds, output text).
Set-up cost (config load, system construction, checkpoint load) is kept out
of the measured seconds.

Run this file to rewrite reference.json, the seed-1 PSD and ACPR/OBO
results the spectrum checks compare against:

    python3 perfbench/workloads.py
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

# Work per sub-run call. "full" is what the benchmark measures; "tiny" only
# exercises every path (self-test). CCDF calls are kept short so that a run
# holds many samples of each; at seed 1 the 10 000-frame golden runs are made
# once more, after the measurement, as a check. The spectrum checks allow the stated
# distance (dB) from reference.json at the same scale; over seeds 2-7 the
# full-scale PSD stayed within 0.55 dB and ACPR within 0.06 dB of it.
SIZES = {
    "full": {"train_epochs": 4, "train_batches": 1, "train_al_start": 3, "train_batch": 32,
             "ber_mle": 100, "ber_zf": 30, "ber_cae": 10, "ber_mle_4x4": 2,
             "ccdf": 1000, "golden_ccdf": 10_000, "psd": 1000, "acpr_obo": 1000,
             "psd_tol_db": 1.5, "acpr_tol_db": 0.5, "obo_tol_db": 0.05},
    "tiny": {"train_epochs": 2, "train_batches": 1, "train_al_start": 2, "train_batch": 4,
             "ber_mle": 2, "ber_zf": 2, "ber_cae": 1, "ber_mle_4x4": 1,
             "ccdf": 100, "golden_ccdf": 0, "psd": 10, "acpr_obo": 10,
             "psd_tol_db": 8.0, "acpr_tol_db": 1.0, "obo_tol_db": 0.05},
}

SHIPPED_BER_CONFIG = ROOT / "configs" / "qpsk_2x2_multipath_mle.cfg"
GOLDEN_DIR = ROOT / "tests" / "golden"
SNR_4X4_DB = 20.0
PSD_FLOOR_DB = -80.0      # PSD bins below this in the reference are not compared


class CheckFailed(Exception):
    """A sub-run's output broke one of its correctness checks."""


def check(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


@dataclass
class SubRun:
    name: str        # short id, e.g. "ber_mle"
    metric: str      # end-to-end metric it feeds, e.g. "ber_mle_frames_per_s"
    unit: str
    run: Callable[[], tuple[float, float, str]]


class Workload:
    name = ""
    host_scaled = False   # scale end-to-end rates by host speed (see calibrate.py)

    def __init__(self, seed: int, scale: str, workdir: Path):
        self.seed = seed
        self.scale = scale
        self.size = SIZES[scale]
        self.workdir = workdir
        self.subruns: list[SubRun] = []
        self.checks: list[Callable[[], None]] = []   # run once, after the measurement
        self.counts = {"autodiff.param_count": 0, "autodiff.optimizer_state_bytes": 0}

    def setup(self):
        raise NotImplementedError


def _write_config(path: Path, cfg) -> Path:
    from ofdmlab.config import serialize_config
    path.write_text(serialize_config(cfg))
    return path


def _golden_settings(method: str, frames: int, seed: int):
    """2x2 QPSK, K=72: the settings of the golden CCDF runs."""
    from ofdmlab.config import parse_config
    cfg = parse_config("[system]\nn_tx = 2\nn_rx = 2\n")
    return replace(cfg, method=replace(cfg.method, name=method),
                   run=replace(cfg.run, frames=frames, seed=seed)).validated()


def _smoke_train_config(seed: int, epochs: int, batches: int, al_start: int, batch: int):
    """The acceptance-9 smoke geometry (identity channel, IBO 9 dB)."""
    from ofdmlab.cae.training import TrainConfig
    return TrainConfig(n_tx=2, n_rx=2, n_subcarriers=16, oversample=4, mod_order=4,
                       channel_taps=0, epochs=epochs, gradual_start_epoch=al_start,
                       batches_per_epoch=batches, batch_size=batch, ibo_db=9.0,
                       lr=0.002, seed=seed)


class _LoadTimer:
    """Times the checkpoint loads a harness run makes, to keep them out of its rate."""

    def __init__(self):
        from ofdmlab import harness
        self.seconds = 0.0
        inner = harness.load_system

        def timed(path):
            start = time.perf_counter()
            try:
                return inner(path)
            finally:
                self.seconds += time.perf_counter() - start
        harness.load_system = timed

    def run(self, fn, *args):
        before = self.seconds
        start = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - start - (self.seconds - before)


# -- train-smoke ----------------------------------------------------------------


class TrainSmoke(Workload):
    """cae.train over both phases: the time is in autodiff and cae."""

    name = "train-smoke"

    def setup(self):
        from ofdmlab.autodiff import AdamW
        from ofdmlab.cae import training
        s = self.size
        self.cfg = _smoke_train_config(self.seed, s["train_epochs"], s["train_batches"],
                                       s["train_al_start"], s["train_batch"])
        system = training.build_from_config(self.cfg)
        optimizer = AdamW(system.parameters(), lr=self.cfg.lr,
                          weight_decay=self.cfg.weight_decay)
        params = system.parameters().values()
        self.counts["autodiff.param_count"] = sum(p.values.size for p in params)
        self.counts["autodiff.optimizer_state_bytes"] = sum(
            optimizer.m[k].nbytes + optimizer.v[k].nbytes for k in optimizer.m)
        warm = _smoke_train_config(self.seed, 1, 1, 1, 2)
        training.train(warm)
        self.subruns = [SubRun("train", "train_batches_per_s", "batches/s", self._train)]

    def _train(self):
        from ofdmlab.cae import training
        stamps = []
        result = training.train(self.cfg, progress=lambda epoch, row: stamps.append(
            time.perf_counter()))
        rows = result.log_rows
        check(len(rows) == self.cfg.epochs, "log has one row per epoch")
        check(all(math.isfinite(v) for row in rows for v in row[1:]), "non-finite loss")
        check(any(r[0] >= self.cfg.gradual_start_epoch for r in rows),
              "constraint phase never ran")
        measured = (self.cfg.epochs - 1) * self.cfg.batches_per_epoch
        return measured, stamps[-1] - stamps[0], result.log_csv()


# -- detect-ber -----------------------------------------------------------------


class DetectBer(Workload):
    """run_ber with MLE (16 and 65536 candidates), ZF and CAE: the receive side."""

    name = "detect-ber"

    def _configs(self):
        from ofdmlab.cae import pipeline, training
        from ofdmlab.config import load_config, parse_config
        s, seed = self.size, self.seed
        shipped = parse_config(SHIPPED_BER_CONFIG.read_text())
        mle = replace(shipped, run=replace(shipped.run, seed=seed, frames=s["ber_mle"],
                                           workers=1, out=None))
        zf = replace(mle, detector="zf", run=replace(mle.run, frames=s["ber_zf"]))

        train_cfg = _smoke_train_config(seed, 1, 1, 1, 2)
        checkpoint = self.workdir / "cae_smoke.bin"
        system = pipeline.build_system(2, 2, 16, 4, 4, ibo_db=9.0, seed=seed)
        training.save_system(checkpoint, system, train_cfg)
        cae = parse_config(
            "[system]\nn_tx = 2\nn_rx = 2\nn_subcarriers = 16\noversample = 4\nmod_order = 4\n"
            "[rf]\nibo_db = 9.0\n"
            f"[method]\nname = cae\ncheckpoint = {checkpoint}\n[detector]\nname = cae\n")
        cae = replace(cae, run=replace(mle.run, frames=s["ber_cae"]))

        big = parse_config(
            "[system]\nn_tx = 4\nn_rx = 4\nn_subcarriers = 72\noversample = 4\nmod_order = 16\n"
            "[channel]\nprofile = multipath\ntaps = 13\n"
            "[method]\nname = cf\n[detector]\nname = mle\n")
        big = replace(big, run=replace(mle.run, frames=s["ber_mle_4x4"],
                                       p_snr_db=(SNR_4X4_DB,)))
        named = {"ber_mle": mle, "ber_zf": zf, "ber_cae": cae, "ber_mle_4x4": big}
        return {name: load_config(_write_config(self.workdir / f"{name}.cfg", cfg))
                for name, cfg in named.items()}

    def setup(self):
        from ofdmlab import harness
        from ofdmlab.cae import training
        self.configs = self._configs()
        self.loads = _LoadTimer()
        for name in ("ber_mle", "ber_zf", "ber_cae"):
            cfg = self.configs[name]
            harness.run_ber(replace(cfg, run=replace(cfg.run, frames=1, p_snr_db=(10.0,))))
        system = training.load_system(self.configs["ber_cae"].method.checkpoint)
        self.counts["autodiff.param_count"] = sum(
            p.values.size for p in system.parameters().values())
        self.subruns = [
            SubRun(name, f"{name}_frames_per_s", "frames/s",
                   lambda name=name: self._ber(self.configs[name]))
            for name in ("ber_mle", "ber_zf", "ber_cae", "ber_mle_4x4")]

    def _ber(self, cfg):
        from ofdmlab import harness
        (text, records), seconds = self.loads.run(harness.run_ber, cfg)
        bits = cfg.run.frames * cfg.system.n_tx * cfg.system.n_subcarriers \
            * int(math.log2(cfg.system.mod_order))
        check(len(records) == len(cfg.run.p_snr_db), "one record per SNR point")
        # The CAE checkpoint is untrained (inference cost does not depend on
        # the weights), so its BER sits at chance and may exceed 0.5.
        ceiling = 1.0 if cfg.detector == "cae" else 0.5
        for r in records:
            check(0.0 <= r.y <= ceiling, f"BER {r.y} outside [0, {ceiling}]")
            check(r.count == bits, f"bit_count {r.count} != {bits}")
        return cfg.run.frames * len(cfg.run.p_snr_db), seconds, text


# -- papr-spectrum --------------------------------------------------------------


class PaprSpectrum(Workload):
    """CCDF, PSD and ACPR-OBO: the transmit side only, no channel or detector."""

    name = "papr-spectrum"
    host_scaled = True

    def setup(self):
        from ofdmlab import harness
        from ofdmlab.config import load_config
        s = self.size
        named = {f"ccdf_{m}": _golden_settings(m, s["ccdf"], self.seed)
                 for m in ("none", "cf", "slm")}
        named["psd"] = _golden_settings("cf", s["psd"], self.seed)
        named["acpr_obo"] = _golden_settings("cf", s["acpr_obo"], self.seed)
        self.configs = {name: load_config(_write_config(self.workdir / f"{name}.cfg", cfg))
                        for name, cfg in named.items()}
        for name, cfg in self.configs.items():
            warm = replace(cfg, run=replace(cfg.run, frames=100 if name.startswith("ccdf") else 2))
            if name.startswith("ccdf"):
                harness.run_ccdf(warm)
            elif name == "psd":
                harness.run_psd(warm)
            else:
                harness.run_acpr_obo([warm])
        self.reference = json.loads(REFERENCE.read_text())[self.scale]
        self.subruns = [SubRun(f"ccdf_{m}", f"ccdf_{m}_frames_per_s", "frames/s",
                               lambda m=m: self._ccdf(m)) for m in ("none", "cf", "slm")]
        self.subruns += [SubRun("psd", "psd_frames_per_s", "frames/s", self._psd),
                         SubRun("acpr_obo", "acpr_obo_frames_per_s", "frames/s", self._acpr)]
        if self.seed == 1 and s["golden_ccdf"]:
            self.checks = [lambda m=m: self._golden(m) for m in ("none", "cf", "slm")]

    def _ccdf(self, method):
        from ofdmlab import harness
        cfg = self.configs[f"ccdf_{method}"]
        start = time.perf_counter()
        text, records = harness.run_ccdf(cfg)
        seconds = time.perf_counter() - start
        values = [r.y for r in records]
        check(all(0.0 <= v <= 1.0 for v in values), "CCDF outside [0, 1]")
        check(all(a >= b for a, b in zip(values, values[1:])), "CCDF increases")
        return cfg.run.frames, seconds, text

    def _golden(self, method):
        from ofdmlab import harness
        text, _ = harness.run_ccdf(_golden_settings(method, self.size["golden_ccdf"], 1))
        golden = GOLDEN_DIR / f"ccdf_{method}_qpsk2x2_seed1.csv"
        check(text == golden.read_text(), f"{method} CCDF differs from {golden.name}")

    def _psd(self):
        from ofdmlab import harness
        cfg = self.configs["psd"]
        start = time.perf_counter()
        text = harness.run_psd(cfg)
        seconds = time.perf_counter() - start
        table = np.array([[float(v) for v in line.split(",")]
                          for line in text.splitlines()[1:]])
        check(table.size > 0 and bool(np.all(np.isfinite(table))), "non-finite PSD")
        ref = np.array(self.reference["psd_db"])
        check(table.shape[0] == ref.size, "PSD bin count differs from the reference")
        live = ref > PSD_FLOOR_DB
        worst = float(np.max(np.abs(table[live, 1] - ref[live])))
        check(worst <= self.size["psd_tol_db"], f"PSD {worst:.2f} dB from the reference")
        return cfg.run.frames, seconds, text

    def _acpr(self):
        from ofdmlab import harness
        cfg = self.configs["acpr_obo"]
        start = time.perf_counter()
        text = harness.run_acpr_obo([cfg])
        seconds = time.perf_counter() - start
        _, acpr_db, obo_db = text.splitlines()[1].split(",")
        acpr_db, obo_db = float(acpr_db), float(obo_db)
        check(math.isfinite(acpr_db) and math.isfinite(obo_db), "non-finite ACPR/OBO")
        check(abs(acpr_db - self.reference["acpr_db"]) <= self.size["acpr_tol_db"],
              f"ACPR {acpr_db:.2f} dB vs reference {self.reference['acpr_db']:.2f}")
        check(abs(obo_db - self.reference["obo_db"]) <= self.size["obo_tol_db"],
              f"OBO {obo_db:.3f} dB vs reference {self.reference['obo_db']:.3f}")
        return cfg.run.frames, seconds, text


WORKLOADS = {w.name: w for w in (TrainSmoke, DetectBer, PaprSpectrum)}


def write_reference():
    """Seed-1 PSD and ACPR/OBO at each scale, for the spectrum checks."""
    from ofdmlab import harness
    reference = {}
    for scale, size in SIZES.items():
        psd = harness.run_psd(_golden_settings("cf", size["psd"], 1))
        table = harness.run_acpr_obo([_golden_settings("cf", size["acpr_obo"], 1)])
        _, acpr_db, obo_db = table.splitlines()[1].split(",")
        reference[scale] = {
            "psd_frames": size["psd"], "acpr_obo_frames": size["acpr_obo"],
            "psd_db": [float(line.split(",")[1]) for line in psd.splitlines()[1:]],
            "acpr_db": float(acpr_db), "obo_db": float(obo_db)}
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    write_reference()
