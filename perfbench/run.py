"""ofdmlab benchmark: seeded workloads, end-to-end rates, per-layer spans.

    python3 perfbench/run.py --workload detect-ber --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

One workload runs in this process, as one closed-loop caller: its sub-runs
go round-robin, each started only when the previous one has returned, until
``--seconds`` is spent (every sub-run runs at least once). In a workload
that sets ``host_scaled``, the kernel of calibrate.py runs after each
sub-run for a tenth of its time, and ``round_s`` and ``rate_gmean`` are
scaled to the kernel's reference speed. Set-up time is
measured in separate set-up-only child processes. ``--trace 1`` instead
measures half the time untraced, then one traced round, and reports
per-layer metrics plus the tracing overhead. ``--workload all`` runs each
workload in its own child process and prints every metric.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. A full result with a run manifest goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORK = HERE / "_work"
DIGESTS = RESULTS / "digests.json"
WORKLOAD_NAMES = ["train-smoke", "detect-ber", "papr-spectrum"]
SETUP_SAMPLES = {"full": 3, "tiny": 1}
CALIBRATION_SHARE = 0.1    # kernel time after a sub-run, as a share of its wall time

END_TO_END = {   # name -> (unit, better)
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "round_s": ("s", "lower"),
    "rate_gmean": ("1/s", "higher"),
}
SPAN_SELF = ["autodiff.backward", "autodiff.adamw_step", "autodiff.grad_norm",
             "cae.encoder_forward", "cae.decoder_forward", "cae.transmit", "cae.receive",
             "cae.losses", "cae.make_batch", "cae.load_system"]
SPAN_SELF_CALLS = ["baselines.clip_and_filter", "baselines.slm_encode",
                   "baselines.mle_detect", "baselines.zf_detect",
                   "dsp.idft_oversampled", "dsp.dft_unpad", "dsp.papr_mimo",
                   "dsp.estimate_psd", "rf.bandpass_filter", "rf.apply_ibo",
                   "rf.rapp_amplify", "rf.bussgang_alpha", "rf.acpr",
                   "channel.draw_channel", "channel.apply_channel"]
SPAN_SELF_TAIL = ["modulation.ofdm_grid_random", "modulation.symbols_to_bits",
                  "harness", "config.load"]
WORK_COUNTS = ["baselines.slm_encode.idfts", "baselines.mle_detect.metric_evals"]
MODEL_COUNTS = {"autodiff.param_count": "count", "autodiff.optimizer_state_bytes": "bytes"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit; all are lower-is-better."""
    from spans import OP_LABELS
    units = {f"{s}.self_s": "s" for s in SPAN_SELF}
    for s in SPAN_SELF_CALLS:
        units[f"{s}.self_s"] = "s"
        units[f"{s}.calls"] = "count"
    units.update({f"{s}.self_s": "s" for s in SPAN_SELF_TAIL})
    units.update({w: "count" for w in WORK_COUNTS})
    for label in OP_LABELS:
        units[f"autodiff.{label}.fwd_ms"] = "ms"
        units[f"autodiff.{label}.bwd_ms"] = "ms"
    units.update(MODEL_COUNTS)
    return units


# -- environment --------------------------------------------------------------


def import_program():
    """Import ofdmlab from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "ofdmlab" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program source at {src / 'ofdmlab'}")
    sys.path.insert(0, str(src))
    import ofdmlab
    if Path(ofdmlab.__file__).resolve().parent != (src / "ofdmlab").resolve():
        sys.exit(f"benchmark: imported ofdmlab from {ofdmlab.__file__}, not {src}")
    import ofdmlab.cae      # noqa: F401  (binds every module the tracer patches)
    import ofdmlab.config   # noqa: F401
    import ofdmlab.harness  # noqa: F401


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, asked through its own API."""
    import ctypes
    import numpy as np
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def manifest(args, overhead) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "tracing_overhead": overhead,
    }


# -- statistics -----------------------------------------------------------------


def summary(values: list[float]) -> dict:
    values = list(values)
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


# -- measurement ----------------------------------------------------------------


class Ledger:
    """Samples, failures and output digests of one process's sub-runs."""

    def __init__(self, workload, digests: dict):
        self.workload = workload
        self.digests = digests
        self.samples = {s.name: [] for s in workload.subruns}   # (units, seconds, wall)
        self.first_text: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.broken: set[str] = set()
        self.calibration: list[float] = []   # host-speed kernel times

    def attempt(self, subrun) -> float:
        self.attempted += 1
        start = time.perf_counter()
        try:
            units, seconds, text = subrun.run()
            self._check_repeat(subrun.name, text)
        except Exception as exc:
            from workloads import CheckFailed
            self.failed += 1
            if isinstance(exc, CheckFailed):
                self.errors.append(f"{subrun.name}: {exc}")
            else:
                self.broken.add(subrun.name)
                self.errors.append(f"{subrun.name}: {traceback.format_exc()}")
            return time.perf_counter() - start
        wall = time.perf_counter() - start
        self.samples[subrun.name].append((units, seconds, wall))
        return wall

    def check_once(self):
        """The workload's one-off checks, outside the measurement."""
        from workloads import CheckFailed
        for fn in self.workload.checks:
            self.attempted += 1
            try:
                fn()
            except Exception as exc:
                self.failed += 1
                self.errors.append(f"check: {exc}" if isinstance(exc, CheckFailed)
                                   else f"check: {traceback.format_exc()}")

    def _check_repeat(self, name, text):
        """Outputs must be byte-identical across repetitions, in and across runs."""
        from workloads import CheckFailed
        first = self.first_text.setdefault(name, text)
        if text != first:
            raise CheckFailed("output differs between repetitions of this run")
        w = self.workload
        key = f"{w.name}/{name}/{w.scale}/seed{w.seed}"
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digests.setdefault(key, digest) != digest:
            raise CheckFailed("output differs from an earlier run with this seed")

    def run_for(self, seconds: float):
        """Closed loop: round-robin until the time is spent; one full round first."""
        deadline = time.perf_counter() + seconds
        last: dict[str, float] = {}
        while True:
            ran = False
            for subrun in self.workload.subruns:
                if subrun.name in self.broken:
                    continue
                if subrun.name in last and time.perf_counter() + last[subrun.name] > deadline:
                    continue
                last[subrun.name] = self.attempt(subrun)
                if self.workload.host_scaled:
                    self.calibrate(CALIBRATION_SHARE * last[subrun.name])
                ran = True
            if not ran:
                return

    def calibrate(self, budget: float):
        """Run the host-speed kernel at least once, until ``budget`` seconds pass."""
        from calibrate import sample
        spent = 0.0
        while spent < budget or not spent:
            self.calibration.append(sample())
            spent += self.calibration[-1]

    def host_speed(self) -> float:
        """Host speed during this run relative to the kernel's reference; 1 if unscaled."""
        from calibrate import REFERENCE_S
        if not self.calibration:
            return 1.0
        return REFERENCE_S / statistics.median(self.calibration)

    def rates(self) -> dict[str, list[float]]:
        return {name: [u / s for u, s, _ in rows] for name, rows in self.samples.items()}

    def median_wall(self) -> float:
        return sum(statistics.median(w for _, _, w in rows) for rows in self.samples.values())


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def setup_only(args):
    from workloads import WORKLOADS
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        WORKLOADS[args.workload](args.seed, args.scale, workdir).setup()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def time_setups(args) -> list[float]:
    """Wall time of whole set-up-only processes: interpreter start to exit."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--scale", args.scale, "--setup-only"]
    times = []
    for _ in range(SETUP_SAMPLES[args.scale]):
        start = time.perf_counter()
        subprocess.run(command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def run_workload(args) -> int:
    from workloads import WORKLOADS
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    setups = [] if args.trace else time_setups(args)

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.scale, workdir)
        setup_start = time.perf_counter()
        if tracer:
            tracer.enabled = True
            frame = tracer.open("bench.setup")
        workload.setup()
        if tracer:
            tracer.close(frame)
            tracer.enabled = False
            tracer.op_shapes.clear()   # op shapes come from the measured round only
        setup_wall = time.perf_counter() - setup_start

        ledger = Ledger(workload, load_digests())
        if tracer is None:
            ledger.run_for(args.seconds)
            ledger.check_once()
            result = untraced_result(args, workload, ledger, setups)
        else:
            result = traced_result(args, workload, ledger, tracer, setup_wall)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    RESULTS.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(ledger.digests, indent=1, sort_keys=True) + "\n")
    if ledger.errors:
        print("\n".join(ledger.errors), file=sys.stderr)
    line = {"correct": ledger.failed == 0 and result is not None,
            "attempted": ledger.attempted, "failed": ledger.failed,
            "metrics": result["metrics"] if result else {}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def result_path(workload: str, seed: int, scale: str, trace: int) -> Path:
    suffix = "" if scale == "full" else f"-{scale}"
    return RESULTS / f"{workload}-seed{seed}-trace{trace}{suffix}.json"


def untraced_result(args, workload, ledger, setups) -> dict | None:
    rates = ledger.rates()
    if not all(rates.values()):
        return None
    speed = ledger.host_speed()
    medians = {name: statistics.median(r) / speed for name, r in rates.items()}
    round_s = sum(ledger.samples[s.name][0][0] / medians[s.name] for s in workload.subruns)
    gmean = math.exp(statistics.fmean(math.log(m) for m in medians.values()))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"setup_s": statistics.median(setups), "peak_rss_mb": peak,
              "round_s": round_s, "rate_gmean": gmean}
    named = {"setup_s": {"unit": "s", "better": "lower", **summary(setups)},
             "peak_rss_mb": {"unit": "MB", "better": "lower", **summary([peak])},
             "failed_fraction": {"unit": "fraction", "better": "lower",
                                 **summary([ledger.failed / ledger.attempted])}}
    for s in workload.subruns:
        named[s.metric] = {"unit": s.unit, "better": "higher", **summary(rates[s.name])}
    traced = result_path(args.workload, args.seed, args.scale, 1)
    overhead = (json.loads(traced.read_text())["manifest"]["tracing_overhead"]
                if traced.is_file() else None)
    result = {"manifest": manifest(args, overhead),
              "metrics": {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()},
              "named_metrics": named,
              "host_speed": speed,
              "calibration_s": ledger.calibration,
              "samples": {k: [list(x) for x in v] for k, v in ledger.samples.items()},
              "attempted": ledger.attempted, "failed": ledger.failed, "errors": ledger.errors}
    write_result(result_path(args.workload, args.seed, args.scale, 0), result)
    for name, entry in named.items():
        print(f"{workload.name:14s} {name:34s} {entry['median']:12.5g} {entry['unit']:10s} "
              f"q1 {entry['q1']:.5g}  q3 {entry['q3']:.5g}  n {entry['n']}", file=sys.stderr)
    if ledger.calibration:
        print(f"{workload.name:14s} {'host_speed':34s} {speed:12.5g} x          "
              f"n {len(ledger.calibration)}", file=sys.stderr)
    return result


def traced_result(args, workload, ledger, tracer, setup_wall) -> dict | None:
    from spans import replay_ops
    ledger.run_for(args.seconds / 2.0)
    if not all(ledger.samples.values()):
        return None
    untraced_round = ledger.median_wall()
    traced_round = 0.0
    tracer.enabled = True
    for subrun in workload.subruns:
        frame = tracer.open(f"bench.{subrun.name}")
        traced_round += ledger.attempt(subrun)
        tracer.close(frame)
    tracer.enabled = False
    ledger.check_once()
    ops = replay_ops(tracer.op_shapes, args.seed)

    metrics = {}
    for name, unit in per_layer_units().items():
        if name.endswith(".self_s"):
            value = tracer.self_s.get(name[:-len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            value = tracer.calls.get(name[:-len(".calls")], 0)
        elif name.endswith(("fwd_ms", "bwd_ms")):
            label, kind = name[len("autodiff."):].rsplit(".", 1)
            value = ops[label][kind] if label in ops else 0.0
        elif name in MODEL_COUNTS:
            value = workload.counts[name]
        else:
            value = tracer.work.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    overhead = {"untraced_round_s": untraced_round, "traced_round_s": traced_round,
                "overhead_s": traced_round - untraced_round,
                "overhead_share": (traced_round - untraced_round) / untraced_round}
    result = {"manifest": manifest(args, overhead),
              "metrics": metrics,
              "traced_wall_s": setup_wall + traced_round,
              "bench_self_s": {k: v for k, v in tracer.self_s.items() if k.startswith("bench.")},
              "op_replay": ops,
              "attempted": ledger.attempted, "failed": ledger.failed, "errors": ledger.errors}
    path = result_path(args.workload, args.seed, args.scale, 1)
    write_result(path, result)
    spans = {"dropped": tracer.dropped,
             "spans": [{"id": i, "parent": p, "name": n, "start": s, "end": e}
                       for i, p, n, s, e in tracer.spans]}
    path.with_suffix(".spans.json").write_text(json.dumps(spans))
    print(f"{workload.name}: tracing overhead {overhead['overhead_s']:+.3f} s per round "
          f"({100 * overhead['overhead_share']:+.1f}%)", file=sys.stderr)
    return result


def write_result(path: Path, result: dict):
    RESULTS.mkdir(exist_ok=True)
    path.write_text(json.dumps(result, indent=1) + "\n")


# -- all workloads ----------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process; print every metric by name."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            total["correct"] = False
            continue
        line = json.loads(lines[-1])
        total["correct"] &= line["correct"]
        total["attempted"] += line["attempted"]
        total["failed"] += line["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in line["metrics"].items()})
        result = json.loads(result_path(name, args.seed, args.scale, args.trace).read_text())
        if args.trace:
            for metric, entry in result["metrics"].items():
                print(f"{name:14s} {metric:40s} {entry['value']:14.6g} {entry['unit']}")
            o = result["manifest"]["tracing_overhead"]
            print(f"{name:14s} {'tracing overhead':40s} {o['overhead_s']:+14.4f} s "
                  f"({100 * o['overhead_share']:+.1f}% of an untraced round)")
            continue
        for metric, e in result["named_metrics"].items():
            print(f"{name:14s} {metric:34s} {e['unit']:10s} {e['better']:7s} n={e['n']:<3d} "
                  f"median {e['median']:<12.6g} q1 {e['q1']:<12.6g} q3 {e['q3']:.6g}")
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: minimal work per sub-run, for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_program()
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        setup_only(args)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
