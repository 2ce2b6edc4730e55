"""Fast self-test of the benchmark at tiny sizes (well under a minute).

    python3 perfbench/selftest.py

For each workload it runs the untraced and the traced benchmark with
``--scale tiny`` and checks that every metric BENCHMARK.json names is
emitted, finite and carries its unit, that the result file holds every
named end-to-end metric, and that the per-layer self times of the traced
run sum to no more than its traced wall time. It also checks that the
benchmark refuses to run, printing no result, in a directory that holds
only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3
NAMED_RATES = {   # the end-to-end rates each workload's result file names
    "train-smoke": ["train_batches_per_s"],
    "detect-ber": ["ber_mle_frames_per_s", "ber_zf_frames_per_s", "ber_cae_frames_per_s",
                   "ber_mle_4x4_frames_per_s"],
    "papr-spectrum": ["ccdf_none_frames_per_s", "ccdf_cf_frames_per_s",
                      "ccdf_slm_frames_per_s", "psd_frames_per_s", "acpr_obo_frames_per_s"],
}


def require(condition: bool, message: str):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_metrics(where: str, metrics: dict, spec: list[dict]):
    require(set(metrics) == {m["name"] for m in spec},
            f"{where}: metric names differ from BENCHMARK.json")
    for m in spec:
        entry = metrics[m["name"]]
        require(entry["unit"] == m["unit"], f"{where}: {m['name']} unit {entry['unit']!r}")
        require(isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]),
                f"{where}: {m['name']} = {entry['value']!r}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in bench["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            code, lines = run(["perfbench/run.py", "--workload", name, "--seed", str(SEED),
                               "--seconds", "1", "--trace", str(trace), "--scale", "tiny"])
            where = f"{name} trace {trace}"
            require(code == 0 and lines, f"{where}: exit {code}")
            line = json.loads(lines[-1])
            require(set(line) == {"correct", "attempted", "failed", "metrics"},
                    f"{where}: result keys {sorted(line)}")
            require(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
                    f"{where}: {line['failed']} of {line['attempted']} sub-runs failed")
            spec = bench["per_layer"] if trace else bench["end_to_end"]
            check_metrics(where, line["metrics"], spec)
            result = json.loads(
                (HERE / "results" / f"{name}-seed{SEED}-trace{trace}-tiny.json").read_text())
            require(result["manifest"]["seed"] == SEED, f"{where}: manifest seed")
            if trace:
                self_total = sum(e["value"] for k, e in line["metrics"].items()
                                 if k.endswith(".self_s"))
                require(self_total <= result["traced_wall_s"],
                        f"{where}: self times {self_total:.3f} s exceed the traced "
                        f"wall time {result['traced_wall_s']:.3f} s")
                require(result["manifest"]["tracing_overhead"] is not None,
                        f"{where}: no tracing overhead")
            else:
                named = result["named_metrics"]
                expected = {"setup_s", "peak_rss_mb", "failed_fraction", *NAMED_RATES[name]}
                require(set(named) == expected, f"{where}: named metrics {sorted(named)}")
                for metric, entry in named.items():
                    require(entry["unit"] and all(math.isfinite(entry[k])
                                                  for k in ("median", "q1", "q3")),
                            f"{where}: {metric} = {entry}")
            print(f"ok  {where}")

    bare = HERE / "_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
        code, lines = run(["perfbench/run.py", "--workload", "detect-ber", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare)
        require(code != 0 and not any(l.startswith("{") for l in lines),
                f"bare directory: exit {code}, output {lines[-1:]}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
