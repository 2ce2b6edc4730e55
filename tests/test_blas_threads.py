"""Every CSV has the same bytes at one and at two BLAS threads.

OpenBLAS reads its thread count once, when numpy loads it, so each thread
count gets its own process. Training is left out: its log and checkpoint
bytes still differ at one thread, where OpenBLAS rounds some long inner
products differently.
"""

import os
import subprocess
import sys
from pathlib import Path

import ofdmlab
from ofdmlab.cae.pipeline import build_system
from ofdmlab.cae.training import TrainConfig, save_system

LINK = ("[system]\nn_tx = 2\nn_rx = 2\nn_subcarriers = 16\noversample = 4\nmod_order = 4\n"
        "[channel]\nprofile = multipath\ntaps = 4\n[rf]\nibo_db = 9.0\n"
        "[run]\nseed = 3\np_snr_db = 4, 16\n")
CAE = "[method]\nname = cae\ncheckpoint = {checkpoint}\n[detector]\nname = cae\n"
SLM = "[method]\nname = slm\nslm_candidates = 8\n"
# name -> (subcommand, [method] and [detector] lines, frames); the CAE runs
# fill one 32-frame block, the batch size of the decoder's widest products
RUNS = {
    "ber_mle": ("ber", "[detector]\nname = mle\n", 32),
    "ber_zf_slm": ("ber", SLM + "[detector]\nname = zf\n", 32),
    "ber_cae": ("ber", CAE, 32),
    "ccdf_cf": ("ccdf", "[method]\nname = cf\n", 100),
    "ccdf_slm": ("ccdf", SLM, 100),
    "psd_cae": ("psd", CAE, 32),
}
SCRIPT = """
import sys
from ofdmlab.cli import main
for name, command, frames in (line.split() for line in sys.stdin.read().splitlines()):
    argv = [command, "--config", name + ".cfg", "--frames", frames, "--out", sys.argv[1] + name]
    if main(argv) != 0:
        sys.exit(f"{name} failed")
"""


def _run_all(workdir: Path, threads: int) -> dict[str, bytes]:
    out = workdir / f"threads{threads}"
    out.mkdir()
    src = str(Path(ofdmlab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    runs = "".join(f"{name} {command} {frames}\n" for name, (command, _, frames) in RUNS.items())
    subprocess.run([sys.executable, "-c", SCRIPT, f"{out}{os.sep}"], input=runs, env=env,
                   cwd=workdir, capture_output=True, text=True, timeout=300, check=True)
    return {name: (out / name).read_bytes() for name in RUNS}


def test_csv_bytes_independent_of_blas_threads(tmp_path):
    checkpoint = tmp_path / "cae.bin"
    train_cfg = TrainConfig(n_tx=2, n_rx=2, n_subcarriers=16, oversample=4, mod_order=4,
                            channel_taps=4, ibo_db=9.0)
    save_system(checkpoint, build_system(2, 2, 16, 4, 4, ibo_db=9.0, seed=3), train_cfg)
    for name, (_, lines, _) in RUNS.items():
        (tmp_path / f"{name}.cfg").write_text(LINK + lines.format(checkpoint=checkpoint))
    one, two = _run_all(tmp_path, 1), _run_all(tmp_path, 2)
    assert all(one.values())
    assert [name for name in RUNS if one[name] != two[name]] == []
