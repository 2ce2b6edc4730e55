"""The vectorized receive side against the per-subcarrier, per-frame code it replaces.

The oracles below are verbatim copies of the earlier exhaustive MLE and ZF
detectors (one search or one SVD + pseudo-inverse per subcarrier), of the
chunk loop's per-candidate metric, and of the earlier per-frame CAE link (a
batch of one through ``run_batch``). The new detectors must match them bit
for bit on random and tied instances, on both MLE paths (the chunk loop
and, above ``MLE_SPHERE_MIN`` candidates, the sphere-filtered search), and
``run_ber`` must write the same CSV bytes for any frame block size, worker
count and MLE path.
"""

from dataclasses import replace

import numpy as np
import pytest

from ofdmlab import baselines, harness
from ofdmlab.autodiff import no_grad
from ofdmlab.baselines import MLE_CANDIDATE_GUARD, mle_detect, zf_detect
from ofdmlab.cae import training
from ofdmlab.cae.model import hard_decisions
from ofdmlab.cae.pipeline import build_system
from ofdmlab.channel import (ChannelRealization, MultipathTaps, apply_channel,
                             draw_channel, noise_variance_for_psnr)
from ofdmlab.config import parse_config
from ofdmlab.errors import NumericError
from ofdmlab.harness import frame_rng, run_ber
from ofdmlab.modulation import (OfdmGrid, nearest_level_index, pam_levels,
                                qam_alphabet, symbols_to_bits)

# -- oracles: the earlier receive side, unchanged --------------------------------


def _candidate_vectors_ref(order: int, n_tx: int) -> np.ndarray:
    """All |M|^n_tx transmit vectors in lexicographic order, [count, n_tx]."""
    alphabet = qam_alphabet(order)
    count = alphabet.size ** n_tx
    if count > MLE_CANDIDATE_GUARD:
        raise ValueError(f"{count} candidates exceed the exhaustive-search guard")
    index_grids = np.meshgrid(*([np.arange(alphabet.size)] * n_tx), indexing="ij")
    idx = np.stack(index_grids, axis=-1).reshape(-1, n_tx)
    return alphabet[idx]


def mle_detect_ref(chan: ChannelRealization, y_freq: np.ndarray, order: int) -> np.ndarray:
    """Exhaustive minimum-distance detection, one search per subcarrier.

    ``y_freq`` is [n_sub, n_rx]; returns the detected grid [n_tx, n_sub].
    Ties break toward the lexicographically first candidate.
    """
    y_freq = np.asarray(y_freq, dtype=np.complex128)
    if y_freq.shape != (chan.n_subcarriers, chan.n_rx):
        raise ValueError("y shape does not match the channel")
    candidates = _candidate_vectors_ref(order, chan.n_tx)
    detected = np.empty((chan.n_tx, chan.n_subcarriers), dtype=np.complex128)
    for k in range(chan.n_subcarriers):
        hypotheses = candidates @ chan.h[k].T          # [count, n_rx]
        errors = np.abs(y_freq[k][None, :] - hypotheses) ** 2
        best = int(np.argmin(errors.sum(axis=1)))
        detected[:, k] = candidates[best]
    return detected


def chunk_metrics_ref(chan: ChannelRealization, y_freq: np.ndarray, order: int) -> np.ndarray:
    """Every candidate's metric as the chunk loop computes it, [n_sub, count].

    The earlier ``mle_detect`` body in ``MLE_CHUNK``-row chunks of 1024,
    recording each chunk's metrics instead of its minimum.
    """
    k, n_rx = chan.n_subcarriers, chan.n_rx
    candidates = _candidate_vectors_ref(order, chan.n_tx)
    count = candidates.shape[0]
    chunk = min(count, 1024)
    h_t = np.swapaxes(chan.h, 1, 2)
    y_col = y_freq[:, None, :]
    hypotheses = np.empty((k, chunk, n_rx), dtype=np.complex128)
    distance = np.empty((k, chunk, n_rx))
    metric = np.empty((k, chunk))
    table = np.empty((k, count))
    for start in range(0, count, chunk):
        block = candidates[start:start + chunk]
        n = block.shape[0]
        hyp, dist, m = hypotheses[:, :n], distance[:, :n], metric[:, :n]
        np.matmul(block, h_t, out=hyp)
        np.subtract(y_col, hyp, out=hyp)
        np.abs(hyp, out=dist)
        np.square(dist, out=dist)
        np.copyto(m, dist[:, :, 0])
        for r in range(1, n_rx):
            m += dist[:, :, r]
        table[:, start:start + n] = m
    return table


def zf_detect_ref(chan: ChannelRealization, y_freq: np.ndarray, order: int) -> np.ndarray:
    """Pseudo-inverse equalization plus per-entry nearest constellation point."""
    y_freq = np.asarray(y_freq, dtype=np.complex128)
    if y_freq.shape != (chan.n_subcarriers, chan.n_rx):
        raise ValueError("y shape does not match the channel")
    levels = pam_levels(order)
    detected = np.empty((chan.n_tx, chan.n_subcarriers), dtype=np.complex128)
    for k in range(chan.n_subcarriers):
        h = chan.h[k]
        smallest = np.linalg.svd(h, compute_uv=False)[-1]
        if smallest < 1e-12:
            raise ValueError(f"channel matrix at subcarrier {k} is singular")
        equalized = np.linalg.pinv(h) @ y_freq[k]
        re = levels[nearest_level_index(equalized.real, levels)]
        im = levels[nearest_level_index(equalized.imag, levels)]
        detected[:, k] = re + 1j * im
    return detected


def cae_ber_frame_ref(chain, frame_index: int, point_index: int,
                      sigma_w2: float) -> tuple[int, int]:
    """The earlier ``ber_frame`` for the CAE method, with its ``_cae_ber_frame``."""
    cfg = chain.cfg
    rng = frame_rng(cfg.run.seed, frame_index, point_index)
    grid = OfdmGrid.random(rng, cfg.system.n_tx, cfg.system.n_subcarriers,
                           cfg.system.mod_order)
    chan = draw_channel(rng, cfg.system.n_subcarriers, cfg.system.n_tx,
                        cfg.system.n_rx, chain.profile, sigma_w2)
    k, n_rx = cfg.system.n_subcarriers, cfg.system.n_rx
    noise = (rng.standard_normal((1, k, n_rx)) + 1j * rng.standard_normal((1, k, n_rx))) \
        * np.sqrt(chan.sigma_w2 / 2.0)
    with no_grad():
        result = chain.system.run_batch(grid.symbols[None], chan.h[None], noise,
                                        rng, train=False)
    hard = hard_decisions(result.logits.values, cfg.system.mod_order)[0]
    sent = symbols_to_bits(grid.symbols, cfg.system.mod_order)
    got = symbols_to_bits(hard, cfg.system.mod_order)
    return int(np.sum(sent != got)), sent.size


def cae_ber_block_ref(chain, frames, point_index, sigma_w2):
    """A block's totals as the sum of the earlier per-frame results."""
    results = [cae_ber_frame_ref(chain, i, point_index, sigma_w2) for i in frames]
    return sum(r[0] for r in results), sum(r[1] for r in results)


# -- helpers ------------------------------------------------------------------------


def instance(rng, k, n_tx, n_rx, order, sigma_w2=0.3, taps=1):
    """A random channel and its noisy observation of a random grid."""
    chan = draw_channel(rng, k, n_tx, n_rx, MultipathTaps(taps), sigma_w2=sigma_w2)
    grid = OfdmGrid.random(rng, n_tx, k, order)
    return chan, apply_channel(grid.symbols.T, chan, rng)


def assert_same(new, ref):
    assert new.shape == ref.shape
    assert new.flags.c_contiguous
    assert np.array_equal(new, ref)


# -- detectors on random instances -----------------------------------------------

CASES = [   # (name, n_tx, n_rx, order, K, trials)
    ("2x2_qpsk_k72", 2, 2, 4, 72, 40),
    ("2x2_qpsk_k1", 2, 2, 4, 1, 100),
    ("2x3_16qam_k72", 2, 3, 16, 72, 10),
    ("4x4_16qam_k72", 4, 4, 16, 72, 1),
    ("4x4_16qam_k1", 4, 4, 16, 1, 5),
]


@pytest.mark.parametrize("name,n_tx,n_rx,order,k,trials", CASES, ids=[c[0] for c in CASES])
def test_mle_exact(name, n_tx, n_rx, order, k, trials):
    rng = np.random.default_rng(20)
    for _ in range(trials):
        chan, y = instance(rng, k, n_tx, n_rx, order, taps=min(k, 5))
        assert_same(mle_detect(chan, y, order), mle_detect_ref(chan, y, order))


@pytest.mark.parametrize("name,n_tx,n_rx,order,k,trials", CASES, ids=[c[0] for c in CASES])
def test_zf_exact(name, n_tx, n_rx, order, k, trials):
    rng = np.random.default_rng(21)
    for _ in range(trials * 5):
        chan, y = instance(rng, k, n_tx, n_rx, order, taps=min(k, 5))
        assert_same(zf_detect(chan, y, order), zf_detect_ref(chan, y, order))


@pytest.mark.parametrize("chunk", [1, 7, 100, 256])
def test_mle_exact_for_any_chunk(monkeypatch, chunk):
    """Partial last chunks and one-row chunks give the same detections."""
    monkeypatch.setattr(baselines, "MLE_CHUNK", chunk)
    rng = np.random.default_rng(22)
    for _ in range(5):
        chan, y = instance(rng, 9, 2, 2, 16, taps=3)
        assert_same(mle_detect(chan, y, 16), mle_detect_ref(chan, y, 16))


# -- the sphere-filtered path ---------------------------------------------------------


def test_sphere_threshold_routes_the_large_searches():
    # 2x2 16-QAM (256 candidates) keeps the chunk loop, 3-tx 16-QAM (4096) does not
    assert 16 ** 2 <= baselines.MLE_SPHERE_MIN < 16 ** 3


@pytest.mark.parametrize("n_rx", [2, 3, 4])
def test_sphere_exact_three_tx_16qam(n_rx):
    # n_rx = 2 leaves the first level without a row of R: it keeps all 16 symbols
    rng = np.random.default_rng(30 + n_rx)
    for _ in range(3):
        chan, y = instance(rng, 24, 3, n_rx, 16, sigma_w2=0.05, taps=4)
        assert_same(mle_detect(chan, y, 16), mle_detect_ref(chan, y, 16))


@pytest.mark.parametrize("p_snr_db", [0.0, 20.0, 40.0])
def test_sphere_exact_4x4_16qam_across_snr(p_snr_db):
    rng = np.random.default_rng(34)
    chan, y = instance(rng, 72, 4, 4, 16, sigma_w2=noise_variance_for_psnr(p_snr_db), taps=5)
    assert_same(mle_detect(chan, y, 16), mle_detect_ref(chan, y, 16))


def test_sphere_rounding_decides_midpoint_ties_like_oracle():
    # y halfway between two candidates one level apart on one antenna: the
    # exhaustive metric's rounding decides, and the sphere path must agree
    rng = np.random.default_rng(35)
    alphabet = qam_alphabet(16)
    for _ in range(2):
        chan = draw_channel(rng, 72, 4, 4, MultipathTaps(5))
        a_idx = rng.integers(0, 16, (72, 4))
        b_idx = a_idx.copy()
        antenna = rng.integers(0, 4, 72)
        rows = np.arange(72)
        b_idx[rows, antenna] = np.where(a_idx[rows, antenna] % 4 < 3,
                                        a_idx[rows, antenna] + 1, a_idx[rows, antenna] - 1)
        a, b = alphabet[a_idx], alphabet[b_idx]
        y = 0.5 * (np.einsum("krt,kt->kr", chan.h, a) + np.einsum("krt,kt->kr", chan.h, b))
        assert_same(mle_detect(chan, y, 16), mle_detect_ref(chan, y, 16))


@pytest.mark.parametrize("n_tx,n_rx", [(4, 4), (3, 2)])
def test_sphere_keeps_exact_ties_of_a_noise_free_observation(n_tx, n_rx):
    # two equal channel columns: swapping their symbols ties exactly in the
    # exhaustive metric, while the QR metric of the noise-free observation
    # is ~0 and differs between the two by rounding only
    rng = np.random.default_rng(39)
    chan = draw_channel(rng, 24, n_tx, n_rx, MultipathTaps(4))
    h = chan.h.copy()
    h[:, :, 1] = h[:, :, 0]
    chan = ChannelRealization(h, 0.0, chan.pdp)
    x = qam_alphabet(16)[rng.integers(0, 16, (24, n_tx))]
    y = np.einsum("krt,kt->kr", h, x)
    assert_same(mle_detect(chan, y, 16), mle_detect_ref(chan, y, 16))


@pytest.mark.parametrize("nodes", [0, 40])
def test_sphere_frontier_budget_falls_back_exactly(monkeypatch, nodes):
    # budget 0 sends every subcarrier to the chunk loop, 40 only the widest
    calls = []
    inner = baselines._exhaustive_search

    def spy(h, y, candidates, chunk):
        calls.append(h.shape[0])
        return inner(h, y, candidates, chunk)

    monkeypatch.setattr(baselines, "MLE_SPHERE_NODES", nodes)
    monkeypatch.setattr(baselines, "_exhaustive_search", spy)
    rng = np.random.default_rng(36)
    chan, y = instance(rng, 16, 4, 4, 16, sigma_w2=0.5, taps=4)
    assert_same(mle_detect(chan, y, 16), mle_detect_ref(chan, y, 16))
    assert len(calls) == 1
    assert calls[0] == 16 if nodes == 0 else 0 < calls[0] < 16


@pytest.mark.parametrize("width", [2, 3, 17, 300])
def test_rescored_metrics_equal_chunk_loop_metrics(width):
    rng = np.random.default_rng(37)
    alphabet = qam_alphabet(16)
    chan, y = instance(rng, 8, 4, 4, 16, taps=3)
    table = chunk_metrics_ref(chan, y, 16)
    picks = np.stack([np.sort(rng.choice(16 ** 4, width, replace=False)) for _ in range(8)])
    digits = (picks[:, :, None] // 16 ** np.arange(3, -1, -1)) % 16
    metric = baselines._survivor_metrics(chan.h, y, alphabet[digits])
    assert np.array_equal(metric, np.take_along_axis(table, picks, axis=1))


def test_sphere_path_never_builds_the_candidate_table(monkeypatch):
    def refuse(order, n_tx):
        raise AssertionError(f"candidate table built for {order}-QAM x {n_tx}")

    rng = np.random.default_rng(38)
    chan, y = instance(rng, 72, 4, 4, 16, sigma_w2=noise_variance_for_psnr(20.0), taps=5)
    ref = mle_detect_ref(chan, y, 16)
    monkeypatch.setattr(baselines, "_candidate_vectors", refuse)
    assert_same(mle_detect(chan, y, 16), ref)


def test_sphere_and_exhaustive_paths_write_the_same_ber_csv(monkeypatch):
    # the detect-ber 4x4 16-QAM link over p-SNR 0-24 dB
    cfg = parse_config(
        "[system]\nn_tx = 4\nn_rx = 4\nn_subcarriers = 72\noversample = 4\nmod_order = 16\n"
        "[channel]\nprofile = multipath\ntaps = 13\n"
        "[method]\nname = cf\n[detector]\nname = mle\n"
        "[run]\nframes = 2\nseed = 8\np_snr_db = 0, 4, 8, 12, 16, 20, 24\n")
    sphere, _ = run_ber(cfg)
    monkeypatch.setattr(baselines, "MLE_SPHERE_MIN", 16 ** 4)
    exhaustive, _ = run_ber(cfg)
    assert sphere == exhaustive


# -- exact ties ----------------------------------------------------------------------


def tied_instance(zero_tx, k=3, n=4, order=16, seed=23):
    """A channel with one zero column: candidates differing only there tie."""
    rng = np.random.default_rng(seed)
    chan, y = instance(rng, k, n, n, order, taps=1)
    h = chan.h.copy()
    h[:, :, zero_tx] = 0.0
    return ChannelRealization(h, chan.sigma_w2, chan.pdp), y


@pytest.mark.parametrize("zero_tx", [0, 3])
def test_mle_tie_breaks_to_first_candidate(zero_tx):
    # antenna 0 is the slowest candidate index, so its ties sit 4096 rows
    # apart, each in a later chunk; antenna 3's ties sit next to each other
    chan, y = tied_instance(zero_tx)
    new = mle_detect(chan, y, 16)
    assert_same(new, mle_detect_ref(chan, y, 16))
    assert np.all(new[zero_tx] == qam_alphabet(16)[0])


def test_mle_rounding_decides_midpoint_ties_like_oracle():
    # y halfway between two hypotheses: the metrics tie in exact arithmetic,
    # so the winner depends on the order of the float operations
    rng = np.random.default_rng(24)
    candidates = _candidate_vectors_ref(4, 2)
    for _ in range(10):
        chan = draw_channel(rng, 72, 2, 4, MultipathTaps(5))
        a, b = (candidates[rng.integers(0, 16, 72)] for _ in range(2))
        y = 0.5 * (np.einsum("krt,kt->kr", chan.h, a) + np.einsum("krt,kt->kr", chan.h, b))
        assert_same(mle_detect(chan, y, 4), mle_detect_ref(chan, y, 4))


def test_mle_all_tied_picks_first_candidate():
    chan = ChannelRealization(np.zeros((2, 4, 4), dtype=complex), 0.0, np.ones(1))
    y = np.ones((2, 4), dtype=complex)
    new = mle_detect(chan, y, 16)
    assert_same(new, mle_detect_ref(chan, y, 16))
    assert np.all(new == qam_alphabet(16)[0])


def test_zf_singular_names_first_subcarrier():
    chan, y = tied_instance(1, n=2, order=4, k=4)
    h = chan.h.copy()
    h[2] = np.eye(2)
    chan = ChannelRealization(h, chan.sigma_w2, chan.pdp)
    with pytest.raises(ValueError, match="subcarrier 0 is singular"):
        zf_detect_ref(chan, y, 4)
    with pytest.raises(NumericError, match="subcarrier 0 is singular"):
        zf_detect(chan, y, 4)


# -- the CAE link through run_ber ---------------------------------------------------


@pytest.fixture(scope="module")
def cae_config(tmp_path_factory):
    checkpoint = tmp_path_factory.mktemp("cae") / "cae.bin"
    system = build_system(2, 2, 16, 4, 4, ibo_db=9.0, seed=4)
    smoke = training.TrainConfig(n_tx=2, n_rx=2, n_subcarriers=16, oversample=4,
                                 mod_order=4, channel_taps=0, epochs=1,
                                 gradual_start_epoch=1, batches_per_epoch=1,
                                 batch_size=4, ibo_db=9.0, seed=4)
    training.save_system(checkpoint, system, smoke)
    return parse_config(
        "[system]\nn_tx = 2\nn_rx = 2\nn_subcarriers = 16\noversample = 4\nmod_order = 4\n"
        "[channel]\nprofile = multipath\ntaps = 4\n[rf]\nibo_db = 9.0\n"
        "[run]\nframes = 35\nseed = 5\np_snr_db = 0, 30\n"
        f"[method]\nname = cae\ncheckpoint = {checkpoint}\n[detector]\nname = cae\n")


@pytest.fixture(scope="module")
def cae_oracle_text(cae_config):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness._FrameChain, "cae_ber_block", cae_ber_block_ref)
        text, _ = run_ber(cae_config)
    return text


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("block", [1, 3, harness.BLOCK_FRAMES])
def test_cae_ber_text_matches_per_frame_oracle(cae_config, cae_oracle_text, monkeypatch,
                                               block, workers):
    assert cae_config.run.frames % harness.BLOCK_FRAMES != 0
    monkeypatch.setattr(harness, "BLOCK_FRAMES", block)
    cfg = replace(cae_config, run=replace(cae_config.run, workers=workers))
    text, _ = run_ber(cfg)
    assert text == cae_oracle_text


def test_cae_inference_computes_no_losses(cae_config, monkeypatch):
    from ofdmlab.cae import pipeline

    def refuse(*args, **kwargs):
        raise AssertionError("a training loss was computed")

    for name in ("loss_reconstruction", "loss_papr", "loss_acpr"):
        monkeypatch.setattr(pipeline, name, refuse)
    run_ber(replace(cae_config, run=replace(cae_config.run, frames=3)))
