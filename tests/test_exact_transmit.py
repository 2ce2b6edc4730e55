"""The blocked transmit side against the per-frame code it replaces.

The oracles below are copies of the earlier per-frame stages (the band-pass
filter, clipping, input back-off, worst-antenna PAPR, periodogram and unpad,
each on one [A, N] frame) and of the earlier per-frame ``_FrameChain``
methods ``ccdf_frame``, ``psd_frame``, ``spectral_frame`` and ``ber_frame``
built on them. Their arithmetic is verbatim; they take and return plain
arrays, as the stages now do. Each stacked stage must match its oracle
frame by frame with ``array_equal``, and ``run_ccdf``, ``run_psd``,
``run_acpr_obo`` and ``run_ber`` must write the same CSV bytes as with the
oracles patched in, for any block size and worker count.

The synthesis, SLM search, RAPP amplifier and per-frame generator the
oracles build on are frozen copies too (``*_ref``): the shifted-spectrum
synthesis, the allocating SLM search and one ``Philox`` per frame. The
live stages replace the shift copies with gathers and scatters through
``dsp.inband_bins``, reuse work arrays and re-key one generator per block,
and must still match them bit for bit.
"""

import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ofdmlab import baselines, harness
from ofdmlab.autodiff import no_grad
from ofdmlab.baselines import SlmCodebook, clip_and_filter, clip_only, slm_encode
from ofdmlab.cae import training
from ofdmlab.cae.pipeline import build_system
from ofdmlab.channel import apply_channel, draw_channel
from ofdmlab.config import parse_config
from ofdmlab.dsp import dft_unpad, estimate_psd, idft_oversampled, inband_start, papr_mimo
from ofdmlab.harness import frame_rng, frame_streams, run_acpr_obo, run_ber, run_ccdf, run_psd
from ofdmlab.modulation import SUPPORTED_ORDERS, OfdmGrid, qam_alphabet, symbols_to_bits
from ofdmlab.rf import RappParams, apply_ibo, bandpass_filter, bussgang_alpha, rapp_amplify

# -- oracles: the earlier synthesis, SLM search, amplifier and frame generator -------


def idft_oversampled_ref(symbols: np.ndarray, L: int) -> np.ndarray:
    """Oversampled time samples of symbol rows: [..., A, K] -> [..., A, L*K]."""
    if L < 1:
        raise ValueError("oversampling factor must be >= 1")
    k = symbols.shape[-1]
    n = L * k
    spectrum = np.zeros(symbols.shape[:-1] + (n,), dtype=np.complex128)
    start = inband_start(n, k)
    spectrum[..., start:start + k] = symbols
    return (n / np.sqrt(k)) * np.fft.ifft(np.fft.ifftshift(spectrum, axes=-1), axis=-1)


def slm_encode_ref(grid: OfdmGrid, book: SlmCodebook, L: int) -> tuple[np.ndarray, int]:
    """Pick the candidate phase sequence with the lowest worst-antenna PAPR."""
    symbols = grid.symbols
    if book.phases.shape[1] != symbols.shape[1]:
        raise ValueError("codebook length does not match the grid")
    candidates = book.phases[:, None, :] * symbols[None, :, :]
    rows = idft_oversampled_ref(candidates, L)
    power = np.abs(rows) ** 2
    per_antenna = power.max(axis=2) / power.mean(axis=2)
    worst = per_antenna.max(axis=1)
    winner = int(np.argmin(worst))
    # a copy, so that a caller holding the frame does not hold every candidate
    return rows[winner].copy(), winner


def rapp_amplify_ref(samples: np.ndarray, params: RappParams) -> np.ndarray:
    """Apply the AM/AM response per sample; phase preserved."""
    power = np.abs(samples) ** 2
    gain = params.v * (1.0 + (params.v ** 2 * power / params.a0 ** 2) ** params.p) ** (-1.0 / (2 * params.p))
    return samples * gain


def frame_rng_ref(seed: int, frame_index: int, point_index: int = 0) -> np.random.Generator:
    """Counter-split generator: one independent stream per (point, frame)."""
    return np.random.Generator(
        np.random.Philox(key=seed, counter=[0, 0, frame_index, point_index + 2]))


# -- oracles: the earlier per-frame stages, unchanged ------------------------------


def bandpass_filter_ref(samples: np.ndarray, L: int) -> np.ndarray:
    """Zero every out-of-band bin; brick-wall response over the data band."""
    n = samples.shape[1]
    k = n // L
    spectrum = np.fft.fftshift(np.fft.fft(samples, axis=1), axes=1)
    start = inband_start(n, k)
    mask = np.zeros(n)
    mask[start:start + k] = 1.0
    return np.fft.ifft(np.fft.ifftshift(spectrum * mask, axes=1), axis=1)


def clip_only_ref(samples: np.ndarray, clip_ratio_db: float) -> np.ndarray:
    """Hard-limit the envelope at rms * 10^(ratio/20); phase preserved."""
    power = float(np.mean(np.abs(samples) ** 2))
    if power == 0.0:
        raise ValueError("cannot clip an all-zero frame")
    limit = np.sqrt(power) * 10.0 ** (clip_ratio_db / 20.0)
    magnitude = np.abs(samples)
    scale = np.where(magnitude > limit, limit / np.maximum(magnitude, 1e-300), 1.0)
    return samples * scale


def clip_and_filter_ref(samples: np.ndarray, clip_ratio_db: float, L: int) -> np.ndarray:
    return bandpass_filter_ref(clip_only_ref(samples, clip_ratio_db), L)


def apply_ibo_ref(samples: np.ndarray, ibo_db: float, params: RappParams) -> np.ndarray:
    """Scale a frame so its mean power sits ``ibo_db`` below a0^2."""
    power = float(np.mean(np.abs(samples) ** 2))
    if power == 0.0:
        raise ValueError("cannot back off an all-zero frame")
    target = params.a0 ** 2 / 10.0 ** (ibo_db / 10.0)
    scale = np.sqrt(target / power)
    return samples * scale


def papr_ref(samples: np.ndarray) -> float:
    """Peak-to-average power ratio of a complex sequence, linear units."""
    samples = np.asarray(samples, dtype=np.complex128).reshape(-1)
    if samples.size == 0:
        raise ValueError("empty signal")
    power = np.abs(samples) ** 2
    mean = power.mean()
    if mean == 0.0:
        raise ValueError("all-zero signal has no defined PAPR")
    return float(power.max() / mean)


def papr_mimo_ref(samples: np.ndarray) -> float:
    """Worst-antenna PAPR of a MIMO frame, linear units."""
    return max(papr_ref(row) for row in samples)


def estimate_psd_ref(samples: np.ndarray) -> np.ndarray:
    """Rectangular-window periodogram of each antenna row, averaged over rows."""
    n = samples.shape[1]
    spectrum = np.fft.fftshift(np.fft.fft(samples, axis=1), axes=1)
    return (np.abs(spectrum) ** 2 / n ** 2).mean(axis=0)


def dft_unpad_ref(samples: np.ndarray, n_inband: int) -> np.ndarray:
    """Forward transform a frame and keep only the centre data bins."""
    n = samples.shape[1]
    if n % n_inband != 0:
        raise ValueError("frame length must be divisible by the data bin count")
    spectrum = np.fft.fftshift(np.fft.fft(samples, axis=1), axes=1)
    start = inband_start(n, n_inband)
    return spectrum[:, start:start + n_inband] * (np.sqrt(n_inband) / n)


# -- oracles: the earlier per-frame chain methods --------------------------------


def filtered_frame_ref(chain, grid: OfdmGrid):
    """Method-specific band-limited frame plus SLM phases if any."""
    cfg = chain.cfg
    oversample = cfg.system.oversample
    if cfg.method.name == "cae":
        with no_grad():
            stages = chain.system.transmit(grid.symbols[None], train=False)
        return stages["filtered"].values()[0], None
    if cfg.method.name == "slm":
        frame, index = slm_encode_ref(grid, chain.book, oversample)
        return bandpass_filter_ref(frame, oversample), chain.book.phases[index]
    raw = idft_oversampled_ref(grid.symbols, oversample)
    if cfg.method.name == "cf":
        return clip_and_filter_ref(raw, cfg.method.clip_ratio_db, oversample), None
    return bandpass_filter_ref(raw, oversample), None


def drawn_filtered_ref(chain, frame_index: int) -> np.ndarray:
    s = chain.cfg.system
    rng = frame_rng_ref(chain.cfg.run.seed, frame_index, 0)
    grid = OfdmGrid.random(rng, s.n_tx, s.n_subcarriers, s.mod_order)
    return filtered_frame_ref(chain, grid)[0]


def amplified_ref(chain, filtered: np.ndarray):
    """IBO + amplifier; returns (backed_off, amplified, bussgang gain)."""
    if chain.cfg.rf.amplifier == "linear":
        return filtered, filtered, 1.0 + 0.0j
    backed = apply_ibo_ref(filtered, chain.cfg.rf.ibo_db, chain.params)
    amplified = rapp_amplify_ref(backed, chain.params)
    alpha = bussgang_alpha(filtered, amplified)
    return backed, amplified, alpha


def ber_frame_ref(chain, frame_index: int, point_index: int, sigma_w2: float):
    """Simulate one frame at one SNR point; returns (bit errors, bits)."""
    cfg = chain.cfg
    s = cfg.system
    rng = frame_rng_ref(cfg.run.seed, frame_index, point_index)
    grid = OfdmGrid.random(rng, s.n_tx, s.n_subcarriers, s.mod_order)
    chan = draw_channel(rng, s.n_subcarriers, s.n_tx, s.n_rx, chain.profile, sigma_w2)
    filtered, phases = filtered_frame_ref(chain, grid)
    _, amplified, alpha = amplified_ref(chain, filtered)
    x_freq = dft_unpad_ref(amplified, cfg.system.n_subcarriers).T   # [K, n_tx]
    y = apply_channel(x_freq, chan, rng)
    y = y / alpha
    detected = chain.detect(chan, y, cfg.system.mod_order)
    if phases is not None:
        detected = detected * np.conj(phases)[None, :]
    sent_bits = symbols_to_bits(grid.symbols, cfg.system.mod_order)
    got_bits = symbols_to_bits(detected, cfg.system.mod_order)
    return int(np.sum(sent_bits != got_bits)), sent_bits.size


def ccdf_frame_ref(chain, frame_index: int) -> float:
    """Worst-antenna PAPR (dB) of the band-limited frame."""
    return 10.0 * np.log10(papr_mimo_ref(drawn_filtered_ref(chain, frame_index)))


def psd_frame_ref(chain, frame_index: int):
    """PSD bins of the amplified frame and of its linear reference."""
    backed, amplified, _ = amplified_ref(chain, drawn_filtered_ref(chain, frame_index))
    return estimate_psd_ref(amplified), estimate_psd_ref(backed)


def spectral_frame_ref(chain, frame_index: int):
    """PSD bins of the amplified frame plus its backed-off per-antenna mean powers."""
    backed, amplified, _ = amplified_ref(chain, drawn_filtered_ref(chain, frame_index))
    return estimate_psd_ref(amplified), np.mean(np.abs(backed) ** 2, axis=1)


# The oracle chain methods, as block methods that loop over their frames.

def ccdf_block_ref(chain, frames):
    return np.array([ccdf_frame_ref(chain, i) for i in frames])


def psd_block_ref(chain, frames):
    results = [psd_frame_ref(chain, i) for i in frames]
    return np.array([r[0] for r in results]), np.array([r[1] for r in results])


def spectral_block_ref(chain, frames):
    results = [spectral_frame_ref(chain, i) for i in frames]
    return np.array([r[0] for r in results]), np.array([r[1] for r in results])


def ber_block_ref(chain, frames, point_index, sigma_w2):
    results = [ber_frame_ref(chain, i, point_index, sigma_w2) for i in frames]
    return sum(r[0] for r in results), sum(r[1] for r in results)


ORACLES = {"ccdf_block": ccdf_block_ref, "psd_block": psd_block_ref,
           "spectral_block": spectral_block_ref, "ber_block": ber_block_ref}

# -- stacked stages against their per-frame oracles ---------------------------------


def golden_block(n_frames=37, n_tx=2, k=72, oversample=4, seed=3):
    """Raw frames of the golden-settings geometry, stacked [F, A, N]."""
    grids = [OfdmGrid.random(frame_rng_ref(seed, i), n_tx, k, 4).symbols for i in range(n_frames)]
    return idft_oversampled_ref(np.stack(grids), oversample)


def frames_of(block: np.ndarray):
    return list(block)


def assert_rows_equal(stacked: np.ndarray, per_frame: list):
    expected = np.stack(per_frame)
    assert stacked.shape == expected.shape
    assert np.array_equal(stacked, expected)


# the golden geometry, then odd N, one subcarrier and no oversampling
@pytest.mark.parametrize("n_tx,k,oversample",
                         [(2, 72, 4), (4, 16, 2), (1, 9, 3), (2, 1, 4), (3, 5, 1), (2, 1, 1)])
class TestStackedStages:
    def test_synthesis(self, n_tx, k, oversample):
        grids = np.stack([OfdmGrid.random(frame_rng_ref(5, i), n_tx, k, 4).symbols
                          for i in range(37)])
        assert_rows_equal(idft_oversampled(grids, oversample),
                          [idft_oversampled_ref(g, oversample) for g in grids])

    @pytest.mark.parametrize("candidates", [1, 5, 64])
    def test_slm_encode(self, n_tx, k, oversample, candidates):
        book = SlmCodebook.random(6, candidates, k)
        calls = [(OfdmGrid.random(frame_rng_ref(8, i), n_tx, k, 4), book, oversample)
                 for i in range(12)]
        assert_slm_matches([slm_encode(*call) for call in calls], calls)

    def test_bandpass_filter(self, n_tx, k, oversample):
        block = golden_block(n_tx=n_tx, k=k, oversample=oversample)
        assert_rows_equal(bandpass_filter(block, oversample),
                          [bandpass_filter_ref(f, oversample) for f in frames_of(block)])

    @pytest.mark.parametrize("ratio_db", [0.0, 4.08])
    def test_clip(self, n_tx, k, oversample, ratio_db):
        block = golden_block(n_tx=n_tx, k=k, oversample=oversample)
        assert_rows_equal(clip_only(block, ratio_db),
                          [clip_only_ref(f, ratio_db) for f in frames_of(block)])
        assert_rows_equal(clip_and_filter(block, ratio_db, oversample),
                          [clip_and_filter_ref(f, ratio_db, oversample) for f in frames_of(block)])

    @pytest.mark.parametrize("ibo_db", [-3.0, 9.0])
    def test_ibo_and_rapp(self, n_tx, k, oversample, ibo_db):
        block = bandpass_filter(golden_block(n_tx=n_tx, k=k, oversample=oversample), oversample)
        params = RappParams.from_power_budget(1.0, n_tx)
        backed = apply_ibo(block, ibo_db, params)
        assert_rows_equal(backed,
                          [apply_ibo_ref(f, ibo_db, params) for f in frames_of(block)])
        assert_rows_equal(rapp_amplify(backed, params),
                          [rapp_amplify_ref(f, params) for f in frames_of(backed)])

    def test_papr_psd_unpad(self, n_tx, k, oversample):
        block = golden_block(n_tx=n_tx, k=k, oversample=oversample)
        frames = frames_of(block)
        assert_rows_equal(papr_mimo(block), [papr_mimo_ref(f) for f in frames])
        assert_rows_equal(estimate_psd(block), [estimate_psd_ref(f) for f in frames])
        assert_rows_equal(dft_unpad(block, k), [dft_unpad_ref(f, k) for f in frames])

    def test_one_frame_keeps_its_types(self, n_tx, k, oversample):
        frame = frames_of(golden_block(n_frames=1, n_tx=n_tx, k=k, oversample=oversample))[0]
        assert isinstance(papr_mimo(frame), float)
        assert papr_mimo(frame) == papr_mimo_ref(frame)
        assert estimate_psd(frame).shape == (frame.shape[-1],)


@pytest.mark.parametrize("v,p", [(1.0, 1.0), (1.7, 3.3)])
def test_rapp_smoothness_and_gain(v, p):
    block = bandpass_filter(golden_block(), 4)
    params = RappParams(a0=0.8, v=v, p=p)
    assert_rows_equal(rapp_amplify(block, params),
                      [rapp_amplify_ref(f, params) for f in frames_of(block)])


def test_stages_do_not_mutate_their_input():
    """Each stage gets read-only input, so a write into it raises."""
    block = golden_block(n_frames=5)
    grid = OfdmGrid.random(frame_rng_ref(2, 0), 2, 72, 4)
    book = SlmCodebook.random(2, 16, 72)
    params = RappParams.from_power_budget(1.0, 2)
    for array in (block, grid.symbols, book.phases):
        array.setflags(write=False)
    stages = [(idft_oversampled, (grid.symbols, 4)), (dft_unpad, (block, 72)),
              (estimate_psd, (block,)), (papr_mimo, (block,)), (bandpass_filter, (block, 4)),
              (apply_ibo, (block, 3.0, params)), (rapp_amplify, (block, params)),
              (clip_only, (block, 2.0)), (clip_and_filter, (block, 2.0, 4)),
              (slm_encode, (grid, book, 4))]
    for stage, args in stages:
        stage(*args)


def slm_calls() -> list:
    """(grid, book, L) SLM calls whose shapes change from call to call."""
    shapes = [(2, 72, 4, 64), (4, 16, 2, 8), (1, 9, 3, 5), (2, 72, 2, 64)]   # A, K, L, C
    return [(OfdmGrid.random(frame_rng_ref(9, i), a, k, 4), SlmCodebook.random(2, c, k), L)
            for i in range(6) for a, k, L, c in shapes]


def assert_slm_matches(results, calls):
    for (frame, index), call in zip(results, calls):
        frame_ref, index_ref = slm_encode_ref(*call)
        assert index == index_ref
        assert np.array_equal(frame, frame_ref)


def test_slm_work_arrays_follow_the_shape():
    calls = slm_calls()
    assert_slm_matches([slm_encode(*call) for call in calls], calls)


def test_slm_threads_keep_their_own_work_arrays():
    calls = slm_calls()
    barrier = threading.Barrier(2)
    results = {}

    def run(name, order):
        barrier.wait()
        results[name] = [slm_encode(*calls[i]) for i in order]

    orders = {"forward": list(range(len(calls))) * 3,
              "backward": list(reversed(range(len(calls)))) * 3}
    threads = [threading.Thread(target=run, args=item) for item in orders.items()]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for name, order in orders.items():
        assert_slm_matches(results[name], [calls[i] for i in order])


def test_slm_frame_does_not_alias_the_work_arrays():
    grid, book, L = slm_calls()[0]
    frame, _ = slm_encode(grid, book, L)
    kept = frame.copy()
    work = baselines._SLM_WORK.arrays
    try:
        for array in work:
            assert not np.shares_memory(frame, array)
            array.fill(np.nan)
        assert np.array_equal(frame, kept)
    finally:
        baselines._SLM_WORK.key = None          # the next call rebuilds clean arrays
    assert_slm_matches([slm_encode(grid, book, L)], [(grid, book, L)])


STREAM_DRAWS = st.lists(
    st.tuples(st.sampled_from(["integers", "integers32", "standard_normal", "random"]),
              st.integers(1, 9)),
    min_size=1, max_size=4)


@settings(max_examples=80, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 128 - 1), point_index=st.integers(0, 40),
       start=st.integers(0, 2 ** 40), length=st.integers(0, 5), draws=STREAM_DRAWS)
def test_frame_streams_match_per_frame_generators(seed, point_index, start, length, draws):
    """Odd-sized 32-bit draws leave half a word buffered: re-keying must drop it."""
    def drawn(rng):
        out = []
        for kind, size in draws:
            if kind == "integers":
                out.append(rng.integers(0, 4, size=size))
            elif kind == "integers32":
                out.append(rng.integers(0, 16, size=size, dtype=np.int32))
            elif kind == "standard_normal":
                out.append(rng.standard_normal(size))
            else:
                out.append(rng.random(size))
        return out

    frames = range(start, start + length)
    streamed = [drawn(rng) for rng in frame_streams(seed, frames, point_index)]
    assert len(streamed) == length
    for frame_index, got in zip(frames, streamed):
        for want in (drawn(frame_rng_ref(seed, frame_index, point_index)),
                     drawn(frame_rng(seed, frame_index, point_index))):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("shape", [(2, 72), (3, 5), (1, 1)], ids=["2x72", "3x5", "1x1"])
@pytest.mark.parametrize("order", [4, 16, 64, 256])
@settings(max_examples=12, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 128 - 1), point_index=st.integers(0, 40),
       start=st.integers(0, 2 ** 40), length=st.integers(1, 4), rekeyed=st.booleans())
def test_block_symbols_match_per_frame_grids(order, shape, seed, point_index, start, length,
                                             rekeyed):
    """A block's raw-word symbols are each frame's ``OfdmGrid.random`` draw, and the
    stream goes on as after it, an odd A*K's buffered half-word included. Orders 64
    and 256 have no alphabet here: their indices are compared with ``integers``."""
    n_antennas, n_subcarriers = shape
    alphabet = qam_alphabet(order) if order in SUPPORTED_ORDERS else np.arange(order)
    frames = range(start, start + length)
    streams = (frame_streams(seed, frames, point_index) if rekeyed
               else [frame_rng(seed, i, point_index) for i in frames])
    symbols, after = harness._draw_symbols(
        streams, length, n_antennas, n_subcarriers, alphabet,
        lambda rng: (rng.integers(0, 7, 5), rng.standard_normal(3)))
    assert symbols.shape == (length, n_antennas, n_subcarriers) and len(after) == length
    for f, frame_index in enumerate(frames):
        rng = frame_rng_ref(seed, frame_index, point_index)
        if order in SUPPORTED_ORDERS:
            want = OfdmGrid.random(rng, n_antennas, n_subcarriers, order).symbols
        else:
            want = rng.integers(0, order, size=shape)
        assert np.array_equal(symbols[f], want)
        assert np.array_equal(after[f][0], rng.integers(0, 7, 5))
        assert np.array_equal(after[f][1], rng.standard_normal(3))


def test_zero_frame_in_a_block_is_refused():
    zeroed = golden_block(n_frames=4)
    zeroed[2] = 0.0
    params = RappParams.from_power_budget(1.0, 2)
    with pytest.raises(ValueError, match="all-zero"):
        apply_ibo(zeroed, 3.0, params)
    with pytest.raises(ValueError, match="all-zero"):
        clip_only(zeroed, 4.08)
    with pytest.raises(ValueError, match="all-zero"):
        papr_mimo(zeroed)


def test_slm_winners_match_per_frame_encoding():
    chain = harness._FrameChain(golden("slm", frames=9))
    grids = [OfdmGrid.random(frame_rng_ref(4, i), 2, 72, 4) for i in range(9)]
    filtered, phases = chain.filtered_block(np.stack([g.symbols for g in grids]))
    for f, grid in enumerate(grids):
        frame, index = slm_encode_ref(grid, chain.book, 4)
        assert np.array_equal(filtered[f], bandpass_filter_ref(frame, 4))
        assert np.array_equal(phases[f], chain.book.phases[index])


# -- whole runs against the per-frame chain -----------------------------------------


def golden(method, amplifier="rapp", frames=35, detector="mle"):
    """2x2 QPSK, K=72 (the golden CCDF settings), IBO 6 dB, two SNR points."""
    cfg = parse_config("[system]\nn_tx = 2\nn_rx = 2\n[channel]\nprofile = multipath\n"
                       f"taps = 4\n[rf]\namplifier = {amplifier}\nibo_db = 6.0\n"
                       f"[detector]\nname = {detector}\n[method]\nslm_candidates = 16\n")
    return replace(cfg, method=replace(cfg.method, name=method),
                   run=replace(cfg.run, frames=frames, seed=7, p_snr_db=(6.0, 30.0))).validated()


def oracle_text(run, cfg, method_name):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness._FrameChain, method_name, ORACLES[method_name])
        return run(cfg)


def blocked_texts(run, cfg):
    """The run's output at block sizes 1, 3, 32 and 128 and at 1 and 2 workers."""
    assert cfg.run.frames % 3 and cfg.run.frames % 32 and cfg.run.frames < 128
    texts = []
    for block in (1, 3, 32, 128):
        for workers in (1, 2):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(harness, "BLOCK_FRAMES", block)
                texts.append(run(replace(cfg, run=replace(cfg.run, workers=workers))))
    return texts


def ccdf_text(cfg):
    return run_ccdf(cfg)[0]


def ber_text(cfg):
    return run_ber(cfg)[0]


@pytest.mark.parametrize("method", ["none", "cf", "slm"])
def test_ccdf_matches_per_frame_oracle(method):
    cfg = golden(method, frames=101)
    reference = oracle_text(ccdf_text, cfg, "ccdf_block")
    assert all(text == reference for text in blocked_texts(ccdf_text, cfg))


@pytest.mark.parametrize("amplifier", ["rapp", "linear"])
@pytest.mark.parametrize("method", ["none", "cf", "slm"])
def test_psd_matches_per_frame_oracle(method, amplifier):
    cfg = golden(method, amplifier)
    reference = oracle_text(run_psd, cfg, "psd_block")
    assert all(text == reference for text in blocked_texts(run_psd, cfg))


@pytest.mark.parametrize("amplifier", ["rapp", "linear"])
def test_acpr_obo_matches_per_frame_oracle(amplifier):
    cfgs = [golden(method, amplifier) for method in ("none", "cf", "slm")]

    def table(cfg):
        return run_acpr_obo([replace(c, run=cfg.run) for c in cfgs])

    reference = oracle_text(table, cfgs[0], "spectral_block")
    assert all(text == reference for text in blocked_texts(table, cfgs[0]))


@pytest.mark.parametrize("amplifier", ["rapp", "linear"])
@pytest.mark.parametrize("method,detector", [("none", "mle"), ("cf", "zf"), ("slm", "mle")])
def test_ber_matches_per_frame_oracle(method, detector, amplifier):
    cfg = golden(method, amplifier, detector=detector)
    reference = oracle_text(ber_text, cfg, "ber_block")
    assert all(text == reference for text in blocked_texts(ber_text, cfg))


def detector_inputs(cfg, oracle: bool) -> list:
    """Every (channel, received grid) the detector sees, in frame order."""
    seen = []
    inner = baselines.mle_detect

    def recording(chan, y, order):
        seen.append((chan.h, y))
        return inner(chan, y, order)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(baselines, "mle_detect", recording)
        if oracle:
            patch.setattr(harness._FrameChain, "ber_block", ber_block_ref)
        run_ber(cfg)
    return seen


@pytest.mark.parametrize("method", ["cf", "slm"])
def test_ber_detector_inputs_match_per_frame_oracle(method):
    """Bit errors could hide a rounding change; the received grids cannot.

    35 frames make one full block and one short one: some products round
    differently when stacked only at the full block's size.
    """
    cfg = golden(method, frames=35)
    new, ref = detector_inputs(cfg, oracle=False), detector_inputs(cfg, oracle=True)
    assert len(new) == len(ref) == 70
    for (h, y), (h_ref, y_ref) in zip(new, ref):
        assert np.array_equal(h, h_ref) and np.array_equal(y, y_ref)


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
        "[rf]\nibo_db = 9.0\n[run]\nframes = 101\nseed = 5\n"
        f"[method]\nname = cae\ncheckpoint = {checkpoint}\n[detector]\nname = cae\n")


def test_cae_transmit_only_runs_match_per_frame_oracle(cae_config):
    """The CAE encodes one frame per pass, so its PAPRs and spectra keep their bits."""
    reference = oracle_text(ccdf_text, cae_config, "ccdf_block")
    assert all(text == reference for text in blocked_texts(ccdf_text, cae_config))
    cfg = replace(cae_config, run=replace(cae_config.run, frames=35))
    reference = oracle_text(run_psd, cfg, "psd_block")
    assert all(text == reference for text in blocked_texts(run_psd, cfg))
