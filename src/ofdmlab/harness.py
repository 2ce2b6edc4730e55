"""Seeded Monte Carlo experiments emitting deterministic CSV.

Every frame gets its own counter-based stream derived from the master
seed. Every path runs in blocks of ``BLOCK_FRAMES`` consecutive frames: the
draws stay per frame, the arithmetic runs on the block's stacked arrays and
gives the same values as one frame at a time, so results are identical for
any block size, worker count and rerun. A block that uses up each frame's
stream before the next frame's starts re-keys one generator from frame to
frame. A block's symbol grids come from one raw-word draw per frame and one
gather for the block, bit for bit the grids of ``OfdmGrid.random``. Workers
are threads that take whole blocks; numpy releases the GIL in the heavy
kernels.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import baselines
from .autodiff import no_grad
from .autodiff.gradcheck import CheckResult, run_all
from .cae import losses as cae_losses
from .cae import pipeline as cae_pipeline
from .cae.training import load_system
from .channel import MultipathTaps, apply_channel, draw_channel, noise_variance_for_psnr
from .config import ExperimentConfig, changed_fields
from .csvio import check_finite, write_csv
from .dsp import dft_unpad, estimate_psd, idft_oversampled, papr_mimo
from .errors import ConfigError, NumericError
from .modulation import OfdmGrid, bit_errors, qam_alphabet
from .rf import acpr, apply_ibo, bandpass_filter, bussgang_alpha, obo, rapp_amplify

BER_HEADER = ["p_snr_db", "ber", "bit_count", "stderr"]
CCDF_HEADER = ["papr0_db", "ccdf"]
PSD_HEADER = ["normalized_freq", "psd_db", "linear_ref_db"]
ACPR_OBO_HEADER = ["method", "acpr_db", "obo_db"]
BLOCK_FRAMES = 32            # frames per numpy pass, about 300 KB per stage array at 2x288


@dataclass(frozen=True)
class CurveRecord:
    x: float
    y: float
    count: int
    stderr: float

    def __post_init__(self):
        if self.count <= 0:
            raise ValueError("record count must be positive")


def frame_rng(seed: int, frame_index: int, point_index: int = 0) -> np.random.Generator:
    """Counter-split generator: one independent stream per (point, frame).

    Stream identifiers live in the high counter words; the low words are
    the ones that advance as the stream is consumed.
    """
    return np.random.Generator(
        np.random.Philox(key=seed, counter=[0, 0, frame_index, point_index + 2]))


def frame_streams(seed: int, frames: range, point_index: int = 0):
    """The streams of :func:`frame_rng` for ``frames``, one after another.

    Yields one generator, re-keyed for each frame in turn through its bit
    generator's state, so a block builds one generator instead of one per
    frame. A frame's stream must be used up, or its state kept, before the
    next one is drawn.
    """
    bit_generator = np.random.Philox(key=seed)
    rng = np.random.Generator(bit_generator)
    state = bit_generator.state              # an empty buffer: a fresh stream
    for frame_index in frames:
        state["state"]["counter"] = np.array([0, 0, frame_index, point_index + 2],
                                             dtype=np.uint64)
        bit_generator.state = state
        yield rng


def _draw_symbols(streams, n_frames: int, n_antennas: int, n_subcarriers: int,
                  alphabet: np.ndarray, then=None) -> tuple[np.ndarray, list]:
    """Symbols [F, A, K] of a block, each frame's grid the first draw of its stream.

    ``streams`` yields each frame's generator at the start of its stream.
    A frame's grid is the top log2(M) bits of the 32-bit halves of its
    stream's first ceil(A*K/2) raw words, low half first, gathered through
    the M-point ``alphabet``: for a power-of-two M, numpy's bounded integers
    never reject, so these are the draws of :meth:`OfdmGrid.random`, one
    ``random_raw`` call per frame. An odd A*K leaves the last word's high
    half in the generator's buffer, as those draws do, so that ``then(rng)``,
    called on each frame's stream right after its grid, draws the same
    values as it would after them. Returns the symbols and ``then``'s results.
    """
    n_symbols = n_antennas * n_subcarriers
    words = np.empty((n_frames, (n_symbols + 1) // 2), dtype="<u8")
    after = []
    for f, rng in enumerate(streams):
        bit_generator = rng.bit_generator
        words[f] = bit_generator.random_raw(words.shape[1])
        if n_symbols % 2:
            state = bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, int(words[f, -1] >> 32)
            bit_generator.state = state
        if then is not None:
            after.append(then(rng))
    halves = words.view("<u4")[:, :n_symbols]
    top = 32 - (alphabet.size.bit_length() - 1)
    return alphabet[(halves >> top).reshape(n_frames, n_antennas, n_subcarriers)], after


class _FrameChain:
    """Per-run state shared by all frames: codebook, amplifier, detector, checkpoint.

    Its methods take a block of consecutive frame indices. Each frame draws
    from its own stream; the arithmetic runs on the block's [F, A, N] stack,
    which gives the same values as one frame at a time.
    """

    def __init__(self, cfg: ExperimentConfig):
        cfg.validated()
        self.cfg = cfg
        self.params = cfg.rf.rapp_params(cfg.system.n_tx)
        self.profile = cfg.channel.model()
        self.alphabet = qam_alphabet(cfg.system.mod_order)
        self.book = None
        self.system = None
        self.detect = None
        if cfg.detector == "mle":
            baselines.check_mle_size(cfg.system.mod_order, cfg.system.n_tx)
            self.detect = baselines.mle_detect
        elif cfg.detector == "zf":
            self.detect = baselines.zf_detect
        if cfg.method.name == "slm":
            self.book = baselines.SlmCodebook.random(
                cfg.run.seed, cfg.method.slm_candidates, cfg.system.n_subcarriers)
        if cfg.method.name == "cae":
            if not cfg.method.checkpoint:
                raise ConfigError("the cae method needs a checkpoint path")
            self.system = load_system(cfg.method.checkpoint)
            if self.system.geometry != cfg.system:
                raise ConfigError("checkpoint geometry does not match the config")
            # one transmitter: BER runs through the checkpoint's amplifier,
            # the spectral paths through the config's [rf]
            differ = changed_fields(self.system.rf, cfg.rf)
            if differ:
                raise ConfigError("checkpoint RF settings do not match the config's [rf]: "
                                  + ", ".join(differ))

    # -- transmit side -------------------------------------------------------

    def filtered_block(self, symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Method-specific band-limited [F, A, N] block of symbols [F, A, K], plus
        SLM phases [F, K] if any.

        SLM picks each frame's candidate on its own (a stacked candidate
        search falls out of cache), and the CAE encodes one frame per pass
        (its matrix products round differently at other batch sizes). A
        non-finite CAE frame is a NumericError, and numpy does not warn on
        the way.
        """
        cfg = self.cfg
        oversample = cfg.system.oversample
        if cfg.method.name == "cae":
            with no_grad(), np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                block = np.stack([
                    self.system.transmit(frame[None], train=False)["filtered"].values()[0]
                    for frame in symbols])
            if not np.isfinite(block).all():
                raise NumericError("the CAE transmitted a non-finite frame; no CSV written")
            return block, None
        if cfg.method.name == "slm":
            order = cfg.system.mod_order
            encoded = [baselines.slm_encode(OfdmGrid._unchecked(frame, order), self.book,
                                            oversample) for frame in symbols]
            raw = np.stack([samples for samples, _ in encoded])
            return (bandpass_filter(raw, oversample),
                    self.book.phases[[index for _, index in encoded]])
        raw = idft_oversampled(symbols, oversample)
        if cfg.method.name == "cf":
            return baselines.clip_and_filter(raw, cfg.method.clip_ratio_db, oversample), None
        return bandpass_filter(raw, oversample), None

    def drawn_block(self, frames: range) -> np.ndarray:
        """The band-limited [F, A, N] block of a transmit-only run's ``frames``."""
        s = self.cfg.system
        symbols, _ = _draw_symbols(frame_streams(self.cfg.run.seed, frames), len(frames),
                                   s.n_tx, s.n_subcarriers, self.alphabet)
        return self.filtered_block(symbols)[0]

    def amplified(self, filtered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """IBO + amplifier; returns (backed_off, amplified).

        A linear front end bypasses both back-off and saturation: the frames
        are transmitted as filtered, at full power.
        """
        if self.cfg.rf.amplifier == "linear":
            return filtered, filtered
        backed = apply_ibo(filtered, self.cfg.rf.ibo_db, self.params)
        return backed, rapp_amplify(backed, self.params)

    def _gain(self, filtered: np.ndarray, amplified: np.ndarray, f: int) -> complex:
        """Bussgang gain of frame ``f`` of a block; unity for a linear front end.

        Computed per frame: the stacked product rounds differently.
        """
        if self.cfg.rf.amplifier == "linear":
            return 1.0 + 0.0j
        return bussgang_alpha(filtered[f], amplified[f])

    # -- one full link -------------------------------------------------------

    def ber_block(self, frames: range, point_index: int, sigma_w2: float) -> tuple[int, int]:
        """Simulate a block of frames at one SNR point; returns (bit errors, bits).

        Each frame draws its grid and channel from its own stream, the block
        is transmitted in one pass, and then each frame draws its noise and
        is detected on its own. It goes back to each frame's stream after
        the transmit through the state it kept after that frame's channel.
        """
        cfg = self.cfg
        k, order = cfg.system.n_subcarriers, cfg.system.mod_order

        def after_grid(rng):
            return rng, self._channel(rng, sigma_w2), rng.bit_generator.state

        symbols, draws = _draw_symbols(frame_streams(cfg.run.seed, frames, point_index),
                                       len(frames), cfg.system.n_tx, k, self.alphabet,
                                       after_grid)
        filtered, phases = self.filtered_block(symbols)
        _, amplified = self.amplified(filtered)
        x_freq = dft_unpad(amplified, k)                             # [F, n_tx, K]
        detected = []
        for f, (rng, chan, state) in enumerate(draws):
            rng.bit_generator.state = state
            y = apply_channel(x_freq[f].T, chan, rng)
            y = y / self._gain(filtered, amplified, f)
            got = self.detect(chan, y, order)
            if phases is not None:
                got = got * np.conj(phases[f])[None, :]
            detected.append(got)
        return bit_errors(symbols, np.stack(detected), order)

    def cae_ber_block(self, frames: range, point_index: int,
                      sigma_w2: float) -> tuple[int, int]:
        """Simulate a block of frames through the CAE; returns (bit errors, bits).

        Each frame draws its grid, channel, noise and decoder start from its
        own stream, in that order; the block then goes through one
        :meth:`CaeSystem.detect` pass.
        """
        cfg = self.cfg
        k, n_rx = cfg.system.n_subcarriers, cfg.system.n_rx

        def after_grid(rng):
            chan = self._channel(rng, sigma_w2)
            noise = (rng.standard_normal((k, n_rx)) + 1j * rng.standard_normal((k, n_rx))) \
                * np.sqrt(chan.sigma_w2 / 2.0)
            return chan.h, noise, self.system.decoder.initial_estimate(rng, 1)[0]

        symbols, draws = _draw_symbols(frame_streams(cfg.run.seed, frames, point_index),
                                       len(frames), cfg.system.n_tx, k, self.alphabet,
                                       after_grid)
        hs, noises, starts = (np.stack(column) for column in zip(*draws))
        hard = self.system.detect(symbols, hs, noises, starts)
        return bit_errors(symbols, hard, cfg.system.mod_order)

    def _channel(self, rng: np.random.Generator, sigma_w2: float):
        """A frame's channel, the draws of its stream right after its grid."""
        s = self.cfg.system
        return draw_channel(rng, s.n_subcarriers, s.n_tx, s.n_rx, self.profile, sigma_w2)

    def ccdf_block(self, frames: range) -> np.ndarray:
        """Worst-antenna PAPR (dB) of each band-limited frame, [F]."""
        return 10.0 * np.log10(papr_mimo(self.drawn_block(frames)))

    def psd_block(self, frames: range) -> tuple[np.ndarray, np.ndarray]:
        """PSD bins [F, N] of each amplified frame and of its linear reference."""
        backed, amplified = self.amplified(self.drawn_block(frames))
        return estimate_psd(amplified), estimate_psd(backed)

    def spectral_block(self, frames: range) -> tuple[np.ndarray, np.ndarray]:
        """PSD bins [F, N] of each amplified frame plus its backed-off antenna powers [F, A]."""
        backed, amplified = self.amplified(self.drawn_block(frames))
        return estimate_psd(amplified), np.mean(np.abs(backed) ** 2, axis=-1)


def _write_finite(path, header: list[str], rows: list[tuple]) -> str:
    """``write_csv``, refused with a NumericError if a value in ``rows`` is not finite."""
    check_finite(header, rows)
    return write_csv(path, header, rows)


def _map_blocks(task, n_frames: int, workers: int) -> list:
    """Order-preserving map of ``task`` over consecutive blocks of frame indices.

    Blocks hold ``BLOCK_FRAMES`` frames (the last one the rest) and go to a
    thread pool when ``workers`` > 1.
    """
    size = BLOCK_FRAMES
    blocks = [range(start, min(start + size, n_frames)) for start in range(0, n_frames, size)]
    if workers <= 1:
        return [task(block) for block in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, blocks))


# -- subcommands --------------------------------------------------------------


def run_ber(cfg: ExperimentConfig) -> tuple[str, list[CurveRecord]]:
    """BER over the peak-SNR grid; returns (csv text, records).

    Frames run ``BLOCK_FRAMES`` at a time: the CAE through one transmit and
    one receive pass, the classical methods through one transmit pass
    followed by per-frame channels and detectors. Either way each frame
    draws from its own stream, so the CSV does not depend on the block size
    or the worker count.
    """
    if not cfg.run.p_snr_db:
        raise ConfigError("p_snr_db grid is empty")
    chain = _FrameChain(cfg)
    records = []
    block_ber = chain.cae_ber_block if cfg.method.name == "cae" else chain.ber_block
    for point_index, p_snr_db in enumerate(cfg.run.p_snr_db):
        sigma_w2 = noise_variance_for_psnr(p_snr_db, cfg.rf.total_power)
        results = _map_blocks(
            lambda block, p=point_index, s=sigma_w2: block_ber(block, p, s),
            cfg.run.frames, cfg.run.workers)
        errors = sum(r[0] for r in results)
        bits = sum(r[1] for r in results)
        ber = errors / bits
        stderr = float(np.sqrt(max(ber * (1.0 - ber), 0.0) / bits))
        records.append(CurveRecord(p_snr_db, ber, bits, stderr))
    rows = [(r.x, r.y, r.count, r.stderr) for r in records]
    return _write_finite(cfg.run.out, BER_HEADER, rows), records


def run_ccdf(cfg: ExperimentConfig, thresholds_db=None) -> tuple[str, list[CurveRecord]]:
    """Empirical P(worst-antenna PAPR > threshold) per threshold."""
    thresholds = tuple(thresholds_db) if thresholds_db is not None else cfg.run.ccdf_thresholds_db
    if not thresholds:
        raise ConfigError("threshold list is empty")
    if cfg.run.frames < 100:
        raise ConfigError("ccdf needs at least 100 frames")
    chain = _FrameChain(cfg)
    paprs = np.concatenate(_map_blocks(chain.ccdf_block, cfg.run.frames, cfg.run.workers))
    records = []
    for t in thresholds:
        exceed = float(np.mean(paprs > t))
        stderr = float(np.sqrt(max(exceed * (1.0 - exceed), 0.0) / paprs.size))
        records.append(CurveRecord(t, exceed, paprs.size, stderr))
    rows = [(r.x, r.y) for r in records]
    return _write_finite(cfg.run.out, CCDF_HEADER, rows), records


def run_psd(cfg: ExperimentConfig) -> str:
    """Frame-averaged PSD of the amplified signal, peak-normalized, in dB.

    A linear-amplifier reference trace (same frames, amplifier bypassed) is
    emitted alongside.
    """
    chain = _FrameChain(cfg)
    results = _map_blocks(chain.psd_block, cfg.run.frames, cfg.run.workers)
    psd = np.mean(np.concatenate([r[0] for r in results]), axis=0)
    ref = np.mean(np.concatenate([r[1] for r in results]), axis=0)
    n = psd.size
    freqs = (np.arange(n) - n // 2) / n
    floor = 1e-300
    psd_db = 10.0 * np.log10(np.maximum(psd / psd.max(), floor))
    ref_db = 10.0 * np.log10(np.maximum(ref / ref.max(), floor))
    rows = [(float(freqs[i]), float(psd_db[i]), float(ref_db[i])) for i in range(n)]
    return _write_finite(cfg.run.out, PSD_HEADER, rows)


def run_acpr_obo(cfg_list: list[ExperimentConfig], out=None) -> str:
    """One (method, ACPR, OBO) row per configuration."""
    if not cfg_list:
        raise ConfigError("empty configuration list")
    if any(cfg.system.oversample < 2 for cfg in cfg_list):
        raise ConfigError("acpr-obo needs oversample >= 2: the adjacent bands lie in "
                          "the guard band")
    rows = []
    for cfg in cfg_list:
        chain = _FrameChain(cfg)
        results = _map_blocks(chain.spectral_block, cfg.run.frames, cfg.run.workers)
        psd_bins = np.mean(np.concatenate([r[0] for r in results]), axis=0)
        antenna_power = np.concatenate([r[1] for r in results])
        rows.append((cfg.method.name, acpr(psd_bins, cfg.system.oversample),
                     obo(antenna_power, cfg.rf.total_power)))
    return _write_finite(out, ACPR_OBO_HEADER, rows)


def run_gradcheck(seed: int = 0) -> tuple[list[CheckResult], bool]:
    """Layer checks plus the end-to-end pipeline check; True when all pass."""
    results = run_all(seed=seed)
    results.append(end_to_end_gradcheck(seed))
    return results, all(r.passed for r in results)


def end_to_end_gradcheck(seed: int = 0, tolerance: float = 1e-4) -> CheckResult:
    """Finite-difference check through encoder, RF chain, channel, decoder.

    The Bussgang gain is pinned at its unperturbed estimate, matching its
    detached-constant role in backpropagation. For each probed parameter the
    entry with the largest gradient is differenced (well-conditioned probes).
    """
    rng = np.random.default_rng(seed)
    n_batch, n_tx, n_rx, k, oversample, order = 2, 2, 2, 8, 4, 4
    system = cae_pipeline.build_system(n_tx, n_rx, k, oversample, order,
                                       ibo_db=6.0, seed=seed + 17)
    alphabet = qam_alphabet(order)
    grids = alphabet[rng.integers(0, alphabet.size, size=(n_batch, n_tx, k))]
    h = np.stack([draw_channel(rng, k, n_tx, n_rx, MultipathTaps(4)).h
                  for _ in range(n_batch)])
    noise = (rng.standard_normal((n_batch, k, n_rx))
             + 1j * rng.standard_normal((n_batch, k, n_rx))) * np.sqrt(1e-3 / 2.0)
    state = cae_losses.LagrangianState()
    alpha0 = system.run_batch(grids, h, noise, np.random.default_rng(99), train=True).alpha

    def forward():
        r = system.run_batch(grids, h, noise, np.random.default_rng(99),
                             train=True, alpha_override=alpha0)
        return cae_losses.total_loss(r.l1, r.l2a, r.l2b, r.l3, state)

    params = system.parameters()
    loss = forward()
    for p in params.values():
        p.grad = None
    loss.backward()

    probe_names = ["enc/conv1/w", "enc/conv3/w", "enc/fc/w", "enc/bn2/gamma",
                   "dec/it00/conv_a/w", "dec/it03/delta1", "dec/it09/fc/w"]
    step = 1e-6
    worst = 0.0
    for name in probe_names:
        p = params[name]
        grad = p.grad if p.grad is not None else np.zeros_like(p.values)
        flat_index = int(np.argmax(np.abs(grad)))
        analytic = grad.reshape(-1)[flat_index]
        flat = p.values.reshape(-1)
        original = flat[flat_index]
        flat[flat_index] = original + step
        up = forward().item()
        flat[flat_index] = original - step
        down = forward().item()
        flat[flat_index] = original
        numeric = (up - down) / (2.0 * step)
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, rel)
    return CheckResult("end_to_end", worst, tolerance)
