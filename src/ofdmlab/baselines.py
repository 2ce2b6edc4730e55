"""Classical references: clipping-and-filtering, selected mapping, MLE, ZF.

Selected mapping uses one shared phase sequence per candidate across all
antennas and picks the candidate whose worst-antenna PAPR is lowest; the
chosen index is assumed known at the receiver. MLE is exact: small
searches score every candidate symbol vector, large ones score only the
candidates a sphere search keeps (Fincke & Pohst; Agrell et al., "Closest
point search in lattices", 2002) and give the same detections. Both
detectors work on all subcarriers of a frame at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import ChannelRealization
from .dsp import Stage, TimeFrame, synthesize
from .errors import ConfigError, NumericError
from .modulation import OfdmGrid, nearest_level_index, pam_levels, qam_alphabet
from .rf import bandpass_filter

MLE_CANDIDATE_GUARD = 2 ** 20
# Candidate rows per step of the exhaustive search: about 8 MB of work buffers
# at 4x4 16-QAM, K=72. Larger chunks were no faster, and slower on a busy host.
MLE_CHUNK = 1024
# Searches with more candidates than this are sphere-filtered (mle_detect).
# Measured at K=72, 0 and 20 dB p-SNR on a 2-vCPU host: 256 candidates took
# 0.5-0.8 ms per frame exhaustively and 0.9-1.8 ms sphere-filtered, 1024
# candidates 4.1 ms and 1.9-3.0 ms.
MLE_SPHERE_MIN = 256
# Paths kept per subcarrier by the K-best beam that sets the sphere radius.
MLE_BEAM = 16
# Sphere-radius slack relative to the metric plus the signal scale, far
# above the rounding of either metric (about 1e-15 relative).
MLE_SLACK = 1e-9
# Frontier nodes a frame's sphere search may hold (about 10 MB of work
# arrays at 16-QAM); the subcarriers with the widest frontiers beyond it
# are searched exhaustively, so memory stays bounded at any SNR.
MLE_SPHERE_NODES = 2 ** 14
SLM_PHASES = np.array([1.0, -1.0, 1.0j, -1.0j])


@dataclass(frozen=True)
class ClipConfig:
    """Amplitude limit relative to the RMS level, in dB."""

    clip_ratio_db: float = 4.08

    def __post_init__(self):
        if not np.isfinite(self.clip_ratio_db):
            raise ValueError("clip ratio must be finite")


@dataclass(frozen=True)
class SlmCodebook:
    """Candidate phase sequences; entry 0 is always the identity sequence."""

    phases: np.ndarray      # [n_candidates, n_subcarriers], unit modulus
    seed: int

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=np.complex128)
        if phases.ndim != 2 or phases.size == 0:
            raise ValueError("phases must be [n_candidates, n_subcarriers]")
        if not np.allclose(np.abs(phases), 1.0, atol=0.0):
            raise ValueError("phase entries must have unit modulus")
        if not np.all(phases[0] == 1.0):
            raise ValueError("candidate 0 must be the identity sequence")
        object.__setattr__(self, "phases", phases)

    @property
    def n_candidates(self) -> int:
        return self.phases.shape[0]

    @classmethod
    def random(cls, seed: int, n_candidates: int, n_subcarriers: int) -> "SlmCodebook":
        if n_candidates < 1:
            raise ValueError("need at least one candidate")
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
        idx = rng.integers(0, 4, size=(n_candidates, n_subcarriers))
        phases = SLM_PHASES[idx]
        phases[0] = 1.0
        return cls(phases, seed)


def clip_only(frame: TimeFrame, cfg: ClipConfig) -> TimeFrame:
    """Hard-limit the envelope at rms * 10^(ratio/20), per frame; phase preserved."""
    power = frame.frame_power()
    if np.any(power == 0.0):
        raise ValueError("cannot clip an all-zero frame")
    limit = np.sqrt(power) * 10.0 ** (cfg.clip_ratio_db / 20.0)
    magnitude = np.abs(frame.samples)
    scale = np.where(magnitude > limit, limit / np.maximum(magnitude, 1e-300), 1.0)
    return frame.with_samples(frame.samples * scale)


def clip_and_filter(frame: TimeFrame, cfg: ClipConfig) -> TimeFrame:
    """One clip pass, then the band-pass filter.

    The filter restores strict band limitation at the price of some peak
    regrowth.
    """
    return bandpass_filter(clip_only(frame, cfg))


def slm_encode(grid: OfdmGrid, book: SlmCodebook, oversample: int) -> tuple[TimeFrame, int]:
    """Pick the candidate phase sequence with the lowest worst-antenna PAPR.

    All antennas share the candidate's sequence. Returns the synthesized
    frame of the winner and its index (side information for the receiver).
    """
    symbols = grid.symbols
    if book.phases.shape[1] != symbols.shape[1]:
        raise ValueError("codebook length does not match the grid")
    candidates = book.phases[:, None, :] * symbols[None, :, :]
    rows = synthesize(candidates, oversample)
    power = np.abs(rows) ** 2
    per_antenna = power.max(axis=2) / power.mean(axis=2)
    worst = per_antenna.max(axis=1)
    winner = int(np.argmin(worst))
    # a copy, so that a caller holding the frame does not hold every candidate
    return TimeFrame(rows[winner].copy(), L=oversample, stage=Stage.RAW), winner


def check_mle_size(order: int, n_tx: int) -> None:
    """ConfigError when an exhaustive search would exceed MLE_CANDIDATE_GUARD candidates."""
    count = qam_alphabet(order).size ** n_tx
    if count > MLE_CANDIDATE_GUARD:
        raise ConfigError(f"{count} MLE candidates exceed the exhaustive-search "
                          f"guard of {MLE_CANDIDATE_GUARD}")


@lru_cache(maxsize=None)
def _candidate_vectors(order: int, n_tx: int) -> np.ndarray:
    """All |M|^n_tx transmit vectors in lexicographic order, [count, n_tx].

    The table is cached per (order, n_tx) and read-only.
    """
    check_mle_size(order, n_tx)
    alphabet = qam_alphabet(order)
    index_grids = np.meshgrid(*([np.arange(alphabet.size)] * n_tx), indexing="ij")
    idx = np.stack(index_grids, axis=-1).reshape(-1, n_tx)
    candidates = alphabet[idx]
    candidates.setflags(write=False)
    return candidates


def _metrics(vectors, h_t, y_col, hyp, dist, metric) -> None:
    """The exhaustive metric sum_r |y_r - (H c)_r|^2 of candidate rows, into ``metric``.

    ``vectors`` is [n, n_tx] (shared by every subcarrier) or [K, n, n_tx];
    ``hyp``, ``dist`` and ``metric`` are [K, n, n_rx], [K, n, n_rx] and
    [K, n] work buffers. A row's value does not depend on n or on the
    other rows, as long as n >= 2 (one row goes through a different BLAS
    kernel).
    """
    np.matmul(vectors, h_t, out=hyp)
    np.subtract(y_col, hyp, out=hyp)
    np.abs(hyp, out=dist)
    np.square(dist, out=dist)
    np.copyto(metric, dist[:, :, 0])
    for r in range(1, hyp.shape[2]):
        metric += dist[:, :, r]


def _exhaustive_search(h: np.ndarray, y_freq: np.ndarray, candidates: np.ndarray,
                       chunk: int) -> np.ndarray:
    """Index of each subcarrier's best candidate row, scoring all rows chunk by chunk.

    Ties break toward the lexicographically first candidate, also across chunks.
    """
    k, n_rx = y_freq.shape
    count = candidates.shape[0]
    chunk = min(count, chunk)
    h_t = np.swapaxes(h, 1, 2)                           # [K, n_tx, n_rx]
    y_col = y_freq[:, None, :]
    hypotheses = np.empty((k, chunk, n_rx), dtype=np.complex128)
    distance = np.empty((k, chunk, n_rx))
    metric = np.empty((k, chunk))
    best_metric = np.full(k, np.inf)
    best = np.zeros(k, dtype=np.intp)
    rows = np.arange(k)
    for start in range(0, count, chunk):
        block = candidates[start:start + chunk]
        n = block.shape[0]
        m = metric[:, :n]
        _metrics(block, h_t, y_col, hypotheses[:, :n], distance[:, :n], m)
        local = np.argmin(m, axis=1)
        value = m[rows, local]
        better = value < best_metric
        best_metric[better] = value[better]
        best[better] = local[better] + start
    return best


def _child_metrics(b: np.ndarray, partial: np.ndarray, diag: np.ndarray,
                   levels: np.ndarray) -> np.ndarray:
    """Partial metrics [rows, M] of every node's M children at one level.

    A node's child for symbol a adds |b - d a|^2, with ``b`` its residual
    at the level and ``d`` the real diagonal entry of R there; for a square
    QAM symbol a = levels[i] + 1j levels[j] that splits into a real and an
    imaginary part, and the symbol index is i * len(levels) + j.
    """
    scaled = diag[:, None] * levels
    re = b.real[:, None] - scaled
    re *= re
    im = b.imag[:, None] - scaled
    im *= im
    return ((partial[:, None] + re)[:, :, None] + im[:, None, :]).reshape(b.size, levels.size ** 2)


def _sphere_radius(r: np.ndarray, diag: np.ndarray, z: np.ndarray, order: int) -> np.ndarray:
    """Each subcarrier's best QR-domain metric over a K-best beam of ``MLE_BEAM`` paths.

    ``r`` is [K, n, n] upper triangular with the real diagonal ``diag``
    [K, n], and ``z`` = Q^H y is [K, n]; levels run from the last row up.
    The beam's best leaf is a real candidate, so its metric bounds the
    minimum from above.
    """
    alphabet, levels = qam_alphabet(order), pam_levels(order)
    k, n = z.shape
    b = z[:, None, :]                                    # [K, paths, n] residuals
    partial = np.zeros((k, 1))
    for level in reversed(range(n)):
        paths = partial.shape[1]
        child = _child_metrics(b[:, :, level].reshape(-1), partial.reshape(-1),
                               np.repeat(diag[:, level], paths), levels).reshape(k, -1)
        if not level:
            return child.min(axis=1)
        if child.shape[1] > MLE_BEAM:
            keep = np.argpartition(child, MLE_BEAM - 1, axis=1)[:, :MLE_BEAM]
        else:
            keep = np.broadcast_to(np.arange(child.shape[1]), child.shape)
        parent, symbol = np.divmod(keep, alphabet.size)
        partial = np.take_along_axis(child, keep, axis=1)
        b = (np.take_along_axis(b[:, :, :level], parent[:, :, None], axis=1)
             - r[:, None, :level, level] * alphabet[symbol][:, :, None])


def _sphere_search(h: np.ndarray, y_freq: np.ndarray, order: int):
    """Breadth-first sphere search of every subcarrier at once.

    Returns (subcarrier, symbol indices [rows, n_tx]) of every candidate
    whose QR-domain metric ||Q^H y - R x||^2 is within the radius, grouped
    by subcarrier and in lexicographic order within each, plus a mask of
    the subcarriers left to the exhaustive search: those with no survivor,
    and the widest ones once the frontier outgrows ``MLE_SPHERE_NODES``.

    The radius is the K-best beam's metric plus ``MLE_SLACK`` times that
    metric plus the subcarrier's signal scale (||y|| + ||H||_F max|a| sqrt(n_tx))^2.
    The rounding of either metric is a small multiple of 1e-16 times that
    scale, so every candidate the exhaustive metric could pick survives.
    When n_rx < n_tx, the missing rows of R are zero: those levels cost
    nothing and keep every symbol.
    """
    alphabet, levels = qam_alphabet(order), pam_levels(order)
    k, n_rx, n_tx = h.shape
    # columns reversed so that antenna 0 is enumerated first and the
    # frontier stays in lexicographic candidate order
    q, r = np.linalg.qr(h[:, :, ::-1])
    z = np.matmul(np.conj(np.swapaxes(q, 1, 2)), y_freq[:, :, None])[:, :, 0]
    if n_rx < n_tx:
        r = np.concatenate([r, np.zeros((k, n_tx - n_rx, n_tx), dtype=r.dtype)], axis=1)
        z = np.concatenate([z, np.zeros((k, n_tx - n_rx), dtype=z.dtype)], axis=1)
    # rows scaled by unit phases that make the diagonal real and >= 0;
    # the metric does not change
    diagonal = np.diagonal(r, axis1=1, axis2=2)
    diag = np.abs(diagonal)
    phase = np.ones_like(diagonal)
    nonzero = diag > 0.0
    phase[nonzero] = np.conj(diagonal[nonzero]) / diag[nonzero]
    r = r * phase[:, :, None]
    z = z * phase
    best = _sphere_radius(r, diag, z, order)
    amplitude = np.abs(alphabet).max() * np.sqrt(n_tx)
    scale = (np.linalg.norm(y_freq, axis=1) + np.linalg.norm(h, axis=(1, 2)) * amplitude) ** 2
    radius = best + MLE_SLACK * (best + scale)

    sub = np.arange(k)
    b = z
    partial = np.zeros(k)
    symbols = np.zeros((k, 0), dtype=np.intp)
    overflow = np.zeros(k, dtype=bool)
    for level in reversed(range(n_tx)):
        child = _child_metrics(b[:, level], partial, diag[sub, level], levels)
        keep = child <= radius[sub, None]
        counts = np.bincount(sub, weights=keep.sum(axis=1), minlength=k)
        if counts.sum() > MLE_SPHERE_NODES:
            # keep the smallest frontiers that fit; the rest go exhaustive
            narrow = np.argsort(counts, kind="stable")
            overflow[narrow[np.cumsum(counts[narrow]) > MLE_SPHERE_NODES]] = True
            keep &= ~overflow[sub, None]
        row, symbol = np.nonzero(keep)
        sub = sub[row]
        partial = child[row, symbol]
        symbols = np.concatenate([symbols[row], symbol[:, None]], axis=1)
        if level:
            b = b[row, :level] - r[sub, :level, level] * alphabet[symbol][:, None]
    exhaustive = overflow | (np.bincount(sub, minlength=k) == 0)
    return sub, symbols, exhaustive


def _survivor_metrics(h: np.ndarray, y_freq: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """The exhaustive metric of each subcarrier's candidate rows ``vectors`` [K, S, n_tx], [K, S].

    Bit for bit what the chunk loop computes for the same candidates (S >= 2).
    """
    k, s, _ = vectors.shape
    n_rx = y_freq.shape[1]
    metric = np.empty((k, s))
    _metrics(vectors, np.swapaxes(h, 1, 2), y_freq[:, None, :],
             np.empty((k, s, n_rx), dtype=np.complex128), np.empty((k, s, n_rx)), metric)
    return metric


def _sphere_detect(h: np.ndarray, y_freq: np.ndarray, order: int) -> np.ndarray:
    """Sphere-filtered exact MLE, [K, n_tx]: the exhaustive metric picks among the survivors."""
    alphabet = qam_alphabet(order)
    k, _, n_tx = h.shape
    sub, symbols, exhaustive = _sphere_search(h, y_freq, order)
    survivors = alphabet[symbols]
    counts = np.bincount(sub, minlength=k)
    start = np.cumsum(counts) - counts
    slot = np.arange(sub.size) - start[sub]
    detected = np.empty((k, n_tx), dtype=np.complex128)
    # a lone survivor wins as it is
    alone = counts == 1
    detected[alone] = survivors[start[alone]]
    # The others are re-scored in groups of similar survivor counts, each
    # padded to a power of two; two rows or more keep the matrix product on
    # the kernel the chunk loop uses.
    width = np.where(counts > 1, 2 ** np.ceil(np.log2(np.maximum(counts, 1))), 0).astype(int)
    for w in np.unique(width[width > 0]):
        group = np.flatnonzero(width == w)
        position = np.full(k, -1)
        position[group] = np.arange(group.size)
        mine = position[sub] >= 0
        vectors = np.zeros((group.size, w, n_tx), dtype=np.complex128)
        vectors[position[sub[mine]], slot[mine]] = survivors[mine]
        metric = _survivor_metrics(h[group], y_freq[group], vectors)
        metric[np.arange(w) >= counts[group, None]] = np.inf
        # survivors sit in lexicographic order: argmin keeps the first of a tie
        detected[group] = survivors[start[group] + np.argmin(metric, axis=1)]
    if exhaustive.any():
        candidates = _candidate_vectors(order, n_tx)
        # as many (subcarrier, candidate) pairs per step as a full frame's chunk
        chunk = MLE_CHUNK * max(1, k // int(exhaustive.sum()))
        detected[exhaustive] = candidates[_exhaustive_search(
            h[exhaustive], y_freq[exhaustive], candidates, chunk)]
    return detected


def mle_detect(chan: ChannelRealization, y_freq: np.ndarray, order: int) -> np.ndarray:
    """Exact minimum-distance detection on every subcarrier at once.

    ``y_freq`` is [n_sub, n_rx]; returns the detected grid [n_tx, n_sub].
    The detection minimizes sum_r |y_r - (H c)_r|^2 over all candidate
    vectors c, ties broken toward the lexicographically first candidate.
    Up to ``MLE_SPHERE_MIN`` candidates, the cached candidate table is
    scored in chunks of ``MLE_CHUNK`` rows. Above it, a sphere search in
    the QR domain keeps the candidates that can win, and the same metric,
    computed with the same float operations, picks among them; subcarriers
    whose search grows too wide get the chunk loop. The detections are the
    same either way, bit for bit.
    """
    y_freq = np.asarray(y_freq, dtype=np.complex128)
    if y_freq.shape != (chan.n_subcarriers, chan.n_rx):
        raise ValueError("y shape does not match the channel")
    check_mle_size(order, chan.n_tx)
    # one memory layout for both paths (and for the sphere path's copies)
    h = np.ascontiguousarray(chan.h)
    if qam_alphabet(order).size ** chan.n_tx > MLE_SPHERE_MIN:
        return np.ascontiguousarray(_sphere_detect(h, y_freq, order).T)
    candidates = _candidate_vectors(order, chan.n_tx)
    return np.ascontiguousarray(candidates[_exhaustive_search(h, y_freq, candidates,
                                                              MLE_CHUNK)].T)


def zf_detect(chan: ChannelRealization, y_freq: np.ndarray, order: int) -> np.ndarray:
    """Pseudo-inverse equalization plus per-entry nearest constellation point.

    All subcarriers are equalized in one batched SVD and pseudo-inverse; a
    channel matrix whose smallest singular value is below 1e-12 is a
    NumericError that names the first such subcarrier.
    """
    y_freq = np.asarray(y_freq, dtype=np.complex128)
    if y_freq.shape != (chan.n_subcarriers, chan.n_rx):
        raise ValueError("y shape does not match the channel")
    smallest = np.linalg.svd(chan.h, compute_uv=False)[:, -1]
    singular = np.flatnonzero(smallest < 1e-12)
    if singular.size:
        raise NumericError(f"channel matrix at subcarrier {singular[0]} is singular")
    equalized = np.matmul(np.linalg.pinv(chan.h), y_freq[:, :, None])[:, :, 0]
    levels = pam_levels(order)
    re = levels[nearest_level_index(equalized.real, levels)]
    im = levels[nearest_level_index(equalized.imag, levels)]
    return np.ascontiguousarray((re + 1j * im).T)
