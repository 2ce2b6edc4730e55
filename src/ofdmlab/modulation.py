"""Square-QAM alphabets, Gray bit maps, and frequency-domain symbol grids."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SUPPORTED_ORDERS = (4, 16)


@lru_cache(maxsize=None)
def pam_levels(order: int) -> np.ndarray:
    """Per-dimension amplitude levels of a unit-average-energy square QAM.

    The real and imaginary parts of an ``order``-QAM symbol each take
    ``sqrt(order)`` equispaced levels; the constellation is scaled so that
    the mean symbol energy E|s|^2 equals 1. Levels are returned ascending,
    as a shared read-only array.
    """
    if order not in SUPPORTED_ORDERS:
        raise ValueError(f"unsupported QAM order {order}; expected one of {SUPPORTED_ORDERS}")
    n_levels = int(round(np.sqrt(order)))
    raw = np.arange(-(n_levels - 1), n_levels, 2, dtype=float)
    scale = np.sqrt(2.0 * (n_levels ** 2 - 1) / 3.0)
    levels = raw / scale
    levels.setflags(write=False)
    return levels


@lru_cache(maxsize=None)
def qam_alphabet(order: int) -> np.ndarray:
    """Full complex alphabet, enumerated real-part major, unit average energy.

    The alphabet is a shared read-only array.
    """
    levels = pam_levels(order)
    alphabet = (levels[:, None] + 1j * levels[None, :]).reshape(-1)
    alphabet.setflags(write=False)
    return alphabet


def nearest_level_index(values: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Index of the closest level for each (real) entry of ``values``."""
    values = np.asarray(values, dtype=float)
    edges = 0.5 * (levels[1:] + levels[:-1])
    return np.searchsorted(edges, values)


@lru_cache(maxsize=None)
def gray_code_table(n_levels: int) -> np.ndarray:
    """Bit patterns, one row per level index, Gray-coded along the level order.

    Row q holds the ``log2(n_levels)`` bits of q ^ (q >> 1), MSB first. The
    table is a shared read-only array.
    """
    bits = int(round(np.log2(n_levels)))
    if 2 ** bits != n_levels:
        raise ValueError("number of levels must be a power of two")
    codes = np.arange(n_levels) ^ (np.arange(n_levels) >> 1)
    table = np.zeros((n_levels, bits), dtype=np.uint8)
    for b in range(bits):
        table[:, b] = (codes >> (bits - 1 - b)) & 1
    table.setflags(write=False)
    return table


def symbols_to_level_indices(symbols: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Map complex symbols to their (real, imag) level indices."""
    levels = pam_levels(order)
    return (
        nearest_level_index(symbols.real, levels),
        nearest_level_index(symbols.imag, levels),
    )


def symbols_to_bits(symbols: np.ndarray, order: int) -> np.ndarray:
    """Gray-coded bit image of a symbol array.

    Output shape is ``symbols.shape + (log2(order),)`` with the real-part bits
    first, then the imaginary-part bits.
    """
    re_idx, im_idx = symbols_to_level_indices(symbols, order)
    table = gray_code_table(int(round(np.sqrt(order))))
    return np.concatenate([table[re_idx], table[im_idx]], axis=-1)


def bit_errors(sent: np.ndarray, detected: np.ndarray, order: int) -> tuple[int, int]:
    """(bit errors, bits) between sent and detected symbol arrays, Gray-coded."""
    sent_bits = symbols_to_bits(sent, order)
    got_bits = symbols_to_bits(detected, order)
    return int(np.sum(sent_bits != got_bits)), sent_bits.size


@dataclass(frozen=True)
class OfdmGrid:
    """Frequency-domain symbol matrix, one row per transmit antenna.

    ``symbols`` has shape [n_antennas, n_subcarriers] and every entry must be
    a point of the unit-average-energy ``constellation_order``-QAM alphabet.
    """

    symbols: np.ndarray
    constellation_order: int

    def __post_init__(self):
        symbols = np.asarray(self.symbols, dtype=np.complex128)
        if symbols.ndim != 2 or symbols.size == 0:
            raise ValueError("grid must be a non-empty 2-D complex matrix")
        alphabet = qam_alphabet(self.constellation_order)
        dist = np.abs(symbols.reshape(-1, 1) - alphabet[None, :]).min(axis=1)
        if dist.max() > 1e-9:
            raise ValueError("grid entries must lie on the QAM alphabet")
        object.__setattr__(self, "symbols", symbols)

    @property
    def n_antennas(self) -> int:
        return self.symbols.shape[0]

    @property
    def n_subcarriers(self) -> int:
        return self.symbols.shape[1]

    @classmethod
    def random(cls, rng: np.random.Generator, n_antennas: int, n_subcarriers: int,
               order: int) -> "OfdmGrid":
        """Draw a grid of i.i.d. uniform constellation symbols.

        The symbols are alphabet points by construction, so the grid skips
        the on-alphabet check a grid built from given symbols gets.
        """
        alphabet = qam_alphabet(order)
        if n_antennas < 1 or n_subcarriers < 1:
            raise ValueError("grid must be a non-empty 2-D complex matrix")
        idx = rng.integers(0, alphabet.size, size=(n_antennas, n_subcarriers))
        return cls._unchecked(alphabet[idx], order)

    @classmethod
    def _unchecked(cls, symbols: np.ndarray, order: int) -> "OfdmGrid":
        """A grid of complex128 alphabet points, built without the on-alphabet check."""
        grid = object.__new__(cls)
        object.__setattr__(grid, "symbols", symbols)
        object.__setattr__(grid, "constellation_order", order)
        return grid


def grid_bits(grid: OfdmGrid) -> np.ndarray:
    """Gray-coded bits of all grid symbols, shape [n_ant, n_sub, bits_per_symbol]."""
    return symbols_to_bits(grid.symbols, grid.constellation_order)
