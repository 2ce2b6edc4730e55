"""Binary checkpoint format: a flat list of named float64 tensors.

Layout (all integers little-endian):

    magic   4 bytes  b"NTK1"
    count   uint32   number of tensors
    then, per tensor, in order:
      name_len  uint32
      name      name_len bytes, UTF-8
      ndim      uint32
      dims      ndim * uint64
      data      prod(dims) * float64, little-endian, C order

Order is preserved on load.
"""

from __future__ import annotations

import math
import os
import struct
import sys
from pathlib import Path

import numpy as np

MAGIC = b"NTK1"


def save_tensors(path, tensors: dict[str, np.ndarray]):
    """Write named float64 arrays in insertion order."""
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(tensors)))
        for name, array in tensors.items():
            array = np.asarray(array, dtype="<f8")  # tobytes() serializes C order
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", array.ndim))
            fh.write(struct.pack(f"<{array.ndim}Q", *array.shape))
            fh.write(array.tobytes())


def read_tensors(path):
    """Yield each tensor of a checkpoint as ``(name, shape, fill)``, in file order.

    ``fill(out=None)`` reads the tensor's values from the file straight into
    ``out``, a C-contiguous float64 array of that shape (a new one if None),
    and returns it; a tensor not filled before the next is yielded is
    skipped. A foreign or truncated file is a ValueError or struct.error,
    raised before anything is allocated for the entry it fails on.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def take(n: int) -> bytes:
            if n > size - fh.tell():
                raise ValueError(f"{path} is truncated")
            return fh.read(n)

        if take(4) != MAGIC:
            raise ValueError(f"{path} is not a tensor checkpoint")
        (count,) = struct.unpack("<I", take(4))
        for _ in range(count):
            (name_len,) = struct.unpack("<I", take(4))
            name = take(name_len).decode("utf-8")
            (ndim,) = struct.unpack("<I", take(4))
            shape = struct.unpack(f"<{ndim}Q", take(8 * ndim))
            end = fh.tell() + 8 * math.prod(shape)
            if end > size:
                raise ValueError(f"{path} is truncated")

            def fill(out=None, shape=shape):
                out = np.empty(shape) if out is None else out
                if out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
                    raise ValueError(f"{path}: cannot read a {shape} tensor into {out.shape}")
                fh.readinto(out.reshape(-1).view(np.uint8))
                if sys.byteorder != "little":
                    out.byteswap(inplace=True)
                return out

            yield name, shape, fill
            fh.seek(end)


def load_tensors(path) -> dict[str, np.ndarray]:
    """Read a checkpoint back into an ordered name -> array mapping."""
    return {name: fill() for name, _, fill in read_tensors(path)}
