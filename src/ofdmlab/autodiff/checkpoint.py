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

import struct
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


def load_tensors(path) -> dict[str, np.ndarray]:
    """Read a checkpoint back into an ordered name -> array mapping.

    The arrays are read-only views of the file's bytes, copied by no one
    but the caller.
    """
    path = Path(path)
    data = path.read_bytes()
    if data[:4] != MAGIC:
        raise ValueError(f"{path} is not a tensor checkpoint")
    offset = 4
    (count,) = struct.unpack_from("<I", data, offset)
    offset += 4
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", data, offset)
        offset += 4
        name = data[offset:offset + name_len].decode("utf-8")
        offset += name_len
        (ndim,) = struct.unpack_from("<I", data, offset)
        offset += 4
        dims = struct.unpack_from(f"<{ndim}Q", data, offset)
        offset += 8 * ndim
        n_values = int(np.prod(dims)) if ndim else 1
        array = np.frombuffer(data, dtype="<f8", count=n_values, offset=offset)
        offset += 8 * n_values
        out[name] = array.reshape(dims)
    return out
