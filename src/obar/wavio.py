"""Float WAV reading and writing.

Stems are mono RIFF/WAVE IEEE float32; rendered output is one float32
channel per loudspeaker. scipy reads the container, since the stdlib wave
module has no float support. Writing streams blocks into the same layout
scipy.io.wavfile.write produces (RIFF, a fmt chunk with cbSize, a fact
chunk and the data chunk), so a render never holds its whole output.
"""

from __future__ import annotations

import os
import struct

import numpy as np
from scipy.io import wavfile

from .errors import MissingStem, SchemaError

WAVE_FORMAT_IEEE_FLOAT = 3
# RIFF, WAVE, fmt (8 + 18 bytes), fact (8 + 4 bytes) and the data chunk's
# id and size: the samples start here.
HEADER_BYTES = 58
# A RIFF size field counts the file after its first 8 bytes in 32 bits.
MAX_DATA_BYTES = 0xFFFFFFFF - (HEADER_BYTES - 8)


def read_stem(path: str) -> tuple[int, np.ndarray]:
    """Read a mono float32 stem; returns (sample_rate, float64 samples)."""
    if not os.path.isfile(path):
        raise MissingStem(f"stem file not found: {path}")
    try:
        rate, data = wavfile.read(path)
    except Exception as exc:
        raise SchemaError(f"unreadable stem {path}: {exc}") from exc
    if data.dtype != np.float32:
        raise SchemaError(f"stem {path} must be IEEE float32, got {data.dtype}")
    if data.ndim != 1:
        raise SchemaError(f"stem {path} must be mono, got {data.ndim} channels")
    if not np.all(np.isfinite(data)):
        raise SchemaError(f"stem {path} holds non-finite samples")
    return int(rate), data.astype(np.float64)


def _header(sample_rate: int, channels: int, frames: int) -> bytes:
    """The 58 header bytes scipy.io.wavfile.write gives float32 data."""
    align = 4 * channels
    data_bytes = frames * align
    fmt = struct.pack("<HHIIHHH", WAVE_FORMAT_IEEE_FLOAT, channels,
                      sample_rate, sample_rate * align, align, 32, 0)
    return b"".join((
        b"RIFF", struct.pack("<I", HEADER_BYTES - 8 + data_bytes), b"WAVE",
        b"fmt ", struct.pack("<I", len(fmt)), fmt,
        b"fact", struct.pack("<II", 4, frames),
        b"data", struct.pack("<I", data_bytes),
    ))


def write_wav(path: str, sample_rate: int, channels) -> None:
    """Write float samples as a float32 multichannel WAV.

    channels is one (samples, channels) array, or an iterable of such
    blocks that are written as they arrive; a 1-D array or block is one
    channel. Every block must have the first block's channel count.
    """
    blocks = (channels,) if isinstance(channels, np.ndarray) else channels
    sample_rate = int(sample_rate)
    width, frames = None, 0
    with open(path, "wb") as fh:
        fh.write(bytes(HEADER_BYTES))
        for block in blocks:
            data = np.asarray(block, dtype="<f4")
            if data.ndim == 1:
                data = data[:, None]
            if width is None:
                width = data.shape[1]
            elif data.shape[1] != width:
                raise ValueError(f"block has {data.shape[1]} channels, "
                                 f"the first block had {width}")
            frames += len(data)
            if frames * width * 4 > MAX_DATA_BYTES:
                raise ValueError("WAV data exceeds the 4 GiB RIFF limit")
            fh.write(np.ascontiguousarray(data))
        if width is None:
            raise ValueError("no blocks to write")
        fh.seek(0)
        fh.write(_header(sample_rate, width, frames))
