"""Float WAV reading and writing, with numpy and the struct module only.

Stems are mono RIFF/WAVE IEEE float32; rendered output is one float32
channel per loudspeaker. read_stem walks the stem's chunks itself, since
the stdlib wave module has no float support: it takes the fmt chunk as
format 3 (IEEE float) or as WAVE_FORMAT_EXTENSIBLE with the float
subformat, skips every other chunk, and reads the first data chunk with one
np.fromfile. Writing streams blocks into the layout scipy.io.wavfile.write
produces (RIFF, a fmt chunk with cbSize, a fact chunk and the data chunk),
so a render never holds its whole output.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import MissingStem, SchemaError

WAVE_FORMAT_IEEE_FLOAT = 3
WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# The last 12 bytes of every WAVE_FORMAT_EXTENSIBLE subformat GUID; its first
# 4 bytes hold the format tag.
EXTENSIBLE_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
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
        with open(path, "rb") as fh:
            rate, data = _read_mono_float32(fh)
    except OSError as exc:
        raise SchemaError(f"stem {path} is unreadable: {exc}") from exc
    except ValueError as exc:
        raise SchemaError(f"stem {path} {exc}") from exc
    if not np.all(np.isfinite(data)):
        raise SchemaError(f"stem {path} holds non-finite samples")
    return rate, data.astype(np.float64)


def _read_exactly(fh, count: int, what: str) -> bytes:
    """The next count bytes; the file must not end before them."""
    data = fh.read(count)
    if len(data) < count:
        raise ValueError(f"ends inside its {what}")
    return data


def _read_mono_float32(fh) -> tuple[int, np.ndarray]:
    """The sample rate and float32 samples of a little-endian RIFF/WAVE
    stream of one IEEE float32 channel. The chunks after the form type are
    walked up to the first data chunk, each followed by a pad byte when its
    size is odd; the RIFF size field is not read. Raises ValueError with a
    predicate on the file ("must be mono, ...")."""
    riff = _read_exactly(fh, 12, "RIFF header")
    if riff[:4] != b"RIFF" or riff[8:] != b"WAVE":
        raise ValueError(f"is not a little-endian RIFF/WAVE file "
                         f"(it starts {riff[:4]!r}, form {riff[8:]!r})")
    rate = None
    while True:
        header = fh.read(8)
        if len(header) < 8:
            raise ValueError(f"has no {'fmt' if rate is None else 'data'} chunk")
        chunk_id, size = header[:4], struct.unpack("<I", header[4:])[0]
        if chunk_id == b"fmt ":
            rate = _float32_mono_rate(_read_exactly(fh, size, "fmt chunk"))
            fh.seek(size & 1, os.SEEK_CUR)
        elif chunk_id == b"data":
            if rate is None:
                raise ValueError("has its data chunk before its fmt chunk")
            left = os.fstat(fh.fileno()).st_size - fh.tell()
            if size > left:
                raise ValueError(f"has a data chunk of {size} bytes truncated "
                                 f"to {left}")
            return rate, np.fromfile(fh, dtype="<f4", count=size // 4)
        else:
            fh.seek(size + (size & 1), os.SEEK_CUR)


def _float32_mono_rate(fmt: bytes) -> int:
    """The sample rate a fmt chunk gives, when it describes one channel of
    32-bit IEEE float, plain or WAVE_FORMAT_EXTENSIBLE with the float
    subformat."""
    if len(fmt) < 16:
        raise ValueError(f"has a fmt chunk of {len(fmt)} bytes, fewer than 16")
    tag, channels, rate, _, align, bits = struct.unpack("<HHIIHH", fmt[:16])
    if tag == WAVE_FORMAT_EXTENSIBLE and len(fmt) >= 40 and (
            struct.unpack("<H", fmt[16:18])[0] >= 22
            and fmt[28:40] == EXTENSIBLE_GUID_TAIL):
        tag = struct.unpack("<I", fmt[24:28])[0]
    if (tag, bits, align // max(channels, 1)) != (WAVE_FORMAT_IEEE_FLOAT, 32, 4):
        raise ValueError(f"must hold IEEE float32 samples, got format tag "
                         f"{tag:#06x} with {bits} bits per sample")
    if channels != 1:
        raise ValueError(f"must be mono, got {channels} channels")
    return rate


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
