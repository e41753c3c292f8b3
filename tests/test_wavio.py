"""WAV writing: one array or a stream of blocks, byte for byte as scipy.
Stem reading: the same samples and rate as scipy.io.wavfile.read on every
form a stem may take, and one diagnostic line on every other file."""

import os
import struct
import warnings

import numpy as np
import pytest
from scipy.io import wavfile

from obar import demo
from obar.cli import main as cli_main
from obar.wavio import EXTENSIBLE_GUID_TAIL, read_stem, write_wav


def _bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("channels", [1, 5])
def test_blocks_and_array_write_scipy_bytes(tmp_path, channels):
    samples = np.random.default_rng(channels).standard_normal((1000, channels))
    whole, streamed, reference = (str(tmp_path / n) for n in ("a.wav", "b.wav", "c.wav"))
    write_wav(whole, 44100, samples)
    write_wav(streamed, 44100, (samples[lo:hi] for lo, hi in
                                ((0, 1), (1, 257), (257, 257), (257, 1000))))
    wavfile.write(reference, 44100, samples.astype(np.float32))
    assert _bytes(whole) == _bytes(streamed) == _bytes(reference)
    rate, data = wavfile.read(streamed)
    assert rate == 44100
    assert np.array_equal(data.reshape(1000, channels), samples.astype(np.float32))


def test_mono_array_is_one_channel(tmp_path):
    samples = np.linspace(-1.0, 1.0, 300)
    write_wav(str(tmp_path / "a.wav"), 48000, samples)
    wavfile.write(str(tmp_path / "b.wav"), 48000, samples.astype(np.float32))
    assert _bytes(tmp_path / "a.wav") == _bytes(tmp_path / "b.wav")


def test_block_with_other_channel_count_raises(tmp_path):
    blocks = [np.zeros((4, 3)), np.zeros((4, 2))]
    with pytest.raises(ValueError, match="2 channels, the first block had 3"):
        write_wav(str(tmp_path / "x.wav"), 48000, blocks)


SAMPLES = (np.random.default_rng(4).standard_normal(501) * 0.1).astype("<f4")


def _chunk(chunk_id, body, order="<"):
    """A RIFF chunk, with its pad byte when body's length is odd."""
    return chunk_id + struct.pack(order + "I", len(body)) + body + bytes(len(body) & 1)


def _fmt(tag=3, channels=1, bits=32, rate=48000, extensible=False, order="<"):
    align = channels * bits // 8
    body = struct.pack(order + "HHIIHH", 0xFFFE if extensible else tag,
                       channels, rate, rate * align, align, bits)
    if extensible:
        # cbSize, valid bits, channel mask, then the subformat GUID
        body += struct.pack("<HHII", 22, bits, 4, tag) + EXTENSIBLE_GUID_TAIL
    return _chunk(b"fmt ", body, order)


def _wav(*chunks, riff=b"RIFF", order="<"):
    body = b"WAVE" + b"".join(chunks)
    return riff + struct.pack(order + "I", len(body)) + body


DATA = _chunk(b"data", SAMPLES.tobytes())
PLAIN = _wav(_fmt(), DATA)

STEMS = {
    "plain": PLAIN,
    "extensible": _wav(_fmt(extensible=True), DATA),
    "odd_list_before_data": _wav(
        _fmt(), _chunk(b"LIST", b"INFOISFT\x05\x00\x00\x00obar\x00"), DATA),
    "fact": _wav(_fmt(), _chunk(b"fact", struct.pack("<I", len(SAMPLES))), DATA),
}

MALFORMED = {
    "empty": b"",
    "not_riff": b"this is a text file, not a wave file",
    "no_fmt": _wav(DATA),
    "no_data": _wav(_fmt(), _chunk(b"fact", struct.pack("<I", len(SAMPLES)))),
    "pcm16": _wav(_fmt(tag=1, bits=16),
                  _chunk(b"data", (SAMPLES * 32767).astype("<i2").tobytes())),
    "float64": _wav(_fmt(bits=64), _chunk(b"data", SAMPLES.astype("<f8").tobytes())),
    "stereo": _wav(_fmt(channels=2), DATA),
    "rifx": _wav(_fmt(order=">"), _chunk(b"data", SAMPLES.astype(">f4").tobytes(), ">"),
                 riff=b"RIFX", order=">"),
    "truncated_header": PLAIN[:30],
    "truncated_data": PLAIN[:-100],
}


def _write(tmp_path, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    return str(path)


@pytest.mark.parametrize("form", STEMS)
def test_stem_reads_as_scipy_reads_it(tmp_path, form):
    path = _write(tmp_path, "stem.wav", STEMS[form])
    rate, samples = read_stem(path)
    reference_rate, reference = wavfile.read(path)
    assert rate == reference_rate == 48000
    assert samples.dtype == np.float64
    assert np.array_equal(samples, reference.astype(np.float64))
    assert np.array_equal(samples, SAMPLES.astype(np.float64))


def _scipy_accepts(path):
    """Whether scipy.io.wavfile.read gives a mono float32 array without a
    warning: what the stem reader accepts."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, data = wavfile.read(path)
    except Exception:
        return False
    return data.dtype == np.float32 and data.ndim == 1


@pytest.mark.parametrize("form", MALFORMED)
def test_malformed_stem_fails_in_one_line(tmp_path, capsys, form):
    """Every file the reader refuses ends validate (exit 2) and render
    (exit 1) in one diagnostic line naming the stem, writing nothing.
    scipy refuses each of them too, or warns (the truncated data chunk,
    which it reads short)."""
    d = str(tmp_path)
    scene = demo.write_demo_scene(d, duration_s=2.0)
    scenario = demo.write_demo_scenario(d)
    path = _write(tmp_path, "narrator.wav", MALFORMED[form])
    assert not _scipy_accepts(path)
    before = set(os.listdir(d))
    for argv, code in (
            (["validate", "--scene", scene], 2),
            (["render", "--scene", scene, "--scenario", scenario,
              "--out", os.path.join(d, "x.wav")], 1)):
        assert cli_main(argv) == code
        err = capsys.readouterr().err.strip()
        assert "Traceback" not in err
        assert err.count("\n") == 0, err
        assert err.startswith("error [scene_model]: stem "), err
        assert "narrator.wav" in err
    assert set(os.listdir(d)) == before
