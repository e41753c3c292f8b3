"""WAV writing: one array or a stream of blocks, byte for byte as scipy."""

import numpy as np
import pytest
from scipy.io import wavfile

from obar.wavio import write_wav


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
