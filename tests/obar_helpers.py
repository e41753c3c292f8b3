"""Plain helpers the test modules import: deterministic demo stems, scene
and scenario documents, layouts and render capture. Fixtures live in
conftest.py; this module has its own name so that no other directory's
conftest shadows it."""

import json
import os

import numpy as np
import pytest

from obar import engine, routing
from obar.errors import ObarError
from obar.rules import default_selection_rules
from obar.scene import mono_mix
from obar.wavio import write_wav

FS = 48000


def speech_like(duration_s=2.0, seed=100, fs=FS):
    """Band-limited noise with syllabic amplitude modulation."""
    rng = np.random.default_rng(seed)
    n = int(duration_s * fs)
    x = rng.standard_normal(n)
    spec = np.fft.rfft(x)
    f = np.fft.rfftfreq(n, 1.0 / fs)
    spec[(f < 150) | (f > 5000)] = 0.0
    x = np.fft.irfft(spec, n)
    t = np.arange(n) / fs
    x *= 0.55 + 0.45 * np.sin(2 * np.pi * 4.0 * t)
    return (0.1 * x / np.sqrt(np.mean(x**2))).astype(np.float64)


def music_like(duration_s=2.0, seed=200, fs=FS):
    """Sustained harmonic chord with gentle level movement."""
    rng = np.random.default_rng(seed)
    n = int(duration_s * fs)
    t = np.arange(n) / fs
    x = np.zeros(n)
    for f0 in (196.0, 294.0, 392.0, 587.0, 880.0, 1760.0, 3520.0):
        x += np.sin(2 * np.pi * f0 * t + rng.uniform(0, 2 * np.pi)) / f0**0.3
    x *= 1.0 + 0.1 * np.sin(2 * np.pi * 0.5 * t)
    return (0.1 * x / np.sqrt(np.mean(x**2))).astype(np.float64)


def noise_like(duration_s=2.0, seed=300, fs=FS, lo=100.0, hi=9000.0):
    rng = np.random.default_rng(seed)
    n = int(duration_s * fs)
    x = rng.standard_normal(n)
    spec = np.fft.rfft(x)
    f = np.fft.rfftfreq(n, 1.0 / fs)
    spec[(f < lo) | (f > hi)] = 0.0
    x = np.fft.irfft(spec, n)
    return (0.1 * x / np.sqrt(np.mean(x**2))).astype(np.float64)


def write_stem(dirpath, name, samples, fs=FS):
    path = os.path.join(dirpath, name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_wav(path, fs, np.asarray(samples, dtype=np.float32))
    return name


def render_output(job):
    """run_render(job) and its float64 output, samples x channels.

    The engine streams its output to engine.write_wav block by block and
    keeps none of it; this wraps that name to copy each block as it passes.
    """
    blocks = []
    write = engine.write_wav

    def capture(path, sample_rate, channels):
        def copied():
            for block in channels:
                blocks.append(np.array(block))
                yield block
        write(path, sample_rate, copied())

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "write_wav", capture)
        result = engine.run_render(job)
    return result, np.concatenate(blocks)


def band_table_of(objects, speakers, fs=FS):
    """routing.band_table of the objects' mono mixes, as the engine builds
    it before a render's first block."""
    return routing.band_table({o.object_id: mono_mix(o) for o in objects},
                              speakers, fs)


def infeasibility_reasons(layout, obj):
    """Renderer kind name -> why routing.feasibility finds that kind
    cannot realize obj on layout, for every kind it cannot."""
    return {name: str(result)
            for name, result in routing.feasibility(layout, obj).items()
            if isinstance(result, ObarError)}


def route_scene(scene, scenario, ctx, selection_rules=None):
    """routing.route with the default selection table (or the given one)
    and the scene's band table."""
    return routing.route(
        scene, scenario, ctx, selection_rules or default_selection_rules(),
        band_table_of(scene.objects, scenario.layout.speakers, scene.sample_rate))


def object_doc(oid, otype, stem_refs, **over):
    doc = {
        "id": oid,
        "type": otype,
        "channels": len(stem_refs),
        "stems": list(stem_refs),
    }
    doc.update(over)
    return doc


def scene_doc(objects, fs=FS, envelopment=0.0, intelligibility=0.0):
    return {
        "schema": "scene-schema v1",
        "sample_rate": fs,
        "targets": {"envelopment": envelopment, "intelligibility": intelligibility},
        "objects": objects,
    }


def write_scene(dirpath, doc, name="scene.json"):
    path = os.path.join(dirpath, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return path


def ring_speakers(count, radius=2.0, start_az=0.0, kind="discrete", prefix="s"):
    """Evenly spaced horizontal ring of speaker entries."""
    out = []
    for i in range(count):
        az = start_az + 360.0 * i / count
        az = ((az + 180.0) % 360.0) - 180.0
        if az == -180.0:
            az = 180.0
        out.append({
            "id": f"{prefix}{i}",
            "position": {"az": az, "el": 0.0, "dist": radius},
            "orientation_deg": ((az + 180.0 + 180.0) % 360.0) - 180.0,
            "bandwidth_hz": {"low": 40.0, "high": 20000.0},
            "latency_ms": 0.0,
            "connection_kbps": 10000.0,
            "kind": kind,
        })
    return out


def scenario_doc(speakers, listeners=None, environment=None, noise_timeline=None):
    if listeners is None:
        listeners = [{
            "id": "listener0",
            "position": {"az": 0.0, "el": 0.0, "dist": 0.0},
        }]
    return {
        "schema": "scenario-schema v1",
        "layout": {"speakers": speakers},
        "listeners": listeners,
        "environment": environment or {},
        "noise_timeline": noise_timeline or [],
    }


def write_json(dirpath, doc, name):
    path = os.path.join(dirpath, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return path
