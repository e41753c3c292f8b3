"""Deterministic demo assets.

Builders for a small broadcast-style scene (a narrator, a music bed, an
ambience wash), matching reproduction scenarios, and a device listing. The
same generators feed the example scripts and the acceptance suite, so every
asset is reproducible from a fixed seed.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
from scipy import signal

from .geometry import wrap_azimuth
from .wavio import write_wav

DEMO_SAMPLE_RATE = 48000
DEMO_DURATION_S = 10.0
DEMO_RING_SPEAKERS = 5
DEMO_RING_RADIUS_M = 2.0

# Ambient noise floor per octave band. A +10 dB step at NOISE_STEP_T_S pushes
# the measured proxy far enough below the demo scene's 0.65 target that the
# adaptation ladder recovers >= 0.05 of it by ducking and tilting the maskers.
QUIET_BAND_DB = -50.0
NOISE_STEP_T_S = 4.0
DEMO_INTELLIGIBILITY_TARGET = 0.65

_N_BANDS = 7


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x)))) or 1.0


def speech_like(duration_s: float = DEMO_DURATION_S,
                sample_rate: int = DEMO_SAMPLE_RATE, seed: int = 11,
                rms: float = 0.1) -> np.ndarray:
    """Syllabically modulated noise confined to the speech octaves."""
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * sample_rate))
    sos = signal.butter(4, [300.0, 3400.0], "bandpass", fs=sample_rate,
                        output="sos")
    x = signal.sosfilt(sos, rng.standard_normal(n))
    t = np.arange(n) / sample_rate
    x *= 0.55 + 0.45 * np.sin(2.0 * math.pi * 3.1 * t + 0.7)
    return rms * x / _rms(x)


def music_like(duration_s: float = DEMO_DURATION_S,
               sample_rate: int = DEMO_SAMPLE_RATE, seed: int = 12,
               rms: float = 0.1) -> np.ndarray:
    """A sustained detuned chord over a soft broadband bed."""
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate
    x = np.zeros(n)
    for base in (110.0, 165.0, 220.0, 330.0, 440.0):
        f = base * (1.0 + rng.uniform(-0.002, 0.002))
        x += math.sqrt(1.0 / base) * np.sin(
            2.0 * math.pi * f * t + rng.uniform(0.0, 2.0 * math.pi))
    x += 0.05 * rng.standard_normal(n)
    return rms * x / _rms(x)


def ambience_like(duration_s: float = DEMO_DURATION_S,
                  sample_rate: int = DEMO_SAMPLE_RATE, seed: int = 13,
                  rms: float = 0.05) -> np.ndarray:
    """Low-passed noise wash."""
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * sample_rate))
    sos = signal.butter(2, 2000.0, "lowpass", fs=sample_rate, output="sos")
    x = signal.sosfilt(sos, rng.standard_normal(n))
    return rms * x / _rms(x)


def _write_json(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return path


def _write_stem(dirpath: str, name: str, samples: np.ndarray) -> None:
    write_wav(os.path.join(dirpath, name), DEMO_SAMPLE_RATE, samples)


# ---------------------------------------------------------------------------
# scenes

def write_demo_scene(dirpath: str, duration_s: float = DEMO_DURATION_S,
                     name: str = "scene.json") -> str:
    """Narrator + music bed + ambience wash; the standard end-to-end scene."""
    os.makedirs(dirpath, exist_ok=True)
    _write_stem(dirpath, "narrator.wav", speech_like(duration_s, seed=11))
    _write_stem(dirpath, "band.wav", music_like(duration_s, seed=12))
    _write_stem(dirpath, "wash.wav", ambience_like(duration_s, seed=13))
    doc = {
        "schema": "scene-schema v1",
        "sample_rate": DEMO_SAMPLE_RATE,
        "targets": {"intelligibility": DEMO_INTELLIGIBILITY_TARGET,
                    "envelopment": 0.2},
        "objects": [
            {
                "id": "narrator",
                "type": "dialogue",
                "stems": ["narrator.wav"],
                "priority": 9,
                "position": {"az": 0.0, "el": 0.0},
                "advanced": {"onscreen": True, "importance": 9},
            },
            {
                "id": "band",
                "type": "music",
                "stems": ["band.wav"],
                "priority": 5,
                "level_db": -3.0,
                "position": {"az": -35.0, "el": 0.0, "dist": 2.5},
            },
            {
                "id": "wash",
                "type": "ambience",
                "stems": ["wash.wav"],
                "priority": 2,
                "level_db": -6.0,
                "position": {"az": 180.0, "el": 0.0},
                "diffuseness": 0.35,
            },
        ],
    }
    return _write_json(os.path.join(dirpath, name), doc)


def write_two_voice_scene(dirpath: str, duration_s: float = 4.0,
                          name: str = "voices.json") -> str:
    """Two dialogue objects: an offscreen narrator and an onscreen actor.

    Their metadata differs (offscreen vs onscreen), so the default selection
    table routes them to different renderer classes.
    """
    os.makedirs(dirpath, exist_ok=True)
    _write_stem(dirpath, "offscreen.wav", speech_like(duration_s, seed=21))
    _write_stem(dirpath, "actor.wav", speech_like(duration_s, seed=22))
    doc = {
        "schema": "scene-schema v1",
        "sample_rate": DEMO_SAMPLE_RATE,
        "targets": {},
        "objects": [
            {
                "id": "narrator",
                "type": "dialogue",
                "stems": ["offscreen.wav"],
                "priority": 8,
                "advanced": {"onscreen": False},
            },
            {
                "id": "actor",
                "type": "dialogue",
                "stems": ["actor.wav"],
                "priority": 9,
                "position": {"az": 15.0, "el": 0.0},
                "advanced": {"onscreen": True},
            },
        ],
    }
    return _write_json(os.path.join(dirpath, name), doc)


# ---------------------------------------------------------------------------
# scenarios

def ring_layout_doc(count: int = DEMO_RING_SPEAKERS,
                    radius_m: float = DEMO_RING_RADIUS_M) -> dict:
    return {
        "speakers": [
            {
                "id": f"s{i}",
                "position": {"az": wrap_azimuth(360.0 * i / count),
                             "el": 0.0, "dist": radius_m},
            }
            for i in range(count)
        ]
    }


def write_demo_scenario(dirpath: str, *, speakers: int = DEMO_RING_SPEAKERS,
                        noise_step_db: float | None = None,
                        step_t_s: float = NOISE_STEP_T_S,
                        intelligibility_preference: float = 0.0,
                        name: str = "scenario.json") -> str:
    """A ring of speakers around one listener.

    noise_step_db, when given, raises the ambient floor by that many dB at
    step_t_s on the noise timeline.
    """
    os.makedirs(dirpath, exist_ok=True)
    timeline = [{"t_s": 0.0, "band_levels_db": [QUIET_BAND_DB] * _N_BANDS}]
    if noise_step_db is not None:
        timeline.append({
            "t_s": step_t_s,
            "band_levels_db": [QUIET_BAND_DB + noise_step_db] * _N_BANDS,
        })
    doc = {
        "schema": "scenario-schema v1",
        "layout": ring_layout_doc(speakers),
        "listeners": [
            {
                "id": "sofa",
                "position": {"az": 0.0, "el": 0.0, "dist": 0.0},
                "intelligibility_preference": intelligibility_preference,
            }
        ],
        "environment": {},
        "noise_timeline": timeline,
    }
    return _write_json(os.path.join(dirpath, name), doc)


def write_demo_devices(dirpath: str, name: str = "devices.json") -> str:
    """An ad-hoc living-room device pile; one entry is disconnected."""
    os.makedirs(dirpath, exist_ok=True)
    doc = {
        "schema": "devices v1",
        "devices": [
            {"id": "tv", "kind": "tv",
             "position": {"az": 0.0, "el": 0.0, "dist": 2.2}},
            {"id": "soundbar-left", "kind": "soundbar",
             "position": {"az": 25.0, "el": 0.0, "dist": 2.0}},
            {"id": "soundbar-right", "kind": "soundbar",
             "position": {"az": -25.0, "el": 0.0, "dist": 2.0}},
            {"id": "phone", "kind": "phone",
             "position": {"az": 120.0, "el": -10.0, "dist": 0.8}},
            {"id": "tablet", "kind": "tablet", "connected": False,
             "position": {"az": -120.0, "el": 0.0, "dist": 1.5}},
        ],
    }
    return _write_json(os.path.join(dirpath, name), doc)
