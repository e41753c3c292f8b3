"""Workload generators for the render benchmark.

Every workload is written to a directory as plain documents (scene, stems,
scenario, rulebook, selection table) built from the ``obar.demo`` signal
generators and ``obar.demo.ring_layout_doc``. Stem seeds and the small
jitter on positions and noise levels come from the benchmark seed, so the
same seed always writes byte-identical inputs. The program sees only these
files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from obar import demo
from obar.geometry import wrap_azimuth
from obar.wavio import write_wav

N_BANDS = 7
# Broadband level of a flat octave-band floor is band level + 10*log10(7).
BROADBAND_OFFSET_DB = 10.0 * np.log10(N_BANDS)

# live-switch: the selection table below switches renderers on this
# broadband threshold. Quiet intervals sit LIVE_SWING_DB below it and loud
# ones as far above; jitter never exceeds LIVE_JITTER_DB, so no interval
# crosses to the wrong side.
LIVE_THRESHOLD_DB = -30.0
LIVE_SWING_DB = 4.0
LIVE_RAMP_DB = 0.4          # per-interval drift, so every deficit differs
LIVE_JITTER_DB = 0.2

# broadcast-step: at the demo's own -50 dB floor and 0.65 target the ladder
# already fires before the step (the music and ambience alone hold the proxy
# near 0.52). A floor of -35 dB and a target of 0.40 leave the quiet part
# about 0.03 above target, and the +10 dB step opens a deficit of about
# 0.15, which takes the ladder past its first rung.
STEP_T_S = demo.NOISE_STEP_T_S
STEP_FLOOR_DB = -35.0
STEP_TARGET = 0.40

# dense-ring: a steady floor loud enough that the deficit stays above 0.3,
# where the ladder step saturates at its 6 dB cap, so every interval emits
# the same actions.
DENSE_FLOOR_DB = -20.0

AZ_JITTER_DEG = 2.0
NOISE_JITTER_DB = 0.25

# Written into every object, so the output check reads the bounds from the
# document rather than from the program's defaults.
TOLERANCES = {"level_db": 6.0, "position_deg": 15.0, "time_shift_ms": 100.0,
              "spectral_tilt_db": 6.0, "reverb_scale": 0.5}

LADDER_RULE_ID = "boost-dialogue-when-masked"
RULEBOOK_DOC = {
    "schema": "rulebook v1",
    "rules": [
        {
            "rule_id": LADDER_RULE_ID,
            "when": "intelligibility_deficit > 0 and has_dialogue",
            "actions": [{"kind": "intelligibility_ladder"}],
        },
        {
            "rule_id": "personalize-team-levels",
            "when": "team_preference != ''",
            "actions": [{"kind": "personalize"}],
        },
        {
            "rule_id": "fit-reverb-to-room",
            "when": "has_room_decay",
            "actions": [{"kind": "reverb_fit"}],
        },
        {
            "rule_id": "prune-filler-on-tiny-layouts",
            "when": "speaker_count <= 2",
            "actions": [
                {"kind": "prune", "select": "type == 'ambience' and priority == 0"},
            ],
        },
    ],
}

# The shipped default table, written out so the workload does not follow
# later edits to the program's defaults.
DEFAULT_SELECTION_DOC = {
    "schema": "selection v1",
    "rules": [
        {"match": "type == 'dialogue' and not onscreen",
         "renderer": "AP1", "subset": "nearest_device"},
        {"match": "type == 'dialogue' and onscreen", "renderer": "VBAP"},
        {"match": "type == 'ambience' or type == 'hoa'",
         "renderer": "AmbiMM", "order": "highest", "subset": "backdrop"},
        {"match": "type == 'diffuse' or diffuseness > 0.5", "renderer": "Diffuse"},
        {"match": "type == 'effect' and has_distance", "renderer": "WFS"},
        {"match": "type == 'effect'", "renderer": "VBAP"},
        {"match": "type == 'music'", "renderer": "PM"},
        {"match": "type == 'music'", "renderer": "AmbiMM", "order": "highest"},
        {"match": "true", "renderer": "AP1"},
    ],
}

_LOUD = f"noise_broadband_db > {LIVE_THRESHOLD_DB}"
LIVE_SELECTION_DOC = {
    "schema": "selection v1",
    "rules": [
        {"match": "type == 'dialogue' and onscreen", "renderer": "VBAP"},
        {"match": f"type == 'music' and {_LOUD}", "renderer": "PM"},
        {"match": "type == 'music'", "renderer": "AmbiMM", "order": "highest"},
        {"match": f"type == 'ambience' and {_LOUD}",
         "renderer": "AmbiMM", "order": "highest"},
        {"match": "type == 'ambience'", "renderer": "Diffuse"},
        {"match": "true", "renderer": "AP1"},
    ],
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: layout size, audio length and block size."""

    name: str
    speakers: int
    duration_s: float
    block_size: int
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload("broadcast-step", 5, 10.0, 1024,
                 "demo scene with a +10 dB noise step: the closed adaptation "
                 "loop dominates, rendering is light"),
        Workload("dense-ring", 12, 10.0, 1024,
                 "12 objects on a 12-speaker ring: routing and FIR rendering "
                 "dominate, the same adaptation repeats every interval"),
        Workload("live-switch", 6, 12.0, 256,
                 "noise alternates across a selection threshold: ~20 "
                 "crossfades, small blocks, every interval adapts differently"),
    )
}


@dataclass(frozen=True)
class WorkloadFiles:
    scene: str
    scenario: str
    rulebook: str
    selection: str


def _object(oid, kind, stem, az, *, level_db=0.0, priority=5, dist=None,
            diffuseness=None, onscreen=None):
    position = {"az": round(wrap_azimuth(az), 6), "el": 0.0}
    if dist is not None:
        position["dist"] = dist
    doc = {"id": oid, "type": kind, "stems": [stem], "priority": priority,
           "position": position, "constraints": {"tolerances": TOLERANCES}}
    if level_db:
        doc["level_db"] = level_db
    if diffuseness is not None:
        doc["diffuseness"] = diffuseness
    if onscreen is not None:
        doc["advanced"] = {"onscreen": onscreen, "importance": 9}
    return doc


def _demo_objects(copy: int, az_offset: float, rng, duration_s: float, dest: str):
    """One narrator / band / wash triple, shifted by az_offset degrees."""
    suffix = "" if copy == 0 else f"-{copy}"
    seeds = rng.integers(1, 2**31 - 1, size=3)
    jitter = rng.uniform(-AZ_JITTER_DEG, AZ_JITTER_DEG, size=3)
    stems = (
        (f"narrator{suffix}.wav", demo.speech_like(duration_s, seed=int(seeds[0]))),
        (f"band{suffix}.wav", demo.music_like(duration_s, seed=int(seeds[1]))),
        (f"wash{suffix}.wav", demo.ambience_like(duration_s, seed=int(seeds[2]))),
    )
    for name, samples in stems:
        write_wav(os.path.join(dest, name), demo.DEMO_SAMPLE_RATE, samples)
    return [
        _object(f"narrator{suffix}", "dialogue", stems[0][0],
                az_offset + jitter[0], priority=9, onscreen=True),
        _object(f"band{suffix}", "music", stems[1][0],
                az_offset - 35.0 + jitter[1], level_db=-3.0, dist=2.5),
        _object(f"wash{suffix}", "ambience", stems[2][0],
                az_offset + 180.0 + jitter[2], level_db=-6.0, priority=2,
                diffuseness=0.35),
    ]


def _scene_doc(objects, target: float):
    return {
        "schema": "scene-schema v1",
        "sample_rate": demo.DEMO_SAMPLE_RATE,
        "targets": {"intelligibility": target, "envelopment": 0.2},
        "objects": objects,
    }


def _scenario_doc(speakers: int, timeline):
    return {
        "schema": "scenario-schema v1",
        "layout": demo.ring_layout_doc(speakers),
        "listeners": [{"id": "sofa",
                       "position": {"az": 0.0, "el": 0.0, "dist": 0.0}}],
        "environment": {},
        "noise_timeline": timeline,
    }


def _floor(t_s: float, level_db: float, rng, jitter_db: float):
    bands = level_db + rng.uniform(-jitter_db, jitter_db, size=N_BANDS)
    return {"t_s": t_s, "band_levels_db": [round(float(b), 6) for b in bands]}


def live_switch_levels(duration_s: float) -> list[float]:
    """Band level per 2 s interval: alternately below and above the
    selection threshold, drifting so that no two intervals share a level."""
    count = int(np.ceil(duration_s / 2.0))
    centre = LIVE_THRESHOLD_DB - BROADBAND_OFFSET_DB
    return [
        centre + (LIVE_SWING_DB if k % 2 else -LIVE_SWING_DB) + LIVE_RAMP_DB * k
        for k in range(count)
    ]


def _write_json(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return path


def generate(name: str, seed: int, dest: str) -> WorkloadFiles:
    """Write workload `name` for `seed` into `dest` and return its paths."""
    w = WORKLOADS[name]
    os.makedirs(dest, exist_ok=True)
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    selection = DEFAULT_SELECTION_DOC
    target = demo.DEMO_INTELLIGIBILITY_TARGET
    if name == "broadcast-step":
        objects = _demo_objects(0, 0.0, rng, w.duration_s, dest)
        timeline = [
            _floor(0.0, STEP_FLOOR_DB, rng, NOISE_JITTER_DB),
            _floor(STEP_T_S, STEP_FLOOR_DB + 10.0, rng,
                   NOISE_JITTER_DB),
        ]
        target = STEP_TARGET
    elif name == "dense-ring":
        objects = []
        for copy in range(4):
            objects += _demo_objects(copy, 90.0 * copy + 15.0, rng,
                                     w.duration_s, dest)
        timeline = [_floor(0.0, DENSE_FLOOR_DB, rng, NOISE_JITTER_DB)]
    elif name == "live-switch":
        objects = []
        for copy in range(2):
            objects += _demo_objects(copy, 180.0 * copy, rng, w.duration_s, dest)
        timeline = [
            _floor(2.0 * k, level, rng, LIVE_JITTER_DB)
            for k, level in enumerate(live_switch_levels(w.duration_s))
        ]
        selection = LIVE_SELECTION_DOC
    else:  # pragma: no cover - WORKLOADS is closed
        raise KeyError(name)
    return WorkloadFiles(
        scene=_write_json(os.path.join(dest, "scene.json"), _scene_doc(objects, target)),
        scenario=_write_json(os.path.join(dest, "scenario.json"),
                             _scenario_doc(w.speakers, timeline)),
        rulebook=_write_json(os.path.join(dest, "rulebook.json"), RULEBOOK_DOC),
        selection=_write_json(os.path.join(dest, "selection.json"), selection),
    )
