"""Output checks for one benchmark render.

``check_render`` returns a list of problems (empty when the render is
correct). The checks hold on every seed:

- the WAV is finite and has one column per speaker and one row per sample;
- the per-interval RMS of each WAV channel agrees with the ``rms_db_ch*``
  rows of the metrics CSV;
- each workload's structural property (see ``_structure``).

On ``DEFAULT_SEED`` the render must also match the fingerprint in
``reference.json``: the same assignments and applied actions in every
interval, and every ``rms_db_ch*`` within ``RMS_TOL_DB``.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
from scipy.io import wavfile

from perfbench import workloads

DEFAULT_SEED = 0
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")
SAMPLE_RATE = 48000
INTERVAL_S = 2.0
LEVEL_FLOOR_DB = -120.0

# A max-abs sample change of 1e-9 moves the RMS of a channel at -100 dBFS
# by under 0.001 dB; a wrong gain, renderer or channel order moves it by
# tenths of a dB or more.
RMS_TOL_DB = 0.01

# Bound on each applied action's magnitude: a tolerance field of the scene
# document, or a fixed bound.
_BOUND = {
    "GainOffset": "level_db",
    "SpectralTilt": "spectral_tilt_db",
    "Reposition": "position_deg",
    "TimeShift": "time_shift_ms",
    "ReverbTailScale": "reverb_scale",
    "Decorrelate": 1.0,
    "Prune": math.inf,
    "Regroup": math.inf,
}


def _rms_db(x: np.ndarray) -> float:
    """RMS in dBFS floored like the metrics CSV; written here rather than
    imported from obar.dsp so the check does not trust the code it checks."""
    if x.size == 0:
        return LEVEL_FLOOR_DB
    rms = math.sqrt(float(np.mean(np.square(x, dtype=float))))
    if rms <= 10.0 ** (LEVEL_FLOOR_DB / 20.0):
        return LEVEL_FLOOR_DB
    return 20.0 * math.log10(rms)


def read_metrics(path: str) -> dict[float, dict[str, float]]:
    """t_s -> {metric name: value} from a long-format metrics CSV."""
    rows: dict[float, dict[str, float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["t_s", "metric", "value"]:
            raise ValueError("metrics CSV header is not t_s,metric,value")
        for t_s, name, value in reader:
            rows.setdefault(float(t_s), {})[name] = float(value)
    return rows


def channel_levels(metrics: dict, channels: int) -> list[list[float]]:
    return [[row[f"rms_db_ch{i}"] for i in range(channels)]
            for _, row in sorted(metrics.items())]


def fingerprint(report: dict, metrics: dict) -> dict:
    """What the default-seed reference pins for one render."""
    channels = len(report["channels"])
    return {
        "intervals": [
            {
                "t_s": iv["t_s"],
                "assignments": [
                    [a["object_id"], a["renderer"], a["subset"], a["speakers"]]
                    for a in iv["assignments"]
                ],
                "applied": [
                    [a["object_id"], a["kind"], a["clamped"]]
                    for a in iv["adaptation"]["applied"]
                ],
            }
            for iv in report["intervals"]
        ],
        "rms_db": channel_levels(metrics, channels),
    }


def _compare_fingerprint(found: dict, expected: dict) -> list[str]:
    problems = []
    if len(found["intervals"]) != len(expected["intervals"]):
        return [f"reference: {len(found['intervals'])} intervals, "
                f"expected {len(expected['intervals'])}"]
    for got, want in zip(found["intervals"], expected["intervals"]):
        for key in ("assignments", "applied"):
            if got[key] != want[key]:
                problems.append(f"reference: {key} differ at t={want['t_s']}")
    for k, (got, want) in enumerate(zip(found["rms_db"], expected["rms_db"])):
        if len(got) != len(want):
            problems.append(f"reference: channel count differs in interval {k}")
            continue
        worst = max(abs(g - w) for g, w in zip(got, want))
        if worst > RMS_TOL_DB:
            problems.append(
                f"reference: rms_db off by {worst:.4f} dB in interval {k} "
                f"(tolerance {RMS_TOL_DB} dB)")
    return problems


def _bound(kind: str, tolerances: dict) -> float:
    bound = _BOUND[kind]
    return float(tolerances[bound]) if isinstance(bound, str) else bound


def _structure(name: str, report: dict, scene_doc: dict) -> list[str]:
    problems = []
    intervals = report["intervals"]
    types = {o["id"]: o["type"] for o in scene_doc["objects"]}
    if name == "broadcast-step":
        tolerances = {o["id"]: o["constraints"]["tolerances"]
                      for o in scene_doc["objects"]}
        for iv in intervals:
            ladder = [a for a in iv["adaptation"]["applied"]
                      if a["reason"] == workloads.LADDER_RULE_ID]
            before = iv["t_s"] < workloads.STEP_T_S
            if before and ladder:
                problems.append(f"ladder fired before the step at t={iv['t_s']}")
            if not before and not ladder:
                problems.append(f"no ladder action after the step at t={iv['t_s']}")
            if iv["projected_intelligibility"] < iv["measured_intelligibility"]:
                problems.append(f"projected < measured at t={iv['t_s']}")
            for a in iv["adaptation"]["applied"]:
                if a["clamped"] > _bound(a["kind"], tolerances[a["object_id"]]):
                    problems.append(
                        f"{a['kind']} on {a['object_id']} exceeds its tolerance "
                        f"at t={iv['t_s']}")
    elif name == "dense-ring":
        first = intervals[0]["adaptation"]["applied"]
        for iv in intervals:
            if len(iv["assignments"]) != len(types):
                problems.append(f"{len(iv['assignments'])} assignments at "
                                f"t={iv['t_s']}, expected {len(types)}")
            if iv["crossfades"]:
                problems.append(f"crossfade at t={iv['t_s']}")
            if iv["adaptation"]["applied"] != first:
                problems.append(f"adaptation differs from the first at t={iv['t_s']}")
    elif name == "live-switch":
        switching = {oid for oid, kind in types.items()
                     if kind in ("music", "ambience")}
        if intervals[0]["crossfades"]:
            problems.append("crossfade in the first interval")
        for iv in intervals[1:]:
            faded = {x["object_id"] for x in iv["crossfades"]}
            if faded != switching:
                problems.append(f"crossfades at t={iv['t_s']} cover "
                                f"{sorted(faded)}, expected {sorted(switching)}")
    return problems


def check_render(name: str, seed: int, files, wav_path: str,
                 metrics_path: str, report_path: str,
                 reference: dict | None = None) -> list[str]:
    """Every problem with one render's outputs; empty when it is correct."""
    w = workloads.WORKLOADS[name]
    try:
        rate, data = wavfile.read(wav_path)
        metrics = read_metrics(metrics_path)
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        with open(files.scene, encoding="utf-8") as fh:
            scene_doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]

    expected_shape = (int(round(w.duration_s * SAMPLE_RATE)), w.speakers)
    if rate != SAMPLE_RATE or data.ndim != 2 or data.shape != expected_shape:
        return [f"output is {data.shape} at {rate} Hz, expected "
                f"{expected_shape} at {SAMPLE_RATE} Hz"]
    if not np.all(np.isfinite(data)):
        return ["output holds non-finite samples"]

    problems = []
    interval = int(round(INTERVAL_S * SAMPLE_RATE))
    times = sorted(metrics)
    if len(times) != len(report["intervals"]):
        problems.append("metrics CSV and report disagree on interval count")
    for t_s, row in zip(times, channel_levels(metrics, w.speakers)):
        t0 = int(round(t_s * SAMPLE_RATE))
        wav_levels = [_rms_db(data[t0:t0 + interval, i]) for i in range(w.speakers)]
        worst = max(abs(a - b) for a, b in zip(wav_levels, row))
        if worst > RMS_TOL_DB:
            problems.append(f"WAV channel levels disagree with the metrics CSV "
                            f"by {worst:.4f} dB at t={t_s}")
    problems += _structure(name, report, scene_doc)

    if seed == DEFAULT_SEED:
        if reference is None:
            reference = load_reference()
        if name not in reference:
            problems.append(f"reference.json has no fingerprint for {name}")
        else:
            problems += _compare_fingerprint(fingerprint(report, metrics),
                                             reference[name])
    return problems


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)
