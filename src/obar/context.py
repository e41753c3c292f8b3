"""Reproduction context: loudspeakers, listeners, room, noise, and the
per-render contextual information handed to adaptation and routing.

The context tracker is the stateful piece: it remembers the previous noise
level so adaptation rules can react to noise steps.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .dsp import LEVEL_FLOOR_DB, OCTAVE_CENTERS_HZ, octave_band_levels, power_sum_db
from .errors import (
    BlockTooShort,
    EmptyLayout,
    LengthMismatch,
    NoListener,
    SchemaError,
)
from .geometry import Direction3, from_cartesian
from .scene import Scene, SceneTargets, parse_number, read_document

SCENARIO_SCHEMA_VERSION = "scenario-schema v1"

MIN_NOISE_BLOCK = 4096

# Octave-band signal-to-noise ratios map to a 0..1 proxy score: each band
# contributes linearly between -15 dB (useless) and +15 dB (fully usable).
SNR_FLOOR_DB = -15.0
SNR_CEIL_DB = 15.0


class DeviceKind(enum.Enum):
    DISCRETE = "discrete"
    TV = "tv"
    PHONE = "phone"
    TABLET = "tablet"
    LAPTOP = "laptop"
    SOUNDBAR = "soundbar"


@dataclass(frozen=True)
class Bandwidth:
    low_hz: float
    high_hz: float


@dataclass(frozen=True)
class LoudspeakerDescriptor:
    speaker_id: str
    position: Direction3           # distance required
    orientation_deg: float = 0.0
    bandwidth_hz: Bandwidth = Bandwidth(40.0, 20000.0)
    latency_ms: float = 0.0
    connection_kbps: float = 10000.0
    device_kind: DeviceKind = DeviceKind.DISCRETE


@dataclass(frozen=True)
class SpeakerLayout:
    speakers: tuple[LoudspeakerDescriptor, ...]

    def __post_init__(self):
        if not self.speakers:
            raise EmptyLayout("layout must contain at least one speaker")
        for s in self.speakers:
            if s.position.distance_m is None:
                raise SchemaError(f"speaker {s.speaker_id} position needs a distance")
            if s.bandwidth_hz.low_hz >= s.bandwidth_hz.high_hz:
                raise SchemaError(
                    f"speaker {s.speaker_id} bandwidth low >= high")

    def ids(self) -> tuple[str, ...]:
        return tuple(s.speaker_id for s in self.speakers)

    def by_id(self, speaker_id: str) -> LoudspeakerDescriptor:
        for s in self.speakers:
            if s.speaker_id == speaker_id:
                return s
        raise KeyError(speaker_id)


@dataclass(frozen=True)
class ListenerInfo:
    listener_id: str
    position: Direction3
    language: str | None = None
    hearing_impaired: bool = False
    intelligibility_preference: float = 0.0
    envelopment_preference: float = 0.0
    team_preference: str | None = None


@dataclass(frozen=True)
class Artefact:
    artefact_id: str
    position: Direction3
    kind: str = "unknown"


@dataclass(frozen=True)
class EnvironmentInfo:
    room_dims_m: tuple[float, float, float] | None = None
    room_decay_tau_s: tuple[float, ...] | None = None   # at the octave centres
    artefacts: tuple[Artefact, ...] = ()


@dataclass(frozen=True)
class NoiseState:
    """Per-octave-band noise levels at one instant, floored at -120 dBFS."""

    timestamp_s: float
    band_levels_db: tuple[float, ...]

    def __post_init__(self):
        if len(self.band_levels_db) != len(OCTAVE_CENTERS_HZ):
            raise SchemaError(
                f"noise state needs {len(OCTAVE_CENTERS_HZ)} band levels")
        object.__setattr__(
            self, "band_levels_db",
            tuple(max(float(l), LEVEL_FLOOR_DB) for l in self.band_levels_db))

    def broadband_db(self) -> float:
        return power_sum_db(self.band_levels_db)


SILENT_NOISE = NoiseState(0.0, (LEVEL_FLOOR_DB,) * len(OCTAVE_CENTERS_HZ))


@dataclass(frozen=True)
class ReproductionScenario:
    layout: SpeakerLayout
    listeners: tuple[ListenerInfo, ...]
    environment: EnvironmentInfo = EnvironmentInfo()
    noise: NoiseState = SILENT_NOISE

    @property
    def dominant_listener(self) -> ListenerInfo:
        return self.listeners[0]


@dataclass(frozen=True)
class HighLevelContext:
    intelligibility_deficit: float
    noise_delta_db: float
    noise_broadband_db: float
    dominant_listener: str
    scene_targets: SceneTargets
    measured_intelligibility: float | None = None
    effective_intelligibility_target: float = 0.0
    listener: ListenerInfo | None = None
    speaker_count: int = 0
    room_decay_tau_s: tuple[float, ...] | None = None
    # The speaker closest to the dominant listener.
    nearest_device: str | None = None


@dataclass(frozen=True)
class ContextualInfo:
    high_level: HighLevelContext


@dataclass(frozen=True)
class Monitoring:
    """Measured inputs to a context update; both parts optional."""

    noise: NoiseState | None = None
    intelligibility: float | None = None


# ---------------------------------------------------------------------------
# estimation

def band_snr_score(speech_bands_db, masker_bands_db) -> float:
    """Mean usable fraction over octave bands; monotone in every band SNR."""
    score = 0.0
    for s, m in zip(speech_bands_db, masker_bands_db):
        snr = s - m
        score += min(max((snr - SNR_FLOOR_DB) / (SNR_CEIL_DB - SNR_FLOOR_DB), 0.0), 1.0)
    return score / len(OCTAVE_CENTERS_HZ)


def estimate_intelligibility(dialogue_block: np.ndarray, masker_block: np.ndarray,
                             sample_rate: int) -> float:
    """Proxy intelligibility of dialogue against a masker, in [0, 1]."""
    dialogue_block = np.asarray(dialogue_block, dtype=float)
    masker_block = np.asarray(masker_block, dtype=float)
    if len(dialogue_block) != len(masker_block):
        raise LengthMismatch(
            f"dialogue ({len(dialogue_block)}) and masker ({len(masker_block)}) "
            "blocks must be equally long")
    if len(dialogue_block) < MIN_NOISE_BLOCK:
        raise BlockTooShort(
            f"intelligibility estimation needs >= {MIN_NOISE_BLOCK} samples, "
            f"got {len(dialogue_block)}")
    return band_snr_score(
        octave_band_levels(dialogue_block, sample_rate),
        octave_band_levels(masker_block, sample_rate),
    )


# ---------------------------------------------------------------------------
# scenario assembly

def _to_point(d: Direction3) -> np.ndarray:
    r = d.distance_m if d.distance_m is not None else 0.0
    az, el = math.radians(d.az_deg), math.radians(d.el_deg)
    return np.array([r * math.cos(el) * math.cos(az),
                     r * math.cos(el) * math.sin(az),
                     r * math.sin(el)])


def _rereference(d: Direction3, origin: np.ndarray) -> Direction3:
    p = _to_point(d) - origin
    return from_cartesian(p[0], p[1], p[2])


def build_scenario(layout: SpeakerLayout, listeners, environment: EnvironmentInfo,
                   noise: NoiseState = SILENT_NOISE) -> ReproductionScenario:
    """Assemble a scenario with geometry re-expressed around the first listener.

    The first listener is the dominant one; when it sits away from the layout
    origin every position (speakers, artefacts, other listeners) is shifted so
    the dominant listener becomes the origin.
    """
    listeners = tuple(listeners)
    if not listeners:
        raise NoListener("a scenario needs at least one listener")
    dominant = listeners[0]
    if dominant.position.distance_m and dominant.position.distance_m > 0.0:
        origin = _to_point(dominant.position)
        layout = SpeakerLayout(tuple(
            replace(s, position=_rereference(s.position, origin))
            for s in layout.speakers))
        environment = replace(environment, artefacts=tuple(
            replace(a, position=_rereference(a.position, origin))
            for a in environment.artefacts))
        listeners = tuple(
            replace(l, position=_rereference(l.position, origin)) for l in listeners)
        listeners = (replace(dominant, position=Direction3(0.0, 0.0, 0.0)),
                     *listeners[1:])
    return ReproductionScenario(layout=layout, listeners=listeners,
                                environment=environment, noise=noise)


# ---------------------------------------------------------------------------
# context tracking

def _distance_between(a: Direction3, b: Direction3) -> float:
    return float(np.linalg.norm(_to_point(a) - _to_point(b)))


class ContextTracker:
    """Derives ContextualInfo from a scenario and scene, holding noise history."""

    def __init__(self):
        self._previous_broadband_db: float | None = None

    def update(self, scenario: ReproductionScenario, scene: Scene,
               monitoring: Monitoring | None = None) -> ContextualInfo:
        noise = scenario.noise
        measured = None
        if monitoring is not None:
            if monitoring.noise is not None:
                noise = monitoring.noise
            measured = monitoring.intelligibility
        broadband = noise.broadband_db()
        delta = (0.0 if self._previous_broadband_db is None
                 else broadband - self._previous_broadband_db)
        self._previous_broadband_db = broadband

        listener = scenario.dominant_listener
        target = max(listener.intelligibility_preference,
                     scene.targets.intelligibility)
        deficit = (target - measured) if measured is not None else 0.0

        nearest = min(
            scenario.layout.speakers,
            key=lambda s: _distance_between(s.position, listener.position),
        ).speaker_id

        high = HighLevelContext(
            intelligibility_deficit=deficit,
            noise_delta_db=delta,
            noise_broadband_db=broadband,
            dominant_listener=listener.listener_id,
            scene_targets=scene.targets,
            measured_intelligibility=measured,
            effective_intelligibility_target=target,
            listener=listener,
            speaker_count=len(scenario.layout.speakers),
            room_decay_tau_s=scenario.environment.room_decay_tau_s,
            nearest_device=nearest,
        )
        return ContextualInfo(high_level=high)


# ---------------------------------------------------------------------------
# scenario documents

def _require_keys(mapping, allowed, context):
    if not isinstance(mapping, dict):
        raise SchemaError(f"{context} must be a mapping")
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise SchemaError(f"unknown field {sorted(unknown)[0]!r} in {context}")


def _parse_position(doc, context, need_distance=True) -> Direction3:
    _require_keys(doc, {"az", "el", "dist"}, context)
    if need_distance and doc.get("dist") is None:
        raise SchemaError(f"{context}.dist is required")
    dist = doc.get("dist")
    return Direction3(parse_number(doc.get("az", 0.0), f"{context}.az"),
                      parse_number(doc.get("el", 0.0), f"{context}.el"),
                      None if dist is None else parse_number(dist, f"{context}.dist"))


def _parse_speaker(doc, context) -> LoudspeakerDescriptor:
    allowed = {"id", "position", "orientation_deg", "bandwidth_hz",
               "latency_ms", "connection_kbps", "kind"}
    _require_keys(doc, allowed, context)
    if "id" not in doc or "position" not in doc:
        raise SchemaError(f"{context} needs id and position")
    bw = doc.get("bandwidth_hz", {"low": 40.0, "high": 20000.0})
    _require_keys(bw, {"low", "high"}, f"{context}.bandwidth_hz")
    try:
        kind = DeviceKind(doc.get("kind", "discrete"))
    except ValueError:
        raise SchemaError(f"unknown device kind {doc.get('kind')!r} in {context}")
    return LoudspeakerDescriptor(
        speaker_id=str(doc["id"]),
        position=_parse_position(doc["position"], f"{context}.position"),
        orientation_deg=parse_number(doc.get("orientation_deg", 0.0),
                                     f"{context}.orientation_deg"),
        bandwidth_hz=Bandwidth(
            parse_number(bw.get("low", 40.0), f"{context}.bandwidth_hz.low"),
            parse_number(bw.get("high", 20000.0), f"{context}.bandwidth_hz.high")),
        latency_ms=parse_number(doc.get("latency_ms", 0.0), f"{context}.latency_ms"),
        connection_kbps=parse_number(doc.get("connection_kbps", 10000.0),
                                     f"{context}.connection_kbps"),
        device_kind=kind,
    )


def _parse_listener(doc, context) -> ListenerInfo:
    allowed = {"id", "position", "language", "hearing_impaired",
               "intelligibility_preference", "envelopment_preference",
               "team_preference"}
    _require_keys(doc, allowed, context)
    if "id" not in doc:
        raise SchemaError(f"{context} needs an id")
    pos = doc.get("position", {"az": 0.0, "el": 0.0, "dist": 0.0})
    return ListenerInfo(
        listener_id=str(doc["id"]),
        position=_parse_position(pos, f"{context}.position", need_distance=False),
        language=doc.get("language"),
        hearing_impaired=bool(doc.get("hearing_impaired", False)),
        intelligibility_preference=parse_number(
            doc.get("intelligibility_preference", 0.0),
            f"{context}.intelligibility_preference"),
        envelopment_preference=parse_number(
            doc.get("envelopment_preference", 0.0), f"{context}.envelopment_preference"),
        team_preference=doc.get("team_preference"),
    )


def _parse_environment(doc) -> EnvironmentInfo:
    _require_keys(doc, {"room_dims_m", "room_decay_tau_s", "artefacts"}, "environment")
    dims = doc.get("room_dims_m")
    if dims is not None:
        _require_keys(dims, {"x", "y", "z"}, "environment.room_dims_m")
        dims = tuple(parse_number(dims.get(axis), f"environment.room_dims_m.{axis}")
                     for axis in ("x", "y", "z"))
    taus = doc.get("room_decay_tau_s")
    if taus is not None:
        if not isinstance(taus, (list, tuple)):
            raise SchemaError("environment.room_decay_tau_s must be a list")
        taus = tuple(parse_number(t, f"environment.room_decay_tau_s[{i}]")
                     for i, t in enumerate(taus))
        if len(taus) != len(OCTAVE_CENTERS_HZ):
            raise SchemaError(
                f"environment.room_decay_tau_s needs {len(OCTAVE_CENTERS_HZ)} entries")
        if any(t <= 0 for t in taus):
            raise SchemaError("environment.room_decay_tau_s entries must be > 0")
    artefacts = []
    for i, a in enumerate(doc.get("artefacts", [])):
        ctx = f"environment.artefacts[{i}]"
        _require_keys(a, {"id", "position", "kind"}, ctx)
        artefacts.append(Artefact(
            artefact_id=str(a.get("id", f"artefact{i}")),
            position=_parse_position(a["position"], f"{ctx}.position", need_distance=False),
            kind=a.get("kind", "unknown"),
        ))
    return EnvironmentInfo(room_dims_m=dims, room_decay_tau_s=taus,
                           artefacts=tuple(artefacts))


def parse_noise_timeline(entries) -> tuple[NoiseState, ...]:
    """Stepwise noise timeline: each entry holds from its time to the next.

    Times and band levels must be finite numbers; anything else raises
    SchemaError naming the entry's field.
    """
    if not isinstance(entries, (list, tuple)):
        raise SchemaError("noise_timeline must be a list")
    states = []
    for i, e in enumerate(entries):
        ctx = f"noise_timeline[{i}]"
        _require_keys(e, {"t_s", "band_levels_db"}, ctx)
        if "t_s" not in e or "band_levels_db" not in e:
            raise SchemaError(f"{ctx} needs t_s and band_levels_db")
        levels = e["band_levels_db"]
        if not isinstance(levels, (list, tuple)):
            raise SchemaError(f"{ctx}.band_levels_db must be a list")
        states.append(NoiseState(
            parse_number(e["t_s"], f"{ctx}.t_s"),
            tuple(parse_number(level, f"{ctx}.band_levels_db[{j}]")
                  for j, level in enumerate(levels))))
    if [s.timestamp_s for s in states] != sorted(s.timestamp_s for s in states):
        raise SchemaError("noise_timeline must ascend by t_s")
    return tuple(states)


def noise_at(timeline, t_s: float) -> NoiseState:
    """The timeline state in force at time t_s (silence before the first entry)."""
    current = SILENT_NOISE
    for state in timeline:
        if state.timestamp_s <= t_s:
            current = state
        else:
            break
    return current


def parse_scenario(path: str):
    """Parse a scenario document.

    Returns (layout, listeners, environment, noise_timeline); geometry is not
    yet re-referenced, call build_scenario for that.
    """
    doc = read_document(path, "scenario file")
    return scenario_from_dict(doc, base_dir=os.path.dirname(os.path.abspath(path)))


def scenario_from_dict(doc: dict, base_dir: str = "."):
    _require_keys(doc, {"schema", "layout", "listeners", "environment",
                        "noise_timeline"}, "scenario")
    if doc.get("schema", SCENARIO_SCHEMA_VERSION) != SCENARIO_SCHEMA_VERSION:
        raise SchemaError(f"unsupported scenario schema {doc.get('schema')!r}")
    layout_doc = doc.get("layout")
    if isinstance(layout_doc, str):
        layout_path = os.path.join(base_dir, layout_doc)
        layout_doc = read_document(layout_path, f"layout file {layout_path}")
    if not isinstance(layout_doc, dict):
        raise SchemaError("scenario.layout must be a mapping or a file reference")
    if "devices" in layout_doc:
        from .devices import layout_from_device_config
        layout = layout_from_device_config(layout_doc)
    else:
        _require_keys(layout_doc, {"speakers"}, "scenario.layout")
        speakers = [
            _parse_speaker(s, f"layout.speakers[{i}]")
            for i, s in enumerate(layout_doc.get("speakers", []))
        ]
        if not speakers:
            raise EmptyLayout("scenario layout lists no speakers")
        layout = SpeakerLayout(tuple(speakers))
    listeners = [
        _parse_listener(l, f"listeners[{i}]")
        for i, l in enumerate(doc.get("listeners", []))
    ]
    if not listeners:
        raise NoListener("scenario lists no listeners")
    environment = _parse_environment(doc.get("environment", {}))
    timeline = parse_noise_timeline(doc.get("noise_timeline", []))
    return layout, tuple(listeners), environment, timeline
