"""Reproduction context: loudspeakers, listeners, room, noise, and the
per-interval context record handed to adaptation and routing.

The context tracker is the stateful piece: it remembers the previous noise
level so adaptation rules can react to noise steps.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass, replace

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
from .scene import (
    ObjectType,
    Scene,
    SceneTargets,
    echo,
    get_field,
    parse_bool,
    parse_direction,
    parse_list,
    parse_mapping,
    parse_number,
    parse_string,
    read_document,
    require_keys,
)

SCENARIO_SCHEMA_VERSION = "scenario-schema v1"

MIN_NOISE_BLOCK = 4096

# Loudest noise band level a scenario may give, in dBFS: far above any
# real noise, far below the ~3083 dB where a band's power overflows a float.
NOISE_LEVEL_DB_MAX = 200.0

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


# Default capability per device kind: usable bandwidth and intrinsic latency
# (ms). Editable data, not behaviour.
DEVICE_DEFAULTS = {
    DeviceKind.DISCRETE: (Bandwidth(40.0, 20000.0), 0.0),
    DeviceKind.TV: (Bandwidth(100.0, 16000.0), 10.0),
    DeviceKind.PHONE: (Bandwidth(300.0, 8000.0), 30.0),
    DeviceKind.TABLET: (Bandwidth(250.0, 12000.0), 25.0),
    DeviceKind.LAPTOP: (Bandwidth(200.0, 14000.0), 20.0),
    DeviceKind.SOUNDBAR: (Bandwidth(60.0, 18000.0), 15.0),
}


@dataclass(frozen=True)
class LoudspeakerDescriptor:
    speaker_id: str
    position: Direction3           # distance required, > 0
    bandwidth_hz: Bandwidth = Bandwidth(40.0, 20000.0)
    latency_ms: float = 0.0
    device_kind: DeviceKind = DeviceKind.DISCRETE


@dataclass(frozen=True)
class SpeakerLayout:
    speakers: tuple[LoudspeakerDescriptor, ...]

    def __post_init__(self):
        if not self.speakers:
            raise EmptyLayout("layout must contain at least one speaker")
        seen = set()
        for s in self.speakers:
            if s.speaker_id in seen:
                raise SchemaError(f"speaker id {s.speaker_id!r} appears twice in the layout")
            seen.add(s.speaker_id)
            if s.position.distance_m is None:
                raise SchemaError(f"speaker {s.speaker_id} position needs a distance")
            if not s.position.distance_m > 0.0:
                raise SchemaError(
                    f"speaker {s.speaker_id} distance must be > 0, "
                    f"got {echo(s.position.distance_m)}")
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
    hearing_impaired: bool = False
    intelligibility_preference: float = 0.0
    team_preference: str | None = None


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
    """The layout and the dominant listener, with the listener at the origin."""

    layout: SpeakerLayout
    listener: ListenerInfo
    room_decay_tau_s: tuple[float, ...] | None = None   # at the octave centres


@dataclass(frozen=True)
class HighLevelContext:
    """One context update: what the rules, adaptation and routing read."""

    intelligibility_deficit: float
    noise_delta_db: float
    noise_broadband_db: float
    scene_targets: SceneTargets
    listener: ListenerInfo
    measured_intelligibility: float | None = None
    effective_intelligibility_target: float = 0.0
    speaker_count: int = 0
    room_decay_tau_s: tuple[float, ...] | None = None
    # The speaker closest to the dominant listener.
    nearest_device: str | None = None


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


def proxy_window(window: tuple[int, int]) -> int:
    """A proxy's length in samples: window's, at least MIN_NOISE_BLOCK."""
    return max(window[1] - window[0], MIN_NOISE_BLOCK)


def proxy_mixes(objects, read, window: tuple[int, int]):
    """(speech, masker): the mixes a proxy scores, proxy_window(window)
    samples from window's start. read(obj, n) is obj's signal there with its
    level applied, at most n samples; dialogue objects sum into speech and
    all others into masker, in the order given. speech is None when no
    object is dialogue."""
    n = proxy_window(window)
    speech, masker = None, np.zeros(n)
    for obj in objects:
        sig = read(obj, n)
        if obj.object_type is ObjectType.DIALOGUE:
            speech = np.zeros(n) if speech is None else speech
            speech[:len(sig)] += sig
        else:
            masker[:len(sig)] += sig
    return speech, masker


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


def build_scenario(layout: SpeakerLayout, listeners,
                   room_decay_tau_s: tuple[float, ...] | None = None
                   ) -> ReproductionScenario:
    """Assemble a scenario with geometry re-expressed around the first listener.

    The first listener is the dominant one and the only one kept; when it
    sits away from the layout origin the speakers are shifted so the
    dominant listener becomes the origin.
    """
    listeners = tuple(listeners)
    if not listeners:
        raise NoListener("a scenario needs at least one listener")
    listener = listeners[0]
    if listener.position.distance_m and listener.position.distance_m > 0.0:
        origin = _to_point(listener.position)
        speakers = tuple(replace(s, position=_rereference(s.position, origin))
                         for s in layout.speakers)
        for s in speakers:
            if s.position.distance_m == 0.0:
                raise SchemaError(
                    f"listener {listener.listener_id} sits on speaker {s.speaker_id}")
        layout = SpeakerLayout(speakers)
        listener = replace(listener, position=Direction3(0.0, 0.0, 0.0))
    return ReproductionScenario(layout, listener, room_decay_tau_s)


# ---------------------------------------------------------------------------
# context tracking

def _distance_between(a: Direction3, b: Direction3) -> float:
    return float(np.linalg.norm(_to_point(a) - _to_point(b)))


class ContextTracker:
    """Derives a HighLevelContext from a scenario, a scene, the noise state
    and the measured intelligibility (None when unmeasured), remembering the
    previous noise level so rules can react to noise steps."""

    def __init__(self):
        self._previous_broadband_db: float | None = None

    def update(self, scenario: ReproductionScenario, scene: Scene,
               noise: NoiseState = SILENT_NOISE,
               measured: float | None = None) -> HighLevelContext:
        broadband = noise.broadband_db()
        delta = (0.0 if self._previous_broadband_db is None
                 else broadband - self._previous_broadband_db)
        self._previous_broadband_db = broadband

        listener = scenario.listener
        target = max(listener.intelligibility_preference,
                     scene.targets.intelligibility)
        deficit = (target - measured) if measured is not None else 0.0

        nearest = min(
            scenario.layout.speakers,
            key=lambda s: _distance_between(s.position, listener.position),
        ).speaker_id

        return HighLevelContext(
            intelligibility_deficit=deficit,
            noise_delta_db=delta,
            noise_broadband_db=broadband,
            scene_targets=scene.targets,
            listener=listener,
            measured_intelligibility=measured,
            effective_intelligibility_target=target,
            speaker_count=len(scenario.layout.speakers),
            room_decay_tau_s=scenario.room_decay_tau_s,
            nearest_device=nearest,
        )


# ---------------------------------------------------------------------------
# scenario documents

_SPEAKER_KEYS = {"id", "position", "orientation_deg", "bandwidth_hz", "latency_ms",
                 "connection_kbps", "kind"}


def parse_speaker(doc, where, device=False) -> LoudspeakerDescriptor | None:
    """A layout speaker, or with device=True a device-listing entry.

    A layout speaker takes its defaults from the discrete row of
    DEVICE_DEFAULTS, a device from its kind's row; a bandwidth that gives one
    edge takes the other from the row, and a device's null bandwidth_hz
    means the row's. A device may also carry `connected` (default true); a
    disconnected one reads as None, its fields past id and position unread.
    """
    require_keys(doc, _SPEAKER_KEYS | {"connected"} if device else _SPEAKER_KEYS, where)
    if "id" not in doc or "position" not in doc:
        raise SchemaError(f"{where} needs id and position")
    if device and not get_field(doc, "connected", where, parse_bool, True):
        return None
    kind_name = get_field(doc, "kind", where, default="discrete")
    try:
        kind = DeviceKind(kind_name)
    except ValueError:
        raise SchemaError(f"unknown device kind {echo(kind_name)} in {where}")
    bandwidth, latency_ms = DEVICE_DEFAULTS[
        kind if device else DeviceKind.DISCRETE]
    bw_where = f"{where}.bandwidth_hz"
    bw = get_field(doc, "bandwidth_hz", where, parse_mapping, {}, nullable=device) or {}
    require_keys(bw, {"low", "high"}, bw_where)
    get_field(doc, "orientation_deg", where, parse_number)
    get_field(doc, "connection_kbps", where, parse_number)
    return LoudspeakerDescriptor(
        speaker_id=get_field(doc, "id", where, parse_string),
        position=get_field(doc, "position", where, parse_direction),
        bandwidth_hz=Bandwidth(
            get_field(bw, "low", bw_where, parse_number, bandwidth.low_hz),
            get_field(bw, "high", bw_where, parse_number, bandwidth.high_hz)),
        latency_ms=get_field(doc, "latency_ms", where, parse_number, latency_ms),
        device_kind=kind,
    )


def _parse_preference(value, field) -> float:
    preference = parse_number(value, field)
    if not 0.0 <= preference <= 1.0:
        raise SchemaError(f"{field} must lie in 0..1, got {echo(value)}")
    return preference


def _parse_listener(doc, where) -> ListenerInfo:
    """A listener; language and envelopment_preference are checked, unread."""
    allowed = {"id", "position", "language", "hearing_impaired",
               "intelligibility_preference", "envelopment_preference",
               "team_preference"}
    require_keys(doc, allowed, where)
    get_field(doc, "language", where, parse_string, nullable=True)
    get_field(doc, "envelopment_preference", where, _parse_preference)
    return ListenerInfo(
        listener_id=get_field(doc, "id", where, parse_string, required=True),
        position=get_field(doc, "position", where, parse_direction,
                           Direction3(0.0, 0.0, 0.0)),
        hearing_impaired=get_field(doc, "hearing_impaired", where, parse_bool, False),
        intelligibility_preference=get_field(doc, "intelligibility_preference", where,
                                             _parse_preference, 0.0),
        team_preference=get_field(doc, "team_preference", where, parse_string,
                                  nullable=True),
    )


def _check_room_dims(doc, where) -> None:
    require_keys(doc, {"x", "y", "z"}, where)
    for axis in ("x", "y", "z"):
        get_field(doc, axis, where, parse_number, required=True)


def _parse_decay_taus(value, field) -> tuple[float, ...]:
    taus = tuple(parse_number(t, f"{field}[{i}]")
                 for i, t in enumerate(parse_list(value, field)))
    if len(taus) != len(OCTAVE_CENTERS_HZ):
        raise SchemaError(f"{field} needs {len(OCTAVE_CENTERS_HZ)} entries")
    if any(t <= 0 for t in taus):
        raise SchemaError(f"{field} entries must be > 0")
    return taus


def _check_artefact(doc, where) -> None:
    require_keys(doc, {"id", "position", "kind"}, where)
    get_field(doc, "id", where, parse_string)
    get_field(doc, "position", where, parse_direction, required=True)
    get_field(doc, "kind", where, parse_string, nullable=True)


def _parse_environment(doc, where) -> tuple[float, ...] | None:
    """The room's decay times; room_dims_m and artefacts are checked, unread."""
    require_keys(doc, {"room_dims_m", "room_decay_tau_s", "artefacts"}, where)
    get_field(doc, "room_dims_m", where, _check_room_dims, nullable=True)
    for i, artefact in enumerate(get_field(doc, "artefacts", where, parse_list, [])):
        _check_artefact(artefact, f"{where}.artefacts[{i}]")
    return get_field(doc, "room_decay_tau_s", where, _parse_decay_taus, nullable=True)


def _noise_level(value, field: str) -> float:
    level = parse_number(value, field)
    if level > NOISE_LEVEL_DB_MAX:
        raise SchemaError(
            f"{field} must be <= {NOISE_LEVEL_DB_MAX:g} dBFS, got {echo(value)}")
    return level


def parse_noise_timeline(entries) -> tuple[NoiseState, ...]:
    """Stepwise noise timeline: each entry holds from its time to the next.

    Times and band levels must be finite numbers, and band levels at most
    NOISE_LEVEL_DB_MAX; anything else raises SchemaError naming the entry's
    field.
    """
    states = []
    for i, e in enumerate(parse_list(entries, "noise_timeline")):
        where = f"noise_timeline[{i}]"
        require_keys(e, {"t_s", "band_levels_db"}, where)
        levels = get_field(e, "band_levels_db", where, parse_list, required=True)
        states.append(NoiseState(
            get_field(e, "t_s", where, parse_number, required=True),
            tuple(_noise_level(level, f"{where}.band_levels_db[{j}]")
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

    Returns (layout, listeners, room_decay_tau_s, noise_timeline); geometry
    is not yet re-referenced, call build_scenario for that.
    """
    doc = read_document(path, "scenario file")
    return scenario_from_dict(doc, base_dir=os.path.dirname(os.path.abspath(path)))


def scenario_from_dict(doc: dict, base_dir: str = "."):
    require_keys(doc, {"schema", "layout", "listeners", "environment",
                       "noise_timeline"}, "scenario")
    schema = get_field(doc, "schema", "scenario", default=SCENARIO_SCHEMA_VERSION)
    if schema != SCENARIO_SCHEMA_VERSION:
        raise SchemaError(f"unsupported scenario schema {echo(schema)}")
    layout_doc = get_field(doc, "layout", "scenario")
    if isinstance(layout_doc, str):
        layout_path = os.path.join(base_dir, layout_doc)
        layout_doc = read_document(layout_path, f"layout file {layout_path}")
    if not isinstance(layout_doc, dict):
        raise SchemaError("scenario.layout must be a mapping or a file reference")
    if "devices" in layout_doc:
        from .devices import layout_from_device_config
        layout = layout_from_device_config(layout_doc)
    else:
        require_keys(layout_doc, {"speakers"}, "scenario.layout")
        speakers = get_field(layout_doc, "speakers", "layout", parse_list, [])
        if not speakers:
            raise EmptyLayout("scenario layout lists no speakers")
        layout = SpeakerLayout(tuple(
            parse_speaker(s, f"layout.speakers[{i}]") for i, s in enumerate(speakers)))
    listeners = tuple(
        _parse_listener(l, f"listeners[{i}]")
        for i, l in enumerate(get_field(doc, "listeners", "scenario", parse_list, [])))
    if not listeners:
        raise NoListener("scenario lists no listeners")
    room_decay_tau_s = get_field(doc, "environment", "scenario", _parse_environment)
    timeline = parse_noise_timeline(
        get_field(doc, "noise_timeline", "scenario", default=[]))
    return layout, listeners, room_decay_tau_s, timeline
