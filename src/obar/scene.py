"""Scene model: audio objects, their metadata, and the scene document format.

A scene is a set of audio objects, each pairing mono stems with rendering
metadata, plus scene-wide reproduction targets. The on-disk form is JSON
(documented in docs/scene-schema-v1.md); serialization is deterministic so
identical scenes produce identical bytes.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .dsp import Directive
from .errors import MissingStem, RangeError, RateMismatch, SchemaError
from .geometry import Direction3
from .renderclass import KNOWN_RENDERER_NAMES
from .wavio import read_stem

SCHEMA_VERSION = "scene-schema v1"

# Perceptual properties an adaptation may trade against each other, default
# order from most protected to most expendable.
DEFAULT_PRIORITY_ORDER = (
    "intelligibility",
    "position",
    "locatedness",
    "scale",
    "envelopment",
    "velocity",
    "level",
)
PERCEPTUAL_PROPERTIES = frozenset(DEFAULT_PRIORITY_ORDER)

LEVEL_DB_MIN = -60.0
LEVEL_DB_MAX = 12.0


class ObjectType(enum.Enum):
    DIALOGUE = "dialogue"
    MUSIC = "music"
    AMBIENCE = "ambience"
    EFFECT = "effect"
    DIFFUSE = "diffuse"
    HOA = "hoa"


@dataclass(frozen=True)
class Stem:
    """A mono signal buffer plus the reference it was loaded from."""

    ref: str
    sample_rate: int
    samples: np.ndarray = field(repr=False)

    def __eq__(self, other):
        if not isinstance(other, Stem):
            return NotImplemented
        return (
            self.ref == other.ref
            and self.sample_rate == other.sample_rate
            and np.array_equal(self.samples, other.samples)
        )

    def __hash__(self):
        return hash((self.ref, self.sample_rate, len(self.samples)))


@dataclass(frozen=True)
class Tolerances:
    """Half-range editorial tolerances for adaptation, per property."""

    level_db: float = 6.0
    position_deg: float = 15.0
    time_shift_ms: float = 100.0
    spectral_tilt_db: float = 6.0
    reverb_scale: float = 0.5


@dataclass(frozen=True)
class EditorialConstraints:
    tolerances: Tolerances = Tolerances()
    priority_order: tuple[str, ...] = DEFAULT_PRIORITY_ORDER


@dataclass(frozen=True)
class AdvancedMetadata:
    importance: int = 5
    onscreen: bool = False
    interactivity_restriction: bool = False
    preferred_renderer: str | None = None
    target_device: str | None = None
    language: str | None = None
    object_quality: float = 1.0
    extra: tuple[tuple[str, object], ...] = ()

    def extra_dict(self) -> dict:
        return dict(self.extra)


@dataclass(frozen=True)
class Reflection:
    delay_ms: float
    direction: Direction3
    level_db: float


@dataclass(frozen=True)
class TailBand:
    band_center_hz: float
    onset_ms: float
    attack_ms: float
    level_db: float
    decay_tau_s: float


@dataclass(frozen=True)
class ReverbMetadata:
    reflections: tuple[Reflection, ...] = ()
    tail_bands: tuple[TailBand, ...] = ()


@dataclass(frozen=True)
class AudioObject:
    object_id: str
    object_type: ObjectType
    stems: tuple[Stem, ...]
    channels: int = 1
    group: str | None = None
    priority: int = 5
    level_db: float = 0.0
    position: Direction3 | None = None
    extent_deg: float | None = None
    diffuseness: float = 0.0
    advanced: AdvancedMetadata = AdvancedMetadata()
    constraints: EditorialConstraints = EditorialConstraints()
    reverb: ReverbMetadata | None = None
    # Render-time signal edits queued by adaptation; never serialized.
    directives: tuple[Directive, ...] = ()


def mono_mix(obj: AudioObject, window: tuple[int, int] | None = None) -> np.ndarray:
    """The mono signal an object renders as: the mean of its non-empty stems.

    window = (start, stop) limits the mix to that sample range; the result
    equals the same slice of the full mix. An object with one non-empty
    stem mixes to that stem itself: the result is a read-only view of the
    stem's samples (windowed or not), not a copy.
    """
    arrays = [np.asarray(s.samples, dtype=float) for s in obj.stems if len(s.samples)]
    if not arrays:
        return np.zeros(0)
    if window is not None:
        arrays = [a[window[0]:window[1]] for a in arrays]
    if len(arrays) == 1:
        view = arrays[0].view()
        view.flags.writeable = False
        return view
    out = np.zeros(max(len(a) for a in arrays))
    for a in arrays:
        out[: len(a)] += a
    return out / len(arrays)


@dataclass(frozen=True)
class SceneTargets:
    envelopment: float = 0.0
    intelligibility: float = 0.0


@dataclass(frozen=True)
class Scene:
    sample_rate: int
    targets: SceneTargets
    objects: tuple[AudioObject, ...]

    @property
    def duration_samples(self) -> int:
        return max((len(s.samples) for o in self.objects for s in o.stems), default=0)

    def object_by_id(self, object_id: str) -> AudioObject:
        for obj in self.objects:
            if obj.object_id == object_id:
                return obj
        raise KeyError(object_id)

    def with_objects(self, objects) -> "Scene":
        return replace(self, objects=tuple(objects))


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by validate_scene."""

    object_id: str | None
    field: str
    message: str


# ---------------------------------------------------------------------------
# validation

def _check_num(records, obj_id, name, value, lo=None, hi=None,
               lo_open=False, hi_open=False, integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        records.append(Violation(obj_id, name, f"{name} must be numeric"))
        return
    if isinstance(value, int):
        pass  # exact, and may lie beyond float range
    elif integer and not float(value).is_integer():
        records.append(Violation(obj_id, name, f"{name} must be an integer"))
        return
    elif not math.isfinite(value):
        records.append(Violation(obj_id, name, f"{name} must be finite"))
        return
    if lo is not None and (value <= lo if lo_open else value < lo):
        records.append(Violation(obj_id, name, f"{name}={value} below range"))
    if hi is not None and (value >= hi if hi_open else value > hi):
        records.append(Violation(obj_id, name, f"{name}={value} above range"))


def _validate_direction(records, obj_id, name, d: Direction3, need_distance=False):
    _check_num(records, obj_id, f"{name}.az", d.az_deg, -180.0, 180.0, lo_open=True)
    _check_num(records, obj_id, f"{name}.el", d.el_deg, -90.0, 90.0)
    if d.distance_m is not None:
        _check_num(records, obj_id, f"{name}.dist", d.distance_m, 0.0, lo_open=True)
    elif need_distance:
        records.append(Violation(obj_id, f"{name}.dist", "distance required"))


def validate_scene(scene: Scene) -> list[Violation]:
    """All invariant violations in a scene; empty when the scene is valid."""
    records: list[Violation] = []
    _check_num(records, None, "sample_rate", scene.sample_rate, 1, integer=True)
    _check_num(records, None, "targets.envelopment", scene.targets.envelopment, 0.0, 1.0)
    _check_num(records, None, "targets.intelligibility", scene.targets.intelligibility, 0.0, 1.0)
    seen = set()
    for obj in scene.objects:
        oid = obj.object_id
        if not oid:
            records.append(Violation(oid, "id", "object id must be non-empty"))
        if oid in seen:
            records.append(Violation(oid, "id", f"duplicate object id {oid!r}"))
        seen.add(oid)
        _check_num(records, oid, "channels", obj.channels, 1, integer=True)
        if len(obj.stems) != obj.channels:
            records.append(Violation(
                oid, "stems", f"{len(obj.stems)} stems for {obj.channels} channels"))
        _check_num(records, oid, "priority", obj.priority, 0, 10, integer=True)
        _check_num(records, oid, "level_db", obj.level_db, LEVEL_DB_MIN, LEVEL_DB_MAX)
        if obj.position is not None:
            _validate_direction(records, oid, "position", obj.position)
        if obj.extent_deg is not None:
            _check_num(records, oid, "extent_deg", obj.extent_deg, 0.0, 360.0, hi_open=True)
        _check_num(records, oid, "diffuseness", obj.diffuseness, 0.0, 1.0)
        adv = obj.advanced
        _check_num(records, oid, "advanced.importance", adv.importance, 0, 10, integer=True)
        _check_num(records, oid, "advanced.object_quality", adv.object_quality, 0.0, 1.0)
        if adv.preferred_renderer is not None and adv.preferred_renderer not in KNOWN_RENDERER_NAMES:
            records.append(Violation(
                oid, "advanced.preferred_renderer",
                f"unknown renderer class {adv.preferred_renderer!r}"))
        tol = obj.constraints.tolerances
        _check_num(records, oid, "tolerances.level_db", tol.level_db, 0.0)
        _check_num(records, oid, "tolerances.position_deg", tol.position_deg, 0.0)
        _check_num(records, oid, "tolerances.time_shift_ms", tol.time_shift_ms, 0.0)
        _check_num(records, oid, "tolerances.spectral_tilt_db", tol.spectral_tilt_db, 0.0)
        _check_num(records, oid, "tolerances.reverb_scale", tol.reverb_scale, 0.0, 1.0, hi_open=True)
        order = obj.constraints.priority_order
        if len(order) != len(set(order)):
            records.append(Violation(oid, "priority_order", "duplicate properties"))
        if not order:
            records.append(Violation(oid, "priority_order", "must not be empty"))
        for prop in order:
            if prop not in PERCEPTUAL_PROPERTIES:
                records.append(Violation(oid, "priority_order", f"unknown property {prop!r}"))
        if obj.reverb is not None:
            for i, refl in enumerate(obj.reverb.reflections):
                _check_num(records, oid, f"reverb.reflections[{i}].delay_ms", refl.delay_ms, 0.0)
                _validate_direction(records, oid, f"reverb.reflections[{i}].direction", refl.direction)
            centers = [b.band_center_hz for b in obj.reverb.tail_bands]
            if centers != sorted(centers):
                records.append(Violation(oid, "reverb.tail_bands", "bands must ascend by centre"))
            for i, band in enumerate(obj.reverb.tail_bands):
                _check_num(records, oid, f"reverb.tail_bands[{i}].band_center_hz",
                           band.band_center_hz, 0.0, lo_open=True)
                _check_num(records, oid, f"reverb.tail_bands[{i}].onset_ms", band.onset_ms, 0.0)
                _check_num(records, oid, f"reverb.tail_bands[{i}].attack_ms", band.attack_ms, 0.0)
                _check_num(records, oid, f"reverb.tail_bands[{i}].decay_tau_s",
                           band.decay_tau_s, 0.0, lo_open=True)
        for stem in obj.stems:
            if stem.sample_rate != scene.sample_rate:
                records.append(Violation(
                    oid, "stems",
                    f"stem {stem.ref} rate {stem.sample_rate} != scene {scene.sample_rate}"))
    return records


# ---------------------------------------------------------------------------
# parsing

def _require_keys(mapping, allowed, context):
    if not isinstance(mapping, dict):
        raise SchemaError(f"{context} must be a mapping")
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise SchemaError(f"unknown field {sorted(unknown)[0]!r} in {context}")


def _get(mapping, key, default=None, required=False, context=""):
    if key not in mapping:
        if required:
            raise SchemaError(f"missing field {key!r} in {context}")
        return default
    return mapping[key]


def parse_number(value, field: str) -> float:
    """A document's numeric field as a finite float.

    Every numeric field of the scene, scenario, devices and rulebook
    documents is read through here. Anything but a number (a string, list,
    mapping, boolean or null) and any non-finite value (NaN, +-Infinity, an
    integer beyond float range) raises SchemaError naming the field.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise SchemaError(f"{field} must be a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(f"{field} must be finite, got {value}")
    return number


def parse_integer(value, field: str) -> int:
    """A document's integer field as an int.

    Every integer field of an object (channels, priority,
    advanced.importance) is read through here. Anything but a number
    (including a boolean) and any number that is not whole or not finite
    raises SchemaError naming the field; a whole float such as 2.0 becomes
    the int 2. Range checks are left to validate_scene.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise SchemaError(f"{field} must be an integer, got {type(value).__name__}")
    if isinstance(value, numbers.Integral):
        return int(value)
    number = parse_number(value, field)
    if not number.is_integer():
        raise SchemaError(f"{field} must be an integer, got {value}")
    return int(number)


def read_document(path: str, what: str):
    """The JSON document at path, read as UTF-8.

    Every document file (scene, scenario, layout, rulebook, selection table,
    device listing) is read through here. A file that cannot be read, and
    text the JSON reader rejects (malformed JSON, bytes that are not UTF-8,
    an integer literal beyond the reader's digit limit), raise SchemaError
    naming what was being read.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {what}: {exc}") from exc
    except ValueError as exc:
        raise SchemaError(f"{what} is not valid JSON: {exc}") from exc


def _integer(mapping, key, default, context):
    """_get an integer field and parse it with parse_integer."""
    return parse_integer(_get(mapping, key, default), f"{context}.{key}")


def _number(mapping, key, default=None, required=False, context=""):
    """_get a numeric field and parse it with parse_number."""
    return parse_number(_get(mapping, key, default, required, context),
                        f"{context}.{key}")


def _parse_direction(doc, context) -> Direction3:
    _require_keys(doc, {"az", "el", "dist"}, context)
    dist = _get(doc, "dist", None)
    return Direction3(
        _number(doc, "az", required=True, context=context),
        _number(doc, "el", 0.0, context=context),
        None if dist is None else _number(doc, "dist", context=context))


def _parse_advanced(doc, context) -> AdvancedMetadata:
    allowed = {"importance", "onscreen", "interactivity_restriction", "preferred_renderer",
               "target_device", "language", "object_quality", "extra"}
    _require_keys(doc, allowed, context)
    extra = _get(doc, "extra", {})
    if not isinstance(extra, dict):
        raise SchemaError(f"{context}.extra must be a mapping")
    return AdvancedMetadata(
        importance=_integer(doc, "importance", 5, context),
        onscreen=bool(_get(doc, "onscreen", False)),
        interactivity_restriction=bool(_get(doc, "interactivity_restriction", False)),
        preferred_renderer=_get(doc, "preferred_renderer", None),
        target_device=_get(doc, "target_device", None),
        language=_get(doc, "language", None),
        object_quality=_get(doc, "object_quality", 1.0),
        extra=tuple(sorted((str(k), v) for k, v in extra.items())),
    )


def _parse_constraints(doc, context) -> EditorialConstraints:
    _require_keys(doc, {"tolerances", "priority_order"}, context)
    tol_doc = _get(doc, "tolerances", {})
    tol_ctx = f"{context}.tolerances"
    _require_keys(tol_doc, {"level_db", "position_deg", "time_shift_ms",
                            "spectral_tilt_db", "reverb_scale"}, tol_ctx)
    defaults = Tolerances()
    tol = Tolerances(
        level_db=_number(tol_doc, "level_db", defaults.level_db, context=tol_ctx),
        position_deg=_number(tol_doc, "position_deg", defaults.position_deg,
                             context=tol_ctx),
        time_shift_ms=_number(tol_doc, "time_shift_ms", defaults.time_shift_ms,
                              context=tol_ctx),
        spectral_tilt_db=_number(tol_doc, "spectral_tilt_db",
                                 defaults.spectral_tilt_db, context=tol_ctx),
        reverb_scale=_number(tol_doc, "reverb_scale", defaults.reverb_scale,
                             context=tol_ctx),
    )
    order = _get(doc, "priority_order", list(DEFAULT_PRIORITY_ORDER))
    if not isinstance(order, list) or not all(isinstance(p, str) for p in order):
        raise SchemaError(f"{context}.priority_order must be a list of property names")
    return EditorialConstraints(tolerances=tol, priority_order=tuple(order))


def _parse_reverb(doc, context) -> ReverbMetadata:
    _require_keys(doc, {"reflections", "tail_bands"}, context)
    reflections = []
    for i, r in enumerate(_get(doc, "reflections", [])):
        rctx = f"{context}.reflections[{i}]"
        _require_keys(r, {"delay_ms", "direction", "level_db"}, rctx)
        reflections.append(Reflection(
            delay_ms=_number(r, "delay_ms", required=True, context=rctx),
            direction=_parse_direction(_get(r, "direction", required=True, context=rctx),
                                       f"{rctx}.direction"),
            level_db=_number(r, "level_db", required=True, context=rctx),
        ))
    bands = []
    for i, b in enumerate(_get(doc, "tail_bands", [])):
        bctx = f"{context}.tail_bands[{i}]"
        _require_keys(b, {"band_center_hz", "onset_ms", "attack_ms", "level_db", "decay_tau_s"}, bctx)
        bands.append(TailBand(
            band_center_hz=_number(b, "band_center_hz", required=True, context=bctx),
            onset_ms=_number(b, "onset_ms", 0.0, context=bctx),
            attack_ms=_number(b, "attack_ms", 0.0, context=bctx),
            level_db=_number(b, "level_db", 0.0, context=bctx),
            decay_tau_s=_number(b, "decay_tau_s", required=True, context=bctx),
        ))
    return ReverbMetadata(reflections=tuple(reflections), tail_bands=tuple(bands))


_OBJECT_KEYS = {"id", "type", "channels", "group", "priority", "level_db", "position",
                "extent_deg", "diffuseness", "advanced", "constraints", "reverb", "stems"}


def _parse_object(doc, stem_dir, scene_rate, load_stems) -> AudioObject:
    _require_keys(doc, _OBJECT_KEYS, "object")
    oid = _get(doc, "id", required=True, context="object")
    if not isinstance(oid, str):
        raise SchemaError("object id must be a string")
    ctx = f"object {oid!r}"
    type_name = _get(doc, "type", required=True, context=ctx)
    try:
        otype = ObjectType(type_name)
    except ValueError:
        raise RangeError(f"unknown object type {type_name!r}", field="type", object_id=oid)
    pos_doc = _get(doc, "position", None)
    position = _parse_direction(pos_doc, f"{ctx}.position") if pos_doc is not None else None
    refs = _get(doc, "stems", required=True, context=ctx)
    if not isinstance(refs, list) or not all(isinstance(r, str) for r in refs):
        raise SchemaError(f"{ctx}.stems must be a list of file references")
    stems = []
    for ref in refs:
        path = ref if os.path.isabs(ref) else os.path.join(stem_dir, ref)
        if load_stems:
            rate, samples = read_stem(path)
            if rate != scene_rate:
                raise RateMismatch(
                    f"stem {ref} is {rate} Hz but the scene wants {scene_rate} Hz")
        else:
            rate, samples = scene_rate, np.zeros(0)
        stems.append(Stem(ref=ref, sample_rate=rate, samples=samples))
    return AudioObject(
        object_id=oid,
        object_type=otype,
        stems=tuple(stems),
        channels=_integer(doc, "channels", 1, ctx),
        group=_get(doc, "group", None),
        priority=_integer(doc, "priority", 5, ctx),
        level_db=_number(doc, "level_db", 0.0, context=ctx),
        position=position,
        extent_deg=(None if _get(doc, "extent_deg", None) is None
                    else _number(doc, "extent_deg", context=ctx)),
        diffuseness=_number(doc, "diffuseness", 0.0, context=ctx),
        advanced=_parse_advanced(_get(doc, "advanced", {}), f"{ctx}.advanced"),
        constraints=_parse_constraints(_get(doc, "constraints", {}), f"{ctx}.constraints"),
        reverb=(None if _get(doc, "reverb", None) is None
                else _parse_reverb(doc["reverb"], f"{ctx}.reverb")),
    )


def scene_from_dict(doc: dict, stem_dir: str = ".", load_stems: bool = True,
                    validate: bool = True) -> Scene:
    """Build and validate a Scene from a parsed scene document.

    validate=False skips the invariant check (the structural checks still
    run), letting callers collect the full violation list themselves.
    """
    _require_keys(doc, {"schema", "sample_rate", "targets", "objects"}, "scene")
    schema = _get(doc, "schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema {schema!r}, expected {SCHEMA_VERSION!r}")
    rate = _get(doc, "sample_rate", required=True, context="scene")
    if isinstance(rate, bool) or not isinstance(rate, int):
        raise SchemaError("scene.sample_rate must be an integer")
    targets_doc = _get(doc, "targets", {})
    _require_keys(targets_doc, {"envelopment", "intelligibility"}, "scene.targets")
    targets = SceneTargets(
        envelopment=_number(targets_doc, "envelopment", 0.0, context="scene.targets"),
        intelligibility=_number(targets_doc, "intelligibility", 0.0,
                                context="scene.targets"),
    )
    objects_doc = _get(doc, "objects", required=True, context="scene")
    if not isinstance(objects_doc, list):
        raise SchemaError("scene.objects must be a list")
    objects = tuple(
        _parse_object(o, stem_dir, rate, load_stems) for o in objects_doc
    )
    scene = Scene(sample_rate=rate, targets=targets, objects=objects)
    if validate:
        violations = validate_scene(scene)
        if violations:
            v = violations[0]
            raise RangeError(
                f"{v.message}" + (f" (object {v.object_id})" if v.object_id else ""),
                field=v.field, object_id=v.object_id)
    return scene


def parse_scene(path: str, stem_dir: str | None = None, load_stems: bool = True,
                validate: bool = True) -> Scene:
    """Parse a scene document; stem references resolve against stem_dir."""
    doc = read_document(path, "scene file")
    base = stem_dir if stem_dir is not None else os.path.dirname(os.path.abspath(path))
    return scene_from_dict(doc, stem_dir=base, load_stems=load_stems,
                           validate=validate)


# ---------------------------------------------------------------------------
# serialization

def _direction_to_dict(d: Direction3) -> dict:
    return {"az": d.az_deg, "el": d.el_deg, "dist": d.distance_m}


def scene_to_dict(scene: Scene) -> dict:
    objects = []
    for obj in scene.objects:
        objects.append({
            "id": obj.object_id,
            "type": obj.object_type.value,
            "channels": obj.channels,
            "group": obj.group,
            "priority": obj.priority,
            "level_db": obj.level_db,
            "position": None if obj.position is None else _direction_to_dict(obj.position),
            "extent_deg": obj.extent_deg,
            "diffuseness": obj.diffuseness,
            "advanced": {
                "importance": obj.advanced.importance,
                "onscreen": obj.advanced.onscreen,
                "interactivity_restriction": obj.advanced.interactivity_restriction,
                "preferred_renderer": obj.advanced.preferred_renderer,
                "target_device": obj.advanced.target_device,
                "language": obj.advanced.language,
                "object_quality": obj.advanced.object_quality,
                "extra": obj.advanced.extra_dict(),
            },
            "constraints": {
                "tolerances": {
                    "level_db": obj.constraints.tolerances.level_db,
                    "position_deg": obj.constraints.tolerances.position_deg,
                    "time_shift_ms": obj.constraints.tolerances.time_shift_ms,
                    "spectral_tilt_db": obj.constraints.tolerances.spectral_tilt_db,
                    "reverb_scale": obj.constraints.tolerances.reverb_scale,
                },
                "priority_order": list(obj.constraints.priority_order),
            },
            "reverb": None if obj.reverb is None else {
                "reflections": [
                    {"delay_ms": r.delay_ms,
                     "direction": _direction_to_dict(r.direction),
                     "level_db": r.level_db}
                    for r in obj.reverb.reflections
                ],
                "tail_bands": [
                    {"band_center_hz": b.band_center_hz, "onset_ms": b.onset_ms,
                     "attack_ms": b.attack_ms, "level_db": b.level_db,
                     "decay_tau_s": b.decay_tau_s}
                    for b in obj.reverb.tail_bands
                ],
            },
            "stems": [s.ref for s in obj.stems],
        })
    return {
        "schema": SCHEMA_VERSION,
        "sample_rate": scene.sample_rate,
        "targets": {
            "envelopment": scene.targets.envelopment,
            "intelligibility": scene.targets.intelligibility,
        },
        "objects": objects,
    }


def serialize_scene(scene: Scene) -> str:
    """Deterministic textual form: sorted keys, fixed indentation."""
    return json.dumps(scene_to_dict(scene), sort_keys=True, indent=2) + "\n"
