"""Scene model: audio objects, their metadata, and the scene document format.

A scene is a set of audio objects, each pairing mono stems with rendering
metadata, plus scene-wide reproduction targets. The on-disk form is JSON
(documented in docs/scene-schema-v1.md).
"""

from __future__ import annotations

import enum
import json
import math
import numbers
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .dsp import Directive
from .errors import RangeError, RateMismatch, SchemaError
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
    language: str | None = None
    object_quality: float = 1.0


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
    # Render-time signal edits queued by adaptation.
    directives: tuple[Directive, ...] = ()


def mono_mix(obj: AudioObject) -> np.ndarray:
    """The mono signal an object renders as: the mean of its non-empty stems.

    An object with one non-empty stem mixes to that stem itself: the result
    is a read-only view of the stem's samples, not a copy.
    """
    arrays = [np.asarray(s.samples, dtype=float) for s in obj.stems if len(s.samples)]
    if not arrays:
        return np.zeros(0)
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
        records.append(Violation(obj_id, name, f"{name}={echo(value)} below range"))
    if hi is not None and (value >= hi if hi_open else value > hi):
        records.append(Violation(obj_id, name, f"{name}={echo(value)} above range"))


def _validate_direction(records, obj_id, name, d: Direction3):
    _check_num(records, obj_id, f"{name}.az", d.az_deg, -180.0, 180.0, lo_open=True)
    _check_num(records, obj_id, f"{name}.el", d.el_deg, -90.0, 90.0)
    if d.distance_m is not None:
        _check_num(records, obj_id, f"{name}.dist", d.distance_m, 0.0, lo_open=True)


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
                f"unknown renderer class {echo(adv.preferred_renderer)}"))
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
                    f"stem {stem.ref} rate {stem.sample_rate} != scene "
                    f"{echo(scene.sample_rate)}"))
    return records


# ---------------------------------------------------------------------------
# field readers
#
# Every field of every document (scene, scenario, layout, device listing,
# rulebook, selection table) is read through these. A value of the wrong
# shape raises SchemaError naming the field's path; `where` is the path of
# the mapping being read, and a field's path is `where.key`.

ECHO_MAX_DIGITS = 20


def echo(value) -> str:
    """A document value as a diagnostic quotes it: its repr, except that an
    integer of more than ECHO_MAX_DIGITS digits is described by its length."""
    if isinstance(value, int):
        digits = len(str(abs(value)))
        if digits > ECHO_MAX_DIGITS:
            return f"an integer of {digits} digits"
    return repr(value)


def read_document(path: str, what: str):
    """The JSON document at path, read as UTF-8.

    Every document file (scene, scenario, layout, rulebook, selection table,
    device listing) is read through here. A file that cannot be read, and
    text the JSON reader rejects (malformed JSON, bytes that are not UTF-8,
    an integer literal beyond the reader's digit limit, nesting deeper than
    its recursion allows), raise SchemaError naming what was being read.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {what}: {exc}") from exc
    except ValueError as exc:
        raise SchemaError(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError(f"{what} nests too deeply to read") from None


def require_keys(mapping, allowed, where):
    """Check that mapping is a mapping and holds no key outside allowed."""
    if not isinstance(mapping, dict):
        raise SchemaError(f"{where} must be a mapping")
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise SchemaError(f"unknown field {sorted(unknown)[0]!r} in {where}")


def get_field(mapping, key, where, parse=None, default=None, required=False,
              nullable=False):
    """Field key of the mapping at path where, read as parse(value, path).

    A missing key raises SchemaError when required and otherwise gives
    default, as given. With nullable, an explicit null reads as None.
    """
    if key not in mapping:
        if required:
            raise SchemaError(f"missing field {key!r} in {where}")
        return default
    value = mapping[key]
    if parse is None or (nullable and value is None):
        return value
    return parse(value, f"{where}.{key}")


def parse_number(value, field: str) -> float:
    """A document's numeric field as a finite float.

    Anything but a number (a string, list, mapping, boolean or null) and any
    non-finite value (NaN, +-Infinity, an integer beyond float range) raises
    SchemaError naming the field.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise SchemaError(f"{field} must be a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(f"{field} must be finite, got {echo(value)}")
    return number


def parse_integer(value, field: str) -> int:
    """A document's integer field as an int.

    Anything but a number (including a boolean) and any number that is not
    whole or not finite raises SchemaError naming the field; a whole float
    such as 2.0 becomes the int 2. Range checks are left to validate_scene.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise SchemaError(f"{field} must be an integer, got {type(value).__name__}")
    if isinstance(value, numbers.Integral):
        return int(value)
    number = parse_number(value, field)
    if not number.is_integer():
        raise SchemaError(f"{field} must be an integer, got {echo(value)}")
    return int(number)


def _check_shape(value, shape, field, what):
    if not isinstance(value, shape):
        raise SchemaError(f"{field} must be {what}, got {type(value).__name__}")
    return value


def parse_list(value, field: str) -> list:
    """A document's list field: a JSON list, else SchemaError."""
    return _check_shape(value, list, field, "a list")


def parse_mapping(value, field: str) -> dict:
    """A document's mapping field: a JSON object, else SchemaError."""
    return _check_shape(value, dict, field, "a mapping")


def parse_string(value, field: str) -> str:
    """A document's string field: a JSON string, else SchemaError. Read a
    string-or-null field with get_field(..., nullable=True)."""
    return _check_shape(value, str, field, "a string")


def parse_bool(value, field: str) -> bool:
    """A document's flag: JSON true or false, else SchemaError."""
    return _check_shape(value, bool, field, "true or false")


def parse_direction(doc, where) -> Direction3:
    """A position {az, el, dist}: az and el default to 0; dist absent or
    null gives a direction without distance."""
    require_keys(doc, {"az", "el", "dist"}, where)
    return Direction3(
        get_field(doc, "az", where, parse_number, 0.0),
        get_field(doc, "el", where, parse_number, 0.0),
        get_field(doc, "dist", where, parse_number, nullable=True))


# ---------------------------------------------------------------------------
# scene documents

def _parse_advanced(doc, where) -> AdvancedMetadata:
    """Advanced metadata; target_device and extra are checked, unread."""
    allowed = {"importance", "onscreen", "interactivity_restriction", "preferred_renderer",
               "target_device", "language", "object_quality", "extra"}
    require_keys(doc, allowed, where)
    get_field(doc, "target_device", where, parse_string, nullable=True)
    get_field(doc, "extra", where, parse_mapping)
    return AdvancedMetadata(
        importance=get_field(doc, "importance", where, parse_integer, 5),
        onscreen=get_field(doc, "onscreen", where, parse_bool, False),
        interactivity_restriction=get_field(doc, "interactivity_restriction", where,
                                            parse_bool, False),
        preferred_renderer=get_field(doc, "preferred_renderer", where),
        language=get_field(doc, "language", where, parse_string, nullable=True),
        object_quality=get_field(doc, "object_quality", where, default=1.0),
    )


def _parse_tolerances(doc, where) -> Tolerances:
    defaults = Tolerances()
    names = [f.name for f in fields(Tolerances)]
    require_keys(doc, names, where)
    return Tolerances(**{
        name: get_field(doc, name, where, parse_number, getattr(defaults, name))
        for name in names})


def _parse_constraints(doc, where) -> EditorialConstraints:
    require_keys(doc, {"tolerances", "priority_order"}, where)
    order = get_field(doc, "priority_order", where, parse_list, DEFAULT_PRIORITY_ORDER)
    return EditorialConstraints(
        tolerances=get_field(doc, "tolerances", where, _parse_tolerances, Tolerances()),
        priority_order=tuple(parse_string(p, f"{where}.priority_order[{i}]")
                             for i, p in enumerate(order)))


def _parse_reflection(doc, where) -> Reflection:
    require_keys(doc, {"delay_ms", "direction", "level_db"}, where)
    return Reflection(
        delay_ms=get_field(doc, "delay_ms", where, parse_number, required=True),
        direction=get_field(doc, "direction", where, parse_direction, required=True),
        level_db=get_field(doc, "level_db", where, parse_number, required=True))


def _parse_tail_band(doc, where) -> TailBand:
    require_keys(doc, {"band_center_hz", "onset_ms", "attack_ms", "level_db",
                       "decay_tau_s"}, where)
    return TailBand(
        band_center_hz=get_field(doc, "band_center_hz", where, parse_number, required=True),
        onset_ms=get_field(doc, "onset_ms", where, parse_number, 0.0),
        attack_ms=get_field(doc, "attack_ms", where, parse_number, 0.0),
        level_db=get_field(doc, "level_db", where, parse_number, 0.0),
        decay_tau_s=get_field(doc, "decay_tau_s", where, parse_number, required=True))


def _parse_reverb(doc, where) -> ReverbMetadata:
    require_keys(doc, {"reflections", "tail_bands"}, where)
    return ReverbMetadata(
        reflections=tuple(
            _parse_reflection(r, f"{where}.reflections[{i}]")
            for i, r in enumerate(get_field(doc, "reflections", where, parse_list, []))),
        tail_bands=tuple(
            _parse_tail_band(b, f"{where}.tail_bands[{i}]")
            for i, b in enumerate(get_field(doc, "tail_bands", where, parse_list, []))))


_OBJECT_KEYS = {"id", "type", "channels", "group", "priority", "level_db", "position",
                "extent_deg", "diffuseness", "advanced", "constraints", "reverb", "stems"}


def _parse_object(doc, stem_dir, scene_rate, load_stems) -> AudioObject:
    require_keys(doc, _OBJECT_KEYS, "object")
    oid = get_field(doc, "id", "object", parse_string, required=True)
    ctx = f"object {oid!r}"
    type_name = get_field(doc, "type", ctx, required=True)
    try:
        otype = ObjectType(type_name)
    except ValueError:
        raise RangeError(f"unknown object type {echo(type_name)}", field="type",
                         object_id=oid)
    refs = get_field(doc, "stems", ctx, parse_list, required=True)
    stems = []
    for i, ref in enumerate(refs):
        ref = parse_string(ref, f"{ctx}.stems[{i}]")
        path = ref if os.path.isabs(ref) else os.path.join(stem_dir, ref)
        if load_stems:
            rate, samples = read_stem(path)
            if rate != scene_rate:
                raise RateMismatch(
                    f"stem {ref} is {rate} Hz but the scene wants {echo(scene_rate)} Hz")
        else:
            rate, samples = scene_rate, np.zeros(0)
        stems.append(Stem(ref=ref, sample_rate=rate, samples=samples))
    return AudioObject(
        object_id=oid,
        object_type=otype,
        stems=tuple(stems),
        channels=get_field(doc, "channels", ctx, parse_integer, 1),
        group=get_field(doc, "group", ctx, parse_string, nullable=True),
        priority=get_field(doc, "priority", ctx, parse_integer, 5),
        level_db=get_field(doc, "level_db", ctx, parse_number, 0.0),
        position=get_field(doc, "position", ctx, parse_direction, nullable=True),
        extent_deg=get_field(doc, "extent_deg", ctx, parse_number, nullable=True),
        diffuseness=get_field(doc, "diffuseness", ctx, parse_number, 0.0),
        advanced=get_field(doc, "advanced", ctx, _parse_advanced, AdvancedMetadata()),
        constraints=get_field(doc, "constraints", ctx, _parse_constraints,
                              EditorialConstraints()),
        reverb=get_field(doc, "reverb", ctx, _parse_reverb, nullable=True),
    )


def _parse_targets(doc, where) -> SceneTargets:
    require_keys(doc, {"envelopment", "intelligibility"}, where)
    return SceneTargets(
        envelopment=get_field(doc, "envelopment", where, parse_number, 0.0),
        intelligibility=get_field(doc, "intelligibility", where, parse_number, 0.0))


def scene_from_dict(doc: dict, stem_dir: str = ".", load_stems: bool = True,
                    validate: bool = True) -> Scene:
    """Build and validate a Scene from a parsed scene document.

    validate=False skips the invariant check (the structural checks still
    run), letting callers collect the full violation list themselves.
    """
    require_keys(doc, {"schema", "sample_rate", "targets", "objects"}, "scene")
    schema = get_field(doc, "schema", "scene", default=SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema {echo(schema)}, expected {SCHEMA_VERSION!r}")
    rate = get_field(doc, "sample_rate", "scene", required=True)
    if isinstance(rate, bool) or not isinstance(rate, int):
        raise SchemaError("scene.sample_rate must be an integer")
    targets = get_field(doc, "targets", "scene", _parse_targets, SceneTargets())
    objects = tuple(
        _parse_object(o, stem_dir, rate, load_stems)
        for o in get_field(doc, "objects", "scene", parse_list, required=True))
    scene = Scene(sample_rate=rate, targets=targets, objects=objects)
    if validate:
        violations = validate_scene(scene)
        if violations:
            v = violations[0]
            raise RangeError(
                f"{v.message}" + (f" (object {v.object_id})" if v.object_id else ""),
                field=v.field, object_id=v.object_id)
    return scene


def parse_scene(path: str, validate: bool = True) -> Scene:
    """Parse a scene document; stem references resolve against its directory."""
    doc = read_document(path, "scene file")
    return scene_from_dict(doc, stem_dir=os.path.dirname(os.path.abspath(path)),
                           validate=validate)

