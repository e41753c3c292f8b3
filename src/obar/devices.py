"""Ad-hoc device enumeration: phones, TVs, and other connected devices become
loudspeakers with capability defaults looked up by device kind."""

from __future__ import annotations

from .context import (
    Bandwidth,
    DeviceKind,
    LoudspeakerDescriptor,
    SpeakerLayout,
    _parse_position,
    _require_keys,
)
from .errors import DuplicateDeviceId, EmptyLayout, SchemaError
from .scene import parse_number, read_document

DEVICES_SCHEMA_VERSION = "devices v1"

# Default capability per device kind: usable bandwidth, intrinsic latency, and
# a nominal connection rate. Editable data, not behaviour.
DEVICE_DEFAULTS = {
    DeviceKind.DISCRETE: (Bandwidth(40.0, 20000.0), 0.0, 10000.0),
    DeviceKind.TV: (Bandwidth(100.0, 16000.0), 10.0, 5000.0),
    DeviceKind.PHONE: (Bandwidth(300.0, 8000.0), 30.0, 1000.0),
    DeviceKind.TABLET: (Bandwidth(250.0, 12000.0), 25.0, 2000.0),
    DeviceKind.LAPTOP: (Bandwidth(200.0, 14000.0), 20.0, 3000.0),
    DeviceKind.SOUNDBAR: (Bandwidth(60.0, 18000.0), 15.0, 5000.0),
}


def layout_from_device_config(doc: dict) -> SpeakerLayout:
    """Build a layout from a device listing; only connected devices join."""
    _require_keys(doc, {"schema", "devices"}, "devices config")
    if doc.get("schema", DEVICES_SCHEMA_VERSION) != DEVICES_SCHEMA_VERSION:
        raise SchemaError(f"unsupported devices schema {doc.get('schema')!r}")
    speakers = []
    seen = set()
    for i, dev in enumerate(doc.get("devices", [])):
        ctx = f"devices[{i}]"
        allowed = {"id", "kind", "position", "connected", "orientation_deg",
                   "bandwidth_hz", "latency_ms", "connection_kbps"}
        _require_keys(dev, allowed, ctx)
        if "id" not in dev or "position" not in dev:
            raise SchemaError(f"{ctx} needs id and position")
        device_id = str(dev["id"])
        if device_id in seen:
            raise DuplicateDeviceId(f"device id {device_id!r} appears twice")
        seen.add(device_id)
        if not dev.get("connected", True):
            continue
        try:
            kind = DeviceKind(dev.get("kind", "discrete"))
        except ValueError:
            raise SchemaError(f"unknown device kind {dev.get('kind')!r} in {ctx}")
        bw_default, latency_default, kbps_default = DEVICE_DEFAULTS[kind]
        bw = dev.get("bandwidth_hz")
        if bw is not None:
            _require_keys(bw, {"low", "high"}, f"{ctx}.bandwidth_hz")
            bw = Bandwidth(
                parse_number(bw.get("low"), f"{ctx}.bandwidth_hz.low"),
                parse_number(bw.get("high"), f"{ctx}.bandwidth_hz.high"))
        speakers.append(LoudspeakerDescriptor(
            speaker_id=device_id,
            position=_parse_position(dev["position"], f"{ctx}.position"),
            orientation_deg=parse_number(dev.get("orientation_deg", 0.0),
                                         f"{ctx}.orientation_deg"),
            bandwidth_hz=bw or bw_default,
            latency_ms=parse_number(dev.get("latency_ms", latency_default),
                                    f"{ctx}.latency_ms"),
            connection_kbps=parse_number(dev.get("connection_kbps", kbps_default),
                                         f"{ctx}.connection_kbps"),
            device_kind=kind,
        ))
    if not speakers:
        raise EmptyLayout("no connected devices in config")
    return SpeakerLayout(tuple(speakers))


def enumerate_devices(path: str) -> SpeakerLayout:
    """Read a device config file and enumerate the connected devices."""
    return layout_from_device_config(read_document(path, "devices file"))
