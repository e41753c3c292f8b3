"""Ad-hoc device enumeration: phones, TVs, and other connected devices become
loudspeakers with capability defaults looked up by device kind."""

from __future__ import annotations

from .context import SpeakerLayout, parse_speaker
from .errors import DuplicateDeviceId, EmptyLayout, SchemaError
from .scene import echo, get_field, parse_list, parse_string, read_document, require_keys

DEVICES_SCHEMA_VERSION = "devices v1"


def layout_from_device_config(doc: dict) -> SpeakerLayout:
    """Build a layout from a device listing; only connected devices join."""
    require_keys(doc, {"schema", "devices"}, "devices config")
    schema = get_field(doc, "schema", "devices config", default=DEVICES_SCHEMA_VERSION)
    if schema != DEVICES_SCHEMA_VERSION:
        raise SchemaError(f"unsupported devices schema {echo(schema)}")
    speakers = []
    seen = set()
    devices = get_field(doc, "devices", "devices config", parse_list, [])
    for i, dev in enumerate(devices):
        where = f"devices[{i}]"
        speaker = parse_speaker(dev, where, device=True)
        device_id = get_field(dev, "id", where, parse_string)
        if device_id in seen:
            raise DuplicateDeviceId(f"device id {device_id!r} appears twice")
        seen.add(device_id)
        if speaker is not None:
            speakers.append(speaker)
    if not speakers:
        raise EmptyLayout("no connected devices in config")
    return SpeakerLayout(tuple(speakers))


def enumerate_devices(path: str) -> SpeakerLayout:
    """Read a device config file and enumerate the connected devices."""
    return layout_from_device_config(read_document(path, "devices file"))
