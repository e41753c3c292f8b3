"""Every malformed document ends in an ObarError, never another exception.

The property takes one of six documents, picks one path in it and either
deletes that key (or list entry) or replaces its value with a value of
another shape; the matching reader must then return or raise ObarError.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obar import demo
from obar.context import scenario_from_dict
from obar.devices import layout_from_device_config
from obar.errors import ObarError
from obar.rules import (
    DEFAULT_RULEBOOK_DOC,
    DEFAULT_SELECTION_DOC,
    parse_rulebook,
    parse_selection_rules,
)
from obar.scene import scene_from_dict, validate_scene

DELETE = object()
REPLACEMENTS = (DELETE, 5, float("nan"), float("inf"), "x", [1], {"k": 1}, None, True)


def _read_scene(doc):
    return validate_scene(scene_from_dict(doc, load_stems=False, validate=False))


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """(document, reader) by name. The demo scene gains one object that sets
    every optional field, and the scenarios a listener and an environment
    that set theirs, so that every field is a path the property can pick."""
    d = str(tmp_path_factory.mktemp("documents"))
    scene = json.load(open(demo.write_demo_scene(d, duration_s=0.1)))
    scene["objects"].append({
        "id": "full", "type": "effect", "stems": ["band.wav"], "channels": 1,
        "group": "home_crowd", "priority": 3, "level_db": -1.0,
        "position": {"az": 10.0, "el": 5.0, "dist": 2.0}, "extent_deg": 20.0,
        "diffuseness": 0.1,
        "advanced": {"importance": 4, "onscreen": False,
                     "interactivity_restriction": True, "preferred_renderer": "VBAP",
                     "target_device": "tv", "language": "en", "object_quality": 0.9,
                     "extra": {"k": 1}},
        "constraints": {"tolerances": {"level_db": 6.0, "reverb_scale": 0.5},
                        "priority_order": ["intelligibility", "level"]},
        "reverb": {
            "reflections": [{"delay_ms": 5.0, "direction": {"az": 30.0},
                             "level_db": -6.0}],
            "tail_bands": [{"band_center_hz": 500.0, "onset_ms": 1.0, "attack_ms": 2.0,
                            "level_db": -20.0, "decay_tau_s": 0.4}]},
    })
    scenario = json.load(open(demo.write_demo_scenario(d, noise_step_db=10.0)))
    scenario["listeners"].append({
        "id": "guest", "position": {"az": 10.0, "dist": 1.0}, "language": "en",
        "hearing_impaired": True, "intelligibility_preference": 0.5,
        "envelopment_preference": 0.2, "team_preference": "home"})
    scenario["environment"] = {
        "room_dims_m": {"x": 4.0, "y": 5.0, "z": 2.5}, "room_decay_tau_s": [0.4] * 7,
        "artefacts": [{"id": "window", "position": {"az": 90.0}, "kind": "glass"}]}
    scenario["layout"]["speakers"][0].update(
        kind="tv", orientation_deg=0.0, latency_ms=1.0, connection_kbps=100.0,
        bandwidth_hz={"low": 50.0, "high": 16000.0})
    devices = json.load(open(demo.write_demo_devices(d)))
    devices["devices"][0].update(
        connected=True, orientation_deg=0.0, latency_ms=1.0, connection_kbps=100.0,
        bandwidth_hz={"low": 50.0, "high": 16000.0})
    device_scenario = copy.deepcopy(scenario)
    device_scenario["layout"] = devices
    return {
        "scene": (scene, _read_scene),
        "scenario": (scenario, scenario_from_dict),
        "device scenario": (device_scenario, scenario_from_dict),
        "devices": (devices, layout_from_device_config),
        "rulebook": (DEFAULT_RULEBOOK_DOC, parse_rulebook),
        "selection": (DEFAULT_SELECTION_DOC, parse_selection_rules),
    }


def _paths(node, prefix=()):
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield prefix + (key,)
            yield from _paths(value, prefix + (key,))


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_malformed_documents_raise_only_obar_errors(documents, data):
    name = data.draw(st.sampled_from(sorted(documents)), label="document")
    doc, read = documents[name]
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    value = data.draw(st.sampled_from(REPLACEMENTS), label="value")
    bad = copy.deepcopy(doc)
    parent = bad
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    try:
        read(bad)
    except ObarError:
        pass


def _id_paths(documents):
    return [(name, path) for name in sorted(documents)
            for path in _paths(documents[name][0]) if path[-1] == "id"]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_non_string_ids_are_rejected(documents, data):
    """Every id is a JSON string: a number, list, mapping, null or boolean in
    its place raises ObarError instead of being read as its Python text."""
    name, path = data.draw(st.sampled_from(_id_paths(documents)), label="id path")
    value = data.draw(st.sampled_from(
        [v for v in REPLACEMENTS if v is not DELETE and not isinstance(v, str)]),
        label="value")
    doc, read = documents[name]
    bad = copy.deepcopy(doc)
    parent = bad
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = copy.deepcopy(value)
    with pytest.raises(ObarError):
        read(bad)
