"""Shared fixtures; the plain helpers are in obar_helpers."""

import pytest

from obar_helpers import (
    music_like,
    object_doc,
    scene_doc,
    speech_like,
    write_scene,
    write_stem,
)


@pytest.fixture
def basic_scene_dir(tmp_path):
    """Scene with one dialogue and one music object, stems on disk."""
    d = str(tmp_path)
    dlg = write_stem(d, "stems/dlg.wav", speech_like())
    mus = write_stem(d, "stems/mus.wav", music_like())
    doc = scene_doc([
        object_doc("narrator", "dialogue", [dlg], priority=9,
                   position={"az": 0.0, "el": 0.0, "dist": None}),
        object_doc("band", "music", [mus], priority=4,
                   position={"az": 30.0, "el": 0.0, "dist": None}),
    ], intelligibility=0.8)
    path = write_scene(d, doc)
    return d, path, doc
