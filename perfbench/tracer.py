"""Span tracing for the render benchmark, from outside the program.

The traced render wraps module attributes that the engine and its layers
call through (``obar.engine.route``, ``obar.routing.band_capable_subset``,
...). Each wrapper records one span per call as a tuple (name, start_ns,
end_ns, parent), where parent indexes the enclosing span in the same list
(-1 at the top); the runner keys each render's list by its render id.
Spans stay in memory until the run ends. ``install`` returns the originals
and ``uninstall`` puts them back; ``check_restored`` proves it.
"""

from __future__ import annotations

import importlib
import time

ROOT_SPAN = "engine.render"

# (span name, module, attribute path). The attribute is looked up where the
# caller looks it up: a name imported into obar.engine is wrapped in
# obar.engine, so the same function called from another module is not
# counted under this span.
TARGETS = (
    ("scene.parse", "obar.scene", "parse_scene"),
    ("scene.parse", "obar.engine", "parse_scene"),
    ("context.measure", "obar.engine", "octave_band_levels"),
    ("context.update", "obar.context", "ContextTracker.update"),
    ("adapt.rules", "obar.engine", "apply_rules"),
    ("adapt.preview", "obar.adapt", "estimate_intelligibility"),
    ("adapt.preview_filter", "obar.adapt", "apply_directives"),
    ("dsp.tilt_design", "obar.dsp", "design_tilt_ba"),
    ("dsp.directives", "obar.engine", "apply_directives"),
    ("routing.route", "obar.engine", "route"),
    ("routing.band_subset", "obar.routing", "band_capable_subset"),
    ("routing.trial_build", "obar.routing", "build_drive"),
    ("renderers.pm_design", "obar.routing", "pm_filters"),
    ("engine.build_drive", "obar.engine", "build_drive"),
    ("renderers.render_block", "obar.engine", "render_block"),
    ("dsp.fir", "obar.dsp", "BlockFIR.process"),
    ("dsp.delay", "obar.renderers", "fractional_delay"),
    ("wavio.write", "obar.engine", "write_wav"),
)


class Tracer:
    """Collects spans in memory; one instance per traced process."""

    def __init__(self):
        self._records: list[list] = []   # [name, start_ns, end_ns, parent]
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self._records.append([name, time.perf_counter_ns(), 0, parent])
        index = len(self._records) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self._records[index][2] = time.perf_counter_ns()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self._records[index][0]} closed out of order")

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        traced.__wrapped__ = fn
        return traced

    def finished(self) -> list[tuple]:
        if self._stack:
            raise RuntimeError("spans still open")
        return [tuple(record) for record in self._records]


def _resolve(module_name: str, attr_path: str):
    """(owner object, attribute name) for a dotted attribute path, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


def install(tracer: Tracer, targets=TARGETS):
    """Wrap every target that exists. Returns (originals, missing names).

    originals is a list of (owner, attribute, original object) for uninstall;
    missing lists the span names whose attribute no longer exists.
    """
    originals = []
    missing = []
    for name, module_name, attr_path in targets:
        found = _resolve(module_name, attr_path)
        if found is None:
            missing.append(name)
            continue
        owner, attr = found
        original = vars(owner)[attr]
        originals.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original))
    return originals, missing


def uninstall(originals) -> None:
    for owner, attr, original in reversed(originals):
        setattr(owner, attr, original)


def check_restored(originals) -> list[str]:
    """Attributes that do not hold their original object (empty when clean)."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, original in originals
        if vars(owner).get(attr) is not original
    ]


def self_times(spans) -> dict[str, tuple[float, int]]:
    """name -> (summed self time in seconds, span count).

    A span's self time is its duration minus the part of it that its direct
    children cover. Children of one parent are merged as intervals first, so
    overlapping children are not subtracted twice.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, list] = {}
    for index, (name, span_start, span_end, _) in enumerate(spans):
        covered = 0
        cursor = span_start
        for start, end in sorted(children.get(index, ())):
            start = max(start, cursor)
            end = min(end, span_end)
            if end > start:
                covered += end - start
                cursor = end
        entry = totals.setdefault(name, [0, 0])
        entry[0] += span_end - span_start - covered
        entry[1] += 1
    return {name: (ns * 1e-9, count) for name, (ns, count) in totals.items()}
