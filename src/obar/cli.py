"""Command line front end: render, validate, probe, and devices subcommands.

Every failure path exits nonzero with a single diagnostic line on stderr that
names the component the error came from (and the field, when known).
"""

from __future__ import annotations

import argparse
import sys

from .context import build_scenario, parse_scenario
from .devices import enumerate_devices
from .dsp import BLOCK_SIZE
from .engine import DEFAULT_CROSSFADE_S, RenderJob, run_render
from .errors import ObarError
from .geometry import Direction3, wrap_azimuth
from .renderclass import RendererKind
from .routing import feasibility
from .scene import AudioObject, ObjectType, parse_scene, validate_scene

PROBE_AZIMUTHS_DEG = (0, 45, 90, 135, 180, 225, 270, 315)
PROBE_DISTANCE_M = 2.0


# ---------------------------------------------------------------------------
# subcommands

def cmd_render(job: RenderJob) -> int:
    result = run_render(job)
    report = result.report
    print(f"wrote {result.out_path}: {len(report['channels'])} channels, "
          f"{report['duration_samples']} samples at {result.sample_rate} Hz")
    print(f"report:  {result.report_path}")
    print(f"metrics: {result.metrics_path}")
    return 0


def cmd_validate(scene_path: str, scenario_path: str | None = None) -> int:
    """Exit 0 when clean, 1 listing violations, 2 when a file is unusable."""
    try:
        scene = parse_scene(scene_path, validate=False)
        if scenario_path is not None:
            parse_scenario(scenario_path)
    except ObarError as exc:
        print(f"error [{exc.component}]: {exc}", file=sys.stderr)
        return 2
    violations = validate_scene(scene)
    for v in violations:
        where = v.object_id if v.object_id is not None else "scene"
        print(f"violation: {where}.{v.field}: {v.message}")
    if violations:
        print(f"{len(violations)} violation(s)")
        return 1
    print("ok")
    return 0


def _probe_object(az_deg: float) -> AudioObject:
    return AudioObject(
        object_id="probe", object_type=ObjectType.EFFECT, stems=(),
        position=Direction3(wrap_azimuth(az_deg), 0.0, PROBE_DISTANCE_M))


def cmd_probe(scenario_path: str) -> int:
    """Feasibility of each renderer class for a reference object swept
    around the compass: a kind is ok when a selection row of it on subset
    "all" would realize it, mode matching at the order "highest" chooses."""
    layout, listeners, _, _ = parse_scenario(scenario_path)
    scenario = build_scenario(layout, listeners)
    print(f"layout: {len(scenario.layout.speakers)} speakers")
    for az in PROBE_AZIMUTHS_DEG:
        results = feasibility(scenario.layout, _probe_object(az))
        cells = []
        for kind in RendererKind:
            result = results[kind.value]
            if isinstance(result, ObarError):
                cells.append(f"{kind.value} no ({result})")
            else:
                cells.append(f"{result.renderer.label()} ok")
        print(f"az {az:3d}: " + " | ".join(cells))
    return 0


def cmd_devices(config_path: str) -> int:
    layout = enumerate_devices(config_path)
    print(f"{len(layout.speakers)} connected device(s)")
    for s in layout.speakers:
        p = s.position
        print(f"  {s.speaker_id}: {s.device_kind.value}, "
              f"az {p.az_deg:.1f} el {p.el_deg:.1f} dist {p.distance_m:.2f} m, "
              f"band {s.bandwidth_hz.low_hz:.0f}-{s.bandwidth_hz.high_hz:.0f} Hz, "
              f"latency {s.latency_ms:.0f} ms")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

def _run_render(args) -> int:
    job = RenderJob(
        scene_path=args.scene,
        scenario_path=args.scenario,
        out_path=args.out,
        rulebook_path=args.rules,
        selection_path=args.select,
        report_path=args.report,
        metrics_path=args.metrics,
        block_size=args.block,
        crossfade_s=args.xfade,
        listener_id=args.listener,
    )
    return cmd_render(job)


def _run_validate(args) -> int:
    return cmd_validate(args.scene, args.scenario)


def _run_probe(args) -> int:
    return cmd_probe(args.scenario)


def _run_devices(args) -> int:
    return cmd_devices(args.config)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obar",
        description="Object-based audio renderer: adapts a scene to the "
                    "reproduction context and renders it to a multichannel WAV.")
    sub = parser.add_subparsers(dest="command", required=True)

    render = sub.add_parser("render", help="render a scene to a speaker file")
    render.add_argument("--scene", required=True, help="scene document (JSON)")
    render.add_argument("--scenario", required=True,
                        help="reproduction scenario document (JSON)")
    render.add_argument("--rules", default=None,
                        help="adaptation rulebook (JSON; built-in default)")
    render.add_argument("--select", default=None,
                        help="renderer selection table (JSON; built-in default)")
    render.add_argument("--out", required=True,
                        help="output WAV path (one channel per speaker)")
    render.add_argument("--block", type=int, default=BLOCK_SIZE,
                        help="render block size in samples")
    render.add_argument("--xfade", type=float, default=DEFAULT_CROSSFADE_S,
                        help="renderer crossfade duration in seconds")
    render.add_argument("--listener", default=None,
                        help="listener id to treat as dominant")
    render.add_argument("--report", default=None,
                        help="report path (default: OUT.report.json)")
    render.add_argument("--metrics", default=None,
                        help="metrics CSV path (default: OUT.metrics.csv)")
    render.set_defaults(func=_run_render)

    validate = sub.add_parser("validate", help="check scene invariants")
    validate.add_argument("--scene", required=True)
    validate.add_argument("--scenario", default=None)
    validate.set_defaults(func=_run_validate)

    probe = sub.add_parser(
        "probe", help="show renderer feasibility for a layout")
    probe.add_argument("--scenario", required=True)
    probe.set_defaults(func=_run_probe)

    devices = sub.add_parser(
        "devices", help="enumerate connected devices as a speaker layout")
    devices.add_argument("--config", required=True,
                         help="device listing (JSON)")
    devices.set_defaults(func=_run_devices)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ObarError as exc:
        field = getattr(exc, "field", None)
        where = f"{exc.component}.{field}" if field else exc.component
        print(f"error [{where}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error [cli_io]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
