"""One benchmark render in a fresh process.

Times set-up (importing obar and parsing every input document through the
public parse functions), releases what set-up parsed, then times one
``obar.engine.run_render`` (unless ``--setup-only``). With ``--trace 1`` the tracer wraps the layer
functions for the whole process and checks afterwards that every wrapped
attribute holds its original again. Results go to ``--result`` as JSON.

Run by ``perfbench/run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

from perfbench import tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    for name in ("scene", "scenario", "rulebook", "selection", "result", "src"):
        parser.add_argument(f"--{name}", required=True)
    parser.add_argument("--out")
    parser.add_argument("--block", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after timing set-up")
    args = parser.parse_args(argv)
    if not args.setup_only and (args.out is None or args.block is None):
        parser.error("a render needs --out and --block")

    start = time.perf_counter()
    import obar.engine
    from obar import context, rules, scene

    obar_dir = os.path.dirname(os.path.abspath(obar.__file__))
    if os.path.dirname(obar_dir) != os.path.abspath(args.src):
        print(f"obar imported from {obar_dir}, not from {args.src}", file=sys.stderr)
        return 3

    originals, missing, recorder = [], [], None
    if args.trace:
        recorder = tracer.Tracer()
        originals, missing = tracer.install(recorder)
    parsed = (
        scene.parse_scene(args.scene),
        context.parse_scenario(args.scenario),
        rules.load_rulebook(args.rulebook),
        rules.load_selection_rules(args.selection),
    )
    setup_s = time.perf_counter() - start
    del parsed
    gc.collect()
    if args.setup_only:
        _write(args.result, {"setup_s": setup_s})
        return 0

    job = obar.engine.RenderJob(
        scene_path=args.scene, scenario_path=args.scenario,
        out_path=args.out, rulebook_path=args.rulebook,
        selection_path=args.selection, block_size=args.block)
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    root = recorder.begin(tracer.ROOT_SPAN) if recorder else None
    try:
        obar.engine.run_render(job)
    finally:
        if recorder:
            recorder.end(root)
            tracer.uninstall(originals)
    render_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"setup_s": setup_s, "render_s": render_s, "cpu_s": cpu_s,
              "peak_rss_mb": peak_kb / 1024.0}
    if recorder:
        result["not_restored"] = tracer.check_restored(originals)
        result["missing"] = sorted(set(missing))
        result["spans"] = recorder.finished()
    _write(args.result, result)
    return 0


def _write(path: str, result: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
