"""Command-line entry point: track, estimate, cycles, synth subcommands."""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

from .datapath import (
    DEFAULT_CLOCK_HZ,
    CycleParams,
    batch_time,
    check_bank_grid,
    speedup_report,
)
from .events import EventArray, Roi, filter_roi, make_batch, parse_events
from .optimizer import OptimizationError, OptimizerConfig, estimate_motion
from .synth import SceneConfig, generate_scene
from .tracker import TrackerConfig, track
from .voting import write_pgm
from .warp import Velocity


def _yes_no(text: str) -> bool:
    if text.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected 1/true/yes or 0/false/no, got {text!r}")
    return text.lower() in ("1", "true", "yes")


# Every track/estimate setting: config-file key -> type. Defaults live in the
# dataclasses, and each key names the field it sets (roi_<f> is Roi.<f>,
# <f>_init is Velocity.<f> of OptimizerConfig.v_init). The flag is the key
# with "-" for "_", except --input (input_path), --sensor WxH and --roi WxH.
RUN_SETTINGS = {
    "input_path": str, "output_dir": str, "dump_iwe": _yes_no,    # run files
    "sensor_width": int, "sensor_height": int, "batch_size": int,  # TrackerConfig
    "roi_update_scale": float, "min_roi_events": int,
    "roi_x0": float, "roi_y0": float, "roi_w": int, "roi_h": int,  # Roi
    "iterations": int,                                             # OptimizerConfig
    "vx_init": float, "vy_init": float,                            # its v_init
}
# --sensor WxH and --roi WxH each set a pair of keys
_SIZE_FLAGS = {"sensor": ("sensor_width", "sensor_height"), "roi": ("roi_w", "roi_h")}


def _parse_size(text: str) -> tuple[int, int]:
    """argparse type of the WxH size flags."""
    w, _, h = text.lower().partition("x")
    try:
        w, h = int(w), int(h)
    except ValueError:
        w = h = 0  # malformed: rejected below with the bad sides
    if w < 1 or h < 1:
        raise argparse.ArgumentTypeError(f"expected WxH, got {text!r}")
    return w, h


def _read_config(path: str) -> dict:
    settings = {}
    text = Path(path).read_text(encoding="ascii")
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, val = (part.strip() for part in line.partition("="))
        if not eq:
            raise ValueError(f"config line {line_no}: expected key = value")
        if key not in RUN_SETTINGS:
            raise ValueError(f"config line {line_no}: unknown key {key!r}")
        if not val:  # an empty value keeps the setting's default
            settings.pop(key, None)
            continue
        try:
            settings[key] = RUN_SETTINGS[key](val)
        except ValueError as exc:
            raise ValueError(f"config line {line_no}: {key}: {exc}") from None
    return settings


def _run_config(args: argparse.Namespace) -> tuple[TrackerConfig, str | None, Path]:
    """Overlay the flags given on the config file, over the dataclass defaults:
    the validated tracker config, the input path and the output directory."""
    s = _read_config(args.config) if args.config else {}
    s.update((k, v) for k in RUN_SETTINGS if (v := getattr(args, k, None)) is not None)
    for flag, keys in _SIZE_FLAGS.items():
        if getattr(args, flag) is not None:
            s.update(zip(keys, getattr(args, flag)))

    def pick(cls, key: str = "{}") -> dict:
        return {f.name: s[key.format(f.name)] for f in fields(cls) if key.format(f.name) in s}

    for key in ("vx_init", "vy_init"):  # Velocity's own check names neither key
        if not math.isfinite(s.get(key, 0.0)):
            raise ValueError(f"{key} must be finite, got {s[key]}")
    out_dir = Path(s.get("output_dir", "."))
    base = TrackerConfig()
    optimizer = replace(
        base.optimizer,
        v_init=replace(base.optimizer.v_init, **pick(Velocity, "{}_init")),
        **pick(OptimizerConfig),
    )
    cfg = replace(
        base,
        roi_init=replace(base.roi_init, **pick(Roi, "roi_{}")),
        optimizer=optimizer,
        dump_iwe_dir=out_dir if s.get("dump_iwe") else None,
        **pick(TrackerConfig),
    )
    return cfg, s.get("input_path"), out_dir


def _start_run(args: argparse.Namespace) -> tuple[TrackerConfig, EventArray, Path]:
    """The run's config, its parsed input events and its output directory."""
    cfg, input_path, out_dir = _run_config(args)
    if not input_path:
        raise ValueError("no input file: pass --input or set input_path in --config")
    path = Path(input_path)
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    events = parse_events(path, sensor_size=(cfg.sensor_width, cfg.sensor_height))
    out_dir.mkdir(parents=True, exist_ok=True)
    return cfg, events, out_dir


def cmd_track(args: argparse.Namespace) -> int:
    cfg, events, out_dir = _start_run(args)
    result = track(events, cfg)
    (out_dir / "trajectory.csv").write_text(result.to_csv(), encoding="ascii")
    contrasts = [r.contrast for r in result.records if r.contrast == r.contrast]
    mean_contrast = sum(contrasts) / len(contrasts) if contrasts else float("nan")
    mean_in_roi = (
        sum(r.events_in_roi for r in result.records) / len(result.records)
        if result.records
        else 0.0
    )
    print(
        f"batches: {len(result.records)}  "
        f"readouts: {sum(r.readouts for r in result.records)}  "
        f"mean contrast: {mean_contrast:.6g}  "
        f"mean events in ROI: {mean_in_roi:.1f}"
    )
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    if args.batch_index < 0:
        raise ValueError(f"batch index {args.batch_index} must be non-negative")
    cfg, events, out_dir = _start_run(args)
    start = args.batch_index * cfg.batch_size
    chunk = events[start : start + cfg.batch_size]
    if len(chunk) == 0:
        raise ValueError(f"batch index {args.batch_index} is out of range")
    roi = cfg.roi_init
    batch = filter_roi(make_batch(chunk), roi)
    if len(batch) < cfg.min_roi_events:
        raise ValueError(
            f"only {len(batch)} events inside the ROI; estimate needs at least "
            f"{cfg.min_roi_events} (min_roi_events)"
        )
    v, trace = estimate_motion(batch, cfg.optimizer, shape=(roi.w, roi.h))
    (out_dir / "trace.csv").write_text(trace.to_csv(), encoding="ascii")
    if cfg.dump_iwe_dir is not None:
        write_pgm(trace.final_iwe, out_dir / "iwe_final.pgm")
    print(
        f"iterations: {len(trace)}  readouts: {trace.readouts}  "
        f"v = ({v.vx:.4f}, {v.vy:.4f})  "
        f"contrast: {trace.final_contrast:.6g}"
    )
    return 0


def cmd_cycles(args: argparse.Namespace) -> int:
    roi_w, roi_h = args.roi
    params = CycleParams(
        N=args.n_events,
        T=args.iters,
        n=args.roi_events,
        P=roi_w * roi_h,
        f_clk=args.clock,
    )
    check_bank_grid(args.roi)  # the banks hold an ROI of even sides only
    print(speedup_report(params, fmt=args.format), end="")
    if args.format == "text":
        print(f"projected batch time: {batch_time(params) * 1e3:.4f} ms")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = SceneConfig(
        scene=args.scene,
        velocity=(args.vx, args.vy),
        start=(args.start_x, args.start_y),
        object_size=args.size,
        batches=args.batches,
        events_per_batch=args.events_per_batch,
        batch_duration_us=args.batch_duration_us,
        noise_fraction=args.noise,
        seed=args.seed,
        sensor=args.sensor,
    )
    scene = generate_scene(cfg)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scene.write_events(out_dir / "events.txt")
    scene.write_truth(out_dir / "truth.json")
    print(f"wrote {len(scene)} events to {out_dir / 'events.txt'}")
    return 0


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file; flags override it")
    p.add_argument("--sensor", type=_parse_size, help="sensor geometry WxH")
    p.add_argument("--roi", type=_parse_size, help="ROI size WxH")
    sized = [key for keys in _SIZE_FLAGS.values() for key in keys]
    for key, kind in RUN_SETTINGS.items():
        flag = "--input" if key == "input_path" else "--" + key.replace("_", "-")
        if kind is _yes_no:
            p.add_argument(flag, dest=key, action="store_const", const=True)
        elif key not in sized:
            p.add_argument(flag, dest=key, type=kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evcm",
        description="Contrast-maximization motion estimation for event cameras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_track = sub.add_parser("track", help="run the ROI tracking loop")
    _add_run_flags(p_track)
    p_track.set_defaults(func=cmd_track)

    p_est = sub.add_parser("estimate", help="single-batch motion estimation")
    _add_run_flags(p_est)
    p_est.add_argument("--batch-index", type=int, default=0)
    p_est.set_defaults(func=cmd_estimate)

    p_cyc = sub.add_parser("cycles", help="cycle-count and timing report")
    p_cyc.add_argument("--n-events", type=int, default=5000)
    p_cyc.add_argument("--iters", type=int, default=100)
    p_cyc.add_argument("--roi-events", type=int, default=800)
    p_cyc.add_argument("--roi", type=_parse_size, default="64x64")
    p_cyc.add_argument("--clock", type=float, default=DEFAULT_CLOCK_HZ)
    p_cyc.add_argument("--format", choices=("text", "csv"), default="text")
    p_cyc.set_defaults(func=cmd_cycles)

    p_syn = sub.add_parser("synth", help="generate a synthetic event scene")
    p_syn.add_argument("--scene", choices=("square", "bar", "points"),
                       default=SceneConfig.scene)
    p_syn.add_argument("--vx", type=float, default=SceneConfig.velocity[0])
    p_syn.add_argument("--vy", type=float, default=SceneConfig.velocity[1])
    p_syn.add_argument("--start-x", type=float, default=SceneConfig.start[0])
    p_syn.add_argument("--start-y", type=float, default=SceneConfig.start[1])
    p_syn.add_argument("--size", type=int, default=SceneConfig.object_size)
    p_syn.add_argument("--batches", type=int, default=SceneConfig.batches)
    p_syn.add_argument("--events-per-batch", type=int, default=SceneConfig.events_per_batch)
    p_syn.add_argument("--batch-duration-us", type=int, default=SceneConfig.batch_duration_us)
    p_syn.add_argument("--noise", type=float, default=SceneConfig.noise_fraction)
    p_syn.add_argument("--seed", type=int, default=SceneConfig.seed)
    p_syn.add_argument("--sensor", type=_parse_size, default=SceneConfig.sensor)
    p_syn.add_argument("--output-dir", default=".")
    p_syn.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, OptimizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
