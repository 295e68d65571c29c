"""Command-line entry point: track, estimate, cycles, synth subcommands."""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .cyclemodel import (
    DEFAULT_CLOCK_HZ,
    DEFAULT_READOUT_LATENCY,
    DEFAULT_VOTING_LATENCY,
    CycleParams,
    batch_time,
    cycles_per_batch,
    speedup_report,
)
from .events import Roi, filter_roi, make_batch, parse_events
from .optimizer import (
    OptimizationError,
    OptimizerConfig,
    estimate_motion,
    final_image_set,
)
from .synth import SceneConfig, generate_scene
from .tracker import TrackerConfig, track
from .warp import Velocity


@dataclass
class RunConfig:
    """Flat run configuration; round-trips losslessly through key=value text."""

    input_path: str = ""
    sensor_width: int = 240
    sensor_height: int = 180
    roi_x0: float = 0.0
    roi_y0: float = 0.0
    roi_w: int = 64
    roi_h: int = 64
    batch_size: int = 5000
    iterations: int = 100
    learning_rate: float | None = None
    vx_init: float = 0.0
    vy_init: float = 0.0
    roi_update_scale: float = 1.0
    min_roi_events: int = 10
    accumulator_mode: str = "naive"
    output_dir: str = "."
    dump_iwe: bool = False
    seed: int = 0

    def to_text(self) -> str:
        out = []
        for f in fields(self):
            v = getattr(self, f.name)
            out.append(f"{f.name} = {'' if v is None else v}")
        return "\n".join(out) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        cfg = cls()
        cfg.apply_text(text)
        return cfg

    def apply_text(self, text: str) -> None:
        types = {f.name: f for f in fields(self)}
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line {line_no}: expected key = value")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in types:
                raise ValueError(f"config line {line_no}: unknown key {key!r}")
            setattr(self, key, _coerce(key, val))

    def roi(self) -> Roi:
        return Roi(self.roi_x0, self.roi_y0, self.roi_w, self.roi_h)

    def optimizer(self) -> OptimizerConfig:
        return OptimizerConfig(
            iterations=self.iterations,
            learning_rate=self.learning_rate,
            v_init=Velocity(self.vx_init, self.vy_init),
            accumulator_mode=self.accumulator_mode,
        )


def _coerce(key: str, val: str):
    if val == "":
        return None
    if key in ("input_path", "accumulator_mode", "output_dir"):
        return val
    if key == "dump_iwe":
        return val.lower() in ("1", "true", "yes")
    if key in ("learning_rate", "roi_update_scale", "roi_x0", "roi_y0",
               "vx_init", "vy_init"):
        return float(val)
    return int(val)


def _parse_size(text: str) -> tuple[int, int]:
    w, _, h = text.lower().partition("x")
    return int(w), int(h)


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg.apply_text(Path(args.config).read_text(encoding="ascii"))
    # explicit flags win over the config file
    for name in (
        "input_path",
        "batch_size",
        "iterations",
        "learning_rate",
        "vx_init",
        "vy_init",
        "roi_update_scale",
        "min_roi_events",
        "accumulator_mode",
        "output_dir",
        "seed",
    ):
        v = getattr(args, name, None)
        if v is not None:
            setattr(cfg, name, v)
    if getattr(args, "sensor", None) is not None:
        cfg.sensor_width, cfg.sensor_height = _parse_size(args.sensor)
    if getattr(args, "roi", None) is not None:
        cfg.roi_w, cfg.roi_h = _parse_size(args.roi)
    if getattr(args, "roi_x0", None) is not None:
        cfg.roi_x0 = args.roi_x0
    if getattr(args, "roi_y0", None) is not None:
        cfg.roi_y0 = args.roi_y0
    if getattr(args, "dump_iwe", False):
        cfg.dump_iwe = True
    return cfg


def _load_events(cfg: RunConfig):
    path = Path(cfg.input_path)
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    return parse_events(path, sensor_size=(cfg.sensor_width, cfg.sensor_height))


def cmd_track(args: argparse.Namespace) -> int:
    cfg = _build_run_config(args)
    events = _load_events(cfg)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracker_cfg = TrackerConfig(
        batch_size=cfg.batch_size,
        roi_init=cfg.roi(),
        optimizer=cfg.optimizer(),
        roi_update_scale=cfg.roi_update_scale,
        min_roi_events=cfg.min_roi_events,
        sensor_width=cfg.sensor_width,
        sensor_height=cfg.sensor_height,
        dump_iwe_dir=out_dir if cfg.dump_iwe else None,
    )
    result = track(events, tracker_cfg)
    (out_dir / "trajectory.csv").write_text(result.to_csv(), encoding="ascii")
    contrasts = [r.contrast for r in result.records if r.contrast == r.contrast]
    mean_contrast = sum(contrasts) / len(contrasts) if contrasts else float("nan")
    mean_in_roi = (
        sum(r.events_in_roi for r in result.records) / len(result.records)
        if result.records
        else 0.0
    )
    print(
        f"batches: {len(result.records)}  mean contrast: {mean_contrast:.6g}  "
        f"mean events in ROI: {mean_in_roi:.1f}"
    )
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    cfg = _build_run_config(args)
    events = _load_events(cfg)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.batch_index < 0:
        raise ValueError(f"batch index {args.batch_index} must be non-negative")
    start = args.batch_index * cfg.batch_size
    chunk = events[start : start + cfg.batch_size]
    if len(chunk) == 0:
        raise ValueError(f"batch index {args.batch_index} is out of range")
    batch = filter_roi(make_batch(chunk), cfg.roi())
    if len(batch) == 0:
        raise ValueError("no events inside the ROI")
    v, trace = estimate_motion(batch, cfg.optimizer(), shape=(cfg.roi_w, cfg.roi_h))
    (out_dir / "trace.csv").write_text(trace.to_csv(), encoding="ascii")
    if cfg.dump_iwe:
        imgs = final_image_set(batch, v, (cfg.roi_w, cfg.roi_h))
        imgs.write_pgm(out_dir / "iwe_final.pgm")
    print(
        f"iterations: {len(trace)}  v = ({v.vx:.4f}, {v.vy:.4f})  "
        f"contrast: {trace.final_contrast:.6g}"
    )
    return 0


def cmd_cycles(args: argparse.Namespace) -> int:
    roi_w, roi_h = _parse_size(args.roi)
    params = CycleParams(
        N=args.n_events,
        T=args.iters,
        n=args.roi_events,
        P=roi_w * roi_h,
        L_r=args.readout_latency,
        L_v=args.voting_latency,
        f_clk=args.clock,
    )
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
        sensor=_parse_size(args.sensor),
    )
    scene = generate_scene(cfg)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scene.write_events(out_dir / "events.txt")
    scene.write_truth(out_dir / "truth.json")
    print(f"wrote {len(scene)} events to {out_dir / 'events.txt'}")
    return 0


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", dest="input_path", help="event text file (t x y p)")
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--sensor", help="sensor geometry WxH (default 240x180)")
    p.add_argument("--roi", help="ROI size WxH (default 64x64)")
    p.add_argument("--roi-x0", type=float, dest="roi_x0")
    p.add_argument("--roi-y0", type=float, dest="roi_y0")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--iterations", type=int)
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--vx-init", type=float, dest="vx_init",
                   help="initial velocity guess, x component")
    p.add_argument("--vy-init", type=float, dest="vy_init",
                   help="initial velocity guess, y component")
    p.add_argument("--roi-update-scale", type=float, dest="roi_update_scale")
    p.add_argument("--min-roi-events", type=int, dest="min_roi_events")
    p.add_argument("--accumulator-mode", choices=("naive", "banked"),
                   dest="accumulator_mode")
    p.add_argument("--output-dir", dest="output_dir")
    p.add_argument("--dump-iwe", action="store_true", dest="dump_iwe")
    p.add_argument("--seed", type=int)


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
    p_cyc.add_argument("--roi", default="64x64")
    p_cyc.add_argument("--clock", type=float, default=DEFAULT_CLOCK_HZ)
    p_cyc.add_argument("--readout-latency", type=int, default=DEFAULT_READOUT_LATENCY)
    p_cyc.add_argument("--voting-latency", type=int, default=DEFAULT_VOTING_LATENCY)
    p_cyc.add_argument("--format", choices=("text", "csv"), default="text")
    p_cyc.set_defaults(func=cmd_cycles)

    p_syn = sub.add_parser("synth", help="generate a synthetic event scene")
    p_syn.add_argument("--scene", choices=("square", "bar", "points"), default="square")
    p_syn.add_argument("--vx", type=float, default=3.0)
    p_syn.add_argument("--vy", type=float, default=-2.0)
    p_syn.add_argument("--start-x", type=float, default=120.0)
    p_syn.add_argument("--start-y", type=float, default=90.0)
    p_syn.add_argument("--size", type=int, default=20)
    p_syn.add_argument("--batches", type=int, default=1)
    p_syn.add_argument("--events-per-batch", type=int, default=5000)
    p_syn.add_argument("--batch-duration-us", type=int, default=20000)
    p_syn.add_argument("--noise", type=float, default=0.0)
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.add_argument("--sensor", default="240x180")
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
