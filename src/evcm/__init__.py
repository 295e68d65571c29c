"""Contrast-maximization motion estimation for event cameras."""

from .events import (
    EventArray,
    EventBatch,
    EventParseError,
    EventValidationError,
    Roi,
    filter_roi,
    make_batch,
    parse_events,
)
from .warp import Velocity, WarpedBatch, warp_batch
from .voting import IweScatter, VotingConfigError, write_pgm
from .datapath import (
    REFERENCE_TIMES,
    BankedAccumulator,
    CycleParams,
    ImageSet,
    NaiveAccumulator,
    batch_time,
    cycles_per_batch,
    speedup_report,
)
from .objective import evaluate
from .optimizer import (
    OptimizationError,
    OptimizationTrace,
    OptimizerConfig,
    estimate_motion,
)
from .tracker import BatchRecord, TrackResult, TrackerConfig, track, update_roi
from .synth import SceneConfig, SyntheticScene, generate_scene

__version__ = "0.1.0"
