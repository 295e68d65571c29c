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
from .warp import Velocity, WarpedBatch, WarpedEvent, warp_batch, warp_event
from .voting import (
    BankedAccumulator,
    ImageSet,
    NaiveAccumulator,
    VoteContribution,
    VotingConfigError,
    accumulate_banked,
    accumulate_naive,
    bilinear_votes,
    clear_on_read,
    write_pgm,
)
from .objective import ContrastReport, Gradient, analytic_gradient, contrast, evaluate
from .optimizer import (
    OptimizationTrace,
    OptimizerConfig,
    default_learning_rate,
    estimate_motion,
)
from .tracker import BatchRecord, TrackResult, TrackerConfig, track, update_roi
from .cyclemodel import (
    CycleParams,
    REFERENCE_TIMES,
    batch_time,
    cycles_per_batch,
    speedup_report,
)
from .synth import SceneConfig, SyntheticScene, generate_scene

__version__ = "0.1.0"
