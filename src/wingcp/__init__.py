"""Riemannian geometric features from piecewise Bezier wing surfaces and
a multi-feature neural regressor for pressure-coefficient prediction."""

__version__ = "0.1.0"

from .bezier import (
    ControlGrid,
    PiecewiseManifold,
    SurfacePoint,
    ValidityReport,
    check_patch,
    eval_patch,
    jet,
    load_control_grids,
    load_manifold,
    save_control_grids,
)
from .data import (
    Samples,
    TensorBatch,
    NormalizationSpec,
    assemble,
    fit_normalizer,
    fold_split,
    load_samples,
    save_samples,
)
from .errors import (
    AssemblyError,
    ConfigError,
    DegenerateMetric,
    InvalidPatch,
    SampleParseError,
    StencilOutOfPatch,
    TrainingDiverged,
    WingcpError,
)
from .geometry import (
    RiemannianFeatures,
    christoffel,
    contract,
    feature_bundle,
    metric,
    riemann_tensor,
)
from .model import (
    ModelConfig,
    NetSpec,
    TrainConfig,
    adam_step,
    build_model,
    load_checkpoint,
    loss_mse,
    preset,
    save_checkpoint,
    train,
)
from .report import EvalReport, error_map, reduction
from .stencil import Stencil, build_stencil, calibrate_offset
from .synth import SynthConfig, generate_synthetic
