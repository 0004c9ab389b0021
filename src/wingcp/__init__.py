"""Riemannian geometric features from piecewise Bezier wing surfaces and
a multi-feature neural regressor for pressure-coefficient prediction.

The package root holds only the names of README's library quick start;
everything else is imported from its module (``wingcp.geometry``,
``wingcp.report``, ...).
"""

__version__ = "0.1.0"

from .bezier import PiecewiseManifold
from .data import Samples, assemble, fit_normalizer, load_samples
from .model import TrainConfig, build_model, preset, train
