"""Shared fixtures, and the hypothesis profile the suite runs under.

The ``tier1`` profile, the default, draws the same examples on every run
(``derandomize=True``, which also leaves the example database unused), so
a test run's result depends only on the code; pinned ``@example`` cases
still run. ``HYPOTHESIS_PROFILE=explore`` draws new random examples on
each run and keeps the database, to look for inputs the fixed draws miss.
Each property test takes its ``max_examples`` from
``strategies.max_examples``: its count under ``tier1``, ten times it
under ``explore``.
"""

import pytest
from hypothesis import settings

from oracles import flat_grid, paraboloid_grid
from strategies import PROFILE

from wingcp.bezier import PiecewiseManifold

settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile(PROFILE)


@pytest.fixture
def flat_manifold():
    m = PiecewiseManifold([flat_grid(patch_id="flat")])
    m.check_all(samples_per_axis=16)
    return m


@pytest.fixture
def paraboloid_manifold():
    m = PiecewiseManifold([paraboloid_grid(patch_id="paraboloid")])
    m.check_all(samples_per_axis=16)
    return m
