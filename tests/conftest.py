"""Shared fixtures, and the hypothesis profile the suite runs under.

The ``tier1`` profile, the default, draws the same examples on every run
(``derandomize=True``, which also leaves the example database unused), so
a test run's result depends only on the code; pinned ``@example`` cases
still run. ``HYPOTHESIS_PROFILE=explore`` draws new random examples on
each run and keeps the database, to look for inputs the fixed draws miss.
Neither profile lowers any test's ``max_examples``.
"""

import os

import pytest
from hypothesis import settings

from oracles import flat_grid, paraboloid_grid

from wingcp.bezier import PiecewiseManifold

settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


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
