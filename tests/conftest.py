import pytest

from oracles import flat_grid, paraboloid_grid

from wingcp.bezier import PiecewiseManifold


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
