import pytest

from sphere_mt import build_grid


@pytest.fixture(scope="session")
def grid_small():
    return build_grid(24, 48)


@pytest.fixture(scope="session")
def grid_default():
    return build_grid(64, 128)


@pytest.fixture(scope="session")
def grid_opt():
    return build_grid(48, 96)


@pytest.fixture(scope="session")
def grid_hires():
    return build_grid(256, 512)


@pytest.fixture(scope="session")
def grid_tall():
    """Criterion 4's 24576-node colatitude rule."""
    return build_grid(24576, 4)
