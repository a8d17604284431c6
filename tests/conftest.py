import importlib.util
from pathlib import Path

import numpy as np
import pytest

from nls4 import radial, spectral
from nls4.config import load_config
from nls4.potentials import example_potential, zero_potential

ROOT = Path(__file__).resolve().parents[1]

# every distinct (dimension, r_max, N) of the canonical configs, read at
# collection, so a new config's grid is covered without an edit
CONFIG_GRIDS = sorted({
    (cfg.grid.dimension, cfg.grid.r_max, cfg.grid.num_points)
    for cfg in map(load_config, sorted((ROOT / "scripts" / "configs").glob("*.cfg")))
})


def load_run_all():
    """scripts/run_all.py as a module, executed afresh from its file."""
    spec = importlib.util.spec_from_file_location("run_all", ROOT / "scripts" / "run_all.py")
    run_all = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_all)
    return run_all


@pytest.fixture(scope="session")
def grid():
    return radial.make_grid(5, 20.0, 256)


@pytest.fixture(scope="session")
def small_grid():
    return radial.make_grid(5, 16.0, 96)


@pytest.fixture(scope="session")
def op_free(grid):
    return spectral.build_operator("free", grid)


@pytest.fixture(scope="session")
def op_full(grid):
    return spectral.build_operator("full", grid, example_potential(5))


@pytest.fixture(scope="session")
def op_zero(grid):
    return spectral.build_operator("full", grid, zero_potential(5))


@pytest.fixture(scope="session")
def small_op_free(small_grid):
    return spectral.build_operator("free", small_grid)


@pytest.fixture(scope="session")
def small_op_full(small_grid):
    return spectral.build_operator("full", small_grid, example_potential(5))


def random_smooth_field(grid, rng, width=3.0):
    """Smooth complex field with a decaying envelope; boundary-clean."""
    envelope = np.exp(-((grid.nodes / width) ** 2))
    values = (rng.standard_normal(grid.num_points)
              + 1j * rng.standard_normal(grid.num_points)) * envelope
    return radial.RadialField(grid, values)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def row_h2dot(sample):
    """||Delta u||^2 of each row of a SpaceTimeSample, one hdot2_norm per row."""
    return np.array([spectral.hdot2_norm(radial.RadialField(sample.grid, row)) ** 2
                     for row in sample.values])
