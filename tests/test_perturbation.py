"""Forced approximate-solution stability measurements."""

import dataclasses

import numpy as np
import pytest

from nls4.analysis import ModalForcing
from nls4.perturbation import perturbation_experiment
from nls4.radial import RadialField
from nls4.solver import SimulationConfig, run_trajectory
from nls4.spectral import h2_norm
from nls4.states import random_low_mode_field, soft_lowpass


@pytest.fixture(scope="module")
def setup(small_op_full, small_op_free):
    grid = small_op_full.grid
    raw = RadialField(grid, 0.8 * np.exp(-((grid.nodes / 2.5) ** 2)).astype(complex))
    u_tilde0 = soft_lowpass(small_op_full, raw, 1.6)
    cfg = SimulationConfig(lam=1.0, p=9.0, dt=2e-3, t_end=0.5, monitor_stride=5,
                           snapshot_stride=5, boundary_threshold=1.0)
    return u_tilde0, cfg


class TestPerturbation:
    def test_zero_forcing_identical_data_gives_zero(self, setup, small_op_full, small_op_free):
        u_tilde0, cfg = setup
        rec_tilde = run_trajectory(u_tilde0, small_op_full, cfg)
        same_data = RadialField(u_tilde0.grid, u_tilde0.values.copy())
        rec_exact = run_trajectory(same_data, small_op_full, cfg)
        rep = perturbation_experiment(rec_tilde, rec_exact, small_op_full, small_op_free)
        assert rep.w_distance == 0.0
        assert rep.eps_data == 0.0

    def test_distance_linear_in_data_gap(self, setup, small_op_full, small_op_free):
        u_tilde0, cfg = setup
        rng = np.random.default_rng(5)
        direction = random_low_mode_field(small_op_free, rng)
        direction = (1.0 / h2_norm(direction)) * direction
        rec_tilde = run_trajectory(u_tilde0, small_op_full, cfg)
        w, eps = [], []
        for gap in (1e-3, 1e-4, 1e-5):
            rec_exact = run_trajectory(u_tilde0 + gap * direction, small_op_full, cfg)
            rep = perturbation_experiment(rec_tilde, rec_exact, small_op_full, small_op_free)
            w.append(rep.w_distance)
            eps.append(rep.eps_data)
        slope = np.polyfit(np.log(eps), np.log(w), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.3)

    def test_halved_forcing_does_not_increase_distance(self, setup, small_op_full, small_op_free):
        u_tilde0, cfg = setup
        rng = np.random.default_rng(9)
        direction = random_low_mode_field(small_op_free, rng)
        direction = (1e-4 / h2_norm(direction)) * direction
        base = random_low_mode_field(small_op_free, rng, norm=1e-3)
        rec_exact = run_trajectory(u_tilde0 + direction, small_op_full, cfg)
        dists = []
        for scale in (1.0, 0.5):
            forcing = ModalForcing(np.array([1.7]), [scale * base])
            rec_tilde = run_trajectory(u_tilde0, small_op_full, cfg, forcing=forcing.values_at)
            rep = perturbation_experiment(rec_tilde, rec_exact, small_op_full, small_op_free)
            dists.append(rep.w_distance)
        assert dists[1] <= dists[0] * 1.05

    def test_record_without_snapshots_rejected(self, setup, small_op_full, small_op_free):
        u_tilde0, cfg = setup
        bare = dataclasses.replace(cfg, t_end=0.02, snapshot_stride=0)
        rec = run_trajectory(u_tilde0, small_op_full, bare)
        with pytest.raises(ValueError, match="snapshot_stride"):
            perturbation_experiment(rec, rec, small_op_full, small_op_free)
