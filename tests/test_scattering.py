"""Wave-operator probes, scattering extraction, final-state round trips."""

import numpy as np
import pytest

from nls4 import analysis, scattering
from nls4.analysis import WindowError
from nls4.radial import RadialField, SpaceTimeSample, boundary_mass
from nls4.scattering import (
    extract_scattering_state,
    free_frame_transfer,
    gaps_converging,
    probe_wave_operator,
)
from nls4.solver import SimulationConfig, duhamel_window, mass, run_trajectory
from nls4.spectral import apply_function, evolve, h2_norm, l2_norm
from nls4.states import soft_lowpass

from conftest import random_smooth_field


def smooth_state(op, amp=1.0, width=3.0, xi_cut=1.4):
    grid = op.grid
    raw = RadialField(grid, amp * np.exp(-((grid.nodes / width) ** 2)).astype(complex))
    return soft_lowpass(op, raw, xi_cut)


def run_with_snapshots(op, u0, lam=1.0, t_end=1.5, dt=2e-3):
    cfg = SimulationConfig(lam=lam, p=9.0, dt=dt, t_end=t_end, monitor_stride=15,
                           snapshot_stride=5, boundary_threshold=1.0, picard_tol=1e-10)
    return run_trajectory(u0, op, cfg), cfg


class TestDecreasingTriplet:
    def test_detects(self):
        assert gaps_converging(np.array([1.0, 3.0, 2.0, 1.0]), 1.0)
        assert not gaps_converging(np.array([1.0, 2.0, 3.0]), 1.0)
        assert not gaps_converging(np.array([2.0, 1.0]), 1.0)

    def test_tail_flat_at_roundoff_passes(self):
        gaps = np.array([1e-3, 1e-6, 4.209e-12, 4.155e-12, 4.220e-12])
        assert gaps_converging(gaps, 1.0)

    def test_tail_rising_above_roundoff_fails(self):
        assert not gaps_converging(np.array([1e-3, 1e-4, 2e-4, 3e-4]), 1.0)

    def test_early_triplet_then_rising_tail_fails(self):
        assert not gaps_converging(np.array([3.0, 2.0, 1.0, 2.0, 3.0]), 1.0)


class TestWaveOperatorProbe:
    def test_zero_potential_identity(self, op_free, op_zero, grid, rng):
        psi = smooth_state(op_free, width=2.0)
        probe = probe_wave_operator(op_zero, op_free, psi, (0.5, 1.0, 2.0),
                                    boundary_threshold=1.0)
        scale = h2_norm(psi)
        assert np.all(probe.convergence_gaps <= 1e-9 * scale)

    def test_zero_potential_gaps_at_roundoff_converge(self, op_free, op_zero):
        # W(t) is the identity: three gaps at roundoff, not strictly decreasing
        psi = smooth_state(op_free, width=2.0)
        probe = probe_wave_operator(op_zero, op_free, psi, (0.5, 1.0, 2.0, 4.0),
                                    boundary_threshold=1.0)
        assert probe.convergence_gaps.size == 3
        assert np.all(probe.convergence_gaps <= 1e-9 * h2_norm(psi))
        assert probe.convergent

    def test_time_zero_is_identity(self, op_full, op_free):
        psi = smooth_state(op_free, width=2.0)
        probe = probe_wave_operator(op_full, op_free, psi, (0.0, 0.5),
                                    boundary_threshold=1.0)
        assert np.allclose(probe.series[0].values, psi.values, rtol=1e-12, atol=1e-14)

    def test_clean_window_violation_raises(self, op_full, op_free, grid):
        # raw gaussian leaks immediately on this small domain
        psi = RadialField(grid, np.exp(-grid.nodes**2).astype(complex))
        with pytest.raises(WindowError):
            probe_wave_operator(op_full, op_free, psi, (5.0, 10.0))

    def test_window_error_names_the_first_contaminated_time(self, op_full, op_free, grid):
        # the free backward flow of a raw gaussian is clean at t = 0.01 only
        psi = RadialField(grid, np.exp(-grid.nodes**2).astype(complex))
        times = np.array([0.01, 0.1, 1.0, 5.0])
        rows = evolve(op_free, psi.values, -times)
        dirty = [t for t, row in zip(times, rows)
                 if boundary_mass(RadialField(grid, row)) > 1e-6 * mass(psi)]
        assert dirty[0] == 0.1
        with pytest.raises(WindowError, match=r"at t = 0\.1$"):
            probe_wave_operator(op_full, op_free, psi, times)

    def test_times_must_increase(self, op_full, op_free, grid, rng):
        with pytest.raises(ValueError):
            probe_wave_operator(op_full, op_free, smooth_state(op_free), (2.0, 1.0))


class TestExtraction:
    def test_linear_flow_degenerate(self, op_full, op_free):
        u0 = smooth_state(op_full, amp=0.8)
        rec, cfg = run_with_snapshots(op_full, u0, lam=0.0)
        report = extract_scattering_state(rec.snapshots, op_full, op_free, cfg)
        scale = max(h2_norm(u0), 1.0)
        gaps = np.array([g for _, g in report.cauchy_series])
        assert np.max(gaps) <= 1e-9 * scale
        assert report.mass_identity_gap <= 1e-9
        assert l2_norm(report.u_plus - u0) <= 1e-9 * l2_norm(u0)

    def test_v_mass_invariance(self, op_full, op_free):
        u0 = smooth_state(op_full, amp=1.5)
        rec, cfg = run_with_snapshots(op_full, u0)
        report = extract_scattering_state(rec.snapshots, op_full, op_free, cfg)
        # e^{-itH} is unitary, so the extracted state keeps the run's mass
        assert report.mass_identity_gap <= 1e-10

    def test_continuity_proxy(self, op_full, op_free, rng):
        # perturbing the datum by delta moves u+ by O(delta): slope ~ 1
        u0 = smooth_state(op_full, amp=1.5)
        direction = smooth_state(op_full, amp=1.0, width=2.0)
        direction = (1.0 / h2_norm(direction)) * direction
        moves = []
        deltas = (1e-3, 1e-4)
        base_rec, cfg = run_with_snapshots(op_full, u0, t_end=0.5)
        base = extract_scattering_state(base_rec.snapshots, op_full, op_free, cfg)
        for d in deltas:
            rec, _ = run_with_snapshots(op_full, u0 + d * direction, t_end=0.5)
            rep = extract_scattering_state(rec.snapshots, op_full, op_free, cfg)
            moves.append(h2_norm(rep.u_plus - base.u_plus))
        slope = np.log(moves[0] / moves[1]) / np.log(deltas[0] / deltas[1])
        assert slope == pytest.approx(1.0, abs=0.3)

    def test_tail_below_the_sample_minimum_reads_the_decimated_sample(
            self, op_full, op_free, monkeypatch):
        # 13 snapshots leave 4 in the last quarter, [2.25, 3]: below a minimum of 5 the
        # Z tail is read off the sample decimated by max(1, 13 // 8) = 1, all of it
        times = 0.25 * np.arange(13)
        u0 = smooth_state(op_full)
        sample = SpaceTimeSample(op_full.grid, times, evolve(op_full, u0.values, times),
                                 (0.0, 3.0))
        assert sample.restricted(2.25, 3.0).times.size == 4
        monkeypatch.setattr(analysis, "MIN_TIME_SAMPLES", 5)
        monkeypatch.setattr(scattering, "MIN_TIME_SAMPLES", 5)
        cfg = SimulationConfig(lam=0.0, p=9.0, dt=0.25, t_end=3.0)
        report = extract_scattering_state(sample, op_full, op_free, cfg)
        assert report.z_tail == analysis.spacetime_norm(sample, "Z")

    def test_too_few_snapshots_is_a_resolution_error(self, op_full, op_free):
        # the sample minimum raises the error spacetime_norm raises for it
        times = np.array([0.0, 0.5, 1.0])
        u0 = smooth_state(op_full)
        sample = SpaceTimeSample(op_full.grid, times, evolve(op_full, u0.values, times),
                                 (0.0, 1.0))
        cfg = SimulationConfig(lam=0.0, p=9.0, dt=0.5, t_end=1.0)
        with pytest.raises(analysis.ResolutionError, match="got 3$"):
            extract_scattering_state(sample, op_full, op_free, cfg)

    def test_free_frame_transfer_identity_for_zero_potential(self, op_zero, op_free, grid, rng):
        u = random_smooth_field(grid, rng)
        out = free_frame_transfer(op_zero, op_free, u, 3.0)
        assert np.allclose(out.values, u.values, rtol=1e-10, atol=1e-12)

    def test_cauchy_gaps_shrink_under_time_doubling(self):
        # ||v(2t) - v(t)||_{H^2} falls over three doublings once the solution
        # genuinely disperses (clean window sized for the band velocity)
        from nls4.potentials import example_potential
        from nls4.radial import make_grid
        from nls4.spectral import build_operator

        grid = make_grid(5, 60.0, 768)
        op = build_operator("full", grid, example_potential(5))
        u0 = smooth_state(op, amp=1.5, width=2.5, xi_cut=1.3)
        cfg = SimulationConfig(lam=1.0, p=9.0, dt=4e-3, t_end=4.8, monitor_stride=5,
                               snapshot_stride=2, boundary_threshold=1e-5)
        rec = run_trajectory(u0, op, cfg)
        assert rec.status == "ok"
        snaps = rec.snapshots
        lookup = {
            round(t, 6): RadialField(op.grid, row) for t, row in zip(snaps.times, snaps.values)
        }

        def v_at(t):
            return apply_function(op, "exp_it", -t, lookup[round(t, 6)])

        gaps = [h2_norm(v_at(2 * t) - v_at(t)) for t in (0.6, 1.2, 2.4)]
        assert gaps[0] > gaps[1] > gaps[2]


class TestFinalState:
    def test_linear_case_exact(self, op_full, op_free):
        u_plus = smooth_state(op_full, amp=0.9)
        cfg = SimulationConfig(lam=0.0, p=9.0, dt=2e-3, t_end=2.0, picard_tol=1e-10)
        sol = duhamel_window(u_plus, op_full, cfg, 1.5, 2.0, backward=True)
        exact = apply_function(op_full, "exp_it", 1.5, u_plus)
        assert h2_norm(sol.final_field - exact) <= 1e-10 * h2_norm(exact)
        assert sol.iterations == 1

    def test_round_trip_closes_to_picard_tolerance(self, op_full, op_free):
        u0 = smooth_state(op_full, amp=2.0)
        rec, cfg = run_with_snapshots(op_full, u0, t_end=1.0)
        report = extract_scattering_state(rec.snapshots, op_full, op_free, cfg)
        t_max = rec.snapshots.times[-1]
        t_start = 0.7 * t_max
        sol = duhamel_window(report.u_plus, op_full, cfg, t_start, t_max, backward=True)
        u_end = duhamel_window(sol.final_field, op_full, cfg, t_start, t_max).final_field
        u_plus_new = apply_function(op_full, "exp_it", -t_max, u_end)
        assert h2_norm(u_plus_new - report.u_plus) <= 10.0 * cfg.picard_tol

    def test_round_trip_forward_reproduces_trajectory_state(self, op_full, op_free):
        # re-evolving the backward solution forward lands near the actual run
        u0 = smooth_state(op_full, amp=1.0)
        rec, cfg = run_with_snapshots(op_full, u0, t_end=1.0)
        report = extract_scattering_state(rec.snapshots, op_full, op_free, cfg)
        t_max = rec.snapshots.times[-1]
        # the backward endpoint is e^{i t_max H} u+ by construction, which is
        # within splitting error of the trajectory's own final state
        u_run_end = RadialField(op_full.grid, rec.snapshots.values[-1])
        w_end = apply_function(op_full, "exp_it", t_max, report.u_plus)
        assert l2_norm(w_end - u_run_end) <= 1e-9 * l2_norm(u_run_end)

    def test_smaller_datum_contracts_faster(self, op_full):
        u_plus = smooth_state(op_full, amp=2.5)
        cfg = SimulationConfig(lam=1.0, p=9.0, dt=2e-3, t_end=2.0, picard_tol=1e-12,
                               picard_max_iter=60)
        full = duhamel_window(u_plus, op_full, cfg, 1.5, 2.0, backward=True)
        small = duhamel_window(0.1 * u_plus, op_full, cfg, 1.5, 2.0, backward=True)
        assert small.diffs[-1] / small.diffs[-2] <= full.diffs[-1] / full.diffs[-2]

    def test_window_validation(self, op_full, grid, rng):
        cfg = SimulationConfig(lam=1.0, p=9.0, dt=2e-3, t_end=2.0)
        with pytest.raises(ValueError):
            duhamel_window(random_smooth_field(grid, rng), op_full, cfg, 2.0, 1.0,
                           backward=True)
