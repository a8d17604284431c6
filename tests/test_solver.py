"""Time evolution: splitting, conservation monitors, and the Picard oracle."""

import dataclasses
import functools
import gc
import math
import os
import platform
import warnings
import weakref
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nls4 import solver, spectral
from nls4.config import load_config
from nls4.experiments import run_experiment
from nls4.potentials import example_potential
from nls4.radial import RadialField, _blocks, boundary_mass, make_grid
from nls4.solver import (
    PICARD_ORDER,
    GaussPanels,
    PicardNonContraction,
    SimulationConfig,
    critical_exponent,
    duhamel_window,
    energy,
    mass,
    run_trajectory,
    step_propagator,
)
from nls4.spectral import (
    SpectralOperator, apply_function, build_operator, evolve, evolve_modal, hdot2_norm, l2_norm,
)
from nls4.states import soft_lowpass

from conftest import CONFIG_GRIDS, random_smooth_field

CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"

OMEGA_4 = 8.0 * math.pi**2 / 3.0
# (1/2) omega_4 int (4r^2 - 10)^2 exp(-2 r^2) r^4 dr = 35 sqrt(2) pi^{5/2} / 16
GAUSSIAN_HDOT2_ENERGY = 54.11750192448501


def panel_blocks(num_panels, n):
    """A Picard sweep's blocks of whole panels, as duhamel_window cuts them."""
    return _blocks(num_panels, 16 * n * PICARD_ORDER, solver._PANEL_BLOCK_BYTES)


def small_gaussian(op, amp=0.8, width=3.0, xi_cut=1.4):
    grid = op.grid
    raw = RadialField(grid, amp * np.exp(-((grid.nodes / width) ** 2)).astype(complex))
    return soft_lowpass(op, raw, xi_cut)


def strang_final_state(u0, op, dt, t_end):
    """The state run_trajectory reaches at t_end (lam = 1, p = 9), never halted."""
    cfg = SimulationConfig(lam=1.0, p=9.0, dt=dt, t_end=t_end, snapshot_stride=1,
                           boundary_threshold=1.0)
    rec = run_trajectory(u0, op, cfg)
    assert rec.status == "ok"
    return RadialField(op.grid, rec.snapshots.values[-1])


class TestConfig:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SimulationConfig(lam=1.0, p=0.5, dt=1e-3, t_end=1.0)
        with pytest.raises(ValueError):
            SimulationConfig(lam=1.0, p=9.0, dt=2.0, t_end=1.0)

    @pytest.mark.parametrize("field, value", [
        ("lam", math.nan), ("lam", math.inf), ("p", math.nan), ("p", math.inf),
        ("dt", math.nan), ("t_end", math.inf),
    ])
    def test_rejects_non_finite_values_by_field(self, field, value):
        # nan passed every bound, p = inf made the flow linear below |u| = 1, and
        # t_end = inf raised OverflowError from round()
        kwargs = dict(lam=1.0, p=9.0, dt=1e-3, t_end=1.0) | {field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            SimulationConfig(**kwargs)

    def test_rejects_a_non_finite_step_count(self):
        with pytest.raises(ValueError, match="^t_end / dt must be a finite step count"):
            SimulationConfig(lam=1.0, p=9.0, dt=1e-320, t_end=1.0)

    def test_critical_exponent_value(self):
        assert critical_exponent(5) == pytest.approx(9.0, abs=1e-14)


class TestMassEnergy:
    def test_zero_field(self, grid):
        zero = RadialField(grid, np.zeros(grid.num_points))
        assert mass(zero) == 0.0
        assert energy(zero, np.zeros(grid.num_points), 1.0, 9.0) == 0.0

    def test_constant_mass_closed_form(self, grid):
        u = RadialField(grid, np.ones(grid.num_points, dtype=complex))
        assert mass(u) == pytest.approx(OMEGA_4 * 20.0**5 / 5.0, rel=1e-12)

    def test_mass_homogeneity(self, grid, rng):
        u = random_smooth_field(grid, rng)
        assert mass(2.5 * u) == pytest.approx(2.5**2 * mass(u), rel=1e-13)

    def test_gaussian_energy_against_symbolic_value(self):
        g = make_grid(5, 12.0, 16384)
        u = RadialField(g, np.exp(-g.nodes**2).astype(complex))
        e = energy(u, np.zeros(g.num_points), 0.0, 9.0)
        assert e == pytest.approx(GAUSSIAN_HDOT2_ENERGY, rel=1e-6)

    def test_nonnegative_for_defocusing_with_nonneg_potential(self, grid, op_full, rng):
        u = random_smooth_field(grid, rng)
        assert energy(u, op_full.potential_values, 1.0, 9.0) >= 0.0

    def test_grid_mismatch_rejected(self, grid, rng):
        u = random_smooth_field(grid, rng)
        with pytest.raises(ValueError):
            energy(u, np.zeros(17), 1.0, 9.0)


class TestStrangStep:
    def test_nonlinear_substep_preserves_modulus(self, grid, op_full, rng):
        u = random_smooth_field(grid, rng)
        rotated = solver._nonlinear_phase(u.values, 2.0, 9.0, 0.37)
        assert np.allclose(np.abs(rotated), np.abs(u.values), rtol=1e-13)

    def test_single_step_halving_is_cubic(self, op_full):
        # one dt step vs two dt/2 steps differ at O(dt^3): halving dt -> 1/8
        u = small_gaussian(op_full, amp=1.3)
        errors = {}
        for dt in (1e-3, 5e-4):
            coarse = strang_final_state(u, op_full, dt, dt)
            fine = strang_final_state(u, op_full, dt / 2, dt)
            errors[dt] = l2_norm(coarse - fine)
        assert errors[1e-3] / errors[5e-4] == pytest.approx(8.0, rel=0.25)

    def test_richardson_ratio_near_four(self, op_full):
        # fixed horizon: self-convergence gap scales like the global dt^2 error
        u0 = small_gaussian(op_full, amp=1.3)
        horizon = 0.04

        def final(dt):
            return strang_final_state(u0, op_full, dt, horizon)

        gaps = {dt: l2_norm(final(dt) - final(dt / 2)) for dt in (1e-3, 5e-4)}
        assert gaps[1e-3] / gaps[5e-4] == pytest.approx(4.0, rel=0.2)


class TestRotationKernel:
    @pytest.mark.parametrize("n_points", [192, 384, 512])
    @pytest.mark.parametrize("p", [1.8, 3.0, 9.0])
    @pytest.mark.parametrize("lam", [1.0, -1.0])
    @pytest.mark.parametrize("tau", [2e-3, 1e-3])
    def test_equals_reference_bit_for_bit(self, n_points, p, lam, tau):
        # amplitudes from 1e-3 to 1e2, so theta runs from roundoff to large arguments
        rng = np.random.default_rng(n_points)
        scale = np.logspace(-3.0, 2.0, n_points)
        values = scale * (rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points))
        before = values.copy()
        reference = values * np.exp(1j * lam * tau * np.abs(values) ** (p - 1.0))
        out = solver._nonlinear_phase(values, lam, p, tau)
        assert out.tobytes() == reference.tobytes()
        assert np.array_equal(values, before)

    def test_overflow_raises_solver_error(self):
        # through the stepping path, which checks for overflow once per stretch
        values = np.full(64, 1e200 + 0j)
        cfg = SimulationConfig(lam=1.0, p=9.0, dt=1e-3, t_end=1.0)
        prop = step_propagator(build_operator("free", make_grid(5, 20.0, 64)), cfg.dt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(solver.SolverError, match="overflow"):
                solver._advance(values, 0, 1, cfg, prop)

    def test_monitors_equal_the_reference_functions(self, small_op_full):
        op = small_op_full
        u0 = small_gaussian(op, amp=1.3, width=2.5, xi_cut=1.6)
        cfg = SimulationConfig(lam=1.0, p=9.0, dt=2e-3, t_end=0.2, monitor_stride=5,
                               snapshot_stride=1, boundary_threshold=1.0)
        rec = run_trajectory(u0, op, cfg)
        assert rec.status == "ok" and rec.snapshots.times.size == rec.times.size
        for k, row in enumerate(rec.snapshots.values):
            u = RadialField(op.grid, row)
            assert rec.energy_series[k] == energy(u, op.potential_values, cfg.lam, cfg.p)
            assert rec.mass_series[k] == mass(u)
            assert rec.h2dot_series[k] == hdot2_norm(u) ** 2
            assert rec.boundary_mass_series[k] == boundary_mass(u)


class TestHeldPropagator:
    @staticmethod
    def counting(monkeypatch):
        built = []
        original = solver.step_propagator

        def build(op, tau):
            prop = original(op, tau)
            built.append((tau, weakref.ref(prop)))
            return prop

        monkeypatch.setattr(solver, "step_propagator", build)
        return built

    def test_subcritical_cases_build_one_propagator(self, monkeypatch, tmp_path):
        # five runs on one operator at one dt
        built = self.counting(monkeypatch)
        cfg = load_config(CONFIG_DIR / "subcritical_global_cases.cfg")
        cfg.output_dir = tmp_path
        report = run_experiment(cfg)
        assert report.worst_verdict == "pass"
        assert len(built) == 1

    def test_second_tau_drops_the_first(self, monkeypatch):
        built = self.counting(monkeypatch)
        grid = make_grid(5, 20.0, 64)
        op = build_operator("free", grid)
        u0 = small_gaussian(op, amp=0.5)
        cfg = SimulationConfig(lam=1.0, p=9.0, dt=1e-2, t_end=0.1, boundary_threshold=1.0)
        half = dataclasses.replace(cfg, dt=5e-3)
        run_trajectory(u0, op, cfg)
        run_trajectory(u0, op, cfg)
        assert [tau for tau, _ in built] == [1e-2]
        run_trajectory(u0, op, half)
        gc.collect()
        assert [tau for tau, _ in built] == [1e-2, 5e-3]
        assert built[0][1]() is None and built[1][1]() is not None
        # keyed on tau: back at the first dt, P is built again
        run_trajectory(u0, op, cfg)
        assert [tau for tau, _ in built] == [1e-2, 5e-3, 1e-2]

    def test_forced_runs_keep_both_propagators(self, monkeypatch):
        # each forced run keeps P(dt), the operator's one held table, and its
        # own P(dt/2), which it builds for itself and holds nothing of after
        grid = make_grid(5, 20.0, 64)
        u0 = small_gaussian(build_operator("free", grid), amp=0.5)
        cfg = SimulationConfig(lam=1.0, p=9.0, dt=1e-2, t_end=0.1, boundary_threshold=1.0,
                               snapshot_stride=1)

        def forcing(t):
            return 1e-2 * np.cos(t) * u0.values

        cold = run_trajectory(u0, build_operator("free", grid), cfg, forcing=forcing)
        built = self.counting(monkeypatch)
        op = build_operator("free", grid)
        first = run_trajectory(u0, op, cfg, forcing=forcing)
        second = run_trajectory(u0, op, cfg, forcing=forcing)
        gc.collect()
        assert [tau for tau, _ in built] == [1e-2, 5e-3, 5e-3]
        assert built[0][1]() is not None
        assert built[1][1]() is None and built[2][1]() is None
        for rec in (first, second):
            assert rec.snapshots.values.tobytes() == cold.snapshots.values.tobytes()
            assert rec.energy_series.tobytes() == cold.energy_series.tobytes()

    def test_perturbation_builds_three_propagators(self, monkeypatch, tmp_path):
        # P(dt) once for every run, and one P(dt/2) for each of the two forced runs
        built = self.counting(monkeypatch)
        cfg = load_config(CONFIG_DIR / "perturbation.cfg")
        cfg.output_dir = tmp_path
        report = run_experiment(cfg)
        assert report.worst_verdict == "pass"
        dt = cfg.sim.dt
        assert [tau for tau, _ in built] == [dt, dt / 2.0, dt / 2.0]


def frozen_cumulative(panels, g):
    """GaussPanels.cumulative as it was before it summed real views."""
    panel_full = np.einsum("m,km...->k...", panels.full_weights, g) * panels.half.reshape(
        (-1,) + (1,) * (g.ndim - 2)
    )
    prefix = np.concatenate(
        [np.zeros_like(panel_full[:1]), np.cumsum(panel_full, axis=0)[:-1]], axis=0
    )
    within = np.einsum("ms,ks...->km...", panels.partial, g) * panels.half.reshape(
        (-1, 1) + (1,) * (g.ndim - 2)
    )
    return prefix[:, None] + within, prefix[-1] + panel_full[-1]


def final_state_window(op):
    """final_state's window (at N=256 there): [1.5, 2.0] at dt=2e-3, 250 Gauss panels."""
    u = small_gaussian(op, amp=0.8)
    cfg = SimulationConfig(lam=1.0, p=9.0, dt=2e-3, t_end=2.0)
    return u, cfg, 1.5, 2.0


# bound on the tracemalloc peak of one cold backward final_state_window on a fresh
# N=256 operator, node-table build included: set when the held node table, the
# iterate and two scratch buffers were four (250, 8, 256) complex arrays, with
# half of one more for the panel sums.  Peaks measured with numpy 2.4.6:
# 84.1 MB before sweeps ran in place, 57.4 MB before they ran in reused
# buffers, 35.9 MB before they ran by panel blocks, 30.0 MB before
# GaussPanels.cumulative kept its sums in one array of K + 1 rows and its
# block in the sweep's buffers, 27.9 MB before it kept one block's sums and
# the sweep one block buffer, 25.8 MB before the blocks went from 1 MiB to
# 512 KiB, 25.3 MB now.
WINDOW_PEAK_BOUND = 4.5 * 250 * 8 * 256 * 16

# bytes of final_state_window's iterate, a (250, 8, 256) complex array
ITERATE_BYTES = 250 * 8 * 256 * 16
# a warm window (node table held) beside its iterate holds the integrand array
# and a panel-block buffer: tracemalloc peak 2.09 iterates (2.15 with 1 MiB
# blocks, 2.40 with two block buffers and K + 1 rows of panel sums, 2.66
# before cumulative worked in those buffers, 3.38 when the sweep ran
# whole-array in two iterate-sized scratch buffers)
WARM_WINDOW_PEAK_ITERATES = 3.0
# VmHWM growth of a cold window with glibc's mmap threshold at 128 KiB: the
# node table, three iterate-sized arrays and OpenBLAS's pack buffer of the
# largest GEMM's rows: 3.2 iterates (3.3 with 1 MiB blocks, 3.6 with two
# block buffers and K + 1 rows of panel sums, 3.8 before cumulative worked
# in the sweep's buffers, 5.4 when one GEMM took every row)
COLD_WINDOW_HWM_ITERATES = 4.5


# final_state_window's backward window on a fresh N=256 operator, in a child
# process, where window() runs it
WINDOW_SCRIPT = (
    "import hashlib, numpy as np\n"
    "from nls4.potentials import example_potential\n"
    "from nls4.radial import RadialField, make_grid\n"
    "from nls4.solver import SimulationConfig, duhamel_window\n"
    "from nls4.spectral import build_operator\n"
    "from nls4.states import soft_lowpass\n"
    "grid = make_grid(5, 20.0, 256)\n"
    "op = build_operator('full', grid, example_potential(5))\n"
    "raw = RadialField(grid, 0.8 * np.exp(-((grid.nodes / 3.0) ** 2)).astype(complex))\n"
    "u = soft_lowpass(op, raw, 1.4)\n"
    "cfg = SimulationConfig(lam=1.0, p=9.0, dt=2e-3, t_end=2.0)\n"
    "def window():\n"
    "    return duhamel_window(u, op, cfg, 1.5, 2.0, backward=True)\n"
)


def run_window_script(tail, **env_vars):
    """stdout of WINDOW_SCRIPT + tail in a child process with env_vars set."""
    src = str(Path(solver.__file__).resolve().parents[1])
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", WINDOW_SCRIPT + tail], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout.strip()


@functools.cache
def window_op(n):
    """A full operator at N = n for the Picard bit tests, built once per N."""
    return build_operator("full", make_grid(5, 20.0, n), example_potential(5))


class TestHeldTables:
    @staticmethod
    def counting(monkeypatch, before_build=None):
        """(times shape, weakref) of each phase table SpectralOperator.held builds.

        Only held tables count: step_propagator and a window's anchor and
        output phases call phase_table too.  before_build() runs before each.
        """
        built = []
        held = SpectralOperator.held

        def build(op, times):
            if before_build is not None:
                before_build()
            table = spectral.phase_table(op, times)
            built.append((times.shape, weakref.ref(table)))
            return table

        def counted(op, builder, arg):
            return held(op, build if builder is spectral.phase_table else builder, arg)

        monkeypatch.setattr(SpectralOperator, "held", counted)
        return built

    @pytest.mark.parametrize("kind, shape", [("final_state", (250, 8)), ("strichartz", (129,))])
    def test_config_builds_one_table(self, monkeypatch, tmp_path, kind, shape):
        # final_state: four windows on one interval; strichartz: 31 Duhamel solves
        built = self.counting(monkeypatch)
        cfg = load_config(CONFIG_DIR / f"{kind}.cfg")
        cfg.output_dir = tmp_path
        report = run_experiment(cfg)
        assert report.worst_verdict == "pass"
        assert [s for s, _ in built] == [shape]

    def test_other_interval_rebuilds_and_drops_the_old(self, monkeypatch, op_full):
        built = self.counting(monkeypatch)
        op = build_operator("full", op_full.grid, example_potential(5))
        u, cfg, t0, t1 = final_state_window(op)
        linear = dataclasses.replace(cfg, lam=0.0)
        duhamel_window(u, op, linear, t0, t1)
        duhamel_window(u, op, linear, t0, t1, backward=True)
        assert len(built) == 1
        duhamel_window(u, op, linear, t0 - 0.1, t1)
        gc.collect()
        assert len(built) == 2
        assert built[0][1]() is None and built[1][1]() is not None

    def test_warm_table_equals_cold(self, op_full):
        u, cfg, t0, t1 = final_state_window(op_full)
        cold_op = build_operator("full", op_full.grid, example_potential(5))
        warm_op = build_operator("full", op_full.grid, example_potential(5))
        duhamel_window(u, warm_op, cfg, t0, t1, backward=True)
        for backward in (True, False):
            cold = duhamel_window(u, cold_op, cfg, t0, t1, backward=backward)
            warm = duhamel_window(u, warm_op, cfg, t0, t1, backward=backward)
            assert cold.final_field.values.tobytes() == warm.final_field.values.tobytes()
            assert cold.diffs == warm.diffs

    def test_table_matches_the_inline_exponential(self, op_full):
        panels = GaussPanels(1.5, 2.0, 250)
        mu = op_full.eigenvalues
        inline = np.exp(1j * mu[None, None, :] * panels.nodes[:, :, None])
        assert solver.phase_table(op_full, panels.nodes).tobytes() == inline.tobytes()
        times = np.linspace(0.0, 1.0, 129)
        inline = np.exp(1j * mu * times[:, None])
        assert solver.phase_table(op_full, times).tobytes() == inline.tobytes()

    def test_held_tables_are_read_only(self, op_full):
        # one request after the other: each replaces the operator's table
        op = build_operator("full", op_full.grid, example_potential(5))
        nodes = GaussPanels(0.0, 0.1, 5).nodes
        for build, arg in ((solver.phase_table, nodes), (solver.step_propagator, 1e-2),
                           (solver.phase_table, nodes)):
            held = op.held(build, arg)
            assert op.held(build, arg) is held
            with pytest.raises(ValueError):
                held[0, 0] = 0.0

    def test_table_dies_with_its_operator(self, monkeypatch, op_full):
        built = self.counting(monkeypatch)
        op = build_operator("full", op_full.grid, example_potential(5))
        u, cfg, t0, t1 = final_state_window(op)
        duhamel_window(u, op, dataclasses.replace(cfg, lam=0.0), t0, t1)
        assert built[0][1]() is not None
        del op
        gc.collect()
        assert built[0][1]() is None

    def test_window_drops_the_held_propagator(self, monkeypatch, op_full):
        # one table per operator: a window after a stepped run frees the run's
        # P before it builds its node table, and the next run builds P again
        props = TestHeldPropagator.counting(monkeypatch)
        prop_alive = []
        self.counting(monkeypatch, lambda: prop_alive.append(props[0][1]() is not None))
        op = build_operator("full", op_full.grid, example_potential(5))
        u, cfg, t0, t1 = final_state_window(op)
        run = dataclasses.replace(cfg, t_end=0.02, boundary_threshold=1.0)
        run_trajectory(u, op, run)
        assert props[0][1]() is not None
        duhamel_window(u, op, cfg, t0, t1, backward=True)
        assert prop_alive == [False]
        run_trajectory(u, op, run)
        assert [tau for tau, _ in props] == [2e-3, 2e-3]

    @pytest.mark.parametrize("backward", [True, False])
    @pytest.mark.parametrize("lam", [1.0, 0.0])
    @pytest.mark.parametrize("num_panels", [1, 3, 17, 33, 250, 257])
    @pytest.mark.parametrize("n", [96, 192, 256, 512])
    def test_in_place_sweeps_equal_the_expression_form(self, n, num_panels, lam, backward):
        # the fixed point written as expressions, with the complex-einsum
        # quadrature, as before sweeps ran in place, in reused buffers and by
        # panel blocks.  K = 1 and 3 at N <= 192 stay below the small-GEMM
        # bound; K = 17 at N = 512 and K = 33 and 257 at N = 256 leave a
        # one-panel last block, and K = 257 at N = 256 carries its panel sums
        # across nine blocks
        op = window_op(n)
        u, cfg, t0, _ = final_state_window(op)
        cfg = dataclasses.replace(cfg, lam=lam)
        t1 = t0 + num_panels * cfg.dt
        panels = GaussPanels(t0, t1, num_panels)
        mu = op.eigenvalues
        anchor = op.to_modal(u.values)
        if not backward:
            anchor = anchor * np.exp(-1j * mu * t0)
        node_phases = np.exp(1j * mu[None, None, :] * panels.nodes[:, :, None])
        coeffs = node_phases * anchor
        diffs = []
        for _ in range(cfg.picard_max_iter):
            u_nodes = op.from_modal(coeffs.reshape(-1, mu.size))
            g_nodes = np.abs(u_nodes) ** (cfg.p - 1.0) * u_nodes
            f_modal = op.to_modal(g_nodes).reshape(coeffs.shape)
            g_cum, g_total = frozen_cumulative(panels, np.conj(node_phases) * f_modal)
            if backward:
                g_cum -= g_total
            # node_phases * (anchor + i lam G) takes this operand order only
            # where numpy reuses temporaries (arrays of 256 KiB or more)
            new_coeffs = (1j * cfg.lam * g_cum + anchor) * node_phases
            delta = (new_coeffs - coeffs).reshape(-1, mu.size)
            h2_weight = 1.0 + np.sqrt(np.maximum(mu, 0.0))
            diffs.append(float(np.max(np.linalg.norm(delta * h2_weight, axis=1))))
            coeffs = new_coeffs
            if diffs[-1] < cfg.picard_tol:
                break
        sol = duhamel_window(u, op, cfg, t0, t1, backward=backward)
        assert sol.diffs == diffs
        t_out, g_out = (t0, -g_total) if backward else (t1, g_total)
        out_modal = np.exp(1j * mu * t_out) * (anchor + 1j * cfg.lam * g_out)
        expected = op.from_modal(out_modal)
        assert sol.final_field.values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [96, 192, 256, 512, 1000, 2560])
    @pytest.mark.parametrize("num_panels", [1, 2, 3, 17, 33, 250, 257, 1000])
    def test_blocks_are_whole_panels_past_the_small_gemm_bound(self, n, num_panels):
        blocks = panel_blocks(num_panels, n)
        assert blocks[0].start == 0 and blocks[-1].stop == num_panels
        for before, after in zip(blocks, blocks[1:]):
            assert before.stop == after.start
        # whole panels at the byte target: every block but the last holds as
        # many panels as fit in _PANEL_BLOCK_BYTES of complex rows (at least one)
        panel_bytes = 16 * n * PICARD_ORDER
        per_block = max(1, solver._PANEL_BLOCK_BYTES // panel_bytes)
        sizes = [b.stop - b.start for b in blocks]
        assert sizes[:-1] == [per_block] * (len(blocks) - 1)
        assert 0 < sizes[-1] <= per_block
        assert per_block == 1 or per_block * panel_bytes <= solver._PANEL_BLOCK_BYTES
        assert (per_block + 1) * panel_bytes > solver._PANEL_BLOCK_BYTES

    def test_final_state_window_runs_in_sixteen_blocks(self):
        blocks = panel_blocks(250, 256)
        assert [b.stop - b.start for b in blocks] == [16] * 15 + [10]

    def test_same_window_bits_at_one_and_two_blas_threads(self):
        tail = (
            "sol = window()\n"
            "digest = hashlib.sha256(sol.final_field.values.tobytes())\n"
            "digest.update(repr(sol.diffs).encode())\n"
            "print(digest.hexdigest())\n"
        )
        digests = [run_window_script(tail, OPENBLAS_NUM_THREADS=t) for t in ("1", "2")]
        assert digests[0] == digests[1]

    def test_window_peak_memory_not_above_parent(self, op_full):
        op = build_operator("full", op_full.grid, example_potential(5))
        u, cfg, t0, t1 = final_state_window(op)
        tracemalloc.start()
        try:
            duhamel_window(u, op, cfg, t0, t1, backward=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= WINDOW_PEAK_BOUND

    def test_warm_window_peak_memory(self, op_full):
        op = build_operator("full", op_full.grid, example_potential(5))
        u, cfg, t0, t1 = final_state_window(op)
        duhamel_window(u, op, cfg, t0, t1, backward=True)  # holds the node table
        tracemalloc.start()
        try:
            duhamel_window(u, op, cfg, t0, t1, backward=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= WARM_WINDOW_PEAK_ITERATES * ITERATE_BYTES

    def test_cold_window_resident_growth(self):
        # VmHWM sees what tracemalloc cannot: OpenBLAS's buffer that packs the
        # rows of a GEMM stays resident.  A child with glibc's mmap threshold
        # fixed at 128 KiB, as perfbench runs
        if sys.platform != "linux" or platform.libc_ver()[0] != "glibc":
            pytest.skip("resident-growth bound needs glibc's malloc tunables")
        if not Path("/proc/self/status").exists():
            pytest.skip("resident-growth bound needs /proc/self/status")
        tail = (
            "def hwm():\n"
            "    with open('/proc/self/status') as status:\n"
            "        line = next(l for l in status if l.startswith('VmHWM:'))\n"
            "    return int(line.split()[1]) * 1024\n"
            "before = hwm()\n"
            "window()\n"
            "print(hwm() - before)\n"
        )
        growth = run_window_script(tail, GLIBC_TUNABLES="glibc.malloc.mmap_threshold=131072")
        assert int(growth) <= COLD_WINDOW_HWM_ITERATES * ITERATE_BYTES


class TestBufferedSweeps:
    """Real-view quadrature and sweeps in reused buffers keep every bit."""

    @pytest.mark.parametrize("num_panels", [1, 3, 33, 250])
    @pytest.mark.parametrize("trailing", [(), (256,), (3, 5)])
    @pytest.mark.parametrize("dtype", [complex, float])
    def test_cumulative_equals_the_complex_einsum(self, num_panels, trailing, dtype):
        # the sweep's blocks at N = 256: 33 and 250 panels leave a one- and a
        # 10-panel last block.  The within-panel block goes into work; a work
        # too small raises
        panels = GaussPanels(0.3, 1.1, num_panels)
        rng = np.random.default_rng(num_panels + len(trailing))
        shape = (num_panels, PICARD_ORDER, *trailing)
        g = rng.standard_normal(shape)
        if dtype is complex:
            g = g + 1j * rng.standard_normal(shape)
        ref_cum, ref_total = frozen_cumulative(panels, g)
        blocks = panel_blocks(num_panels, 256)
        block_size = blocks[0].stop * g[0].size
        fits, too_small = np.empty(block_size, g.dtype), np.empty(block_size - 1, g.dtype)
        for out_is_g in (False, True):
            src = g.copy() if out_is_g else g
            out = src if out_is_g else np.empty_like(g)
            cum, total = panels.cumulative(src, out, fits, blocks)
            assert cum is out
            assert cum.dtype == ref_cum.dtype and total.dtype == ref_total.dtype
            assert cum.tobytes() == ref_cum.tobytes()
            assert total.tobytes() == ref_total.tobytes()
        with pytest.raises(TypeError, match="too small"):
            panels.cumulative(g, np.empty_like(g), too_small, blocks)
        # beside out and work, a call allocates one block's rows of panel sums
        # plus the carried total, and no block; the slack is numpy's ufunc
        # iterator buffer of getbufsize() elements
        slack = 16 * np.getbufsize() + (1 << 14)
        if fits.nbytes <= slack:
            return  # a block too small to tell from that buffer
        sums_bytes = (blocks[0].stop + 1) * g[0, 0].nbytes
        out = np.empty_like(g)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            panels.cumulative(g, out, fits, blocks)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < sums_bytes + slack < sums_bytes + fits.nbytes

    @staticmethod
    def summed_in_place_peak(num_panels):
        """Traced bytes one cumulative(g, out=g) allocates on (K, 8, 256) complex
        panels, with a work buffer that holds a block."""
        panels = GaussPanels(0.3, 1.1, num_panels)
        rng = np.random.default_rng(num_panels)
        shape = (num_panels, PICARD_ORDER, 256)
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        work = np.empty((32, PICARD_ORDER, 256), complex)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            panels.cumulative(g, g, work, panel_blocks(num_panels, 256))
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_block_allocates_its_sums_and_no_iterator_buffer(self):
        # one (32, 8, 256) block: its 32 rows of panel sums, the carried
        # total and the returned copy, 4 KiB each.  A broadcasting ufunc
        # would add numpy's iterator buffer, 128 KiB for complex
        row_bytes = 256 * 16
        assert self.summed_in_place_peak(32) < 34 * row_bytes + (1 << 13)

    def test_allocation_does_not_grow_with_the_panel_count(self):
        # one block's panel sums whatever K: at K = 1000 the K + 1 rows of all
        # panel sums would be 4 MB; the tolerance, under two rows, is Python's
        # own allocations
        peaks = [self.summed_in_place_peak(k) for k in (250, 1000)]
        assert abs(peaks[0] - peaks[1]) < 1 << 13

    def test_cumulative_in_a_sweep_allocates_no_block(self, monkeypatch, op_full):
        # in final_state's window the sweep hands cumulative its buffer and
        # the blocks it sized that buffer from, so beside out a call traces
        # one block's 17 rows of panel sums and the total (4 KiB each), not
        # the 512 KiB within-panel block; the slack is numpy's iterator buffer
        original, peaks = GaussPanels.cumulative, []

        def traced(self, g, out, work, blocks):
            tracemalloc.start()
            try:
                result = original(self, g, out, work, blocks)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return result

        monkeypatch.setattr(GaussPanels, "cumulative", traced)
        u, cfg, t0, t1 = final_state_window(op_full)
        sol = duhamel_window(u, op_full, cfg, t0, t1, backward=True)
        block_bytes = 16 * PICARD_ORDER * 256 * 16
        sums_bytes = 18 * 256 * 16
        assert len(peaks) == sol.iterations
        assert max(peaks) < sums_bytes + 16 * np.getbufsize() + (1 << 14) < block_bytes

    def test_sweep_transforms_run_in_caller_buffers(self, monkeypatch, op_full):
        # every transform of a sweep runs in caller buffers
        calls = []
        for name in ("to_modal", "from_modal"):
            original = getattr(type(op_full), name)

            def spy(self, values, out=None, work=None, _original=original, _name=name):
                if values.size > op_full.grid.num_points:
                    calls.append((_name, out is not None and work is not None))
                return _original(self, values, out=out, work=work)

            monkeypatch.setattr(type(op_full), name, spy)
        u, cfg, t0, t1 = final_state_window(op_full)
        sol = duhamel_window(u, op_full, cfg, t0, t1, backward=True)
        blocks = panel_blocks(250, op_full.grid.num_points)
        assert len(calls) == 2 * sol.iterations * len(blocks)
        assert all(buffered for _, buffered in calls)


def frozen_propagator(op, tau):
    """step_propagator's loop before its blocks went into two buffers, with its own cos and sin."""
    q, qt = op.eigenvectors, op.eigenvectors.T
    phase = tau * op.eigenvalues
    cos, sin = np.cos(phase), np.sin(phase)
    sqrt_m = op.grid.metric_sqrt
    n = q.shape[0]
    frozen = np.empty((n, n), dtype=complex)
    for start in range(0, n, 64):
        rows = slice(start, start + 64)
        for part, factor in ((frozen.real, cos), (frozen.imag, sin)):
            block = (q[rows] * factor) @ qt
            block *= sqrt_m
            block /= sqrt_m[rows, None]
            part[rows] = block
    return frozen


@pytest.fixture(scope="module")
def finest_config_op():
    """A full operator on the finest config grid, whose top eigenvalues make the largest t mu."""
    grid = min(CONFIG_GRIDS, key=lambda g: g[1] / g[2])
    return build_operator("full", make_grid(*grid), example_potential(5))


@pytest.mark.parametrize("which", ["op_full", "finest_config_op"])
def test_every_phase_site_equals_its_inline_expression(which, request, rng):
    # every site that reads spectral.phase_table keeps the bits of the
    # e^{i t mu} expression it formed itself before, operand order included
    # (complex products are not bitwise commutative)
    op = request.getfixturevalue(which)
    mu = op.eigenvalues
    u = random_smooth_field(op.grid, rng)
    coeffs = op.to_modal(u.values)
    for t in (-1.3, 0.0, 0.7):
        # apply_function's exp_it; a Picard window's anchor and output factors
        inline = op.from_modal(coeffs * np.exp(1j * t * mu))
        assert apply_function(op, "exp_it", t, u).values.tobytes() == inline.tobytes()
        assert spectral.phase_table(op, -t).tobytes() == np.exp(-1j * mu * t).tobytes()
        assert spectral.phase_table(op, t).tobytes() == np.exp(1j * mu * t).tobytes()
    # evolve_modal, the exact linear path's and evolve's
    times = np.array([-1.3, 0.0, 0.7, 2.0])
    inline = op.from_modal(np.exp(1j * times[:, None] * mu) * coeffs)
    assert evolve_modal(op, coeffs, times).tobytes() == inline.tobytes()
    # step_propagator's cos and sin
    for tau in (2e-3, -0.37):
        assert step_propagator(op, tau).tobytes() == frozen_propagator(op, tau).tobytes()


class TestStepPropagator:
    @pytest.mark.parametrize("which", ["small_op_full", "op_full"])
    def test_matches_modal_round_trip(self, which, request, rng):
        op = request.getfixturevalue(which)
        u = random_smooth_field(op.grid, rng)
        dt = 2e-3
        modal = op.from_modal(np.exp(1j * dt * op.eigenvalues) * op.to_modal(u.values))
        dense = step_propagator(op, dt) @ u.values
        assert np.linalg.norm(dense - modal) <= 1e-12 * np.linalg.norm(modal)

    def test_merged_rotations_match_unmerged_steps(self, small_op_full):
        op = small_op_full
        u0 = small_gaussian(op, amp=1.3, width=2.5, xi_cut=1.6)
        cfg = SimulationConfig(lam=1.0, p=9.0, dt=2e-3, t_end=0.2, monitor_stride=7,
                               snapshot_stride=1, boundary_threshold=1.0)
        rec = run_trajectory(u0, op, cfg)
        assert rec.status == "ok"
        phases = np.exp(1j * cfg.dt * op.eigenvalues)
        values, reference = u0.values, {}
        for step in range(1, int(round(cfg.t_end / cfg.dt)) + 1):
            values = solver._nonlinear_phase(values, cfg.lam, cfg.p, cfg.dt / 2)
            values = op.from_modal(phases * op.to_modal(values))
            values = solver._nonlinear_phase(values, cfg.lam, cfg.p, cfg.dt / 2)
            reference[round(step * cfg.dt, 12)] = values
        snaps = rec.snapshots
        assert snaps.times.size == len(rec.times) > 3
        for t, u in zip(snaps.times[1:], snaps.values[1:]):
            ref = reference[round(t, 12)]
            assert np.linalg.norm(u - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_linear_run_is_the_exact_flow(self, op_full):
        u0 = small_gaussian(op_full, amp=0.5)
        cfg = SimulationConfig(lam=0.0, p=9.0, dt=1e-2, t_end=0.5, monitor_stride=5,
                               snapshot_stride=1, boundary_threshold=1.0)
        rec = run_trajectory(u0, op_full, cfg)
        assert np.array_equal(rec.snapshots.values[0], u0.values)
        exact = evolve(op_full, u0.values, rec.times[1:])
        for u, row in zip(rec.snapshots.values[1:], exact, strict=True):
            assert np.linalg.norm(u - row) <= 1e-14 * np.linalg.norm(row)

    def test_same_bits_at_one_and_two_blas_threads(self):
        script = (
            "import hashlib, numpy as np\n"
            "from nls4 import radial, solver, spectral\n"
            "grid = radial.make_grid(5, 20.0, 512)\n"
            "p = solver.step_propagator(spectral.build_operator('free', grid), 2e-3)\n"
            "u = np.exp(-(grid.nodes / 3.0) ** 2).astype(complex)\n"
            "for _ in range(200):\n"
            "    u = p @ u\n"
            "print(hashlib.sha256(p.tobytes()).hexdigest(), hashlib.sha256(u.tobytes()).hexdigest())\n"
        )
        src = str(Path(solver.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                 capture_output=True, text=True)
            digests.append(out.stdout.split())
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("n", [96, 192, 200, 512])
    @pytest.mark.parametrize("tau", [2e-3, -0.37])
    def test_buffered_blocks_equal_the_allocating_loop(self, n, tau):
        # 96 and 200 leave a short last block
        op = build_operator("full", make_grid(5, 20.0, n), example_potential(5))
        assert step_propagator(op, tau).tobytes() == frozen_propagator(op, tau).tobytes()

    def test_build_memory_stays_near_the_matrix(self):
        grid = make_grid(5, 20.0, 512)
        op = build_operator("free", grid)
        tracemalloc.start()
        try:
            step_propagator(op, 2e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 16 * grid.num_points**2


class TestRunTrajectory:
    def test_linear_gaussian_mass_drift(self, op_full):
        u0 = small_gaussian(op_full, amp=0.5)
        cfg = SimulationConfig(lam=0.0, p=9.0, dt=1e-3, t_end=1.0, monitor_stride=50,
                               boundary_threshold=1.0)
        rec = run_trajectory(u0, op_full, cfg)
        assert rec.mass_drift() <= 1e-10

    def test_defocusing_critical_conservation(self, op_full):
        u0 = small_gaussian(op_full, amp=1.0)
        cfg = SimulationConfig(lam=1.0, p=9.0, dt=1e-3, t_end=0.5, monitor_stride=25,
                               boundary_threshold=1.0)
        rec = run_trajectory(u0, op_full, cfg)
        assert rec.mass_drift() <= 1e-8
        assert rec.energy_drift() <= 1e-6

    def test_energy_drift_shrinks_quadratically(self, op_full):
        u0 = small_gaussian(op_full, amp=1.3)
        drifts = {}
        for dt in (1e-3, 5e-4):
            cfg = SimulationConfig(lam=1.0, p=9.0, dt=dt, t_end=0.3,
                                   monitor_stride=int(0.05 / dt), boundary_threshold=1.0)
            drifts[dt] = run_trajectory(u0, op_full, cfg).energy_drift()
        assert drifts[1e-3] / drifts[5e-4] == pytest.approx(4.0, rel=0.3)

    def test_defocusing_hdot2_bounded_by_energy(self, op_full):
        # V >= 0 and lam > 0: ||Delta u||^2 <= 2E exactly, up to drift slack
        u0 = small_gaussian(op_full, amp=1.0)
        cfg = SimulationConfig(lam=1.0, p=3.0, dt=1e-3, t_end=0.5, monitor_stride=25,
                               boundary_threshold=1.0)
        rec = run_trajectory(u0, op_full, cfg)
        bound = 2.0 * math.sqrt(2.0 * rec.energy_series[0]) + 1e-6
        assert np.sqrt(np.max(rec.h2dot_series)) <= bound

    def test_focusing_large_data_flags_blowup(self):
        grid = make_grid(5, 12.0, 256)
        from nls4.spectral import build_operator

        op = build_operator("full", grid, example_potential(5))
        u0 = small_gaussian(op, amp=6.0, width=2.5, xi_cut=1.6)
        cfg = SimulationConfig(lam=-1.0, p=3.4, dt=2e-4, t_end=0.5, monitor_stride=25,
                               boundary_threshold=1.0)
        rec = run_trajectory(u0, op, cfg)
        assert rec.status == "blowup_suspected"
        assert rec.times[-1] < 0.5

    def test_boundary_contamination_halts(self, op_full):
        # raw gaussian leaks fast content to the wall almost immediately
        u0 = RadialField(op_full.grid, np.exp(-op_full.grid.nodes**2).astype(complex))
        cfg = SimulationConfig(lam=0.0, p=9.0, dt=1e-3, t_end=1.0, monitor_stride=10)
        rec = run_trajectory(u0, op_full, cfg)
        assert rec.status == "boundary_contaminated"
        assert rec.times[-1] < 1.0

    def test_snapshots_recorded(self, op_full):
        u0 = small_gaussian(op_full, amp=0.5)
        cfg = SimulationConfig(lam=0.0, p=9.0, dt=1e-2, t_end=0.5, monitor_stride=5,
                               snapshot_stride=2, boundary_threshold=1.0)
        rec = run_trajectory(u0, op_full, cfg)
        assert rec.snapshots.times.size >= 4
        assert rec.snapshots.times[0] == 0.0

    def test_snapshots_are_one_array_ending_at_the_last_step(self, small_op_full):
        op = small_op_full
        u0 = small_gaussian(op, amp=1.3, width=2.5, xi_cut=1.6)
        cfg = SimulationConfig(lam=1.0, p=9.0, dt=2e-3, t_end=0.2, monitor_stride=7,
                               snapshot_stride=2, boundary_threshold=1.0)
        rec = run_trajectory(u0, op, cfg)
        snaps = rec.snapshots
        # every 14th step, then step 100, which is off that grid
        steps = [*range(0, 100, 14), 100]
        assert isinstance(snaps.values, np.ndarray) and snaps.values.dtype == complex
        assert snaps.values.shape == (len(steps), op.grid.num_points)
        assert np.array_equal(snaps.times, np.array(steps) * cfg.dt)
        final = run_trajectory(u0, op, dataclasses.replace(cfg, monitor_stride=100))
        last = final.snapshots.values[-1]
        assert np.linalg.norm(snaps.values[-1] - last) <= 1e-12 * np.linalg.norm(last)

    def test_non_finite_state_halts_as_blowup(self):
        # the perturbation config's operator and steps, with a forcing that
        # turns infinite after t = 0.1: the run keeps its record and says why
        grid = make_grid(5, 16.0, 192)
        op = build_operator("full", grid, example_potential(5))
        u0 = small_gaussian(op, amp=0.5)
        cfg = SimulationConfig(lam=1.0, p=critical_exponent(5), dt=2e-3, t_end=0.5,
                               monitor_stride=5, snapshot_stride=5, boundary_threshold=1.0)

        def forcing(t):
            return np.full(grid.num_points, np.inf if t > 0.1 else 0.0)

        with np.errstate(invalid="ignore"):
            rec = run_trajectory(u0, op, cfg, forcing=forcing)
        assert rec.status == "blowup_suspected"
        assert 0.1 < rec.times[-1] < 0.5
        assert np.array_equal(rec.times, np.arange(rec.times.size) * 5 * cfg.dt)
        assert np.isfinite(rec.h2dot_series[:-1]).all() and np.isfinite(rec.mass_series[:-1]).all()
        assert not np.isfinite(rec.h2dot_series[-1])
        assert np.array_equal(rec.snapshots.times, rec.times[::5])

    def test_exact_path_states_are_evolve_rows(self, monkeypatch, op_full):
        # 1000 monitors at N = 256 take 32 chunks of evolve_modal, all from u0's
        # coefficients taken once; every state has the bits of one evolve call
        # over all monitor times
        u0 = small_gaussian(op_full, amp=0.5)
        cfg = SimulationConfig(lam=0.0, p=9.0, dt=1e-3, t_end=1.0, monitor_stride=1,
                               snapshot_stride=1, boundary_threshold=1.0)
        calls, transformed = [], []
        monkeypatch.setattr(solver, "evolve_modal",
                            lambda *a: calls.append(a) or evolve_modal(*a))
        to_modal = type(op_full).to_modal
        monkeypatch.setattr(type(op_full), "to_modal",
                            lambda op, v, **kw: transformed.append(v.shape)
                            or to_modal(op, v, **kw))
        rec = run_trajectory(u0, op_full, cfg)
        per_chunk = solver._EXACT_CHUNK_BYTES // (16 * op_full.grid.num_points)
        assert rec.status == "ok" and len(calls) == -(-1000 // per_chunk) == 32
        assert transformed == [u0.values.shape]
        assert all(coeffs is calls[0][1] for _, coeffs, _ in calls)
        assert calls[0][1].tobytes() == op_full.to_modal(u0.values).tobytes()
        states = evolve(op_full, u0.values, rec.times[1:])
        assert states.tobytes() == rec.snapshots.values[1:].tobytes()
        h2 = [hdot2_norm(RadialField(op_full.grid, row)) ** 2 for row in states]
        assert rec.h2dot_series[1:].tolist() == h2
        # a run halted in the first chunk forms no other
        calls.clear()
        wall = RadialField(op_full.grid, np.exp(-op_full.grid.nodes**2).astype(complex))
        rec = run_trajectory(wall, op_full, dataclasses.replace(cfg, boundary_threshold=1e-6))
        assert rec.status == "boundary_contaminated" and len(calls) == 1

    def test_halt_at_t0_builds_no_propagator(self, monkeypatch):
        grid = make_grid(5, 20.0, 64)
        op = build_operator("free", grid)

        def no_propagator(*args):
            raise AssertionError("step propagator built for a run halted at t = 0")

        monkeypatch.setattr(solver, "step_propagator", no_propagator)
        u0 = RadialField(grid, np.ones(grid.num_points, dtype=complex))
        cfg = SimulationConfig(lam=1.0, p=9.0, dt=0.01, t_end=1.0, snapshot_stride=1)
        rec = run_trajectory(u0, op, cfg)
        assert rec.status == "boundary_contaminated"
        assert np.array_equal(rec.times, [0.0])
        assert np.array_equal(rec.snapshots.times, [0.0])


class TestGaussPanels:
    def test_partial_integrals_exact_on_polynomials(self):
        panels = GaussPanels(0.0, 2.0, 5)
        # integrand t^k for k <= 7 must integrate exactly to node positions
        for k in (0, 1, 3, 7):
            g = panels.nodes[..., None] ** k
            cum, total = panels.cumulative(g, np.empty_like(g), np.empty_like(g),
                                           panel_blocks(panels.num_panels, 256))
            expected = panels.nodes ** (k + 1) / (k + 1)
            assert np.allclose(cum[..., 0], expected, rtol=1e-12, atol=1e-14)
            assert total[0] == pytest.approx(2.0 ** (k + 1) / (k + 1), rel=1e-12)


class TestPicard:
    def test_linear_case_single_iteration(self, op_full):
        u0 = small_gaussian(op_full, amp=0.7)
        cfg = SimulationConfig(lam=0.0, p=9.0, dt=2e-3, t_end=0.04)
        sol = duhamel_window(u0, op_full, cfg, 0.0, 0.04)
        assert sol.iterations == 1
        exact = apply_function(op_full, "exp_it", 0.04, u0)
        assert l2_norm(sol.final_field - exact) <= 1e-12

    def test_contraction_factor_grows_with_window(self, op_full):
        u0 = small_gaussian(op_full, amp=2.2)
        cfg = SimulationConfig(lam=1.0, p=9.0, dt=5e-3, t_end=1.0, picard_max_iter=80)
        factors = []
        for t_final in (0.1, 0.4, 1.0):
            sol = duhamel_window(u0, op_full, cfg, 0.0, t_final)
            factors.append(sol.diffs[-1] / sol.diffs[-2])
        assert factors[0] < factors[-1]

    def test_non_contraction_raises_with_factor(self, op_full):
        u0 = small_gaussian(op_full, amp=3.0)
        cfg = SimulationConfig(lam=1.0, p=9.0, dt=0.25, t_end=8.0, picard_max_iter=60)
        with pytest.raises((PicardNonContraction, solver.SolverError)) as err:
            duhamel_window(u0, op_full, cfg, 0.0, 8.0)
        if isinstance(err.value, PicardNonContraction):
            assert err.value.factor > 0
