"""Grid construction, quadrature exactness, and the Lebesgue-type norms."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nls4 import analysis, solver
from nls4.experiments import _stock_pairs
from nls4.radial import (
    GridError,
    RadialField,
    SpaceTimeSample,
    _blocks,
    _boundary_masses,
    boundary_mass,
    localized_mass,
    lp_norm,
    lp_norm_values,
    make_grid,
    smooth_cutoff,
    sphere_surface_area,
    weak_lp_norm,
)

from conftest import CONFIG_GRIDS, random_smooth_field

OMEGA_4 = 8.0 * math.pi**2 / 3.0  # area of S^4


def quad_weights(g):
    """The r^{n-1} dr quadrature weights the metric holds, omega_{n-1} times them."""
    return g.metric / sphere_surface_area(g.dimension)


class TestMakeGrid:
    def test_surface_constant_closed_form(self, grid):
        assert sphere_surface_area(grid.dimension) == pytest.approx(OMEGA_4, rel=1e-12)

    def test_nodes_strictly_increasing_interior(self, grid):
        assert np.all(np.diff(grid.nodes) > 0)
        assert grid.nodes[0] > 0
        assert grid.nodes[-1] < grid.r_max

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_monomial_exactness(self, grid, k):
        n = grid.dimension
        approx = np.sum(quad_weights(grid) * grid.nodes**k)
        exact = grid.r_max ** (n + k) / (n + k)
        assert abs(approx - exact) / exact <= 1e-10

    @pytest.mark.parametrize("n,r_max,num", [(5, 20.0, 16), (6, 30.0, 64), (7, 15.0, 128)])
    def test_monomial_exactness_other_grids(self, n, r_max, num):
        g = make_grid(n, r_max, num)
        for k in range(3):
            approx = np.sum(quad_weights(g) * g.nodes**k)
            exact = r_max ** (n + k) / (n + k)
            assert abs(approx - exact) / exact <= 1e-10

    def test_weights_positive(self, grid):
        assert np.all(quad_weights(grid) > 0)

    def test_too_few_points_rejected(self):
        with pytest.raises(GridError):
            make_grid(5, 20.0, 8)

    def test_low_dimension_rejected_without_override(self):
        with pytest.raises(GridError):
            make_grid(4, 20.0, 256)

    @pytest.mark.parametrize("n,r_max,num", [(0, 20.0, 64), (5, -1.0, 64), (5, 0.0, 64)])
    def test_invalid_parameters(self, n, r_max, num):
        with pytest.raises(GridError):
            make_grid(n, r_max, num)


class TestLpNorm:
    def test_zero_field(self, grid):
        for p in (1.0, 2.0, 5.0, math.inf):
            assert lp_norm(RadialField(grid, np.zeros(grid.num_points)), p) == 0.0

    def test_constant_field_closed_form(self, grid):
        u = RadialField(grid, np.ones(grid.num_points, dtype=complex))
        expected = math.sqrt(OMEGA_4 * 20.0**5 / 5.0)
        assert lp_norm(u, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_homogeneity_complex_scalar(self, grid, rng):
        u = random_smooth_field(grid, rng)
        c = 3.0 + 4.0j
        for p in (1.0, 2.0, 10.0, math.inf):
            assert lp_norm(c * u, p) == pytest.approx(5.0 * lp_norm(u, p), rel=1e-12)

    def test_rejects_p_below_one(self, grid, rng):
        with pytest.raises(ValueError):
            lp_norm(random_smooth_field(grid, rng), 0.5)

    @pytest.mark.parametrize("grid_name", ["small_grid", "grid"])
    @pytest.mark.parametrize("p", [1.0, 2.0, 90.0 / 41.0, 18.0, math.inf])
    def test_rows_match_per_field_reference(self, request, grid_name, p):
        g = request.getfixturevalue(grid_name)
        rng = np.random.default_rng(21)
        rows = np.array(
            [random_smooth_field(g, rng).values for _ in range(3)]
            + [np.zeros(g.num_points, dtype=complex)]
        )

        def one_field(values):
            a = np.abs(values)
            peak = a.max()
            if p == math.inf or peak == 0.0:
                return peak
            return peak * np.sum(g.metric * (a / peak) ** p) ** (1.0 / p)

        ref = np.array([one_field(row) for row in rows])
        assert np.array_equal(lp_norm_values(g, rows, p), ref)
        assert np.array_equal([lp_norm(RadialField(g, row), p) for row in rows], ref)
        assert ref[-1] == 0.0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), p=st.sampled_from([2.0, 10.0 / 3.0, 10.0]))
    def test_triangle_inequality(self, grid, seed, p):
        r = np.random.default_rng(seed)
        u = random_smooth_field(grid, r)
        v = random_smooth_field(grid, r)
        assert lp_norm(u + v, p) <= lp_norm(u, p) + lp_norm(v, p) + 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), p=st.sampled_from([1.5, 2.0, 4.0]))
    def test_holder_inequality(self, grid, seed, p):
        r = np.random.default_rng(seed)
        u = random_smooth_field(grid, r)
        v = random_smooth_field(grid, r)
        uv = RadialField(grid, u.values * v.values)
        q = p / (p - 1.0)
        assert lp_norm(uv, 1.0) <= lp_norm(u, p) * lp_norm(v, q) * (1 + 1e-12)


class TestWeakNorm:
    def test_zero_field(self, grid):
        assert weak_lp_norm(RadialField(grid, np.zeros(grid.num_points)), 1.25) == 0.0

    def test_rejects_r_at_most_one(self, grid, rng):
        with pytest.raises(ValueError):
            weak_lp_norm(random_smooth_field(grid, rng), 1.0)

    def test_bracket_family_matches_dense_oracle(self, grid):
        # <x>^{-beta} with beta = n + 5, weak exponent r = n/4
        values = (1.0 + grid.nodes**2) ** (-5.0)
        u = RadialField(grid, values.astype(complex))
        measured = weak_lp_norm(u, 1.25)
        a = np.abs(u.values)
        levels = np.geomspace(a.max() * 1e-12, a.max(), 10_000)
        order = np.argsort(a)
        tail = np.concatenate([np.cumsum(grid.metric[order][::-1])[::-1], [0.0]])
        idx = np.searchsorted(a[order], levels, side="right")
        brute = float(np.max(levels * tail[idx] ** 0.8))
        assert measured == pytest.approx(brute, rel=0.01)

    @pytest.mark.parametrize("r", [1.25, 2.5])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_exact_sup_with_plateau(self, small_grid, r, seed):
        # just below each node value a_k, {|u| > gamma} is {|u| >= a_k}
        rng = np.random.default_rng(seed)
        u = random_smooth_field(small_grid, rng)
        start = int(rng.integers(0, 30))
        u.values[start:start + 10] = u.values[start]
        a = np.abs(u.values)
        oracle = max(ak * np.sum(small_grid.metric[a >= ak]) ** (1.0 / r) for ak in a)
        assert weak_lp_norm(u, r) == pytest.approx(oracle, rel=1e-12)

    def test_indicator_closed_form(self, small_grid):
        # c 1_B: every gamma < c sees all of B, so the sup is c |B|^{1/r}
        block = slice(20, 40)
        values = np.zeros(small_grid.num_points, dtype=complex)
        values[block] = 0.3 - 0.4j
        expected = 0.5 * np.sum(small_grid.metric[block]) ** 0.8
        assert weak_lp_norm(RadialField(small_grid, values), 1.25) == pytest.approx(
            expected, rel=1e-12
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_weak_below_strong(self, grid, seed):
        u = random_smooth_field(grid, np.random.default_rng(seed))
        r = 2.5
        assert weak_lp_norm(u, r) <= lp_norm(u, r) * (1 + 1e-12)

    def test_exact_homogeneity(self, grid, rng):
        u = random_smooth_field(grid, rng)
        assert weak_lp_norm(2.0 * u, 1.25) == pytest.approx(
            2.0 * weak_lp_norm(u, 1.25), rel=1e-14
        )


class TestCutoffAndLocalizedMass:
    def test_cutoff_profile_bounds(self):
        s = np.linspace(0, 3, 301)
        chi = smooth_cutoff(s)
        assert np.all((0.0 <= chi) & (chi <= 1.0))
        assert np.all(chi[s <= 1.0] == 1.0)
        assert np.all(chi[s >= 2.0] == 0.0)

    def test_zero_field(self, grid):
        assert localized_mass(RadialField(grid, np.zeros(grid.num_points)), 1.0) == 0.0

    def test_rejects_nonpositive_radius(self, grid, rng):
        with pytest.raises(ValueError):
            localized_mass(random_smooth_field(grid, rng), 0.0)

    def test_saturating_radius_equals_total_mass(self, grid, rng):
        u = random_smooth_field(grid, rng)
        total = float(np.sum(grid.metric * np.abs(u.values) ** 2))
        assert localized_mass(u, 1.2 * grid.r_max) == pytest.approx(total, rel=1e-14)

    def test_gaussian_against_fine_quadrature(self):
        # frozen via a 10^6-point trapezoid of the same continuum integrand
        g = make_grid(5, 12.0, 512)
        u = RadialField(g, np.exp(-g.nodes**2).astype(complex))
        rr = np.linspace(0.0, 12.0, 1_000_001)
        reference = sphere_surface_area(5) * np.trapezoid(
            np.exp(-2.0 * rr**2) * smooth_cutoff(rr) ** 4 * rr**4, rr
        )
        assert localized_mass(u, 1.0) == pytest.approx(reference, rel=1e-6)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_monotone_in_radius(self, grid, seed):
        u = random_smooth_field(grid, np.random.default_rng(seed))
        radii = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
        masses = [localized_mass(u, r) for r in radii]
        assert np.all(np.diff(masses) >= -1e-15)

    @pytest.mark.parametrize("num_rows", [1, 7, 129])
    def test_row_boundary_masses_are_boundary_mass_bit_for_bit(self, grid, rng, num_rows):
        # the clean-window checks read a whole (T, N) array in one call
        rows = np.array([random_smooth_field(grid, rng, width=12.0).values
                         for _ in range(num_rows)])
        masses = _boundary_masses(grid, rows)
        assert masses.shape == (num_rows,) and masses.min() > 0.0
        assert [float(m) for m in masses] == [boundary_mass(RadialField(grid, row))
                                               for row in rows]

    def test_ball_mass_bounded_by_hdot2_r4(self, grid):
        # M(u, B(R)) <= C ||Delta u||^2 R^4 with one desk-scale constant
        from nls4.spectral import hdot2_norm

        r = np.random.default_rng(7)
        ratios = []
        for _ in range(50):
            u = random_smooth_field(grid, r)
            h2 = hdot2_norm(u) ** 2
            for radius in (0.5, 1.0, 2.0, 4.0):
                ratios.append(localized_mass(u, radius) / (h2 * radius**4))
        assert max(ratios) <= 5.0


class TestSpaceTimeSample:
    def test_rejects_malformed(self, grid, rng):
        times = np.linspace(0.0, 1.0, 4)
        values = np.array([random_smooth_field(grid, rng).values for _ in times])
        SpaceTimeSample(grid, times, values, (0.0, 1.0))
        bad_value = values.copy()
        bad_value[2, 5] = np.inf
        for args in (
            (times[:3], values, (0.0, 1.0)),
            (times, values[:, 1:], (0.0, 1.0)),
            (times, bad_value, (0.0, 1.0)),
            (times[::-1], values, (0.0, 1.0)),
            (times, values, (0.0, 0.5)),
        ):
            with pytest.raises(ValueError):
                SpaceTimeSample(grid, *args)

    def test_restricted_and_decimated_keep_rows(self, grid, rng):
        times = np.linspace(0.0, 1.0, 5)
        values = np.array([random_smooth_field(grid, rng).values for _ in times])
        sample = SpaceTimeSample(grid, times, values, (0.0, 1.0))
        sub = sample.restricted(0.25, 0.75)
        assert np.array_equal(sub.times, times[1:4]) and sub.interval == (0.25, 0.75)
        assert np.array_equal(sub.values, values[1:4])
        assert np.array_equal(sample.decimated(2).values, values[::2])


class TestRadialField:
    def test_rejects_nonfinite(self, grid):
        values = np.zeros(grid.num_points, dtype=complex)
        values[3] = np.nan
        with pytest.raises(ValueError):
            RadialField(grid, values)

    def test_rejects_wrong_length(self, grid):
        with pytest.raises(ValueError):
            RadialField(grid, np.zeros(grid.num_points - 1, dtype=complex))

    def test_algebra(self, grid, rng):
        u = random_smooth_field(grid, rng)
        v = random_smooth_field(grid, rng)
        w = u + v - 0.5 * u
        assert np.allclose(w.values, 0.5 * u.values + v.values)


# How each blocked stage cut its rows before radial._blocks, one copy per
# stage, with the stage's own budget.  _blocks must give the same row ranges.

def parent_row_blocks(num_rows, num_points):
    """analysis._row_blocks: _lr_norms, ModalForcing.values_at, duhamel_solution."""
    step = max(1, analysis._BLOCK_BYTES // (16 * num_points))
    return (slice(start, start + step) for start in range(0, num_rows, step))


def parent_panel_blocks(num_panels, order, n):
    """solver._panel_blocks: duhamel_window's sweep."""
    per_block = max(1, solver._PANEL_BLOCK_BYTES // (16 * n * order))
    return [slice(a, min(a + per_block, num_panels)) for a in range(0, num_panels, per_block)]


def parent_exact_chunks(num_monitors, num_points):
    """run_trajectory's exact path: chunks of the monitor steps."""
    per_chunk = max(1, solver._EXACT_CHUNK_BYTES // (16 * num_points))
    return [slice(a, a + per_chunk) for a in range(0, num_monitors, per_chunk)]


def parent_propagator_rows(n):
    """step_propagator's row blocks."""
    rows = solver._PROPAGATOR_ROWS
    return [slice(start, start + min(rows, n - start)) for start in range(0, n, rows)]


def as_ranges(count, slices):
    return [range(count)[s] for s in slices]


CONFIG_POINTS = sorted({num_points for _, _, num_points in CONFIG_GRIDS})
# Strichartz's 129 samples, final_state's 250 panels, scattering's 3125 steps
BLOCKED_COUNTS = (1, 4, 16, 17, 129, 250, 1000, 3125)


class TestBlocks:
    @pytest.mark.parametrize("count", [0, 1, 5, 16, 17, 100])
    @pytest.mark.parametrize("item_size, budget", [(1, 1), (3, 16), (16, 64), (100, 7), (0, 8)])
    def test_consecutive_slices_of_at_least_one_item(self, count, item_size, budget):
        blocks = _blocks(count, item_size, budget)
        assert [i for b in blocks for i in range(count)[b]] == list(range(count))
        assert all(b.stop > b.start for b in blocks)
        step = max(1, budget // max(1, item_size))
        assert all(b.stop - b.start == step for b in blocks[:-1])
        assert all(b.stop - b.start <= blocks[0].stop for b in blocks)

    @pytest.mark.parametrize("num_points", CONFIG_POINTS)
    def test_every_stage_keeps_the_parents_slices_at_config_grids(self, num_points):
        n, order = num_points, solver.PICARD_ORDER
        for count in BLOCKED_COUNTS:
            assert (as_ranges(count, _blocks(count, 16 * n, analysis._BLOCK_BYTES))
                    == as_ranges(count, parent_row_blocks(count, n)))
            panels = _blocks(count, 16 * order * n, solver._PANEL_BLOCK_BYTES)
            assert as_ranges(count, panels) == as_ranges(count, parent_panel_blocks(count, order, n))
            assert (as_ranges(count, _blocks(count, 16 * n, solver._EXACT_CHUNK_BYTES))
                    == as_ranges(count, parent_exact_chunks(count, n)))
        assert (as_ranges(n, _blocks(n, 1, solver._PROPAGATOR_ROWS))
                == as_ranges(n, parent_propagator_rows(n)))

    def test_the_partitions_the_stages_run_today(self):
        def sizes(blocks):
            return [b.stop - b.start for b in blocks]

        # Strichartz's 129 x 256 stages, the exact path at N = 512 and the
        # propagator at N = 192 (test_solver pins final_state's panel blocks)
        assert sizes(_blocks(129, 16 * 256, analysis._BLOCK_BYTES)) == [16] * 8 + [1]
        assert sizes(_blocks(100, 16 * 512, solver._EXACT_CHUNK_BYTES)) == [16] * 6 + [4]
        assert sizes(_blocks(192, 1, solver._PROPAGATOR_ROWS)) == [64] * 3

    def test_every_blocked_stage_cuts_its_rows_here(self, monkeypatch, small_op_full,
                                                    small_op_free):
        # each stage calls _blocks with the item size and budget the test
        # above checks, and no stage cuts rows another way
        n = small_op_full.grid.num_points
        calls = []

        def spy(count, item_size, budget):
            calls.append((sys._getframe(1).f_code.co_name, item_size, budget))
            return _blocks(count, item_size, budget)

        for module in (analysis, solver):
            monkeypatch.setattr(module, "_blocks", spy)
        rng = np.random.default_rng(3)
        u0 = random_smooth_field(small_op_full.grid, rng)
        forcing = analysis.ModalForcing(
            np.array([1.5]), [random_smooth_field(small_op_full.grid, rng, width=2.0)])
        analysis.strichartz_quotient(small_op_full, small_op_free, u0, forcing, _stock_pairs(5))
        cfg = solver.SimulationConfig(lam=0.0, p=9.0, dt=1e-2, t_end=0.5, monitor_stride=1,
                                      boundary_threshold=1.0)
        solver.run_trajectory(u0, small_op_full, cfg)
        solver.step_propagator(small_op_full, 1e-2)
        solver.duhamel_window(0.1 * u0, small_op_full, cfg, 0.0, 0.1)
        panel_bytes = 16 * solver.PICARD_ORDER * n
        assert sorted(set(calls)) == sorted({
            ("_lr_norms", 16 * n, analysis._BLOCK_BYTES),
            ("values_at", 16 * n, analysis._BLOCK_BYTES),
            ("duhamel_solution", 16 * n, analysis._BLOCK_BYTES),
            ("run_trajectory", 16 * n, solver._EXACT_CHUNK_BYTES),
            ("step_propagator", 1, solver._PROPAGATOR_ROWS),
            ("duhamel_window", panel_bytes, solver._PANEL_BLOCK_BYTES),
        })
        # only the window cuts panel blocks, once, and hands them to cumulative
        assert [name for name, _, budget in calls
                if budget == solver._PANEL_BLOCK_BYTES] == ["duhamel_window"]
