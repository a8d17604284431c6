"""Spectral operators: eigenstructure, functional calculus, field snapshots."""

import os

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from nls4 import spectral
from nls4.potentials import example_potential
from nls4.radial import RadialField, make_grid
from nls4.spectral import (
    SpectralError,
    apply_function,
    apply_tridiag,
    build_operator,
    free_fractional_gradient,
    h2_norm,
    hdot2_norm,
    l2_norm,
    laplacian_values,
)

from conftest import random_smooth_field

# a wide grid whose lowest eigenvalues sit far below eps * rho(Delta^2)
WIDE_GRID = (5, 2000.0, 512)


class TestBuildOperator:
    def test_free_eigenvalues_nonnegative(self, op_free):
        assert np.all(op_free.eigenvalues >= 0)

    def test_bilaplacian_is_square_of_laplacian(self, grid, op_free):
        lam = eigh_tridiagonal(grid.lap_diag, grid.lap_off, eigvals_only=True)
        scale = np.max(op_free.eigenvalues)
        assert np.max(np.abs(op_free.eigenvalues - lam**2)) <= 1e-8 * scale

    def test_zero_potential_matches_free(self, op_free, op_zero):
        # V == 0 takes the free route, so the zero-potential controls are exact
        assert np.array_equal(op_free.eigenvalues, op_zero.eigenvalues)
        assert np.array_equal(op_free.eigenvectors, op_zero.eigenvectors)

    def test_lowest_mode_against_refined_grid_and_bessel(self):
        # reference: same operator at N = 1024, plus the Dirichlet Bessel zero
        coarse = build_operator("free", make_grid(5, 20.0, 256))
        fine = build_operator("free", make_grid(5, 20.0, 1024))
        mu0 = coarse.eigenvalues[0]
        assert mu0 == pytest.approx(fine.eigenvalues[0], rel=0.05)
        # transformed -Delta has index nu = 3/2; J_{3/2} zeros solve tan x = x
        zero = brentq(lambda x: np.tan(x) - x, np.pi / 2 + 1e-9, 3 * np.pi / 2 - 1e-9)
        assert mu0 == pytest.approx((zero / 20.0) ** 4, rel=0.05)

    def test_full_spectrum_above_free_spectrum(self):
        # Weyl: V >= 0 gives lambda_k(H) >= lambda_k(Delta^2) for every k
        grid = make_grid(*WIDE_GRID)
        free = build_operator("free", grid)
        full = build_operator("full", grid, example_potential(5))
        assert np.all(full.eigenvalues >= free.eigenvalues)
        assert np.all(np.diff(full.eigenvalues) > 0)

    def test_low_free_modes_have_small_factored_residual(self):
        # the residual of the factor B = -Delta, relative to B's eigenvalue sqrt(mu)
        grid = make_grid(*WIDE_GRID)
        op = build_operator("free", grid)
        q = op.eigenvectors[:, :10].T
        root = np.sqrt(op.eigenvalues[:10])
        residual = apply_tridiag(grid.lap_diag, grid.lap_off, q) - root[:, None] * q
        assert np.all(np.linalg.norm(residual, axis=1) <= 1e-9 * root)

    @pytest.mark.parametrize("op_name", ["op_free", "op_full", "op_zero"])
    def test_eigenvector_signs_canonical(self, request, op_name):
        op = request.getfixturevalue(op_name)
        assert np.all(op.eigenvectors[0] > 0)
        assert op.eigenvectors.flags.f_contiguous

    def test_eigenvector_orthonormality(self, op_full):
        gram = op_full.eigenvectors.T @ op_full.eigenvectors
        off = gram - np.eye(gram.shape[0])
        assert np.max(np.abs(off)) <= 1e-9

    def test_nonneg_potential_keeps_spectrum_nonneg(self, op_full):
        assert np.all(op_full.eigenvalues >= 0)

    def test_budget_rejected(self):
        # rejected before any eigensolve, so the oversized grid costs nothing
        with pytest.raises(SpectralError, match="num_points=4097 exceeds"):
            build_operator("free", make_grid(5, 20.0, spectral.EIG_BUDGET + 1))

    def test_kind_and_spec_consistency(self, grid):
        with pytest.raises(SpectralError):
            build_operator("full", grid)
        with pytest.raises(SpectralError):
            build_operator("free", grid, example_potential(5))

    def test_reconstruction_matches_stencil(self, grid, op_free, rng):
        u = random_smooth_field(grid, rng)
        via_modes = apply_function(op_free, "power_s", 4.0, u)
        direct = spectral.bilaplacian_values(grid, u.values)
        assert np.linalg.norm(via_modes.values - direct) <= 1e-8 * np.linalg.norm(direct)


class TestFunctionalCalculus:
    def test_exp_it_zero_is_identity(self, op_full, grid, rng):
        u = random_smooth_field(grid, rng)
        out = apply_function(op_full, "exp_it", 0.0, u)
        assert np.max(np.abs(out.values - u.values)) <= 1e-12 * np.max(np.abs(u.values))

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_unitarity(self, op_full, grid, rng, t):
        u = random_smooth_field(grid, rng)
        assert l2_norm(apply_function(op_full, "exp_it", t, u)) == pytest.approx(
            l2_norm(u), rel=1e-10
        )

    def test_semigroup(self, op_full, grid, rng):
        u = random_smooth_field(grid, rng)
        one = apply_function(op_full, "exp_it", 0.3, apply_function(op_full, "exp_it", 0.7, u))
        two = apply_function(op_full, "exp_it", 1.0, u)
        assert np.linalg.norm(one.values - two.values) <= 1e-9 * np.linalg.norm(two.values)

    def test_power_semigroup(self, op_full, grid, rng):
        u = random_smooth_field(grid, rng)
        twice = apply_function(op_full, "power_s", 2.0, apply_function(op_full, "power_s", 2.0, u))
        once = apply_function(op_full, "power_s", 4.0, u)
        assert np.linalg.norm(twice.values - once.values) <= 1e-9 * np.linalg.norm(once.values)

    def test_h_calculus_conserves_hdot2_surrogate(self, op_full, grid, rng):
        # ||H^{1/2} u|| is exactly invariant under exp(itH)
        u = random_smooth_field(grid, rng)
        before = l2_norm(apply_function(op_full, "power_s", 2.0, u))
        ut = apply_function(op_full, "exp_it", 3.0, u)
        after = l2_norm(apply_function(op_full, "power_s", 2.0, ut))
        assert after == pytest.approx(before, rel=1e-8)
        # companion: ||Delta u(t)|| stays within the equivalence band
        assert 0.5 <= hdot2_norm(ut) / hdot2_norm(u) <= 2.0

    def test_self_adjointness_weighted_inner_product(self, op_full, grid, rng):
        u = random_smooth_field(grid, rng)
        v = random_smooth_field(grid, rng)
        hu = apply_function(op_full, "power_s", 4.0, u)
        hv = apply_function(op_full, "power_s", 4.0, v)
        ip1 = np.sum(grid.metric * hu.values * np.conj(v.values))
        ip2 = np.sum(grid.metric * u.values * np.conj(hv.values))
        assert abs(ip1 - ip2) <= 1e-10 * abs(ip1)

    def test_grid_mismatch_rejected(self, op_full, rng):
        other = make_grid(5, 20.0, 128)
        with pytest.raises(SpectralError):
            apply_function(op_full, "exp_it", 1.0, random_smooth_field(other, rng))


class TestBatchedTransforms:
    @pytest.mark.parametrize("shape", [(5,), (3, 4)])
    def test_batch_matches_rows(self, op_full, shape):
        rng = np.random.default_rng(11)
        n = op_full.grid.num_points
        x = rng.standard_normal(shape + (n,)) + 1j * rng.standard_normal(shape + (n,))
        for transform in (op_full.to_modal, op_full.from_modal):
            out = transform(x)
            assert out.shape == x.shape
            rows = np.array([transform(row) for row in x.reshape(-1, n)]).reshape(x.shape)
            assert np.max(np.abs(out - rows)) <= 1e-13 * np.max(np.abs(rows))

    def test_real_input_stays_real(self, op_full):
        x = np.random.default_rng(12).standard_normal((4, op_full.grid.num_points))
        assert not np.iscomplexobj(op_full.to_modal(x))
        assert not np.iscomplexobj(op_full.from_modal(x))

    @pytest.mark.parametrize("shape", [(256,), (8, 256)])
    def test_complex_rows_match_strided_product(self, op_full, shape):
        rng = np.random.default_rng(17)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for q in (op_full.eigenvectors, op_full.eigenvectors.T):
            strided = x.real @ q + 1j * (x.imag @ q)
            assert np.array_equal(spectral._rows_times(x, q), strided)

    def test_batch_roundtrip(self, op_full):
        rng = np.random.default_rng(13)
        n = op_full.grid.num_points
        x = rng.standard_normal((2, 3, n)) + 1j * rng.standard_normal((2, 3, n))
        back = op_full.from_modal(op_full.to_modal(x))
        assert np.max(np.abs(back - x)) <= 1e-10 * np.max(np.abs(x))

    @pytest.mark.parametrize("op_name", ["small_op_full", "op_full"])
    @pytest.mark.parametrize("per_row", [False, True])
    def test_evolve_matches_per_time_propagation(self, request, op_name, per_row):
        op = request.getfixturevalue(op_name)
        rng = np.random.default_rng(14)
        times = np.array([-1.3, 0.0, 0.25, 2.0, 7.5])
        if per_row:
            fields = [random_smooth_field(op.grid, rng) for _ in times]
            out = spectral.evolve(op, np.array([u.values for u in fields]), times)
        else:
            fields = [random_smooth_field(op.grid, rng)] * times.size
            out = spectral.evolve(op, fields[0].values, times)
        ref = np.array([
            apply_function(op, "exp_it", t, u).values for t, u in zip(times, fields)
        ])
        assert out.shape == (times.size, op.grid.num_points)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestFractionalGradient:
    def test_s_zero_identity(self, op_free, grid, rng):
        u = random_smooth_field(grid, rng)
        out = free_fractional_gradient(op_free, 0.0, u)
        assert np.allclose(out.values, u.values, rtol=1e-12, atol=1e-14)

    def test_s_four_matches_stencil(self, op_free, grid, rng):
        u = random_smooth_field(grid, rng)
        out = free_fractional_gradient(op_free, 4.0, u)
        direct = spectral.bilaplacian_values(grid, u.values)
        assert np.linalg.norm(out.values - direct) <= 1e-8 * np.linalg.norm(direct)

    def test_eigenvector_scaling(self, op_free):
        mode = op_free.eigenfield(0)
        out = free_fractional_gradient(op_free, 2.0, mode)
        expected = np.sqrt(op_free.eigenvalues[0]) * mode.values
        assert np.allclose(out.values, expected, rtol=1e-9)

    def test_rejects_out_of_range(self, op_free, grid, rng):
        with pytest.raises(SpectralError):
            free_fractional_gradient(op_free, 4.5, random_smooth_field(grid, rng))

    def test_requires_free_operator(self, op_full, grid, rng):
        with pytest.raises(SpectralError):
            free_fractional_gradient(op_full, 1.0, random_smooth_field(grid, rng))

    def test_grad_norm_consistency(self, grid, op_free, rng):
        # || |grad| u ||_2 via calculus equals <-Delta u, u>^{1/2} via stencil
        u = random_smooth_field(grid, rng)
        via_calc = l2_norm(free_fractional_gradient(op_free, 1.0, u))
        assert spectral.grad_l2_norm(u) == pytest.approx(via_calc, rel=1e-8)


class TestNorms:
    @pytest.mark.parametrize("grid_name", ["small_grid", "grid"])
    def test_laplacian_rows_match_per_field(self, request, grid_name):
        g = request.getfixturevalue(grid_name)
        rng = np.random.default_rng(16)
        rows = np.array([random_smooth_field(g, rng).values for _ in range(4)])
        ref = np.array([laplacian_values(g, row) for row in rows])
        assert np.array_equal(laplacian_values(g, rows), ref)

    def test_h2_norm_definition(self, grid, rng):
        u = random_smooth_field(grid, rng)
        lap = laplacian_values(grid, u.values)
        direct = RadialField(grid, u.values - lap)
        assert h2_norm(u) == pytest.approx(l2_norm(direct), rel=1e-12)


class TestCacheAndFieldIO:
    """Operators are not cached (load_operator only raises); fields are saved as .fld."""

    def test_cache_stub_raises(self, grid, tmp_path):
        with pytest.raises(SpectralError, match="cache was removed"):
            spectral.load_operator(tmp_path / "op.eig", "free", grid, None)

    def test_field_files_get_umask_mode(self, grid, rng, tmp_path):
        umask = os.umask(0)
        os.umask(umask)
        spectral.save_field(tmp_path / "state.fld", random_smooth_field(grid, rng))
        (path,) = tmp_path.iterdir()
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_field_io_roundtrip(self, grid, rng, tmp_path):
        u = random_smooth_field(grid, rng)
        path = tmp_path / "state.fld"
        spectral.save_field(path, u)
        back = spectral.load_field(path, grid)
        assert np.array_equal(u.values, back.values)

    def test_truncated_field_fails_by_name(self, grid, rng, tmp_path):
        path = tmp_path / "state.fld"
        spectral.save_field(path, random_smooth_field(grid, rng))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(SpectralError, match=str(path)) as info:
            spectral.load_field(path, grid)
        assert f"expected {len(data)} bytes" in str(info.value)
        assert f"found {len(data) - 8}" in str(info.value)

    def test_field_io_grid_mismatch(self, grid, rng, tmp_path):
        u = random_smooth_field(grid, rng)
        path = tmp_path / "state.fld"
        spectral.save_field(path, u)
        with pytest.raises(SpectralError):
            spectral.load_field(path, make_grid(5, 20.0, 128))
