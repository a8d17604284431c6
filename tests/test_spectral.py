"""Spectral operators: eigenstructure, functional calculus, field snapshots."""

import os
import subprocess
import sys
from pathlib import Path

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
        # the strided parts x.real and x.imag, each through q as the leading
        # rows of one zero-padded GEMM past OpenBLAS's small-matrix bound
        rng = np.random.default_rng(17)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m = x.size // 256
        for q in (op_full.eigenvectors, op_full.eigenvectors.T):
            padded = np.zeros((2, 200, 256))
            padded[0, :m] = x.real.reshape(m, 256)
            padded[1, :m] = x.imag.reshape(m, 256)
            strided = np.empty(shape, complex)
            strided.real = (padded[0] @ q)[:m].reshape(shape)
            strided.imag = (padded[1] @ q)[:m].reshape(shape)
            assert bitwise_equal(spectral._rows_times(x, q), strided)

    @pytest.mark.parametrize("n", [192, 256, 384, 512])
    def test_rows_have_the_bits_of_a_200_row_call(self, operators_by_size, n):
        # one row (numpy's gemv), batches inside and past OpenBLAS's small-matrix
        # bound, one-dimensional rows and caller buffers all give the rows' bits
        # in one 200-row GEMM
        op = operators_by_size[n]
        rng = np.random.default_rng(n)
        x = rng.standard_normal((200, n)) + 1j * rng.standard_normal((200, n))
        for transform in (op.to_modal, op.from_modal):
            for rows in (x, np.ascontiguousarray(x.real)):
                whole = transform(rows)
                assert bitwise_equal(transform(rows[0]), whole[0])
                for m in [*range(1, 41), 64]:
                    assert bitwise_equal(transform(rows[:m]), whole[:m]), (rows.dtype, m)
            whole = transform(x)
            for m in [*range(1, 41), 64]:
                out, work = np.empty((2, m, n), complex)
                got = transform(x[:m], out=out, work=work)
                assert np.shares_memory(got, out)
                assert bitwise_equal(got, whole[:m]), m

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




def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same dtype, shape and bytes: signed zeros and NaN payloads count."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def two_products(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The reference transform: real rows, or the real and imaginary parts apart,
    through q inside one GEMM of at least 200 rows, past the small-matrix bound."""
    def through(part):
        rows = np.zeros((max(200, part.size // q.shape[0]), q.shape[0]))
        rows[:part.size // q.shape[0]] = part.reshape(-1, q.shape[0])
        return (rows @ q)[:part.size // q.shape[0]].reshape(part.shape)

    if not np.iscomplexobj(x):
        return through(x)
    out = np.empty(x.shape, complex)
    out.real, out.imag = through(x.real), through(x.imag)
    return out


@pytest.fixture(scope="module")
def operators_by_size():
    return {
        n: build_operator("full", make_grid(5, 20.0, n), example_potential(5))
        for n in (192, 256, 384, 512)
    }


@pytest.fixture(scope="module")
def operators_96_256():
    return {
        n: build_operator("full", make_grid(5, 20.0, n), example_potential(5))
        for n in (96, 256)
    }


@pytest.fixture(scope="module")
def eigenvectors_by_size(operators_by_size):
    return {n: op.eigenvectors for n, op in operators_by_size.items()}


class TestStackedTransform:
    """One GEMM over stacked parts equals the parts through q apart, bit for bit."""

    # every leading shape at each size, and final_state's Picard batch (2000, 256)
    @pytest.mark.parametrize("n, lead", [
        *((n, lead) for n in (192, 256, 512) for lead in [(), (1,), (2,), (3, 4), (129,)]),
        (256, (2000,)),
    ])
    def test_complex_rows_bitwise(self, eigenvectors_by_size, n, lead):
        q = eigenvectors_by_size[n]
        rng = np.random.default_rng(n + len(lead))
        x = rng.standard_normal(lead + (n,)) + 1j * rng.standard_normal(lead + (n,))
        for qq in (q, q.T):
            assert bitwise_equal(spectral._rows_times(x, qq), two_products(x, qq))

    def test_wide_rows_bitwise(self):
        # N=2560 without an eigensolve: a random Fortran-ordered q of that size
        rng = np.random.default_rng(2560)
        q = np.asfortranarray(rng.standard_normal((2560, 2560)))
        x = rng.standard_normal((8, 2560)) + 1j * rng.standard_normal((8, 2560))
        for qq in (q, q.T):
            assert bitwise_equal(spectral._rows_times(x, qq), two_products(x, qq))

    @pytest.mark.parametrize("lead", [(), (2,), (129,)])
    def test_real_rows_stay_real(self, eigenvectors_by_size, lead):
        q = eigenvectors_by_size[256]
        x = np.random.default_rng(3).standard_normal(lead + (256,))
        out = spectral._rows_times(x, q)
        assert out.dtype == np.float64
        assert bitwise_equal(out, two_products(x, q))

    def test_from_modal_divides_in_place_to_the_same_bits(self, op_full):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((129, 256)) + 1j * rng.standard_normal((129, 256))
        expected = two_products(x, op_full.eigenvectors.T) / op_full.grid.metric_sqrt
        assert bitwise_equal(op_full.from_modal(x), expected)


class TestCallerBuffers:
    """The transform pair in caller buffers equals the allocating call bit for bit."""

    # one row, a small batch (two products) and batches past _SMALL_GEMM_WORK
    @pytest.mark.parametrize("lead", [(), (3,), (3, 4), (16,), (2000,)])
    @pytest.mark.parametrize("which", ["to_modal", "from_modal"])
    def test_bitwise_equal_to_allocating_call(self, op_full, lead, which):
        n = op_full.grid.num_points
        assert (2000 * n * n > spectral._SMALL_GEMM_WORK) and (3 * n * n <= spectral._SMALL_GEMM_WORK)
        rng = np.random.default_rng(len(lead) + sum(lead))
        x = rng.standard_normal(lead + (n,)) + 1j * rng.standard_normal(lead + (n,))
        transform = getattr(op_full, which)
        expected = transform(x)
        out, work = np.empty_like(x), np.empty_like(x)
        got = transform(x, out=out, work=work)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert np.shares_memory(got, out)
        assert bitwise_equal(got, expected)

    @pytest.mark.parametrize("lead", [(3,), (2000,)])
    def test_work_may_hold_the_input(self, op_full, lead):
        # the Picard sweep's to_modal reads its values from the work buffer
        n = op_full.grid.num_points
        rng = np.random.default_rng(7)
        x = rng.standard_normal(lead + (n,)) + 1j * rng.standard_normal(lead + (n,))
        expected = op_full.to_modal(x)
        held = x.copy()
        assert bitwise_equal(op_full.to_modal(held, out=np.empty_like(x), work=held), expected)

    def test_from_modal_work_may_hold_the_coefficients(self, op_full):
        n = op_full.grid.num_points
        rng = np.random.default_rng(9)
        x = rng.standard_normal((129, n)) + 1j * rng.standard_normal((129, n))
        expected = op_full.from_modal(x)
        held = x.copy()
        assert bitwise_equal(op_full.from_modal(held, out=np.empty_like(x), work=held), expected)

    @pytest.mark.parametrize("lead", [(), (3,), (16,), (129,)])
    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_fractional_gradient_in_buffers(self, op_free, lead, s):
        # values may be out itself: the Strichartz dual norm overwrites h(t) with |grad| h
        n = op_free.grid.num_points
        rng = np.random.default_rng(len(lead) + sum(lead))
        x = rng.standard_normal(lead + (n,)) + 1j * rng.standard_normal(lead + (n,))
        expected = spectral.fractional_gradient_values(op_free, s, x)
        out, work = np.empty_like(x), np.empty_like(x)
        got = spectral.fractional_gradient_values(op_free, s, x, out=out, work=work)
        assert np.shares_memory(got, out) and bitwise_equal(got, expected)
        held = x.copy()
        got = spectral.fractional_gradient_values(op_free, s, held, out=held, work=work)
        assert np.shares_memory(got, held) and bitwise_equal(got, expected)

    def test_buffers_take_complex_rows_only(self, op_full):
        x = np.ones((3, op_full.grid.num_points))
        buf = np.empty(x.shape, complex)
        for transform in (op_full.to_modal, op_full.from_modal):
            with pytest.raises(spectral.SpectralError):
                transform(x, out=buf, work=buf.copy())


class TestFoldedScaling:
    """The metric weight applied in the transforms' copies keeps the bits of its own pass."""

    @staticmethod
    def rows(n: int) -> np.ndarray:
        # random rows, exact zeros (a whole row, and the real parts of one),
        # magnitudes near 1e+300 and 1e-300, and both mixed in one row
        rng = np.random.default_rng(n)
        x = rng.standard_normal((7, n)) + 1j * rng.standard_normal((7, n))
        x[1] = 0.0
        x[2].real = 0.0
        x[3] *= 1e300
        x[4] *= 1e-300
        x[5, ::2] *= 1e300
        x[5, 1::2] *= 1e-300
        return x

    @pytest.mark.parametrize("n", [96, 256])
    def test_bitwise_equal_to_the_separate_pass(self, operators_96_256, n):
        # to_modal was _rows_times(metric_sqrt * v, Q), from_modal
        # _rows_times(c, Q.T) / metric_sqrt: a complex product with, and a
        # quotient by, a real array
        op = operators_96_256[n]
        q, weight = op.eigenvectors, op.grid.metric_sqrt
        x = self.rows(n)
        for rows in (x, x[0], np.ascontiguousarray(x.real)):
            cases = ((op.to_modal, spectral._rows_times(weight * rows, q)),
                     (op.from_modal, spectral._rows_times(rows, q.T) / weight))
            for transform, expected in cases:
                assert np.isfinite(expected).all()
                assert bitwise_equal(transform(rows), expected)
                if np.iscomplexobj(rows):
                    out, work = np.empty((2, *rows.shape), complex)
                    assert bitwise_equal(transform(rows, out=out, work=work), expected)

    @pytest.mark.parametrize("n", [96, 256])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_rows_stay_non_finite(self, operators_96_256, n, bad):
        op = operators_96_256[n]
        x = self.rows(n)
        x[6, n // 3] = bad
        for transform in (op.to_modal, op.from_modal):
            expected = transform(x[:6])
            out, work = np.empty((2, *x.shape), complex)
            for got in (transform(x), transform(x, out=out, work=work)):
                assert not np.isfinite(got[6]).all()
                assert bitwise_equal(got[:6], expected)


def busy_numpy_blas():
    """A burst of threaded numpy products, which leaves numpy's OpenBLAS pool spinning."""
    a = np.random.default_rng(0).standard_normal((384, 384))
    for _ in range(5):
        a @ a


def blas_threads(lib) -> int:
    """The thread count an OpenBLAS wheel library reports (numpy's symbols end in 64_)."""
    for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
        if hasattr(lib, name):
            return getattr(lib, name)()
    raise AssertionError(f"{lib._name} exports no thread-count getter")


class TestBlasPools:
    """Stopping the idle OpenBLAS pools around eigensolves moves no bit and no thread count."""

    @pytest.mark.parametrize("n", [256, 512])
    @pytest.mark.parametrize("kind", ["free", "full"])
    def test_eigenpairs_equal_without_the_stop(self, monkeypatch, kind, n):
        grid = make_grid(5, 20.0 * n / 256, n)
        spec = example_potential(5) if kind == "full" else None
        busy_numpy_blas()
        stopped = build_operator(kind, grid, spec)
        monkeypatch.setattr(spectral, "_stop_blas_pool", lambda package: None)
        busy_numpy_blas()
        kept = build_operator(kind, grid, spec)
        assert bitwise_equal(stopped.eigenvalues, kept.eigenvalues)
        assert bitwise_equal(stopped.eigenvectors, kept.eigenvectors)

    def test_numpy_stops_before_the_solve_and_scipy_after(self, monkeypatch, grid):
        events = []
        monkeypatch.setattr(spectral, "_stop_blas_pool", lambda package: events.append(package))

        def logged(name):
            solve = getattr(spectral, name)

            def run(*args, **kwargs):
                events.append(name)
                return solve(*args, **kwargs)
            return run

        for name in ("eigh", "eigh_tridiagonal"):
            monkeypatch.setattr(spectral, name, logged(name))
        build_operator("free", grid)
        build_operator("full", grid, example_potential(5))
        assert events == ["numpy", "eigh_tridiagonal", "scipy", "numpy", "eigh", "scipy"]

    def test_thread_counts_unchanged(self, grid):
        pools = spectral._blas_pools()
        if not pools:
            pytest.skip("no OpenBLAS wheel library is loaded")
        busy_numpy_blas()
        before = {package: blas_threads(lib) for package, lib in pools.items()}
        build_operator("full", grid, example_potential(5))
        assert {package: blas_threads(lib) for package, lib in pools.items()} == before
        busy_numpy_blas()
        assert {package: blas_threads(lib) for package, lib in pools.items()} == before

    def test_no_library_found_leaves_the_build_working(self, monkeypatch, grid, op_full):
        monkeypatch.setattr(spectral, "_blas_pools", lambda: {})
        op = build_operator("full", grid, example_potential(5))
        assert bitwise_equal(op.eigenvectors, op_full.eigenvectors)
        assert spectral._blas_pools_note() == (
            "numpy library not found, no count set, not stopped; "
            "scipy library not found, no count set, not stopped"
        )

    def test_note_names_each_library_found(self):
        pools = spectral._blas_pools()
        note = spectral._blas_pools_note()
        for package, lib in pools.items():
            # numpy's count is the one its time loops take in a run
            threads = blas_threads(lib) if package == "numpy" else spectral.EIG_THREADS
            assert f"{package} {Path(lib._name).name} at {threads} threads" in note
        assert note.count("stopped after each") == len(pools)
        assert note.count("not found") == 2 - len(pools)

    def test_eigensolves_run_at_the_fixed_count(self, monkeypatch, grid):
        lib = spectral._blas_pools().get("scipy")
        if lib is None:
            pytest.skip("scipy's OpenBLAS wheel library is not loaded")
        counts = []

        def counted(name):
            solve = getattr(spectral, name)

            def run(*args, **kwargs):
                counts.append(blas_threads(lib))
                return solve(*args, **kwargs)
            return run

        for name in ("eigh", "eigh_tridiagonal"):
            monkeypatch.setattr(spectral, name, counted(name))
        before = blas_threads(lib)
        lib.scipy_openblas_set_num_threads(1)
        try:
            build_operator("free", grid)
            build_operator("full", grid, example_potential(5))
            assert blas_threads(lib) == 1
        finally:
            lib.scipy_openblas_set_num_threads(before)
        assert counts == [spectral.EIG_THREADS] * 2
        assert f"at {spectral.EIG_THREADS} threads in eigensolves" in spectral._blas_pools_note()

    def test_full_operator_same_bits_at_one_and_two_blas_threads(self, tmp_path):
        # N = 512 is the size where dsytrd alone splits its work by the thread
        # count; then modal_small's configs, whose time loops run at the count
        # the environment asks for and all else at one thread, and
        # localized_mass, whose exact linear path batches its monitor states
        script = (
            "import hashlib, sys\n"
            "from pathlib import Path\n"
            "from nls4 import radial, spectral\n"
            "from nls4.config import load_config\n"
            "from nls4.experiments import run_experiment\n"
            "from nls4.potentials import example_potential\n"
            "op = spectral.build_operator('full', radial.make_grid(5, 40.0, 512),\n"
            "                             example_potential(5, beta=10))\n"
            "print(hashlib.sha256(op.eigenvalues.tobytes()).hexdigest(),\n"
            "      hashlib.sha256(op.eigenvectors.tobytes()).hexdigest())\n"
            "configs, out = Path(sys.argv[1]), Path(sys.argv[2])\n"
            "for kind in ('strichartz', 'sobolev_equiv', 'final_state', 'localized_mass'):\n"
            "    cfg = load_config(configs / f'{kind}.cfg')\n"
            "    cfg.output_dir = out / kind\n"
            "    report = run_experiment(cfg)\n"
            "    files = hashlib.sha256()\n"
            "    for path in sorted(cfg.output_dir.iterdir()):\n"
            "        if path.name != f'report-{kind}.txt':\n"
            "            files.update(path.name.encode() + b'\\0' + path.read_bytes())\n"
            "    body = hashlib.sha256(report.body_text().encode()).hexdigest()\n"
            "    print(kind, report.worst_verdict, body, files.hexdigest())\n"
        )
        src = str(Path(spectral.__file__).resolve().parents[1])
        configs = Path(__file__).resolve().parents[1] / "scripts" / "configs"
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = subprocess.run([sys.executable, "-c", script, str(configs),
                                  str(tmp_path / threads)],
                                 env=env, check=True, capture_output=True, text=True)
            digests.append(out.stdout.splitlines())
        assert [line.split()[:2] for line in digests[0][1:]] == [
            ["strichartz", "pass"], ["sobolev_equiv", "pass"], ["final_state", "pass"],
            ["localized_mass", "pass"]]
        assert digests[0] == digests[1]


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
