"""Initial-state synthesis helpers."""

import numpy as np
import pytest

from nls4.radial import boundary_mass
from nls4.solver import mass
from nls4.spectral import SpectralOperator, canonical_signs, l2_norm
from nls4.states import (
    bandlimited_state,
    fast_escape_state,
    gaussian_packet,
    lowpass,
    mode_frequencies,
    random_low_mode_field,
    soft_lowpass,
)


class TestRandomFields:
    def test_reproducible_and_normalized(self, op_free):
        a = random_low_mode_field(op_free, np.random.default_rng(42))
        b = random_low_mode_field(op_free, np.random.default_rng(42))
        assert np.array_equal(a.values, b.values)
        assert l2_norm(a) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("op_name", ["op_free", "op_full"])
    def test_draw_independent_of_eigenvector_signs(self, request, op_name):
        op = request.getfixturevalue(op_name)
        flipped = SpectralOperator(
            kind=op.kind,
            grid=op.grid,
            eigenvalues=op.eigenvalues,
            eigenvectors=canonical_signs(-op.eigenvectors),
            potential=op.potential,
            potential_values=op.potential_values,
        )
        a = random_low_mode_field(op, np.random.default_rng(42))
        b = random_low_mode_field(flipped, np.random.default_rng(42))
        assert np.array_equal(a.values, b.values)

    def test_uses_only_low_modes(self, op_free):
        u = random_low_mode_field(op_free, np.random.default_rng(0), num_modes=10)
        coeffs = op_free.to_modal(u.values)
        assert np.max(np.abs(coeffs[10:])) <= 1e-12

    def test_boundary_compatible(self, op_free):
        # Dirichlet eigenmode superpositions vanish toward the wall
        u = random_low_mode_field(op_free, np.random.default_rng(7))
        assert np.abs(u.values[-1]) <= 0.1 * np.max(np.abs(u.values))


class TestBandLimiting:
    def test_lowpass_is_projection(self, op_free, grid):
        from conftest import random_smooth_field

        u = random_smooth_field(grid, np.random.default_rng(3))
        once = lowpass(op_free, u, 1.5)
        twice = lowpass(op_free, once, 1.5)
        assert np.allclose(once.values, twice.values, rtol=1e-12, atol=1e-14)
        xi = mode_frequencies(op_free)
        coeffs = op_free.to_modal(once.values)
        assert np.max(np.abs(coeffs[xi > 1.5])) <= 1e-12

    def test_soft_lowpass_band_and_localization(self, op_free, grid):
        from nls4.radial import RadialField

        raw = RadialField(grid, np.exp(-((grid.nodes / 3.0) ** 2)).astype(complex))
        u = soft_lowpass(op_free, raw, 1.3)
        xi = mode_frequencies(op_free)
        coeffs = op_free.to_modal(u.values)
        assert np.max(np.abs(coeffs[xi > 1.3])) <= 1e-12
        # localized synthesis: tail mass tiny on this desk-size grid
        assert boundary_mass(u) <= 1e-4 * mass(u)

    def test_bandlimited_state_localized(self, op_free):
        u = bandlimited_state(op_free, 1.5)
        # synthesized wavelet concentrates near the origin
        peak_region = mass(u) - boundary_mass(u)
        assert peak_region / mass(u) > 0.999

    def test_empty_band_rejected(self, op_free):
        with pytest.raises(ValueError):
            bandlimited_state(op_free, 1e-6)


class TestFastEscapeState:
    def test_low_frequency_suppression(self, op_free):
        u = fast_escape_state(op_free, 3.0, 1.0, mu_power=2)
        xi = mode_frequencies(op_free)
        coeffs = np.abs(op_free.to_modal(u.values))
        low = coeffs[(xi > 0) & (xi < 0.1)].max(initial=0.0)
        peak = coeffs.max()
        assert low <= 1e-6 * peak
        assert l2_norm(u) == pytest.approx(1.0, rel=1e-12)


class TestGaussianPacket:
    def test_shape_and_carrier(self, grid):
        u = gaussian_packet(grid, amplitude=2.0, width=1.5, center=5.0, carrier=1.0)
        peak_idx = np.argmax(np.abs(u.values))
        assert grid.nodes[peak_idx] == pytest.approx(5.0, abs=0.1)
        # peak node sits within h/2 of the true center
        assert np.abs(u.values[peak_idx]) == pytest.approx(2.0, abs=0.01)
