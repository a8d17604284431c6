"""Initial-state synthesis helpers."""

import numpy as np
import pytest

from nls4.radial import boundary_mass
from nls4.solver import mass
from nls4.spectral import SpectralOperator, canonical_signs, l2_norm
from nls4.states import (
    fast_escape_state,
    gaussian_packet,
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
            potential_values=op.potential_values,
        )
        a = random_low_mode_field(op, np.random.default_rng(42))
        b = random_low_mode_field(flipped, np.random.default_rng(42))
        assert np.array_equal(a.values, b.values)

    def test_uses_only_low_modes(self, op_free):
        u = random_low_mode_field(op_free, np.random.default_rng(0))
        coeffs = op_free.to_modal(u.values)
        assert np.max(np.abs(coeffs[10:])) <= 1e-12

    def test_boundary_compatible(self, op_free):
        # Dirichlet eigenmode superpositions vanish toward the wall
        u = random_low_mode_field(op_free, np.random.default_rng(7))
        assert np.abs(u.values[-1]) <= 0.1 * np.max(np.abs(u.values))


class TestBandLimiting:
    def test_soft_lowpass_band_and_localization(self, op_free, grid):
        from nls4.radial import RadialField

        raw = RadialField(grid, np.exp(-((grid.nodes / 3.0) ** 2)).astype(complex))
        u = soft_lowpass(op_free, raw, 1.3)
        xi = mode_frequencies(op_free)
        coeffs = op_free.to_modal(u.values)
        assert np.max(np.abs(coeffs[xi > 1.3])) <= 1e-12
        # localized synthesis: tail mass tiny on this desk-size grid
        assert boundary_mass(u) <= 1e-4 * mass(u)


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
