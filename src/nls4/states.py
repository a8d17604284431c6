"""Initial-state synthesis: random low-mode fields, band-limited data, packets.

Random fields follow one recipe everywhere: seeded complex coefficients on
the lowest eigenmodes of an operator, normalized afterwards.  That keeps them
smooth, reproducible, and (for localized tests) boundary-clean.

Localized data are band-limited in an eigenbasis by a smooth compactly
supported coefficient profile c(xi), xi = mu^{1/4} the frequency of the
mode.  Band limitation is exact, so the Dirichlet group velocity is capped
at 4 xi_max^3 and the pre-reflection window can be sized in advance.  The
synthesis relies on the operator's sign convention: every
eigenvector is positive at the node nearest the origin
(spectral.canonical_signs), so a smooth coefficient profile synthesizes
constructively near r = 0 and cancels elsewhere (a discrete Hankel-type
wavelet); the opposite signs would scatter the state over the disk.
"""

from __future__ import annotations

import numpy as np

from .radial import RadialField, smooth_cutoff
from .spectral import SpectralOperator


_LOW_MODES = 10  # the modes a random field draws from


def random_low_mode_field(
    op: SpectralOperator, rng: np.random.Generator, norm: float = 1.0
) -> RadialField:
    """Seeded superposition of the _LOW_MODES lowest eigenmodes, L^2-normalized to `norm`."""
    coeffs = np.zeros(op.grid.num_points, dtype=complex)
    coeffs[:_LOW_MODES] = rng.standard_normal(_LOW_MODES) + 1j * rng.standard_normal(_LOW_MODES)
    coeffs *= norm / np.linalg.norm(coeffs)
    return RadialField(op.grid, op.from_modal(coeffs))


def mode_frequencies(op: SpectralOperator) -> np.ndarray:
    """xi_k = mu_k^{1/4}, the dispersive frequency of each mode."""
    return np.maximum(op.eigenvalues, 0.0) ** 0.25


def soft_lowpass(op: SpectralOperator, u: RadialField, xi_max: float) -> RadialField:
    """Band limit with a C^inf rolloff on [xi_max/2, xi_max].

    A sharp modal truncation rings over the whole domain; the smooth rolloff
    keeps the field localized while still capping the group velocity at
    4 xi_max^3 exactly.
    """
    coeffs = op.to_modal(u.values)
    coeffs *= smooth_cutoff(2.0 * mode_frequencies(op) / xi_max)
    return RadialField(u.grid, op.from_modal(coeffs))


def fast_escape_state(
    op: SpectralOperator, width: float, xi_cut: float, mu_power: int = 2
) -> RadialField:
    """Localized state whose low-frequency content is suppressed like xi^{4 mu_power}.

    Built as (Delta^2)^{mu_power} of a band-limited Gaussian: the integer
    operator power is local, so the tails stay as clean as the Gaussian's,
    while the near-zero frequency content that would linger at the origin is
    polynomially drained.  Used where a composition of propagators must
    converge quickly on a finite window.
    """
    raw = np.exp(-((op.grid.nodes / width) ** 2)).astype(complex)
    coeffs = op.to_modal(raw)
    coeffs *= smooth_cutoff(2.0 * mode_frequencies(op) / xi_cut)
    coeffs *= np.maximum(op.eigenvalues, 0.0) ** mu_power
    coeffs /= np.linalg.norm(coeffs)
    return RadialField(op.grid, op.from_modal(coeffs))


def gaussian_packet(
    grid, amplitude: float = 1.0, width: float = 1.0, center: float = 0.0, carrier: float = 0.0
) -> RadialField:
    """A exp(-((r-center)/width)^2) exp(-i carrier r); carrier > 0 moves outward."""
    r = grid.nodes
    values = amplitude * np.exp(-(((r - center) / width) ** 2)) * np.exp(-1j * carrier * r)
    return RadialField(grid, values)
