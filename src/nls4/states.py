"""Initial-state synthesis: random low-mode fields, packets, band-limited bumps.

Random fields follow one recipe everywhere: seeded complex coefficients on
the lowest eigenmodes of an operator, normalized afterwards.  That keeps them
smooth, reproducible, and (for localized tests) boundary-clean.

Localized dispersive packets are synthesized in the free eigenbasis with a
smooth compactly supported coefficient profile c(xi), xi = mu^{1/4} the
frequency of the mode.  Band limitation is exact, so the Dirichlet group
velocity is capped at 4 xi_max^3 and the pre-reflection window can be sized
in advance.  The packets rely on the operator's sign convention: every
eigenvector is positive at the node nearest the origin
(spectral.canonical_signs), so a smooth coefficient profile synthesizes
constructively near r = 0 and cancels elsewhere (a discrete Hankel-type
wavelet); the opposite signs would scatter the state over the disk.
"""

from __future__ import annotations

import numpy as np

from .radial import RadialField
from .spectral import SpectralOperator


def random_low_mode_field(
    op: SpectralOperator,
    rng: np.random.Generator,
    num_modes: int = 10,
    norm: float = 1.0,
) -> RadialField:
    """Seeded superposition of the lowest eigenmodes, L^2-normalized to `norm`."""
    coeffs = np.zeros(op.grid.num_points, dtype=complex)
    coeffs[:num_modes] = rng.standard_normal(num_modes) + 1j * rng.standard_normal(num_modes)
    coeffs *= norm / np.linalg.norm(coeffs)
    return RadialField(op.grid, op.from_modal(coeffs))


def mode_frequencies(op: SpectralOperator) -> np.ndarray:
    """xi_k = mu_k^{1/4}, the dispersive frequency of each mode."""
    return np.maximum(op.eigenvalues, 0.0) ** 0.25


def bump_profile(x: np.ndarray) -> np.ndarray:
    """exp(-1/(1-x^2)) on |x| < 1, zero outside; all derivatives vanish at the edge."""
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 1.0
    out = np.zeros_like(x)
    out[inside] = np.exp(-1.0 / (1.0 - x[inside] ** 2))
    return out


def bandlimited_state(
    op: SpectralOperator,
    xi_max: float,
    *,
    xi_min: float = 0.0,
    moment: int = 0,
    norm: float = 1.0,
) -> RadialField:
    """Localized packet with frequency content exactly inside [xi_min, xi_max].

    moment = m multiplies the profile by xi^m, suppressing low-frequency
    content (m > 0 speeds up escape from any fixed compact region).
    """
    xi = mode_frequencies(op)
    if xi_min > 0.0:
        center = 0.5 * (xi_min + xi_max)
        half = 0.5 * (xi_max - xi_min)
        coeffs = bump_profile((xi - center) / half)
    else:
        coeffs = bump_profile(xi / xi_max)
    if moment:
        coeffs = coeffs * xi**moment
    if not np.any(coeffs):
        raise ValueError("no eigenmodes inside the requested frequency band")
    coeffs = coeffs.astype(complex)
    coeffs *= norm / np.linalg.norm(coeffs)
    return RadialField(op.grid, op.from_modal(coeffs))


def lowpass(op: SpectralOperator, u: RadialField, xi_max: float) -> RadialField:
    """Project a field onto modes with frequency xi <= xi_max (exact band limit)."""
    coeffs = op.to_modal(u.values)
    coeffs[mode_frequencies(op) > xi_max] = 0.0
    return RadialField(u.grid, op.from_modal(coeffs))


def soft_lowpass(op: SpectralOperator, u: RadialField, xi_max: float) -> RadialField:
    """Band limit with a C^inf rolloff on [xi_max/2, xi_max].

    A sharp modal truncation rings over the whole domain; the smooth rolloff
    keeps the field localized while still capping the group velocity at
    4 xi_max^3 exactly.
    """
    from .radial import smooth_cutoff

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
    from .radial import smooth_cutoff

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
