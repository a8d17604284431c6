"""Space-time norms, norm-equivalence ratios, decay fits, and almost-conservation checks.

The four space-time norms are mixed Lebesgue norms L^q_t L^r_x of u or of a
derivative of u, with the scaling-dictated exponents

    M:  ||Delta u||,  q = 2(n+4)/(n-4),  r = 2n(n+4)/(n^2+16)
    W:  ||grad u||,   q = 2(n+4)/(n-4),  r = 2n(n+4)/(n^2-2n+8)
    Z:  ||u||,        q = r = 2(n+4)/(n-4)
    N:  ||grad u||,   q = 2,             r = 2n/(n+2)

The gradient magnitude is realized spectrally as |grad| u = (Delta^2)^{1/4} u
through the free calculus; Delta u comes from the grid stencil.  Time
integrals use the composite trapezoid over the sample times.

Admissibility of a pair (q, r) for the fourth-order flow means
4/q + n/r = n/2; it is validated in exact rational arithmetic because the
identity is brittle in floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .radial import (
    RadialField,
    SpaceTimeSample,
    boundary_mass,
    lp_norm,
    lp_norm_values,
    smooth_cutoff,
)
from .solver import SimulationConfig, critical_exponent, mass
from .spectral import (
    SpectralOperator,
    apply_function,
    evolve,
    fractional_gradient_values,
    free_fractional_gradient,
    hdot2_norm,
    laplacian_values,
)

SPACETIME_NORMS = ("M", "W", "Z", "N")
MIN_TIME_SAMPLES = 4


class AdmissibilityError(ValueError):
    pass


class WindowError(RuntimeError):
    """A measurement window was contaminated by boundary reflection."""


class ResolutionError(RuntimeError):
    """Sampling too sparse for the requested estimate."""


def spacetime_exponents(which: str, n: int) -> tuple[Fraction, Fraction]:
    q_crit = Fraction(2 * (n + 4), n - 4)
    if which == "M":
        return q_crit, Fraction(2 * n * (n + 4), n * n + 16)
    if which == "W":
        return q_crit, Fraction(2 * n * (n + 4), n * n - 2 * n + 8)
    if which == "Z":
        return q_crit, q_crit
    if which == "N":
        return Fraction(2), Fraction(2 * n, n + 2)
    raise ValueError(f"unknown space-time norm {which!r}; choose from {SPACETIME_NORMS}")


def _time_lq(times: np.ndarray, values: np.ndarray, q: float) -> float:
    peak = values.max() if values.size else 0.0
    if peak == 0.0:
        return 0.0
    return float(peak * np.trapezoid((values / peak) ** q, times) ** (1.0 / q))


def spacetime_norm(
    sample: SpaceTimeSample, which: str, op_free: SpectralOperator | None = None
) -> float:
    """L^q_t L^r_x norm over the sample; W and N need the free operator for |grad|."""
    if sample.times.size < MIN_TIME_SAMPLES:
        raise ResolutionError(
            f"need at least {MIN_TIME_SAMPLES} time samples, got {sample.times.size}"
        )
    grid = sample.grid
    q, r = spacetime_exponents(which, grid.dimension)
    values = sample.values
    if which == "M":
        values = laplacian_values(grid, values)
    elif which in ("W", "N"):
        if op_free is None:
            raise ValueError(f"norm {which} needs the free operator for |grad|")
        values = fractional_gradient_values(op_free, 1.0, values)
    return _time_lq(sample.times, lp_norm_values(grid, values, float(r)), float(q))


def is_b_admissible(q: Fraction, r: Fraction, n: int) -> bool:
    """4/q + n/r = n/2 with 2 <= q, r, in exact rational arithmetic."""
    if q < 2 or r < 2:
        return False
    return Fraction(4) / q + Fraction(n) / r == Fraction(n, 2)


def require_b_admissible(q: Fraction, r: Fraction, n: int, r_below_half_n: bool = False):
    if not is_b_admissible(q, r, n):
        raise AdmissibilityError(
            f"(q, r) = ({q}, {r}) violates 4/q + n/r = n/2 "
            f"(got {Fraction(4)/q + Fraction(n)/r} != {Fraction(n,2)}) or q, r < 2"
        )
    if r_below_half_n and not r < Fraction(n, 2):
        raise AdmissibilityError(f"pair requires r < n/2 = {Fraction(n,2)}, got r = {r}")


# ---------------------------------------------------------------------------
# norm equivalence

def sobolev_equiv_ratio(
    op_full: SpectralOperator,
    op_free: SpectralOperator,
    u: RadialField,
    s: float,
    ps,
) -> np.ndarray:
    """||H^{s/4} u||_{L^p} / || |grad|^s u ||_{L^p} for each p in ps, as an array.

    H^{s/4} u and |grad|^s u are computed once and shared by every p; each p
    costs two L^p norms.  Every p is range-checked before any transform.
    """
    n = u.grid.dimension
    if not 0.0 <= s <= 2.0:
        raise ValueError(f"s must lie in [0, 2], got {s}")
    for p in ps:
        if not 1.0 < p < n / 2.0:
            raise ValueError(f"p must lie in (1, n/2) = (1, {n/2}), got {p}")
    h_s = apply_function(op_full, "power_s", s, u)
    grad_s = free_fractional_gradient(op_free, s, u)
    ratios = []
    for p in ps:
        den = lp_norm(grad_s, p)
        if den == 0.0:
            raise ZeroDivisionError("|grad|^s u vanishes; ratio undefined")
        ratios.append(lp_norm(h_s, p) / den)
    return np.array(ratios)


# ---------------------------------------------------------------------------
# linear decay fit

@dataclass
class FitResult:
    exponent: float    # fitted slope of log||u(t)|| vs log t
    amplitude: float
    residual: float    # RMS of the log-log fit
    times: np.ndarray  # the log-spaced sample times
    norms: np.ndarray  # ||exp(itH) u0||_{L^p} at each sample time


def fit_decay(
    op: SpectralOperator,
    u0: RadialField,
    p: float,
    window: tuple[float, float],
    num_samples: int = 24,
    boundary_threshold: float = 1e-6,
) -> FitResult:
    """Fit the decay rate of ||exp(itH) u0||_{L^p} on a log-spaced time grid.

    Raises WindowError (with the first contamination time) if boundary mass
    exceeds the threshold anywhere in the window.
    """
    t_lo, t_hi = window
    if not 0 < t_lo < t_hi:
        raise ValueError("window must satisfy 0 < t_lo < t_hi")
    times = np.geomspace(t_lo, t_hi, num_samples)
    m0 = mass(u0)
    rows = evolve(op, u0.values, times)
    for t, row in zip(times, rows):
        if boundary_mass(RadialField(op.grid, row)) > boundary_threshold * m0:
            raise WindowError(f"boundary contamination at t = {t:.4g}")
    norms = lp_norm_values(op.grid, rows, p)
    logs_t = np.log(times)
    logs_n = np.log(norms)
    slope, intercept = np.polyfit(logs_t, logs_n, 1)
    resid = float(np.sqrt(np.mean((logs_n - (slope * logs_t + intercept)) ** 2)))
    return FitResult(float(slope), float(math.exp(intercept)), resid, times, norms)


def predicted_decay_exponent(n: int, p: float) -> float:
    """-(n/4) (1 - 2/p), the dispersive rate for the fourth-order flow."""
    return -(n / 4.0) * (1.0 - 2.0 / p)


# ---------------------------------------------------------------------------
# inhomogeneous linear flow and the Strichartz quotient

@dataclass
class ModalForcing:
    """h(t) = sum_m exp(i omega_m t) g_m; closed-form Duhamel integrals."""

    omegas: np.ndarray
    fields: list[RadialField]

    def values_at(self, t) -> np.ndarray:
        """h(t) as (N,) for a scalar time, or (T, N) for an array of T times."""
        t = np.asarray(t, dtype=float)[..., None]
        out = np.zeros_like(self.fields[0].values)
        for w, g in zip(self.omegas, self.fields):
            out = out + np.exp(1j * w * t) * g.values
        return out


def _phase_integral(delta: np.ndarray, t: np.ndarray) -> np.ndarray:
    """int_0^t exp(i delta s) ds on the broadcast grid of delta and t, stable near delta = 0."""
    small = np.abs(delta * t) < 1e-8
    with np.errstate(divide="ignore", invalid="ignore"):
        closed = (np.exp(1j * delta * t) - 1.0) / (1j * delta)
    return np.where(small, t * (1.0 + 0.5j * delta * t - (delta * t) ** 2 / 6.0), closed)


def duhamel_solution(
    op: SpectralOperator, u0: RadialField, forcing: ModalForcing | None, times
) -> np.ndarray:
    """u(t_k) = e^{i t_k H} u0 + i int_0^{t_k} e^{i(t_k-s)H} h(s) ds, exact per mode; (T, N)."""
    mu = op.eigenvalues
    t = np.asarray(times, dtype=float)[:, None]
    phases = np.exp(1j * mu * t)
    coeffs = op.to_modal(u0.values) * phases
    if forcing is not None:
        g_modal = op.to_modal(np.array([g.values for g in forcing.fields]))
        for w, g_m in zip(forcing.omegas, g_modal):
            coeffs = coeffs + 1j * phases * g_m * _phase_integral(w - mu, t)
    return op.from_modal(coeffs)


def strichartz_quotient(
    op_full: SpectralOperator,
    op_free: SpectralOperator,
    u0: RadialField,
    forcing: ModalForcing | None,
    pairs,
    interval: tuple[float, float] = (0.0, 1.0),
    num_samples: int = 129,
) -> np.ndarray:
    """||Delta u||_{L^q L^r} / (||Delta u0||_2 + ||grad h||_{L^2 L^{2n/(n+2)}}) per pair (q, r).

    One Duhamel solve, one Delta u and one denominator are shared by every
    pair; each pair costs one L^r norm per sample time and one L^q time
    norm.  Every pair is checked for admissibility before the solve.
    """
    n = op_full.grid.dimension
    pairs = [(Fraction(q), Fraction(r)) for q, r in pairs]
    for q, r in pairs:
        require_b_admissible(q, r, n, r_below_half_n=True)
    t0, t1 = interval
    times = np.linspace(t0, t1, num_samples)
    grid = op_full.grid
    lap_u = laplacian_values(grid, duhamel_solution(op_full, u0, forcing, times))
    dual = 0.0
    if forcing is not None:
        _, r_dual = spacetime_exponents("N", n)
        grad_h = fractional_gradient_values(op_free, 1.0, forcing.values_at(times))
        dual = _time_lq(times, lp_norm_values(grid, grad_h, float(r_dual)), 2.0)
    denom = hdot2_norm(u0) + dual
    if denom == 0.0:
        raise ZeroDivisionError("trivial data and forcing")
    return np.array([
        _time_lq(times, lp_norm_values(grid, lap_u, float(r)), float(q)) / denom
        for q, r in pairs
    ])


# ---------------------------------------------------------------------------
# localized-mass almost-conservation and the Morawetz functional

@dataclass
class LocalizedMassRateReport:
    radius: float
    empirical_constant: float   # sup |dM/dt| R / (E^{3/4} M^{1/4})
    max_abs_rate: float
    masses: np.ndarray          # the localized mass M_R at each sample time


def _central_rates(masses: np.ndarray, times: np.ndarray) -> np.ndarray:
    return (masses[2:] - masses[:-2]) / (times[2:] - times[:-2])


def localized_mass_rate_check(
    sample: SpaceTimeSample, radii, chi=smooth_cutoff
) -> list[LocalizedMassRateReport]:
    """Central-difference d/dt of the localized mass against its dispersive bound, per radius.

    ||Delta u||^2 of each row is computed once and chi(r/R)^4 once per radius;
    each (row, R) then costs the one weighted sum radial.localized_mass takes.
    The stride-halving check reads every second mass.  Raises ResolutionError
    when halving the snapshot stride changes the measured peak rate by more
    than 50%, unless both peaks sit below the roundoff floor 1e-12 M / dt,
    where the comparison measures only noise.
    """
    radii = list(radii)
    for radius in radii:
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
    if sample.times.size < 3:
        raise ResolutionError("need at least 3 snapshots for a central difference")

    grid = sample.grid
    times = sample.times
    profiles = [chi(grid.nodes / radius) ** 4 for radius in radii]
    # one pass over the rows: no (S, N) temporaries, and a row-wise
    # np.linalg.norm would differ from hdot2_norm in the last bits
    masses = np.empty((len(radii), times.size))
    energies = np.empty(times.size)
    for k, row in enumerate(sample.values):
        weighted = grid.metric * np.abs(row) ** 2
        for j, profile in enumerate(profiles):
            masses[j, k] = np.sum(weighted * profile)
        energies[k] = hdot2_norm(RadialField(grid, row)) ** 2

    total = mass(RadialField(grid, sample.values[0]))
    dt = float(np.min(np.diff(times)))
    rate_floor = 1e-12 * total / dt
    reports = []
    for radius, m in zip(radii, masses):
        rates = _central_rates(m, times)
        if times.size >= 6:
            rates_coarse = _central_rates(m[::2], times[::2])
            peak, peak_coarse = np.max(np.abs(rates)), np.max(np.abs(rates_coarse))
            scale = max(peak, peak_coarse)
            if scale > rate_floor and abs(peak - peak_coarse) > 0.5 * scale:
                raise ResolutionError(
                    f"rate estimate changes by {abs(peak-peak_coarse)/scale:.0%} under "
                    "stride halving; snapshots too sparse"
                )

        constants = []
        for k, rate in enumerate(rates):
            m_k = m[k + 1]
            e_k = energies[k + 1]
            if abs(rate) <= rate_floor or m_k <= 0 or e_k <= 0:
                constants.append(0.0)
            else:
                constants.append(abs(rate) * radius / (e_k**0.75 * m_k**0.25))
        reports.append(LocalizedMassRateReport(
            radius=radius,
            empirical_constant=float(np.max(constants)) if constants else 0.0,
            max_abs_rate=float(np.max(np.abs(rates))) if rates.size else 0.0,
            masses=m,
        ))
    return reports


@dataclass
class MorawetzReport:
    lhs: float            # int_I int_{|x| <= K |I|^{1/4}} |u|^{2#} / |x| dx dt
    empirical_constant: float   # lhs / ((K^3 + 1/K) sup_I (E + E^{2#/2}) |I|^{3/4})


def morawetz_check(
    sample: SpaceTimeSample,
    k_values,
    cfg: SimulationConfig,
) -> list[MorawetzReport]:
    """Weighted space-time nonlinearity inside |x| <= K |I|^{1/4} vs its bound, per K.

    sup_I (E + E^{2#/2}) does not depend on K, so it is computed once.
    """
    grid = sample.grid
    n = grid.dimension
    p_crit = critical_exponent(n)
    if abs(cfg.p - p_crit) > 1e-9:
        raise ValueError(
            f"Morawetz check needs the critical power p = {p_crit}, got {cfg.p}"
        )
    two_sharp = p_crit + 1.0
    length = sample.length
    sup_e_hat = 0.0
    for row in sample.values:
        e = hdot2_norm(RadialField(grid, row)) ** 2
        sup_e_hat = max(sup_e_hat, e + e ** (two_sharp / 2.0))
    reports = []
    for k_parameter in k_values:
        ball = k_parameter * length**0.25
        # nodes increase, so the ball is a leading slice: each row stays contiguous
        # and sums in the order one field's sum takes
        inside = slice(0, np.searchsorted(grid.nodes, ball, side="right"))
        weights = grid.metric[inside] / grid.nodes[inside]
        density = np.sum(weights * np.abs(sample.values[:, inside]) ** two_sharp, axis=-1)
        lhs = float(np.trapezoid(density, sample.times))
        rhs_core = (k_parameter**3 + 1.0 / k_parameter) * sup_e_hat * length**0.75
        c_emp = lhs / rhs_core if rhs_core > 0 else 0.0
        reports.append(MorawetzReport(lhs=lhs, empirical_constant=c_emp))
    return reports
