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

A Duhamel solve and a Strichartz quotient work on (T, N) arrays that, at
T = 129 and N = 256, are past glibc's 128 KiB mmap threshold, so each
temporary of that size would be fresh pages.  Their transforms over the T
rows stay one to_modal / from_modal call each, into caller buffers, so the
eigenvector matrix is read once.  Every row-local stage (the modal
coefficients with their phase integrals, h(t), the Delta stencil and the
L^r sums) runs over row blocks of at most _BLOCK_BYTES of complex values,
cut by radial._blocks like every blocked stage of the package.  Their
temporaries are reused heap memory and stay in cache; each stage acts on
each row alone, so the bits are the whole-array forms'.  The blocks call
the stencil and the norm by their private names, so a profiler that wraps
the public ones sees no call per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .radial import (
    RadialField,
    SpaceTimeSample,
    _blocks,
    _boundary_masses,
    _lp_norm_values,
    lp_norm_values,
    smooth_cutoff,
)
from .solver import SimulationConfig, _is_critical, critical_exponent, mass
from .spectral import (
    SpectralOperator,
    _check_field,
    _laplacian_values,
    apply_function,  # analysis.apply_function is public: perfbench calls it
    evolve,
    fractional_gradient_values,
    hdot2_norm,
    laplacian_values,
    phase_table,
    power_values,
)

SPACETIME_NORMS = ("M", "W", "Z", "N")
MIN_TIME_SAMPLES = 4
_MIN_FIT_SAMPLES = 2  # a line fit through fewer points fits nothing

# complex bytes per row block of the row-local stages (radial._blocks): at
# N = 256 a block is 16 rows, so its temporaries stay below glibc's 128 KiB
# mmap threshold (reused heap, not fresh pages) and in L2
_BLOCK_BYTES = 64 * 1024


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


# input rules of the analysis stages, which config checks on its knobs at load
def _sobolev_order_ok(s) -> bool:
    return 0.0 <= s <= 2.0


def _lebesgue_ok(p, n: int) -> bool:
    return 1.0 < p < n / 2.0


def _radius_ok(radius) -> bool:
    return radius > 0


def _window_ok(t_lo, t_hi) -> bool:
    return 0 < t_lo < t_hi


def _require_time_samples(count: int) -> None:
    if count < MIN_TIME_SAMPLES:
        raise ResolutionError(f"need at least {MIN_TIME_SAMPLES} time samples, got {count}")


def _require_clean_window(grid, times: np.ndarray, rows: np.ndarray, limit: float) -> None:
    """WindowError at the first time whose row's boundary_mass exceeds `limit`."""
    dirty = np.flatnonzero(_boundary_masses(grid, rows) > limit)
    if dirty.size:
        raise WindowError(f"boundary contamination at t = {times[dirty[0]]:.4g}")


def _time_lq(times: np.ndarray, values: np.ndarray, q: float) -> float:
    peak = values.max() if values.size else 0.0
    if peak == 0.0:
        return 0.0
    return float(peak * np.trapezoid((values / peak) ** q, times) ** (1.0 / q))


def _lr_norms(grid, values: np.ndarray, rs, stage=None) -> np.ndarray:
    """lp_norm_values of stage(grid, rows) for each r in rs, shape (len(rs), T), by row blocks.

    stage (the Delta stencil, or None for the rows themselves) and every
    norm run on one block while it is in cache; each row's norms are the
    whole-array call's, bit for bit, as both act on each row alone.
    """
    norms = np.empty((len(rs), len(values)))
    for rows in _blocks(len(values), 16 * values.shape[-1], _BLOCK_BYTES):
        block = values[rows] if stage is None else stage(grid, values[rows])
        for norm, r in zip(norms, rs):
            norm[rows] = _lp_norm_values(grid, block, float(r))
    return norms


def spacetime_norm(
    sample: SpaceTimeSample, which: str, op_free: SpectralOperator | None = None
) -> float:
    """L^q_t L^r_x norm over the sample; W and N need the free operator for |grad|."""
    _require_time_samples(sample.times.size)
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


def _admissible_r(q: Fraction, n: int) -> Fraction:
    """The r with 4/q + n/r = n/2, in exact rational arithmetic; positive for q >= 2, n >= 5."""
    return Fraction(n) / (Fraction(n, 2) - Fraction(4) / q)


def is_b_admissible(q: Fraction, r: Fraction, n: int) -> bool:
    """4/q + n/r = n/2 with 2 <= q, r, in exact rational arithmetic."""
    return q >= 2 and r >= 2 and r == _admissible_r(q, n)


def require_b_admissible(q: Fraction, r: Fraction, n: int, r_below_half_n: bool = False):
    if not is_b_admissible(q, r, n):
        raise AdmissibilityError(
            f"(q, r) = ({q}, {r}) violates 4/q + n/r = n/2 = {Fraction(n, 2)} "
            f"with q, r >= 2"
        )
    if r_below_half_n and not r < Fraction(n, 2):
        raise AdmissibilityError(f"pair requires r < n/2 = {Fraction(n,2)}, got r = {r}")


# ---------------------------------------------------------------------------
# norm equivalence

def sobolev_equiv_ratio(
    op_full: SpectralOperator,
    op_free: SpectralOperator,
    fields,
    s: float,
    ps,
) -> np.ndarray:
    """||H^{s/4} u||_{L^p} / || |grad|^s u ||_{L^p} for each field u and each p; (F, P).

    H^{s/4} u and |grad|^s u of all fields are one transform pair each,
    shared by every p; each p then costs two lp_norm_values calls over all
    fields, whose rows equal one field's lp_norm bit for bit.  s and every p
    are range-checked before any transform.
    """
    fields = list(fields)
    for u in fields:
        _check_field(op_full, u)
        _check_field(op_free, u)
    n = op_full.grid.dimension
    if not _sobolev_order_ok(s):
        raise ValueError(f"s must lie in [0, 2], got {s}")
    for p in ps:
        if not _lebesgue_ok(p, n):
            raise ValueError(f"p must lie in (1, n/2) = (1, {n/2}), got {p}")
    values = np.array([u.values for u in fields])
    h_s = power_values(op_full, s, values)
    grad_s = fractional_gradient_values(op_free, s, values)
    grid = op_full.grid
    ratios = np.empty((len(fields), len(ps)))
    for j, p in enumerate(ps):
        den = lp_norm_values(grid, grad_s, p)
        if not den.all():
            raise ZeroDivisionError("|grad|^s u vanishes; ratio undefined")
        ratios[:, j] = lp_norm_values(grid, h_s, p) / den
    return ratios


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

    Raises ValueError, before any evolution, for an empty window or fewer than
    two samples, and WindowError at the first time boundary mass passes the threshold.
    """
    if not _window_ok(*window):
        raise ValueError("window must satisfy 0 < t_lo < t_hi")
    if num_samples < _MIN_FIT_SAMPLES:
        raise ValueError(f"num_samples must be at least {_MIN_FIT_SAMPLES}, got {num_samples}")
    times = np.geomspace(*window, num_samples)
    rows = evolve(op, u0.values, times)
    _require_clean_window(op.grid, times, rows, boundary_threshold * mass(u0))
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

    def values_at(self, t, out=None) -> np.ndarray:
        """h(t) as (N,) for a scalar time, or (T, N) for an array of T times.

        out is an optional complex buffer of the result's shape; the rows
        are summed by row blocks either way.
        """
        t = np.asarray(t, dtype=float)
        num_points = self.fields[0].values.size
        if out is None:
            out = np.empty((*t.shape, num_points), complex)
        rows, times = out.reshape(-1, num_points), t.reshape(-1, 1)
        for block in _blocks(len(rows), 16 * num_points, _BLOCK_BYTES):
            rows[block] = 0.0
            for w, g in zip(self.omegas, self.fields):
                rows[block] += np.exp(1j * w * times[block]) * g.values
        return out


def _phase_integral(omega: float, mu: np.ndarray, t: np.ndarray, conj_phases: np.ndarray):
    """int_0^t exp(i delta s) ds with delta = omega - mu, on the grid of t (T, 1) and mu (N,).

    e^{i delta t} is formed as e^{i omega t} conj(e^{i mu t}) from conj_phases,
    the conjugate of the (T, N) table e^{i t mu}, so a forcing mode costs T
    exponentials, not T N.  The closed form is replaced by its series where
    |delta t| < 1e-8, and the series is evaluated only at those entries.
    """
    delta = omega - mu
    delta_t = delta * t
    small = np.abs(delta_t) < 1e-8
    out = np.multiply(np.exp(1j * omega * t), conj_phases)
    out -= 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= 1j * delta
    if small.any():
        d_s = np.broadcast_to(delta, small.shape)[small]
        t_s = np.broadcast_to(t, small.shape)[small]
        out[small] = t_s * (1.0 + 0.5j * d_s * t_s - delta_t[small] ** 2 / 6.0)
    return out


def duhamel_solution(
    op: SpectralOperator, u0: RadialField, forcing: ModalForcing | None, times
) -> np.ndarray:
    """u(t_k) = e^{i t_k H} u0 + i int_0^{t_k} e^{i(t_k-s)H} h(s) ds, exact per mode; (T, N).

    e^{i t_k mu} is the operator's held table, so solves at the same times
    build it once, and each forcing mode's phase integral is formed from
    it.  The modal coefficients are assembled by row blocks
    and then sent to the grid in one from_modal over all T rows, in the
    coefficients' buffer and the result's.
    """
    mu = op.eigenvalues
    times = np.asarray(times, dtype=float)
    phases = op.held(phase_table, times)
    u0_modal = op.to_modal(u0.values)
    if forcing is not None:
        g_modal = op.to_modal(np.array([g.values for g in forcing.fields]))
    coeffs = np.empty(phases.shape, complex)
    for rows in _blocks(len(phases), 16 * mu.size, _BLOCK_BYTES):
        block = np.multiply(u0_modal, phases[rows], out=coeffs[rows])
        if forcing is not None:
            i_phases = 1j * phases[rows]
            conj_phases = np.conjugate(phases[rows])
            for w, g_m in zip(forcing.omegas, g_modal):
                block += i_phases * g_m * _phase_integral(w, mu, times[rows, None], conj_phases)
    return op.from_modal(coeffs, out=np.empty_like(coeffs), work=coeffs)


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

    One Duhamel solve and one denominator are shared by every pair.  Delta u
    and the L^r norms of every pair run by row blocks, one block in cache
    at a time; each pair then costs one L^q time norm.  The solve's memory
    then takes h(t), which |grad| h overwrites in one transform pair.  Every
    pair is checked for admissibility, and the sampling for at least
    MIN_TIME_SAMPLES times over an interval of positive length, before the
    solve.
    """
    n = op_full.grid.dimension
    pairs = [(Fraction(q), Fraction(r)) for q, r in pairs]
    for q, r in pairs:
        require_b_admissible(q, r, n, r_below_half_n=True)
    _require_time_samples(num_samples)
    t0, t1 = interval
    if not t0 < t1:
        raise ValueError(f"interval must satisfy t0 < t1, got ({t0}, {t1})")
    times = np.linspace(t0, t1, num_samples)
    grid = op_full.grid
    u = duhamel_solution(op_full, u0, forcing, times)
    lap_norms = _lr_norms(grid, u, [r for _, r in pairs], _laplacian_values)
    dual = 0.0
    if forcing is not None:
        _, r_dual = spacetime_exponents("N", n)
        h = forcing.values_at(times, out=u)
        grad_h = fractional_gradient_values(op_free, 1.0, h, out=h, work=np.empty_like(h))
        dual = _time_lq(times, _lr_norms(grid, grad_h, [r_dual])[0], 2.0)
    denom = hdot2_norm(u0) + dual
    if denom == 0.0:
        raise ZeroDivisionError("trivial data and forcing")
    return np.array([
        _time_lq(times, norms, float(q)) / denom for (q, _), norms in zip(pairs, lap_norms)
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
    sample: SpaceTimeSample, radii, h2dot: np.ndarray
) -> list[LocalizedMassRateReport]:
    """Central-difference d/dt of the localized mass against its dispersive bound, per radius.

    h2dot holds ||Delta u||^2 of each row, as run_trajectory's h2dot_series
    holds it.  chi(r/R)^4 is formed once per radius, and each (row, R) then
    costs the one weighted sum radial.localized_mass takes.
    The stride-halving check reads every second mass.  Raises ResolutionError
    when halving the snapshot stride changes the measured peak rate by more
    than 50%, unless both peaks sit below the roundoff floor 1e-12 M / dt,
    where the comparison measures only noise.
    """
    radii = list(radii)
    for radius in radii:
        if not _radius_ok(radius):
            raise ValueError(f"radius must be positive, got {radius}")
    if sample.times.size < 3:
        raise ResolutionError("need at least 3 snapshots for a central difference")

    grid = sample.grid
    times = sample.times
    energies = np.asarray(h2dot, dtype=float)
    profiles = [smooth_cutoff(grid.nodes / radius) ** 4 for radius in radii]
    # one pass over the rows: no (S, N) temporaries
    masses = np.empty((len(radii), times.size))
    for k, row in enumerate(sample.values):
        weighted = grid.metric * np.abs(row) ** 2
        for j, profile in enumerate(profiles):
            masses[j, k] = np.sum(weighted * profile)

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
    h2dot: np.ndarray,
) -> list[MorawetzReport]:
    """Weighted space-time nonlinearity inside |x| <= K |I|^{1/4} vs its bound, per K.

    sup_I (E + E^{2#/2}) does not depend on K, so it is computed once, from
    h2dot, ||Delta u||^2 of each row as run_trajectory's h2dot_series holds
    it.
    """
    grid = sample.grid
    n = grid.dimension
    p_crit = critical_exponent(n)
    if not _is_critical(cfg.p, n):
        raise ValueError(
            f"Morawetz check needs the critical power p = {p_crit}, got {cfg.p}"
        )
    two_sharp = p_crit + 1.0
    length = sample.length
    sup_e_hat = 0.0
    for e in map(float, h2dot):
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
