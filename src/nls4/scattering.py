"""Wave-operator probes and scattering-state extraction.

On the truncated disk only finite-time compositions of the two exact
propagators exist, so every asymptotic statement becomes a trend measured on
the pre-reflection window:

* wave operator:      W(t) psi = e^{itH} e^{-it Delta^2} psi, H^2 Cauchy gaps;
* scattering state:   v(t) = e^{-itH} u(t) from trajectory snapshots, with
                      u+ = v at the last clean time, the mass identity
                      M(u0) = M(u+), and the energy identity
                      2 E(u0) = ||u+_*||_{Hdot^2}^2 once the critical
                      Lebesgue norm of u has collapsed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import MIN_TIME_SAMPLES, _require_clean_window, _require_time_samples, spacetime_norm
from .radial import RadialField, SpaceTimeSample, lp_norm_values
from .solver import SimulationConfig, critical_exponent, energy, mass
from .spectral import SpectralOperator, apply_function, evolve, h2_norm, hdot2_norm

Z_TAIL_THRESHOLD = 1e-3
LEBESGUE_TRIGGER = 0.1
SETTLED_FRACTION = 1e-9


def gaps_converging(gaps: np.ndarray, scale: float) -> bool:
    """True when the last three gaps strictly decrease, or all sit at roundoff.

    Roundoff is SETTLED_FRACTION * max(scale, 1), scale being the size of the
    state whose gaps these are; an earlier decreasing run does not count.
    """
    gaps = np.asarray(gaps)
    if gaps.size < 3:
        return False
    tail = gaps[-3:]
    decreasing = bool(np.all(np.diff(tail) < 0))
    settled = bool(np.max(tail) <= SETTLED_FRACTION * max(scale, 1.0))
    return decreasing or settled


@dataclass
class WaveOperatorProbe:
    series: list[RadialField]          # W(t) psi per time
    convergence_gaps: np.ndarray       # H^2 distance of consecutive entries
    convergent: bool


def probe_wave_operator(
    op_full: SpectralOperator,
    op_free: SpectralOperator,
    test_state: RadialField,
    times,
    boundary_threshold: float = 1e-6,
) -> WaveOperatorProbe:
    """Compose the exact propagators e^{itH} e^{-it Delta^2} at the given times."""
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) <= 0):
        raise ValueError("probe times must be strictly increasing")
    free_back = evolve(op_free, test_state.values, -times)
    _require_clean_window(op_free.grid, times, free_back, boundary_threshold * mass(test_state))
    series = [RadialField(op_full.grid, row) for row in evolve(op_full, free_back, times)]
    gaps = np.array([h2_norm(b - a) for a, b in zip(series, series[1:])])
    return WaveOperatorProbe(series, gaps, gaps_converging(gaps, h2_norm(test_state)))


def free_frame_transfer(
    op_full: SpectralOperator, op_free: SpectralOperator, u: RadialField, t: float
) -> RadialField:
    """e^{-it Delta^2} e^{itH} u: moves a perturbed-frame state to the free frame."""
    return apply_function(op_free, "exp_it", -t, apply_function(op_full, "exp_it", t, u))


@dataclass
class ScatteringReport:
    cauchy_series: list[tuple[tuple[float, float], float]]
    u_plus: RadialField
    mass_identity_gap: float
    energy_identity_gap: float | None
    free_comparison_series: list[tuple[float, float]]
    z_tail: float
    trigger_time: float | None          # first time the critical norm fell below 10%
    status: str                         # scattered | not yet scattered


def extract_scattering_state(
    sample: SpaceTimeSample,
    op_full: SpectralOperator,
    op_free: SpectralOperator,
    cfg: SimulationConfig,
) -> ScatteringReport:
    """Read v(t) = e^{-itH} u(t) off trajectory snapshots and test the identities."""
    _require_time_samples(sample.times.size)
    times = sample.times
    grid = sample.grid
    v_fields = [RadialField(grid, row) for row in evolve(op_full, sample.values, -times)]
    cauchy = [
        ((times[k], times[k + 1]), h2_norm(v_fields[k + 1] - v_fields[k]))
        for k in range(len(v_fields) - 1)
    ]
    gaps = np.array([g for _, g in cauchy])
    u_plus = v_fields[-1]

    u0 = RadialField(grid, sample.values[0])
    m0 = mass(u0)
    mass_gap = abs(m0 - mass(u_plus)) / m0

    # tail of the critical space-time norm over the last quarter of the window
    tail_start = times[0] + 0.75 * (times[-1] - times[0])
    tail_sample = sample.restricted(tail_start, times[-1])
    if tail_sample.times.size >= MIN_TIME_SAMPLES:
        z_tail = spacetime_norm(tail_sample, "Z")
    else:
        z_tail = spacetime_norm(sample.decimated(max(1, len(v_fields) // 8)), "Z")

    two_sharp = critical_exponent(op_full.grid.dimension) + 1.0
    crit_norms = lp_norm_values(grid, sample.values, two_sharp)
    triggered = np.nonzero(crit_norms <= LEBESGUE_TRIGGER * crit_norms[0])[0]
    trigger_time = float(times[triggered[0]]) if triggered.size else None

    energy_gap = None
    free_series: list[tuple[float, float]] = []
    if trigger_time is not None:
        u_plus_star = free_frame_transfer(op_full, op_free, u_plus, float(times[-1]))
        e0 = energy(u0, op_full.potential_values, cfg.lam, cfg.p)
        energy_gap = abs(2.0 * e0 - hdot2_norm(u_plus_star) ** 2) / abs(2.0 * e0)
        free_flow = evolve(op_free, u_plus_star.values, times)
        free_series = [
            (float(t), h2_norm(RadialField(grid, u - row)))
            for t, u, row in zip(times, sample.values, free_flow)
        ]

    scattered = gaps_converging(gaps, h2_norm(u0)) and z_tail < Z_TAIL_THRESHOLD
    return ScatteringReport(
        cauchy_series=cauchy,
        u_plus=u_plus,
        mass_identity_gap=mass_gap,
        energy_identity_gap=energy_gap,
        free_comparison_series=free_series,
        z_tail=z_tail,
        trigger_time=trigger_time,
        status="scattered" if scattered else "not yet scattered",
    )
