"""Stability of the critical flow under forcing and data perturbation.

An approximate solution solves the equation with an extra inhomogeneity e;
the experiment evolves the forced field and the exact flow from nearby data
and measures their gradient space-time distance ||u - u~||_{W(I)} next to the
data smallness eps = ||e^{itH}(u0 - u~0)||_{W(I)}.  The paper's bound has the
shape eps + eps^{15/(n-4)^3}; the rate in eps is fitted, and the exponent is
reported next to it, never asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import ModalForcing, spacetime_norm
from .radial import RadialField, SpaceTimeSample
from .solver import SimulationConfig, TrajectoryRecord, run_trajectory
from .spectral import SpectralOperator, evolve


@dataclass
class PerturbationReport:
    w_distance: float
    eps_data: float


def perturbation_experiment(
    u_tilde0: RadialField,
    forcing: ModalForcing | None,
    u0: RadialField,
    cfg: SimulationConfig,
    op_full: SpectralOperator,
    op_free: SpectralOperator,
    *,
    rec_tilde: TrajectoryRecord | None = None,
    rec_exact: TrajectoryRecord | None = None,
) -> PerturbationReport:
    """W-distance of the forced run from u_tilde0 and the exact run from u0.

    Either run may be passed in, made by run_trajectory from the same data,
    forcing and cfg, so that experiments sharing a run pay for it once.
    """
    if cfg.snapshot_stride < 1:
        raise ValueError("perturbation runs need snapshots; set snapshot_stride >= 1")
    if rec_tilde is None:
        forcing_fn = forcing.values_at if forcing is not None else None
        rec_tilde = run_trajectory(u_tilde0, op_full, cfg, forcing=forcing_fn)
    if rec_exact is None:
        rec_exact = run_trajectory(u0, op_full, cfg)

    s_tilde, s_exact = rec_tilde.snapshots, rec_exact.snapshots
    common = min(s_tilde.times.size, s_exact.times.size)
    times = s_tilde.times[:common]
    interval = (times[0], times[-1])
    grid = u0.grid
    diff = s_exact.values[:common] - s_tilde.values[:common]
    w_distance = spacetime_norm(SpaceTimeSample(grid, times, diff, interval), "W", op_free)

    linear_gap = evolve(op_full, u0.values - u_tilde0.values, times)
    eps_data = spacetime_norm(SpaceTimeSample(grid, times, linear_gap, interval), "W", op_free)
    return PerturbationReport(w_distance=w_distance, eps_data=eps_data)
