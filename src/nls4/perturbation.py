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

from .analysis import spacetime_norm
from .radial import SpaceTimeSample
from .solver import TrajectoryRecord
from .spectral import SpectralOperator, evolve


@dataclass
class PerturbationReport:
    w_distance: float
    eps_data: float


def perturbation_experiment(
    rec_tilde: TrajectoryRecord,
    rec_exact: TrajectoryRecord,
    op_full: SpectralOperator,
    op_free: SpectralOperator,
) -> PerturbationReport:
    """W-distance of the exact run from the (possibly forced) run rec_tilde.

    The data u~0 and u0 are the records' first snapshot rows, which
    run_trajectory stores as copies of the initial fields.
    """
    s_tilde, s_exact = rec_tilde.snapshots, rec_exact.snapshots
    if s_tilde.times.size == 0 or s_exact.times.size == 0:
        raise ValueError("perturbation runs need snapshots; set snapshot_stride >= 1")
    common = min(s_tilde.times.size, s_exact.times.size)
    times = s_tilde.times[:common]
    interval = (times[0], times[-1])
    grid = s_tilde.grid
    diff = s_exact.values[:common] - s_tilde.values[:common]
    w_distance = spacetime_norm(SpaceTimeSample(grid, times, diff, interval), "W", op_free)

    linear_gap = evolve(op_full, s_exact.values[0] - s_tilde.values[0], times)
    eps_data = spacetime_norm(SpaceTimeSample(grid, times, linear_gap, interval), "W", op_free)
    return PerturbationReport(w_distance=w_distance, eps_data=eps_data)
