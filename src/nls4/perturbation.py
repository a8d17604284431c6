"""Stability of the critical flow under forcing and data perturbation.

An approximate solution solves the equation with an extra inhomogeneity e;
the experiment evolves the forced field and the exact flow from nearby data,
then compares their gradient space-time distance ||u - u~||_{W(I)} to the
measured smallness eps = max(||e||_{N(I)}, ||e^{itH}(u0 - u~0)||_{W(I)})
through the bound shape eps + eps^{15/(n-4)^3}.  The exponent in the second
term is reported next to an empirically fitted rate, never asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import ModalForcing, SpaceTimeSample, sample_from_trajectory, spacetime_norm
from .radial import RadialField
from .solver import SimulationConfig, run_trajectory
from .spectral import SpectralOperator, evolve


@dataclass
class PerturbationReport:
    w_distance: float
    eps_data: float
    eps_forcing: float
    bound_shape: float       # eps + eps^{15/(n-4)^3}
    bound_exponent: float    # 15/(n-4)^3
    empirical_constant: float
    status: str


def perturbation_experiment(
    u_tilde0: RadialField,
    forcing: ModalForcing | None,
    u0: RadialField,
    cfg: SimulationConfig,
    op_full: SpectralOperator,
    op_free: SpectralOperator,
) -> PerturbationReport:
    n = u_tilde0.grid.dimension
    if cfg.snapshot_stride < 1:
        raise ValueError("perturbation runs need snapshots; set snapshot_stride >= 1")
    forcing_fn = forcing.values_at if forcing is not None else None
    rec_tilde = run_trajectory(u_tilde0, op_full, cfg, forcing=forcing_fn)
    rec_exact = run_trajectory(u0, op_full, cfg)
    status = rec_tilde.status if rec_tilde.status != "ok" else rec_exact.status

    s_tilde = sample_from_trajectory(rec_tilde)
    s_exact = sample_from_trajectory(rec_exact)
    common = min(s_tilde.times.size, s_exact.times.size)
    times = s_tilde.times[:common]
    interval = (times[0], times[-1])
    diff = SpaceTimeSample(
        times,
        [a - b for a, b in zip(s_exact.fields[:common], s_tilde.fields[:common])],
        interval,
    )
    w_distance = spacetime_norm(diff, "W", op_free)

    gap0 = u0 - u_tilde0
    linear_gap = SpaceTimeSample(
        times,
        [RadialField(u0.grid, row) for row in evolve(op_full, gap0.values, times)],
        interval,
    )
    eps_data = spacetime_norm(linear_gap, "W", op_free)

    eps_forcing = 0.0
    if forcing is not None:
        forcing_sample = SpaceTimeSample(
            times,
            [RadialField(u0.grid, row) for row in forcing.values_at(times)],
            interval,
        )
        eps_forcing = spacetime_norm(forcing_sample, "N", op_free)

    eps = max(eps_data, eps_forcing)
    exponent = 15.0 / (n - 4.0) ** 3
    bound = eps + eps**exponent if eps > 0 else 0.0
    constant = w_distance / bound if bound > 0 else 0.0
    return PerturbationReport(
        w_distance=w_distance,
        eps_data=eps_data,
        eps_forcing=eps_forcing,
        bound_shape=bound,
        bound_exponent=exponent,
        empirical_constant=constant,
        status=status,
    )
