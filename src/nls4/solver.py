"""Nonlinear time evolution i u_t + Delta^2 u + V u + lambda |u|^{p-1} u = 0.

Two independent integrators share the exact spectral propagator:

* Strang splitting, in run_trajectory, the one stepper.  The nonlinear flow
  i u_t + lambda |u|^{p-1} u = 0 is an exact pointwise phase rotation
  u -> exp(i lambda dt |u|^{p-1}) u (|u| is invariant), so a step is half
  rotation / full linear propagator / half rotation.  Both substeps conserve
  the quadrature mass exactly; energy drifts at O(dt^2).  The linear substep
  is one dense complex matrix P = e^{i dt H} in grid space (16 N^2 bytes), so
  a step is one matrix-vector product.  Each operator holds the last P it was
  asked for, keyed on dt, so runs that share (operator, dt) build it once.
  A rotation writes cos and sin of its phase into one complex array and
  multiplies u into it in place.  As rotations commute with each other, the
  closing half rotation of a step merges with the opening one of the next;
  the owed half is flushed before every monitor and every forced step.  With
  lambda = 0 and no forcing nothing is stepped: each monitor state is the
  exact linear flow e^{itH} u0.  A run halts at the first monitor that
  suspects blow-up or sees mass at the boundary, and says which.

* A Picard iteration on the integral form
  u(t) = e^{itH} u0 + i lambda int_0^t e^{i(t-s)H} |u|^{p-1} u(s) ds,
  collocated on composite 8-point Gauss panels (one panel per splitting
  window).  Partial-panel integrals are taken exactly on the Legendre
  interpolant, so the oracle's time error sits far below the splitting error
  it cross-validates.  Contraction is monitored, not assumed: a growing
  iterate distance raises an error carrying the measured factor (the window
  was too long for the data size).  Run backward from a scattering datum u+,
  the same fixed point gives the final state, the solution scattering to u+.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .radial import RadialField, SpaceTimeSample
from .spectral import SpectralOperator, hdot2_norm

PICARD_ORDER = 8
# rows of the step propagator filled per pair of real products
_PROPAGATOR_ROWS = 64
# operator -> ((tau, builder), P): the one step propagator each operator holds
_HELD_PROPAGATORS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class SolverError(RuntimeError):
    pass


class PicardNonContraction(SolverError):
    """Iterate distances grew; carries the measured contraction factor."""

    def __init__(self, factor: float):
        super().__init__(
            f"fixed-point iteration is not contracting (measured factor {factor:.3g}); "
            "shorten the time window or shrink the data"
        )
        self.factor = factor


def critical_exponent(n: int) -> float:
    """Energy-critical nonlinearity power 2n/(n-4) - 1."""
    return 2.0 * n / (n - 4.0) - 1.0


@dataclass(kw_only=True)
class SimulationConfig:
    lam: float = 1.0
    p: float
    dt: float = 1e-3
    t_end: float = 1.0
    monitor_stride: int = 10
    snapshot_stride: int = 0
    picard_tol: float = 1e-10
    picard_max_iter: int = 50
    boundary_threshold: float = 1e-6
    blowup_factor: float = 1e6

    def __post_init__(self):
        if self.p <= 1:
            raise ValueError(f"nonlinearity power must satisfy p > 1, got {self.p}")
        if self.dt <= 0 or self.t_end <= 0 or self.dt > self.t_end:
            raise ValueError(f"need 0 < dt <= t_end, got dt={self.dt}, t_end={self.t_end}")
        if abs(round(self.t_end / self.dt) * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError(
                f"t_end must be a whole number of dt steps, got t_end={self.t_end}, dt={self.dt}"
            )
        for name, value, ok, rule in (
            ("monitor_stride", self.monitor_stride, self.monitor_stride >= 1, ">= 1"),
            ("snapshot_stride", self.snapshot_stride, self.snapshot_stride >= 0, ">= 0"),
            ("picard_tol", self.picard_tol, self.picard_tol > 0, "> 0"),
            ("picard_max_iter", self.picard_max_iter, self.picard_max_iter >= 1, ">= 1"),
            ("boundary_threshold", self.boundary_threshold, self.boundary_threshold > 0, "> 0"),
            ("blowup_factor", self.blowup_factor, self.blowup_factor > 1, "> 1"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {value}")


@dataclass
class TrajectoryRecord:
    times: np.ndarray
    mass_series: np.ndarray
    energy_series: np.ndarray
    h2dot_series: np.ndarray       # ||Delta u||^2
    boundary_mass_series: np.ndarray
    snapshots: SpaceTimeSample     # every snapshot_stride-th monitor and the last step
    status: str                    # ok | boundary_contaminated | blowup_suspected

    def mass_drift(self) -> float:
        m0 = self.mass_series[0]
        return float(np.max(np.abs(self.mass_series - m0)) / m0)

    def energy_drift(self) -> float:
        e0 = self.energy_series[0]
        scale = max(abs(e0), 1e-300)
        return float(np.max(np.abs(self.energy_series - e0)) / scale)


def mass(u: RadialField) -> float:
    return float(np.sum(u.grid.metric * np.abs(u.values) ** 2))


def energy(u: RadialField, potential: np.ndarray, lam: float, p: float) -> float:
    """(1/2) int |Delta u|^2 + V |u|^2 + (2 lambda / (p+1)) |u|^{p+1} dx.

    `potential` holds V's values on u's nodes.
    """
    v = np.asarray(potential)
    if v.shape != u.values.shape:
        raise ValueError("potential and field live on different grids")
    kinetic = hdot2_norm(u) ** 2
    absu2 = np.abs(u.values) ** 2
    pot = float(np.sum(u.grid.metric * v * absu2))
    nl = float(np.sum(u.grid.metric * absu2 ** ((p + 1) / 2.0)))
    return 0.5 * (kinetic + pot + 2.0 * lam / (p + 1.0) * nl)


def _nonlinear_phase(values: np.ndarray, lam: float, p: float, tau: float) -> np.ndarray:
    """Exact flow of i u_t + lam |u|^{p-1} u = 0 over time tau: values * e^{i theta}.

    theta = (lam tau) |u|^{p-1} stays in one real buffer; cos theta and sin
    theta fill the parts of one complex array, which then takes the product.
    The product keeps the order values * rot, as complex products are not
    bitwise commutative.
    """
    theta = np.abs(values)
    with np.errstate(over="raise"):
        try:
            theta **= p - 1.0
            theta *= lam * tau
        except FloatingPointError as exc:
            raise SolverError("overflow in |u|^{p-1}: blow-up suspected") from exc
    rot = np.empty(values.shape, dtype=complex)
    np.cos(theta, out=rot.real)
    np.sin(theta, out=rot.imag)
    return np.multiply(values, rot, out=rot)


def step_propagator(op: SpectralOperator, tau: float) -> np.ndarray:
    """e^{i tau H} as one complex grid-space matrix acting on values (N,).

    P = diag(1/sqrt m) Q diag(e^{i tau mu}) Q^T diag(sqrt m), filled by blocks
    of _PROPAGATOR_ROWS rows from two real products, so no N x N temporary
    exists beside P: its 16 N^2 bytes are the whole memory cost.
    """
    q = op.eigenvectors
    qt = q.T
    phase = tau * op.eigenvalues
    cos, sin = np.cos(phase), np.sin(phase)
    sqrt_m = op.grid.metric_sqrt
    n = q.shape[0]
    out = np.empty((n, n), dtype=complex)
    for start in range(0, n, _PROPAGATOR_ROWS):
        rows = slice(start, start + _PROPAGATOR_ROWS)
        for part, factor in ((out.real, cos), (out.imag, sin)):
            block = (q[rows] * factor) @ qt
            block *= sqrt_m
            block /= sqrt_m[rows, None]
            part[rows] = block
    return out


def _held_propagator(op: SpectralOperator, tau: float) -> np.ndarray:
    """step_propagator(op, tau), built once while runs keep asking for this tau.

    Each operator holds at most one P, and the old one is dropped before the
    next is built.  The key holds the builder, looked up by its module name on
    every call, so a replaced solver.step_propagator is never bypassed.
    """
    key = (tau, step_propagator)
    held = _HELD_PROPAGATORS.get(op)
    if held is not None and held[0] == key:
        return held[1]
    held = None  # a local reference would keep the old P alive during the build
    _HELD_PROPAGATORS.pop(op, None)
    prop = step_propagator(op, tau)
    _HELD_PROPAGATORS[op] = (key, prop)
    return prop


def run_trajectory(
    u0: RadialField,
    op_full: SpectralOperator,
    cfg: SimulationConfig,
    *,
    forcing=None,
) -> TrajectoryRecord:
    """Advance to t_end by splitting, recording monitors every monitor_stride steps.

    Every snapshot_stride-th monitor and the last step are also kept, as the
    rows of one (S, N) SpaceTimeSample.  Halts early (keeping partial data)
    on boundary contamination or suspected blow-up.  `forcing` is an optional
    callable t -> values adding the inhomogeneous term of the perturbed
    equation; it enters through a midpoint-propagated source, preserving
    second order.  With lam == 0 and no forcing the flow is linear, and each
    monitor state is e^{itH} u0 itself, taken from u0's modal coefficients
    without stepping.
    """
    grid = u0.grid
    v_pot = op_full.potential_values
    mu = op_full.eigenvalues
    dt, half = cfg.dt, cfg.dt / 2.0
    exact = cfg.lam == 0.0 and forcing is None
    num_steps = int(round(cfg.t_end / dt))
    monitor_steps = [*range(cfg.monitor_stride, num_steps, cfg.monitor_stride), num_steps]
    snap_every = cfg.monitor_stride * cfg.snapshot_stride
    snap_steps = [
        step for step in (0, *monitor_steps)
        if cfg.snapshot_stride and (step % snap_every == 0 or step == num_steps)
    ]
    # one row per snapshot, allocated once; a halted run leaves the tail unwritten
    snap_times = np.empty(len(snap_steps))
    snap_values = np.empty((len(snap_steps), grid.num_points), dtype=complex)
    num_snaps = 0
    times, masses, energies, h2dots, bmasses = [], [], [], [], []

    values = u0.values.copy()
    m0 = mass(u0)
    e2_0 = hdot2_norm(u0) ** 2
    # the weights of mass(), energy() and boundary_mass(), formed as they form them
    metric = grid.metric
    metric_v = metric * v_pot
    edge = grid.boundary_mask()
    metric_edge = metric[edge]
    nl_power = (cfg.p + 1) / 2.0
    nl_coeff = 2.0 * cfg.lam / (cfg.p + 1.0)

    def record(step: int, t: float) -> str | None:
        """Append monitors of `values`; returns why the run must halt, or None.

        One |u|^2 and one ||Delta u||^2 serve every monitor; each sum is the
        one mass(), energy() or boundary_mass() takes, so the bits agree.
        """
        nonlocal num_snaps
        u = RadialField(grid, values)
        absu2 = np.abs(values) ** 2
        h2 = hdot2_norm(u) ** 2
        pot = float(np.sum(metric_v * absu2))
        nl = float(np.sum(metric * absu2 ** nl_power))
        times.append(t)
        masses.append(float(np.sum(metric * absu2)))
        energies.append(0.5 * (h2 + pot + nl_coeff * nl))
        h2dots.append(h2)
        bm = float(np.sum(metric_edge * absu2[edge]))
        bmasses.append(bm)
        if num_snaps < len(snap_steps) and snap_steps[num_snaps] == step:
            snap_times[num_snaps] = t
            snap_values[num_snaps] = values
            num_snaps += 1
        if not np.isfinite(h2) or (e2_0 > 0 and h2 > cfg.blowup_factor * e2_0):
            return "blowup_suspected"
        if bm > cfg.boundary_threshold * m0:
            return "boundary_contaminated"
        return None

    def advance(values: np.ndarray, first: int, last: int) -> np.ndarray:
        """Steps first+1..last.  The closing half rotation of one step merges
        with the opening one of the next; it is owed until a monitor or a
        forced step, where it is flushed."""
        tau = half
        for step in range(first + 1, last + 1):
            values = prop @ _nonlinear_phase(values, cfg.lam, cfg.p, tau)
            if forcing is None:
                tau = dt
                continue
            values = _nonlinear_phase(values, cfg.lam, cfg.p, half)
            src = -1j * dt * np.asarray(forcing((step - 1) * dt + half))
            values = values + half_prop @ src
        if forcing is None:
            values = _nonlinear_phase(values, cfg.lam, cfg.p, half)
        return values

    halt = record(0, 0.0)
    if halt is None:  # a run that halts at t = 0 builds no propagator
        if exact:
            coeffs0 = op_full.to_modal(u0.values)
        else:
            prop = _held_propagator(op_full, dt)
            half_prop = _held_propagator(op_full, half) if forcing is not None else None
    done = 0
    for step in monitor_steps:
        if halt is not None:
            break
        t = step * dt
        if exact:
            values = op_full.from_modal(np.exp(1j * t * mu) * coeffs0)
        else:
            try:
                values = advance(values, done, step)
            except SolverError:
                halt = "blowup_suspected"
                break
        done = step
        halt = record(step, t)

    return TrajectoryRecord(
        times=np.array(times),
        mass_series=np.array(masses),
        energy_series=np.array(energies),
        h2dot_series=np.array(h2dots),
        boundary_mass_series=np.array(bmasses),
        snapshots=SpaceTimeSample(
            grid, snap_times[:num_snaps], snap_values[:num_snaps],
            (0.0, snap_times[num_snaps - 1] if num_snaps else 0.0),
        ),
        status=halt or "ok",
    )


# ---------------------------------------------------------------------------
# Picard / Duhamel fixed point on composite Gauss panels

class GaussPanels:
    """Composite Gauss-Legendre collocation grid on [t0, t1].

    cumulative() integrates a node-sampled integrand from t0 to every node,
    using exact integrals of the per-panel Legendre interpolant for the
    partial panels.
    """

    def __init__(self, t0: float, t1: float, num_panels: int, order: int = PICARD_ORDER):
        self.t0, self.t1 = float(t0), float(t1)
        self.num_panels = num_panels
        self.order = order
        x, w = np.polynomial.legendre.leggauss(order)
        edges = np.linspace(t0, t1, num_panels + 1)
        self.half = np.diff(edges) / 2.0                        # (K,)
        self.nodes = edges[:-1, None] + self.half[:, None] * (x[None, :] + 1.0)
        self.full_weights = w                                   # (m,)
        # partial integral matrix: row m gives weights for int_{-1}^{x_m}
        pvals = np.polynomial.legendre.legvander(x, order)      # P_l(x_m), l <= order
        coeff = ((2 * np.arange(order) + 1) / 2.0)[:, None] * (w[None, :] * pvals[:, :order].T)
        q = np.zeros((order, order))
        q[:, 0] = x + 1.0
        for l in range(1, order):
            q[:, l] = (pvals[:, l + 1] - pvals[:, l - 1]) / (2 * l + 1)
        self.partial = q @ coeff                                # (m, m)

    def cumulative(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """g has shape (K, m, ...); returns (G at nodes, G at t1)."""
        panel_full = np.einsum("m,km...->k...", self.full_weights, g) * self.half.reshape(
            (-1,) + (1,) * (g.ndim - 2)
        )
        prefix = np.concatenate(
            [np.zeros_like(panel_full[:1]), np.cumsum(panel_full, axis=0)[:-1]], axis=0
        )
        within = np.einsum("ms,ks...->km...", self.partial, g) * self.half.reshape(
            (-1, 1) + (1,) * (g.ndim - 2)
        )
        return prefix[:, None] + within, prefix[-1] + panel_full[-1]


@dataclass
class PicardSolution:
    final_field: RadialField
    iterations: int
    contraction_factor: float
    diffs: list[float]             # iterate distance of every sweep


def duhamel_window(
    u: RadialField,
    op: SpectralOperator,
    cfg: SimulationConfig,
    t0: float,
    t1: float,
    *,
    backward: bool = False,
) -> PicardSolution:
    """Fixed point of the Duhamel map on [t0, t1], one Gauss panel per dt.

    Forward, u is the state at t0 and the result is the state at t1:
        u(t) = e^{i(t-t0)H} u + i lam int_{t0}^t e^{i(t-s)H} f(u) ds.
    Backward, u is the scattering datum u+ and the result is the state at t0:
        u(t) = e^{itH} u+ - i lam int_t^{t1} e^{i(t-s)H} f(u) ds.
    Iterates are interaction-picture coefficients anchored at the datum.
    """
    if not 0 <= t0 < t1:
        raise ValueError(f"need 0 <= t0 < t1, got t0={t0}, t1={t1}")
    panels = GaussPanels(t0, t1, max(1, int(round((t1 - t0) / cfg.dt))))
    mu = op.eigenvalues
    anchor = op.to_modal(u.values)
    if not backward:
        anchor = anchor * np.exp(-1j * mu * t0)
    shape = panels.nodes.shape
    node_phases = np.exp(1j * mu[None, None, :] * panels.nodes[:, :, None])
    h2_weight = 1.0 + np.sqrt(np.maximum(mu, 0.0))

    # the first iterate is the free flow of the anchor
    coeffs = node_phases * anchor
    diffs: list[float] = []
    growth_streak = 0
    for _ in range(cfg.picard_max_iter):
        flat = coeffs.reshape(-1, mu.size)
        with np.errstate(over="ignore", invalid="ignore"):
            u_nodes = op.from_modal(flat)
            g_nodes = np.abs(u_nodes) ** (cfg.p - 1.0) * u_nodes
            f_modal = op.to_modal(g_nodes).reshape(shape + (mu.size,))
            g_cum, g_total = panels.cumulative(np.conj(node_phases) * f_modal)
            if backward:
                g_cum -= g_total  # G measured from the anchored end, t1
            new_coeffs = node_phases * (anchor + 1j * cfg.lam * g_cum)

        delta = (new_coeffs - coeffs).reshape(-1, mu.size)
        d = float(np.max(np.linalg.norm(delta * h2_weight, axis=1)))
        if not np.isfinite(d):
            raise PicardNonContraction(np.inf)
        diffs.append(d)
        coeffs = new_coeffs
        if d < cfg.picard_tol:
            break
        if len(diffs) > 1:
            growth_streak = growth_streak + 1 if d > diffs[-2] else 0
            if growth_streak >= 3:
                raise PicardNonContraction(d / diffs[-2])
    else:
        raise SolverError(
            f"fixed-point iteration did not reach tol={cfg.picard_tol} in "
            f"{cfg.picard_max_iter} sweeps (last diff {diffs[-1]:.3g})"
        )

    # read at the other end: G(t1) - 0 forward, 0 - G(t1) backward
    t_out, g_out = (t0, -g_total) if backward else (t1, g_total)
    out_modal = np.exp(1j * mu * t_out) * (anchor + 1j * cfg.lam * g_out)
    factor = diffs[-1] / diffs[-2] if len(diffs) > 1 and diffs[-2] > 0 else 0.0
    return PicardSolution(RadialField(u.grid, op.from_modal(out_modal)), len(diffs), factor, diffs)
