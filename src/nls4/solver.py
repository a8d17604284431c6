"""Nonlinear time evolution i u_t + Delta^2 u + V u + lambda |u|^{p-1} u = 0.

Two independent integrators share the exact spectral propagator:

* Strang splitting, in run_trajectory, the one stepper.  The nonlinear flow
  i u_t + lambda |u|^{p-1} u = 0 is an exact pointwise phase rotation
  u -> exp(i lambda dt |u|^{p-1}) u (|u| is invariant), so a step is half
  rotation / full linear propagator / half rotation.  Both substeps conserve
  the quadrature mass exactly; energy drifts at O(dt^2).  The linear substep
  is one dense complex matrix P = e^{i dt H} in grid space (16 N^2 bytes), so
  a step is one matrix-vector product.  The operator holds P as its one
  table (SpectralOperator.held), keyed on dt, so runs that share
  (operator, dt) build it once; a forced run builds its half-step P(dt/2)
  for that run only and holds nothing of it afterwards.
  A rotation writes cos and sin of its phase into one complex array and
  multiplies u into it in place.  As rotations commute with each other, the
  closing half rotation of a step merges with the opening one of the next;
  the owed half is flushed before every monitor and every forced step.  With
  lambda = 0 and no forcing nothing is stepped: the monitor states are the
  exact linear flow e^{itH} u0, from u0's modal coefficients, taken once,
  through evolve_modal, in chunks of _EXACT_CHUNK_BYTES of rows cut by
  radial._blocks, the one row-block walker of every blocked stage.  The steps
  between two monitors run as one stretch (_advance) under one
  np.errstate(over="raise"), so an overflow ends the stretch with
  SolverError.  A run halts at the first monitor that suspects blow-up
  (non-finite values included) or sees mass at the boundary, and says
  which.  The propagator builds, the stretches and the monitors between
  them run in spectral._time_loop: inside run_experiment, numpy's BLAS
  threads there only, as the step's zgemv needs both cores.  The exact
  linear path and the Picard sweeps run at one thread.

* A Picard iteration on the integral form
  u(t) = e^{itH} u0 + i lambda int_0^t e^{i(t-s)H} |u|^{p-1} u(s) ds,
  collocated on composite 8-point Gauss panels (one panel per splitting
  window).  Partial-panel integrals are taken exactly on the Legendre
  interpolant, so the oracle's time error sits far below the splitting error
  it cross-validates.  Contraction is monitored, not assumed: a growing
  iterate distance raises an error carrying the measured factor (the window
  was too long for the data size).  Run backward from a scattering datum u+,
  the same fixed point gives the final state, the solution scattering to u+.
  The nodes' phases are the operator's held spectral.phase_table (the one
  e^{i t mu}), so windows that share (operator, [t0, t1], dt) build it once,
  and a window on an operator a Strang run stepped with drops that run's P
  before it builds the nodes' table.  A sweep forms |u|^{p-1} u, the
  conj-phase product, the next iterate and its distance in place, each
  product in the operand order of the expression form (complex products
  are not bitwise commutative), so the iterates keep their bits.  It
  allocates nothing of the iterate's size: beside the held node table,
  three arrays of that size stay, the iterate, one integrand array that
  GaussPanels.cumulative turns into G in place, and the old iterate's
  memory, which takes the distance and then becomes the next sweep's
  integrand array.  The modal transforms
  (SpectralOperator.to_modal / from_modal with caller buffers), |u|^{p-1},
  the conjugate node phases and the squares of the distance run over
  blocks of whole panels, cut once a window by radial._blocks; the one
  buffer of one block and GaussPanels.cumulative's blocks both come from
  that call.  A block runs in the buffer and in its own rows of the
  integrand array, free until its integrand lands there.
  A transform row has the same bits in any batch, so the blocks give the
  whole window's bits, and no GEMM packs all of the iterate's rows.
  The panel quadrature sums complex integrands through their real views,
  the same bits as the complex einsum in a third of the time.  It runs by
  the same blocks, keeps one block's panel sums and a total carried from
  block to block, summed in place, and takes its within-panel block in the
  sweep's buffer, idle while it runs.  So a window's peak is the node
  table, the iterate, the integrand array, one block buffer and one
  block's panel sums: 25.3 MB traced for final_state's window at N = 256,
  where each of the three large arrays is 8.2 MB and a block 16 panels.
  That is the floor of this scheme: a backward sweep needs G(t1) before any
  block's next iterate exists, so the node table and two iterate
  generations coexist.  The sweeps run outside spectral._time_loop, so
  inside run_experiment at numpy's one thread: at N = 256 a second thread
  helps only each block's GEMM and spins through the rest of the sweep.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .radial import RadialField, SpaceTimeSample, _blocks
from .spectral import (SpectralOperator, _apply_tridiag, _gemm_rows, _time_loop, evolve_modal,
                       hdot2_norm, phase_table)

PICARD_ORDER = 8
# rows of the step propagator filled per pair of real products (radial._blocks
# of one row each)
_PROPAGATOR_ROWS = 64
# complex bytes of one block of whole Gauss panels (radial._blocks) in a
# Picard sweep and in GaussPanels.cumulative: 16 panels at N = 256, 16
# blocks of final_state's 250-panel window, each of 256 real GEMM rows.  The
# block buffer and OpenBLAS's pack buffer shrink with the block: from 1 MiB,
# perfbench's modal_small read peak_rss_mb 91.08 -> 89.68 MB and wall_s
# 0.880 -> 0.885 s (with final_state's free operator freed as well; medians
# of 10 alternating pairs, 2 cores).  Median sweep of final_state's backward
# window at N = 256 (12 alternating repetitions, numpy at one thread, as in
# a run): 65.5 ms at 1 MiB, 61.6 ms at 512 KiB, 67.6 ms at 256 KiB, whose
# blocks peak only 0.3 MB lower (warm, traced), so 256 KiB is not taken
_PANEL_BLOCK_BYTES = 1 << 19
# complex bytes of one chunk (radial._blocks) of the exact linear path's
# states: 16 monitor steps at N = 512.  A chunk's transforms hold about four
# arrays of its size (1 MiB chunks raised localized_mass's peak by 4.4 MB);
# 64 KiB chunks made the N = 2560 path 2.4 times slower
_EXACT_CHUNK_BYTES = 1 << 17


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


def _is_critical(p: float, n: int) -> bool:
    """Whether p is the energy-critical power of dimension n, to roundoff."""
    return abs(p - critical_exponent(n)) < 1e-12


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
        # nan passes every comparison below, and an infinite t_end / dt overflows round()
        for name in ("lam", "p", "dt", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.p <= 1:
            raise ValueError(f"nonlinearity power must satisfy p > 1, got {self.p}")
        if self.dt <= 0 or self.t_end <= 0 or self.dt > self.t_end:
            raise ValueError(f"need 0 < dt <= t_end, got dt={self.dt}, t_end={self.t_end}")
        if not math.isfinite(self.t_end / self.dt):
            raise ValueError(f"t_end / dt must be a finite step count, got t_end={self.t_end}, "
                             f"dt={self.dt}")
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

    def h2dot_growth(self) -> float:
        """Largest ||Delta u||^2 over the run relative to its initial value."""
        return float(np.max(self.h2dot_series) / self.h2dot_series[0])


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
    bitwise commutative.  An overflow in the power is caught by the caller:
    _advance enters np.errstate(over="raise") once per stretch of steps.
    """
    theta = np.abs(values)
    theta **= p - 1.0
    theta *= lam * tau
    rot = np.empty(values.shape, dtype=complex)
    np.cos(theta, out=rot.real)
    np.sin(theta, out=rot.imag)
    return np.multiply(values, rot, out=rot)


def _advance(values, first, last, cfg, prop, half_prop=None, forcing=None) -> np.ndarray:
    """Strang steps first+1..last from values at step `first`, with P = prop.

    The closing half rotation of one step merges with the opening one of
    the next; it is owed until the end of the stretch (a monitor) or a
    forced step, where it is flushed.  A forced step adds the source through
    half_prop = P(dt/2).  An overflow raises SolverError: np.errstate is
    entered once for the stretch, not once per rotation.
    """
    dt, half = cfg.dt, cfg.dt / 2.0
    tau = half
    with np.errstate(over="raise"):
        try:
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
        except FloatingPointError as exc:
            raise SolverError("overflow in |u|^{p-1}: blow-up suspected") from exc
    return values


def step_propagator(op: SpectralOperator, tau: float) -> np.ndarray:
    """e^{i tau H} as one complex grid-space matrix acting on values (N,).

    P = diag(1/sqrt m) Q diag(e^{i tau mu}) Q^T diag(sqrt m), filled by blocks
    of _PROPAGATOR_ROWS rows from two real products, so no N x N temporary
    exists beside P: its 16 N^2 bytes are the whole memory cost.  Each
    block's scaled rows and product go into two buffers allocated once per
    build.  cos and sin of tau mu are the parts of spectral.phase_table.
    """
    q, qt = op.eigenvectors, op.eigenvectors.T
    phases = phase_table(op, tau)
    sqrt_m = op.grid.metric_sqrt
    n = q.shape[0]
    out = np.empty((n, n), dtype=complex)
    blocks = _blocks(n, 1, _PROPAGATOR_ROWS)
    scaled, product = np.empty((2, blocks[0].stop, n))
    for rows in blocks:
        m = rows.stop - rows.start
        for part, factor in ((out.real, phases.real), (out.imag, phases.imag)):
            block = np.matmul(np.multiply(q[rows], factor, out=scaled[:m]), qt, out=product[:m])
            block *= sqrt_m
            block /= sqrt_m[rows, None]
            part[rows] = block
    return out


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
    monitor state is e^{itH} u0 itself, taken from evolve_modal without stepping.
    """
    grid = u0.grid
    v_pot = op_full.potential_values
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

    def record(step: int, t: float, values: np.ndarray) -> str | None:
        """Append monitors of `values`; returns why the run must halt, or None.

        One |u|^2 and one ||Delta u||^2 serve every monitor; each is formed as
        mass(), energy(), hdot2_norm() or boundary_mass() forms it, so the bits
        agree.  Non-finite values are recorded, and halt the run as blow-up.
        """
        nonlocal num_snaps
        absu2 = np.abs(values) ** 2
        h2 = float(np.linalg.norm(_apply_tridiag(grid.lap_diag, grid.lap_off,
                                                 grid.metric_sqrt * values))) ** 2
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

    halt = record(0, 0.0, values)
    if halt is None and exact:
        # e^{itH} u0 from u0's modal coefficients, taken once, in chunks of
        # _EXACT_CHUNK_BYTES of rows; no chunk past a halt is formed
        coeffs = op_full.to_modal(u0.values)
        blocks = _blocks(len(monitor_steps), 16 * grid.num_points, _EXACT_CHUNK_BYTES)
        chunks = [monitor_steps[chunk] for chunk in blocks]
        states = itertools.chain.from_iterable(
            zip(steps, evolve_modal(op_full, coeffs, np.multiply(steps, dt))) for steps in chunks)
        for step, state in states:
            halt = record(step, step * dt, state)
            if halt is not None:
                break
    elif halt is None:  # a run that halts at t = 0 builds no propagator
        # the one stretch of the run where numpy's BLAS threads (spectral._time_loop)
        with _time_loop():
            prop = op_full.held(step_propagator, dt)
            # held by this run only: the operator keeps its one table, P(dt)
            half_prop = step_propagator(op_full, half) if forcing is not None else None
            done = 0
            for step in monitor_steps:
                try:
                    values = _advance(values, done, step, cfg, prop, half_prop, forcing)
                except SolverError:
                    halt = "blowup_suspected"
                    break
                done = step
                halt = record(step, step * dt, values)
                if halt is not None:
                    break

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

    def __init__(self, t0: float, t1: float, num_panels: int):
        self.num_panels = num_panels
        order = PICARD_ORDER
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

    def cumulative(self, g: np.ndarray, out: np.ndarray, work: np.ndarray, blocks) -> tuple:
        """g has shape (K, m, ...); returns (G at nodes, G at t1).

        g is summed through its float64 view ((K, m, 2L) if complex); numpy's
        einsum runs its real loop: the same products and sums per part as the
        complex loop, so the same bits, in about a third of the time.  G at
        the nodes is written into `out`: a C-contiguous array of g's shape
        and dtype, which may be g itself.  The panels go by `blocks`, the
        slices of whole panels from radial._blocks that duhamel_window sized
        its sweep's buffer from.  A block's panel sums fill rows
        1..n of one array of a block's rows plus one, whose row 0 holds the
        total carried from the blocks before (0 in the first block, where
        it is left out of the sum), and np.cumsum turns those rows in place
        into their running sums: row j is then the prefix of the block's
        panel j and row n the carry into the next block, the same sequential
        adds as one running sum over all K panels.  The block's within-panel
        integrals go into `work`, a C-contiguous caller buffer that holds the
        longest block (TypeError when it is too small), before its rows of
        `out` are written; work shares no memory with g or out.  Each
        half-width scales its panel's rows as a scalar, and the prefixes are
        copied into `out` before the within-panel integrals are added in
        place, so no call broadcasts and numpy's iterator allocates no
        buffer.  So beside g, out and work the call allocates the block's
        rows plus one (and copies out the total).
        """
        k, m = g.shape[:2]
        if not out.flags.c_contiguous:
            raise ValueError("cumulative needs a C-contiguous out")
        real = np.ascontiguousarray(g).reshape(k, m, -1).view(float)
        rows = blocks[0].stop  # the longest block
        # a work too small raises
        within = np.ndarray((rows, *g.shape[1:]), g.dtype, buffer=work)
        sums = np.zeros((rows + 1, *g.shape[2:]), g.dtype)
        for block in blocks:
            start, n = block.start, block.stop - block.start
            panel_full = sums[1:n + 1]
            panel_real = panel_full.reshape(n, -1).view(float)
            part = within[:n]
            part_real = part.reshape(n, m, -1).view(float)
            np.einsum("m,kmx->kx", self.full_weights, real[start:start + n], out=panel_real)
            np.einsum("ms,ksx->kmx", self.partial, real[start:start + n], out=part_real)
            for j, half in enumerate(self.half[start:start + n]):
                panel_full[j:j + 1] *= half
                part[j:j + 1] *= half
            # the first block's prefix is 0, not 0 plus the first panel sum
            running = sums[: n + 1] if start else panel_full
            np.cumsum(running, axis=0, out=running)
            dest = out[start:start + n]
            np.copyto(dest, sums[:n, None])
            dest += part
            sums[0] = sums[n]
        return out, sums[0].copy()


@dataclass
class PicardSolution:
    final_field: RadialField
    iterations: int
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
        anchor = anchor * phase_table(op, -t0)
    node_phases = op.held(phase_table, panels.nodes)
    h2_weight = 1.0 + np.sqrt(np.maximum(mu, 0.0))

    # the first iterate is the free flow of the anchor.  Beside it a sweep holds
    # the integrand array, which cumulative turns into G and the update into
    # the next iterate, and one buffer of one panel block's stacked parts, as
    # padded for its transforms, which also holds cumulative's block.  A
    # block's transforms run in that buffer and in the block's own rows of
    # the integrand array, free until the block's integrand lands there; the
    # old iterate's memory takes the distance, then becomes the next sweep's
    # integrand array
    coeffs = node_phases * anchor
    integrand = np.empty_like(coeffs)
    blocks = _blocks(panels.num_panels, 16 * PICARD_ORDER * mu.size, _PANEL_BLOCK_BYTES)
    block_rows = blocks[0].stop * PICARD_ORDER
    buffer = np.empty((-(-_gemm_rows(2 * block_rows, mu.size) // 2), mu.size), complex)
    row_norms = np.empty(coeffs.shape[:2])
    diffs: list[float] = []
    growth_streak = 0
    for _ in range(cfg.picard_max_iter):
        with np.errstate(over="ignore", invalid="ignore"):
            for block in blocks:
                rows = coeffs[block]
                flat = (rows.size // mu.size, mu.size)
                # the block's integrand rows, unpadded: a block below the
                # small-GEMM bound transforms in fresh memory instead
                own = integrand[block].reshape(flat)
                u_nodes = op.from_modal(rows.reshape(flat), out=buffer, work=own)
                power = np.abs(u_nodes, out=np.ndarray(flat, buffer=own))
                power **= cfg.p - 1.0
                np.multiply(power, u_nodes, out=u_nodes)  # now f(u) = |u|^{p-1} u
                f_modal = op.to_modal(u_nodes, out=own, work=buffer).reshape(rows.shape)
                conj_phases = np.conjugate(node_phases[block],
                                           out=buffer[:flat[0]].reshape(rows.shape))
                np.multiply(conj_phases, f_modal, out=integrand[block])
            # the buffer is idle here, and holds cumulative's block
            g_cum, g_total = panels.cumulative(integrand, integrand, buffer, blocks)
        for block in blocks:
            g_block = g_cum[block]
            with np.errstate(over="ignore", invalid="ignore"):
                if backward:
                    g_block -= g_total  # G measured from the anchored end, t1
                # (i lam G + anchor) * node_phases in g_block: the operand order
                # numpy took when it reused the temporaries of
                # node_phases * (anchor + i lam G)
                np.multiply(1j * cfg.lam, g_block, out=g_block)
                np.add(g_block, anchor, out=g_block)
                np.multiply(g_block, node_phases[block], out=g_block)
            # the old rows take the weighted distance, and a buffer the squares
            # np.linalg.norm(delta, axis=1) sums, formed as it forms them
            flat = (g_block.size // mu.size, mu.size)
            delta = np.subtract(g_block, coeffs[block], out=coeffs[block]).reshape(flat)
            delta *= h2_weight
            squares = np.ndarray(flat, complex, buffer=buffer)
            np.multiply(np.conjugate(delta, out=squares), delta, out=squares)
            np.sqrt(np.add.reduce(squares.real, axis=1), out=row_norms[block].reshape(-1))
        d = float(np.max(row_norms))
        if not np.isfinite(d):
            raise PicardNonContraction(np.inf)
        diffs.append(d)
        coeffs, integrand = g_cum, coeffs
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
    out_modal = phase_table(op, t_out) * (anchor + 1j * cfg.lam * g_out)
    return PicardSolution(RadialField(u.grid, op.from_modal(out_modal)), len(diffs), diffs)
