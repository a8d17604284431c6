"""Radial grids, fields, and Lebesgue-type norms.

Everything in this package lives on the radial reduction of R^n (n >= 5): a
complex radial function u(r) sampled at the interior nodes of a uniform grid
on (0, r_max), with integrals taken against the measure
omega_{n-1} r^{n-1} dr, where omega_{n-1} = 2 pi^{n/2} / Gamma(n/2) is the
area of the unit sphere.

Quadrature weights start from the trapezoid rule (whose endpoint terms vanish
because r^{n-1} kills the origin and fields are Dirichlet at r_max) and get a
small moment correction so that the monomials r^k, k = 0..MONOMIAL_DEGREE,
integrate to r_max^{n+k}/(n+k) to machine accuracy.  The correction is
weighted by the squared trapezoid profile, which keeps it concentrated near
r_max and leaves integrals of localized fields essentially untouched.

The grid also carries the symmetric tridiagonal discretization of -Delta
obtained from the substitution w = r^{(n-1)/2} u, which turns the radial
Laplacian into -d^2/dr^2 + (n-1)(n-3)/(4 r^2) on a flat measure.  The matrix
is expressed in "metric" coordinates y_j = sqrt(omega_{n-1} w_j) u_j, so the
flat norm of y equals the quadrature L^2 norm of u; a final symmetrization
(an O(h^2)-consistent perturbation) makes the operator exactly self-adjoint
with respect to the quadrature inner product, hence unitary propagation
conserves the quadrature mass to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MIN_DIMENSION = 5
MIN_POINTS = 16
MONOMIAL_DEGREE = 6
BOUNDARY_RADIUS_FRACTION = 0.9


class GridError(ValueError):
    """Invalid grid construction parameters."""


def sphere_surface_area(n: int) -> float:
    """Area of the unit sphere S^{n-1} in R^n: 2 pi^{n/2} / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _moment_corrected(
    nodes: np.ndarray, h: float, n: int, r_max: float, degree: int, taper: int, both_ends: bool
) -> tuple[np.ndarray, float]:
    """One correction attempt; returns (weights, worst monomial relative error)."""
    base = h * nodes ** (n - 1)
    x = nodes / r_max
    powers = np.vander(x, degree + 1, increasing=True).T  # rows x^k
    target = np.array([r_max**n / (n + k) for k in range(degree + 1)])
    profile = x ** (taper / 2)
    if both_ends:
        profile = profile + (1.0 - x + x[0]) ** (taper / 2)
    sigma = base * profile
    cons = powers * sigma
    row_scale = np.abs(cons).max(axis=1)
    weights = base.copy()
    for _ in range(3):
        resid = target - powers @ weights
        xi = np.linalg.lstsq(cons / row_scale[:, None], resid / row_scale, rcond=None)[0]
        weights = weights + sigma * xi
    err = float(np.max(np.abs(target - powers @ weights) / target))
    return weights, err


def _corrected_weights(nodes: np.ndarray, h: float, n: int, r_max: float) -> np.ndarray:
    """Trapezoid weights for int f r^{n-1} dr plus a tapered moment correction.

    The trapezoid defect on polynomials is an endpoint effect, so the
    correction is weighted by base * (r/r_max)^{taper/2} (plus the mirrored
    profile as a fallback), which pins it to the boundary and leaves
    integrals of localized fields at raw trapezoid accuracy (superalgebraic,
    since the integrand vanishes to high order at both ends).  The first
    combination in the cascade that keeps every weight positive while
    matching the moments to machine accuracy wins.  The leading entry fails
    only on coarse grids: N <= 55 at n = 5, rising to N <= 71 at n = 9.
    """
    for degree in (MONOMIAL_DEGREE, 4, 3, 2):
        for taper in (16, 8, 4, 2):
            for both_ends in (False, True):
                weights, err = _moment_corrected(nodes, h, n, r_max, degree, taper, both_ends)
                if np.all(weights > 0) and err < 1e-12:
                    return weights
    raise GridError("no positive moment-corrected quadrature found for this grid")


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Uniform radial grid with r^{n-1} quadrature and the -Delta stencil.

    nodes are r_j = j h for j = 1..N with h = r_max/(N+1); endpoints r = 0
    and r = r_max are Dirichlet and never stored.
    """

    dimension: int
    r_max: float
    num_points: int
    nodes: np.ndarray
    # metric = omega_{n-1} * the quadrature weights; metric_sqrt maps u -> y
    metric: np.ndarray = field(repr=False)
    metric_sqrt: np.ndarray = field(repr=False)
    # symmetric tridiagonal -Delta in metric coordinates
    lap_diag: np.ndarray = field(repr=False)
    lap_off: np.ndarray = field(repr=False)

    def boundary_mask(self) -> np.ndarray:
        return self.nodes > BOUNDARY_RADIUS_FRACTION * self.r_max

    def same_as(self, other: "RadialGrid") -> bool:
        return other is self or (
            self.dimension == other.dimension
            and self.num_points == other.num_points
            and self.r_max == other.r_max
        )


def _check_grid(n: int, r_max: float, num_points: int) -> None:
    """GridError naming the [grid] key unless n, r_max and N meet the standing hypotheses."""
    if n < MIN_DIMENSION:
        raise GridError(f"grid.dimension must be >= {MIN_DIMENSION}, got {n}")
    if not 0 < r_max < math.inf:
        raise GridError(f"grid.r_max must be positive and finite, got {r_max}")
    if num_points < MIN_POINTS:
        raise GridError(f"grid.num_points must be >= {MIN_POINTS}, got {num_points}")


def make_grid(n: int, r_max: float, num_points: int) -> RadialGrid:
    """Build a RadialGrid, enforcing the standing hypotheses on n, N, r_max."""
    _check_grid(n, r_max, num_points)

    h = r_max / (num_points + 1)
    nodes = h * np.arange(1, num_points + 1, dtype=float)
    weights = _corrected_weights(nodes, h, n, r_max)
    metric = sphere_surface_area(n) * weights
    metric_sqrt = np.sqrt(metric)

    # Liouville-transformed -Delta: tridiag(-1, 2, -1)/h^2 + c_n / r^2,
    # c_n = (n-1)(n-3)/4, then conjugated into metric coordinates and
    # symmetrized (exact when the weights equal h r^{n-1}).
    c_n = (n - 1) * (n - 3) / 4.0
    diag = 2.0 / h**2 + c_n / nodes**2
    scale = metric_sqrt * nodes ** (-(n - 1) / 2.0)
    ratio = scale[:-1] / scale[1:]
    off = (-1.0 / h**2) * 0.5 * (ratio + 1.0 / ratio)

    return RadialGrid(
        dimension=n,
        r_max=float(r_max),
        num_points=num_points,
        nodes=nodes,
        metric=metric,
        metric_sqrt=metric_sqrt,
        lap_diag=diag,
        lap_off=off,
    )


@dataclass(eq=False)
class RadialField:
    """Complex radial function sampled on a RadialGrid."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.num_points,):
            raise ValueError(
                f"field has {self.values.shape} values for a grid of "
                f"{self.grid.num_points} nodes"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")

    def __add__(self, other: "RadialField") -> "RadialField":
        _check_same_grid(self, other)
        return RadialField(self.grid, self.values + other.values)

    def __sub__(self, other: "RadialField") -> "RadialField":
        _check_same_grid(self, other)
        return RadialField(self.grid, self.values - other.values)

    def __mul__(self, c) -> "RadialField":
        return RadialField(self.grid, self.values * c)

    __rmul__ = __mul__


@dataclass
class SpaceTimeSample:
    """One field per time on one grid: row k of values, shape (S, N), is u(times[k]).

    times increase strictly and lie inside interval.
    """

    grid: RadialGrid
    times: np.ndarray
    values: np.ndarray
    interval: tuple[float, float]

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.times.size, self.grid.num_points):
            raise ValueError(
                f"values have shape {self.values.shape}, need one row of "
                f"{self.grid.num_points} nodes for each of {self.times.size} times"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("sample contains non-finite values")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        lo, hi = self.interval
        if self.times.size and (self.times[0] < lo - 1e-12 or self.times[-1] > hi + 1e-12):
            raise ValueError("sample times fall outside the stated interval")

    @property
    def length(self) -> float:
        return self.interval[1] - self.interval[0]

    def restricted(self, t_lo: float, t_hi: float) -> "SpaceTimeSample":
        keep = (self.times >= t_lo - 1e-12) & (self.times <= t_hi + 1e-12)
        return SpaceTimeSample(self.grid, self.times[keep], self.values[keep], (t_lo, t_hi))

    def decimated(self, stride: int) -> "SpaceTimeSample":
        return SpaceTimeSample(
            self.grid, self.times[::stride], self.values[::stride], self.interval
        )


def _check_same_grid(u: RadialField, v: RadialField) -> None:
    if not u.grid.same_as(v.grid):
        raise ValueError("fields live on different grids")


def _blocks(count: int, item_size: int, budget: int) -> list[slice]:
    """Consecutive slices over `count` items, as many of `item_size` a slice as
    fit in `budget` (one unit for both) and at least one; the first is the longest.

    Every blocked stage cuts its rows here, with a budget named beside its
    measured reason: analysis's row blocks, the Picard sweep's panel blocks
    (which GaussPanels.cumulative takes from it), the exact linear path's
    chunks and the step propagator's rows.  Private, so a profiler that wraps the
    public names sees no call of it.
    """
    step = max(1, budget // max(1, item_size))
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def lp_norm_values(grid: RadialGrid, values: np.ndarray, p: float) -> np.ndarray:
    """L^p norm of each row of values, shape (..., N) -> (...); p = inf means the max."""
    return _lp_norm_values(grid, values, p)


def _lp_norm_values(grid: RadialGrid, values: np.ndarray, p: float) -> np.ndarray:
    """lp_norm_values under a private name, for loops that take it once per row block.

    A profiler that wraps the public names (perfbench's tracer) then counts
    one call per stage, not one per block.  p = inf needs no branch of its
    own: a row's sum to the power 1/inf is 1, so the row gives its peak.
    """
    if p < 1:
        raise ValueError(f"lp_norm requires p >= 1, got p={p}")
    a = np.abs(values)
    peak = np.max(a, axis=-1, initial=0.0)
    # factor out each row's peak so large p never overflows; all-zero rows give 0
    scale = np.where(peak > 0.0, peak, 1.0)
    sums = np.sum(grid.metric * (a / scale[..., None]) ** p, axis=-1)
    # a scalar pow per row, as one field takes: numpy's vectorised pow can differ in the last bit
    return peak * np.reshape([s ** (1.0 / p) for s in np.ravel(sums)], np.shape(sums))


def lp_norm(u: RadialField, p: float) -> float:
    """L^p norm against omega r^{n-1} dr; p = inf means the max over nodes."""
    return float(lp_norm_values(u.grid, u.values, p))


def weak_lp_norm(u: RadialField, r: float) -> float:
    """Weak-L^r size sup_gamma gamma |{|u| > gamma}|^{1/r}, exactly.

    Just below a node value a the set {|u| > gamma} is every node with
    |u| >= a, so the sup is the max over nodes of a (sum_{|u_j| >= a} w_j)^{1/r}:
    one sort and one cumulative sum of the weights from the top.  Within a
    tie the first node in ascending order carries the largest tail, so ties
    need no special case.
    """
    if r <= 1:
        raise ValueError(f"weak_lp_norm requires r > 1, got r={r}")
    a = np.abs(u.values)
    order = np.argsort(a)
    tail = np.cumsum(u.grid.metric[order][::-1])[::-1]
    return float(np.max(a[order] * tail ** (1.0 / r)))


def smooth_cutoff(s) -> np.ndarray:
    """C^inf profile chi with chi = 1 on [0, 1], chi = 0 on [2, inf), 0<=chi<=1."""
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        up = np.where(s < 2.0, np.exp(-1.0 / np.maximum(2.0 - s, 1e-300)), 0.0)
        down = np.where(s > 1.0, np.exp(-1.0 / np.maximum(s - 1.0, 1e-300)), 0.0)
    out = up / (up + down)
    return np.where(s <= 1.0, 1.0, np.where(s >= 2.0, 0.0, out))


def localized_mass(u: RadialField, radius: float, chi=smooth_cutoff) -> float:
    """Mass int |u|^2 chi(r/R)^4 dx inside the smoothly cut-off ball of radius R."""
    if radius <= 0:
        raise ValueError(f"localized_mass requires R > 0, got {radius}")
    profile = chi(u.grid.nodes / radius)
    return float(np.sum(u.grid.metric * np.abs(u.values) ** 2 * profile**4).real)


def boundary_mass(u: RadialField) -> float:
    """Mass carried by nodes with r > 0.9 r_max (domain-truncation monitor)."""
    return float(_boundary_masses(u.grid, u.values))


def _boundary_masses(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    """boundary_mass of each row of values, (..., N) -> (...), bit for bit: np.compress,
    unlike a boolean index, keeps each row contiguous, so it sums as one field does."""
    mask = grid.boundary_mask()
    return np.sum(grid.metric[mask] * np.abs(np.compress(mask, values, axis=-1)) ** 2, axis=-1)
