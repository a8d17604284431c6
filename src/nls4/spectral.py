"""Spectral discretization of Delta^2 and H = Delta^2 + V with functional calculus.

The grid carries the symmetric tridiagonal matrix B representing -Delta in
metric coordinates (see radial.py).  The bi-Laplacian is B @ B, so its
eigenbasis is B's: a divide-and-conquer tridiagonal solve of B (LAPACK
stevd) whose eigenvalues, squared, are those of Delta^2 -- nonnegative and
accurate for the low modes.  H adds the potential on the diagonal of the
pentadiagonal B @ B; it is solved densely (LAPACK syevd) and its eigenvalues
are taken as the factored Rayleigh quotients ||B q||^2 + q^T V q, which keep
the low modes as accurate as the free ones.  A full operator with V == 0
takes the free route.  Eigenvector signs are canonical: the first component
of every eigenvector (the node nearest the origin) is positive.

Two functions f(H) -- propagators exp(itH) and fractional powers H^{s/4} --
are evaluated exactly in the discretization by scaling modal coefficients.
|grad|^s is realized as (Delta^2)^{s/4} through the free operator's
calculus.  The modal transform pair takes batches: it transforms each row of
an array of shape (..., N) through one matmul.

An optional little-endian binary cache stores eigendecompositions keyed by
(kind, n, r_max, N, potential); the same container layout is reused for
single-field snapshots.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal

from .potentials import PotentialSpec, evaluate_potential
from .radial import RadialField, RadialGrid
from .reporting import atomic_write_bytes

DEFAULT_EIG_BUDGET = 4096

_CACHE_MAGIC = b"NLS4EIG\x00"
_FIELD_MAGIC = b"NLS4FLD\x00"
_FORMAT_VERSION = 1
# names the eigensolvers in the cache key, so .eig files from other solvers are never reused
_SOLVER_TAG = "stevd|syevd+rq"


class SpectralError(ValueError):
    """Invalid spectral operator construction or application."""


def apply_tridiag(diag: np.ndarray, off: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The symmetric tridiagonal matrix (diag, off) applied to each row of y, (..., N)."""
    out = diag * y
    out[..., :-1] += off * y[..., 1:]
    out[..., 1:] += off * y[..., :-1]
    return out


def _rows_times(rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """rows @ q for real q; complex rows are split so q is never promoted.

    The parts are copied contiguous first: a strided view of a 2-D batch
    misses the BLAS path and multiplies about twice as slowly, to the same bits.
    """
    if np.iscomplexobj(rows):
        return np.ascontiguousarray(rows.real) @ q + 1j * (np.ascontiguousarray(rows.imag) @ q)
    return rows @ q


# ---------------------------------------------------------------------------
# grid-level stencils (no eigendecomposition required)

def laplacian_values(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    """Delta u on the grid via the metric-symmetric stencil, for each row of (..., N)."""
    y = grid.metric_sqrt * values
    return -apply_tridiag(grid.lap_diag, grid.lap_off, y) / grid.metric_sqrt


def bilaplacian_values(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    y = grid.metric_sqrt * values
    by = apply_tridiag(grid.lap_diag, grid.lap_off, y)
    return apply_tridiag(grid.lap_diag, grid.lap_off, by) / grid.metric_sqrt


def l2_norm(u: RadialField) -> float:
    return float(np.linalg.norm(u.grid.metric_sqrt * u.values))


def hdot2_norm(u: RadialField) -> float:
    """||Delta u||_{L^2} (homogeneous H^2 seminorm)."""
    y = u.grid.metric_sqrt * u.values
    return float(np.linalg.norm(apply_tridiag(u.grid.lap_diag, u.grid.lap_off, y)))


def h2_norm(u: RadialField) -> float:
    """||(1 - Delta) u||_{L^2}, the inhomogeneous H^2 norm."""
    y = u.grid.metric_sqrt * u.values
    return float(np.linalg.norm(y + apply_tridiag(u.grid.lap_diag, u.grid.lap_off, y)))


def grad_l2_norm(u: RadialField) -> float:
    """||grad u||_{L^2} = <-Delta u, u>^{1/2}."""
    y = u.grid.metric_sqrt * u.values
    by = apply_tridiag(u.grid.lap_diag, u.grid.lap_off, y)
    return float(np.sqrt(max(np.vdot(y, by).real, 0.0)))


# ---------------------------------------------------------------------------
# eigendecomposed operators

def canonical_signs(eigenvectors: np.ndarray) -> np.ndarray:
    """Flip columns in place so each eigenvector's first component is >= 0; returns them."""
    eigenvectors *= np.where(eigenvectors[0] < 0, -1.0, 1.0)
    return eigenvectors


@dataclass(eq=False)
class SpectralOperator:
    """Eigendecomposition of Delta^2 (free) or H = Delta^2 + V (full).

    eigenvectors are orthonormal in the flat norm of the metric coordinates,
    equivalently in the quadrature-weighted inner product on fields.
    """

    kind: str
    grid: RadialGrid
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # (N, N), columns
    potential: PotentialSpec | None
    potential_values: np.ndarray = field(repr=False, default=None)

    def to_modal(self, values: np.ndarray) -> np.ndarray:
        """Modal coefficients of each row of `values`, shape (..., N)."""
        return _rows_times(self.grid.metric_sqrt * values, self.eigenvectors)

    def from_modal(self, coeffs: np.ndarray) -> np.ndarray:
        """Grid values of each row of `coeffs`, shape (..., N)."""
        return _rows_times(coeffs, self.eigenvectors.T) / self.grid.metric_sqrt

    def eigenfield(self, k: int) -> RadialField:
        return RadialField(self.grid, self.eigenvectors[:, k] / self.grid.metric_sqrt)


def build_operator(
    kind: str,
    grid: RadialGrid,
    spec: PotentialSpec | None = None,
    *,
    eig_budget: int = DEFAULT_EIG_BUDGET,
) -> SpectralOperator:
    """Eigendecompose Delta^2 (free) or H = Delta^2 + V (full), eigenvalues ascending.

    Delta^2, and H when V == 0, come from the tridiagonal solve of B = -Delta
    with squared eigenvalues; H with V != 0 from a dense solve of its lower
    triangle with factored Rayleigh-quotient eigenvalues.  Eigenvectors are
    Fortran-ordered columns with a positive first component.
    """
    if kind not in ("free", "full"):
        raise SpectralError(f"kind must be 'free' or 'full', got {kind!r}")
    if kind == "full" and spec is None:
        raise SpectralError("kind='full' requires a potential spec")
    if kind == "free" and spec is not None:
        raise SpectralError("kind='free' does not take a potential spec")
    n = grid.num_points
    if n > eig_budget:
        raise SpectralError(
            f"num_points={n} exceeds the dense eigendecomposition budget {eig_budget}"
        )

    d, e = grid.lap_diag, grid.lap_off
    if spec is not None:
        v_values = evaluate_potential(spec, grid).values.real
    else:
        v_values = np.zeros(n)

    if not np.any(v_values):
        # Delta^2 = B^2 with B = -Delta positive definite: squaring keeps the order
        b_values, eigenvectors = eigh_tridiagonal(d, e, lapack_driver="stevd")
        eigenvalues = b_values**2
    else:
        # only the lower triangle of the pentadiagonal H = B^2 + V, in one
        # Fortran-ordered array that the solver overwrites with the eigenvectors
        diag = d**2
        diag[:-1] += e**2
        diag[1:] += e**2
        diag += v_values
        h = np.zeros((n, n), order="F")
        i = np.arange(n)
        h[i, i] = diag
        h[i[1:], i[:-1]] = e * (d[:-1] + d[1:])
        h[i[2:], i[:-2]] = e[:-1] * e[1:]
        _, eigenvectors = eigh(h, lower=True, driver="evd", overwrite_a=True)
        # factored Rayleigh quotients ||B q||^2 + q^T V q: the dense solve's own
        # eigenvalues carry an eps * rho(H) absolute error that swamps the low modes
        bq = apply_tridiag(d, e, eigenvectors.T)
        eigenvalues = np.einsum("ki,ki->k", bq, bq) + np.einsum(
            "i,ik,ik->k", v_values, eigenvectors, eigenvectors
        )
    canonical_signs(eigenvectors)

    if kind == "free" or np.all(v_values >= 0):
        # Delta^2 and H with V >= 0 are nonnegative; clip eigensolver noise
        floor = -1e-9 * max(1.0, float(np.max(np.abs(eigenvalues))))
        if np.min(eigenvalues) < floor:
            raise SpectralError(
                f"nonnegative operator produced eigenvalue {np.min(eigenvalues)}"
            )
        eigenvalues = np.maximum(eigenvalues, 0.0)

    return SpectralOperator(
        kind=kind,
        grid=grid,
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        potential=spec,
        potential_values=v_values,
    )


def _check_field(op: SpectralOperator, u: RadialField) -> None:
    if u.grid is not op.grid and not u.grid.same_as(op.grid):
        raise SpectralError("field grid does not match operator grid")


def _scalar_factors(op: SpectralOperator, func: str, parameter) -> np.ndarray:
    mu = op.eigenvalues
    if func == "exp_it":
        return np.exp(1j * float(parameter) * mu)
    if func == "power_s":
        s = float(parameter)
        if not 0.0 <= s <= 4.0:
            raise SpectralError(f"power_s requires s in [0, 4], got {s}")
        return np.maximum(mu, 0.0) ** (s / 4.0)
    raise SpectralError(f"unknown function tag {func!r}")


def apply_function(op: SpectralOperator, func: str, parameter, u: RadialField) -> RadialField:
    """f(H) u via exact modal calculus; func in {exp_it, power_s}."""
    _check_field(op, u)
    coeffs = op.to_modal(u.values)
    coeffs = coeffs * _scalar_factors(op, func, parameter)
    return RadialField(op.grid, op.from_modal(coeffs))


def evolve(op: SpectralOperator, values: np.ndarray, times) -> np.ndarray:
    """e^{i t_k H} at every time t_k, as a (T, N) array: one transform in, one out.

    values is one field (N,), sent to every time, or one row per time (T, N),
    where row k is sent through e^{i t_k H}.
    """
    times = np.asarray(times, dtype=float)
    return op.from_modal(np.exp(1j * times[:, None] * op.eigenvalues) * op.to_modal(values))


def fractional_gradient_values(op_free: SpectralOperator, s: float, values: np.ndarray) -> np.ndarray:
    """|grad|^s = (Delta^2)^{s/4} of each row of values, shape (..., N), through the free calculus."""
    if op_free.kind != "free":
        raise SpectralError("the fractional gradient needs the free operator")
    return op_free.from_modal(op_free.to_modal(values) * _scalar_factors(op_free, "power_s", s))


def free_fractional_gradient(op_free: SpectralOperator, s: float, u: RadialField) -> RadialField:
    """|grad|^s u = (Delta^2)^{s/4} u through the free calculus."""
    _check_field(op_free, u)
    return RadialField(op_free.grid, fractional_gradient_values(op_free, s, u.values))


# ---------------------------------------------------------------------------
# binary cache (shared container layout: header + float64 blocks, little-endian)

_HEADER = struct.Struct("<8sII d I 16s")  # magic, version, payload kind, r_max, N, key digest


def _operator_key(kind: str, grid: RadialGrid, spec: PotentialSpec | None) -> bytes:
    token = (
        f"{kind}|solver={_SOLVER_TAG}|n={grid.dimension}|N={grid.num_points}|rmax={grid.r_max!r}|"
        + (spec.cache_token() if spec is not None else "none")
    )
    return hashlib.sha256(token.encode()).digest()[:16]


def _read_header(fh, path, magic: bytes, what: str) -> tuple[float, int, bytes]:
    raw = fh.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise SpectralError(
            f"{path} is truncated: expected a {_HEADER.size}-byte header, got {len(raw)} bytes"
        )
    file_magic, version, _, r_max, n, key = _HEADER.unpack(raw)
    if file_magic != magic or version != _FORMAT_VERSION:
        raise SpectralError(f"{path} is not a valid {what}")
    return r_max, n, key


def _read_blocks(fh, path, n: int, rows: int) -> np.ndarray:
    """The float64 payload as (rows, n), after checking the file length against N."""
    expected = _HEADER.size + 8 * rows * n
    actual = os.fstat(fh.fileno()).st_size
    if actual != expected:
        raise SpectralError(
            f"{path} is corrupt: expected {expected} bytes for N={n}, found {actual}"
        )
    return np.fromfile(fh, dtype="<f8", count=rows * n).reshape(rows, n)


def save_operator(path: str | Path, op: SpectralOperator) -> None:
    key = _operator_key(op.kind, op.grid, op.potential)
    payload_kind = 0 if op.kind == "free" else 1
    header = _HEADER.pack(
        _CACHE_MAGIC, _FORMAT_VERSION, payload_kind, op.grid.r_max, op.grid.num_points, key
    )
    atomic_write_bytes(path, [
        header,
        np.ascontiguousarray(op.eigenvectors, dtype="<f8"),
        np.ascontiguousarray(op.eigenvalues, dtype="<f8"),
    ])


def load_operator(
    path: str | Path, kind: str, grid: RadialGrid, spec: PotentialSpec | None
) -> SpectralOperator:
    with open(path, "rb") as fh:
        r_max, n, key = _read_header(fh, path, _CACHE_MAGIC, "eigendecomposition cache")
        if n != grid.num_points or r_max != grid.r_max:
            raise SpectralError(f"cache {path} was built for a different grid")
        if key != _operator_key(kind, grid, spec):
            raise SpectralError(f"cache {path} key mismatch")
        blocks = _read_blocks(fh, path, n, n + 1)
    v_values = (
        evaluate_potential(spec, grid).values.real if spec is not None else np.zeros(n)
    )
    return SpectralOperator(
        kind=kind,
        grid=grid,
        eigenvalues=blocks[n],
        # the column-major order the eigensolvers return, so BLAS sums as in a fresh build
        eigenvectors=np.asfortranarray(blocks[:n]),
        potential=spec,
        potential_values=v_values,
    )


def load_or_build(
    kind: str,
    grid: RadialGrid,
    spec: PotentialSpec | None = None,
    *,
    cache_dir: str | Path | None = None,
    eig_budget: int = DEFAULT_EIG_BUDGET,
) -> SpectralOperator:
    """Build, consulting the NLS4_CACHE_DIR-style cache directory when given."""
    if cache_dir is None:
        cache_dir = os.environ.get("NLS4_CACHE_DIR")
    if cache_dir is None:
        return build_operator(kind, grid, spec, eig_budget=eig_budget)
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    key = _operator_key(kind, grid, spec).hex()
    path = cache_dir / f"{key}.eig"
    if path.exists():
        return load_operator(path, kind, grid, spec)
    op = build_operator(kind, grid, spec, eig_budget=eig_budget)
    save_operator(path, op)
    return op


def save_field(path: str | Path, u: RadialField) -> None:
    """Snapshot container: header + real block + imaginary block."""
    grid = u.grid
    key = hashlib.sha256(
        f"field|n={grid.dimension}|N={grid.num_points}|rmax={grid.r_max!r}".encode()
    ).digest()[:16]
    header = _HEADER.pack(
        _FIELD_MAGIC, _FORMAT_VERSION, 2, grid.r_max, grid.num_points, key
    )
    atomic_write_bytes(path, [
        header,
        np.ascontiguousarray(u.values.real, dtype="<f8"),
        np.ascontiguousarray(u.values.imag, dtype="<f8"),
    ])


def load_field(path: str | Path, grid: RadialGrid) -> RadialField:
    with open(path, "rb") as fh:
        r_max, n, _ = _read_header(fh, path, _FIELD_MAGIC, "field snapshot")
        if n != grid.num_points or r_max != grid.r_max:
            raise SpectralError(f"snapshot {path} was saved on a different grid")
        re, im = _read_blocks(fh, path, n, 2)
    return RadialField(grid, re + 1j * im)
