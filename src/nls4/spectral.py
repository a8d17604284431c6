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
scale modal coefficients, exact in the discretization, each by one formula:
phase_table, the one e^{i t mu} in nls4, and _power_factors, mu_+^{s/4}.
|grad|^s is realized as (Delta^2)^{s/4} through the free operator's
calculus.  The modal transform pair takes batches and works on complex
rows only: every row of an array of shape (..., N) goes through one real
GEMM as its real part stacked above its imaginary part (zeros for a real
row, which comes back complex), so the eigenvector matrix is read once.
The batch is padded with zero rows past OpenBLAS's small-matrix bound, so a
row's bits do not depend on how many rows share the call.  The pair applies
the metric weight in its copies: to_modal scales the parts as it stacks
them, and from_modal scales the products by the reciprocal weight as it
unstacks them, the bits of a complex product with, or quotient by, a real
array, with no full-size pass of its own.  The pair also works in caller
buffers (the Picard sweep's), so a batch transform need allocate nothing of
the batch's size.

An operator holds at most one table built from its eigenpairs (a step
propagator, or the phase table e^{i t mu} of a fixed set of times) through
SpectralOperator.held: kept while callers keep asking for the same builder
and argument, dropped before any other table is built, and dropped with the
operator.  So a Picard window on an operator a Strang run stepped with
frees the run's propagator before it builds its node table.

numpy and scipy wheels each ship their own OpenBLAS, whose helper threads
busy-wait for about 0.1 s after every threaded call.  So a pool runs at more
than one thread only where it has work, and is stopped when that work ends:
 * scipy's, in the eigensolves, the only scipy calls nls4 makes.
   build_operator stops numpy's idle pool just before its LAPACK call, runs
   it with scipy's count at EIG_THREADS (LAPACK's blocked reductions split
   their work by the thread count, so the eigenvectors would otherwise
   depend on OPENBLAS_NUM_THREADS), then puts the count back and stops
   scipy's pool.
 * numpy's, in the solver's one threaded time loop (_time_loop): a stepped
   run's Strang stretches, with their propagator builds and monitors.
   Inside run_experiment (_run_scope) numpy runs at one thread, the Picard
   sweeps included, and that loop at the count the run found; outside a run
   no count changes.
Both go through one context manager, _blas_threads.  Every numpy product
nls4 makes gives the same bits at one and at two threads, so no body moves.
OpenBLAS restarts a stopped pool on that library's next threaded call or
count change.  A stop is safe because nls4 runs in one thread, so no BLAS
call is in flight.  Where the wheel libraries are not found (MKL, a system
or conda BLAS) no count is set and nothing is stopped.  _blas_pools is the one
lookup of those libraries and their symbols: the criterion-12 pin's key and
scripts/bench_pairs.py's machine record read their config strings from it.

Single fields are saved and loaded in a little-endian binary container
(save_field / load_field).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import importlib
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal

from .potentials import PotentialSpec, evaluate_potential
from .radial import RadialField, RadialGrid
from .reporting import atomic_write_bytes

# largest grid a dense eigendecomposition is attempted on
EIG_BUDGET = 4096

# scipy's OpenBLAS thread count for every eigensolve, whatever the
# environment asks for: the eigenvectors' bits depend on it
EIG_THREADS = 2

# m N^2 at or below which OpenBLAS may take its small-matrix GEMM kernel (other bits)
_SMALL_GEMM_WORK = 1e6

_FIELD_MAGIC = b"NLS4FLD\x00"
_FORMAT_VERSION = 1

# the OpenBLAS each wheel ships in <package>.libs beside the package
_WHEEL_BLAS = {"numpy": "libscipy_openblas64_*.so", "scipy": "libscipy_openblas-*.so"}


class SpectralError(ValueError):
    """Invalid spectral operator construction or application."""


def apply_tridiag(diag: np.ndarray, off: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The symmetric tridiagonal matrix (diag, off) applied to each row of y, (..., N)."""
    return _apply_tridiag(diag, off, y)


def _apply_tridiag(diag: np.ndarray, off: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = diag * y
    out[..., :-1] += off * y[..., 1:]
    out[..., 1:] += off * y[..., :-1]
    return out


def _rows_times(
    rows: np.ndarray, q: np.ndarray, out=None, work=None, *, scale_in=None, scale_out=None
) -> np.ndarray:
    """rows @ q for real q through one real GEMM, each row's bits whatever the batch.

    The rows' real parts above their imaginary parts (zeros for real rows,
    which so give the complex result of the same rows as complex) are
    copied into one contiguous real array, padded with zero rows past
    _SMALL_GEMM_WORK and past one row, so the product always takes the
    regular GEMM kernel, which sums each element in the same order for any
    row count.  The copy is freed before the complex result is allocated.

    scale_in, a real (N,) weight, multiplies each part in the stacking copy;
    scale_out multiplies each part of the product in the unstacking copy.
    For finite values both are bit for bit numpy's complex product with,
    and quotient by, a real array (numpy divides a complex by a real as its
    product with the reciprocal), without their full-size pass.

    With caller buffers (q square; out and work each C-contiguous with room
    for a complex array of rows' shape) nothing of the rows' size is
    allocated: the parts are stacked in out, the GEMM writes its product
    into work, and the result is a complex array over out's memory.  work
    may hold the rows themselves, which are read in full before the GEMM
    writes.  Buffers too small for the padding are passed over for fresh
    memory of at most _SMALL_GEMM_WORK / N doubles each.
    """
    m, n = math.prod(rows.shape[:-1]), q.shape[0]
    gemm_rows = _gemm_rows(2 * m, n)
    fits = out is not None and min(out.nbytes, work.nbytes) >= 8 * gemm_rows * n
    # np.ndarray over buffer=None is fresh memory: the allocating call
    stacked = np.ndarray((gemm_rows, n), buffer=out if fits else None)
    for k, part in enumerate((rows.real, rows.imag)):
        dest = stacked[k * m:(k + 1) * m].reshape(rows.shape)
        if scale_in is None:
            dest[...] = part
        else:
            np.multiply(part, scale_in, out=dest)
    stacked[2 * m:] = 0.0
    prod = np.matmul(stacked, q, out=np.ndarray((gemm_rows, n), buffer=work) if fits else None)
    del stacked
    shape = (*rows.shape[:-1], q.shape[1])
    result = np.ndarray(shape, complex, buffer=out)
    for k, part in enumerate((result.real, result.imag)):
        block = prod[k * m:(k + 1) * m].reshape(shape)
        if scale_out is None:
            part[...] = block
        else:
            np.multiply(block, scale_out, out=part)
    return result


def _gemm_rows(num_rows: int, n: int) -> int:
    """The rows of the real GEMM that num_rows real rows of length n take, padding included."""
    return max(num_rows, 2, int(_SMALL_GEMM_WORK // (n * n)) + 1)


class _WheelBlas:
    """A wheel OpenBLAS library and its scipy_openblas_* calls, each symbol named by one rule.

    numpy's ILP64 build ends the symbols in 64_.  The thread-count getter and
    setter are resolved at once, the config string only on request; a symbol
    the library lacks raises an AttributeError that names it.
    """

    def __init__(self, lib: ctypes.CDLL):
        self.lib, self.file_name = lib, Path(lib._name).name
        self._suffix = "64_" if hasattr(lib, "scipy_openblas_get_num_threads64_") else ""
        self.get_threads = self._symbol("get_num_threads", ctypes.c_int)
        self.set_threads = self._symbol("set_num_threads", None, ctypes.c_int)

    def _symbol(self, name: str, restype, *argtypes):
        symbol = f"scipy_openblas_{name}{self._suffix}"
        if not hasattr(self.lib, symbol):
            raise AttributeError(f"{self.file_name} exports no {symbol}")
        call = getattr(self.lib, symbol)
        call.argtypes, call.restype = argtypes, restype
        return call

    def config(self) -> str:
        """The OpenBLAS config string: version, build options, kernel and thread cap."""
        return self._symbol("get_config", ctypes.c_char_p)().decode()


@functools.cache
def _blas_pools() -> dict[str, _WheelBlas]:
    """The wheel OpenBLAS libraries this process has loaded, by package (numpy, scipy).

    A library is opened only if it is already loaded (RTLD_NOLOAD), so a
    stray file never starts a pool of its own.  A package whose library is
    not found is left out, and stopping its pool is a no-op.
    """
    pools = {}
    for package, pattern in _WHEEL_BLAS.items():
        libs = Path(importlib.import_module(package).__file__).parent.parent / f"{package}.libs"
        for path in sorted(libs.glob(pattern)):
            try:
                lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
            except OSError:
                continue
            if hasattr(lib, "blas_thread_shutdown_"):
                pools[package] = _WheelBlas(lib)
                break
    return pools


def _stop_blas_pool(package: str) -> None:
    """Join the package's idle OpenBLAS helper threads; its next threaded call restarts them.

    Only safe while no BLAS call of that library is in flight, which holds
    as nls4 runs in one thread.
    """
    pool = _blas_pools().get(package)
    if pool is not None:
        pool.lib.blas_thread_shutdown_()


@contextlib.contextmanager
def _blas_threads(package: str, threads: int | None):
    """The body with the package's OpenBLAS at `threads`; then the count back, the pool stopped.

    Yields the count found, or None (and does nothing) where the package's
    wheel library is not found.  threads None keeps the count.  Setting a
    count, even the same one, restarts a stopped pool before the body's
    first threaded call: wave_operator (N = 2560) then peaks 4.4 MB lower
    than when LAPACK's first threaded call restarts scipy's pool.  A body at
    one thread starts with the pool stopped again: its helper would spin
    through the body with no work.
    """
    pool = _blas_pools().get(package)
    if pool is None:
        yield None
        return
    before = pool.get_threads()
    if threads is not None:
        pool.set_threads(threads)
        if threads == 1:
            _stop_blas_pool(package)
    try:
        yield before
    finally:
        if threads is not None:
            pool.set_threads(before)
        _stop_blas_pool(package)


# numpy's OpenBLAS count in the solver's time loop: the count run_experiment
# found, or None outside a run, where the loop keeps the count as it is.  A
# module variable, as the OpenBLAS count it stands for is one per process
_loop_threads: int | None = None


@contextlib.contextmanager
def _run_scope():
    """numpy's OpenBLAS at one thread for a run, at the count it found in its stepped runs."""
    global _loop_threads
    with _blas_threads("numpy", 1) as found:
        _loop_threads = found
        try:
            yield
        finally:
            _loop_threads = None


def _time_loop():
    """numpy's OpenBLAS for a stepped run's Strang stretches: at the run's count, stopped after.

    The Picard sweeps stay outside: at N = 256 a second thread helps only
    their GEMMs and spins through the rest of each sweep.
    """
    return _blas_threads("numpy", _loop_threads)


def _eigensolve(solve, *args, **kwargs):
    """solve(*args, **kwargs), numpy's idle pool stopped and scipy's OpenBLAS at EIG_THREADS."""
    _stop_blas_pool("numpy")
    with _blas_threads("scipy", EIG_THREADS):
        return solve(*args, **kwargs)


def _blas_pools_note() -> str:
    """The [provenance] value: each wheel library found and where it runs at what count.

    numpy's count is read as it is when the note is made; run_experiment
    makes it before its run scope sets one thread.
    """
    notes = []
    for package in _WHEEL_BLAS:
        pool = _blas_pools().get(package)
        if pool is None:
            notes.append(f"{package} library not found, no count set, not stopped")
            continue
        if package == "numpy":
            where = f"at {pool.get_threads()} threads in Strang stretches and at 1 elsewhere"
        else:
            where = f"at {EIG_THREADS} threads in eigensolves"
        notes.append(f"{package} {pool.file_name} {where}, stopped after each")
    return "; ".join(notes)


# ---------------------------------------------------------------------------
# grid-level stencils (no eigendecomposition required)

def laplacian_values(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    """Delta u on the grid via the metric-symmetric stencil, for each row of (..., N)."""
    return _laplacian_values(grid, values)


def _laplacian_values(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    """laplacian_values under a private name, for loops that take it once per row block.

    A profiler that wraps the public names (perfbench's tracer) then counts
    one call per stage, not one per block.
    """
    y = grid.metric_sqrt * values
    return -_apply_tridiag(grid.lap_diag, grid.lap_off, y) / grid.metric_sqrt


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
    potential_values: np.ndarray = field(repr=False, default=None)
    # (key, table) of the one table this operator holds, see held()
    _held: tuple | None = field(default=None, init=False, repr=False)

    def to_modal(self, values: np.ndarray, out=None, work=None) -> np.ndarray:
        """Modal coefficients of each row of `values`, shape (..., N).

        The metric weight is applied in _rows_times' stacking copy.  out and
        work are optional caller buffers for complex values, each a
        C-contiguous array with room for a complex array of values' shape
        (the iterate's own size, in a Picard sweep).  Then nothing of that
        size is allocated: work may hold `values` itself, and the result is
        a complex array over out's memory, bit for bit the allocating call's.
        """
        return _rows_times(values, self.eigenvectors, out, work, scale_in=self.grid.metric_sqrt)

    def from_modal(self, coeffs: np.ndarray, out=None, work=None) -> np.ndarray:
        """Grid values of each row of `coeffs`, shape (..., N).

        The inverse metric weight is applied in _rows_times' unstacking
        copy.  out and work are optional caller buffers, as for to_modal;
        coeffs must not share memory with out, but may be work itself, as it
        is read in full before work is written.
        """
        return _rows_times(coeffs, self.eigenvectors.T, out, work,
                           scale_out=1.0 / self.grid.metric_sqrt)

    def held(self, build, arg):
        """build(self, arg), built once while callers keep asking for this builder and arg.

        The operator holds one table: a request for any other drops the old
        table before the new one is built, so two tables are never held at
        once.  The key holds the builder, looked up by the caller on every
        call, so a replaced builder is never bypassed, and an array arg by
        its exact shape and bytes.  Every caller shares the table, so it is
        made read-only.
        """
        key = (build, (arg.shape, arg.tobytes()) if isinstance(arg, np.ndarray) else arg)
        if self._held is not None and self._held[0] == key:
            return self._held[1]
        self._held = None
        table = build(self, arg)
        table.flags.writeable = False
        self._held = (key, table)
        return table

    def eigenfield(self, k: int) -> RadialField:
        return RadialField(self.grid, self.eigenvectors[:, k] / self.grid.metric_sqrt)


def build_operator(
    kind: str,
    grid: RadialGrid,
    spec: PotentialSpec | None = None,
) -> SpectralOperator:
    """Eigendecompose Delta^2 (free) or H = Delta^2 + V (full), eigenvalues ascending.

    Delta^2, and H when V == 0, come from the tridiagonal solve of B = -Delta
    with squared eigenvalues; H with V != 0 from a dense solve of its lower
    triangle with factored Rayleigh-quotient eigenvalues.  Eigenvectors are
    Fortran-ordered columns with a positive first component.  The LAPACK
    call runs at EIG_THREADS; numpy's idle OpenBLAS pool is stopped before
    it and scipy's after it (see the module docstring); nls4 is
    single-threaded, so no BLAS call is in flight when a pool stops.
    """
    if kind not in ("free", "full"):
        raise SpectralError(f"kind must be 'free' or 'full', got {kind!r}")
    if kind == "full" and spec is None:
        raise SpectralError("kind='full' requires a potential spec")
    if kind == "free" and spec is not None:
        raise SpectralError("kind='free' does not take a potential spec")
    n = grid.num_points
    if n > EIG_BUDGET:
        raise SpectralError(
            f"num_points={n} exceeds the dense eigendecomposition budget {EIG_BUDGET}"
        )

    d, e = grid.lap_diag, grid.lap_off
    if spec is not None:
        v_values = evaluate_potential(spec, grid).values.real
    else:
        v_values = np.zeros(n)

    if not np.any(v_values):
        # Delta^2 = B^2 with B = -Delta positive definite: squaring keeps the order
        b_values, eigenvectors = _eigensolve(eigh_tridiagonal, d, e, lapack_driver="stevd")
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
        _, eigenvectors = _eigensolve(eigh, h, lower=True, driver="evd", overwrite_a=True)
        # factored Rayleigh quotients ||B q||^2 + q^T V q: the dense solve's own
        # eigenvalues carry an eps * rho(H) absolute error that swamps the low modes
        bq = apply_tridiag(d, e, eigenvectors.T)
        eigenvalues = np.einsum("ki,ki->k", bq, bq) + np.einsum(
            "i,ik,ik->k", v_values, eigenvectors, eigenvectors
        )
    canonical_signs(eigenvectors)

    if np.all(v_values >= 0):
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
        potential_values=v_values,
    )


def load_operator(*args, **kwargs):
    """Always raises: the eigendecomposition cache was removed; operators are built.

    The name exists only because perfbench's LoadGuard wraps it, and it goes
    together with LoadGuard in the benchmark change of ROADMAP item 6.
    """
    raise SpectralError(
        "the eigendecomposition cache was removed; build operators with build_operator"
    )


def _check_field(op: SpectralOperator, u: RadialField) -> None:
    if not u.grid.same_as(op.grid):
        raise SpectralError("field grid does not match operator grid")


def phase_table(op: SpectralOperator, times) -> np.ndarray:
    """e^{i t mu} for every time t in `times` and eigenvalue mu: shape times.shape + (N,)."""
    table = 1j * op.eigenvalues * np.asarray(times, dtype=float)[..., None]
    return np.exp(table, out=table)


def _power_factors(op: SpectralOperator, s) -> np.ndarray:
    """mu_+^{s/4} for every eigenvalue mu: the modal factors of op^{s/4}, s in [0, 4]."""
    if not 0.0 <= s <= 4.0:
        raise SpectralError(f"op^(s/4) requires s in [0, 4], got {s}")
    return np.maximum(op.eigenvalues, 0.0) ** (s / 4.0)


def apply_function(op: SpectralOperator, func: str, parameter, u: RadialField) -> RadialField:
    """e^{itH} u via exact modal calculus (coeffs * phases), t = parameter; func is "exp_it"."""
    _check_field(op, u)
    if func != "exp_it":
        raise SpectralError(f"unknown function tag {func!r}")
    return RadialField(op.grid, op.from_modal(op.to_modal(u.values) * phase_table(op, parameter)))


def evolve(op: SpectralOperator, values: np.ndarray, times) -> np.ndarray:
    """e^{i t_k H} at every time t_k, as a (T, N) array: one transform in, one out.

    values is one field (N,), sent to every time, or one row per time (T, N),
    where row k is sent through e^{i t_k H}.
    """
    return evolve_modal(op, op.to_modal(values), times)


def evolve_modal(op: SpectralOperator, coeffs: np.ndarray, times) -> np.ndarray:
    """evolve from modal coefficients (N,) or (T, N): grid values (T, N), one transform out.

    A caller that sends one field through several batches of times takes
    its coefficients once.  The product is phase_table * coeffs, in that order.
    """
    return op.from_modal(phase_table(op, times) * coeffs)


def power_values(
    op: SpectralOperator, s: float, values: np.ndarray, out=None, work=None
) -> np.ndarray:
    """op^{s/4} of each row of values, shape (..., N): H^{s/4}, or |grad|^s for the free operator.

    out and work are optional caller buffers for complex values, as for
    to_modal; values may be out itself.  Then the modal coefficients are
    scaled in work and the result is over out's memory, bit for bit the
    allocating call's, and nothing of values' size is allocated.
    """
    factors = _power_factors(op, s)
    coeffs = op.to_modal(values, out=work, work=out)
    coeffs *= factors
    return op.from_modal(coeffs, out=out, work=work)


def fractional_gradient_values(
    op_free: SpectralOperator, s: float, values: np.ndarray, out=None, work=None
) -> np.ndarray:
    """|grad|^s = (Delta^2)^{s/4} of each row of values: power_values of the free operator."""
    if op_free.kind != "free":
        raise SpectralError("the fractional gradient needs the free operator")
    return power_values(op_free, s, values, out, work)


# ---------------------------------------------------------------------------
# field snapshots (.fld)

_HEADER = struct.Struct("<8sII d I 16s")  # magic, version, payload kind, r_max, N, grid digest


def _grid_digest(grid: RadialGrid) -> bytes:
    """The header's 16-byte digest of the grid's (dimension, N, r_max)."""
    return hashlib.sha256(
        f"field|n={grid.dimension}|N={grid.num_points}|rmax={grid.r_max!r}".encode()
    ).digest()[:16]


def save_field(path: str | Path, u: RadialField) -> None:
    """Snapshot container: header + real block + imaginary block, little-endian float64."""
    grid = u.grid
    header = _HEADER.pack(
        _FIELD_MAGIC, _FORMAT_VERSION, 2, grid.r_max, grid.num_points, _grid_digest(grid)
    )
    atomic_write_bytes(path, [
        header,
        np.ascontiguousarray(u.values.real, dtype="<f8"),
        np.ascontiguousarray(u.values.imag, dtype="<f8"),
    ])


def load_field(path: str | Path, grid: RadialGrid) -> RadialField:
    """The field save_field wrote; fails by name on a bad, truncated or foreign file."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise SpectralError(
                f"{path} is truncated: expected a {_HEADER.size}-byte header, got {len(raw)} bytes"
            )
        magic, version, _, _, n, digest = _HEADER.unpack(raw)
        if magic != _FIELD_MAGIC or version != _FORMAT_VERSION:
            raise SpectralError(f"{path} is not a valid field snapshot")
        if digest != _grid_digest(grid):
            raise SpectralError(f"snapshot {path} was saved on a different grid")
        expected = _HEADER.size + 8 * 2 * n
        actual = os.fstat(fh.fileno()).st_size
        if actual != expected:
            raise SpectralError(
                f"{path} is corrupt: expected {expected} bytes for N={n}, found {actual}"
            )
        re, im = np.fromfile(fh, dtype="<f8", count=2 * n).reshape(2, n)
    return RadialField(grid, re + 1j * im)
