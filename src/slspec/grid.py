"""Uniform-grid functions on [0, 1]: the container for sigma and recovered q.

A :class:`GridFunction` stores samples on the nodes ``x_i = i/M``. Between
nodes every consumer in this package interprets the data as the piecewise
linear interpolant; that interpolant *is* the function the solvers work with,
so results are deterministic functions of the stored values alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._fileio import atomic_write_text
from .errors import StructuralError

MIN_M = 16

_CSV_HEADER = "x,sigma"


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real values on the uniform nodes ``i/M`` of ``[0, 1]``, ``M >= 16``."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < MIN_M + 1:
            raise StructuralError(
                f"grid function needs at least {MIN_M + 1} values on [0, 1], "
                f"got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise StructuralError("grid function values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def M(self) -> int:
        return self.values.size - 1

    @property
    def x(self) -> np.ndarray:
        """Node coordinates i/M."""
        return np.arange(self.M + 1) / self.M

    def at(self, points) -> np.ndarray:
        """Piecewise-linear evaluation at arbitrary points of [0, 1]."""
        return np.interp(points, self.x, self.values)

    def resampled(self, M: int) -> "GridFunction":
        """The same piecewise-linear function re-sampled on an M-grid."""
        if M == self.M:
            return self
        return GridFunction(self.at(np.arange(M + 1) / M))


def trapezoid_weights(M: int) -> np.ndarray:
    """Composite-trapezoid quadrature weights on the M-grid of [0, 1]."""
    w = np.full(M + 1, 1.0 / M)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def l2_norm(values: np.ndarray) -> float:
    """Trapezoid L2(0,1) norm of node values."""
    values = np.asarray(values, dtype=float)
    w = trapezoid_weights(values.size - 1)
    return float(np.sqrt(np.dot(w, values * values)))


def grid_mean(values: np.ndarray) -> float:
    """Trapezoid mean over [0, 1]; the L2-optimal constant approximation."""
    values = np.asarray(values, dtype=float)
    return float(np.dot(trapezoid_weights(values.size - 1), values))


def gauge_removed_distance(a: GridFunction, b: GridFunction) -> tuple[float, float]:
    """L2 distance between two grid functions after removing the mean offset.

    Returns ``(distance, constant)`` where ``constant`` is the removed mean of
    ``a - b``. Grids must match.
    """
    if a.M != b.M:
        raise StructuralError(f"grid mismatch: {a.M} vs {b.M}")
    diff = a.values - b.values
    c = grid_mean(diff)
    return l2_norm(diff - c), c


def sigma_csv_text(sigma: GridFunction) -> str:
    """The ``x,sigma`` CSV body. Values use the shortest exact decimal form."""
    lines = [_CSV_HEADER]
    for xi, vi in zip(sigma.x, sigma.values):
        lines.append(f"{float(xi)!r},{float(vi)!r}")
    return "\n".join(lines) + "\n"


def write_sigma_csv(path, sigma: GridFunction) -> None:
    """Write the ``x,sigma`` CSV atomically (temp file + rename)."""
    atomic_write_text(path, sigma_csv_text(sigma))


def read_sigma_csv(path) -> GridFunction:
    """Read a ``x,sigma`` CSV; malformed or non-ASCII files are structural errors."""
    try:
        with open(path, "r", encoding="ascii") as f:
            lines = [ln.strip() for ln in f if ln.strip()]
    except UnicodeDecodeError as exc:
        raise StructuralError(f"{path}: not ASCII text ({exc})") from exc
    if not lines or lines[0].replace(" ", "") != _CSV_HEADER:
        raise StructuralError(f"{path}: expected header '{_CSV_HEADER}'")
    try:
        rows = [tuple(float(tok) for tok in ln.split(",")) for ln in lines[1:]]
    except ValueError as exc:
        raise StructuralError(f"{path}: non-numeric row ({exc})") from exc
    if any(len(r) != 2 for r in rows):
        raise StructuralError(f"{path}: every row must be 'x,sigma'")
    xs = np.array([r[0] for r in rows])
    vals = np.array([r[1] for r in rows])
    M = xs.size - 1
    if M < MIN_M:
        raise StructuralError(f"{path}: need at least {MIN_M + 1} rows")
    if not np.all(np.abs(xs - np.arange(M + 1) / M) <= 1e-12):  # NaN fails too
        raise StructuralError(f"{path}: x column must be the uniform grid i/{M}")
    return GridFunction(vals)
