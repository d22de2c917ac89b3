"""Inverse pipeline: spectral data -> phi -> kernel f -> triangular kernel -> sigma.

The chain discretizes everything on the sigma grid: phi lives on the step-1/M
grid of [0, 2] so that every sum and difference of nodes x_i +- y_j lands on a
phi node exactly, and all integrals use composite trapezoid weights. The
integral equation

    k(x, y) + f(x, y) + int_0^x k(x, s) f(s, y) ds = 0,   y <= x,

decouples row by row: for each x_i it is a dense linear system for the row
k(x_i, y_0..y_i), solvable whenever the discretized I + F is positive
definite. The positivity margin (smallest eigenvalue of the symmetrized
I + F) is therefore computed first and reconstruction refuses to proceed when
it is not strictly positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from ._fileio import atomic_write_text
from .direct import shoot
from .errors import NumericalError, SpectralValidationError, StructuralError
from .grid import MIN_M, GridFunction, trapezoid_weights
from .spectra import BoundaryKind, SpectralData, validate_spectral_data


@dataclass(frozen=True, eq=False)
class PhiTable:
    """Values of phi on the nodes s_m = m/M of [0, 2] (length 2M+1)."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1 or vals.size % 2 == 0 or vals.size < 2 * MIN_M + 1:
            raise StructuralError(
                f"phi table needs an odd number of values >= {2 * MIN_M + 1}, "
                f"got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise StructuralError("phi values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def M(self) -> int:
        return (self.values.size - 1) // 2


def assemble_phi(data: SpectralData, M: int) -> PhiTable:
    """Finite-mode phi series on the [0, 2] grid matched to an M-grid sigma.

    For sine-type kinds (DD/DN) each stored mode contributes
    ``cos(base_k s) - cos(lambda_k s)/alpha_k``; for cosine-type kinds (NT/ND)
    the sign is flipped. Modes beyond the stored range sit exactly on base and
    contribute nothing, so the sum is exact for the finite data model.
    """
    report = validate_spectral_data(data)
    if not report.ok:
        raise SpectralValidationError(
            f"cannot assemble phi from inadmissible data: {report.reason}",
            report=report,
        )
    if M < MIN_M:
        raise StructuralError(f"M must be >= {MIN_M}")
    s = np.arange(2 * M + 1) / M
    base = data.kind.base_array(data.K)
    # The base-mode coefficients reproduce the identity operator as a cosine
    # (or sine) sum. In the NT case the k = 1 base frequency is zero and the
    # constant mode carries half weight, exactly as the DC term of a Fourier
    # cosine expansion; without the 1/2 the series double-subtracts the
    # constant mode and I + F wrongly loses positivity on admissible data.
    coeff = np.ones(data.K)
    if base[0] == 0.0:
        coeff[0] = 0.5
    # Per-mode terms cancel exactly when a mode sits on base, so modes are
    # combined before summation; on-base data then yields a bitwise-zero table.
    terms = np.cos(np.outer(s, base)) * coeff - np.cos(np.outer(s, data.lam)) / data.alpha
    phi = terms.sum(axis=1)
    if data.kind.dirichlet_at_zero:
        return PhiTable(phi)
    return PhiTable(-phi)


@dataclass(frozen=True, eq=False)
class KernelF:
    """Symmetric kernel f(x, y) = phi(x+y) -+ phi(x-y) evaluated on the grid.

    Sine-type kinds use the minus sign, cosine-type kinds the plus sign. The
    evaluation is pure index arithmetic on the phi table, so the symmetry
    f(x_i, y_j) = f(y_j, x_i) holds exactly.
    """

    phi: PhiTable
    kind: BoundaryKind

    @property
    def M(self) -> int:
        return self.phi.M

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense (M+1) x (M+1) table f(x_i, y_j)."""
        idx = np.arange(self.M + 1)
        plus = self.phi.values[np.add.outer(idx, idx)]
        minus = self.phi.values[np.abs(np.subtract.outer(idx, idx))]
        out = plus - minus if self.kind.dirichlet_at_zero else plus + minus
        out.flags.writeable = False
        return out

    @cached_property
    def margin(self) -> float:
        """Smallest eigenvalue of the symmetrized discretization of I + F."""
        return float(np.linalg.eigvalsh(_symmetrized(self))[0])


def _symmetrized(f: KernelF) -> np.ndarray:
    """I + W^{1/2} F W^{1/2} (W the trapezoid weights), similar to I + F W."""
    sw = np.sqrt(trapezoid_weights(f.M))
    sym = f.matrix * np.outer(sw, sw)
    sym[np.diag_indices_from(sym)] += 1.0
    return sym


def positivity_margin(f: KernelF) -> float:
    """Smallest eigenvalue of the symmetrized discretization of I + F.

    Returned even when nonpositive; a positive value is the solvability
    certificate for :func:`solve_glm`. It is computed once per ``f``.
    """
    return f.margin


@dataclass(frozen=True, eq=False)
class TriangularKernel:
    """Lower-triangular node values k(x_i, y_j), j <= i, of the solved kernel."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        n = vals.shape[0]
        if vals.ndim != 2 or vals.shape != (n, n) or n < MIN_M + 1:
            raise StructuralError(f"kernel table must be square, got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise StructuralError("kernel values must be finite")
        if np.any(np.triu(vals, k=1) != 0.0):
            raise StructuralError("kernel table must vanish above the diagonal")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def M(self) -> int:
        return self.values.shape[0] - 1

    def row(self, i: int) -> np.ndarray:
        """Row k(x_i, y_0..y_i); has exactly i+1 entries."""
        return self.values[i, : i + 1]


def _row_weights(M: int) -> np.ndarray:
    """Trapezoid weights of int_0^{x_i} as a lower-triangular (M+1)^2 table."""
    delta = 1.0 / M
    w = np.full((M + 1, M + 1), delta)
    w[:, 0] = 0.5 * delta
    w[np.diag_indices(M + 1)] = 0.5 * delta
    w = np.tril(w)
    w[0, 0] = 0.0
    return w


def solve_glm(f: KernelF) -> TriangularKernel:
    """Solve the discretized integral equation for the triangular kernel.

    Row i solves ``(I + F^T_w) k_i = -f(x_i, .)`` where F^T_w is the kernel
    section on [0, x_i] with trapezoid column weights. Uniform positivity of
    I + F guarantees every row system is solvable, so the positivity margin
    of ``f`` is checked first; a nonpositive value raises
    :class:`NumericalError`.
    """
    M = f.M
    margin = positivity_margin(f)
    if margin <= 0.0:
        raise NumericalError(
            f"I + F is not uniformly positive (margin {margin:.6g} <= 0); "
            "the integral equation has no stable solution for this data",
            stage="positivity",
        )
    fm = f.matrix
    weights = _row_weights(M)
    kernel = np.zeros((M + 1, M + 1))
    kernel[0, 0] = -fm[0, 0]
    for i in range(1, M + 1):
        n = i + 1
        system = fm[:n, :n] * weights[i, :n]
        system[np.diag_indices(n)] += 1.0
        try:
            kernel[i, :n] = np.linalg.solve(system, -fm[i, :n])
        except np.linalg.LinAlgError as exc:  # pragma: no cover - margin > 0
            raise NumericalError(f"row {i} system is singular", stage="glm") from exc
    return TriangularKernel(kernel)


def glm_residual(kernel: TriangularKernel, f: KernelF) -> np.ndarray:
    """Row-wise max residual of the discretized integral equation."""
    M = kernel.M
    fm = f.matrix
    weights = _row_weights(M)
    out = np.empty(M + 1)
    for i in range(M + 1):
        n = i + 1
        lhs = kernel.values[i, :n] + fm[i, :n] + (
            kernel.values[i, :n] * weights[i, :n]
        ) @ fm[:n, :n]
        out[i] = np.max(np.abs(lhs))
    return out


def kernel_hs_norm(kernel: TriangularKernel) -> float:
    """Hilbert-Schmidt norm of the kernel: the weighted l2 norm of its entries."""
    M = kernel.M
    wx = trapezoid_weights(M)
    wy = _row_weights(M)
    return float(np.sqrt(np.sum(wx[:, None] * wy * kernel.values**2)))


def factorization_residual(kernel: TriangularKernel, f: KernelF) -> float:
    """Max-entry deviation of (I+K)(I+F)(I+K*) from the identity.

    All three operators are taken in the weighted (symmetrized) grid
    discretization; the kernel's diagonal carries half weight because the
    triangular kernel jumps to zero across the diagonal.
    """
    M = kernel.M
    if f.M != M:
        raise StructuralError(f"grid mismatch: kernel M={M}, f M={f.M}")
    sw = np.sqrt(trapezoid_weights(M))
    khat = kernel.values * np.outer(sw, sw)
    khat[np.diag_indices(M + 1)] *= 0.5
    khat[np.diag_indices(M + 1)] += 1.0
    resid = khat @ _symmetrized(f) @ khat.T
    resid[np.diag_indices(M + 1)] -= 1.0
    return float(np.max(np.abs(resid)))


def recover_sigma(kernel: TriangularKernel, f: KernelF) -> GridFunction:
    """Primitive of the potential from the solved kernel and its ``f``:

        sigma(x) = -2 phi(2x) - 2 int_0^x k(x, s) f(s, x) ds.

    This particular primitive fixes the additive-constant gauge of the
    reconstruction; comparisons against a reference sigma should remove the
    mean offset first.
    """
    M = kernel.M
    if f.M != M:
        raise StructuralError(f"grid mismatch: kernel M={M}, f M={f.M}")
    correction = np.sum(_row_weights(M) * kernel.values * f.matrix, axis=1)
    return GridFunction(-2.0 * f.phi.values[::2] - 2.0 * correction)


def recover_h(sigma: GridFunction, lambda1: float, kind: BoundaryKind) -> float:
    """Third-type boundary parameter consistent with the recovered sigma.

    Shoots at the first eigenvalue and returns h = -u^[1](1)/u(1), the value
    that makes u^[1](1) + h*u(1) = 0 hold. Data whose eigenfunctions vanish at
    x = 1 (Dirichlet-type at 1) is rejected.
    """
    if not kind.third_type_at_one:
        raise StructuralError(f"kind {kind.value} has no third-type parameter")
    res = shoot(sigma, lambda1, kind)
    if abs(res.u1) < 1e-12 * math.sqrt(res.l2norm_sq):
        raise NumericalError(
            f"u(1) = {res.u1:.3e} vanishes at lambda_1 = {lambda1:.9g}; the data "
            "is inconsistent with a third-type condition at x = 1",
            stage="recover_h",
        )
    return -res.du1 / res.u1


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Everything the inverse pipeline produces for one dataset."""

    sigma: GridFunction
    h: Optional[float]
    positivity_margin: float
    kernel_hs_norm: float
    phi: PhiTable
    kernel: TriangularKernel


def reconstruct(data: SpectralData, M: int) -> ReconstructionResult:
    """Full inverse pipeline: validate, build phi and f, check positivity,
    solve for the kernel, and recover sigma (plus h for third-type kinds).

    Stage failures propagate as :class:`SpectralValidationError` or
    :class:`NumericalError` carrying the stage name.
    """
    phi = assemble_phi(data, M)
    f = KernelF(phi, data.kind)
    margin = positivity_margin(f)
    kernel = solve_glm(f)
    sigma = recover_sigma(kernel, f)
    h = None
    if data.kind.third_type_at_one:
        h = recover_h(sigma, float(data.lam[0]), data.kind)
    return ReconstructionResult(
        sigma=sigma,
        h=h,
        positivity_margin=margin,
        kernel_hs_norm=kernel_hs_norm(kernel),
        phi=phi,
        kernel=kernel,
    )


def write_kernel_csv(path, kernel: TriangularKernel) -> None:
    """Dump the triangular kernel as ``i,j,k`` triples (debugging aid)."""
    lines = ["i,j,k"]
    for i in range(kernel.M + 1):
        row = kernel.row(i)
        for j in range(i + 1):
            lines.append(f"{i},{j},{float(row[j])!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")
