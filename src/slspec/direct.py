"""Direct spectral problem: from a grid-sampled sigma to spectral data.

The eigenvalue equation is integrated as the first-order quasi-derivative
system

    u' = sigma*u + v,        v' = -(sigma^2 + lambda^2)*u - sigma*v,

where ``v = u' - sigma*u`` is the quasi-derivative that stays well defined for
potentials q = sigma' that are only distributions. For the piecewise-linear
sigma that a :class:`GridFunction` represents, q is exactly piecewise constant
(the slope of sigma in each cell), so on every grid cell the classical form
``u'' = (q - lambda^2) u`` has the closed-form cosine/sine propagator. That
makes the computed boundary traces, eigenvalues and eigenfunction norms exact
for the stored sigma up to roundoff and the root-refinement tolerance; no
step-size policy is involved and the cost does not depend on lambda.

The solver never loops over cells in Python. For a block of lambda values it
forms all M per-cell 2x2 transfer matrices at once and multiplies neighbours
pairwise, ceil(log2 M) vectorized levels up to the boundary trace (an
up-sweep, as in a parallel-prefix product). Norms and trajectories add a
down-sweep through the stored levels that yields every cell's start state.
Blocks hold at most BLOCK_ENTRIES cell-lambda entries, so working memory is a
few MB whatever the grid or the number of lambda values.

Eigenvalues are located by scanning the boundary-condition residual for sign
changes, from a floor up to a min-max bound read off sigma; Sturm counts at
both ends certify that each sign change brackets exactly one eigenvalue, and
Illinois regula falsi refines the brackets (the residual is entire in lambda
with simple real zeros, so this holds even for rough sigma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalError, StructuralError
from .grid import GridFunction
from .spectra import BoundaryKind, SpectralData, validate_spectral_data

SQRT2 = math.sqrt(2.0)

# Bracketing policy: scan resolution, positive floor for the scan start, and
# refinement tolerance.
SCAN_STEP = math.pi / 16
LAMBDA_FLOOR = 1e-4
REFINE_RTOL = 1e-10

# Residual magnitude accepted as "is an eigenvalue" in norming_constants.
RESIDUAL_RTOL = 1e-6

# Most cell-lambda entries the propagation kernel holds per block; it bounds
# the kernel's working memory (about 5 MB) whatever the batch size. Smaller
# blocks trade speed for little memory: on the direct-fine benchmark (2
# cores), 2^14 and 2^13 lowered peak RSS by 3 and 5 MB but ops/s by 11% and
# 29%.
BLOCK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class CharParams:
    """Boundary kind plus the third-type parameter h (NT/DN only; 0 elsewhere)."""

    kind: BoundaryKind
    h: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.h):
            raise StructuralError("h must be finite")
        if self.h != 0.0 and not self.kind.third_type_at_one:
            raise StructuralError(f"kind {self.kind.value} has no third-type parameter h")


@dataclass(frozen=True)
class ShootResult:
    """Boundary trace of one shot: u(1), u^[1](1), and the squared L2 norm.

    ``trajectory`` optionally holds the (u, u^[1]) node values on the sigma
    grid, shape (M+1, 2).
    """

    u1: float
    du1: float
    l2norm_sq: float
    trajectory: Optional[np.ndarray] = None


def _cell_coefficients(E: np.ndarray, delta: float, with_iss: bool = False):
    """Propagator entries over one cell for u'' = -E u, elementwise over E.

    Returns (C, S, Iss) with C = cos(w*delta), S = sin(w*delta)/w for
    w = sqrt(E) (hyperbolic branch for E < 0) and Iss = integral of S(tau)^2
    over the cell; Iss is None unless ``with_iss``. Near E = 0 both branches
    lose digits, so a series in E*delta^2 takes over there. The trigonometric
    formulas run on the whole array; hyperbolic and series entries are
    overwritten afterwards, and only looked for when some E is that small.
    """
    w2 = E * (delta * delta)
    off_trig = w2.min() <= 1e-4
    w = np.sqrt(np.abs(E))
    arg = w * delta
    with np.errstate(divide="ignore", invalid="ignore"):  # E = 0 is a series entry
        C = np.cos(arg)
        S = np.sin(arg) / w
        if off_trig:
            hyp = w2 < -1e-4
            C[hyp] = np.cosh(arg[hyp])
            S[hyp] = np.sinh(arg[hyp]) / w[hyp]
        Iss = (delta - S * C) / (2.0 * E) if with_iss else None
    if off_trig:
        mid = np.abs(w2) <= 1e-4
        t = w2[mid]
        C[mid] = 1.0 + t * (-0.5 + t * (1.0 / 24.0 - t / 720.0))
        S[mid] = delta * (1.0 + t * (-1.0 / 6.0 + t * (1.0 / 120.0 - t / 5040.0)))
        if with_iss:
            Iss[mid] = delta**3 * (1.0 / 3.0 + t * (-1.0 / 15.0 + t * (2.0 / 315.0)))
    return C, S, Iss


def _up_sweep(level):
    """Pairwise products of consecutive transfer matrices, level by level.

    ``level`` holds the entries (a, b, c, d) of the matrices [[a, b], [c, d]]
    of consecutive segments, each entry of shape (n, L). Each new level
    multiplies neighbours 2j, 2j+1 (an odd last segment is carried up as is),
    so after ceil(log2 n) levels one matrix spans all segments. Returns every
    level, the cells first and the total product last.
    """
    levels = [level]
    while level[0].shape[0] > 1:
        n = level[0].shape[0]
        h = n // 2
        a0, b0, c0, d0 = (x[0:2 * h:2] for x in level)
        a1, b1, c1, d1 = (x[1:2 * h:2] for x in level)
        nxt = (a1 * a0 + b1 * c0, a1 * b0 + b1 * d0,
               c1 * a0 + d1 * c0, c1 * b0 + d1 * d0)
        if n % 2:
            nxt = tuple(np.concatenate((y, x[-1:])) for y, x in zip(nxt, level))
        levels.append(nxt)
        level = nxt
    return levels


def _down_sweep(levels, u, p):
    """Start state (u, u') of every cell from the stored up-sweep levels.

    The top segment starts at (u, p); the left child of a segment starts
    where its parent does and the right child where the left one ends.
    Returns two arrays of shape (cells, L).
    """
    u, p = u[None, :], p[None, :]
    for a, b, c, d in reversed(levels[:-1]):
        n = a.shape[0]
        h = n // 2
        uu = np.empty((n, u.shape[1]))
        pp = np.empty_like(uu)
        uu[0::2] = u
        pp[0::2] = p
        uu[1::2] = a[0:2 * h:2] * u[:h] + b[0:2 * h:2] * p[:h]
        pp[1::2] = c[0:2 * h:2] * u[:h] + d[0:2 * h:2] * p[:h]
        u, p = uu, pp
    return u, p


def _propagate(sigma: GridFunction, lams, kind: BoundaryKind, norms=False,
               trajectory=False):
    """Propagate the quasi-derivative system for a batch of lambda values.

    The classical state (u, u') crosses cell i by the transfer matrix
    [[C, S], [-E*S, C]] with E = lambda^2 - q_i. For a block of lambda
    values the kernel forms every cell's matrix at once, and an up-sweep of
    pairwise products (ceil(log2 M) vectorized levels) yields the boundary
    trace. Only when norms or the trajectory are asked for does a down-sweep
    over the stored levels recover each cell's start state, from which the
    integral of u^2 is one vectorized sum. Lambda is processed in blocks of at
    most BLOCK_ENTRIES cell-lambda entries, so memory does not grow with the
    batch.

    Returns (u1, du1, norm_sq, traj) as arrays over the batch; ``norm_sq`` is
    None unless ``norms`` and ``traj`` is None unless ``trajectory``, in which
    case it has shape (M+1, 2, L).
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if np.any(lams < 0.0) or not np.all(np.isfinite(lams)):
        raise StructuralError("lambda values must be finite and nonnegative")
    vals = sigma.values
    M = sigma.M
    delta = 1.0 / M
    slope = (np.diff(vals) * M)[:, None]  # q on each cell

    if kind.dirichlet_at_zero:
        u0 = np.zeros_like(lams)
        p0 = SQRT2 * lams  # classical derivative: v + sigma(0)*u = v
    else:
        u0 = np.full_like(lams, SQRT2)
        p0 = vals[0] * u0  # quasi-derivative zero => u' = sigma(0)*u

    u1 = np.empty_like(lams)
    p1 = np.empty_like(lams)
    norm_sq = np.empty_like(lams) if norms else None
    traj = np.empty((M + 1, 2, lams.size)) if trajectory else None

    width = max(1, BLOCK_ENTRIES // M)
    for start in range(0, lams.size, width):
        blk = slice(start, start + width)
        E = lams[blk] ** 2 - slope
        C, S, Iss = _cell_coefficients(E, delta, with_iss=norms)
        levels = _up_sweep((C, S, -E * S, C))
        a, b, c, d = (x[0] for x in levels[-1])
        u1[blk] = a * u0[blk] + b * p0[blk]
        p1[blk] = c * u0[blk] + d * p0[blk]
        if norms or trajectory:
            u, p = _down_sweep(levels, u0[blk], p0[blk])
        if norms:
            Icc = 0.5 * (delta + S * C)
            norm_sq[blk] = np.sum(u * u * Icc + u * p * (S * S) + p * p * Iss, axis=0)
        if trajectory:
            traj[:M, 0, blk] = u
            traj[:M, 1, blk] = p - vals[:-1, None] * u
            traj[M, 0, blk] = u1[blk]
            traj[M, 1, blk] = p1[blk] - vals[-1] * u1[blk]

    du1 = p1 - vals[-1] * u1
    return u1, du1, norm_sq, traj


def shoot(
    sigma: GridFunction,
    lam: float,
    kind: BoundaryKind,
    with_trajectory: bool = False,
) -> ShootResult:
    """Integrate one shot at ``lam`` and return the boundary trace.

    Initial conditions are fixed by the kind: u(0) = 0, u^[1](0) = sqrt(2)*lam
    for Dirichlet-at-0 kinds (DD/DN), u(0) = sqrt(2), u^[1](0) = 0 for
    Neumann-at-0 kinds (NT/ND).
    """
    u1, du1, nsq, traj = _propagate(sigma, [lam], kind, norms=True,
                                    trajectory=with_trajectory)
    return ShootResult(
        u1=float(u1[0]),
        du1=float(du1[0]),
        l2norm_sq=float(nsq[0]),
        trajectory=None if traj is None else traj[:, :, 0],
    )


def _boundary_residual(u1, du1, params: CharParams):
    """The condition at x = 1: u(1), or u^[1](1) + h*u(1) for third-type kinds."""
    return du1 + params.h * u1 if params.kind.third_type_at_one else u1


def _characteristic_batch(sigma: GridFunction, lams, params: CharParams) -> np.ndarray:
    u1, du1, _, _ = _propagate(sigma, lams, params.kind)
    return _boundary_residual(u1, du1, params)


def _narrow(a, fa, b, fb, x, fx):
    """Shrink each bracket [a, b] to the side of x that keeps the sign change;
    an exact zero fx collapses the bracket onto x."""
    hit = fx == 0.0
    same = np.sign(fx) == np.sign(fa)
    a, fa = np.where(same | hit, x, a), np.where(same | hit, fx, fa)
    b, fb = np.where(same & ~hit, b, x), np.where(same & ~hit, fb, fx)
    return a, fa, b, fb


def characteristic(sigma: GridFunction, lam: float, params: CharParams) -> float:
    """Boundary-condition residual whose positive zeros are the lambda_k.

    u(1) for DD/ND; u^[1](1) + h*u(1) for NT/DN.
    """
    return float(_characteristic_batch(sigma, [lam], params)[0])


def _count_below(sigma: GridFunction, lam: float, params: CharParams) -> int:
    """Sturm count (Pryce 1993): how many eigenvalues lie below lam^2.

    That is the number of zeros of the shot at ``lam`` in (0, 1], plus one for
    third-type kinds when u(1)*(u^[1](1) + h*u(1)) < 0, counted exactly per
    cell on any grid. On a trigonometric cell u = R*sin(w*t + psi) has
    floor((psi + w*delta)/pi) - floor(psi/pi) zeros: j = floor(w*delta/pi) or
    j + 1, whichever has the parity of the cell's sign change. A hyperbolic or
    series cell holds at most one zero, seen as a sign change.
    """
    u1, du1, _, traj = _propagate(sigma, [lam], params.kind, trajectory=True)
    u, du = traj[:, 0, 0], traj[:, 1, 0]
    sign = np.where(u != 0.0, np.sign(u), np.sign(du))  # a zero takes the sign after it
    w = np.sqrt(np.maximum(lam * lam - sigma.M * np.diff(sigma.values), 0.0))
    turns = np.floor(w / (math.pi * sigma.M))
    below = int(np.sum(turns + (turns + (sign[1:] != sign[:-1])) % 2))
    if params.kind.third_type_at_one and u1[0] * _boundary_residual(u1, du1, params)[0] < 0:
        below += 1
    return below


def eigenvalues(sigma: GridFunction, count: int, params: CharParams) -> np.ndarray:
    """First ``count`` positive zeros of the characteristic, refined to
    ``|dlambda| <= 1e-10 * max(1, lambda)``.

    The scan covers [LAMBDA_FLOOR, sqrt((pi*count)^2 + max q) + pi/16] at
    resolution pi/16, with q = M*diff(sigma) the cell potential: by min-max,
    every kind's lambda_count^2 is at most the Dirichlet one, which is at most
    (pi*count)^2 + max q. Sturm counts certify the window: no eigenvalue lies
    below the floor, and as many lie below the top as the scan has sign
    changes, so the k-th bracket holds lambda_k alone; otherwise
    :class:`NumericalError` is raised (shift sigma by c*x when the operator is
    not positive). Illinois regula falsi (Dowell & Jarratt 1971) refines only
    the brackets still open; two safeguarded secant steps polish the roots.
    """
    if count < 1:
        raise StructuralError("count must be >= 1")
    below = _count_below(sigma, LAMBDA_FLOOR, params)
    if below:
        raise NumericalError(f"{below} eigenvalue(s) lie below lambda^2 = {LAMBDA_FLOOR**2:.3g}; "
                             "the operator is not positive", stage="bracket")
    hi = math.sqrt((math.pi * count) ** 2 + sigma.M * np.diff(sigma.values).max()) + SCAN_STEP
    grid = LAMBDA_FLOOR + SCAN_STEP * np.arange(math.ceil((hi - LAMBDA_FLOOR) / SCAN_STEP) + 1)

    fvals = _characteristic_batch(sigma, grid, params)
    sign = np.sign(fvals)
    flips = np.nonzero((sign[:-1] * sign[1:] < 0) | (sign[:-1] == 0))[0]
    inside = _count_below(sigma, grid[-1], params)
    if inside != flips.size:
        raise NumericalError(
            f"[{grid[0]:.6g}, {grid[-1]:.6g}] holds {inside} eigenvalues but the scan "
            f"found {flips.size} characteristic sign changes: two eigenvalues share "
            f"a scan step of {SCAN_STEP:.6g}", stage="bracket")
    if flips.size < count:
        raise NumericalError(
            f"found {flips.size} characteristic sign changes in "
            f"[{grid[0]:.6g}, {grid[-1]:.6g}], which holds the first {count} "
            "eigenvalues", stage="bracket")
    flips = flips[:count]

    exact = fvals[flips] == 0.0
    a = grid[flips].copy()
    b = np.where(exact, a, grid[flips + 1])
    fa = fvals[flips].copy()
    fb = np.where(exact, 0.0, fvals[flips + 1])

    # Illinois weights: the end kept twice in a row has its weight halved, so
    # the step cannot stall on one side; weights keep the sign of fa, fb.
    wa, wb = fa.copy(), fb.copy()
    kept_a = np.zeros(count, dtype=bool)
    kept_b = np.zeros(count, dtype=bool)
    for _ in range(200):
        i = np.nonzero(b - a > REFINE_RTOL * np.maximum(1.0, 0.5 * (a + b)))[0]
        if not i.size:
            break
        ai, bi = a[i], b[i]
        x = (ai * wb[i] - bi * wa[i]) / (wb[i] - wa[i])  # opposite signs, never 0
        x = np.where((x > ai) & (x < bi), x, 0.5 * (ai + bi))
        fx = _characteristic_batch(sigma, x, params)
        new_a = np.sign(fx) == np.sign(fa[i])
        a[i], fa[i], b[i], fb[i] = _narrow(ai, fa[i], bi, fb[i], x, fx)
        wa[i] = np.where(new_a, fx, np.where(kept_a[i], 0.5 * wa[i], wa[i]))
        wb[i] = np.where(new_a, np.where(kept_b[i], 0.5 * wb[i], wb[i]), fx)
        kept_a[i], kept_b[i] = ~new_a, new_a
    else:
        raise NumericalError("200 regula falsi passes left a bracket open", stage="bracket")

    # Two safeguarded secant steps on the true end values sharpen the root
    # down to the precision of the residual evaluation itself; they keep the
    # root bracketed, so robustness is unchanged.
    roots = 0.5 * (a + b)
    for _ in range(2):
        denom = fb - fa
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = np.where(denom != 0.0, (a * fb - b * fa) / denom, roots)
        cand = np.clip(cand, a, b)
        fc = _characteristic_batch(sigma, cand, params)
        a, fa, b, fb = _narrow(a, fa, b, fb, cand, fc)
        roots = cand

    if np.any(np.diff(roots) <= 0.0):
        raise NumericalError("refined eigenvalues are not strictly increasing",
                             stage="bracket")
    return roots


def norming_constants(sigma: GridFunction, lambdas, params: CharParams) -> np.ndarray:
    """Squared L2 norms of the kind-normalized eigenfunctions at ``lambdas``.

    Each lambda must be an eigenvalue of ``params``: a boundary residual above
    a tolerance scaled to the refinement precision raises
    :class:`NumericalError`. The norm itself never depends on h.
    """
    lambdas = np.atleast_1d(np.asarray(lambdas, dtype=float))
    u1, du1, norm_sq, _ = _propagate(sigma, lambdas, params.kind, norms=True)
    resid = np.abs(_boundary_residual(u1, du1, params))
    scale = np.maximum(1.0, lambdas)
    tol = RESIDUAL_RTOL * scale * (scale if params.kind.third_type_at_one else 1.0)
    bad = np.nonzero(resid > tol)[0]
    if bad.size:
        i = int(bad[0])
        raise NumericalError(
            f"lambda[{i}] = {lambdas[i]:.12g} is not an eigenvalue "
            f"(boundary residual {resid[i]:.3e} exceeds {tol[i]:.3e})",
            stage="norming",
        )
    return norm_sq


def direct_spectral_data(
    sigma: GridFunction, count: int, params: CharParams
) -> SpectralData:
    """Spectral data (lambda_k, alpha_k) of the operator defined by sigma.

    Composition of :func:`eigenvalues` and :func:`norming_constants`; the
    result carries h for third-type kinds and always passes validation.
    """
    lams = eigenvalues(sigma, count, params)
    alphas = norming_constants(sigma, lams, params)
    h = params.h if params.kind.third_type_at_one else None
    data = SpectralData(params.kind, lams, alphas, h=h)
    report = validate_spectral_data(data)
    if not report.ok:
        raise NumericalError(
            f"direct solver produced inadmissible data: {report.reason}",
            stage="direct",
        )
    return data
