"""Higher-level experiments: round trips, isospectral members, stability, conditioning."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .direct import CharParams, direct_spectral_data, eigenvalues
from .errors import NumericalError, SpectralValidationError, StructuralError
from .glm import ReconstructionResult, reconstruct
from .grid import GridFunction, gauge_removed_distance
from .spectra import BoundaryKind, SpectralData, remainders, synthesize_data


@dataclass(frozen=True, eq=False)
class RoundTripReport:
    """sigma -> spectral data -> reconstructed sigma, with replayed spectrum."""

    sigma_in: GridFunction
    sigma_out: GridFunction
    gauge_constant: float
    l2_error: float
    spectral_replay_errors: np.ndarray
    margin: float

    def to_dict(self) -> dict:
        return {
            "gauge_constant": self.gauge_constant,
            "l2_error": self.l2_error,
            "spectral_replay_errors": [float(v) for v in self.spectral_replay_errors],
            "margin": self.margin,
            "sigma_in": [float(v) for v in self.sigma_in.values],
            "sigma_out": [float(v) for v in self.sigma_out.values],
        }


def replay_spectrum(rec: ReconstructionResult, kind: BoundaryKind, count: int) -> np.ndarray:
    """First ``count`` eigenvalues of a reconstructed sigma.

    For third-type kinds the replay uses the recovered h, which absorbs the
    gauge shift of the reconstruction.
    """
    return eigenvalues(rec.sigma, count, CharParams(kind, h=rec.h or 0.0))


def roundtrip_report(
    sigma: GridFunction, count: int, params: CharParams, M: int
) -> RoundTripReport:
    """Solve the direct problem, reconstruct, and compare.

    The reconstruction is compared against sigma resampled on the M-grid,
    after removing the mean offset (the data cannot see additive constants).
    The recovered sigma's spectrum is then replayed with the direct solver;
    for third-type kinds the replay uses the recovered h, which absorbs the
    gauge shift.
    """
    data = direct_spectral_data(sigma, count, params)
    rec = reconstruct(data, M)
    l2_error, gauge = gauge_removed_distance(rec.sigma, sigma.resampled(M))
    replay = replay_spectrum(rec, params.kind, count)
    return RoundTripReport(
        sigma_in=sigma,
        sigma_out=rec.sigma,
        gauge_constant=gauge,
        l2_error=l2_error,
        spectral_replay_errors=np.abs(data.lam - replay),
        margin=rec.positivity_margin,
    )


def isospectral_member(
    lambdas, beta, kind: BoundaryKind, M: int
) -> ReconstructionResult:
    """Reconstruct the member of the isospectral family selected by beta.

    A fixed admissible spectrum pins the family; the coordinates
    ``beta_k = alpha_k - 1`` select one member. Callers verify membership by
    replaying the spectrum of the result with the direct solver. Inadmissible
    coordinates raise :class:`SpectralValidationError` from :func:`reconstruct`,
    with the report attached.
    """
    data = SpectralData(kind, lambdas, 1.0 + np.asarray(beta, dtype=float))
    return reconstruct(data, M)


@dataclass(frozen=True)
class StabilityRow:
    """One perturbation level: the l2 norm ``eps`` of the data perturbation
    and the sigma-space response."""

    eps: float
    sigma_error: float


def stability_probe(
    data: SpectralData, eps_list, M: int, seed: int
) -> list[StabilityRow]:
    """Measure how the reconstruction responds to data perturbations.

    For each eps the remainder coordinates (mu, beta) are perturbed by a
    seeded random direction of l2 norm eps (the topology of the data space is
    the product l2 x l2 of those coordinates). Draws that violate A1/A2 are
    rejected and redrawn; the rng restarts from ``seed`` for every row, so all
    rows probe the same direction at different amplitudes. The response is the
    gauge-removed L2 distance between the perturbed and unperturbed
    reconstructions.
    """
    base = reconstruct(data, M)
    mu, beta = remainders(data)
    rows = []
    for eps in eps_list:
        if eps < 0.0:
            raise StructuralError("eps must be nonnegative")
        rng = np.random.default_rng(seed)
        perturbed = None
        for _ in range(100):
            direction = rng.uniform(-1.0, 1.0, size=2 * data.K)
            norm = np.linalg.norm(direction)
            if norm == 0.0:
                continue
            delta = (eps / norm) * direction
            try:
                perturbed = synthesize_data(
                    data.kind, mu + delta[: data.K], beta + delta[data.K:], h=data.h
                )
                break
            except SpectralValidationError:
                continue
        if perturbed is None:
            raise NumericalError(
                f"no admissible perturbation of size eps={eps} found in 100 draws",
                stage="stability",
            )
        rec = reconstruct(perturbed, M)
        sigma_error, _ = gauge_removed_distance(rec.sigma, base.sigma)
        rows.append(StabilityRow(eps=float(eps), sigma_error=sigma_error))
    return rows


def riesz_condition(lambdas, basis: str) -> float:
    """Condition number of the Gram matrix of {sqrt2 sin(lambda_k x)} or
    {sqrt2 cos(lambda_k x)} on [0, 1]; an estimate of the squared Riesz
    constant of the system.

    Entries are the closed-form integrals 2 int_0^1 trig(l_j x) trig(l_k x) dx,
    so the diagnostic carries no quadrature noise.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise StructuralError("lambdas must be a nonempty sequence")
    if np.any(lam <= 0.0) or np.any(np.diff(lam) <= 0.0):
        raise StructuralError("lambdas must be positive and strictly increasing")
    if basis not in ("sine", "cosine"):
        raise StructuralError(f"unknown basis {basis!r}")
    diff = np.sinc(np.subtract.outer(lam, lam) / np.pi)
    summ = np.sinc(np.add.outer(lam, lam) / np.pi)
    gram = diff - summ if basis == "sine" else diff + summ
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= 0.0:
        return float("inf")
    return float(eigs[-1] / eigs[0])
