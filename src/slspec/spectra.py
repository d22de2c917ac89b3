"""Spectral-data model: boundary kinds, admissibility checks, synthesis.

Spectral data is a finite list of square-root eigenvalues ``lambda_k`` and
norming constants ``alpha_k`` for one of four endpoint-condition combinations.
Admissibility means condition A1 (all ``lambda_k`` positive and strictly
increasing, with square-summable deviations ``mu_k`` from the kind's base
frequencies) and condition A2 (``alpha_k = 1 + beta_k > 0`` with
square-summable ``beta_k``). For a finite stored range every remainder
sequence is trivially square summable, so the report exposes the norms and
enforces only the sign/monotonicity clauses; entries beyond the stored range
are treated as exactly on-base everywhere in this package.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._fileio import atomic_write_text
from .errors import SpectralValidationError, StructuralError


class BoundaryKind(enum.Enum):
    """Endpoint-condition combination defining the operator.

    DD: Dirichlet at 0 and 1.              base frequencies pi*k
    NT: Neumann-type at 0, third type at 1. base frequencies pi*(k-1)
    ND: Neumann-type at 0, Dirichlet at 1.  base frequencies pi*(k-1/2)
    DN: Dirichlet at 0, third type at 1.    base frequencies pi*(k-1/2)

    "Neumann-type" means the quasi-derivative vanishes, u'(0) - sigma(0)u(0) = 0;
    "third type" means u'(1) - sigma(1)u(1) + h*u(1) = 0 for a real parameter h.
    """

    DD = "DD"
    NT = "NT"
    ND = "ND"
    DN = "DN"

    @property
    def dirichlet_at_zero(self) -> bool:
        """True when eigenfunctions vanish at 0 (sine-type normalization)."""
        return self in (BoundaryKind.DD, BoundaryKind.DN)

    @property
    def third_type_at_one(self) -> bool:
        """True when the condition at 1 carries the parameter h."""
        return self in (BoundaryKind.NT, BoundaryKind.DN)

    def base_array(self, count: int) -> np.ndarray:
        """Base frequencies for k = 1..count."""
        k = np.arange(1, count + 1, dtype=float)
        if self is BoundaryKind.DD:
            return math.pi * k
        if self is BoundaryKind.NT:
            return math.pi * (k - 1.0)
        return math.pi * (k - 0.5)


@dataclass(frozen=True)
class Violation:
    """One coded admissibility finding; ``index`` is the 1-based mode index."""

    code: str
    index: int

    def __str__(self):
        return f"{self.code} at index {self.index}"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the A1/A2 admissibility check over the stored range."""

    ok: bool
    violations: tuple
    ell2_mu: float
    ell2_beta: float

    @property
    def reason(self) -> str:
        """The violations on one line, e.g. ``A1:non-monotone-lambda at index 2``."""
        return "; ".join(str(v) for v in self.violations)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [{"code": v.code, "index": v.index} for v in self.violations],
            "ell2_mu": self.ell2_mu,
            "ell2_beta": self.ell2_beta,
        }


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Square-root eigenvalues and norming constants for one boundary kind.

    ``lam[k-1]`` is the square root of the k-th eigenvalue, ``alpha[k-1]`` the
    squared norm of the eigenfunction under the kind's normalization
    (quasi-derivative sqrt(2)*lambda_k at 0 for Dirichlet-at-0 kinds, value
    sqrt(2) at 0 for Neumann-at-0 kinds). ``h`` optionally records the
    third-type boundary parameter for NT/DN data.
    """

    kind: BoundaryKind
    lam: np.ndarray
    alpha: np.ndarray
    h: Optional[float] = None

    def __post_init__(self):
        lam = np.array(self.lam, dtype=float)
        alpha = np.array(self.alpha, dtype=float)
        if lam.ndim != 1 or alpha.ndim != 1:
            raise StructuralError("lambda and alpha must be one-dimensional")
        if lam.size == 0:
            raise StructuralError("spectral data must contain at least one mode")
        if lam.size != alpha.size:
            raise StructuralError(
                f"lambda and alpha lengths differ: {lam.size} vs {alpha.size}"
            )
        if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(alpha))):
            raise StructuralError("lambda and alpha must be finite")
        if self.h is not None and not (self.kind.third_type_at_one and math.isfinite(self.h)):
            raise StructuralError(f"h must be a finite NT/DN parameter, got {self.h}")
        lam.flags.writeable = False
        alpha.flags.writeable = False
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "alpha", alpha)

    @property
    def K(self) -> int:
        return self.lam.size


def remainders(data: SpectralData) -> tuple[np.ndarray, np.ndarray]:
    """Deviations (mu, beta) of the data from the kind's base values.

    ``mu_k = lambda_k - base(k)`` and ``beta_k = alpha_k - 1``, element-wise.
    """
    base = data.kind.base_array(data.K)
    return data.lam - base, data.alpha - 1.0


def validate_spectral_data(data: SpectralData) -> ValidationReport:
    """Check conditions A1/A2 over the stored range and report remainders.

    Every violated clause is listed: nonpositive or non-monotone lambda
    entries (A1) and nonpositive alpha entries (A2). The report always carries
    the l2 norms of the remainder sequences; finiteness of the infinite-tail
    norms cannot be judged from a finite list, so no threshold is applied.
    """
    violations = []
    lam, alpha = data.lam, data.alpha
    for i in range(data.K):
        if lam[i] <= 0.0:
            violations.append(Violation("A1:nonpositive-lambda", i + 1))
        if i > 0 and lam[i] <= lam[i - 1]:
            violations.append(Violation("A1:non-monotone-lambda", i + 1))
        if alpha[i] <= 0.0:
            violations.append(Violation("A2:nonpositive-alpha", i + 1))
    mu, beta = remainders(data)
    return ValidationReport(
        ok=not violations,
        violations=tuple(violations),
        ell2_mu=float(np.linalg.norm(mu)),
        ell2_beta=float(np.linalg.norm(beta)),
    )


def synthesize_data(
    kind: BoundaryKind, mu, beta, h: Optional[float] = None
) -> SpectralData:
    """Assemble spectral data from remainders; inverse of :func:`remainders`.

    Raises :class:`SpectralValidationError` (with the report attached) when
    the assembled data violates A1/A2.
    """
    mu = np.asarray(mu, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if mu.shape != beta.shape or mu.ndim != 1:
        raise StructuralError("mu and beta must be one-dimensional and equal length")
    data = SpectralData(kind, kind.base_array(mu.size) + mu, 1.0 + beta, h=h)
    report = validate_spectral_data(data)
    if not report.ok:
        raise SpectralValidationError(
            f"synthesized data is inadmissible: {report.reason}",
            report=report,
        )
    return data


def shift_spectrum(data: SpectralData, c: float) -> SpectralData:
    """Spectral data of the operator with sigma(x) replaced by sigma(x) + c*x.

    Eigenvalues move to ``sqrt(lambda_k^2 + c)``. Norming constants rescale by
    ``(lambda_k^2 + c)/lambda_k^2`` for Dirichlet-at-0 kinds (the sqrt(2)*lambda
    normalization tracks lambda) and stay fixed for Neumann-at-0 kinds.
    An attached h moves to h + c, keeping the third-type condition consistent
    with the shifted primitive.
    """
    lam2 = data.lam * data.lam
    if lam2[0] + c <= 0.0:
        raise SpectralValidationError(
            f"shift by {c} would make lambda_1^2 = {lam2[0] + c} nonpositive"
        )
    new_lam = np.sqrt(lam2 + c)
    if data.kind.dirichlet_at_zero:
        new_alpha = data.alpha * (lam2 + c) / lam2
    else:
        new_alpha = data.alpha.copy()
    new_h = data.h + c if data.h is not None else None
    return SpectralData(data.kind, new_lam, new_alpha, h=new_h)


# --- JSON wire format ------------------------------------------------------
#
# {"kind": "DD|NT|ND|DN", "lambda": [...], "alpha": [...], "h": number?}
# Numbers are emitted in Python's shortest round-trip decimal form, which is
# lossless (equivalent to 17 significant digits).


def data_to_dict(data: SpectralData) -> dict:
    out = {
        "kind": data.kind.value,
        "lambda": [float(v) for v in data.lam],
        "alpha": [float(v) for v in data.alpha],
    }
    if data.h is not None:
        out["h"] = float(data.h)
    return out


def data_from_dict(obj: dict) -> SpectralData:
    """Spectral data from the wire-format object; non-numbers (bools too) are structural errors."""
    try:
        kind = BoundaryKind(obj["kind"])
        h = obj.get("h")
        numbers = [*obj["lambda"], *obj["alpha"]] + ([] if h is None else [h])
        if any(type(v) not in (int, float) for v in numbers):  # bool is an int
            raise TypeError("lambda, alpha and h must hold JSON numbers only")
        lam = np.array(obj["lambda"], dtype=float)
        alpha = np.array(obj["alpha"], dtype=float)
        h = None if h is None else float(h)
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise StructuralError(f"bad spectral-data object: {exc}") from exc
    return SpectralData(kind, lam, alpha, h=h)


def data_json_text(data: SpectralData) -> str:
    return json.dumps(data_to_dict(data), indent=1) + "\n"


def write_data_json(path, data: SpectralData) -> None:
    atomic_write_text(path, data_json_text(data))


def read_data_json(path) -> SpectralData:
    """Read the JSON wire format; malformed or non-ASCII files are structural errors."""
    try:
        with open(path, "r", encoding="ascii") as f:
            obj = json.load(f)
    except ValueError as exc:  # also non-ASCII bytes and over-long integers
        raise StructuralError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise StructuralError(f"{path}: expected a JSON object")
    return data_from_dict(obj)
