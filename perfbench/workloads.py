"""Seeded inputs, op lists and analytic oracles of the benchmark workloads.

Every input file is written here in the documented wire formats (``x,sigma``
CSV, spectral-data JSON), so the inputs do not depend on the serializers under
test. Nothing in this module imports slspec.

Inputs without a closed-form spectrum come with a lower bound on lambda_1^2
that this module proves from the input alone, never from the solver:

* The quadratic form of the operator is ``int u'^2 - 2 int sigma u u'`` for
  DD and ND, and a drift ``c*x`` adds ``c * int u^2`` to it (u(1) = 0).
* DD: the form is unchanged by subtracting the mean m of sigma, and
  ``|u|_inf <= |u'|_2 / 2``, so it is at least
  ``(1 - |sigma - m|_2) |u'|^2 >= (1 - s) pi^2 |u|^2``.
* ND: ``|u|_inf <= |u'|_2`` and the Poincare constant is (pi/2)^2, so the form
  is at least ``(1 - 2 |sigma|_2) (pi/2)^2 |u|^2``.

The norms are exact for the piecewise-linear interpolant of the node values,
which is the function the solver treats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

PI = math.pi

# Singular parts are scaled down to this L2 size (the proofs above need
# s < 1 for DD and s < 1/2 for ND).
SINGULAR_NORM_MAX = 0.4
# Proved lower bound on lambda_1^2 of every seeded input. It stays above
# (pi/2)^2, the bottom of the seed solver's DD bracket scan: the scan-window
# defect is measured by the fixed known-defect inputs, so the seeded inputs
# keep the failure count the same for every seed.
LAM1_SQ_MIN = 3.0
DRIFT_SPAN = 6.0
# Random mode indices certified per seeded direct op, besides 1, 2, K/2, K-1, K.
CERTIFIED_RANDOM = 3

_BASE_SHIFT = {"DD": 0.0, "NT": 1.0, "ND": 0.5, "DN": 0.5}


def nodes(M: int) -> np.ndarray:
    return np.arange(M + 1) / M


def pl_norm(values: np.ndarray) -> float:
    """Exact L2(0, 1) norm of the piecewise-linear interpolant."""
    a, b = values[:-1], values[1:]
    return math.sqrt(float(np.sum(a * a + a * b + b * b)) / (3 * (values.size - 1)))


def pl_mean(values: np.ndarray) -> float:
    """Exact mean over [0, 1] of the piecewise-linear interpolant."""
    return float(np.sum(values[:-1] + values[1:])) / (2 * (values.size - 1))


@dataclass(frozen=True)
class Oracle:
    """Constant potential q = c: sigma = c*x, and h = c for NT/DN.

    With h = c the third-type condition reduces to u'(1) = 0, so every kind
    has eigenfunctions sqrt2 cos or sin of omega_k x with lambda^2 = omega^2 + c.
    """

    kind: str
    c: float

    def omega(self, K: int) -> np.ndarray:
        return PI * (np.arange(1, K + 1) - _BASE_SHIFT[self.kind])

    def lam(self, K: int) -> np.ndarray:
        return np.sqrt(self.omega(K) ** 2 + self.c)

    def alpha(self, K: int) -> np.ndarray:
        if self.kind in ("DD", "DN"):
            omega2 = self.omega(K) ** 2
            return (omega2 + self.c) / omega2
        alpha = np.ones(K)
        if self.kind == "NT":
            alpha[0] = 2.0
        return alpha

    @property
    def h(self) -> Optional[float]:
        return self.c if self.kind in ("NT", "DN") else None

    def sigma(self, M: int) -> np.ndarray:
        return self.c * nodes(M)


@dataclass(frozen=True, eq=False)
class Op:
    """One CLI call with its input file and what its output is checked against.

    ``role`` is ``oracle`` (closed-form answer), ``singular`` (index
    certificate) or ``known-defect`` (fails at the seed; checked against its
    oracle once it passes).
    """

    name: str
    command: str
    role: str
    kind: str
    input_text: str
    flags: tuple = ()
    count: Optional[int] = None
    grid: Optional[int] = None
    oracle: Optional[Oracle] = None
    sigma: Optional[np.ndarray] = None
    lam1_sq_min: Optional[float] = None
    certified: tuple = ()

    @property
    def input_name(self) -> str:
        ext = "json" if self.command == "inverse" else "csv"
        return f"in-{self.name}.{ext}"

    @property
    def output_names(self) -> tuple:
        if self.command == "inverse":
            return (f"out-{self.name}.csv", f"out-{self.name}.json")
        return (f"out-{self.name}.json",)

    def argv(self, workdir) -> list:
        return [self.command, "--input", f"{workdir}/{self.input_name}",
                "--output", f"{workdir}/{self.output_names[0]}", *self.flags]

    def describe(self) -> dict:
        return {"name": self.name, "role": self.role,
                "argv": self.argv("WORKDIR")}


def sigma_csv_text(values: np.ndarray) -> str:
    M = values.size - 1
    rows = "".join(f"{i / M!r},{float(v)!r}\n" for i, v in enumerate(values))
    return "x,sigma\n" + rows


def data_json_text(oracle: Oracle, K: int) -> str:
    obj = {"kind": oracle.kind,
           "lambda": [float(v) for v in oracle.lam(K)],
           "alpha": [float(v) for v in oracle.alpha(K)]}
    if oracle.h is not None:
        obj["h"] = oracle.h
    return json.dumps(obj, indent=1) + "\n"


def _kind_flags(kind: str, h: Optional[float]) -> tuple:
    return ("--kind", kind) + (("--h", repr(h)) if h is not None else ())


def singular_sigma(rng, shape: str, kind: str, M: int):
    """Seeded singular sigma plus drift, and its proved bound on lambda_1^2."""
    x = nodes(M)
    if shape == "coulomb":
        # x0 sits mid-cell, so the log singularity is sampled but never hit.
        x0 = (math.floor(rng.uniform(0.25, 0.75) * M) + 0.5) / M
        part = rng.uniform(0.1, 0.3) * rng.choice((-1.0, 1.0)) * np.log(np.abs(x - x0))
    else:
        n = int(rng.integers(2, 4))
        where = rng.uniform(0.1, 0.9, size=n)
        heights = rng.uniform(0.2, 0.6, size=n) * rng.choice((-1.0, 1.0), size=n)
        part = np.sum(heights[:, None] * (x[None, :] >= where[:, None]), axis=0)
    norm = pl_norm(part - pl_mean(part)) if kind == "DD" else pl_norm(part)
    if norm > SINGULAR_NORM_MAX:
        part *= SINGULAR_NORM_MAX / norm
        norm = SINGULAR_NORM_MAX
    if kind == "DD":
        floor = (1.0 - norm) * PI**2
    else:
        floor = (1.0 - 2.0 * norm) * PI**2 / 4.0
    drift = LAM1_SQ_MIN - floor + rng.uniform(0.0, DRIFT_SPAN)
    return part + drift * x, floor + drift


def _certified(rng, K: int) -> tuple:
    fixed = {1, 2, K // 2, K - 1, K}
    extra = rng.choice(np.arange(3, K - 1), size=CERTIFIED_RANDOM, replace=False)
    return tuple(sorted(fixed | {int(k) for k in extra}))


def _oracles():
    # The constant potentials named by the acceptance suite: sigma = 2x for
    # DD/ND/DN, sigma = x with h = 1 for NT.
    return [Oracle("DD", 2.0), Oracle("NT", 1.0), Oracle("ND", 2.0), Oracle("DN", 2.0)]


def _inverse_large(rng):
    # Fixed analytic data: the seed does not change these inputs.
    K, M = 128, 1024
    return [
        Op(f"oracle-{o.kind}", "inverse", "oracle", o.kind, data_json_text(o, K),
           flags=("--grid", str(M)), count=K, grid=M, oracle=o)
        for o in (Oracle("DD", 2.0), Oracle("NT", 1.0))
    ]


def _direct_op(name, role, kind, sigma, count, oracle=None, lam1_sq_min=None,
               certified=()):
    h = oracle.h if oracle is not None else None
    return Op(name, "direct", role, kind, sigma_csv_text(sigma),
              flags=("--count", str(count)) + _kind_flags(kind, h), count=count,
              oracle=oracle, sigma=sigma, lam1_sq_min=lam1_sq_min,
              certified=certified)


def _direct_fine(rng):
    K, M = 128, 1024
    ops = [_direct_op(f"oracle-{o.kind}", "oracle", o.kind, o.sigma(M), K, o)
           for o in _oracles()]
    for shape in ("coulomb", "jumps"):
        for kind in ("DD", "ND"):
            sigma, bound = singular_sigma(rng, shape, kind, M)
            ops.append(_direct_op(f"{shape}-{kind}", "singular", kind, sigma, K,
                                  lam1_sq_min=bound, certified=_certified(rng, K)))
    # The scan-window defect inputs: lambda_1 lies outside the seed solver's
    # bracket window, so these raise NumericalError(stage="bracket") there.
    for c, count in ((60.0, 1), (60.0, 3), (-9.0, 3), (-9.0, 4)):
        o = Oracle("DD", c)
        ops.append(_direct_op(f"known-defect-{c:g}x-count{count}", "known-defect",
                              "DD", o.sigma(M), count, o))
    return ops


def _roundtrip_op(name, role, kind, sigma, oracle=None):
    h = oracle.h if oracle is not None else None
    # --grid and --count are left at the CLI defaults.
    return Op(name, "roundtrip", role, kind, sigma_csv_text(sigma),
              flags=_kind_flags(kind, h), count=64, grid=256, oracle=oracle,
              sigma=sigma)


def _roundtrip_small(rng):
    ops = [_roundtrip_op(f"oracle-{o.kind}", "oracle", o.kind, o.sigma(256), o)
           for o in _oracles()]
    # Finer input grid than the reconstruction grid, so resampling runs.
    for shape, kind in (("coulomb", "DD"), ("jumps", "ND")):
        sigma, _ = singular_sigma(rng, shape, kind, 1024)
        ops.append(_roundtrip_op(f"{shape}-{kind}", "singular", kind, sigma))
    return ops


_OP_LISTS = {
    "inverse-large": _inverse_large,
    "direct-fine": _direct_fine,
    "roundtrip-small": _roundtrip_small,
}
WORKLOADS = tuple(_OP_LISTS)


def build(workload: str, seed: int) -> list:
    """The workload's op list; the same seed gives the same inputs."""
    return _OP_LISTS[workload](np.random.default_rng(seed))


def probe_ops() -> list:
    """The fixed warm-up op pair run at set-up by every workload.

    It also supplies the accuracy figures a workload's own ops do not produce.
    """
    # The smallest size at which the round trip meets the acceptance
    # suite's round-trip tolerances.
    o = Oracle("DD", 2.0)
    sigma = o.sigma(128)
    return [
        _direct_op("probe-direct", "oracle", "DD", sigma, 32, o),
        Op("probe-roundtrip", "roundtrip", "oracle", "DD", sigma_csv_text(sigma),
           flags=("--grid", "128", "--count", "32"), count=32, grid=128,
           oracle=o, sigma=sigma),
    ]
