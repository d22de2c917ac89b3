"""Output checks: analytic oracles, index certificates and replay errors.

Outputs are parsed here, not with the program's readers. Tolerances are the
acceptance suite's contract values where one applies. A check that fails
raises :class:`CheckError`; a passing check returns the accuracy figures it
measured.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import Op, nodes

LAM_TOL = 1e-8              # acceptance 02: |lambda - oracle|
ALPHA_RTOL = 1e-6           # acceptance 02: alpha error (alpha ~ 1, taken relative)
BRACKET_RTOL = 2e-10        # twice the direct solver's refinement contract
INVERSE_L2_TOL = 0.1        # acceptance 03: gauge-removed L2 of an inverse solve
ROUNDTRIP_L2_TOL = 0.15     # acceptance 04: gauge-removed L2 after a round trip
REPLAY_TOL = 1e-3           # acceptances 04 and 08, over the first REPLAY_MODES
REPLAY_MODES = 10
# Away from the truncation layer at x = 1 the oracle inverse error is about
# 0.015 (DD, K=128, M=1024); a corrupted CSV row shows up here even when the
# L2 norm cannot see it.
INTERIOR_X = 0.9
INTERIOR_TOL = 0.05


class CheckError(Exception):
    """An output that contradicts its oracle, certificate or format."""


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def sign_changes(values: np.ndarray) -> int:
    """Sign changes of a sequence, skipping exact zeros."""
    s = np.sign(values)
    s = s[s != 0]
    return int(np.count_nonzero(s[:-1] != s[1:]))


def gauge_errors(values: np.ndarray, reference: np.ndarray):
    """(L2 distance, max interior deviation) after removing the mean offset.

    Trapezoid quadrature on the nodes, as the program's own report uses.
    """
    diff = values - reference
    w = np.full(diff.size, 1.0 / (diff.size - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    diff = diff - w @ diff
    interior = nodes(diff.size - 1) <= INTERIOR_X
    return math.sqrt(w @ (diff * diff)), float(np.max(np.abs(diff[interior])))


def parse_sigma_csv(text: str, M: int) -> np.ndarray:
    """Node values of an ``x,sigma`` CSV that must sit on the uniform M-grid."""
    lines = text.split("\n")
    _require(lines[0] == "x,sigma" and lines[-1] == "", "bad CSV header or ending")
    rows = lines[1:-1]
    _require(len(rows) == M + 1, f"CSV has {len(rows)} rows, expected {M + 1}")
    try:
        table = np.array([[float(t) for t in row.split(",")] for row in rows])
    except ValueError as exc:
        raise CheckError(f"non-numeric CSV row: {exc}") from exc
    _require(table.shape == (M + 1, 2), "CSV rows must be 'x,sigma'")
    _require(np.array_equal(table[:, 0], nodes(M)), "x column is not the grid i/M")
    _require(np.all(np.isfinite(table[:, 1])), "non-finite sigma value")
    return table[:, 1]


def _json(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"invalid JSON: {exc}") from exc
    _require(isinstance(obj, dict), "expected a JSON object")
    return obj


def _floats(obj, key, size):
    values = np.array(obj.get(key, ()), dtype=float)
    _require(values.shape == (size,), f"{key!r} has shape {values.shape}, expected ({size},)")
    _require(np.all(np.isfinite(values)), f"non-finite entry in {key!r}")
    return values


def check_direct(op: Op, text: str, sl) -> dict:
    obj = _json(text)
    _require(obj.get("kind") == op.kind, f"kind {obj.get('kind')!r} != {op.kind}")
    h = op.oracle.h if op.oracle is not None else None
    _require(obj.get("h") == h, f"h {obj.get('h')!r} != {h!r}")
    lam = _floats(obj, "lambda", op.count)
    alpha = _floats(obj, "alpha", op.count)
    _require(lam[0] > 0 and np.all(np.diff(lam) > 0), "lambda not positive increasing")
    _require(np.all(alpha > 0), "nonpositive alpha")
    if op.oracle is not None:
        lam_err = float(np.max(np.abs(lam - op.oracle.lam(op.count))))
        alpha_err = float(np.max(np.abs(alpha / op.oracle.alpha(op.count) - 1.0)))
        _require(lam_err <= LAM_TOL, f"lambda error {lam_err:.3e} > {LAM_TOL}")
        _require(alpha_err <= ALPHA_RTOL, f"alpha error {alpha_err:.3e} > {ALPHA_RTOL}")
        return {"lam_err": lam_err, "alpha_err": alpha_err}
    _require(lam[0] ** 2 >= op.lam1_sq_min * (1 - 1e-12),
             f"lambda_1^2 = {lam[0] ** 2:.6g} below the proved bound {op.lam1_sq_min:.6g}")
    _certify(op, lam, alpha, sl)
    return {}


def _certify(op: Op, lam, alpha, sl) -> None:
    """Index certificate: the k-th eigenfunction has k-1 interior zeros.

    Each certified lambda_k must also bracket a sign change of the boundary
    residual within the solver's refinement contract (1e-10 relative, taken
    twice) and carry the norm of its shot as alpha_k. Certifying k = 1 and
    k = K of a strictly increasing list of K eigenvalues pins every index in
    between; the other certified indices are sampled.
    """
    sigma = sl.GridFunction(op.sigma)
    params = sl.CharParams(sl.BoundaryKind(op.kind))
    for k in op.certified:
        lam_k = float(lam[k - 1])
        shot = sl.shoot(sigma, lam_k, params.kind, with_trajectory=True)
        zeros = sign_changes(shot.trajectory[1:-1, 0])
        _require(zeros == k - 1, f"lambda_{k} eigenfunction has {zeros} interior zeros")
        eps = BRACKET_RTOL * max(1.0, lam_k)
        below = sl.characteristic(sigma, lam_k - eps, params)
        above = sl.characteristic(sigma, lam_k + eps, params)
        _require(below * above <= 0.0, f"lambda_{k} does not bracket a root within {eps:.1e}")
        _require(abs(shot.l2norm_sq / alpha[k - 1] - 1.0) <= ALPHA_RTOL,
                 f"alpha_{k} disagrees with the shot norm")


def check_inverse(op: Op, csv_text: str, sidecar_text: str, sl) -> dict:
    sigma = parse_sigma_csv(csv_text, op.grid)
    side = _json(sidecar_text)
    _require(side.get("kind") == op.kind and side.get("grid") == op.grid
             and side.get("modes") == op.count, "sidecar kind/grid/modes mismatch")
    _require(side.get("sigma_csv") == op.output_names[0], "sidecar names another CSV")
    margin = side.get("positivity_margin")
    _require(isinstance(margin, float) and margin > 0, f"positivity margin {margin!r}")
    l2, interior = gauge_errors(sigma, op.oracle.sigma(op.grid))
    _require(l2 <= INVERSE_L2_TOL, f"sigma L2 error {l2:.4f} > {INVERSE_L2_TOL}")
    _require(interior <= INTERIOR_TOL, f"interior sigma error {interior:.4f} > {INTERIOR_TOL}")
    h = side.get("h")
    if op.oracle.h is None:
        _require(h is None, f"h {h!r} for kind {op.kind}")
    else:
        _require(isinstance(h, float) and math.isfinite(h), f"h {h!r}")
    # Replay with the recovered h, which absorbs the gauge shift.
    params = sl.CharParams(sl.BoundaryKind(op.kind), h=h or 0.0)
    replay = sl.eigenvalues(sl.GridFunction(sigma), REPLAY_MODES, params)
    replay_err = float(np.max(np.abs(replay - op.oracle.lam(REPLAY_MODES))))
    _require(replay_err <= REPLAY_TOL, f"replay error {replay_err:.3e} > {REPLAY_TOL}")
    return {"sigma_l2_err": l2, "replay_err": replay_err}


def check_roundtrip(op: Op, text: str, sl) -> dict:
    obj = _json(text)
    sigma_in = _floats(obj, "sigma_in", op.sigma.size)
    _require(np.array_equal(sigma_in, op.sigma), "sigma_in is not the input")
    sigma_out = _floats(obj, "sigma_out", op.grid + 1)
    if op.oracle is not None:
        reference = op.oracle.sigma(op.grid)
    else:
        reference = np.interp(nodes(op.grid), nodes(op.sigma.size - 1), op.sigma)
    l2, _ = gauge_errors(sigma_out, reference)
    reported = obj.get("l2_error")
    _require(isinstance(reported, float) and abs(reported - l2) <= 1e-9 * max(1.0, l2),
             f"reported l2_error {reported!r} != {l2!r}")
    if op.oracle is not None:
        _require(l2 <= ROUNDTRIP_L2_TOL, f"sigma L2 error {l2:.4f} > {ROUNDTRIP_L2_TOL}")
    else:
        # The acceptance tolerance is set for one step; a seeded multi-part
        # sigma is held to its spectral replay below and to beating the
        # constant reconstruction.
        spread, _ = gauge_errors(reference, np.zeros_like(reference))
        _require(l2 < spread, f"sigma L2 error {l2:.4f} >= the input's own spread {spread:.4f}")
    replay = _floats(obj, "spectral_replay_errors", op.count)
    _require(np.all(replay >= 0), "negative replay error")
    replay_err = float(np.max(replay[:REPLAY_MODES]))
    _require(replay_err <= REPLAY_TOL, f"replay error {replay_err:.3e} > {REPLAY_TOL}")
    margin = obj.get("margin")
    _require(isinstance(margin, float) and margin > 0, f"positivity margin {margin!r}")
    return {"sigma_l2_err": l2, "replay_err": replay_err}


def check(op: Op, outputs: list, sl) -> dict:
    """Check an op's output texts (in ``op.output_names`` order)."""
    if op.command == "direct":
        return check_direct(op, outputs[0], sl)
    if op.command == "inverse":
        return check_inverse(op, outputs[0], outputs[1], sl)
    return check_roundtrip(op, outputs[0], sl)
