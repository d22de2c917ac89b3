"""Acceptance suite: every shipped capability at its contract tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
Runtime budgets are measured in-process around the computation under test.
"""

import json
import math
import time

import numpy as np
import pytest

from slspec import (
    BoundaryKind,
    CharParams,
    KernelF,
    assemble_phi,
    direct_spectral_data,
    eigenvalues,
    factorization_residual,
    gauge_removed_distance,
    positivity_margin,
    read_sigma_csv,
    reconstruct,
    riesz_condition,
    roundtrip_report,
    solve_glm,
    stability_probe,
    write_data_json,
)
from slspec.cli import DEFAULT_SEED, main

from conftest import (
    base_data,
    const_potential_data,
    linear_sigma,
    margin_crossing_data,
    nt_shifted_data,
    step_sigma,
    zero_sigma,
)

PI = math.pi
M = 256
DD = BoundaryKind.DD


def report(num, name, ok):
    print(f"\n[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_01_zero_data_identity(tmp_path):
    data = base_data(K=64)
    path = tmp_path / "base.json"
    write_data_json(path, data)
    out = tmp_path / "sigma.csv"

    start = time.perf_counter()
    code = main(["inverse", "--input", str(path), "--output", str(out)])
    elapsed = time.perf_counter() - start

    sigma = read_sigma_csv(out)
    rec = reconstruct(data, M)
    ok = (
        code == 0
        and np.max(np.abs(rec.phi.values)) <= 1e-14
        and np.max(np.abs(sigma.values)) <= 1e-12
        and elapsed < 1.0
    )
    report(1, f"zero-data identity ({elapsed:.2f}s)", ok)


def test_02_constant_potential_direct():
    sigma = linear_sigma(2.0)
    start = time.perf_counter()
    data = direct_spectral_data(sigma, 16, CharParams(DD))
    elapsed = time.perf_counter() - start

    k = np.arange(1, 17)
    lam_err = np.max(np.abs(data.lam - np.sqrt(PI**2 * k**2 + 2)))
    alpha_err = np.max(np.abs(data.alpha - (1 + 2 / (PI**2 * k**2))))
    ok = lam_err <= 1e-8 and alpha_err <= 1e-6 and elapsed < 5.0
    report(2, f"constant-potential direct (lam {lam_err:.1e}, alpha {alpha_err:.1e}, "
              f"{elapsed:.2f}s)", ok)


def test_03_constant_potential_inverse():
    target = linear_sigma(2.0)
    start = time.perf_counter()
    rec64 = reconstruct(const_potential_data(64), M)
    rec128 = reconstruct(const_potential_data(128), M)
    elapsed = time.perf_counter() - start

    err64, _ = gauge_removed_distance(rec64.sigma, target)
    err128, _ = gauge_removed_distance(rec128.sigma, target)
    ok = err64 <= 0.1 and err128 < err64 and elapsed < 10.0
    report(3, f"constant-potential inverse (K=64: {err64:.3f}, K=128: {err128:.3f}, "
              f"{elapsed:.2f}s)", ok)


def test_04_step_potential_roundtrip():
    start = time.perf_counter()
    rt = roundtrip_report(step_sigma(), 64, CharParams(DD), M)
    elapsed = time.perf_counter() - start

    replay_err = np.max(rt.spectral_replay_errors[:10])
    ok = rt.l2_error <= 0.15 and replay_err <= 1e-3 and elapsed < 30.0
    report(4, f"step-potential round trip (L2 {rt.l2_error:.3f}, replay "
              f"{replay_err:.1e}, {elapsed:.2f}s)", ok)


def test_05_positivity_gate(tmp_path):
    margins = [
        reconstruct(base_data(K=64), M).positivity_margin,
        reconstruct(
            direct_spectral_data(linear_sigma(2.0), 16, CharParams(DD)), M
        ).positivity_margin,
        reconstruct(const_potential_data(64), M).positivity_margin,
        reconstruct(const_potential_data(128), M).positivity_margin,
        reconstruct(
            direct_spectral_data(step_sigma(), 64, CharParams(DD)), M
        ).positivity_margin,
    ]
    all_positive = all(m > 0 for m in margins)

    path = tmp_path / "crossing.json"
    write_data_json(path, margin_crossing_data())
    out = tmp_path / "sigma.csv"
    code = main(["inverse", "--input", str(path), "--output", str(out),
                 "--grid", "16"])
    refused = code == 2 and not out.exists()
    ok = all_positive and refused
    report(5, f"positivity gate (margins {[round(m, 3) for m in margins]}, "
              f"refusal exit {code})", ok)


def test_06_factorization_residual():
    worst = 0.0
    for data in (base_data(K=64), const_potential_data(64), const_potential_data(128)):
        phi = assemble_phi(data, M)
        f = KernelF(phi, data.kind)
        kernel = solve_glm(f)
        worst = max(worst, factorization_residual(kernel, f))
    ok = worst <= 5e-3
    report(6, f"factorization residual (max {worst:.1e})", ok)


def test_07_isospectral_verification():
    lam = PI * np.arange(1, 11)
    alpha = np.ones(10)
    alpha[0] = 1.25
    from slspec import SpectralData

    rec = reconstruct(SpectralData(DD, lam, alpha), M)
    nonconst, _ = gauge_removed_distance(rec.sigma, zero_sigma())
    replay = direct_spectral_data(rec.sigma, 10, CharParams(DD))
    lam_err = np.max(np.abs(replay.lam - lam))
    alpha1_err = abs(replay.alpha[0] - 1.25)
    ok = nonconst >= 0.01 and lam_err <= 1e-3 and alpha1_err <= 0.01
    report(7, f"isospectral verification (L2 {nonconst:.3f}, lam {lam_err:.1e}, "
              f"alpha1 {alpha1_err:.1e})", ok)


def test_08_other_boundary_kinds():
    nt = nt_shifted_data(64)
    rec_nt = reconstruct(nt, M)
    replay = eigenvalues(rec_nt.sigma, 8, CharParams(BoundaryKind.NT, h=rec_nt.h))
    nt_err = np.max(np.abs(replay - nt.lam[:8]))

    nd = base_data(BoundaryKind.ND, K=64)
    rec_nd = reconstruct(nd, M)
    nd_dev = np.max(np.abs(rec_nd.sigma.values - rec_nd.sigma.values.mean()))
    ok = nt_err <= 1e-3 and nd_dev <= 1e-10
    report(8, f"other boundary kinds (NT replay {nt_err:.1e}, ND const dev "
              f"{nd_dev:.1e})", ok)


def test_09_stability_probe():
    rows = stability_probe(base_data(K=64), [1e-3, 1e-2], M, seed=DEFAULT_SEED)
    ratio = rows[1].sigma_error / rows[0].sigma_error
    ok = 5.0 <= ratio <= 20.0
    report(9, f"stability probe (ratio {ratio:.2f})", ok)


def test_10_riesz_diagnostic():
    sine = riesz_condition(PI * np.arange(1, 17), "sine")
    cosine = riesz_condition(PI * (np.arange(1, 17) - 0.5), "cosine")
    lam = PI * np.arange(1, 17).astype(float)
    lam[1] = lam[0] + 1e-3
    blown = riesz_condition(np.sort(lam), "sine")
    ok = abs(sine - 1.0) <= 1e-10 and abs(cosine - 1.0) <= 1e-10 and blown > 1e3
    report(10, f"riesz diagnostic (sine {sine:.12f}, cosine {cosine:.12f}, "
               f"near-duplicate {blown:.1e})", ok)


def test_11_determinism(tmp_path):
    sig_path = tmp_path / "sigma.csv"
    from slspec import write_sigma_csv

    write_sigma_csv(sig_path, step_sigma())
    data_outs, sigma_outs, table_outs = [], [], []
    for tag in ("one", "two"):
        dpath = tmp_path / f"data-{tag}.json"
        assert main(["direct", "--input", str(sig_path), "--output", str(dpath),
                     "--count", "16"]) == 0
        data_outs.append(dpath.read_bytes())
        spath = tmp_path / f"rec-{tag}.csv"
        assert main(["inverse", "--input", str(dpath), "--output", str(spath)]) == 0
        sigma_outs.append(spath.read_bytes())
        tpath = tmp_path / f"tab-{tag}.csv"
        assert main(["stability", "--input", str(dpath), "--output", str(tpath)]) == 0
        table_outs.append(tpath.read_bytes())
    ok = (
        data_outs[0] == data_outs[1]
        and sigma_outs[0] == sigma_outs[1]
        and table_outs[0] == table_outs[1]
    )
    report(11, "determinism (byte-identical reruns)", ok)
