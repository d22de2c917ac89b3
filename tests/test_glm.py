import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slspec import (
    BoundaryKind,
    CharParams,
    GridFunction,
    KernelF,
    NumericalError,
    SpectralData,
    SpectralValidationError,
    StructuralError,
    assemble_phi,
    direct_spectral_data,
    factorization_residual,
    gauge_removed_distance,
    positivity_margin,
    reconstruct,
    recover_h,
    recover_sigma,
    solve_glm,
)
from slspec.glm import PhiTable, TriangularKernel, glm_residual, kernel_hs_norm

from conftest import (
    base_data,
    const_potential_data,
    linear_sigma,
    margin_crossing_data,
    nodes,
    nt_shifted_data,
    zero_sigma,
)

PI = math.pi
DD = BoundaryKind.DD
NT = BoundaryKind.NT
ND = BoundaryKind.ND
M = 256


def rank_one_data(K=8, alpha1=1.25):
    alpha = np.ones(K)
    alpha[0] = alpha1
    return SpectralData(DD, PI * np.arange(1, K + 1), alpha)


def zero_phi(m=M):
    return PhiTable(np.zeros(2 * m + 1))


class TestAssemblePhi:
    def test_base_data_identically_zero(self):
        for K in (1, 16, 64):
            phi = assemble_phi(base_data(K=K), M)
            assert np.all(phi.values == 0.0)

    def test_single_perturbed_mode(self):
        # beta_1/alpha_1 = 0.25/1.25 = 0.2 survives the cancellation
        phi = assemble_phi(rank_one_data(), M)
        s = np.arange(2 * M + 1) / M
        assert np.max(np.abs(phi.values - 0.2 * np.cos(PI * s))) <= 1e-12
        assert phi.values[0] == pytest.approx(0.2, abs=1e-14)
        assert phi.values[M] == pytest.approx(-0.2, abs=1e-14)

    def test_neumann_zero_frequency_mode_half_weight(self):
        # The k=1 base mode of the NT kind is the constant; it enters with the
        # DC coefficient 1/2, so this dataset's table is cos(s)/2 - 1/2.
        data = SpectralData(NT, [1.0, PI, 2 * PI], [2.0, 1.0, 1.0])
        phi = assemble_phi(data, M)
        s = np.arange(2 * M + 1) / M
        assert np.max(np.abs(phi.values - (np.cos(s) / 2 - 0.5))) <= 1e-12
        assert phi.values[0] == pytest.approx(0.0, abs=1e-14)

    def test_invalid_data_rejected(self):
        bad = SpectralData(DD, [PI, PI, 3 * PI], np.ones(3))
        with pytest.raises(SpectralValidationError) as exc:
            assemble_phi(bad, M)
        assert exc.value.report is not None

    def test_grid_matches_sigma_grid(self):
        phi = assemble_phi(base_data(K=4), 64)
        assert phi.values.size == 129
        assert phi.M == 64


class TestKernelF:
    def test_zero_phi(self):
        f = KernelF(zero_phi(), DD)
        assert np.all(f.matrix == 0.0)

    def test_rank_one_sine(self):
        s = np.arange(2 * M + 1) / M
        f = KernelF(PhiTable(0.2 * np.cos(PI * s)), DD)
        x = nodes(M)
        truth = -0.4 * np.outer(np.sin(PI * x), np.sin(PI * x))
        assert np.max(np.abs(f.matrix - truth)) <= 1e-12

    def test_rank_one_cosine(self):
        gamma = 0.3
        s = np.arange(2 * M + 1) / M
        f = KernelF(PhiTable(gamma * np.cos(PI * s)), NT)
        x = nodes(M)
        truth = 2 * gamma * np.outer(np.cos(PI * x), np.cos(PI * x))
        assert np.max(np.abs(f.matrix - truth)) <= 1e-12

    def test_diagonal_rule(self):
        s = np.arange(2 * M + 1) / M
        table = np.cos(1.7 * s) + 0.1 * s
        fd = KernelF(PhiTable(table), DD).matrix
        fn = KernelF(PhiTable(table), NT).matrix
        i = np.arange(M + 1)
        assert np.array_equal(np.diag(fd), table[2 * i] - table[0])
        assert np.array_equal(np.diag(fn), table[2 * i] + table[0])

    @given(seed=st.integers(0, 2**31 - 1),
           kind=st.sampled_from([DD, NT, ND, BoundaryKind.DN]))
    @settings(max_examples=25, deadline=None)
    def test_symmetry_exact(self, seed, kind):
        rng = np.random.default_rng(seed)
        f = KernelF(PhiTable(rng.standard_normal(2 * 16 + 1)), kind).matrix
        assert np.array_equal(f, f.T)


class TestPositivityMargin:
    def test_zero_kernel(self):
        assert positivity_margin(KernelF(zero_phi(), DD)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_rank_one_eigenvalue(self):
        f = KernelF(assemble_phi(rank_one_data(), M), DD)
        assert positivity_margin(f) == pytest.approx(0.8, abs=5e-3)

    def test_engineered_data_crosses_zero(self):
        data = margin_crossing_data()
        f = KernelF(assemble_phi(data, 16), DD)
        assert positivity_margin(f) <= 0.0


class TestSolveGlm:
    def test_zero_kernel(self):
        ker = solve_glm(KernelF(zero_phi(), DD))
        assert np.all(ker.values == 0.0)

    def test_rank_one_closed_form(self):
        # substituting k(x,y) = c(x) sin(pi y) into the integral equation
        # gives c(x) = 2 g sin(pi x) / (1 - 2 g I(x)), I(x) = x/2 - sin(2pi x)/(4pi)
        gamma = 0.2
        f = KernelF(assemble_phi(rank_one_data(), M), DD)
        ker = solve_glm(f)
        assert ker.values[M // 2, M // 2] == pytest.approx(0.4 / 0.9, abs=1e-3)
        x = nodes(M)
        I_x = x / 2 - np.sin(2 * PI * x) / (4 * PI)
        c = 2 * gamma * np.sin(PI * x) / (1 - 2 * gamma * I_x)
        truth = np.tril(np.outer(c, np.sin(PI * x)))
        assert np.max(np.abs(ker.values - truth)) <= 1e-3

    def test_refuses_nonpositive_margin(self):
        f = KernelF(assemble_phi(margin_crossing_data(), 16), DD)
        with pytest.raises(NumericalError) as exc:
            solve_glm(f)
        assert exc.value.stage == "positivity"

    def test_margin_is_keyword_only(self):
        # a positional second argument is refused, not taken as the grid size
        with pytest.raises(TypeError):
            solve_glm(KernelF(zero_phi(), DD), 16)

    def test_margin_computed_once_per_f(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        f = KernelF(zero_phi(), DD)
        assert positivity_margin(f) == pytest.approx(1.0, abs=1e-12)
        solve_glm(f)
        assert len(calls) == 1

    def test_margin_cannot_be_supplied(self):
        # the certificate is always computed from f: a caller's margin would
        # let indefinite data through (its kernel reaches entries of 317)
        f = KernelF(assemble_phi(margin_crossing_data(), 16), DD)
        with pytest.raises(TypeError):
            solve_glm(f, margin=1.0)

    def test_constant_potential_rows_track_doubled_resolution(self):
        data = const_potential_data(64)
        k256 = reconstruct(data, 256).kernel
        k512 = reconstruct(data, 512).kernel
        row_max = np.array([
            np.max(np.abs(k256.values[i, : i + 1] - k512.values[2 * i, : 2 * i + 1 : 2]))
            for i in range(257)
        ])
        # interior rows agree tightly; the last two rows sit in the
        # truncation boundary layer at x = 1 and carry its full gradient
        assert np.max(row_max[:-2]) <= 1e-4
        assert np.max(row_max[-2:]) <= 2e-4

    def test_row_shapes(self):
        ker = solve_glm(KernelF(assemble_phi(rank_one_data(), 32), DD))
        for i in (0, 1, 17, 32):
            assert ker.row(i).shape == (i + 1,)
        assert np.all(np.triu(ker.values, k=1) == 0.0)


class TestRecoverSigma:
    def test_zero_inputs(self):
        sig = recover_sigma(
            TriangularKernel(np.zeros((M + 1, M + 1))), KernelF(zero_phi(), DD)
        )
        assert np.all(sig.values == 0.0)

    def test_rank_one_closed_form(self):
        gamma = 0.2
        phi = assemble_phi(rank_one_data(), M)
        f = KernelF(phi, DD)
        ker = solve_glm(f)
        sig = recover_sigma(ker, f)
        x = nodes(M)
        I_x = x / 2 - np.sin(2 * PI * x) / (4 * PI)
        c = 2 * gamma * np.sin(PI * x) / (1 - 2 * gamma * I_x)
        truth = -2 * gamma * np.cos(2 * PI * x) + 4 * gamma * c * np.sin(PI * x) * I_x
        assert np.max(np.abs(sig.values - truth)) <= 1e-3

    def test_grid_mismatch(self):
        phi = assemble_phi(rank_one_data(), M)
        with pytest.raises(StructuralError):
            recover_sigma(
                TriangularKernel(np.zeros((129, 129))), KernelF(phi, DD)
            )


class TestRecoverH:
    def test_nt_replay(self):
        # data of sigma = x with h = 1; the recovered pair must reproduce the
        # input spectrum through the direct solver
        data = nt_shifted_data(64)
        rec = reconstruct(data, M)
        replayed = direct_spectral_data(rec.sigma, 8, CharParams(NT, h=rec.h))
        assert np.max(np.abs(replayed.lam - data.lam[:8])) <= 1e-3

    def test_synthetic_h_consistent_with_gauge(self):
        data = direct_spectral_data(zero_sigma(), 48, CharParams(NT, h=1.0))
        rec = reconstruct(data, M)
        replay = direct_spectral_data(rec.sigma, 8, CharParams(NT, h=rec.h))
        assert np.max(np.abs(replay.lam - data.lam[:8])) <= 1e-3
        _, gauge = gauge_removed_distance(rec.sigma, zero_sigma())
        assert rec.h == pytest.approx(1.0 + gauge, abs=0.01)

    def test_dirichlet_data_rejected(self):
        # ND-type behaviour (u(1) = 0) probed as NT
        with pytest.raises(NumericalError) as exc:
            recover_h(zero_sigma(), PI / 2, NT)
        assert exc.value.stage == "recover_h"

    def test_wrong_kind(self):
        with pytest.raises(StructuralError):
            recover_h(zero_sigma(), PI, DD)


class TestReconstruct:
    def test_base_data(self):
        rec = reconstruct(base_data(), M)
        assert np.all(rec.sigma.values == 0.0)
        assert rec.positivity_margin == pytest.approx(1.0, abs=1e-12)
        assert rec.h is None
        assert rec.kernel_hs_norm == 0.0

    def test_constant_potential(self):
        rec = reconstruct(const_potential_data(64), M)
        err, _ = gauge_removed_distance(rec.sigma, linear_sigma(2.0))
        assert err <= 0.1

    def test_isospectral_data_replays(self):
        alpha = np.ones(10)
        alpha[0] = 1.25
        data = SpectralData(DD, PI * np.arange(1, 11), alpha)
        rec = reconstruct(data, M)
        err, _ = gauge_removed_distance(rec.sigma, zero_sigma())
        assert err > 0.01  # genuinely nonconstant
        replay = direct_spectral_data(rec.sigma, 10, CharParams(DD))
        assert np.max(np.abs(replay.lam - data.lam)) <= 1e-3
        assert replay.alpha[0] == pytest.approx(1.25, abs=0.01)

    def test_stage_name_on_failure(self):
        with pytest.raises(NumericalError) as exc:
            reconstruct(margin_crossing_data(), 16)
        assert exc.value.stage == "positivity"


class TestOperatorIdentities:
    def test_factorization_residual_small(self):
        for data in (base_data(), const_potential_data(64), const_potential_data(128)):
            phi = assemble_phi(data, M)
            f = KernelF(phi, DD)
            ker = solve_glm(f)
            assert factorization_residual(ker, f) <= 5e-3

    def test_glm_uniqueness_witness(self):
        # perturbing the solved kernel in one row strictly increases the
        # equation residual
        phi = assemble_phi(rank_one_data(), M)
        f = KernelF(phi, DD)
        ker = solve_glm(f)
        r_solved = np.max(glm_residual(ker, f))
        bumped = np.array(ker.values)
        bumped[M // 2, : M // 2 + 1] += 1e-3
        r_bumped = np.max(glm_residual(TriangularKernel(bumped), f))
        assert r_bumped > r_solved

    def test_hs_norm_is_weighted_entry_norm(self):
        phi = assemble_phi(rank_one_data(), 64)
        f = KernelF(phi, DD)
        ker = solve_glm(f)
        from slspec.glm import _row_weights
        from slspec.grid import trapezoid_weights

        manual = math.sqrt(
            float(
                np.sum(
                    trapezoid_weights(64)[:, None]
                    * _row_weights(64)
                    * ker.values**2
                )
            )
        )
        assert kernel_hs_norm(ker) == manual
