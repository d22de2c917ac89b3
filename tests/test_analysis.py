import math

import numpy as np
import pytest

from slspec import (
    BoundaryKind,
    CharParams,
    GridFunction,
    NumericalError,
    StructuralError,
    gauge_removed_distance,
    isospectral_member,
    reconstruct,
    riesz_condition,
    roundtrip_report,
    shift_spectrum,
    stability_probe,
)

from conftest import (
    base_data,
    const_potential_data,
    linear_sigma,
    nodes,
    step_sigma,
    zero_sigma,
)

PI = math.pi
DD = BoundaryKind.DD
M = 256

# Frozen from this package's own runs (doubled checks live in test_glm);
# deterministic under the fixed seed and grid.
STABILITY_CONST_POT_GOLDEN = 0.015567687385009948
RIESZ_PERTURBED_GOLDEN = 1.1061689078417603


class TestRoundTrip:
    def test_zero_sigma(self):
        report = roundtrip_report(zero_sigma(), 16, CharParams(DD), M)
        assert report.l2_error <= 1e-10
        assert np.max(report.spectral_replay_errors) <= 1e-10
        assert report.margin == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("c", [-0.7, 1.3])
    def test_constant_sigma_is_gauge(self, c):
        # constant sigma means q = 0: the data is the base data and the
        # reconstruction differs from the input by the removed constant only
        sig = GridFunction(np.full(M + 1, c))
        report = roundtrip_report(sig, 16, CharParams(DD), M)
        assert report.l2_error <= 1e-10

    def test_constant_potential_truncation_decay(self):
        r64 = roundtrip_report(linear_sigma(2.0), 64, CharParams(DD), M)
        assert r64.l2_error <= 0.1
        r128 = roundtrip_report(linear_sigma(2.0), 128, CharParams(DD), M)
        assert r128.l2_error < r64.l2_error

    def test_step_sigma(self):
        report = roundtrip_report(step_sigma(), 64, CharParams(DD), M)
        assert report.l2_error <= 0.15
        assert np.max(report.spectral_replay_errors[:10]) <= 1e-3


class TestIsospectral:
    def test_zero_coordinates(self):
        rec = isospectral_member(PI * np.arange(1, 17), np.zeros(16), DD, M)
        assert np.all(rec.sigma.values == 0.0)

    def test_member_replays_spectrum(self):
        beta = np.zeros(10)
        beta[0] = 0.25
        rec = isospectral_member(PI * np.arange(1, 11), beta, DD, M)
        err, _ = gauge_removed_distance(rec.sigma, zero_sigma())
        assert err > 0.01
        from slspec import direct_spectral_data

        replay = direct_spectral_data(rec.sigma, 10, CharParams(DD))
        assert np.max(np.abs(replay.lam - PI * np.arange(1, 11))) <= 1e-3

    def test_distinct_members_same_spectrum(self):
        lam = PI * np.arange(1, 11)
        beta_a = np.zeros(10)
        beta_a[0] = 0.25
        beta_b = np.zeros(10)
        beta_b[0] = -0.2
        rec_a = isospectral_member(lam, beta_a, DD, M)
        rec_b = isospectral_member(lam, beta_b, DD, M)
        dist, _ = gauge_removed_distance(rec_a.sigma, rec_b.sigma)
        assert dist >= 0.05
        from slspec import eigenvalues

        for rec in (rec_a, rec_b):
            replay = eigenvalues(rec.sigma, 10, CharParams(DD))
            assert np.max(np.abs(replay - lam)) <= 1e-3

    def test_inadmissible_coordinates(self):
        from slspec import SpectralValidationError

        with pytest.raises(SpectralValidationError) as exc:
            isospectral_member([PI, 2 * PI], [-1.5, 0.0], DD, M)
        codes = [v.code for v in exc.value.report.violations]
        assert codes == ["A2:nonpositive-alpha"]


class TestStability:
    def test_zero_eps_zero_error(self):
        rows = stability_probe(base_data(K=16), [0.0], M, seed=3)
        assert rows[0].sigma_error == 0.0
        assert rows[0].eps == 0.0

    def test_local_linearity_ratio(self):
        rows = stability_probe(base_data(), [1e-3, 1e-2], M, seed=0)
        ratio = rows[1].sigma_error / rows[0].sigma_error
        assert 5.0 <= ratio <= 20.0

    def test_monotone_in_eps(self):
        rows = stability_probe(base_data(K=32), [1e-4, 1e-3, 1e-2, 3e-2], M, seed=1)
        errors = [r.sigma_error for r in rows]
        for small, large in zip(errors, errors[1:]):
            assert large >= 0.9 * small  # 10% slack for the random direction

    def test_constant_potential_golden(self):
        rows = stability_probe(const_potential_data(64), [1e-2], M, seed=0)
        assert rows[0].sigma_error <= 0.2
        assert rows[0].sigma_error == pytest.approx(
            STABILITY_CONST_POT_GOLDEN, rel=1e-6
        )

    def test_exhausted_draws_diagnosed(self):
        # an enormous eps makes every draw break monotonicity of lambda
        with pytest.raises(NumericalError) as exc:
            stability_probe(base_data(K=8), [1e6], M, seed=0)
        assert exc.value.stage == "stability"


class TestRieszCondition:
    def test_orthonormal_sine(self):
        assert riesz_condition(PI * np.arange(1, 17), "sine") == pytest.approx(
            1.0, abs=1e-10
        )

    def test_orthonormal_cosine(self):
        lam = PI * (np.arange(1, 17) - 0.5)
        assert riesz_condition(lam, "cosine") == pytest.approx(1.0, abs=1e-10)

    def test_perturbed_golden(self):
        lam = PI * np.arange(1, 17) + 0.1 / np.arange(1, 17)
        cond = riesz_condition(lam, "sine")
        assert cond <= 1.5
        assert cond == pytest.approx(RIESZ_PERTURBED_GOLDEN, rel=1e-6)

    def test_near_duplicate_blows_up(self):
        lam = PI * np.arange(1, 17).astype(float)
        lam[1] = lam[0] + 1e-3
        assert riesz_condition(np.sort(lam), "sine") > 1e3

    def test_requires_increasing_positive(self):
        with pytest.raises(StructuralError):
            riesz_condition([2.0, 1.0], "sine")
        with pytest.raises(StructuralError):
            riesz_condition([-1.0, 1.0], "sine")
        with pytest.raises(StructuralError):
            riesz_condition([1.0, 2.0], "fourier")


class TestGaugeCovariance:
    def test_shift_moves_sigma_by_cx(self):
        data = const_potential_data(64)
        rec = reconstruct(data, M)
        rec_shifted = reconstruct(shift_spectrum(data, 1.0), M)
        diff = GridFunction(rec_shifted.sigma.values - rec.sigma.values)
        err, _ = gauge_removed_distance(diff, GridFunction(nodes(M)))
        assert err <= 0.2  # twice the single-reconstruction error bound
