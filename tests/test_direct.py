import math

import numpy as np
import pytest

from slspec import (
    BoundaryKind,
    CharParams,
    GridFunction,
    NumericalError,
    StructuralError,
    characteristic,
    direct_spectral_data,
    eigenvalues,
    norming_constants,
    shoot,
    validate_spectral_data,
)

from slspec import direct
from slspec.direct import _characteristic_batch, _propagate

from conftest import linear_sigma, nodes, step_sigma, zero_sigma

PI = math.pi
SQRT2 = math.sqrt(2.0)

DD = BoundaryKind.DD
NT = BoundaryKind.NT
ND = BoundaryKind.ND
DN = BoundaryKind.DN

# Spectral data of the doubled-resolution (M=512) run on the freshly sampled
# step sigma = 0.8*1_{x>1/2}, DD, count=16; frozen as the self-consistency
# reference for the M=256 run.
STEP16_LAM = [
    3.377419087724503, 6.2831916994915655, 9.508872545063504,
    12.566383397977376, 15.758715115178543, 18.849575094085942,
    22.02744995803829, 25.132766786720076, 28.302576558980412,
    31.4159584747826, 34.58062337116105, 37.69915015699344,
    40.860246379008004, 43.98234183243831, 47.14081636152309,
    50.265533499654225,
]
STEP16_ALPHA = [
    1.0683462008987767, 1.0007810069806442, 1.0080477613867727,
    1.0007808893978105, 1.002438096946761, 1.0007806934696428,
    1.000868028484723, 1.000780419236825, 1.000218954625621,
    1.0007800667642437, 0.9998899169274064, 1.0007796361394494,
    0.999700698475434, 1.0007791274624336, 0.9995821526480994,
    1.0007785408604746,
]


class TestShoot:
    def test_free_dirichlet(self):
        # sigma = 0, lambda = pi: u = sqrt2 sin(pi x)
        res = shoot(zero_sigma(), PI, DD)
        assert abs(res.u1) < 1e-12
        assert res.du1 == pytest.approx(-SQRT2 * PI, abs=1e-11)
        assert res.l2norm_sq == pytest.approx(1.0, abs=1e-12)

    def test_free_neumann_dirichlet(self):
        # u = sqrt2 cos(pi x / 2)
        res = shoot(zero_sigma(), PI / 2, ND)
        assert abs(res.u1) < 1e-12
        assert res.l2norm_sq == pytest.approx(1.0, abs=1e-12)

    def test_constant_potential(self):
        # sigma = 2x: u = sqrt2 lam sin(pi x)/pi at lam^2 = pi^2 + 2
        lam = math.sqrt(PI**2 + 2)
        res = shoot(linear_sigma(2.0), lam, DD)
        assert abs(res.u1) <= 1e-8
        assert res.l2norm_sq == pytest.approx((PI**2 + 2) / PI**2, abs=1e-10)

    def test_trajectory_on_sigma_grid(self):
        sig = linear_sigma(2.0, M=32)
        res = shoot(sig, 1.0, DD, with_trajectory=True)
        assert res.trajectory.shape == (33, 2)
        assert res.trajectory[0, 0] == 0.0
        assert res.trajectory[0, 1] == pytest.approx(SQRT2, abs=1e-15)
        assert res.trajectory[-1, 0] == pytest.approx(res.u1)
        assert res.trajectory[-1, 1] == pytest.approx(res.du1)

    def test_negative_lambda_rejected(self):
        with pytest.raises(StructuralError):
            shoot(zero_sigma(), -1.0, DD)


class TestCharacteristic:
    def test_free_dirichlet_values(self):
        sig = zero_sigma()
        p = CharParams(DD)
        assert characteristic(sig, PI, p) == pytest.approx(0.0, abs=1e-12)
        assert characteristic(sig, PI / 2, p) == pytest.approx(SQRT2, abs=1e-12)
        assert characteristic(sig, PI / 2, p) > 0

    def test_matches_sine_pointwise(self):
        # Wronskian-type identity: residual is exactly sqrt2 sin(lambda)
        lams = np.linspace(0.25, 40.0, 161)
        vals = _characteristic_batch(zero_sigma(), lams, CharParams(DD))
        assert np.max(np.abs(vals - SQRT2 * np.sin(lams))) <= 1e-10

    def test_free_neumann_zeros(self):
        sig = zero_sigma()
        p = CharParams(NT, h=0.0)
        # zeros at pi(k-1) for k >= 2; residual -sqrt2 lam sin(lam)
        assert characteristic(sig, PI, p) == pytest.approx(0.0, abs=1e-10)
        assert characteristic(sig, PI / 2, p) < 0
        assert characteristic(sig, 1.5 * PI, p) > 0

    def test_constant_potential_bracket(self):
        sig = linear_sigma(2.0)
        p = CharParams(DD)
        assert characteristic(sig, 3.4, p) * characteristic(sig, 3.5, p) < 0

    def test_third_type_uses_h(self):
        sig = zero_sigma()
        lam = 1.3
        u = SQRT2 * math.cos(lam)  # u(1) for the NT shot
        du = -SQRT2 * lam * math.sin(lam)
        got = characteristic(sig, lam, CharParams(NT, h=2.0))
        assert got == pytest.approx(du + 2.0 * u, abs=1e-12)


class TestEigenvalues:
    def test_free_dirichlet(self):
        lams = eigenvalues(zero_sigma(), 3, CharParams(DD))
        assert np.max(np.abs(lams - PI * np.arange(1, 4))) <= 1e-10

    def test_constant_potential(self):
        lams = eigenvalues(linear_sigma(2.0), 2, CharParams(DD))
        truth = np.sqrt(PI**2 * np.arange(1, 3) ** 2 + 2)
        assert np.max(np.abs(lams - truth)) <= 1e-8

    def test_free_dn(self):
        lams = eigenvalues(zero_sigma(), 3, CharParams(DN, h=0.0))
        assert np.allclose(lams, PI * (np.arange(1, 4) - 0.5), atol=1e-10)

    def test_step_self_consistency(self):
        # The solver is exact for its piecewise-linear input: refining the
        # grid of the same interpolant must not move the eigenvalues.
        lam_256 = eigenvalues(step_sigma(256), 8, CharParams(DD))
        lam_interp = eigenvalues(step_sigma(256).resampled(512), 8, CharParams(DD))
        assert np.max(np.abs(lam_256 - lam_interp)) <= 1e-6
        # Freshly sampling the underlying step at 2M changes the represented
        # sigma near the jump; the spectra stay close at the data level.
        lam_fresh = eigenvalues(step_sigma(512), 8, CharParams(DD))
        assert np.max(np.abs(lam_256 - lam_fresh)) <= 1e-3

    def test_bracket_mismatch_is_loud(self):
        # free NT operator has lambda = 0 in its spectrum: the Sturm count at
        # the scan floor finds it, instead of returning lambda_2..lambda_5
        with pytest.raises(NumericalError) as exc:
            eigenvalues(zero_sigma(), 4, CharParams(NT, h=0.0))
        assert exc.value.stage == "bracket"
        assert "not positive" in str(exc.value)

    @pytest.mark.parametrize("c, count", [(60.0, 1), (60.0, 3), (-9.0, 3), (-9.0, 4)])
    def test_window_holds_shifted_eigenvalues(self, c, count):
        # lambda_1 = sqrt(pi^2 + 60) lies past base_1 + pi/2, and -9x pulls
        # lambda_1 below base_1 - pi/2: the window comes from sigma itself
        lams = eigenvalues(linear_sigma(c, 1024), count, CharParams(DD))
        truth = np.sqrt(PI**2 * np.arange(1, count + 1) ** 2 + c)
        assert np.max(np.abs(lams - truth)) <= 1e-8

    def test_eigenvalue_below_floor_is_loud(self):
        # NT, h = 1, log-singular sigma: u(1)*(u^[1](1) + u(1)) < 0 at the
        # floor with no interior zero, so one eigenvalue lies below it
        x = nodes(256)
        sig = GridFunction(2 * x + 0.3 * np.log(x + 1e-3) + 0.5 * (x > 0.6))
        with pytest.raises(NumericalError) as exc:
            eigenvalues(sig, 16, CharParams(NT, h=1.0))
        assert exc.value.stage == "bracket"
        assert "not positive" in str(exc.value)

    def test_too_coarse_grid_is_refused(self):
        # a drop of more than pi^2*M in one cell turns the floor shot by more
        # than pi inside that cell: an eigenvalue lies below the floor
        values = np.zeros(17)
        values[9:] = -1.01 * PI**2 * 16
        with pytest.raises(NumericalError) as exc:
            eigenvalues(GridFunction(values), 1, CharParams(DD))
        assert exc.value.stage == "bracket"
        assert "not positive" in str(exc.value)

    @pytest.mark.parametrize("V", [1e3, 3e3, 1e4])
    def test_close_pair_is_loud(self, V):
        # a positive double well: lambda_1 = 6.4806 and lambda_2 = 6.5565
        # (V = 1e3) lie closer than a scan step, so the scan sees no sign
        # change between them; the count at the top of the window does
        sig = GridFunction(V * np.clip(nodes(1024) - 0.45, 0.0, 0.1))
        with pytest.raises(NumericalError) as exc:
            eigenvalues(sig, 4, CharParams(DD))
        assert exc.value.stage == "bracket"
        assert "share a scan step" in str(exc.value)

    def test_strictly_increasing(self):
        lams = eigenvalues(step_sigma(), 12, CharParams(DD))
        assert np.all(np.diff(lams) > 0)


class TestNormingConstants:
    def test_free_dirichlet(self):
        alphas = norming_constants(zero_sigma(), [PI, 2 * PI], CharParams(DD))
        assert np.allclose(alphas, 1.0, atol=1e-12)

    def test_constant_potential(self):
        k = np.arange(1, 5)
        lams = np.sqrt(PI**2 * k**2 + 2)
        alphas = norming_constants(linear_sigma(2.0), lams, CharParams(DD))
        assert np.max(np.abs(alphas - (1 + 2 / (PI**2 * k**2)))) <= 1e-10

    def test_neumann_constant_potential(self):
        # sigma = x (q = 1), NT with h = 1: u_k = sqrt2 cos(pi(k-1)x)
        k = np.arange(1, 5)
        lams = np.sqrt(PI**2 * (k - 1) ** 2 + 1.0)
        alphas = norming_constants(linear_sigma(1.0), lams, CharParams(NT, h=1.0))
        assert alphas[0] == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(alphas[1:], 1.0, atol=1e-9)

    def test_non_eigenvalue_rejected(self):
        with pytest.raises(NumericalError) as exc:
            norming_constants(zero_sigma(), [3.0], CharParams(DD))
        assert "lambda[0]" in str(exc.value)

    def test_non_eigenvalue_rejected_third_type(self):
        with pytest.raises(NumericalError) as exc:
            norming_constants(zero_sigma(), [3.0], CharParams(NT, h=1.0))
        assert exc.value.stage == "norming"
        assert "lambda[0]" in str(exc.value)


class TestDirectSpectralData:
    def test_free_dirichlet_base_data(self):
        data = direct_spectral_data(zero_sigma(), 4, CharParams(DD))
        assert np.max(np.abs(data.lam - PI * np.arange(1, 5))) <= 1e-10
        assert np.allclose(data.alpha, 1.0, atol=1e-11)
        assert data.h is None

    def test_constant_potential(self):
        data = direct_spectral_data(linear_sigma(2.0), 4, CharParams(DD))
        k = np.arange(1, 5)
        assert np.max(np.abs(data.lam - np.sqrt(PI**2 * k**2 + 2))) <= 1e-8
        assert np.max(np.abs(data.alpha - (1 + 2 / (PI**2 * k**2)))) <= 1e-8

    def test_step_sigma_golden(self):
        # Frozen doubled-resolution reference; the M=256 run must stay close
        # (the residual difference is the step's representation at 2M).
        data = direct_spectral_data(step_sigma(256), 16, CharParams(DD))
        report = validate_spectral_data(data)
        assert report.ok
        assert math.isfinite(report.ell2_mu)
        assert np.max(np.abs(data.lam - STEP16_LAM)) <= 5e-4
        assert np.max(np.abs(data.alpha - STEP16_ALPHA)) <= 2e-3

    def test_output_validates_for_all_acceptance_sigmas(self):
        for sig in (zero_sigma(), linear_sigma(2.0), step_sigma()):
            data = direct_spectral_data(sig, 8, CharParams(DD))
            assert validate_spectral_data(data).ok

    def test_nt_carries_h(self):
        data = direct_spectral_data(linear_sigma(1.0), 3, CharParams(NT, h=1.0))
        assert data.h == 1.0
        truth = np.sqrt(PI**2 * np.arange(0, 3) ** 2 + 1.0)
        assert np.max(np.abs(data.lam - truth)) <= 1e-9


class TestInvariants:
    @pytest.mark.parametrize("c", [1.0, 2.0])
    def test_shift_covariance(self, c):
        sig = step_sigma()
        p = CharParams(DD)
        lam0 = eigenvalues(sig, 8, p)
        shifted = GridFunction(sig.values + c * nodes())
        lam_c = eigenvalues(shifted, 8, p)
        assert np.max(np.abs(lam_c - np.sqrt(lam0**2 + c))) <= 1e-7
        al0 = norming_constants(sig, lam0, p)
        al_c = norming_constants(shifted, lam_c, p)
        assert np.max(np.abs(al_c - al0 * (lam0**2 + c) / lam0**2)) <= 1e-6

    def test_self_convergence_smooth(self):
        # sigma = 2x is exactly representable at every M, so doubling the grid
        # changes nothing beyond roundoff
        p = CharParams(DD)
        lam_256 = eigenvalues(linear_sigma(2.0, M=256), 8, p)
        lam_512 = eigenvalues(linear_sigma(2.0, M=512), 8, p)
        assert np.max(np.abs(lam_256 - lam_512)) <= 1e-7
        al_256 = norming_constants(linear_sigma(2.0, M=256), lam_256, p)
        al_512 = norming_constants(linear_sigma(2.0, M=512), lam_512, p)
        assert np.max(np.abs(al_256 - al_512)) <= 1e-6

    def test_remainder_norms_bounded_in_count(self):
        # partial l2 norms of the remainders settle as more modes are kept
        sig = linear_sigma(2.0)
        norms = {}
        for count in (16, 32, 64):
            data = direct_spectral_data(sig, count, CharParams(DD))
            report = validate_spectral_data(data)
            norms[count] = (report.ell2_mu, report.ell2_beta)
        assert norms[32][0] <= norms[64][0] <= 1.1 * norms[32][0]
        assert norms[32][1] <= norms[64][1] <= 1.1 * norms[32][1]

    def test_sign_change_count_matches(self):
        count = 8
        for sig in (zero_sigma(), linear_sigma(2.0), step_sigma()):
            grid = np.linspace(1e-4, PI * (count + 0.5), 4 * 16 * (count + 1))
            vals = _characteristic_batch(sig, grid, CharParams(DD))
            changes = int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))
            assert changes == count


def reference_cell_coefficients(E, delta):
    """Per-branch propagator entries (C, S, Iss) over one cell, each branch
    computed on its own entries: the reference for the kernel's
    ``_cell_coefficients``."""
    w2 = E * (delta * delta)
    C, S, Iss = np.empty_like(E), np.empty_like(E), np.empty_like(E)
    trig = w2 > 1e-4
    hyp = w2 < -1e-4
    mid = ~(trig | hyp)
    w = np.sqrt(E[trig])
    C[trig], S[trig] = np.cos(w * delta), np.sin(w * delta) / w
    w = np.sqrt(-E[hyp])
    C[hyp], S[hyp] = np.cosh(w * delta), np.sinh(w * delta) / w
    t = w2[mid]
    C[mid] = 1.0 + t * (-0.5 + t * (1.0 / 24.0 - t / 720.0))
    S[mid] = delta * (1.0 + t * (-1.0 / 6.0 + t * (1.0 / 120.0 - t / 5040.0)))
    Iss[mid] = delta**3 * (1.0 / 3.0 + t * (-1.0 / 15.0 + t * (2.0 / 315.0)))
    big = trig | hyp
    Iss[big] = (delta - S[big] * C[big]) / (2.0 * E[big])
    return C, S, Iss


def reference_propagate(sigma, lams, kind, norms=False, trajectory=False):
    """Cell-by-cell propagation: the loop the blocked kernel replaced.

    Same signature and results as ``direct._propagate``, which it is the
    reference for.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    vals = sigma.values
    M = sigma.M
    delta = 1.0 / M
    slope = np.diff(vals) * M
    if kind.dirichlet_at_zero:
        u, up = np.zeros_like(lams), SQRT2 * lams
    else:
        u = np.full_like(lams, SQRT2)
        up = vals[0] * u
    norm_sq = np.zeros_like(lams)
    traj = np.empty((M + 1, 2, lams.size))
    traj[0] = u, up - vals[0] * u
    for i in range(M):
        E = lams * lams - slope[i]
        C, S, Iss = reference_cell_coefficients(E, delta)
        norm_sq += u * u * 0.5 * (delta + S * C) + u * up * (S * S) + up * up * Iss
        u, up = C * u + S * up, -E * S * u + C * up
        traj[i + 1] = u, up - vals[i + 1] * u
    return (u, up - vals[-1] * u, norm_sq if norms else None,
            traj if trajectory else None)


def branch_sigma(M):
    """sigma = 60x on [0, 1/3], then a log-singular part plus a jump.

    Probes at lambda < sqrt(60) put the first third on the hyperbolic
    branch, lambda^2 equal to a cell slope puts that cell on the series
    branch, and large lambda puts every cell on the trigonometric one.
    """
    x = nodes(M)
    return GridFunction(np.where(x <= 1 / 3, 60.0 * x,
                                 20.0 + 0.3 * np.log(np.maximum(x, 0.25))
                                 + 0.5 * (x > 0.6)))


def branch_lams(sigma, n):
    slope = np.diff(sigma.values) * sigma.M
    exact = np.sqrt([slope[0], slope[-1]])  # series branch on those cells
    return np.concatenate([np.linspace(0.5, 40.0, n - 2), exact])


class TestPropagateKernel:
    """The blocked kernel against the cell-by-cell reference, to <= 1e-12
    relative to the shot's scale (the largest |u|, |u^[1]| on the grid)."""

    @staticmethod
    def assert_matches(sigma, lams, kind):
        got = _propagate(sigma, lams, kind, norms=True, trajectory=True)
        ref = reference_propagate(sigma, lams, kind, norms=True, trajectory=True)
        scale = np.max(np.abs(ref[3]), axis=(0, 1))
        for g, r, s in zip(got, ref, (scale, scale, scale**2, scale)):
            assert np.max(np.abs(g - r) / s) <= 1e-12

    @pytest.mark.parametrize("M", [16, 17, 100, 1024])
    @pytest.mark.parametrize("kind", [DD, NT])
    def test_every_branch(self, M, kind):
        sig = branch_sigma(M)
        self.assert_matches(sig, branch_lams(sig, 40), kind)

    @pytest.mark.parametrize("lam", [1.0, 20.0])
    def test_batch_of_one(self, lam):
        self.assert_matches(branch_sigma(100), [lam], NT)

    def test_batch_beyond_one_block(self):
        sig = branch_sigma(1024)
        lams = branch_lams(sig, 2049)
        assert lams.size * sig.M > direct.BLOCK_ENTRIES
        self.assert_matches(sig, lams, DD)

    @pytest.mark.parametrize("params", [CharParams(DD), CharParams(NT, h=3.0)])
    def test_spectral_data_matches_reference(self, monkeypatch, params):
        x = nodes(256)
        sig = GridFunction(2.0 * x + 0.3 * np.log(x + 1e-3) + 0.5 * (x > 0.6))
        lam = eigenvalues(sig, 16, params)
        alpha = norming_constants(sig, lam, params)
        monkeypatch.setattr(direct, "_propagate", reference_propagate)
        lam_ref = eigenvalues(sig, 16, params)
        alpha_ref = norming_constants(sig, lam_ref, params)
        assert np.max(np.abs(lam - lam_ref) / lam_ref) <= 1e-12
        assert np.max(np.abs(alpha - alpha_ref) / alpha_ref) <= 1e-12


def reference_eigenvalues(sigma, count, params):
    """Scan, bisection and secant polish: the refinement that regula falsi
    replaced, kept as the reference for ``eigenvalues`` (the Sturm-count
    checks of the window are left out)."""
    step, floor = direct.SCAN_STEP, direct.LAMBDA_FLOOR
    hi = math.sqrt((PI * count) ** 2 + sigma.M * np.diff(sigma.values).max()) + step
    grid = floor + step * np.arange(int(math.ceil((hi - floor) / step)) + 1)
    fvals = _characteristic_batch(sigma, grid, params)
    sign = np.sign(fvals)
    flips = np.nonzero((sign[:-1] * sign[1:] < 0) | (sign[:-1] == 0))[0][:count]
    exact = fvals[flips] == 0.0
    a = grid[flips].copy()
    b = np.where(exact, a, grid[flips + 1])
    fa = fvals[flips].copy()
    fb = np.where(exact, 0.0, fvals[flips + 1])
    for _ in range(200):
        mid = 0.5 * (a + b)
        if np.all(b - a <= direct.REFINE_RTOL * np.maximum(1.0, mid)):
            break
        fm = _characteristic_batch(sigma, mid, params)
        a, fa, b, fb = direct._narrow(a, fa, b, fb, mid, fm)
    roots = 0.5 * (a + b)
    for _ in range(2):
        denom = fb - fa
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = np.where(denom != 0.0, (a * fb - b * fa) / denom, roots)
        cand = np.clip(cand, a, b)
        fc = _characteristic_batch(sigma, cand, params)
        a, fa, b, fb = direct._narrow(a, fa, b, fb, cand, fc)
        roots = cand
    return roots


def singular_sigma(seed, shape, M=1024):
    """Seeded log-singular or jump sigma plus a drift 5x that keeps the DD
    and ND operators positive."""
    rng = np.random.default_rng(seed)
    x = nodes(M)
    if shape == "coulomb":
        x0 = (math.floor(rng.uniform(0.25, 0.75) * M) + 0.5) / M  # mid-cell
        part = rng.uniform(0.05, 0.1) * rng.choice((-1.0, 1.0)) * np.log(np.abs(x - x0))
    else:
        where = rng.uniform(0.1, 0.9, size=3)
        heights = rng.uniform(0.05, 0.15, size=3) * rng.choice((-1.0, 1.0), size=3)
        part = np.sum(heights[:, None] * (x[None, :] >= where[:, None]), axis=0)
    return GridFunction(part + 5.0 * x)


# sigma = c*x with h = c: lambda_k^2 = pi^2 (k - shift)^2 + c on every grid.
ORACLE_SHIFT = [(DD, 0.0), (ND, 0.5), (DN, 0.5), (NT, 1.0)]


def oracle_params(kind, c):
    return CharParams(kind, h=c if kind.third_type_at_one else 0.0)


class TestRefinement:
    """Illinois regula falsi against the bisection it replaced, and the
    Sturm count that certifies the brackets."""

    @staticmethod
    def assert_matches_reference(sigma, count, params):
        lam = eigenvalues(sigma, count, params)
        ref = reference_eigenvalues(sigma, count, params)
        assert lam.shape == ref.shape == (count,)
        assert np.max(np.abs(lam - ref) / ref) <= 1e-13

    @pytest.mark.parametrize("kind", [DD, NT, ND, DN])
    def test_oracles(self, kind):
        c = 1.0 if kind is NT else 2.0
        self.assert_matches_reference(linear_sigma(c, 1024), 128, oracle_params(kind, c))

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("shape", ["coulomb", "jumps"])
    @pytest.mark.parametrize("kind", [DD, ND])
    def test_seeded_singular(self, seed, shape, kind):
        self.assert_matches_reference(singular_sigma(seed, shape), 64, CharParams(kind))

    @pytest.mark.parametrize("c, count", [(60.0, 1), (60.0, 3), (-9.0, 3), (-9.0, 4)])
    def test_shifted_defect_inputs(self, c, count):
        self.assert_matches_reference(linear_sigma(c, 1024), count, CharParams(DD))

    @pytest.mark.parametrize("sigma", [linear_sigma(2.0, 1024), singular_sigma(4, "coulomb")],
                             ids=["oracle", "coulomb"])
    def test_evaluations_after_the_scan(self, monkeypatch, sigma):
        # bisection and polish took about 33 evaluations per eigenvalue
        sizes = []

        def counted(sigma, lams, params):
            sizes.append(np.size(lams))
            return _characteristic_batch(sigma, lams, params)

        monkeypatch.setattr(direct, "_characteristic_batch", counted)
        eigenvalues(sigma, 128, CharParams(DD))
        assert sum(sizes[1:]) <= 10 * 128

    def test_pass_cap_is_loud(self, monkeypatch):
        monkeypatch.setattr(direct, "REFINE_RTOL", 0.0)  # only an exact zero closes one
        with pytest.raises(NumericalError) as exc:
            eigenvalues(zero_sigma(), 2, CharParams(DD))
        assert exc.value.stage == "bracket"

    @pytest.mark.parametrize("M", [16, 17, 64])
    @pytest.mark.parametrize("kind, shift", ORACLE_SHIFT)
    def test_sturm_count_is_exact_per_cell(self, M, kind, shift):
        # on M = 16 a cell holds up to five zeros of the shot at lambda = 250
        lams = np.sqrt(PI**2 * (np.arange(1, 81) - shift) ** 2 + 2.0)
        probes = np.concatenate([[0.5 * lams[0]], 0.5 * (lams[:-1] + lams[1:])])
        sig, params = linear_sigma(2.0, M), oracle_params(kind, 2.0)
        got = [direct._count_below(sig, lam, params) for lam in probes]
        assert got == list(range(80))
