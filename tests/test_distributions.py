import math

import numpy as np
import pytest
from scipy import integrate

from gkprep.distributions import (
    DegenerateDistributionError,
    GaussianDisplacement,
    NoiseParams,
    ResidualDistribution,
    pauli_rate_ideal,
    pauli_rate_physical,
    pauli_rate_physical_report,
    residual_cdf,
)
from gkprep.lattice import HALF_CELL, SQRT_PI
from gkprep.montecarlo import normal_draws


class TestNoiseParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseParams(delta=-0.1)
        with pytest.raises(ValueError):
            NoiseParams(delta=0.5, delta_tilde=-0.1)
        with pytest.raises(ValueError):
            NoiseParams(delta=0.5, r=0.0)

    def test_bias_spreads(self):
        p = NoiseParams(delta=0.5, r=2.0)
        assert p.position_spread == 1.0
        assert p.momentum_spread == 0.25
        assert p.kappa == 0.5  # defaults to delta

    def test_ideal_ancilla_flag(self):
        assert NoiseParams(0.5).ideal_ancilla
        assert NoiseParams(0.5, 1e-7).ideal_ancilla
        assert not NoiseParams(0.5, 1e-6).ideal_ancilla


class TestGaussianDisplacement:
    def test_sigma_conversion(self):
        g = GaussianDisplacement(0.5)
        assert g.sigma == 0.5 / math.sqrt(2.0)

    def test_unit_mass_and_variance(self):
        g = GaussianDisplacement(0.7)
        mass, _ = integrate.quad(g.pdf, -8, 8)
        var, _ = integrate.quad(lambda x: x * x * g.pdf(x), -8, 8)
        assert mass == pytest.approx(1.0, abs=1e-12)
        assert var == pytest.approx(0.7**2 / 2.0, rel=1e-12)


class TestIntrinsicDensity:
    def test_unbiased_peak(self):
        got = GaussianDisplacement(NoiseParams(0.5).position_spread).pdf(0.0)
        assert got == pytest.approx(1.0 / (SQRT_PI * 0.5), rel=1e-14)

    def test_biased_peak(self):
        params = NoiseParams(0.5, r=math.sqrt(2.0))
        got = GaussianDisplacement(params.position_spread).pdf(0.0)
        assert got == pytest.approx(1.0 / (SQRT_PI * 0.5 * math.sqrt(2.0)), rel=1e-14)

    def test_momentum_suppressed(self):
        p = NoiseParams(0.25, r=math.sqrt(2.0))
        q0 = GaussianDisplacement(p.position_spread).pdf(0.0)
        p0 = GaussianDisplacement(p.momentum_spread).pdf(0.0)
        assert p0 == pytest.approx(q0 * 2.0, rel=1e-12)  # spreads differ by r^2

    def test_normalization(self):
        p = NoiseParams(0.5, r=1.3)
        for spread in (p.position_spread, p.momentum_spread):
            mass, _ = integrate.quad(
                GaussianDisplacement(spread).pdf, -6 * spread, 6 * spread
            )
            assert mass == pytest.approx(1.0, abs=1e-9)


class TestPauliRateIdeal:
    def test_vanishing_noise(self):
        assert pauli_rate_ideal(1e-4) <= 1e-12

    def test_approaches_half_for_large_noise(self):
        assert pauli_rate_ideal(3.0) == pytest.approx(0.5, abs=0.01)

    def test_budget_exhaustion_fails_loudly(self):
        from gkprep.lattice import TruncationError

        with pytest.raises(TruncationError):
            pauli_rate_ideal(50.0)

    def test_against_direct_integration(self):
        # oracle: integrate the displacement density over PZ cells directly
        delta = 0.5
        total = 0.0
        for n in range(-6, 6):
            val, _ = integrate.quad(
                lambda u: math.exp(-((u / delta) ** 2)) / (SQRT_PI * delta),
                HALF_CELL + 2 * n * SQRT_PI,
                3 * HALF_CELL + 2 * n * SQRT_PI,
                epsabs=1e-14,
            )
            total += val
        got = pauli_rate_ideal(delta)
        assert got == pytest.approx(total, rel=1e-10)
        assert got == pytest.approx(0.0122, abs=5e-5)  # ~= 0.0122

    def test_against_monte_carlo_10m(self):
        # 1e7 draws classified by zone; agreement to 3 significant figures
        from gkprep.lattice import is_pauli_zone

        draws = normal_draws(123, np.arange(10_000_000, dtype=np.uint64), 0, 0.5)
        emp = is_pauli_zone(draws).mean()
        want = pauli_rate_ideal(0.5)
        assert abs(emp - want) < 5e-4  # 3 significant figures at ~1.22e-2

    def test_monotone_in_delta(self):
        assert pauli_rate_ideal(0.3) < pauli_rate_ideal(0.5) < pauli_rate_ideal(0.7)


class TestResidualDistribution:
    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            ResidualDistribution(0.5, 0.0)

    def test_peak_value_against_cdf_oracle(self):
        dist = ResidualDistribution(0.5, 0.2)
        h = 1e-4
        for x in (0.0, 0.3, 1.0, SQRT_PI):
            oracle = (residual_cdf(dist, x + h) - residual_cdf(dist, x - h)) / (2 * h)
            assert dist.density(x) == pytest.approx(oracle, abs=1e-6)

    def test_unit_mass(self):
        dist = ResidualDistribution(0.5, 0.2)
        mass, _ = integrate.quad(
            dist.density,
            -3 * SQRT_PI,
            3 * SQRT_PI,
            limit=400,
            epsabs=1e-12,
        )
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_even_symmetry(self):
        dist = ResidualDistribution(0.4, 0.3)
        rng = np.random.default_rng(3)
        for u in rng.uniform(0.0, 3.0, 25):
            assert dist.density(u) == pytest.approx(
                dist.density(-u), rel=1e-13
            )

    def test_cdf_limits(self):
        dist = ResidualDistribution(0.5, 0.2)
        assert residual_cdf(dist, 5 * SQRT_PI) == pytest.approx(1.0, abs=1e-8)
        assert residual_cdf(dist, 0.0) == pytest.approx(0.5, abs=1e-8)

    def test_density_vs_cdf_on_random_points(self):
        dist = ResidualDistribution(0.5, 0.2)
        rng = np.random.default_rng(17)
        xs = rng.uniform(-2 * SQRT_PI, 2 * SQRT_PI, 100)
        h = 1e-4
        for x in xs:
            oracle = (residual_cdf(dist, x + h) - residual_cdf(dist, x - h)) / (2 * h)
            assert dist.density(float(x)) == pytest.approx(oracle, abs=1e-6)


class TestPauliRatePhysical:
    def test_ideal_limit_branch(self):
        assert pauli_rate_physical(NoiseParams(0.5, 1e-7)) == pauli_rate_ideal(0.5)

    @pytest.mark.parametrize("delta", [0.3, 0.4, 0.5, 0.6])
    def test_limit_identity(self, delta):
        gap = abs(
            pauli_rate_physical(NoiseParams(delta, 1e-6)) - pauli_rate_ideal(delta)
        )
        assert gap < 1e-4

    def test_monotone_in_delta_tilde(self):
        rates = [
            pauli_rate_physical(NoiseParams(0.5, dt))
            for dt in np.linspace(0.05, 0.5, 10)
        ]
        assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_dominates_ideal(self):
        for dt in (0.1, 0.2, 0.3, 0.4):
            assert pauli_rate_physical(NoiseParams(0.5, dt)) >= pauli_rate_ideal(0.5)

    def test_ordering_example(self):
        p1 = pauli_rate_physical(NoiseParams(0.5, 0.1))
        p2 = pauli_rate_physical(NoiseParams(0.5, 0.2))
        p4 = pauli_rate_physical(NoiseParams(0.5, 0.4))
        assert p4 > p2 > p1

    def test_against_monte_carlo(self):
        from gkprep.lattice import is_pauli_zone
        from gkprep.montecarlo import sample_residual

        ana = pauli_rate_physical(NoiseParams(0.5, 0.3))
        draws = sample_residual(0.5, 0.3, seed=2024, shots=1_000_000)
        emp = is_pauli_zone(draws).mean()
        se = math.sqrt(ana * (1 - ana) / 1e6)
        assert abs(emp - ana) <= 4 * se

    def test_two_cell_report(self):
        report = pauli_rate_physical_report(NoiseParams(0.5, 0.3))
        assert report["value"] == pytest.approx(
            report["two_cell"] + report["difference"], rel=1e-12
        )
        assert 0 <= report["difference"] < 1e-6

    def test_two_cell_matches_direct_quadrature(self):
        dist = ResidualDistribution(0.5, 0.3)
        want, _ = integrate.quad(
            dist.density,
            HALF_CELL,
            3 * HALF_CELL,
            limit=300,
            epsabs=1e-13,
        )
        got = pauli_rate_physical(NoiseParams(0.5, 0.3), two_cell=True)
        assert got == pytest.approx(2 * want, rel=1e-9)
