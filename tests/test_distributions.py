import math

import numpy as np
import pytest
from scipy import integrate

from gkprep.analysis import CrossingQuery
from gkprep.distributions import (
    DegenerateDistributionError,
    GaussianDisplacement,
    NoiseParams,
    ResidualDistribution,
    pauli_rate_ideal,
    residual_cdf,
)
from gkprep.lattice import HALF_CELL, SQRT_PI
from gkprep.montecarlo import normal_draws
from gkprep.repetition import classical_failure, pauli_rate_physical, pauli_rate_physical_report
from gkprep.wigner import GkpEnvelope, wigner_point

# Numeric inputs under the one rule: (field name in the error, call that
# passes the value under test).
NUMERIC_INPUTS = {
    "NoiseParams.delta": ("delta", lambda v: NoiseParams(v)),
    "NoiseParams.delta_tilde": ("delta_tilde", lambda v: NoiseParams(0.5, v)),
    "NoiseParams.r": ("r", lambda v: NoiseParams(0.5, r=v)),
    "GaussianDisplacement.spread": ("spread", GaussianDisplacement),
    "pauli_rate_ideal": ("delta_eff", pauli_rate_ideal),
    "ResidualDistribution.delta": ("delta", lambda v: ResidualDistribution(v, 0.2)),
    "GkpEnvelope.delta": ("delta", lambda v: GkpEnvelope(v, 0.3)),
    "GkpEnvelope.kappa": ("kappa", lambda v: GkpEnvelope(0.3, v)),
    "CrossingQuery.delta": ("delta", lambda v: CrossingQuery(v, "single", 3)),
    "CrossingQuery.tol": ("tol", lambda v: CrossingQuery(0.5, "single", 3, tol=v)),
    "CrossingQuery.bracket": ("bracket_high", lambda v: CrossingQuery(0.5, "single", 3, (0.1, v))),
    "wigner_point.q": ("q", lambda v: wigner_point(GkpEnvelope(0.3, 0.3), v, 0.0)),
    "wigner_point.p": ("p", lambda v: wigner_point(GkpEnvelope(0.3, 0.3), 0.0, v)),
    "classical_failure.p": ("p", lambda v: classical_failure(3, v)),
}


@pytest.mark.parametrize("value", [True, "1", math.nan, math.inf, -math.inf, 10**400],
                         ids=["true", "str", "nan", "inf", "-inf", "int-beyond-float"])
@pytest.mark.parametrize("target", sorted(NUMERIC_INPUTS))
def test_numeric_input_must_be_a_finite_real(target, value):
    name, call = NUMERIC_INPUTS[target]
    with pytest.raises(ValueError, match=f"^{name} must be a"):
        call(value)


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
        assert p.momentum_spread == p.delta / p.r

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

    def test_far_tail_is_exactly_zero(self):
        # 28 spreads out exp(-d^2) underflows; nothing squares 1e300
        g = GaussianDisplacement(0.3)
        with np.errstate(over="raise", invalid="raise"):
            got = g.pdf(np.array([-1.7e308, -1e300, 28 * 0.3, 1e300]))
        assert got.tolist() == [0.0] * 4


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
        got = pauli_rate_physical_report(NoiseParams(0.5, 0.3))["two_cell"]
        assert got == pytest.approx(2 * want, rel=1e-9)

    @pytest.mark.parametrize("delta, delta_tilde", [
        (0.12, 0.08), (0.15, 0.08), (0.2, 0.08), (0.12, 0.045), (0.15, 0.2),
    ])
    def test_against_a_30_digit_oracle(self, delta, delta_tilde):
        # at (0.12, 0.045) P_F is 1.38e-22; an erf difference of the
        # modulating factor read 2.08e-24 there
        want = _pauli_rate_oracle(delta, delta_tilde)
        got = pauli_rate_physical(NoiseParams(delta, delta_tilde))
        assert abs(got - want) <= 1e-12 * want


def _pauli_rate_oracle(delta: float, delta_tilde: float) -> float:
    """P_F at 30 digits: the residual density over the first two PZ cell pairs.

    The modulating factor is written erfc((u-h)/d) - erfc((u+h)/d), equal to
    erf((u+h)/d) - erf((u-h)/d), whose terms the working precision could not
    tell apart in the PZ cells.  Each cell's comb keeps the five lattice
    peaks nearest it, and the quadrature breaks at the cell centre and in
    steps of the product's width around its peak.  Further cells add less
    than 1e-100 of the total at the tested points.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        d, t = mpmath.mpf(delta), mpmath.mpf(delta_tilde)
        root_pi = mpmath.sqrt(mpmath.pi)
        h = root_pi / 2
        width = 1 / mpmath.sqrt(1 / d**2 + 1 / t**2)
        total = 0
        for m in range(2):
            centre = (2 * m + 1) * root_pi

            def density(u, m=m):
                comb = mpmath.fsum(
                    mpmath.exp(-(((u - k * root_pi) / t) ** 2)) for k in range(2 * m - 1, 2 * m + 4)
                )
                return (mpmath.erfc((u - h) / d) - mpmath.erfc((u + h) / d)) * comb

            peak = (h / d**2 + centre / t**2) * width**2
            steps = (peak + j * width for j in range(-8, 9))
            points = sorted({centre - h, centre, centre + h} | {
                u for u in steps if centre - h < u < centre + h
            })
            total += mpmath.quad(density, points)
        # the two mirror cells of each pair, and the density's normalization
        return float(2 * total / (2 * root_pi * t))
