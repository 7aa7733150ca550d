import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkprep.lattice import (
    HALF_CELL,
    SQRT_PI,
    TruncationError,
    gaussian_comb_array,
    is_pauli_zone,
    nearest_multiple_offset_array,
)

finite_reals = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


class TestNearestMultipleOffset:
    def test_lattice_point(self):
        assert nearest_multiple_offset_array(0.0) == 0.0

    def test_just_past_peak(self):
        assert nearest_multiple_offset_array(1.1 * SQRT_PI) == pytest.approx(
            0.1 * SQRT_PI, abs=1e-12
        )

    def test_half_cell_boundary_maps_to_itself(self):
        # the half-open convention keeps -sqrt(pi)/2 in the k=0 cell
        assert nearest_multiple_offset_array(-0.5 * SQRT_PI) == -0.5 * SQRT_PI

    @given(finite_reals)
    def test_result_in_half_open_cell(self, x):
        off = nearest_multiple_offset_array(x)
        assert -HALF_CELL <= off < HALF_CELL

    @given(finite_reals)
    @settings(max_examples=200)
    def test_periodicity(self, x):
        a = nearest_multiple_offset_array(x + SQRT_PI)
        b = nearest_multiple_offset_array(x)
        assert a == pytest.approx(b, abs=1e-9)


class TestClassifyZone:
    def test_origin(self):
        assert not is_pauli_zone(0.0)

    def test_first_pauli_cell(self):
        assert is_pauli_zone(SQRT_PI)
        assert is_pauli_zone(-SQRT_PI)

    def test_first_stabilizer_cell(self):
        assert not is_pauli_zone(2 * SQRT_PI)

    def test_serial_numbering(self):
        # the second PZ cell on each side of the origin
        assert is_pauli_zone(3 * SQRT_PI)
        assert is_pauli_zone(-3 * SQRT_PI)

    @given(finite_reals)
    def test_cell_contains_point(self, x):
        # x lies in the half-open cell centred on its nearest multiple of
        # sqrt(pi), and is PZ exactly when that multiple is odd
        center = x - nearest_multiple_offset_array(x)
        assert center - HALF_CELL <= x < center + HALF_CELL + 1e-9
        assert is_pauli_zone(x) == (round(center / SQRT_PI) % 2 == 1)

    @given(st.floats(min_value=-30.0, max_value=30.0))
    @settings(max_examples=200)
    def test_stabilizer_periodicity(self, x):
        assert is_pauli_zone(x) == is_pauli_zone(x + 2 * SQRT_PI)

    @given(finite_reals)
    @settings(max_examples=200)
    def test_npz_iff_near_even_multiple(self, x):
        k = round(x / (2 * SQRT_PI))
        near_even = abs(x - 2 * k * SQRT_PI) < HALF_CELL
        if abs(abs(x - 2 * k * SQRT_PI) - HALF_CELL) > 1e-9:  # skip boundaries
            assert (not is_pauli_zone(x)) == near_even


class TestTruncatedGaussianComb:
    def test_single_dominant_term(self):
        assert gaussian_comb_array(0.0, SQRT_PI, 1e-6) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_midpoint_symmetry(self):
        # halfway between lattice points the t=0 and t=1 terms are equal
        for sigma_sq in (0.05, 0.25, 1.0):
            a = gaussian_comb_array(HALF_CELL, SQRT_PI, sigma_sq)
            b = gaussian_comb_array(SQRT_PI - HALF_CELL, SQRT_PI, sigma_sq)
            assert a == pytest.approx(b, rel=1e-13)

    def test_against_wide_brute_force(self):
        # frozen from the |t| <= 50 brute-force oracle
        x, spacing, sigma_sq = 0.0, SQRT_PI, 0.25
        brute = sum(
            math.exp(-((x - t * spacing) ** 2) / sigma_sq) for t in range(-50, 51)
        )
        assert brute == pytest.approx(1.0000069746847124, abs=1e-15)
        assert gaussian_comb_array(x, spacing, sigma_sq) == pytest.approx(
            brute, abs=1e-12
        )

    def test_brute_force_on_random_draws(self):
        rng = np.random.default_rng(1234)
        xs = rng.uniform(-10.0, 10.0, size=1000)
        sigma_sqs = rng.uniform(0.01, 1.5, size=1000)
        ts = np.arange(-200, 201)
        for x, s2 in zip(xs, sigma_sqs):
            brute = float(np.sum(np.exp(-((x - ts * SQRT_PI) ** 2) / s2)))
            got = gaussian_comb_array(float(x), SQRT_PI, float(s2))
            assert got == pytest.approx(brute, abs=1e-10)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(TruncationError):
            gaussian_comb_array(0.0, 0.05, 4.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            gaussian_comb_array(0.0, -1.0, 0.2)
        with pytest.raises(ValueError):
            gaussian_comb_array(0.0, 1.0, 0.0)
