import hashlib
import json
import math

import numpy as np
import pytest
from scipy import integrate, stats

from gkprep.lattice import HALF_CELL
from gkprep.quadrature import (
    _panels,
    gaussian_window_overlap,
    panel_nodes,
    peaked_cell_layout,
    peaked_cell_nodes,
    smooth_cell_nodes,
)

_LAYOUT_SCALES = (1e-300, 1e-3, 0.01, 0.045, 0.1, 0.2, 0.3, 0.5, 0.8, 2.0)


def _layout_table() -> str:
    """Peaked (panel count, order) and smooth node counts, nodes_per_dim 16 to 192."""
    peaked = [[list(peaked_cell_layout(HALF_CELL, s, n)[1:]) for s in _LAYOUT_SCALES]
              for n in range(16, 193)]
    smooth = [[len(smooth_cell_nodes(0.0, w, s, n)[0])
               for s in _LAYOUT_SCALES for w in (0.1, HALF_CELL, 2.0 * HALF_CELL)]
              for n in range(16, 193)]
    return json.dumps([peaked, smooth])


class TestPanelNodes:
    def test_integrates_polynomial_exactly(self):
        x, w = panel_nodes(-1.0, 3.0, 4, 6)
        assert np.dot(w, x**7) == pytest.approx((3.0**8 - 1.0) / 8.0, rel=1e-13)

    def test_weights_sum_to_length(self):
        x, w = panel_nodes(0.0, 2.5, 7, 5)
        assert w.sum() == pytest.approx(2.5, rel=1e-14)

    def test_peaked_nodes_capture_narrow_gaussian(self):
        for scale in (1e-6, 1e-3, 0.05, 0.2, 0.6):
            x, w = peaked_cell_nodes(0.0, HALF_CELL, scale, 64)
            got = np.dot(w, np.exp(-(x / scale) ** 2))
            want = scale * math.sqrt(math.pi) * math.erf(HALF_CELL / scale)
            assert got == pytest.approx(want, rel=1e-9), scale

    def test_peaked_nodes_resolve_offset_window(self):
        # an erf step of the same scale sitting away from the peak
        scale = 0.05
        x, w = peaked_cell_nodes(0.0, HALF_CELL, scale, 96)

        def f(t):
            return np.exp(-((t / scale) ** 2)) * (
                1.0 + np.tanh((t - 4.0 * scale) / scale)
            )

        want, _ = integrate.quad(f, -HALF_CELL, HALF_CELL, epsabs=1e-14)
        assert np.dot(w, f(x)) == pytest.approx(want, rel=1e-8)

    def test_smooth_nodes(self):
        x, w = smooth_cell_nodes(-1.0, 1.0, 0.3, 64)
        assert np.dot(w, np.cos(3 * x)) == pytest.approx(
            2.0 * math.sin(3.0) / 3.0, rel=1e-12
        )

    def test_layouts_equal_the_recorded_table(self):
        # sha256 of _layout_table() over the accepted node counts, recorded
        # while each builder still held its own copy of the panel floors (an
        # order floor of 8 then bent the layouts below 16 nodes only)
        digest = hashlib.sha256(_layout_table().encode()).hexdigest()
        assert digest == "d6af2fbb1b1bb67305be4ca61c7d334ea5c6da14227ee86846b281b343f7d95b"

    def test_panel_floor(self):
        # at least 2 panels; the order is whatever the node count leaves
        assert _panels(0, 8, 16) == (2, 4)
        assert _panels(1, 40, 12) == (2, 20)
        assert _panels(5, 40, 12) == (3, 13)
        assert _panels(100, 192, 16) == (12, 16)
        assert _panels(100, 7, 12) == (2, 3)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            peaked_cell_nodes(0.0, 1.0, 0.0, 32)
        with pytest.raises(ValueError):
            smooth_cell_nodes(0.0, 1.0, -0.1, 32)


class TestGaussianWindowOverlap:
    def brute(self, cell, lo, hi, sx, sy):
        def integrand(x):
            return (
                math.exp(-((x / sx) ** 2))
                / (math.sqrt(math.pi) * sx)
                * 0.5
                * (math.erf((hi - x) / sy) - math.erf((lo - x) / sy))
            )

        val, _ = integrate.quad(integrand, cell[0], cell[1], epsabs=1e-14, limit=200)
        return val

    def test_against_brute_force(self):
        rng = np.random.default_rng(7)
        cells = [(-HALF_CELL, HALF_CELL), (HALF_CELL, 3 * HALF_CELL)]
        for _ in range(40):
            cell = cells[rng.integers(0, 2)]
            lo = rng.uniform(-3.0, 2.0)
            hi = lo + rng.uniform(0.2, 3.0)
            sx = rng.uniform(0.2, 0.9)
            sy = rng.uniform(0.01, 0.7)
            got = float(gaussian_window_overlap(cell, lo, hi, sx, sy))
            assert got == pytest.approx(self.brute(cell, lo, hi, sx, sy), abs=1e-13)

    def test_against_scipy_bivariate_normal(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            sx = rng.uniform(0.2, 0.9)
            sy = rng.uniform(0.05, 0.7)
            a, b = -0.4, 0.9
            lo = rng.uniform(-2.0, 0.0)
            hi = lo + rng.uniform(0.5, 2.5)
            cov = np.array(
                [[sx**2 / 2, sx**2 / 2], [sx**2 / 2, sx**2 / 2 + sy**2 / 2]]
            )
            mvn = stats.multivariate_normal(mean=[0.0, 0.0], cov=cov)

            def box(x_hi, z_hi):
                return mvn.cdf([x_hi, z_hi])

            want = box(b, hi) - box(a, hi) - box(b, lo) + box(a, lo)
            got = float(gaussian_window_overlap((a, b), lo, hi, sx, sy))
            assert got == pytest.approx(want, abs=5e-7)

    def test_degenerate_sy_matches_interval_overlap(self):
        got = float(gaussian_window_overlap((-0.5, 0.5), -0.2, 0.9, 0.5, 0.0))
        want = 0.5 * (math.erf(0.5 / 0.5) - math.erf(-0.2 / 0.5))
        assert got == pytest.approx(want, rel=1e-14)

    def test_tiny_sy_continuous_with_degenerate(self):
        smooth = float(gaussian_window_overlap((-0.5, 0.5), -0.2, 0.9, 0.5, 1e-7))
        sharp = float(gaussian_window_overlap((-0.5, 0.5), -0.2, 0.9, 0.5, 0.0))
        assert smooth == pytest.approx(sharp, abs=1e-9)

    @pytest.mark.parametrize("sy", [1e-12, 1e-9])
    @pytest.mark.parametrize("outside", [False, True])
    def test_sy_below_float_resolution_takes_the_interval_limit(self, sy, outside):
        # 1 - rho^2 rounds to 0 here, where the bivariate-normal form is undefined
        lo, hi = np.array([-0.2, 0.1]), np.array([0.9, 1.4])
        got = gaussian_window_overlap((-0.5, 0.5), lo, hi, 0.5, sy, outside=outside)
        want = gaussian_window_overlap((-0.5, 0.5), lo, hi, 0.5, 0.0, outside=outside)
        np.testing.assert_array_equal(got, want)

    def test_outside_is_cell_mass_less_overlap(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            cell = (-HALF_CELL, HALF_CELL) if rng.integers(0, 2) else (HALF_CELL, 3 * HALF_CELL)
            lo = rng.uniform(-3.0, 2.0)
            hi = lo + rng.uniform(0.2, 3.0)
            sx = rng.uniform(0.2, 0.9)
            for sy in (rng.uniform(0.01, 0.7), 0.0):
                mass = 0.5 * (math.erf(cell[1] / sx) - math.erf(cell[0] / sx))
                inside = float(gaussian_window_overlap(cell, lo, hi, sx, sy))
                outside = float(gaussian_window_overlap(cell, lo, hi, sx, sy, outside=True))
                assert outside == pytest.approx(mass - inside, abs=1e-14)

    def test_outside_keeps_relative_accuracy_in_the_tail(self):
        # a window covering the cell with a wide margin: the miss is a
        # product of two Gaussian tails, ~1e-31, where mass - overlap is 0
        cell, lo, hi, sx, sy = (-0.5, 0.5), -2.5, 2.5, 0.4, 0.2

        def integrand(x):
            tail = math.erfc((hi - x) / sy) + math.erfc((x - lo) / sy)
            return math.exp(-((x / sx) ** 2)) / (math.sqrt(math.pi) * sx) * 0.5 * tail

        want, _ = integrate.quad(integrand, *cell, epsabs=0.0, epsrel=1e-12, limit=200)
        got = float(gaussian_window_overlap(cell, lo, hi, sx, sy, outside=True))
        assert 0.0 < want < 1e-30
        assert got == pytest.approx(want, rel=1e-8)

    def test_broadcasts_over_windows(self):
        lo = np.linspace(-1.0, 0.0, 5)
        hi = lo + 0.8
        out = gaussian_window_overlap((-0.5, 0.5), lo, hi, 0.4, 0.2)
        assert out.shape == (5,)
        for i in range(5):
            assert out[i] == pytest.approx(
                self.brute((-0.5, 0.5), lo[i], hi[i], 0.4, 0.2), abs=1e-12
            )

    # sy = 1e-9 puts 1 - rho^2 below float resolution: the interval branch
    @pytest.mark.parametrize("sy", [0.2, 0.045, 1e-9, 0.0])
    @pytest.mark.parametrize("outside", [False, True])
    def test_array_cell_bounds_equal_the_scalar_calls(self, sy, outside):
        rng = np.random.default_rng(17)
        cells = [(-HALF_CELL, HALF_CELL), (HALF_CELL, 3 * HALF_CELL), (-0.3, 0.2)]
        pick = rng.integers(0, len(cells), size=60)
        a = np.array([cells[i][0] for i in pick])
        b = np.array([cells[i][1] for i in pick])
        lo = rng.uniform(-3.0, 2.0, size=60)
        hi = lo + rng.uniform(0.2, 3.0, size=60)
        got = gaussian_window_overlap((a, b), lo, hi, 0.5, sy, outside=outside)
        want = np.array([
            gaussian_window_overlap((a[i], b[i]), lo[i], hi[i], 0.5, sy, outside=outside)
            for i in range(60)
        ])
        assert got.shape == (60,)
        assert got.tobytes() == want.tobytes()
