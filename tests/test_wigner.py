import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from gkprep.analysis import SweepSpec, run_sweep
from gkprep.lattice import SQRT_PI
from gkprep.wigner import (
    GkpEnvelope,
    GridSpec,
    PhaseSpaceGrid,
    grid_to_binary,
    grid_to_csv,
    read_binary_grid,
    wigner_after_gdc,
    wigner_physical_zero,
    wigner_point,
)


def psi_zero(env, x):
    """Position wavefunction of logical zero in the finite-spread form, unnormalized.

    A comb of Gaussians exp(-(x - 2n*gamma*sqrt(pi))^2 / (2*d_s^2)) weighted
    by exp(-(pi/2) * k_s^2 * (2n)^2), with s = (delta*kappa)^2/4 shrinking
    both widths by sqrt(1 + s) and gamma = (1 - s)/(1 + s).
    """
    s = (env.delta * env.kappa) ** 2 / 4.0
    d_s, k_s = env.delta / math.sqrt(1.0 + s), env.kappa / math.sqrt(1.0 + s)
    gamma = (1.0 - s) / (1.0 + s)
    label = 2.0 * np.arange(-40, 41)
    weights = np.exp(-0.5 * math.pi * k_s**2 * label**2)
    peaks = np.asarray(x)[..., None] - label * gamma * SQRT_PI
    return np.exp(-(peaks**2) / (2.0 * d_s**2)) @ weights


def every_peak_wigner(env, q, p, channel=(0.0, 0.0)):
    """The closed form summed over every peak of the combs, with no window or clip.

    Labels j of the q peaks at j*gamma*sqrt(pi) (even j with the p comb,
    odd j with its sign-alternating twin) and m of the p peaks at
    m*gamma*sqrt(pi)/2 run far past every weight above 1e-16 for
    delta, kappa >= 0.1.
    """
    s = (env.delta * env.kappa) ** 2 / 4.0
    d_s, k_s = env.delta / math.sqrt(1.0 + s), env.kappa / math.sqrt(1.0 + s)
    gamma = (1.0 - s) / (1.0 + s)
    q_width, p_width = math.hypot(d_s, channel[0]), math.hypot(k_s, channel[1])
    j, m = np.arange(-60, 61), np.arange(-120, 121)
    q_terms = (np.exp(-(((q[:, None] - j * gamma * SQRT_PI) / q_width) ** 2))
               * np.exp(-math.pi * k_s**2 * j**2))
    p_terms = (np.exp(-(((p[:, None] - m * gamma * SQRT_PI / 2.0) / p_width) ** 2))
               * np.exp(-math.pi * d_s**2 * m**2 / 4.0))
    even = j % 2 == 0
    sign = np.where(m % 2 == 0, 1.0, -1.0)
    return d_s * k_s / (q_width * p_width) * (
        np.outer(q_terms[:, even].sum(axis=1), p_terms.sum(axis=1))
        + np.outer(q_terms[:, ~even].sum(axis=1), (p_terms * sign).sum(axis=1))
    )


FIG1_ENVELOPES = pytest.mark.parametrize("delta, kappa", [
    (0.25, 0.25), (0.25 * math.sqrt(2.0), 0.25 / math.sqrt(2.0)),
], ids=["fig1-r1", "fig1-rsqrt2"])


class TestGkpEnvelope:
    def test_validation(self):
        with pytest.raises(ValueError):
            GkpEnvelope(-0.1, 0.2)

    def test_fields_are_the_two_widths(self):
        assert [f.name for f in dataclasses.fields(GkpEnvelope)] == ["delta", "kappa"]
        with pytest.raises(TypeError):
            GkpEnvelope(0.3, 0.3, "one")
        assert not hasattr(GkpEnvelope(0.3, 0.3), "corrected")

    def test_corrections_shrink_widths(self):
        # on p = 0 the even q peak sits at 2*gamma*sqrt(pi), not 2*sqrt(pi),
        # and falls to 1/e at d_s = delta/sqrt(1 + x) from it; at delta the
        # ratio would be off by 1.6e-2 (measured within 1.5e-12 at d_s)
        env = GkpEnvelope(0.25, 1.0)
        x = (0.25 * 1.0) ** 2 / 4.0
        d_s, gamma = 0.25 / math.sqrt(1.0 + x), (1.0 - x) / (1.0 + x)
        centre = 2.0 * gamma * SQRT_PI
        peak = wigner_point(env, centre, 0.0)
        assert peak > wigner_point(env, 2.0 * SQRT_PI, 0.0)
        for q in (centre - d_s, centre + d_s):
            assert wigner_point(env, q, 0.0) / peak == pytest.approx(math.exp(-1.0), rel=1e-9)

    @pytest.mark.parametrize("spread", [1.5, 2.0])
    def test_spread_product_of_two_or_more_rejected(self, spread):
        # gamma = (1 - x)/(1 + x) is 0 at delta*kappa = 2 and negative past
        # it, where the form would alias a smaller spread: at the origin,
        # delta = kappa = 2 would give exactly the value of delta = kappa = 1
        with pytest.raises(ValueError, match=r"^delta\*kappa must be below 2, got "):
            GkpEnvelope(spread, spread)
        table = run_sweep(SweepSpec(
            "wigner_grid", (("q", (0.0,)),), {"delta": spread, "kappa": spread, "p": 0.0}))
        assert table.rows[0][-3:] == ("", "", "error:ValueError")

    def test_spread_product_just_below_two_accepted(self):
        env = GkpEnvelope(1.41, 1.41)
        value = wigner_point(env, 0.0, 0.0)
        assert math.isfinite(value) and value > 0.0


class TestWignerPhysicalZero:
    def setup_method(self):
        self.env = GkpEnvelope(0.25, 0.25)
        span = 6 * SQRT_PI
        self.spec = GridSpec((-span, span), (-span, span), 769, 769)
        self.grid = wigner_physical_zero(self.env, self.spec)

    def test_origin_is_global_max(self):
        values = self.grid.values
        i = np.unravel_index(np.argmax(values), values.shape)
        qa, pa = self.spec.q_axis(), self.spec.p_axis()
        assert abs(qa[i[0]]) < 1e-9 and abs(pa[i[1]]) < 1e-9
        assert values[i] > 0

    def test_first_interference_peak_negative(self):
        assert wigner_point(self.env, SQRT_PI, SQRT_PI / 2) < 0

    def test_mass_convention(self):
        qa, pa = self.spec.q_axis(), self.spec.p_axis()
        integral = np.trapezoid(np.trapezoid(self.grid.values, pa, axis=1), qa)
        assert integral / math.pi == pytest.approx(1.0, abs=0.02)

    def test_reflection_symmetry(self):
        v = self.grid.values
        assert np.allclose(v, v[::-1, ::-1], atol=1e-13)

    def test_point_equals_grid_cell(self):
        qa, pa = self.spec.q_axis(), self.spec.p_axis()
        for i, j in ((384, 384), (0, 768), (100, 457), (768, 1), (512, 128)):
            assert wigner_point(self.env, float(qa[i]), float(pa[j])) == self.grid.values[i, j]

    def test_tiny_spread_sums_only_the_peaks_in_reach(self):
        # the p comb has about 6.4/delta peaks above the weight cutoff, some
        # 6.4e9 here; a point sums the few within reach of it (measured
        # 4 kB and 0.4 ms), and the grid sums the same ones per cell
        env = GkpEnvelope(1e-9, 0.3)
        spec = GridSpec((-2 * SQRT_PI, 2 * SQRT_PI), (-2 * SQRT_PI, 2 * SQRT_PI), 9, 9)
        qa, pa = spec.q_axis(), spec.p_axis()
        tracemalloc.start()
        try:
            value = wigner_point(env, float(qa[4]), float(pa[5]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        grid = wigner_physical_zero(env, spec).values
        assert value == grid[4, 5] and value > 0.5
        for i, j in ((4, 4), (0, 8), (3, 2), (8, 0)):
            assert wigner_point(env, float(qa[i]), float(pa[j])) == grid[i, j]

    @FIG1_ENVELOPES
    def test_weyl_transform_of_the_wavefunction(self, delta, kappa):
        # oracle: W(q,p) = (1/pi) * int dy cos(2py) psi(q-y) psi(q+y) / |psi|^2;
        # the closed comb carries an extra factor pi.  The form misses by
        # 7.8e-7 (r1) and 5.3e-13 (rsqrt2); the small-spread form (no
        # shrink, gamma = 1) by 4.2e-3 and 9.5e-4, and y over +-8 sqrt(pi)
        # is too narrow for rsqrt2 (5.3e-4)
        env = GkpEnvelope(delta, kappa)
        y = np.linspace(-30 * SQRT_PI, 30 * SQRT_PI, 8_001)
        spec = GridSpec((-1.5 * SQRT_PI, 1.5 * SQRT_PI), (-1.2 * SQRT_PI, 1.2 * SQRT_PI), 7, 6)
        closed = wigner_physical_zero(env, spec).values
        norm_sq = np.trapezoid(psi_zero(env, y) ** 2, y)
        cosines = np.cos(2.0 * spec.p_axis()[:, None] * y)
        for i, qv in enumerate(spec.q_axis()):
            product = psi_zero(env, qv - y) * psi_zero(env, qv + y)
            transform = np.trapezoid(cosines * product, y, axis=1) / norm_sq
            assert np.max(np.abs(closed[i] - transform)) < 1e-4, qv

    @FIG1_ENVELOPES
    def test_position_marginal_is_the_density(self, delta, kappa):
        # int W dp = pi * psi(q)^2 / |psi|^2 on q over +-2 sqrt(pi); measured
        # 2.4e-5 (r1) and 8.4e-11 (rsqrt2)
        env = GkpEnvelope(delta, kappa)
        y = np.linspace(-30 * SQRT_PI, 30 * SQRT_PI, 8_001)
        spec = GridSpec((-2 * SQRT_PI, 2 * SQRT_PI), (y[0], y[-1]), 9, len(y))
        marginal = np.trapezoid(wigner_physical_zero(env, spec).values, y, axis=1)
        norm_sq = np.trapezoid(psi_zero(env, y) ** 2, y)
        density = math.pi * psi_zero(env, spec.q_axis()) ** 2 / norm_sq
        assert np.max(np.abs(marginal - density)) < 1e-4
        # the troughs at +-sqrt(pi): 6e-18 (r1) and 4.3e-11 (rsqrt2) of the peak
        assert np.all(np.abs(marginal[2::4]) < 1e-10 * marginal[4])

    @FIG1_ENVELOPES
    def test_momentum_marginal_is_the_density(self, delta, kappa):
        # int W dq = pi * |phi(p)|^2 / |psi|^2 with phi(p) the unitary Fourier
        # transform int psi(y) cos(py) dy / sqrt(2 pi) of the even psi;
        # measured 1.2e-5 (r1) and 1.7e-10 (rsqrt2)
        env = GkpEnvelope(delta, kappa)
        y = np.linspace(-30 * SQRT_PI, 30 * SQRT_PI, 8_001)
        spec = GridSpec((y[0], y[-1]), (-2 * SQRT_PI, 2 * SQRT_PI), len(y), 9)
        marginal = np.trapezoid(wigner_physical_zero(env, spec).values, y, axis=0)
        psi = psi_zero(env, y)
        phi = np.trapezoid(np.cos(spec.p_axis()[:, None] * y) * psi, y, axis=1)
        density = phi**2 / (2.0 * np.trapezoid(psi**2, y))
        assert np.max(np.abs(marginal - density)) < 1e-4


class TestWignerAfterGdc:
    def test_identity_channel(self):
        env = GkpEnvelope(0.25, 0.25)
        spec = GridSpec((-2 * SQRT_PI, 2 * SQRT_PI), (-2 * SQRT_PI, 2 * SQRT_PI), 65, 65)
        base = wigner_physical_zero(env, spec).values
        gdc = wigner_after_gdc(env, (0.0, 0.0), spec).values
        assert np.array_equal(base, gdc)

    @pytest.mark.parametrize("delta, kappa, channel", [
        (0.25, 0.25, (0.0, 0.0)), (0.25 * math.sqrt(2.0), 0.25 / math.sqrt(2.0), (0.0, 0.0)),
        (0.1, 1.0, (0.0, 0.0)), (1.4, 1.41, (0.0, 0.0)), (0.5, 0.8, (0.3, 0.1)),
        (0.25, 0.25, (2.0, 0.5)),
    ])
    def test_equals_the_sum_over_every_peak(self, delta, kappa, channel):
        # each comb sums only a window of peaks around each point: one that
        # dropped a peak within reach would be off here by far more than
        # the weights below the 1e-14 cutoff (measured within 1.0e-15)
        env = GkpEnvelope(delta, kappa)
        spec = GridSpec((-9.0, 9.0), (-8.5, 9.5), 181, 173)
        got = wigner_after_gdc(env, channel, spec).values
        want = every_peak_wigner(env, spec.q_axis(), spec.p_axis(), channel)
        assert np.max(np.abs(got - want)) < 1e-13

    def test_negative_channel_rejected(self):
        env = GkpEnvelope(0.25, 0.25)
        spec = GridSpec((-1, 1), (-1, 1), 4, 4)
        with pytest.raises(ValueError):
            wigner_after_gdc(env, (-0.1, 0.0), spec)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "0.1", -0.1])
    @pytest.mark.parametrize("axis", ["dq", "dp"])
    def test_channel_spread_must_be_a_non_negative_finite_real(self, axis, bad):
        # nan gave an all-nan grid and inf a grid of zeros, with no error
        env = GkpEnvelope(0.25, 0.25)
        spec = GridSpec((-1, 1), (-1, 1), 3, 3)
        channel = (bad, 0.1) if axis == "dq" else (0.1, bad)
        with pytest.raises(ValueError, match=f"{axis} must be a"):
            wigner_after_gdc(env, channel, spec)

    def test_peak_variance_additivity(self):
        # fit ln W = a - q^2/w^2 on the p = 0 cut near the peak; the fitted
        # variance w^2/2 must show the channel variance added in
        env = GkpEnvelope(0.25, 0.2)
        dq = 0.3
        spec = GridSpec((-0.5, 0.5), (-0.4, 0.4), 201, 11)
        grid = wigner_after_gdc(env, (dq, 0.0), spec)
        qa = spec.q_axis()
        profile = grid.values[:, 5]  # p = 0 cut through the central peak
        coeffs = np.polyfit(qa**2, np.log(profile), 1)
        fitted_variance = -1.0 / coeffs[0] / 2.0
        want = (env.delta**2 + dq**2) / 2.0  # spread^2/2 variance convention
        assert fitted_variance == pytest.approx(want, rel=0.02)

    def test_against_brute_force_convolution(self):
        # oracle: separable discrete convolution of the unconvolved grid
        env = GkpEnvelope(0.25, 0.25)
        dq, dp = 0.3, 0.15
        span = 2 * SQRT_PI
        target = GridSpec((-span, span), (-span, span), 64, 64)
        closed = wigner_after_gdc(env, (dq, dp), target).values

        margin = 6.0 * max(dq, dp)
        step = (2 * span) / (64 - 1) / 8.0
        fine_q = np.arange(-span - margin, span + margin + step, step)
        fine_p = np.arange(-span - margin, span + margin + step, step)
        fine_spec = GridSpec(
            (fine_q[0], fine_q[-1]), (fine_p[0], fine_p[-1]), len(fine_q), len(fine_p)
        )
        base = wigner_physical_zero(env, fine_spec).values
        qa, pa = target.q_axis(), target.p_axis()
        kq = np.exp(-((qa[:, None] - fine_q[None, :]) / dq) ** 2) / (SQRT_PI * dq)
        kp = np.exp(-((pa[:, None] - fine_p[None, :]) / dp) ** 2) / (SQRT_PI * dp)
        brute = (kq * step) @ base @ (kp * step).T
        assert np.max(np.abs(brute - closed)) < 1e-4


class TestGridExport:
    def test_csv_round_trip(self, tmp_path):
        env = GkpEnvelope(0.25, 0.25)
        spec = GridSpec((-1.0, 1.0), (-0.5, 0.5), 5, 3)
        grid = wigner_physical_zero(env, spec)
        path = tmp_path / "grid.csv"
        grid_to_csv(grid, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "q,p,value"
        assert len(lines) == 1 + 5 * 3
        q, p, v = (float(t) for t in lines[1].split(","))
        assert (q, p) == (-1.0, -0.5)
        assert v == grid.values[0, 0]

    @staticmethod
    def _csv_one_line_per_write(grid, path):
        """The CSV written one f-string per grid point."""
        with open(path, "w", newline="") as handle:
            handle.write("q,p,value\n")
            q_axis, p_axis = grid.spec.q_axis(), grid.spec.p_axis()
            for i, qv in enumerate(q_axis):
                for j, pv in enumerate(p_axis):
                    handle.write(f"{qv:.17g},{pv:.17g},{grid.values[i, j]:.17g}\n")

    def test_csv_matches_one_line_per_write(self, tmp_path):
        # n_q != n_p, so a swapped q and p axis changes the bytes
        spec = GridSpec((-1.3, 2.0), (-0.7, 0.45), 5, 7)
        values = np.random.default_rng(3).normal(size=(5, 7)) * 10.0 ** np.arange(-3, 4)
        values[0, :4] = (-0.0, 5e-324, 1e300, -1e300)
        values[1, :3] = (2.0, -7.0, 0.0)
        grid = PhaseSpaceGrid(spec=spec, values=values)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        grid_to_csv(grid, str(got))
        self._csv_one_line_per_write(grid, str(want))
        assert got.read_bytes() == want.read_bytes()

    def test_csv_export_holds_about_one_row(self, tmp_path):
        # the fig. 1 grid: written row by row it peaks at about 54 kB, and
        # joined into one string before the write at about 2.05 MB
        spec = GridSpec((-2 * SQRT_PI, 2 * SQRT_PI), (-2 * SQRT_PI, 2 * SQRT_PI), 129, 129)
        grid = wigner_physical_zero(GkpEnvelope(0.25, 0.25), spec)
        path = str(tmp_path / "grid.csv")
        grid_to_csv(grid, path)
        tracemalloc.start()
        try:
            grid_to_csv(grid, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_binary_round_trip(self, tmp_path):
        env = GkpEnvelope(0.25, 0.25)
        spec = GridSpec((-2.0, 2.0), (-1.0, 1.0), 8, 6)
        grid = wigner_physical_zero(env, spec)
        path = str(tmp_path / "grid.bin")
        grid_to_binary(grid, path)
        back = read_binary_grid(path)
        assert np.array_equal(back.values, grid.values)
        assert back.spec.n_q == 8 and back.spec.n_p == 6
        assert back.spec.q_range == pytest.approx(spec.q_range, rel=1e-6)

    def test_binary_header_is_32_bytes(self, tmp_path):
        env = GkpEnvelope(0.25, 0.25)
        spec = GridSpec((-1.0, 1.0), (-1.0, 1.0), 4, 4)
        path = str(tmp_path / "grid.bin")
        grid_to_binary(wigner_physical_zero(env, spec), path)
        import os

        assert os.path.getsize(path) == 32 + 8 * 4 * 4

    @staticmethod
    def _grid_bytes(tmp_path) -> bytes:
        """The file of a 3 x 4 grid: a 32-byte header and 96 value bytes."""
        path = tmp_path / "grid.bin"
        grid_to_binary(wigner_physical_zero(
            GkpEnvelope(0.25, 0.25), GridSpec((-1.0, 1.0), (-1.0, 1.0), 3, 4)), str(path))
        return path.read_bytes()

    def test_small_grid_round_trip(self, tmp_path):
        data = self._grid_bytes(tmp_path)
        assert len(data) == 128
        back = read_binary_grid(str(tmp_path / "grid.bin"))
        assert back.values.shape == (3, 4)
        assert back.values.tobytes() == data[32:]

    @pytest.mark.parametrize("cut, want", [
        (slice(0, 20), "20 bytes, expected at least 32"),
        (slice(0, 120), "120 bytes, expected 128 for a 3x4 grid"),
        (slice(0, None), "136 bytes, expected 128 for a 3x4 grid"),
    ], ids=["short-header", "short-body", "trailing-bytes"])
    def test_wrong_size_rejected(self, tmp_path, cut, want):
        data = self._grid_bytes(tmp_path)[cut]
        path = tmp_path / "bad.bin"
        path.write_bytes(data + (b"\0" * 8 if cut.stop is None else b""))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {want}$"):
            read_binary_grid(str(path))

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bad.bin")
        with open(path, "wb") as fh:
            fh.write(b"\0" * 64)
        with pytest.raises(ValueError):
            read_binary_grid(path)


class TestFigureOnePanels:
    def test_peak_width_flip(self):
        # panel (a): unbiased; panel (b): biased by r = sqrt(2).  The central
        # peak's second moments along q and p swap their ordering: equal in
        # (a), q wider than p in (b), with q widening and p narrowing.
        delta = 0.25
        windows = GridSpec(
            (-SQRT_PI / 2, SQRT_PI / 2), (-SQRT_PI / 4, SQRT_PI / 4), 241, 121
        )

        def central_moments(r):
            env = GkpEnvelope(r * delta, delta / r)
            grid = wigner_physical_zero(env, windows)
            qa, pa = windows.q_axis(), windows.p_axis()
            w = grid.values
            mass = np.trapezoid(np.trapezoid(w, pa, axis=1), qa)
            mq = np.trapezoid(qa**2 * np.trapezoid(w, pa, axis=1), qa) / mass
            mp = np.trapezoid(pa**2 * np.trapezoid(w, qa, axis=0), pa) / mass
            return mq, mp

        mq_a, mp_a = central_moments(1.0)
        mq_b, mp_b = central_moments(math.sqrt(2.0))
        assert mq_b > mq_a  # q peaks widen under bias
        assert mp_b < mp_a  # p peaks narrow under bias
        assert mq_b > 1.5 * mp_b  # clear asymmetry in the biased panel
        assert abs(mq_a - mp_a) < 0.15 * mq_a  # near-symmetric unbiased panel
