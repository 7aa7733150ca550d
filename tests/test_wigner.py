import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from gkprep.lattice import SQRT_PI
from gkprep.wigner import (
    GkpEnvelope,
    GridSpec,
    PhaseSpaceGrid,
    grid_to_binary,
    grid_to_csv,
    read_binary_grid,
    wavefunction,
    wigner_after_gdc,
    wigner_physical_zero,
    wigner_point,
)


class TestGkpEnvelope:
    def test_validation(self):
        with pytest.raises(ValueError):
            GkpEnvelope(-0.1, 0.2)
        with pytest.raises(ValueError, match="logical must be zero/one/plus, got 'minus'"):
            wavefunction(GkpEnvelope(0.2, 0.2), "position", 0.0, logical="minus")

    def test_fields_are_the_two_widths(self):
        # the logical state is an argument of wavefunction, its only reader
        assert [f.name for f in dataclasses.fields(GkpEnvelope)] == ["delta", "kappa"]
        with pytest.raises(TypeError):
            GkpEnvelope(0.3, 0.3, "one")
        assert not hasattr(GkpEnvelope(0.3, 0.3), "corrected")
        q = np.linspace(-3.0, 3.0, 7)
        env = GkpEnvelope(0.3, 0.3)
        assert np.array_equal(wavefunction(env, "position", q),
                              wavefunction(env, "position", q, logical="zero"))

    def test_corrections_shrink_widths(self):
        d_s, k_s, gamma = GkpEnvelope(0.3, 0.3).widths(exact=True)
        assert d_s < 0.3 and k_s < 0.3 and gamma < 1.0
        assert GkpEnvelope(0.3, 0.3).widths(exact=False) == (0.3, 0.3, 1.0)


class TestWavefunction:
    def test_zero_position_trough_suppressed(self):
        env = GkpEnvelope(0.25, 0.25)
        ratio = wavefunction(env, "position", SQRT_PI) / wavefunction(
            env, "position", 0.0
        )
        assert 0 < ratio < 3.0 * math.exp(-math.pi / (2 * 0.25**2))

    def test_zero_position_normalized_after_numerical_norm(self):
        env = GkpEnvelope(0.25, 0.25)
        q = np.linspace(-10 * SQRT_PI, 10 * SQRT_PI, 200_001)
        psi = wavefunction(env, "position", q)
        norm_sq = np.trapezoid(psi**2, q)
        assert math.isfinite(norm_sq)
        assert norm_sq == pytest.approx(1.0, abs=1e-4)  # small-spread prefactor
        psi_n = psi / math.sqrt(norm_sq)
        assert np.trapezoid(psi_n**2, q) == pytest.approx(1.0, abs=1e-6)

    def test_one_momentum_sign_alternation(self):
        env = GkpEnvelope(0.25, 0.25)
        vals = wavefunction(env, "momentum", np.array([0.0, SQRT_PI]), logical="one")
        assert vals[1] / vals[0] < 0.0

    def test_one_position_peaks_at_odd_multiples(self):
        env = GkpEnvelope(0.2, 0.2)
        assert wavefunction(env, "position", SQRT_PI, logical="one") > 100.0 * wavefunction(
            env, "position", 0.0, logical="one"
        )

    def test_plus_position_peaks_at_all_multiples(self):
        env = GkpEnvelope(0.2, 0.2)
        at_zero = wavefunction(env, "position", 0.0, logical="plus")
        at_one = wavefunction(env, "position", SQRT_PI, logical="plus")
        assert at_one == pytest.approx(
            at_zero * math.exp(-math.pi * 0.2**2 / 2), rel=1e-6
        )

    def test_plus_momentum_peaks_at_even_multiples(self):
        # conjugate structure of the logical-zero position comb
        env = GkpEnvelope(0.2, 0.2)
        peak = wavefunction(env, "momentum", 2 * SQRT_PI, logical="plus")
        assert peak > 100.0 * wavefunction(env, "momentum", SQRT_PI, logical="plus")

    def test_momentum_forms_squared_norm_is_two(self):
        # documented prefactor convention for the denser combs
        env = GkpEnvelope(0.25, 0.25)
        p = np.linspace(-10 * SQRT_PI, 10 * SQRT_PI, 200_001)
        psi = wavefunction(env, "momentum", p)
        assert np.trapezoid(psi**2, p) == pytest.approx(2.0, abs=1e-3)

    def test_exact_flag_shifts_peaks(self):
        env = GkpEnvelope(0.4, 0.4)
        _, _, gamma = env.widths(exact=True)
        approx_peak = wavefunction(env, "position", 2 * SQRT_PI)
        exact_peak = wavefunction(env, "position", 2 * SQRT_PI * gamma, exact=True)
        assert exact_peak > approx_peak  # exact peak sits at the shifted centre


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

    def test_wavefunction_transform_consistency(self):
        # oracle: W(q,p) = (1/pi) * int dy exp(-2ipy) psi(q-y) psi(q+y);
        # the closed comb carries an extra factor pi relative to the
        # unit-mass transform.  Exact forms on both sides so the comparison
        # is limited by quadrature only.
        env = GkpEnvelope(0.25, 0.25)
        y = np.linspace(-8 * SQRT_PI, 8 * SQRT_PI, 60_001)
        q_axis = np.linspace(-1.5 * SQRT_PI, 1.5 * SQRT_PI, 5)
        p_axis = np.linspace(-1.2 * SQRT_PI, 1.2 * SQRT_PI, 4)
        psi_norm_sq = np.trapezoid(
            wavefunction(env, "position", y, exact=True) ** 2, y
        )
        spec = GridSpec(
            (q_axis[0], q_axis[-1]), (p_axis[0], p_axis[-1]), len(q_axis), len(p_axis)
        )
        closed = wigner_physical_zero(env, spec, exact=True).values
        for i, qv in enumerate(q_axis):
            left = wavefunction(env, "position", qv - y, exact=True)
            right = wavefunction(env, "position", qv + y, exact=True)
            for j, pv in enumerate(p_axis):
                transform = np.trapezoid(
                    np.cos(2.0 * pv * y) * left * right, y
                ) / psi_norm_sq
                assert closed[i, j] == pytest.approx(
                    math.pi * transform / math.pi, abs=1e-4
                ), (qv, pv)

    def test_exact_flag_at_moderate_spread(self):
        env = GkpEnvelope(0.4, 0.4)
        spec = GridSpec((-SQRT_PI, SQRT_PI), (-SQRT_PI, SQRT_PI), 33, 33)
        approx = wigner_physical_zero(env, spec).values
        exact = wigner_physical_zero(env, spec, exact=True).values
        assert not np.allclose(approx, exact, atol=1e-6)


class TestWignerAfterGdc:
    def test_identity_channel(self):
        env = GkpEnvelope(0.25, 0.25)
        spec = GridSpec((-2 * SQRT_PI, 2 * SQRT_PI), (-2 * SQRT_PI, 2 * SQRT_PI), 65, 65)
        base = wigner_physical_zero(env, spec).values
        gdc = wigner_after_gdc(env, (0.0, 0.0), spec).values
        assert np.max(np.abs(base - gdc)) < 1e-12

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
