"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import hashlib
import itertools
import math
import os
import subprocess
import sys
import time

import numpy as np
from scipy import stats

from gkprep import repetition
from gkprep.analysis import CrossingQuery, critical_ancilla_spread, optimal_bias
from gkprep.distributions import (
    NoiseParams,
    ResidualDistribution,
    pauli_rate_ideal,
    residual_cdf,
)
from gkprep.lattice import SQRT_PI
from gkprep.montecarlo import ShotConfig, run_tally, sample_residual
from gkprep.quadrature import panel_nodes
from gkprep.repetition import (
    CodeSize,
    classical_failure,
    failure_rate,
    failure_rate_no_gkp_ec,
    pauli_rate_physical,
)
from gkprep.wigner import GkpEnvelope, GridSpec, wigner_after_gdc, wigner_physical_zero


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:2d}: PASS - {message}")


def test_criterion_01_pf_limit_identity():
    start = time.perf_counter()
    gap = abs(pauli_rate_physical(NoiseParams(0.5, 1e-6)) - pauli_rate_ideal(0.5))
    elapsed = time.perf_counter() - start
    assert gap < 1e-4
    assert elapsed < 1.0
    report(1, f"|P_F(0.5, 1e-6) - P_X(0.5)| = {gap:.2e} < 1e-4 in {elapsed:.2f}s")


def test_criterion_02_classical_limit():
    start = time.perf_counter()
    p = pauli_rate_ideal(0.5)
    worst = 0.0
    for n in (3, 5, 7, 9):
        got = failure_rate(n, NoiseParams(0.5, 1e-6)).total
        worst = max(worst, abs(got - classical_failure(n, p)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-3
    assert elapsed < 10.0
    report(2, f"max |P_f,n-rep - classical| = {worst:.2e} < 1e-3 in {elapsed:.2f}s")


def test_criterion_03_dual_oracle_quadrature():
    # both routes on the same 32-node engine, so the gap is the reduction's
    worst = 0.0
    for n, delta, dt in itertools.product((3, 5), (0.4, 0.5), (0.1, 0.3)):
        engine = repetition._make_engine(True, NoiseParams(delta, dt), 32)
        fact = math.fsum(repetition._factorized_cases(engine, CodeSize(n)))
        tens = math.fsum(repetition._tensor_cases(engine, CodeSize(n)))
        worst = max(worst, abs(fact - tens))
    assert worst < 1e-6
    start = time.perf_counter()
    failure_rate(9, NoiseParams(0.5, 0.2))
    n9_time = time.perf_counter() - start
    assert n9_time < 1.0
    report(3, f"max |factorized - tensor| = {worst:.2e} < 1e-6; n=9 in {n9_time:.3f}s")


def test_criterion_04_analytic_monte_carlo_agreement():
    start = time.perf_counter()
    worst_sigma = 0.0
    for delta, dt, n in itertools.product((0.4, 0.5, 0.6), (0.1, 0.2, 0.3), (3, 5)):
        params = NoiseParams(delta, dt)
        ana = failure_rate(n, params).total
        cfg = ShotConfig(n, params, shots=1_000_000, seed=20_240_000 + n)
        # the tally is the same for any worker count (criterion 13)
        tally = run_tally(cfg, partitions=os.cpu_count() or 1)
        # binomial SE under the analytic rate; guards the p_hat = 0 cells
        se = max(tally.std_err, math.sqrt(ana * (1.0 - ana) / tally.shots))
        sigma = abs(tally.rate - ana) / se
        worst_sigma = max(worst_sigma, sigma)
        assert sigma <= 4.0, (delta, dt, n, tally.rate, ana)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(4, f"18-cell grid, worst deviation {worst_sigma:.2f} SE <= 4 in {elapsed:.0f}s")


def test_criterion_05_fig6_crossing():
    q = CrossingQuery(delta=0.5, left_size="single", right_size=3, bracket=(0.15, 0.45))
    result = critical_ancilla_spread(q)
    assert result.status == "found"
    assert 0.27 <= result.value <= 0.33
    report(5, f"critical ancilla spread {result.value:.4f} in [0.27, 0.33]")


def test_criterion_06_fig8_ordering_flip():
    high = [failure_rate(n, NoiseParams(0.5, 0.45)).total for n in (3, 5, 7, 9)]
    low = [failure_rate(n, NoiseParams(0.5, 0.08)).total for n in (3, 5, 7, 9)]
    assert all(a < b for a, b in zip(high, high[1:]))
    assert all(a > b for a, b in zip(low, low[1:]))
    report(6, "P_f,n-rep increasing in n at dt=0.45 and decreasing at dt=0.08")


def test_criterion_07_fig9_bounds_and_ordering():
    ratios = []
    for delta in (0.3, 0.4, 0.5, 0.6):
        values = {}
        for n, m in ((5, 3), (7, 5), (9, 7)):
            q = CrossingQuery(
                delta=delta, left_size=n, right_size=m,
                bracket=(0.15 * delta, 0.65 * delta),
            )
            result = critical_ancilla_spread(q)
            assert result.status == "found", (n, m, delta)
            values[(n, m)] = result.value
            ratio = result.value / delta
            ratios.append(ratio)
            assert 0.25 <= ratio <= 0.5, (n, m, delta, ratio)
        assert values[(9, 7)] < values[(7, 5)] < values[(5, 3)], delta
    report(
        7,
        f"delta_nm/delta in [{min(ratios):.3f}, {max(ratios):.3f}] within [0.25, 0.5]; "
        "ordering 97 < 75 < 53 at every delta",
    )


def test_criterion_08_fig10_gkp_ec_necessity():
    crossing = critical_ancilla_spread(
        CrossingQuery(delta=0.5, left_size="single", right_size=3, bracket=(0.15, 0.45))
    ).value
    grid = np.linspace(0.02, 0.5, 12)[1:-1]  # 10 interior points
    for dt in grid:
        no_ec = [
            failure_rate_no_gkp_ec(n, NoiseParams(0.5, dt)).total for n in (3, 5, 7, 9)
        ]
        assert all(a < b for a, b in zip(no_ec, no_ec[1:])), dt
        if dt < crossing:
            for n, bad in zip((3, 5, 7, 9), no_ec):
                good = failure_rate(n, NoiseParams(0.5, dt)).total
                assert bad > good, (n, dt)
    report(8, "P'_f,n-rep increases with n everywhere and exceeds with-EC below dt_cr")


def test_criterion_09_fig11_bias_optimization():
    results = {}
    for n in (3, 5, 7, 9):
        opt = optimal_bias(n, 0.5, 0.0, (1.0, 6.0))
        assert opt.interior and opt.unimodal, n
        results[n] = opt
    ns = (3, 5, 7, 9)
    assert all(results[a].p_min > results[b].p_min for a, b in zip(ns, ns[1:]))
    assert all(results[a].r_opt < results[b].r_opt for a, b in zip(ns, ns[1:]))
    report(
        9,
        "interior minima; p_min decreasing and r_opt increasing in n "
        f"(r_opt: {', '.join(f'{results[n].r_opt:.2f}' for n in ns)})",
    )


def test_criterion_10_threshold_sanity():
    below = {n: optimal_bias(n, 0.5, 0.0, (1.0, 6.0)).p_min for n in (3, 9)}
    above = {n: optimal_bias(n, 0.9, 0.0, (1.0, 6.0)).p_min for n in (3, 9)}
    assert below[9] < below[3]
    assert above[9] >= above[3]
    report(
        10,
        f"min_r P_fail n=3->9: decreases at delta=0.5 "
        f"({below[3]:.3e} -> {below[9]:.3e}), does not at delta=0.9 "
        f"({above[3]:.3e} -> {above[9]:.3e})",
    )


def test_criterion_11_distribution_correctness():
    dist = ResidualDistribution(0.5, 0.2)
    rng = np.random.default_rng(2024)
    xs = rng.uniform(-2 * SQRT_PI, 2 * SQRT_PI, 100)
    h = 1e-4
    worst = 0.0
    for x in xs:
        oracle = (residual_cdf(dist, x + h) - residual_cdf(dist, x - h)) / (2 * h)
        worst = max(worst, abs(dist.density(float(x)) - oracle))
    assert worst < 1e-6

    shots = 1_000_000
    draws = sample_residual(0.5, 0.2, seed=909, shots=shots)
    edges = np.linspace(-2 * SQRT_PI, 2 * SQRT_PI, 201)
    observed, _ = np.histogram(draws, bins=edges)
    expected = np.empty(200)
    for i in range(200):
        x, w = panel_nodes(edges[i], edges[i + 1], 2, 12)
        expected[i] = np.dot(w, dist.density(x)) * shots
    obs_pool, exp_pool = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            obs_pool.append(acc_o)
            exp_pool.append(acc_e)
            acc_o = acc_e = 0.0
    exp_pool[-1] += acc_e
    obs_pool[-1] += acc_o
    obs_arr, exp_arr = np.array(obs_pool), np.array(exp_pool)
    chi2 = float(np.sum((obs_arr - exp_arr) ** 2 / exp_arr))
    dof = len(obs_arr) - 1
    threshold = stats.chi2.ppf(0.99, dof)
    assert chi2 < threshold
    report(
        11,
        f"density vs CDF derivative within {worst:.1e}; "
        f"chi2 = {chi2:.1f} < {threshold:.1f} (dof {dof})",
    )


def test_criterion_12_wigner_reproduction():
    delta = 0.25
    windows = GridSpec(
        (-SQRT_PI / 2, SQRT_PI / 2), (-SQRT_PI / 4, SQRT_PI / 4), 241, 121
    )

    def central_moments(r):
        env = GkpEnvelope(r * delta, delta / r)
        grid = wigner_physical_zero(env, windows)
        qa, pa = windows.q_axis(), windows.p_axis()
        mass = np.trapezoid(np.trapezoid(grid.values, pa, axis=1), qa)
        mq = np.trapezoid(qa**2 * np.trapezoid(grid.values, pa, axis=1), qa) / mass
        mp = np.trapezoid(pa**2 * np.trapezoid(grid.values, qa, axis=0), pa) / mass
        return mq, mp

    mq_a, mp_a = central_moments(1.0)
    mq_b, mp_b = central_moments(math.sqrt(2.0))
    assert mq_b > mq_a and mp_b < mp_a  # widths flip between panels
    assert mq_b > 1.5 * mp_b
    assert abs(mq_a - mp_a) < 0.15 * mq_a

    env = GkpEnvelope(delta, delta)
    dq, dp = 0.3, 0.15
    span = 2 * SQRT_PI
    target = GridSpec((-span, span), (-span, span), 64, 64)
    closed = wigner_after_gdc(env, (dq, dp), target).values
    margin = 6.0 * max(dq, dp)
    step = (2 * span) / 63 / 8.0
    fine_q = np.arange(-span - margin, span + margin + step, step)
    fine_spec = GridSpec(
        (fine_q[0], fine_q[-1]), (fine_q[0], fine_q[-1]), len(fine_q), len(fine_q)
    )
    base = wigner_physical_zero(env, fine_spec).values
    qa, pa = target.q_axis(), target.p_axis()
    kq = np.exp(-(((qa[:, None] - fine_q[None, :]) / dq) ** 2)) / (SQRT_PI * dq)
    kp = np.exp(-(((pa[:, None] - fine_q[None, :]) / dp) ** 2)) / (SQRT_PI * dp)
    brute = (kq * step) @ base @ (kp * step).T
    conv_gap = float(np.max(np.abs(brute - closed)))
    assert conv_gap < 1e-4
    report(
        12,
        f"peak-width flip reproduced (q: {mq_a:.4f}->{mq_b:.4f}, "
        f"p: {mp_a:.4f}->{mp_b:.4f}); GDC vs convolution {conv_gap:.1e} < 1e-4",
    )


def test_criterion_13_determinism(tmp_path):
    args = [
        sys.executable, "-m", "gkprep.cli", "mc", "--n", "3", "--delta", "0.5",
        "--delta-tilde", "0.2", "--shots", "50000", "--seed", "11",
    ]

    def run_at_once(argvs):
        procs = [subprocess.Popen(argv, stdout=subprocess.PIPE) for argv in argvs]
        stdouts = [proc.communicate()[0] for proc in procs]
        assert [proc.returncode for proc in procs] == [0] * len(procs)
        return stdouts

    # reruns and worker counts, untraced and traced (the default, every
    # core, too), four runs at a time
    counts = (["--workers", "1"], ["--workers", "4"], ["--workers", "16"])
    outputs = run_at_once([args + workers for workers in (*counts, ["--workers", "1"])])
    traces = [tmp_path / f"trace{i}.jsonl" for i in range(4)]
    outputs += run_at_once([
        args + workers + ["--trace", str(trace)] for workers, trace in zip((*counts, []), traces)
    ])
    assert len(set(outputs)) == 1
    assert len({hashlib.sha256(trace.read_bytes()).hexdigest() for trace in traces}) == 1
    report(13, "byte-identical MC output and trace across reruns and worker counts")
