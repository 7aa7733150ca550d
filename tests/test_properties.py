"""Derandomized property checks of the analytic rates over the figure range.

Every run draws the same points (``derandomize=True``, no example
database): delta in [0.1, 0.8], delta_tilde in [0, 0.6] and odd n from 3
to 15, on both the with-EC and the no-EC rate, and on the one-qubit
rates P_F (noisy ancilla) and p_x (ideal ancilla).  The with-EC
factorized and tensor per-case values are compared at n = 3.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkprep.distributions import NoiseParams, pauli_rate_ideal
from gkprep.lattice import TruncationError
from gkprep.repetition import (
    _ABS_TOL,
    CodeSize,
    QuadratureConfig,
    QuadratureError,
    _factorized_cases,
    _make_engine,
    failure_rate,
    failure_rate_no_gkp_ec,
    pauli_rate_physical,
    shared_engines,
)

# the failures a rate call may raise over this domain: an unmet
# tolerance or truncation bound, or a float overflow (the CLI's exit 3)
NUMERICAL = (QuadratureError, TruncationError, OverflowError)

DERANDOMIZED = settings(derandomize=True, max_examples=80, database=None, deadline=None)

RATES = pytest.mark.parametrize("rate", [failure_rate, failure_rate_no_gkp_ec])
SPREADS = st.floats(0.1, 0.8)
ANCILLA_SPREADS = st.floats(0.0, 0.6)
SIZES = st.sampled_from(range(3, 16, 2))


def _total(rate, n, delta, delta_tilde):
    """The checked breakdown total, or None where the call raised a numerical failure."""
    try:
        breakdown = rate(n, NoiseParams(delta, delta_tilde))
    except NUMERICAL:
        return None
    values = [value for _, value in breakdown.per_case]
    assert min(values) >= 0.0
    assert math.fsum(values) == breakdown.total
    assert 0.0 <= breakdown.total <= 1.0
    return breakdown.total


@RATES
@DERANDOMIZED
@given(delta=SPREADS, delta_tilde=ANCILLA_SPREADS, n=SIZES)
def test_breakdown_is_a_probability(rate, delta, delta_tilde, n):
    _total(rate, n, delta, delta_tilde)


@RATES
@DERANDOMIZED
@given(delta=SPREADS, spreads=st.tuples(ANCILLA_SPREADS, ANCILLA_SPREADS), n=SIZES)
def test_total_does_not_fall_as_the_ancilla_spread_grows(rate, delta, spreads, n):
    low, high = (_total(rate, n, delta, dt) for dt in sorted(spreads))
    if low is not None and high is not None:
        assert high >= low - 2.0 * _ABS_TOL


def _pauli_rate_physical(delta, delta_tilde):
    """P_F, checked to be a probability, or None where the call raised a numerical failure."""
    try:
        value = pauli_rate_physical(NoiseParams(delta, delta_tilde))
    except NUMERICAL:
        return None
    assert 0.0 <= value <= 1.0
    return value


@DERANDOMIZED
@given(delta=SPREADS, spreads=st.tuples(ANCILLA_SPREADS, ANCILLA_SPREADS))
def test_pf_does_not_fall_as_the_ancilla_spread_grows(delta, spreads):
    low, high = (_pauli_rate_physical(delta, dt) for dt in sorted(spreads))
    if low is not None and high is not None:
        assert high >= low - 2.0 * _ABS_TOL


@DERANDOMIZED
@given(spreads=st.tuples(SPREADS, SPREADS))
def test_px_does_not_fall_as_the_spread_grows(spreads):
    low, high = (pauli_rate_ideal(delta) for delta in sorted(spreads))
    assert 0.0 <= low <= high <= 1.0


@DERANDOMIZED
@given(delta=SPREADS, delta_tilde=st.floats(0.02, 0.6))
def test_tensor_oracle_matches_the_factorized_cases(delta, delta_tilde):
    """With EC at n = 3, both routes' per-case values agree to 1e-12 relative.

    Both read one 64-node engine: the tensor rate builds it inside a
    ``shared_engines`` block and the factorized values reuse it.  So they
    share the engine's nodes and its truncation of each cell (ROADMAP item
    15), and this checks that the two contractions agree, not that either
    value is right.  Points where the tensor method's node-spacing guard
    raises are skipped.
    """
    params = NoiseParams(delta, delta_tilde)
    with shared_engines():
        try:
            tensor = failure_rate(3, params, QuadratureConfig(64, "tensor")).per_case[:-1]
        except ValueError as exc:
            if "node spacing" not in str(exc):
                raise
            return
        factorized = _factorized_cases(_make_engine(True, params, 64), CodeSize(3))
    assert len(tensor) == len(factorized)
    for (label, value), want in zip(tensor, factorized):
        assert abs(value - want) <= 1e-12 * want, (label, value, want)
