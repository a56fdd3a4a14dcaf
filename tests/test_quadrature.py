"""Composite Gauss-Legendre panels, the doubling driver and the dt/t grid.

Oracles: a Gauss-Legendre rule of order n integrates every polynomial of
degree at most 2n - 1 exactly, and the dt/t measure of [t_min, t_max] is
ln(t_max / t_min) whatever the panels.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvs import HermiteExpansion, make_context
from gvs.errors import ConvergenceError
from gvs.quadrature import legendre_rule, logtime_grid, panel_rule, settle_by_doubling
from gvs.semigroups import ph_apply_subordination


def _abs_power_integral(lo: float, hi: float, m: int) -> float:
    """integral_lo^hi |u|^m du, the scale the quadrature error is judged against."""
    if lo >= 0.0:
        return (hi ** (m + 1) - lo ** (m + 1)) / (m + 1)
    if hi <= 0.0:
        return ((-lo) ** (m + 1) - (-hi) ** (m + 1)) / (m + 1)
    return ((-lo) ** (m + 1) + hi ** (m + 1)) / (m + 1)


@settings(max_examples=60, deadline=None)
@given(
    order=st.sampled_from([6, 8, 12]),
    start=st.floats(min_value=-3.0, max_value=3.0),
    widths=st.lists(st.floats(min_value=0.01, max_value=2.0), min_size=1, max_size=8),
    data=st.data(),
)
def test_panel_rule_exact_on_polynomials(order, start, widths, data):
    m = data.draw(st.integers(min_value=0, max_value=2 * order - 1), label="m")
    edges = start + np.concatenate([[0.0], np.cumsum(widths)])
    lo, hi = edges[:-1], edges[1:]
    nodes, weights = panel_rule(lo, hi, order)
    assert nodes.shape == weights.shape == (len(widths), order)
    assert np.all((nodes > lo[:, None]) & (nodes < hi[:, None]))
    got = np.sum(weights * nodes**m, axis=1)
    for i, (a, b) in enumerate(zip(lo, hi)):
        exact = (b ** (m + 1) - a ** (m + 1)) / (m + 1)
        assert abs(got[i] - exact) <= 1e-12 * _abs_power_integral(a, b, m)


def test_legendre_rule_is_cached_and_read_only():
    nodes, weights = legendre_rule(8)
    assert legendre_rule(8)[0] is nodes
    assert weights.sum() == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(ValueError):
        nodes[0] = 0.0


@pytest.mark.parametrize("breakpoints", [(), (0.5, 1.0, 3.7), (1e-4, 0.01, 1e3)])
def test_logtime_weights_sum_to_log_ratio(breakpoints):
    grid = logtime_grid(1e-4, 1e3, 50, breakpoints)
    assert grid.weights.sum() == pytest.approx(math.log(1e7), rel=1e-12)
    assert np.all(np.diff(grid.points) > 0)


def test_logtime_breakpoints_become_panel_edges():
    grid = logtime_grid(1e-4, 1e3, 50, (0.5, 1.0, 3.7))
    edges = grid.panel_edges
    assert {0.5, 1.0, 3.7} <= set(edges.tolist())
    assert len(edges) == 51 + 3
    assert grid.points.size == 6 * (len(edges) - 1)


def test_driver_doubles_until_two_values_agree():
    calls = []

    def value(n):
        calls.append(n)
        return 1.0 if n >= 8 else 0.0

    assert settle_by_doubling(value, 4, 1e-12, 5, 1e-300) == 1.0
    assert calls == [4, 8, 16]


def test_driver_raises_when_values_never_settle():
    with pytest.raises(ConvergenceError, match="did not settle"):
        settle_by_doubling(lambda n: float(n), 4, 1e-8, 6, 1.0)


def test_subordination_raises_without_doublings():
    ctx = make_context(dim=1, nodes_per_axis=16)
    f = HermiteExpansion.single((2,))
    with pytest.raises(ConvergenceError):
        ph_apply_subordination(f, 0.5, np.array([0.0, 1.0]), ctx, max_doublings=0)
