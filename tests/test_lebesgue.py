"""Luxemburg norm machinery against closed forms and classical inequalities.

Oracles: for constant p the norm is (integral |f|^p dmu)^{1/p}, computable
directly from the quadrature weights; Gaussian moments of Hermite functions
give exact values for a few norms; indicator functions on dt/t panels have
modular ln 2 and hence pinnable norms.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvs.errors import ConvergenceError, ParameterError
from gvs.exponents import (
    ExponentFunction,
    make_constant,
    make_gaussian_family,
    make_time_family,
)
from gvs.hermite import HermiteExpansion
from gvs.lebesgue import (
    ConjugateReport,
    MeasureSpace,
    conjugate_lower_bound,
    dual_witness,
    gaussian_space,
    holder_check,
    inequality_holds,
    inequality_ratio,
    logtime_norm_identity_check,
    logtime_space,
    luxemburg_norm,
    luxemburg_norm_rows,
    minkowski_check,
    modular,
    weighted_space,
)
from gvs.quadrature import logtime_grid, make_context


@pytest.fixture(scope="module")
def space_1d():
    return gaussian_space(make_context(dim=1, nodes_per_axis=64))


@pytest.fixture(scope="module")
def tgrid():
    return logtime_grid(t_min=1e-3, t_max=1e2, n_panels=200)


def test_constant_exponent_reduction(space_1d):
    f = np.abs(space_1d.points[:, 0]) + 0.3
    for c in (1.0, 1.5, 2.0, 3.0, 7.0):
        oracle = float(np.sum(space_1d.weights * f**c)) ** (1.0 / c)
        res = luxemburg_norm(f, make_constant(c), space_1d)
        assert res.value == pytest.approx(oracle, rel=1e-8)
        assert res.modular_at_value == pytest.approx(1.0, rel=1e-7)
        assert res.iterations <= 2


def test_gaussian_moment_norms(space_1d):
    h1 = HermiteExpansion.single((1,))
    h2 = HermiteExpansion.single((2,))
    two = make_constant(2.0)
    four = make_constant(4.0)
    assert luxemburg_norm(h1, two, space_1d).value == pytest.approx(1.0, rel=1e-10)
    assert luxemburg_norm(h1, four, space_1d).value == pytest.approx(3.0**0.25, rel=1e-10)
    assert luxemburg_norm(h2, four, space_1d).value == pytest.approx(15.0**0.25, rel=1e-10)
    h1sq = h1(space_1d.points) ** 2
    assert luxemburg_norm(h1sq, two, space_1d).value == pytest.approx(np.sqrt(3.0), rel=1e-10)


def test_zero_function_and_guards(space_1d, tgrid):
    res = luxemburg_norm(np.zeros(space_1d.size), make_constant(2.0), space_1d)
    assert res.value == 0.0 and res.modular_at_value == 0.0
    with pytest.raises(ParameterError):
        luxemburg_norm(np.ones(3), make_constant(2.0), space_1d)
    with pytest.raises(ParameterError):
        luxemburg_norm(
            np.ones(space_1d.size), make_time_family(1.5, 3.0), space_1d
        )
    with pytest.raises(ParameterError):
        modular(lambda t: t, make_gaussian_family(2.0, 1.0), logtime_space(tgrid))
    with pytest.raises(ParameterError):
        MeasureSpace(kind="nope", points=np.ones(2), weights=np.ones(2))
    for bad in (np.nan, np.inf):
        f = np.ones(space_1d.size)
        f[5] = bad
        with pytest.raises(ParameterError, match="finite"):
            luxemburg_norm(f, make_constant(2.0), space_1d)
        with pytest.raises(ParameterError, match="finite"):
            luxemburg_norm_rows(f[None, :], space_1d.weights, np.full(space_1d.size, 2.0))


# small fixed space for the property tests below
_SPACE16 = gaussian_space(make_context(dim=1, nodes_per_axis=16))
_P_VAR = make_gaussian_family(2.0, 1.0)
_MAGNITUDES = st.integers(min_value=-300, max_value=300).map(lambda e: 10.0**e)
_ROWS16 = st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=16, max_size=16).map(np.array)


@settings(max_examples=40, deadline=None)
@given(scale=st.floats(min_value=1e-300, max_value=1e300))
def test_homogeneity(scale):
    space = gaussian_space(make_context(dim=1, nodes_per_axis=32))
    p = make_gaussian_family(2.0, 1.0)
    f = np.exp(-np.abs(space.points[:, 0])) + 0.1
    base = luxemburg_norm(f, p, space).value
    scaled = luxemburg_norm(scale * f, p, space).value
    assert scaled == pytest.approx(scale * base, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(_ROWS16, min_size=1, max_size=5), scale=_MAGNITUDES)
def test_scalar_equals_rows_across_magnitudes(rows, scale):
    V = scale * np.array(rows)
    p_at = _P_VAR(_SPACE16.points)
    batched = luxemburg_norm_rows(V, _SPACE16.weights, p_at)
    for row, got in zip(V, batched):
        res = luxemburg_norm(row, _P_VAR, _SPACE16)
        assert got > 0.0
        assert got == pytest.approx(res.value, rel=1e-12)
        assert res.modular_at_value == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(g=_ROWS16, scale=_MAGNITUDES, c=st.sampled_from([1.0, 1.5, 2.0, 3.0, 7.0]))
def test_constant_exponent_closed_form_across_magnitudes(g, scale, c):
    oracle = scale * float(np.sum(_SPACE16.weights * g**c)) ** (1.0 / c)
    res = luxemburg_norm(scale * g, make_constant(c), _SPACE16)
    assert res.value == pytest.approx(oracle, rel=1e-12)
    assert res.modular_at_value == pytest.approx(1.0, abs=1e-12)
    assert res.iterations <= 2
    rows = luxemburg_norm_rows((scale * g)[None, :], _SPACE16.weights, np.full(16, c))
    assert rows[0] == pytest.approx(oracle, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(f=_ROWS16, bump=_ROWS16, signs=st.lists(st.booleans(), min_size=16, max_size=16),
       scale=_MAGNITUDES)
def test_monotone_in_absolute_value(f, bump, signs, scale):
    small = scale * f * np.where(signs, -1.0, 1.0)
    large = scale * (f + 1e-3 * bump)
    n_small = luxemburg_norm(small, _P_VAR, _SPACE16).value
    n_large = luxemburg_norm(large, _P_VAR, _SPACE16).value
    assert n_small <= n_large * (1.0 + 1e-12)


def test_homogeneity_extreme_scales(space_1d):
    p = make_gaussian_family(2.0, 1.0)
    f = np.abs(space_1d.points[:, 0]) + 0.5
    base = luxemburg_norm(f, p, space_1d).value
    for scale in (1e-150, 1e150):
        got = luxemburg_norm(scale * f, p, space_1d).value
        assert got == pytest.approx(scale * base, rel=1e-8)


def test_monotonicity_and_unit_ball(space_1d):
    p = make_gaussian_family(2.0, 1.0)
    f = np.abs(np.sin(space_1d.points[:, 0])) + 0.2
    g = f + 0.3
    nf = luxemburg_norm(f, p, space_1d).value
    ng = luxemburg_norm(g, p, space_1d).value
    assert nf < ng
    # the norm is the unit-modular level: above it the modular drops below 1
    assert modular(f / (0.9 * nf), p, space_1d) > 1.0
    assert modular(f / (1.1 * nf), p, space_1d) < 1.0


@pytest.mark.parametrize("t0", [0.1, 1.0, 10.0])
def test_indicator_norm_on_logtime(t0):
    grid = logtime_grid(t_min=1e-3, t_max=1e2, n_panels=160, breakpoints=(t0 / 2, t0))
    mu = logtime_space(grid)
    chi = ((mu.points >= t0 / 2) & (mu.points <= t0)).astype(float)
    assert modular(chi, make_constant(1.0), mu) == pytest.approx(np.log(2.0), rel=1e-12)
    for c in (1.5, 3.0):
        got = luxemburg_norm(chi, make_constant(c), mu).value
        assert got == pytest.approx(np.log(2.0) ** (1.0 / c), rel=1e-9)
    # variable exponent: bracket by the interval's smallest exponent
    q = make_time_family(1.5, 3.0)
    got = luxemburg_norm(chi, q, mu).value
    q_min = float(np.min(q(mu.points[chi > 0])))
    assert np.log(2.0) ** (1.0 / q_min) - 1e-9 <= got <= 1.0


def test_indicator_pinned_value():
    grid = logtime_grid(t_min=1e-3, t_max=1e2, n_panels=160, breakpoints=(0.5, 1.0))
    mu = logtime_space(grid)
    chi = ((mu.points >= 0.5) & (mu.points <= 1.0)).astype(float)
    got = luxemburg_norm(chi, make_constant(1.5), mu).value
    assert got == pytest.approx(0.7832197687778, rel=1e-9)


@pytest.mark.parametrize(
    "q", [make_constant(2.0), make_time_family(1.5, 3.0), make_time_family(3.0, 1.2)]
)
def test_logtime_weight_identity(q, tgrid):
    f = lambda t: t**0.3 * np.exp(-t)
    lhs, rhs = logtime_norm_identity_check(f, q, tgrid)
    assert lhs == pytest.approx(rhs, rel=1e-9)
    assert lhs > 0


def test_holder_constant_exponents(space_1d):
    f = 1.0 + space_1d.points[:, 0] ** 2
    g = np.exp(-np.abs(space_1d.points[:, 0]))
    rep = holder_check(f, g, make_constant(3.0), make_constant(1.5), space_1d)
    assert rep.ok
    # classical Holder holds with constant 1, so the padded ratio stays <= 1/2
    assert 0.1 < rep.ratio <= 0.5 + 1e-9


def test_holder_variable_exponents(space_1d):
    f = 1.0 + np.abs(space_1d.points[:, 0])
    g = 1.0 / (1.0 + space_1d.points[:, 0] ** 2)
    rep = holder_check(f, g, make_gaussian_family(2.5, 1.0), make_constant(3.0), space_1d)
    assert rep.ok and 0.0 < rep.ratio <= 1.0


def test_holder_rejects_sublebesgue(space_1d):
    with pytest.raises(ParameterError):
        holder_check(
            np.ones(space_1d.size),
            np.ones(space_1d.size),
            make_constant(1.5),
            make_constant(2.0),
            space_1d,
        )


@pytest.mark.parametrize("p", [make_constant(2.0), make_gaussian_family(2.0, 1.0)])
def test_minkowski_separable_ratio(p, space_1d):
    ys = np.linspace(0.1, 3.0, 40)
    wy = np.full(40, (3.0 - 0.1) / 40)
    inner = weighted_space(ys, wy)

    def F(xs, ys_):
        return (1.0 + xs[:, 0] ** 2)[:, None] * np.exp(-ys_)[None, :]

    rep = minkowski_check(F, p, space_1d, inner)
    assert rep.ok
    # separable kernels make both sides proportional: the 4 is the whole gap
    assert rep.ratio == pytest.approx(0.25, rel=1e-7)


def test_minkowski_matrix_input_and_shape_guard(space_1d):
    inner = weighted_space(np.array([0.5, 1.5]), np.array([0.4, 0.6]))
    M = np.ones((space_1d.size, 2))
    rep = minkowski_check(M, make_constant(2.0), space_1d, inner)
    assert rep.ok
    with pytest.raises(ParameterError):
        minkowski_check(np.ones((3, 2)), make_constant(2.0), space_1d, inner)


def test_conjugate_witness_attains_norm(space_1d):
    p = make_gaussian_family(2.0, 1.0)
    f = 1.0 + np.abs(space_1d.points[:, 0])
    g_star = dual_witness(f, p, space_1d)
    assert luxemburg_norm(g_star, p.conjugate(), space_1d).value == pytest.approx(1.0, rel=1e-8)
    rep = conjugate_lower_bound(f, p, space_1d, [g_star, np.ones(space_1d.size)])
    assert isinstance(rep, ConjugateReport)
    assert rep.upper_ok
    assert rep.lower_ratio == pytest.approx(1.0, rel=1e-7)
    assert rep.lower_ratio >= 0.5


def test_conjugate_requires_pminus_above_one(space_1d):
    with pytest.raises(ParameterError):
        conjugate_lower_bound(
            np.ones(space_1d.size), make_constant(1.0), space_1d, [np.ones(space_1d.size)]
        )


def test_row_batched_matches_scalar(space_1d):
    rng = np.random.default_rng(0)
    V = rng.normal(size=(20, space_1d.size)) ** 2 + 0.01
    V[7] = 0.0
    p = make_gaussian_family(2.0, 1.0)
    p_at = np.asarray(p(space_1d.points), dtype=float)
    batched = luxemburg_norm_rows(V, space_1d.weights, p_at)
    for i in range(20):
        expect = luxemburg_norm(V[i], p, space_1d).value
        assert batched[i] == pytest.approx(expect, rel=1e-12, abs=1e-300)
    assert batched[7] == 0.0


@pytest.mark.parametrize("lhs, rhs, ratio", [(0.0, 0.0, 0.0), (3.0, 0.0, np.inf), (1.0, 4.0, 0.25)])
def test_inequality_ratio_rules(lhs, rhs, ratio):
    assert inequality_ratio(lhs, rhs) == ratio


def test_inequality_verdict_slack():
    assert inequality_holds(1.0 + 5e-10, 1.0)
    assert not inequality_holds(1.0 + 2e-9, 1.0)
    assert inequality_holds(1e-301, 0.0)
    assert not inequality_holds(1.0 + 1e-12, 1.0, tol=0.0)
    assert type(inequality_holds(np.float64(1.0), np.float64(2.0))) is bool


def test_newton_steps_and_no_silent_cap(space_1d):
    x = space_1d.points[:, 0]
    for f in (np.abs(x) + 0.5, np.exp(-np.abs(x)) + 0.1, 1.0 + x**2, np.abs(np.sin(x)) + 0.2):
        assert luxemburg_norm(f, _P_VAR, space_1d).iterations <= 8
    f = np.abs(x) + 0.5
    with pytest.raises(ConvergenceError):
        luxemburg_norm(f, _P_VAR, space_1d, max_iter=1)
    with pytest.raises(ConvergenceError):
        luxemburg_norm_rows(f[None, :], space_1d.weights, _P_VAR(space_1d.points), max_iter=1)


def test_numerically_zero_rule_is_shared(space_1d):
    f = np.abs(space_1d.points[:, 0]) + 0.5
    p_at = _P_VAR(space_1d.points)
    base = luxemburg_norm(f, _P_VAR, space_1d).value
    # above np.finfo(float).tiny both paths resolve the norm ...
    for scale in (1e-290, 1e-305):
        scalar = luxemburg_norm(scale * f, _P_VAR, space_1d).value
        rows = luxemburg_norm_rows(scale * f[None, :], space_1d.weights, p_at)[0]
        assert scalar == pytest.approx(scale * base, rel=1e-12)
        assert rows == scalar
    # ... and below np.finfo(float).tiny both return exactly 0
    res = luxemburg_norm(1e-310 * f, _P_VAR, space_1d)
    assert res.value == 0.0 and res.modular_at_value == 0.0
    assert luxemburg_norm_rows(1e-310 * f[None, :], space_1d.weights, p_at)[0] == 0.0


def test_exponent_samples_are_checked(space_1d):
    lying = ExponentFunction(fn=lambda x: 2.0 + np.abs(x[:, 0]), p_minus=2.0, p_plus=2.5)
    f = np.ones(space_1d.size)
    with pytest.raises(ParameterError, match="declared range"):
        luxemburg_norm(f, lying, space_1d)
    nan_p = ExponentFunction(fn=lambda x: np.full(len(x), np.nan), p_minus=2.0, p_plus=2.5)
    with pytest.raises(ParameterError):
        luxemburg_norm(f, nan_p, space_1d)
    for bad in (np.nan, 0.5):
        p_at = np.full(space_1d.size, 2.0)
        p_at[3] = bad
        with pytest.raises(ParameterError):
            luxemburg_norm_rows(f[None, :], space_1d.weights, p_at)
