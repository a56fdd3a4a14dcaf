"""Semigroup paths: spectral vs kernel vs subordination, maximal bounds."""

from math import comb, exp, log, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvs import HermiteExpansion, ParameterError, make_context, random_expansion
from gvs.hermite import multi_indices_up_to
from gvs.semigroups import (
    default_t_grid,
    ou_apply,
    ou_apply_kernel,
    ou_maximal,
    ph_apply_subordination,
    ph_apply_subordination_many,
    ph_derivative,
    ph_derivative_bound_check,
    ph_derivative_profile,
)
from gvs.subordinator import tv_derivative_bound

XS = np.linspace(-3.0, 3.0, 20)


class TestSpectral:
    def test_ou_eigenrelation(self):
        f = HermiteExpansion.single(4)
        g = ou_apply(f, 0.7)
        (nu, c), = g.items()
        assert c == pytest.approx(exp(-0.7 * 4), rel=1e-15)

    def test_semigroup_law_exact(self):
        rng = np.random.default_rng(1)
        f = random_expansion(2, 5, rng)
        a = ou_apply(ou_apply(f, 0.3), 0.9)
        b = ou_apply(f, 1.2)
        for nu, c in a.items():
            assert c == pytest.approx(b.coeffs[nu], rel=1e-14)

    def test_ph_derivative_eigenvalues(self):
        f = HermiteExpansion.single(3)
        for k in range(4):
            g = ph_derivative(f, 0.5, k)
            expected = (-sqrt(3.0)) ** k * exp(-0.5 * sqrt(3.0))
            assert g.coeffs[f.items()[0][0]] == pytest.approx(expected, rel=1e-14)

    def test_constant_mode_drops_from_derivatives(self):
        f = HermiteExpansion.from_pairs(1, [(0, 5.0), (2, 1.0)])
        g = ph_derivative(f, 1.0, k=1)
        zero_mode = [c for nu, c in g.items() if nu.order == 0]
        assert zero_mode == [0.0]

    def test_negative_time_rejected(self):
        with pytest.raises(ParameterError):
            ou_apply(HermiteExpansion.single(1), -0.1)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, t):
        f = HermiteExpansion.single(2)
        with pytest.raises(ParameterError):
            ou_apply(f, t)
        with pytest.raises(ParameterError):
            ph_derivative(f, t, 1)


class TestKernelPath:
    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0])
    def test_eigenrelation_d1(self, t):
        ctx = make_context(dim=1)
        for n in range(7):
            f = HermiteExpansion.single(n)
            exact = exp(-t * n) * f.evaluate(XS)
            got = ou_apply_kernel(f, t, XS, ctx)
            assert np.max(np.abs(got - exact) / (1.0 + np.abs(exact))) < 1e-6

    def test_shifted_method_small_t(self):
        # explicit kernel outruns the rule below t ~ 0.1; the substituted form does not
        ctx = make_context(dim=1)
        f = HermiteExpansion.single(5)
        for t in [1e-6, 1e-3, 0.05]:
            exact = exp(-t * 5) * f.evaluate(XS)
            got = ou_apply_kernel(f, t, XS, ctx, method="shifted")
            assert np.max(np.abs(got - exact) / (1.0 + np.abs(exact))) < 1e-12

    def test_plain_callable(self):
        ctx = make_context(dim=1)
        got = ou_apply_kernel(lambda x: np.ones_like(x), 0.8, XS, ctx)
        assert np.max(np.abs(got - 1.0)) < 1e-10

    def test_zero_time_rejected(self):
        ctx = make_context(dim=1)
        with pytest.raises(ParameterError):
            ou_apply_kernel(HermiteExpansion.single(1), 0.0, XS, ctx)

    @pytest.mark.parametrize("method", ["kernel", "shifted"])
    def test_non_finite_input_rejected(self, method):
        ctx = make_context(dim=1)
        f = HermiteExpansion.single(3)
        for t in (np.nan, np.inf):
            with pytest.raises(ParameterError):
                ou_apply_kernel(f, t, XS, ctx, method=method)
        for bad in (np.nan, np.inf):
            with pytest.raises(ParameterError):
                ou_apply_kernel(f, 0.5, np.array([0.1, bad]), ctx, method=method)

    def test_unknown_method_rejected(self):
        ctx = make_context(dim=1)
        with pytest.raises(ParameterError):
            ou_apply_kernel(HermiteExpansion.single(1), 1.0, XS, ctx, method="magic")


class TestSubordination:
    @pytest.mark.parametrize("t", [0.1, 1.0, 2.0])
    def test_eigenrelation(self, t):
        ctx = make_context(dim=1)
        fs = [HermiteExpansion.single(n) for n in range(7)]
        got = ph_apply_subordination_many(fs, t, XS, ctx)
        for n, row in enumerate(got):
            exact = exp(-t * sqrt(n)) * fs[n].evaluate(XS)
            assert np.max(np.abs(row - exact) / (1.0 + np.abs(exact))) < 1e-8

    def test_consistency_with_spectral_on_random_expansions(self):
        ctx = make_context(dim=1)
        rng = np.random.default_rng(77)
        for _ in range(3):
            f = random_expansion(1, 6, rng)
            spectral = ph_derivative(f, 0.8, 0).evaluate(XS)
            quad = ph_apply_subordination(f, 0.8, XS, ctx)
            assert np.max(np.abs(quad - spectral) / (1.0 + np.abs(spectral))) < 1e-5

    def test_callable_input(self):
        ctx = make_context(dim=1)
        got = ph_apply_subordination(lambda x: x, 0.5, np.array([1.0]), ctx)
        # x = h_1 / sqrt 2, so P_t x = e^{-t} x
        assert got[0] == pytest.approx(exp(-0.5), rel=1e-7)

    def test_invalid_time_rejected(self):
        ctx = make_context(dim=1)
        with pytest.raises(ParameterError):
            ph_apply_subordination(HermiteExpansion.single(1), 0.0, XS, ctx)

    @pytest.mark.parametrize("plain", [False, True])
    def test_non_finite_input_rejected(self, plain):
        ctx = make_context(dim=2)
        f = HermiteExpansion.single((1, 2))
        fs = [_as_callable(f)] if plain else [f]
        pts = np.array([[0.3, -0.2], [1.0, 0.5]])
        for t in (np.nan, np.inf):
            with pytest.raises(ParameterError):
                ph_apply_subordination_many(fs, t, pts, ctx)
        for bad in (np.nan, -np.inf):
            pts_bad = pts.copy()
            pts_bad[1, 0] = bad
            with pytest.raises(ParameterError):
                ph_apply_subordination_many(fs, 0.5, pts_bad, ctx)

    def test_empty_expansions(self):
        ctx = make_context(dim=2)
        got = ph_apply_subordination_many([HermiteExpansion(2, 3)], 0.7, np.zeros((3, 2)), ctx)
        assert np.array_equal(got, np.zeros((1, 3)))


def _as_callable(f):
    """The same expansion as a plain function, which takes the generic path."""
    return lambda x: f.evaluate(x)


@st.composite
def subordination_cases(draw, dim):
    """Random sparse expansions of degree <= 6 (batch 1-5), t log-uniform
    in [0.05, 3] and 1-20 points of the Gaussian measure."""
    degree = draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fs = []
    for _ in range(draw(st.integers(1, 5))):
        kept = [nu for nu in multi_indices_up_to(dim, degree) if rng.random() < 0.6]
        fs.append(HermiteExpansion(dim, degree, {nu: rng.standard_normal() for nu in kept}))
    t = exp(draw(st.floats(log(0.05), log(3.0))))
    pts = rng.normal(scale=sqrt(0.5), size=(draw(st.integers(1, 20)), dim))
    return fs, t, pts


def _check_paths(fs, t, pts, ctx, n_plain):
    """Expansion path = generic path on the same functions to 1e-12, and
    both = the spectral value to 1e-8 (relative to 1 + |value|); the
    generic path runs on the first n_plain functions and points."""
    quad = ph_apply_subordination_many(fs, t, pts, ctx)
    spectral = np.array([ph_derivative(f, t).evaluate(pts) for f in fs])
    assert np.max(np.abs(quad - spectral) / (1.0 + np.abs(spectral))) <= 1e-8
    head = quad[:n_plain, :n_plain]
    plain = ph_apply_subordination_many([_as_callable(f) for f in fs[:n_plain]], t, pts[:n_plain], ctx)
    assert np.max(np.abs(plain - head) / (1.0 + np.abs(head))) <= 1e-12
    assert np.max(np.abs(plain - spectral[:n_plain, :n_plain])
                  / (1.0 + np.abs(spectral[:n_plain, :n_plain]))) <= 1e-8


class TestSubordinationPaths:
    @settings(max_examples=50, deadline=None)
    @given(case=subordination_cases(1))
    def test_d1(self, case):
        _check_paths(*case, make_context(dim=1), n_plain=20)

    # the generic path sums over all 64^2 nodes per s-node; it runs on two
    # functions at two points, the expansion path on the whole draw
    @settings(max_examples=15, deadline=None)
    @given(case=subordination_cases(2))
    def test_d2(self, case):
        _check_paths(*case, make_context(dim=2), n_plain=2)


class TestDerivativeProfile:
    def test_matches_finite_differences(self):
        # central k-th differences of the spectral profile in t, step 1e-3
        f = HermiteExpansion.from_pairs(1, [(1, 0.8), (4, -0.5), (6, 0.3)])
        x = np.array([0.4, -1.3])
        h = 1e-3
        for k in (1, 2, 3):
            for t in (0.5, 1.0, 2.0):
                fd = np.zeros(2)
                for m in range(k + 1):
                    shift = (k / 2 - m) * h
                    fd += (-1) ** m * comb(k, m) * ph_derivative(f, t + shift, 0).evaluate(x)
                fd /= h**k
                got = ph_derivative(f, t, k).evaluate(x)
                assert np.max(np.abs(got - fd) / (np.abs(fd) + 1e-12)) < 1e-4

    def test_profile_tensor_matches_pointwise(self):
        f = HermiteExpansion.from_pairs(1, [(2, 1.0), (5, -2.0)])
        ts = np.array([0.3, 1.7])
        prof = ph_derivative_profile(f, 2, ts, XS)
        for i, t in enumerate(ts):
            direct = ph_derivative(f, t, 2).evaluate(XS)
            assert np.max(np.abs(prof[i] - direct)) < 1e-12

    def test_eigen_decay_in_t(self):
        f = HermiteExpansion.single(4)
        ts = np.geomspace(0.1, 10, 40)
        prof = np.abs(ph_derivative_profile(f, 1, ts, np.array([0.9])))[:, 0]
        assert np.all(np.diff(prof) < 0)


class TestMaximal:
    def test_constant_function(self):
        f = HermiteExpansion.single(0, 3.0)
        assert ou_maximal(f, np.array([0.0, 1.0])) == pytest.approx([3.0, 3.0])

    def test_single_mode_sup_at_small_t(self):
        f = HermiteExpansion.single(1)
        got = ou_maximal(f, np.array([1.2]))
        # sup_t e^{-t}|h_1(x)| is attained as t -> 0+, grid starts at 1e-3
        assert got[0] == pytest.approx(sqrt(2.0) * 1.2, rel=1e-2)

    def test_bound_ratio_h1(self):
        r = ph_derivative_bound_check(HermiteExpansion.single(1), np.array([0.7]), 1)
        assert r[0] == pytest.approx(exp(-1.0), rel=1e-2)

    def test_bound_ratio_constant_is_zero(self):
        r = ph_derivative_bound_check(HermiteExpansion.single(0), np.array([0.7]), 1)
        assert r[0] == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_ratio_below_subordination_tv_constant(self, k):
        # |d^k P_t f| <= T* f * (TV of k-th derivative of the subordination
        # measure) and the TV integral is tv(k, 1)/t^k
        rng = np.random.default_rng(123)
        cap = tv_derivative_bound(k, 1.0)
        xs = np.linspace(-2, 2, 11)
        for _ in range(5):
            f = random_expansion(1, 6, rng)
            ratios = ph_derivative_bound_check(f, xs, k)
            assert np.max(ratios) <= cap * (1 + 1e-9)

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            ou_maximal(HermiteExpansion.single(1), np.array([0.0]), np.array([0.0, 1.0]))
