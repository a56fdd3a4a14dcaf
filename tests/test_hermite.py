"""Hermite basis: recurrence vs Rodrigues oracle, orthonormality, projection."""

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gvs import (
    HermiteExpansion,
    MultiIndex,
    ParameterError,
    hermite_1d,
    hermite_multi,
    make_context,
    multi_indices_up_to,
    project,
    random_expansion,
)


def rodrigues_h(n: int):
    """Independent oracle: (-1)^n e^{x^2} d^n/dx^n e^{-x^2} / sqrt(2^n n!), exact.

    Builds the polynomial once and returns its evaluator at a float x.
    """
    xs = sympy.symbols("x")
    poly = (-1) ** n * sympy.exp(xs**2) * sympy.diff(sympy.exp(-(xs**2)), xs, n)
    poly = sympy.simplify(poly) / sympy.sqrt(2**n * sympy.factorial(n))
    return lambda x: float(poly.subs(xs, sympy.Rational(x).limit_denominator(10**12)).evalf(30))


class TestHermite1d:
    def test_pinned_values(self):
        assert hermite_1d(0, 0.3) == 1.0
        assert hermite_1d(1, 1.0) == pytest.approx(1.4142135623730951, rel=1e-15)
        assert hermite_1d(2, 0.0) == pytest.approx(-0.7071067811865476, rel=1e-15)

    def test_recurrence_matches_rodrigues(self):
        rng = np.random.default_rng(20240817)
        xs = rng.uniform(-4.0, 4.0, size=100)
        for n in range(11):
            h_n = rodrigues_h(n)
            expected = np.array([h_n(x) for x in xs])
            got = hermite_1d(n, xs)
            assert np.max(np.abs(got - expected) / (np.abs(expected) + 1e-30)) < 1e-9

    def test_negative_degree_rejected(self):
        with pytest.raises(ParameterError):
            hermite_1d(-1, 0.0)


class TestOrthonormality:
    @pytest.mark.parametrize("dim,nodes", [(1, 64), (2, 24), (3, 16)])
    def test_quadrature_gram_matrix(self, dim, nodes):
        ctx = make_context(dim=dim, nodes_per_axis=nodes)
        indices = multi_indices_up_to(dim, 6)
        from gvs import basis_matrix

        H = basis_matrix(indices, ctx.gh_points)
        gram = (H * ctx.gh_weights) @ H.T
        assert np.max(np.abs(gram - np.eye(len(indices)))) < 1e-10


class TestMultiIndex:
    def test_order_and_coercion(self):
        assert MultiIndex.of(3).order == 3
        assert MultiIndex.of((1, 2, 0)).order == 3
        assert MultiIndex.of((1, 2, 0)).dim == 3

    @pytest.mark.parametrize("bad", [(-1,), (0.5,), (1, -2), ()])
    def test_invalid_entries_rejected(self, bad):
        with pytest.raises(ParameterError):
            MultiIndex(tuple(bad) if isinstance(bad, tuple) else bad)

    def test_graded_enumeration(self):
        idx = multi_indices_up_to(2, 2)
        assert [nu.entries for nu in idx] == [
            (0, 0),
            (0, 1),
            (1, 0),
            (0, 2),
            (1, 1),
            (2, 0),
        ]


class TestExpansion:
    def test_single_eigenfunction_evaluation(self):
        f = HermiteExpansion.single((2, 1))
        x = np.array([[0.5, -1.0]])
        expected = hermite_1d(2, 0.5) * hermite_1d(1, -1.0)
        assert f.evaluate(x)[0] == pytest.approx(expected, rel=1e-14)
        assert hermite_multi((2, 1), x)[0] == pytest.approx(expected, rel=1e-14)

    def test_degree_cap_enforced(self):
        with pytest.raises(ParameterError):
            HermiteExpansion(dim=1, degree_cap=2, coeffs={MultiIndex((3,)): 1.0})

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            HermiteExpansion(dim=2, degree_cap=3, coeffs={MultiIndex((3,)): 1.0})

    @given(
        c1=st.floats(-5, 5, allow_nan=False),
        c2=st.floats(-5, 5, allow_nan=False),
        x=st.floats(-3, 3, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, c1, c2, x):
        f = HermiteExpansion.from_pairs(1, [(1, c1), (3, c2)])
        expected = c1 * hermite_1d(1, x) + c2 * hermite_1d(3, x)
        assert f.evaluate(x)[0] == pytest.approx(expected, abs=1e-12)

    def test_l2_norm_orthonormal(self):
        f = HermiteExpansion.from_pairs(1, [(0, 3.0), (4, 4.0)])
        assert f.l2_norm() == pytest.approx(5.0, rel=1e-15)


class TestProjection:
    def test_round_trip_d2(self):
        ctx = make_context(dim=2, nodes_per_axis=24)
        rng = np.random.default_rng(11)
        f = random_expansion(2, 5, rng)
        g = project(f, ctx, 5)
        for nu, c in f.items():
            assert g.coeffs[nu] == pytest.approx(c, abs=1e-12)

    def test_projection_of_plain_callable(self):
        # f(x) = x^2 = (h_2(x)/sqrt(2) + h_0/2) * ...: x^2 = h_2/sqrt(2) + 1/2
        ctx = make_context(dim=1, nodes_per_axis=32)
        g = project(lambda x: x**2, ctx, 4)
        assert g.coeffs[MultiIndex((0,))] == pytest.approx(0.5, abs=1e-13)
        assert g.coeffs[MultiIndex((2,))] == pytest.approx(1 / np.sqrt(2), abs=1e-13)
        assert abs(g.coeffs[MultiIndex((4,))]) < 1e-13

    def test_insufficient_nodes_rejected(self):
        ctx = make_context(dim=1, nodes_per_axis=8)
        with pytest.raises(ParameterError):
            project(lambda x: x, ctx, 8)

    def test_sample_array_input(self):
        ctx = make_context(dim=1, nodes_per_axis=16)
        vals = ctx.gh_points[:, 0] ** 3
        g = project(vals, ctx, 3)
        # x^3 = (sqrt(3)/2) h_3 + (3/(2 sqrt 2)) h_1 in this normalization
        assert g.coeffs[MultiIndex((3,))] == pytest.approx(np.sqrt(3) / 2, rel=1e-12)
        assert g.coeffs[MultiIndex((1,))] == pytest.approx(3 / (2 * np.sqrt(2)), rel=1e-12)
