"""Exponent families, combinations, and empirical class constants."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvs.errors import ParameterError
from gvs.exponents import (
    TAG_GAUSS_INF,
    TAG_HALFLINE,
    descriptor_label,
    estimate_class_constants,
    exponent_from_descriptor,
    harmonic_interpolation,
    holder_conjugate_pair,
    make_constant,
    make_gaussian_family,
    make_time_family,
)


def space_samples(r_max=10.0, m=400, seed=3):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-r_max / np.sqrt(2), r_max / np.sqrt(2), size=(m, 2))
    pts[0] = [r_max, 0.0]  # pin the largest radius
    return pts


class TestFamilies:
    def test_constant(self):
        p = make_constant(2.0)
        assert p.is_constant
        assert p(np.array([[0.0, 0.0], [1.0, 2.0]])).tolist() == [2.0, 2.0]
        assert TAG_GAUSS_INF in p.class_tags and TAG_HALFLINE in p.class_tags

    def test_constant_below_one_rejected(self):
        with pytest.raises(ParameterError):
            make_constant(0.9)

    def test_gaussian_family_values(self):
        p = make_gaussian_family(1.5, 1.0)
        assert p(np.array([[0.0]]))[0] == pytest.approx(2.5, rel=1e-15)
        assert p.p_minus == 1.5 and p.p_plus == 2.5
        assert p.limit_infty == 1.5
        big = p(np.array([[100.0, 0.0]]))[0]
        assert big == pytest.approx(1.5, abs=1e-3)

    def test_time_family_values(self):
        q = make_time_family(3.0, 1.5)
        assert q.limit_zero == 3.0 and q.limit_infty == 1.5
        ts = np.array([1e-9, 1.0, 1e9])
        vals = q(ts)
        assert vals[0] == pytest.approx(3.0, abs=1e-8)
        assert vals[1] == pytest.approx(1.5 + 0.75, rel=1e-15)
        assert vals[2] == pytest.approx(1.5, abs=1e-8)
        assert np.all(np.diff(q(np.linspace(0.01, 50, 200))) < 0)

    def test_time_family_endpoint_below_one_rejected(self):
        with pytest.raises(ParameterError):
            make_time_family(0.99, 2.0)


class TestCombinations:
    def test_conjugate_constant(self):
        p = make_constant(2.0).conjugate()
        assert p(np.zeros((1, 1)))[0] == pytest.approx(2.0)

    def test_conjugate_variable(self):
        p = make_gaussian_family(1.5, 1.0).conjugate()
        assert p.p_minus == pytest.approx(2.5 / 1.5)
        assert p.p_plus == pytest.approx(3.0)
        x = np.array([[0.0]])
        assert p(x)[0] == pytest.approx(2.5 / 1.5, rel=1e-14)

    def test_conjugate_needs_p_minus_above_one(self):
        with pytest.raises(ParameterError):
            make_constant(1.0).conjugate()

    def test_holder_pair(self):
        p = holder_conjugate_pair(make_constant(3.0), make_constant(1.5))
        assert p.p_minus == pytest.approx(1.0)
        assert p(np.zeros((2, 1))).tolist() == pytest.approx([1.0, 1.0])

    def test_holder_pair_leaving_scale_rejected(self):
        with pytest.raises(ParameterError):
            holder_conjugate_pair(make_constant(1.5), make_constant(1.5))

    def test_harmonic_interpolation_8_thirds(self):
        r = harmonic_interpolation(make_constant(2.0), make_constant(4.0), 0.5)
        assert r(np.zeros(3))[0] == pytest.approx(8.0 / 3.0, rel=1e-15)

    def test_scaled(self):
        p = make_constant(2.0).scaled(2.0)
        assert p.p_minus == 4.0
        with pytest.raises(ParameterError):
            make_constant(1.5).scaled(0.5)


class TestDescriptors:
    @pytest.mark.parametrize(
        "desc",
        [
            {"kind": "constant", "params": [2.5]},
            {"kind": "gaussian", "params": [1.5, 1.0]},
            {"kind": "time", "params": [3.0, 1.5]},
        ],
    )
    def test_round_trip(self, desc):
        p = exponent_from_descriptor(desc)
        assert p.descriptor == desc
        q = exponent_from_descriptor(p.descriptor)
        assert q.p_minus == p.p_minus and q.p_plus == p.p_plus

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            exponent_from_descriptor({"kind": "mystery", "params": [2]})

    def test_malformed_rejected(self):
        with pytest.raises(ParameterError):
            exponent_from_descriptor({"params": [2]})


def _base(domain, lo=1.0, hi=6.0):
    """Constants and the domain's own family, with every exponent in [lo, hi]."""
    v = st.floats(lo, hi)
    if domain == "space":
        family = st.tuples(v, st.floats(0.0, 1.0)).map(
            lambda t: make_gaussian_family(t[0], t[1] * (hi - t[0])))
    else:
        family = st.builds(make_time_family, v, v)
    return st.one_of(st.builds(make_constant, v), family)


def _points(domain, seed):
    rng = np.random.default_rng(seed)
    if domain == "space":
        return np.vstack([np.zeros((1, 2)), rng.normal(scale=2.0, size=(31, 2))])
    return np.concatenate([[1e-9, 1.0, 1e9], rng.lognormal(sigma=3.0, size=29)])


@st.composite
def _derived(draw):
    """A wrapper's result with the closed form and bounds it must reproduce."""
    domain = draw(st.sampled_from(["space", "time"]))
    kind = draw(st.sampled_from(["conjugate", "scaled", "holder", "harmonic"]))
    if kind == "conjugate":
        # 1 - 1/v loses log10(1/(v - 1)) digits to cancellation: stay off v = 1
        p = draw(_base(domain, lo=1.05))
        closed = lambda pts: p(pts) / (p(pts) - 1.0)
        return domain, p.conjugate(), closed, (p.p_plus / (p.p_plus - 1.0),
                                               p.p_minus / (p.p_minus - 1.0))
    if kind == "scaled":
        p = draw(_base(domain))
        s = draw(st.floats(1.001, 4.0)) / p.p_minus
        return domain, p.scaled(s), lambda pts: s * p(pts), (s * p.p_minus, s * p.p_plus)
    if kind == "holder":
        q, r = draw(_base(domain, lo=2.0)), draw(_base(domain, lo=2.0))
        closed = lambda pts: 1.0 / (1.0 / q(pts) + 1.0 / r(pts))
        return domain, holder_conjugate_pair(q, r), closed, (
            1.0 / (1.0 / q.p_minus + 1.0 / r.p_minus), 1.0 / (1.0 / q.p_plus + 1.0 / r.p_plus))
    p0, p1, theta = draw(_base(domain)), draw(_base(domain)), draw(st.floats(0.0, 1.0))
    closed = lambda pts: 1.0 / ((1.0 - theta) / p0(pts) + theta / p1(pts))
    return domain, harmonic_interpolation(p0, p1, theta), closed, (
        1.0 / ((1.0 - theta) / p0.p_minus + theta / p1.p_minus),
        1.0 / ((1.0 - theta) / p0.p_plus + theta / p1.p_plus))


def _rel_gap(a, b):
    return np.max(np.abs(np.asarray(a) - np.asarray(b)) / np.abs(b))


class TestDerivedProperties:
    @settings(max_examples=200, deadline=None)
    @given(case=_derived(), seed=st.integers(0, 2**32 - 1))
    def test_wrappers_match_closed_forms(self, case, seed):
        domain, e, closed, bounds = case
        pts = _points(domain, seed)
        assert _rel_gap(e(pts), closed(pts)) <= 1e-14
        assert _rel_gap([e.p_minus, e.p_plus], bounds) <= 1e-14

    @settings(max_examples=200, deadline=None)
    @given(case=_derived(), seed=st.integers(0, 2**32 - 1))
    def test_samples_inside_bounds(self, case, seed):
        # the same 1e-12 roundoff that luxemburg_norm's range check allows
        domain, e, _, _ = case
        vals = e(_points(domain, seed))
        assert np.all(vals >= e.p_minus * (1.0 - 1e-12))
        assert np.all(vals <= e.p_plus * (1.0 + 1e-12))

    @settings(max_examples=200, deadline=None)
    @given(case=_derived(), outer=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_descriptor_round_trip_is_bitwise(self, case, outer, seed):
        domain, e, _, _ = case
        if outer:  # nest one more level: a mix of a mix
            e = harmonic_interpolation(e, make_constant(2.0), 0.25)
        rebuilt = exponent_from_descriptor(json.loads(json.dumps(e.descriptor)))
        pts = _points(domain, seed)
        assert np.array_equal(rebuilt(pts), e(pts))
        assert (rebuilt.p_minus, rebuilt.p_plus) == (e.p_minus, e.p_plus)
        assert (rebuilt.limit_zero, rebuilt.limit_infty) == (e.limit_zero, e.limit_infty)
        assert (rebuilt.domain, rebuilt.class_tags) == (e.domain, e.class_tags)
        assert rebuilt.descriptor == e.descriptor
        assert "," not in descriptor_label(e.descriptor)

    @settings(max_examples=100, deadline=None)
    @given(c=st.floats(0.0, 2.0), q=st.floats(1.0, 6.0))
    def test_conjugate_at_p_minus_one_rejected(self, c, q):
        for p in (make_constant(1.0), make_gaussian_family(1.0, c),
                  make_time_family(1.0, q), make_time_family(q, 1.0)):
            with pytest.raises(ParameterError):
                p.conjugate()

    @settings(max_examples=100, deadline=None)
    @given(p=st.one_of(_base("space"), _base("time")), factor=st.floats(-2.0, 0.999))
    def test_scaled_below_one_rejected(self, p, factor):
        with pytest.raises(ParameterError):
            p.scaled(factor / p.p_minus)

    @settings(max_examples=100, deadline=None)
    @given(domain=st.sampled_from(["space", "time"]), data=st.data())
    def test_holder_pair_leaving_scale_rejected(self, domain, data):
        # 1/q_minus + 1/r_minus >= 2/1.95 > 1
        q, r = data.draw(_base(domain, hi=1.95)), data.draw(_base(domain, hi=1.95))
        with pytest.raises(ParameterError):
            holder_conjugate_pair(q, r)


class TestClassConstants:
    def test_constant_exponent_all_zero(self):
        est = estimate_class_constants(make_constant(2.0), np.linspace(0.01, 10, 50))
        assert (est.c_lh0, est.c_lhinf, est.c_gamma, est.a0, est.a_inf) == (0, 0, 0, 0, 0)

    def test_gaussian_family_c_gamma(self):
        # analytic: |p - p_inf| |x|^2 = c |x|^2/(1+|x|^2), sup = c approached from below
        p = make_gaussian_family(1.5, 1.0)
        est = estimate_class_constants(p, space_samples())
        assert est.c_gamma is not None
        assert 0.98 < est.c_gamma <= 1.0
        assert est.a0 is None and est.a_inf is None

    def test_gaussian_family_lhinf_bounded_by_gamma_rate(self):
        # pointwise |p - p_inf| log(e+|x|) = (|p - p_inf| |x|^2) * log(e+|x|)/|x|^2
        p = make_gaussian_family(2.0, 0.8)
        pts = space_samples(seed=9)
        est = estimate_class_constants(p, pts)
        radii = np.sqrt(np.sum(pts**2, axis=1))
        radii = radii[radii > 0]
        rate = np.max(np.log(np.e + radii) / radii**2)
        assert est.c_lhinf <= est.c_gamma * rate + 1e-12

    def test_time_family_log_rates(self):
        q = make_time_family(3.0, 1.5)
        ts = np.geomspace(1e-4, 1e3, 800)
        est = estimate_class_constants(q, ts)
        # |q(t)-q(0)| ln(1/t) = 1.5 t ln(1/t)/(1+t), dense-grid sup on (0, 1/2]
        small = ts[ts <= 0.5]
        a0_direct = np.max(1.5 * small / (1 + small) * np.log(1 / small))
        assert est.a0 == pytest.approx(a0_direct, rel=1e-12)
        assert 0 < est.a0 < 0.43
        assert est.a_inf is not None and est.a_inf > 0
        assert est.c_gamma is None

    def test_needs_two_samples(self):
        with pytest.raises(ParameterError):
            estimate_class_constants(make_gaussian_family(2, 1), np.zeros((1, 2)))
