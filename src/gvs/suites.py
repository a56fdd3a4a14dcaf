"""Named verification suites: each one checks a quantitative claim end to end.

A suite is a deterministic function of a :class:`SuiteConfig` returning a
:class:`SuiteResult` whose cases all carry an explicit lhs/rhs pair, so every
pass/fail is auditable from the emitted table alone. The registry order is
dependency order: semigroup identities first, then the scalar inequality
toolbox, then the smoothness-space theorems built on both.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .exponents import (
    ExponentFunction,
    descriptor_label,
    harmonic_interpolation,
    make_constant,
    make_gaussian_family,
    make_time_family,
)
from .hardy import hardy_inequality_check, reference_family
from .hermite import HermiteExpansion, multi_indices_up_to, random_expansion
from .lebesgue import (
    conjugate_lower_bound,
    dual_witness,
    gaussian_space,
    holder_check,
    inequality_holds,
    inequality_ratio,
    logtime_space,
    luxemburg_norm,
    minkowski_check,
    modular,
)
from .quadrature import logtime_grid, make_context, panel_integral, settle_by_doubling
from .semigroups import (
    default_t_grid,
    ou_apply_kernel,
    ou_maximal,
    ph_apply_subordination_many,
    ph_derivative_bound_check,
)
from .smoothness import (
    SmoothnessParams,
    besov_seminorm_from_tensor,
    derivative_decay_check,
    derivative_tensor,
    inclusion_check_besov,
    inclusion_check_tl,
    interpolation_check,
    log_convexity_check,
    membership_check,
    power_norm_identity_check,
    reference_expansions,
    triebel_seminorm_from_tensor,
)
from .subordinator import (
    StableDerivative,
    density,
    derivative_terms,
    moment,
    moment_constant,
    moment_quadrature,
    s_window,
    tv_derivative_bound,
)

CSV_HEADER = [
    "suite_id", "case_id", "alpha", "k", "p_desc", "q_desc",
    "lhs", "rhs", "ratio", "pass",
]

_TINY = 1e-300


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs shared by every suite; unset grids take the library defaults."""

    seed: int = 0
    nodes_per_axis: int | None = None
    n_panels: int | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "SuiteConfig":
        known = {"seed", "nodes_per_axis", "n_panels"}
        extra = set(d) - known
        if extra:
            raise ParameterError(f"unknown config keys {sorted(extra)}")
        return cls(**d)


@dataclass(frozen=True)
class CaseResult:
    """One lhs/rhs comparison; `passed` is what the suite verdict aggregates."""

    case_id: str
    alpha: float | None
    k: int | None
    p_desc: str
    q_desc: str
    lhs: float
    rhs: float
    ratio: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "alpha": self.alpha,
            "k": self.k,
            "p_desc": self.p_desc,
            "q_desc": self.q_desc,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class SuiteResult:
    suite_id: str
    anchor: str
    cases: list[CaseResult]
    grid_meta: dict
    wall_time: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def to_dict(self) -> dict:
        return {
            "suite_id": self.suite_id,
            "anchor": self.anchor,
            "pass": self.passed,
            "n_cases": len(self.cases),
            "grid_meta": self.grid_meta,
            "wall_time": self.wall_time,
            "cases": [c.to_dict() for c in self.cases],
        }


def _desc(e: ExponentFunction | None) -> str:
    return "" if e is None else descriptor_label(e.descriptor)


def _case_le(case_id, lhs, rhs, tol=1e-9, alpha=None, k=None, p=None, q=None) -> CaseResult:
    """Pass iff lhs <= rhs up to relative slack tol."""
    ok = bool(np.isfinite(lhs) and np.isfinite(rhs) and inequality_holds(lhs, rhs, tol))
    return CaseResult(case_id, alpha, k, _desc(p), _desc(q),
                      float(lhs), float(rhs), inequality_ratio(lhs, rhs), ok)


def _case_close(case_id, lhs, rhs, tol, alpha=None, k=None, p=None, q=None) -> CaseResult:
    """Pass iff lhs and rhs agree to relative tolerance tol."""
    ok = bool(
        np.isfinite(lhs) and np.isfinite(rhs)
        and abs(lhs - rhs) <= tol * max(abs(lhs), abs(rhs), _TINY)
    )
    return CaseResult(case_id, alpha, k, _desc(p), _desc(q),
                      float(lhs), float(rhs), inequality_ratio(lhs, rhs), ok)


def _case_record(case_id, lhs, rhs, alpha=None, k=None, p=None, q=None) -> CaseResult:
    """Recorded quantity: pass only demands finiteness and positivity."""
    ok = bool(np.isfinite(lhs) and np.isfinite(rhs) and lhs > 0 and rhs > 0)
    return CaseResult(case_id, alpha, k, _desc(p), _desc(q),
                      float(lhs), float(rhs), inequality_ratio(lhs, rhs), ok)


# ---------------------------------------------------------------- semigroups

def _eigen_points(cfg: SuiteConfig, dim: int) -> np.ndarray:
    rng = np.random.default_rng(cfg.seed)
    return rng.normal(scale=1.0 / math.sqrt(2.0), size=(20, dim))


def _suite_eigen_ou(cfg: SuiteConfig):
    tol = 1e-5
    cases, meta = [], {}
    for dim in (1, 2):
        ctx = make_context(dim=dim, nodes_per_axis=cfg.nodes_per_axis)
        meta[f"d{dim}"] = ctx.grid_meta()
        pts = _eigen_points(cfg, dim)
        indices = multi_indices_up_to(dim, 6)
        basis = [HermiteExpansion.single(nu) for nu in indices]
        for t in (0.1, 0.5, 1.0, 2.0):
            worst = 0.0
            for nu, f in zip(indices, basis):
                got = ou_apply_kernel(f, t, pts, ctx)
                exact = math.exp(-t * nu.order) * f.evaluate(pts)
                worst = max(worst, float(np.max(np.abs(got - exact) / (1.0 + np.abs(exact)))))
            cases.append(_case_le(f"d{dim}_t{t:g}", worst, tol, tol=0.0))
    return cases, meta


def _suite_eigen_ph(cfg: SuiteConfig):
    tol = 1e-5
    cases, meta = [], {}
    for dim in (1, 2):
        ctx = make_context(dim=dim, nodes_per_axis=cfg.nodes_per_axis)
        meta[f"d{dim}"] = ctx.grid_meta()
        pts = _eigen_points(cfg, dim)
        indices = multi_indices_up_to(dim, 6)
        basis = [HermiteExpansion.single(nu) for nu in indices]
        for t in (0.1, 0.5, 1.0, 2.0):
            got = ph_apply_subordination_many(basis, t, pts, ctx)
            worst = 0.0
            for row, nu, f in zip(got, indices, basis):
                exact = math.exp(-t * math.sqrt(nu.order)) * f.evaluate(pts)
                worst = max(worst, float(np.max(np.abs(row - exact) / (1.0 + np.abs(exact)))))
            cases.append(_case_le(f"d{dim}_t{t:g}", worst, tol, tol=0.0))
    return cases, meta


def _falling_power_derivative(m: int, k: int, t: float) -> float:
    """(d/dt)^k of t^{-2m}: (-1)^k Gamma(2m + k) / Gamma(2m) * t^{-2m-k}."""
    sign = -1.0 if k % 2 else 1.0
    return sign * math.exp(math.lgamma(2 * m + k) - math.lgamma(2 * m)) * t ** (-2 * m - k)


def _suite_stable_derivatives(cfg: SuiteConfig):
    cases = []
    for k in range(1, 9):
        off = max(abs(2 * j - i - k) for (i, j) in derivative_terms(k))
        cases.append(_case_close(f"keys_k{k}", float(off), 0.0, tol=0.0, k=k))

    # float64 central differences reach ~1e-9 (k=1) and ~1e-7 (k=2); higher
    # orders drown in roundoff and are covered by the integral identities.
    t0 = 1.1
    for k, h in ((1, 1e-5), (2, 1e-4)):
        deriv = StableDerivative(k)
        worst = 0.0
        for s in (0.3, 0.8, 2.0):
            if k == 1:
                fd = (density(t0 + h, s) - density(t0 - h, s)) / (2.0 * h)
            else:
                fd = (density(t0 + h, s) - 2.0 * density(t0, s) + density(t0 - h, s)) / h**2
            sym = deriv(t0, s)
            worst = max(worst, abs(sym - fd) / max(abs(fd), 1e-30))
        cases.append(_case_le(f"fd_k{k}", worst, 1e-6, tol=0.0, k=k))

    # integral of the k-th derivative over s: d^k/dt^k (total mass 1) = 0.
    # The limit is zero, so a relative convergence loop cannot terminate;
    # two fixed resolutions are compared against the total-variation scale.
    for k in (1, 2, 4, 6, 8):
        for t in (0.7, 1.5):
            deriv = StableDerivative(k)
            u_lo, u_hi = s_window(t, extra_decades=2.0)
            vals = [abs(panel_integral(lambda u: deriv(t, np.exp(u)) * np.exp(u),
                                       u_lo, u_hi, n, 8)) for n in (1024, 2048)]
            tv = tv_derivative_bound(k, t)
            cases.append(_case_le(f"mass_k{k}_t{t:g}", max(vals), 1e-8 * tv, tol=0.0, k=k))

    # integral s^{-m} d^k/dt^k g ds = C_m (d/dt)^k t^{-2m}, a closed form
    # independent of the coefficient-table recursion
    for k in (1, 2, 3, 5, 8):
        for m in (1, 2):
            t = 1.3
            deriv = StableDerivative(k)
            u_lo, u_hi = s_window(t, extra_decades=2.0)
            val = settle_by_doubling(
                lambda n: panel_integral(lambda u: np.exp(-(m - 1) * u) * deriv(t, np.exp(u)),
                                         u_lo, u_hi, n, 8),
                64, 1e-11, 9, 1e-300,
            )
            exact = moment_constant(m) * _falling_power_derivative(m, k, t)
            cases.append(_case_close(f"moment_m{m}_k{k}", val, exact, tol=1e-8, k=k))
    return cases, {"t_probe": [0.7, 1.1, 1.3, 1.5]}


def _suite_lemma_moment(cfg: SuiteConfig):
    cases = []
    for k in range(5):
        for t in (0.5, 1.0, 2.0):
            got = moment_quadrature(k, t)
            cases.append(_case_close(f"k{k}_t{t:g}", got, moment(k, t), tol=1e-8, k=k))
    cases.append(_case_close("c1_exact", moment_constant(1), 2.0, tol=1e-14, k=1))
    cases.append(_case_close("c2_exact", moment_constant(2), 12.0, tol=1e-14, k=2))
    return cases, {}


def _suite_corollary_tv(cfg: SuiteConfig):
    cases = []
    ts = (0.1, 1.0, 10.0)
    for k in range(1, 5):
        scaled = [t**k * tv_derivative_bound(k, t) for t in ts]
        cases.append(_case_close(f"k{k}_homogeneous", max(scaled), min(scaled), tol=1e-8, k=k))
    return cases, {"t_probe": list(ts)}


def _suite_lemma_maximal(cfg: SuiteConfig):
    rng = np.random.default_rng(cfg.seed)
    xs = rng.normal(scale=1.0 / math.sqrt(2.0), size=15)
    family = [
        ("mode_1", HermiteExpansion.single((1,))),
        ("mode_3", HermiteExpansion.single((3,))),
        ("mix_1_3", HermiteExpansion.single((1,)) + HermiteExpansion.single((3,), 0.5)),
        ("random_cap5", random_expansion(1, 5, rng)),
    ]
    t_grid = default_t_grid()
    t_fine = np.geomspace(1e-3, 50.0, 120)
    cases = []
    for k in (1, 2):
        bound = tv_derivative_bound(k, 1.0)
        for name, f in family:
            r = float(np.max(ph_derivative_bound_check(f, xs, k, t_grid)))
            cases.append(_case_le(f"{name}_k{k}", r, bound, k=k))
            r_fine = float(np.max(ph_derivative_bound_check(f, xs, k, t_fine)))
            cases.append(_case_close(f"{name}_k{k}_stable", r_fine, r, tol=0.05, k=k))
    return cases, {"n_points": 15, "t_grid": [1e-3, 50.0, 60]}


# ------------------------------------------------------------ norm toolbox

def _suite_norm_lemma(cfg: SuiteConfig):
    ctx = make_context(dim=1, nodes_per_axis=cfg.nodes_per_axis)
    space = gaussian_space(ctx)
    x = space.points[:, 0]
    f_vals = np.abs(np.sin(1.3 * x)) + 0.3
    cases = []
    for p in (make_constant(2.5), make_gaussian_family(2.0, 1.0)):
        tag = _desc(p).replace(":", "_")
        nrm = luxemburg_norm(f_vals, p, space)
        unit = f_vals / nrm.value
        cases.append(_case_close(f"unit_ball_{tag}", modular(unit, p, space), 1.0,
                                 tol=1e-8, p=p))
        cases.append(_case_le(f"unit_ball_strict_{tag}", 1.0,
                              modular(1.2 * unit, p, space), tol=0.0, p=p))
        for c in (3.7, 0.04):
            lhs = luxemburg_norm(c * f_vals, p, space).value
            cases.append(_case_close(f"homog_c{c:g}_{tag}", lhs, c * nrm.value,
                                     tol=1e-9, p=p))
        smaller = f_vals * (0.2 + 0.8 * (x > 0))
        cases.append(_case_le(f"monotone_{tag}",
                              luxemburg_norm(smaller, p, space).value, nrm.value, p=p))

    # indicator of [t0/2, t0]: its dt/t mass is ln 2 < 1, so the norm sits
    # between (ln 2)^{1 / q_minus} and 1 for every admissible q
    for t0 in (0.1, 1.0, 10.0):
        grid = logtime_grid(1e-4, 1e2, cfg.n_panels, breakpoints=(t0 / 2.0, t0))
        mu = logtime_space(grid)
        chi = ((mu.points >= t0 / 2.0) & (mu.points <= t0)).astype(float)
        for q in (make_constant(1.5), make_time_family(1.5, 3.0)):
            tag = _desc(q).replace(":", "_")
            nrm = luxemburg_norm(chi, q, mu).value
            lo = math.log(2.0) ** (1.0 / q.p_minus)
            cases.append(_case_le(f"indicator_lower_t{t0:g}_{tag}", lo, nrm, q=q))
            cases.append(_case_le(f"indicator_upper_t{t0:g}_{tag}", nrm, 1.0, q=q))
    return cases, ctx.grid_meta()


def _random_space_exponent(rng: np.random.Generator) -> ExponentFunction:
    if rng.random() < 0.5:
        return make_constant(float(rng.uniform(2.05, 5.0)))
    return make_gaussian_family(float(rng.uniform(2.05, 4.0)), float(rng.uniform(0.0, 1.0)))


def _suite_holder(cfg: SuiteConfig):
    ctx = make_context(dim=1, nodes_per_axis=cfg.nodes_per_axis)
    space = gaussian_space(ctx)
    rng = np.random.default_rng(cfg.seed)
    cases = []
    for i in range(50):
        q = _random_space_exponent(rng)
        r = _random_space_exponent(rng)
        f = random_expansion(1, 5, rng)
        g = random_expansion(1, 5, rng)
        rep = holder_check(f, g, q, r, space)
        cases.append(CaseResult(f"case{i:02d}", None, None, _desc(q), _desc(r),
                                rep.lhs, rep.rhs, rep.ratio, rep.ok))
    return cases, ctx.grid_meta()


def _suite_minkowski(cfg: SuiteConfig):
    ctx = make_context(dim=1, nodes_per_axis=cfg.nodes_per_axis)
    outer = gaussian_space(ctx)
    inner = logtime_space(logtime_grid(0.1, 10.0, 24))
    rng = np.random.default_rng(cfg.seed)
    cases = []
    for i in range(50):
        p = _random_space_exponent(rng)
        if i % 2 == 0:
            M = rng.lognormal(sigma=0.8, size=(outer.size, inner.size))
        else:
            M = rng.normal(size=(outer.size, inner.size))
        rep = minkowski_check(M, p, outer, inner)
        cases.append(CaseResult(f"case{i:02d}", None, None, _desc(p), "",
                                rep.lhs, rep.rhs, rep.ratio, rep.ok))
    return cases, {"outer": ctx.grid_meta(), "inner_points": inner.size}


def _suite_conjugate(cfg: SuiteConfig):
    ctx = make_context(dim=1, nodes_per_axis=cfg.nodes_per_axis)
    space = gaussian_space(ctx)
    x = space.points[:, 0]
    rng = np.random.default_rng(cfg.seed)
    functions = [
        ("shifted_mode", np.abs(x) + 0.5),
        ("mode_2", HermiteExpansion.single((2,)).evaluate(space.points)),
        ("random", random_expansion(1, 5, rng).evaluate(space.points)),
    ]
    cases = []
    for p in (make_constant(2.0), make_constant(3.0), make_gaussian_family(2.5, 0.8)):
        tag = _desc(p).replace(":", "_")
        for name, fv in functions:
            witness = dual_witness(fv, p, space)
            wiggle = witness * (1.0 + 0.1 * np.sin(2.0 * x))
            noise = np.abs(rng.normal(size=x.size))
            rep = conjugate_lower_bound(fv, p, space, [witness, wiggle, noise])
            cases.append(_case_le(f"{name}_{tag}_lower", 0.5, rep.lower_ratio, p=p))
            cases.append(_case_le(f"{name}_{tag}_upper", rep.best_pairing,
                                  2.0 * rep.norm, p=p))
    return cases, ctx.grid_meta()


def _hardy_suite(cfg: SuiteConfig, side: str):
    qs = [make_constant(2.0), make_time_family(1.5, 2.5)]
    cases, meta = [], None
    for tf in reference_family():
        grid = logtime_grid(n_panels=cfg.n_panels, breakpoints=tf.breakpoints)
        if meta is None:
            meta = {"t_min": grid.t_min, "t_max": grid.t_max, "n_panels": grid.n_panels}
        fine = grid.refined()
        for r in (0.25, 0.5, 1.0, 2.0):
            for q in qs:
                rep = hardy_inequality_check(tf.fn, r, q, side, grid, exp_decay=tf.exp_decay)
                ref = hardy_inequality_check(tf.fn, r, q, side, fine, exp_decay=tf.exp_decay)
                cases.append(_case_close(
                    f"{tf.name}_r{r:g}_{_desc(q).replace(':', '_')}",
                    ref.ratio, rep.ratio, tol=0.02, q=q,
                ))
    return cases, meta


def _suite_hardy_lower(cfg: SuiteConfig):
    return _hardy_suite(cfg, "lower")


def _suite_hardy_upper(cfg: SuiteConfig):
    return _hardy_suite(cfg, "upper")


# ------------------------------------------------------- smoothness spaces

_EQUIV_ALPHAS = (0.3, 0.8, 1.4)
_EQUIV_PAIRS = ((1, 2), (2, 3), (1, 3))


def _equivalence_suite(cfg: SuiteConfig, family: str):
    from_tensor = (besov_seminorm_from_tensor if family == "besov"
                   else triebel_seminorm_from_tensor)
    p = make_gaussian_family(2.0, 1.0)
    q = make_time_family(2.0, 2.5)
    ctx = make_context(dim=1, nodes_per_axis=cfg.nodes_per_axis, n_panels=cfg.n_panels)
    ctx_fine = ctx.with_time_grid(ctx.time_grid.refined())
    cases = []
    bands: dict[tuple, list[float]] = {}
    for name, f in reference_expansions():
        tensors = {
            (k, fine): derivative_tensor(f, k, ctx_fine if fine else ctx)
            for k in (1, 2, 3) for fine in (False, True)
        }
        semis: dict[tuple, float] = {}

        def semi(alpha, k, fine):
            key = (alpha, k, fine)
            if key not in semis:
                sp = SmoothnessParams(alpha=alpha, p=p, q=q, k=k)
                semis[key] = from_tensor(tensors[(k, fine)], sp,
                                         ctx_fine if fine else ctx)
            return semis[key]

        for alpha in _EQUIV_ALPHAS:
            for k, l in _EQUIV_PAIRS:
                if not (k > alpha and l > alpha):
                    continue
                ratio = semi(alpha, k, False) / semi(alpha, l, False)
                ratio_fine = semi(alpha, k, True) / semi(alpha, l, True)
                cases.append(_case_close(f"{name}_a{alpha:g}_k{k}l{l}",
                                         ratio_fine, ratio, tol=0.05,
                                         alpha=alpha, k=k, p=p, q=q))
                bands.setdefault((alpha, k, l), []).append(ratio)
    for (alpha, k, l), ratios in sorted(bands.items()):
        cases.append(_case_record(f"band_a{alpha:g}_k{k}l{l}",
                                  max(ratios), min(ratios),
                                  alpha=alpha, k=k, p=p, q=q))
    return cases, ctx.grid_meta()


def _suite_besov_equivalence(cfg: SuiteConfig):
    return _equivalence_suite(cfg, "besov")


def _suite_tl_equivalence(cfg: SuiteConfig):
    return _equivalence_suite(cfg, "triebel")


def _suite_kdecay(cfg: SuiteConfig):
    ctx = make_context(dim=1, nodes_per_axis=cfg.nodes_per_axis, n_panels=cfg.n_panels)
    space = gaussian_space(ctx)
    ts = ctx.time_grid.points
    cases = []
    for p in (make_constant(2.0), make_gaussian_family(2.0, 1.0)):
        tag = _desc(p).replace(":", "_")
        constant_p = p.p_minus == p.p_plus
        for name, f in reference_expansions():
            for k in (1, 2):
                rep = derivative_decay_check(f, k, p, ctx)
                # constant p: the semigroup is an L^p contraction, so the
                # norm profile is genuinely nonincreasing; variable p only
                # bounds the overshoot by the semigroup's operator norm
                mono_bound = 1.0 + 1e-9 if constant_p else 1.05
                cases.append(_case_le(f"{name}_k{k}_{tag}_monotone",
                                      rep.monotone_constant, mono_bound,
                                      tol=0.0, k=k, p=p))
                tstar = ou_maximal(f, ctx.gh_points, ts)
                rhs = (tv_derivative_bound(k, 1.0)
                       * luxemburg_norm(tstar, p, space).value / rep.lp_norm)
                cases.append(_case_le(f"{name}_k{k}_{tag}_bound",
                                      rep.bound_constant, rhs, tol=0.02, k=k, p=p))
    return cases, ctx.grid_meta()


def _inclusion_suite(cfg: SuiteConfig, check, instances):
    ctx = make_context(dim=1, nodes_per_axis=cfg.nodes_per_axis, n_panels=cfg.n_panels)
    p = make_gaussian_family(2.0, 0.5)
    funcs = dict(reference_expansions())
    picks = [funcs["mode_2"], funcs["mix_1_4"], funcs["random_cap5"]]
    cases = []
    for label, a1, a2, q1, q2 in instances:
        for i, f in enumerate(picks):
            rep = check(f, a1, a2, q1, q2, p, ctx)
            cases.append(_case_record(f"{label}_f{i}", rep.target_total,
                                      rep.source_total, alpha=a1, p=p, q=q2))
    return cases, ctx.grid_meta()


def _suite_besov_inclusion(cfg: SuiteConfig):
    return _inclusion_suite(cfg, inclusion_check_besov, [
        ("drop_order", 1.2, 0.6, make_time_family(2.0, 2.5), make_constant(2.0)),
        ("drop_order_var_q", 0.9, 0.4, make_constant(2.2), make_time_family(1.8, 2.6)),
        ("same_order_q_up", 0.8, 0.8, make_constant(1.8), make_constant(2.4)),
        ("same_order_var_q", 0.7, 0.7, make_time_family(1.6, 2.0), make_time_family(2.1, 2.4)),
    ])


def _suite_tl_inclusion(cfg: SuiteConfig):
    return _inclusion_suite(cfg, inclusion_check_tl, [
        ("drop_order", 1.2, 0.6, make_constant(3.0), make_constant(2.0)),
        ("drop_order_var_q", 0.9, 0.4, make_time_family(2.6, 3.2), make_time_family(1.8, 2.2)),
    ])


def _suite_hermite_membership(cfg: SuiteConfig):
    # window chosen so the below-t_min modular mass is O(1e-7): the probe
    # then moves the norm by less than the 1e-6 membership bar
    ctx = make_context(dim=1, nodes_per_axis=cfg.nodes_per_axis or 48,
                       t_min=1e-8, t_max=1e2, n_panels=cfg.n_panels or 600)
    combos = [
        ("besov", 0.5, make_gaussian_family(2.0, 1.0), make_constant(2.0)),
        ("triebel", 1.5, make_constant(2.5), make_time_family(2.0, 3.0)),
    ]
    cases = []
    for family, alpha, p, q in combos:
        sp = SmoothnessParams(alpha=alpha, p=p, q=q)
        for name, f in reference_expansions():
            rep = membership_check(f, sp, ctx, family=family)
            cases.append(CaseResult(f"{name}_{family}_a{alpha:g}", alpha, sp.k,
                                    _desc(p), _desc(q), rep.norm_default, rep.norm_probed,
                                    inequality_ratio(rep.norm_default, rep.norm_probed),
                                    rep.is_member))
    return cases, ctx.grid_meta()


def _suite_power_identity(cfg: SuiteConfig):
    ctx = make_context(dim=1, nodes_per_axis=cfg.nodes_per_axis)
    space = gaussian_space(ctx)
    x = space.points[:, 0]
    rng = np.random.default_rng(cfg.seed)
    h1 = HermiteExpansion.single((1,))
    h2 = HermiteExpansion.single((2,))
    instances = [
        ("h1_s2_const2", h1, 2.0, make_constant(2.0)),
        ("h2_s2_const2", h2, 2.0, make_constant(2.0)),
        ("h1_s3_const14", h1, 3.0, make_constant(1.4)),
        ("random_s15_gauss", random_expansion(1, 5, rng), 1.5,
         make_gaussian_family(2.0, 0.7)),
        ("cos_s25_const12", np.cos(x), 2.5, make_constant(1.2)),
    ]
    cases = []
    for name, f, s, p in instances:
        lhs, rhs = power_norm_identity_check(f, s, p, space)
        cases.append(_case_close(name, lhs, rhs, tol=1e-7, p=p))

    grid = logtime_grid(n_panels=cfg.n_panels)
    mu = logtime_space(grid)
    g = np.exp(-mu.points) * mu.points
    lhs, rhs = power_norm_identity_check(g, 2.0, make_time_family(1.5, 2.5), mu)
    cases.append(_case_close("time_s2_family", lhs, rhs, tol=1e-7,
                             q=make_time_family(1.5, 2.5)))

    # exact cross-check: || h_1^2 ||_2 = sqrt(3) = || h_1 ||_4^2
    lhs = luxemburg_norm(h1.evaluate(space.points) ** 2, make_constant(2.0), space).value
    cases.append(_case_close("h1_sq_l2_exact", lhs, math.sqrt(3.0), tol=1e-9,
                             p=make_constant(2.0)))
    return cases, ctx.grid_meta()


def _suite_log_convexity(cfg: SuiteConfig):
    ctx = make_context(dim=1, nodes_per_axis=cfg.nodes_per_axis)
    space = gaussian_space(ctx)
    x = space.points[:, 0]
    rng = np.random.default_rng(cfg.seed)
    h = HermiteExpansion.single
    instances = [
        ("h2_2_4", h((2,)), make_constant(2.0), make_constant(4.0), 0.5),
        ("mix_17_31", h((1,)) + h((3,), 0.5), make_constant(1.7), make_constant(3.1), 0.3),
        ("shifted_var", np.abs(x) + 0.2, make_gaussian_family(1.8, 0.6),
         make_constant(3.0), 0.6),
        ("random_25_15", random_expansion(1, 5, rng), make_constant(2.5),
         make_constant(1.5), 0.45),
    ]
    cases = []
    for name, f, r0, r1, lam in instances:
        rep = log_convexity_check(f, r0, r1, lam, space)
        cases.append(CaseResult(name, None, None, _desc(r0), _desc(r1),
                                rep.lhs, rep.rhs, rep.ratio, rep.ok))

    grid = logtime_grid(n_panels=cfg.n_panels)
    mu = logtime_space(grid)
    g = mu.points / (1.0 + mu.points) ** 3
    rep = log_convexity_check(g, make_time_family(1.6, 2.4), make_constant(2.8), 0.4, mu)
    cases.append(CaseResult("time_side", None, None, _desc(make_time_family(1.6, 2.4)),
                            _desc(make_constant(2.8)), rep.lhs, rep.rhs, rep.ratio, rep.ok))
    return cases, ctx.grid_meta()


def _suite_interpolation(cfg: SuiteConfig):
    ctx = make_context(dim=1, nodes_per_axis=cfg.nodes_per_axis, n_panels=cfg.n_panels)
    rng = np.random.default_rng(cfg.seed)
    h = HermiteExpansion.single
    c2 = make_constant(2.0)
    instances = [
        ("h2_flat", h((2,)),
         SmoothnessParams(0.25, c2, c2), SmoothnessParams(0.75, c2, c2), 0.5),
        ("mix_variable", h((1,)) + h((3,), 0.7),
         SmoothnessParams(0.4, make_gaussian_family(1.6, 0.5), make_time_family(1.8, 2.6)),
         SmoothnessParams(1.3, make_constant(2.8), make_constant(2.1)), 0.35),
        ("random_variable", random_expansion(1, 5, rng),
         SmoothnessParams(0.6, make_gaussian_family(2.2, 0.4), make_time_family(2.4, 1.9)),
         SmoothnessParams(1.1, make_constant(1.7), make_time_family(1.6, 2.2)), 0.7),
    ]
    cases = []
    for name, f, sp0, sp1, theta in instances:
        rep = interpolation_check(f, sp0, sp1, theta, ctx)
        p_mix = harmonic_interpolation(sp0.p, sp1.p, theta)
        q_mix = harmonic_interpolation(sp0.q, sp1.q, theta)
        for fam, lhs, rhs in (("besov", rep.lhs_besov, rep.rhs_besov),
                              ("tl", rep.lhs_tl, rep.rhs_tl)):
            cases.append(_case_le(f"{name}_{fam}", lhs, rhs,
                                  alpha=rep.alpha, k=rep.k_used, p=p_mix, q=q_mix))
    return cases, ctx.grid_meta()


# ------------------------------------------------------------------ registry

_REGISTRY: list[tuple[str, str, callable]] = [
    ("eigen-ou",
     "Mehler-kernel quadrature reproduces T_t h_nu = exp(-t |nu|) h_nu "
     "for |nu| <= 6 in dimensions 1 and 2",
     _suite_eigen_ou),
    ("eigen-ph",
     "subordination quadrature reproduces P_t h_nu = exp(-t sqrt(|nu|)) h_nu "
     "for |nu| <= 6 in dimensions 1 and 2",
     _suite_eigen_ph),
    ("stable-derivatives",
     "d^k/dt^k of the one-sided stable density t e^{-t^2/4s} / (2 sqrt(pi) s^{3/2}) "
     "is that density times a sum a_ij t^i s^{-j} over 2j - i = k, and its "
     "s-integrals match closed forms",
     _suite_stable_derivatives),
    ("lemma-moment",
     "integral s^{-k} g(t, s) ds = 4^k Gamma(k + 1/2) / (sqrt(pi) t^{2k})",
     _suite_lemma_moment),
    ("corollary-tv",
     "t^k integral |d^k/dt^k g(t, s)| ds is independent of t",
     _suite_corollary_tv),
    ("lemma-maximal",
     "t^k |d^k/dt^k P_t f(x)| <= C_k sup_s |T_s f(x)| with C_k the "
     "total-variation constant",
     _suite_lemma_maximal),
    ("norm-lemma-i-iv",
     "Luxemburg norm basics: modular of the normalized function is 1, "
     "homogeneity, monotonicity, and the indicator two-sided bracket",
     _suite_norm_lemma),
    ("holder",
     "||f g||_{p(.)} <= 2 ||f||_{q(.)} ||g||_{r(.)} when 1/p = 1/q + 1/r pointwise",
     _suite_holder),
    ("minkowski",
     "|| integral F(., y) dnu(y) ||_{p(.)} <= 4 integral ||F(., y)||_{p(.)} dnu(y)",
     _suite_minkowski),
    ("conjugate",
     "sup over unit-conjugate-norm g of integral |f g| dmu lies within "
     "[1/2, 2] times ||f||_{p(.)}",
     _suite_conjugate),
    ("hardy-lower",
     "||t^{-r} integral_0^t g dy||_{q(.), dt/t} <= C ||y^{1-r} g||_{q(.), dt/t}: "
     "the empirical ratio is finite and grid-stable",
     _suite_hardy_lower),
    ("hardy-upper",
     "||t^r integral_t^inf g dy||_{q(.), dt/t} <= C ||y^{1+r} g||_{q(.), dt/t}: "
     "the empirical ratio is finite and grid-stable",
     _suite_hardy_upper),
    ("besov-equivalence",
     "Besov seminorms built from derivative orders k, l > alpha are equivalent: "
     "their ratio is grid-stable, with the family band recorded",
     _suite_besov_equivalence),
    ("tl-equivalence",
     "Triebel-Lizorkin seminorms built from derivative orders k, l > alpha are "
     "equivalent: their ratio is grid-stable, with the family band recorded",
     _suite_tl_equivalence),
    ("kdecay",
     "||d^k/dt^k P_t f||_{p(.)} is nonincreasing in t (contraction for constant p) "
     "and bounded by C_k t^{-k} times the maximal-function norm",
     _suite_kdecay),
    ("besov-inclusion",
     "Besov spaces shrink as alpha grows (any q) and grow in q at fixed alpha: "
     "hypothesis-respecting instances have finite target norms",
     _suite_besov_inclusion),
    ("tl-inclusion",
     "Triebel-Lizorkin spaces shrink as alpha grows when the time exponent "
     "drops: hypothesis-respecting instances have finite target norms",
     _suite_tl_inclusion),
    ("hermite-membership",
     "every finite Hermite expansion belongs to the Besov and Triebel-Lizorkin "
     "spaces: norms are finite and stable under a wider, finer window",
     _suite_hermite_membership),
    ("power-identity",
     "|| |f|^s ||_{p(.)} = || f ||^s_{s p(.)}",
     _suite_power_identity),
    ("log-convexity",
     "||f||_{r(.)} <= 2 ||f||^{1-lam}_{r0(.)} ||f||^lam_{r1(.)} for the "
     "harmonic interpolant r",
     _suite_log_convexity),
    ("interpolation",
     "the seminorm at interpolated order and harmonically mixed exponents is "
     "at most 4 times the weighted geometric mean of the endpoint seminorms",
     _suite_interpolation),
]

_BY_ID = {sid: (anchor, fn) for sid, anchor, fn in _REGISTRY}


def suite_ids() -> list[str]:
    """Registry order: semigroup facts, norm toolbox, smoothness theorems."""
    return [sid for sid, _, _ in _REGISTRY]


def run_suite(suite_id: str, cfg: SuiteConfig | None = None) -> SuiteResult:
    """Run one named suite; deterministic given the config seed."""
    if suite_id not in _BY_ID:
        raise ParameterError(
            f"unknown suite {suite_id!r}; choose from {', '.join(suite_ids())}"
        )
    cfg = cfg or SuiteConfig()
    anchor, fn = _BY_ID[suite_id]
    start = time.perf_counter()
    cases, meta = fn(cfg)
    return SuiteResult(
        suite_id=suite_id,
        anchor=anchor,
        cases=list(cases),
        grid_meta=meta,
        wall_time=time.perf_counter() - start,
    )


def run_all(cfg: SuiteConfig | None = None) -> list[SuiteResult]:
    """Every suite in registry order."""
    return [run_suite(sid, cfg) for sid in suite_ids()]


def csv_rows(results: list[SuiteResult]) -> list[list[str]]:
    """Flatten results to rows under CSV_HEADER; floats as shortest round-trip."""

    def fmt(v) -> str:
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return repr(v)
        return str(v)

    rows = []
    for res in results:
        for c in res.cases:
            rows.append([res.suite_id, c.case_id, fmt(c.alpha), fmt(c.k),
                         c.p_desc, c.q_desc, fmt(c.lhs), fmt(c.rhs),
                         fmt(c.ratio), fmt(c.passed)])
    return rows
