"""Gaussian smoothness norms of Besov-Lipschitz and Triebel-Lizorkin type.

Both families measure the decay of time derivatives of the subordinated
(Poisson-type) semigroup applied to f. With D_k(t, x) = d^k/dt^k P_t f(x),
a smoothness order alpha < k, a space exponent p(.) and a time exponent q(.):

* Besov-Lipschitz seminorm: the dt/t Luxemburg norm in t of
  ``t^{k - alpha} * || D_k(t, .) ||_{p(.), gaussian}``;
* Triebel-Lizorkin seminorm: the gaussian Luxemburg norm in x of
  ``|| t^{k - alpha} D_k(., x) ||_{q(.), dt/t}``.

Either way the full norm adds the plain ``|| f ||_{p(.)}``. The two
computations permute the same (t_j, x_i) tensor of derivative values, which
is therefore computed once per (f, k) and shared; the inner norms are
row-batched Newton solves from :mod:`gvs.lebesgue`.

Everything here evaluates on a truncated time window, so reported values
are the truncated norms. Closed-form comparisons in the tests use
incomplete-gamma oracles on the same window; ideal (untruncated) values are
approached by widening the window, which :func:`membership_check` exploits
as a stability probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError
from .exponents import (
    TAG_GAUSS_INF,
    TAG_HALFLINE,
    TAG_LH0,
    ExponentFunction,
    harmonic_interpolation,
)
from .hermite import HermiteExpansion, random_expansion
from .lebesgue import (
    InequalityReport,
    MeasureSpace,
    gaussian_space,
    inequality_holds,
    inequality_ratio,
    logtime_space,
    luxemburg_norm,
    luxemburg_norm_rows,
    values_on,
)
from .quadrature import QuadratureContext, logtime_grid, make_context
from .semigroups import ph_derivative_profile


@dataclass(frozen=True)
class SmoothnessParams:
    """Order alpha, derivative order k > alpha, and the two exponents.

    ``k=None`` selects the smallest integer strictly greater than alpha.
    The space exponent must be Gaussian-adapted (tags LH0 and P_gamma_inf);
    the time exponent must have endpoint limits (tag P_0_inf).
    """

    alpha: float
    p: ExponentFunction
    q: ExponentFunction
    k: int | None = None

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ParameterError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.k is None:
            object.__setattr__(self, "k", math.floor(self.alpha) + 1)
        if not (isinstance(self.k, int) and self.k > self.alpha):
            raise ParameterError(f"k must be an integer strictly above alpha, got k={self.k}")
        if self.p.domain not in ("space", "both"):
            raise ParameterError("space exponent must live on the Gaussian side")
        if self.q.domain not in ("time", "both"):
            raise ParameterError("time exponent must live on the half-line side")
        missing = {TAG_LH0, TAG_GAUSS_INF} - self.p.class_tags
        if missing:
            raise ParameterError(f"space exponent lacks required regularity tags {sorted(missing)}")
        if TAG_HALFLINE not in self.q.class_tags:
            raise ParameterError("time exponent must carry endpoint limits (tag P_0_inf)")

    def with_order(self, alpha: float, k: int | None = None) -> "SmoothnessParams":
        return SmoothnessParams(alpha=alpha, p=self.p, q=self.q, k=k)


@dataclass(frozen=True)
class SmoothnessNormReport:
    """One space norm split into its two summands, with the grid that made it."""

    lp_norm: float
    seminorm: float
    total: float
    k_used: int
    grid_meta: dict


def _context_for(f: HermiteExpansion, ctx: QuadratureContext | None) -> QuadratureContext:
    if ctx is None:
        return make_context(dim=f.dim)
    if ctx.dim != f.dim:
        raise ParameterError(f"context dimension {ctx.dim} does not match expansion {f.dim}")
    return ctx


def derivative_tensor(f: HermiteExpansion, k: int, ctx: QuadratureContext) -> np.ndarray:
    """|d^k/dt^k P_t f(x)| on the (time grid) x (Gauss-Hermite nodes) lattice."""
    return np.abs(ph_derivative_profile(f, k, ctx.time_grid.points, ctx.gh_points))


def _inner_space_norms(D: np.ndarray, p: ExponentFunction, ctx: QuadratureContext) -> np.ndarray:
    p_at = np.asarray(p(ctx.gh_points), dtype=float)
    return luxemburg_norm_rows(D, ctx.gh_weights, p_at)


def besov_seminorm_from_tensor(
    D: np.ndarray, sp: SmoothnessParams, ctx: QuadratureContext
) -> float:
    """Besov seminorm from a :func:`derivative_tensor` of order ``sp.k`` on ctx."""
    ts = ctx.time_grid.points
    phi = _inner_space_norms(D, sp.p, ctx)
    outer = ts ** (sp.k - sp.alpha) * phi
    return luxemburg_norm(outer, sp.q, logtime_space(ctx.time_grid)).value


def triebel_seminorm_from_tensor(
    D: np.ndarray, sp: SmoothnessParams, ctx: QuadratureContext
) -> float:
    """Triebel-Lizorkin seminorm from a :func:`derivative_tensor` of order ``sp.k`` on ctx."""
    ts = ctx.time_grid.points
    q_at = np.asarray(sp.q(ts), dtype=float)
    rows = D.T * (ts ** (sp.k - sp.alpha))[None, :]
    per_node = luxemburg_norm_rows(rows, ctx.time_grid.weights, q_at)
    return luxemburg_norm(per_node, sp.p, gaussian_space(ctx)).value


def besov_seminorm(
    f: HermiteExpansion, sp: SmoothnessParams, ctx: QuadratureContext | None = None
) -> float:
    """Outer-in-time seminorm; 0 for expansions killed by d/dt (constants)."""
    ctx = _context_for(f, ctx)
    return besov_seminorm_from_tensor(derivative_tensor(f, sp.k, ctx), sp, ctx)


def triebel_seminorm(
    f: HermiteExpansion, sp: SmoothnessParams, ctx: QuadratureContext | None = None
) -> float:
    """Outer-in-space seminorm over pointwise time profiles."""
    ctx = _context_for(f, ctx)
    return triebel_seminorm_from_tensor(derivative_tensor(f, sp.k, ctx), sp, ctx)


def _norm_report(f, sp, ctx, seminorm_fn) -> SmoothnessNormReport:
    ctx = _context_for(f, ctx)
    lp = luxemburg_norm(f, sp.p, gaussian_space(ctx)).value
    semi = seminorm_fn(f, sp, ctx)
    return SmoothnessNormReport(
        lp_norm=lp,
        seminorm=semi,
        total=lp + semi,
        k_used=sp.k,
        grid_meta=ctx.grid_meta(),
    )


def besov_norm(
    f: HermiteExpansion, sp: SmoothnessParams, ctx: QuadratureContext | None = None
) -> SmoothnessNormReport:
    """``||f||_{p(.)} + besov_seminorm(f)`` with grid provenance."""
    return _norm_report(f, sp, ctx, besov_seminorm)


def triebel_norm(
    f: HermiteExpansion, sp: SmoothnessParams, ctx: QuadratureContext | None = None
) -> SmoothnessNormReport:
    """``||f||_{p(.)} + triebel_seminorm(f)`` with grid provenance."""
    return _norm_report(f, sp, ctx, triebel_seminorm)


def besov_infty_constant(
    f: HermiteExpansion, sp: SmoothnessParams, ctx: QuadratureContext | None = None
) -> float:
    """Grid supremum of ``t^{k - alpha} ||d^k/dt^k P_t f||_{p(.)}``.

    This is the q = infinity variant of the seminorm: a lower bound for the
    true supremum that is stable under refinement. No outer modular exists
    for q = infinity, so only this constant is exposed.
    """
    ctx = _context_for(f, ctx)
    D = derivative_tensor(f, sp.k, ctx)
    phi = _inner_space_norms(D, sp.p, ctx)
    return float(np.max(ctx.time_grid.points ** (sp.k - sp.alpha) * phi))


@dataclass(frozen=True)
class EquivalenceReport:
    """Seminorm ratios between two admissible derivative orders k and l."""

    k: int
    l: int
    ratio_besov: float
    ratio_tl: float


def equivalence_ratio(
    f: HermiteExpansion,
    sp: SmoothnessParams,
    l: int,
    ctx: QuadratureContext | None = None,
) -> EquivalenceReport:
    """Ratio of order-k to order-l seminorms in both families.

    Both orders must exceed alpha. A vanishing denominator with nonzero
    numerator signals inconsistent quadrature and raises; the doubly-zero
    case (constants) reports ratio 1.
    """
    if not (isinstance(l, int) and l > sp.alpha):
        raise ParameterError(f"alternative order l must be an integer above alpha, got {l}")
    if l == sp.k:
        raise ParameterError("alternative order l must differ from sp.k")
    ctx = _context_for(f, ctx)
    sp_l = SmoothnessParams(alpha=sp.alpha, p=sp.p, q=sp.q, k=l)
    D_k = derivative_tensor(f, sp.k, ctx)
    D_l = derivative_tensor(f, l, ctx)

    def safe_ratio(num: float, den: float) -> float:
        if den == 0.0:
            if num == 0.0:
                return 1.0
            raise ConvergenceError(
                f"order-{l} seminorm vanished while order-{sp.k} did not"
            )
        return inequality_ratio(num, den)

    ratio_b = safe_ratio(besov_seminorm_from_tensor(D_k, sp, ctx),
                         besov_seminorm_from_tensor(D_l, sp_l, ctx))
    ratio_f = safe_ratio(triebel_seminorm_from_tensor(D_k, sp, ctx),
                         triebel_seminorm_from_tensor(D_l, sp_l, ctx))
    return EquivalenceReport(k=sp.k, l=l, ratio_besov=ratio_b, ratio_tl=ratio_f)


@dataclass(frozen=True)
class InclusionReport:
    """Norms of one function in a source and a target smoothness space.

    ``bridge_norms`` records the window norms whose finiteness the
    alpha1 > alpha2 case rests on: ``t^{alpha1 - alpha2}`` near 0 and
    ``t^{-alpha2}`` near infinity, both under the target time exponent.
    """

    source_total: float
    target_total: float
    ratio: float
    bridge_norms: tuple[float, float] | None


def _bridge_norms(alpha1, alpha2, q2, ctx) -> tuple[float, float]:
    grid = ctx.time_grid.with_breakpoints((1.0,))
    mu = logtime_space(grid)
    ts = mu.points
    near0 = np.where(ts <= 1.0, ts ** (alpha1 - alpha2), 0.0)
    tail = np.where(ts > 1.0, ts ** (-alpha2), 0.0)
    return (
        luxemburg_norm(near0, q2, mu).value,
        luxemburg_norm(tail, q2, mu).value,
    )


def _inclusion_report(norm, f, alpha1, alpha2, q1, q2, p, ctx, bridge) -> InclusionReport:
    """Source and target norms under one ``norm``; a diverged target raises."""
    src = norm(f, SmoothnessParams(alpha=alpha1, p=p, q=q1), ctx).total
    tgt = norm(f, SmoothnessParams(alpha=alpha2, p=p, q=q2), ctx).total
    if np.isfinite(src) and not np.isfinite(tgt):
        raise ConvergenceError("source norm finite but target norm diverged")
    return InclusionReport(source_total=src, target_total=tgt,
                           ratio=inequality_ratio(tgt, src), bridge_norms=bridge)


def inclusion_check_besov(
    f: HermiteExpansion,
    alpha1: float,
    alpha2: float,
    q1: ExponentFunction,
    q2: ExponentFunction,
    p: ExponentFunction,
    ctx: QuadratureContext | None = None,
) -> InclusionReport:
    """Besov inclusion instance: source order alpha1, target order alpha2.

    Admissible patterns: alpha1 > alpha2 > 0 with unrelated time exponents,
    or alpha1 = alpha2 with q1 <= q2 pointwise on the time grid. Anything
    else is rejected: an unsupported inclusion cannot be "verified".
    """
    ctx = _context_for(f, ctx)
    bridge = None
    if alpha1 > alpha2 > 0:
        bridge = _bridge_norms(alpha1, alpha2, q2, ctx)
    elif alpha1 == alpha2:
        ts = ctx.time_grid.points
        if not np.all(np.asarray(q1(ts)) <= np.asarray(q2(ts)) + 1e-12):
            raise ParameterError(
                "equal orders require q1 <= q2 pointwise for the Besov inclusion"
            )
    else:
        raise ParameterError(
            f"Besov inclusion needs alpha1 > alpha2 > 0 or alpha1 = alpha2, "
            f"got ({alpha1}, {alpha2})"
        )
    return _inclusion_report(besov_norm, f, alpha1, alpha2, q1, q2, p, ctx, bridge)


def inclusion_check_tl(
    f: HermiteExpansion,
    alpha1: float,
    alpha2: float,
    q1: ExponentFunction,
    q2: ExponentFunction,
    p: ExponentFunction,
    ctx: QuadratureContext | None = None,
) -> InclusionReport:
    """Triebel-Lizorkin inclusion instance.

    Requires alpha1 > alpha2 > 0 together with q1 > q2 pointwise on the
    time grid; unlike the Besov case the exponent ordering is not optional.
    """
    ctx = _context_for(f, ctx)
    if not alpha1 > alpha2 > 0:
        raise ParameterError(
            f"TL inclusion needs alpha1 > alpha2 > 0, got ({alpha1}, {alpha2})"
        )
    ts = ctx.time_grid.points
    if not np.all(np.asarray(q1(ts)) > np.asarray(q2(ts)) - 1e-12):
        raise ParameterError("TL inclusion requires q1 > q2 pointwise")
    return _inclusion_report(triebel_norm, f, alpha1, alpha2, q1, q2, p, ctx, None)


@dataclass(frozen=True)
class InterpolationReport:
    """Interpolated-space seminorms against the weighted geometric mean bound."""

    alpha: float
    k_used: int
    lhs_besov: float
    rhs_besov: float
    lhs_tl: float
    rhs_tl: float

    @property
    def ok(self) -> bool:
        return inequality_holds(self.lhs_besov, self.rhs_besov) and inequality_holds(
            self.lhs_tl, self.rhs_tl
        )


def interpolation_check(
    f: HermiteExpansion,
    sp0: SmoothnessParams,
    sp1: SmoothnessParams,
    theta: float,
    ctx: QuadratureContext | None = None,
) -> InterpolationReport:
    """Seminorm interpolation with the proof constant 4.

    The interpolated order is the affine mix of alpha0 and alpha1; the
    exponents mix harmonically. All three seminorms are computed with one
    common derivative order (the default for max(alpha0, alpha1)), so a
    single derivative tensor serves every term. Endpoint exponents must
    stay strictly inside (1, infinity).
    """
    if not 0.0 < theta < 1.0:
        raise ParameterError(f"theta must lie strictly inside (0, 1), got {theta}")
    for sp in (sp0, sp1):
        for e in (sp.p, sp.q):
            if e.p_minus <= 1.0:
                raise ParameterError("interpolation endpoints need exponents > 1")
    ctx = _context_for(f, ctx)
    alpha = (1.0 - theta) * sp0.alpha + theta * sp1.alpha
    k = math.floor(max(sp0.alpha, sp1.alpha)) + 1
    p_mix = harmonic_interpolation(sp0.p, sp1.p, theta)
    q_mix = harmonic_interpolation(sp0.q, sp1.q, theta)
    mix = SmoothnessParams(alpha=alpha, p=p_mix, q=q_mix, k=k)
    end0 = SmoothnessParams(alpha=sp0.alpha, p=sp0.p, q=sp0.q, k=k)
    end1 = SmoothnessParams(alpha=sp1.alpha, p=sp1.p, q=sp1.q, k=k)

    D = derivative_tensor(f, k, ctx)
    out = {}
    for label, fn in (("besov", besov_seminorm_from_tensor),
                      ("tl", triebel_seminorm_from_tensor)):
        lhs = fn(D, mix, ctx)
        s0 = fn(D, end0, ctx)
        s1 = fn(D, end1, ctx)
        out[label] = (lhs, 4.0 * s0 ** (1.0 - theta) * s1**theta)
    return InterpolationReport(
        alpha=alpha,
        k_used=k,
        lhs_besov=out["besov"][0],
        rhs_besov=out["besov"][1],
        lhs_tl=out["tl"][0],
        rhs_tl=out["tl"][1],
    )


def power_norm_identity_check(
    f, s: float, p: ExponentFunction, m: MeasureSpace
) -> tuple[float, float]:
    """``|||f|^s||_{p(.)}`` and ``||f||^s_{s p(.)}``; equal up to solver tolerance.

    Requires s * p_minus >= 1 (enforced by the exponent scaling).
    """
    vals = np.abs(values_on(f, m))
    lhs = luxemburg_norm(vals**s, p, m).value
    rhs = luxemburg_norm(vals, p.scaled(s), m).value ** s
    return lhs, rhs


def log_convexity_check(
    f,
    r0: ExponentFunction,
    r1: ExponentFunction,
    lam: float,
    m: MeasureSpace,
) -> InequalityReport:
    """``||f||_{r(.)} <= 2 ||f||^{1-lam}_{r0} ||f||^lam_{r1}`` with harmonic r."""
    if not 0.0 < lam < 1.0:
        raise ParameterError(f"lambda must lie strictly inside (0, 1), got {lam}")
    for e in (r0, r1):
        if e.p_minus <= 1.0:
            raise ParameterError("log-convexity endpoints need exponents > 1")
    r_mix = harmonic_interpolation(r0, r1, lam)
    vals = np.abs(values_on(f, m))
    lhs = luxemburg_norm(vals, r_mix, m).value
    rhs = 2.0 * luxemburg_norm(vals, r0, m).value ** (1.0 - lam) * (
        luxemburg_norm(vals, r1, m).value ** lam
    )
    return InequalityReport.of(lhs, rhs)


@dataclass(frozen=True)
class DecayReport:
    """Empirical constants for the decay of ``t -> ||d^k/dt^k P_t f||_{p(.)}``."""

    monotone_constant: float  # sup over s < t of value(t) / value(s)
    bound_constant: float     # sup of t^k * value(t) / ||f||_{p(.)}
    lp_norm: float


def derivative_decay_check(
    f: HermiteExpansion, k: int, p: ExponentFunction, ctx: QuadratureContext | None = None
) -> DecayReport:
    """Measure the two decay constants of the derivative norm profile."""
    if not (isinstance(k, int) and k >= 1):
        raise ParameterError(f"derivative order must be a positive integer, got {k}")
    ctx = _context_for(f, ctx)
    D = derivative_tensor(f, k, ctx)
    phi = _inner_space_norms(D, p, ctx)
    lp = luxemburg_norm(f, p, gaussian_space(ctx)).value
    if lp == 0.0:
        return DecayReport(monotone_constant=0.0, bound_constant=0.0, lp_norm=0.0)
    running_min = np.minimum.accumulate(np.where(phi > 0, phi, np.inf))
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = phi[1:] / running_min[:-1]
    monotone = float(np.nanmax(ratios)) if ratios.size else 0.0
    bound = float(np.max(ctx.time_grid.points**k * phi) / lp)
    return DecayReport(monotone_constant=monotone, bound_constant=bound, lp_norm=lp)


@dataclass(frozen=True)
class MembershipReport:
    """Desk-scale membership: finite now and stable under a wider, finer grid."""

    norm_default: float
    norm_probed: float
    rel_change: float
    is_member: bool


def membership_check(
    f: HermiteExpansion,
    sp: SmoothnessParams,
    ctx: QuadratureContext | None = None,
    rel_tol: float = 1e-6,
    family: str = "besov",
) -> MembershipReport:
    """Finiteness of the norm plus stability when the window grows.

    The probe grid stretches the truncation by a decade at each end and
    doubles the panel count. A relative change above ``rel_tol`` means the
    truncated value has not settled: the function may well belong to the
    space, but this resolution cannot certify it.
    """
    if family not in ("besov", "triebel"):
        raise ParameterError(f"family must be 'besov' or 'triebel', got {family!r}")
    ctx = _context_for(f, ctx)
    norm_fn = besov_norm if family == "besov" else triebel_norm
    base = norm_fn(f, sp, ctx).total
    g = ctx.time_grid
    probe_grid = logtime_grid(g.t_min / 10.0, g.t_max * 10.0, 2 * g.n_panels, g.breakpoints)
    probed = norm_fn(f, sp, ctx.with_time_grid(probe_grid)).total
    rel = abs(probed - base) / probed if probed > 0 else 0.0
    member = bool(np.isfinite(base) and np.isfinite(probed) and rel < rel_tol)
    return MembershipReport(
        norm_default=base, norm_probed=probed, rel_change=rel, is_member=member
    )


def reference_expansions(dim: int = 1) -> list[tuple[str, HermiteExpansion]]:
    """Ten expansions exercising single modes, mixtures, and random spectra."""
    if dim != 1:
        raise ParameterError("the reference family is one-dimensional")
    h = HermiteExpansion.single
    x_sq = HermiteExpansion.from_pairs(1, [((2,), 1.0 / np.sqrt(2.0)), ((0,), 0.5)])
    x_cu = HermiteExpansion.from_pairs(
        1, [((3,), np.sqrt(3.0) / 2.0), ((1,), 3.0 / (2.0 * np.sqrt(2.0)))]
    )
    mix14 = h((1,)) + h((4,))
    mix25 = h((2,)) + h((5,), -0.5)
    rng1 = np.random.default_rng(1)
    rng2 = np.random.default_rng(2)
    return [
        ("mode_1", h((1,))),
        ("mode_2", h((2,))),
        ("mode_3", h((3,))),
        ("mode_6", h((6,))),
        ("mix_1_4", mix14),
        ("mix_2_5", mix25),
        ("square_poly", x_sq),
        ("cubic_poly", x_cu),
        ("random_cap5", random_expansion(1, 5, rng1)),
        ("random_cap6", random_expansion(1, 6, rng2)),
    ]
