"""Variable-exponent Lebesgue spaces over discretized measures.

A :class:`MeasureSpace` is a weighted point set standing in for one of the
two measures in play: the Gaussian probability measure on R^d (Gauss-Hermite
nodes) or dt/t on a truncated interval (log-spaced panels). Functions can be
passed as callables or as arrays of node values.

The modular of f is ``rho(f) = integral |f(x)|^{p(x)} dmu(x)`` and the
Luxemburg norm is ``inf { lam > 0 : rho(f / lam) <= 1 }``, computed here by
bisection: the modular is strictly decreasing in lam wherever it is finite
and nonzero, so the bracket [any lam with rho > 1, any lam with rho <= 1]
converges unconditionally. For constant p the result collapses to the
classical ``(integral |f|^p dmu)^{1/p}``, which the tests exploit as an
oracle; the bisection itself never special-cases constants.

Inequality checkers at the bottom return report objects rather than raising:
each records both sides with the constant the theory supplies (2 for the
Holder inequality, 4 for the integral Minkowski inequality, 2 for the
norm-conjugate upper pairing), so callers can assert, tabulate, or plot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError
from .exponents import ExponentFunction, holder_conjugate_pair
from .quadrature import LogTimeGrid, QuadratureContext


@dataclass(frozen=True, eq=False)
class MeasureSpace:
    """Weighted point set: ``sum(weights * f(points))`` approximates the measure."""

    kind: str  # "gaussian", "logtime", or "custom"
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.kind not in ("gaussian", "logtime", "custom"):
            raise ParameterError(f"unknown measure kind {self.kind!r}")
        if len(self.points) != len(self.weights):
            raise ParameterError("points and weights must have equal length")

    @property
    def size(self) -> int:
        return len(self.weights)


def gaussian_space(ctx: QuadratureContext) -> MeasureSpace:
    """The Gaussian probability measure on R^dim via the context's GH rule."""
    return MeasureSpace(kind="gaussian", points=ctx.gh_points, weights=ctx.gh_weights)


def logtime_space(grid: LogTimeGrid) -> MeasureSpace:
    """The measure dt/t on [grid.t_min, grid.t_max] via log-spaced panels."""
    return MeasureSpace(kind="logtime", points=grid.points, weights=grid.weights)


def weighted_space(points, weights) -> MeasureSpace:
    """An arbitrary finite weighted measure (used for inner integrals)."""
    return MeasureSpace(kind="custom", points=np.asarray(points, dtype=float),
                        weights=np.asarray(weights, dtype=float))


def _check_domains(p: ExponentFunction, m: MeasureSpace) -> None:
    if m.kind == "gaussian" and p.domain == "time":
        raise ParameterError("time exponent used on a Gaussian measure space")
    if m.kind == "logtime" and p.domain == "space":
        raise ParameterError("space exponent used on a dt/t measure space")


def values_on(f, m: MeasureSpace) -> np.ndarray:
    """Evaluate a callable on m.points, or validate an array of samples."""
    if callable(f):
        vals = np.asarray(f(m.points), dtype=float)
    else:
        vals = np.asarray(f, dtype=float)
    if vals.shape != (m.size,):
        raise ParameterError(f"values have shape {vals.shape}, expected ({m.size},)")
    return vals


def modular(f, p: ExponentFunction, m: MeasureSpace) -> float:
    """``integral |f|^{p(x)} dmu`` on the discretized measure."""
    _check_domains(p, m)
    vals = np.abs(values_on(f, m))
    p_at = p(m.points)
    with np.errstate(over="ignore"):
        return float(np.sum(m.weights * vals**p_at))


@dataclass(frozen=True)
class NormResult:
    """Luxemburg norm with its certificate: the modular at the returned value
    is 1 up to bracket tolerance (0 for the zero function), and ``iterations``
    counts bisection steps."""

    value: float
    modular_at_value: float
    iterations: int


def luxemburg_norm(
    f, p: ExponentFunction, m: MeasureSpace, rel_tol: float = 1e-10, max_iter: int = 200
) -> NormResult:
    """Luxemburg norm of f in L^{p(.)}(mu) by bisection on the modular."""
    _check_domains(p, m)
    vals = np.abs(values_on(f, m))
    p_at = np.asarray(p(m.points), dtype=float)
    support = (vals > 0) & (m.weights > 0)
    if not np.any(support):
        return NormResult(0.0, 0.0, 0)
    v, w, q = vals[support], m.weights[support], p_at[support]

    def rho(lam: float) -> float:
        with np.errstate(over="ignore"):
            return float(np.sum(w * (v / lam) ** q))

    # constant-exponent estimates seed the bracket; geometric expansion
    # repairs them when the measure is not a probability measure
    seeds = []
    for pc in (p.p_minus, p.p_plus):
        with np.errstate(over="ignore"):
            s = float(np.sum(w * v**pc)) ** (1.0 / pc)
        if np.isfinite(s) and s > 0:
            seeds.append(s)
    if not seeds:
        seeds = [float(np.max(v))]
    lo, hi = 0.5 * min(seeds), 2.0 * max(seeds)

    guard = 0
    while rho(hi) > 1.0:
        lo, hi = hi, 2.0 * hi
        guard += 1
        if guard > 2000:
            raise ConvergenceError("Luxemburg bracket expansion ran away upward")
    while rho(lo) <= 1.0:
        hi, lo = lo, 0.5 * lo
        guard += 1
        if lo < 1e-280:
            # rho stays <= 1 down to numerical zero: norm is numerically 0
            return NormResult(0.0, rho(hi), guard)
        if guard > 4000:
            raise ConvergenceError("Luxemburg bracket expansion ran away downward")

    iters = 0
    for iters in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        if rho(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel_tol * hi:
            break
    else:
        raise ConvergenceError(f"Luxemburg bisection did not reach rel_tol={rel_tol}")
    value = 0.5 * (lo + hi)
    return NormResult(value, rho(value), iters)


def luxemburg_norm_rows(
    V: np.ndarray,
    weights: np.ndarray,
    p_at: np.ndarray,
    rel_tol: float = 1e-10,
    max_iter: int = 200,
) -> np.ndarray:
    """Row-wise Luxemburg norms of a matrix of sampled functions.

    ``V`` has one function per row over a shared measure (weights, p_at per
    column). This is the hot path of the smoothness norms: all rows bisect
    in lockstep on clamped brackets, so the cost is max_iter matrix power
    evaluations rather than rows x max_iter vector ones.
    """
    V = np.abs(np.asarray(V, dtype=float))
    n_rows = V.shape[0]
    out = np.zeros(n_rows)
    live = (V * weights[None, :]).max(axis=1) > 0
    if not np.any(live):
        return out
    A = V[live]

    def rho(lam: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            r = (A / lam[:, None]) ** p_at[None, :] @ weights
        return np.where(np.isnan(r), np.inf, r)

    with np.errstate(over="ignore"):
        s_minus = (A ** p_at.min() @ weights) ** (1.0 / p_at.min())
        s_plus = (A ** p_at.max() @ weights) ** (1.0 / p_at.max())
    seed_hi = np.maximum(s_minus, s_plus)
    seed_lo = np.minimum(s_minus, s_plus)
    fallback = A.max(axis=1)
    seed_hi = np.where(np.isfinite(seed_hi) & (seed_hi > 0), seed_hi, fallback)
    seed_lo = np.where(np.isfinite(seed_lo) & (seed_lo > 0), seed_lo, fallback)
    lo, hi = 0.5 * seed_lo, 2.0 * seed_hi

    for _ in range(2000):
        bad = rho(hi) > 1.0
        if not np.any(bad):
            break
        lo = np.where(bad, hi, lo)
        hi = np.where(bad, 2.0 * hi, hi)
    else:
        raise ConvergenceError("row bracket expansion ran away upward")
    for _ in range(2000):
        bad = (rho(lo) <= 1.0) & (lo > 1e-280)
        if not np.any(bad):
            break
        hi = np.where(bad, lo, hi)
        lo = np.where(bad, 0.5 * lo, lo)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        high = rho(mid) > 1.0
        lo = np.where(high, mid, lo)
        hi = np.where(high, hi, mid)
        if np.max(hi - lo) <= rel_tol * np.min(hi):
            break
    out[live] = 0.5 * (lo + hi)
    # rows whose bracket collapsed to the floor are numerically zero
    out[live] = np.where(hi <= 2e-280, 0.0, out[live])
    return out


def logtime_norm_identity_check(f, q: ExponentFunction, grid: LogTimeGrid) -> tuple[float, float]:
    """Both sides of ``||f||_{q(.), dt/t} = ||t^{-1/q(t)} f||_{q(.), dt}``.

    The two modulars agree pointwise, so the returned pair differs only by
    arrangement roundoff; callers assert the gap, not an analytic fact.
    """
    mu = logtime_space(grid)
    lhs = luxemburg_norm(f, q, mu).value
    ts = grid.points
    q_at = q(ts)
    lebesgue = weighted_space(ts, grid.weights * ts)
    fvals = values_on(f, mu)
    rhs = luxemburg_norm(ts ** (-1.0 / q_at) * fvals, q, lebesgue).value
    return lhs, rhs


def inequality_ratio(lhs: float, rhs: float) -> float:
    """``lhs / rhs`` with 0/0 -> 0 and x/0 -> inf."""
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else np.inf
    return lhs / rhs


def inequality_holds(lhs: float, rhs: float, tol: float = 1e-9) -> bool:
    """The verdict ``lhs <= rhs * (1 + tol) + 1e-300``."""
    return bool(lhs <= rhs * (1.0 + tol) + 1e-300)


@dataclass(frozen=True)
class InequalityReport:
    """lhs <= rhs with the theory's constant already inside rhs; ratio = lhs/rhs."""

    lhs: float
    rhs: float
    ratio: float
    ok: bool

    @classmethod
    def of(cls, lhs: float, rhs: float) -> "InequalityReport":
        """Both sides with their ratio and verdict at the default tolerance."""
        return cls(lhs=lhs, rhs=rhs, ratio=inequality_ratio(lhs, rhs),
                   ok=inequality_holds(lhs, rhs))


def holder_check(
    f, g, q: ExponentFunction, r: ExponentFunction, m: MeasureSpace
) -> InequalityReport:
    """``||f g||_{p(.)} <= 2 ||f||_{q(.)} ||g||_{r(.)}`` with 1/p = 1/q + 1/r."""
    p = holder_conjugate_pair(q, r)
    fv, gv = values_on(f, m), values_on(g, m)
    lhs = luxemburg_norm(fv * gv, p, m).value
    rhs = 2.0 * luxemburg_norm(fv, q, m).value * luxemburg_norm(gv, r, m).value
    return InequalityReport.of(lhs, rhs)


def minkowski_check(
    F, p: ExponentFunction, outer: MeasureSpace, inner: MeasureSpace
) -> InequalityReport:
    """Integral Minkowski: ``|| integral F(., y) dnu(y) ||_p <= 4 integral ||F(., y)||_p dnu``.

    ``F`` is either a callable F(outer_points, inner_points) -> matrix of
    shape (outer.size, inner.size) or that matrix itself.
    """
    if callable(F):
        M = np.asarray(F(outer.points, inner.points), dtype=float)
    else:
        M = np.asarray(F, dtype=float)
    if M.shape != (outer.size, inner.size):
        raise ParameterError(f"F has shape {M.shape}, expected {(outer.size, inner.size)}")
    lhs = luxemburg_norm(M @ inner.weights, p, outer).value
    _check_domains(p, outer)
    col_norms = luxemburg_norm_rows(M.T, outer.weights, np.asarray(p(outer.points), dtype=float))
    rhs = 4.0 * float(np.sum(inner.weights * col_norms))
    return InequalityReport.of(lhs, rhs)


@dataclass(frozen=True)
class ConjugateReport:
    """Sampled norm-conjugate pairing sup over candidates of
    ``integral |f g| dmu / ||g||_{p'}`` against ||f||_p brackets."""

    norm: float
    best_pairing: float
    lower_ratio: float  # best_pairing / norm; >= 1/2 when candidates are any good
    upper_ok: bool      # best_pairing <= 2 * norm + tol


def dual_witness(f, p: ExponentFunction, m: MeasureSpace) -> np.ndarray:
    """The norming candidate (|f| / ||f||)^{p-1}, which pairs to exactly ||f||."""
    vals = np.abs(values_on(f, m))
    nrm = luxemburg_norm(vals, p, m).value
    if nrm == 0.0:
        raise ParameterError("zero function has no norming candidate")
    return (vals / nrm) ** (np.asarray(p(m.points), dtype=float) - 1.0)


def conjugate_lower_bound(
    f, p: ExponentFunction, m: MeasureSpace, candidates, tol: float = 1e-9
) -> ConjugateReport:
    """Evaluate the conjugate-norm pairing over normalized candidates.

    Requires p_minus > 1 so the pointwise conjugate exponent stays bounded.
    Candidates with vanishing conjugate norm are skipped.
    """
    pc = p.conjugate()
    fv = np.abs(values_on(f, m))
    nrm = luxemburg_norm(fv, p, m).value
    best = 0.0
    for g in candidates:
        gv = np.abs(values_on(g, m))
        ng = luxemburg_norm(gv, pc, m).value
        if ng == 0.0:
            continue
        pairing = float(np.sum(m.weights * fv * gv)) / ng
        best = max(best, pairing)
    return ConjugateReport(
        norm=nrm,
        best_pairing=best,
        lower_ratio=inequality_ratio(best, nrm),
        upper_ok=inequality_holds(best, 2.0 * nrm, tol),
    )
