"""Variable-exponent Lebesgue spaces over discretized measures.

A :class:`MeasureSpace` is a weighted point set standing in for one of the
two measures in play: the Gaussian probability measure on R^d (Gauss-Hermite
nodes) or dt/t on a truncated interval (log-spaced panels). Functions can be
passed as callables or as arrays of node values.

The modular of f is ``rho(f) = integral |f(x)|^{p(x)} dmu(x)`` and the
Luxemburg norm is ``inf { lam > 0 : rho(f / lam) <= 1 }``. One solver backs
both the single-function and the row-batched norm: Newton's method on
``log rho`` as a function of ``log lam``, which is convex and decreasing
with slope in ``[-p_plus, -p_minus]``, safeguarded by a bracket. Working in
logs keeps full relative precision across the float range; a norm below
``np.finfo(float).tiny`` is numerically zero and returned as 0. For
constant p the result collapses to the classical
``(integral |f|^p dmu)^{1/p}``, which the tests exploit as an oracle; the
solver never special-cases constants, but is exact after one step there.

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
    is 1 up to roundoff (0 when the value is 0), and ``iterations`` counts
    Newton steps."""

    value: float
    modular_at_value: float
    iterations: int


# cells of V per row block of the solver: bounds its temporaries on the
# large derivative tensors while keeping the Python work per block small
_BLOCK_CELLS = 65536
# relative slack for sampled exponents against their declared [p_minus, p_plus]
_P_ROUNDOFF = 1e-12


def _solve_rows(V, weights: np.ndarray, p_at: np.ndarray, rel_tol: float, max_iter: int):
    """Luxemburg norms of the rows of |V| and the Newton steps each took.

    Each row a is scaled by its largest entry m on the support (cells with
    a > 0 and weight > 0), and ``g(s) = log rho(m e^s)``, the log-sum-exp of
    ``log w_j + p_j (log(a_j / m) - s)``, is solved for 0 by Newton's method
    from s = 0. g is convex and decreasing with slope in
    ``[-max p, -min p]``, so from either side Newton lands left of the root
    and then climbs to it; for constant p it is exact after one step. The
    last points with g > 0 and g <= 0 bracket the root, and a step that
    roundoff throws outside the bracket bisects instead. A row is done once
    its step is at most ``rel_tol``, which is then accepted as it is; a row
    still going after ``max_iter`` steps raises :class:`ConvergenceError`.
    Norms below ``np.finfo(float).tiny`` are numerically zero and returned
    as 0, like rows without support (which take 0 steps). A NaN or infinite
    sample raises :class:`ParameterError`.
    """
    n_rows, n_cols = V.shape
    norms = np.zeros(n_rows)
    steps = np.zeros(n_rows, dtype=int)
    on = weights > 0
    with np.errstate(divide="ignore"):
        log_w = np.log(np.where(on, weights, 0.0))
    ones_p = np.column_stack([np.ones(n_cols), p_at])
    per_block = max(1, _BLOCK_CELLS // max(n_cols, 1))
    for start in range(0, n_rows, per_block):
        A = np.abs(V[start:start + per_block]) * on
        top = A.max(axis=1)
        if not np.all(np.isfinite(top)):
            raise ParameterError("function samples must be finite")
        live = np.flatnonzero(top > 0)
        with np.errstate(divide="ignore"):
            L = log_w + p_at * np.log(A[live] / top[live, None])
        s_root = np.empty(live.size)
        idx = np.arange(live.size)
        s, lo, hi = np.zeros(live.size), np.full(live.size, -np.inf), np.full(live.size, np.inf)
        for it in range(1, max_iter + 1):
            if not idx.size:
                break
            X = L[idx] - s[:, None] * p_at
            peak = X.max(axis=1)
            X -= peak[:, None]
            np.exp(X, out=X)
            sums = X @ ones_p
            g = peak + np.log(sums[:, 0])
            step = g * sums[:, 0] / sums[:, 1]
            lo, hi = np.where(g > 0, s, lo), np.where(g > 0, hi, s)
            s_new = s + step
            done = np.abs(step) <= rel_tol
            stray = ~done & ((s_new <= lo) | (s_new >= hi))
            s = np.where(stray, 0.5 * (lo + hi), s_new)
            if done.any():
                s_root[idx[done]] = s[done]
                steps[start + live[idx[done]]] = it
                idx, s, lo, hi = idx[~done], s[~done], lo[~done], hi[~done]
        if idx.size:
            raise ConvergenceError(
                f"Luxemburg Newton solve left {idx.size} rows short of rel_tol={rel_tol} "
                f"after {max_iter} steps"
            )
        norms[start + live] = top[live] * np.exp(s_root)
    norms[norms < np.finfo(float).tiny] = 0.0
    return norms, steps


def luxemburg_norm(
    f, p: ExponentFunction, m: MeasureSpace, rel_tol: float = 1e-10, max_iter: int = 200
) -> NormResult:
    """Luxemburg norm of f in L^{p(.)}(mu), solved as one row of the Newton solver.

    The samples of f must be finite, and ``p(m.points)`` finite and inside
    ``[p.p_minus, p.p_plus]`` up to roundoff, else :class:`ParameterError`.
    Norms below ``np.finfo(float).tiny`` are returned as 0.
    """
    _check_domains(p, m)
    vals = np.abs(values_on(f, m))
    p_at = np.asarray(p(m.points), dtype=float)
    if not (np.all(np.isfinite(p_at)) and np.all(p_at >= p.p_minus * (1.0 - _P_ROUNDOFF))
            and np.all(p_at <= p.p_plus * (1.0 + _P_ROUNDOFF))):
        raise ParameterError(
            f"sampled exponent leaves its declared range [{p.p_minus}, {p.p_plus}]"
        )
    norms, steps = _solve_rows(vals[None, :], m.weights, p_at, rel_tol, max_iter)
    value = float(norms[0])
    if value == 0.0:
        return NormResult(0.0, 0.0, int(steps[0]))
    on = m.weights > 0
    with np.errstate(over="ignore"):
        rho = float(np.sum(m.weights[on] * (vals[on] / value) ** p_at[on]))
    return NormResult(value, rho, int(steps[0]))


def luxemburg_norm_rows(
    V: np.ndarray,
    weights: np.ndarray,
    p_at: np.ndarray,
    rel_tol: float = 1e-10,
    max_iter: int = 200,
) -> np.ndarray:
    """Row-wise Luxemburg norms of a matrix of sampled functions.

    ``V`` has one function per row over a shared measure (weights, p_at per
    column). This is the hot path of the smoothness norms: the rows are
    solved together by the same Newton solver as :func:`luxemburg_norm`, in
    blocks of rows, each row stopping once it converges. ``V`` must be
    finite and ``p_at`` finite and at least 1, else :class:`ParameterError`.
    Norms below ``np.finfo(float).tiny`` are returned as 0.
    """
    p_at = np.asarray(p_at, dtype=float)
    if not (np.all(np.isfinite(p_at)) and np.all(p_at >= 1.0)):
        raise ParameterError("exponent samples must be finite and at least 1")
    V = np.asarray(V, dtype=float)
    return _solve_rows(V, np.asarray(weights, dtype=float), p_at, rel_tol, max_iter)[0]


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
