"""Hardy-type averaging operators on the half-line and their norm inequalities.

Two weighted averaging operators act on functions of one positive variable:

* ``hardy_lower(g, r, t) = t^{-r} * integral_0^t g(y) dy``
* ``hardy_upper(g, r, t) = t^r * integral_t^inf g(y) dy``

Both integrals are truncated to the window of a :class:`LogTimeGrid` and
evaluated by panel quadrature in u = ln y, so indicator-type integrands are
exact whenever their jump points are grid breakpoints. The upper operator
can extend past the window: with ``exp_decay=True`` the tail beyond t_max is
added from a two-point exponential fit, otherwise it is dropped and a fitted
power-law bound on the dropped mass is reported instead.

``hardy_inequality_check`` puts the operator output into the dt/t Luxemburg
norm and compares against the weighted right-hand side, reporting the
empirical ratio. The theory guarantees finiteness of the ratio when the
exponent has limits strictly above 1 at both endpoints; no explicit constant
is asserted, only finiteness and stability under refinement are testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, ParameterError
from .exponents import TAG_HALFLINE, ExponentFunction
from .lebesgue import inequality_ratio, logtime_space, luxemburg_norm
from .quadrature import LogTimeGrid, legendre_rule, logtime_grid, panel_rule

_GL_ORDER = 12
_OVERFLOW_GUARD = 1e150


def _partial_mass(g, u_from: np.ndarray, u_to: np.ndarray) -> np.ndarray:
    """integral of g(y) dy over [e^{u_from_i}, e^{u_to_i}] for each i."""
    u, _ = panel_rule(u_from, u_to, _GL_ORDER)
    y = np.exp(u)
    vals = np.asarray(g(y.ravel()), dtype=float).reshape(y.shape)
    # one dot per panel with the 1-d weights, scaled by the half-width after:
    # cheaper than summing against the full panel weights
    return 0.5 * (u_to - u_from) * ((vals * y) @ legendre_rule(_GL_ORDER)[1])


def _prepare(t, grid: LogTimeGrid | None):
    if grid is None:
        grid = logtime_grid()
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts <= 0):
        raise ParameterError("evaluation points must be positive")
    edges = grid.panel_edges
    return grid, ts, edges, np.log(edges)


def hardy_lower(g: Callable, r: float, t, grid: LogTimeGrid | None = None):
    """``t^{-r} integral_0^t g(y) dy``, the integral truncated below at grid.t_min.

    ``t`` may be a scalar or an array; the return matches. ``g`` must accept
    arrays. Cumulative mass past 1e150 raises :class:`ConvergenceError`.
    """
    if not r > 0:
        raise ParameterError(f"weight exponent r must be positive, got {r}")
    grid, ts, edges, u_edges = _prepare(t, grid)
    mass = _partial_mass(g, u_edges[:-1], u_edges[1:])
    prefix = np.concatenate([[0.0], np.cumsum(mass)])
    if np.any(np.abs(prefix) > _OVERFLOW_GUARD):
        raise ConvergenceError("cumulative integral exceeds the overflow guard")

    idx = np.clip(np.searchsorted(edges, ts, side="right") - 1, 0, len(edges) - 2)
    below = ts <= edges[0]
    above = ts >= edges[-1]
    inside = ~below & ~above
    out = np.zeros_like(ts)
    out[above] = prefix[-1]
    if np.any(inside):
        i = idx[inside]
        out[inside] = prefix[i] + _partial_mass(g, u_edges[i], np.log(ts[inside]))
    out = out * ts ** (-r)
    return out if np.ndim(t) else float(out[0])


def _tail_fit(g: Callable, t_edge: float, exp_decay: bool) -> tuple[float, float]:
    """(extrapolated tail beyond t_edge, reported bound on dropped mass)."""
    ga = float(np.asarray(g(np.array([t_edge])), dtype=float)[0])
    gb = float(np.asarray(g(np.array([2.0 * t_edge])), dtype=float)[0])
    if ga <= 0.0 and gb <= 0.0:
        return 0.0, 0.0
    if gb >= ga:
        raise ConvergenceError(
            f"tail probe is not decaying at t_max ({ga:.3e} -> {gb:.3e})"
        )
    if exp_decay:
        if gb <= 0.0:
            return 0.0, 0.0
        lam = np.log(ga / gb) / t_edge
        return ga / lam, 0.0
    # power-law fit g ~ C y^{-s}; finite tail needs s > 1
    s = np.log(ga / gb) / np.log(2.0) if gb > 0.0 else np.inf
    if s <= 1.0:
        raise ConvergenceError(
            f"tail integral appears divergent (fitted decay exponent {s:.3f} <= 1)"
        )
    bound = 0.0 if not np.isfinite(s) else ga * t_edge / (s - 1.0)
    return 0.0, bound


def hardy_upper(
    g: Callable,
    r: float,
    t,
    grid: LogTimeGrid | None = None,
    exp_decay: bool = False,
):
    """``t^r integral_t^inf g(y) dy``, the integral truncated above at grid.t_max.

    With ``exp_decay=True`` a two-point exponential fit at {t_max, 2 t_max}
    supplies the tail beyond the window; otherwise the tail is dropped (see
    :func:`tail_truncation_bound` for the reported estimate of the loss).
    """
    if not r > 0:
        raise ParameterError(f"weight exponent r must be positive, got {r}")
    grid, ts, edges, u_edges = _prepare(t, grid)
    mass = _partial_mass(g, u_edges[:-1], u_edges[1:])
    suffix = np.concatenate([np.cumsum(mass[::-1])[::-1], [0.0]])
    if np.any(np.abs(suffix) > _OVERFLOW_GUARD):
        raise ConvergenceError("tail integral exceeds the overflow guard")
    tail, _ = _tail_fit(g, float(edges[-1]), exp_decay)

    idx = np.clip(np.searchsorted(edges, ts, side="right") - 1, 0, len(edges) - 2)
    below = ts <= edges[0]
    above = ts >= edges[-1]
    inside = ~below & ~above
    out = np.full_like(ts, tail)
    out[below] += suffix[0]
    if np.any(inside):
        i = idx[inside]
        out[inside] += suffix[i + 1] + _partial_mass(g, np.log(ts[inside]), u_edges[i + 1])
    out = out * ts**r
    return out if np.ndim(t) else float(out[0])


def tail_truncation_bound(g: Callable, grid: LogTimeGrid | None = None) -> float:
    """Fitted power-law estimate of ``integral_{t_max}^inf g`` dropped by truncation."""
    if grid is None:
        grid = logtime_grid()
    _, bound = _tail_fit(g, grid.t_max, exp_decay=False)
    return bound


@dataclass(frozen=True)
class HardyReport:
    """Both sides of one weighted Hardy inequality on the truncated window.

    ``ratio = lhs_norm / rhs_norm`` is the empirical constant for this single
    function; suprema over a family estimate the operator constant. For the
    upper inequality ``tail_bound`` records the fitted estimate of integral
    mass beyond the window that truncation dropped (None for the lower side,
    0.0 when the tail was extrapolated instead of dropped).
    """

    side: str
    r: float
    q_desc: dict | None
    lhs_norm: float
    rhs_norm: float
    ratio: float
    tail_bound: float | None = None


def hardy_inequality_check(
    g: Callable,
    r: float,
    q: ExponentFunction,
    side: str,
    grid: LogTimeGrid | None = None,
    exp_decay: bool = False,
) -> HardyReport:
    """Empirical ratio of one Hardy inequality in the dt/t Luxemburg norm.

    Lower side: ``||t^{-r} integral_0^t g||_{q(.)} / ||y^{1-r} g||_{q(.)}``.
    Upper side: ``||t^r integral_t^inf g||_{q(.)} / ||y^{1+r} g||_{q(.)}``.

    The exponent must carry limits at both endpoints (tag P_0_inf) with both
    limits strictly above 1; families touching 1 at an endpoint make the
    conjugate exponent unbounded there and are rejected.
    """
    if side not in ("lower", "upper"):
        raise ParameterError(f"side must be 'lower' or 'upper', got {side!r}")
    if q.domain not in ("time", "both"):
        raise ParameterError("Hardy inequalities need a time-domain exponent")
    if TAG_HALFLINE not in q.class_tags:
        raise ParameterError("exponent must have limits at 0 and infinity (tag P_0_inf)")
    for name, lim in (("0", q.limit_zero), ("infinity", q.limit_infty)):
        if lim is not None and lim <= 1.0:
            raise ParameterError(
                f"exponent limit {lim} at {name} makes the conjugate exponent unbounded"
            )
    if grid is None:
        grid = logtime_grid()
    mu = logtime_space(grid)
    ts = grid.points
    gv = np.asarray(g(ts), dtype=float)

    tail_bound = None
    if side == "lower":
        lhs_vals = hardy_lower(g, r, ts, grid)
        rhs_vals = ts ** (1.0 - r) * gv
    else:
        lhs_vals = hardy_upper(g, r, ts, grid, exp_decay=exp_decay)
        rhs_vals = ts ** (1.0 + r) * gv
        tail_bound = 0.0 if exp_decay else tail_truncation_bound(g, grid)

    lhs = luxemburg_norm(np.abs(lhs_vals), q, mu).value
    rhs = luxemburg_norm(np.abs(rhs_vals), q, mu).value
    if rhs == 0.0 and lhs > 0.0:
        raise ConvergenceError(
            "vanishing right-hand side with nonzero left-hand side: "
            "quadrature windows are inconsistent"
        )
    return HardyReport(
        side=side,
        r=r,
        q_desc=q.descriptor,
        lhs_norm=lhs,
        rhs_norm=rhs,
        ratio=inequality_ratio(lhs, rhs),
        tail_bound=tail_bound,
    )


@dataclass(frozen=True)
class HardyTestFunction:
    """One member of the reference family: callable plus grid metadata."""

    name: str
    fn: Callable
    breakpoints: tuple[float, ...] = ()
    exp_decay: bool = False


def reference_family() -> list[HardyTestFunction]:
    """Twelve half-line functions with finite Hardy norms for r in [0.25, 2].

    Indicators and cutoffs carry their jump points as breakpoints so grids
    can snap panels to them; smooth exponential tails are flagged for tail
    extrapolation in the upper operator.
    """

    def chi(lo, hi):
        return lambda y: ((y > lo) & (y < hi)).astype(float)

    def cut(fn, lo, hi):
        return lambda y: fn(y) * ((y > lo) & (y < hi))

    return [
        HardyTestFunction("indicator_1_2", chi(1.0, 2.0), (1.0, 2.0)),
        HardyTestFunction("indicator_05_4", chi(0.5, 4.0), (0.5, 4.0)),
        HardyTestFunction("y15_below_1", cut(lambda y: y**1.5, 0.0, 1.0), (1.0,)),
        HardyTestFunction("y2_below_1", cut(lambda y: y**2, 0.0, 1.0), (1.0,)),
        HardyTestFunction("y3_below_2", cut(lambda y: y**3, 0.0, 2.0), (2.0,)),
        HardyTestFunction("y12_exp", lambda y: y**1.2 * np.exp(-y), (), True),
        HardyTestFunction("y2_exp", lambda y: y**2 * np.exp(-y), (), True),
        HardyTestFunction("y3_exp2", lambda y: y**3 * np.exp(-2.0 * y), (), True),
        HardyTestFunction("y25_halfexp", lambda y: y**2.5 * np.exp(-0.5 * y), (), True),
        HardyTestFunction("inv_y45_above_1", cut(lambda y: y**-4.5, 1.0, np.inf), (1.0,)),
        HardyTestFunction("inv_y5_above_2", cut(lambda y: y**-5.0, 2.0, np.inf), (2.0,)),
        HardyTestFunction(
            "y15_exp_below_3", cut(lambda y: y**1.5 * np.exp(-y), 0.0, 3.0), (3.0,), True
        ),
    ]
