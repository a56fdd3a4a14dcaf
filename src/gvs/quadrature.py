"""Quadrature rules for the standard Gaussian measure and for dt/t.

Two discretizations back everything in this package:

* a tensor Gauss-Hermite rule for integrals against the Gaussian probability
  measure ``pi^{-d/2} exp(-|x|^2) dx`` on R^d, and
* a panelized Gauss-Legendre rule in u = ln t for integrals against the
  multiplicative measure dt/t on a truncated interval [t_min, t_max].

Both are bundled into :class:`QuadratureContext`, which is what the semigroup
and norm routines take.

Every composite Gauss-Legendre computation in the package goes through
:func:`panel_rule` (nodes and weights on given panels) and, when the panel
count is refined until the value settles, :func:`settle_by_doubling`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .errors import ConvergenceError, ParameterError

DEFAULT_NODES_PER_AXIS = 64
DEFAULT_TIME_PANELS = 400
DEFAULT_T_MIN = 1e-4
DEFAULT_T_MAX = 1e3
_PANEL_ORDER = 6


@lru_cache(maxsize=None)
def legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], cached per order (read-only)."""
    nodes, weights = leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def panel_rule(lo, hi, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule of the given order on each panel [lo_i, hi_i].

    Returns ``nodes`` and ``weights``, both of shape (n_panels, order), with
    ``sum(weights[i] * f(nodes[i]))`` approximating the integral of f over
    panel i; it is exact for polynomials of degree ``2 * order - 1``.
    """
    gx, gw = legendre_rule(order)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid[:, None] + half[:, None] * gx[None, :], half[:, None] * gw[None, :]


def panel_integral(fn, lo: float, hi: float, n_panels: int, order: int) -> float:
    """``integral_lo^hi fn(u) du`` on n_panels equal panels of the given order."""
    edges = np.linspace(lo, hi, n_panels + 1)
    u, w = panel_rule(edges[:-1], edges[1:], order)
    return float(np.sum(fn(u.ravel()) * w.ravel()))


def settle_by_doubling(value, n_panels: int, rel_tol: float, max_doublings: int,
                       scale_floor: float):
    """Double the panel count from n_panels until two successive values agree.

    ``value(n)`` is the quadrature value (scalar or array) on n panels. Two
    values agree when their largest difference is at most ``rel_tol`` times
    the larger of ``scale_floor`` and the largest magnitude of the newer one.
    Raises :class:`ConvergenceError` after ``max_doublings`` doublings.
    """
    prev = value(n_panels)
    n = 2 * n_panels
    for _ in range(max_doublings):
        cur = value(n)
        scale = max(scale_floor, float(np.max(np.abs(cur))))
        if float(np.max(np.abs(cur - prev))) <= rel_tol * scale:
            return cur
        prev, n = cur, 2 * n
    raise ConvergenceError(f"panel quadrature did not settle to {rel_tol} by {n // 2} panels")


def gauss_hermite_rule(nodes_per_axis: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Hermite rule normalized for the Gaussian probability measure.

    Parameters
    ----------
    nodes_per_axis : int
        1-d node count; the rule is exact on polynomials of degree
        ``2 * nodes_per_axis - 1`` per axis.
    dim : int
        Ambient dimension (tensor product of the 1-d rule).

    Returns
    -------
    points : ndarray, shape (nodes_per_axis**dim, dim)
    weights : ndarray, shape (nodes_per_axis**dim,)
        Weights sum to 1: the measure integrated is the Gaussian probability
        measure, so nodes are the raw Hermite nodes (no sqrt-2 rescaling) and
        the 1-d weights are divided by sqrt(pi).
    """
    if nodes_per_axis < 1:
        raise ParameterError("nodes_per_axis must be >= 1")
    if dim < 1:
        raise ParameterError("dim must be >= 1")
    x1, w1 = hermgauss(nodes_per_axis)
    w1 = w1 / np.sqrt(np.pi)
    if dim == 1:
        return x1[:, None].copy(), w1.copy()
    grids = np.meshgrid(*([x1] * dim), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)
    weights = np.ones(nodes_per_axis**dim)
    wgrids = np.meshgrid(*([w1] * dim), indexing="ij")
    for g in wgrids:
        weights *= g.ravel()
    return points, weights


@dataclass(frozen=True, eq=False)
class LogTimeGrid:
    """Panelized quadrature for ``integral f(t) dt/t`` over [t_min, t_max].

    Panels are log-spaced; any breakpoints supplied at construction become
    panel edges, so integrands with jumps exactly there are integrated without
    smearing. ``points``/``weights`` satisfy
    ``sum(weights * f(points)) ~ integral_{t_min}^{t_max} f(t) dt/t``.
    """

    t_min: float
    t_max: float
    n_panels: int
    breakpoints: tuple[float, ...]
    points: np.ndarray
    weights: np.ndarray
    panel_edges: np.ndarray  # panel boundaries in t, breakpoints included

    def refined(self) -> "LogTimeGrid":
        """Same grid with doubled panel count (breakpoints preserved)."""
        return logtime_grid(self.t_min, self.t_max, 2 * self.n_panels, self.breakpoints)

    def with_breakpoints(self, breakpoints) -> "LogTimeGrid":
        merged = tuple(sorted(set(self.breakpoints) | set(float(b) for b in breakpoints)))
        return logtime_grid(self.t_min, self.t_max, self.n_panels, merged)


def logtime_grid(
    t_min: float = DEFAULT_T_MIN,
    t_max: float = DEFAULT_T_MAX,
    n_panels: int | None = None,
    breakpoints: tuple[float, ...] = (),
) -> LogTimeGrid:
    """Build a :class:`LogTimeGrid`; the panel count defaults to 400."""
    if not (0 < t_min < t_max):
        raise ParameterError(f"need 0 < t_min < t_max, got [{t_min}, {t_max}]")
    if n_panels is None:
        n_panels = DEFAULT_TIME_PANELS
    if n_panels < 1:
        raise ParameterError("n_panels must be >= 1")
    edges = np.geomspace(t_min, t_max, n_panels + 1)
    inner = [float(b) for b in breakpoints if t_min < b < t_max]
    if inner:
        edges = np.unique(np.concatenate([edges, inner]))
    u = np.log(edges)
    upts, uwts = panel_rule(u[:-1], u[1:], _PANEL_ORDER)
    return LogTimeGrid(
        t_min=float(t_min),
        t_max=float(t_max),
        n_panels=int(n_panels),
        breakpoints=tuple(sorted(set(inner))),
        points=np.exp(upts.ravel()),
        weights=uwts.ravel(),
        panel_edges=edges,
    )


@dataclass(frozen=True, eq=False)
class QuadratureContext:
    """Gauss-Hermite rule for the Gaussian measure plus a dt/t grid.

    Attributes
    ----------
    dim : int
    nodes_per_axis : int
    gh_points : ndarray, shape (n, dim)
    gh_weights : ndarray, shape (n,)
    time_grid : LogTimeGrid
    """

    dim: int
    nodes_per_axis: int
    gh_points: np.ndarray
    gh_weights: np.ndarray
    time_grid: LogTimeGrid

    def with_time_grid(self, time_grid: LogTimeGrid) -> "QuadratureContext":
        return QuadratureContext(
            dim=self.dim,
            nodes_per_axis=self.nodes_per_axis,
            gh_points=self.gh_points,
            gh_weights=self.gh_weights,
            time_grid=time_grid,
        )

    def grid_meta(self) -> dict:
        """Resolution and window of this context, as reported in JSON output."""
        g = self.time_grid
        return {
            "dim": self.dim,
            "nodes_per_axis": self.nodes_per_axis,
            "t_min": g.t_min,
            "t_max": g.t_max,
            "n_panels": g.n_panels,
        }


def make_context(
    dim: int = 1,
    nodes_per_axis: int | None = None,
    t_min: float = DEFAULT_T_MIN,
    t_max: float = DEFAULT_T_MAX,
    n_panels: int | None = None,
    breakpoints: tuple[float, ...] = (),
) -> QuadratureContext:
    """Assemble a :class:`QuadratureContext`; defaults are 64 nodes per axis, 400 panels."""
    if nodes_per_axis is None:
        nodes_per_axis = DEFAULT_NODES_PER_AXIS
    points, weights = gauss_hermite_rule(nodes_per_axis, dim)
    return QuadratureContext(
        dim=dim,
        nodes_per_axis=nodes_per_axis,
        gh_points=points,
        gh_weights=weights,
        time_grid=logtime_grid(t_min, t_max, n_panels, breakpoints),
    )
