"""Ornstein-Uhlenbeck and Poisson-Hermite semigroups, spectral and quadrature.

Eigenfunction facts used throughout: for the orthonormal Hermite family,

    T_t h_nu = e^{-t |nu|} h_nu          (Ornstein-Uhlenbeck semigroup),
    P_t h_nu = e^{-t sqrt(|nu|)} h_nu    (Poisson-Hermite semigroup),
    d^k/dt^k P_t h_nu = (-sqrt(|nu|))^k e^{-t sqrt(|nu|)} h_nu.

``ou_apply`` / ``ph_derivative`` act coefficientwise on expansions (the
spectral path, exact up to roundoff). The quadrature paths are genuinely
independent of those eigenvalue formulas:

* ``ou_apply_kernel`` integrates against the explicit kernel

      K_t(x, y) = (1 - e^{-2t})^{-d/2}
                  exp( (2 e^{-t} <x,y> - e^{-2t}(|x|^2 + |y|^2)) / (1 - e^{-2t}) )

  with 1 - e^{-2t} evaluated as -expm1(-2t) (the naive form loses digits for
  t below ~1e-2). The fixed Gauss-Hermite rule resolves this kernel only
  down to t ~ 0.1 at 64 nodes/axis; method="shifted" integrates the same
  operator in the substituted form T_t f(x) = integral f(e^{-t} x +
  sqrt(1 - e^{-2t}) y) dgamma(y), stable at every t and exact on
  polynomials of degree below the rule's exactness.

* ``ph_apply_subordination`` averages T_s f(x) against the subordination
  density in log-s coordinates, switching the inner evaluation to the
  shifted form below s = 0.35 where the explicit kernel concentrates past
  the rule's resolution.
"""

from __future__ import annotations

from math import exp, log, sqrt

import numpy as np

from .errors import ParameterError
from .hermite import HermiteExpansion, as_points, basis_matrix
from .quadrature import QuadratureContext, panel_rule, settle_by_doubling
from .subordinator import density, s_window


def default_t_grid() -> np.ndarray:
    """60 log-spaced times on [1e-3, 50], the default supremum grid."""
    return np.geomspace(1e-3, 50.0, 60)


def _expansion_data(f: HermiteExpansion):
    items = f.items()
    coeffs = np.array([c for _, c in items])
    orders = np.array([nu.order for nu, _ in items], dtype=float)
    indices = [nu for nu, _ in items]
    return indices, coeffs, orders


def ou_apply(f: HermiteExpansion, t: float) -> HermiteExpansion:
    """Spectral Ornstein-Uhlenbeck action: c_nu -> e^{-t |nu|} c_nu."""
    if t < 0:
        raise ParameterError(f"semigroup time must be >= 0, got {t}")
    coeffs = {nu: c * exp(-t * nu.order) for nu, c in f.coeffs.items()}
    return HermiteExpansion(f.dim, f.degree_cap, coeffs)


def ph_derivative(f: HermiteExpansion, t: float, k: int = 0) -> HermiteExpansion:
    """Spectral k-th time derivative of the Poisson-Hermite action.

    k=0 is the semigroup itself; each derivative multiplies by
    -sqrt(|nu|), so constants drop out of every k >= 1 derivative.
    """
    if t < 0:
        raise ParameterError(f"semigroup time must be >= 0, got {t}")
    if k < 0:
        raise ParameterError(f"derivative order must be >= 0, got {k}")
    coeffs = {}
    for nu, c in f.coeffs.items():
        lam = sqrt(nu.order)
        coeffs[nu] = c * (-lam) ** k * exp(-t * lam) if (k == 0 or lam > 0) else 0.0
    return HermiteExpansion(f.dim, f.degree_cap, coeffs)


def ph_derivative_profile(
    f: HermiteExpansion, k: int, ts: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Tensor [d^k/dt^k P_t f](x) over (ts, points), shape (n_t, n_points).

    Computed once as a (times x modes) @ (modes x points) product; the
    smoothness norms reuse this tensor for both mixed-norm orders.
    """
    if k < 0:
        raise ParameterError(f"derivative order must be >= 0, got {k}")
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < 0):
        raise ParameterError("times must be >= 0")
    pts = as_points(points, f.dim)
    indices, coeffs, orders = _expansion_data(f)
    if not indices:
        return np.zeros((ts.size, pts.shape[0]))
    lam = np.sqrt(orders)
    B = basis_matrix(indices, pts)
    E = np.exp(-ts[:, None] * lam[None, :]) * (coeffs * (-lam) ** k if k else coeffs)[None, :]
    return E @ B


def _eval_f(f, pts: np.ndarray, dim: int) -> np.ndarray:
    if isinstance(f, HermiteExpansion):
        return f.evaluate(pts)
    vals = np.asarray(f(pts if dim > 1 else pts[:, 0]), dtype=float)
    if vals.shape != (pts.shape[0],):
        raise ParameterError(f"function returned shape {vals.shape}, expected ({pts.shape[0]},)")
    return vals


def ou_apply_kernel(
    f, t: float, x, ctx: QuadratureContext, method: str = "kernel"
) -> np.ndarray:
    """Quadrature value of T_t f at points x.

    method="kernel" uses the explicit kernel above and is the default
    cross-check path; method="shifted" integrates the substituted form and
    should be preferred below t ~ 0.1 where the kernel outruns the rule.
    """
    if t <= 0:
        raise ParameterError(f"kernel quadrature needs t > 0, got {t}")
    pts = as_points(x, ctx.dim)
    if method == "kernel":
        fvals = _eval_f(f, ctx.gh_points, ctx.dim)
        return _kernel_contract(fvals * ctx.gh_weights, t, pts, ctx)
    if method == "shifted":
        decay = exp(-t)
        spread = sqrt(-np.expm1(-2.0 * t))
        shifted = decay * pts[:, None, :] + spread * ctx.gh_points[None, :, :]
        flat = shifted.reshape(-1, ctx.dim)
        vals = _eval_f(f, flat, ctx.dim).reshape(pts.shape[0], -1)
        return vals @ ctx.gh_weights
    raise ParameterError(f"unknown method {method!r}")


def _kernel_contract(weighted_fvals: np.ndarray, t: float, pts: np.ndarray,
                     ctx: QuadratureContext) -> np.ndarray:
    decay = exp(-t)
    denom = -np.expm1(-2.0 * t)  # 1 - e^{-2t} without cancellation
    x_sq = np.sum(pts * pts, axis=1)[:, None]
    y_sq = np.sum(ctx.gh_points * ctx.gh_points, axis=1)[None, :]
    cross = pts @ ctx.gh_points.T
    expo = (2.0 * decay * cross - decay * decay * (x_sq + y_sq)) / denom
    return (np.exp(expo) @ weighted_fvals) / denom ** (ctx.dim / 2.0)


def ph_apply_subordination_many(
    fs,
    t: float,
    x,
    ctx: QuadratureContext,
    s_switch: float = 0.35,
    rel_tol: float = 1e-8,
    max_doublings: int = 5,
) -> np.ndarray:
    """P_t f at points x for a batch of functions, shape (len(fs), n_points).

    The s integral runs in u = ln s over a t-centered window with composite
    Gauss-Legendre panels, doubling until the result moves less than rel_tol
    (sup norm, relative to the larger of 1 and the value scale). The inner
    T_s evaluation uses the explicit kernel for s >= s_switch and the
    shifted form below it; kernel matrices and shifted-point basis values
    are shared across the whole batch, which is what makes large
    eigenfunction sweeps affordable.
    """
    if t <= 0:
        raise ParameterError(f"subordination needs t > 0, got {t}")
    fs = list(fs)
    if not fs:
        raise ParameterError("need at least one function")
    pts = as_points(x, ctx.dim)
    u_lo, u_hi = s_window(t)
    fvals_w = np.stack([_eval_f(f, ctx.gh_points, ctx.dim) for f in fs], axis=1)
    fvals_w *= ctx.gh_weights[:, None]  # (n_gh, n_f)

    expansions = [f for f in fs if isinstance(f, HermiteExpansion)]
    shared_basis = None
    if len(expansions) == len(fs):
        union: list = sorted(
            {nu for f in expansions for nu in f.coeffs}, key=lambda nu: (nu.order, nu.entries)
        )
        C = np.array([[f.coeffs.get(nu, 0.0) for nu in union] for f in fs])
        shared_basis = (union, C)

    def shifted_batch(s_i: float) -> np.ndarray:
        decay = exp(-s_i)
        spread = sqrt(-np.expm1(-2.0 * s_i))
        flat = (decay * pts[:, None, :] + spread * ctx.gh_points[None, :, :]).reshape(-1, ctx.dim)
        if shared_basis is not None:
            union, C = shared_basis
            vals = C @ basis_matrix(union, flat)  # (n_f, m * n_gh)
        else:
            vals = np.stack([_eval_f(f, flat, ctx.dim) for f in fs])
        return vals.reshape(len(fs), pts.shape[0], -1) @ ctx.gh_weights

    def value(n_panels: int) -> np.ndarray:
        edges = np.linspace(u_lo, u_hi, n_panels + 1)
        u, w = panel_rule(edges[:-1], edges[1:], 8)
        s = np.exp(u.ravel())
        mass = density(t, s) * s * w.ravel()
        total = np.zeros((len(fs), pts.shape[0]))
        for s_i, m_i in zip(s, mass):
            if m_i == 0.0:
                continue
            if s_i >= s_switch:
                total += m_i * _kernel_contract(fvals_w, s_i, pts, ctx).T
            else:
                total += m_i * shifted_batch(s_i)
        return total

    return settle_by_doubling(value, 48, rel_tol, max_doublings, 1.0)


def ph_apply_subordination(
    f,
    t: float,
    x,
    ctx: QuadratureContext,
    s_switch: float = 0.35,
    rel_tol: float = 1e-8,
    max_doublings: int = 5,
) -> np.ndarray:
    """P_t f at points x; single-function front end to the batched version."""
    return ph_apply_subordination_many(
        [f], t, x, ctx, s_switch=s_switch, rel_tol=rel_tol, max_doublings=max_doublings
    )[0]


def ou_maximal(f: HermiteExpansion, x, t_grid: np.ndarray | None = None) -> np.ndarray:
    """Grid supremum T* f(x) = sup_t |T_t f(x)| over the (log-spaced) t grid."""
    ts = default_t_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    if np.any(ts <= 0):
        raise ParameterError("maximal-function grid times must be positive")
    pts = as_points(x, f.dim)
    indices, coeffs, orders = _expansion_data(f)
    if not indices:
        return np.zeros(pts.shape[0])
    B = basis_matrix(indices, pts)
    E = np.exp(-ts[:, None] * orders[None, :]) * coeffs[None, :]
    return np.max(np.abs(E @ B), axis=0)


def ph_derivative_bound_check(
    f: HermiteExpansion, x, k: int, t_grid: np.ndarray | None = None
) -> np.ndarray:
    """Empirical ratio sup_t t^k |d^k/dt^k P_t f(x)| / T* f(x), per point.

    Finite by the subordination total-variation bound; the return is the
    grid version of that constant. Points where both numerator and T* f
    vanish give 0; a vanishing T* f under a nonzero numerator cannot happen
    for expansions and raises.
    """
    if k < 0:
        raise ParameterError(f"derivative order must be >= 0, got {k}")
    ts = default_t_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    pts = as_points(x, f.dim)
    deriv = ph_derivative_profile(f, k, ts, pts)
    numer = np.max(np.abs(deriv) * ts[:, None] ** k, axis=0)
    tstar = ou_maximal(f, pts, ts)
    out = np.zeros(pts.shape[0])
    live = tstar > 0
    if np.any(~live & (numer > 1e-13 * (1.0 + numer))):
        raise ParameterError("degenerate input: T* f vanishes where the derivative does not")
    out[live] = numer[live] / tstar[live]
    return out
