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
  shifted form below s = S_SWITCH where the explicit kernel concentrates
  past the rule's resolution. Each doubling level runs in blocks of
  s-nodes (``_BLOCK_CELLS``); for expansions the rule, the basis and the
  kernel factor by axis, so a block sums over per-axis tables of the 1-d
  rule instead of the full tensor rule. No eigenvalue formula enters.
"""

from __future__ import annotations

from functools import lru_cache
from math import exp, sqrt

import numpy as np

from .errors import ParameterError
from .hermite import HermiteExpansion, as_points, basis_matrix, hermite_all_1d
from .quadrature import QuadratureContext, gauss_hermite_rule, panel_rule, settle_by_doubling
from .subordinator import density, s_window

S_SWITCH = 0.35  # below this s (or t) the explicit kernel outruns the default rule
# Cells of every per-block temporary of the subordination sum (256 KB arrays, cache-sized).
_BLOCK_CELLS = 1 << 15


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
    if not 0 <= t < np.inf:
        raise ParameterError(f"semigroup time must be finite and >= 0, got {t}")
    coeffs = {nu: c * exp(-t * nu.order) for nu, c in f.coeffs.items()}
    return HermiteExpansion(f.dim, f.degree_cap, coeffs)


def ph_derivative(f: HermiteExpansion, t: float, k: int = 0) -> HermiteExpansion:
    """Spectral k-th time derivative of the Poisson-Hermite action.

    k=0 is the semigroup itself; each derivative multiplies by
    -sqrt(|nu|), so constants drop out of every k >= 1 derivative.
    """
    if not 0 <= t < np.inf:
        raise ParameterError(f"semigroup time must be finite and >= 0, got {t}")
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
    if not 0 < t < np.inf:
        raise ParameterError(f"kernel quadrature needs finite t > 0, got {t}")
    pts = _finite_points(x, ctx.dim)
    if method == "kernel":
        fvals = _eval_f(f, ctx.gh_points, ctx.dim)
        denom = -np.expm1(-2.0 * t)  # 1 - e^{-2t} without cancellation
        weighted = _mehler_exponential(exp(-t), denom, pts, ctx.gh_points) @ (fvals * ctx.gh_weights)
        return weighted / denom ** (ctx.dim / 2.0)
    if method == "shifted":
        decay = exp(-t)
        spread = sqrt(-np.expm1(-2.0 * t))
        shifted = decay * pts[:, None, :] + spread * ctx.gh_points[None, :, :]
        flat = shifted.reshape(-1, ctx.dim)
        vals = _eval_f(f, flat, ctx.dim).reshape(pts.shape[0], -1)
        return vals @ ctx.gh_weights
    raise ParameterError(f"unknown method {method!r}")


def _finite_points(x, dim: int) -> np.ndarray:
    pts = as_points(x, dim)
    if not np.all(np.isfinite(pts)):
        raise ParameterError("points must be finite")
    return pts


def _mehler_exponential(decay, denom, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The kernel's exponential at e^{-s} = decay, 1 - e^{-2s} = denom (floats,
    or (S, 1, 1) arrays for S times) over (x_i, y_j); denom^{-k/2} is the caller's."""
    x_sq = np.sum(x * x, axis=1)[:, None]
    y_sq = np.sum(y * y, axis=1)[None, :]
    cross = x @ y.T
    return np.exp((2.0 * decay * cross - decay * decay * (x_sq + y_sq)) / denom)


@lru_cache(maxsize=None)
def _axis_rule(nodes_per_axis: int) -> tuple[np.ndarray, np.ndarray]:
    """One axis of the tensor rule: nodes (n, 1) and weights (n,), read-only."""
    y, w = gauss_hermite_rule(nodes_per_axis, 1)
    y.flags.writeable = w.flags.writeable = False
    return y, w


def _expansion_term(fs, pts: np.ndarray, ctx: QuadratureContext):
    """Block term of expansions: T_s h_nu(x) = prod_a A_a[s, x, nu_a] with
    A_a[s, x, n] = sum_j w_j K_s(x_a, y_j) h_n(y_j) (kernel branch) or
    sum_j w_j h_n(e^{-s} x_a + sqrt(1 - e^{-2s}) y_j) (shifted branch)."""
    union = sorted({nu for f in fs for nu in f.coeffs}, key=lambda nu: (nu.order, nu.entries))
    C = np.array([[f.coeffs.get(nu, 0.0) for nu in union] for f in fs]).reshape(len(fs), -1)
    entries = np.array([nu.entries for nu in union], dtype=int).reshape(-1, ctx.dim)
    nmax = int(entries.max(initial=0))
    y, w = _axis_rule(ctx.nodes_per_axis)
    hw = (hermite_all_1d(nmax, y[:, 0]) * w).T  # (n, nmax + 1): w_j h_n(y_j)

    def term(decay, denom, mass, kernel: bool) -> np.ndarray:
        if kernel:
            tables = [_mehler_exponential(decay, denom, pts[:, [a]], y) @ hw for a in range(ctx.dim)]
        else:
            tables = [np.moveaxis(hermite_all_1d(nmax, decay * pts[:, [a]] + np.sqrt(denom) * y[:, 0]) @ w,
                                  0, -1) for a in range(ctx.dim)]
        prod = tables[0][..., entries[:, 0]]  # (S, m, len(union))
        for a in range(1, ctx.dim):
            prod *= tables[a][..., entries[:, a]]
        return C @ np.tensordot(mass, prod, axes=1).T

    m, n = pts.shape[0], y.shape[0]  # cells per s-node, per branch:
    return term, (m * max(n, len(union)), m * max(n * (nmax + 1), len(union)))


def _callable_term(fs, pts: np.ndarray, ctx: QuadratureContext):
    """Block term of generic functions on the tensor rule: one mass-weighted
    kernel matrix per block, or each function once on the block's points."""
    fvals_w = np.stack([_eval_f(f, ctx.gh_points, ctx.dim) for f in fs], axis=1) * ctx.gh_weights[:, None]
    m = pts.shape[0]

    def term(decay, denom, mass, kernel: bool) -> np.ndarray:
        if kernel:
            K = np.tensordot(mass, _mehler_exponential(decay, denom, pts, ctx.gh_points), axes=1)
            return (K @ fvals_w).T
        shifted = decay[..., None] * pts[:, None, :] + np.sqrt(denom)[..., None] * ctx.gh_points
        flat = shifted.reshape(-1, ctx.dim)
        return np.array([mass @ (_eval_f(f, flat, ctx.dim).reshape(mass.size, m, -1) @ ctx.gh_weights)
                         for f in fs])

    return term, (m * ctx.gh_points.size, m * (ctx.gh_points.size + ctx.gh_weights.size))


def ph_apply_subordination_many(
    fs,
    t: float,
    x,
    ctx: QuadratureContext,
    s_switch: float = S_SWITCH,
    rel_tol: float = 1e-8,
    max_doublings: int = 5,
) -> np.ndarray:
    """P_t f at points x for a batch of functions, shape (len(fs), n_points).

    The s integral runs in u = ln s over a t-centered window with composite
    Gauss-Legendre panels, doubling until the result moves less than rel_tol
    (sup norm, relative to the larger of 1 and the value scale). The inner
    T_s evaluation uses the explicit kernel for s >= s_switch and the
    shifted form below it; each doubling level goes through in blocks of
    s-nodes (at least one), by per-axis tables for a batch of expansions.
    """
    if not 0 < t < np.inf:
        raise ParameterError(f"subordination needs finite t > 0, got {t}")
    fs = list(fs)
    if not fs:
        raise ParameterError("need at least one function")
    pts = _finite_points(x, ctx.dim)
    u_lo, u_hi = s_window(t)
    batch_term = _expansion_term if all(isinstance(f, HermiteExpansion) for f in fs) else _callable_term
    term, cells_per_node = batch_term(fs, pts, ctx)

    def value(n_panels: int) -> np.ndarray:
        edges = np.linspace(u_lo, u_hi, n_panels + 1)
        u, w = panel_rule(edges[:-1], edges[1:], 8)
        s = np.exp(u.ravel())
        mass = density(t, s) * s * w.ravel()
        total = np.zeros((len(fs), pts.shape[0]))
        for kernel, cells in zip((True, False), cells_per_node):
            on = (mass != 0.0) & ((s >= s_switch) == kernel)
            s_on, m_on = s[on], mass[on]
            step = max(1, _BLOCK_CELLS // cells)
            for lo in range(0, s_on.size, step):
                s_b, m_b = s_on[lo:lo + step], m_on[lo:lo + step]
                denom = -np.expm1(-2.0 * s_b)  # 1 - e^{-2s}
                if kernel:
                    m_b = m_b / denom ** (ctx.dim / 2.0)  # the kernel's factor, on the mass
                total += term(np.exp(-s_b)[:, None, None], denom[:, None, None], m_b, kernel)
        return total

    return settle_by_doubling(value, 48, rel_tol, max_doublings, 1.0)


def ph_apply_subordination(
    f,
    t: float,
    x,
    ctx: QuadratureContext,
    s_switch: float = S_SWITCH,
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
