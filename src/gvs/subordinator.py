"""One-sided 1/2-stable subordinator: density, time derivatives, moments.

The subordination measure that turns the Ornstein-Uhlenbeck semigroup into
its Poisson (square-root) counterpart has the explicit density

    g(t, s) = t / (2 sqrt(pi)) * exp(-t^2 / (4 s)) * s^{-3/2},   s > 0,

a probability density in s for every t > 0. Its time derivatives stay inside
the algebra generated by t and 1/s over the density itself:

    d^k/dt^k g(t, s) = ( sum_{(i,j)} a_{ij} t^i s^{-j} ) g(t, s),

where every surviving key satisfies 2j - i = k. ``derivative_terms`` builds
the coefficient table exactly (Fraction arithmetic) from the seed
d/dt g = (1/t - t/(2s)) g; ``StableDerivative`` evaluates it.

Negative-order moments have the closed form

    integral s^{-k} g(t, s) ds = moment_constant(k) / t^{2k},
    moment_constant(k) = 4^k Gamma(k + 1/2) / sqrt(pi),

so moment_constant(1) = 2 and moment_constant(2) = 12; ``moment_quadrature``
recomputes the left side by log-substituted adaptive panels as a cross-check.
The total-variation integral of the k-th derivative scales exactly like
t^{-k} (substitute s = t^2 sigma), which ``tv_derivative_bound`` exposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import exp, lgamma, log, pi, sqrt

import numpy as np

from .errors import ParameterError
from .quadrature import panel_integral, settle_by_doubling


def density(t: float, s) -> np.ndarray | float:
    """Subordination density g(t, s); vectorized over s (s > 0 required)."""
    if t <= 0:
        raise ParameterError(f"t must be positive, got {t}")
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr <= 0):
        raise ParameterError("s must be positive")
    out = t / (2.0 * sqrt(pi)) * np.exp(-t * t / (4.0 * s_arr)) * s_arr**-1.5
    return float(out) if np.isscalar(s) else out


@lru_cache(maxsize=None)
def derivative_terms(k: int) -> dict[tuple[int, int], Fraction]:
    """Exact coefficient table {(i, j): a_ij} of the k-th time derivative.

    Differentiating a term a t^i s^{-j} g contributes a*i to key (i-1, j)
    from the product rule, plus a to (i-1, j) and -a/2 to (i+1, j+1) from
    the derivative of g itself. Zero coefficients are dropped; every kept
    key satisfies 2j - i = k.
    """
    if k < 0:
        raise ParameterError(f"derivative order must be >= 0, got {k}")
    terms: dict[tuple[int, int], Fraction] = {(0, 0): Fraction(1)}
    for _ in range(k):
        nxt: dict[tuple[int, int], Fraction] = {}
        for (i, j), a in terms.items():
            nxt[(i - 1, j)] = nxt.get((i - 1, j), Fraction(0)) + a * (i + 1)
            nxt[(i + 1, j + 1)] = nxt.get((i + 1, j + 1), Fraction(0)) - a / 2
        terms = {key: a for key, a in nxt.items() if a != 0}
    return dict(terms)


@dataclass(frozen=True)
class StableDerivative:
    """Evaluator for d^k/dt^k g(t, s) from the exact coefficient table."""

    order: int

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        return derivative_terms(self.order)

    def prefactor(self, t: float, s) -> np.ndarray | float:
        """The rational factor sum a_ij t^i s^{-j} multiplying g(t, s)."""
        s_arr = np.asarray(s, dtype=float)
        acc = np.zeros_like(s_arr)
        for (i, j), a in self.terms.items():
            acc = acc + float(a) * t**i * s_arr ** (-j)
        return float(acc) if np.isscalar(s) else acc

    def __call__(self, t: float, s) -> np.ndarray | float:
        return self.prefactor(t, s) * density(t, s)


def moment_constant(k: int) -> float:
    """Closed-form constant 4^k Gamma(k + 1/2) / sqrt(pi) in the moment identity."""
    if k < 0:
        raise ParameterError(f"moment order must be >= 0, got {k}")
    return exp(k * log(4.0) + lgamma(k + 0.5) - 0.5 * log(pi))


def moment(k: int, t: float) -> float:
    """Closed form of ``integral s^{-k} g(t, s) ds`` = moment_constant(k) / t^{2k}."""
    if t <= 0:
        raise ParameterError(f"t must be positive, got {t}")
    return moment_constant(k) / t ** (2 * k)


def _log_integral(fn, u_lo: float, u_hi: float, rel_tol: float) -> float:
    """Order-8 panels over [u_lo, u_hi], from 64 panels and up to 9 doublings."""
    return settle_by_doubling(
        lambda n: panel_integral(fn, u_lo, u_hi, n, 8), 64, rel_tol, 9, 1e-300
    )


def s_window(t: float, extra_decades: float = 0.0) -> tuple[float, float]:
    """Window [u_lo, u_hi] in u = ln s that holds the mass of g(t, .).

    exp(-t^2/4s) underflows (relative 1e-14) left of ln(t^2) - 3.5-ish; the
    s^{-1/2} mass tail is ~ e^{-(u - ln t^2)/2} on the right.
    """
    u0 = log(t * t)
    return u0 - 10.0 - extra_decades, u0 + 52.0 + extra_decades


def moment_quadrature(k: int, t: float, rel_tol: float = 1e-11) -> float:
    """Quadrature value of ``integral s^{-k} g(t, s) ds`` (s = e^u substitution)."""
    if k < 0:
        raise ParameterError(f"moment order must be >= 0, got {k}")
    if t <= 0:
        raise ParameterError(f"t must be positive, got {t}")
    u_lo, u_hi = s_window(t)

    def integrand(u):
        s = np.exp(u)
        return s ** (-k) * density(t, s) * s

    return _log_integral(integrand, u_lo, u_hi, rel_tol)


def tv_derivative_bound(k: int, t: float, rel_tol: float = 1e-11) -> float:
    """Total-variation integral ``integral |d^k/dt^k g(t, s)| ds``.

    Exactly homogeneous: the value times t^k is independent of t, so the
    k-th derivative of the subordination measure has total variation
    <= (value at t=1) / t^k.
    """
    if k < 0:
        raise ParameterError(f"derivative order must be >= 0, got {k}")
    if t <= 0:
        raise ParameterError(f"t must be positive, got {t}")
    deriv = StableDerivative(k)
    u_lo, u_hi = s_window(t)

    def integrand(u):
        s = np.exp(u)
        return np.abs(deriv(t, s)) * s

    # |...| has kinks at the prefactor's sign changes; locate them so panels
    # never straddle one (the adaptive loop would stall otherwise).
    if k > 0:
        roots = _prefactor_roots(k, t)
        pieces = np.concatenate([[u_lo], np.log(roots), [u_hi]])
        total = 0.0
        for a, b in zip(pieces[:-1], pieces[1:]):
            if b > a:
                total += _log_integral(integrand, a, b, rel_tol)
        return total
    return _log_integral(integrand, u_lo, u_hi, rel_tol)


def _prefactor_roots(k: int, t: float) -> np.ndarray:
    """Positive roots in s of the k-th prefactor sum a_ij t^i s^{-j}."""
    terms = derivative_terms(k)
    jmax = max(j for _, j in terms)
    if jmax == 0:
        return np.array([])
    # multiply through by s^jmax: poly[d] is the coefficient of s^{jmax - d}
    poly = np.zeros(jmax + 1)
    for (i, j), a in terms.items():
        poly[j] += float(a) * t**i
    roots = np.roots(poly)
    real = roots[np.abs(roots.imag) < 1e-12 * (1 + np.abs(roots.real))].real
    return np.sort(real[real > 0])
