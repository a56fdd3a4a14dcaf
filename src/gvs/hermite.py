"""Normalized Hermite polynomials and finite Hermite expansions.

The basis used everywhere is the L^2-orthonormal family for the Gaussian
probability measure ``pi^{-d/2} exp(-|x|^2) dx``: in one dimension

    h_0 = 1,   h_1(x) = sqrt(2) x,
    h_{n+1}(x) = x sqrt(2/(n+1)) h_n(x) - sqrt(n/(n+1)) h_{n-1}(x),

i.e. the physicists' polynomials divided by sqrt(2^n n!), and tensor products
``h_nu(x) = prod_i h_{nu_i}(x_i)`` in dimension d. Each h_nu is an
eigenfunction of the Ornstein-Uhlenbeck operator with eigenvalue -|nu|.

The recurrence above is the numerically stable way to evaluate the normalized
family directly; going through unnormalized polynomials overflows near n ~ 150
and loses digits long before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt
from typing import Iterable, Iterator

import numpy as np

from .errors import ParameterError
from .quadrature import QuadratureContext


@dataclass(frozen=True)
class MultiIndex:
    """Multi-index nu in N_0^d; ``order`` is |nu| = sum of entries."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries:
            raise ParameterError("MultiIndex needs at least one entry")
        for e in self.entries:
            if not isinstance(e, (int, np.integer)) or isinstance(e, bool) or e < 0:
                raise ParameterError(f"MultiIndex entries must be non-negative ints, got {self.entries!r}")
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))

    @classmethod
    def of(cls, spec) -> "MultiIndex":
        """Coerce an int, an iterable of ints, or a MultiIndex."""
        if isinstance(spec, MultiIndex):
            return spec
        if isinstance(spec, (int, np.integer)) and not isinstance(spec, bool):
            return cls((int(spec),))
        return cls(tuple(spec))

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def order(self) -> int:
        return sum(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __len__(self) -> int:
        return len(self.entries)


def multi_indices_up_to(dim: int, degree_cap: int) -> list[MultiIndex]:
    """All multi-indices in N_0^dim with |nu| <= degree_cap, graded order."""
    if dim < 1 or degree_cap < 0:
        raise ParameterError("need dim >= 1 and degree_cap >= 0")
    out: list[MultiIndex] = []

    def rec(prefix, remaining, axes_left):
        if axes_left == 1:
            for v in range(remaining + 1):
                out.append(MultiIndex(prefix + (v,)))
            return
        for v in range(remaining + 1):
            rec(prefix + (v,), remaining - v, axes_left - 1)

    rec((), degree_cap, dim)
    out.sort(key=lambda nu: (nu.order, nu.entries))
    return out


def hermite_all_1d(nmax: int, x) -> np.ndarray:
    """Values of h_0, ..., h_nmax at x; shape (nmax+1,) + shape(x)."""
    x = np.asarray(x, dtype=float)
    H = np.empty((nmax + 1,) + x.shape)
    H[0] = 1.0
    if nmax >= 1:
        H[1] = sqrt(2.0) * x
    for n in range(1, nmax):
        H[n + 1] = x * sqrt(2.0 / (n + 1)) * H[n] - sqrt(n / (n + 1.0)) * H[n - 1]
    return H


def hermite_1d(n: int, x):
    """Normalized 1-d Hermite polynomial h_n evaluated at x (scalar or array)."""
    if n < 0:
        raise ParameterError("Hermite degree must be non-negative")
    vals = hermite_all_1d(n, x)[n]
    return float(vals) if np.isscalar(x) else vals


def as_points(x, dim: int) -> np.ndarray:
    """Normalize x to shape (m, dim); accepts scalars and (m,) when dim == 1."""
    pts = np.asarray(x, dtype=float)
    if dim == 1:
        if pts.ndim == 0:
            pts = pts.reshape(1, 1)
        elif pts.ndim == 1:
            pts = pts[:, None]
        elif pts.ndim != 2 or pts.shape[1] != 1:
            raise ParameterError(f"expected points of dimension 1, got shape {pts.shape}")
    else:
        if pts.ndim == 1:
            if pts.shape[0] != dim:
                raise ParameterError(f"expected a point in R^{dim}, got shape {pts.shape}")
            pts = pts[None, :]
        if pts.ndim != 2 or pts.shape[1] != dim:
            raise ParameterError(f"expected points of shape (m, {dim}), got {pts.shape}")
    return pts


def hermite_multi(nu, x) -> np.ndarray:
    """Tensor Hermite polynomial h_nu at points x (shape (m, d), or (m,) if d=1)."""
    nu = MultiIndex.of(nu)
    pts = as_points(x, nu.dim)
    vals = np.ones(pts.shape[0])
    for axis, n in enumerate(nu):
        vals *= hermite_all_1d(n, pts[:, axis])[n]
    return vals


def basis_matrix(indices: Iterable[MultiIndex], points: np.ndarray) -> np.ndarray:
    """Rows h_nu(points) for each nu; evaluates per-axis recurrences once."""
    indices = list(indices)
    if not indices:
        return np.zeros((0, len(points)))
    dim = indices[0].dim
    pts = as_points(points, dim)
    nmax = max(max(nu.entries) for nu in indices)
    per_axis = [hermite_all_1d(nmax, pts[:, ax]) for ax in range(dim)]
    out = np.empty((len(indices), pts.shape[0]))
    for i, nu in enumerate(indices):
        row = per_axis[0][nu[0]]
        for ax in range(1, dim):
            row = row * per_axis[ax][nu[ax]]
        out[i] = row
    return out


@dataclass
class HermiteExpansion:
    """Finite linear combination ``sum_nu c_nu h_nu`` with |nu| <= degree_cap."""

    dim: int
    degree_cap: int
    coeffs: dict[MultiIndex, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise ParameterError("dim must be >= 1")
        if self.degree_cap < 0:
            raise ParameterError("degree_cap must be >= 0")
        clean: dict[MultiIndex, float] = {}
        for nu, c in self.coeffs.items():
            nu = MultiIndex.of(nu)
            if nu.dim != self.dim:
                raise ParameterError(f"index {nu.entries} has dim {nu.dim}, expansion has dim {self.dim}")
            if nu.order > self.degree_cap:
                raise ParameterError(f"index {nu.entries} exceeds degree cap {self.degree_cap}")
            c = float(c)
            if not np.isfinite(c):
                raise ParameterError("coefficients must be finite")
            clean[nu] = c
        self.coeffs = clean

    @classmethod
    def from_pairs(cls, dim: int, pairs: Iterable[tuple], degree_cap: int | None = None) -> "HermiteExpansion":
        coeffs: dict[MultiIndex, float] = {}
        for nu, c in pairs:
            nu = MultiIndex.of(nu)
            coeffs[nu] = coeffs.get(nu, 0.0) + float(c)
        if degree_cap is None:
            degree_cap = max((nu.order for nu in coeffs), default=0)
        return cls(dim=dim, degree_cap=degree_cap, coeffs=coeffs)

    @classmethod
    def single(cls, nu, coeff: float = 1.0) -> "HermiteExpansion":
        nu = MultiIndex.of(nu)
        return cls(dim=nu.dim, degree_cap=nu.order, coeffs={nu: float(coeff)})

    def items(self) -> list[tuple[MultiIndex, float]]:
        return sorted(self.coeffs.items(), key=lambda kv: (kv[0].order, kv[0].entries))

    def evaluate(self, x) -> np.ndarray:
        pts = as_points(x, self.dim)
        if not self.coeffs:
            return np.zeros(pts.shape[0])
        indices = [nu for nu, _ in self.items()]
        c = np.array([self.coeffs[nu] for nu in indices])
        return c @ basis_matrix(indices, pts)

    def __call__(self, x) -> np.ndarray:
        return self.evaluate(x)

    def __add__(self, other: "HermiteExpansion") -> "HermiteExpansion":
        if not isinstance(other, HermiteExpansion):
            return NotImplemented
        if other.dim != self.dim:
            raise ParameterError("cannot add expansions of different dimensions")
        coeffs = dict(self.coeffs)
        for nu, c in other.coeffs.items():
            coeffs[nu] = coeffs.get(nu, 0.0) + c
        return HermiteExpansion(self.dim, max(self.degree_cap, other.degree_cap), coeffs)

    def __mul__(self, scalar) -> "HermiteExpansion":
        s = float(scalar)
        return HermiteExpansion(self.dim, self.degree_cap, {nu: s * c for nu, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __sub__(self, other: "HermiteExpansion") -> "HermiteExpansion":
        return self + (-1.0) * other

    def l2_norm(self) -> float:
        """Exact L^2(Gaussian) norm, by orthonormality of the basis."""
        return sqrt(sum(c * c for c in self.coeffs.values()))


def project(f, ctx: QuadratureContext, degree_cap: int) -> HermiteExpansion:
    """Gauss-Hermite projection of f onto span{h_nu : |nu| <= degree_cap}.

    ``f`` may be a callable on points of shape (m, dim) (or (m,) when dim=1)
    or an array of values at ``ctx.gh_points``. The rule must have at least
    degree_cap + 1 nodes per axis; below that the products f * h_nu are not
    integrated exactly even for polynomial f, so the call is refused.
    """
    if ctx.nodes_per_axis < degree_cap + 1:
        raise ParameterError(
            f"projection to degree {degree_cap} needs >= {degree_cap + 1} nodes per axis, "
            f"context has {ctx.nodes_per_axis}"
        )
    if callable(f):
        values = np.asarray(f(ctx.gh_points if ctx.dim > 1 else ctx.gh_points[:, 0]), dtype=float)
    else:
        values = np.asarray(f, dtype=float)
    if values.shape != (ctx.gh_points.shape[0],):
        raise ParameterError(f"sample values have shape {values.shape}, expected ({ctx.gh_points.shape[0]},)")
    indices = multi_indices_up_to(ctx.dim, degree_cap)
    H = basis_matrix(indices, ctx.gh_points)
    coeffs = H @ (values * ctx.gh_weights)
    return HermiteExpansion(ctx.dim, degree_cap, {nu: float(c) for nu, c in zip(indices, coeffs)})


def random_expansion(
    dim: int, degree_cap: int, rng: np.random.Generator, scale: float = 1.0
) -> HermiteExpansion:
    """Expansion with N(0, scale^2) coefficients on every |nu| <= degree_cap."""
    indices = multi_indices_up_to(dim, degree_cap)
    coeffs = {nu: scale * rng.standard_normal() for nu in indices}
    return HermiteExpansion(dim, degree_cap, coeffs)
