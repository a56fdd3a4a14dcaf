"""Variable exponents p(.) with bounds, limits, and regularity-class estimates.

An :class:`ExponentFunction` is a bounded measurable exponent together with
the metadata the norm machinery needs: essential bounds ``p_minus <= p(x) <=
p_plus`` (with p_minus >= 1), limits at 0 / infinity when they exist, and a
set of regularity-class tags. Three built-in families cover the use cases:

* ``make_constant(c)`` - constant exponents, member of every class;
* ``make_gaussian_family(p_inf, c)`` - p(x) = p_inf + c / (1 + |x|^2) on R^d,
  which approaches its limit at rate |x|^{-2} (tag ``P_gamma_inf``) and is
  log-Holder continuous;
* ``make_time_family(q0, q_inf)`` - q(t) = q_inf + (q0 - q_inf) / (1 + t) on
  the half-line, with limits q0 at 0+ and q_inf at infinity (tag ``P_0_inf``).

Derived exponents (``conjugate``, ``scaled``, ``holder_conjugate_pair``,
``harmonic_interpolation``) all set 1/p = c + sum_i a_i / p_i and keep their
provenance as a ``mix`` descriptor over the descriptors of the p_i. This
module owns the descriptor format both ways: ``exponent_from_descriptor``
rebuilds an exponent and ``descriptor_label`` renders its CSV label.

``estimate_class_constants`` measures the corresponding moduli empirically on
a sample set; the class constants it reports are suprema over the samples,
lower bounds for the true constants.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError

TAG_LH0 = "LH0"                # log-Holder continuity at small scales
TAG_LHINF = "LHinf"            # log-Holder decay to the limit at infinity
TAG_GAUSS_INF = "P_gamma_inf"  # |p(x) - p_inf| <= C / |x|^2
TAG_HALFLINE = "P_0_inf"       # limits at 0+ and infinity with log rates


@dataclass(frozen=True, eq=False)
class ExponentFunction:
    """Bounded exponent with metadata; callable on point arrays.

    ``fn`` must be vectorized: for space exponents it receives points of
    shape (m, d) or (m,), for time exponents positive reals of shape (m,).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    p_minus: float
    p_plus: float
    domain: str = "space"  # "space", "time", or "both"
    limit_zero: float | None = None
    limit_infty: float | None = None
    class_tags: frozenset = frozenset()
    descriptor: dict | None = None

    def __post_init__(self):
        if not (1.0 <= self.p_minus <= self.p_plus):
            raise ParameterError(
                f"need 1 <= p_minus <= p_plus < inf, got [{self.p_minus}, {self.p_plus}]"
            )
        if not np.isfinite(self.p_plus):
            raise ParameterError("p_plus must be finite")
        if self.domain not in ("space", "time", "both"):
            raise ParameterError(f"unknown domain {self.domain!r}")

    def __call__(self, points) -> np.ndarray:
        vals = np.asarray(self.fn(np.asarray(points, dtype=float)), dtype=float)
        return vals

    @property
    def is_constant(self) -> bool:
        return self.p_minus == self.p_plus

    def conjugate(self) -> "ExponentFunction":
        """Pointwise conjugate p' = p / (p - 1), built as 1/p' = 1 - 1/p; requires p_minus > 1."""
        return _reciprocal_mix(1.0, [(-1.0, self)])

    def scaled(self, s: float) -> "ExponentFunction":
        """The exponent s * p(.), built as 1/(s p) = (1/s)/p; requires s * p_minus >= 1."""
        s = float(s)
        if not s > 0.0:
            raise ParameterError(f"scale factor must be positive, got {s}")
        return _reciprocal_mix(0.0, [(1.0 / s, self)])


def _reciprocal_mix(const: float, terms) -> ExponentFunction:
    """The exponent p with 1/p = const + sum_i a_i / p_i pointwise, for ``terms`` (a_i, p_i).

    The bounds are interval arithmetic on 1/p (a term's ends swap where
    a_i < 0), exact when the p_i attain their extremes at common points, as
    all built-in families do. Values and bounds share one expression, so
    sampled values lie inside the bounds. Raises unless 1/p stays in (0, 1].
    """
    const = float(const)
    terms = [(float(a), p) for a, p in terms]

    def recip(values):
        return sum((a / v for (a, _), v in zip(terms, values)), const)

    lo = recip([p.p_plus if a >= 0.0 else p.p_minus for a, p in terms])
    hi = recip([p.p_minus if a >= 0.0 else p.p_plus for a, p in terms])
    if not 0.0 < lo <= hi <= 1.0:
        raise ParameterError(
            f"1/p = {const:g} + sum a_i/p_i spans [{lo:.4g}, {hi:.4g}], outside (0, 1]"
        )
    domains = {p.domain for _, p in terms} - {"both"}
    if len(domains) > 1:
        raise ParameterError(f"cannot combine exponents on domains {sorted(domains)}")

    def limit(name):
        values = [getattr(p, name) for _, p in terms]
        return None if None in values else 1.0 / recip(values)

    descs = [p.descriptor for _, p in terms]
    return ExponentFunction(
        fn=lambda pts: 1.0 / recip([np.asarray(p.fn(pts), dtype=float) for _, p in terms]),
        p_minus=1.0 / hi,
        p_plus=1.0 / lo,
        domain=domains.pop() if domains else "both",
        limit_zero=limit("limit_zero"),
        limit_infty=limit("limit_infty"),
        class_tags=frozenset.intersection(*[p.class_tags for _, p in terms]),
        descriptor=None if None in descs else {
            "kind": "mix", "const": const, "terms": [[a, d] for (a, _), d in zip(terms, descs)],
        },
    )


def holder_conjugate_pair(q: ExponentFunction, r: ExponentFunction) -> ExponentFunction:
    """The exponent p with 1/p = 1/q + 1/r pointwise; raises if 1/q + 1/r can exceed 1."""
    return _reciprocal_mix(0.0, [(1.0, q), (1.0, r)])


def harmonic_interpolation(p0: ExponentFunction, p1: ExponentFunction, theta: float) -> ExponentFunction:
    """The exponent p with 1/p = (1 - theta)/p0 + theta/p1 pointwise."""
    if not 0.0 <= theta <= 1.0:
        raise ParameterError(f"theta must lie in [0, 1], got {theta}")
    return _reciprocal_mix(0.0, [(1.0 - theta, p0), (theta, p1)])


def make_constant(c: float) -> ExponentFunction:
    """Constant exponent p(x) = c, usable on either domain."""
    c = float(c)
    if c < 1.0 or not np.isfinite(c):
        raise ParameterError(f"constant exponent must satisfy 1 <= c < inf, got {c}")

    def fn(pts):
        pts = np.asarray(pts, dtype=float)
        shape = pts.shape[:-1] if pts.ndim == 2 else pts.shape
        return np.full(shape, c)

    return ExponentFunction(
        fn=fn,
        p_minus=c,
        p_plus=c,
        domain="both",
        limit_zero=c,
        limit_infty=c,
        class_tags=frozenset({TAG_LH0, TAG_LHINF, TAG_GAUSS_INF, TAG_HALFLINE}),
        descriptor={"kind": "constant", "params": [c]},
    )


def _radius_sq(pts: np.ndarray) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 2:
        return np.sum(pts * pts, axis=-1)
    return pts * pts


def make_gaussian_family(p_inf: float, c: float) -> ExponentFunction:
    """Space exponent p(x) = p_inf + c / (1 + |x|^2); p_minus = p_inf, p_plus = p_inf + c."""
    p_inf, c = float(p_inf), float(c)
    if p_inf < 1.0:
        raise ParameterError(f"limit exponent must be >= 1, got {p_inf}")
    if c < 0.0:
        raise ParameterError(f"amplitude must be >= 0, got {c}")

    def fn(pts):
        return p_inf + c / (1.0 + _radius_sq(pts))

    return ExponentFunction(
        fn=fn,
        p_minus=p_inf,
        p_plus=p_inf + c,
        domain="space",
        limit_zero=None,
        limit_infty=p_inf,
        class_tags=frozenset({TAG_LH0, TAG_LHINF, TAG_GAUSS_INF}),
        descriptor={"kind": "gaussian", "params": [p_inf, c]},
    )


def make_time_family(q0: float, q_inf: float) -> ExponentFunction:
    """Time exponent q(t) = q_inf + (q0 - q_inf) / (1 + t) on (0, inf)."""
    q0, q_inf = float(q0), float(q_inf)
    if q0 < 1.0 or q_inf < 1.0:
        raise ParameterError(f"both endpoint exponents must be >= 1, got q0={q0}, q_inf={q_inf}")

    def fn(ts):
        ts = np.asarray(ts, dtype=float)
        return q_inf + (q0 - q_inf) / (1.0 + ts)

    return ExponentFunction(
        fn=fn,
        p_minus=min(q0, q_inf),
        p_plus=max(q0, q_inf),
        domain="time",
        limit_zero=q0,
        limit_infty=q_inf,
        class_tags=frozenset({TAG_LH0, TAG_LHINF, TAG_HALFLINE}),
        descriptor={"kind": "time", "params": [q0, q_inf]},
    )


_FAMILIES = {
    "constant": (make_constant, 1),
    "gaussian": (make_gaussian_family, 2),
    "time": (make_time_family, 2),
}


def _real(v) -> float:
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
        raise ParameterError(f"exponent descriptor needs finite real numbers, got {v!r}")
    return float(v)


def exponent_from_descriptor(desc: dict) -> ExponentFunction:
    """Rebuild an exponent from its JSON descriptor.

    A built-in family reads ``{"kind": "constant" | "gaussian" | "time",
    "params": [...]}``; a derived exponent reads ``{"kind": "mix", "const": c,
    "terms": [[a_1, desc_1], ...]}`` for 1/p = c + sum_i a_i / p_i.
    """
    kind = desc.get("kind") if isinstance(desc, dict) else None
    if kind == "mix":
        terms = desc.get("terms")
        if not (isinstance(terms, list) and terms
                and all(isinstance(t, list) and len(t) == 2 for t in terms)):
            raise ParameterError(
                f"mix descriptor needs a non-empty list of [a, descriptor] terms, got {terms!r}"
            )
        return _reciprocal_mix(_real(desc.get("const")),
                               [(_real(a), exponent_from_descriptor(d)) for a, d in terms])
    if kind not in _FAMILIES:
        raise ParameterError(f"unknown exponent kind {kind!r} in descriptor {desc!r}")
    make, arity = _FAMILIES[kind]
    params = desc.get("params")
    if not isinstance(params, list) or len(params) != arity:
        raise ParameterError(f"{kind} descriptor takes a list of {arity} parameter(s), got {params!r}")
    return make(*[_real(v) for v in params])


def descriptor_label(desc: dict | None) -> str:
    """Comma-free CSV label of a descriptor; ``custom`` when there is none.

    A built-in family reads ``constant:2.5``; a mix reads as its formula,
    e.g. ``mix(0+0.3/gaussian:2.2:0.4+0.7/constant:1.7)``.
    """
    if desc is None:
        return "custom"
    if desc["kind"] == "mix":
        terms = "".join(f"{a:+g}/{descriptor_label(d)}" for a, d in desc["terms"])
        return f"mix({desc['const']:g}{terms})"
    return ":".join([desc["kind"]] + [format(v, "g") for v in desc["params"]])


@dataclass(frozen=True)
class ClassConstants:
    """Empirical regularity moduli measured on a sample set.

    Fields are suprema over the samples, or None when the needed limit or
    domain does not apply. The distinct constants are reported separately;
    nothing merges them into a single number.
    """

    c_lh0: float | None
    c_lhinf: float | None
    c_gamma: float | None
    a0: float | None
    a_inf: float | None


def estimate_class_constants(p: ExponentFunction, samples) -> ClassConstants:
    """Empirical log-Holder / decay constants for p on the given samples.

    ``samples`` has shape (m, d) for space exponents or (m,) for time
    exponents (positive). Pairwise quantities are O(m^2); keep m moderate.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim not in (1, 2) or len(pts) < 2:
        raise ParameterError("need at least two sample points")
    if p.is_constant:
        return ClassConstants(0.0, 0.0, 0.0, 0.0, 0.0)

    vals = p(pts)
    radii = np.sqrt(_radius_sq(pts))

    # pairwise log-Holder modulus at small scales
    diffs = np.abs(vals[:, None] - vals[None, :])
    if pts.ndim == 2:
        dist = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
    else:
        dist = np.abs(pts[:, None] - pts[None, :])
    mask = dist > 0
    c_lh0 = float(np.max(diffs[mask] * np.log(np.e + 1.0 / dist[mask]))) if mask.any() else 0.0

    c_lhinf = None
    c_gamma = None
    if p.limit_infty is not None:
        gap = np.abs(vals - p.limit_infty)
        c_lhinf = float(np.max(gap * np.log(np.e + radii)))
        if p.domain in ("space", "both"):
            c_gamma = float(np.max(gap * radii**2))

    a0 = None
    a_inf = None
    if p.domain in ("time", "both") and pts.ndim == 1:
        if p.limit_zero is not None:
            small = pts[(pts > 0) & (pts <= 0.5)]
            if small.size:
                a0 = float(np.max(np.abs(p(small) - p.limit_zero) * np.log(1.0 / small)))
        if p.limit_infty is not None:
            large = pts[pts >= 2.0]
            if large.size:
                a_inf = float(np.max(np.abs(p(large) - p.limit_infty) * np.log(large)))

    return ClassConstants(c_lh0=c_lh0, c_lhinf=c_lhinf, c_gamma=c_gamma, a0=a0, a_inf=a_inf)
