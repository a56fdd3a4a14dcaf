"""Luxemburg norms when the exponent varies over the domain.

With a variable exponent p(x) the norm is the smallest lambda that drags
the modular sum w(x) |f(x)/lambda|^{p(x)} down to one. The demo builds the
two built-in exponent families, computes a few norms, and spot-checks the
inequalities (Hölder, integral Minkowski, duality) that make these norms
usable in the mixed-norm constructions.
"""

import numpy as np

from gvs import (
    conjugate_lower_bound,
    dual_witness,
    gaussian_space,
    holder_check,
    luxemburg_norm,
    make_constant,
    make_context,
    make_gaussian_family,
    make_time_family,
    minkowski_check,
    modular,
    weighted_space,
)

ctx = make_context(dim=1)
space = gaussian_space(ctx)
x = space.points[:, 0]

print("exponent families")
p_const = make_constant(2.0)
p_var = make_gaussian_family(2.0, 1.0)   # p(x) = 2 + 1/(1 + |x|^2), so 2 < p <= 3
q_time = make_time_family(1.5, 3.0)      # q(t) slides from 1.5 at t=0 to 3 at infinity
print(f"  spatial family: range [{p_var.p_minus}, {p_var.p_plus}], tags {sorted(p_var.class_tags)}")
print(f"  time family:    range [{q_time.p_minus}, {q_time.p_plus}]")

print()
print("constant exponents reduce to the classical norm")
f = np.abs(x) + 0.1
classic = float(np.sum(space.weights * f**2.0)) ** 0.5
lux = luxemburg_norm(f, p_const, space)
print(f"  ||f||_2 classical {classic:.12f}   Luxemburg {lux.value:.12f}"
      f"   ({lux.iterations} iterations)")

print()
print("with the variable exponent the modular at the norm equals one")
res = luxemburg_norm(f, p_var, space)
print(f"  ||f||_p(.) = {res.value:.10f},  modular(f / norm) = "
      f"{modular(f / res.value, p_var, space):.12f}")

print()
print("Hölder: ||f g||_p <= 2 ||f||_q(.) ||g||_r(.),  1/p = 1/q + 1/r")
g = np.exp(-0.5 * x * x)
rep = holder_check(f, g, p_var, make_constant(4.0), space)
print(f"  lhs = {rep.lhs:.8f}   rhs = {rep.rhs:.8f}   ratio = {rep.ratio:.4f}   ok = {rep.ok}")

print()
print("duality: pairing against unit-ball candidates recovers the norm up to 2")
candidates = [dual_witness(f, p_var, space),
              np.ones_like(f),
              np.abs(np.sin(3 * x))]
rep = conjugate_lower_bound(f, p_var, space, candidates)
print(f"  norm = {rep.norm:.8f}   best pairing = {rep.best_pairing:.8f}"
      f"   lower ratio = {rep.lower_ratio:.4f}   upper ok = {rep.upper_ok}")

print()
print("integral Minkowski for mixed norms (constant 4)")
rng = np.random.default_rng(3)
inner = weighted_space(np.linspace(0.0, 1.0, 40), np.full(40, 1.0 / 40.0))
F = np.abs(rng.normal(size=(space.size, inner.size))) + 1e-3
rep = minkowski_check(F, p_var, space, inner)
print(f"  ||integral F||_p = {rep.lhs:.8f}   4 integral ||F||_p = {rep.rhs:.8f}"
      f"   ok = {rep.ok}")
