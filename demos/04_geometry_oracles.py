"""Geometric identities behind the selection objective, checked numerically.

For exemplars X0 on the unit circle, three quantities coincide:

  * the worst-case exact L1 representation cost over the circle,
  * one over the inradius of conv(+-X0),
  * one over the cosine of the covering radius of +-X0.

Each takes its own route: the worst-case cost is the exact L1 value at each
direction of the covering radius's grid, the least over the pairs of
independent exemplars (a basic solution in R^2 uses at most two), the
inradius is exact, read off the facets of the hull, and the covering radius
is a grid search.  Neither grid search solves a linear program.

Also checks on random instances in R^3 that the Minkowski functional of
conv(+-X0) equals the exact L1 minimization value.  Both solve
min sum(u) subject to [X0, -X0] u = x, u >= 0, so this checks that the two
entry points agree.
"""

import math

import numpy as np

from subspace_exemplars import (
    SymmetricHull,
    covering_radius,
    inradius,
    l1_min_exact,
    minkowski_functional,
    sup_l1_cost_on_sphere,
)

# a symmetric pentagon-like exemplar set on the circle
angles = np.array([0.15, 0.9, 1.7, 2.3, 2.9])
points = np.vstack([np.cos(angles), np.sin(angles)])
hull = SymmetricHull.from_points(points)
res = 1e-3

f_sup = sup_l1_cost_on_sphere(points, res)
r = inradius(hull)
gamma = covering_radius(hull.generators, res)

print("worst-case L1 cost over the circle :", f"{f_sup:.6f}")
print("1 / inradius of conv(+-X0)         :", f"{1 / r:.6f}")
print("1 / cos(covering radius of +-X0)   :", f"{1 / math.cos(gamma):.6f}")
print(f"(covering radius {gamma:.4f} rad, grid resolution {res})")

rng = np.random.default_rng(0)
worst = 0.0
for _ in range(50):
    pts = rng.standard_normal((3, 5))
    pts /= np.linalg.norm(pts, axis=0)
    x = pts @ rng.standard_normal(5)
    x /= np.linalg.norm(x)
    gauge = minkowski_functional(SymmetricHull.from_points(pts), x)
    lp, _ = l1_min_exact(pts, x)
    worst = max(worst, abs(gauge - lp))
print(f"\nmax |gauge - exact L1 value| over 50 random instances: {worst:.2e}")
