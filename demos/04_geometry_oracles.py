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

Also checks, on random instances in R^3, the link between the
self-representation cost and the Minkowski functional (gauge) g of
conv(+-X0): by lasso duality, with nu the dual point of the linear program
that gives g,

  g - ||nu||^2 / (2 lam)  <=  f_lam(x)  <=  g,

and the left side holds with equality once lam is large enough.  The cost
f_lam comes from the lasso solver, the gauge from the linear program, so
the two sides check each other.
"""

import math

import numpy as np

from subspace_exemplars import (
    SymmetricHull,
    covering_radius,
    inradius,
    solve_lasso_batch,
    sup_l1_cost_on_sphere,
)
from subspace_exemplars.geometry import _l1_lp

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
lams = (10.0, 100.0, 1000.0)
worst, tight = 0.0, 0
for _ in range(50):
    pts = rng.standard_normal((3, 5))
    pts /= np.linalg.norm(pts, axis=0)
    x = pts @ rng.standard_normal(5)
    x /= np.linalg.norm(x)
    gauge, _, nu = _l1_lp(pts, x)  # minkowski_functional's LP, with its dual point
    for lam in lams:
        f = solve_lasso_batch(pts, x, lam).objectives[0]
        low = gauge - nu @ nu / (2 * lam)
        worst = max(worst, low - f, f - gauge)
        tight += abs(f - low) <= 1e-12
print(f"\nlargest excess over g - |nu|^2/(2 lam) <= f_lam(x) <= g, 50 instances x {len(lams)} lam: {worst:.2e}")
print(f"left side attained (to 1e-12) in {tight} of {50 * len(lams)}")
