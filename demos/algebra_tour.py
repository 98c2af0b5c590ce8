"""
Tour of the graded algebra layer
================================

Wedge products, the metric product, traces, and the grade-scaling map that
connects the two, on a 4-generator algebra.
"""

import numpy as np

from diracindex import (AlgebraContext, CLIFFORD, chirality, clifford_mul,
                        clifford_trace, grade_project, phi_eps, phi_eps_inv,
                        supertrace, wedge)

ctx = AlgebraContext(4)
e1, e2, e3, e4 = (ctx.generator(k) for k in (1, 2, 3, 4))

# wedge products anticommute and kill repeated factors
area = wedge(e1, e2)
print("e1 ^ e2          =", area)
print("e2 ^ e1          =", wedge(e2, e1))
print("(e1+e2)^(e1+e2)  =", wedge(e1 + e2, e1 + e2))

vol = wedge(area, wedge(e3, e4))
print("volume element   =", vol)

# the metric twins square to -1 and anticommute
g1, g2 = ctx.generator(1, CLIFFORD), ctx.generator(2, CLIFFORD)
print("\ng1 * g1 =", clifford_mul(g1, g1))
print("g1 g2 + g2 g1 =", clifford_mul(g1, g2) + clifford_mul(g2, g1))

# traces: the identity carries the full 2^n, every proper blade drops out
print("tr 1           =", clifford_trace(ctx.scalar(1.0, CLIFFORD)))
print("tr g1          =", clifford_trace(g1))
gamma = chirality(ctx)
print("chirality^2    =", clifford_mul(gamma, gamma))
print("supertrace of chirality =", supertrace(gamma))

# grade scaling: products converge to wedges as eps -> 0, defect ~ eps^2
rng = np.random.default_rng(3)
terms = lambda: ctx.scalar(rng.uniform(-1, 1)) + e1 * rng.uniform(-1, 1) \
    + wedge(e1, e3) * rng.uniform(-1, 1) + wedge(e2, e4) * rng.uniform(-1, 1)
xi, eta = terms(), terms()
print("\n eps      defect vs wedge")
for eps in (1e-1, 1e-2, 1e-3):
    prod = clifford_mul(phi_eps(xi, eps), phi_eps(eta, eps))
    defect = (phi_eps_inv(prod, eps) - wedge(xi, eta)).max_norm()
    print(f"{eps:8.0e}  {defect:.6e}")
print("(each step of 10x in eps drops the defect by ~100x)")

print("\ngrade pieces of xi:", {r: str(grade_project(xi, r)) for r in xi.grades()})
