"""Monopole spectrum on the sphere: the heat-weighted count is pinned to the
charge at every temperature because the nonzero levels cancel in pairs; each
value misses the charge by summation roundoff only, printed next to modes *
machine-epsilon."""

import sys

from diracindex import sphere_monopole_fixture, witten_index, zero_mode_asymmetry

K_MAX = 30

for q in range(-2, 3):
    system = sphere_monopole_fixture(q, K_MAX)
    asym = zero_mode_asymmetry(system)
    modes = len(system.eigenvalues)
    roundoff = modes * sys.float_info.epsilon
    print(f"q={q:+d}  zero-mode asymmetry {asym:+d}  modes {modes}")
    for tau in (0.5, 1.0, 2.0, 5.0):
        w = witten_index(system, tau)
        print(f"   tau={tau:<4}  witten {w:+.15f}   |W - q| {abs(w - q):.2e}"
              f"   modes * eps {roundoff:.2e}")
