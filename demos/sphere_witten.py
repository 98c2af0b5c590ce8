"""Monopole spectrum on the sphere: the heat-weighted count is pinned to the
charge at every temperature because the nonzero levels cancel in pairs; only
the truncation tail (reported next to each value) limits the statement."""

from diracindex import (sphere_monopole_fixture, sphere_tail_bound,
                        witten_index, zero_mode_asymmetry)

K_MAX = 30

for q in range(-2, 3):
    system = sphere_monopole_fixture(q, K_MAX)
    asym = zero_mode_asymmetry(system)
    print(f"q={q:+d}  zero-mode asymmetry {asym:+d}  modes {len(system.eigenvalues)}")
    for tau in (0.5, 1.0, 2.0, 5.0):
        w = witten_index(system, tau)
        tail = sphere_tail_bound(q, K_MAX, tau)
        print(f"   tau={tau:<4}  witten {w:+.15f}   tail bound {tail:.2e}")
