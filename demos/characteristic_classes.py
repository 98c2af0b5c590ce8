# Characteristic series from curvature files: the genus of a two-block
# curvature and the character of a constant-flux line bundle.

from pathlib import Path

import numpy as np

from diracindex import (a_hat, chern_character, index_density, load_curvature,
                        pretty_print, read_curvature_file, zero_riemann,
                        AlgebraContext)

HERE = Path(__file__).resolve().parent

# flat space first: the genus collapses to 1
flat = a_hat(zero_riemann(AlgebraContext(4)))
print("flat genus:", pretty_print(flat))

# two-block formal curvature in dimension 4
cf = read_curvature_file(HERE / "curvature" / "two_blocks.json")
riemann, _ = load_curvature(cf)
genus = a_hat(riemann)
print("\ntwo-block genus:", pretty_print(genus))

# hand value for the degree-4 coefficient: -p1/24 with
# p1 = (2*0.5*0.25 + 2*0.3*(-0.2)) / (2 pi)^2
want = -(0.25 - 0.12) / (24.0 * (2 * np.pi) ** 2)
got = genus.coefficient(1, 2, 3, 4)
print(f"degree-4 coefficient {got.real:.12e}  (hand value {want:.12e})")

# the torus flux file carries a volume, so the character integrates to the
# integer flux
cf = read_curvature_file(HERE / "curvature" / "torus_flux.json")
_, twist = load_curvature(cf)
ch = chern_character(twist)
print("\nflux character:", pretty_print(ch))
top = ch.coefficient(1, 2)
print("integral over the torus:", (top * cf.metadata["volume"]).real)

# with no tangent curvature the density is just the character's top part
dens = index_density(None, twist)
print("index density:", pretty_print(dens))
