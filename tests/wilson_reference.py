"""Dense references for the blocked Wilson kernel.

The package keeps the Wilson operator as its links and assembles only the
symmetry blocks of its kernel.  These helpers form the full (2 N^2)-square
matrices that the blocked route is tested against.
"""

import numpy as np

from diracindex.spectral import ZERO_TOL, _wilson_block


def dense_wilson(op, mass=0.0):
    """D - mass as a matrix: the block assembly on the identity basis."""
    dim = len(op.chirality)
    return _wilson_block(op.links, np.arange(dim)[:, None],
                         np.ones((dim, 1), dtype=complex), mass)


def dense_kernel(op):
    """The kernel Gamma (D - m); Gamma is diagonal, so it only flips rows."""
    return op.chirality[:, None] * dense_wilson(op, op.mass)


def overlap_operator(op):
    """The overlap matrix m (1 + Gamma sign(Gamma (D - m))).

    Built from its own eigendecomposition of the full kernel, not the blocks.
    """
    evals, vecs = np.linalg.eigh(dense_kernel(op))
    assert np.min(np.abs(evals)) >= ZERO_TOL, "mass on a spectral-flow crossing"
    gamma_sgn = op.chirality[:, None] * ((vecs * np.sign(evals)) @ vecs.conj().T)
    return op.mass * (np.eye(len(evals)) + gamma_sgn)
