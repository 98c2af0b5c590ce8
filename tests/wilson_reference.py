"""Dense references for the blocked Wilson kernel.

The package keeps the Wilson operator as its links and assembles only the
symmetry blocks of its kernel.  These helpers form the full (2 N^2)-square
matrices that the blocked route is tested against.
"""

import numpy as np

from diracindex.spectral import ZERO_TOL, _kernel_blocks, _symmetry_basis


def dense_wilson(op, mass=0.0):
    """D - mass as a matrix: the kernel assembly on the identity basis.

    That assembly gives Gamma (D - mass); Gamma is diagonal and squares to 1,
    so flipping its rows once more leaves D - mass.
    """
    identity = _symmetry_basis(op.chirality, ())
    [h] = _kernel_blocks(op.links, op.chirality, identity, mass)
    return op.chirality[:, None] * h


def dense_kernel(op):
    """The kernel Gamma (D - m); Gamma is diagonal, so it only flips rows."""
    return op.chirality[:, None] * dense_wilson(op, op.mass)


def basis_matrices(basis):
    """Each block's columns of the adapted basis as a dense (2 N^2, k) matrix."""
    dim = basis.col.shape[-1]
    out = []
    for b, chi in enumerate(basis.chirality):
        v = np.zeros((dim, len(chi)), dtype=complex)
        np.add.at(v, (np.arange(dim), basis.col[:, b]), basis.coef[:, b])
        out.append(v)
    return out


def overlap_operator(op):
    """The overlap matrix m (1 + Gamma sign(Gamma (D - m))).

    Built from its own eigendecomposition of the full kernel, not the blocks.
    """
    evals, vecs = np.linalg.eigh(dense_kernel(op))
    assert np.min(np.abs(evals)) >= ZERO_TOL, "mass on a spectral-flow crossing"
    gamma_sgn = op.chirality[:, None] * ((vecs * np.sign(evals)) @ vecs.conj().T)
    return op.mass * (np.eye(len(evals)) + gamma_sgn)
