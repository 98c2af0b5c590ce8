"""Cartesian-box reference route for the oscillator generating function.

The package truncates the two oscillator modes in circular modes and keeps
only the L = 0 block.  This route truncates each Cartesian mode to
m < cutoff instead.  The box breaks the rotation symmetry, so it converges
only like cutoff**-2 (2.9e-4 to 4.6e-4 at cutoff 60 for y in [0.5, 2]) and
needs a dense eigensolve of size cutoff**2 / 2; it is the independent
reference the circular route is tested against.
"""

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def _ladder_blocks(cutoff):
    # q is real symmetric tridiagonal, p = i b with b real antisymmetric,
    # kq is the mode-2 position operator after the diag(i^m) rotation: q2 -> -i kq
    v = np.sqrt(np.arange(1, cutoff) / 2.0)
    hi = (np.arange(cutoff - 1), np.arange(1, cutoff))
    lo = (np.arange(1, cutoff), np.arange(cutoff - 1))
    q = np.zeros((cutoff, cutoff))
    q[hi] = v
    q[lo] = v
    b = np.zeros((cutoff, cutoff))
    b[lo] = v
    b[hi] = -v
    return q, b


def _origin_profile(cutoff):
    # harmonic eigenfunction values at the origin: pi**-1/4, 0, then the
    # two-step recurrence; decays like m**-1/4, which is what limits the
    # cutoff convergence rate of the Cartesian-box reference route
    w = np.zeros(cutoff)
    w[0] = math.pi**-0.25
    for m in range(2, cutoff, 2):
        w[m] = -w[m - 2] * math.sqrt((m - 1) / m)
    return w


def _matrix_element_reference(y, cutoff, swap_modes=False):
    # Cartesian-box reference route (m1, m2 < cutoff): the literal
    # complex-arithmetic construction, the cross-check for the real-parity
    # reduction below
    q, b = _ladder_blocks(cutoff)
    eye = np.eye(cutoff)
    q1 = np.kron(q, eye).astype(complex)
    q2 = np.kron(eye, q).astype(complex)
    p1 = 1j * np.kron(b, eye)
    p2 = 1j * np.kron(eye, b)
    if swap_modes:
        u = p1 - 0.5 * y * q2
        v = p2 + 0.5 * y * q1
    else:
        u = p2 - 0.5 * y * q1
        v = p1 + 0.5 * y * q2
    g = -0.5 * (u @ u + v @ v)
    evals, vecs = np.linalg.eigh(g)
    w = np.kron(_origin_profile(cutoff), _origin_profile(cutoff))
    proj = np.abs(vecs.conj().T @ w.astype(complex)) ** 2
    return float(TWO_PI * np.sum(np.exp(evals) * proj))


def _matrix_element_fast(y, cutoff, swap_modes):
    # Rotating mode 2 by diag(i^m) turns p2 into a real symmetric matrix and
    # q2 into -i times a real antisymmetric one, so the exponent splits as
    # g = -(s^2 - k^2)/2 with s symmetric and k antisymmetric, both real.
    # Total parity is conserved and the origin profile is even, so only the
    # even-parity block is ever needed; s and k hop between the parities,
    # which gives the half-size products below.
    q, b = _ladder_blocks(cutoff)
    kq = -b  # rotated q2 is -i kq: upper diagonal +v, lower -v
    eye = np.eye(cutoff)
    if swap_modes:
        s = np.kron(eye, _rotated_p(cutoff)) + 0.5 * y * np.kron(q, eye)
        k = np.kron(b, eye) + 0.5 * y * np.kron(eye, kq)
    else:
        s = np.kron(eye, _rotated_p(cutoff)) - 0.5 * y * np.kron(q, eye)
        k = np.kron(b, eye) - 0.5 * y * np.kron(eye, kq)
    modes = np.arange(cutoff)
    parity = (modes[:, None] + modes[None, :]).ravel() % 2
    even = parity == 0
    odd = ~even
    s_eo = s[even][:, odd]
    s_oe = s[odd][:, even]
    k_eo = k[even][:, odd]
    k_oe = k[odd][:, even]
    del s, k
    g = -0.5 * (s_eo @ s_oe - k_eo @ k_oe)
    g = 0.5 * (g + g.T)
    w = _origin_profile(cutoff)
    w2 = w * np.where(modes % 4 == 2, -1.0, 1.0)  # (-1)^(m/2) from the rotation
    vec = np.kron(w, w2)[even]
    evals, vecs = np.linalg.eigh(g)
    proj = vecs.T @ vec
    return float(TWO_PI * np.sum(np.exp(evals) * proj * proj))


def _rotated_p(cutoff):
    # mode-2 momentum after the diag(i^m) rotation: real symmetric, -v off-diagonal
    v = np.sqrt(np.arange(1, cutoff) / 2.0)
    p = np.zeros((cutoff, cutoff))
    p[np.arange(cutoff - 1), np.arange(1, cutoff)] = -v
    p[np.arange(1, cutoff), np.arange(cutoff - 1)] = -v
    return p
