"""Cartesian-box reference route for the oscillator generating function.

The package truncates the two oscillator modes in circular modes and keeps
only the L = 0 block.  This route truncates each Cartesian mode to
m < cutoff instead.  The box breaks the rotation symmetry, so it converges
only like cutoff**-2 (2.9e-4 to 4.6e-4 at cutoff 60 for y in [0.5, 2]) and
needs a dense eigensolve of size about cutoff**2 / 4; it is the independent
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
    # g = -(s^2 - k^2)/2 with s symmetric and k antisymmetric, both real, and
    # each of s, k a sum of two tensor products (mode 1 (x) mode 2).
    # Total parity is conserved and the origin profile is even, so only the
    # even-parity block is needed.  On it the quarter turn, which in this
    # frame is R|m1, m2> = (-1)^((m2 - m1)/2 + m2) |m2, m1>, squares to one
    # and commutes with g, and the origin vector is R-invariant: only the
    # +1 half of R is needed.  Its basis is |m, m> for even m and
    # (|m1, m2> + R|m1, m2>)/sqrt(2) for m1 < m2 of equal parity.
    q, b = _ladder_blocks(cutoff)
    kq = -b  # rotated q2 is -i kq: upper diagonal +v, lower -v
    eye = np.eye(cutoff)
    half = (0.5 if swap_modes else -0.5) * y
    s = [(1.0, eye, _rotated_p(cutoff)), (half, q, eye)]
    k = [(1.0, b, eye), (half, eye, kq)]
    g = ([(-0.5 * c * d, a1 @ b1, a2 @ b2) for c, a1, a2 in s for d, b1, b2 in s]
         + [(0.5 * c * d, a1 @ b1, a2 @ b2) for c, a1, a2 in k for d, b1, b2 in k])

    def g_entries(rows1, rows2, cols1, cols2):
        return sum(c * a1[np.ix_(rows1, cols1)] * a2[np.ix_(rows2, cols2)]
                   for c, a1, a2 in g)

    m1, m2 = np.triu_indices(cutoff)
    keep = ((m1 + m2) % 2 == 0) & ((m1 < m2) | (m1 % 2 == 0))
    m1, m2 = m1[keep], m2[keep]
    sigma = np.where(((m2 - m1) // 2 + m2) % 2 == 0, 1.0, -1.0)
    scale = np.where(m1 == m2, 0.5, math.sqrt(0.5))  # 1 / |(1 + R) u|
    # <a|g|b> = 2 scale_a scale_b (g[u_a, u_b] + sigma_a g[R u_a, u_b]), as R g = g R
    g_plus = 2.0 * np.outer(scale, scale) * (g_entries(m1, m2, m1, m2)
                                             + sigma[:, None] * g_entries(m2, m1, m1, m2))
    g_plus = 0.5 * (g_plus + g_plus.T)
    w = _origin_profile(cutoff)
    w2 = w * np.where(np.arange(cutoff) % 4 == 2, -1.0, 1.0)  # (-1)^(m/2) from the rotation
    vec = scale * (w[m1] * w2[m2] + sigma * w[m2] * w2[m1])
    evals, vecs = np.linalg.eigh(g_plus)
    proj = vecs.T @ vec
    return float(TWO_PI * np.sum(np.exp(evals) * proj * proj))


def _rotated_p(cutoff):
    # mode-2 momentum after the diag(i^m) rotation: real symmetric, -v off-diagonal
    v = np.sqrt(np.arange(1, cutoff) / 2.0)
    p = np.zeros((cutoff, cutoff))
    p[np.arange(cutoff - 1), np.arange(1, cutoff)] = -v
    p[np.arange(1, cutoff), np.arange(cutoff - 1)] = -v
    return p
