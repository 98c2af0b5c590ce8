"""Characteristic form series and the scalar generating function they share.

The genus of a tangent curvature and the exponential character of a twist
curvature are polynomial identities in curvature entries, so the scalar
coefficient tables (``a_series_coefficients``, ``splitting_oracle``) are kept
in exact rational arithmetic and only the form-valued assembly runs in
floating point.  A form series is an exterior ``MultiVector``: ``series_exp``,
``a_hat``, ``chern_character`` and ``index_density`` take and return them,
and the curvature routines only ever produce even grades.  The routines at
the bottom give the same scalar series a
spectral meaning: a two-oscillator matrix element whose infinite-cutoff limit
is (y/2)/sinh(y/2).

Conventions, fixed once:

* curvature matrices hold exterior 2-forms; the tangent kind is real
  antisymmetric, the twist kind stores the Hermitian combination i*Omega,
  so for a U(1) field strength F the stored entry is F itself,
* 2*pi enters exactly once per class, as the literal scale on the curvature,
* a series cap is a maximum retained form degree, never negative; none, or
  any cap at or above the dimension, keeps the full series.
"""

import cmath
import math
import sys
from collections import Counter
from fractions import Fraction

import numpy as np

from .algebra import EXTERIOR, MultiVector, grade_project, wedge

TWO_PI = 2.0 * math.pi

RIEMANN = "riemann"
TWIST = "twist"

_SERIES_KMAX = 12


# ---------------------------------------------------------------------------
# exact scalar tables


def a_series_coefficients(k_max):
    """Taylor coefficients of (y/2)/sinh(y/2) in powers of y**2, exactly.

    Returns [c_0, ..., c_{k_max}] as Fractions, the series being
    sum_j c_j y**(2j) = 1 - y^2/24 + 7 y^4/5760 - ...  Computed by rational
    series division against sinh(u)/u.  k_max is capped at 12: beyond that no
    downstream consumer exists (form degree would exceed the dimension bound)
    and the factorials get silly.
    """
    if not isinstance(k_max, int) or k_max < 0:
        raise ValueError("k_max must be a nonnegative integer")
    if k_max > _SERIES_KMAX:
        raise ValueError(f"k_max is capped at {_SERIES_KMAX}, got {k_max}")
    # sinh(u)/u = sum_m z^m / (4^m (2m+1)!)  with  z = y^2, u = y/2
    s = [Fraction(1, 4**m * math.factorial(2 * m + 1)) for m in range(k_max + 1)]
    out = [Fraction(1)]
    for j in range(1, k_max + 1):
        out.append(-sum(s[i] * out[j - i] for i in range(1, j + 1)))
    return out


def _log_a_coefficients(k_max):
    # l_k of log A(y) = sum_k l_k y^(2k): -1/24, 1/2880, -1/181440, ...
    b = a_series_coefficients(k_max)
    ell = [Fraction(0)]
    for k in range(1, k_max + 1):
        acc = k * b[k] - sum(i * ell[i] * b[k - i] for i in range(1, k))
        ell.append(acc / k)
    return ell


def _poly_mul(p, q, deg_cap):
    # multiset-keyed polynomials: key = ascending tuple of part indices,
    # degree of a key is its sum
    out = {}
    for ka, ca in p.items():
        for kb, cb in q.items():
            key = tuple(sorted(ka + kb))
            if sum(key) > deg_cap:
                continue
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: c for k, c in out.items() if c}


def splitting_oracle(n, cap):
    """Exact coefficient table of the genus under the splitting principle.

    With formal splitting variables x_1 .. x_n the genus is the product of
    the scalar series at each x_l; this expands it in the elementary
    symmetric polynomials p_j = e_j(x_1^2, ..., x_n^2) (p_j vanishes for
    j > n).  Keys are ascending index tuples naming a monomial, so () is the
    constant 1, (1,) is p_1, (1, 1) is p_1^2; values are Fractions.  `cap`
    bounds the y-degree and p_j carries degree 2j, e.g. n=2, cap=4 gives
    {(): 1, (1,): -1/24, (1, 1): 7/5760, (2,): -1/1440}.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    if not isinstance(cap, int) or cap < 0:
        raise ValueError("cap must be a nonnegative integer")
    zcap = min(cap // 2, _SERIES_KMAX)
    ell = _log_a_coefficients(zcap)
    # power sums of the squared variables in the elementary basis, by
    # Newton's identity with e_j = 0 past j = n
    psums = {}
    for k in range(1, zcap + 1):
        acc = {}
        for i in range(1, min(k - 1, n) + 1):
            sign = Fraction(1 if i % 2 else -1)
            for key, c in _poly_mul({(i,): sign}, psums[k - i], zcap).items():
                acc[key] = acc.get(key, Fraction(0)) + c
        if k <= n:
            acc[(k,)] = acc.get((k,), Fraction(0)) + Fraction((-1) ** (k - 1) * k)
        psums[k] = {key: c for key, c in acc.items() if c}
    exponent = {}
    for k in range(1, zcap + 1):
        for key, c in psums[k].items():
            exponent[key] = exponent.get(key, Fraction(0)) + ell[k] * c
    table = {(): Fraction(1)}
    power = {(): Fraction(1)}
    for m in range(1, zcap + 1):
        power = _poly_mul(power, exponent, zcap)
        if not power:
            break
        inv_fact = Fraction(1, math.factorial(m))
        for key, c in power.items():
            table[key] = table.get(key, Fraction(0)) + c * inv_fact
    return {key: c for key, c in table.items() if c}


# ---------------------------------------------------------------------------
# form series


def _valid_cap(cap):
    # the one rule for a grade cap, the command line's --order included
    cap = int(cap)
    if cap < 0:
        raise ValueError("the grade cap must be at least 0")
    return cap


def _cap(ctx, cap):
    return ctx.dim if cap is None else min(_valid_cap(cap), ctx.dim)


def _truncate(mv, cap):
    if cap >= mv.context.dim:
        return mv
    kept = {m: c for m, c in mv.terms.items() if m.bit_count() <= cap}
    return MultiVector._trusted(mv.context, kept, mv.flavor)


def series_exp(a, cap=None):
    """Exponential of an exterior element, truncated to the cap.

    The scalar part exponentiates numerically; the positive-grade remainder
    is nilpotent, so its sum terminates on its own at grade cap.
    """
    if a.flavor != EXTERIOR:
        raise TypeError("series_exp takes an exterior element")
    ctx = a.context
    cap = _cap(ctx, cap)
    s = a.terms.get(0, 0j)
    nil = _truncate(MultiVector(ctx, {m: c for m, c in a.terms.items() if m}, EXTERIOR),
                    cap)
    out = ctx.scalar(1.0)
    power = ctx.scalar(1.0)
    for m in range(1, cap // 2 + 1):
        power = _truncate(wedge(power, nil), cap)
        if power.is_zero():
            break
        out = out + power / math.factorial(m)
    if s != 0:
        out = out * cmath.exp(s)
    return _truncate(out, cap)


# ---------------------------------------------------------------------------
# curvature matrices


class FormMatrix:
    """Square matrix of 2-form entries, tagged and validated by kind.

    riemann: size equals the context dimension, entries real and
    antisymmetric under index swap.  twist: any size, and for every basis
    blade the matrix of its coefficients obeys the conjugate-transpose rule
    (the entries store i*Omega, so a real diagonal of U(1) field strengths
    passes as-is).
    """

    __slots__ = ("entries", "kind")

    _TOL = 1e-12

    def __init__(self, entries, kind):
        if kind not in (RIEMANN, TWIST):
            raise ValueError(f"unknown curvature kind {kind!r}")
        rows = tuple(tuple(row) for row in entries)
        size = len(rows)
        if size == 0 or any(len(r) != size for r in rows):
            raise ValueError("curvature matrix must be square and nonempty")
        ctx = None
        for row in rows:
            for e in row:
                if not isinstance(e, MultiVector) or e.flavor != EXTERIOR:
                    raise TypeError("entries must be exterior MultiVectors")
                if ctx is None:
                    ctx = e.context
                elif e.context != ctx:
                    raise ValueError("entries from mixed algebra contexts")
                if any(m.bit_count() != 2 for m in e.terms):
                    raise ValueError("entries must be pure 2-forms (or zero)")
        # the kind's rules, checked on the entries' term dicts
        scale = max((e.max_norm() for row in rows for e in row), default=0.0)
        tol = self._TOL * max(1.0, scale)
        if kind == RIEMANN:
            if size != ctx.dim:
                raise ValueError(
                    f"riemann matrix must be {ctx.dim}x{ctx.dim} for this context")
            for i in range(size):
                for j in range(i, size):
                    a, b = rows[i][j].terms, rows[j][i].terms
                    if any(abs(a.get(m, 0) + b.get(m, 0)) > tol for m in a.keys() | b.keys()):
                        raise ValueError(f"riemann matrix not antisymmetric at ({i},{j})")
                    if any(abs(c.imag) > tol for c in a.values()):
                        raise ValueError(f"riemann entries must be real, see ({i},{j})")
        else:
            for i in range(size):
                for j in range(i, size):
                    a, b = rows[i][j].terms, rows[j][i].terms
                    for mask in a.keys() | b.keys():
                        if abs(a.get(mask, 0j) - b.get(mask, 0j).conjugate()) > tol:
                            raise ValueError(
                                f"twist matrix violates the conjugate-transpose rule at ({i},{j})")
        self.entries = rows
        self.kind = kind

    @property
    def size(self):
        return len(self.entries)

    @property
    def context(self):
        return self.entries[0][0].context

    def __repr__(self):
        return f"FormMatrix(kind={self.kind!r}, size={self.size}, dim={self.context.dim})"


def zero_riemann(ctx):
    z = ctx.scalar(0.0)
    return FormMatrix([[z] * ctx.dim for _ in range(ctx.dim)], RIEMANN)


def block_diagonal_riemann(ctx, two_forms):
    """Tangent curvature with [[0, theta_l], [-theta_l, 0]] diagonal blocks."""
    if len(two_forms) != ctx.half:
        raise ValueError(f"need {ctx.half} block parameters for dim {ctx.dim}")
    z = ctx.scalar(0.0)
    entries = [[z] * ctx.dim for _ in range(ctx.dim)]
    for l, theta in enumerate(two_forms):
        entries[2 * l][2 * l + 1] = theta
        entries[2 * l + 1][2 * l] = -theta
    return FormMatrix(entries, RIEMANN)


def _mat_scale(rows, factor):
    return [[e * factor for e in row] for row in rows]


def _operand_ids(rows):
    # an int per nonzero entry, shared by the entries that hold the same masks
    # in the same order with bit-identical coefficients (so a signed zero does
    # not match its opposite), and None per zero entry
    ids = {}
    out = []
    for row in rows:
        keys = [(tuple(e.terms), np.fromiter(e.terms.values(), complex, len(e.terms)).tobytes())
                for e in row]
        out.append([ids.setdefault(key, len(ids)) if key[0] else None for key in keys])
    return out


def _mat_mul(a, b, cap):
    """Product of two square matrices of forms, entries truncated to cap.

    Each distinct (left entry, right entry) product is formed once per call.
    Entries that hold the same masks in the same order with bit-identical
    coefficients count as one operand, and a repeated pair reuses the first
    product, which is kept only until its last use.  Block curvatures
    [[0, theta], [-theta, 0]] repeat each diagonal value of X**2, so every
    wedge of the higher powers comes twice.
    """
    size = len(a)
    left = _operand_ids(a)
    right = left if b is a else _operand_ids(b)
    # the (t, operand ids) of the nonzero products of each entry of the result
    cells = []
    for row_ids in left:
        nonzero = [(t, k) for t, k in enumerate(row_ids) if k is not None]
        cells.append([[(t, (k, right[t][j])) for t, k in nonzero if right[t][j] is not None]
                      for j in range(size)])
    uses = Counter(key for row in cells for cell in row for _, key in cell)
    kept = {}
    out = []
    for i, row_cells in enumerate(cells):
        row = []
        for j, cell in enumerate(row_cells):
            acc = None
            for t, key in cell:
                term = kept.pop(key, None)
                if term is None:
                    term = wedge(a[i][t], b[t][j])
                uses[key] -= 1
                if uses[key]:
                    kept[key] = term
                acc = term if acc is None else acc + term
            if acc is None:
                acc = a[0][0].context.scalar(0.0)
            row.append(_truncate(acc, cap))
        out.append(row)
    return out


def _power_traces(base, kmax, cap):
    """tr(base**k) for k = 1 .. kmax, up to the first zero power."""
    power = base
    for k in range(1, kmax + 1):
        if k > 1:
            power = _mat_mul(power, base, cap)
        if all(e.is_zero() for row in power for e in row):
            return
        yield sum((power[i][i] for i in range(1, len(power))), power[0][0])


def _require_kind(matrix, kind, who):
    if not isinstance(matrix, FormMatrix):
        raise TypeError(f"{who} expects a FormMatrix")
    if matrix.kind != kind:
        raise TypeError(f"{who} expects a {kind} matrix, got {matrix.kind}")


def a_hat(curvature, cap=None):
    """Multiplicative genus exp(sum_k l_k s_k) of a tangent curvature.

    s_k is the k-th power sum of the squared block parameters, extracted as
    s_k = (-1)**k tr(X**(2k)) / 2 with X = curvature / (2 pi).  The sign and
    the half undo exactly what a real antisymmetric matrix does to an even
    power trace (its eigenvalues come in skew pairs +-i x_l, so the raw trace
    doubles the power sum and flips its sign).  With that bookkeeping a
    single [[0, theta], [-theta, 0]] block reproduces the scalar series of
    ``a_series_coefficients`` evaluated at theta/(2 pi), and the general
    expansion matches ``splitting_oracle``: 1 - p1/24 + (7 p1^2 - 4 p2)/5760
    and so on.  The l_k are the exact rational log coefficients of the
    scalar series.
    """
    _require_kind(curvature, RIEMANN, "a_hat")
    ctx = curvature.context
    cap = _cap(ctx, cap)
    exponent = ctx.scalar(0.0)
    kmax = cap // 4  # s_k carries form degree 4k
    if kmax >= 1:
        ell = _log_a_coefficients(kmax)
        x = _mat_scale(curvature.entries, 1.0 / TWO_PI)
        for k, trace in enumerate(_power_traces(_mat_mul(x, x, cap), kmax, cap), 1):
            exponent = exponent + trace * (0.5 if k % 2 == 0 else -0.5) * float(ell[k])
    return series_exp(exponent, cap)


def chern_character(twist, cap=None):
    """Exponential character sum_k tr[(F / 2 pi)**k] / k! of a twist.

    The grade-0 part is the rank; the whole series is additive across the
    blocks of a block-diagonal twist.  Coefficients come out real for valid
    (conjugate-transpose symmetric) inputs.
    """
    _require_kind(twist, TWIST, "chern_character")
    ctx = twist.context
    cap = _cap(ctx, cap)
    out = ctx.scalar(float(twist.size))
    y = _mat_scale(twist.entries, 1.0 / TWO_PI)
    for k, trace in enumerate(_power_traces(y, cap // 2, cap), 1):
        out = out + trace / math.factorial(k)
    return _truncate(out, cap)


def index_density(tangent, twist, cap=None):
    """Top-grade part of genus(tangent) ^ character(twist).

    Either argument may be None: a missing tangent curvature means flat
    space (genus 1), a missing twist means the trivial line (character 1).
    """
    if tangent is None and twist is None:
        raise ValueError("need at least one curvature matrix")
    ctx = (tangent if tangent is not None else twist).context
    cap = _cap(ctx, cap)
    genus = a_hat(tangent, cap) if tangent is not None else ctx.scalar(1.0)
    char = chern_character(twist, cap) if twist is not None else ctx.scalar(1.0)
    return grade_project(_truncate(wedge(genus, char), cap), ctx.dim)


# ---------------------------------------------------------------------------
# scalar generating function


def a_closed_form(y):
    """(y/2)/sinh(y/2); even in y and 1 at the origin.  y must be finite."""
    y = _check_y(y, positive=False)
    if abs(y) < 1e-4:
        z = y * y
        return 1.0 + z * (-1.0 / 24.0 + z * (7.0 / 5760.0))
    try:
        return (y / 2.0) / math.sinh(y / 2.0)
    except OverflowError:
        # sinh overflows past |y| of about 1420, where the ratio is
        # |y| e^{-|y|/2} / (1 - e^{-|y|}) and the denominator rounds to 1
        return abs(y) * math.exp(-abs(y) / 2.0)


def _check_y(y, positive=True):
    # y as a float: NaN fails the first test, and so does an int past the
    # float range, which float() would overflow on
    if not abs(y) <= sys.float_info.max:
        raise ValueError("y must be finite")
    if positive and y <= 0:
        raise ValueError("y must be positive")
    return float(y)


def partition_sum(y, m_max):
    """Truncated ladder sum y e^{-y/2} sum_{m=0}^{M} e^{-my}.

    Monotonically increasing in M toward a_closed_form(y); the omitted tail
    is the exact geometric remainder y e^{-y/2} e^{-(M+1)y} / (1 - e^{-y}).
    """
    y = _check_y(y)
    if not isinstance(m_max, int) or m_max < 0:
        raise ValueError("m_max must be a nonnegative integer")
    return float(y * math.exp(-y / 2.0) * np.exp(-y * np.arange(m_max + 1)).sum())


def qho_generating_function(y, cutoff):
    """Two-oscillator matrix element converging to (y/2)/sinh(y/2).

    The exponent g = -(1/2)[(p2 - (y/2) q1)^2 + (p1 + (y/2) q2)^2] of two
    unit-frequency modes expands to -(1/2)[p^2 + (y/2)^2 q^2] + (y/2) L with
    L = q1 p2 - q2 p1.  The value is e^g contracted with the normalized origin
    position profile of both modes, times 2 pi.  That profile is rotation
    invariant (L = 0), so only the L = 0 sector of g contributes.

    cutoff counts quanta per mode: the basis is truncated in the circular
    modes to n+, n- < cutoff (cutoff**2 states), whose L = 0 sector is the
    cutoff states |n, n>.  With w = y/2, g restricted to it is tridiagonal:
    -(1/2)(1 + w^2)(2n + 1) on the diagonal and -(1/2)(w^2 - 1)(n + 1)
    between n and n + 1; the origin amplitudes are (-1)^n / sqrt(pi).  One
    symmetric eigendecomposition of size cutoff exponentiates it.  The
    truncation keeps the rotation symmetry, so the error falls geometrically
    with the cutoff: at cutoff 60 it is 2.2e-7 for y = 0.5 and roundoff
    (1e-16) for y = 1 and 2.  At y = 2, w equals the basis frequency, the
    block is diagonal and the value is exact at every cutoff.  The rate
    degrades as y -> 0 (1.6e-4 at y = 0.1, cutoff 60).

    A Cartesian box m1, m2 < cutoff breaks the rotation symmetry and
    converges only like cutoff**-2; the tests keep it as the reference.
    """
    y = _check_y(y)
    if not isinstance(cutoff, int) or cutoff < 20:
        raise ValueError("cutoff must be an integer >= 20")
    # the L = 0 block of the exponent in circular modes: states |n, n>,
    # n < cutoff, tridiagonal, origin amplitudes (-1)^n / sqrt(pi)
    w2 = 0.25 * y * y
    n = np.arange(cutoff)
    g = np.diag(-0.5 * (1.0 + w2) * (2 * n + 1))
    hop = -0.5 * (w2 - 1.0) * n[1:]
    g[n[:-1], n[1:]] = hop
    g[n[1:], n[:-1]] = hop
    amp = np.where(n % 2 == 0, 1.0, -1.0) / math.sqrt(math.pi)
    evals, vecs = np.linalg.eigh(g)
    proj = vecs.T @ amp
    return float(TWO_PI * np.sum(np.exp(evals) * proj * proj))

