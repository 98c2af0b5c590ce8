"""Spectral side of the index: chirality-graded heat sums, a constant-flux
torus background with its Wilson operator and the overlap construction on
it, and an exactly solvable monopole fixture.

A graded spectrum (SpectralSystem) is two arrays of one length, the
eigenvalues and their chiralities; an eigenvalue at or below ZERO_TOL is a
zero mode, everywhere.

Three integers are computed for a lattice background and asserted equal by
the verification layer: the plaquette-angle flux, the spectral-flow count of
the Wilson-overlap construction, and the zero-mode chirality asymmetry of
the squared overlap spectrum.  Only flux = overlap tests the field: the
asymmetry equals the overlap count and the heat spectrum is paired (its sums
flat in tau to roundoff) for any links, as heat_kernel_system shows.

Both lattice counts read one eigendecomposition of H = Gamma (D - m): the
overlap count is -(1/2) tr sign(H), the squared overlap spectrum comes off
the chirality blocks of sign(H), each mode's chirality exact.  H is
diagonalised in a basis adapted to the lattice symmetries the field has up
to a gauge transformation, each solved from the links.  The quarter turn
(x, y) -> (-y, x), normalised so that its fourth power is 1, splits H into
four blocks of about N^2 / 2 by its eigenvalues 1, i, -1, -i (its square is
the inversion (x, y) -> (-x, -y), which alone splits H into two blocks of
N^2); the x-reflection combined with complex conjugation maps each block
to itself and makes it real symmetric.  Every constant-flux background has
all three, so a case costs four real eigensolves of about N^2 / 2; a field
with none keeps one complex block of size 2 N^2.  Each block is joined
from the nonzeros of D - m (_kernel_blocks), and the blocks are streamed
(WilsonDiracOperator): a case holds one at a time, keeps only eigenvalues
and forms no (2 N^2)-square or (2 N^2, k) array.

Numerical-ambiguity failures (a sign function fed a near-zero eigenvalue,
a collapsed zero/nonzero gap) raise AmbiguousSpectrumError rather than guess.
"""

import functools
import math
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

ZERO_TOL = 1e-10
CLUSTER_RELATIVE_GAP = 1e-6
GAP_RATIO_MIN = 1e3

_SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Chirality orientation is a convention; this assignment (Gamma = +i g1 g2)
# is the one under which the overlap count of the constant-flux background
# comes out equal to the plaquette flux, not its negative.
GAMMA1 = _SIGMA2
GAMMA2 = _SIGMA1
GAMMA5 = _SIGMA3


class AmbiguousSpectrumError(RuntimeError):
    """A spectral quantity cannot be read off unambiguously."""


# ---------------------------------------------------------------------------
# graded spectra


@dataclass(frozen=True, eq=False)
class SpectralSystem:
    """Chirality-graded nonnegative spectrum, as two arrays of one length.

    Mode k has eigenvalue eigenvalues[k] and chirality chiralities[k], +-1.
    Both arrays are read-only copies, in the order given.  Eigenvalues are
    squared-operator values, so the heat weight is e^(-tau lambda/2).
    Eigenvalues must be finite and nonnegative; anything above -1e-8 is
    clamped to zero, anything below is a positivity violation and is
    rejected.
    """

    eigenvalues: np.ndarray
    chiralities: np.ndarray
    source: str = "generic"

    def __post_init__(self):
        lam = np.array(self.eigenvalues, dtype=float)
        chi = np.array(self.chiralities, dtype=float)
        if lam.ndim != 1 or lam.shape != chi.shape:
            raise ValueError(f"eigenvalues and chiralities need one length, got "
                             f"shapes {lam.shape} and {chi.shape}")
        if not np.all(np.abs(chi) == 1):
            raise ValueError("chiralities must be +-1")
        if not np.all(np.isfinite(lam)):
            raise ValueError("eigenvalues must be finite")
        if np.any(lam < -1e-8):
            raise ValueError(f"eigenvalue {lam.min()} violates positivity")
        lam = np.where(lam < 0.0, 0.0, lam)
        chi = chi.astype(int)
        for name, values in (("eigenvalues", lam), ("chiralities", chi)):
            values.setflags(write=False)
            object.__setattr__(self, name, values)


class PairViolation(NamedTuple):
    lam_min: float
    lam_max: float
    n_plus: int
    n_minus: int


def witten_index(system, tau):
    """Chirality-weighted heat sum of e^(-tau lambda/2) at inverse temperature tau."""
    # NaN fails the test, and so does an int past the float range
    if not 0 < tau <= sys.float_info.max:
        raise ValueError("tau must be positive and finite")
    weights = np.exp(-tau * 0.5 * system.eigenvalues)
    return float(np.sum(system.chiralities * weights))


def zero_mode_asymmetry(system):
    """Signed count of zero modes, n_plus - n_minus at or below ZERO_TOL.

    Refuses (AmbiguousSpectrumError) when the smallest nonzero eigenvalue
    sits within a factor 1e3 of the tolerance: such a spectrum has no clean
    zero/nonzero split and the count would depend on the tolerance choice.
    """
    zero = system.eigenvalues <= ZERO_TOL
    nonzero = system.eigenvalues[~zero]
    if nonzero.size and nonzero.min() < ZERO_TOL * GAP_RATIO_MIN:
        raise AmbiguousSpectrumError(
            f"smallest nonzero eigenvalue {nonzero.min():.3e} is within 1e3 of "
            f"the zero tolerance {ZERO_TOL:.1e}")
    return int(np.sum(system.chiralities[zero]))


def pair_check(system):
    """Per-cluster chirality balance of the nonzero spectrum.

    Degenerate clusters are formed by relative gap 1e-6 after the zero modes
    (at or below ZERO_TOL) are set aside.  Returns the list of unbalanced
    clusters as PairViolation records; an empty list is the supersymmetric-
    pairing statement.  On a lattice spectrum it holds for any links
    (heat_kernel_system), so a violation there means a failed eigensolve.
    """
    nonzero = system.eigenvalues > ZERO_TOL
    order = np.argsort(system.eigenvalues[nonzero])
    lam = system.eigenvalues[nonzero][order]
    plus = (system.chiralities[nonzero][order] > 0).astype(int)
    # a cluster starts wherever the gap below a level exceeds its relative width
    starts = np.flatnonzero(np.diff(lam, prepend=-np.inf) > CLUSTER_RELATIVE_GAP * lam)
    ends = np.append(starts[1:], lam.size)
    n_plus = np.add.reduceat(plus, starts)
    n_minus = ends - starts - n_plus
    return [PairViolation(float(lam[starts[i]]), float(lam[ends[i] - 1]),
                          int(n_plus[i]), int(n_minus[i]))
            for i in np.flatnonzero(n_plus != n_minus)]


# ---------------------------------------------------------------------------
# monopole fixture


def _check_sphere_args(q, k_max):
    if not isinstance(q, int):
        raise ValueError("q must be an integer")
    if not isinstance(k_max, int) or k_max < 1:
        raise ValueError("k_max must be an integer >= 1")


def sphere_monopole_fixture(q, k_max):
    """Exactly paired monopole spectrum on the round sphere, written from its closed form.

    |q| zero modes, all of chirality sign(q); level k = 1..k_max sits at
    lambda = k (k + |q|) with multiplicity 2k + |q| in each chirality sector,
    so every nonzero level is exactly balanced.  At q = 0 this reduces to the
    round-sphere spectrum (multiplicity 2k per sector, no zero modes).  No
    operator is built or diagonalised: the spectral side of a sphere case is
    this fixture, not a computation.
    """
    _check_sphere_args(q, k_max)
    # the zero modes, then each level's + sector followed by its - sector
    k = np.repeat(np.arange(1, k_max + 1), 2)
    mult = 2 * k + abs(q)
    eigenvalues = np.concatenate([np.zeros(abs(q)), np.repeat(k * (k + abs(q)), mult)])
    chiralities = np.concatenate([np.full(abs(q), 1 if q > 0 else -1),
                                  np.repeat(np.tile([1, -1], k_max), mult)])
    return SpectralSystem(eigenvalues, chiralities, source="sphere")


def sphere_case_bytes(q, k_max):
    """Peak bytes of a sphere case, 60 a fixture mode.

    The fixture keeps its eigenvalues and chiralities (16 bytes a mode), and
    pair_check sorts copies of both on top (42); tracemalloc reads 58.0 a
    mode, and the rounding up covers the per-level arrays.  The fixture has
    |q| + 2 k_max (k_max + 1 + |q|) modes; it refuses what the fixture does.
    """
    _check_sphere_args(q, k_max)
    return 60 * (abs(q) + 2 * k_max * (k_max + 1 + abs(q)))


# ---------------------------------------------------------------------------
# constant-flux torus background


@dataclass(frozen=True)
class LatticeGaugeField:
    """U(1) link phases on a periodic N x N lattice.

    links[mu, x, y] is the phase on the link leaving site (x, y) in direction
    mu (0 = x, 1 = y).  Unit modulus is enforced; the flux integer is carried
    for labeling only, the measured flux always comes from the plaquettes.
    """

    links: np.ndarray
    flux_quantum: int = 0

    def __post_init__(self):
        links = np.asarray(self.links, dtype=complex)
        if links.ndim != 3 or links.shape[0] != 2 or links.shape[1] != links.shape[2]:
            raise ValueError("links must have shape (2, N, N)")
        _check_lattice_size(links.shape[1])
        # NaN fails the test
        if not np.max(np.abs(np.abs(links) - 1.0)) <= 1e-12:
            raise ValueError("link phases must have unit modulus")
        links = links.copy()
        links.setflags(write=False)
        object.__setattr__(self, "links", links)

    @property
    def size(self):
        return self.links.shape[1]


def _check_lattice_size(size):
    if not isinstance(size, int) or size < 4:
        raise ValueError("lattice size must be an integer >= 4")


def build_torus_gauge(size, q):
    """Constant-flux background: every plaquette carries exactly 2 pi q / N^2.

    The y links grow linearly in x, U_y(x, y) = exp(i phi x); the last column
    of x links closes the cycle, U_x(N-1, y) = exp(-i phi N y).  The half-
    filling bound |q| < N^2/2 keeps every plaquette angle on the principal
    branch, so the measured flux is exact.
    """
    _check_lattice_size(size)
    if not isinstance(q, int):
        raise ValueError("flux quantum must be an integer")
    if abs(q) >= size * size / 2:
        raise ValueError(f"|q| = {abs(q)} too large for a {size}x{size} lattice "
                         f"(need |q| < {size * size / 2:g})")
    phi = TWO_PI * q / size**2
    x = np.arange(size)[:, None]
    y = np.arange(size)[None, :]
    ux = np.ones((size, size), dtype=complex)
    ux[size - 1, :] = np.exp(-1j * phi * size * y[0])
    uy = np.exp(1j * phi * x) * np.ones((size, size))
    return LatticeGaugeField(np.stack([ux, uy]), flux_quantum=q)


def plaquette_angles(gauge):
    """Principal-branch angle of every plaquette holonomy, shape (N, N)."""
    ux, uy = gauge.links
    hol = ux * np.roll(uy, -1, axis=0) * np.conj(np.roll(ux, -1, axis=1)) * np.conj(uy)
    return np.angle(hol)


def topological_flux(gauge):
    """Total plaquette angle over 2 pi, rounded to the nearest integer.

    The sum is an integer for any unit links: every link enters two
    plaquettes with opposite orientation, so the holonomies multiply to 1
    and the principal angles add to a multiple of 2 pi.  Only float
    roundoff is rounded away.
    """
    return round(float(plaquette_angles(gauge).sum() / TWO_PI))


def gauge_transform(gauge, site_phases):
    """Rephase the links, U'_mu(x) = alpha(x) U_mu(x) conj(alpha(x + mu)).

    site_phases may be unit complex factors or real angles, shape (N, N).
    Every plaquette holonomy is exactly unchanged, hence so is everything
    built from the field.
    """
    alpha = np.asarray(site_phases)
    if alpha.shape != (gauge.size, gauge.size):
        raise ValueError(f"site phases must have shape ({gauge.size}, {gauge.size})")
    # NaN fails both tests
    if not np.iscomplexobj(alpha):
        if not np.max(np.abs(alpha)) <= sys.float_info.max:
            raise ValueError("site angles must be finite")
        alpha = np.exp(1j * alpha)
    elif not np.max(np.abs(np.abs(alpha) - 1.0)) <= 1e-12:
        raise ValueError("complex site phases must have unit modulus")
    ux, uy = gauge.links
    new_ux = alpha * ux * np.conj(np.roll(alpha, -1, axis=0))
    new_uy = alpha * uy * np.conj(np.roll(alpha, -1, axis=1))
    return LatticeGaugeField(np.stack([new_ux, new_uy]), gauge.flux_quantum)


def random_gauge_transform(gauge, rng):
    """Gauge transform by independent uniform site angles from rng.

    The N^2 angles are scalar rng.uniform(0, 2 pi) draws in row-major order,
    so rng may be a random.Random or a numpy Generator; a Generator gives
    the same angles as its vectorised uniform(0, 2 pi, (N, N)).
    """
    n = gauge.size
    return gauge_transform(gauge, [[rng.uniform(0.0, TWO_PI) for _ in range(n)]
                                   for _ in range(n)])


# ---------------------------------------------------------------------------
# Wilson and overlap operators


class _Symmetry(NamedTuple):
    # S e_r = weight[r] e_perm[r] on the 2 N^2 rows (site-major, spinor
    # innermost), with S^order = 1 for the order of its site map; an
    # antiunitary S conjugates the coefficients first
    site_map: tuple
    perm: np.ndarray
    weight: np.ndarray
    antiunitary: bool


# site maps s -> M s with their order: the identity, the inversion
# (x, y) -> (-x, -y), the x-reflection (x, y) -> (-x, y) and the quarter
# turn (x, y) -> (-y, x)
_IDENTITY = (((1, 0), (0, 1)), 1)
_INVERSION = (((-1, 0), (0, -1)), 2)
_X_REFLECTION = (((-1, 0), (0, 1)), 2)
_QUARTER_TURN = (((0, -1), (1, 0)), 4)


def _read_only(*arrays):
    # the index tables below are cached per lattice size and shared
    for a in arrays:
        if a is not None:
            a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=32)
def _site_map_tables(size, site_map):
    """Index tables of a site map sigma on a size x size lattice.

    perm sends each of the 2 N^2 rows to its image row.  M sends each
    direction mu to +-nu, so the link leaving s in direction mu goes to the
    nu link leaving sigma(s), or, where M reverses it, to the one leaving
    sigma(s) - nu, run backwards; source[mu] indexes that link in the
    flattened links, and reverse[mu] says whether it is run backwards.
    """
    (m, _) = site_map
    x, y = np.indices((size, size))
    sx = (m[0][0] * x + m[0][1] * y) % size
    sy = (m[1][0] * x + m[1][1] * y) % size
    source, reverse = [], []
    for mu in range(2):
        nu = 0 if m[0][mu] else 1
        back = m[nu][mu] < 0
        source.append(nu * size * size + (sx - (back and nu == 0)) % size * size
                      + (sy - (back and nu == 1)) % size)
        reverse.append(back)
    perm = (2 * (sx * size + sy).reshape(-1, 1) + np.arange(2)).ravel()
    return _read_only(perm, np.stack(source)) + (tuple(reverse),)


def _lattice_symmetry(links, site_map, antiunitary, spinor):
    """The site map s -> sigma(s) as a symmetry of the field, or None.

    The link leaving s in direction mu goes to one at sigma(s)
    (_site_map_tables); a link run backwards is conj U, and an antiunitary
    map conjugates once more.  The field is symmetric when these image links
    are a gauge transform of its own, image_mu(s) = alpha(s) U_mu(s) conj
    alpha(s + mu).  alpha is solved from the links by cumulative products
    down the column x = 0, then along x, and accepted only if every link
    matches to 1e-12.  spinor is the map's diagonal spinor factor, the one
    that carries each hop's r - gamma_mu into the image hop's.
    """
    ux, uy = links
    n = ux.shape[0]
    perm, source, reverse = _site_map_tables(n, site_map)
    image_x, image_y = (image.conj() if back != antiunitary else image
                        for image, back in zip(links.ravel()[source], reverse))
    # alpha(s + mu) = alpha(s) U_mu(s) conj image_mu(s)
    step_x = ux * image_x.conj()
    step_y = uy * image_y.conj()
    alpha = np.ones((n, n), dtype=complex)
    alpha[0, 1:] = np.cumprod(step_y[0, :-1])
    alpha[1:] = alpha[0] * np.cumprod(step_x[:-1], axis=0)
    for axis, u, image in ((0, ux, image_x), (1, uy, image_y)):
        moved = alpha * u * np.roll(alpha, -1, axis=axis).conj()
        if np.max(np.abs(moved - image)) > 1e-12:
            return None
    phase = alpha.conj() if antiunitary else alpha
    return _Symmetry(site_map=site_map, perm=perm,
                     weight=(phase.reshape(-1, 1) * spinor).ravel(),
                     antiunitary=antiunitary)


@functools.lru_cache(maxsize=32)
def _orbit_tables(size, unitary, antiunitary):
    """The rows' orbits under a unitary site map of order k, and their images.

    reps are the rows that lead their orbit, members[j, :length[j]] is the
    orbit of reps[j] in map order (padded by repeats to k; on masks the
    orbit itself), owner[r] the orbit holding row r; the antiunitary site
    map, if any, sends reps[j] into orbit image[j] (None without one).
    """
    dim = 2 * size * size
    perm = _site_map_tables(size, unitary)[0]
    orbit = [np.arange(dim)]
    for _ in range(unitary[1]):
        orbit.append(perm[orbit[-1]])
    orbit = np.stack(orbit, axis=1)
    reps = np.flatnonzero(orbit.min(axis=1) == np.arange(dim))
    length = np.argmax(orbit[reps, 1:] == reps[:, None], axis=1) + 1
    members = orbit[reps, :-1]
    on = np.arange(unitary[1]) < length[:, None]
    owner = np.empty(dim, dtype=int)
    owner[members[on]] = on.nonzero()[0]
    image = owner[_site_map_tables(size, antiunitary)[0][reps]] if antiunitary else None
    return _read_only(reps, members, length, on, owner, image)


class _Basis(NamedTuple):
    # the adapted basis V row by row: row r has coefficient coef[e, b, r] in
    # column col[e, b, r] of block b, for each of its (one or two) slots e; an
    # unused slot has coefficient 0.  chirality[b] is Gamma on block b's columns
    col: np.ndarray
    coef: np.ndarray
    chirality: tuple
    real: bool


_I_POWERS = np.array([1, 1j, -1, -1j])  # i^k at k mod 4


def _symmetry_basis(chirality, symmetries):
    """Orthonormal basis of the rows adapted to the symmetries, per block.

    The unitary symmetry U, of order k = 4 (the quarter turn), 2 (the
    inversion) or 1 (none: the identity), splits the rows by its eigenvalues
    lambda = i^(4 b / k), b < k.  A U-orbit of d rows, U^d e_r = mu e_r, gives
    one column per lambda with lambda^d = mu, sum_j lambda^-j U^j e_r / sqrt d
    over the orbit.  The antiunitary x-reflection T, if present, maps each
    such column to a multiple mu_T of a column of the same block, on the
    image orbit.  A pair of columns (v, T v) is taken over by the one with the
    smaller leading row, as c v + T(c v) for c = 1, i over sqrt 2; a column
    with T v = mu_T v becomes sqrt(mu_T) v.  Each block is then real, and
    each row lies in at most two of its columns.  Columns are orthonormal,
    each on one spinor component; empty blocks are dropped.
    """
    dim = len(chirality)
    [u] = [s for s in symmetries if not s.antiunitary] or [
        _Symmetry(_IDENTITY, np.arange(dim), np.ones(dim), False)]
    [t] = [s for s in symmetries if s.antiunitary] or [None]
    k = u.site_map[1]
    size = math.isqrt(dim // 2)
    reps, members, length, on, owner, image = _orbit_tables(
        size, u.site_map, t and t.site_map)
    # U^j e_rep = phase[:, j] e_members[:, j]; one column per orbit and block
    phase = np.ones((len(reps), k + 1), dtype=complex)
    phase[:, 1:] = np.cumprod(u.weight[members], axis=1)
    power = (4 // k) * np.arange(k)[:, None, None]
    exists = np.abs(_I_POWERS[power[..., 0] * length % 4]
                    - phase[np.arange(len(reps)), length]) < 0.5
    amp = np.zeros((k, dim), dtype=complex)
    amp[:, members[on]] = (_I_POWERS[-power * np.arange(k) % 4] * phase[:, :k]
                           / np.sqrt(length)[:, None])[:, on] * exists[:, on.nonzero()[0]]
    # per U-column: its columns in the final block and the mixing coefficients
    if t is not None:
        # T e_rep = weight e_image_row, which the image column holds with amp
        image_rows = t.perm[reps]
        mu_t = t.weight[reps] * np.conj(amp[:, reps] * amp[:, image_rows]) * length
        lead, fixed = reps < reps[image], image == np.arange(len(reps))
        width = np.where(lead, 2, fixed.astype(int)) * exists
        start = np.cumsum(width, axis=1) - width
        start = np.where(lead | fixed, start, start[:, image])
        newcol = start[..., None] + np.outer(~fixed, (0, 1))
        half = math.sqrt(0.5)
        mix = np.zeros((k, len(reps), 2), dtype=complex)
        mix[:, lead] = (half, 1j * half)
        partner = ~(lead | fixed)
        mix[:, partner] = mu_t[:, image[partner], None] * (half, -1j * half)
        mix[:, fixed, 0] = np.sqrt(mu_t[:, fixed])
    else:
        width = exists.astype(int)
        newcol = (np.cumsum(width, axis=1) - 1)[..., None]
        mix = np.ones((k, len(reps), 1))
    sizes = width.sum(axis=1)
    keep = np.flatnonzero(sizes)
    blocks = []
    for b in keep:
        chi = np.empty(sizes[b])
        chi[newcol[b, exists[b]]] = chirality[reps[exists[b]], None]
        blocks.append(chi)
    newcol = np.where(exists[..., None], newcol, 0)  # absent columns: coefficient 0
    mix = np.moveaxis(mix[keep], -1, 0)
    return _Basis(col=np.moveaxis(newcol[keep], -1, 0)[:, :, owner],
                  coef=amp[keep] * mix[:, :, owner],
                  chirality=tuple(blocks), real=t is not None)


def _hop_blocks(links):
    # per mu, the 2x2 blocks D[s, s + mu] = -(1/2) U_mu(s) (r - gamma_mu) and
    # D[s + mu, s] = -(1/2) conj U_mu(s) (r + gamma_mu) at every site s, r = 1
    eye2 = np.eye(2)
    return [(-0.5 * u.reshape(-1, 1, 1) * (eye2 - gamma),
             -0.5 * u.conj().reshape(-1, 1, 1) * (eye2 + gamma))
            for u, gamma in zip(links, (GAMMA1, GAMMA2))]


@functools.lru_cache(maxsize=32)
def _kernel_pattern(size):
    """The nonzeros of D - m on a size x size lattice, as index arrays.

    Column t = (s, b) holds 2 - m on itself and column b of the hop blocks
    D[s - mu, s] and D[s + mu, s]: nine rows.  source indexes the four hop
    block arrays of _hop_blocks, flattened and concatenated, with 2 - m
    appended last.
    """
    dim = 2 * size * size
    sites = np.arange(size * size).reshape(size, size)
    site, spin = np.divmod(np.arange(dim), 2)
    rows, source = [np.arange(dim)[:, None]], [np.full((dim, 1), 8 * dim)]
    for mu in range(2):
        before = np.roll(sites, 1, axis=mu).ravel()[site]
        after = np.roll(sites, -1, axis=mu).ravel()[site]
        rows += [2 * before[:, None] + (0, 1), 2 * after[:, None] + (0, 1)]
        # entry (a, spin) of D[before, s], then of D[after, s]
        source += [4 * mu * dim + 4 * before[:, None] + (0, 2) + spin[:, None],
                   (4 * mu + 2) * dim + 4 * site[:, None] + (0, 2) + spin[:, None]]
    return _read_only(np.concatenate(rows, axis=1).ravel(), np.repeat(np.arange(dim), 9),
                      np.concatenate(source, axis=1).ravel())


def _join_block(rows, cols, values, col, coef, k, real):
    # one block's entries: each nonzero H[r, t] = values adds conj V[r, i]
    # H[r, t] V[t, j] at (i, j) for each slot of row r and of row t; axes of
    # the sum: slot of row r, slot of row t, nonzero
    flat = (k * col.take(rows, axis=-1)[:, None] + col.take(cols, axis=-1)[None]).ravel()
    weights = (coef.take(rows, axis=-1)[:, None].conj()
               * (values * coef.take(cols, axis=-1))[None]).ravel()
    if real:
        return np.bincount(flat, weights.real, minlength=k * k).reshape(k, k)
    block = np.empty(k * k, dtype=complex)
    block.real = np.bincount(flat, weights.real, minlength=k * k)
    block.imag = np.bincount(flat, weights.imag, minlength=k * k)
    return block.reshape(k, k)


def _kernel_blocks(links, chirality, basis, mass):
    """V^dagger Gamma (D - m) V on each block of the basis, one block at a time.

    Each nonzero H[r, t] of H = Gamma (D - m) (_kernel_pattern) adds conj
    V[r, i] H[r, t] V[t, j] to entry (i, j) of a block for every column i
    holding row r and j holding row t there, at most two each.  Each block
    is summed by its own bincount over its slice of the basis and is not
    held here once handed out, so a caller that drops it before asking for
    the next holds one block at a time; no (2 N^2, k) array is formed.
    """
    rows, cols, source = _kernel_pattern(links.shape[1])
    hops = np.concatenate([block.ravel() for pair in _hop_blocks(links) for block in pair]
                          + [[2.0 - mass]])
    values = chirality[rows] * hops[source]
    for b, chi in enumerate(basis.chirality):
        yield _join_block(rows, cols, values, basis.col[:, b], basis.coef[:, b], len(chi),
                          basis.real)


class _BlockSpectrum(NamedTuple):
    # one symmetry block: the eigenvalues of its block of the kernel H, and
    # those of the + and - chirality blocks of sign(H) on it
    kernel: np.ndarray
    sign_plus: np.ndarray
    sign_minus: np.ndarray


@dataclass(frozen=True)
class WilsonDiracOperator:
    """Massless Wilson operator, kept as its links, with chirality and mass.

    chirality is Gamma's diagonal on the 2 N^2 rows (site-major, spinor
    innermost), +1 on even and -1 on odd rows; the mass is the one the overlap
    construction subtracts.  symmetries holds those found in the field: the
    quarter turn, or failing it the inversion, and the x-reflection.  On
    first use the kernel Gamma (D - m) is taken one block of the basis
    adapted to them at a time (four real blocks of about N^2 / 2 on a
    constant-flux field): the block is assembled, diagonalised and dropped,
    the chirality blocks of its sign function are diagonalised, and its
    eigenvectors are dropped too.  Only the eigenvalues are kept, O(N^2)
    numbers.  A kernel with no gap at zero is refused.
    """

    links: np.ndarray
    chirality: np.ndarray
    mass: float
    label: str = "wilson"
    symmetries: tuple = ()

    @property
    def size(self):
        return self.links.shape[1]

    @functools.cached_property
    def _block_spectra(self):
        basis = _symmetry_basis(self.chirality, self.symmetries)
        blocks = _kernel_blocks(self.links, self.chirality, basis, self.mass)
        out = []
        for chirality in basis.chirality:
            # the block is freed as eigh returns, its vectors at the end of the pass
            evals, vecs = np.linalg.eigh(next(blocks))
            low = float(np.min(np.abs(evals)))
            if low < ZERO_TOL:
                raise AmbiguousSpectrumError(
                    f"kernel operator has a near-zero eigenvalue {low:.3e}; "
                    "the mass sits on a spectral-flow crossing")
            sign = np.sign(evals)
            signs = []
            for chi in (1, -1):
                v = vecs[chirality == chi]
                signs.append(np.linalg.eigvalsh((v * sign) @ v.conj().T))
            del vecs, v
            out.append(_BlockSpectrum(evals, *signs))
        return tuple(out)


def torus_case_bytes(size):
    """Peak bytes a torus case adds to its process, 10 (N^2 + 2)^2 + 16384 N^2.

    The blocks are taken one at a time, so the peak is the eigh of the
    largest, at most k = N^2 / 2 + 1 square: the block, LAPACK's copy of it
    and the eigenvectors (8 k^2 bytes each) and dsyevd's workspace of 2 k^2
    doubles, 40 k^2 <= 10 (N^2 + 2)^2.  The join's temporaries over one
    block's slot pairs of the 18 N^2 nonzeros of D - m, and the allocator's
    slack, take up to 16 kB a site.  The model is read from the ru_maxrss
    growth of a child process, which also sees LAPACK's own allocations: it
    fits 10.0 N^4 + 7300 N^2 for N from 64 to 80, and reads 0.57 to 0.89 of
    the model for N from 16 to 97.  It refuses the sizes the builder does.
    """
    _check_lattice_size(size)
    return 10 * (size**2 + 2) ** 2 + 16384 * size**2


def build_wilson_dirac(gauge, mass=1.0):
    """The Wilson operator on a gauge background, Wilson weight 1.

    D = 2 r - (1/2) sum_mu [ U_mu(x) (r - gamma_mu) shift_+mu
                           + U_mu(x - mu)^* (r + gamma_mu) shift_-mu ]
    with r = 1, kept as its links.  Chirality-hermiticity Gamma D Gamma =
    D^dagger holds hop by hop for any links, because the gammas are Hermitian
    and GAMMA5 anticommutes with both gamma_mu.  An index reading needs the
    mass inside the first doubler window 0 < m < 2; outside it the overlap
    counts doubler branches too, so a warning is raised.  A mass that is not
    finite is refused.
    """
    # NaN fails the test, and so does an int past the float range
    if not abs(mass) <= sys.float_info.max:
        raise ValueError("mass must be finite")
    mass = float(mass)
    if not 0.0 < mass < 2.0:
        warnings.warn(f"mass {mass:g} is outside the (0, 2) window, the overlap "
                      "count will include doubler branches", stacklevel=2)
    spinor_signs = GAMMA5.diagonal().real
    # the inversion reverses both hops, and GAMMA5 anticommutes with both
    # gamma_mu; the quarter turn takes gamma_1 to gamma_2 and gamma_2 to
    # -gamma_1 under diag(1, -i) (so that it squares to the inversion); the
    # x-reflection reverses x hops only, and conjugation flips the imaginary
    # gamma_1 = sigma_2 alone, so its spinor factor is 1
    unitary = (_lattice_symmetry(gauge.links, _QUARTER_TURN, False, np.array([1.0, -1.0j]))
               or _lattice_symmetry(gauge.links, _INVERSION, False, spinor_signs))
    found = (unitary, _lattice_symmetry(gauge.links, _X_REFLECTION, True, np.ones(2)))
    return WilsonDiracOperator(
        links=gauge.links, chirality=np.tile(spinor_signs, gauge.size**2), mass=mass,
        label=f"torus N={gauge.size} q={gauge.flux_quantum}",
        symmetries=tuple(sym for sym in found if sym is not None))


def overlap_index(op):
    """Spectral-flow count -(1/2) tr sign(Gamma (D - m)), summed over the blocks.

    Each of the 2 N^2 kernel eigenvalues adds -1/2 or +1/2, so the count is
    the exact integer (negative eigenvalues) - N^2.  Raises
    AmbiguousSpectrumError when the sign function is ill-defined (a
    near-zero eigenvalue).
    """
    negative = sum(np.count_nonzero(block.kernel < 0) for block in op._block_spectra)
    return int(negative) - op.size**2


def heat_kernel_system(op):
    """Chirality-graded spectrum of the squared overlap operator.

    With S = sign(Gamma (D - m)) and S^2 = 1, the squared overlap operator
    is D_ov^dagger D_ov = m^2 (2 + Gamma S + S Gamma).  Its off-diagonal
    chirality blocks cancel, so it is block diagonal: 2 m^2 (1 + S_++) on
    the + sector and 2 m^2 (1 - S_--) on the - sector (the Ginsparg-Wilson
    structure).  The lattice symmetries commute with Gamma and S, so each
    symmetry block of the kernel splits the same way; one eigvalsh of each
    chirality block of S in each symmetry block gives the whole spectrum,
    every chirality exact by construction.  For any links, the CS
    decomposition of each block's eigenvectors (rows by chirality, columns by
    kernel sign) makes its asymmetry (+ chirality rows) - (positive
    eigenvalues), overlap_index in all, and pairs every nonzero mode.
    Eigenvalues at or below ZERO_TOL are reported as exact zero modes,
    before the spectrum is sorted by eigenvalue, then chirality.

    The branch at exactly 4 m^2, the far end of the overlap circle (S_++ =
    +1 or S_-- = -1), is a pure lattice artifact (it hosts the chirality
    asymmetry that compensates the zero modes on the finite lattice) and is
    excluded from the returned continuum-like spectrum.
    """
    top = 4.0 * op.mass * op.mass
    lams, chis = [], []
    for block in op._block_spectra:
        for chi, s in ((1, block.sign_plus), (-1, block.sign_minus)):
            lam = 0.5 * top * (1.0 + chi * s)
            lams.append(lam[np.abs(lam - top) > 1e-8 * top])
            chis.append(np.full(len(lams[-1]), chi))
    lam, chi = np.concatenate(lams), np.concatenate(chis)
    lam[np.abs(lam) <= ZERO_TOL] = 0.0
    order = np.lexsort((chi, lam))
    return SpectralSystem(lam[order], chi[order], source=op.label)
