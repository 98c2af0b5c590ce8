"""Spectral side of the index: chirality-graded heat sums, a constant-flux
torus background with its Wilson operator and the overlap construction on
it, and an exactly solvable monopole fixture.

A graded spectrum (SpectralSystem) is two arrays of one length, the
eigenvalues and their chiralities; an eigenvalue at or below ZERO_TOL is a
zero mode, everywhere.

Three independent integers are computable here for a lattice background and
are asserted equal by the verification layer: the plaquette-angle flux, the
spectral-flow count of the Wilson-overlap construction, and the zero-mode
chirality asymmetry of the squared overlap spectrum.  Heat sums over that
spectrum are then tau-independent up to truncation noise, which is the
pairing statement made quantitative by ``pair_check``.

Both lattice counts read one eigendecomposition of H = Gamma (D - m): the
overlap count is -(1/2) tr sign(H), the squared overlap spectrum comes off
the chirality blocks of sign(H), each mode's chirality exact.  H is
diagonalised in a basis adapted to the lattice symmetries the field has up
to a gauge transformation: the inversion (x, y) -> (-x, -y) splits it into
two blocks of N^2, and the x-reflection combined with complex conjugation
makes every block real symmetric.  Every constant-flux background has both,
so a case costs two real eigensolves of size N^2; a field with neither
keeps one complex block of size 2 N^2.  Blocks are assembled from the links.

Numerical-ambiguity failures (a flux sum far from an integer, a sign
function fed a near-zero eigenvalue, a collapsed zero/nonzero gap) raise
AmbiguousSpectrumError rather than guess.
"""

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

ZERO_TOL = 1e-10
CLUSTER_RELATIVE_GAP = 1e-6
GAP_RATIO_MIN = 1e3
INTEGER_RESIDUAL = 0.01

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


class ChiralityDefectError(RuntimeError):
    """The Wilson operator breaks chirality-hermiticity Gamma D Gamma = D^dagger."""


# ---------------------------------------------------------------------------
# graded spectra


@dataclass(frozen=True, eq=False)
class SpectralSystem:
    """Chirality-graded nonnegative spectrum, as two arrays of one length.

    Mode k has eigenvalue eigenvalues[k] and chirality chiralities[k], +-1.
    Both arrays are read-only copies, in the order given.  The convention
    flag records what the eigenvalues mean: "H" for halved-Laplacian
    energies (heat weight e^(-tau lambda)) and "Delta" for squared-operator
    values (weight e^(-tau lambda/2)).  Eigenvalues must be finite and
    nonnegative; anything above -1e-8 is clamped to zero, anything below is
    a positivity violation and is rejected.
    """

    eigenvalues: np.ndarray
    chiralities: np.ndarray
    source: str = "generic"
    convention: str = "H"

    def __post_init__(self):
        if self.convention not in ("H", "Delta"):
            raise ValueError(f"unknown convention {self.convention!r}")
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

    @property
    def heat_rate(self):
        return 1.0 if self.convention == "H" else 0.5


class PairViolation(NamedTuple):
    lam_min: float
    lam_max: float
    n_plus: int
    n_minus: int


def witten_index(system, tau):
    """Chirality-weighted heat sum over the spectrum at inverse temperature tau."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    weights = np.exp(-tau * system.heat_rate * system.eigenvalues)
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
    pairing statement.  Violations are data, not errors.
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


def sphere_monopole_fixture(q, k_max):
    """Exactly paired monopole spectrum on the round sphere.

    |q| zero modes, all of chirality sign(q); level k = 1..k_max sits at
    lambda = k (k + |q|) with multiplicity 2k + |q| in each chirality sector,
    so every nonzero level is exactly balanced.  At q = 0 this reduces to the
    round-sphere spectrum (multiplicity 2k per sector, no zero modes).
    Eigenvalues are squared-operator values, convention "Delta".
    """
    if not isinstance(q, int):
        raise ValueError("q must be an integer")
    if not isinstance(k_max, int) or k_max < 1:
        raise ValueError("k_max must be an integer >= 1")
    # the zero modes, then each level's + sector followed by its - sector
    k = np.repeat(np.arange(1, k_max + 1), 2)
    mult = 2 * k + abs(q)
    eigenvalues = np.concatenate([np.zeros(abs(q)), np.repeat(k * (k + abs(q)), mult)])
    chiralities = np.concatenate([np.full(abs(q), 1 if q > 0 else -1),
                                  np.repeat(np.tile([1, -1], k_max), mult)])
    return SpectralSystem(eigenvalues, chiralities, source="sphere", convention="Delta")


def sphere_case_bytes(q, k_max):
    """Peak bytes of a sphere case, 60 a fixture mode.

    The fixture keeps its eigenvalues and chiralities (16 bytes a mode), and
    pair_check sorts copies of both on top (42); tracemalloc reads 58.0 a
    mode, and the rounding up covers the per-level arrays.  The fixture has
    |q| + 2 k_max (k_max + 1 + |q|) modes.
    """
    return 60 * (abs(q) + 2 * k_max * (k_max + 1 + abs(q)))


def sphere_tail_bound(q, k_max, tau):
    """Heat weight of the first omitted fixture level times its multiplicity."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    lam_next = (k_max + 1) * (k_max + 1 + abs(q))
    return (2 * (k_max + 1) + abs(q)) * math.exp(-tau * lam_next / 2.0)


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
        if np.max(np.abs(np.abs(links) - 1.0)) > 1e-12:
            raise ValueError("link phases must have unit modulus")
        links = links.copy()
        links.setflags(write=False)
        object.__setattr__(self, "links", links)

    @property
    def size(self):
        return self.links.shape[1]


def build_torus_gauge(size, q):
    """Constant-flux background: every plaquette carries exactly 2 pi q / N^2.

    The y links grow linearly in x, U_y(x, y) = exp(i phi x); the last column
    of x links closes the cycle, U_x(N-1, y) = exp(-i phi N y).  The half-
    filling bound |q| < N^2/2 keeps every plaquette angle on the principal
    branch, so the measured flux is exact.
    """
    if not isinstance(size, int) or size < 4:
        raise ValueError("lattice size must be an integer >= 4")
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

    Raises AmbiguousSpectrumError when the sum misses an integer by 0.01 or
    more, which means some holonomy angle wrapped off the principal branch
    and the field is not resolving its own flux.
    """
    total = float(plaquette_angles(gauge).sum() / TWO_PI)
    nearest = round(total)
    if abs(total - nearest) >= INTEGER_RESIDUAL:
        raise AmbiguousSpectrumError(
            f"plaquette flux {total:.6f} is not within {INTEGER_RESIDUAL} of an integer")
    return int(nearest)


def gauge_transform(gauge, site_phases):
    """Rephase the links, U'_mu(x) = alpha(x) U_mu(x) conj(alpha(x + mu)).

    site_phases may be unit complex factors or real angles, shape (N, N).
    Every plaquette holonomy is exactly unchanged, hence so is everything
    built from the field.
    """
    alpha = np.asarray(site_phases)
    if alpha.shape != (gauge.size, gauge.size):
        raise ValueError(f"site phases must have shape ({gauge.size}, {gauge.size})")
    if not np.iscomplexobj(alpha):
        alpha = np.exp(1j * alpha)
    elif np.max(np.abs(np.abs(alpha) - 1.0)) > 1e-12:
        raise ValueError("complex site phases must have unit modulus")
    ux, uy = gauge.links
    new_ux = alpha * ux * np.conj(np.roll(alpha, -1, axis=0))
    new_uy = alpha * uy * np.conj(np.roll(alpha, -1, axis=1))
    return LatticeGaugeField(np.stack([new_ux, new_uy]), gauge.flux_quantum)


def random_gauge_transform(gauge, rng):
    """Gauge transform by independent uniform site angles from rng."""
    return gauge_transform(gauge, rng.uniform(0.0, TWO_PI, (gauge.size, gauge.size)))


# ---------------------------------------------------------------------------
# Wilson and overlap operators


class _Symmetry(NamedTuple):
    # S e_r = weight[r] e_perm[r] on the 2 N^2 rows (site-major, spinor
    # innermost); an antiunitary S conjugates the coefficients first
    perm: np.ndarray
    weight: np.ndarray
    antiunitary: bool


def _lattice_symmetry(links, flip_y, antiunitary, spinor):
    """The site map (x, y) -> (-x, -y or y) as a symmetry of the field, or None.

    The map sends the link leaving s in direction mu to one at sigma(s).
    Where it reverses mu, that is the link leaving sigma(s) - mu, run
    backwards: conj U_mu(sigma(s) - mu).  An antiunitary map conjugates once
    more.  The field is symmetric when these image links are a gauge
    transform of its own, image_mu(s) = alpha(s) U_mu(s) conj alpha(s + mu).
    alpha is solved from the links by cumulative products down the column
    x = 0, then along x, and accepted only if every link matches to 1e-12.
    spinor is the map's diagonal spinor factor, the one that carries each
    hop's r - gamma_mu into the image hop's.
    """
    ux, uy = links
    n = ux.shape[0]
    sx = (-np.arange(n) % n)[:, None]
    sy = (-np.arange(n) % n if flip_y else np.arange(n))[None, :]
    image_x = ux[(sx - 1) % n, sy]
    image_y = uy[sx, (sy - 1) % n] if flip_y else uy[sx, sy]
    if not antiunitary:
        image_x = image_x.conj()
    if flip_y != antiunitary:
        image_y = image_y.conj()
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
    target = (sx * n + sy).ravel()
    phase = alpha.conj() if antiunitary else alpha
    return _Symmetry(perm=(2 * target[:, None] + np.arange(2)).ravel(),
                     weight=(phase.reshape(-1, 1) * spinor).ravel(),
                     antiunitary=antiunitary)


def _refine(block, sym):
    """Adapt a block's basis columns to one more symmetry S.

    A block is (rows, coefs), both (columns, k): column j is the sum of
    coefs[j] times the unit vectors at rows[j].  The columns span orbits of
    the symmetries applied before, one column per orbit, and S commutes with
    those, so S v is a multiple of the column on the image orbit.  A pair
    (v, S v) is kept by the column with the smaller leading row; a column
    with S v = lambda v is its own image.  A unitary involution splits the
    block into its eigenspaces, v + p S v for p = +1, -1.  An antiunitary
    one keeps the block and makes each column invariant, c v + S(c v) with
    c = 1, i on a pair and c = sqrt(lambda) on a fixed column.  Columns stay
    orthonormal, each on one spinor component.
    """
    rows, coefs = block
    img_rows = sym.perm[rows]
    img_coefs = sym.weight[rows] * (coefs.conj() if sym.antiunitary else coefs)
    lead, img_lead = rows.min(axis=1), img_rows.min(axis=1)
    pair = np.flatnonzero(lead < img_lead)
    fixed = np.flatnonzero(lead == img_lead)
    same = (rows[fixed, :, None] == img_rows[fixed, None, :]).astype(float)
    lam = np.einsum("ca,cab,cb->c", coefs[fixed].conj(), same, img_coefs[fixed])

    def combine(take, a, b):
        # columns a v + b (S v), S v written with its own rows and coefs
        return (np.concatenate([rows[take], img_rows[take]], axis=1),
                np.concatenate([a[:, None] * coefs[take],
                                b[:, None] * img_coefs[take]], axis=1))

    half = math.sqrt(0.5)
    if sym.antiunitary:
        take = np.concatenate([pair, pair, fixed])
        c = np.concatenate([np.ones(len(pair)), np.full(len(pair), 1j), np.sqrt(lam)])
        norm = np.concatenate([np.full(2 * len(pair), half), np.full(len(fixed), 0.5)])
        return [combine(take, c * norm, c.conj() * norm)]
    parts = []
    for p in (1.0, -1.0):
        own = fixed[lam.real * p > 0]
        norm = np.concatenate([np.full(len(pair), half), np.full(len(own), 0.5)])
        parts.append(combine(np.concatenate([pair, own]), norm, p * norm))
    return parts


def _symmetry_blocks(dim, symmetries):
    """Orthonormal basis of the dim rows adapted to the symmetries, per block.

    Starts from the identity, one block of unit columns, and lets each
    symmetry refine it; with no symmetry it stays that block.
    """
    blocks = [(np.arange(dim)[:, None], np.ones((dim, 1), dtype=complex))]
    for sym in symmetries:
        blocks = [part for block in blocks for part in _refine(block, sym)]
    return blocks


def _hop_blocks(links):
    # per mu, the 2x2 blocks D[s, s + mu] = -(1/2) U_mu(s) (r - gamma_mu) and
    # D[s + mu, s] = -(1/2) conj U_mu(s) (r + gamma_mu) at every site s, r = 1
    eye2 = np.eye(2)
    return [(-0.5 * u.reshape(-1, 1, 1) * (eye2 - gamma),
             -0.5 * u.conj().reshape(-1, 1, 1) * (eye2 + gamma))
            for u, gamma in zip(links, (GAMMA1, GAMMA2))]


def _wilson_block(links, rows, coefs, mass):
    """V^dagger (D - m) V for the columns of one block, V[rows[j], j] = coefs[j].

    D - m sends the unit vector at site s, spinor b, to 2 - m on itself and to
    column b of the hop blocks D[s -+ mu, s]: nine entries per nonzero of V,
    scattered into (D - m) V, out of which V^dagger is gathered by index
    (the identity basis needs no gather).
    """
    n = links.shape[1]
    sites = np.arange(n * n).reshape(n, n)
    site, spin = np.divmod(rows, 2)
    amp = coefs[..., None]
    targets, values = [rows[..., None]], [(2.0 - mass) * amp]
    for mu, (ahead, back) in enumerate(_hop_blocks(links)):
        before = np.roll(sites, 1, axis=mu).ravel()[site]
        after = np.roll(sites, -1, axis=mu).ravel()[site]
        targets += [2 * before[..., None] + (0, 1), 2 * after[..., None] + (0, 1)]
        values += [ahead[before, :, spin] * amp, back[site, :, spin] * amp]
    dv = np.zeros((2 * n * n, len(rows)), dtype=complex)
    cols = np.arange(len(rows))[:, None, None]
    np.add.at(dv, (np.concatenate(targets, axis=-1), cols), np.concatenate(values, axis=-1))
    if (rows.shape[1] == 1 and np.array_equal(rows[:, 0], np.arange(len(dv)))
            and np.all(coefs == 1)):
        return dv  # the identity basis of a field with no symmetry: V = 1
    vdv = np.zeros((len(rows), len(rows)), dtype=complex)
    for r, c in zip(rows.T, coefs.T):
        vdv += c.conj()[:, None] * dv[r]
    return vdv


@dataclass(frozen=True)
class WilsonDiracOperator:
    """Massless Wilson operator, kept as its links, with chirality and mass.

    chirality is Gamma's diagonal on the 2 N^2 rows (site-major, spinor
    innermost), +1 on even and -1 on odd rows; the mass is the one the overlap
    construction subtracts.  The kernel Gamma (D - m) is diagonalised once, on
    first use, per block of the basis adapted to the lattice symmetries found
    in the field, and refused when it has no gap at zero.
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
    def _kernel_eigh(self):
        # per block: eigenvalues, eigenvectors, the chirality of each column
        real = any(sym.antiunitary for sym in self.symmetries)
        out = []
        for rows, coefs in _symmetry_blocks(len(self.chirality), self.symmetries):
            # each column lies on one spinor component, so Gamma V = V chi and
            # V^dagger Gamma (D - m) V = chi V^dagger (D - m) V
            chi = self.chirality[rows[:, 0]]
            h = _wilson_block(self.links, rows, coefs, self.mass)
            h = chi[:, None] * (h.real if real else h)
            evals, vecs = np.linalg.eigh(h)
            out.append((evals, vecs, chi))
        low = min(float(np.min(np.abs(evals))) for evals, _, _ in out)
        if low < ZERO_TOL:
            raise AmbiguousSpectrumError(
                f"kernel operator has a near-zero eigenvalue {low:.3e}; "
                "the mass sits on a spectral-flow crossing")
        return out


def torus_case_bytes(size):
    """Peak bytes of a constant-flux torus case, at the second block's assembly.

    D V (32 N^4), V^dagger D V with two gather temporaries (48 N^4), and the
    first block's kernel and eigenvectors (16 N^4); tracemalloc agrees.
    """
    return 96 * size**4


def build_wilson_dirac(gauge, mass=1.0):
    """The Wilson operator on a gauge background, Wilson weight 1.

    D = 2 r - (1/2) sum_mu [ U_mu(x) (r - gamma_mu) shift_+mu
                           + U_mu(x - mu)^* (r + gamma_mu) shift_-mu ]
    with r = 1, kept as its links.  Chirality-hermiticity Gamma D Gamma =
    D^dagger is checked hop by hop, Gamma D[s, s + mu] Gamma = D[s + mu, s]^dagger;
    a defect raises ChiralityDefectError.  An index reading needs the mass
    inside the first doubler window 0 < m < 2; outside it the overlap counts
    doubler branches too, so a warning is raised.
    """
    mass = float(mass)
    if not 0.0 < mass < 2.0:
        warnings.warn(f"mass {mass:g} is outside the (0, 2) window, the overlap "
                      "count will include doubler branches", stacklevel=2)
    spinor_signs = GAMMA5.diagonal().real
    herm_defect = max(np.max(np.abs(spinor_signs[:, None] * ahead * spinor_signs
                                    - back.conj().transpose(0, 2, 1)))
                      for ahead, back in _hop_blocks(gauge.links))
    if herm_defect > 1e-12:
        raise ChiralityDefectError(f"chirality-hermiticity defect {herm_defect:.3e}")
    # the inversion reverses both hops, and GAMMA5 anticommutes with both
    # gamma_mu; the x-reflection reverses x hops only, and conjugation flips
    # the imaginary gamma_1 = sigma_2 alone, so its spinor factor is 1
    found = (_lattice_symmetry(gauge.links, True, False, spinor_signs),
             _lattice_symmetry(gauge.links, False, True, np.ones(2)))
    return WilsonDiracOperator(
        links=gauge.links, chirality=np.tile(spinor_signs, gauge.size**2), mass=mass,
        label=f"torus N={gauge.size} q={gauge.flux_quantum}",
        symmetries=tuple(sym for sym in found if sym is not None))


def overlap_index(op):
    """Spectral-flow count -(1/2) tr sign(Gamma (D - m)), summed over the blocks.

    Raises AmbiguousSpectrumError when the sign function is ill-defined (a
    near-zero eigenvalue) or the half-trace misses an integer by 0.01.
    """
    raw = -0.5 * sum(float(np.sum(np.sign(evals))) for evals, _, _ in op._kernel_eigh)
    nearest = round(raw)
    if abs(raw - nearest) >= INTEGER_RESIDUAL:
        raise AmbiguousSpectrumError(f"half-trace {raw:.6f} is not near an integer")
    return int(nearest)


def heat_kernel_system(op):
    """Chirality-graded spectrum of the squared overlap operator.

    With S = sign(Gamma (D - m)) and S^2 = 1, the squared overlap operator
    is D_ov^dagger D_ov = m^2 (2 + Gamma S + S Gamma).  Its off-diagonal
    chirality blocks cancel, so it is block diagonal: 2 m^2 (1 + S_++) on
    the + sector and 2 m^2 (1 - S_--) on the - sector (the Ginsparg-Wilson
    structure).  The lattice symmetries commute with Gamma and S, so each
    symmetry block of the kernel splits the same way; one eigvalsh of each
    chirality block of S in each symmetry block gives the whole spectrum,
    every chirality exact by construction.  Eigenvalues at or below
    ZERO_TOL are reported as exact zero modes, before the spectrum is
    sorted by eigenvalue, then chirality.

    The branch at exactly 4 m^2, the far end of the overlap circle (S_++ =
    +1 or S_-- = -1), is a pure lattice artifact (it hosts the chirality
    asymmetry that compensates the zero modes on the finite lattice) and is
    excluded from the returned continuum-like spectrum.  Eigenvalues are
    squared-operator values, convention "Delta".
    """
    top = 4.0 * op.mass * op.mass
    lams, chis = [], []
    for evals, vecs, chirality in op._kernel_eigh:
        for chi in (1, -1):
            v = vecs[chirality == chi]
            s = np.linalg.eigvalsh((v * np.sign(evals)) @ v.conj().T)
            lam = 0.5 * top * (1.0 + chi * s)
            lams.append(lam[np.abs(lam - top) > 1e-8 * top])
            chis.append(np.full(len(lams[-1]), chi))
    lam, chi = np.concatenate(lams), np.concatenate(chis)
    lam[np.abs(lam) <= ZERO_TOL] = 0.0
    order = np.lexsort((chi, lam))
    return SpectralSystem(lam[order], chi[order], source=op.label, convention="Delta")
