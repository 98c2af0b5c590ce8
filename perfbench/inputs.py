"""Seeded inputs for the benchmark workloads and the references they are checked against.

Everything here is a pure function of the seed.  The references do not use
the package's multivector code: curvature oracles run on a small dense
exterior algebra over numpy arrays, and only the exact rational table
``splitting_oracle`` is taken from the package, because that table is the
independent reference the package itself is specified against.
"""

import json
import math
import os

import numpy as np

TWO_PI = 2.0 * math.pi

TORUS_SIZES = (12, 16, 20)
TORUS_METHODS = ("overlap", "heat")
TORUS_Q = (-6, 6)            # inclusive flux-quantum range
TORUS_MASS = (0.5, 1.5)      # kernel mass, uniform
CHAR_DIMS = (8, 12)          # dim 16 takes minutes per call, so it is left out
DENSE_DIM = 8                # full 256-term elements
SPARSE_DIM = 16
SPARSE_TERMS = (16, 32, 48, 64)
SPARSE_THIRD_TERMS = 16      # third associativity factor, keeps (ab)c sparse
POOL_ROUNDS = 8              # distinct seeded rounds; the loop cycles through them


# ---------------------------------------------------------------------------
# torus-sweep


def torus_rounds(seed):
    """POOL_ROUNDS rounds of (N, method, q, mass), every size with every method once."""
    rng = np.random.default_rng([seed, 1])
    rounds = []
    for _ in range(POOL_ROUNDS):
        cases = []
        for size in TORUS_SIZES:
            for method in TORUS_METHODS:
                q = int(rng.integers(TORUS_Q[0], TORUS_Q[1] + 1))
                mass = float(rng.uniform(*TORUS_MASS))
                cases.append((size, method, q, mass))
        rounds.append(cases)
    return rounds


# ---------------------------------------------------------------------------
# curvature files


def _two_form(rng, dim):
    return {(i, j): float(rng.uniform(-1.0, 1.0))
            for i in range(dim) for j in range(i + 1, dim)}


def _expr(form):
    parts = []
    for (i, j), c in form.items():
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {abs(c)!r}*e{i + 1}^e{j + 1}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def curvature_case(rng, dim):
    """Block curvature with full random 2-forms plus a rank-1 flux twist.

    The twist puts n_k flux quanta through the k-th coordinate plane of a
    torus whose planes have areas A_k, so its character integrates to the
    product of the n_k over the volume prod A_k.
    """
    n = dim // 2
    thetas = [_two_form(rng, dim) for _ in range(n)]
    quanta = [int(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(n)]
    areas = [TWO_PI * float(rng.uniform(1.0, 3.0)) for _ in range(n)]
    flux = {(2 * k, 2 * k + 1): TWO_PI * quanta[k] / areas[k] for k in range(n)}
    riemann = [[0] * dim for _ in range(dim)]
    for l, theta in enumerate(thetas):
        text = _expr(theta)
        riemann[2 * l][2 * l + 1] = text
        riemann[2 * l + 1][2 * l] = f"-({text})"
    doc = {"n": n,
           "metadata": {"name": f"seeded block curvature, dim {dim}",
                        "volume": math.prod(areas)},
           "riemann": riemann,
           "twist": [[_expr(flux)]]}
    return {"dim": dim, "doc": doc, "thetas": thetas, "flux": flux,
            "volume": math.prod(areas)}


def forms_rounds(seed):
    """POOL_ROUNDS rounds: a curvature case per dim with its --which, and product operands."""
    rng = np.random.default_rng([seed, 2])
    rounds = []
    for r in range(POOL_ROUNDS):
        chars = []
        for k, dim in enumerate(CHAR_DIMS):
            case = curvature_case(rng, dim)
            # alternate, so every run has as many density as genus calls per dim
            case["which"] = ("density", "ahat")[(r + k) % 2]
            chars.append(case)
        # operands: clifford a, b, c for associativity, exterior a, b for graded commutativity
        dense = [_dense_terms(rng, DENSE_DIM) for _ in range(5)]
        sparse = []
        for n_terms in SPARSE_TERMS:
            sizes = (n_terms, n_terms, SPARSE_THIRD_TERMS, n_terms, n_terms)
            sparse.append([_sparse_terms(rng, SPARSE_DIM, size) for size in sizes])
        rounds.append({"chars": chars, "dense": dense, "sparse": sparse})
    return rounds


def write_curvature_files(rounds, directory):
    """Write every curvature case of the pool as JSON and record its path."""
    for r, rnd in enumerate(rounds):
        for case in rnd["chars"]:
            path = os.path.join(directory, f"curvature-r{r}-dim{case['dim']}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(case["doc"], fh)
            case["path"] = path


def _dense_terms(rng, dim):
    size = 1 << dim
    re = rng.uniform(-1.0, 1.0, size)
    im = rng.uniform(-1.0, 1.0, size)
    return {m: complex(re[m], im[m]) for m in range(size)}


def _sparse_terms(rng, dim, n_terms):
    masks = rng.choice(1 << dim, size=n_terms, replace=False)
    return {int(m): complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            for m in masks}


# ---------------------------------------------------------------------------
# dense exterior algebra for the curvature oracle


class DenseExterior:
    """Exterior algebra of a dim-generator space as arrays over the 2**dim masks."""

    def __init__(self, dim):
        self.dim = dim
        self.top = (1 << dim) - 1
        self.masks = np.arange(1 << dim)
        self.popcount = np.array([bin(m).count("1") for m in range(1 << dim)])
        comp = self.top ^ self.masks
        self._top_sign = self._signs(self.masks, comp)

    def _signs(self, a, b):
        # (-1)**#{(i in a, j in b): i > j}, elementwise over broadcast mask arrays
        swaps = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        for i in range(self.dim):
            has = (a >> i) & 1
            swaps += has * self.popcount[b & ((1 << i) - 1)]
        return 1 - 2 * (swaps & 1)

    def zero(self):
        return np.zeros(1 << self.dim)

    def one(self):
        out = self.zero()
        out[0] = 1.0
        return out

    def from_pairs(self, form, scale=1.0):
        out = self.zero()
        for (i, j), c in form.items():
            out[(1 << i) | (1 << j)] += c * scale
        return out

    def wedge(self, x, y):
        """x ^ y, summed blockwise over pairs of nonzero coefficients."""
        out = np.zeros(1 << self.dim)
        ib = np.nonzero(y)[0]
        ia_all = np.nonzero(x)[0]
        step = max(1, (1 << 20) // max(1, len(ib)))
        for start in range(0, len(ia_all), step):
            ia = ia_all[start:start + step, None]
            ok = (ia & ib) == 0
            values = x[ia] * y[ib] * self._signs(ia, ib)
            out += np.bincount((ia | ib)[ok], weights=values[ok],
                               minlength=1 << self.dim)
        return out

    def top_of_product(self, x, y):
        """Top-grade coefficient of x ^ y."""
        return float(np.sum(x * y[self.top ^ self.masks] * self._top_sign))


def curvature_oracle(case):
    """(genus top coefficient, index-density top coefficient) of one curvature case.

    The genus is assembled from the exact splitting-principle table: p_j is the
    j-th elementary symmetric polynomial of the squared block forms
    (theta_l / 2 pi)^2.  The twist character is exp(F / 2 pi) of the flux form.
    """
    from diracindex.charclasses import splitting_oracle

    dim = case["dim"]
    n = dim // 2
    ext = DenseExterior(dim)
    squares = []
    for theta in case["thetas"]:
        x = ext.from_pairs(theta, 1.0 / TWO_PI)
        squares.append(ext.wedge(x, x))
    elementary = [ext.one()] + [ext.zero() for _ in range(n)]
    for sq in squares:
        for j in range(n, 0, -1):
            elementary[j] = elementary[j] + ext.wedge(sq, elementary[j - 1])
    genus = ext.zero()
    for key, coeff in splitting_oracle(n, dim).items():
        term = ext.one()
        for j in key:
            term = ext.wedge(term, elementary[j])
        genus += float(coeff) * term
    flux = ext.from_pairs(case["flux"], 1.0 / TWO_PI)
    character = ext.one()
    power = ext.one()
    for k in range(1, n + 1):
        power = ext.wedge(power, flux) / k
        character += power
    return float(genus[ext.top]), ext.top_of_product(genus, character)
