"""Acceptance gate: nine binding checks, one printed verdict line each.

Run with -rA (the project default) so every verdict line lands in the
captured-output section of the report, passing or not.
"""

import json
import sys
import time

import numpy as np

from diracindex.algebra import (CLIFFORD, EXTERIOR, AlgebraContext,
                                clifford_mul, clifford_trace, phi_eps,
                                phi_eps_inv, wedge)
from diracindex.charclasses import (TWO_PI, a_closed_form, a_hat,
                                    block_diagonal_riemann, partition_sum,
                                    qho_generating_function)
from diracindex.spectral import (build_torus_gauge, build_wilson_dirac,
                                 heat_kernel_system, overlap_index,
                                 pair_check, random_gauge_transform,
                                 sphere_monopole_fixture, topological_flux,
                                 witten_index, zero_mode_asymmetry)
from conftest import random_multivector, random_two_form

TORUS_SIZES = (8, 12)
FLUXES = range(-3, 4)

_cache = {}


def torus_systems():
    """(N, q) -> (flux, overlap, heat system); built once, reused across tests."""
    if "torus" not in _cache:
        built = {}
        for size in TORUS_SIZES:
            for q in FLUXES:
                gauge = build_torus_gauge(size, q)
                op = build_wilson_dirac(gauge)
                built[(size, q)] = (topological_flux(gauge), overlap_index(op),
                                    heat_kernel_system(op))
        _cache["torus"] = built
    return _cache["torus"]


def verdict(tag, text, ok, detail):
    print(f"[{tag}] {text}: {'PASS' if ok else 'FAIL'} | {detail}")
    return ok


def test_accept_01_algebra_laws():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_anti = worst_trace = worst_assoc = 0.0
    for n in (1, 2, 3, 4):
        ctx = AlgebraContext(2 * n)
        gens = [ctx.generator(mu, CLIFFORD) for mu in range(1, ctx.dim + 1)]
        for mu in range(ctx.dim):
            for nu in range(ctx.dim):
                got = clifford_mul(gens[mu], gens[nu]) + clifford_mul(gens[nu], gens[mu])
                want = ctx.scalar(-2.0 if mu == nu else 0.0, CLIFFORD)
                worst_anti = max(worst_anti, (got - want).max_norm())
        worst_trace = max(worst_trace,
                          abs(clifford_trace(ctx.scalar(1.0, CLIFFORD)) - 2 ** n))
        for mask in range(1, ctx.top_mask + 1):
            worst_trace = max(worst_trace,
                              abs(clifford_trace(ctx.blade_from_mask(mask, CLIFFORD))))
        for _ in range(50):  # 200 random triples over the four dimensions
            a = random_multivector(ctx, rng, CLIFFORD)
            b = random_multivector(ctx, rng, CLIFFORD)
            c = random_multivector(ctx, rng, CLIFFORD)
            gap = (clifford_mul(clifford_mul(a, b), c)
                   - clifford_mul(a, clifford_mul(b, c))).max_norm()
            worst_assoc = max(worst_assoc, gap)
    elapsed = time.perf_counter() - t0
    ok = max(worst_anti, worst_trace, worst_assoc) <= 1e-12 and elapsed < 10.0
    verdict("A1", "generator relations, associativity, trace rules", ok,
            f"anti {worst_anti:.1e}, assoc {worst_assoc:.1e}, "
            f"trace {worst_trace:.1e}, {elapsed:.1f}s")
    assert elapsed < 10.0
    assert worst_anti <= 1e-12
    assert worst_trace <= 1e-12
    assert worst_assoc <= 1e-12


def test_accept_02_scaling_map_quadratic_defect():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    ctx = AlgebraContext(4)
    xi = random_multivector(ctx, rng, max_grade=2, n_terms=6)
    eta = random_multivector(ctx, rng, max_grade=2, n_terms=6)
    defects = []
    for eps in (1e-1, 1e-2, 1e-3):
        prod = clifford_mul(phi_eps(xi, eps), phi_eps(eta, eps))
        defects.append((phi_eps_inv(prod, eps) - wedge(xi, eta)).max_norm())
    ratios = [defects[0] / defects[1], defects[1] / defects[2]]
    elapsed = time.perf_counter() - t0
    ok = all(80.0 <= r <= 120.0 for r in ratios) and elapsed < 10.0
    verdict("A2", "grade-scaling map defect shrinks like eps^2", ok,
            f"successive ratios {ratios[0]:.1f}, {ratios[1]:.1f}, {elapsed:.1f}s")
    assert elapsed < 10.0
    for r in ratios:
        assert 80.0 <= r <= 120.0


def test_accept_03_generating_function_closed_form():
    t0 = time.perf_counter()
    qho_devs = {}
    partition_devs = {}
    for y in (0.5, 1.0, 2.0):
        closed = a_closed_form(y)
        qho_devs[y] = abs(qho_generating_function(y, 60) - closed)
        partition_devs[y] = abs(partition_sum(y, 100) - closed)
    elapsed = time.perf_counter() - t0
    worst_qho = max(qho_devs.values())
    worst_partition = max(partition_devs.values())
    ok = worst_qho <= 1e-6 and worst_partition <= 1e-12 and elapsed < 60.0
    verdict("A3", "oscillator matrix element and partition sum vs closed form", ok,
            f"matrix-element dev {worst_qho:.2e} (target 1e-06, cutoff 60, "
            f"circular-mode truncation), partition dev "
            f"{worst_partition:.1e}, {elapsed:.1f}s")
    assert elapsed < 60.0
    assert worst_partition <= 1e-12
    # Truncating the two modes in circular quanta keeps the rotation symmetry
    # of the exponent, so the error falls geometrically with the cutoff: at
    # cutoff 60 it is 2.2e-7 for y = 0.5 and roundoff for y = 1 and 2.  The
    # Cartesian box, the reference route, is still a few 1e-4 here.
    assert worst_qho <= 1e-6, (
        f"matrix element at cutoff 60 is {worst_qho:.3e} from the closed form; "
        f"per-y deviations {[f'{y}: {d:.3e}' for y, d in qho_devs.items()]}")


def test_accept_04_genus_matches_rational_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    ctx = AlgebraContext(8)
    blocks = [random_two_form(ctx, rng) for _ in range(3)] + [ctx.scalar(0.0)]
    genus = a_hat(block_diagonal_riemann(ctx, blocks))
    sq = [wedge(b * (1.0 / TWO_PI), b * (1.0 / TWO_PI)) for b in blocks[:3]]
    p1 = sq[0] + sq[1] + sq[2]
    p2 = wedge(sq[0], sq[1]) + wedge(sq[0], sq[2]) + wedge(sq[1], sq[2])
    want = (ctx.scalar(1.0) - p1 * (1.0 / 24.0)
            + (wedge(p1, p1) * 7.0 - p2 * 4.0) * (1.0 / 5760.0))
    dev = (genus - want).max_norm()
    elapsed = time.perf_counter() - t0
    ok = dev <= 1e-10 and elapsed < 5.0
    verdict("A4", "curvature genus equals 1 - p1/24 + (7 p1^2 - 4 p2)/5760", ok,
            f"max coefficient dev {dev:.1e}, {elapsed:.1f}s")
    assert elapsed < 5.0
    assert dev <= 1e-10


def test_accept_05_torus_index_three_ways():
    t0 = time.perf_counter()
    taus = np.linspace(0.5, 5.0, 10)
    mismatches = []
    worst_plateau = 0.0
    for (size, q), (flux, ovl, system) in torus_systems().items():
        asym = zero_mode_asymmetry(system)
        if not flux == ovl == asym == q:
            mismatches.append((size, q, flux, ovl, asym))
        worst_plateau = max(worst_plateau,
                            max(abs(witten_index(system, t) - q) for t in taus))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and worst_plateau <= 1e-6 and elapsed < 120.0
    verdict("A5", "spectral counts equal flux on every torus sector", ok,
            f"{len(torus_systems())} sectors, mismatches {mismatches}, "
            f"plateau dev {worst_plateau:.2e}, {elapsed:.1f}s")
    assert elapsed < 120.0
    assert mismatches == []
    assert worst_plateau <= 1e-6


def test_accept_06_pairing_of_nonzero_levels():
    violations = {}
    for (size, q), (_, _, system) in torus_systems().items():
        bad = pair_check(system)
        if bad:
            violations[(size, q)] = bad
    for q in range(-2, 3):
        bad = pair_check(sphere_monopole_fixture(q, 30))
        if bad:
            violations[("sphere", q)] = bad
    total = len(torus_systems()) + 5
    ok = not violations
    verdict("A6", "nonzero levels pair across chirality everywhere", ok,
            f"{total} systems checked, violations {violations or 'none'}")
    assert violations == {}


def test_accept_07_sphere_plateau_within_roundoff():
    t0 = time.perf_counter()
    worst_excess = -np.inf
    for q in range(-2, 3):
        system = sphere_monopole_fixture(q, 30)
        roundoff = len(system.eigenvalues) * sys.float_info.epsilon
        for tau in (0.5, 1.0, 2.0, 5.0):
            worst_excess = max(worst_excess,
                               abs(witten_index(system, tau) - q) - roundoff)
    elapsed = time.perf_counter() - t0
    ok = worst_excess <= 0.0 and elapsed < 5.0
    verdict("A7", "monopole plateau equals the charge within roundoff", ok,
            f"worst excess over roundoff {worst_excess:.2e}, {elapsed:.1f}s")
    assert elapsed < 5.0
    assert worst_excess <= 0.0


def test_accept_08_gauge_invariance_of_integers():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    gauge = build_torus_gauge(8, 2)
    moved = []
    for k in range(20):
        twisted = random_gauge_transform(gauge, rng)
        op = build_wilson_dirac(twisted)
        triple = (topological_flux(twisted), overlap_index(op),
                  zero_mode_asymmetry(heat_kernel_system(op)))
        if triple != (2, 2, 2):
            moved.append((k, triple))
    elapsed = time.perf_counter() - t0
    ok = not moved and elapsed < 30.0
    verdict("A8", "20 random gauge transformations leave all integers fixed", ok,
            f"moved {moved or 'none'}, {elapsed:.1f}s")
    assert elapsed < 30.0
    assert moved == []


def test_accept_09_verify_all_exit_zero_byte_stable(verify_all_twice):
    (code1, first), (code2, second) = verify_all_twice
    stable = first == second
    doc = json.loads(first)
    failing = [k for k in doc if not doc[k]["pass"]]
    ok = stable and code1 == 0 and code2 == 0
    verdict("A9", "full verification exits 0 with byte-stable JSON", ok,
            f"byte-stable {stable}, exit {code1}, "
            f"failing categories {failing or 'none'}")
    assert stable
    assert code1 == code2
    # The aggregate exit mirrors every category; the generating-function one
    # carries the cutoff-60 truncation error checked in A3.
    assert code1 == 0, f"verify-all exited {code1}; failing categories {failing}"
