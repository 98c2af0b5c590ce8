"""Verification case runners and deterministic report rendering.

Every float that reaches a JSON document goes through a 12-significant-digit
round (verify-all's torus plateau_dev first goes to an absolute 1e-12, so
the document does not depend on the BLAS kernel's roundoff), dictionaries
keep fixed insertion order, and all randomness is seeded with module
constants, so identical inputs produce byte-identical reports.
Timings are measured and printed for humans but never serialized.
"""

import csv
import functools
import io
import json
import math
import random
import sys
import time
from dataclasses import dataclass, field
from itertools import combinations

from .algebra import (CLIFFORD, EXTERIOR, AlgebraContext, MultiVector,
                      clifford_mul, clifford_trace, phi_eps, phi_eps_inv,
                      wedge)
from .charclasses import (TWIST, TWO_PI, FormMatrix, a_closed_form, a_hat,
                          block_diagonal_riemann, chern_character,
                          partition_sum, qho_generating_function,
                          splitting_oracle, zero_riemann)
from .spectral import (build_torus_gauge, build_wilson_dirac,
                       heat_kernel_system, overlap_index, pair_check,
                       random_gauge_transform, sphere_monopole_fixture,
                       topological_flux, witten_index, zero_mode_asymmetry)

SIGNIFICANT_DIGITS = 12

# spectrum CSV rows formatted and written per call
_CSV_ROWS = 256

DEFAULT_TAUS = (0.5, 1.0, 2.0, 5.0)

PLATEAU_TOL = 1e-6       # Witten plateau flatness across the tau grid
# verify-all publishes each torus plateau_dev to 1e-12, a millionth of
# PLATEAU_TOL: below that it is roundoff that depends on the BLAS kernel
PLATEAU_DIGITS = 12
ALGEBRA_TOL = 1e-12      # multivector identity deviations
ORACLE_TOL = 1e-10       # float genus vs rational oracle
GENFUN_TOL = 1e-6        # matrix element vs closed form at max cutoff
PARTITION_TOL = 1e-12    # partition sum vs closed form

# fixes every sampled check in verify-all.  The stages draw from
# random.Random, whose random() sequence for a seed Python keeps across
# versions, and which spares a verify-all process loading numpy.random.
_REPORT_SEED = 20260814

# the grids verify-all runs its sphere and genfun stages on
_SPHERE_KMAX = 30
_GENFUN_YS = (0.5, 1.0, 2.0)
_GENFUN_CUTOFFS = (20, 40, 60)


def round_sig(x):
    """12-significant-digit float, the only float form reports may contain."""
    return float(f"{float(x):.{SIGNIFICANT_DIGITS}g}")


def _rounded(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return round_sig(obj)
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def canonical_json(doc):
    return json.dumps(_rounded(doc), indent=2) + "\n"


@dataclass(frozen=True)
class VerificationReport:
    """One verified geometry: both index routes plus the plateau record.

    passed requires integer agreement, zero pairing violations, and a Witten
    plateau within its runner's tolerance of the index (see _case_report).
    """

    case_name: str
    analytic_index: int
    topological_index: int
    witten_values: tuple
    pair_check_violations: int
    passed: bool
    timings: dict = field(default_factory=dict)

    @property
    def plateau_deviation(self):
        return _plateau_deviation(self.witten_values, self.analytic_index)

    def to_dict(self):
        return {
            "case_name": self.case_name,
            "analytic_index": self.analytic_index,
            "topological_index": self.topological_index,
            "witten_values": [[t, v] for t, v in self.witten_values],
            "pair_check_violations": self.pair_check_violations,
            "pass": self.passed,
        }


def _plateau_deviation(witten_values, index):
    return max((abs(v - index) for _, v in witten_values), default=0.0)


def _ms(t0):
    return (time.perf_counter() - t0) * 1000.0


def _case_report(case_name, system, taus, analytic, topological, timings, tolerance):
    """One case's Witten values on the tau grid, its pairing count and verdict.

    passed requires the two indices to agree, no pairing violation, and
    every Witten value within tolerance of the analytic index.  The Witten
    sums and the pair check are timed as "witten".
    """
    t0 = time.perf_counter()
    witten_values = tuple((tau, witten_index(system, tau)) for tau in taus)
    violations = len(pair_check(system))
    timings["witten"] = _ms(t0)
    passed = (analytic == topological and violations == 0
              and _plateau_deviation(witten_values, analytic) <= tolerance)
    return VerificationReport(
        case_name=case_name,
        analytic_index=analytic,
        topological_index=topological,
        witten_values=witten_values,
        pair_check_violations=violations,
        passed=passed,
        timings=timings,
    )


def run_torus_case(size, q, method="overlap", taus=DEFAULT_TAUS, mass=1.0):
    """Both index routes on one flux sector; returns (report, heat system)."""
    if method not in ("overlap", "heat"):
        raise ValueError(f"method must be 'overlap' or 'heat', got {method!r}")
    timings = {}
    t0 = time.perf_counter()
    gauge = build_torus_gauge(size, q)
    topological = topological_flux(gauge)
    op = build_wilson_dirac(gauge, mass=mass)
    timings["build"] = _ms(t0)

    t0 = time.perf_counter()
    system = heat_kernel_system(op)
    timings["heat_system"] = _ms(t0)

    t0 = time.perf_counter()
    if method == "overlap":
        analytic = overlap_index(op)
    else:
        analytic = zero_mode_asymmetry(system)
    timings["analytic"] = _ms(t0)

    report = _case_report(
        f"torus N={size} q={q} ({method})", system, taus, analytic, topological,
        timings, PLATEAU_TOL)
    return report, system


def sphere_flux(q):
    """Chern number of the charge-q monopole's line bundle on the unit sphere.

    The bundle has constant curvature q / 2 on the area form.  The integral
    is the top coefficient of chern_character of the rank-1 twist q / 2,
    over 2 pi, times the sphere's area 4 pi: q up to roundoff, which the
    rounding removes.
    """
    if not isinstance(q, int):
        raise ValueError("q must be an integer")
    ctx = AlgebraContext(2)
    twist = FormMatrix([[ctx.blade((1, 2)) * (q / 2.0)]], TWIST)
    return round(float((chern_character(twist).coefficient(1, 2) * 4.0 * math.pi).real))


def run_sphere_case(q, k_max=_SPHERE_KMAX, taus=DEFAULT_TAUS):
    """Monopole fixture: plateau against the flux, to summation roundoff.

    The topological side is the Chern number of the charge-q monopole's line
    bundle (sphere_flux), computed from its character.  The spectral side is
    a fixture whose spectrum is written from its closed form
    (sphere_monopole_fixture), so only the flux is computed.  Returns
    (report, fixture system).

    Every fixture level is balanced, so each Witten value is exactly the
    zero-mode count at any cutoff and tau; summing a few thousand heat
    weights in floats adds roundoff, so the plateau tolerance is modes *
    machine-epsilon (~4e-13 at k_max 30).
    """
    timings = {}
    t0 = time.perf_counter()
    system = sphere_monopole_fixture(q, k_max)
    topological = sphere_flux(q)
    analytic = zero_mode_asymmetry(system)
    timings["build"] = _ms(t0)

    report = _case_report(
        f"sphere q={q} k_max={k_max}", system, taus, analytic, topological, timings,
        system.eigenvalues.size * sys.float_info.epsilon)
    return report, system


def _csv_source(source):
    # the source as the csv dialect writes the last field of a three-field
    # row; alone in a row, an empty field would come out as ""
    buf = io.StringIO()
    csv.writer(buf).writerow(["", "", source])
    return buf.getvalue()[2:-2]


def write_spectrum_csv(path, system):
    """lambda,chirality,source rows for one system, 12-digit floats.

    The bytes are csv.writer's, \\r\\n line ends included.  Rows are
    formatted _CSV_ROWS at a time and each chunk is written with one call,
    so the writer holds a chunk of rows, not copies of the whole spectrum.
    """
    tail = f",{_csv_source(system.source)}\r\n"
    lam, chi = system.eigenvalues, system.chiralities
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("lambda,chirality,source\r\n")
        for lo in range(0, lam.size, _CSV_ROWS):
            hi = lo + _CSV_ROWS
            fh.write("".join(f"{x:.{SIGNIFICANT_DIGITS}g},{c}{tail}"
                             for x, c in zip(lam[lo:hi].tolist(), chi[lo:hi].tolist())))


# ---------------------------------------------------------------------------
# verify-all stages.  Each returns its json section, whose "pass" is its verdict.


@functools.lru_cache(maxsize=16)
def _masks_up_to(dim, cap):
    return tuple(m for m in range(1 << dim) if m.bit_count() <= cap)


def random_multivector(ctx, rng, flavor=EXTERIOR, max_grade=None, n_terms=6):
    """Sparse random element with coefficients uniform in [-1,1]^2.

    A partial Fisher-Yates shuffle driven by rng.random() picks the distinct
    masks up to the grade cap; then each coefficient's real and imaginary
    part are scalar rng.uniform(-1, 1) draws in turn.  Only the two methods
    random.Random and numpy's Generator share are called.
    """
    pool = list(_masks_up_to(ctx.dim, ctx.dim if max_grade is None else max_grade))
    count = min(n_terms, len(pool))
    for i in range(count):
        j = i + int(rng.random() * (len(pool) - i))
        pool[i], pool[j] = pool[j], pool[i]
    terms = {mask: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for mask in pool[:count]}
    return MultiVector(ctx, terms, flavor)


def random_two_form(ctx, rng):
    """Random real grade-2 element (a curvature-style entry)."""
    terms = {}
    for i in range(1, ctx.dim + 1):
        for j in range(i + 1, ctx.dim + 1):
            terms[(1 << (i - 1)) | (1 << (j - 1))] = rng.uniform(-1, 1)
    return MultiVector(ctx, terms, EXTERIOR)


def stage_algebra():
    rng = random.Random(_REPORT_SEED)
    anti_dev = 0.0
    trace_dev = 0.0
    assoc_dev = 0.0
    for n in (1, 2, 3, 4):
        ctx = AlgebraContext(2 * n)
        gens = [ctx.generator(mu, CLIFFORD) for mu in range(1, ctx.dim + 1)]
        # {g_mu, g_nu} is symmetric in mu and nu: each unordered pair once
        for mu in range(ctx.dim):
            for nu in range(mu, ctx.dim):
                got = clifford_mul(gens[mu], gens[nu]) + clifford_mul(gens[nu], gens[mu])
                want = ctx.scalar(-2.0 if mu == nu else 0.0, CLIFFORD)
                anti_dev = max(anti_dev, (got - want).max_norm())
        trace_dev = max(trace_dev,
                        abs(clifford_trace(ctx.scalar(1.0, CLIFFORD)) - 2 ** n))
        for mask in range(1, ctx.top_mask + 1):
            trace_dev = max(trace_dev,
                            abs(clifford_trace(ctx.blade_from_mask(mask, CLIFFORD))))
        for _ in range(50):
            a = random_multivector(ctx, rng, CLIFFORD)
            b = random_multivector(ctx, rng, CLIFFORD)
            c = random_multivector(ctx, rng, CLIFFORD)
            gap = (clifford_mul(clifford_mul(a, b), c)
                   - clifford_mul(a, clifford_mul(b, c))).max_norm()
            assoc_dev = max(assoc_dev, gap)

    ctx = AlgebraContext(4)
    xi = random_multivector(ctx, rng, max_grade=2)
    eta = random_multivector(ctx, rng, max_grade=2)
    defects = []
    for eps in (1e-1, 1e-2, 1e-3):
        prod = clifford_mul(phi_eps(xi, eps), phi_eps(eta, eps))
        defects.append((phi_eps_inv(prod, eps) - wedge(xi, eta)).max_norm())
    ratios = [defects[0] / defects[1], defects[1] / defects[2]]

    ok = (max(anti_dev, trace_dev, assoc_dev) <= ALGEBRA_TOL
          and all(80.0 <= r <= 120.0 for r in ratios))
    return {
        "anticommutator_max_dev": anti_dev,
        "basis_trace_max_dev": trace_dev,
        "associativity_max_dev": assoc_dev,
        "phi_defects": defects,
        "phi_defect_ratios": ratios,
        "pass": ok,
    }


def stage_characteristic():
    rng = random.Random(_REPORT_SEED + 1)

    # genus vs rational splitting oracle in dimension 8, three live blocks
    ctx = AlgebraContext(8)
    blocks = [random_two_form(ctx, rng) for _ in range(3)] + [ctx.scalar(0.0)]
    genus = a_hat(block_diagonal_riemann(ctx, blocks))
    sq = [wedge(b * (1.0 / TWO_PI), b * (1.0 / TWO_PI)) for b in blocks[:3]]
    # p_j is the j-th elementary symmetric polynomial of the squared blocks;
    # it is a 4j-form and carries y-degree 2j in the oracle's table
    zero = ctx.scalar(0.0)
    p = {j: sum((functools.reduce(wedge, c) for c in combinations(sq, j)), zero)
         for j in (1, 2)}
    want = sum((functools.reduce(wedge, (p[j] for j in key), ctx.scalar(1.0)) * float(c)
                for key, c in splitting_oracle(3, ctx.dim // 2).items()), zero)
    oracle_dev = (genus - want).max_norm()

    flat = a_hat(zero_riemann(AlgebraContext(4)))
    flat_dev = (flat - AlgebraContext(4).scalar(1.0)).max_norm()

    ctx2 = AlgebraContext(2)
    flux = FormMatrix([[ctx2.blade((1, 2)) * 3.0]], TWIST)
    integral = chern_character(flux).coefficient(1, 2) * TWO_PI
    flux_dev = abs(integral - 3.0)

    ok = oracle_dev <= ORACLE_TOL and flat_dev == 0.0 and flux_dev <= 1e-12
    return {
        "ahat_vs_oracle_dev": oracle_dev,
        "ahat_flat_dev": flat_dev,
        "chern_flux_integral": integral.real,
        "chern_flux_dev": flux_dev,
        "pass": ok,
    }


def stage_torus():
    cases = []
    ok = True
    for size in (8, 12):
        for q in range(-3, 4):
            report, system = run_torus_case(size, q, method="overlap")
            asym = zero_mode_asymmetry(system)
            case_ok = report.passed and asym == q and report.analytic_index == q
            ok = ok and case_ok
            cases.append({
                "N": size,
                "q": q,
                "flux": report.topological_index,
                "overlap": report.analytic_index,
                "asymmetry": asym,
                "pair_violations": report.pair_check_violations,
                "plateau_dev": round(report.plateau_deviation, PLATEAU_DIGITS),
                "pass": case_ok,
            })

    # twenty random gauge transformations must not move any integer
    rng = random.Random(_REPORT_SEED + 2)
    gauge = build_torus_gauge(8, 2)
    changes = 0
    for _ in range(20):
        twisted = random_gauge_transform(gauge, rng)
        op = build_wilson_dirac(twisted)
        if (topological_flux(twisted) != 2 or overlap_index(op) != 2
                or zero_mode_asymmetry(heat_kernel_system(op)) != 2):
            changes += 1
    ok = ok and changes == 0
    return {
        "cases": cases,
        "gauge_sweep": {"N": 8, "q": 2, "transforms": 20,
                        "integer_changes": changes},
        "pass": ok,
    }


def stage_sphere():
    """Sphere cases q = -2..2: each flux is computed, each spectrum is the closed-form fixture."""
    cases = []
    ok = True
    for q in range(-2, 3):
        report, _ = run_sphere_case(q, k_max=_SPHERE_KMAX)
        ok = ok and report.passed
        cases.append({
            "q": q,
            "asymmetry": report.analytic_index,
            "witten_values": [[t, v] for t, v in report.witten_values],
            "pair_violations": report.pair_check_violations,
            "pass": report.passed,
        })
    return {"k_max": _SPHERE_KMAX, "cases": cases, "pass": ok}


def genfun_table(ys, cutoffs):
    """Matrix element against the closed form at each cutoff, and the verdict.

    Returns (rows, partition_devs, converged, ok).  rows[i] holds one row per
    cutoff for ys[i], and partition_devs[i] is |partition sum - closed form|
    at ys[i].  converged: at every y the largest cutoff's abs_diff is below
    GENFUN_TOL.  ok: converged, and every partition deviation is within
    PARTITION_TOL.

    abs_diff and every verdict derived from it are taken from the value at
    the report's 12 digits: a converged value sits closer to the closed form
    than its own rounding, and a reader recomputing |value - closed form|
    from the row must get abs_diff back.
    """
    rows, partition_devs = [], []
    for y in ys:
        closed = a_closed_form(y)
        partition_devs.append(abs(partition_sum(y, 100) - closed))
        values = [round_sig(qho_generating_function(y, cutoff)) for cutoff in cutoffs]
        rows.append([{"y": y, "cutoff": cutoff, "value": value, "closed_form": closed,
                      "abs_diff": abs(value - closed)}
                     for cutoff, value in zip(cutoffs, values)])
    converged = all(y_rows[-1]["abs_diff"] < GENFUN_TOL for y_rows in rows)
    return rows, partition_devs, converged, converged and max(partition_devs) <= PARTITION_TOL


def stage_genfun():
    rows, partition_devs, converged, ok = genfun_table(_GENFUN_YS, _GENFUN_CUTOFFS)
    return {
        "rows": [row for y_rows in rows for row in y_rows],
        "partition_check_max_dev": max(partition_devs),
        "converged_at_max_cutoff": converged,
        "pass": ok,
    }


_STAGES = (
    ("algebra", stage_algebra),
    ("characteristic", stage_characteristic),
    ("torus", stage_torus),
    ("sphere", stage_sphere),
    ("genfun", stage_genfun),
)


def run_verify_all():
    """All five categories; returns (document, exit code, stage timings ms).

    The document's top-level keys are exactly the category names in fixed
    order.  The exit code is 0 if every category passes, else 1.
    """
    doc, timings, passed = {}, {}, True
    for name, fn in _STAGES:
        t0 = time.perf_counter()
        doc[name] = fn()
        timings[name] = _ms(t0)
        passed = passed and doc[name]["pass"]
    return doc, 0 if passed else 1, timings
