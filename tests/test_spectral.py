import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from diracindex.report import run_sphere_case, run_torus_case
from diracindex.spectral import (
    GAMMA1,
    GAMMA2,
    GAMMA5,
    AmbiguousSpectrumError,
    LatticeGaugeField,
    PairViolation,
    SpectralSystem,
    build_torus_gauge,
    build_wilson_dirac,
    gauge_transform,
    heat_kernel_system,
    overlap_index,
    pair_check,
    plaquette_angles,
    random_gauge_transform,
    sphere_case_bytes,
    sphere_monopole_fixture,
    topological_flux,
    torus_case_bytes,
    witten_index,
    zero_mode_asymmetry,
)
from diracindex.spectral import (_INVERSION, _QUARTER_TURN, _X_REFLECTION,
                                 _lattice_symmetry, _symmetry_basis)
from wilson_reference import basis_matrices, dense_kernel, dense_wilson, overlap_operator

TWO_PI = 2.0 * math.pi


# -- graded spectra ----------------------------------------------------------

def test_spectral_system_validation():
    with pytest.raises(ValueError):
        SpectralSystem([1.0], [2])
    with pytest.raises(ValueError):
        SpectralSystem([-1e-7], [1])
    clamped = SpectralSystem([-1e-9], [1])
    assert clamped.eigenvalues.tolist() == [0.0] and clamped.chiralities.tolist() == [1]
    assert SpectralSystem([], []).eigenvalues.size == 0


@pytest.mark.parametrize("eigenvalues,chiralities,match", [
    ([np.nan, 1.0, 1.0], [1, 1, -1], "finite"),
    ([np.inf, 1.0], [1, -1], "finite"),
    ([1.0, 1.0], [1.7, -1], r"\+-1"),
    ([1.0, 1.0], [1], "one length"),
], ids=["nan-eigenvalue", "inf-eigenvalue", "chirality-1.7", "unequal-lengths"])
def test_spectral_system_rejects_malformed_spectra(eigenvalues, chiralities, match):
    with pytest.raises(ValueError, match=match):
        SpectralSystem(eigenvalues, chiralities)


def test_spectral_system_arrays_are_read_only_copies_in_given_order():
    lam, chi = np.array([2.0, 0.0, 1.0]), np.array([-1, 1, 1])
    s = SpectralSystem(lam, chi)
    assert s.eigenvalues.tolist() == [2.0, 0.0, 1.0] and s.chiralities.tolist() == [-1, 1, 1]
    for values in (s.eigenvalues, s.chiralities):
        with pytest.raises(ValueError):
            values[0] = 0
    lam[0] = 5.0  # the caller's array stays writable and unshared
    assert s.eigenvalues[0] == 2.0


def test_witten_index_basics():
    lone = SpectralSystem([0.0], [1])
    for tau in (0.1, 1.0, 10.0):
        assert witten_index(lone, tau) == 1.0
    paired = SpectralSystem([0.7, 0.7], [1, -1])
    assert witten_index(paired, 2.0) == 0.0
    assert abs(witten_index(SpectralSystem([1.0], [1]), 1.0) - math.exp(-0.5)) < 1e-15
    with pytest.raises(ValueError):
        witten_index(lone, 0.0)
    with pytest.raises(ValueError):
        witten_index(lone, -1.0)
    # infinity made nan (0 * inf) with a RuntimeWarning, and an int past the
    # float range overflowed
    for tau in (math.inf, -math.inf, math.nan, 10**400):
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            witten_index(lone, tau)


def test_zero_mode_asymmetry():
    s = SpectralSystem([1e-15, 0.8, 0.8], [1, 1, -1])
    assert zero_mode_asymmetry(s) == 1
    both = SpectralSystem([0.0, 0.0, 0.0, 2.0, 2.0], [1, 1, -1, 1, -1])
    assert zero_mode_asymmetry(both) == 1
    # smallest nonzero eigenvalue too close to the tolerance: refuse
    murky = SpectralSystem([0.0, 2e-8], [1, -1])
    with pytest.raises(AmbiguousSpectrumError):
        zero_mode_asymmetry(murky)
    assert zero_mode_asymmetry(SpectralSystem([], [])) == 0


def test_pair_check():
    lone = SpectralSystem([0.5], [1])
    v = pair_check(lone)
    assert v == [PairViolation(0.5, 0.5, 1, 0)]
    balanced = SpectralSystem([0.5, 0.5, 1.0, 1.0], [1, -1, -1, 1])
    assert pair_check(balanced) == []
    # members of one near-degenerate cluster balance each other
    close = SpectralSystem([1.0, 1.0 + 5e-7], [1, -1])
    assert pair_check(close) == []
    # two separated unbalanced clusters are reported separately
    split = SpectralSystem([1.0, 2.0], [1, -1])
    assert len(pair_check(split)) == 2
    # zero modes are not the pairing's business
    zero = SpectralSystem([0.0, 0.0], [1, 1])
    assert pair_check(zero) == []


# -- monopole fixture --------------------------------------------------------

def test_sphere_fixture_structure():
    s = sphere_monopole_fixture(2, 5)
    lam, chi = s.eigenvalues, s.chiralities
    assert chi[lam == 0.0].tolist() == [1, 1]
    for k in range(1, 6):
        level = lam == float(k * (k + 2))
        plus = np.sum(level & (chi == 1))
        minus = np.sum(level & (chi == -1))
        assert plus == minus == 2 * k + 2
    neg = sphere_monopole_fixture(-3, 2)
    assert neg.chiralities[neg.eigenvalues == 0.0].tolist() == [-1, -1, -1]
    free = sphere_monopole_fixture(0, 4)
    assert np.all(free.eigenvalues > 0)
    assert s.source == "sphere"


def test_sphere_fixture_witten_is_exact():
    # every fixture level is balanced, so cutting the spectrum at any k_max
    # moves no Witten value: each sits within modes * machine-epsilon of the
    # charge, the whole of the sphere case's plateau tolerance
    for q in range(-5, 6):
        for k_max in (1, 2, 5, 30, 300):
            s = sphere_monopole_fixture(q, k_max)
            assert zero_mode_asymmetry(s) == q
            assert pair_check(s) == []
            roundoff = s.eigenvalues.size * sys.float_info.epsilon
            for tau in (1e-3, 0.05, 0.5, 1.0, 2.0, 5.0, 50.0):
                assert abs(witten_index(s, tau) - q) <= roundoff, (q, k_max, tau)
    case, _ = run_sphere_case(-3, k_max=1, taus=(1e-3, 0.05, 50.0))
    assert case.passed


def test_sphere_fixture_refuses_bad_arguments():
    with pytest.raises(ValueError, match=r"^k_max must be an integer >= 1$"):
        sphere_monopole_fixture(1, 0)
    with pytest.raises(ValueError, match="^q must be an integer$"):
        sphere_monopole_fixture(0.5, 10)
    # the runner builds the fixture before the flux, so it refuses the same
    with pytest.raises(ValueError, match="^q must be an integer$"):
        run_sphere_case(0.5)


def test_sphere_flux_is_the_character_integral(monkeypatch):
    # the sphere's topological side is computed: the charge-q bundle's
    # constant curvature q / 2 integrates to q over the area 4 pi, and a case
    # whose flux disagrees with its zero modes fails
    from diracindex import report

    fluxes = [report.sphere_flux(q) for q in range(-4, 5)]
    assert fluxes == list(range(-4, 5))
    assert all(type(flux) is int for flux in fluxes)
    # an unquantized charge is refused, not rounded (0.5 -> 0, 1.5 -> 2, 3.2 -> 3)
    for q in (0.5, 1.5, 3.2):
        with pytest.raises(ValueError, match="^q must be an integer$"):
            report.sphere_flux(q)
    case, _ = run_sphere_case(2, k_max=5)
    assert case.passed and case.topological_index == 2
    monkeypatch.setattr(report, "sphere_flux", lambda q: q + 1)
    case, _ = run_sphere_case(2, k_max=5)
    assert not case.passed and case.topological_index == 3


# -- torus background --------------------------------------------------------

def test_build_torus_gauge_validation():
    with pytest.raises(ValueError):
        build_torus_gauge(3, 1)
    with pytest.raises(ValueError):
        build_torus_gauge(8.0, 1)
    with pytest.raises(ValueError):
        build_torus_gauge(8, 32)  # |q| >= N^2/2
    with pytest.raises(ValueError):
        build_torus_gauge(8, 1.5)
    with pytest.raises(ValueError):
        LatticeGaugeField(2.0 * np.ones((2, 4, 4)))
    with pytest.raises(ValueError):
        LatticeGaugeField(np.ones((3, 4, 4)))
    # the field refuses the sizes build_torus_gauge does; N = 0 died in a
    # zero-size reduction, and N < 4 built and ran
    for size in (0, 1, 2, 3):
        with pytest.raises(ValueError, match="^lattice size must be an integer >= 4$"):
            LatticeGaugeField(np.ones((2, size, size)))
    # NaN fails the modulus test; a NaN link would break the flux and the eigensolve
    links = np.ones((2, 4, 4), dtype=complex)
    links[1, 2, 3] = np.nan
    with pytest.raises(ValueError, match="^link phases must have unit modulus$"):
        LatticeGaugeField(links)


def test_constant_flux_plaquettes():
    for n, q in ((8, 3), (6, -2), (12, 0)):
        g = build_torus_gauge(n, q)
        phi = TWO_PI * q / n**2
        angles = plaquette_angles(g)
        assert np.max(np.abs(angles - phi)) < 1e-13
        assert topological_flux(g) == q
    assert np.all(build_torus_gauge(6, 0).links == 1.0)


def test_topological_flux_is_quantized_for_any_unit_links():
    # every link enters two plaquettes with opposite orientation, so the
    # angle sum is an exact multiple of 2 pi even for pure noise fields,
    # and topological_flux only rounds away float roundoff
    rng = np.random.default_rng(2)
    for _ in range(5):
        links = np.exp(1j * rng.uniform(-np.pi, np.pi, (2, 6, 6)))
        noise = LatticeGaugeField(links)
        total = plaquette_angles(noise).sum() / TWO_PI
        assert abs(total - round(total)) < 1e-10
        assert topological_flux(noise) == round(total)


def test_gauge_transform_exactly_preserves_plaquettes():
    rng = np.random.default_rng(5)
    g = build_torus_gauge(8, 2)
    g2 = random_gauge_transform(g, rng)
    assert not np.allclose(g.links, g2.links)  # the links themselves do move
    assert np.max(np.abs(plaquette_angles(g) - plaquette_angles(g2))) < 1e-13
    with pytest.raises(ValueError):
        gauge_transform(g, np.zeros((4, 4)))
    # a NaN phase or angle would give a field of NaN links
    for kind, bad in ((complex, 2.0), (complex, complex(np.nan, 0.0)),
                      (float, np.nan), (float, np.inf)):
        phases = np.ones((8, 8), dtype=kind)
        phases[3, 5] = bad
        message = ("complex site phases must have unit modulus" if kind is complex
                   else "site angles must be finite")
        with pytest.raises(ValueError, match=f"^{message}$"):
            gauge_transform(g, phases)


def test_random_gauge_transform_keeps_a_generators_angles():
    # with a numpy Generator, N^2 scalar draws give the angles of the one
    # vectorised call random_gauge_transform used to make, bit for bit
    for size, seed in ((4, 0), (8, 5), (12, 61)):
        g = build_torus_gauge(size, 1)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_gauge_transform(g, got_rng)
        want = gauge_transform(g, want_rng.uniform(0, 2 * np.pi, (size, size)))
        assert got.links.tobytes() == want.links.tobytes()
        assert got_rng.random() == want_rng.random()


# -- Wilson / overlap --------------------------------------------------------

def test_wilson_chirality_hermiticity_and_free_symmetry():
    g = build_torus_gauge(6, 0)
    op = build_wilson_dirac(g)
    gamma, d = np.diag(op.chirality), dense_wilson(op)
    assert np.max(np.abs(gamma @ d @ gamma - d.conj().T)) == 0.0
    # free massless spectrum is closed under complex conjugation (matched
    # pairwise: lexicographic sorting is unstable under degeneracy noise)
    ev = np.linalg.eigvals(d)
    nearest = np.min(np.abs(ev[None, :] - ev.conj()[:, None]), axis=1)
    assert np.max(nearest) < 1e-12


def test_wilson_mass_window_warning():
    g = build_torus_gauge(6, 1)
    with pytest.warns(UserWarning, match="window"):
        build_wilson_dirac(g, mass=2.5)
    with pytest.warns(UserWarning, match="window"):
        build_wilson_dirac(g, mass=-0.3)


def test_wilson_refuses_a_mass_that_is_not_finite():
    # NaN and infinity reached LAPACK, which failed to converge, and an int
    # past the float range overflowed in float()
    g = build_torus_gauge(6, 1)
    for mass in (math.nan, math.inf, 10**400):
        with pytest.raises(ValueError, match="^mass must be finite$"):
            build_wilson_dirac(g, mass=mass)


def test_overlap_refuses_mass_on_crossing():
    g = build_torus_gauge(6, 0)
    op = build_wilson_dirac(g, mass=1e-15)  # free field crossing at m = 0
    with pytest.raises(AmbiguousSpectrumError):
        overlap_index(op)


def test_overlap_index_equals_flux():
    for q in range(-2, 3):
        g = build_torus_gauge(8, q)
        assert overlap_index(build_wilson_dirac(g)) == q


def test_overlap_index_is_the_exact_half_trace():
    # the count of negative kernel eigenvalues less N^2 is -(1/2) tr sign(H)
    # of the dense kernel, as an int, on a constant-flux field, a gauge
    # transform of it and a noise field
    rng = np.random.default_rng(71)
    base = build_torus_gauge(6, 2)
    noise = LatticeGaugeField(np.exp(1j * rng.uniform(-np.pi, np.pi, (2, 6, 6))))
    for gauge in (base, random_gauge_transform(base, rng), noise):
        op = build_wilson_dirac(gauge)
        half_trace = -0.5 * np.sum(np.sign(np.linalg.eigvalsh(dense_kernel(op))))
        got = overlap_index(op)
        assert type(got) is int and got == half_trace


def test_overlap_circle_relation():
    # m(D + D^dag) = D^dag D holds exactly for the overlap construction
    g = build_torus_gauge(6, 1)
    op = build_wilson_dirac(g)
    dov = overlap_operator(op)
    lhs = op.mass * (dov + dov.conj().T)
    rhs = dov.conj().T @ dov
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_heat_kernel_system_structure():
    g = build_torus_gauge(8, 2)
    op = build_wilson_dirac(g)
    sys_ = heat_kernel_system(op)
    lam = sys_.eigenvalues
    assert sys_.source == "torus N=8 q=2"
    assert np.all(lam >= 0.0)
    top = 4.0 * op.mass**2
    assert np.max(lam) < top * (1.0 - 1e-9)  # artifact branch excluded
    zeros = sys_.chiralities[lam <= 1e-10].tolist()
    assert zeros == [1, 1]
    assert pair_check(sys_) == []
    assert zero_mode_asymmetry(sys_) == 2


def test_heat_kernel_plateau():
    op = build_wilson_dirac(build_torus_gauge(12, 3))
    sys_ = heat_kernel_system(op)
    for tau in (0.5, 1.0, 2.0, 3.5, 5.0):
        assert abs(witten_index(sys_, tau) - 3.0) <= 1e-6


def test_free_field_witten_vanishes():
    sys_ = heat_kernel_system(build_wilson_dirac(build_torus_gauge(8, 0)))
    for tau in (0.1, 0.5, 1.0, 5.0, 10.0):
        assert abs(witten_index(sys_, tau)) < 1e-6
    assert zero_mode_asymmetry(sys_) == 0


def test_index_is_gauge_invariant():
    rng = np.random.default_rng(17)
    g = build_torus_gauge(8, -2)
    base_sys = heat_kernel_system(build_wilson_dirac(g))
    for _ in range(3):
        g2 = random_gauge_transform(g, rng)
        op2 = build_wilson_dirac(g2)
        assert topological_flux(g2) == -2
        assert overlap_index(op2) == -2
        assert zero_mode_asymmetry(heat_kernel_system(op2)) == -2
    assert zero_mode_asymmetry(base_sys) == -2


# -- one kernel eigendecomposition per case ----------------------------------

@pytest.mark.parametrize("size,q,mass", [(12, -3, 0.5), (16, 3, 1.0), (16, 5, 0.8)])
def test_chirality_blocks_give_sharp_heat_spectrum(size, q, mass):
    # sectors with near-degenerate nonzero levels of both chiralities
    report, system = run_torus_case(size, q, mass=mass)
    assert report.passed
    assert report.plateau_deviation <= 1e-12

    op = build_wilson_dirac(build_torus_gauge(size, q), mass=mass)
    dov = overlap_operator(op)
    full = np.linalg.eigvalsh(dov.conj().T @ dov)
    top = 4.0 * mass * mass
    full = full[np.abs(full - top) > 1e-8 * top]
    heat = heat_kernel_system(op)
    assert len(heat.eigenvalues) == len(full)
    assert np.max(np.abs(np.sort(heat.eigenvalues) - full)) <= 1e-12
    zeros = heat.chiralities[heat.eigenvalues <= 1e-10].tolist()
    assert zeros == [int(np.sign(q))] * abs(q)


@pytest.mark.parametrize("method", ["overlap", "heat"])
def test_one_kernel_eigh_per_torus_case(monkeypatch, method):
    # four real symmetry blocks of about N^2/2, each split once more by chirality
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, a.shape[-1], a.dtype))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    report, _ = run_torus_case(8, 2, method=method)
    assert report.passed
    eigh = [(dim, dtype) for name, dim, dtype in calls if name == "eigh"]
    eigvalsh = [dim for name, dim, _ in calls if name == "eigvalsh"]
    assert len(eigh) == 4 and all(dtype == np.float64 for _, dtype in eigh)
    assert sum(dim for dim, _ in eigh) == 128 and max(dim for dim, _ in eigh) <= 33
    assert len(eigvalsh) == 8 and sum(eigvalsh) == 128


def test_torus_case_refuses_an_unknown_method():
    with pytest.raises(ValueError) as info:
        run_torus_case(8, 2, method="x")
    assert str(info.value) == "method must be 'overlap' or 'heat', got 'x'"


def test_torus_case_memory_peak():
    # the operator is its links: a case never holds a (2N^2)-square matrix,
    # and of its four symmetry blocks only one at a time, with its
    # eigenvectors (16 k^2 bytes), beside the join's per-block temporaries;
    # a case that holds all four blocks at once exceeds this bound
    for size in (24, 32):
        gauge = build_torus_gauge(size, 3)
        tracemalloc.start()
        try:
            op = build_wilson_dirac(gauge)
            overlap_index(op)
            heat_kernel_system(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 16 * (2 * size * size) ** 2
        assert peak <= 16 * (size * size // 2 + 1) ** 2 + 4096 * size**2
        assert peak <= torus_case_bytes(size)


_RSS_CHILD = """
import sys
from diracindex.spectral import (build_torus_gauge, build_wilson_dirac,
                                 heat_kernel_system, overlap_index)


def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


gauge = build_torus_gauge(int(sys.argv[1]), 3)
before = peak_kib()
op = build_wilson_dirac(gauge)
overlap_index(op)
heat_kernel_system(op)
print(peak_kib() - before)
"""


def test_torus_case_resident_growth_is_within_the_model():
    # torus_case_bytes, which index-torus checks against its budget, bounds
    # what a case adds to the peak resident set of a fresh process, LAPACK's
    # copy and workspace included (tracemalloc sees neither), and is not
    # loose.  The child reads its own high-water mark, VmHWM: ru_maxrss
    # would carry the forking test process's over from before exec
    size = 40
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
        env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _RSS_CHILD, str(size)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    growth = 1024 * int(done.stdout)
    assert 0.5 * torus_case_bytes(size) < growth <= torus_case_bytes(size)


def test_sphere_case_memory_peak():
    # sphere_case_bytes, which index-sphere checks against its budget, bounds
    # the case's peak and is not loose
    tracemalloc.start()
    try:
        run_sphere_case(2, k_max=300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.9 * sphere_case_bytes(2, 300) < peak <= sphere_case_bytes(2, 300)


# -- symmetry-adapted kernel blocks ------------------------------------------

def _block_eighs(monkeypatch, op):
    # (size, dtype) of each block eigh the operator's first use makes
    calls = []
    original = np.linalg.eigh

    def spy(a, *args, **kwargs):
        calls.append((a.shape[-1], a.dtype))
        return original(a, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", spy)
        op._block_spectra
    return calls


def _assert_matches_full_matrix(op):
    # the full-matrix route: one eigh of the dense 2N^2-square kernel
    h = dense_kernel(op)
    assert overlap_index(op) == -0.5 * np.sum(np.sign(np.linalg.eigvalsh(h)))
    dov = overlap_operator(op)
    full = np.linalg.eigvalsh(dov.conj().T @ dov)
    top = 4.0 * op.mass**2
    full = full[np.abs(full - top) > 1e-8 * top]
    heat = heat_kernel_system(op)
    assert len(heat.eigenvalues) == len(full)
    assert np.max(np.abs(np.sort(heat.eigenvalues) - full)) <= 1e-12
    return heat


_SWEEP_RNG = np.random.default_rng(505)
SWEEP = [(size, int(_SWEEP_RNG.integers(-3, 4)),
          round(float(_SWEEP_RNG.uniform(0.3, 1.7)), 3), twisted)
         for size in (5, 6, 7, 8, 9, 10) for twisted in (False, True)]


def _bumped(gauge, axis, amplitude=0.3):
    # a flux-neutral bump on the links of one direction: the y links by a
    # sine in x, which the inversion and the x-reflection keep, or the x
    # links by a cosine in y, which the x-reflection alone keeps; the
    # quarter turn keeps neither
    n = gauge.size
    wave = np.arange(n) * TWO_PI / n
    links = gauge.links.copy()
    if axis == 1:
        links[1] *= np.exp(1j * amplitude * np.sin(wave))[:, None]
    else:
        links[0] *= np.exp(1j * amplitude * np.cos(wave))[None, :]
    return LatticeGaugeField(links, gauge.flux_quantum)


@pytest.mark.parametrize("size,q,mass,twisted", SWEEP)
def test_symmetry_blocks_match_full_matrix(size, q, mass, twisted):
    gauge = build_torus_gauge(size, q)
    if twisted:
        gauge = random_gauge_transform(gauge, np.random.default_rng(size))
    op = build_wilson_dirac(gauge, mass=mass)
    assert [(sym.site_map, sym.antiunitary) for sym in op.symmetries] == [
        (_QUARTER_TURN, False), (_X_REFLECTION, True)]
    dims = [len(block.kernel) for block in op._block_spectra]
    assert len(dims) == 4 and sum(dims) == 2 * size * size
    assert max(dims) <= size * size // 2 + 1
    heat = _assert_matches_full_matrix(op)
    zeros = heat.chiralities[heat.eigenvalues <= 1e-10].tolist()
    assert zeros == [int(np.sign(q))] * abs(q)


@pytest.mark.parametrize("size,twisted", [(6, False), (7, True), (8, True)])
def test_partly_symmetric_fields_keep_the_blocks_they_have(monkeypatch, size, twisted):
    # a bump in the y links keeps the inversion and the x-reflection (two
    # real blocks), one in the x links the x-reflection alone (one real
    # block); the index is the flux either way
    rng = np.random.default_rng(40 + size)
    for axis, maps, dims in ((1, [_INVERSION, _X_REFLECTION], [size * size] * 2),
                             (0, [_X_REFLECTION], [2 * size * size])):
        gauge = _bumped(build_torus_gauge(size, 2), axis)
        if twisted:
            gauge = random_gauge_transform(gauge, rng)
        assert topological_flux(gauge) == 2
        op = build_wilson_dirac(gauge, mass=0.9)
        assert [sym.site_map for sym in op.symmetries] == maps
        assert _block_eighs(monkeypatch, op) == [(dim, np.float64) for dim in dims]
        heat = _assert_matches_full_matrix(op)
        assert overlap_index(op) == zero_mode_asymmetry(heat) == 2


@pytest.mark.parametrize("size", [5, 6])
def test_every_subset_of_symmetries_gives_the_same_spectrum(size):
    # the quarter turn, the inversion and the x-reflection, alone or with
    # the reflection, each give blocks whose spectra are the full kernel's
    gauge = random_gauge_transform(build_torus_gauge(size, -2), np.random.default_rng(3))
    op = build_wilson_dirac(gauge, mass=1.3)
    turn, reflection = op.symmetries
    inversion = _lattice_symmetry(gauge.links, _INVERSION, False, GAMMA5.diagonal().real)
    assert inversion is not None
    full = np.linalg.eigvalsh(dense_kernel(op))
    subsets = [(), (turn,), (inversion,), (reflection,), (inversion, reflection),
               (reflection, turn)]
    for subset in subsets:
        blocked = replace(op, symmetries=subset)
        evals = np.sort(np.concatenate([block.kernel for block in blocked._block_spectra]))
        assert np.max(np.abs(evals - full)) <= 1e-12
        assert overlap_index(blocked) == -2


def test_index_is_the_flux_across_the_mass_window():
    # seeded loop (CI installs no hypothesis): for |q| <= 3 and N >= 6 the
    # crossings of the physical branch sit below m = 0.25 and those of the
    # doublers above 1.75, so between them both counts equal the flux,
    # unless the spectrum is refused as ambiguous; never another integer
    rng = np.random.default_rng(707)
    resolved = 0
    for _ in range(24):
        size, q = int(rng.integers(6, 13)), int(rng.integers(-3, 4))
        mass = float(rng.uniform(0.3, 1.7))
        op = build_wilson_dirac(build_torus_gauge(size, q), mass=mass)
        try:
            counts = (overlap_index(op), zero_mode_asymmetry(heat_kernel_system(op)))
        except AmbiguousSpectrumError:
            continue
        assert counts == (q, q), (size, q, mass)
        resolved += 1
    assert resolved >= 20


@pytest.mark.parametrize("size,q", [(8, 2), (9, 1), (7, 3), (6, -3)])
def test_index_steps_only_through_refused_crossings(size, q):
    # below the window the count steps from 0 towards the flux as kernel
    # eigenvalues cross zero; bisecting a step must end on a mass whose
    # spectrum is refused, not on a jump between two clean readings
    gauge = build_torus_gauge(size, q)

    def count(mass):
        return overlap_index(build_wilson_dirac(gauge, mass=mass))

    lo, hi = 0.01, 0.4
    low = count(lo)
    assert low == 0 and count(hi) != low
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        try:
            lo, hi = (mid, hi) if count(mid) == low else (lo, mid)
        except AmbiguousSpectrumError:
            break
    else:
        pytest.fail(f"the count stepped between {lo!r} and {hi!r} with no refused mass")


def test_index_and_spectrum_are_gauge_invariant_over_seeded_fields():
    # seeded loop: a random gauge transform moves every link, yet the
    # symmetries are still solved (four blocks), and both counts and the
    # heat spectrum of each chirality are unchanged
    rng = np.random.default_rng(808)
    for _ in range(12):
        size, q = int(rng.integers(5, 11)), int(rng.integers(-3, 4))
        mass = float(rng.uniform(0.5, 1.5))
        gauge = build_torus_gauge(size, q)
        base = heat_kernel_system(build_wilson_dirac(gauge, mass=mass))
        twisted = random_gauge_transform(gauge, rng)
        op = build_wilson_dirac(twisted, mass=mass)
        assert len(op._block_spectra) == 4
        heat = heat_kernel_system(op)
        assert overlap_index(op) == zero_mode_asymmetry(heat) == topological_flux(twisted) == q
        for chi in (1, -1):
            moved = np.sort(heat.eigenvalues[heat.chiralities == chi])
            assert np.max(np.abs(moved - np.sort(base.eigenvalues[base.chiralities == chi]))
                          ) <= 1e-12, (size, q, mass)


def test_asymmetry_and_pairing_are_identities_on_rough_fields():
    # on link noise (no lattice symmetry, one complex block) the asymmetry
    # equals the overlap count and every nonzero mode pairs, as the CS
    # decomposition of the block's eigenvectors requires for any links;
    # the flux is the only side that can disagree, and here it does
    rng = np.random.default_rng(2601)
    flux_differs = 0
    for _ in range(20):
        size = int(rng.choice([4, 6, 8]))
        field = LatticeGaugeField(np.exp(1j * rng.uniform(-np.pi, np.pi, (2, size, size))))
        op = build_wilson_dirac(field)
        assert op.symmetries == ()
        heat = heat_kernel_system(op)
        assert zero_mode_asymmetry(heat) == overlap_index(op)
        assert pair_check(heat) == []
        flux_differs += topological_flux(field) != overlap_index(op)
    assert flux_differs >= 1


def test_noise_field_takes_one_complex_block(monkeypatch):
    rng = np.random.default_rng(9)
    links = np.exp(1j * rng.uniform(-np.pi, np.pi, (2, 6, 6)))
    op = build_wilson_dirac(LatticeGaugeField(links))
    assert op.symmetries == ()
    assert _block_eighs(monkeypatch, op) == [(72, np.complex128)]
    _assert_matches_full_matrix(op)


@pytest.mark.parametrize("size,q", [(8, 2), (7, -1)])
def test_kernel_blocks_are_streamed(monkeypatch, size, q):
    # each block and its eigenvectors are gone before the next block's eigh
    held = []
    original = np.linalg.eigh

    def spy(a, *args, **kwargs):
        assert all(ref() is None for ref in held)
        out = original(a, *args, **kwargs)
        held.extend([weakref.ref(a), weakref.ref(out.eigenvectors)])
        return out

    op = build_wilson_dirac(build_torus_gauge(size, q))
    monkeypatch.setattr(np.linalg, "eigh", spy)
    assert overlap_index(op) == q
    assert len(held) == 8 and all(ref() is None for ref in held)


def test_noise_field_block_is_not_gathered():
    # with no symmetry the basis is the identity and (D - m) V is the block
    # itself; gathering a copy of it read 4.19 units of 16 (2N^2)^2 bytes
    size = 12
    rng = np.random.default_rng(9)
    field = LatticeGaugeField(np.exp(1j * rng.uniform(-np.pi, np.pi, (2, size, size))))
    tracemalloc.start()
    try:
        op = build_wilson_dirac(field)
        overlap_index(op)
        heat_kernel_system(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.symmetries == ()
    assert peak < 3.3 * 16 * (2 * size * size) ** 2


@pytest.mark.parametrize("size,twisted", [(5, True), (6, False), (8, True), (9, False)])
def test_adapted_basis_is_orthonormal_and_real(size, twisted):
    gauge = build_torus_gauge(size, 2)
    if twisted:
        gauge = random_gauge_transform(gauge, np.random.default_rng(70 + size))
    op = build_wilson_dirac(gauge, mass=0.7)
    dim = 2 * size * size
    d = dense_wilson(op)
    inversion = _lattice_symmetry(gauge.links, _INVERSION, False, GAMMA5.diagonal().real)
    matrices = {}
    for sym in op.symmetries + (inversion,):
        s = np.zeros((dim, dim), dtype=complex)
        s[sym.perm, np.arange(dim)] = sym.weight
        image = s @ (d.conj() if sym.antiunitary else d) @ s.conj().T
        assert np.max(np.abs(image - d)) <= 1e-13
        matrices[sym.site_map] = s
    # the turn is normalised so that its fourth power is 1 and its square the inversion
    turn = matrices[_QUARTER_TURN]
    assert np.max(np.abs(np.linalg.matrix_power(turn, 4) - np.eye(dim))) <= 1e-13
    assert np.max(np.abs(turn @ turn - matrices[_INVERSION])) <= 1e-13
    h = dense_kernel(op)
    basis = _symmetry_basis(op.chirality, op.symmetries)
    assert basis.col.shape[0] == 2  # each row lies in at most two columns of a block
    columns = basis_matrices(basis)
    for v, chi in zip(columns, basis.chirality):
        assert np.all((np.abs(v) > 0).sum(axis=0) <= 8)
        assert np.array_equal(chi, op.chirality[np.argmax(np.abs(v), axis=0)])
        on = np.abs(v) > 0  # one spinor component each, the chirality's
        assert np.all(op.chirality[:, None] * on == chi * on)
        assert np.max(np.abs((v.conj().T @ h @ v).imag)) <= 1e-13
    dims = [v.shape[1] for v in columns]
    assert len(dims) == 4 and max(dims) <= size * size // 2 + 1
    full = np.hstack(columns)
    assert np.max(np.abs(full.conj().T @ full - np.eye(dim))) <= 1e-14


def test_gamma_matrices_make_every_hop_chirality_hermitian():
    # Gamma D[s, s + mu] Gamma = D[s + mu, s]^dagger for any link value,
    # because each gamma is Hermitian and squares to 1 and GAMMA5
    # anticommutes with gamma_1 and gamma_2; so build_wilson_dirac checks
    # nothing per hop
    for gamma in (GAMMA1, GAMMA2, GAMMA5):
        assert np.array_equal(gamma, gamma.conj().T)
        assert np.array_equal(gamma @ gamma, np.eye(2))
    for gamma in (GAMMA1, GAMMA2):
        assert np.array_equal(GAMMA5 @ gamma, -gamma @ GAMMA5)


def test_wilson_assembly_matches_kron_reference():
    n = 6
    gauge = random_gauge_transform(build_torus_gauge(n, 2),
                                   np.random.default_rng(61))
    sites = np.arange(n * n).reshape(n, n)
    ux, uy = gauge.links
    tx = np.zeros((n * n, n * n), dtype=complex)
    ty = np.zeros((n * n, n * n), dtype=complex)
    tx[sites.ravel(), np.roll(sites, -1, axis=0).ravel()] = ux.ravel()
    ty[sites.ravel(), np.roll(sites, -1, axis=1).ravel()] = uy.ravel()
    eye2 = np.eye(2, dtype=complex)
    want = 2.0 * np.eye(2 * n * n, dtype=complex)
    want -= 0.5 * (np.kron(tx, eye2 - GAMMA1) + np.kron(tx.conj().T, eye2 + GAMMA1)
                   + np.kron(ty, eye2 - GAMMA2) + np.kron(ty.conj().T, eye2 + GAMMA2))
    op = build_wilson_dirac(gauge)
    assert np.array_equal(dense_wilson(op), want)
    assert np.array_equal(np.diag(op.chirality), np.kron(np.eye(n * n), GAMMA5))
