import functools
import math
import random
import types
from pathlib import Path

import numpy as np
import pytest

import algebra_reference as reference
from conftest import random_multivector
from diracindex import algebra
from diracindex.algebra import (
    CLIFFORD,
    EXTERIOR,
    AlgebraContext,
    MultiVector,
    chirality,
    clifford_mul,
    clifford_trace,
    grade_project,
    phi_eps,
    phi_eps_inv,
    supertrace,
    wedge,
)
from diracindex.charclasses import a_hat
from diracindex.formdsl import load_curvature, read_curvature_file

DATA_DIR = Path(__file__).resolve().parent / "data"


def _drawn_terms(rng, masks, n_terms):
    # the draw rule written out on rng.random() alone: a partial Fisher-Yates
    # over positions picks the masks, then each coefficient's real and
    # imaginary part is -1 + 2 random(), uniform(-1, 1)'s formula
    order = list(range(len(masks)))
    count = min(n_terms, len(order))
    for i in range(count):
        j = i + math.floor(rng.random() * (len(order) - i))
        order[i], order[j] = order[j], order[i]
    return [(masks[k], (-1.0 + 2.0 * rng.random()).hex(), (-1.0 + 2.0 * rng.random()).hex())
            for k in order[:count]]


def test_random_multivector_is_two_scalar_draws_a_term():
    # the seeded elements verify-all samples: distinct masks up to the grade
    # cap, then each coefficient's real and imaginary part in turn, from a
    # random.Random or a numpy Generator alike
    for dim, cap, n_terms in ((2, None, 6), (4, 2, 6), (6, None, 9), (8, 3, 12)):
        ctx = AlgebraContext(dim)
        masks = [m for m in range(ctx.top_mask + 1) if m.bit_count() <= (cap or dim)]
        for make in (random.Random, np.random.default_rng):
            got_rng, want_rng = make(dim), make(dim)
            for _ in range(20):
                got = random_multivector(ctx, got_rng, max_grade=cap, n_terms=n_terms)
                assert ([(m, c.real.hex(), c.imag.hex()) for m, c in got.terms.items()]
                        == _drawn_terms(want_rng, masks, n_terms))


def test_context_validation():
    for bad in (0, 1, 3, 7, 18, -2, 2.0):
        with pytest.raises((ValueError, TypeError)):
            AlgebraContext(bad)
    ctx = AlgebraContext(4)
    assert ctx.half == 2 and ctx.top_mask == 0b1111
    with pytest.raises(ValueError):
        ctx.generator(0)
    with pytest.raises(ValueError):
        ctx.generator(5)
    with pytest.raises(ValueError):
        ctx.blade([2, 1])
    # contexts compare by dimension, so independently built ones interoperate
    assert AlgebraContext(4) == ctx
    other = AlgebraContext(6)
    with pytest.raises(ValueError):
        wedge(ctx.generator(1), other.generator(1))


def test_coefficient_refuses_what_blade_refuses():
    ctx = AlgebraContext(4)
    v = ctx.blade((1, 2)) + ctx.blade((4,)) * 2.0
    assert v.coefficient(1, 2) == 1 and v.coefficient(4) == 2 and v.coefficient(3) == 0
    for indices in ((99,), (5,), (1, 7), (0,), (2, 1), (2, 2)):
        with pytest.raises(ValueError) as want:
            ctx.blade(indices)
        with pytest.raises(ValueError) as got:
            v.coefficient(*indices)
        assert str(got.value) == str(want.value)
    assert str(want.value) == "blade indices must be strictly increasing"
    with pytest.raises(ValueError, match=r"^generator index 99 outside 1\.\.4$"):
        v.coefficient(99)


def test_wedge_basics():
    ctx = AlgebraContext(4)
    e1, e2, e3 = (ctx.generator(mu) for mu in (1, 2, 3))
    assert wedge(e1, e1).is_zero()
    assert wedge(e1, e2) == -wedge(e2, e1)
    v = wedge(e1 + e2, wedge(e1, e3))
    assert v.coefficient(1, 2, 3) == -1
    assert len(v.terms) == 1


def test_wedge_vector_nilpotency_is_exact():
    rng = np.random.default_rng(11)
    ctx = AlgebraContext(8)
    for _ in range(20):
        v = random_multivector(ctx, rng, max_grade=1, n_terms=8)
        v = v - grade_project(v, 0)
        assert wedge(v, v).is_zero()


def test_product_associativity_random():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        ctx = AlgebraContext(2 * n)
        a, b, c = (random_multivector(ctx, rng) for _ in range(3))
        lhs = wedge(wedge(a, b), c)
        rhs = wedge(a, wedge(b, c))
        assert (lhs - rhs).max_norm() < 1e-12
        a, b, c = (random_multivector(ctx, rng, flavor=CLIFFORD) for _ in range(3))
        lhs = clifford_mul(clifford_mul(a, b), c)
        rhs = clifford_mul(a, clifford_mul(b, c))
        assert (lhs - rhs).max_norm() < 1e-12


def test_clifford_anticommutator_exact():
    # {g_mu, g_nu} = -2 delta, with no float dust at all
    for n in range(1, 5):
        ctx = AlgebraContext(2 * n)
        for mu in range(1, 2 * n + 1):
            for nu in range(1, 2 * n + 1):
                gm = ctx.generator(mu, CLIFFORD)
                gn = ctx.generator(nu, CLIFFORD)
                acomm = clifford_mul(gm, gn) + clifford_mul(gn, gm)
                want = ctx.scalar(-2.0 if mu == nu else 0.0, CLIFFORD)
                assert acomm == want


def test_scaled_anticommutator():
    ctx = AlgebraContext(6)
    for eps in (0.5, 1e-2, 2.0, 0.3 + 0.4j):
        for mu, nu in ((1, 1), (2, 5), (4, 4)):
            a = phi_eps(ctx.generator(mu), eps)
            b = phi_eps(ctx.generator(nu), eps)
            acomm = clifford_mul(a, b) + clifford_mul(b, a)
            want = ctx.scalar(-2 * eps * eps if mu == nu else 0.0, CLIFFORD)
            assert (acomm - want).max_norm() == 0.0


def test_grade_project():
    ctx = AlgebraContext(4)
    e1 = ctx.generator(1, CLIFFORD)
    sq = clifford_mul(e1, e1)
    assert grade_project(sq, 0) == ctx.scalar(-1.0, CLIFFORD)
    rng = np.random.default_rng(3)
    a = random_multivector(ctx, rng, n_terms=12)
    back = ctx.scalar(0.0)
    for r in range(ctx.dim + 1):
        back = back + grade_project(a, r)
    assert back == a


def test_phi_eps_roundtrip():
    rng = np.random.default_rng(7)
    ctx = AlgebraContext(8)
    for eps in (0.1, 1e-3, 2.0, 0.3 + 0.4j):
        a = random_multivector(ctx, rng, n_terms=10)
        back = phi_eps_inv(phi_eps(a, eps), eps)
        assert set(back.terms) == set(a.terms)
        assert (back - a).max_norm() < 1e-12


def test_phi_eps_flavor_discipline():
    ctx = AlgebraContext(4)
    a = ctx.generator(1)
    with pytest.raises(TypeError):
        clifford_mul(a, a)
    # g1 g1 is -1, never the wedge's 0: neither product takes the other's flavor
    g = ctx.generator(1, CLIFFORD)
    assert clifford_mul(g, g) == ctx.scalar(-1.0, CLIFFORD)
    for product in (wedge, lambda x, y: x ^ y):
        with pytest.raises(TypeError, match="exterior-flavored"):
            product(g, g)
    with pytest.raises(TypeError):
        phi_eps_inv(a, 0.5)
    b = phi_eps(a, 0.5)
    with pytest.raises(TypeError):
        phi_eps(b, 0.5)
    with pytest.raises(ValueError):
        phi_eps(a, 0.0)


def test_phi_eps_defect_scales_quadratically():
    # phi is not an algebra map: the defect against wedge shrinks like eps^2
    rng = np.random.default_rng(19)
    ctx = AlgebraContext(4)
    xi = random_multivector(ctx, rng, max_grade=2, n_terms=6)
    eta = random_multivector(ctx, rng, max_grade=2, n_terms=6)
    defects = []
    for eps in (1e-1, 1e-2):
        prod = clifford_mul(phi_eps(xi, eps), phi_eps(eta, eps))
        defects.append((phi_eps_inv(prod, eps) - wedge(xi, eta)).max_norm())
    assert 50 < defects[0] / defects[1] < 200


def test_clifford_trace():
    for n in range(1, 5):
        ctx = AlgebraContext(2 * n)
        assert clifford_trace(ctx.scalar(1.0, CLIFFORD)) == 2**n
        for mask in range(1, ctx.top_mask + 1):
            assert clifford_trace(ctx.blade_from_mask(mask, CLIFFORD)) == 0
    ctx = AlgebraContext(2)
    a = ctx.scalar(2.0, CLIFFORD) + 3 * ctx.generator(1, CLIFFORD)
    assert clifford_trace(a) == 4.0


CTX4 = AlgebraContext(4)
REFUSALS = {
    "flavor": (lambda: MultiVector(CTX4, {}, "spinor"),
               ValueError, "unknown flavor 'spinor'"),
    "context": (lambda: MultiVector(4, {}, EXTERIOR),
                TypeError, "context must be an AlgebraContext"),
    "mask": (lambda: MultiVector(CTX4, {0x10: 1.0}, EXTERIOR),
             ValueError, "mask 0x10 outside the 4-generator algebra"),
    "operand": (lambda: wedge(CTX4.generator(1), 2.0),
                TypeError, "expected MultiVector operands"),
    "flavors": (lambda: clifford_mul(CTX4.generator(1, CLIFFORD), CTX4.generator(2)),
                ValueError, "mixed flavors (clifford vs exterior)"),
    "phi_eps_inv": (lambda: phi_eps_inv(CTX4.generator(1, CLIFFORD), 0),
                    ValueError, "eps must be nonzero"),
    "clifford_trace": (lambda: clifford_trace(CTX4.scalar(1.0)),
                       TypeError, "clifford_trace needs a clifford element"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals_are_named(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_chirality_squares_to_one():
    # holds for every n under this sign convention, not just even n
    for n in range(1, 5):
        ctx = AlgebraContext(2 * n)
        g = chirality(ctx)
        assert clifford_mul(g, g) == ctx.scalar(1.0, CLIFFORD)


def test_chirality_anticommutes_with_generators():
    for n in (1, 2, 3):
        ctx = AlgebraContext(2 * n)
        g = chirality(ctx)
        for mu in range(1, 2 * n + 1):
            v = ctx.generator(mu, CLIFFORD)
            assert (clifford_mul(g, v) + clifford_mul(v, g)).is_zero()


def test_chirality_pulls_back_to_volume_form():
    for n in (1, 2, 3):
        ctx = AlgebraContext(2 * n)
        vol = ctx.blade_from_mask(ctx.top_mask)
        assert phi_eps_inv(chirality(ctx), 1.0) == 1j**n * vol


def test_supertrace():
    ctx = AlgebraContext(2)
    assert supertrace(ctx.scalar(1.0, CLIFFORD)) == 0
    top = ctx.blade([1, 2], CLIFFORD)
    assert supertrace(top) == -2j
    for n in range(1, 5):
        ctx = AlgebraContext(2 * n)
        assert supertrace(chirality(ctx)) == 2**n


def test_products_prune_relative_dust():
    ctx = AlgebraContext(4)
    e1, e2, e3 = (ctx.generator(mu) for mu in (1, 2, 3))
    a = e1 + 1e-20 * e2
    v = wedge(a, e3)
    assert v.coefficient(1, 3) == 1
    assert v.coefficient(2, 3) == 0  # below 1e-14 of the leading term


def test_linear_operations_do_not_prune():
    ctx = AlgebraContext(4)
    a = ctx.scalar(1.0) + 1e-20 * ctx.generator(1)
    assert len(a.terms) == 2
    full = ctx.scalar(1.0) + ctx.blade([1, 2, 3, 4])
    back = phi_eps_inv(phi_eps(full, 1e-3), 1e-3)  # grade 4 sits at 1e-12 relative
    assert (back - full).max_norm() < 1e-12
    assert len(back.terms) == 2


def test_linear_operations_drop_exact_zeros():
    rng = np.random.default_rng(7)
    ctx = AlgebraContext(6)
    a = random_multivector(ctx, rng)
    b = MultiVector(ctx, {m: 1.0 for m in a.terms}, EXTERIOR)
    for zero in (a - a, a + (-a), a * 0, 0.0 * a, a * 0j):
        assert zero.is_zero() and zero.terms == {}
    assert list(((a + b) - b).terms) == list(a.terms)  # order kept, nothing dropped
    # a numpy complex factor multiplies as numpy does, then is stored as a
    # Python complex, as a fresh MultiVector would store it
    scaled = a * np.complex128(0.5 - 2j)
    want = MultiVector(ctx, {m: c * np.complex128(0.5 - 2j) for m, c in a.terms.items()},
                       EXTERIOR)
    assert all(type(c) is complex for c in scaled.terms.values())
    assert list(scaled.terms.items()) == list(want.terms.items())
    for out in (a + b, a - b, -a, a * 2, 2.5 * a, a * (1 - 1j), a / 3):
        assert all(type(m) is int for m in out.terms)
        assert all(type(c) is complex and c != 0 for c in out.terms.values())


def test_operator_sugar():
    rng = np.random.default_rng(5)
    ctx = AlgebraContext(4)
    a = random_multivector(ctx, rng)
    b = random_multivector(ctx, rng)
    assert (a ^ b) == wedge(a, b)
    assert 2 * a == a + a
    assert a / 2 + a / 2 == a
    assert a - b == a + (-b)
    ca = phi_eps(a, 1.0)
    cb = phi_eps(b, 1.0)
    assert ca * cb == clifford_mul(ca, cb)
    assert (2.0 * ca).max_norm() == 2 * ca.max_norm()


# -- both product paths against the dictionary pair loop ---------------------

PRODUCTS = [(wedge, reference.wedge, EXTERIOR),
            (clifford_mul, reference.clifford_mul, CLIFFORD)]


def _paths(monkeypatch):
    # every product through the numpy kernel alone (cut 0), then through the
    # dictionary loop alone (a cut above any operands' pair count)
    for path, cut in (("kernel", 0), ("loop", 1 << 62)):
        monkeypatch.setattr(algebra, "_LOOP_PAIRS", cut)
        yield path


def _bits(mv):
    # keys in dict order with the exact bits of both coefficient parts
    return [(m, type(m), c.real.hex(), c.imag.hex(), type(c)) for m, c in mv.terms.items()]


def _assert_same(new, old):
    assert (new.context, new.flavor) == (old.context, old.flavor)
    assert list(new.terms.items()) == list(old.terms.items())
    assert _bits(new) == _bits(old)


def _element(ctx, rng, flavor, n_terms, integer=False, masks=None):
    if masks is None:
        masks = rng.choice(ctx.top_mask + 1, size=n_terms, replace=False)
    n_terms = len(masks)
    if integer:  # small integers, so that sums cancel to exactly 0
        parts = rng.integers(-2, 3, (n_terms, 2)).astype(float)
    else:
        parts = rng.uniform(-1, 1, (n_terms, 2))
    return MultiVector(ctx, {int(m): complex(*p) for m, p in zip(masks, parts)}, flavor)


@pytest.mark.parametrize("dim", [2, 4, 8, 12, 16])
@pytest.mark.parametrize("product,loop,flavor", PRODUCTS, ids=["wedge", "clifford"])
def test_products_equal_pair_loop(dim, product, loop, flavor, monkeypatch):
    rng = np.random.default_rng([29, dim])
    ctx = AlgebraContext(dim)
    dense = min(ctx.top_mask + 1, 256)  # every mask up to dim 8
    pairs = []
    for na, nb in ((dense, dense), (40, 30), (1, 60), (60, 1), (3, 3), (1, 1)):
        na, nb = min(na, dense), min(nb, dense)
        for integer in (False, True):
            pairs.append((_element(ctx, rng, flavor, na, integer),
                          _element(ctx, rng, flavor, nb, integer)))
    zero = MultiVector(ctx, {}, flavor)
    a = _element(ctx, rng, flavor, min(dense, 20))
    zeros = ((zero, a), (a, zero), (zero, zero))
    # one pair of odd parity: -(1+0j) is added to 0j, so its -0.0 goes; one
    # pair whose product underflows to an exact zero, which is dropped
    pairs.append((ctx.generator(2, flavor), ctx.generator(1, flavor)))
    pairs.append((MultiVector(ctx, {1: 1e-200}, flavor), MultiVector(ctx, {2: 1e-200}, flavor)))
    for _ in _paths(monkeypatch):
        for a, b in pairs:
            _assert_same(product(a, b), loop(a, b))
        for x, y in zeros:
            assert product(x, y).is_zero()
            _assert_same(product(x, y), loop(x, y))


def test_products_spanning_many_chunks_equal_pair_loop(monkeypatch):
    calls = []
    kernel = algebra._pair_sums

    def spy(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(algebra, "_pair_sums", spy)

    def check(product, a, b, loop=None):
        # the kernel path against the dictionary loop (_pair_loop): masks,
        # key order and coefficient bits; and both against the reference
        calls.clear()
        via_kernel, via_loop = [product(a, b) for _ in _paths(monkeypatch)]
        assert len(calls) == 1
        _assert_same(via_kernel, via_loop)
        if loop is not None:
            _assert_same(via_kernel, loop(a, b))
        return via_kernel

    rng = np.random.default_rng(31)
    ctx = AlgebraContext(12)
    for product, loop, flavor in PRODUCTS:
        # 400 x 300 pairs: 8 Clifford steps of the kernel as it ships
        a, b = _element(ctx, rng, flavor, 400), _element(ctx, rng, flavor, 300)
        assert len(a.terms) * len(b.terms) > 4 * algebra._PAIR_CHUNK
        check(product, a, b, loop)
    # a wedge over two test steps as the kernel ships, whose kept pairs span
    # several summing steps of each
    ctx = AlgebraContext(16)
    low = [m for m in range(1 << 16) if m.bit_count() <= 3]
    a = _element(ctx, rng, EXTERIOR, 0, masks=rng.choice(low, 520, replace=False))
    b = _element(ctx, rng, EXTERIOR, 510)
    assert algebra._TEST_CHUNK < 520 * 510 < 2 * algebra._TEST_CHUNK
    assert sum(not x & y for x in a.terms for y in b.terms) > 4 * algebra._KEPT_CHUNK
    check(wedge, a, b)
    # tiny steps: kept pairs straddle test steps and summing steps, a row is
    # wider than a test step (1 x 60, 40 x 30), no pair is kept, every pair is
    # kept (a scalar operand), and the operands mix grades
    monkeypatch.setattr(algebra, "_PAIR_CHUNK", 7)
    monkeypatch.setattr(algebra, "_TEST_CHUNK", 10)
    monkeypatch.setattr(algebra, "_KEPT_CHUNK", 3)
    for dim in (8, 12, 16):
        ctx = AlgebraContext(dim)
        odd = np.arange(1, 1 << dim, 2)  # every mask holds e1
        for product, loop, flavor in PRODUCTS:
            for na, nb in ((40, 3), (40, 30), (1, 60), (60, 1)):
                for integer in (False, True):
                    a = _element(ctx, rng, flavor, na, integer)
                    b = _element(ctx, rng, flavor, nb, integer)
                    check(product, a, b, loop)
            a = _element(ctx, rng, flavor, 0, masks=rng.choice(odd, 20, replace=False))
            b = _element(ctx, rng, flavor, 0, masks=rng.choice(odd, 15, replace=False))
            out = check(product, a, b, loop)
            assert product is clifford_mul or out.is_zero()
            scalar = _element(ctx, rng, flavor, 0, masks=[0])
            b = _element(ctx, rng, flavor, 40)
            for x, y in ((scalar, b), (b, scalar)):
                assert len(check(product, x, y, loop).terms) == len(b.terms)
            # one term of every grade, each side
            a = _element(ctx, rng, flavor, 0, masks=[(1 << g) - 1 for g in range(dim + 1)])
            b = _element(ctx, rng, flavor, 0,
                         masks=[((1 << g) - 1) << (dim - g) for g in range(dim + 1)])
            check(product, a, b, loop)
            check(product, b, a, loop)


def test_wedge_kernel_steps_are_sized_by_kept_pairs(monkeypatch):
    # the exponent square of a dim-12 series_exp: 991 x 991 terms, of which
    # about 35,600 pairs are disjoint.  The kernel tests _TEST_CHUNK pairs a
    # step and sums the kept ones _KEPT_CHUNK a step, two np.add.at calls
    # each, so the summing steps are set by the kept pairs alone
    adds = []

    class counted_add:
        @staticmethod
        def at(*args):
            adds.append(len(args[1]))
            np.add.at(*args)

    monkeypatch.setattr(algebra, "np", types.SimpleNamespace(**{**vars(np), "add": counted_add}))
    squares = []
    kernel = algebra._pair_sums

    def spy(ma, ca, mb, cb, size, clifford):
        before = len(adds)
        out = kernel(ma, ca, mb, cb, size, clifford)
        if len(ma) == len(mb) == 991:
            squares.append((ma, mb, adds[before:]))
        return out

    monkeypatch.setattr(algebra, "_pair_sums", spy)
    riemann, _ = load_curvature(read_curvature_file(DATA_DIR / "seeded_dim12.json"))
    a_hat(riemann)
    [(ma, mb, step_adds)] = squares
    rows = algebra._TEST_CHUNK // len(mb)
    kept = [np.count_nonzero((ma[lo:lo + rows, None] & mb) == 0) for lo in range(0, len(ma), rows)]
    assert len(kept) == 4 and 35_000 < sum(kept) < 36_000
    steps = sum(math.ceil(k / algebra._KEPT_CHUNK) for k in kept)
    assert len(step_adds) == 2 * steps
    assert sum(step_adds) == 2 * sum(kept)
    assert max(step_adds) == algebra._KEPT_CHUNK


def test_products_cancelling_to_zero_equal_pair_loop(monkeypatch):
    ctx = AlgebraContext(8)
    e1, e2 = ctx.generator(1, CLIFFORD), ctx.generator(2, CLIFFORD)
    rng = np.random.default_rng(37)
    vs = [MultiVector(ctx, {1 << k: complex(*rng.uniform(-1, 1, 2)) for k in range(8)},
                      flavor) for flavor in (EXTERIOR, CLIFFORD)]
    for _ in _paths(monkeypatch):
        # (e1 + e2)(e1 - e2) = -1 + 1 - 2 e1 e2: the scalar sums to exactly 0
        out = clifford_mul(e1 + e2, e1 - e2)
        assert out.terms == {0b11: -2}
        _assert_same(out, reference.clifford_mul(e1 + e2, e1 - e2))
        # v ^ v and the bivector part of v v: each pair cancels against its mirror
        for v, product, loop in ((vs[0], wedge, reference.wedge),
                                 (vs[1], clifford_mul, reference.clifford_mul)):
            out = product(v, v)
            assert set(out.terms) <= {0}
            _assert_same(out, loop(v, v))


def test_products_pruning_equal_pair_loop(monkeypatch):
    rng = np.random.default_rng(41)
    ctx = AlgebraContext(8)
    for product, loop, flavor in PRODUCTS:
        a = _element(ctx, rng, flavor, 30)
        small = {m: c * 1e-16 if k % 2 else c for k, (m, c) in enumerate(a.terms.items())}
        a = MultiVector(ctx, small, flavor)
        b = _element(ctx, rng, flavor, 30)
        reached = {(x | y) if flavor == EXTERIOR else x ^ y
                   for x in a.terms for y in b.terms if flavor == CLIFFORD or not x & y}
        out = loop(a, b)
        assert len(out.terms) < len(reached)  # the loop dropped dust
        for _ in _paths(monkeypatch):
            _assert_same(product(a, b), out)


def test_product_path_cut_is_inclusive(monkeypatch):
    calls = []
    kernel = algebra._pair_sums

    def spy(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(algebra, "_pair_sums", spy)
    rng = np.random.default_rng(43)
    ctx = AlgebraContext(12)
    cut = algebra._LOOP_PAIRS
    for product, loop, flavor in PRODUCTS:
        one = _element(ctx, rng, flavor, 1)
        # at the shipped cut the loop runs; one pair past it the kernel does
        for n_terms, kernel_calls in ((cut, 0), (cut + 1, 1)):
            for a, b in ((one, _element(ctx, rng, flavor, n_terms)),
                         (_element(ctx, rng, flavor, n_terms), one)):
                calls.clear()
                _assert_same(product(a, b), loop(a, b))
                assert len(calls) == kernel_calls
        # 12 x 16 operands with the cut moved onto their pair count and just under it
        a, b = _element(ctx, rng, flavor, 12), _element(ctx, rng, flavor, 16)
        for moved, kernel_calls in ((12 * 16, 0), (12 * 16 - 1, 1)):
            monkeypatch.setattr(algebra, "_LOOP_PAIRS", moved)
            calls.clear()
            _assert_same(product(a, b), loop(a, b))
            assert len(calls) == kernel_calls
        monkeypatch.setattr(algebra, "_LOOP_PAIRS", cut)


@pytest.mark.filterwarnings("error")
def test_products_refuse_non_finite_coefficients(monkeypatch):
    # a relative prune against an infinite or NaN largest coefficient would
    # drop every term, so each path raises instead, and without numpy's
    # overflow warnings (an error here)
    ctx = AlgebraContext(8)
    nan, inf = float("nan"), float("inf")
    for _ in _paths(monkeypatch):
        for product, _, flavor in PRODUCTS:
            one = MultiVector(ctx, {0b1000_0000: 1.0}, flavor)
            cases = [(MultiVector(ctx, terms, flavor), one) for terms in (
                {0b1: 1.0, 0b10: nan},  # a NaN after the first term hides from max
                {0b1: nan, 0b10: 1.0},
                {0b1: 1.0, 0b100: complex(0, inf)})]
            cases.append((MultiVector(ctx, {0b1: nan}, flavor), one))
            # finite operands whose product overflows, one pair and several
            cases.append((MultiVector(ctx, {0b10: 1e200}, flavor),
                          MultiVector(ctx, {0b1000_0000: 1e200}, flavor)))
            cases.append((MultiVector(ctx, {0b10: 1e200, 0b100: 2.0}, flavor),
                          MultiVector(ctx, {0b1000_0000: 1e200, 0b1: 1.0}, flavor)))
            for a, b in cases:
                for x, y in ((a, b), (b, a)):
                    with pytest.raises(OverflowError):
                        product(x, y)
    # the top-form pairing of single-grade operands, overflowing and NaN
    ctx = AlgebraContext(4)
    for c in (1e200, nan):
        two = MultiVector(ctx, {0b0011: c, 0b0101: 1.0}, EXTERIOR)
        rest = MultiVector(ctx, {0b1100: 1e200, 0b1010: 1.0}, EXTERIOR)
        with pytest.raises(OverflowError):
            wedge(two, rest)


# -- wedges of single-grade operands whose grades reach the dimension --------


@functools.lru_cache(maxsize=None)
def _grade_masks(dim, grade):
    return [m for m in range(1 << dim) if m.bit_count() == grade]


def _graded(ctx, rng, grade, n_terms, integer=False, masks=None):
    if masks is None:
        pool = _grade_masks(ctx.dim, grade)
        masks = [pool[k] for k in rng.choice(len(pool), min(n_terms, len(pool)), replace=False)]
    if integer:
        parts = rng.integers(-2, 3, (len(masks), 2)).astype(float)
    else:
        parts = rng.uniform(-1, 1, (len(masks), 2))
    return MultiVector(ctx, {int(m): complex(*p) for m, p in zip(masks, parts)}, EXTERIOR)


def _count_paths(monkeypatch):
    # calls of the pair loop and of the kernel, for the products that follow
    calls = {"loop": 0, "kernel": 0}
    for name, path in (("_pair_loop", "loop"), ("_pair_sums", "kernel")):
        def spy(*args, _fn=getattr(algebra, name), _path=path):
            calls[_path] += 1
            return _fn(*args)
        monkeypatch.setattr(algebra, name, spy)
    return calls


@pytest.mark.parametrize("dim", [4, 6, 8, 10, 12, 14, 16])
def test_single_grade_wedges_equal_pair_loop(dim, monkeypatch):
    rng = np.random.default_rng([47, dim])
    ctx = AlgebraContext(dim)
    calls = _count_paths(monkeypatch)
    for ga in range(1, dim):
        for gb in (dim - ga - 1, dim - ga, dim - ga + 1):
            if not 0 < gb <= dim:
                continue
            for n_terms, integer in ((1, False), (7, True), (40, False), (200, False)):
                a = _graded(ctx, rng, ga, n_terms, integer)
                b = _graded(ctx, rng, gb, n_terms, integer)
                if gb == dim - ga:
                    # every complement of a, in a shuffled order, and then a
                    # right operand that lacks about half of them
                    comps = [ctx.top_mask ^ m for m in a.terms]
                    rng.shuffle(comps)
                    full = _graded(ctx, rng, gb, 0, integer, comps)
                    half = _graded(ctx, rng, gb, 0, integer, comps[::2] + list(b.terms))
                    operands = [(a, b), (a, full), (full, a), (a, half)]
                else:
                    operands = [(a, b), (b, a)]
                for x, y in operands:
                    calls.update(loop=0, kernel=0)
                    out = wedge(x, y)
                    _assert_same(out, reference.wedge(x, y))
                    # grades reaching the dimension take neither pair path
                    # (an integer draw of 0 can leave an operand empty)
                    if x.terms and y.terms:
                        assert (calls["loop"] + calls["kernel"] == 0) == (ga + gb >= dim)
                    if ga + gb == dim:
                        assert set(out.terms) <= {ctx.top_mask}


def test_single_grade_top_wedges_cancelling_to_zero_equal_pair_loop():
    ctx = AlgebraContext(8)
    rng = np.random.default_rng(53)
    top = ctx.top_mask
    for grade in (2, 3, 4):
        a = _graded(ctx, rng, grade, 6, integer=True)
        b = MultiVector(ctx, {top ^ m: 1.0 for m in a.terms}, EXTERIOR)
        x, y = list(a.terms)[:2]
        # two top-form pairs of opposite sign: the sum is exactly 0
        sx = reference._reorder_sign(x, top ^ x)
        sy = reference._reorder_sign(y, top ^ y)
        a = MultiVector(ctx, {x: 1.5 * sx, y: -1.5 * sy}, EXTERIOR)
        for u, v in ((a, b), (b, a)):
            out = wedge(u, v)
            assert out.is_zero()
            _assert_same(out, reference.wedge(u, v))
        # a right operand with none of the complements
        far = MultiVector(ctx, {m: 2.0 for m in b.terms if m not in (top ^ x, top ^ y)},
                          EXTERIOR)
        assert wedge(a, far).is_zero()
        _assert_same(wedge(a, far), reference.wedge(a, far))
    # v ^ v of a vector at dim 2 and of a bivector at dim 4
    for dim, grade in ((2, 1), (4, 2)):
        c = AlgebraContext(dim)
        v = _graded(c, rng, grade, 6)
        _assert_same(wedge(v, v), reference.wedge(v, v))
