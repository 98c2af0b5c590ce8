import math
import tracemalloc
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from conftest import random_two_form
from diracindex.algebra import AlgebraContext, EXTERIOR, CLIFFORD, MultiVector, wedge
from diracindex.formdsl import load_curvature, read_curvature_file
from diracindex import charclasses
from diracindex.charclasses import (
    RIEMANN,
    TWIST,
    FormMatrix,
    TWO_PI,
    a_closed_form,
    a_hat,
    a_series_coefficients,
    block_diagonal_riemann,
    chern_character,
    index_density,
    partition_sum,
    series_exp,
    splitting_oracle,
    zero_riemann,
)


# -- exact scalar tables -----------------------------------------------------

def test_a_series_exact_values():
    c = a_series_coefficients(3)
    assert c == [Fraction(1), Fraction(-1, 24), Fraction(7, 5760), Fraction(-31, 967680)]
    assert len(a_series_coefficients(12)) == 13
    with pytest.raises(ValueError):
        a_series_coefficients(13)
    with pytest.raises(ValueError):
        a_series_coefficients(-1)


def test_a_series_sums_to_closed_form():
    # independent numeric check of the rational division
    y = 0.2
    c = a_series_coefficients(6)
    approx = sum(float(ck) * y ** (2 * k) for k, ck in enumerate(c))
    assert abs(approx - a_closed_form(y)) < 1e-14


def test_splitting_oracle_tables():
    assert splitting_oracle(1, 2) == {(): Fraction(1), (1,): Fraction(-1, 24)}
    assert splitting_oracle(2, 4) == {
        (): Fraction(1),
        (1,): Fraction(-1, 24),
        (1, 1): Fraction(7, 5760),
        (2,): Fraction(-1, 1440),
    }
    # with a single variable there is no p2, its weight folds into p1^2
    assert splitting_oracle(1, 4) == {
        (): Fraction(1),
        (1,): Fraction(-1, 24),
        (1, 1): Fraction(7, 5760),
    }
    for n in (1, 2, 3):
        assert splitting_oracle(n, 0) == {(): Fraction(1)}
    with pytest.raises(ValueError):
        splitting_oracle(0, 4)
    with pytest.raises(ValueError):
        splitting_oracle(2, -2)


def test_splitting_oracle_matches_direct_product_exactly():
    # expand prod_l A(x_l) in exact monomials of z_l = x_l^2 and compare
    def poly_mul(p, q, deg):
        out = {}
        for ka, ca in p.items():
            for kb, cb in q.items():
                key = tuple(x + y for x, y in zip(ka, kb))
                if sum(key) <= deg:
                    out[key] = out.get(key, Fraction(0)) + ca * cb
        return out

    n, cap = 2, 8
    deg = cap // 2
    coeffs = a_series_coefficients(deg)
    zero = (0,) * n
    direct = {zero: Fraction(1)}
    for l in range(n):
        factor = {}
        for k, ck in enumerate(coeffs):
            key = tuple(k if i == l else 0 for i in range(n))
            factor[key] = ck
        direct = poly_mul(direct, factor, deg)
    direct = {k: c for k, c in direct.items() if c}

    # realize each oracle monomial in the z variables: p_j -> e_j(z_1..z_n)
    elem = {}
    for j in range(1, n + 1):
        acc = {}
        for comb in combinations(range(n), j):
            key = tuple(1 if i in comb else 0 for i in range(n))
            acc[key] = Fraction(1)
        elem[j] = acc
    table = splitting_oracle(n, cap)
    expanded = {}
    for key, c in table.items():
        term = {zero: c}
        for j in key:
            term = poly_mul(term, elem[j], deg)
        for k, v in term.items():
            expanded[k] = expanded.get(k, Fraction(0)) + v
    expanded = {k: c for k, c in expanded.items() if c}
    assert expanded == direct


# -- series layer ------------------------------------------------------------

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos" / "curvature"


@pytest.mark.parametrize("source", ["two_blocks.json", "torus_flux.json", "block dim 8"])
def test_series_are_even_exterior_elements(source):
    # every series routine returns a plain exterior MultiVector of even
    # grades only, at every cap
    if source == "block dim 8":
        rng = np.random.default_rng(83)
        ctx = AlgebraContext(8)
        tangent = block_diagonal_riemann(ctx, [random_two_form(ctx, rng) for _ in range(4)])
        twist = FormMatrix([[random_two_form(ctx, rng)]], TWIST)
    else:
        tangent, twist = load_curvature(read_curvature_file(DEMO_DIR / source))
    dim = (tangent or twist).context.dim
    for cap in (None, dim - 1, 4, 2):
        outs = [index_density(tangent, twist, cap)]
        if tangent is not None:
            outs.append(a_hat(tangent, cap))
        if twist is not None:
            outs.append(chern_character(twist, cap))
        outs += [series_exp(out, cap) for out in outs]
        for out in outs:
            assert type(out) is MultiVector and out.flavor == EXTERIOR
            assert all(g % 2 == 0 and g <= (cap or dim) for g in out.grades())
        if cap is None:
            assert all(not out.is_zero() for out in outs)


def test_series_exp_against_hand_expansion():
    ctx = AlgebraContext(4)
    a = ctx.blade([1, 2]) + ctx.blade([3, 4])
    full = series_exp(a, 4)
    want = ctx.scalar(1.0) + ctx.blade([1, 2]) + ctx.blade([3, 4]) + ctx.blade([1, 2, 3, 4])
    assert (full - want).max_norm() < 1e-15
    capped = series_exp(a, 2)
    assert capped.terms.get(0b1111) is None
    with pytest.raises(TypeError):
        series_exp(ctx.scalar(1.0, CLIFFORD))


def test_truncate_keeps_the_element_at_full_cap():
    ctx = AlgebraContext(4)
    mv = ctx.scalar(2.0) + ctx.blade([1, 2]) + ctx.blade([1, 2, 3, 4])
    assert charclasses._truncate(mv, ctx.dim) is mv
    assert charclasses._truncate(mv, 3) == ctx.scalar(2.0) + ctx.blade([1, 2])
    assert mv.grades() == [0, 2, 4]


def test_negative_grade_cap_is_refused():
    # a cap below 0 is an error, not the zero element
    riemann, _ = load_curvature(read_curvature_file(DEMO_DIR / "two_blocks.json"))
    _, twist = load_curvature(read_curvature_file(DEMO_DIR / "torus_flux.json"))
    calls = (lambda: a_hat(riemann, cap=-1),
             lambda: chern_character(twist, cap=-1),
             lambda: index_density(riemann, None, cap=-1),
             lambda: series_exp(riemann.context.scalar(1.0) + riemann.context.blade([1, 2]),
                                cap=-1))
    for call in calls:
        with pytest.raises(ValueError, match="^the grade cap must be at least 0$"):
            call()
    assert a_hat(riemann, cap=0) == riemann.context.scalar(1.0)


# -- curvature matrices ------------------------------------------------------

def test_form_matrix_validation():
    ctx = AlgebraContext(4)
    th = ctx.blade([1, 2])
    z = ctx.scalar(0.0)
    with pytest.raises(ValueError):
        FormMatrix([[z, th], [th, z]], RIEMANN)  # not antisymmetric
    with pytest.raises(ValueError):
        FormMatrix([[z, th]], RIEMANN)  # not square
    with pytest.raises(ValueError):
        FormMatrix([[z, th], [-th, z]], RIEMANN)  # wrong size for dim 4
    with pytest.raises(ValueError):
        FormMatrix([[ctx.generator(1)]], TWIST)  # not a 2-form
    with pytest.raises(ValueError):
        FormMatrix([[1j * th]], TWIST)  # diagonal must be real under conj-transpose
    with pytest.raises(ValueError):
        cplx = [[z] * 4 for _ in range(4)]
        cplx[0][1] = 1j * th
        cplx[1][0] = -1j * th
        FormMatrix(cplx, RIEMANN)  # complex riemann entries
    with pytest.raises(ValueError):
        FormMatrix([[th]], "metric")
    off = 0.3 + 0.7j
    ok = FormMatrix([[th, off * th], [off.conjugate() * th, 2 * th]], TWIST)
    assert ok.size == 2
    with pytest.raises(ValueError):
        FormMatrix([[th, off * th], [off * th, 2 * th]], TWIST)


def test_form_matrix_rules_see_the_blades_of_both_entries():
    # a blade that only the lower entry of a pair holds breaks the rule too
    ctx = AlgebraContext(4)
    th, extra = ctx.blade([1, 2]), 0.5 * ctx.blade([3, 4])
    z = ctx.scalar(0.0)
    rows = [[z] * 4 for _ in range(4)]
    rows[0][1], rows[1][0] = th, -th + extra
    with pytest.raises(ValueError, match=r"not antisymmetric at \(0,1\)"):
        FormMatrix(rows, RIEMANN)
    with pytest.raises(ValueError, match=r"conjugate-transpose rule at \(0,1\)"):
        FormMatrix([[z, th], [th + extra, z]], TWIST)


def test_block_diagonal_riemann():
    ctx = AlgebraContext(4)
    th = ctx.blade([1, 2])
    with pytest.raises(ValueError):
        block_diagonal_riemann(ctx, [th])
    R = block_diagonal_riemann(ctx, [th, 2 * th])
    assert R.kind == RIEMANN
    assert R.entries[0][1] == th and R.entries[1][0] == -th
    assert R.entries[2][3] == 2 * th


# -- genus and character -----------------------------------------------------

def test_a_hat_flat_is_one():
    ctx = AlgebraContext(6)
    A = a_hat(zero_riemann(ctx))
    assert A == ctx.scalar(1.0)


def test_a_hat_single_block_matches_scalar_series():
    # one rotation block with parameter theta: the genus is the scalar series
    # evaluated at theta/(2 pi), wedge powers replacing y powers
    ctx = AlgebraContext(4)
    theta = 2.5 * ctx.blade([1, 2]) + 0.7 * ctx.blade([3, 4])
    R = block_diagonal_riemann(ctx, [theta, ctx.scalar(0.0)])
    A = a_hat(R)
    x = theta * (1.0 / TWO_PI)
    coeffs = a_series_coefficients(2)
    want = ctx.scalar(float(coeffs[0])) + float(coeffs[1]) * wedge(x, x)
    assert (A - want).max_norm() < 1e-15


def test_a_hat_matches_splitting_oracle():
    rng = np.random.default_rng(97)
    ctx = AlgebraContext(6)
    blocks = [random_two_form(ctx, rng) for _ in range(2)] + [ctx.scalar(0.0)]
    R = block_diagonal_riemann(ctx, blocks)
    A = a_hat(R)
    squares = [wedge(b * (1.0 / TWO_PI), b * (1.0 / TWO_PI)) for b in blocks]

    def elementary(j):
        acc = ctx.scalar(0.0)
        for comb in combinations(range(len(squares)), j):
            term = ctx.scalar(1.0)
            for i in comb:
                term = wedge(term, squares[i])
            acc = acc + term
        return acc

    want = ctx.scalar(0.0)
    for key, c in splitting_oracle(3, 6).items():
        term = ctx.scalar(float(c))
        for j in key:
            term = wedge(term, elementary(j))
        want = want + term
    assert (A - want).max_norm() < 1e-12


def test_a_hat_rejects_twist():
    ctx = AlgebraContext(4)
    F = FormMatrix([[ctx.blade([1, 2])]], TWIST)
    with pytest.raises(TypeError):
        a_hat(F)


def test_chern_character_rank_and_flux():
    ctx = AlgebraContext(2)
    F = FormMatrix([[3.0 * ctx.blade([1, 2])]], TWIST)
    ch = chern_character(F)
    assert ch.coefficient() == 1.0
    assert abs(ch.coefficient(1, 2) - 3.0 / TWO_PI) < 1e-15
    z = ctx.scalar(0.0)
    triv = FormMatrix([[z, z], [z, z]], TWIST)
    assert chern_character(triv) == ctx.scalar(2.0)


def test_chern_character_additive_on_direct_sums():
    ctx = AlgebraContext(4)
    F1 = FormMatrix([[1.2 * ctx.blade([1, 2])]], TWIST)
    off = 0.4 - 0.9j
    F2 = FormMatrix([[0.5 * ctx.blade([3, 4]), off * ctx.blade([1, 3])],
                     [off.conjugate() * ctx.blade([1, 3]), -0.8 * ctx.blade([1, 4])]], TWIST)
    z = ctx.scalar(0.0)
    joined = FormMatrix([[F1.entries[0][0], z, z],
                         [z, F2.entries[0][0], F2.entries[0][1]],
                         [z, F2.entries[1][0], F2.entries[1][1]]], TWIST)
    lhs = chern_character(joined)
    rhs = chern_character(F1) + chern_character(F2)
    assert (lhs - rhs).max_norm() < 1e-15


def test_chern_character_real_for_valid_twists():
    rng = np.random.default_rng(12)
    ctx = AlgebraContext(6)
    size = 3
    entries = [[None] * size for _ in range(size)]
    for i in range(size):
        entries[i][i] = random_two_form(ctx, rng)
        for j in range(i + 1, size):
            e = random_two_form(ctx, rng)
            f = random_two_form(ctx, rng)
            entries[i][j] = e + 1j * f
            entries[j][i] = e + (-1j) * f
    ch = chern_character(FormMatrix(entries, TWIST))
    assert max(abs(c.imag) for c in ch.terms.values()) < 1e-12


def test_index_density_torus():
    ctx = AlgebraContext(2)
    F = FormMatrix([[3.0 * ctx.blade([1, 2])]], TWIST)
    dens = index_density(None, F)
    assert dens.grades() in ([], [2])
    assert abs(dens.coefficient(1, 2).real * TWO_PI - 3.0) < 1e-12
    flat = index_density(zero_riemann(ctx), F)
    assert (flat - dens).max_norm() == 0.0
    with pytest.raises(ValueError):
        index_density(None, None)


# -- repeated entries in the matrix powers -----------------------------------


def _mat_mul_reference(a, b, cap):
    # the memo-free product: one wedge per pair of nonzero entries
    size = len(a)
    out = []
    for i in range(size):
        row = []
        for j in range(size):
            acc = None
            for t in range(size):
                if a[i][t].is_zero() or b[t][j].is_zero():
                    continue
                term = charclasses.wedge(a[i][t], b[t][j])
                acc = term if acc is None else acc + term
            if acc is None:
                acc = a[0][0].context.scalar(0.0)
            row.append(charclasses._truncate(acc, cap))
        out.append(row)
    return out


def _bits(mv):
    return [(m, c.real.hex(), c.imag.hex()) for m, c in mv.terms.items()]


def _negative_form(ctx, rng, imag):
    # a 2-form of negative real coefficients whose imaginary parts are the
    # zero `imag`: scaling by 1 / (2 pi) keeps a -0.0 there
    return MultiVector(ctx, {m: complex(-rng.uniform(0.1, 1.0), imag) for m in
                             random_two_form(ctx, rng).terms}, EXTERIOR)


def _curvatures(kind):
    ctx = AlgebraContext({"block": 12, "dense": 6}.get(kind, 8))
    rng = np.random.default_rng([59, len(kind)])
    z = ctx.scalar(0.0)
    if kind == "block":
        tangent = block_diagonal_riemann(ctx, [random_two_form(ctx, rng) for _ in range(6)])
        f, g = random_two_form(ctx, rng), random_two_form(ctx, rng)
        twist = FormMatrix([[f, z, z], [z, f, z], [z, z, g]], TWIST)
    elif kind == "dense":
        entries = [[z] * 6 for _ in range(6)]
        for i in range(6):
            for j in range(i + 1, 6):
                entries[i][j] = random_two_form(ctx, rng)
                entries[j][i] = -entries[i][j]
        tangent = FormMatrix(entries, RIEMANN)
        twist = [[None] * 3 for _ in range(3)]
        for i in range(3):
            twist[i][i] = random_two_form(ctx, rng)
            for j in range(i + 1, 3):
                e, f = random_two_form(ctx, rng), random_two_form(ctx, rng)
                twist[i][j], twist[j][i] = e + 1j * f, e + (-1j) * f
        twist = FormMatrix(twist, TWIST)
    else:
        # "signed zero": two blocks equal as values, apart in the sign of a zero
        theta = _negative_form(ctx, rng, 0.0)
        signed = MultiVector(ctx, {m: complex(c.real, -0.0) for m, c in theta.terms.items()},
                             EXTERIOR)
        other = {"distinct": _negative_form(ctx, rng, 0.0), "equal": theta}.get(kind, signed)
        if kind == "reordered":
            # one coefficient throughout: only the order of the masks differs
            theta = MultiVector(ctx, dict.fromkeys(theta.terms, -0.5), EXTERIOR)
            other = MultiVector(ctx, dict.fromkeys(reversed(theta.terms), -0.5), EXTERIOR)
        tangent = block_diagonal_riemann(ctx, [theta, other, theta, other])
        twist = FormMatrix([[theta, z, z], [z, other, z], [z, z, theta]], TWIST)
    return tangent, twist


def _count_wedges(monkeypatch, fn, *args):
    calls = []

    def spy(a, b):
        calls.append(None)
        return wedge(a, b)

    monkeypatch.setattr(charclasses, "wedge", spy)
    out = fn(*args)
    monkeypatch.setattr(charclasses, "wedge", wedge)
    return out, len(calls)


@pytest.mark.parametrize("kind", ["block", "dense", "signed zero"])
def test_matrix_powers_equal_memo_free_products(kind, monkeypatch):
    tangent, twist = _curvatures(kind)
    ctx = tangent.context
    x = charclasses._mat_scale(tangent.entries, 1.0 / TWO_PI)
    y = charclasses._mat_scale(twist.entries, 1.0 / TWO_PI)
    if kind == "signed zero":
        # the precondition: the entries are equal as values, not as bits
        assert x[0][1] == x[2][3] and _bits(x[0][1]) != _bits(x[2][3])
    # the powers the series take, entry by entry
    for m in (x, y):
        power = m
        for _ in range(ctx.dim // 2):
            got = charclasses._mat_mul(power, m, ctx.dim)
            want = _mat_mul_reference(power, m, ctx.dim)
            assert [[_bits(e) for e in row] for row in got] == \
                [[_bits(e) for e in row] for row in want]
            power = got
    routes = {}
    for route, mat_mul in (("memo", charclasses._mat_mul), ("reference", _mat_mul_reference)):
        monkeypatch.setattr(charclasses, "_mat_mul", mat_mul)
        routes[route] = [_count_wedges(monkeypatch, fn, *args) for fn, args in
                         ((a_hat, (tangent,)), (chern_character, (twist,)),
                          (index_density, (tangent, twist)))]
    monkeypatch.undo()
    if kind == "dense":
        # products are kept only while a repeat is to come, so with none the
        # traced peak stays near the memo-free one
        peaks = []
        for mat_mul in (charclasses._mat_mul, _mat_mul_reference):
            tracemalloc.start()
            try:
                mat_mul(x, x, ctx.dim)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1.25 * peaks[1]
    for (got, got_calls), (want, want_calls) in zip(routes["memo"], routes["reference"]):
        assert _bits(got) == _bits(want)
        if kind == "dense":
            assert got_calls == want_calls  # nothing repeats, nothing is skipped
        else:
            assert got_calls < want_calls
    if kind == "signed zero":
        # X**2 of blocks apart in a zero's sign, or in the order of their
        # terms, forms as many wedges as that of distinct blocks, twice as
        # many as that of equal blocks
        counts = []
        for other in ("signed zero", "reordered", "distinct", "equal"):
            m = charclasses._mat_scale(_curvatures(other)[0].entries, 1.0 / TWO_PI)
            counts.append(_count_wedges(monkeypatch, charclasses._mat_mul, m, m, ctx.dim)[1])
        assert counts == [4, 4, 4, 2]


# -- scalar closed forms -----------------------------------------------------

def test_a_closed_form():
    assert a_closed_form(0.0) == 1.0
    assert abs(a_closed_form(1.0) - 0.9595173756674719) < 1e-15
    for y in (0.3, 1.7, 8.0):
        assert a_closed_form(y) == a_closed_form(-y)
    # the small-y branch joins the sinh branch smoothly
    assert abs(a_closed_form(9.9e-5) - a_closed_form(1.01e-4)) < 1e-10
    # infinity returned nan, and an int past the float range overflowed
    for y in (math.inf, -math.inf, math.nan, 10**400, -10**400):
        with pytest.raises(ValueError, match="y must be finite"):
            a_closed_form(y)


def test_partition_sum_matches_closed_form():
    for y in (0.5, 1.0, 2.0):
        assert abs(partition_sum(y, 100) - a_closed_form(y)) < 1e-12
    # the omitted tail is an exact geometric remainder
    y, M = 0.35, 12
    tail = y * math.exp(-y / 2) * math.exp(-(M + 1) * y) / (1 - math.exp(-y))
    assert abs(a_closed_form(y) - partition_sum(y, M) - tail) < 1e-15


def test_partition_sum_monotone_and_validated():
    vals = [partition_sum(0.8, M) for M in (0, 1, 5, 20, 80)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        partition_sum(0.0, 10)
    with pytest.raises(ValueError):
        partition_sum(-1.0, 10)
    with pytest.raises(ValueError):
        partition_sum(1.0, -1)
    # both returned nan, and an int past the float range overflowed
    for y in (math.nan, math.inf, 10**400):
        with pytest.raises(ValueError, match="y must be finite"):
            partition_sum(y, 5)
