import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import formdsl_reference as reference
from diracindex import algebra, formdsl
from diracindex.algebra import EXTERIOR, AlgebraContext, MultiVector
from diracindex.charclasses import RIEMANN, TWIST, a_hat, chern_character
from diracindex.formdsl import (CurvatureFormatError, DslError, eval_expr,
                                format_ast, load_curvature, parse,
                                pretty_print, read_curvature_file, tokenize)
from conftest import random_multivector


def strip(node):
    # drop spans so trees from different sources compare
    kind = node[0]
    if kind in ("scalar", "gen"):
        return (kind, node[1])
    if kind == "neg":
        return (kind, strip(node[1]))
    return (kind, strip(node[1]), strip(node[2]))


def test_tokenize_basic():
    toks = tokenize("2*e1^e2")
    assert [t.kind for t in toks] == [
        "number", "star", "generator", "caret", "generator", "end"]
    assert toks[0].value == 2.0
    assert toks[2].value == 1 and toks[4].value == 2
    assert [(t.start, t.end) for t in toks] == [
        (0, 1), (1, 2), (2, 4), (4, 5), (5, 7), (7, 7)]


def test_tokenize_longest_match_number():
    # the exponent grabs the e: 2e1 is the number twenty
    toks = tokenize("2e1")
    assert [t.kind for t in toks] == ["number", "end"]
    assert toks[0].value == 20.0
    toks = tokenize("2*e1")
    assert [t.kind for t in toks] == ["number", "star", "generator", "end"]


def test_tokenize_generator_out_of_range():
    with pytest.raises(DslError) as info:
        tokenize("e99", dim=4)
    assert (info.value.start, info.value.end) == (0, 3)
    assert "99" in str(info.value)
    # no dim given: lexes fine, range is the evaluator's problem
    toks = tokenize("e99")
    assert toks[0].value == 99


def test_tokenize_unknown_character():
    with pytest.raises(DslError) as info:
        tokenize("e1 @ e2")
    assert (info.value.start, info.value.end) == (3, 4)


def test_tokenize_byte_offsets_non_ascii():
    # the multiplication sign is two UTF-8 bytes; spans count bytes
    with pytest.raises(DslError) as info:
        tokenize("2 × e1")
    assert (info.value.start, info.value.end) == (2, 4)


def test_tokenize_non_ascii_whitespace_and_errors_keep_byte_spans():
    # no-break space (2 bytes), ideographic and em spaces (3 bytes) are
    # skipped as whitespace; spans and error positions count bytes
    toks = tokenize("2\u00a0*\u3000e1 ^ e2\u2003")
    assert [tuple(t) for t in toks] == [
        ("number", 2.0, 0, 1), ("star", None, 3, 4), ("generator", 1, 7, 9),
        ("caret", None, 10, 11), ("generator", 2, 12, 14), ("end", None, 17, 17)]
    for text, span, message in (
            ("e1\u00a0\u00d7\u00a0e2", (4, 6), "unexpected character '\u00d7'"),
            ("e1 +\u200be2", (4, 7), "unexpected character '\\u200b'"),
            ("\u3000\u3000e99", (6, 9), "generator index 99 outside 1..4"),
            ("e1\n\t+ \u00e9", (6, 8), "unexpected character '\u00e9'"),
            # digits are ASCII only; a non-ASCII digit is reported itself,
            # also after an e or a decimal point
            ("\u0662*e\u0661^e\u0662", (0, 2), "unexpected character '\u0662'"),
            ("e1^e\u0662", (4, 6), "unexpected character '\u0662'"),
            ("2.\u0665*e1", (2, 4), "unexpected character '\u0665'")):
        with pytest.raises(DslError) as info:
            tokenize(text, dim=4)
        assert (info.value.start, info.value.end) == span
        assert str(info.value).startswith(message)


def test_parse_precedence():
    ast = parse(tokenize("2*e1^e2 - e3^e4"))
    assert strip(ast) == (
        "sub",
        ("mul", ("scalar", (2 + 0j)), ("wedge", ("gen", 1), ("gen", 2))),
        ("wedge", ("gen", 3), ("gen", 4)),
    )


def test_parse_left_associative():
    assert strip(parse(tokenize("e1^e2^e3"))) == (
        "wedge", ("wedge", ("gen", 1), ("gen", 2)), ("gen", 3))
    assert strip(parse(tokenize("1 - 2 - 3"))) == (
        "sub", ("sub", ("scalar", 1 + 0j), ("scalar", 2 + 0j)), ("scalar", 3 + 0j))


def test_parse_unary_minus_binding():
    # looser than *, tighter than binary +/-
    assert strip(parse(tokenize("-2*e1"))) == (
        "neg", ("mul", ("scalar", 2 + 0j), ("gen", 1)))
    assert strip(parse(tokenize("-e1 + e2"))) == (
        "add", ("neg", ("gen", 1)), ("gen", 2))
    assert strip(parse(tokenize("--2"))) == ("neg", ("neg", ("scalar", 2 + 0j)))


def test_parse_parentheses_override():
    assert strip(parse(tokenize("2*(e1 + e2)"))) == (
        "mul", ("scalar", 2 + 0j), ("add", ("gen", 1), ("gen", 2)))


def test_parse_errors_carry_spans():
    with pytest.raises(DslError) as info:
        parse(tokenize("(e1"))
    assert info.value.start == 3  # the end-of-input token
    with pytest.raises(DslError) as info:
        parse(tokenize("e1 + * e2"))
    assert (info.value.start, info.value.end) == (5, 6)
    with pytest.raises(DslError) as info:
        parse(tokenize("e1 e2"))
    assert (info.value.start, info.value.end) == (3, 5)


def test_eval_wedge_nilpotency():
    ctx = AlgebraContext(4)
    assert eval_expr(parse(tokenize("e1^e1")), ctx).is_zero()
    assert eval_expr(parse(tokenize("(e1+e2)^(e1+e2)")), ctx).is_zero()


def test_eval_coefficients():
    ctx = AlgebraContext(4)
    mv = eval_expr(parse(tokenize("2*e1^e2 + i*e3^e4")), ctx)
    assert mv.terms == {0b0011: 2 + 0j, 0b1100: 1j}
    assert eval_expr(parse(tokenize("i*i")), ctx).terms == {0: -1 + 0j}
    mv = eval_expr(parse(tokenize("-(1.5 - 2*i)*e1^e3")), ctx)
    assert mv.terms == {0b0101: complex(-1.5, 2.0)}


def test_eval_star_needs_scalar_operand():
    ctx = AlgebraContext(4)
    with pytest.raises(DslError) as info:
        eval_expr(parse(tokenize("e1*e2")), ctx)
    assert (info.value.start, info.value.end) == (0, 5)
    assert "^" in info.value.reason
    # scalar on either side is fine
    assert eval_expr(parse(tokenize("e1*3")), ctx).terms == {0b1: 3 + 0j}


def test_eval_long_sum_folds_in_a_loop():
    # far more terms than Python's recursion limit, summed left to right
    ctx = AlgebraContext(4)
    mv = eval_expr(parse(tokenize(" + ".join(["0.001*e1^e2"] * 1500))), ctx)
    total = 0j
    for _ in range(1500):
        total = total + 0.001
    assert mv.terms == {0b0011: total}
    assert total != 1.5  # the order of the additions shows in the last bits
    mixed = " - ".join(["e1^e2", "0.5*e1^e2^e3^e4*2", "i*e3^e4"] * 700)
    assert eval_expr(parse(tokenize(mixed)), ctx).terms == {
        0b0011: complex(-698, 0), 0b1111: complex(-700, 0), 0b1100: complex(0, -700)}


def test_parse_refuses_deep_nesting():
    depth = formdsl.MAX_NESTING
    ctx = AlgebraContext(4)
    for opener, closer in (("(", ")"), ("-", ""), ("-(", ")")):
        levels = depth // len(opener)
        ok = opener * levels + "e1^e2" + closer * levels
        assert eval_expr(parse(tokenize(ok)), ctx).terms == {0b0011: (-1) ** (
            levels * opener.count("-")) + 0j}
        deep = opener * (levels + 1) + "e1^e2" + closer * (levels + 1)
        with pytest.raises(DslError) as info:
            parse(tokenize(deep))
        # the span is the first opener past the limit
        assert (info.value.start, info.value.end) == (depth, depth + 1)
        assert "nested deeper" in info.value.reason
    # 3000 unary minuses and 200 parentheses: refused, not a RecursionError
    for text in ("-" * 3000 + "e1^e2", "(" * 200 + "e1^e2" + ")" * 200):
        with pytest.raises(DslError):
            parse(tokenize(text))


def test_eval_generator_range_checked_against_context():
    ctx = AlgebraContext(4)
    with pytest.raises(DslError) as info:
        eval_expr(parse(tokenize("e9")), ctx)
    assert (info.value.start, info.value.end) == (0, 2)


def test_pretty_print_examples():
    ctx = AlgebraContext(4)
    mv = eval_expr(parse(tokenize("2*e1^e2 - e3^e4 + i*e1^e4")), ctx)
    s = pretty_print(mv)
    assert s == "2.0*e1^e2 + i*e1^e4 - 1.0*e3^e4"
    assert eval_expr(parse(tokenize(s)), ctx) == mv
    assert pretty_print(ctx.scalar(0)) == "0"
    assert pretty_print(ctx.scalar(complex(-1.5, 2))) == "(-1.5+2.0*i)"


def test_pretty_print_roundtrip_random():
    rng = np.random.default_rng(20260814)
    for dim in (2, 4, 6):
        ctx = AlgebraContext(dim)
        for _ in range(25):
            mv = random_multivector(ctx, rng, n_terms=8)
            back = eval_expr(parse(tokenize(pretty_print(mv))), ctx)
            assert back == mv  # coefficient-exact, no tolerance


def random_ast(rng, dim, depth):
    if depth == 0 or rng.random() < 0.3:
        pick = rng.integers(0, 3)
        if pick == 0:
            return ("scalar", complex(round(float(rng.uniform(0, 4)), 3)), (0, 0))
        if pick == 1:
            return ("scalar", 1j, (0, 0))
        return ("gen", int(rng.integers(1, dim + 1)), (0, 0))
    kind = ("add", "sub", "mul", "wedge", "neg")[rng.integers(0, 5)]
    if kind == "neg":
        return ("neg", random_ast(rng, dim, depth - 1), (0, 0))
    return (kind, random_ast(rng, dim, depth - 1),
            random_ast(rng, dim, depth - 1), (0, 0))


def test_format_ast_print_parse_identity():
    rng = np.random.default_rng(7)
    for _ in range(200):
        ast = random_ast(rng, dim=4, depth=int(rng.integers(1, 5)))
        text = format_ast(ast)
        assert strip(parse(tokenize(text))) == strip(ast)


class RandomText:
    """Seeded expression text from the grammar, one method per precedence level.

    A level asked for a scalar only yields scalar-valued text, so every '*'
    has a scalar operand and the text always evaluates.  Spacing and number
    spellings vary; a unary minus opens only a term of a sum, as the grammar
    allows.
    """

    def __init__(self, rng, dim):
        self.rng, self.dim = rng, dim

    def pick(self, n):
        return int(self.rng.integers(0, n))

    def space(self):
        return " " * self.pick(3)

    def join(self, op, parts):
        return f"{self.space()}{op}{self.space()}".join(parts)

    def number(self):
        whole, frac = str(self.pick(10)), str(self.pick(100))
        body = (whole, f"{whole}.", f".{frac}", f"{whole}.{frac}")[self.pick(4)]
        if self.pick(4) == 0:
            body += f"{'eE'[self.pick(2)]}{('', '+', '-')[self.pick(3)]}{self.pick(3)}"
        return body

    def sum(self, depth, scalar):
        terms = [self.unary(depth, scalar) for _ in range(1 + self.pick(3))]
        text = terms[0]
        for term in terms[1:]:
            text = self.join("+-"[self.pick(2)], [text, term])
        return text

    def unary(self, depth, scalar):
        if self.pick(5) == 0:
            return "-" + self.space() + self.unary(depth, scalar)
        return self.product(depth, scalar)

    def product(self, depth, scalar):
        count = 1 + self.pick(2)
        form_at = -1 if scalar else self.pick(count)
        return self.join("*", [self.wedge(depth, k != form_at) for k in range(count)])

    def wedge(self, depth, scalar):
        return self.join("^", [self.atom(depth, scalar) for _ in range(1 + self.pick(3))])

    def atom(self, depth, scalar):
        if depth > 0 and self.pick(3) == 0:
            return f"({self.space()}{self.sum(depth - 1, scalar)}{self.space()})"
        if not scalar and self.pick(2) == 0:
            return f"e{1 + self.pick(self.dim)}"
        return "i" if self.pick(3) == 0 else self.number()


def random_texts():
    # 100 seeded expressions from the grammar at each of dims 2, 4 and 6
    rng = np.random.default_rng(20261018)
    for dim in (2, 4, 6):
        gen = RandomText(rng, dim)
        for _ in range(100):
            yield dim, gen.sum(int(rng.integers(0, 3)), scalar=False)


def test_random_text_print_parse_round_trip():
    for dim, text in random_texts():
        ctx = AlgebraContext(dim)
        ast = parse(tokenize(text, dim))
        again = parse(tokenize(format_ast(ast)))
        assert strip(again) == strip(ast), text
        assert eval_expr(again, ctx) == eval_expr(ast, ctx), text


# -- the term-dict evaluator and the table printer against their references --


def bits(mv):
    # keys in dict order with the exact bits of both coefficient parts
    return [(m, c.real.hex(), c.imag.hex(), type(c)) for m, c in mv.terms.items()]


def assert_same(new, old):
    assert (new.context, new.flavor) == (old.context, old.flavor)
    assert bits(new) == bits(old)


def outcome(fn, *args):
    # an element's bits, or an error's type, message and span
    try:
        return bits(fn(*args))
    except DslError as exc:
        return type(exc), str(exc), exc.start, exc.end


def test_eval_equals_reference_on_random_texts():
    for dim, text in random_texts():
        ctx = AlgebraContext(dim)
        ast = parse(tokenize(text, dim))
        assert_same(eval_expr(ast, ctx), reference.eval_expr(ast, ctx))


EDGE_TEXTS = [
    # an exact cancellation drops the key; its next term appends it again
    "e1^e2 - e1^e2 + e3^e4 + e1^e2",
    "e1 - e1 + e2 - e2 + e1 + e3 - e1 - e1",
    # signed zeros and zero scalars, and i on either side of *
    "-0.0*e1^e2", "0*e1^e2 + e3^e4", "-0.0", "0*i", "0.0*e1 - 0*e2", "-(0*e1) + e1",
    "i*e1^e2", "e1^e2*i", "i*i*e1", "-i*e1 + e1*i", "e1*0 - e1", "-(e1^e2) + e1^e2*1",
    "-(1.5 - 2*i)*e1^e3 - (1.5 - 2*i)*e1^e3*(-1)",
    # nested parentheses and chains of unary minus
    "((((e1 + e2))^((e3 - e4))))", "-(-(-(e1^e2)))", "- - -e1 + - -e1",
    "-(e1 - -(e2 - -(e3 - (e4))))", "(e1 + i*e2)^(e3 - e1) - 2*(e1^e3)",
    "(e1^e2 + e3^e4)^(e1^e2 + e3^e4)", "2*(3*(e1 + (e2 - e1)))*0.5",
]


def test_eval_equals_reference_on_edge_cases():
    ctx = AlgebraContext(4)
    for text in EDGE_TEXTS:
        ast = parse(tokenize(text, 4))
        assert_same(eval_expr(ast, ctx), reference.eval_expr(ast, ctx))
    # the re-appended key goes last
    mv = eval_expr(parse(tokenize(EDGE_TEXTS[0])), ctx)
    assert list(mv.terms) == [0b1100, 0b0011]


def test_eval_long_sum_equals_reference():
    # 1,500 terms over a few blades, small integer coefficients, so that
    # keys cancel to exactly zero and come back many times
    rng = np.random.default_rng(61)
    terms = []
    for _ in range(1500):
        i, j = sorted(rng.choice(6, 2, replace=False) + 1)
        c = int(rng.integers(1, 4))
        terms.append(("+", "-")[int(rng.integers(0, 2))] + f" {c}*e{i}^e{j}")
    text = "e1^e2 " + " ".join(terms)
    ctx = AlgebraContext(6)
    ast = parse(tokenize(text))
    assert_same(eval_expr(ast, ctx), reference.eval_expr(ast, ctx))


def test_eval_wedge_of_sums_takes_kernel_and_equals_reference(monkeypatch):
    kernel_calls = []
    kernel = algebra._pair_sums

    def spy(*args):
        kernel_calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(algebra, "_pair_sums", spy)
    rng = np.random.default_rng(67)
    ctx = AlgebraContext(12)

    def random_sum(n_terms, grade):
        parts = []
        for _ in range(n_terms):
            gens = sorted(rng.choice(12, grade, replace=False) + 1)
            re, im = rng.uniform(-1, 1, 2).tolist()
            parts.append(f"({re!r} + {im!r}*i)*" + "^".join(f"e{g}" for g in gens))
        return " + ".join(parts)

    text = f"({random_sum(20, 2)}) ^ ({random_sum(30, 3)}) - e1^e2^e3^e4^e5"
    ast = parse(tokenize(text, 12))
    assert 20 * 30 > algebra._LOOP_PAIRS
    kernel_calls.clear()
    new = eval_expr(ast, ctx)
    assert len(kernel_calls) == 1
    assert_same(new, reference.eval_expr(ast, ctx))


def test_eval_errors_equal_reference():
    ctx = AlgebraContext(4)
    texts = ["e1*e2", "(e1 + e2)*(e3)", "e9", "2*e1*e3", "e1^e2*e3^e4", "e1 + e1*e2",
             "e1*e2 + e99", "e99 + e1*e2", "-(e7)", "(e1 - e5)^e2", "e1 + e2^(e3*e4)"]
    for text in texts:
        ast = parse(tokenize(text))
        got = outcome(eval_expr, ast, ctx)
        assert got == outcome(reference.eval_expr, ast, ctx), text
        assert got[0] is DslError, text
    for ast in (("bogus", (0, 3)), ("add", ("gen", 1, (0, 2)), ("bogus", (5, 9)), (0, 9))):
        assert outcome(eval_expr, ast, ctx) == outcome(reference.eval_expr, ast, ctx)


# -- the precedence-climbing parser against the recursive descent it replaced --

MUTATION_CHARS = "+-*^()ie1234.5 "


def parse_outcome(parse_fn, tokens):
    # the tree with every span, or the error's type, message and span
    try:
        return parse_fn(tokens)
    except DslError as exc:
        return type(exc), str(exc), exc.start, exc.end


def parser_texts():
    # seeded texts from the grammar, each followed by ten mutants with one
    # character replaced, inserted or deleted, then random symbol strings
    rng = np.random.default_rng(20261019)
    pick = lambda n: int(rng.integers(0, n))  # noqa: E731
    for dim in (2, 4, 6):
        gen = RandomText(rng, dim)
        for _ in range(100):
            text = gen.sum(pick(3), scalar=bool(pick(2)))
            yield text
            for _ in range(10):
                k, ch = pick(len(text) + 1), MUTATION_CHARS[pick(len(MUTATION_CHARS))]
                yield (text[:k] + ch + text[k + 1:], text[:k] + ch + text[k:],
                       text[:k] + text[k + 1:])[pick(3)]
    for _ in range(2000):
        yield "".join(MUTATION_CHARS[pick(len(MUTATION_CHARS))] for _ in range(1 + pick(16)))


def test_parser_equals_recursive_descent_reference():
    parsed = failed = 0
    for text in parser_texts():
        try:
            tokens = tokenize(text)
        except DslError:
            continue
        got = parse_outcome(parse, tokens)
        assert got == parse_outcome(reference.parse, tokens), text
        if got[0] is DslError:
            failed += 1
        else:
            parsed += 1
    # both outcomes are covered, thousands of texts in all
    assert parsed > 1000 and failed > 1000 and parsed + failed > 3500


@pytest.mark.parametrize("prefix, opener, closer", [
    ("e1^", "(", ")"), ("2*", "(", ")"), ("e1 + ", "(", ")"),
    ("e1 + ", "-", ""), ("e1 - ", "-(", ")")])
def test_nesting_limit_inside_right_operands(prefix, opener, closer):
    depth = formdsl.MAX_NESTING
    levels = depth // len(opener)
    ok = tokenize(prefix + opener * levels + "e2" + closer * levels)
    assert parse(ok) == reference.parse(ok)
    deep = tokenize(prefix + opener * (levels + 1) + "e2" + closer * (levels + 1))
    got = parse_outcome(parse, deep)
    assert got == parse_outcome(reference.parse, deep)
    # the span is the first opener past the limit
    assert got[0] is DslError and "nested deeper" in got[1]
    assert got[2:] == (len(prefix) + depth, len(prefix) + depth + 1)


def block_curvature(rng, dim):
    """A container dict: random full 2-forms in 2x2 diagonal blocks, and a flux twist."""
    riemann = [[0] * dim for _ in range(dim)]
    for l in range(dim // 2):
        parts = [f"{c!r}*e{i + 1}^e{j + 1}" for i in range(dim) for j in range(i + 1, dim)
                 if (c := float(rng.uniform(-1, 1)))]
        text = " + ".join(parts).replace("+ -", "- ")
        riemann[2 * l][2 * l + 1] = text
        riemann[2 * l + 1][2 * l] = f"-({text})"
    flux = " + ".join(f"{float(rng.uniform(0.5, 2))!r}*e{2 * k + 1}^e{2 * k + 2}"
                      for k in range(dim // 2))
    return {"n": dim // 2, "metadata": {"volume": 2.5}, "riemann": riemann,
            "twist": [[flux]]}


DEMO_DIR = Path(__file__).resolve().parent.parent / "demos" / "curvature"


def test_load_curvature_equals_reference(tmp_path):
    rng = np.random.default_rng(71)
    paths = [DEMO_DIR / "two_blocks.json", DEMO_DIR / "torus_flux.json"]
    for dim in (4, 8, 12):
        paths.append(write_json(tmp_path, f"dim{dim}.json", block_curvature(rng, dim)))
    for path in paths:
        cf = read_curvature_file(path)
        ctx = AlgebraContext(2 * cf.n)
        for got, rows in zip(load_curvature(cf), (cf.riemann, cf.twist)):
            if rows is None:
                assert got is None
                continue
            want = reference.load_cells(rows, ctx)
            assert len(got.entries) == len(want)
            for got_row, want_row in zip(got.entries, want):
                for new, old in zip(got_row, want_row, strict=True):
                    assert_same(new, old)


def test_load_builds_one_multivector_per_nonzero_cell(tmp_path, monkeypatch):
    cf = read_curvature_file(write_json(tmp_path, "dim12.json",
                                        block_curvature(np.random.default_rng(73), 12)))
    # an element is made by the checking constructor or by _trusted
    made = []
    init, trusted = MultiVector.__init__, MultiVector._trusted

    def counted_init(self, *args):
        made.append(args)
        init(self, *args)

    def counted_trusted(cls, *args):
        made.append(args)
        return trusted(*args)

    wedges = []
    public_wedge = algebra.wedge

    def counted_wedge(a, b):
        wedges.append((a, b))
        return public_wedge(a, b)

    # under every name a diracindex module binds the public wedge to
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "diracindex":
            for attr, value in list(vars(module).items()):
                if value is public_wedge:
                    monkeypatch.setattr(module, attr, counted_wedge)
    monkeypatch.setattr(MultiVector, "__init__", counted_init)
    monkeypatch.setattr(MultiVector, "_trusted", classmethod(counted_trusted))
    riemann, twist = load_curvature(cf)
    monkeypatch.undo()
    nonzero = sum(not e.is_zero() for m in (riemann, twist) for row in m.entries for e in row)
    assert nonzero == 12 + 1
    # one element per nonzero cell, and one zero that the zero cells share
    assert len(made) == nonzero + 1
    assert wedges == []


def random_element(ctx, rng, n_terms):
    # coefficients with real, imaginary, complex, negative and signed-zero parts
    parts = (1.0, -1.0, 0.0, -0.0, 2.5, -0.125, 1e-300, -3e20, math.pi)
    masks = rng.choice(ctx.top_mask + 1, size=min(n_terms, ctx.top_mask + 1), replace=False)
    terms = {}
    for mask in masks.tolist():
        kind = int(rng.integers(0, 4))
        re, im = (parts[k] for k in rng.integers(0, len(parts), 2))
        if kind == 0:
            c = complex(re, 0.0 if rng.integers(0, 2) else -0.0)
        elif kind == 1:
            c = complex(0.0 if rng.integers(0, 2) else -0.0, im)
        elif kind == 2:
            c = complex(re, im)
        else:
            c = complex(*rng.uniform(-2, 2, 2))
        terms[mask] = c
    return MultiVector(ctx, terms, EXTERIOR)


def test_pretty_print_equals_reference(tmp_path):
    rng = np.random.default_rng(79)
    for dim in range(2, 17, 2):
        ctx = AlgebraContext(dim)
        for n_terms in (1, 3, 40, 300):
            for _ in range(4):
                mv = random_element(ctx, rng, n_terms)
                assert pretty_print(mv) == reference.pretty_print(mv)
        assert pretty_print(ctx.scalar(0)) == reference.pretty_print(ctx.scalar(0)) == "0"
    # a seeded dim-12 genus, 992 terms
    doc = block_curvature(np.random.default_rng(83), 12)
    cf = read_curvature_file(write_json(tmp_path, "dim12.json", doc))
    genus = a_hat(load_curvature(cf)[0])
    assert len(genus.terms) == 992
    assert pretty_print(genus) == reference.pretty_print(genus)


def test_format_ast_long_sum_renders_in_a_loop():
    # a left-associated chain longer than Python's recursion limit prints
    # back to its own text, which reparses to the same tree
    text = " + ".join(["0.001*e1^e2"] * 1500)
    ast = parse(tokenize(text))
    assert format_ast(ast) == text
    again = parse(tokenize(format_ast(ast)))
    # compare along the left spine in a loop; tuple == would recurse down it
    while ast[0] == "add":
        assert again[0] == "add" and again[2:] == ast[2:]
        ast, again = ast[1], again[1]
    assert again == ast


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


TORUS_DOC = {
    "n": 1,
    "metadata": {"name": "torus flux 3", "volume": 6.283185307179586},
    "twist": [["3*e1^e2"]],
}


def test_read_and_load_torus_file(tmp_path):
    cf = read_curvature_file(write_json(tmp_path, "torus.json", TORUS_DOC))
    assert cf.n == 1 and cf.riemann is None
    assert cf.metadata["volume"] == pytest.approx(2 * np.pi)
    riemann, tw = load_curvature(cf)
    assert riemann is None and tw.kind == TWIST and tw.size == 1
    assert tw.entry(0, 0).terms == {0b11: 3 + 0j}
    ch = chern_character(tw, cap=2)
    assert ch.coefficient(1, 2) * cf.metadata["volume"] == pytest.approx(3.0)


def test_read_and_load_riemann_with_zero_cells(tmp_path):
    x = "2*e1^e2"
    doc = {"n": 1, "riemann": [[0, x], [f"-({x})", 0]]}
    cf = read_curvature_file(write_json(tmp_path, "r.json", doc))
    riemann, tw = load_curvature(cf)
    assert tw is None and riemann.kind == RIEMANN and riemann.size == 2
    assert riemann.entry(0, 0).is_zero()
    assert (riemann.entry(0, 1) + riemann.entry(1, 0)).is_zero()


def test_container_shape_errors(tmp_path):
    bad = [
        {"metadata": {}},                                # n missing
        {"n": "2"},                                      # n wrong type
        {"n": 1, "extra": 1},                            # unknown key
        {"n": 1, "riemann": [["e1^e2"]]},                # 1x1 but dim is 2
        {"n": 1, "twist": [["e1^e2", 0]]},               # ragged / non-square
        {"n": 1, "twist": [[True]]},                     # bool cell
        {"n": 1, "metadata": {"volume": "big"}},         # volume not numeric
    ]
    for k, doc in enumerate(bad):
        with pytest.raises(CurvatureFormatError):
            read_curvature_file(write_json(tmp_path, f"bad{k}.json", doc))


def test_unreadable_and_malformed_files(tmp_path):
    with pytest.raises(CurvatureFormatError):
        read_curvature_file(tmp_path / "missing.json")
    p = tmp_path / "mangled.json"
    p.write_text("{not json")
    with pytest.raises(CurvatureFormatError):
        read_curvature_file(p)


def test_load_errors_name_the_cell(tmp_path):
    doc = {"n": 1, "twist": [["2*+e1^e2"]]}
    cf = read_curvature_file(write_json(tmp_path, "a.json", doc))
    with pytest.raises(DslError) as info:
        load_curvature(cf)
    assert "twist[0][0]" in str(info.value)
    assert info.value.start is not None

    doc = {"n": 1, "riemann": [[0, "e1"], ["-(e1)", 0]]}
    cf = read_curvature_file(write_json(tmp_path, "b.json", doc))
    with pytest.raises(CurvatureFormatError) as info:
        load_curvature(cf)
    assert "riemann[0][1]" in str(info.value)
    assert "2-form" in str(info.value)

    doc = {"n": 1, "riemann": [[0, "e1^e2"], ["e1^e2", 0]]}
    cf = read_curvature_file(write_json(tmp_path, "c.json", doc))
    with pytest.raises(CurvatureFormatError) as info:
        load_curvature(cf)
    assert "riemann" in str(info.value) and "antisymmetric" in str(info.value)


def test_non_finite_numbers_are_refused(tmp_path):
    # a literal past the float range, with its span; an underflow is just 0
    with pytest.raises(DslError) as info:
        tokenize("2*e1 + 1.5e309*e2")
    assert (info.value.start, info.value.end) == (7, 14)
    assert str(info.value) == "number '1.5e309' is too large for a float (bytes 7..14)"
    assert tokenize("1e-999")[0].value == 0.0
    # the volume: NaN, infinities, an int past the float range and booleans
    for volume, reason in (("NaN", "finite"), ("Infinity", "finite"), ("-Infinity", "finite"),
                           (str(10**400), "finite"), ("true", "a number"),
                           ("false", "a number")):
        path = tmp_path / "v.json"
        path.write_text('{"n": 1, "metadata": {"volume": %s}, "twist": [["e1^e2"]]}' % volume)
        with pytest.raises(CurvatureFormatError) as info:
            read_curvature_file(path)
        assert str(info.value) == f"metadata.volume must be {reason}"
    # cell values that overflow: scalar products, sums and wedges
    for cell, message in (
            ("1e200*1e200*e1^e2", "twist[0][0]: coefficient is not finite"),
            ("1.7e308*e1^e2 + 1.7e308*e1^e2", "twist[0][0]: coefficient is not finite"),
            ("(1e200*e1)^(1e200*e2)",
             "twist[0][0]: a product coefficient is not finite (bytes 0..21)")):
        cf = read_curvature_file(write_json(tmp_path, "c.json", {"n": 1, "twist": [[cell]]}))
        with pytest.raises(DslError) as info:
            load_curvature(cf)
        assert str(info.value) == message


def test_load_bare_nonzero_number_rejected(tmp_path):
    doc = {"n": 1, "twist": [[5]]}
    cf = read_curvature_file(write_json(tmp_path, "n.json", doc))
    with pytest.raises(CurvatureFormatError) as info:
        load_curvature(cf)
    assert "twist[0][0]" in str(info.value)
