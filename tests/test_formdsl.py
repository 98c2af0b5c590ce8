import importlib.util
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
from diracindex.formdsl import (CurvatureFormatError, DslError, _lex, evaluate,
                                load_curvature, pretty_print, read_curvature_file)
from conftest import random_multivector


def bits(mv):
    # keys in dict order with the exact bits of both coefficient parts
    return [(m, c.real.hex(), c.imag.hex(), type(c)) for m, c in mv.terms.items()]


def assert_same(new, old):
    assert (new.context, new.flavor) == (old.context, old.flavor)
    assert bits(new) == bits(old)


def reference_evaluate(text, ctx):
    # the oracle: lexed at the context's dim, as load_curvature lexes, parsed
    # into a tree by recursive descent, then evaluated node by node
    return reference.eval_expr(reference.parse(_lex(text, ctx.dim)), ctx)


def outcome(fn, text, dim=4):
    # an element's bits, a list, or an error's type, message and span, a tuple
    try:
        return bits(fn(text, AlgebraContext(dim)))
    except DslError as exc:
        return type(exc), str(exc), exc.start, exc.end


def same_outcome(text, dim=4):
    # evaluate's outcome, checked against the reference's
    got = outcome(evaluate, text, dim)
    assert got == outcome(reference_evaluate, text, dim), (text, dim)
    return got


def error_span(text, dim=4):
    # the reason and span of the error evaluating text, checked against the reference
    got = same_outcome(text, dim)
    assert isinstance(got, tuple) and got[0] is DslError, text
    return got[1].rsplit(" (bytes", 1)[0], got[2], got[3]


def test_tokenize_basic():
    # tokens are (kind, value, start, end) tuples
    toks = _lex("2*e1^e2", 4)
    assert toks == [("number", 2.0, 0, 1), ("star", None, 1, 2), ("generator", 1, 2, 4),
                    ("caret", None, 4, 5), ("generator", 2, 5, 7), ("end", None, 7, 7)]


def test_tokenize_longest_match_number():
    # the exponent grabs the e: 2e1 is the number twenty
    assert _lex("2e1", 4) == [("number", 20.0, 0, 3), ("end", None, 3, 3)]
    toks = _lex("2*e1", 4)
    assert [t[0] for t in toks] == ["number", "star", "generator", "end"]


def test_tokenize_generator_out_of_range():
    for text, span in (("e99", (0, 3)), ("e0", (0, 2)), ("e1^e5", (3, 5))):
        with pytest.raises(DslError) as info:
            _lex(text, 4)
        assert (info.value.start, info.value.end) == span
        assert str(info.value).startswith(f"generator index {text[span[0] + 1:]} outside 1..4")
    assert _lex("e4", 4)[0] == ("generator", 4, 0, 2)


def test_tokenize_unknown_character():
    with pytest.raises(DslError) as info:
        _lex("e1 @ e2", 4)
    assert (info.value.start, info.value.end) == (3, 4)


def test_tokenize_byte_offsets_non_ascii():
    # the multiplication sign is two UTF-8 bytes; spans count bytes
    with pytest.raises(DslError) as info:
        _lex("2 × e1", 4)
    assert (info.value.start, info.value.end) == (2, 4)


def test_tokenize_non_ascii_whitespace_and_errors_keep_byte_spans():
    # no-break space (2 bytes), ideographic and em spaces (3 bytes) are
    # skipped as whitespace; spans and error positions count bytes
    toks = _lex("2\u00a0*\u3000e1 ^ e2\u2003", 4)
    assert toks == [
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
            _lex(text, 4)
        assert (info.value.start, info.value.end) == span
        assert str(info.value).startswith(message)


def test_parse_precedence():
    # ^ binds tighter than *, and * tighter than binary -; a '*' between two
    # wedges fails over both of them
    ctx = AlgebraContext(4)
    assert evaluate("2*e1^e2 - e3^e4", ctx).terms == {0b0011: 2 + 0j, 0b1100: -1 + 0j}
    assert error_span("e1^e2*e3^e4")[1:] == (0, 11)
    assert error_span("e1 - e2*e3")[1:] == (5, 10)
    same_outcome("2*e1^e2 - e3^e4")


def test_parse_left_associative():
    ctx = AlgebraContext(4)
    assert evaluate("1 - 2 - 3", ctx).terms == {0: -4 + 0j}
    assert evaluate("e1^e2^e3", ctx).terms == {0b0111: 1 + 0j}
    # (2*e1)*e3, not 2*(e1*e3); the first wedge overflows, not the second
    assert error_span("2*e1*e3")[1:] == (0, 7)
    with pytest.raises(DslError) as info:
        evaluate("(1e300*e1)^(1e300*e2)^e3", ctx)
    assert str(info.value) == "a product coefficient is not finite (bytes 0..21)"
    for text in ("1 - 2 - 3", "e1^e2^e3", "8*0.5*0.25*e1"):
        same_outcome(text)


def test_parse_unary_minus_binding():
    # looser than *, tighter than binary +/-
    ctx = AlgebraContext(4)
    assert evaluate("-2*e1", ctx).terms == {0b1: -2 + 0j}
    assert error_span("-e1*e2")[1:] == (1, 6)
    assert evaluate("-e1 + e2", ctx).terms == {0b01: -1 + 0j, 0b10: 1 + 0j}
    assert evaluate("--2", ctx).terms == {0: 2 + 0j}
    for text in ("-2*e1", "-e1 + e2", "--2", "- -e1^e2 - -e3"):
        same_outcome(text)


def test_parse_parentheses_override():
    ctx = AlgebraContext(4)
    assert evaluate("2*(e1 + e2)", ctx).terms == {0b01: 2 + 0j, 0b10: 2 + 0j}
    same_outcome("2*(e1 + e2)")
    # an operation in parentheses fails over their span, and so does one in
    # nested parentheses; parentheses around a negation leave its operand's
    for text, span in (("e1 + e2^(e3*e4)", (8, 15)), ("((e1*e2))", (0, 9)),
                       ("(e1)*e2", (0, 7)), ("-(e1*e2)", (1, 8)), ("(-(e1*e2))", (2, 9)),
                       ("((e1*e2) + e3)", (1, 8)), ("(e1^(e2*e3)^e4)", (4, 11))):
        assert error_span(text)[1:] == span, text


def test_parse_errors_carry_spans():
    ctx = AlgebraContext(4)
    with pytest.raises(DslError) as info:
        evaluate("(e1", ctx)
    assert info.value.start == 3  # the end-of-input token
    with pytest.raises(DslError) as info:
        evaluate("e1 + * e2", ctx)
    assert (info.value.start, info.value.end) == (5, 6)
    with pytest.raises(DslError) as info:
        evaluate("e1 e2", ctx)
    assert (info.value.start, info.value.end) == (3, 5)
    # a syntax error anywhere wins over an evaluation error before it
    assert error_span("e1*e2 )") == ("unexpected rparen after a complete expression", 6, 7)
    assert error_span("e1*e2 + (") == (
        "expected a number, i, a generator, or '(', found end", 9, 9)
    assert error_span("(e1*e2) + " + "(" * 101 + "e3" + ")" * 101)[1:] == (110, 111)


def test_eval_wedge_nilpotency():
    ctx = AlgebraContext(4)
    assert evaluate("e1^e1", ctx).is_zero()
    assert evaluate("(e1+e2)^(e1+e2)", ctx).is_zero()


def test_eval_coefficients():
    ctx = AlgebraContext(4)
    mv = evaluate("2*e1^e2 + i*e3^e4", ctx)
    assert mv.terms == {0b0011: 2 + 0j, 0b1100: 1j}
    assert (mv.context, mv.flavor) == (ctx, EXTERIOR)
    assert evaluate("i*i", ctx).terms == {0: -1 + 0j}
    mv = evaluate("-(1.5 - 2*i)*e1^e3", ctx)
    assert mv.terms == {0b0101: complex(-1.5, 2.0)}


def test_eval_star_needs_scalar_operand():
    ctx = AlgebraContext(4)
    with pytest.raises(DslError) as info:
        evaluate("e1*e2", ctx)
    assert (info.value.start, info.value.end) == (0, 5)
    assert "^" in info.value.reason
    # scalar on either side is fine
    assert evaluate("e1*3", ctx).terms == {0b1: 3 + 0j}


def test_eval_long_sum_folds_in_a_loop():
    # far more terms than Python's recursion limit, summed left to right
    ctx = AlgebraContext(4)
    mv = evaluate(" + ".join(["0.001*e1^e2"] * 1500), ctx)
    total = 0j
    for _ in range(1500):
        total = total + 0.001
    assert mv.terms == {0b0011: total}
    assert total != 1.5  # the order of the additions shows in the last bits
    mixed = " - ".join(["e1^e2", "0.5*e1^e2^e3^e4*2", "i*e3^e4"] * 700)
    assert evaluate(mixed, ctx).terms == {
        0b0011: complex(-698, 0), 0b1111: complex(-700, 0), 0b1100: complex(0, -700)}


def test_parse_refuses_deep_nesting():
    depth = formdsl.MAX_NESTING
    ctx = AlgebraContext(4)
    for opener, closer in (("(", ")"), ("-", ""), ("-(", ")")):
        levels = depth // len(opener)
        ok = opener * levels + "e1^e2" + closer * levels
        assert evaluate(ok, ctx).terms == {0b0011: (-1) ** (
            levels * opener.count("-")) + 0j}
        deep = opener * (levels + 1) + "e1^e2" + closer * (levels + 1)
        with pytest.raises(DslError) as info:
            evaluate(deep, ctx)
        # the span is the first opener past the limit
        assert (info.value.start, info.value.end) == (depth, depth + 1)
        assert "nested deeper" in info.value.reason
    # 3000 unary minuses and 200 parentheses: refused, not a RecursionError
    for text in ("-" * 3000 + "e1^e2", "(" * 200 + "e1^e2" + ")" * 200):
        with pytest.raises(DslError):
            evaluate(text, ctx)


def test_eval_generator_range_checked_against_context():
    ctx = AlgebraContext(4)
    with pytest.raises(DslError) as info:
        evaluate("e9", ctx)
    assert (info.value.start, info.value.end) == (0, 2)
    assert info.value.reason == "generator index 9 outside 1..4"
    assert evaluate("e9", AlgebraContext(10)).terms == {1 << 8: 1 + 0j}


def test_pretty_print_examples():
    ctx = AlgebraContext(4)
    mv = evaluate("2*e1^e2 - e3^e4 + i*e1^e4", ctx)
    s = pretty_print(mv)
    assert s == "2.0*e1^e2 + i*e1^e4 - 1.0*e3^e4"
    assert evaluate(s, ctx) == mv
    assert pretty_print(ctx.scalar(0)) == "0"
    assert pretty_print(ctx.scalar(complex(-1.5, 2))) == "(-1.5+2.0*i)"


def test_pretty_print_roundtrip_random():
    rng = np.random.default_rng(20260814)
    for dim in (2, 4, 6):
        ctx = AlgebraContext(dim)
        for _ in range(25):
            mv = random_multivector(ctx, rng, n_terms=8)
            back = evaluate(pretty_print(mv), ctx)
            assert back == mv  # coefficient-exact, no tolerance


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


# -- evaluate against the parse-then-evaluate reference ------------------------


def test_eval_equals_reference_on_random_texts():
    for dim, text in random_texts():
        assert isinstance(same_outcome(text, dim), list), text


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
        assert isinstance(same_outcome(text), list), text
    # the re-appended key goes last
    assert list(evaluate(EDGE_TEXTS[0], ctx).terms) == [0b1100, 0b0011]


def long_sum():
    # 1,500 terms over a few blades, small integer coefficients, so that
    # keys cancel to exactly zero and come back many times
    rng = np.random.default_rng(61)
    terms = []
    for _ in range(1500):
        i, j = sorted(rng.choice(6, 2, replace=False) + 1)
        c = int(rng.integers(1, 4))
        terms.append(("+", "-")[int(rng.integers(0, 2))] + f" {c}*e{i}^e{j}")
    return "e1^e2 " + " ".join(terms)


def test_eval_long_sum_equals_reference():
    assert isinstance(same_outcome(long_sum(), 6), list)
    assert isinstance(same_outcome(" + ".join(["0.001*e1^e2"] * 1500)), list)


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
    assert 20 * 30 > algebra._LOOP_PAIRS
    new = evaluate(text, ctx)
    assert len(kernel_calls) == 1
    assert_same(new, reference_evaluate(text, ctx))


def test_eval_errors_equal_reference():
    # each evaluation error, and the first of several, in the order a tree
    # evaluates its nodes: left operand, right operand, then the operation
    texts = ["e1*e2", "(e1 + e2)*(e3)", "e9", "2*e1*e3", "e1^e2*e3^e4", "e1 + e1*e2",
             "e1*e2 + e99", "e99 + e1*e2", "-(e7)", "(e1 - e5)^e2", "e1 + e2^(e3*e4)",
             "e1*e2 + e3*e4", "e1^(e2*e3) - (e3*e4)", "e1*(e2*e3)", "-(e1*e2)*e3",
             "((e1*e2)) - (e3*e4)", "(e1*e2) + (e3*e4) )", "e1*e2 + (1e300*e1)^(1e300*e2)"]
    for text in texts:
        error_span(text)
    # the reference's wedge raises a bare OverflowError; the evaluator gives
    # it the wedge's span, as it gives the '*' error the '*' operation's
    ctx = AlgebraContext(4)
    for text, span in (("(1e200*e1)^(1e200*e2)", (0, 21)),
                       ("(1e300*e1)^(1e300*e2) + e1*e2", (0, 21)),
                       ("-(-(1e300*e1)^(1e300*e2))", (3, 24)),
                       ("((1e300*e1)^(1e300*e2))", (0, 23))):
        with pytest.raises(DslError) as info:
            evaluate(text, ctx)
        assert str(info.value) == "a product coefficient is not finite (bytes %d..%d)" % span


# -- the precedence-climbing evaluator against the recursive descent it replaced --

MUTATION_CHARS = "+-*^()ie1234.5 "


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
    evaluated = failed = 0
    for text in parser_texts():
        for dim in (2, 4, 6):
            # lexed once, for the reference and to set the lexer's errors apart
            try:
                tokens = _lex(text, dim)
            except DslError as exc:
                # the lexer's error, the same function on both sides
                assert outcome(evaluate, text, dim) == (DslError, str(exc), exc.start, exc.end)
                continue
            got = outcome(evaluate, text, dim)
            assert got == outcome(lambda _, ctx: reference.eval_expr(reference.parse(tokens), ctx),
                                  text, dim), (text, dim)
            if isinstance(got, tuple):
                failed += 1
            else:
                evaluated += 1
    # both outcomes are covered, thousands of texts in all
    assert evaluated > 1000 and failed > 1000 and evaluated + failed > 3500


@pytest.mark.parametrize("prefix, opener, closer", [
    ("e1^", "(", ")"), ("2*", "(", ")"), ("e1 + ", "(", ")"),
    ("e1 + ", "-", ""), ("e1 - ", "-(", ")")])
def test_nesting_limit_inside_right_operands(prefix, opener, closer):
    depth = formdsl.MAX_NESTING
    levels = depth // len(opener)
    ok = prefix + opener * levels + "e2" + closer * levels
    assert isinstance(same_outcome(ok), list)
    deep = prefix + opener * (levels + 1) + "e2" + closer * (levels + 1)
    # the span is the first opener past the limit
    reason, *span = error_span(deep)
    assert "nested deeper" in reason
    assert span == [len(prefix) + depth, len(prefix) + depth + 1]


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


def forms_rounds(seed):
    # the seeded rounds of the benchmark's forms workload, from
    # perfbench/inputs.py loaded by its path
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.forms_rounds(seed)


def test_eval_equals_reference_on_benchmark_and_demo_cells():
    docs = [json.loads(path.read_text()) for path in sorted(DEMO_DIR.glob("*.json"))]
    docs += [case["doc"] for seed in (1001, 302) for rnd in forms_rounds(seed)
             for case in rnd["chars"]]
    cells = 0
    for doc in docs:
        for rows in (doc.get("riemann"), doc.get("twist")):
            for cell in (c for row in rows or () for c in row if isinstance(c, str)):
                assert isinstance(same_outcome(cell, 2 * doc["n"]), list), cell
                cells += 1
    # 176 cells a seed: 8 rounds of a dim-8 and a dim-12 file
    assert cells > 2 * 176


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
    assert tw.entries[0][0].terms == {0b11: 3 + 0j}
    ch = chern_character(tw, cap=2)
    assert ch.coefficient(1, 2) * cf.metadata["volume"] == pytest.approx(3.0)


def test_read_and_load_riemann_with_zero_cells(tmp_path):
    x = "2*e1^e2"
    doc = {"n": 1, "riemann": [[0, x], [f"-({x})", 0]]}
    cf = read_curvature_file(write_json(tmp_path, "r.json", doc))
    riemann, tw = load_curvature(cf)
    assert tw is None and riemann.kind == RIEMANN and riemann.size == 2
    assert riemann.entries[0][0].is_zero()
    assert (riemann.entries[0][1] + riemann.entries[1][0]).is_zero()


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
        _lex("2*e1 + 1.5e309*e2", 4)
    assert (info.value.start, info.value.end) == (7, 14)
    assert str(info.value) == "number '1.5e309' is too large for a float (bytes 7..14)"
    assert _lex("1e-999", 4)[0] == ("number", 0.0, 0, 6)
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
