"""Expression language and file container for curvature input.

Expression grammar, loosest to tightest binding: binary + and -, then unary
minus, then *, then ^ (wedge); all binary operators left-associative, with
parentheses overriding.  The wedge ^ binds tightest (it is NOT
exponentiation here) because curvature entries are short wedge monomials.
* is scalar multiplication, generators are spelled e1..e{2n}, the imaginary
unit is i, numbers are plain decimals with optional fraction and exponent.
Longest-match lexing means `2e1` is the number 20; write 2*e1 for twice a
generator.

The file container is JSON with keys n (half-dimension), metadata
(name, volume), riemann (2n x 2n matrix) and twist (k x k matrix), matrix
cells being expression strings or the bare number 0.  Every failure, lexing,
parsing, evaluation or container shape, is a positioned DslError; byte
offsets refer to the UTF-8 encoding of the offending expression string.
Numbers too large for a float, a non-finite or boolean metadata.volume, and
non-finite cell values are failures too.

Expressions evaluate on plain {mask: complex} term dicts, and a cell becomes
one MultiVector only when it is complete.  Products go through the algebra's
one product, ``algebra._product_terms``.  A left-associated sum is folded
into one accumulator, with the rule of MultiVector + and -: the keys of the
sum so far keep their places, new keys are appended in order, and a key
whose sum is exactly zero is dropped, so a later term of that key is
appended again.  The result equals evaluating with MultiVector operations
bit for bit, key order included.
"""

import cmath
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .algebra import AlgebraContext, EXTERIOR, MultiVector, _accumulate, _product_terms, _scale
from .charclasses import RIEMANN, TWIST, FormMatrix


class DslError(ValueError):
    """Lexing, parsing, evaluation, or container failure, with byte span."""

    def __init__(self, reason, start=None, end=None):
        self.reason = reason
        self.start = start
        self.end = end
        if start is None:
            super().__init__(reason)
        else:
            super().__init__(f"{reason} (bytes {start}..{end})")


class CurvatureFormatError(DslError):
    """Container-level failure: unreadable file, bad shape, bad matrix."""


class Token(NamedTuple):
    kind: str
    value: object
    start: int
    end: int


# each match is a token with the whitespace before it; the groups, by
# number: 1 one-character symbol, 2 generator digits, 3 number, 4 end, 5 any
# other character.  No two of the first three can start alike, so their
# order is free: the most frequent come first
_TOKEN_RE = re.compile(
    r"""\s*(?:(?P<symbol>[-+*^()i])
      | e(?P<generator>\d+)
      | (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
      | (?P<end>\Z) | (?P<unknown>.))
    """,
    re.VERBOSE | re.DOTALL,
)

_SYMBOLS = {"+": "plus", "-": "minus", "*": "star", "^": "caret",
            "(": "lparen", ")": "rparen", "i": "imag_unit"}


def tokenize(text, dim=None):
    """Lex an expression into Tokens carrying UTF-8 byte spans.

    Longest match wins.  With dim given, generator indices are range-checked
    here; otherwise they are checked at evaluation time against the context.
    A number too large for a float is an error.
    """
    return list(map(Token._make, _lex(text, dim)))


def _lex(text, dim):
    # tokenize's tokens as plain (kind, value, start, end) tuples, which the
    # parser reads alike and which cost a fraction of a Token to make;
    # byte offset of each character boundary, when they differ from the indices
    byte_at = None if text.isascii() else [
        0, *itertools.accumulate(len(ch.encode("utf-8")) for ch in text)]
    tokens = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        # a generator's span starts at its e, one character before the digits
        start, end = m.start(group) - (group == 2), m.end()
        if byte_at is not None:
            start, end = byte_at[start], byte_at[end]
        if group == 1:
            append((_SYMBOLS[m[1]], None, start, end))
        elif group == 3:
            value = float(m[3])
            if value == math.inf:
                raise DslError(f"number {m[3]!r} is too large for a float", start, end)
            append(("number", value, start, end))
        elif group == 2:
            value = int(m[2])
            if value < 1 or (dim is not None and value > dim):
                raise DslError(f"generator index {value} outside 1..{dim}", start, end)
            append(("generator", value, start, end))
        elif group == 5:
            raise DslError(f"unexpected character {m[5]!r}", start, end)
        else:
            # the end of the text, after any trailing whitespace
            append(("end", None, start, end))
            break
    return tokens


# -- parser -------------------------------------------------------------------

_BINARY = {"add": "+", "sub": "-", "mul": "*", "wedge": "^"}

# deepest nesting of parentheses and unary minus the parser accepts; each
# level costs the recursive descent a few Python frames
MAX_NESTING = 100


_SUM_OPS = {"plus": "add", "minus": "sub"}


class _Parser:
    # the loops read self.tokens[self.pos] in place of method calls

    def __init__(self, tokens):
        self.tokens = list(tokens)
        self.pos = 0
        self.depth = 0

    def nest(self):
        # called on an opening parenthesis or unary minus, before consuming it
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"expression nested deeper than {MAX_NESTING} levels "
                      "of parentheses and unary minus")

    def peek(self):
        return self.tokens[self.pos]

    def fail(self, reason):
        tok = self.peek()
        raise DslError(reason, tok[2], tok[3])

    def parse_sum(self):
        tokens = self.tokens
        node = self.parse_unary()
        while (kind := _SUM_OPS.get(tokens[self.pos][0])) is not None:
            self.pos += 1
            rhs = self.parse_unary()
            node = (kind, node, rhs, (node[-1][0], rhs[-1][1]))
        return node

    def parse_unary(self):
        op = self.tokens[self.pos]
        if op[0] != "minus":
            return self.parse_product()
        self.nest()
        self.pos += 1
        child = self.parse_unary()
        self.depth -= 1
        return ("neg", child, (op[2], child[-1][1]))

    def parse_product(self):
        tokens = self.tokens
        node = self.parse_wedge()
        while tokens[self.pos][0] == "star":
            self.pos += 1
            rhs = self.parse_wedge()
            node = ("mul", node, rhs, (node[-1][0], rhs[-1][1]))
        return node

    def parse_wedge(self):
        tokens = self.tokens
        node = self.parse_atom()
        while tokens[self.pos][0] == "caret":
            self.pos += 1
            rhs = self.parse_atom()
            node = ("wedge", node, rhs, (node[-1][0], rhs[-1][1]))
        return node

    def parse_atom(self):
        kind, value, start, end = self.tokens[self.pos]
        if kind == "number":
            self.pos += 1
            return ("scalar", complex(value), (start, end))
        if kind == "generator":
            self.pos += 1
            return ("gen", value, (start, end))
        if kind == "imag_unit":
            self.pos += 1
            return ("scalar", 1j, (start, end))
        if kind == "lparen":
            self.nest()
            self.pos += 1
            node = self.parse_sum()
            rp = self.peek()
            if rp[0] != "rparen":
                self.fail("unbalanced parenthesis")
            self.pos += 1
            self.depth -= 1
            return node[:-1] + ((start, rp[3]),)
        self.fail(f"expected a number, i, a generator, or '(', found {kind}")


def parse(tokens):
    """Token list to ExprAst.

    Tokens are read by position, (kind, value, start, end), so Tokens and
    plain tuples parse alike.  Nodes are tuples (kind, ..., span):
    ("scalar", complex, span), ("gen", index, span), ("neg", child, span),
    and ("add"|"sub"|"mul"|"wedge", left, right, span).  Nesting past
    ``MAX_NESTING`` levels of parentheses and unary minus is a DslError.
    """
    p = _Parser(tokens)
    node = p.parse_sum()
    if p.peek()[0] != "end":
        p.fail(f"unexpected {p.peek()[0]} after a complete expression")
    return node


def eval_expr(ast, ctx):
    """Evaluate an ExprAst into an exterior MultiVector.

    * requires a scalar operand (either side); combining two forms needs ^.
    A left-associated chain of binary nodes (a long sum, say) is folded in
    a loop, leftmost operand first, so its length costs no recursion.
    """
    return MultiVector._trusted(ctx, _eval_terms(ast, ctx.dim), EXTERIOR)


def _eval_terms(ast, dim):
    # the term dict of an ExprAst: a fresh dict, so a sum adds into it in place
    spine = []
    while ast[0] in _BINARY:
        spine.append(ast)
        ast = ast[1]
    kind = ast[0]
    if kind == "gen":
        idx = ast[1]
        if not 1 <= idx <= dim:
            raise DslError(f"generator index {idx} outside 1..{dim}", *ast[-1])
        value = {1 << (idx - 1): 1 + 0j}
    elif kind == "scalar":
        c = complex(ast[1])
        value = {0: c} if c != 0 else {}
    elif kind == "neg":
        value = _eval_terms(ast[1], dim)
        for m, c in value.items():
            value[m] = -c
    else:
        raise DslError(f"malformed ast node {kind!r}", *ast[-1])
    for node in reversed(spine):
        right = _eval_terms(node[2], dim)
        kind = node[0]
        if kind == "add":
            _accumulate(value, right)
        elif kind == "sub":
            _accumulate(value, right, subtract=True)
        elif kind == "wedge":
            try:
                value = _product_terms(value, right, dim, False)
            except OverflowError as exc:
                raise DslError(str(exc), *node[-1]) from exc
        else:
            value = _scaled_terms(node, value, right)
    return value


def _scaled_terms(ast, left, right):
    # "mul": one side must be a scalar; the form times it, as MultiVector *
    # scalar forms it
    if left.keys() <= {0}:
        form, factor = right, left.get(0, 0j)
    elif right.keys() <= {0}:
        form, factor = left, right.get(0, 0j)
    else:
        raise DslError("'*' multiplies by scalars; combine forms with '^'", *ast[-1])
    return _scale(form, factor)


# -- printers ------------------------------------------------------------------

def _coeff_pieces(c):
    # sign prefix plus body, body always re-parseable
    if c.imag == 0.0:
        sign = "-" if c.real < 0 else "+"
        return sign, repr(abs(c.real))
    if c.real == 0.0:
        sign = "-" if c.imag < 0 else "+"
        mag = abs(c.imag)
        return sign, "i" if mag == 1.0 else f"{repr(mag)}*i"
    joiner = "+" if c.imag > 0 else "-"
    return "+", f"({repr(c.real)}{joiner}{repr(abs(c.imag))}*i)"


def _subset_blades(names):
    # the blade of every subset of names, indexed by the subset's bit mask
    out = [""]
    for name in names:
        out += [f"{blade}^{name}" if blade else name for blade in out]
    return out


def pretty_print(mv):
    """Canonical expression for an exterior element.

    Terms are ordered by grade then generator mask and coefficients printed
    via repr, so parsing the output back evaluates to the same element
    coefficient-exactly.
    """
    if mv.flavor != EXTERIOR:
        raise TypeError("pretty_print renders exterior elements")
    terms = mv.terms
    if not terms:
        return "0"
    # a blade is the blade of its mask's low half, then of its high half,
    # each looked up in a table of 2**(dim/2) names
    dim = mv.context.dim
    half = dim // 2
    names = [f"e{mu + 1}" for mu in range(dim)]
    low, high = _subset_blades(names[:half]), _subset_blades(names[half:])
    low_bits = (1 << half) - 1
    pieces = []
    # sorted by mask, then stably by grade: (grade, mask) order
    for mask in sorted(sorted(terms), key=int.bit_count):
        sign, body = _coeff_pieces(terms[mask])
        lo, hi = low[mask & low_bits], high[mask >> half]
        if lo or hi:
            body = f"{body}*{lo}^{hi}" if lo and hi else f"{body}*{lo or hi}"
        pieces.append(f"{sign} {body}")
    # the first term carries its sign without a space, and only when negative
    first = pieces[0]
    pieces[0] = first[2:] if first[0] == "+" else f"-{first[2:]}"
    return " ".join(pieces)


_PREC = {"add": 1, "sub": 1, "neg": 2, "mul": 3, "wedge": 4, "scalar": 5, "gen": 5}


def format_ast(node):
    """Render an ExprAst with the fewest parentheses that reparse identically.

    Right operands at equal precedence are parenthesized, so association
    survives the round trip.  Negative scalar literals cannot be represented
    (they print through unary minus and reparse as neg nodes).  A
    left-associated chain of binary nodes is rendered in a loop, leftmost
    operand first, so its length costs no recursion.
    """
    spine = []
    while node[0] in _BINARY:
        spine.append(node)
        node = node[1]
    text = _format_leaf(node)
    for parent in reversed(spine):
        kind, left, right = parent[0], parent[1], parent[2]
        if _PREC[left[0]] < _PREC[kind]:
            text = f"({text})"
        rs = format_ast(right)
        if _PREC[right[0]] <= _PREC[kind]:
            rs = f"({rs})"
        op = _BINARY[kind]
        text = f"{text} {op} {rs}" if kind in ("add", "sub") else f"{text}{op}{rs}"
    return text


def _format_leaf(node):
    kind = node[0]
    if kind == "scalar":
        v = node[1]
        if v == 1j:
            return "i"
        if v.imag == 0.0:
            return repr(v.real) if v.real >= 0 else f"-{repr(-v.real)}"
        sign, body = _coeff_pieces(v)
        return body if sign == "+" else f"-{body}"
    if kind == "gen":
        return f"e{node[1]}"
    inner = format_ast(node[1])  # neg
    if _PREC[node[1][0]] < _PREC["neg"]:
        inner = f"({inner})"
    return f"-{inner}"


# -- file container ------------------------------------------------------------

@dataclass(frozen=True)
class CurvatureFile:
    """Shape-checked curvature container: dimension, matrices, metadata."""

    n: int
    riemann: tuple
    twist: tuple
    metadata: dict


_TOP_KEYS = {"n", "metadata", "riemann", "twist"}


def _check_matrix(doc, key, size):
    rows = doc.get(key)
    if rows is None:
        return None
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise CurvatureFormatError(f"{key} must be a list of rows")
    want = size if size is not None else len(rows)
    if len(rows) != want or any(len(r) != want for r in rows):
        raise CurvatureFormatError(
            f"{key} must be square of size {want}, got "
            f"{len(rows)}x{[len(r) for r in rows]}")
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            if not isinstance(cell, (str, int, float)) or isinstance(cell, bool):
                raise CurvatureFormatError(
                    f"{key}[{i}][{j}] must be an expression string or a number")
    return tuple(tuple(row) for row in rows)


def read_curvature_file(path):
    """Load the JSON container and check shapes; expressions stay unparsed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CurvatureFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CurvatureFormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CurvatureFormatError("top level must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise CurvatureFormatError(f"unknown keys {sorted(unknown)}; "
                                   f"allowed are {sorted(_TOP_KEYS)}")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1 or 2 * n > 16:
        raise CurvatureFormatError("n must be an integer in 1..8 (dimension 2n)")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise CurvatureFormatError("metadata must be an object")
    if "volume" in metadata:
        volume = metadata["volume"]
        if not isinstance(volume, (int, float)) or isinstance(volume, bool):
            raise CurvatureFormatError("metadata.volume must be a number")
        # NaN fails the comparison, and so does an int past the float range
        if not abs(volume) <= sys.float_info.max:
            raise CurvatureFormatError("metadata.volume must be finite")
    if "name" in metadata and not isinstance(metadata["name"], str):
        raise CurvatureFormatError("metadata.name must be a string")
    riemann = _check_matrix(doc, "riemann", 2 * n)
    twist = _check_matrix(doc, "twist", None)
    return CurvatureFile(n=n, riemann=riemann, twist=twist, metadata=dict(metadata))


def load_curvature(cf):
    """Evaluate a container's entries into validated curvature matrices.

    Returns (riemann, twist), either of which may be None.  Every failure
    names the offending matrix cell; expression errors also carry the byte
    span inside the cell's string.  Each cell is evaluated and checked on its
    term dict and becomes one MultiVector; the zero cells share one.
    """
    dim = 2 * cf.n
    ctx = AlgebraContext(dim)
    zero = MultiVector._trusted(ctx, {}, EXTERIOR)

    def build(rows, kind, key):
        cells = []
        for i, row in enumerate(rows):
            out_row = []
            for j, cell in enumerate(row):
                if isinstance(cell, str):
                    try:
                        terms = _eval_terms(parse(_lex(cell, dim)), dim)
                    except DslError as exc:
                        raise DslError(f"{key}[{i}][{j}]: {exc.reason}",
                                       exc.start, exc.end) from exc
                elif cell == 0:
                    out_row.append(zero)
                    continue
                else:
                    # a nonzero number is a scalar, refused as one below
                    terms = {0: cell}
                if any(m.bit_count() != 2 for m in terms):
                    grades = sorted({m.bit_count() for m in terms})
                    raise CurvatureFormatError(
                        f"{key}[{i}][{j}]: entry is not a 2-form (grades {grades})")
                if not all(map(cmath.isfinite, terms.values())):
                    raise CurvatureFormatError(f"{key}[{i}][{j}]: coefficient is not finite")
                out_row.append(MultiVector._trusted(ctx, terms, EXTERIOR) if terms else zero)
            cells.append(out_row)
        try:
            return FormMatrix(cells, kind)
        except (ValueError, OverflowError) as exc:
            # OverflowError: abs of a coefficient whose parts are finite but
            # whose magnitude is past the float range
            raise CurvatureFormatError(f"{key}: {exc}") from exc

    riemann = build(cf.riemann, RIEMANN, "riemann") if cf.riemann is not None else None
    twist = build(cf.twist, TWIST, "twist") if cf.twist is not None else None
    return riemann, twist
