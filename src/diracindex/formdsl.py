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
"""

import itertools
import json
import re
from dataclasses import dataclass
from typing import NamedTuple

from .algebra import AlgebraContext, EXTERIOR, wedge
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


_TOKEN_RE = re.compile(
    r"""(?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
      | (?P<generator>e\d+)
      | (?P<imag_unit>i)
      | (?P<plus>\+) | (?P<minus>-) | (?P<star>\*) | (?P<caret>\^)
      | (?P<lparen>\() | (?P<rparen>\))
      | (?P<space>\s+) | (?P<unknown>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def tokenize(text, dim=None):
    """Lex an expression into Tokens carrying UTF-8 byte spans.

    Longest match wins.  With dim given, generator indices are range-checked
    here; otherwise they are checked at evaluation time against the context.
    """
    # byte offset of each character boundary, when they differ from the indices
    byte_at = None if text.isascii() else [
        0, *itertools.accumulate(len(ch.encode("utf-8")) for ch in text)]
    tokens = []
    # every character starts a match, a run of whitespace one in all
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        span = m.span() if byte_at is None else (byte_at[m.start()], byte_at[m.end()])
        if kind == "unknown":
            raise DslError(f"unexpected character {m.group()!r}", *span)
        value = None
        if kind == "number":
            value = float(m.group())
        elif kind == "generator":
            value = int(m.group()[1:])
            if value < 1 or (dim is not None and value > dim):
                raise DslError(f"generator index {value} outside 1..{dim}", *span)
        tokens.append(Token(kind, value, *span))
    end = len(text) if byte_at is None else byte_at[-1]
    tokens.append(Token("end", None, end, end))
    return tokens


# -- parser -------------------------------------------------------------------

_BINARY = {"add": "+", "sub": "-", "mul": "*", "wedge": "^"}

# deepest nesting of parentheses and unary minus the parser accepts; each
# level costs the recursive descent a few Python frames
MAX_NESTING = 100


class _Parser:
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

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, reason):
        tok = self.peek()
        raise DslError(reason, tok.start, tok.end)

    def parse_sum(self):
        node = self.parse_unary()
        while self.peek().kind in ("plus", "minus"):
            op = self.take()
            rhs = self.parse_unary()
            kind = "add" if op.kind == "plus" else "sub"
            node = (kind, node, rhs, (node[-1][0], rhs[-1][1]))
        return node

    def parse_unary(self):
        if self.peek().kind == "minus":
            self.nest()
            op = self.take()
            child = self.parse_unary()
            self.depth -= 1
            return ("neg", child, (op.start, child[-1][1]))
        return self.parse_product()

    def parse_product(self):
        node = self.parse_wedge()
        while self.peek().kind == "star":
            self.take()
            rhs = self.parse_wedge()
            node = ("mul", node, rhs, (node[-1][0], rhs[-1][1]))
        return node

    def parse_wedge(self):
        node = self.parse_atom()
        while self.peek().kind == "caret":
            self.take()
            rhs = self.parse_atom()
            node = ("wedge", node, rhs, (node[-1][0], rhs[-1][1]))
        return node

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.take()
            return ("scalar", complex(tok.value), (tok.start, tok.end))
        if tok.kind == "imag_unit":
            self.take()
            return ("scalar", 1j, (tok.start, tok.end))
        if tok.kind == "generator":
            self.take()
            return ("gen", tok.value, (tok.start, tok.end))
        if tok.kind == "lparen":
            self.nest()
            lp = self.take()
            node = self.parse_sum()
            if self.peek().kind != "rparen":
                self.fail("unbalanced parenthesis")
            rp = self.take()
            self.depth -= 1
            return node[:-1] + ((lp.start, rp.end),)
        self.fail(f"expected a number, i, a generator, or '(', found {tok.kind}")


def parse(tokens):
    """Token list to ExprAst.

    Nodes are tuples (kind, ..., span): ("scalar", complex, span),
    ("gen", index, span), ("neg", child, span), and ("add"|"sub"|"mul"|
    "wedge", left, right, span).  Nesting past ``MAX_NESTING`` levels of
    parentheses and unary minus is a DslError.
    """
    p = _Parser(tokens)
    node = p.parse_sum()
    if p.peek().kind != "end":
        p.fail(f"unexpected {p.peek().kind} after a complete expression")
    return node


def eval_expr(ast, ctx):
    """Evaluate an ExprAst into an exterior MultiVector.

    * requires a scalar operand (either side); combining two forms needs ^.
    A left-associated chain of binary nodes (a long sum, say) is folded in
    a loop, leftmost operand first, so its length costs no recursion.
    """
    spine = []
    while ast[0] in _BINARY:
        spine.append(ast)
        ast = ast[1]
    value = _eval_leaf(ast, ctx)
    for node in reversed(spine):
        value = _combine(node, value, eval_expr(node[2], ctx))
    return value


def _eval_leaf(ast, ctx):
    kind = ast[0]
    if kind == "scalar":
        return ctx.scalar(ast[1])
    if kind == "gen":
        idx = ast[1]
        if not 1 <= idx <= ctx.dim:
            raise DslError(f"generator index {idx} outside 1..{ctx.dim}", *ast[-1])
        return ctx.generator(idx)
    if kind == "neg":
        return -eval_expr(ast[1], ctx)
    raise DslError(f"malformed ast node {kind!r}", *ast[-1])


def _combine(ast, left, right):
    kind = ast[0]
    if kind == "add":
        return left + right
    if kind == "sub":
        return left - right
    if kind == "wedge":
        return wedge(left, right)
    # "mul": one side must be a scalar
    if set(left.terms) <= {0}:
        return right * left.terms.get(0, 0j)
    if set(right.terms) <= {0}:
        return left * right.terms.get(0, 0j)
    raise DslError("'*' multiplies by scalars; combine forms with '^'", *ast[-1])


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


def pretty_print(mv):
    """Canonical expression for an exterior element.

    Terms are ordered by grade then generator mask and coefficients printed
    via repr, so parsing the output back evaluates to the same element
    coefficient-exactly.
    """
    if mv.flavor != EXTERIOR:
        raise TypeError("pretty_print renders exterior elements")
    if not mv.terms:
        return "0"
    pieces = []
    for mask in sorted(mv.terms, key=lambda m: (m.bit_count(), m)):
        sign, body = _coeff_pieces(mv.terms[mask])
        blade = "^".join(f"e{mu + 1}" for mu in range(mv.context.dim) if mask >> mu & 1)
        if blade:
            body = f"{body}*{blade}"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


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
    if "volume" in metadata and not isinstance(metadata["volume"], (int, float)):
        raise CurvatureFormatError("metadata.volume must be a number")
    if "name" in metadata and not isinstance(metadata["name"], str):
        raise CurvatureFormatError("metadata.name must be a string")
    riemann = _check_matrix(doc, "riemann", 2 * n)
    twist = _check_matrix(doc, "twist", None)
    return CurvatureFile(n=n, riemann=riemann, twist=twist, metadata=dict(metadata))


def load_curvature(cf):
    """Evaluate a container's entries into validated curvature matrices.

    Returns (riemann, twist), either of which may be None.  Every failure
    names the offending matrix cell; expression errors also carry the byte
    span inside the cell's string.
    """
    ctx = AlgebraContext(2 * cf.n)

    def build(rows, kind, key):
        cells = []
        for i, row in enumerate(rows):
            out_row = []
            for j, cell in enumerate(row):
                try:
                    if isinstance(cell, str):
                        mv = eval_expr(parse(tokenize(cell, ctx.dim)), ctx)
                    else:
                        mv = ctx.scalar(complex(cell))
                except DslError as exc:
                    raise DslError(f"{key}[{i}][{j}]: {exc.reason}",
                                   exc.start, exc.end) from exc
                if any(g != 2 for g in mv.grades()):
                    raise CurvatureFormatError(
                        f"{key}[{i}][{j}]: entry is not a 2-form (grades {mv.grades()})")
                out_row.append(mv)
            cells.append(out_row)
        try:
            return FormMatrix(cells, kind)
        except ValueError as exc:
            raise CurvatureFormatError(f"{key}: {exc}") from exc

    riemann = build(cf.riemann, RIEMANN, "riemann") if cf.riemann is not None else None
    twist = build(cf.twist, TWIST, "twist") if cf.twist is not None else None
    return riemann, twist
