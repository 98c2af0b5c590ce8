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

``evaluate`` reads an expression with one precedence-climbing loop and
evaluates each operation as soon as its operands are read, on plain
{mask: complex} term dicts; no expression tree is built, and a cell becomes
one MultiVector only when it is complete.  Products go through the
algebra's one product, ``algebra._product_terms``.  A left-associated sum
is folded into one accumulator, with the rule of MultiVector + and -: the
keys of the sum so far keep their places, new keys are appended in order,
and a key whose sum is exactly zero is dropped, so a later term of that key
is appended again.  The result equals parsing into a tree and evaluating
it node by node with MultiVector operations, bit for bit, key order
included, and so does every error: its message and its span.
"""

import cmath
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass

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


# the binary operators, loosest first: symbol, token kind, operation and
# binding strength.  Unary minus, a minus token where an operand starts,
# binds at _NEG, between the sums and the products; atoms bind tightest
_OPERATORS = (("+", "plus", "add", 1), ("-", "minus", "sub", 1),
              ("*", "star", "mul", 3), ("^", "caret", "wedge", 4))
_NEG = 2

_SYMBOLS = {**{sym: tok for sym, tok, _, _ in _OPERATORS},
            "(": "lparen", ")": "rparen", "i": "imag_unit"}

# each match is a token with the whitespace before it; the groups, by
# number: 1 one-character symbol, 2 generator digits, 3 number, 4 end, 5 any
# other character.  No two of the first three can start alike, so their
# order is free: the most frequent come first.  Digits are ASCII only; any
# other decimal digit is an unknown character, after an e as well
_TOKEN_RE = re.compile(
    rf"""\s*(?:(?P<symbol>[{re.escape(''.join(_SYMBOLS))}])
      | e(?P<generator>[0-9]+)
      | (?P<number>(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?)
      | (?P<end>\Z) | (?:e(?=\d))?(?P<unknown>.))
    """,
    re.VERBOSE | re.DOTALL,
)


def _lex(text, dim):
    """Lex an expression into (kind, value, start, end) tuples, spans in UTF-8 bytes.

    Longest match wins.  Generator indices are range-checked against dim
    here, and a number too large for a float is an error.
    """
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
            if not 1 <= value <= dim:
                raise DslError(f"generator index {value} outside 1..{dim}", start, end)
            append(("generator", value, start, end))
        elif group == 5:
            raise DslError(f"unexpected character {m[5]!r}", start, end)
        else:
            # the end of the text, after any trailing whitespace
            append(("end", None, start, end))
            break
    return tokens


# -- parser and evaluator -----------------------------------------------------

# token kind -> (operation, binding strength) of a binary operator
_INFIX = {tok: (op, strength) for _, tok, op, strength in _OPERATORS}

# deepest nesting of parentheses and unary minus the parser accepts; each
# level costs the parser a few Python frames
MAX_NESTING = 100


class _Parser:
    # every step reads self.tokens[self.pos] in place of method calls.  Each
    # operand is a (term dict, span) pair, evaluated as soon as it is read.
    # The first evaluation error is kept in self.error and raised only once
    # the whole text has parsed, so a syntax error anywhere wins over it; the
    # operand that failed has the terms None until an operation takes it in

    def __init__(self, tokens, dim):
        self.tokens, self.dim = tokens, dim
        self.pos = self.depth = 0
        self.error = None

    def nest(self):
        # called on an opening parenthesis or unary minus, before consuming it
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"expression nested deeper than {MAX_NESTING} levels "
                      "of parentheses and unary minus")

    def fail(self, reason):
        tok = self.tokens[self.pos]
        raise DslError(reason, tok[2], tok[3])

    def parse_expr(self, floor):
        # one operand, then every operator binding at least as strongly as
        # floor, each with a right operand that binds more strongly still.
        # A sum adds into its left operand's dict, a fresh one, in place
        tokens = self.tokens
        op = tokens[self.pos]
        if floor <= _NEG and op[0] == "minus":
            self.nest()
            self.pos += 1
            terms, (_, end) = self.parse_expr(_NEG)
            self.depth -= 1
            terms = {m: -c for m, c in terms.items()} if terms is not None else {}
            span = (op[2], end)
        else:
            terms, span = self.parse_atom()
        while (infix := _INFIX.get(tokens[self.pos][0])) is not None and infix[1] >= floor:
            self.pos += 1
            right, (_, end) = self.parse_expr(infix[1] + 1)
            span = (span[0], end)
            terms = self.combine(infix[0], terms, right, span)
        return terms, span

    def combine(self, kind, left, right, span):
        # the terms of one binary operation, or None when it fails
        if self.error is not None:
            return {}
        if kind == "add":
            return _accumulate(left, right)
        if kind == "sub":
            return _accumulate(left, right, subtract=True)
        if kind == "wedge":
            try:
                return _product_terms(left, right, self.dim, False)
            except OverflowError as exc:
                reason = str(exc)
        # "mul": one side must be a scalar; the form times it, as
        # MultiVector * scalar forms it
        elif left.keys() <= {0}:
            return _scale(right, left.get(0, 0j))
        elif right.keys() <= {0}:
            return _scale(left, right.get(0, 0j))
        else:
            reason = "'*' multiplies by scalars; combine forms with '^'"
        self.error = [reason, *span]
        return None

    def parse_atom(self):
        kind, value, start, end = self.tokens[self.pos]
        if kind == "number":
            self.pos += 1
            c = complex(value)
            return {0: c} if c else {}, (start, end)
        if kind == "generator":
            # lexed against the dimension, so the index is in range
            self.pos += 1
            return {1 << (value - 1): 1 + 0j}, (start, end)
        if kind == "imag_unit":
            self.pos += 1
            return {0: 1j}, (start, end)
        if kind == "lparen":
            self.nest()
            self.pos += 1
            terms, _ = self.parse_expr(1)
            rp = self.tokens[self.pos]
            if rp[0] != "rparen":
                self.fail("unbalanced parenthesis")
            self.pos += 1
            self.depth -= 1
            if terms is None:
                # the failed operation is the one these parentheses enclose,
                # and its span is theirs
                self.error[1:] = start, rp[3]
            return terms, (start, rp[3])
        self.fail(f"expected a number, i, a generator, or '(', found {kind}")


def evaluate(text, ctx):
    """Lex, parse and evaluate an expression into an exterior MultiVector.

    Generators are range-checked against ``ctx.dim`` as the text is lexed,
    and each operation is evaluated as soon as its operands are read: *
    needs a scalar operand (either side), combining two forms needs ^.  A
    chain of binary operators (a long sum, say) is read in a loop, so its
    length costs no recursion; nesting past ``MAX_NESTING`` levels of
    parentheses and unary minus is a DslError.
    """
    p = _Parser(_lex(text, ctx.dim), ctx.dim)
    terms, _ = p.parse_expr(1)
    kind = p.tokens[p.pos][0]
    if kind != "end":
        p.fail(f"unexpected {kind} after a complete expression")
    if p.error is not None:
        raise DslError(*p.error)
    return MultiVector._trusted(ctx, terms, EXTERIOR)


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
    span inside the cell's string.  Each string cell is one ``evaluate``,
    checked on its terms; the zero cells share one MultiVector.
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
                        mv = evaluate(cell, ctx)
                    except DslError as exc:
                        raise DslError(f"{key}[{i}][{j}]: {exc.reason}",
                                       exc.start, exc.end) from exc
                    terms = mv.terms
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
                out_row.append(mv if terms else zero)
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
