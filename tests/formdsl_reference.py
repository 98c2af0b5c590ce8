"""MultiVector-operation reference routes for the expression evaluator and printer.

The package evaluates expressions on plain term dicts and prints with a
generator-name table.  These routes are the ones it replaced: every node
becomes a MultiVector and combines through the public ``+``, ``-``, unary
minus, scalar ``*`` and ``wedge``, and the printer formats each blade
generator by generator.  The package is tested to equal them bit for bit,
key order included, and string for string.
"""

from diracindex.algebra import EXTERIOR, wedge
from diracindex.charclasses import FormMatrix
from diracindex.formdsl import _BINARY, DslError, parse, tokenize


def eval_expr(ast, ctx):
    """Evaluate an ExprAst into an exterior MultiVector, one MultiVector a node."""
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


def load_cells(rows, ctx):
    """The cells of one container matrix as MultiVectors, each cell on its own."""
    return [[eval_expr(parse(tokenize(cell, ctx.dim)), ctx) if isinstance(cell, str)
             else ctx.scalar(complex(cell)) for cell in row] for row in rows]


def load_matrix(rows, ctx, kind):
    return FormMatrix(load_cells(rows, ctx), kind)


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
    """Canonical expression for an exterior element, blade by blade."""
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
