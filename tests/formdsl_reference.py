"""Reference routes for the expression evaluator and printer.

The package evaluates an expression as it parses it, with one
precedence-climbing loop over an operator table, on plain term dicts, and
prints with a generator-name table.  These routes are the ones it replaced:
a recursive descent into an expression tree, one method per precedence
level; a walk of that tree in which every node becomes a MultiVector and
combines through the public ``+``, ``-``, unary minus, scalar ``*`` and
``wedge``; and a printer that formats each blade generator by generator.
The package is tested to equal parse-then-evaluate here outcome for
outcome, bit for bit and key order included, and every error by type,
message and span; a product that overflows is the exception, a bare
OverflowError here.  The printers are tested to equal string for string.
"""

from diracindex.algebra import EXTERIOR, wedge
from diracindex.charclasses import FormMatrix
from diracindex.formdsl import MAX_NESTING, DslError, tokenize


_SUM_OPS = {"plus": "add", "minus": "sub"}
_BINARY = {"add", "sub", "mul", "wedge"}


class _Parser:
    """Recursive descent: sum, unary minus, product, wedge, atom."""

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
    """Token list to ExprAst by recursive descent, one method a level."""
    p = _Parser(tokens)
    node = p.parse_sum()
    if p.peek()[0] != "end":
        p.fail(f"unexpected {p.peek()[0]} after a complete expression")
    return node


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
