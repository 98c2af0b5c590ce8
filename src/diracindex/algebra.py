"""Exterior and Clifford algebras on an even-dimensional real vector space.

Basis blades are encoded as bitmasks over the generators: bit mu-1 set means
generator mu is a factor, so mask 0b0101 is the blade built from generators
1 and 3, in increasing order.  A multivector is a sparse map from masks to
complex coefficients.  Two product families share this storage:

* exterior flavor: generators anticommute and square to zero (wedge),
* clifford flavor: generators anticommute and square to -1, that is
  {g_mu, g_nu} = -2 delta_{mu,nu}.

The flavor tag records which family an element lives in.  ``phi_eps`` is the
grade-scaling vector-space isomorphism between the two; its failure to be an
algebra map is O(eps^2) and is itself a quantity of interest, so the two
products are never silently mixed.

Both products take one of two paths, picked by the number of term pairs.
Up to ``_LOOP_PAIRS`` pairs a dictionary loop over the pairs forms the
product; larger products run through a numpy kernel in steps, whose fixed
cost of numpy calls only pays off on many pairs.  A Clifford product keeps
every pair, and each step broadcasts rows of the left operand against the
whole right one, ``_PAIR_CHUNK`` pairs a step.  A wedge keeps only the
disjoint pairs: the kernel tests ``_TEST_CHUNK`` pairs a step on 16-bit
copies of the masks, takes the kept ones in row-major order, and sums them
``_KEPT_CHUNK`` kept pairs a step, so its summing steps are sized by the
pairs kept, not by the pairs tested.  On both paths the sign of the pair
(x, y) is the parity of bitwise_count(x & below(y)), where below(y) has bit
k set when an odd number of y's generators lie under generator k; the
Clifford product adds bitwise_count(x & y), one -1 per contracted
generator.  Each result coefficient is summed in pair order (row-major over
the two term dicts) and the result is keyed in ascending mask order, so the
two paths agree bit for bit, key order included.

A wedge of two operands that each have a single grade skips both paths when
the grades reach ``dim``.  Past ``dim`` every pair overlaps and the product is
zero.  At exactly ``dim`` the only disjoint partner of a left term x is its
complement ``top ^ x``, so each left term is paired with the right operand's
complement term, if it has one, and the top-form coefficient is summed in
left-term order: the pairs and sum of the pair order, without testing the
overlapping pairs.  Every other product, Clifford products included, takes
one of the two paths above.

Operator sugar: ``^`` is wedge, ``*`` is scalar scaling or (between two
clifford elements) the Clifford product.  Python gives ``^`` very low
precedence, parenthesize wedge expressions.
"""

import numpy as np

EXTERIOR = "exterior"
CLIFFORD = "clifford"

# Dropped after every product: coefficients below this fraction of the
# largest surviving one.  Linear maps never prune, phi_eps legitimately
# spans eps**dim in relative size and has to round-trip exactly.
PRUNE_RELATIVE = 1e-14

_MAX_DIM = 16

_INF = float("inf")

_FLAVOR_SEP = {EXTERIOR: "^", CLIFFORD: "*"}

# term pairs per step of the Clifford kernel (rows of a times all of b, at
# least one row): large enough to amortise the numpy calls, small enough
# that a step's temporaries stay near 1 MB
_PAIR_CHUNK = 16384

# term pairs per disjointness test of the wedge kernel (rows of a times all
# of b, at least one row), on 16-bit masks: a 512 KB and a 256 KB
# temporary, and up to 2 MB of kept-pair indices
_TEST_CHUNK = 1 << 18

# kept pairs per summing step of the wedge kernel: each gathered array of a
# step holds at most 64 KB (4096 complex coefficients).  At 16384 they reach
# 128-256 KB, which malloc serves with fresh pages on every step: about 480
# page faults per 495 x 495-term wedge at dim 12, against none at 4096
_KEPT_CHUNK = 4096

# products of at most this many term pairs skip the kernel: below it the
# kernel's fixed cost of numpy calls outweighs a Python loop over the pairs
_LOOP_PAIRS = 192

# the generators at odd bit positions: e2, e4, ..., e16
_ODD_BITS = 0xAAAA


def _below(y):
    # bit k set where an odd number of y's bits lie under bit k (prefix xor
    # shifted up one); exact for the 16 generators, on ints and int arrays
    for shift in (1, 2, 4, 8):
        y = y ^ (y << shift)
    return y << 1


def _parity_mask(y, clifford):
    # the pair (x, y) takes the sign (-1)**bitwise_count(x & _parity_mask(y)):
    # one swap per generator of x above an odd number of y's generators, and
    # for Clifford one -1 more per generator the two share (x & y), whose
    # parity folds into the same count by xor
    return _below(y) ^ y if clifford else _below(y)


def _pair_sums(ma, ca, mb, cb, size, clifford):
    # the masks the (a term, b term) pairs land on, in ascending order, and
    # the sum of the signed coefficient products on each; a function of its
    # own so that its 2**dim work arrays are freed before the caller builds
    # the result dict
    flips = _parity_mask(mb, clifford)
    acc, seen = np.zeros(size, dtype=complex), np.zeros(size, dtype=bool)

    def add(x, cx, y, flip, cy):
        # one step of pairs, in pair order, broadcast or gathered
        xr, xi, yr, yi = cx.real, cx.imag, cy.real, cy.imag
        sign = 1.0 - 2.0 * (np.bitwise_count(x & flip) & 1)
        re = ((xr * yr - xi * yi) * sign).ravel()
        im = ((xr * yi + xi * yr) * sign).ravel()
        out = (x ^ y).ravel()
        np.add.at(acc.real, out, re)
        np.add.at(acc.imag, out, im)
        seen[out] = True

    nb = len(mb)
    if clifford:
        # every pair is kept: rows of a times all of b, broadcast
        rows = max(1, _PAIR_CHUNK // nb)
        for lo in range(0, len(ma), rows):
            add(ma[lo:lo + rows, None], ca[lo:lo + rows, None], mb, flips, cb)
    else:
        # the disjoint pairs in row-major order: tested many rows a step on
        # 16-bit copies of the masks (all below 2**16), then gathered and
        # summed _KEPT_CHUNK kept pairs a step.  Row and column come from a
        # floor division and a subtraction; np.divmod takes several times
        # as long
        a16, b16 = ma.astype(np.uint16), mb.astype(np.uint16)
        rows = max(1, _TEST_CHUNK // nb)
        for lo in range(0, len(ma), rows):
            kept = np.flatnonzero((a16[lo:lo + rows, None] & b16) == 0)
            kept += lo * nb
            for k in range(0, len(kept), _KEPT_CHUNK):
                step = kept[k:k + _KEPT_CHUNK]
                i = step // nb
                j = step - i * nb
                add(ma[i], ca[i], mb[j], flips[j], cb[j])
    # numpy finds the nonzeros of a bool array several times faster than it
    # tests complex sums; a sum that cancels to zero is left to the prune
    hit = np.flatnonzero(seen)
    return hit, acc[hit]


def _pair_loop(a, b, clifford):
    # the sums of _pair_sums, formed one pair at a time: CPython's complex
    # multiply, negated on odd parity, added to 0j in pair order; keyed in
    # ascending mask order (most products of the curvature DSL are one pair,
    # so one key skips the sort)
    out = {}
    get = out.get
    rows = [(y, _parity_mask(y, clifford), cy) for y, cy in b.items()]
    for x, cx in a.items():
        for y, flip, cy in rows:
            if not clifford and x & y:
                continue
            c = cx * cy
            m = x ^ y
            out[m] = get(m, 0j) + (-c if (x & flip).bit_count() & 1 else c)
    return dict(sorted(out.items())) if len(out) > 1 else out


def _single_grade(terms):
    # the grade all masks of a nonempty term dict share, or None
    grades = set(map(int.bit_count, terms))
    return grades.pop() if len(grades) == 1 else None


def _not_finite():
    return OverflowError("a product coefficient is not finite")


def _top_wedge(a, b, dim):
    # the unpruned terms of a ^ b when both operands have a single grade,
    # else None; called once the grades of their first terms reach dim.  The
    # top-form sum is the pair loop's, in row order
    ga, gb = _single_grade(a), _single_grade(b)
    if ga is None or gb is None:
        return None
    if ga + gb > dim:
        return {}
    top = (1 << dim) - 1
    get = b.get
    # the pair (x, top ^ x) swaps each generator k of x past the complement's
    # generators under k, of which there are k less x's generators under k;
    # summed over x that is x's bit positions, of parity
    # popcount(x & _ODD_BITS), less ga (ga - 1) / 2
    flip = ga * (ga - 1) // 2
    acc = 0j
    for x, cx in a.items():
        cy = get(top ^ x)
        if cy is not None:
            c = cx * cy
            acc = acc + (-c if ((x & _ODD_BITS).bit_count() + flip) & 1 else c)
    return {top: acc}


def _product_terms(a, b, dim, clifford):
    """Term dict of the wedge (clifford False) or Clifford product of two term dicts.

    The one product of the package: ``wedge``, ``clifford_mul`` and the
    expression evaluator of ``formdsl`` all form their products here.  Up to
    ``_LOOP_PAIRS`` term pairs the pairs are summed in a dictionary loop;
    larger products go through the numpy kernel.  There coefficients
    multiply in real arithmetic as CPython's complex product does (numpy's
    complex multiply can differ in the last bit), and ``np.add.at`` adds
    them up one pair at a time, in pair order.  Pruning uses ``np.hypot``,
    CPython's ``abs`` of a complex.  Either way the result dict is built
    once, in ascending mask order, holding nonzero complex values.
    A wedge of single-grade operands whose grades reach the dimension takes
    neither pair path (``_top_wedge``, module docstring), and its term is
    finished as the loop's are.  A coefficient that is infinite or NaN
    raises ``OverflowError``: a relative prune against it would drop every
    term.
    """
    terms = None
    if (not clifford and a and b
            and next(iter(a)).bit_count() + next(iter(b)).bit_count() >= dim):
        terms = _top_wedge(a, b, dim)
    if terms is None and len(a) * len(b) > _LOOP_PAIRS:
        # an overflow shows as a non-finite coefficient, refused below, not
        # as numpy's warnings
        with np.errstate(over="ignore", invalid="ignore"):
            hit, coeffs = _pair_sums(np.fromiter(a, np.intp, len(a)),
                                     np.fromiter(a.values(), complex, len(a)),
                                     np.fromiter(b, np.intp, len(b)),
                                     np.fromiter(b.values(), complex, len(b)),
                                     1 << dim, clifford)
            magnitude = np.hypot(coeffs.real, coeffs.imag)
        if hit.size:
            top = magnitude.max()
            if not top < _INF:
                raise _not_finite()
            keep = magnitude > PRUNE_RELATIVE * top
            hit, coeffs = hit[keep], coeffs[keep]
        return dict(zip(hit.tolist(), coeffs.tolist()))
    if terms is None:
        terms = _pair_loop(a, b, clifford)
    if terms:
        sizes = list(map(abs, terms.values()))
        top, total = max(sizes), sum(sizes)
        # a NaN after the first term hides from max, never from sum
        if not top < _INF or total != total:
            raise _not_finite()
        cut = PRUNE_RELATIVE * top
        if min(sizes) <= cut:
            terms = {m: c for (m, c), size in zip(terms.items(), sizes) if size > cut}
    return terms


def _product(a, b, clifford):
    """``_product_terms`` of two same-flavor elements, as an element."""
    return MultiVector._trusted(
        a.context, _product_terms(a.terms, b.terms, a.context.dim, clifford), a.flavor)


def _accumulate(out, terms, subtract=False):
    """Add (or subtract) a term dict into ``out`` in place.

    A key already in ``out`` keeps its place, a new key is appended in the
    order of ``terms``, and a key whose sum is exactly zero is dropped, so a
    later term of the same key is appended again.  The sum is
    ``out.get(m, 0) + c`` (or ``- c``) for every key, as ``+`` and ``-``
    of two elements form it.
    """
    get = out.get
    for m, c in terms.items():
        s = get(m, 0) - c if subtract else get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _scale(terms, factor):
    """Term dict of ``terms`` times a scalar: each coefficient is
    ``c * factor``, with ``factor`` as given (a complex times a float is not
    always bit-equal to a complex times complex(float)), and a product that
    is exactly zero is dropped.
    """
    return {m: p for m, c in terms.items() if (p := c * factor)}


class AlgebraContext:
    """Dimension bookkeeping shared by all elements of one algebra.

    ``dim`` must be even (dim = 2n) and at most 16: dense iteration over the
    2**dim basis masks has to stay cheap.
    """

    __slots__ = ("dim", "half")

    def __init__(self, dim):
        if not isinstance(dim, int) or dim < 2 or dim % 2 or dim > _MAX_DIM:
            raise ValueError(
                f"dim must be an even integer between 2 and {_MAX_DIM}, got {dim!r}")
        self.dim = dim
        self.half = dim // 2

    def __eq__(self, other):
        return isinstance(other, AlgebraContext) and other.dim == self.dim

    def __hash__(self):
        return hash((AlgebraContext, self.dim))

    def __repr__(self):
        return f"AlgebraContext(dim={self.dim})"

    @property
    def top_mask(self):
        return (1 << self.dim) - 1

    def scalar(self, value, flavor=EXTERIOR):
        return MultiVector(self, {0: value}, flavor)

    def generator(self, mu, flavor=EXTERIOR):
        """Basis generator e_mu (or its clifford twin), mu in 1..dim."""
        return self.blade((mu,), flavor)

    def blade_mask(self, indices):
        """Mask of strictly increasing generator indices, each in 1..dim."""
        mask = 0
        prev = 0
        for mu in indices:
            if not 1 <= mu <= self.dim:
                raise ValueError(f"generator index {mu} outside 1..{self.dim}")
            if mu <= prev:
                raise ValueError("blade indices must be strictly increasing")
            mask |= 1 << (mu - 1)
            prev = mu
        return mask

    def blade(self, indices, flavor=EXTERIOR):
        """Basis blade from strictly increasing generator indices."""
        return MultiVector(self, {self.blade_mask(indices): 1.0}, flavor)

    def blade_from_mask(self, mask, flavor=EXTERIOR):
        # MultiVector refuses a mask outside the algebra
        return MultiVector(self, {mask: 1.0}, flavor)


class MultiVector:
    """Sparse multivector.  Treat as immutable; build new ones via operations."""

    __slots__ = ("context", "flavor", "terms")

    def __init__(self, context, terms, flavor):
        if flavor not in (EXTERIOR, CLIFFORD):
            raise ValueError(f"unknown flavor {flavor!r}")
        if not isinstance(context, AlgebraContext):
            raise TypeError("context must be an AlgebraContext")
        top = context.top_mask
        clean = {}
        for mask, coeff in terms.items():
            if not 0 <= mask <= top:
                raise ValueError(f"mask {mask:#x} outside the {context.dim}-generator algebra")
            c = complex(coeff)
            if c != 0:
                clean[mask] = c
        self.context = context
        self.flavor = flavor
        self.terms = clean

    @classmethod
    def _trusted(cls, context, terms, flavor):
        # terms already holds nonzero complex values on valid masks
        out = cls.__new__(cls)
        out.context, out.flavor, out.terms = context, flavor, terms
        return out

    # -- inspection ----------------------------------------------------

    def grades(self):
        return sorted({m.bit_count() for m in self.terms})

    def coefficient(self, *indices):
        """Coefficient of the blade with the given strictly increasing indices."""
        return self.terms.get(self.context.blade_mask(indices), 0j)

    def max_norm(self):
        """Largest coefficient magnitude (0.0 for the zero element)."""
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def is_zero(self):
        return not self.terms

    # -- linear structure (never pruned) -------------------------------

    # the results below are built with _trusted: the masks are the
    # operands' and every value is a complex, so only exact zeros go

    def __add__(self, other):
        _common_context(self, other)
        return MultiVector._trusted(self.context, _accumulate(dict(self.terms), other.terms),
                                    self.flavor)

    def __sub__(self, other):
        _common_context(self, other)
        return MultiVector._trusted(self.context,
                                    _accumulate(dict(self.terms), other.terms, subtract=True),
                                    self.flavor)

    def __neg__(self):
        return MultiVector._trusted(self.context, {m: -c for m, c in self.terms.items()},
                                    self.flavor)

    def _scaled(self, factor):
        terms = _scale(self.terms, factor)
        if type(factor) not in (int, float, complex):
            # a subclass (numpy's complex128) may return its own type
            return MultiVector(self.context, terms, self.flavor)
        return MultiVector._trusted(self.context, terms, self.flavor)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self._scaled(other)
        if isinstance(other, MultiVector):
            return clifford_mul(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self._scaled(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex)):
            return self._scaled(1 / other)
        return NotImplemented

    def __xor__(self, other):
        if isinstance(other, MultiVector):
            return wedge(self, other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, MultiVector):
            return NotImplemented
        return (self.context == other.context and self.flavor == other.flavor
                and self.terms == other.terms)

    def __repr__(self):
        if not self.terms:
            return f"MultiVector<{self.flavor}>(0)"
        sep = _FLAVOR_SEP[self.flavor]
        parts = []
        for mask in sorted(self.terms, key=lambda m: (m.bit_count(), m)):
            blade = sep.join(f"e{mu + 1}" for mu in range(self.context.dim)
                             if mask >> mu & 1)
            c = self.terms[mask]
            parts.append(f"({c})" if not blade else f"({c})*{blade}")
        return f"MultiVector<{self.flavor}>({' + '.join(parts)})"


def _common_context(a, b):
    if not isinstance(a, MultiVector) or not isinstance(b, MultiVector):
        raise TypeError("expected MultiVector operands")
    if a.context != b.context:
        raise ValueError("mixed algebra contexts")
    if a.flavor != b.flavor:
        raise ValueError(f"mixed flavors ({a.flavor} vs {b.flavor})")
    return a.context


def wedge(a, b):
    """Graded antisymmetric product of exterior elements.  Overlapping blades annihilate."""
    _common_context(a, b)
    if a.flavor != EXTERIOR:
        raise TypeError("wedge needs exterior-flavored operands, map through phi_eps_inv")
    return _product(a, b, clifford=False)


def clifford_mul(a, b):
    """Clifford product for the negative-definite generator metric.

    Coinciding generators contract with a factor -1 each, the surviving ones
    combine by xor of the masks with the usual reordering sign.  Both
    operands must carry the clifford flavor; exterior elements go through
    ``phi_eps`` first.
    """
    _common_context(a, b)
    if a.flavor != CLIFFORD:
        raise TypeError("clifford_mul needs clifford-flavored operands, map through phi_eps")
    return _product(a, b, clifford=True)


def grade_project(a, r):
    """Keep the grade-r part."""
    return MultiVector(a.context, {m: c for m, c in a.terms.items() if m.bit_count() == r},
                       a.flavor)


def phi_eps(a, eps):
    """Grade-scaling map into the clifford flavor: grade r picks up eps**r.

    A vector-space isomorphism for any eps != 0, but not an algebra map:
    phi_eps_inv(phi_eps(x) * phi_eps(y)) differs from x ^ y at O(eps^2),
    which is how the contraction terms of the Clifford product are dialed in
    and out.
    """
    if a.flavor != EXTERIOR:
        raise TypeError("phi_eps maps exterior elements to clifford ones")
    if eps == 0:
        raise ValueError("eps must be nonzero")
    return MultiVector(a.context,
                       {m: c * eps ** m.bit_count() for m, c in a.terms.items()},
                       CLIFFORD)


def phi_eps_inv(a, eps):
    """Inverse of ``phi_eps``: grade r picks up eps**(-r), back to exterior."""
    if a.flavor != CLIFFORD:
        raise TypeError("phi_eps_inv maps clifford elements to exterior ones")
    if eps == 0:
        raise ValueError("eps must be nonzero")
    return MultiVector(a.context,
                       {m: c * eps ** (-m.bit_count()) for m, c in a.terms.items()},
                       EXTERIOR)


def clifford_trace(a):
    """Trace in the spinor representation: 2**n times the scalar part.

    Every nonscalar basis blade is traceless, so only the empty mask
    contributes.
    """
    if a.flavor != CLIFFORD:
        raise TypeError("clifford_trace needs a clifford element")
    return 2 ** a.context.half * a.terms.get(0, 0j)


def chirality(ctx):
    """The grading involution i**n g_1 g_2 ... g_2n; squares to +1."""
    return MultiVector(ctx, {ctx.top_mask: 1j ** ctx.half}, CLIFFORD)


def supertrace(a):
    """Chirality-weighted trace, tr(chirality * a)."""
    return clifford_trace(clifford_mul(chirality(a.context), a))
