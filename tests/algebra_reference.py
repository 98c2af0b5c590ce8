"""Dictionary pair-loop reference route for the two algebra products.

The package forms ``wedge`` and ``clifford_mul`` in a dictionary loop or,
on many term pairs, in a numpy kernel over steps of pairs.  This route
loops over the pairs in Python, one reordering sign per pair from a bit
loop, and accumulates into a dict in pair order; both package paths are
tested to equal it bit for bit, key order included: each keys its result in
ascending mask order.
"""

from diracindex.algebra import CLIFFORD, PRUNE_RELATIVE, MultiVector, _common_context


def _reorder_sign(a, b):
    # Parity of the transpositions that merge sorted blade `a` in front of
    # sorted blade `b`: each generator of b hops over every generator of a
    # with a larger index.
    a >>= 1
    swaps = 0
    while a:
        swaps += (a & b).bit_count()
        a >>= 1
    return -1 if swaps & 1 else 1


def _prune(terms):
    # the terms above the relative cut, in ascending mask order
    if not terms:
        return terms
    cut = PRUNE_RELATIVE * max(abs(c) for c in terms.values())
    return {m: c for m, c in sorted(terms.items()) if abs(c) > cut}


def wedge(a, b):
    """Graded antisymmetric product.  Overlapping blades annihilate."""
    ctx = _common_context(a, b)
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            if ma & mb:
                continue
            m = ma | mb
            out[m] = out.get(m, 0) + ca * cb * _reorder_sign(ma, mb)
    return MultiVector(ctx, _prune(out), a.flavor)


def clifford_mul(a, b):
    """Clifford product for the negative-definite generator metric.

    Coinciding generators contract with a factor -1 each, the surviving ones
    combine by xor of the masks with the usual reordering sign.  Both
    operands must carry the clifford flavor; exterior elements go through
    ``phi_eps`` first.
    """
    ctx = _common_context(a, b)
    if a.flavor != CLIFFORD:
        raise TypeError("clifford_mul needs clifford-flavored operands, map through phi_eps")
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            sign = _reorder_sign(ma, mb)
            if (ma & mb).bit_count() & 1:
                sign = -sign
            m = ma ^ mb
            out[m] = out.get(m, 0) + ca * cb * sign
    return MultiVector(ctx, _prune(out), a.flavor)
