import math
from functools import lru_cache

import numpy as np
import pytest

from box_reference import _matrix_element_fast, _matrix_element_reference
from diracindex.charclasses import a_closed_form, qho_generating_function


@lru_cache(maxsize=None)
def box_value(y, cutoff):
    # Cartesian-box reference route; cached because cutoff 60 is a dense
    # eigensolve of size 900 and two tests need the same grid
    return _matrix_element_fast(y, cutoff, False)


def test_fast_path_equals_literal_construction():
    # the real-parity reduction of the Cartesian-box route against the
    # complex tensor-product construction it was derived from
    for y in (0.5, 1.0, 2.0):
        for swap in (False, True):
            ref = _matrix_element_reference(y, 24, swap_modes=swap)
            fast = _matrix_element_fast(y, 24, swap)
            assert abs(ref - fast) < 1e-13


def test_mode_swap_invariance():
    # relabelling the two modes flips the sign of L; the box m1, m2 < cutoff
    # is symmetric under the exchange, so the value must not move
    for y in (0.5, 1.0, 2.0):
        a = _matrix_element_fast(y, 30, False)
        b = _matrix_element_fast(y, 30, True)
        assert abs(a - b) < 1e-10


def test_value_pin():
    # frozen regression value of the Cartesian box, cutoff 24, y = 1
    assert abs(_matrix_element_fast(1.0, 24, False) - 0.9623011005172135) < 1e-9


def test_convergence_toward_closed_form():
    # box truncation error shrinks with cutoff (small non-monotonic wiggle
    # allowed)
    for y in (0.5, 1.0, 2.0):
        errs = [abs(box_value(y, c) - a_closed_form(y)) for c in (20, 40, 60)]
        assert errs[1] < errs[0] * 1.1
        assert errs[2] < errs[1] * 1.1
        assert errs[2] < errs[0]


def test_circular_route_at_least_as_close_as_box():
    # both truncations approach the same closed form; the rotation-adapted
    # one never trails the Cartesian box on the verified grid
    for y in (0.5, 1.0, 2.0):
        closed = a_closed_form(y)
        for c in (20, 40, 60):
            circular = abs(qho_generating_function(y, c) - closed)
            assert circular <= abs(box_value(y, c) - closed)


def test_validation():
    with pytest.raises(ValueError):
        qho_generating_function(0.0, 30)
    with pytest.raises(ValueError):
        qho_generating_function(-1.0, 30)
    with pytest.raises(ValueError):
        qho_generating_function(1.0, 19)
    with pytest.raises(ValueError):
        qho_generating_function(1.0, 30.5)
    # infinity died in eigh with a LinAlgError, and an int past the float
    # range overflowed
    for y in (math.inf, -math.inf, math.nan, 10**400):
        with pytest.raises(ValueError, match="y must be finite"):
            qho_generating_function(y, 20)
