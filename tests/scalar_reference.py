"""Per-radius reference reads of closed-form sequences and profiles.

The library evaluates ``C * (r+1)^p * rho^r`` only as arrays
(:meth:`formuniq.series.PowerGeomTail.values`).  Tests compare it, and
what is built from it, against this one-radius-at-a-time evaluation in
Python floats: a profile's prefix value where it has one, else the
closed form with its overrides.

The tail-class predicates and class functions below are the library's
own from before every decision read one growth order
(:func:`formuniq.series._order`), kept verbatim, each comparison written
out on its own, as the reference the order-based ones are tested against.
"""

import math
import sys

from formuniq.errors import StructuralError
from formuniq.series import ZERO_TAIL, CustomTail, PowerGeomTail


def seq_at(t, r):
    """``a(r)`` of a closed-form sequence; inf where the float pow overflows."""
    for k, v in t.overrides:
        if k == r:
            return float(v)
    if t.coeff == 0:
        return 0.0
    try:
        return t.coeff * (r + 1.0) ** t.power * t.ratio**r
    except OverflowError:
        return math.inf


def profile_at(p, label, r):
    """Radius ``r`` of a profile sequence: 'boundary', 'measure',
    'killing' or 'count'."""
    assert r >= 0
    prefix, tail = getattr(p, f"{label}_prefix"), getattr(p, f"{label}_tail")
    if r < len(prefix):
        return float(prefix[r])
    if isinstance(tail, CustomTail):
        raise StructuralError(f"{label} sequence has a custom tail")
    return seq_at(tail, r)


# ---------------------------------------------------------------------------
# tail-class predicates and class functions, one comparison at a time
# ---------------------------------------------------------------------------


def _class(coeff, power, ratio):
    return PowerGeomTail(max(coeff, sys.float_info.min), power, ratio)


def tail_converges(t):
    if t is None:
        return None
    if isinstance(t, CustomTail):
        return t.convergent
    if t.is_zero:
        return True
    if t.ratio < 1:
        return True
    if t.ratio > 1:
        return False
    return t.power < -1


def tail_bounded(t):
    if not isinstance(t, PowerGeomTail):
        return None
    if t.is_zero:
        return True
    if t.ratio != 1:
        return t.ratio < 1
    return t.power <= 0


def tail_bounded_below(t):
    if not isinstance(t, PowerGeomTail):
        return None
    if t.is_zero:
        return False
    if t.ratio != 1:
        return t.ratio > 1
    return t.power >= 0


def tail_max(a, b):
    if a is None or b is None:
        return None
    if a.is_zero or b.is_zero:
        return b if a.is_zero else a
    ka, kb = (a.ratio, a.power), (b.ratio, b.power)
    if ka == kb:
        return PowerGeomTail(max(a.coeff, b.coeff), a.power, a.ratio)
    return a if ka > kb else b


def tail_add(a, b):
    if a is None or b is None:
        return None
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    if (a.ratio, a.power) == (b.ratio, b.power):
        return _class(a.coeff + b.coeff, a.power, a.ratio)
    if (a.ratio, a.power) > (b.ratio, b.power):
        return a
    return b


def tail_cumsum_class(a, total=None):
    if a is None:
        return None
    conv = tail_converges(a)
    if conv:
        return PowerGeomTail(total if total and math.isfinite(total) else 1.0)
    if a.ratio > 1:
        return _class(a.coeff * a.ratio / (a.ratio - 1.0), a.power, a.ratio)
    # ratio == 1, power >= -1
    if a.power > -1:
        return _class(a.coeff / (a.power + 1.0), a.power + 1.0, 1.0)
    return PowerGeomTail(a.coeff, 0.0, 1.0)


def tail_complement_class(a):
    if a is None:
        return None
    if a.is_zero:
        return ZERO_TAIL
    if not tail_converges(a):
        raise ValueError("complement sums of a divergent sequence are infinite")
    if a.ratio < 1:
        return _class(a.coeff * a.ratio / (1.0 - a.ratio), a.power, a.ratio)
    return _class(a.coeff / (-a.power - 1.0), a.power + 1.0, 1.0)
