"""Per-radius reference reads of closed-form sequences and profiles.

The library evaluates ``C * (r+1)^p * rho^r`` only as arrays
(:meth:`formuniq.series.PowerGeomTail.values`).  Tests compare it, and
what is built from it, against this one-radius-at-a-time evaluation in
Python floats: a profile's prefix value where it has one, else the
closed form with its overrides.
"""

import math

from formuniq.errors import StructuralError
from formuniq.series import CustomTail


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
