"""Radial profiles and exact convergence verdicts for boundary series.

A :class:`RadialProfile` describes an infinite, radially layered graph
by four per-radius sequences: the layer boundary weight ``dB(r)``
(total edge weight between sphere ``r`` and sphere ``r+1``), the sphere
measure ``m(S_r)``, the sphere killing ``c(S_r)`` and the sphere vertex
count ``|S_r|``.  Each sequence consists of an explicit finite prefix
plus a tail model valid beyond the prefix: either the closed form

    a(r) = C * (r+1)^p * rho^r        (power base r+1, so r=0 is regular)

or a ``custom`` marker carrying only a declared convergence flag for
``sum_r a(r)``.

Global properties of the graph are decided by the convergence of seven
canonical series (:class:`SeriesKind`).  For closed-form tails the
verdicts are exact: all terms are positive, a finite prefix never
affects convergence, and the term sequences stay inside the closed-form
grammar under the operations used here (products, reciprocals, squares,
cumulative sums and complement sums).  The single lossy step is that a
cumulative sum of a ``p = -1`` power tail grows like ``log r``, which
the grammar records as ``p = 0``; dropped logarithm factors never flip
the convergence of any series built here, because they multiply terms
whose power-law part already decides the verdict strictly, and at the
boundary exponent both the plain and the log-corrected series diverge.

The numbers reported next to a verdict are diagnostics and never
influence it.  Tail sums (:func:`tail_sum_exact`) run in floats for
geometric tails: terms are added in log space until a certified bound on
the remainder falls below the rounding unit of the running sum; only a
ratio too close to 1 for that within a fixed term budget falls back to
30-digit mpmath, as do pure power tails (Hurwitz zeta).  Complement
masses are summed directly, never as a difference of totals.  Partial
sums come from one cumulative sum over a term matrix, one row per
series, built from each sequence read once; each row stops, with a note
in the reason, at the first depth where it leaves the float range.

Verdict semantics in this module are series-level: ``Holds`` always
means "the series converges".  Property-level readings (transience,
Feller property, ...) live in :mod:`formuniq.criteria`.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, TextIO, Union

import mpmath as mp
import numpy as np

from .errors import GraphFormatError, PreconditionError, StructuralError
from .graph import WeightedGraph
from .symmetry import SphereDecomposition, is_weakly_spherically_symmetric

# ---------------------------------------------------------------------------
# tail models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerGeomTail:
    """Closed-form sequence ``a(r) = coeff * (r+1)^power * ratio^r`` with
    finitely many per-index overrides.

    ``coeff = 0`` denotes the identically-zero tail (used for killing
    sequences); otherwise ``coeff > 0`` and ``ratio > 0``.  Without
    overrides the sequence is its own tail model; with them,
    :meth:`tail_class` is the model valid from :attr:`tail_start` on.
    """

    coeff: float = 1.0
    power: float = 0.0
    ratio: float = 1.0
    overrides: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        for attr in ("coeff", "power", "ratio"):
            # + 0.0 turns -0.0 into 0.0, so no description prints "-0"
            object.__setattr__(self, attr, float(getattr(self, attr)) + 0.0)
        if self.coeff < 0:
            raise ValueError("sequence coefficient must be nonnegative")
        # nan is refused: growth orders (see _order) are compared as tuples
        if not self.ratio > 0:
            raise ValueError("sequence ratio must be positive")
        if math.isnan(self.power):
            raise ValueError("sequence power must not be nan")
        for r, _ in self.overrides:
            if r < 0:
                raise ValueError(f"override index must be nonnegative, got {r}")

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0 and all(v == 0 for _, v in self.overrides)

    @property
    def tail_start(self) -> int:
        return 1 + max((r for r, _ in self.overrides), default=-1)

    def tail_class(self) -> PowerGeomTail:
        """Tail model valid beyond every override."""
        if not self.overrides:
            return self
        return PowerGeomTail(self.coeff, self.power, self.ratio)

    def values(self, radii: np.ndarray) -> np.ndarray:
        """``a(r)`` at every radius in ``radii``: inf past the float range
        and 0 below it, without warnings."""
        if self.coeff == 0:
            out = np.zeros(len(radii))
        else:
            with np.errstate(all="ignore"):
                out = self.coeff * (radii + 1.0) ** self.power * self.ratio**radii
                # a factor left the float range: the product may still fit
                off = ~np.isfinite(out) | (out == 0)
                if off.any():
                    r = radii[off]
                    out[off] = np.exp(
                        math.log(self.coeff)
                        + self.power * np.log1p(r)
                        + r * math.log(self.ratio)
                    )
        for k, v in self.overrides:
            out[radii == k] = v
        return out

    def describe(self) -> str:
        return f"{self.coeff:.6g}*(r+1)^{self.power:.6g}*{self.ratio:.6g}^r"


@dataclass(frozen=True)
class CustomTail:
    """Opaque tail: values are unknown beyond the prefix.

    ``convergent`` declares whether ``sum_r a(r)`` converges:
    True / False / None (unknown).
    """

    convergent: bool | None = None

    def describe(self) -> str:
        return f"custom convergent={_FLAG_WORDS[self.convergent]}"


_FLAG_WORDS = {True: "yes", False: "no", None: "unknown"}


TailModel = Union[PowerGeomTail, CustomTail]

ZERO_TAIL = PowerGeomTail(0.0)
ONES_TAIL = PowerGeomTail(1.0)

_SEQ_FORMS = "'C[,p[,rho]]', 'geom:RATIO', 'power:P', 'linear', 'square' or 'unit'"


def parse_seq(text: str) -> PowerGeomTail:
    """Parse a closed-form sequence: ``C[,p[,rho]]`` (p = 0 and rho = 1
    by default), ``geom:RATIO`` (ratio^r), ``power:P`` ((r+1)^P),
    ``linear`` (r+1), ``square`` ((r+1)^2) or ``unit`` (1)."""
    t = text.strip()
    if t.startswith("geom:"):
        fields = ["1", "0", t[len("geom:"):]]
    elif t.startswith("power:"):
        fields = ["1", t[len("power:"):]]
    else:
        fields = {"unit": "1", "linear": "1,1", "square": "1,2"}.get(t, t).split(",")
    if not 1 <= len(fields) <= 3:
        raise ValueError(f"expected {_SEQ_FORMS}, got {text!r}")
    try:
        nums = [float(f) for f in fields]
    except ValueError:
        raise ValueError(f"bad sequence descriptor {text!r}: expected {_SEQ_FORMS}") from None
    try:
        _check_finite(zip(("C", "p", "rho"), nums))
    except ValueError as exc:
        raise ValueError(f"bad sequence descriptor {text!r}: {exc}") from None
    return PowerGeomTail(*nums)


def _check_finite(fields) -> None:
    """Refuse nan and +-inf among the ``(name, value)`` pairs of a closed
    form.  Parsers call this, not :class:`PowerGeomTail`: the tail algebra
    legitimately carries coefficients that left the float range."""
    for name, value in fields:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


# ---------------------------------------------------------------------------
# tail-class algebra
#
# A "class" is a PowerGeomTail describing the asymptotic shape of a
# positive sequence, or None when unknown.  Coefficients are carried as
# rough asymptotic estimates; every decision reads only the growth order
# (:func:`_order`).
# ---------------------------------------------------------------------------


def _order(t: TailModel | None) -> tuple[float, float] | None:
    """Growth order ``(ratio, power)`` of a closed-form class, compared as
    a tuple: a class with the larger order eventually dominates.  The
    zero class ranks below every other class (ratios are positive); a
    custom or unknown tail has no order."""
    if not isinstance(t, PowerGeomTail):
        return None
    return (0.0, 0.0) if t.is_zero else (t.ratio, t.power)


# sums converge below this order; sequences are bounded at or below the
# constant order and bounded away from 0 at or above it
_SUMMABLE = (1.0, -1.0)
_CONSTANT = (1.0, 0.0)
# the power laws (ratio 1) lie between these: orders below the first
# decay geometrically, orders above the second grow geometrically
_GEOMETRIC_DECAY = (1.0, -math.inf)
_GEOMETRIC_GROWTH = (1.0, math.inf)


def _class(coeff: float, power: float, ratio: float) -> PowerGeomTail | None:
    """A class built from nonzero classes.  Its coefficient is held above
    zero: ``coeff == 0`` is the zero class, the one reading of a coefficient
    that decides anything, so neither a product that underflows nor the
    reciprocal of an overflowed (inf) coefficient may land there.  A ratio
    that underflows to 0 is held at the least positive float, still below
    1, so every decision on its order is exact; a power of nan (inf - inf)
    has no order, and the class is unknown."""
    if math.isnan(power):
        return None
    return PowerGeomTail(max(coeff, sys.float_info.min), power, ratio or math.ulp(0.0))


def tail_converges(t: TailModel | None) -> bool | None:
    """Does ``sum_r a(r)`` converge?  None when undecidable."""
    if isinstance(t, CustomTail):
        return t.convergent
    order = _order(t)
    return None if order is None else order < _SUMMABLE


def tail_bounded(t: TailModel | None) -> bool | None:
    """Is ``C (r+1)^p rho^r`` bounded above as r -> inf?"""
    order = _order(t)
    return None if order is None else order <= _CONSTANT


def tail_bounded_below(t: TailModel | None) -> bool | None:
    """Is the positive sequence ``C (r+1)^p rho^r`` bounded away from 0?"""
    order = _order(t)
    return None if order is None else order >= _CONSTANT


def tail_max(a: PowerGeomTail | None, b: PowerGeomTail | None) -> PowerGeomTail | None:
    """Class of the pointwise max of two positive sequences."""
    ka, kb = _order(a), _order(b)
    if ka is None or kb is None:
        return None
    if ka == kb and not a.is_zero:  # two zero classes: b
        return PowerGeomTail(max(a.coeff, b.coeff), a.power, a.ratio)
    return a if ka > kb else b


def _closed(t: TailModel | None) -> PowerGeomTail | None:
    return t if isinstance(t, PowerGeomTail) else None


def tail_mul(a: PowerGeomTail | None, b: PowerGeomTail | None) -> PowerGeomTail | None:
    if a is None or b is None:
        return None
    if a.is_zero or b.is_zero:
        return ZERO_TAIL
    return _class(a.coeff * b.coeff, a.power + b.power, a.ratio * b.ratio)


def tail_reciprocal(a: PowerGeomTail | None) -> PowerGeomTail | None:
    if a is None:
        return None
    if a.is_zero:
        raise ValueError("cannot take the reciprocal of a zero tail")
    return _class(1.0 / a.coeff, -a.power, 1.0 / a.ratio)


def tail_square(a: PowerGeomTail | None) -> PowerGeomTail | None:
    return tail_mul(a, a)


def tail_sqrt(a: PowerGeomTail | None) -> PowerGeomTail | None:
    if a is None:
        return None
    if a.is_zero:
        return ZERO_TAIL
    return _class(math.sqrt(a.coeff), a.power / 2.0, math.sqrt(a.ratio))


def tail_shift(a: PowerGeomTail | None, k: int) -> PowerGeomTail | None:
    """Class of ``r -> a(r + k)`` (same power and ratio)."""
    if a is None or a.is_zero:
        return a
    return _class(a.coeff * a.ratio**k, a.power, a.ratio)


def tail_add(a: PowerGeomTail | None, b: PowerGeomTail | None) -> PowerGeomTail | None:
    """Class of a sum of two positive sequences: the dominant one."""
    ka, kb = _order(a), _order(b)
    if ka is None or kb is None:
        return None
    if ka == kb and not a.is_zero:  # two zero classes: b
        return _class(a.coeff + b.coeff, a.power, a.ratio)
    return a if ka > kb else b


def tail_cumsum_class(
    a: PowerGeomTail | None, total: float | None = None
) -> PowerGeomTail | None:
    """Class of partial sums ``A(r) = sum_{k<=r} a(k)`` for a positive
    sequence whose class is ``a``.

    When the sum converges the partial sums approach a positive
    constant (our sequences always have a positive prefix); ``total``
    may supply its value.  Logarithmic growth at ``power == -1`` is
    recorded as a constant class (see module docstring).
    """
    order = _order(a)
    if order is None:
        return None
    if order < _SUMMABLE:
        return PowerGeomTail(total if total and math.isfinite(total) else 1.0)
    if order > _GEOMETRIC_GROWTH:
        return _class(a.coeff * a.ratio / (a.ratio - 1.0), a.power, a.ratio)
    if order > _SUMMABLE:
        return _class(a.coeff / (a.power + 1.0), a.power + 1.0, 1.0)
    return PowerGeomTail(a.coeff, 0.0, 1.0)


def tail_complement_class(a: PowerGeomTail | None) -> PowerGeomTail | None:
    """Class of the complement sums ``A^c(r) = sum_{k>r} a(k)``.

    Only meaningful when the sum converges; raises otherwise.
    """
    order = _order(a)
    if order is None:
        return None
    if a.is_zero:
        return ZERO_TAIL
    if not order < _SUMMABLE:
        raise ValueError("complement sums of a divergent sequence are infinite")
    if order < _GEOMETRIC_DECAY:
        return _class(a.coeff * a.ratio / (1.0 - a.ratio), a.power, a.ratio)
    return _class(a.coeff / (-a.power - 1.0), a.power + 1.0, 1.0)


def tail_sum_exact(a: PowerGeomTail, r_from: int = 0) -> float:
    """``sum_{r >= r_from} a(r)`` to double precision (inf when divergent).

    Geometric tails (``ratio < 1``) are summed in floats, term by term
    in log space so that no term overflows, and stop at the first ``N``
    whose remainder bound ``t(N) q / (1 - q)`` is below ``2^-53`` of the
    running sum, where ``q = ratio * max(1, ((N+2)/(N+1))^power)``
    bounds every later term ratio ``t(r+1)/t(r)``.  When no such ``N``
    exists within a fixed term budget (``ratio`` extremely close to 1,
    decided before any term is summed) they fall back to the Lerch
    transcendent in 30-digit mpmath.  Power tails (``ratio == 1``) use
    the Hurwitz zeta function.
    """
    if a.is_zero:
        return 0.0
    if not tail_converges(a):
        return math.inf
    K = int(r_from)
    if a.ratio < 1:
        val = _geometric_tail_sum(a.coeff, a.power, a.ratio, K)
        if val is not None:
            return val
    with mp.workdps(30):
        if a.ratio < 1:
            # sum_{r>=K} C (r+1)^p rho^r = (C/rho) rho^(K+1) Phi(rho, -p, K+1)
            val = (
                mp.mpf(a.coeff)
                / a.ratio
                * mp.power(a.ratio, K + 1)
                * mp.lerchphi(a.ratio, -a.power, K + 1)
            )
        else:
            val = mp.mpf(a.coeff) * mp.zeta(-a.power, K + 1)
        return float(val)


_FLOAT_TERM_BUDGET = 1 << 19
_FLOAT_CHUNK = 1 << 14
_REMAINDER_TOL = 2.0**-53


def _geometric_tail_sum(coeff: float, power: float, ratio: float, K: int) -> float | None:
    """Float sum of a geometric tail; None when the remainder bound
    cannot be certified within the term budget."""
    log_ratio = math.log(ratio)

    def log_term(r: float) -> float:  # log(t(r) / t(K))
        return power * (math.log1p(r) - math.log1p(K)) + (r - K) * log_ratio

    # the largest term sits at radius top; terms are scaled by it so none
    # overflows
    top = max(float(K), -power / log_ratio - 1.0)
    peak = log_term(top)
    # decide before summing: the sum is at least its largest term, so a
    # remainder bound at the last budgeted term below half the tolerance
    # times that term guarantees the loop below stops within the budget
    last = K + _FLOAT_TERM_BUDGET - 1
    log_q = log_ratio + max(0.0, power * math.log1p(1.0 / (last + 1.0)))
    if log_q >= 0:
        return None
    largest = max(log_term(math.floor(top)), log_term(math.ceil(top)))
    log_bound = log_term(last) + log_q - math.log(-math.expm1(log_q))
    if log_bound > largest + math.log(_REMAINDER_TOL / 2):
        return None
    # first chunk: up to the peak, then enough terms to decay by e^-40
    n = min(64 + int(40.0 / -log_ratio) + int(top - K), _FLOAT_CHUNK)
    start, total = K, 0.0
    while start < K + _FLOAT_TERM_BUDGET:
        r = np.arange(start, start + n, dtype=float)
        w = np.exp(power * (np.log1p(r) - math.log1p(K)) + (r - K) * log_ratio - peak)
        with np.errstate(over="ignore", divide="ignore"):
            q = ratio * np.maximum(1.0, ((r + 2.0) / (r + 1.0)) ** power)
            remainder = np.where(q < 1, w * q / (1.0 - q), math.inf)
            done = np.flatnonzero(remainder <= _REMAINDER_TOL * (total + np.cumsum(w)))
            if done.size:
                total += float(w[: done[0] + 1].sum())
                log_first = math.log(coeff) + power * math.log1p(K) + K * log_ratio
                return float(np.exp(log_first + peak + math.log(total)))  # inf past the range
        total += float(w.sum())
        start, n = start + n, _FLOAT_CHUNK
    return None


# ---------------------------------------------------------------------------
# radial profiles
# ---------------------------------------------------------------------------


def _parse_prefix(values: Sequence[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or len(arr) == 0:
        raise ValueError("prefix must be a nonempty 1-d sequence")
    return arr


@dataclass(frozen=True)
class RadialProfile:
    """Per-radius description of an infinite radially layered graph.

    All four prefixes share one length ``r0 >= 1``; tail models take
    over at ``r >= r0``.  Invariants: ``dB(r) > 0``, ``m(S_r) > 0``,
    ``c(S_r) >= 0`` and integral ``|S_r| >= 1`` wherever values are
    defined.
    """

    boundary_prefix: np.ndarray
    measure_prefix: np.ndarray
    killing_prefix: np.ndarray
    count_prefix: np.ndarray
    boundary_tail: TailModel
    measure_tail: TailModel
    killing_tail: TailModel = ZERO_TAIL
    count_tail: TailModel = ONES_TAIL
    name: str = ""

    def __post_init__(self) -> None:
        bp = _parse_prefix(self.boundary_prefix)
        mprefix = _parse_prefix(self.measure_prefix)
        cp = _parse_prefix(self.killing_prefix)
        np_ = _parse_prefix(self.count_prefix)
        lens = {len(bp), len(mprefix), len(cp), len(np_)}
        if len(lens) != 1:
            raise ValueError(f"prefix arrays must share one length, got {sorted(lens)}")
        if not np.all(bp > 0):
            raise ValueError("boundary prefix must be strictly positive")
        if not np.all(mprefix > 0):
            raise ValueError("measure prefix must be strictly positive")
        if not np.all(cp >= 0):
            raise ValueError("killing prefix must be nonnegative")
        if not np.all(np_ >= 1) or not np.array_equal(np_, np.round(np_)):
            raise ValueError("count prefix must consist of integers >= 1")
        for tail, label in (
            (self.boundary_tail, "boundary"),
            (self.measure_tail, "measure"),
            (self.count_tail, "count"),
        ):
            if isinstance(tail, PowerGeomTail) and tail.is_zero:
                raise ValueError(f"{label} tail cannot be identically zero")
        for arr, attr in (
            (bp, "boundary_prefix"),
            (mprefix, "measure_prefix"),
            (cp, "killing_prefix"),
            (np_, "count_prefix"),
        ):
            arr.flags.writeable = False
            object.__setattr__(self, attr, arr)

    # -- value accessors -----------------------------------------------------

    @property
    def prefix_len(self) -> int:
        return len(self.boundary_prefix)

    def _sequence(self, label: str) -> tuple[np.ndarray, TailModel]:
        """Prefix and tail of 'boundary', 'measure', 'killing' or 'count'."""
        return getattr(self, f"{label}_prefix"), getattr(self, f"{label}_tail")

    def values(self, label: str, n: int) -> np.ndarray:
        """The first ``n`` values of a sequence ('boundary', 'measure',
        'killing', 'count'), prefix then tail, as one array."""
        prefix, tail = self._sequence(label)
        if n <= len(prefix):
            return prefix[:n]
        if isinstance(tail, CustomTail):
            raise StructuralError(
                f"{label} sequence has a custom tail: no values beyond radius {len(prefix) - 1}"
            )
        return np.concatenate([prefix, tail.values(np.arange(len(prefix), n))])

    def value_depth(self, *sequences: str) -> float:
        """Largest radius count with defined values for the named
        sequences ('boundary', 'measure', 'killing', 'count'); inf when
        all involved tails are closed form."""
        depth = math.inf
        for s in sequences:
            if isinstance(self._sequence(s)[1], CustomTail):
                depth = min(depth, self.prefix_len)
        return depth

    # -- certifiable structure -----------------------------------------------

    @property
    def is_birth_death(self) -> bool:
        """Certifiably one vertex per sphere."""
        if not np.all(self.count_prefix == 1):
            return False
        t = self.count_tail
        return (
            isinstance(t, PowerGeomTail)
            and t.coeff == 1
            and t.power == 0
            and t.ratio == 1
        )

    @property
    def killing_is_zero(self) -> bool:
        """Certifiably zero killing everywhere."""
        if np.any(self.killing_prefix != 0):
            return False
        t = self.killing_tail
        return isinstance(t, PowerGeomTail) and t.is_zero

    # -- aggregate quantities --------------------------------------------------

    def _beyond(self, label: str, r: int) -> float | None:
        """``sum_{k>r}`` of a sequence, summed directly rather than as a
        difference of totals; None when a custom tail hides it."""
        prefix, tail = self._sequence(label)
        if isinstance(tail, CustomTail):
            return None
        k = max(r + 1, 0)
        return float(prefix[k:].sum()) + tail_sum_exact(tail, max(k, len(prefix)))

    def total_measure(self) -> float | None:
        return self._beyond("measure", -1)

    def total_killing(self) -> float | None:
        return self._beyond("killing", -1)

    def measure_beyond(self, r: int) -> float | None:
        """``m`` of all spheres at radius > r (None when not computable)."""
        return self._beyond("measure", r)

    def mass_beyond(self, r: int) -> float | None:
        """``(c+m)`` of all spheres at radius > r."""
        mb, cb = self._beyond("measure", r), self._beyond("killing", r)
        if mb is None or cb is None:
            return None
        return mb + cb


# ---------------------------------------------------------------------------
# series kinds and verdicts
# ---------------------------------------------------------------------------


class SeriesKind(Enum):
    RESISTANCE = "resistance"
    TOTAL_MASS = "total_mass"
    STOCHASTIC_MASS = "stochastic_mass"
    FELLER_TAIL = "feller_tail"
    ENERGY_WEIGHT = "energy_weight"
    BOUNDED_HARMONIC = "bounded_harmonic"
    HAMBURGER = "hamburger"


_SERIES_LABEL = {
    SeriesKind.RESISTANCE: "sum of 1/dB(r)",
    SeriesKind.TOTAL_MASS: "sum of (c+m)(S_r)",
    SeriesKind.STOCHASTIC_MASS: "sum of m(B_r)/dB(r)",
    SeriesKind.FELLER_TAIL: "sum of m(X \\ B_r)/dB(r)",
    SeriesKind.ENERGY_WEIGHT: "sum of m(B_r)^2/dB(r)",
    SeriesKind.BOUNDED_HARMONIC: "sum of (c+m)(B_r)/dB(r)",
    SeriesKind.HAMBURGER: "sum of (sum_{k<=r} 1/b(k,k+1))^2 m(r+1)",
}


class VerdictState(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"

    @property
    def truth(self) -> bool | None:
        """True / False / None for HOLDS / FAILS / INCONCLUSIVE."""
        return None if self is VerdictState.INCONCLUSIVE else self is VerdictState.HOLDS


@dataclass(frozen=True)
class Verdict:
    """Outcome of a decidable yes/no question with diagnostics.

    ``state == HOLDS`` asserts exactly what ``label`` says.  Partial
    sums (monotone nondecreasing, positive terms) are recorded at the
    sampled depths for auditability; they never influence the state.
    """

    state: VerdictState
    label: str
    reason: str
    kind: str = ""
    sample_depths: tuple[int, ...] = ()
    partial_sums: tuple[float, ...] = ()

    @property
    def holds(self) -> bool:
        return self.state is VerdictState.HOLDS

    @property
    def fails(self) -> bool:
        return self.state is VerdictState.FAILS

    @property
    def inconclusive(self) -> bool:
        return self.state is VerdictState.INCONCLUSIVE

    @property
    def decided(self) -> bool:
        return self.state is not VerdictState.INCONCLUSIVE

    def __str__(self) -> str:
        return f"{self.state.value}: {self.label} ({self.reason})"


def _state(conv: bool | None) -> VerdictState:
    if conv is None:
        return VerdictState.INCONCLUSIVE
    return VerdictState.HOLDS if conv else VerdictState.FAILS


def state_and(a: VerdictState, b: VerdictState) -> VerdictState:
    """Kleene conjunction: FAILS dominates, then INCONCLUSIVE."""
    if VerdictState.FAILS in (a, b):
        return VerdictState.FAILS
    if VerdictState.INCONCLUSIVE in (a, b):
        return VerdictState.INCONCLUSIVE
    return VerdictState.HOLDS


def state_not(a: VerdictState) -> VerdictState:
    """Kleene negation: swaps HOLDS and FAILS, keeps INCONCLUSIVE."""
    if a is VerdictState.HOLDS:
        return VerdictState.FAILS
    if a is VerdictState.FAILS:
        return VerdictState.HOLDS
    return VerdictState.INCONCLUSIVE


PARTIAL_SUM_FLOOR_DEPTH = 256
PARTIAL_SUM_MARGIN = 64


def _sample_depths(n: int) -> list[int]:
    depths = []
    d = 1
    while d < n:
        depths.append(d)
        d *= 2
    depths.append(n)
    return depths


# the sequences each series reads (boundary and measure when not listed)
_SERIES_READS = {
    SeriesKind.RESISTANCE: ("boundary",),
    SeriesKind.TOTAL_MASS: ("measure", "killing"),
    SeriesKind.BOUNDED_HARMONIC: ("boundary", "measure", "killing"),
}


def _term_matrix(
    p: RadialProfile, kinds: Sequence[SeriesKind], depth: int, beyond
) -> tuple[np.ndarray, list[int], list[str]]:
    """The first ``depth`` terms of each kind as the rows of one
    ``(len(kinds), depth)`` matrix, plus each row's length and note.

    A row is clipped to the values its sequences have (custom tails stop
    at the prefix; the chain growth term ``r`` reads ``m(r+1)``) and is
    zero past its length.  Each sequence is read once, as long as the
    longest row needs it; ``beyond(label, r)`` supplies complement sums.
    Terms are raw floats: inf or nan where a value leaves the float
    range.  An infinite or unknown total measure makes every complement
    mass infinite, so the complement-mass series is then taken in the
    interchanged order, with finite terms, and its note says so.
    """
    lengths, need = [], {}
    for kind in kinds:
        reads = _SERIES_READS.get(kind, ("boundary", "measure"))
        avail = p.value_depth(*reads)
        if kind is SeriesKind.HAMBURGER:  # its term r reads m(r+1)
            avail = min(avail, p.value_depth("measure") - 1)
        n = max(int(min(depth, avail)), 0)
        lengths.append(n)
        for label in reads if n else ():
            extra = kind is SeriesKind.HAMBURGER and label == "measure"
            need[label] = max(need.get(label, 0), n + extra)
    b, m, c = (
        p.values(label, need[label]) if label in need else None
        for label in ("boundary", "measure", "killing")
    )
    terms = np.zeros((len(kinds), max(depth, 0)))
    notes = []
    with np.errstate(all="ignore"):
        inv_b = None if b is None else 1.0 / b
        cum_m = None if m is None else np.cumsum(m)
        for row, kind, n in zip(terms, kinds, lengths):
            note = ""
            if kind is SeriesKind.FELLER_TAIL:
                total = beyond("measure", -1)
                if total is None or not math.isfinite(total):
                    note = "terms via sum_r (sum_{k<r} 1/dB(k)) m(S_r)"
            notes.append(note)
            if n == 0:
                continue
            if kind is SeriesKind.RESISTANCE:
                row[:n] = inv_b[:n]
            elif kind is SeriesKind.TOTAL_MASS:
                row[:n] = m[:n] + c[:n]
            elif kind is SeriesKind.STOCHASTIC_MASS:
                row[:n] = cum_m[:n] / b[:n]
            elif kind is SeriesKind.ENERGY_WEIGHT:
                row[:n] = cum_m[:n] ** 2 / b[:n]
            elif kind is SeriesKind.BOUNDED_HARMONIC:
                row[:n] = np.cumsum(m[:n] + c[:n]) / b[:n]
            elif kind is SeriesKind.HAMBURGER:
                row[:n] = np.cumsum(inv_b[:n]) ** 2 * m[1 : n + 1]
            elif note:
                row[:n] = np.cumsum(np.append(0.0, inv_b[: n - 1])) * m[:n]
            else:
                # complement masses m(X \ B_r), summed from the far end
                rest = np.append(beyond("measure", n - 1), m[n - 1 : 0 : -1])
                row[:n] = np.cumsum(rest)[::-1] / b[:n]
    return terms, lengths, notes


def series_terms(p: RadialProfile, kind: SeriesKind, depth: int) -> np.ndarray:
    """First ``depth`` terms of the series (clipped to available values):
    the row :func:`series_verdict` and :func:`verdict_bundle` sum, at
    ``depth`` instead of their own.

    Terms are raw floats: inf or nan where a value leaves the float range.
    """
    terms, (n,), _ = _term_matrix(p, (kind,), depth, p._beyond)
    return terms[0, :n]


def _evaluate(p: RadialProfile, kinds: Sequence[SeriesKind]) -> dict[SeriesKind, Verdict]:
    """Verdicts for ``kinds``, in that order, from one pass over the profile.

    Every sequence is read once and every complement sum computed once
    (:func:`_term_matrix`); one cumulative sum over the term matrix gives
    all partial sums, cut per row before the first one that leaves the
    float range; the tail classes are derived once and each kind only
    combines them.
    """
    beyond = functools.cache(p._beyond)
    depth = max(p.prefix_len + PARTIAL_SUM_MARGIN, PARTIAL_SUM_FLOOR_DEPTH)
    terms, lengths, notes = _term_matrix(p, kinds, depth, beyond)

    with np.errstate(all="ignore"):
        sums = np.cumsum(terms, axis=1)
    finite = np.isfinite(sums)
    leading = np.where(finite.all(axis=1), depth, finite.argmin(axis=1)).tolist()
    finite_lens = [min(k, n) for k, n in zip(leading, lengths)]
    full_depths = _sample_depths(depth)
    full_sums = sums[:, np.array(full_depths) - 1].tolist()

    bt, mt, ct = (_closed(t) for t in (p.boundary_tail, p.measure_tail, p.killing_tail))
    b_flag = tail_converges(p.boundary_tail)  # sum dB(r) converges?
    m_conv = tail_converges(p.measure_tail)
    c_conv = tail_converges(p.killing_tail)
    mass_conv = state_and(_state(m_conv), _state(c_conv)).truth  # sum (c+m) converges?
    inv_bt = tail_reciprocal(bt)
    # sum 1/dB converges?  A summable dB forces dB -> 0, so 1/dB diverges
    res_conv = tail_converges(inv_bt) if bt is not None else (False if b_flag is True else None)

    def closed(cls: PowerGeomTail) -> tuple[bool | None, str]:
        conv = tail_converges(cls)
        return conv, f"term class {cls.describe()} -> {'converges' if conv else 'diverges'}"

    def decide(kind: SeriesKind) -> tuple[bool | None, str]:
        """Convergence decision plus a one-line reason."""
        if kind is SeriesKind.RESISTANCE:
            if bt is not None:
                return closed(inv_bt)
            if b_flag is True:
                return False, "declared sum dB < inf forces dB -> 0, 1/dB diverges"
            return None, "custom boundary tail without a deciding flag"

        if kind is SeriesKind.TOTAL_MASS:
            parts = [
                f"{lbl}: {t.describe() if t else f'custom({fl})'}"
                for lbl, t, fl in (("m", mt, m_conv), ("c", ct, c_conv))
            ]
            return mass_conv, "; ".join(parts)

        if kind is SeriesKind.STOCHASTIC_MASS or kind is SeriesKind.BOUNDED_HARMONIC:
            with_killing = kind is SeriesKind.BOUNDED_HARMONIC
            seq, seq_conv = (tail_add(mt, ct), mass_conv) if with_killing else (mt, m_conv)
            if seq is not None and bt is not None:
                total = beyond("measure", -1)
                if with_killing:
                    total += beyond("killing", -1)
                return closed(tail_mul(tail_cumsum_class(seq, total), inv_bt))
            if res_conv is False:
                return False, "cumulative mass >= its first term while sum 1/dB diverges"
            if seq_conv is True and res_conv is not None:
                return res_conv, (
                    "finite total mass pins cumulative sums between positive "
                    "constants; verdict follows sum 1/dB"
                )
            return None, "undecidable with the available tail information"

        if kind is SeriesKind.FELLER_TAIL:
            if m_conv is False:
                return False, "infinite total measure makes every complement infinite"
            if m_conv is None:
                return None, "custom measure tail without a deciding flag"
            # total measure finite
            if mt is not None and bt is not None:
                return closed(tail_mul(tail_complement_class(mt), inv_bt))
            if b_flag is True:
                return False, "declared sum dB < inf forces 1/dB -> inf against positive complements"
            if res_conv is True:
                return True, (
                    "bounded cumulative resistance and finite total measure "
                    "(interchange bound)"
                )
            return None, "undecidable with the available tail information"

        if kind is SeriesKind.ENERGY_WEIGHT:
            if mt is not None and bt is not None:
                cum = tail_cumsum_class(mt, beyond("measure", -1))
                return closed(tail_mul(tail_square(cum), inv_bt))
            if res_conv is False:
                return False, "squared cumulative measure >= a positive constant while sum 1/dB diverges"
            if m_conv is True and res_conv is not None:
                return res_conv, (
                    "finite total measure pins squared cumulative sums; verdict "
                    "follows sum 1/dB"
                )
            return None, "undecidable with the available tail information"

        if kind is SeriesKind.HAMBURGER:
            if m_conv is False:
                return False, "inner sums >= 1/b(0,1) > 0 against infinite total measure"
            if bt is not None and mt is not None:
                return closed(
                    tail_mul(tail_square(tail_cumsum_class(inv_bt)), tail_shift(mt, 1))
                )
            if m_conv is True and res_conv is True:
                return True, "bounded inner sums against finite total measure"
            return None, "undecidable with the available tail information"

        raise ValueError(f"unknown series kind {kind}")  # pragma: no cover

    out = {}
    for i, kind in enumerate(kinds):
        conv, reason = decide(kind)
        n, note = finite_lens[i], notes[i]
        if n < lengths[i]:
            overflow = f"partial sums stop at r={n}: float overflow"
            note = f"{note}; {overflow}" if note else overflow
        if note:
            reason = f"{reason}; {note}"
        if n == depth:
            depths, partial = full_depths, full_sums[i]
        else:
            depths = _sample_depths(n) if n else []
            partial = sums[i, np.array(depths, dtype=int) - 1].tolist()
        label = f"{_SERIES_LABEL[kind]} converges"
        out[kind] = Verdict(_state(conv), label, reason, kind.value, tuple(depths), tuple(partial))
    return out


def series_verdict(p: RadialProfile, kind: SeriesKind) -> Verdict:
    """Exact convergence verdict for one of the canonical series.

    ``Holds`` means the series converges.  Only this kind's terms are
    built; the verdict equals the bundle's for the same kind.  Raises
    :class:`PreconditionError` for :data:`SeriesKind.HAMBURGER` on a
    profile that is not certifiably a chain with zero killing.
    """
    if kind is SeriesKind.HAMBURGER:
        if not p.is_birth_death:
            raise PreconditionError("the chain growth criterion requires one vertex per sphere")
        if not p.killing_is_zero:
            raise PreconditionError("the chain growth criterion requires zero killing")
    return _evaluate(p, (kind,))[kind]


def verdict_bundle(p: RadialProfile) -> dict[SeriesKind, Verdict]:
    """Verdicts for every applicable series kind from one pass: each
    sequence read once, each complement sum and tail class derived once,
    one cumulative sum for all partial sums.  Kind by kind equal to
    :func:`series_verdict`; the chain growth series is included only for
    chains with zero killing."""
    chain = p.is_birth_death and p.killing_is_zero
    return _evaluate(p, [k for k in SeriesKind if chain or k is not SeriesKind.HAMBURGER])


def bundle_consistency(
    bundle: dict[SeriesKind, Verdict], killing_summable: bool | None = True
) -> list[str]:
    """Cross-check the provable implications between decided verdicts.

    Returns human-readable descriptions of violations (empty when
    consistent): convergence of the cumulative-mass series forces
    convergence of the resistance series; convergence of the energy
    series forces the resistance series and, when the killing sum is
    finite (``killing_summable``, the default), the bounded-harmonic
    series; and finite total mass together with convergent resistance
    forces the energy series.
    """
    v = bundle
    out = []

    def decided(*kinds: SeriesKind) -> bool:
        return all(k in v and v[k].decided for k in kinds)

    if decided(SeriesKind.STOCHASTIC_MASS, SeriesKind.RESISTANCE):
        if v[SeriesKind.STOCHASTIC_MASS].holds and not v[SeriesKind.RESISTANCE].holds:
            out.append("stochastic_mass converges but resistance diverges")
    if decided(SeriesKind.ENERGY_WEIGHT, SeriesKind.RESISTANCE):
        if v[SeriesKind.ENERGY_WEIGHT].holds and not v[SeriesKind.RESISTANCE].holds:
            out.append("energy_weight converges but resistance diverges")
    if killing_summable and decided(SeriesKind.ENERGY_WEIGHT, SeriesKind.BOUNDED_HARMONIC):
        if v[SeriesKind.ENERGY_WEIGHT].holds and not v[SeriesKind.BOUNDED_HARMONIC].holds:
            out.append("energy_weight converges but bounded_harmonic diverges")
    if decided(SeriesKind.TOTAL_MASS, SeriesKind.RESISTANCE, SeriesKind.ENERGY_WEIGHT):
        if (
            v[SeriesKind.TOTAL_MASS].holds
            and v[SeriesKind.RESISTANCE].holds
            and not v[SeriesKind.ENERGY_WEIGHT].holds
        ):
            out.append("total_mass and resistance converge but energy_weight diverges")
    return out


# ---------------------------------------------------------------------------
# profiles from graphs, quotient chains
# ---------------------------------------------------------------------------


def profile_from_graph(
    g: WeightedGraph,
    dec: SphereDecomposition,
    depth: int,
    name: str = "",
) -> RadialProfile:
    """Radial profile read off a finite graph through radius ``depth``.

    The prefix covers radii ``0 .. depth-1``; all four tails are custom
    with unknown convergence (a finite truncation says nothing about
    the sequel).  Requires weak spherical symmetry through ``depth``
    and ``depth <= dec.radius`` so every recorded boundary weight is
    positive.
    """
    depth = int(depth)
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if depth > dec.radius:
        raise StructuralError(
            f"graph has radius {dec.radius}; cannot read a depth-{depth} profile"
        )
    report = is_weakly_spherically_symmetric(g, dec, max_radius=depth)
    if not report.symmetric:
        raise StructuralError(f"not weakly spherically symmetric: {report.witness}")
    counts = [len(dec.spheres[r]) for r in range(depth)]
    return RadialProfile(
        boundary_prefix=dec.boundary[:depth].copy(),
        measure_prefix=dec.sphere_measure[:depth].copy(),
        killing_prefix=dec.sphere_killing[:depth].copy(),
        count_prefix=np.array(counts, dtype=float),
        boundary_tail=CustomTail(None),
        measure_tail=CustomTail(None),
        killing_tail=CustomTail(None),
        count_tail=CustomTail(None),
        name=name,
    )


def quotient_graph(p: RadialProfile, depth: int) -> WeightedGraph:
    """Chain carrying the radial structure of the profile.

    Vertex ``r`` (0..depth) has measure ``m(S_r)`` and killing
    ``c(S_r)``; the edge ``r -- r+1`` has weight ``dB(r)``.  For a
    weakly spherically symmetric graph, sphere-constant functions have
    the same Laplacian, energy and norms on the quotient as on the
    original graph.
    """
    depth = int(depth)
    if depth < 1:
        raise ValueError("depth must be at least 1")
    r = np.arange(depth)
    return WeightedGraph._from_columns(
        depth + 1, r, r + 1, p.values("boundary", depth),
        p.values("measure", depth + 1), p.values("killing", depth + 1),
    )


# ---------------------------------------------------------------------------
# profile text format
#
#   [prefix]
#   boundary = 1.0 2.0
#   sphere_m = 1.0 0.5
#   sphere_c = 0.0 0.0
#   sphere_count = 1 1
#   [tail]
#   boundary = C=1 p=0 rho=2
#   sphere_m = custom convergent=yes
#   ...
#
# '#' starts a comment.  Tail values follow a(r) = C*(r+1)^p*rho^r.
# ---------------------------------------------------------------------------

_SEQ_KEYS = ("boundary", "sphere_m", "sphere_c", "sphere_count")


def _parse_tail(text: str) -> TailModel:
    parts = text.split()
    if not parts:
        raise ValueError("empty tail entry")
    if parts[0] == "custom":
        flag: bool | None = None
        for p_ in parts[1:]:
            if not p_.startswith("convergent="):
                raise ValueError(f"unknown custom tail field {p_!r}")
            word = p_.split("=", 1)[1]
            flag = {w: f for f, w in _FLAG_WORDS.items()}.get(word, "bad")
            if flag == "bad":
                raise ValueError(f"convergent must be yes|no|unknown, got {word!r}")
        return CustomTail(flag)
    vals: dict[str, float] = {}
    for p_ in parts:
        if "=" not in p_:
            raise ValueError(f"expected key=value, got {p_!r}")
        k, v = p_.split("=", 1)
        if k not in ("C", "p", "rho"):
            raise ValueError(f"unknown tail field {k!r}")
        vals[k] = float(v)
    if "C" not in vals:
        raise ValueError("tail needs at least C=")
    _check_finite(vals.items())
    return PowerGeomTail(vals["C"], vals.get("p", 0.0), vals.get("rho", 1.0))


def _format_tail(t: TailModel) -> str:
    if isinstance(t, CustomTail):
        return t.describe()
    return f"C={t.coeff!r} p={t.power!r} rho={t.ratio!r}"


def parse_profile_text(text: str, name: str = "") -> RadialProfile:
    section = None
    prefixes: dict[str, np.ndarray] = {}
    tails: dict[str, TailModel] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("["):
                if line not in ("[prefix]", "[tail]"):
                    raise ValueError(f"unknown section {line}")
                section = line[1:-1]
                continue
            if section is None:
                raise ValueError("data before a [prefix] or [tail] section")
            if "=" not in line:
                raise ValueError("expected key = value")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in _SEQ_KEYS:
                raise ValueError(f"unknown sequence {key!r}")
            if section == "prefix":
                if key in prefixes:
                    raise ValueError(f"duplicate prefix for {key}")
                arr = np.array(value.split(), dtype=float)
                # here, not in RadialProfile: a closed-form prefix may overflow
                if not np.isfinite(arr).all():
                    bad = float(arr[~np.isfinite(arr)][0])
                    raise ValueError(f"{key} prefix must be finite, got {bad!r}")
                prefixes[key] = arr
            else:
                if key in tails:
                    raise ValueError(f"duplicate tail for {key}")
                tails[key] = _parse_tail(value)
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: {exc}") from None

    missing = [k for k in _SEQ_KEYS if k not in prefixes]
    if missing:
        raise GraphFormatError(f"missing [prefix] entries: {', '.join(missing)}")
    missing = [k for k in _SEQ_KEYS if k not in tails]
    if missing:
        raise GraphFormatError(f"missing [tail] entries: {', '.join(missing)}")
    try:
        return RadialProfile(
            boundary_prefix=prefixes["boundary"],
            measure_prefix=prefixes["sphere_m"],
            killing_prefix=prefixes["sphere_c"],
            count_prefix=prefixes["sphere_count"],
            boundary_tail=tails["boundary"],
            measure_tail=tails["sphere_m"],
            killing_tail=tails["sphere_c"],
            count_tail=tails["sphere_count"],
            name=name,
        )
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def format_profile_text(p: RadialProfile) -> str:
    lines = []
    if p.name:
        lines.append(f"# {p.name}")
    lines.append("[prefix]")
    for key, arr in (
        ("boundary", p.boundary_prefix),
        ("sphere_m", p.measure_prefix),
        ("sphere_c", p.killing_prefix),
        ("sphere_count", p.count_prefix),
    ):
        lines.append(f"{key} = " + " ".join(repr(float(v)) for v in arr))
    lines.append("[tail]")
    for key, tail in (
        ("boundary", p.boundary_tail),
        ("sphere_m", p.measure_tail),
        ("sphere_c", p.killing_tail),
        ("sphere_count", p.count_tail),
    ):
        lines.append(f"{key} = {_format_tail(tail)}")
    return "\n".join(lines) + "\n"


def load_profile(source: str | TextIO, name: str = "") -> RadialProfile:
    if hasattr(source, "read"):
        return parse_profile_text(source.read(), name=name)
    with open(source, "r", encoding="utf-8") as fh:
        return parse_profile_text(fh.read(), name=name or str(source))


def save_profile(p: RadialProfile, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_profile_text(p))
