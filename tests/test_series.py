"""Tail classes, radial profiles, and the canonical series verdicts.

Closed-form decisions are cross-checked against brute-force partial
sums: a convergent verdict must come with visibly flattening sums and a
divergent one with sums that keep climbing.
"""

import dataclasses
import io
import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import formuniq
from formuniq import series
from formuniq.errors import GraphFormatError, PreconditionError, StructuralError
from formuniq.families import (
    WSS_GALLERY,
    birth_death,
    gallery,
    geometric,
    power_seq,
)
from formuniq.series import (
    CustomTail,
    PowerGeomTail,
    RadialProfile,
    SeriesKind,
    Verdict,
    VerdictState,
    ZERO_TAIL,
    bundle_consistency,
    load_profile,
    parse_profile_text,
    parse_seq,
    format_profile_text,
    quotient_graph,
    series_terms,
    series_verdict,
    state_and,
    state_not,
    tail_add,
    tail_bounded,
    tail_bounded_below,
    tail_complement_class,
    tail_converges,
    tail_cumsum_class,
    tail_max,
    tail_mul,
    tail_reciprocal,
    tail_shift,
    tail_sqrt,
    tail_square,
    tail_sum_exact,
    verdict_bundle,
)
from formuniq.symmetry import sphere_decomposition
import scalar_reference
from scalar_reference import profile_at, seq_at


def chain_profile(b, m, c=None, count=None, **tails):
    """Tiny profile builder for tests: explicit prefixes, given tails."""
    n = len(b)
    return RadialProfile(
        boundary_prefix=np.asarray(b, dtype=float),
        measure_prefix=np.asarray(m, dtype=float),
        killing_prefix=np.zeros(n) if c is None else np.asarray(c, dtype=float),
        count_prefix=np.ones(n) if count is None else np.asarray(count, dtype=float),
        **tails,
    )


# -- tail classes -----------------------------------------------------------


def test_tail_values_follow_closed_form():
    t = PowerGeomTail(3.0, 2.0, 0.5)
    want = [3.0 * (r + 1) ** 2 * 0.5**r for r in (0, 1, 5)]
    assert t.values(np.array([0, 1, 5])).tolist() == pytest.approx(want)
    assert "0.5^r" in t.describe()


def test_tail_validation():
    with pytest.raises(ValueError):
        PowerGeomTail(-1.0)
    with pytest.raises(ValueError):
        PowerGeomTail(1.0, 0.0, 0.0)
    assert PowerGeomTail(0.0, 5.0, 2.0).is_zero


# -- the closed-form sequence type ------------------------------------------


def test_seqspec_is_the_tail_type():
    # perfbench/workloads.py builds its sequences as families.SeqSpec
    assert formuniq.families.SeqSpec is formuniq.PowerGeomTail
    assert "SeqSpec" not in formuniq.__all__
    assert all(hasattr(formuniq, name) for name in formuniq.__all__)


def test_value_is_inf_past_the_float_range():
    assert PowerGeomTail(1, 0, 2).values(np.array([2000])).tolist() == [math.inf]
    assert PowerGeomTail(0, 0, 2).values(np.array([2000])).tolist() == [0.0]


@pytest.mark.parametrize("power,ratio", [(200.0, 0.01), (-200.0, 100.0)])
def test_values_fit_where_one_factor_leaves_the_float_range(power, ratio):
    # at r = 170 one of (r+1)^p and rho^r overflows and the other
    # underflows, yet the product is about 1e106 or 1e-106
    t = PowerGeomTail(1.5, power, ratio, overrides=((170, 7.0),))
    r = np.array([60, 170, 171, 250, 2000])
    with mp.workdps(30):
        want = [float(1.5 * mp.mpf(k + 1) ** power * mp.mpf(ratio) ** k) for k in r.tolist()]
    want[1] = 7.0
    assert t.values(r) == pytest.approx(want, rel=1e-12, abs=0.0)
    assert want[-1] in (0.0, math.inf)
    assert 1e100 < want[2] or want[2] < 1e-100


def test_chain_whose_terms_fit_builds():
    fam = birth_death(PowerGeomTail(1, 200, 0.01), 1.0)
    b = fam.profile.boundary_prefix
    assert np.all(np.isfinite(b)) and 1e242 < b.max() < 1e243
    assert fam.build(319).graph.edge_w.tolist() == b[:319].tolist()


@pytest.mark.parametrize(
    "text,expected",
    [
        ("geom:1.5", PowerGeomTail(1.0, 0.0, 1.5)),
        ("power:-3", PowerGeomTail(1.0, -3.0, 1.0)),
        ("linear", PowerGeomTail(1.0, 1.0, 1.0)),
        ("square", PowerGeomTail(1.0, 2.0, 1.0)),
        ("unit", PowerGeomTail(1.0, 0.0, 1.0)),
        (" unit ", PowerGeomTail(1.0, 0.0, 1.0)),
    ],
)
def test_parse_seq_shorthands(text, expected):
    assert parse_seq(text) == expected


@pytest.mark.parametrize("text", ["two", "geom:x", "power:", "linear,2", "1,2,3,4"])
def test_parse_seq_errors_name_the_accepted_forms(text):
    with pytest.raises(ValueError, match="'geom:RATIO', 'power:P', 'linear', 'square' or 'unit'"):
        parse_seq(text)


@pytest.mark.parametrize(
    "text,field,value",
    [
        ("1,0,nan", "rho", "nan"),
        ("geom:inf", "rho", "inf"),
        ("power:-inf", "p", "-inf"),
        ("1,nan", "p", "nan"),
        ("inf", "C", "inf"),
        ("-inf,0,2", "C", "-inf"),
    ],
)
def test_parse_seq_refuses_non_finite_numbers(text, field, value):
    with pytest.raises(ValueError) as exc:
        parse_seq(text)
    assert str(exc.value) == (
        f"bad sequence descriptor {text!r}: {field} must be finite, got {value}"
    )


def test_tail_algebra_still_carries_overflowed_coefficients():
    # the finiteness check belongs to the parsers, not to the tail type
    big = tail_reciprocal(PowerGeomTail(1e-320, 0.0, 2.0))
    assert math.isinf(big.coeff)


def test_tail_algebra_never_makes_a_zero_class_from_nonzero_ones():
    tiny, huge = PowerGeomTail(1e-200, 0.0, 2.0), PowerGeomTail(1e200, 1.0, 0.5)
    built = [
        tail_mul(tiny, tiny),
        tail_square(tiny),
        tail_reciprocal(PowerGeomTail(math.inf, 0.0, 2.0)),
        tail_reciprocal(tail_square(huge)),
        tail_shift(PowerGeomTail(5e-324, 0.0, 0.5), 1),
        tail_sqrt(PowerGeomTail(5e-324)),
    ]
    for t in built:
        assert not t.is_zero and t.coeff > 0


SHAPE = st.tuples(
    st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 2.0, -2.0]), st.floats(-60.0, 60.0)),
    st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(-3.0, 3.0).map(lambda x: 10.0**x)),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(SHAPE, min_size=3, max_size=3),
    st.lists(st.integers(-300, 300), min_size=3, max_size=3),
    st.booleans(),
)
# a recurrent chain of infinite measure whose 4^r term class used to
# underflow to the zero class and read "converges"
@example([(0.0, 0.5), (0.0, 2.0), (0.0, 1.0)], [200, -200, 0], False)
def test_tail_coefficients_never_decide_a_verdict(shapes, exponents, killed):
    """Scaling the C of the boundary, measure and killing tails by 10^k
    leaves every bundle state as it is with C = 1."""

    def states(coeffs):
        b, m, c = (PowerGeomTail(C, p, rho) for C, (p, rho) in zip(coeffs, shapes))
        profile = chain_profile(
            [1.0], [1.0], boundary_tail=b, measure_tail=m, killing_tail=c if killed else ZERO_TAIL
        )
        return {kind: v.state for kind, v in verdict_bundle(profile).items()}

    assert states([10.0**k for k in exponents]) == states([1.0, 1.0, 1.0])


# -- growth orders against the predicates they replaced ----------------------

_TINY = 5e-324  # the least positive float, a denormal
# values at the thresholds 1, -1 and 0, one ulp either side, denormals,
# the ends of the float range and inf
ORDER_RATIOS = st.one_of(
    st.sampled_from(
        [1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), _TINY, 1e-310,
         sys.float_info.min, 1e-300, 0.5, 2.0, 1e300, math.inf]
    ),
    st.floats(min_value=_TINY, allow_nan=False),
)
ORDER_POWERS = st.one_of(
    st.sampled_from(
        [-1.0, math.nextafter(-1.0, -2.0), math.nextafter(-1.0, 0.0), 0.0, _TINY, -_TINY,
         1e-310, -2.0, 1.0, 1e300, -1e300, math.inf, -math.inf]
    ),
    st.floats(allow_nan=False),
)
ORDER_COEFFS = st.one_of(
    st.sampled_from([1.0, 3.0, _TINY, 1e-310, 1e300, math.inf, math.nan]),
    st.floats(min_value=_TINY, allow_nan=False),
)
# what the class functions take: closed classes, zero classes and None
CLASSES = st.one_of(
    st.builds(PowerGeomTail, ORDER_COEFFS, ORDER_POWERS, ORDER_RATIOS),
    st.builds(PowerGeomTail, st.just(0.0), ORDER_POWERS, ORDER_RATIOS),
    st.none(),
)
# what the predicates also take: custom tails
TAILS = st.one_of(CLASSES, st.sampled_from([CustomTail(True), CustomTail(False), CustomTail(None)]))


def _outcome(f, *args):
    """What ``f(*args)`` returns, field for field (repr keeps every float
    bit, nan included), or the exception it raises."""
    try:
        return repr(f(*args))
    except ValueError as exc:
        return f"raises ValueError: {exc}"


@settings(max_examples=400, deadline=None)
@given(TAILS, CLASSES, CLASSES, st.sampled_from([None, 0.0, 2.5, math.inf, math.nan]))
def test_growth_order_decides_as_the_separate_comparisons_did(t, a, b, total):
    ref = scalar_reference
    for name in ("tail_converges", "tail_bounded", "tail_bounded_below"):
        assert _outcome(getattr(series, name), t) == _outcome(getattr(ref, name), t), name
    for name in ("tail_max", "tail_add"):
        assert _outcome(getattr(series, name), a, b) == _outcome(getattr(ref, name), a, b), name
    assert _outcome(tail_cumsum_class, a, total) == _outcome(ref.tail_cumsum_class, a, total)
    assert _outcome(tail_complement_class, a) == _outcome(ref.tail_complement_class, a)


def test_tail_refuses_a_nan_ratio_or_power():
    # growth orders compare as tuples, which is a total order only without nan
    with pytest.raises(ValueError, match="ratio must be positive"):
        PowerGeomTail(1.0, -2.0, math.nan)
    with pytest.raises(ValueError, match="power must not be nan"):
        PowerGeomTail(1.0, math.nan, 0.5)
    # coefficients keep carrying what the algebra makes of inf: inf / inf
    cum = tail_cumsum_class(PowerGeomTail(math.inf, 0.0, math.inf))
    assert math.isnan(cum.coeff) and cum.ratio == math.inf


def test_a_product_of_infinite_powers_has_an_unknown_class():
    # +inf + -inf is a nan power, which has no order
    up, down = PowerGeomTail(1.0, 1e308, 2.0), PowerGeomTail(1.0, -1e308, 0.5)
    assert tail_mul(tail_square(up), tail_square(down)) is None
    assert tail_converges(tail_mul(tail_square(up), tail_square(down))) is None


def test_a_ratio_that_underflows_is_held_at_the_least_positive_float():
    tiny = PowerGeomTail(1.0, 0.0, 1e-200)
    assert tail_mul(tiny, tiny).ratio == _TINY
    assert tail_reciprocal(PowerGeomTail(1.0, 0.0, math.inf)).ratio == _TINY
    assert tail_converges(tail_mul(tiny, tiny)) is True


# -- tri-state logic ---------------------------------------------------------

H, F, I = VerdictState.HOLDS, VerdictState.FAILS, VerdictState.INCONCLUSIVE


@pytest.mark.parametrize(
    "a,b,expected",
    [
        (H, H, H), (H, F, F), (H, I, I),
        (F, H, F), (F, F, F), (F, I, F),
        (I, H, I), (I, F, F), (I, I, I),
    ],
)
def test_state_and_truth_table(a, b, expected):
    assert state_and(a, b) is expected


@pytest.mark.parametrize("a,expected", [(H, F), (F, H), (I, I)])
def test_state_not_truth_table(a, expected):
    assert state_not(a) is expected
    assert a.truth is {H: True, F: False, I: None}[a]


# -- boundedness and pointwise max of tail classes ---------------------------

TWO = PowerGeomTail(2.0)


@pytest.mark.parametrize(
    "coeff,ratio,power,bounded,bounded_below,max_with_two",
    [
        # the zero sequence, whatever its power and ratio
        (0.0, 0.5, -1.0, True, False, TWO),
        (0.0, 0.5, 0.0, True, False, TWO),
        (0.0, 0.5, 1.0, True, False, TWO),
        (0.0, 1.0, -1.0, True, False, TWO),
        (0.0, 1.0, 0.0, True, False, TWO),
        (0.0, 1.0, 1.0, True, False, TWO),
        (0.0, 2.0, -1.0, True, False, TWO),
        (0.0, 2.0, 0.0, True, False, TWO),
        (0.0, 2.0, 1.0, True, False, TWO),
        # ratio < 1 decays, ratio > 1 grows, whatever the power
        (3.0, 0.5, -1.0, True, False, TWO),
        (3.0, 0.5, 0.0, True, False, TWO),
        (3.0, 0.5, 1.0, True, False, TWO),
        (3.0, 2.0, -1.0, False, True, PowerGeomTail(3.0, -1.0, 2.0)),
        (3.0, 2.0, 0.0, False, True, PowerGeomTail(3.0, 0.0, 2.0)),
        (3.0, 2.0, 1.0, False, True, PowerGeomTail(3.0, 1.0, 2.0)),
        # ratio == 1: the power decides; at power 0 the larger coefficient
        (3.0, 1.0, -1.0, True, False, TWO),
        (3.0, 1.0, 0.0, True, True, PowerGeomTail(3.0)),
        (1.0, 1.0, 0.0, True, True, TWO),
        (3.0, 1.0, 1.0, False, True, PowerGeomTail(3.0, 1.0, 1.0)),
    ],
)
def test_tail_class_bounds_and_max(coeff, ratio, power, bounded, bounded_below, max_with_two):
    t = PowerGeomTail(coeff, power, ratio)
    assert tail_bounded(t) is bounded
    assert tail_bounded_below(t) is bounded_below
    assert tail_max(t, TWO) == max_with_two
    assert tail_max(TWO, t) == max_with_two


def test_tail_class_predicates_on_unknown_tails():
    for t in (None, CustomTail(True)):
        assert tail_bounded(t) is None
        assert tail_bounded_below(t) is None
    assert tail_max(None, TWO) is None
    assert tail_max(ZERO_TAIL, ZERO_TAIL) == ZERO_TAIL


@pytest.mark.parametrize(
    "tail,expected",
    [
        (PowerGeomTail(1.0, 0.0, 0.5), True),
        (PowerGeomTail(1.0, 5.0, 0.99), True),
        (PowerGeomTail(1.0, -8.0, 1.01), False),
        (PowerGeomTail(1.0, -2.0, 1.0), True),
        (PowerGeomTail(1.0, -1.0, 1.0), False),  # harmonic series
        (PowerGeomTail(1.0, 0.0, 1.0), False),
        (PowerGeomTail(0.0), True),
        (CustomTail(True), True),
        (CustomTail(False), False),
        (CustomTail(None), None),
        (None, None),
    ],
)
def test_tail_convergence_table(tail, expected):
    assert tail_converges(tail) is expected


def test_tail_algebra_pointwise():
    a = PowerGeomTail(2.0, 1.0, 0.5)
    b = PowerGeomTail(3.0, -2.0, 1.25)
    r = np.array([0, 2, 7])
    av, bv = a.values(r), b.values(r)
    assert tail_mul(a, b).values(r) == pytest.approx(av * bv)
    assert tail_reciprocal(a).values(r) == pytest.approx(1.0 / av)
    assert tail_square(b).values(r) == pytest.approx(bv**2)
    assert tail_sqrt(a).values(r) == pytest.approx(np.sqrt(av))
    assert tail_mul(a, None) is None
    with pytest.raises(ValueError):
        tail_reciprocal(PowerGeomTail(0.0))


def test_tail_shift_is_asymptotic():
    # shifting scales the coefficient by ratio^k and keeps power/ratio;
    # for power = 0 that is exact, otherwise exact in the limit
    geom = PowerGeomTail(2.0, 0.0, 0.5)
    assert tail_shift(geom, 3).values(np.array([4])) == pytest.approx(geom.values(np.array([7])))
    mixed = PowerGeomTail(1.0, 2.0, 1.5)
    s = tail_shift(mixed, 2)
    assert (s.power, s.ratio) == (mixed.power, mixed.ratio)
    assert s.coeff == pytest.approx(mixed.coeff * 1.5**2)
    assert s.values(np.array([1000]))[0] / mixed.values(np.array([1002]))[0] == pytest.approx(
        1.0, rel=1e-2
    )


def test_tail_add_keeps_dominant_class():
    geom = PowerGeomTail(1.0, 0.0, 2.0)
    poly = PowerGeomTail(5.0, 3.0, 1.0)
    s = tail_add(geom, poly)
    assert (s.ratio, s.power) == (2.0, 0.0)
    same = tail_add(PowerGeomTail(1.0, 1.0), PowerGeomTail(2.0, 1.0))
    assert same.coeff == 3.0 and same.power == 1.0
    assert tail_add(PowerGeomTail(0.0), poly) == poly


def test_cumsum_class_tracks_partial_sums():
    # divergent geometric: partial sums grow like the terms
    g = PowerGeomTail(1.0, 0.0, 2.0)
    cg = tail_cumsum_class(g)
    sums = np.cumsum([seq_at(g, r) for r in range(40)])
    assert cg.ratio == 2.0
    assert sums[-1] / cg.values(np.array([39]))[0] == pytest.approx(1.0, rel=1e-6)
    # divergent power: exponent goes up by one
    p = PowerGeomTail(1.0, 1.0, 1.0)
    cp = tail_cumsum_class(p)
    assert (cp.ratio, cp.power) == (1.0, 2.0)
    # convergent: constant class
    const = tail_cumsum_class(PowerGeomTail(1.0, 0.0, 0.5), total=2.0)
    assert const.values(np.array([10])).tolist() == [2.0]


def test_complement_class_matches_brute_force():
    t = PowerGeomTail(3.0, 0.0, 0.5)
    comp = tail_complement_class(t)
    brute = sum(seq_at(t, k) for k in range(11, 200))
    assert comp.values(np.array([10]))[0] == pytest.approx(brute, rel=1e-9)
    with pytest.raises(ValueError):
        tail_complement_class(PowerGeomTail(1.0, 2.0, 1.0))


def test_tail_sum_exact_geometric_and_power():
    g = PowerGeomTail(3.0, 0.0, 0.5)
    assert tail_sum_exact(g) == pytest.approx(6.0, rel=1e-12)
    assert tail_sum_exact(g, 3) == pytest.approx(3.0 * 0.5**3 * 2.0, rel=1e-12)
    p = PowerGeomTail(1.0, -2.0, 1.0)
    assert tail_sum_exact(p) == pytest.approx(math.pi**2 / 6, rel=1e-12)
    brute = sum(seq_at(p, r) for r in range(5, 4000)) + 1.0 / 4001  # integral tail bound
    assert tail_sum_exact(p, 5) == pytest.approx(brute, rel=1e-3)
    assert tail_sum_exact(PowerGeomTail(1.0, 1.0, 1.0)) == math.inf
    # a geometric tail with a polynomial factor exercises the general branch
    mix = PowerGeomTail(2.0, 1.5, 0.75)
    brute = sum(seq_at(mix, r) for r in range(2, 600))
    assert tail_sum_exact(mix, 2) == pytest.approx(brute, rel=1e-12)


def mp_tail_sum(coeff, power, ratio, r_from):
    """The closed form in 30-digit mpmath, as a float."""
    with mp.workdps(30):
        return float(
            mp.mpf(coeff) / ratio * mp.power(ratio, r_from + 1)
            * mp.lerchphi(ratio, -power, r_from + 1)
        )


@settings(max_examples=60, deadline=None)
@given(
    log_coeff=st.floats(-3.0, 3.0),
    # mpmath's lerchphi is itself wrong for 0 < |s| <= 1e-30 (16.0000004 for a
    # sum of 16 at s = 1e-40), so tiny nonzero powers are left out
    power=st.floats(-6.0, 6.0).filter(lambda x: x == 0 or abs(x) >= 1e-20),
    ratio=st.floats(0.05, 0.9999),
    r_from=st.integers(0, 400),
)
@example(log_coeff=0.0, power=-3.0, ratio=1 - 1e-9, r_from=48)
@example(log_coeff=2.0, power=6.0, ratio=0.9999, r_from=0)
@example(log_coeff=-3.0, power=-6.0, ratio=0.05, r_from=400)
def test_tail_sum_exact_matches_mpmath(log_coeff, power, ratio, r_from):
    coeff = 10.0**log_coeff
    got = tail_sum_exact(PowerGeomTail(coeff, power, ratio), r_from)
    want = mp_tail_sum(coeff, power, ratio, r_from)
    if want == 0.0:  # below the double range
        assert got == 0.0
    elif want < sys.float_info.min:  # subnormal: only absolute error is meaningful
        assert abs(got - want) <= 1e-12 * sys.float_info.min
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_tail_descriptions_print_no_negative_zero():
    # the reciprocal negates the power: 0.0 must stay 0.0, not -0.0
    assert "-0" not in tail_reciprocal(PowerGeomTail(1, 0, 2)).describe()
    assert tail_reciprocal(PowerGeomTail(1, 0, 2)).describe() == "1*(r+1)^0*0.5^r"
    assert "-0" not in PowerGeomTail(-0.0, -0.0, 1.0).describe()


def test_tail_sum_falls_back_to_mpmath_next_to_ratio_one():
    # the remainder bound cannot be certified within the float term budget
    assert series._geometric_tail_sum(1.0, -3.0, 1 - 1e-9, 48) is None
    assert series._geometric_tail_sum(1.0, -3.0, 0.5, 48) is not None


@pytest.mark.parametrize("power", [-3.0, 0.0, 2.0])
def test_tail_sum_next_to_the_term_budget(power):
    # rho = 1 - 1e-5 needs about 5e6 float terms: refused before summing
    ratio = 1 - 1e-5
    assert series._geometric_tail_sum(1.0, power, ratio, 48) is None
    got = tail_sum_exact(PowerGeomTail(1.0, power, ratio), 48)
    assert got == pytest.approx(mp_tail_sum(1.0, power, ratio, 48), rel=1e-12, abs=0.0)


# -- radial profiles ----------------------------------------------------------


def test_profile_accessors_cross_prefix_boundary():
    p = chain_profile(
        [1.0, 2.0],
        [1.0, 0.5],
        boundary_tail=PowerGeomTail(1.0, 0.0, 2.0),
        measure_tail=PowerGeomTail(1.0, 0.0, 0.5),
    )
    assert p.prefix_len == 2
    assert p.values("boundary", 6)[1] == 2.0  # prefix value
    assert p.values("boundary", 6)[5] == 32.0  # tail value
    assert p.values("measure", 6)[5] == 0.5**5
    assert p.values("killing", 6)[5] == 0.0
    assert p.values("count", 6)[5] == 1.0
    assert p.is_birth_death and p.killing_is_zero


def test_profile_validation():
    with pytest.raises(ValueError, match="share one length"):
        chain_profile(
            [1.0, 1.0],
            [1.0],
            boundary_tail=PowerGeomTail(1.0),
            measure_tail=PowerGeomTail(1.0),
        )
    with pytest.raises(ValueError, match="positive"):
        chain_profile(
            [0.0],
            [1.0],
            boundary_tail=PowerGeomTail(1.0),
            measure_tail=PowerGeomTail(1.0),
        )
    for count in ([1.5], [1.0, 1.000001]):
        with pytest.raises(ValueError, match="integers"):
            chain_profile(
                [1.0] * len(count),
                [1.0] * len(count),
                count=count,
                boundary_tail=PowerGeomTail(1.0),
                measure_tail=PowerGeomTail(1.0),
            )
    with pytest.raises(ValueError, match="zero"):
        chain_profile(
            [1.0],
            [1.0],
            boundary_tail=PowerGeomTail(0.0),
            measure_tail=PowerGeomTail(1.0),
        )


def test_custom_tail_stops_values():
    p = chain_profile(
        [1.0, 1.0, 1.0],
        [1.0, 1.0, 1.0],
        boundary_tail=CustomTail(None),
        measure_tail=PowerGeomTail(1.0),
    )
    assert p.values("boundary", 3)[2] == 1.0
    with pytest.raises(StructuralError, match="custom tail"):
        p.values("boundary", 4)
    assert p.value_depth("boundary") == 3
    assert p.value_depth("measure") == math.inf
    assert not p.is_birth_death or p.count_tail  # count still closed form


def test_measure_beyond_and_mass_beyond():
    p = chain_profile(
        [1.0, 1.0],
        [1.0, 0.5],
        c=[0.25, 0.25],
        boundary_tail=PowerGeomTail(1.0),
        measure_tail=PowerGeomTail(1.0, 0.0, 0.25),
        killing_tail=PowerGeomTail(0.25, 0.0, 0.5),
    )
    total_m = 1.0 + 0.5 + 0.25**2 / (1 - 0.25)
    assert p.total_measure() == pytest.approx(total_m, rel=1e-12)
    assert p.measure_beyond(1) == pytest.approx(total_m - 1.5, rel=1e-12)
    ck_beyond = 0.25 * 0.5**2 / (1 - 0.5)
    assert p.mass_beyond(1) == pytest.approx(total_m - 1.5 + ck_beyond, rel=1e-12)
    infinite = chain_profile(
        [1.0],
        [1.0],
        boundary_tail=PowerGeomTail(1.0),
        measure_tail=PowerGeomTail(1.0),
    )
    assert infinite.measure_beyond(3) == math.inf


@pytest.mark.parametrize("r", [20, 30, 64])
def test_complement_masses_do_not_cancel(r):
    n = 48
    p = chain_profile(
        np.ones(n),
        0.3 ** np.arange(n),
        c=0.5 * 0.2 ** np.arange(n),
        boundary_tail=PowerGeomTail(1.0),
        measure_tail=PowerGeomTail(1.0, 0.0, 0.3),
        killing_tail=PowerGeomTail(0.5, 0.0, 0.2),
    )
    m_beyond = 0.3 ** (r + 1) / 0.7
    assert p.measure_beyond(r) == pytest.approx(m_beyond, rel=1e-12, abs=0.0)
    c_beyond = 0.5 * 0.2 ** (r + 1) / 0.8
    assert p.mass_beyond(r) == pytest.approx(m_beyond + c_beyond, rel=1e-12, abs=0.0)


# -- series verdicts -----------------------------------------------------------


def brute_partial_sums(p, kind, depth=200):
    return np.cumsum(series_terms(p, kind, depth))


def scalar_terms(p, kind, n):
    """The first ``n`` series terms, one radius at a time from the
    per-radius reference reads: the reference for the term matrix.
    A term that needs a value a custom tail hides is nan."""

    def at(label, r):
        try:
            return profile_at(p, label, r)
        except StructuralError:
            return math.nan

    total = p.total_measure()
    interchange = total is None or not math.isfinite(total)
    out, cm, cmc, inv = [], 0.0, 0.0, 0.0
    for r in range(n):
        b, m, c = (at(label, r) for label in ("boundary", "measure", "killing"))
        inv_before, cm, cmc, inv = inv, cm + m, cmc + m + c, inv + 1.0 / b
        out.append({
            SeriesKind.RESISTANCE: 1.0 / b,
            SeriesKind.TOTAL_MASS: m + c,
            SeriesKind.STOCHASTIC_MASS: cm / b,
            SeriesKind.FELLER_TAIL: (
                inv_before * m if interchange else p.measure_beyond(r) / b
            ),
            SeriesKind.ENERGY_WEIGHT: cm**2 / b,
            SeriesKind.BOUNDED_HARMONIC: cmc / b,
            SeriesKind.HAMBURGER: inv**2 * at("measure", r + 1),
        }[kind])
    return np.array(out)


@pytest.mark.parametrize("kind", list(SeriesKind))
def test_series_terms_match_scalar_reference(kind):
    chains = [
        birth_death(geometric(1.5), geometric(0.6), geometric(0.3), prefix_len=48),
        birth_death(power_seq(2.0), power_seq(-0.5), 0.0, prefix_len=48),
        birth_death(PowerGeomTail(0.7, 1.5, 0.9), PowerGeomTail(2.0, -1.0, 1.1), 0.0, prefix_len=48),
    ]
    profiles = [gallery(name).profile for name in WSS_GALLERY] + [f.profile for f in chains]
    unit = truncation_profile("unit_chain", 6)
    profiles += [
        truncation_profile("binary_tree", 5),
        unit,
        only_measure_custom(unit),
        only_boundary_custom(unit),
    ]
    for p in profiles:
        if kind is SeriesKind.HAMBURGER and not (p.is_birth_death and p.killing_is_zero):
            continue
        # the depth the verdicts sum to, clipped where custom tails hide values
        n = max(p.prefix_len + series.PARTIAL_SUM_MARGIN, series.PARTIAL_SUM_FLOOR_DEPTH)
        want = scalar_terms(p, kind, n)
        hidden = np.flatnonzero(np.isnan(want))
        want = want[: hidden[0]] if hidden.size else want
        got = series_terms(p, kind, n)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=p.name)
        # and these are the rows the verdicts sum, bit for bit
        v = verdict_bundle(p)[kind]
        assert v.sample_depths[-1] == len(got)
        sums = np.cumsum(got)[np.array(v.sample_depths) - 1]
        assert sums.tobytes() == np.array(v.partial_sums).tobytes(), p.name


@pytest.mark.parametrize(
    "name,kind,converges",
    [
        ("geometric_chain", SeriesKind.RESISTANCE, True),
        ("geometric_chain", SeriesKind.TOTAL_MASS, True),
        ("geometric_chain", SeriesKind.STOCHASTIC_MASS, True),
        ("geometric_chain", SeriesKind.FELLER_TAIL, True),
        ("geometric_chain", SeriesKind.ENERGY_WEIGHT, True),
        ("unit_chain", SeriesKind.RESISTANCE, False),
        ("unit_chain", SeriesKind.TOTAL_MASS, False),
        ("unit_chain", SeriesKind.STOCHASTIC_MASS, False),
        ("square_chain", SeriesKind.RESISTANCE, True),
        ("square_chain", SeriesKind.TOTAL_MASS, False),
        ("binary_tree", SeriesKind.RESISTANCE, True),
        ("binary_tree", SeriesKind.TOTAL_MASS, False),
        ("geom_mass_anti_tree", SeriesKind.RESISTANCE, True),
        ("geom_mass_anti_tree", SeriesKind.TOTAL_MASS, True),
    ],
)
def test_series_verdicts_match_brute_force(name, kind, converges):
    p = gallery(name).profile
    v = series_verdict(p, kind)
    assert v.decided
    assert v.holds is converges
    sums = brute_partial_sums(p, kind)
    if converges:
        # the last quarter of the terms barely moves the sum
        assert sums[-1] - sums[-51] <= 0.01 * sums[-1]
    else:
        assert sums[-1] > 2.0 * sums[len(sums) // 4]


def test_verdict_partial_sums_are_monotone_and_sampled():
    p = gallery("geometric_chain").profile
    v = series_verdict(p, SeriesKind.RESISTANCE)
    assert v.sample_depths == tuple(sorted(v.sample_depths))
    assert all(b >= a for a, b in zip(v.partial_sums, v.partial_sums[1:]))
    assert "term class" in v.reason
    assert str(v).startswith("holds:")


def test_hamburger_series_requires_chain_without_killing():
    anti = gallery("linear_anti_tree").profile
    with pytest.raises(PreconditionError):
        series_verdict(anti, SeriesKind.HAMBURGER)
    killed = chain_profile(
        [1.0],
        [1.0],
        c=[1.0],
        boundary_tail=PowerGeomTail(1.0),
        measure_tail=PowerGeomTail(1.0),
        killing_tail=PowerGeomTail(1.0),
    )
    with pytest.raises(PreconditionError):
        series_verdict(killed, SeriesKind.HAMBURGER)


def test_hamburger_verdicts():
    # unit chain: cumulative resistances grow, the series diverges
    unit = gallery("unit_chain").profile
    assert series_verdict(unit, SeriesKind.HAMBURGER).fails
    # geometric chain: (sum 1/2^k)^2 * 2^-(r+1) is summable
    geo = gallery("geometric_chain").profile
    assert series_verdict(geo, SeriesKind.HAMBURGER).holds


def test_custom_tails_yield_inconclusive_not_guesses():
    p = chain_profile(
        [1.0, 1.0],
        [1.0, 1.0],
        boundary_tail=CustomTail(None),
        measure_tail=PowerGeomTail(1.0, 0.0, 0.5),
    )
    v = series_verdict(p, SeriesKind.RESISTANCE)
    assert v.inconclusive
    # a declared convergent boundary sum forces divergent resistance
    p2 = chain_profile(
        [1.0, 1.0],
        [1.0, 1.0],
        boundary_tail=CustomTail(True),
        measure_tail=PowerGeomTail(1.0, 0.0, 0.5),
    )
    assert series_verdict(p2, SeriesKind.RESISTANCE).fails


def test_verdict_bundle_and_consistency():
    for name in ("geometric_chain", "unit_chain", "binary_tree"):
        p = gallery(name).profile
        bundle = verdict_bundle(p)
        assert SeriesKind.RESISTANCE in bundle
        assert (SeriesKind.HAMBURGER in bundle) == p.is_birth_death
        assert bundle_consistency(bundle) == []


def random_chain_profile(rng, killing, edge=False):
    """A 48-radius chain from the acceptance suite's ranges, or with
    ``edge`` from the whole grammar (C in [1e-3, 1e3], p in [-6, 6],
    rho in [0.05, 20])."""

    def seq(lo, hi):
        if edge:
            c, p, rho = 10.0 ** rng.uniform(-3, 3), rng.uniform(-6, 6), rng.uniform(0.05, 20)
        else:
            c, p, rho = rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0), rng.uniform(lo, hi)
        return PowerGeomTail(float(c), float(p), float(rho))

    c = seq(0.5, 1.5) if killing else 0.0
    return birth_death(seq(0.55, 1.8), seq(0.55, 1.8), c, prefix_len=48).profile


def overflowing_profile():
    """1/dB(r) = 20^r leaves the float range at r = 237."""
    n = 48
    return chain_profile(
        0.05 ** np.arange(n),
        0.01 ** np.arange(n),
        boundary_tail=PowerGeomTail(1.0, 0.0, 0.05),
        measure_tail=PowerGeomTail(1.0, 0.0, 0.01),
    )


def truncation_profile(name, depth):
    """The profile read off a gallery truncation: custom tails, prefix only."""
    t = gallery(name).build(depth + 1)
    return series.profile_from_graph(t.graph, sphere_decomposition(t.graph, [t.root]), depth)


def only_measure_custom(p):
    """``p`` as a chain without killing whose measure tail alone is custom."""
    return dataclasses.replace(
        p,
        boundary_tail=PowerGeomTail(1.0, 0.0, 0.5),
        killing_tail=ZERO_TAIL,
        count_tail=PowerGeomTail(1.0),
    )


def only_boundary_custom(p):
    """``p`` as a chain without killing whose boundary tail alone is custom."""
    return dataclasses.replace(
        p,
        boundary_tail=CustomTail(None),
        measure_tail=PowerGeomTail(1.0, 0.0, 0.5),
        killing_tail=ZERO_TAIL,
        count_tail=PowerGeomTail(1.0),
    )


def test_chain_growth_row_reads_a_closed_measure_past_a_custom_boundary():
    # term r = 4 of a 5-radius chain reads b(4) from the prefix and m(5)
    # from the closed measure tail, so it exists
    p = chain_profile(
        [1.0, 2.0, 4.0, 8.0, 16.0],
        0.5 ** np.arange(5),
        boundary_tail=CustomTail(None),
        measure_tail=PowerGeomTail(1.0, 0.0, 0.5),
    )
    terms = series_terms(p, SeriesKind.HAMBURGER, 64)
    resistance = np.cumsum(1.0 / p.boundary_prefix)
    np.testing.assert_array_equal(terms, resistance**2 * 0.5 ** np.arange(1, 6))
    v = verdict_bundle(p)[SeriesKind.HAMBURGER]
    assert v.sample_depths == (1, 2, 4, 5)
    assert v.partial_sums[-1] == np.cumsum(terms)[-1]
    # a custom measure tail hides m(5): the row stops one short
    q = dataclasses.replace(p, measure_tail=CustomTail(None))
    assert len(series_terms(q, SeriesKind.HAMBURGER, 64)) == 4


def test_verdict_bundle_equals_per_kind_verdicts():
    # the bundle evaluates all kinds in one pass; every field of every
    # verdict must be bit for bit what the kind computes alone
    rng = np.random.default_rng(1212)
    profiles = [gallery(name).profile for name in WSS_GALLERY]
    profiles += [random_chain_profile(rng, killing=i % 2 == 1) for i in range(50)]
    profiles += [random_chain_profile(rng, killing=i % 2 == 1, edge=True) for i in range(30)]
    unit = truncation_profile("unit_chain", 6)
    profiles += [
        # custom tails: every row stops at the prefix
        truncation_profile("binary_tree", 5),
        unit,
        # rows of unequal length: the resistance row runs to full depth,
        # the chain growth row stops one short of the prefix
        only_measure_custom(unit),
        # the boundary alone custom: every row stops at the prefix
        only_boundary_custom(unit),
        overflowing_profile(),
        # infinite total measure: complement masses in the interchanged order
        birth_death(geometric(0.5), power_seq(1.0), prefix_len=48).profile,
    ]
    for p in profiles:
        bundle = verdict_bundle(p)
        alone = {
            kind: series_verdict(p, kind)
            for kind in SeriesKind
            if kind is not SeriesKind.HAMBURGER or (p.is_birth_death and p.killing_is_zero)
        }
        assert list(bundle) == list(alone)
        for kind, v in bundle.items():
            w = alone[kind]
            assert (v.state, v.label, v.reason, v.kind) == (w.state, w.label, w.reason, w.kind)
            assert v.sample_depths == w.sample_depths
            assert np.array(v.partial_sums).tobytes() == np.array(w.partial_sums).tobytes()


def test_bundle_consistency_flags_fabricated_contradiction():
    p = gallery("geometric_chain").profile
    bundle = verdict_bundle(p)
    broken = dict(bundle)
    ok = bundle[SeriesKind.TOTAL_MASS]
    broken[SeriesKind.RESISTANCE] = Verdict(
        VerdictState.FAILS, ok.label, "fabricated for the test", kind="resistance"
    )
    # finite total mass with divergent resistance contradicts the
    # cumulative-mass series, which converges here
    assert bundle_consistency(broken)


def test_energy_implies_bounded_harmonic_only_with_summable_killing():
    bundle = verdict_bundle(gallery("geometric_chain").profile)
    assert bundle[SeriesKind.ENERGY_WEIGHT].holds
    broken = dict(bundle)
    broken[SeriesKind.BOUNDED_HARMONIC] = Verdict(
        VerdictState.FAILS, "", "fabricated for the test", kind="bounded_harmonic"
    )
    message = "energy_weight converges but bounded_harmonic diverges"
    assert message in bundle_consistency(broken, killing_summable=True)
    assert message in bundle_consistency(broken)  # summable killing is the default
    # divergent killing can make the bounded-harmonic series diverge alone
    assert message not in bundle_consistency(broken, killing_summable=False)


def test_partial_sums_stop_at_float_overflow():
    with np.errstate(all="raise"):
        bundle = verdict_bundle(overflowing_profile())
    res = bundle[SeriesKind.RESISTANCE]
    assert res.fails  # the verdict still comes from the tail grammar
    assert res.reason.endswith("; partial sums stop at r=237: float overflow")
    assert res.sample_depths[-1] == 237
    assert bundle[SeriesKind.TOTAL_MASS].sample_depths[-1] == series.PARTIAL_SUM_FLOOR_DEPTH
    for v in bundle.values():
        assert all(math.isfinite(s) for s in v.partial_sums)


# -- quotient chains and the text format ------------------------------------


def test_quotient_graph_carries_radial_data():
    p = gallery("binary_tree").profile
    g = quotient_graph(p, 4)
    assert g.vertex_count == 5
    assert list(g.edge_u) == [0, 1, 2, 3]
    boundary, measure = p.values("boundary", 5), p.values("measure", 5)
    for r in range(4):
        assert g.edge_w[r] == pytest.approx(boundary[r])
    for r in range(5):
        assert g.measure[r] == pytest.approx(measure[r])
    with pytest.raises(ValueError):
        quotient_graph(p, 0)


def test_profile_text_round_trip():
    p = chain_profile(
        [1.0, 2.5],
        [1.0, 0.25],
        c=[0.0, 0.125],
        boundary_tail=PowerGeomTail(2.0, 1.0, 1.5),
        measure_tail=CustomTail(None),
        killing_tail=PowerGeomTail(0.0),
    )
    text = format_profile_text(p)
    q = parse_profile_text(text)
    assert np.array_equal(q.boundary_prefix, p.boundary_prefix)
    assert np.array_equal(q.killing_prefix, p.killing_prefix)
    assert q.boundary_tail == p.boundary_tail
    assert isinstance(q.measure_tail, CustomTail)
    assert q.measure_tail.convergent is None
    assert q.killing_tail.is_zero


def test_profile_parse_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError, match="line 1"):
        parse_profile_text("boundary = 1.0\n")
    with pytest.raises(GraphFormatError, match="missing"):
        parse_profile_text("[prefix]\nboundary = 1.0\n")
    good = format_profile_text(gallery("unit_chain").profile)
    bad = good.replace("rho=1.0", "rho=frog", 1)
    with pytest.raises(GraphFormatError):
        parse_profile_text(bad)
    # a prefix value float() refuses, worded as float() words it
    for value in ("abc", "1,5"):
        bad = good.replace("sphere_m = 1.0", f"sphere_m = 1.0 {value}", 1)
        with pytest.raises(GraphFormatError) as exc:
            parse_profile_text(bad)
        # the name, [prefix] and boundary come first
        assert str(exc.value) == f"line 4: could not convert string to float: '{value}'"


@pytest.mark.parametrize(
    "tail,field,value",
    [
        ("C=1 p=0 rho=nan", "rho", "nan"),
        ("C=inf p=0 rho=2", "C", "inf"),
        ("C=1 p=-inf", "p", "-inf"),
        ("C=nan", "C", "nan"),
    ],
)
def test_profile_tail_refuses_non_finite_numbers(tail, field, value):
    good = format_profile_text(gallery("unit_chain").profile)
    lines = good.splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if line.startswith("boundary = C="))
    bad = good.replace(lines[lineno - 1], f"boundary = {tail}")
    with pytest.raises(GraphFormatError) as exc:
        parse_profile_text(bad)
    assert str(exc.value) == f"line {lineno}: {field} must be finite, got {value}"


def test_load_profile_from_stream():
    text = format_profile_text(gallery("geometric_chain").profile)
    p = load_profile(io.StringIO(text), name="geo")
    assert p.name == "geo"
    assert p.values("boundary", 4)[3] == pytest.approx(8.0)
