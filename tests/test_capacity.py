"""Intrinsic metrics, cutoff functions, and boundary capacity."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from formuniq import (
    PreconditionError,
    WeightedGraph,
    boundary_capacity_estimate,
    cutoff_function,
    degree_path_lengths,
    equilibrium_potential,
    form_norm_sq,
    form_uniqueness_verdict,
    gallery,
    profile_boundary_capacity,
    radial_boundary_reach,
    series_verdict,
    symmetric_ends_verdict,
)
from formuniq.capacity import (
    EdgeLengths,
    is_strongly_intrinsic,
    length_matrix,
    shortest_paths,
)
from formuniq.cli import OK, main
from formuniq.families import bilateral_chain, birth_death
from formuniq.graph import laplacian
from formuniq.series import (
    CustomTail,
    PowerGeomTail,
    RadialProfile,
    SeriesKind,
    tail_sum_exact,
)


def unit_path(n):
    return WeightedGraph(n, [(k, k + 1, 1.0) for k in range(n - 1)], np.ones(n))


def random_graph(rng, n=12, extra=6):
    """Connected graph: random spanning tree plus a few chords."""
    edges = [(int(rng.integers(0, v)), v, float(rng.uniform(0.2, 3.0)))
             for v in range(1, n)]
    present = {(min(u, v), max(u, v)) for u, v, _ in edges}
    while len(present) < n - 1 + extra:
        u, v = rng.integers(0, n, size=2)
        if u != v and (min(u, v), max(u, v)) not in present:
            present.add((min(u, v), max(u, v)))
            edges.append((int(min(u, v)), int(max(u, v)), float(rng.uniform(0.2, 3.0))))
    measure = rng.uniform(0.3, 2.0, size=n)
    killing = rng.uniform(0.0, 0.5, size=n) * (rng.random(n) < 0.4)
    return WeightedGraph(n, edges, measure=measure, killing=killing)


# ---------------------------------------------------------------------------
# edge lengths and path metrics
# ---------------------------------------------------------------------------


def test_edge_lengths_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        EdgeLengths(np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="finite"):
        EdgeLengths(np.array([1.0, np.inf]))


def test_degree_path_lengths_on_unit_path():
    g = unit_path(5)
    sigma = degree_path_lengths(g).values
    # interior degrees are 2, the ends 1; each edge sees a degree-2 endpoint
    np.testing.assert_allclose(sigma, np.full(4, 2.0**-0.5))


def test_degree_path_metric_is_strongly_intrinsic():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_graph(rng)
        rep = is_strongly_intrinsic(g, degree_path_lengths(g))
        assert rep and rep.worst_ratio <= 1 + 1e-12


def test_inflated_lengths_are_not_intrinsic():
    g = unit_path(5)
    sigma = degree_path_lengths(g)
    rep = is_strongly_intrinsic(g, EdgeLengths(sigma.values * 10))
    assert not rep
    assert rep.worst_ratio == pytest.approx(100.0)


def test_length_matrix_shape_mismatch():
    g, h = unit_path(4), unit_path(5)
    with pytest.raises(ValueError, match="edge lengths"):
        length_matrix(h, degree_path_lengths(g))


def test_shortest_paths_on_path_graph():
    g = unit_path(5)
    d = shortest_paths(g, degree_path_lengths(g), [0])
    np.testing.assert_allclose(d, np.arange(5) * 2.0**-0.5)


def test_shortest_paths_validation_and_unreachable():
    g = unit_path(4)
    with pytest.raises(ValueError, match="empty"):
        shortest_paths(g, degree_path_lengths(g), [])
    with pytest.raises(ValueError, match="out of range"):
        shortest_paths(g, degree_path_lengths(g), [9])
    split = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)], np.ones(4))
    d = shortest_paths(split, degree_path_lengths(split), [0])
    assert np.isfinite(d[:2]).all() and np.isinf(d[2:]).all()


# ---------------------------------------------------------------------------
# cutoff functions
# ---------------------------------------------------------------------------


def test_cutoff_values_on_path():
    g = unit_path(5)
    eta = cutoff_function(g, range(5), 0, 1.0)
    s = 2.0**-0.5
    expect = np.clip(2.0 - np.arange(5) * s, 0.0, 1.0)
    np.testing.assert_allclose(eta, expect)
    assert eta[0] == 1.0 and eta[4] == 0.0


def test_cutoff_validation():
    g = unit_path(4)
    with pytest.raises(ValueError, match="radius"):
        cutoff_function(g, range(4), 0, 0.0)
    with pytest.raises(PreconditionError, match="not in the cutoff region"):
        cutoff_function(g, [0, 1], 3, 1.0)


def test_cutoff_vanishes_outside_region():
    t = gallery("pendant_instability").build(6)
    chain = t.rail("chain")
    eta = cutoff_function(t.graph, chain, chain[0], 2.0)
    for v in t.rail("pendant"):
        assert eta[v] == 0.0
    assert eta[chain[0]] == 1.0


def test_cutoff_energy_bound():
    # sum_y b(x,y)(eta(x)-eta(y))^2 <= m(x)/r^2 for the intrinsic metric
    for name in ("unit_chain", "binary_tree", "pendant_instability"):
        t = gallery(name).build(8)
        g = t.graph
        for r in (1.0, 2.0, 4.0):
            eta = cutoff_function(g, range(g.vertex_count), t.root, r)
            load = np.zeros(g.vertex_count)
            contrib = g.edge_w * (eta[g.edge_u] - eta[g.edge_v]) ** 2
            np.add.at(load, g.edge_u, contrib)
            np.add.at(load, g.edge_v, contrib)
            assert np.all(load <= g.measure / r**2 + 1e-12)


# ---------------------------------------------------------------------------
# equilibrium potentials
# ---------------------------------------------------------------------------


def test_equilibrium_pin_on_three_path():
    g = unit_path(3)
    e, cap = equilibrium_potential(g, [2])
    np.testing.assert_allclose(e, [0.2, 0.4, 1.0], atol=1e-12)
    assert cap == pytest.approx(1.6, abs=1e-12)


def test_equilibrium_empty_and_full_sets():
    g = unit_path(4)
    e, cap = equilibrium_potential(g, [])
    assert cap == 0.0 and not e.any()
    e, cap = equilibrium_potential(g, range(4))
    np.testing.assert_allclose(e, 1.0)
    assert cap == pytest.approx(g.measure.sum())  # constants carry no energy


def test_equilibrium_rejects_unknown_vertices():
    with pytest.raises(ValueError, match="unknown vertex"):
        equilibrium_potential(unit_path(3), [5])


def test_equilibrium_is_one_harmonic_off_k():
    # stationarity means Le + e = 0 away from the constrained set
    rng = np.random.default_rng(21)
    for _ in range(10):
        g = random_graph(rng)
        k = sorted(rng.choice(g.vertex_count, size=3, replace=False).tolist())
        e, cap = equilibrium_potential(g, k)
        assert 0.0 <= e.min() and e.max() <= 1.0
        assert all(e[v] == 1.0 for v in k)
        free = np.setdiff1d(np.arange(g.vertex_count), k)
        resid = laplacian(g, e) + e
        assert np.abs(resid[free]).max() < 1e-8


def test_capacity_is_minimal_among_competitors():
    rng = np.random.default_rng(33)
    for _ in range(10):
        g = random_graph(rng)
        k = sorted(rng.choice(g.vertex_count, size=2, replace=False).tolist())
        _, cap = equilibrium_potential(g, k)
        for _ in range(5):
            v = rng.uniform(-0.2, 1.2, size=g.vertex_count)
            v[k] = 1.0
            assert cap <= form_norm_sq(g, v) + 1e-10


def test_capacity_monotone_in_the_set():
    rng = np.random.default_rng(5)
    for _ in range(25):
        g = random_graph(rng)
        small = set(rng.choice(g.vertex_count, size=2, replace=False).tolist())
        big = small | set(rng.choice(g.vertex_count, size=3, replace=False).tolist())
        _, cap_small = equilibrium_potential(g, sorted(small))
        _, cap_big = equilibrium_potential(g, sorted(big))
        assert cap_small <= cap_big + 1e-10


# ---------------------------------------------------------------------------
# radial reach
# ---------------------------------------------------------------------------


def test_radial_reach_geometric_chain():
    p = gallery("geometric_chain").profile
    reach = radial_boundary_reach(p)
    assert reach.finite is True
    assert math.isfinite(reach.total)
    # Deg(0) = 1/1, Deg(1) = (2+1)/0.5 = 6
    assert reach.sigma[0] == pytest.approx(6.0**-0.5)
    # remaining length telescopes
    for r in range(10):
        assert reach.tail_length[r] == pytest.approx(
            reach.sigma[r] + reach.tail_length[r + 1]
        )
    assert reach.total == pytest.approx(reach.tail_length[0])


def test_radial_reach_unit_chain_is_infinite():
    reach = radial_boundary_reach(gallery("unit_chain").profile)
    assert reach.finite is False
    assert reach.total == math.inf


def test_radial_reach_square_chain_is_infinite():
    # Deg grows like r^2, so sigma ~ 1/r: divergent total length
    reach = radial_boundary_reach(gallery("square_chain").profile)
    assert reach.finite is False


def test_radial_reach_undecided_for_custom_tails():
    n = 8
    p = RadialProfile(
        boundary_prefix=np.ones(n),
        measure_prefix=np.ones(n),
        killing_prefix=np.zeros(n),
        count_prefix=np.ones(n),
        boundary_tail=CustomTail(None),
        measure_tail=PowerGeomTail(1.0),
        killing_tail=PowerGeomTail(0.0),
        count_tail=PowerGeomTail(1.0),
    )
    reach = radial_boundary_reach(p)
    assert reach.finite is None
    assert "custom" in reach.note


# ---------------------------------------------------------------------------
# boundary capacity
# ---------------------------------------------------------------------------


def test_geometric_chain_capacity_positive_finite():
    est = boundary_capacity_estimate(gallery("geometric_chain"), (16, 32, 64))
    assert est.classification == "positive-finite"
    vals = [row.value for row in est.rows]
    assert est.extrapolated == pytest.approx(vals[-1])
    assert vals[0] > 0
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-12  # nested neighborhoods shrink
        assert math.isclose(a, b, rel_tol=1e-2)


def test_unit_chain_capacity_zero_empty_boundary():
    est = boundary_capacity_estimate(gallery("unit_chain"), (8, 16))
    assert est.classification == "zero"
    assert est.extrapolated == 0.0
    assert all("empty boundary" in row.description for row in est.rows)
    assert any("infinite" in line for line in est.evidence)


def test_pendant_boundary_capacity_infinite():
    est = boundary_capacity_estimate(gallery("pendant_boundary"), (8, 12, 16))
    assert est.classification == "infinite"
    assert est.extrapolated == math.inf
    assert any("grow" in line for line in est.evidence)


def test_profile_capacity_tail_mass_bounds_value():
    # each neighborhood keeps at least its trapped measure as capacity
    p = gallery("geometric_chain").profile
    est = profile_boundary_capacity(p, (8, 16))
    for row in est.rows:
        assert row.value >= row.trapped_measure > 0


def test_capacity_depth_validation():
    fam = gallery("geometric_chain")
    with pytest.raises(ValueError, match="at least one"):
        boundary_capacity_estimate(fam, ())
    with pytest.raises(ValueError, match="positive"):
        boundary_capacity_estimate(fam, (0, 4))


@pytest.mark.parametrize("depths", [(300, 300), (300, 200), (8, 16, 16), (32, 8)])
@pytest.mark.parametrize("route", ["profile", "vertex"])
def test_capacity_depths_must_strictly_increase(depths, route):
    # a repeated depth once read one neighbourhood twice as a converged
    # pair (positive-finite where form uniqueness holds), and a decreasing
    # pair was reported as capacity growing along shrinking neighbourhoods
    if route == "profile":
        fam = birth_death(PowerGeomTail(1, 4, 0.9), PowerGeomTail(1, 0, 0.5))
    else:
        fam = gallery("pendant_boundary")
    with pytest.raises(ValueError) as exc:
        boundary_capacity_estimate(fam, depths)
    assert str(exc.value) == (
        f"depths must be strictly increasing, got {','.join(map(str, depths))}"
    )


def test_ends_capacity_depths_share_the_depth_rule():
    with pytest.raises(ValueError, match="strictly increasing"):
        symmetric_ends_verdict(gallery("bilateral_mixed"), capacity_depths=(16, 8))


# ---------------------------------------------------------------------------
# the profile recurrence against 50-digit linear algebra
# ---------------------------------------------------------------------------


def mp_chain(p, n):
    """dB(0..n-1) and (m+c)(S_0..S_n) of a profile as exact mpmath numbers."""
    b = [mpmath.mpf(x) for x in p.values("boundary", n).tolist()]
    m = p.values("measure", n + 1).tolist()
    c = p.values("killing", n + 1).tolist()
    return b, [mpmath.mpf(x) + mpmath.mpf(y) for x, y in zip(m, c)]


def mp_capacity(p, depth):
    """cap(U_n), n = depth + 1, from a 50-digit tridiagonal solve.

    The equilibrium potential of sphere n on the quotient chain 0..n
    solves ``(M + C + D - B) u = 0`` at radii below n with u(n) = 1
    (Thomas elimination); its form norm plus the (c+m)-mass beyond n
    is the capacity.
    """
    n = depth + 1
    with mpmath.workdps(50):
        b, mc = mp_chain(p, n)
        diag = [mc[r] + b[r] + (b[r - 1] if r else 0) for r in range(n)]
        upper, rhs = [], []  # the eliminated rows: u(r) = rhs[r] + upper[r] u(r+1)
        for r in range(n):
            pivot = diag[r] - (b[r - 1] * upper[r - 1] if r else 0)
            upper.append(b[r] / pivot)
            rhs.append((b[r - 1] * rhs[r - 1] if r else 0) / pivot)
        u = [mpmath.mpf(0)] * n + [mpmath.mpf(1)]
        for r in range(n - 1, -1, -1):
            u[r] = rhs[r] + upper[r] * u[r + 1]
        energy = sum(mc[r] * u[r] ** 2 for r in range(n + 1))
        energy += sum(b[r] * (u[r + 1] - u[r]) ** 2 for r in range(n))
        return energy + p.mass_beyond(n)


seqs = st.tuples(
    st.floats(1e-3, 1e3), st.floats(-4.0, 4.0), st.floats(0.25, 4.0)
).map(lambda t: PowerGeomTail(*t))


@settings(max_examples=200, deadline=None)
@given(
    seqs,
    seqs,
    st.none() | seqs,
    st.lists(st.integers(1, 400), min_size=1, max_size=4, unique=True).map(sorted),
)
def test_profile_capacity_matches_the_chain_solve(b, m, c, depths):
    try:
        p = birth_death(b, m, c if c is not None else 0.0).profile
    except ValueError:
        assume(False)
    est = profile_boundary_capacity(p, depths)
    values = [row.value for row in est.rows]
    # nested neighborhoods never gain capacity; each value is within
    # 1e-14 of its exact counterpart, so two neighbors within 2e-14
    assert all(nxt <= prev * (1 + 2e-14) for prev, nxt in zip(values, values[1:]))
    for row in est.rows:
        assert row.value >= row.trapped_measure
        if est.classification == "zero" or math.isinf(row.value):
            continue
        want = mp_capacity(p, row.depth)
        assert abs(row.value - want) <= 1e-14 * want, (row.depth, row.value, want)


def test_geometric_chain_capacity_at_every_depth():
    p = gallery("geometric_chain").profile
    depths = range(16, 401)
    est = profile_boundary_capacity(p, depths)
    assert est.classification == "positive-finite"
    assert est.extrapolated == 0.8250407357089236
    # cap(U_n) = (m+c)(S_n) + dB(n-1) inc(n-1) / h(n) + mass beyond n, with
    # h the increasing alpha=1 harmonic function and inc its increments
    with mpmath.workdps(50):
        b, mc = mp_chain(p, depths[-1] + 1)
        h, inc, drive = [mpmath.mpf(1)], [], mpmath.mpf(0)
        for r in range(len(b)):
            drive += mc[r] * h[r]
            inc.append(drive / b[r])
            h.append(h[r] + inc[r])
        for row in est.rows:
            n = row.depth + 1
            want = mc[n] + b[n - 1] * inc[n - 1] / h[n] + p.mass_beyond(n)
            assert abs(row.value - want) <= 1e-14 * want, (row.depth, row.value, want)
    values = [row.value for row in est.rows]
    assert all(nxt <= prev * (1 + 2e-14) for prev, nxt in zip(values, values[1:]))


def test_capacity_cli_deep_geometric_chain(capsys):
    assert main(["capacity", "--family", "geometric_chain", "--depths", "16,100"]) == OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].startswith("100,") and lines[2].split(",")[2] == "0.8250407357089236"
    assert lines[-1] == "# classification: positive-finite (0.8250407357089236)"


def test_capacity_depths_past_the_profile_prefix(capsys):
    # the scale eps reads the prefix lengths up to radius 319 and the
    # closed-form sigma tail past it
    p = gallery("geometric_chain").profile
    reach = radial_boundary_reach(p)
    est = profile_boundary_capacity(p, (16, 318, 319, 400))
    eps = [row.epsilon for row in est.rows]
    assert eps[:3] == reach.tail_length[[16, 318, 319]].tolist()
    assert eps[3] == tail_sum_exact(reach.sigma_class, 400)
    assert eps[2] > eps[3] > 0
    assert main(["capacity", "--family", "geometric_chain", "--depths", "16,319"]) == OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].startswith("319,") and lines[2].split(",")[2] == "0.8250407357089236"
    assert main(["ends", "--family", "bilateral_mixed", "--capacity-depths", "16,400"]) == OK
    assert "capacity positive-finite" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# the profile class from the form-uniqueness verdicts
# ---------------------------------------------------------------------------


def _expected_class(p):
    """zero on an empty boundary, infinite on a divergent total mass, else
    positive-finite exactly when form uniqueness fails."""
    if not radial_boundary_reach(p).finite:
        return "zero"
    if series_verdict(p, SeriesKind.TOTAL_MASS).fails:
        return "infinite"
    return "positive-finite" if form_uniqueness_verdict(p).fails else "zero"


@settings(max_examples=200, deadline=None)
@given(
    seqs,
    seqs,
    st.none() | seqs,
    st.lists(st.integers(1, 400), min_size=1, max_size=4, unique=True).map(sorted),
)
def test_profile_capacity_class_follows_the_form_uniqueness_verdicts(b, m, c, depths):
    try:
        p = birth_death(b, m, c if c is not None else 0.0).profile
    except ValueError:
        assume(False)
    est = profile_boundary_capacity(p, depths)
    # every depth evaluated, and no row past the float range while the mass converges
    assume(len(est.rows) == len(depths))
    assume(
        est.classification == "infinite"
        or all(math.isfinite(row.value) for row in est.rows)
    )
    assert not form_uniqueness_verdict(p).inconclusive
    assert est.classification == _expected_class(p)


@pytest.mark.parametrize("depths", [(8, 16, 32), (32, 64, 128), (100, 200, 300)])
def test_resistance_diverging_through_a_geometric_factor_is_zero(depths):
    # sum 1/dB = sum (r+1)^-4 (1/0.9)^r diverges, though its terms fall up
    # to r ~ 37: the rows settle near 1.39 at shallow depths, and only the
    # verdicts see the capacity is zero
    fam = birth_death(PowerGeomTail(1, 4, 0.9), PowerGeomTail(1, 0, 0.5))
    assert form_uniqueness_verdict(fam.profile).holds
    est = boundary_capacity_estimate(fam, depths)
    assert (est.classification, est.extrapolated) == ("zero", 0.0)
    assert len(est.rows) == len(depths)


def test_values_falling_by_halves_are_not_read_as_zero():
    # the mass term C 0.5^r halves the rows at every depth, yet the mass and
    # the resistance both converge, so the capacity is positive
    fam = birth_death(PowerGeomTail(1, 0, 2), PowerGeomTail(1e308, 0, 0.5))
    est = boundary_capacity_estimate(fam, (8, 16, 32))
    values = [row.value for row in est.rows]
    assert all(nxt <= prev / 2 for prev, nxt in zip(values, values[1:]))
    assert est.classification == "positive-finite"
    assert est.extrapolated is None


def test_shallow_depths_take_the_exact_class(capsys):
    for depths in ("1", "1,2", "4"):
        assert main(["capacity", "--family", "geometric_chain", "--depths", depths]) == OK
        assert capsys.readouterr().out.splitlines()[-1] == "# classification: positive-finite"


# the acceptance suite's random-chain ranges
chain_seqs = st.tuples(
    st.floats(0.3, 3.0), st.floats(-2.0, 2.0), st.floats(0.55, 1.8)
).map(lambda t: PowerGeomTail(*t))


@settings(max_examples=60, deadline=None)
@given(chain_seqs, chain_seqs, chain_seqs, chain_seqs, st.integers(16, 318))
def test_each_end_capacity_is_positive_exactly_where_the_end_fails(pb, pm, nb, nm, top):
    fam = bilateral_chain(pb, pm, nb, nm)
    depths = tuple(sorted({top // 4, top // 2, top}))
    report = symmetric_ends_verdict(fam, capacity_depths=depths)
    for end in report.ends:
        assert end.fails is not None
        want = {"positive-finite"} if end.fails else {"zero", "infinite"}
        assert end.capacity.classification in want, (end.name, depths)


def test_a_convergent_mass_past_the_float_range_is_undecided():
    # sum 1e307 * 0.999^r = 1e310 converges but leaves the float range: not
    # an infinite mass, and no overflow warning on the way
    fam = birth_death(PowerGeomTail(1, 2, 1), PowerGeomTail(1e307, 0, 0.999))
    assert series_verdict(fam.profile, SeriesKind.TOTAL_MASS).holds
    assert form_uniqueness_verdict(fam.profile).fails
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = boundary_capacity_estimate(fam, (8, 16, 32))
    assert (est.classification, est.extrapolated) == ("undecided", None)
    assert [row.value for row in est.rows] == [math.inf] * 3
    assert est.evidence[0].endswith("the (c+m)-mass beyond radius 8 leaves the float range")
    assert not any("infinite" in line for line in est.evidence)


def test_a_capacity_past_the_float_range_is_not_evaluated():
    # a_1 = (m+c)(S_1) + dB(0) s_0 = 1.6e308 + 0.25e308 leaves the float range
    # while every dB, m and the tail mass beyond radius 1 fit: the rows after
    # it were nan
    m = PowerGeomTail(0.5e308, math.log2(320), 0.01)
    est = boundary_capacity_estimate(birth_death(PowerGeomTail(0.5e308, 0, 1), m), (1, 2, 4))
    assert (est.rows, est.extrapolated, est.classification) == ((), None, "undecided")
    assert est.evidence == (
        "the capacity at radius 2 leaves the float range: depth 1 and deeper are not evaluated",
    )


def test_a_ball_and_edge_sum_past_the_float_range_keeps_the_edge_term():
    # a_0 + dB(0) = 1.7e308 + 1e308 leaves the float range while both fit:
    # s_0 = a_0 / (a_0 + dB(0)) read 0, so a_1 lost its edge term and the
    # rows printed 1.776e308 and 1.464e308; in 50 digits a_1 = 2.31e308
    fam = birth_death(PowerGeomTail(1e308, 0, 1), PowerGeomTail(1.7e308, 0, 0.99))
    with mpmath.workdps(50):
        b, mc = mp_chain(fam.profile, 1)
        assert mc[1] + b[0] * mc[0] / (mc[0] + b[0]) > mpmath.mpf("2.3e308")
    est = boundary_capacity_estimate(fam, (460, 480))
    assert (est.rows, est.extrapolated, est.classification) == ((), None, "undecided")
    assert est.evidence == (
        "the capacity at radius 461 leaves the float range: depth 460 and deeper are not evaluated",
    )

