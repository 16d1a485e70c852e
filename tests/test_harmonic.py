"""The radial recurrence, truncated free-boundary solves, and membership."""

import warnings

import numpy as np
import pytest

from formuniq.errors import StructuralError
from formuniq.families import birth_death, gallery, geometric
from formuniq.graph import WeightedGraph, laplacian
from formuniq.harmonic import (
    _lp_verdict,
    membership_report,
    solve_symmetric_harmonic,
    truncated_dirichlet_solve,
)
from formuniq.series import (
    CustomTail,
    PowerGeomTail,
    RadialProfile,
    Verdict,
    VerdictState,
    quotient_graph,
)


def test_unit_chain_recurrence_by_hand():
    # b = m = 1, alpha = 1: u(r+1) = u(r) + sum_{k<=r} u(k)
    sol = solve_symmetric_harmonic(gallery("unit_chain").profile, 1.0, 1.0, 4)
    assert sol.values == pytest.approx([1.0, 2.0, 5.0, 13.0, 34.0])
    assert sol.increments == pytest.approx([1.0, 3.0, 8.0, 21.0])
    assert sol.partial_l1 == pytest.approx([1.0, 3.0, 8.0, 21.0, 55.0])
    assert sol.partial_l2 == pytest.approx([1.0, 5.0, 30.0, 199.0, 1355.0])
    assert sol.partial_energy == pytest.approx([1.0, 10.0, 74.0, 515.0])
    assert sol.depth == 4


def test_geometric_chain_recurrence_by_hand():
    sol = solve_symmetric_harmonic(gallery("geometric_chain").profile, 1.0, 1.0, 3)
    assert abs(sol.values[1] - 2.0) < 1e-12
    assert abs(sol.values[2] - 3.0) < 1e-12
    assert abs(sol.values[3] - 3.6875) < 1e-12


def test_recurrence_scales_linearly_in_u0():
    p = gallery("square_chain").profile
    a = solve_symmetric_harmonic(p, 0.5, 1.0, 10)
    b = solve_symmetric_harmonic(p, 0.5, 3.0, 10)
    assert b.values == pytest.approx(3.0 * a.values, rel=1e-13)


def test_recurrence_input_validation():
    p = gallery("unit_chain").profile
    with pytest.raises(ValueError):
        solve_symmetric_harmonic(p, 0.0, 1.0, 3)
    with pytest.raises(ValueError):
        solve_symmetric_harmonic(p, 1.0, -1.0, 3)
    with pytest.raises(ValueError):
        solve_symmetric_harmonic(p, 1.0, 1.0, 0)


def test_recurrence_stops_at_custom_tail():
    p = RadialProfile(
        boundary_prefix=np.ones(4),
        measure_prefix=np.ones(4),
        killing_prefix=np.zeros(4),
        count_prefix=np.ones(4),
        boundary_tail=CustomTail(None),
        measure_tail=PowerGeomTail(1.0),
    )
    solve_symmetric_harmonic(p, 1.0, 1.0, 4)  # prefix suffices
    with pytest.raises(StructuralError, match="cannot solve"):
        solve_symmetric_harmonic(p, 1.0, 1.0, 5)


def test_recurrence_past_the_float_range_returns_every_radius():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_symmetric_harmonic(gallery("binary_tree").profile, 1.0, 1.0, 2000)
    assert len(sol.values) == 2001
    assert 100 < sol.finite_rows < 2001
    assert np.isfinite(sol.partial_l2[: sol.finite_rows]).all()
    assert not np.isfinite(sol.partial_l2[sol.finite_rows])


def test_recurrence_names_the_first_vanishing_boundary_weight():
    # the boundary tail underflows to zero from radius 2 on
    p = RadialProfile(
        boundary_prefix=np.ones(2),
        measure_prefix=np.ones(2),
        killing_prefix=np.zeros(2),
        count_prefix=np.ones(2),
        boundary_tail=PowerGeomTail(1.0, 0.0, 1e-200),
        measure_tail=PowerGeomTail(1.0),
    )
    solve_symmetric_harmonic(p, 1.0, 1.0, 2)  # dB(0), dB(1) suffice
    with pytest.raises(StructuralError, match=r"^layer boundary weight dB\(2\) = 0.0 is not positive$"):
        solve_symmetric_harmonic(p, 1.0, 1.0, 5)


def test_direct_solve_on_a_deep_chain_is_quiet():
    # kappa_plus = dB(r) / m(S_r) = (2 / 0.12)^r leaves the float range
    # near r = 250; the radii of the solve do not need it
    p = birth_death(PowerGeomTail(1, 0, 2), PowerGeomTail(1, 0, 0.12)).profile
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = truncated_dirichlet_solve(quotient_graph(p, 300), 1.0, (0, 1.0))
    assert u == pytest.approx(solve_symmetric_harmonic(p, 1.0, 1.0, 300).values, rel=1e-10)


@pytest.mark.parametrize("name", ["unit_chain", "geometric_chain", "square_chain"])
@pytest.mark.parametrize("alpha", [0.25, 1.0])
def test_recurrence_agrees_with_direct_solve_on_chains(name, alpha):
    p = gallery(name).profile
    depth = 20
    sol = solve_symmetric_harmonic(p, alpha, 1.0, depth)
    chain = quotient_graph(p, depth)
    u = truncated_dirichlet_solve(chain, alpha, (0, 1.0))
    assert u == pytest.approx(sol.values, rel=1e-10)


def test_recurrence_agrees_with_direct_solve_with_killing():
    fam = birth_death(2.0, 1.0, geometric(0.5), name="killed")
    sol = solve_symmetric_harmonic(fam.profile, 1.0, 1.0, 15)
    chain = quotient_graph(fam.profile, 15)
    assert chain.killing[3] == pytest.approx(0.5**3)
    u = truncated_dirichlet_solve(chain, 1.0, (0, 1.0))
    assert u == pytest.approx(sol.values, rel=1e-10)


@pytest.mark.parametrize("name", ["binary_tree", "linear_anti_tree", "geom_mass_anti_tree"])
def test_lifted_radial_solution_is_harmonic_on_branching_graphs(name):
    # the sphere-constant lift of the recurrence solves (L + alpha)u = 0
    # at every interior vertex of the actual truncation
    fam = gallery(name)
    trunc = fam.build(6)
    sol = solve_symmetric_harmonic(fam.profile, 1.0, 1.0, 6)
    lifted = sol.values[trunc.layer]
    resid = np.abs(laplacian(trunc.graph, lifted) + 1.0 * lifted)
    assert resid[trunc.layer < 6].max() <= 1e-9 * float(np.max(sol.values))
    # ... and visibly fails the equation on the free boundary sphere
    assert resid[trunc.layer == 6].max() > 1e-3


def test_direct_solve_honors_anchor_and_interior():
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], np.ones(4))
    u = truncated_dirichlet_solve(g, 1.0, (0, 2.0))
    assert u[0] == 2.0
    assert np.all(np.diff(u) > 0)
    resid = laplacian(g, u) + 1.0 * u
    assert np.abs(resid[[0, 1, 2]]).max() < 1e-10 * np.max(u)


def test_direct_solve_rejects_underdetermined_free_boundary():
    trunc = gallery("binary_tree").build(3)
    with pytest.raises(StructuralError, match="free boundary"):
        truncated_dirichlet_solve(trunc.graph, 1.0, (trunc.root, 1.0))


def test_direct_solve_validates_inputs():
    g = WeightedGraph(2, [(0, 1, 1.0)], np.ones(2))
    with pytest.raises(ValueError):
        truncated_dirichlet_solve(g, -1.0, (0, 1.0))
    with pytest.raises(ValueError):
        truncated_dirichlet_solve(g, 1.0, (5, 1.0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_alpha_and_u0_are_rejected(bad):
    p = gallery("unit_chain").profile
    with pytest.raises(ValueError, match="alpha must be finite"):
        solve_symmetric_harmonic(p, bad, 1.0, 4)
    with pytest.raises(ValueError, match="u0 must be finite"):
        solve_symmetric_harmonic(p, 1.0, bad, 4)
    g = gallery("unit_chain").build(6).graph
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no MatrixRankWarning on the way
        with pytest.raises(ValueError, match="alpha must be finite"):
            truncated_dirichlet_solve(g, bad, (0, 1.0))
        with pytest.raises(ValueError, match="anchor value must be finite"):
            truncated_dirichlet_solve(g, 1.0, (0, bad))


def test_membership_report_geometric_chain_has_l2_witness():
    p = gallery("geometric_chain").profile
    sol = solve_symmetric_harmonic(p, 1.0, 1.0, 12)
    report = membership_report(p, sol)
    assert report.bounded.holds
    assert report.finite_energy.holds
    assert report.l1.holds
    assert report.l2.holds
    names = [name for name, _ in report]
    assert names == ["bounded", "finite_energy", "l1", "l2"]


def test_membership_report_unit_chain_escapes_every_space():
    p = gallery("unit_chain").profile
    sol = solve_symmetric_harmonic(p, 1.0, 1.0, 12)
    report = membership_report(p, sol)
    for _, verdict in report:
        assert verdict.fails


@pytest.mark.parametrize("measure_finite,bounded,state,reason", [
    (None, "holds", "inconclusive", "total measure undecidable"),
    (False, "holds", "fails", "u >= u(0) > 0 against infinite total measure"),
    (True, "holds", "holds", "bounded solution over finite total measure"),
    (True, "fails", "inconclusive",
     "unbounded solution over finite total measure: growth race undecided"),
    (True, "inconclusive", "inconclusive", "boundedness undecided"),
])
def test_lp_verdict_branches(measure_finite, bounded, state, reason):
    b = Verdict(VerdictState(bounded), "bounded", "stub", kind="bounded")
    v = _lp_verdict("l2", b, measure_finite, (1.0, 2.0), (1, 2))
    assert (v.state.value, v.reason) == (state, reason)
    assert v.label == "solution lies in l2 (measure-weighted)"
    assert (v.kind, v.sample_depths, v.partial_sums) == ("l2", (1, 2), (1.0, 2.0))
