"""Decomposition, crossing-degree bounds, and gluing (in)stability."""

import dataclasses

import numpy as np
import pytest

from formuniq import (
    PreconditionError,
    Verdict,
    VerdictState,
    WeightedGraph,
    analyze_instability_example,
    boundary_degree_bounded,
    decompose,
    energy,
    energy_parts,
    gallery,
    stability_verdict,
    symmetric_ends_verdict,
)
from formuniq.families import bilateral_chain, geometric, pendant_chain
from formuniq.series import CustomTail
from formuniq.stability import (
    EDGE_CROSS,
    EDGE_X1,
    EDGE_X2,
    family_boundary_degree,
    norm_parts,
)


def glued_example():
    """Path 0-1-2 as X1 with a two-vertex tail and an isolated pendant."""
    edges = [
        (0, 1, 1.0), (1, 2, 2.0),          # inside X1
        (3, 4, 1.5),                        # inside X2
        (1, 3, 0.5), (2, 5, 3.0),           # crossing
    ]
    measure = np.array([1.0, 2.0, 1.0, 0.5, 1.0, 4.0])
    g = WeightedGraph(6, edges, measure)
    return g, decompose(g, [0, 1, 2])


def random_graph(rng, n=14, extra=8):
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


def verdict(state):
    return Verdict(state, "form uniqueness", "test stub", kind="form_uniqueness")


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def test_decompose_classifies_edges():
    g, dec = glued_example()
    np.testing.assert_array_equal(dec.x1, [0, 1, 2])
    np.testing.assert_array_equal(dec.x2, [3, 4, 5])
    region = {(int(u), int(v)): r
              for u, v, r in zip(g.edge_u, g.edge_v, dec.edge_region)}
    assert region[(0, 1)] == EDGE_X1 and region[(1, 2)] == EDGE_X1
    assert region[(3, 4)] == EDGE_X2
    assert region[(1, 3)] == EDGE_CROSS and region[(2, 5)] == EDGE_CROSS
    assert dec.crossing_weight == pytest.approx(3.5)
    np.testing.assert_array_equal(dec.boundary_vertices(), [1, 2, 3, 5])


def test_decompose_boundary_degree_values():
    g, dec = glued_example()
    # Deg_b(x) = (1/m) * crossing weight at x
    np.testing.assert_allclose(
        dec.deg_boundary,
        [0.0, 0.5 / 2.0, 3.0 / 1.0, 0.5 / 0.5, 0.0, 3.0 / 4.0],
    )


def test_decompose_finds_ends():
    _, dec = glued_example()
    assert dec.ends == ((3, 4), (5,))


def test_decompose_extreme_sets():
    g, _ = glued_example()
    everything = decompose(g, range(6))
    assert len(everything.x2) == 0 and everything.ends == ()
    assert np.all(everything.edge_region == EDGE_X1)
    nothing = decompose(g, [])
    assert np.all(nothing.edge_region == EDGE_X2)
    assert nothing.deg_boundary.max() == 0.0


def test_decompose_rejects_unknown_vertices():
    g, _ = glued_example()
    with pytest.raises(ValueError, match="unknown vertex"):
        decompose(g, [0, 17])


def test_energy_and_norm_split_exactly():
    rng = np.random.default_rng(11)
    for _ in range(100):
        g = random_graph(rng)
        size = int(rng.integers(0, g.vertex_count + 1))
        x1 = rng.choice(g.vertex_count, size=size, replace=False)
        dec = decompose(g, x1)
        f = rng.standard_normal(g.vertex_count)
        split = energy_parts(dec, f)
        assert split.total == pytest.approx(energy(g, f), rel=1e-12, abs=1e-12)
        n1, n2 = norm_parts(dec, f)
        assert n1 + n2 == pytest.approx(float(g.measure @ f**2), rel=1e-12)


def test_crossing_form_is_degree_bounded():
    # Q_cross(f) <= 2 * max Deg_b * ||f||^2
    rng = np.random.default_rng(13)
    for _ in range(50):
        g = random_graph(rng)
        x1 = rng.choice(g.vertex_count, size=g.vertex_count // 2, replace=False)
        dec = decompose(g, x1)
        f = rng.standard_normal(g.vertex_count)
        qb = energy_parts(dec, f).crossing
        norm_sq = float(g.measure @ f**2)
        assert qb <= 2 * dec.deg_boundary.max() * norm_sq + 1e-10


def test_energy_parts_length_check():
    _, dec = glued_example()
    with pytest.raises(ValueError, match="length"):
        energy_parts(dec, np.ones(3))


# ---------------------------------------------------------------------------
# boundary degree reports
# ---------------------------------------------------------------------------


def test_boundary_degree_no_crossing():
    g, _ = glued_example()
    rep = boundary_degree_bounded(decompose(g, range(6)))
    assert rep.bounded is True and rep.max_value == 0.0
    assert "no crossing" in rep.detail


def test_boundary_degree_explicit_bound():
    _, dec = glued_example()
    assert boundary_degree_bounded(dec, bound=3.0).bounded is True
    assert boundary_degree_bounded(dec, bound=2.0).bounded is False
    rep = boundary_degree_bounded(dec)
    assert rep.bounded is None
    assert rep.max_value == pytest.approx(3.0)  # vertex 2


@pytest.mark.parametrize("name,expected", [
    ("pendant_boundary", True),     # vertical_b/chain_m is constant
    ("bilateral_mixed", True),      # X1 = {origin} is finite
    ("pendant_instability", False),  # Deg_b(chain k) = 2^k
    ("star_instability", False),
    ("ladder_instability", False),
])
def test_family_boundary_degree_closed_forms(name, expected):
    rep = family_boundary_degree(gallery(name))
    assert rep.bounded is expected
    if expected is False:
        assert "unbounded" in rep.detail


def test_family_boundary_degree_needs_decomposition():
    with pytest.raises(PreconditionError, match="decomposition"):
        family_boundary_degree(gallery("unit_chain"))


# ---------------------------------------------------------------------------
# stability verdicts
# ---------------------------------------------------------------------------


def test_stability_verdict_combines_pieces():
    _, dec = glued_example()
    holds, fails, open_ = (
        verdict(VerdictState.HOLDS),
        verdict(VerdictState.FAILS),
        verdict(VerdictState.INCONCLUSIVE),
    )
    v = stability_verdict(dec, holds, holds, bound=5.0)
    assert v.state is VerdictState.HOLDS
    assert "crossing degree bounded" in v.reason
    assert stability_verdict(dec, holds, fails, bound=5.0).state is VerdictState.FAILS
    assert stability_verdict(dec, fails, fails, bound=5.0).state is VerdictState.FAILS
    assert (
        stability_verdict(dec, holds, open_, bound=5.0).state
        is VerdictState.INCONCLUSIVE
    )


def test_stability_verdict_requires_certified_bound():
    _, dec = glued_example()
    holds = verdict(VerdictState.HOLDS)
    v = stability_verdict(dec, holds, holds)  # no bound supplied
    assert v.state is VerdictState.INCONCLUSIVE
    assert "hypothesis unmet" in v.reason
    v = stability_verdict(dec, holds, holds, bound=0.1)  # bound violated
    assert v.state is VerdictState.INCONCLUSIVE


def test_stability_verdict_accepts_family_report():
    rep = family_boundary_degree(gallery("pendant_boundary"))
    holds = verdict(VerdictState.HOLDS)
    v = stability_verdict(rep, holds, holds)
    assert v.state is VerdictState.HOLDS


# ---------------------------------------------------------------------------
# symmetric ends
# ---------------------------------------------------------------------------


def test_bilateral_mixed_fails_through_one_end():
    rep = symmetric_ends_verdict(gallery("bilateral_mixed"))
    assert rep.hypotheses_met
    assert rep.verdict.state is VerdictState.FAILS
    assert "pos" in rep.verdict.reason
    by_name = {e.name.rsplit("/", 1)[-1]: e for e in rep.ends}
    assert by_name["pos"].fails is True
    assert by_name["neg"].fails is False
    assert str(by_name["pos"]).endswith("not form unique")
    assert str(by_name["neg"]).endswith("form unique")


def test_all_unit_bilateral_holds():
    fam = bilateral_chain(1.0, 1.0, 1.0, 1.0)
    rep = symmetric_ends_verdict(fam)
    assert rep.verdict.state is VerdictState.HOLDS
    assert "every end" in rep.verdict.reason
    assert all(e.fails is False for e in rep.ends)


def test_ends_capacity_matches_failure():
    rep = symmetric_ends_verdict(gallery("bilateral_mixed"), capacity_depths=(8, 16))
    by_name = {e.name.rsplit("/", 1)[-1]: e for e in rep.ends}
    assert by_name["pos"].capacity.classification == "positive-finite"
    assert by_name["neg"].capacity.classification == "zero"


def test_ends_verdict_blocked_by_unbounded_crossing():
    rep = symmetric_ends_verdict(gallery("ladder_instability"))
    assert not rep.hypotheses_met
    assert rep.verdict.state is VerdictState.INCONCLUSIVE
    assert "bounded crossing degree" in rep.verdict.reason
    # the per-end analysis still runs: the x rail end fails on its own
    assert any(e.fails for e in rep.ends)


def test_ends_verdict_uses_caller_x1_verdict():
    fam = gallery("bilateral_mixed")
    rep = symmetric_ends_verdict(fam, x1_verdict=verdict(VerdictState.FAILS))
    assert rep.verdict.state is VerdictState.INCONCLUSIVE
    assert "X1 piece" in rep.verdict.reason


def test_end_with_infinite_mass_is_form_unique_whatever_its_resistance():
    # Kleene conjunction: a FAILS total-mass verdict decides the end even
    # when the resistance verdict is inconclusive
    fam = bilateral_chain(1.0, 1.0, 1.0, 1.0)
    neg = fam.end_profiles[1]
    undecided = dataclasses.replace(neg, boundary_tail=CustomTail(None), name="neg")
    fam = dataclasses.replace(fam, end_profiles=(fam.end_profiles[0], undecided))
    rep = symmetric_ends_verdict(fam)
    end = rep.ends[1]
    assert end.total_mass.state is VerdictState.FAILS
    assert end.resistance.state is VerdictState.INCONCLUSIVE
    assert end.fails is False
    assert rep.verdict.state is VerdictState.HOLDS


def test_ends_verdict_requires_end_profiles():
    with pytest.raises(PreconditionError, match="symmetric ends"):
        symmetric_ends_verdict(gallery("pendant_boundary"))


# ---------------------------------------------------------------------------
# instability analyzers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", [
    "pendant_instability", "star_instability", "ladder_instability",
])
def test_instability_examples_certify_divergence(name):
    rep = analyze_instability_example(gallery(name), depths=(12, 16, 20))
    assert rep.pattern_ok and rep.witness_diverges
    assert rep.verdict.state is VerdictState.HOLDS
    assert len(rep.rows) == 3
    witnesses = [row.witness_energy for row in rep.rows]
    assert witnesses[0] < witnesses[1] < witnesses[2]
    assert all(row.min_increment >= rep.floor for row in rep.rows)
    assert any("crossing degree unbounded" in note for note in rep.notes)


def test_pendant_increment_floor():
    # u(pendant) = u(chain)/2 on the equilibrium pattern, so each
    # vertical edge holds at least (u(0)/2)^2 = 1/4 of energy
    rep = analyze_instability_example(
        gallery("pendant_instability"), depths=(12, 20), floor=0.25
    )
    assert rep.witness_diverges
    for row in rep.rows:
        assert row.min_increment >= 0.25


def test_instability_rejects_wrong_kind():
    with pytest.raises(PreconditionError, match="no instability analysis"):
        analyze_instability_example(gallery("unit_chain"))


def test_instability_checks_series_hypotheses():
    # infinite chain mass: the counterexample construction does not apply
    fat = pendant_chain(geometric(2.0), 1.0, 1.0, 1.0)
    with pytest.raises(PreconditionError, match="total measure finite"):
        analyze_instability_example(fat)


def test_instability_depth_validation():
    fam = gallery("pendant_instability")
    with pytest.raises(ValueError, match="increasing"):
        analyze_instability_example(fam, depths=(20, 10))
    with pytest.raises(ValueError, match="at least two"):
        analyze_instability_example(fam, depths=(20,))
