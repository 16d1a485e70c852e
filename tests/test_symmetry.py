"""Sphere decompositions, the averaging projection, and symmetry checks."""

import numpy as np
import pytest

from formuniq.errors import StructuralError
from formuniq.families import gallery
from formuniq.graph import WeightedGraph, energy, laplacian, lp_norm
from formuniq.series import profile_from_graph
from formuniq.symmetry import (
    average,
    is_weakly_spherically_symmetric,
    sphere_decomposition,
)


def small_tree():
    """Root 0, two children 1-2, each with two children: radius 2."""
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0), (2, 5, 1.0), (2, 6, 1.0)]
    return WeightedGraph(7, edges, np.ones(7))


def test_sphere_structure_on_tree():
    g = small_tree()
    dec = sphere_decomposition(g, [0])
    assert dec.radius == 2
    assert [list(s) for s in dec.spheres] == [[0], [1, 2], [3, 4, 5, 6]]
    assert list(dec.radius_of) == [0, 1, 1, 2, 2, 2, 2]
    assert dec.boundary == pytest.approx([2.0, 4.0, 0.0])
    assert dec.sphere_measure == pytest.approx([1.0, 2.0, 4.0])
    # outward/inward degree split at the middle sphere
    assert dec.kappa_plus[1] == pytest.approx(2.0)
    assert dec.kappa_minus[1] == pytest.approx(1.0)
    assert dec.kappa_zero[1] == 0.0


def test_boundary_consistency_identity():
    # dB(r) = kappa_plus(r) m(S_r) = kappa_minus(r+1) m(S_{r+1})
    g = small_tree()
    dec = sphere_decomposition(g, [0])
    for r in range(dec.radius):
        s, s1 = dec.spheres[r], dec.spheres[r + 1]
        assert dec.boundary[r] == pytest.approx(
            float(dec.kappa_plus[s[0]] * dec.sphere_measure[r])
        )
        assert dec.boundary[r] == pytest.approx(
            float(dec.kappa_minus[s1[0]] * dec.sphere_measure[r + 1])
        )


def test_decomposition_rejects_bad_roots():
    g = small_tree()
    with pytest.raises(StructuralError, match="empty"):
        sphere_decomposition(g, [])
    with pytest.raises(ValueError):
        sphere_decomposition(g, [42])
    disconnected = WeightedGraph(3, [(0, 1, 1.0)], np.ones(3))
    with pytest.raises(StructuralError, match="unreachable"):
        sphere_decomposition(disconnected, [0])


def test_multi_vertex_root_set():
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], np.ones(4))
    dec = sphere_decomposition(g, [0, 3])
    assert list(dec.radius_of) == [0, 1, 1, 0]
    assert dec.radius == 1


def test_average_projection_basics():
    g = small_tree()
    dec = sphere_decomposition(g, [0])
    f = np.array([1.0, 2.0, 4.0, 0.0, 1.0, 2.0, 3.0])
    af = average(g, dec, f)
    assert af[0] == 1.0
    assert af[1] == af[2] == pytest.approx(3.0)
    assert af[3] == pytest.approx(1.5)
    # idempotent
    assert average(g, dec, af) == pytest.approx(af)


def test_radial_laplacian_matches_vertex_laplacian():
    fam = gallery("binary_tree")
    trunc = fam.build(6)
    dec = sphere_decomposition(trunc.graph, [trunc.root])
    rng = np.random.default_rng(3)
    vals = rng.normal(size=dec.radius + 1)
    # on a sphere-constant function L acts as the quotient chain's Laplacian
    R = dec.radius
    chain = WeightedGraph(
        R + 1, [(r, r + 1, dec.boundary[r]) for r in range(R)],
        dec.sphere_measure, dec.sphere_killing,
    )
    assert laplacian(trunc.graph, vals[dec.radius_of]) == pytest.approx(
        laplacian(chain, vals)[dec.radius_of], rel=1e-12, abs=1e-12
    )


@pytest.mark.parametrize(
    "name", ["unit_chain", "binary_tree", "linear_anti_tree", "geom_mass_anti_tree"]
)
def test_gallery_truncations_are_wss(name):
    trunc = gallery(name).build(5)
    report = is_weakly_spherically_symmetric(trunc.graph, [trunc.root])
    assert report
    assert report.witness is None


def test_symmetry_violation_reports_witness():
    g = small_tree()
    # unbalance one leaf's measure: q stays 0 but kappa_minus differs
    m = np.ones(7)
    m[3] = 5.0
    h = WeightedGraph(7, zip(g.edge_u, g.edge_v, g.edge_w), m)
    report = is_weakly_spherically_symmetric(h, [0])
    assert not report
    w = report.witness
    assert w.quantity == "kappa_minus"
    assert w.radius == 2
    assert {w.vertex_a, w.vertex_b} <= {3, 4, 5, 6}
    assert "kappa_minus" in str(w)


def test_contraction_and_commutation_on_random_wss_graphs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        fam = gallery(rng.choice(["binary_tree", "linear_anti_tree"]))
        trunc = fam.build(4)
        g = trunc.graph
        # random sphere-constant measure keeps the symmetry
        dec0 = sphere_decomposition(g, [trunc.root])
        mr = rng.uniform(0.5, 2.0, dec0.radius + 1)
        g = WeightedGraph(
            g.vertex_count,
            zip(g.edge_u, g.edge_v, g.edge_w),
            mr[dec0.radius_of],
        )
        dec = sphere_decomposition(g, [trunc.root])
        assert is_weakly_spherically_symmetric(g, dec)
        f = rng.normal(size=g.vertex_count)
        af = average(g, dec, f)
        for p in (1.0, 2.0, np.inf):
            assert lp_norm(g, af, p) <= lp_norm(g, f, p) * (1 + 1e-12)
        assert energy(g, af) <= energy(g, f) * (1 + 1e-12) + 1e-12
        gap = laplacian(g, af) - average(g, dec, laplacian(g, f))
        assert np.max(np.abs(gap)) <= 1e-10


def test_commutation_fails_without_symmetry():
    # a path with one asymmetric branch is not WSS about vertex 0
    g = WeightedGraph(
        5, [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0), (3, 4, 1.0)], np.ones(5)
    )
    dec = sphere_decomposition(g, [0])
    assert not is_weakly_spherically_symmetric(g, dec)
    f = np.array([0.0, 0.0, 1.0, -1.0, 2.0])
    gap = laplacian(g, average(g, dec, f)) - average(g, dec, laplacian(g, f))
    assert np.max(np.abs(gap)) > 1e-3


# ---------------------------------------------------------------------------
# profiles read off graphs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,depth", [("binary_tree", 9), ("linear_anti_tree", 12), ("geom_mass_anti_tree", 6)]
)
def test_profile_from_graph_reproduces_the_family_prefix(name, depth):
    fam = gallery(name)
    trunc = fam.build(depth + 1)
    dec = sphere_decomposition(trunc.graph, [trunc.root])
    prof = profile_from_graph(trunc.graph, dec, depth, name="read")
    for field in ("boundary_prefix", "measure_prefix", "killing_prefix", "count_prefix"):
        np.testing.assert_array_equal(
            getattr(prof, field), getattr(fam.profile, field)[:depth], err_msg=field
        )
    assert prof.name == "read"


def test_profile_from_graph_needs_radius_and_symmetry():
    trunc = gallery("binary_tree").build(5)
    g = trunc.graph
    dec = sphere_decomposition(g, [trunc.root])
    profile_from_graph(g, dec, 5)
    with pytest.raises(StructuralError, match="radius 5"):
        profile_from_graph(g, dec, 6)
    with pytest.raises(ValueError, match="at least 1"):
        profile_from_graph(g, dec, 0)
    # one scaled measure on sphere 4 breaks the symmetry there
    m = np.array(g.measure)
    m[dec.spheres[4][1]] *= 2.0
    h = WeightedGraph(g.vertex_count, np.column_stack((g.edge_u, g.edge_v, g.edge_w)), m)
    dec_h = sphere_decomposition(h, [trunc.root])
    profile_from_graph(h, dec_h, 3)  # checks spheres 0..3 only
    with pytest.raises(StructuralError, match="not weakly spherically symmetric"):
        profile_from_graph(h, dec_h, 4)


def test_depth_16_binary_tree_decomposes_to_the_closed_form():
    trunc = gallery("binary_tree").build(16)  # 131071 vertices
    dec = sphere_decomposition(trunc.graph, [trunc.root])
    r = np.arange(17)
    assert trunc.graph.vertex_count == 2**17 - 1
    np.testing.assert_array_equal(dec.boundary[:16], 2.0 ** (r[:16] + 1))
    assert dec.boundary[16] == 0.0
    np.testing.assert_array_equal(dec.sphere_measure, 2.0**r)
    assert is_weakly_spherically_symmetric(trunc.graph, dec)
