"""Core weighted-graph container and the energy functionals."""

import numpy as np
import pytest

from formuniq.errors import StructuralError
from formuniq.graph import (
    WeightedGraph,
    component_labels,
    degrees,
    energy,
    form_norm_sq,
    format_graph_text,
    induced_subgraph,
    laplacian,
    lp_norm,
    parse_graph_text,
    require_connected_to,
)


def path3(m=(1.0, 1.0, 1.0), c=None):
    return WeightedGraph(3, [(0, 1, 1.0), (1, 2, 2.0)], m, c)


def test_edges_canonicalized_and_sorted():
    g = WeightedGraph(4, [(2, 1, 3.0), (0, 3, 1.0), (1, 2, 3.0)], np.ones(4))
    assert g.edge_count == 2
    assert list(g.edge_u) == [0, 1]
    assert list(g.edge_v) == [3, 2]
    assert list(g.edge_w) == [1.0, 3.0]


def test_arrays_are_frozen():
    g = path3()
    with pytest.raises(ValueError):
        g.measure[0] = 5.0
    with pytest.raises(ValueError):
        g.edge_w[0] = 5.0


@pytest.mark.parametrize(
    "edges,message",
    [
        ([(0, 0, 1.0)], "loop"),
        ([(0, 5, 1.0)], "unknown vertex"),
        ([(0, 1, 0.0)], "non-positive"),
        ([(0, 1, -2.0)], "non-positive"),
        ([(0, 1, 1.0), (1, 0, 2.0)], "conflicting"),
    ],
)
def test_bad_edges_rejected(edges, message):
    with pytest.raises(ValueError, match=message):
        WeightedGraph(3, edges, np.ones(3))


def test_bad_vertex_data_rejected():
    with pytest.raises(ValueError):
        WeightedGraph(0, [], [])
    with pytest.raises(ValueError, match="positive"):
        WeightedGraph(2, [(0, 1, 1.0)], [1.0, 0.0])
    with pytest.raises(ValueError, match="nonnegative"):
        WeightedGraph(2, [(0, 1, 1.0)], [1.0, 1.0], [0.0, -1.0])
    with pytest.raises(ValueError, match="shape"):
        WeightedGraph(2, [(0, 1, 1.0)], [1.0, 1.0, 1.0])


def test_both_orientations_with_equal_weight_accepted():
    g = WeightedGraph(2, [(0, 1, 2.0), (1, 0, 2.0)], [1.0, 1.0])
    assert g.edge_count == 1


def test_laplacian_hand_value():
    # vertex 1 of the path: b(0,1)=1, b(1,2)=2, m(1)=1
    g = path3()
    f = np.array([1.0, 2.0, 4.0])
    lf = laplacian(g, f)
    assert lf[1] == pytest.approx(1 * (2 - 1) + 2 * (2 - 4))
    assert lf[0] == pytest.approx(1 * (1 - 2))


def test_laplacian_with_killing_and_measure():
    g = path3(m=(2.0, 1.0, 4.0), c=(1.0, 0.0, 3.0))
    f = np.array([2.0, -1.0, 0.5])
    lf = laplacian(g, f)
    assert lf[0] == pytest.approx((1 * (2 - (-1)) + 1.0 * 2) / 2.0)
    assert lf[2] == pytest.approx((2 * (0.5 - (-1)) + 3.0 * 0.5) / 4.0)


def test_energy_matches_defining_sum():
    g = path3(c=(0.5, 0.0, 1.0))
    f = np.array([3.0, 1.0, -2.0])
    expected = 1 * (3 - 1) ** 2 + 2 * (1 + 2) ** 2 + 0.5 * 9 + 1.0 * 4
    assert energy(g, f) == pytest.approx(expected, rel=1e-14)


def test_energy_is_greens_identity():
    # Q(f, h) = <L f, h>_m for finitely supported functions
    rng = np.random.default_rng(7)
    g = WeightedGraph(
        5,
        [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0), (3, 4, 1.5), (0, 4, 0.25)],
        rng.uniform(0.5, 2.0, 5),
        rng.uniform(0.0, 1.0, 5),
    )
    for _ in range(10):
        f = rng.normal(size=5)
        h = rng.normal(size=5)
        lhs = (energy(g, f + h) - energy(g, f - h)) / 4  # polarisation
        rhs = float(np.dot(laplacian(g, f) * g.measure, h))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_form_norm_and_lp_norms():
    g = path3(m=(2.0, 1.0, 0.5))
    f = np.array([1.0, -2.0, 4.0])
    assert form_norm_sq(g, f) == pytest.approx(
        2 + 4 + 8 + energy(g, f), rel=1e-14
    )
    assert lp_norm(g, f, 1) == pytest.approx(2 + 2 + 2)
    assert lp_norm(g, f, 2) == pytest.approx(np.sqrt(2 + 4 + 8))
    assert lp_norm(g, f, np.inf) == 4.0
    with pytest.raises(ValueError):
        lp_norm(g, f, 0)


def test_degrees():
    g = path3(m=(2.0, 1.0, 1.0), c=(0.0, 1.0, 0.0))
    assert degrees(g) == pytest.approx([0.5, 4.0, 2.0])


def test_components_and_connectivity_guard():
    g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)], np.ones(4))
    count, labels = component_labels(g)
    assert count == 2
    assert labels[0] == labels[1] and labels[2] == labels[3]
    require_connected_to(g, [0, 2])  # both components covered
    with pytest.raises(StructuralError, match="unreachable"):
        require_connected_to(g, [0])


def test_induced_subgraph_keeps_weights():
    g = WeightedGraph(
        4,
        [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 3, 4.0)],
        [1.0, 2.0, 3.0, 4.0],
        [0.1, 0.2, 0.3, 0.4],
    )
    sub, keep = induced_subgraph(g, [3, 1, 0])
    assert list(keep) == [0, 1, 3]
    assert sub.vertex_count == 3
    # surviving edges: (0,1) and (0,3); edge (1,2), (2,3) dropped
    assert sub.edge_count == 2
    assert list(sub.measure) == [1.0, 2.0, 4.0]
    assert list(sub.killing) == pytest.approx([0.1, 0.2, 0.4])
    with pytest.raises(ValueError):
        induced_subgraph(g, [])
    with pytest.raises(ValueError):
        induced_subgraph(g, [0, 9])


def test_text_round_trip():
    g = WeightedGraph(
        12,
        [(0, 1, 0.125), (1, 2, 3.0000000001), (2, 11, 1e22), (10, 3, 5e-324)],
        [1.0, 0.5, 2.0, float("inf"), 5e-324, 1e16, 0.1 + 0.2, 1e22, 1.0, 1.0, 1.0, 7.0],
        [0.0, 1.25, -0.0, 0.0, 1e16, 0.0, 0.0, 0.0, 0.0, 0.0, 0.1 + 0.2, 0.0],
    )
    text = format_graph_text(g)
    assert "E 2 11 1e+22\n" in text and "V 2 2.0 -0.0\n" in text
    h = parse_graph_text(text)
    assert h.vertex_count == 12
    for a in ("measure", "killing", "edge_u", "edge_v", "edge_w"):
        assert getattr(h, a).tobytes() == getattr(g, a).tobytes()  # -0.0 included


def test_parse_rejects_malformed_input():
    with pytest.raises(ValueError, match="line 1"):
        parse_graph_text("V 0\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_graph_text("V 0 1 0\nV 0 1 0\n")
    # vertex ids must be contiguous from zero
    with pytest.raises(ValueError):
        parse_graph_text("V 0 1 0\nV 2 1 0\nE 0 2 1\n")


def test_parse_ignores_comments_and_blanks():
    g = parse_graph_text(
        """
        # a small path
        V 0 1 0
        V 1 2 0.5   # heavier middle vertex
        V 2 1 0

        E 0 1 1.0
        E 1 2 2.0
        """
    )
    assert g.vertex_count == 3 and g.edge_count == 2
    assert g.measure[1] == 2.0 and g.killing[1] == 0.5
