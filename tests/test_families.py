"""Family builders: closed-form sequences, truncations, and profiles.

The core consistency requirement is that the three views a Family
packages — sequence specs, radial profile, finite truncations — agree
with each other.  We cross-check truncations against the profile via
sphere_decomposition, which is computed from the graph alone.
"""

import re
from unittest import mock

import numpy as np
import pytest

from formuniq import PreconditionError, StructuralError, gallery, gallery_names
from formuniq.families import (
    anti_tree,
    as_seq,
    bilateral_chain,
    birth_death,
    const,
    double_ladder,
    geometric,
    linear,
    pendant_chain,
    power_seq,
    star_chain,
    wss_tree,
)
from formuniq.graph import WeightedGraph
from formuniq.series import PowerGeomTail, parse_seq, quotient_graph
from formuniq.symmetry import sphere_decomposition
from scalar_reference import seq_at


# ---------------------------------------------------------------------------
# sequence specs
# ---------------------------------------------------------------------------


def test_seqspec_closed_form():
    s = PowerGeomTail(coeff=3.0, power=2.0, ratio=0.5)
    want = [3.0 * (r + 1) ** 2 * 0.5**r for r in range(10)]
    assert s.values(np.arange(10)).tolist() == pytest.approx(want)
    assert s.values(np.arange(6)).tolist() == [seq_at(s, r) for r in range(6)]


def test_seqspec_overrides_and_tail_start():
    s = PowerGeomTail(coeff=2.0, overrides=((0, 7.0), (3, 0.0)))
    assert s.values(np.array([0, 3, 1])).tolist() == [7.0, 0.0, 2.0]
    assert s.tail_start == 4
    assert PowerGeomTail().tail_start == 0
    t = s.tail_class()
    assert (t.coeff, t.power, t.ratio, t.overrides) == (2.0, 0.0, 1.0, ())
    assert t.tail_class() is t
    assert s.values(np.arange(5)).tolist() == [7.0, 2.0, 2.0, 0.0, 2.0]


def test_seqspec_is_zero():
    assert const(0.0).is_zero
    assert not const(1.0).is_zero
    assert not PowerGeomTail(coeff=0.0, overrides=((2, 1.0),)).is_zero
    assert PowerGeomTail(coeff=0.0, overrides=((2, 1.0),)).tail_class().is_zero
    assert PowerGeomTail(coeff=0.0, overrides=((2, 0.0),)).is_zero


def test_seqspec_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        PowerGeomTail(coeff=-1.0)
    with pytest.raises(ValueError, match="positive"):
        PowerGeomTail(ratio=0.0)
    with pytest.raises(ValueError, match="override index"):
        PowerGeomTail(overrides=((-1, 2.0),))


def test_helpers_agree_with_closed_forms():
    def at(seq, r):
        return seq.values(np.array([r]))[0]

    assert at(const(4.0), 17) == 4.0
    assert at(linear(2.0), 4) == 10.0
    assert at(power_seq(2), 3) == 16.0
    assert at(geometric(3.0, coeff=2.0), 2) == 18.0
    assert at(as_seq(2.5), 9) == 2.5
    s = linear()
    assert as_seq(s) is s


def test_parse_seq_defaults():
    assert parse_seq("2") == PowerGeomTail(coeff=2.0)
    assert parse_seq("2, 1") == PowerGeomTail(coeff=2.0, power=1.0)
    assert parse_seq("2,1,0.5") == PowerGeomTail(coeff=2.0, power=1.0, ratio=0.5)


def test_parse_seq_rejects_garbage():
    with pytest.raises(ValueError, match="bad sequence descriptor"):
        parse_seq("two")
    with pytest.raises(ValueError, match="C\\[,p\\[,rho\\]\\]"):
        parse_seq("1,2,3,4")


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


def test_birth_death_truncation_structure():
    fam = birth_death(geometric(2.0), geometric(0.5), const(0.25))
    assert fam.kind == "chain"
    t = fam.build(4)
    g = t.graph
    assert g.vertex_count == 5
    assert t.root == 0 and t.depth == 4
    assert list(t.rails) == ["chain"] and t.rail("chain").tolist() == list(range(5))
    np.testing.assert_array_equal(t.layer, np.arange(5))
    np.testing.assert_allclose(g.measure, [0.5**r for r in range(5)])
    np.testing.assert_allclose(g.killing, np.full(5, 0.25))
    got = {(u, v): w for u, v, w in zip(g.edge_u, g.edge_v, g.edge_w)}
    assert got == {(r, r + 1): pytest.approx(2.0**r) for r in range(4)}


def test_birth_death_profile_matches_sequences():
    fam = birth_death(power_seq(2), linear(), const(1.0))
    p = fam.profile
    r = np.arange(40)
    assert p.values("boundary", 40) == pytest.approx((r + 1.0) ** 2)
    assert p.values("measure", 40) == pytest.approx(r + 1.0)
    assert p.values("killing", 40) == pytest.approx(np.ones(40))
    assert p.values("count", 40).tolist() == [1.0] * 40


def test_build_depth_must_be_positive():
    fam = birth_death(1.0, 1.0)
    with pytest.raises(PreconditionError, match="depth"):
        fam.build(0)


# ---------------------------------------------------------------------------
# trees and anti-trees
# ---------------------------------------------------------------------------


def test_wss_tree_structure():
    fam = wss_tree(2)
    assert fam.kind == "tree"
    t = fam.build(3)
    g = t.graph
    assert g.vertex_count == 1 + 2 + 4 + 8
    assert list(t.rails) == ["sphere"] and t.rail("sphere").tolist() == list(range(15))
    # every vertex at radius < 3 has exactly 2 forward neighbours
    for r in range(3):
        at_r = [v for v in range(g.vertex_count) if t.layer[v] == r]
        assert len(at_r) == 2**r
    us, vs, ws = g.edge_u, g.edge_v, g.edge_w
    assert len(ws) == 2 + 4 + 8
    assert np.all(ws == 1.0)
    assert np.all(g.measure == 1.0)
    # forward degree of each non-leaf vertex is the branching number
    fwd = np.zeros(g.vertex_count)
    np.add.at(fwd, np.minimum(us, vs), 1.0)
    assert all(fwd[v] == 2 for v in range(7))


def test_wss_tree_rejects_growing_branching():
    with pytest.raises(PreconditionError, match="eventually constant"):
        wss_tree(linear())
    with pytest.raises(PreconditionError, match="eventually constant"):
        wss_tree(geometric(2.0))


@pytest.mark.parametrize("shape", [(2.0, 1.0), (0.0, 2.0)])
def test_a_zero_sequence_is_constant_only_with_a_constant_shape(shape):
    # C=0 is the zero sequence whatever its shape, but only C=0 p=0 rho=1
    # passes as a constant
    chain = (geometric(2.0), geometric(0.5), 1.0, 1.0, geometric(0.5))
    with pytest.raises(StructuralError, match="branching sequence must stay positive"):
        wss_tree(0.0)
    assert star_chain(*chain, hub_m=0.0).name == "star_chain"
    with pytest.raises(PreconditionError, match="eventually constant"):
        wss_tree(PowerGeomTail(0.0, *shape))
    with pytest.raises(PreconditionError, match="hub_m must be a constant"):
        star_chain(*chain, hub_m=PowerGeomTail(0.0, *shape))


def test_wss_tree_rejects_fractional_branching():
    with pytest.raises(PreconditionError, match="integers >= 1"):
        wss_tree(const(1.5))


def test_wss_tree_sphere_counts_multiply():
    # branching 3,3,2,2,2,... via overrides
    fam = wss_tree(PowerGeomTail(coeff=2.0, overrides=((0, 3.0), (1, 3.0))), prefix_len=24)
    p = fam.profile
    counts = p.values("count", 6).tolist()
    assert counts == [1, 3, 9, 18, 36, 72]
    assert p.values("boundary", 3)[2] == pytest.approx(9 * 2)


def test_anti_tree_structure():
    fam = anti_tree(linear(), 1.0)
    assert fam.kind == "anti_tree"
    t = fam.build(3)
    g = t.graph
    assert g.vertex_count == 1 + 2 + 3 + 4
    us, vs, ws = g.edge_u, g.edge_v, g.edge_w
    # complete bipartite between consecutive spheres
    assert len(ws) == 1 * 2 + 2 * 3 + 3 * 4
    assert np.all(ws == 1.0)
    assert fam.profile.values("boundary", 3)[2] == pytest.approx(12.0)


def test_anti_tree_needs_single_root():
    with pytest.raises(PreconditionError, match="s\\(0\\) must be 1"):
        anti_tree(const(2.0))


def test_anti_tree_sphere_measure():
    # spheres of 2^r vertices weighted 8^{-r} each: m(S_r) = 4^{-r}
    fam = gallery("geom_mass_anti_tree")
    p = fam.profile
    assert p.values("measure", 20) == pytest.approx(4.0 ** -np.arange(20))
    t = fam.build(4)
    for r in range(5):
        sphere = [v for v in range(t.graph.vertex_count) if t.layer[v] == r]
        assert t.graph.measure[sphere].sum() == pytest.approx(4.0**-r)


def test_sequence_overflow_is_reported():
    with pytest.raises(StructuralError, match="overflow"):
        birth_death(geometric(10.0), 1.0)
    # a zero sequence stays zero where its closed form would overflow
    fam = birth_death(1.0, 1.0, PowerGeomTail(0.0, 0.0, 1e10))
    assert fam.profile.killing_is_zero


@pytest.mark.parametrize("depth", [40, 70])
def test_deep_tree_truncation_is_refused_by_its_vertex_count(depth):
    n = 2 ** (depth + 1) - 1  # the count alone refuses, before any allocation
    with pytest.raises(StructuralError, match=f"depth-{depth} truncation has {n} vertices"):
        gallery("binary_tree").build(depth)


@pytest.mark.parametrize("name", gallery_names())
def test_builders_pass_edges_sorted_by_vertex_pair(name):
    # so that WeightedGraph keeps them without a sort
    seen = []
    real = WeightedGraph._from_columns

    def spy(n, u, v, w, **kw):
        seen.append((n, u, v))
        return real(n, u, v, w, **kw)

    with mock.patch.object(WeightedGraph, "_from_columns", spy):
        gallery(name).build(6)
    (n, u, v), = seen
    assert u.dtype.kind == v.dtype.kind == "i"
    assert np.all(u < v)
    assert np.all(np.diff(u * n + v) > 0)


DOUBLES, HALVES = "1*(r+1)^0*2^r", "1*(r+1)^0*0.5^r"


@pytest.mark.parametrize(
    "fam,form,layer",
    [
        # 2^1025 overflows, and 0.5^1075 underflows to zero
        (pendant_chain(geometric(2.0), 1.0, 1.0, 1.0), DOUBLES, 1025),
        (pendant_chain(1.0, geometric(0.5), 1.0, 1.0), HALVES, 1075),
        (pendant_chain(1.0, 1.0, 1.0, geometric(0.5)), HALVES, 1075),
        (star_chain(1.0, 1.0, 1.0, 1.0, geometric(0.5)), HALVES, 1075),
        (double_ladder(1.0, 1.0, 1.0, 1.0, 1.0, geometric(0.5), 1.0, 1.0), HALVES, 1075),
        (bilateral_chain(1.0, 1.0, geometric(2.0), 1.0), DOUBLES, 1025),
        # the chain used to write inf weights and zero killings
        (birth_death(geometric(2.0), 1.0), DOUBLES, 1025),
        (gallery("geometric_chain"), DOUBLES, 1025),
        (birth_death(1.0, 1.0, geometric(0.5)), HALVES, 1075),
    ],
)
def test_a_closed_form_past_the_float_range_names_its_layer(fam, form, layer):
    message = f"{form} leaves the float range at layer {layer}; use a smaller depth"
    with pytest.raises(StructuralError, match=re.escape(message)):
        fam.build(1100)
    fam.build(1000)


def test_an_override_is_not_a_closed_form_value():
    # an override of zero is the graph's to refuse, as any zero weight
    fam = pendant_chain(1.0, 1.0, PowerGeomTail(1.0, overrides=((3, 0.0),)), 1.0)
    with pytest.raises(ValueError, match="non-positive weight 0.0") as exc:
        fam.build(5)
    assert not isinstance(exc.value, StructuralError)


def test_sequence_underflow_is_reported():
    with pytest.raises(StructuralError, match="positive"):
        birth_death(1.0, geometric(0.01))


def test_chain_truncations_read_the_profile_bit_for_bit():
    # past the short prefix the profile reads its tail class; both views
    # evaluate the closed form the same way
    rng = np.random.default_rng(11)
    for _ in range(50):
        b, m, c = (
            PowerGeomTail(10 ** rng.uniform(-3, 3), rng.uniform(-4, 4), rng.uniform(0.25, 4),
                    overrides=((int(rng.integers(8)), rng.uniform(0.5, 2)),))
            for _ in range(3)
        )
        fam = birth_death(b, m, c, prefix_len=8)
        got, want = fam.build(40).graph, quotient_graph(fam.profile, 40)
        for field in ("edge_u", "edge_v", "edge_w", "measure", "killing"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), (b, m, c)


@pytest.mark.parametrize("name", ["geometric_chain", "unit_chain", "square_chain",
                                  "binary_tree", "linear_anti_tree",
                                  "quadratic_anti_tree", "geom_mass_anti_tree"])
def test_truncation_agrees_with_profile(name):
    """sphere_decomposition of a truncation reproduces the profile data."""
    fam = gallery(name)
    t = fam.build(5)
    dec = sphere_decomposition(t.graph, [t.root])
    assert dec.radius == 5
    p = fam.profile
    boundary, measure, count = (p.values(label, 6) for label in ("boundary", "measure", "count"))
    for r in range(5):
        assert dec.boundary[r] == pytest.approx(boundary[r], rel=1e-12)
    for r in range(6):
        assert dec.sphere_measure[r] == pytest.approx(measure[r], rel=1e-12)
        assert len(dec.spheres[r]) == int(count[r])


# ---------------------------------------------------------------------------
# truncation rails
# ---------------------------------------------------------------------------


def test_rail_lookup():
    t = gallery("pendant_instability").build(4)
    assert t.rail("chain")[0] == 0
    assert t.rail("pendant")[2] == 5
    assert t.rail("hub").tolist() == [] and t.rail("hub").dtype == np.int64
    chain = t.rail("chain")
    assert [t.layer[v] for v in chain] == list(range(5))
    assert list(t.rails) == ["chain", "pendant"]


# ---------------------------------------------------------------------------
# composite families
# ---------------------------------------------------------------------------


def test_bilateral_chain_layout():
    fam = bilateral_chain(geometric(2.0), geometric(0.5), 1.0, 1.0)
    assert fam.kind == "bilateral" and fam.x1_role == "origin"
    t = fam.build(3)
    g = t.graph
    assert g.vertex_count == 7
    (origin,) = t.rail("origin")
    assert t.layer[origin] == 0
    pos, neg = t.rail("pos"), t.rail("neg")
    assert len(pos) == len(neg) == 3
    # positive side carries the geometric data, negative side is unit
    assert g.measure[origin] == pytest.approx(1.0)  # pos_m(0) = 0.5^0
    assert g.measure[pos[1]] == pytest.approx(0.25)
    assert g.measure[neg[1]] == pytest.approx(1.0)
    weights = {(u, v): w for u, v, w in zip(g.edge_u, g.edge_v, g.edge_w)}

    def w(a, b):
        return weights[(min(a, b), max(a, b))]

    assert w(origin, pos[0]) == pytest.approx(1.0)
    assert w(pos[0], pos[1]) == pytest.approx(2.0)
    assert w(origin, neg[0]) == pytest.approx(1.0)


def test_bilateral_end_profiles_are_shifted():
    fam = bilateral_chain(geometric(2.0), geometric(0.5), 1.0, 1.0)
    pos_end, neg_end = fam.end_profiles
    # the end starts one step from the origin, so its data begins at r=1
    assert pos_end.values("boundary", 1)[0] == pytest.approx(2.0)
    assert pos_end.values("measure", 1)[0] == pytest.approx(0.5)
    assert neg_end.values("boundary", 1)[0] == pytest.approx(1.0)


def test_pendant_chain_layout():
    fam = pendant_chain(geometric(2.0), geometric(0.5), const(3.0), const(0.5))
    assert fam.kind == "pendant" and fam.x1_role == "chain"
    t = fam.build(3)
    g = t.graph
    assert g.vertex_count == 8
    chain, pend = t.rail("chain"), t.rail("pendant")
    assert len(chain) == len(pend) == 4
    weights = {(u, v): w for u, v, w in zip(g.edge_u, g.edge_v, g.edge_w)}
    for k in range(4):
        assert weights[tuple(sorted((chain[k], pend[k])))] == pytest.approx(3.0)
        assert g.measure[pend[k]] == pytest.approx(0.5)
    # chain view doubles as the X1 profile
    assert fam.x1_profile.values("boundary", 2)[1] == pytest.approx(2.0)
    assert fam.x1_profile.values("measure", 3)[2] == pytest.approx(0.25)


def test_star_chain_hub_row_must_be_summable():
    with pytest.raises(PreconditionError, match="summable"):
        star_chain(geometric(2.0), geometric(0.5), 1.0, 1.0, const(1.0))


def test_star_chain_layout():
    fam = star_chain(geometric(2.0), geometric(0.5), 1.0, 1.0, geometric(0.5), 2.0)
    t = fam.build(2)
    g = t.graph
    assert g.vertex_count == 7
    (hub,) = t.rail("hub")
    assert g.measure[hub] == pytest.approx(2.0)
    pend = t.rail("pendant")
    weights = {(u, v): w for u, v, w in zip(g.edge_u, g.edge_v, g.edge_w)}
    for k, x in enumerate(pend):
        assert weights[tuple(sorted((hub, x)))] == pytest.approx(0.5**k)


def test_double_ladder_layout():
    fam = double_ladder(geometric(2.0), geometric(0.5), 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    assert fam.kind == "ladder" and fam.x1_role == "y"
    t = fam.build(2)
    g = t.graph
    assert g.vertex_count == 9
    xs, ys, zs = t.rail("x"), t.rail("y"), t.rail("z")
    weights = {(u, v): w for u, v, w in zip(g.edge_u, g.edge_v, g.edge_w)}
    for k in range(3):
        assert tuple(sorted((xs[k], ys[k]))) in weights
        assert tuple(sorted((ys[k], zs[k]))) in weights
        assert tuple(sorted((xs[k], zs[k]))) not in weights
    assert g.measure[xs[2]] == pytest.approx(0.25)
    x_end, z_end = fam.end_profiles
    assert x_end.values("boundary", 2)[1] == pytest.approx(2.0)
    assert z_end.values("boundary", 2)[1] == pytest.approx(1.0)
    assert fam.x1_profile.values("measure", 1)[0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# gallery
# ---------------------------------------------------------------------------


def test_gallery_names_are_stable():
    names = gallery_names()
    assert len(names) == 12
    assert "geometric_chain" in names and "ladder_instability" in names
    for name in names:
        fam = gallery(name)
        assert fam.name == name
        fam.build(2)  # everything builds at small depth


def test_gallery_rejects_unknown_names():
    with pytest.raises(KeyError, match="unknown family"):
        gallery("klein_bottle")


def test_symmetric_members_carry_profiles():
    wss = {"geometric_chain", "unit_chain", "square_chain", "binary_tree",
           "linear_anti_tree", "quadratic_anti_tree", "geom_mass_anti_tree"}
    for name in gallery_names():
        fam = gallery(name)
        if name in wss:
            assert fam.profile is not None
        else:
            assert fam.profile is None
            assert fam.end_profiles or fam.x1_profile is not None
