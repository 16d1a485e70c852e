"""The array graph layer against the per-edge and per-vertex loops it replaced.

The references below are the earlier implementations, kept verbatim in
behaviour: the dict loop of the ``WeightedGraph`` constructor, the
Python BFS with its per-vertex degree split in ``sphere_decomposition``,
the per-component scan of ``stability.decompose`` and the nested loops
of the tree and anti-tree builders.  The array versions must give the
same arrays bit for bit, and the same error messages.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from formuniq.errors import StructuralError
from formuniq.families import (
    anti_tree,
    birth_death,
    gallery,
    gallery_names,
    geometric,
    linear,
    pendant_chain,
    SeqSpec,
    wss_tree,
)
from formuniq.graph import (
    SYMMETRY_TOL,
    WeightedGraph,
    component_labels,
    induced_subgraph,
)
from formuniq.series import PowerGeomTail, quotient_graph
from formuniq.stability import EDGE_CROSS, decompose
from formuniq.symmetry import (
    SymmetryReport,
    SymmetryWitness,
    is_weakly_spherically_symmetric,
    sphere_decomposition,
)
from scalar_reference import profile_at, seq_at

# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def reference_edges(n, edges):
    """Edge arrays of the per-edge dict loop (raises its ValueErrors)."""
    weights = {}
    for x, y, b in edges:
        x, y = int(x), int(y)
        if not (0 <= x < n and 0 <= y < n):
            raise ValueError(f"edge ({x},{y}) references an unknown vertex")
        if x == y:
            raise ValueError(f"loop at vertex {x} is not allowed")
        b = float(b)
        if not b > 0:
            raise ValueError(f"edge ({x},{y}) has non-positive weight {b}")
        key = (min(x, y), max(x, y))
        if key in weights:
            a = weights[key]
            if not abs(a - b) <= SYMMETRY_TOL * max(1.0, abs(a), abs(b)):
                raise ValueError(f"conflicting weights for edge {key}: {a} vs {b}")
        else:
            weights[key] = b
    keys = sorted(weights)
    return (
        np.array([k[0] for k in keys], dtype=np.int64),
        np.array([k[1] for k in keys], dtype=np.int64),
        np.array([weights[k] for k in keys], dtype=float),
    )


def reference_adjacency(n, u, v, w):
    """The adjacency of one stable argsort over the doubled edge list."""
    rows = np.concatenate([v, u])
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    cols, vals = np.concatenate([u, v]), np.concatenate([w, w])
    return sp.csr_matrix((vals[order], cols[order], indptr), shape=(n, n))


def reference_unreachable_message(g, roots):
    _, labels = component_labels(g)
    root_labels = {labels[r] for r in roots}
    unreachable = [v for v in range(g.vertex_count) if labels[v] not in root_labels]
    if not unreachable:
        return None
    shown = ", ".join(map(str, unreachable[:10]))
    more = "" if len(unreachable) <= 10 else f" (+{len(unreachable) - 10} more)"
    return f"{len(unreachable)} vertices unreachable from the root set: {shown}{more}"


def reference_spheres(g, roots):
    """BFS spheres and the per-vertex degree split, vertex by vertex."""
    n = g.vertex_count
    radius = np.full(n, -1, dtype=np.int64)
    radius[roots] = 0
    frontier, depth = list(roots), 0
    spheres = [np.array(roots, dtype=np.int64)]
    indptr, indices, data = g.adjacency.indptr, g.adjacency.indices, g.adjacency.data
    while frontier:
        nxt = []
        for x in frontier:
            for y in indices[indptr[x] : indptr[x + 1]]:
                if radius[y] < 0:
                    radius[y] = depth + 1
                    nxt.append(y)
        if nxt:
            nxt.sort()
            spheres.append(np.array(nxt, dtype=np.int64))
        frontier = nxt
        depth += 1
    kplus, kminus, kzero = np.zeros(n), np.zeros(n), np.zeros(n)
    boundary = np.zeros(len(spheres))
    for x in range(n):
        rx = radius[x]
        ws = data[indptr[x] : indptr[x + 1]]
        rn = radius[indices[indptr[x] : indptr[x + 1]]]
        out = float(ws[rn == rx + 1].sum())
        kplus[x] = out / g.measure[x]
        kminus[x] = float(ws[rn == rx - 1].sum()) / g.measure[x]
        kzero[x] = float(ws[rn == rx].sum()) / g.measure[x]
        boundary[rx] += out
    return {
        "spheres": spheres,
        "radius_of": radius,
        "kappa_plus": kplus,
        "kappa_minus": kminus,
        "kappa_zero": kzero,
        "q": g.killing / g.measure,
        "boundary": boundary,
        "sphere_measure": np.array([g.measure[s].sum() for s in spheres]),
        "sphere_killing": np.array([g.killing[s].sum() for s in spheres]),
    }


def reference_symmetry(dec, max_radius=None):
    """The sphere by sphere scan: the first sphere, then the first of
    kappa_plus, kappa_minus and q, whose least and largest values differ."""
    top = dec.radius if max_radius is None else min(dec.radius, max_radius)
    for r in range(top + 1):
        s = dec.spheres[r]
        for values, name in (
            (dec.kappa_plus, "kappa_plus"), (dec.kappa_minus, "kappa_minus"), (dec.q, "q")
        ):
            vals = values[s]
            lo, hi = int(np.argmin(vals)), int(np.argmax(vals))
            a, b = vals[lo], vals[hi]
            if not abs(a - b) <= SYMMETRY_TOL * max(1.0, abs(a), abs(b)):
                witness = SymmetryWitness(r, int(s[lo]), int(s[hi]), name, float(a), float(b))
                return SymmetryReport(False, witness)
    return SymmetryReport(True, None)


def reference_ends(g, x1):
    in_x1 = np.zeros(g.vertex_count, dtype=bool)
    in_x1[x1] = True
    if in_x1.all():
        return ()
    sub, keep = induced_subgraph(g, np.nonzero(~in_x1)[0])
    count, labels = component_labels(sub)
    return tuple(
        tuple(int(keep[i]) for i in np.nonzero(labels == comp)[0]) for comp in range(count)
    )


def reference_tree_edges(kv, sizes):
    starts = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    edges = []
    for r in range(len(sizes) - 1):
        kk = int(kv[r])
        for i in range(sizes[r]):
            for j in range(kk):
                edges.append((starts[r] + i, starts[r + 1] + i * kk + j, 1.0))
    return edges


def reference_anti_tree_edges(sizes):
    starts = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    return [
        (starts[r] + i, starts[r + 1] + j, 1.0)
        for r in range(len(sizes) - 1)
        for i in range(sizes[r])
        for j in range(sizes[r + 1])
    ]


def assert_same_edges(g, want):
    for got, ref in zip((g.edge_u, g.edge_v, g.edge_w), want):
        assert got.dtype == ref.dtype
        np.testing.assert_array_equal(got, ref)


# ---------------------------------------------------------------------------
# the constructor
# ---------------------------------------------------------------------------

WEIGHTS = st.one_of(
    st.sampled_from([1.0, 2.0, 0.5, 1.0 + 1e-12, 0.0, -1.0, float("nan"), float("inf")]),
    st.floats(0.01, 100.0),
)


@st.composite
def edge_lists(draw):
    """Edges over n vertices: both orientations, exact repeats, repeats
    with another weight, loops, ids out of range and bad weights."""
    n = draw(st.integers(1, 7))
    ids = st.one_of(st.integers(0, n - 1), st.integers(-2, n + 1), st.floats(-1.5, n + 0.5))
    edges = draw(st.lists(st.tuples(ids, ids, WEIGHTS), max_size=14))
    for pick in draw(st.lists(st.integers(0, 100), max_size=6)):
        if edges:
            x, y, w = edges[pick % len(edges)]
            again = draw(st.sampled_from(["same", "reversed", "other"]))
            if again == "other":
                w = draw(WEIGHTS)
            edges.append((y, x, w) if again != "same" else (x, y, w))
    return n, draw(st.permutations(edges))


@settings(max_examples=400, deadline=None)
@given(edge_lists())
def test_constructor_matches_the_dict_loop(case):
    n, edges = case
    try:
        want = reference_edges(n, edges)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            WeightedGraph(n, edges, np.ones(n))
        assert str(got.value) == str(exc)
        return
    g = WeightedGraph(n, edges, np.ones(n))
    assert_same_edges(g, want)
    # an iterator and an (E, 3) array give the same graph
    assert_same_edges(WeightedGraph(n, iter(edges), np.ones(n)), want)
    as_array = np.array(edges, dtype=float).reshape(-1, 3)
    assert_same_edges(WeightedGraph(n, as_array, np.ones(n)), want)


def _truncation_edges(fam, depth):
    g = fam.build(depth).graph
    return g.vertex_count, np.column_stack((g.edge_u, g.edge_v, g.edge_w))


TRUNCATIONS = [
    _truncation_edges(anti_tree(linear()), 40),
    _truncation_edges(wss_tree(2), 12),
    _truncation_edges(pendant_chain(geometric(2.0), geometric(0.5), geometric(0.5), 1.0), 40),
]


@st.composite
def edge_arrays(draw):
    """Canonical edges (a random simple graph or a family truncation)
    given in order, shuffled or reversed, each row in either orientation,
    with repeats whose weights agree or clash."""
    if draw(st.booleans()):
        n, edges = draw(st.sampled_from(TRUNCATIONS))
    else:
        n = draw(st.integers(1, 40))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
        pairs = sorted({(min(e), max(e)) for e in draw(st.lists(pairs, max_size=60))})
        ws = draw(st.lists(st.floats(1e-300, 1e300), min_size=len(pairs), max_size=len(pairs)))
        edges = np.array([(x, y, b) for (x, y), b in zip(pairs, ws)], dtype=float).reshape(-1, 3)
    order = draw(st.sampled_from(["canonical", "shuffled", "reversed"]))
    if order == "shuffled":
        edges = edges[np.random.default_rng(draw(st.integers(0, 2**32))).permutation(len(edges))]
    elif order == "reversed":
        edges = edges[::-1]
    if len(edges) and draw(st.booleans()):
        edges = edges.copy()
        flip = np.random.default_rng(draw(st.integers(0, 2**32))).random(len(edges)) < 0.5
        edges[flip, :2] = edges[flip, 1::-1]
    repeats = draw(st.lists(st.tuples(st.integers(0, 10**6), st.booleans()), max_size=4))
    if len(edges) and repeats:
        extra = [edges[i % len(edges)].copy() for i, _ in repeats]
        for row, (_, clash) in zip(extra, repeats):
            row[2] = row[2] * 2.0 if clash else row[2]
        edges = np.concatenate([edges, extra])
    return n, edges


@settings(max_examples=150, deadline=None)
@given(edge_arrays())
def test_constructor_matches_the_argsort_adjacency(case):
    n, edges = case
    try:
        want = reference_edges(n, edges.tolist())
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            WeightedGraph(n, edges, np.ones(n))
        assert str(got.value) == str(exc)
        return
    g = WeightedGraph(n, edges, np.ones(n))
    assert_same_edges(g, want)
    assert not np.shares_memory(g.edge_w, edges)  # frozen arrays are the graph's own
    ref = reference_adjacency(n, *want)
    for a in ("data", "indices", "indptr"):
        got, exp = getattr(g.adjacency, a), getattr(ref, a)
        assert got.dtype == exp.dtype
        assert got.tobytes() == exp.tobytes()


def test_constructor_keeps_the_first_of_many_repeats():
    # hundreds of repeats in both orientations, weights within the
    # tolerance: only a stable sort keeps the first one listed
    rng = np.random.default_rng(7)
    x, y = rng.integers(0, 6, 600), rng.integers(0, 6, 600)
    keep = x != y
    w = 1.0 + 1e-11 * rng.integers(0, 50, 600)
    edges = list(zip(x[keep].tolist(), y[keep].tolist(), w[keep].tolist()))
    assert_same_edges(WeightedGraph(6, edges, np.ones(6)), reference_edges(6, edges))


def test_repeated_infinite_weight_conflicts_as_in_the_loop():
    # inf - inf is nan, never within the tolerance
    edges = [(0, 1, float("inf")), (1, 0, float("inf"))]
    with pytest.raises(ValueError) as want:
        reference_edges(2, edges)
    with pytest.raises(ValueError, match="inf vs inf") as got:
        WeightedGraph(2, edges, np.ones(2))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_vertex_ids_are_value_errors(bad):
    with pytest.raises(ValueError, match="unknown vertex"):
        WeightedGraph(3, [(0, 1, 1.0), (1, bad, 1.0)], np.ones(3))


def test_first_offending_edge_in_input_order_is_named():
    edges = [(0, 1, 1.0), (2, 2, 1.0), (1, 0, 2.0), (0, 9, 1.0)]
    with pytest.raises(ValueError, match="loop at vertex 2"):
        WeightedGraph(3, edges, np.ones(3))
    with pytest.raises(ValueError, match=r"conflicting weights for edge \(0, 1\): 1.0 vs 2.0"):
        WeightedGraph(3, edges[:1] + edges[2:], np.ones(3))


def test_malformed_edge_shapes_are_value_errors():
    with pytest.raises(ValueError, match="triples"):
        WeightedGraph(3, [(0, 1)], np.ones(3))
    with pytest.raises(ValueError):
        WeightedGraph(3, [(0, 1, 1.0), (1, 2)], np.ones(3))
    g = WeightedGraph(3, np.empty((0, 3)), np.ones(3))
    assert g.edge_count == 0 and g.edge_u.dtype == np.int64


@st.composite
def edge_columns(draw):
    """Integer id columns and a weight column over n vertices: a simple
    graph in canonical, shuffled or reversed order, rows in either
    orientation, repeats whose weights agree or clash, and defects (ids
    out of range or negative, loops, zero, negative, nan or inf weights)
    put anywhere, or no edges at all."""
    n = draw(st.integers(1, 30))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    pairs = sorted({(min(e), max(e)) for e in draw(st.lists(pairs, max_size=40))})
    ws = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(pairs), max_size=len(pairs)))
    rows = [[x, y, b] for (x, y), b in zip(pairs, ws)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    again = st.tuples(st.integers(0, 10**6), st.sampled_from(["same", "agree", "clash"]))
    for i, kind in draw(st.lists(again, max_size=4)):
        if rows:
            x, y, b = rows[i % len(rows)]
            b = {"same": b, "agree": b * (1 + 1e-12), "clash": b * 2.0}[kind]
            rows.append([y, x, b] if rng.random() < 0.5 else [x, y, b])
    order = draw(st.sampled_from(["canonical", "shuffled", "reversed"]))
    if order == "shuffled":
        rows = [rows[i] for i in rng.permutation(len(rows))]
    elif order == "reversed":
        rows = rows[::-1]
    for row in rows:
        if rng.random() < 0.3:
            row[:2] = row[1::-1]
    defects = st.sampled_from(["high", "negative", "loop", "zero", "below", "nan", "inf"])
    for i, kind in draw(st.lists(st.tuples(st.integers(0, 10**6), defects), max_size=2)):
        x, y = int(rng.integers(0, n)), int(rng.integers(0, n))
        row = {
            "high": [x, n + int(rng.integers(0, 3)), 1.0],
            "negative": [-1 - int(rng.integers(0, 3)), y, 1.0],
            "loop": [x, x, 1.0],
            "zero": [x, y, 0.0],
            "below": [x, y, -1.0],
            "nan": [x, y, float("nan")],
            "inf": [x, y, float("inf")],
        }[kind]
        rows.insert(i % (len(rows) + 1), row)
    dtype = draw(st.sampled_from([np.int64, np.int32]))
    u = np.array([r[0] for r in rows], dtype=dtype)
    v = np.array([r[1] for r in rows], dtype=dtype)
    w = np.array([r[2] for r in rows], dtype=float)
    return n, u, v, w


def _outcome(make):
    try:
        return make(), None
    except Exception as exc:  # noqa: BLE001 - compared below
        return None, exc


@settings(max_examples=400, deadline=None)
@given(edge_columns())
def test_columns_and_triples_give_the_same_graph(case):
    n, u, v, w = case
    triples = list(zip(u.tolist(), v.tolist(), w.tolist()))
    want, want_exc = _outcome(lambda: WeightedGraph(n, triples, np.ones(n)))
    got, got_exc = _outcome(lambda: WeightedGraph._from_columns(n, u, v, w, np.ones(n)))
    if want_exc is not None:
        assert type(got_exc) is type(want_exc)
        assert str(got_exc) == str(want_exc)
        return
    assert got_exc is None
    for a in ("edge_u", "edge_v", "edge_w"):
        x, y = getattr(got, a), getattr(want, a)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), a
        assert not any(np.shares_memory(x, col) for col in (u, v, w)), a
    for a in ("data", "indices", "indptr"):
        x, y = getattr(got.adjacency, a), getattr(want.adjacency, a)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), a


# ---------------------------------------------------------------------------
# sphere decompositions
# ---------------------------------------------------------------------------


@st.composite
def connected_graphs(draw):
    """A random tree (some vertices with many children) plus chords,
    integer or fractional weights, killing on some vertices, and a root
    set of one to three vertices."""
    n = draw(st.integers(1, 60))
    integral = draw(st.booleans())
    weight = st.integers(1, 4).map(float) if integral else st.floats(0.1, 10.0)
    hub = draw(st.integers(1, 12))
    fan = draw(st.integers(0, n))  # vertices below fan hang off vertex 0
    edges = [
        (0 if v < fan else draw(st.integers(max(0, v - hub), v - 1)), v, draw(weight))
        for v in range(1, n)
    ]
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for x, y in draw(st.lists(pairs, max_size=2 * n)):
            if x != y:
                edges.append((x, y, draw(weight)))
    measure = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    killing = draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.5]), min_size=n, max_size=n))
    # a chord may repeat a pair: keep the first weight, as the graph does
    first = {}
    for x, y, w in edges:
        first.setdefault((min(x, y), max(x, y)), w)
    edges = [(x, y, w) for (x, y), w in first.items()]
    roots = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    return WeightedGraph(n, edges, measure, killing), sorted(set(roots))


@settings(max_examples=200, deadline=None)
@given(connected_graphs())
def test_sphere_decomposition_matches_the_bfs_loop(case):
    g, roots = case
    dec = sphere_decomposition(g, roots)
    want = reference_spheres(g, roots)
    assert dec.root == tuple(roots)
    assert len(dec.spheres) == len(want["spheres"])
    for got, ref in zip(dec.spheres, want["spheres"]):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, ref)
    for field in (
        "radius_of", "kappa_plus", "kappa_minus", "kappa_zero", "q",
        "boundary", "sphere_measure", "sphere_killing",
    ):
        got, ref = getattr(dec, field), want[field]
        assert got.dtype == ref.dtype, field
        np.testing.assert_array_equal(got, ref, err_msg=field)


def test_sphere_sums_of_many_fractional_terms_match_the_loop():
    # vertex 0 has 40 outward neighbours of fractional weight, and sphere
    # 1 holds 40 fractional measures: both sums leave the left-to-right
    # regime of np.sum, where bincount alone would differ in the last bit
    rng = np.random.default_rng(3)
    n = 41
    edges = [(0, v, float(w)) for v, w in zip(range(1, n), rng.uniform(0.1, 3.0, n - 1))]
    g = WeightedGraph(n, edges, rng.uniform(0.1, 3.0, n), rng.uniform(0.0, 1.0, n))
    dec = sphere_decomposition(g, [0])
    want = reference_spheres(g, [0])
    for field in ("kappa_plus", "kappa_minus", "boundary", "sphere_measure", "sphere_killing"):
        np.testing.assert_array_equal(getattr(dec, field), want[field], err_msg=field)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 30), st.data())
def test_unreachable_vertices_are_listed_as_before(n, data):
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = {(min(x, y), max(x, y)) for x, y in data.draw(st.lists(pairs, max_size=n)) if x != y}
    g = WeightedGraph(n, [(x, y, 1.0) for x, y in edges], np.ones(n))
    roots = sorted(set(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))))
    message = reference_unreachable_message(g, roots)
    if message is None:
        sphere_decomposition(g, roots)
    else:
        with pytest.raises(StructuralError) as got:
            sphere_decomposition(g, roots)
        assert str(got.value) == message


# ---------------------------------------------------------------------------
# symmetry checks
# ---------------------------------------------------------------------------

RADII = (None, -2, -1, 0, 1, 3, 250, 255, 10**6)


def assert_same_reports(g, dec):
    # by repr, which tells every float apart and matches nan with nan
    for top in RADII:
        got = is_weakly_spherically_symmetric(g, dec, max_radius=top)
        assert repr(got) == repr(reference_symmetry(dec, top)), top


@pytest.mark.parametrize("name", gallery_names())
@pytest.mark.parametrize("depth", [1, 2, 6])
def test_symmetry_check_matches_the_sphere_scan_on_the_gallery(name, depth):
    trunc = gallery(name).build(depth)
    assert_same_reports(trunc.graph, sphere_decomposition(trunc.graph, [trunc.root]))


@pytest.mark.parametrize(
    "fam,depth",
    [(anti_tree(linear()), 12), (wss_tree(2), 7), (anti_tree(geometric(2.0), geometric(0.125)), 6)],
)
def test_symmetry_check_matches_the_sphere_scan_on_perturbed_graphs(fam, depth):
    # one measure, or one weight into a vertex from the sphere inside, scaled
    g = fam.build(depth).graph
    rng = np.random.default_rng(depth)
    for _ in range(40):
        x = int(rng.integers(1, g.vertex_count))
        factor = float(rng.choice([rng.uniform(0.3, 0.7), rng.uniform(1.5, 3.0)]))
        measure, weights = g.measure.copy(), g.edge_w.copy()
        if rng.random() < 0.5:
            measure[x] *= factor
        else:
            weights[np.flatnonzero(g.edge_v == x)[0]] *= factor
        h = WeightedGraph._from_columns(g.vertex_count, g.edge_u, g.edge_v, weights, measure)
        assert_same_reports(h, sphere_decomposition(h, [0]))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("depth", [240, 260, 300])
def test_symmetry_check_matches_the_sphere_scan_on_inf_and_nan_ratios(depth):
    # kappa_plus = dB(r) / m(S_r) = (2 / 0.12)^r is inf from r = 253 on,
    # and inf against inf is a difference, as for floats
    p = birth_death(PowerGeomTail(1, 0, 2), PowerGeomTail(1, 0, 0.12)).profile
    g = quotient_graph(p, depth)
    dec = sphere_decomposition(g, [0])
    assert_same_reports(g, dec)
    for field, at in (("kappa_plus", 7), ("kappa_minus", 1), ("q", 0)):
        values = getattr(dec, field).copy()
        values[at] = np.nan
        assert_same_reports(g, dataclasses.replace(dec, **{field: values}))


@settings(max_examples=200, deadline=None)
@given(connected_graphs())
def test_symmetry_check_matches_the_sphere_scan_on_random_graphs(case):
    g, roots = case
    assert_same_reports(g, sphere_decomposition(g, roots))


# ---------------------------------------------------------------------------
# decompositions and builders
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(connected_graphs(), st.data())
def test_decompose_lists_ends_as_the_component_scan(case, data):
    g, _ = case
    x1 = data.draw(st.lists(st.integers(0, g.vertex_count - 1), max_size=g.vertex_count))
    split = decompose(g, x1)
    assert split.ends == reference_ends(g, sorted(set(x1)))
    deg = np.zeros(g.vertex_count)
    cross = split.edge_region == EDGE_CROSS
    np.add.at(deg, g.edge_u[cross], g.edge_w[cross])
    np.add.at(deg, g.edge_v[cross], g.edge_w[cross])
    np.testing.assert_array_equal(split.deg_boundary, deg / g.measure)


def test_decompose_lists_ends_on_random_cuts_of_a_tree():
    # X2 a random subset of the depth-10 binary tree: many components,
    # of every size, labelled from the adjacency slice as before
    g = wss_tree(SeqSpec(2.0)).build(10).graph
    rng = np.random.default_rng(14)
    for _ in range(50):
        x2 = rng.random(g.vertex_count) < rng.uniform(0.05, 0.95)
        x1 = np.flatnonzero(~x2)
        assert decompose(g, x1).ends == reference_ends(g, x1.tolist())


@pytest.mark.parametrize(
    "fam,depth",
    [
        (wss_tree(2), 6),
        (wss_tree(3), 4),
        (wss_tree(SeqSpec(coeff=2.0, overrides=((0, 3.0), (1, 1.0))), prefix_len=24), 5),
    ],
)
def test_tree_builder_matches_the_nested_loops(fam, depth):
    trunc = fam.build(depth)
    kv = fam.params["k"].values(np.arange(depth))
    sizes = [int(profile_at(fam.profile, "count", r)) for r in range(depth + 1)]
    n = sum(sizes)
    assert_same_edges(trunc.graph, reference_edges(n, reference_tree_edges(kv, sizes)))
    assert trunc.roles == tuple(f"sphere:{r}" for r, s in enumerate(sizes) for _ in range(s))
    np.testing.assert_array_equal(trunc.layer, np.repeat(np.arange(depth + 1), sizes))


@pytest.mark.parametrize(
    "fam,depth",
    [
        (anti_tree(linear()), 1),
        (anti_tree(linear()), 2),
        (anti_tree(linear()), 7),
        (anti_tree(linear()), 40),
        (anti_tree(geometric(2.0), geometric(0.125)), 5),
        (gallery("quadratic_anti_tree"), 8),
    ],
)
def test_anti_tree_builder_matches_the_nested_loops(fam, depth):
    trunc = fam.build(depth)
    sizes = [int(seq_at(fam.params["s"], r)) for r in range(depth + 1)]
    n = sum(sizes)
    assert_same_edges(trunc.graph, reference_edges(n, reference_anti_tree_edges(sizes)))
    mv = fam.params["m_vertex"]
    np.testing.assert_array_equal(
        trunc.graph.measure, np.concatenate([np.full(s, seq_at(mv, r)) for r, s in enumerate(sizes)])
    )
    assert trunc.roles == tuple(f"sphere:{r}" for r, s in enumerate(sizes) for _ in range(s))
    assert trunc.layer.dtype == np.int64


def test_builders_refuse_depths_beyond_their_prefix():
    with pytest.raises(StructuralError, match="prefix"):
        anti_tree(linear(), prefix_len=10).build(10)
    anti_tree(linear(), prefix_len=10).build(9)
    with pytest.raises(StructuralError, match="prefix"):
        wss_tree(1, prefix_len=10).build(11)
    wss_tree(1, prefix_len=10).build(10)
