"""The array numerics layer against the per-vertex code it replaced.

The references below are the earlier implementations, kept verbatim in
behaviour: the ``sorted({int(v) ...})`` / ``setdiff1d`` normalisation of
vertex sets at each call site, the per-vertex COO loop of the
free-boundary system, the ``tolil()`` zeroing of the cutoff metric, each
builder's vertex id arithmetic for the rails of its truncations, and the
per-radius profile lookups of the radial degrees, the quotient chain and
the harmonic recurrence.  The array versions must give the same arrays
bit for bit, and the same exception type and message.  Equilibrium
potentials, solved by leaf elimination, are held instead to 50-digit
solves, which the earlier SuperLU solve of the twice-sliced system, kept
as ``reference_equilibrium``, meets to the same bound.
"""

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra
from scipy.sparse.linalg import cg, spsolve

from formuniq import capacity
from formuniq.capacity import (
    DIRECT_SOLVE_LIMIT,
    cutoff_function,
    degree_path_lengths,
    equilibrium_potential,
    length_matrix,
    shortest_paths,
)
from formuniq.errors import PreconditionError, StructuralError
from formuniq.capacity import radial_boundary_reach
from formuniq.families import (
    GALLERY,
    WSS_GALLERY,
    Truncation,
    bilateral_chain,
    birth_death,
    double_ladder,
    gallery,
    geometric,
    linear,
    pendant_chain,
    power_seq,
    star_chain,
    wss_tree,
)
from formuniq.graph import WeightedGraph, form_norm_sq, format_graph_text, induced_subgraph, vertex_mask
from formuniq.harmonic import _dirichlet_system, solve_symmetric_harmonic, truncated_dirichlet_solve
from formuniq.series import PowerGeomTail, quotient_graph
from formuniq.stability import _family_x1, decompose
from formuniq.symmetry import sphere_decomposition
from scalar_reference import profile_at

# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def reference_ids(ids):
    return sorted({int(v) for v in ids})


def reference_site_ids(site, n, ids):
    """The vertex-set checks of each call site, in their order."""
    if site == "equilibrium":
        k = reference_ids(ids)
        if any(not 0 <= v < n for v in k):
            raise ValueError("constraint set references an unknown vertex")
        return k
    if site == "shortest_paths":
        src = reference_ids(ids)
        if not src:
            raise ValueError("source set is empty")
        for s in src:
            if not 0 <= s < n:
                raise ValueError(f"source vertex {s} out of range")
        return src
    if site == "spheres":
        roots = reference_ids(ids)
        if not roots:
            raise StructuralError("root set is empty")
        for r in roots:
            if not 0 <= r < n:
                raise ValueError(f"root vertex {r} out of range")
        return roots
    if site == "induced":
        keep = reference_ids(ids)
        if len(keep) == 0:
            raise ValueError("vertex selection is empty")
        if keep[0] < 0 or keep[-1] >= n:
            raise ValueError("vertex selection out of range")
        return keep
    assert site == "decompose"
    x1 = reference_ids(ids)
    if len(x1) and (x1[0] < 0 or x1[-1] >= n):
        raise ValueError("x1 references an unknown vertex")
    return x1


def reference_equilibrium(g, k_set):
    k = reference_site_ids("equilibrium", g.vertex_count, k_set)
    n = g.vertex_count
    if not k:
        return np.zeros(n), 0.0
    e = np.ones(n)
    free = np.setdiff1d(np.arange(n), np.array(k, dtype=int))
    if len(free):
        w = g.adjacency
        row_sums = np.asarray(w.sum(axis=1)).ravel()
        diag = g.measure + g.killing + row_sums
        a_ff = sp.diags(diag[free]) - w[free][:, free]
        rhs = np.asarray(w[free][:, k].sum(axis=1)).ravel()
        if len(free) <= DIRECT_SOLVE_LIMIT:
            sol = spsolve(a_ff.tocsc(), rhs)
        else:
            sol, info = cg(a_ff, rhs, rtol=1e-10, maxiter=10 * len(free))
            assert info == 0
        e[free] = np.clip(sol, 0.0, 1.0)
    return e, form_norm_sq(g, e)


def reference_dirichlet_system(g, alpha, root, value, interior_idx):
    """The per-vertex COO loop."""
    n = g.vertex_count
    unknowns = np.array([v for v in range(n) if v != root], dtype=np.int64)
    col_of = -np.ones(n, dtype=np.int64)
    col_of[unknowns] = np.arange(len(unknowns))
    rows, cols, vals = [], [], []
    rhs = np.zeros(len(interior_idx))
    indptr, indices, data = g.adjacency.indptr, g.adjacency.indices, g.adjacency.data
    for i, x in enumerate(interior_idx):
        nbrs = indices[indptr[x] : indptr[x + 1]]
        ws = data[indptr[x] : indptr[x + 1]]
        diag = ws.sum() + g.killing[x] + alpha * g.measure[x]
        if x == root:
            rhs[i] -= diag * value
        else:
            rows.append(i)
            cols.append(col_of[x])
            vals.append(diag)
        for y, w in zip(nbrs, ws):
            if y == root:
                rhs[i] += w * value
            else:
                rows.append(i)
                cols.append(col_of[y])
                vals.append(-w)
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(len(interior_idx), len(unknowns)))
    return mat, rhs


def reference_dirichlet(g, alpha, root, value, interior):
    interior_idx = np.unique(np.asarray(interior, dtype=np.int64))
    mat, rhs = reference_dirichlet_system(g, alpha, root, value, interior_idx)
    sol = spsolve(mat.tocsc(), rhs)
    u = np.empty(g.vertex_count)
    u[root] = value
    u[np.arange(g.vertex_count) != root] = sol
    return u


def reference_cutoff(g, y_set, x0, r):
    y = reference_ids(y_set)
    if x0 not in y:
        raise PreconditionError(f"center vertex {x0} is not in the cutoff region")
    inside = np.zeros(g.vertex_count, dtype=bool)
    inside[y] = True
    mat = length_matrix(g, degree_path_lengths(g)).tolil()
    outside = np.nonzero(~inside)[0]
    mat[outside, :] = 0
    mat[:, outside] = 0
    dist = np.asarray(dijkstra(mat.tocsr(), directed=False, indices=[x0], min_only=True))
    eta = np.clip((2 * r - dist) / r, 0.0, 1.0)
    eta[~np.isfinite(dist)] = 0.0
    return eta


def reference_reach_sigma(p):
    n = p.prefix_len
    deg = np.empty(n)
    for r in range(n):
        below = profile_at(p, "boundary", r - 1) if r > 0 else 0.0
        b, c, m = (profile_at(p, label, r) for label in ("boundary", "killing", "measure"))
        deg[r] = (b + below + c) / m
    with np.errstate(divide="ignore"):
        return np.maximum(deg[:-1], deg[1:]) ** -0.5


def reference_quotient(p, depth):
    edges = [(r, r + 1, profile_at(p, "boundary", r)) for r in range(depth)]
    m = [profile_at(p, "measure", r) for r in range(depth + 1)]
    c = [profile_at(p, "killing", r) for r in range(depth + 1)]
    return WeightedGraph(depth + 1, edges, m, c)


def reference_harmonic(p, alpha, u0, depth):
    u = np.empty(depth + 1)
    inc = np.empty(depth)
    l1 = np.empty(depth + 1)
    l2 = np.empty(depth + 1)
    en = np.empty(depth)
    u[0] = u0
    drive = 0.0
    acc_l1 = acc_l2 = acc_energy = 0.0
    with np.errstate(all="ignore"):
        for r in range(depth + 1):
            m_r = profile_at(p, "measure", r)
            c_r = profile_at(p, "killing", r)
            acc_l1 += u[r] * m_r
            acc_l2 += u[r] ** 2 * m_r
            l1[r], l2[r] = acc_l1, acc_l2
            if r == depth:
                break
            b_r = profile_at(p, "boundary", r)
            if not b_r > 0:
                raise StructuralError(f"layer boundary weight dB({r}) = {b_r} is not positive")
            drive += (c_r + alpha * m_r) * u[r]
            inc[r] = drive / b_r
            u[r + 1] = u[r] + inc[r]
            acc_energy += b_r * inc[r] ** 2 + c_r * u[r] ** 2
            en[r] = acc_energy
    return u, inc, l1, l2, en


def outcome(f):
    """A call's result, or the type and message of what it raised."""
    try:
        return f()
    except (ValueError, KeyError, OverflowError, StructuralError, PreconditionError) as exc:
        return type(exc), str(exc)


def assert_bits(got, want):
    """Equal dtype, shape and bytes (so -0.0 differs from 0.0)."""
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    if got.tobytes() != want.tobytes():
        np.testing.assert_array_equal(got, want)
        raise AssertionError(f"equal values, other bytes: {got!r} vs {want!r}")


def assert_same(got, want):
    if isinstance(want, tuple) and want and isinstance(want[0], type):
        assert got == want
    else:
        assert not (isinstance(got, tuple) and got and isinstance(got[0], type)), got
        for a, b in zip(got, want):
            assert_bits(a, b)


def assert_same_matrix(got, want):
    """Same format and shape, index arrays (values and dtypes) and data bytes."""
    assert (got.format, got.shape) == (want.format, want.shape)
    for field in ("indptr", "indices"):
        assert getattr(got, field).dtype == getattr(want, field).dtype, field
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field), err_msg=field)
    assert_bits(got.data, want.data)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


@st.composite
def connected_graphs(draw):
    """A random tree (vertex 0 a hub with up to all others as children)
    plus chords, integer or fractional weights, killing on some vertices."""
    n = draw(st.integers(2, 40))
    integral = draw(st.booleans())
    weight = st.integers(1, 4).map(float) if integral else st.floats(0.1, 10.0)
    hub = draw(st.integers(1, 12))
    fan = draw(st.integers(0, n))
    edges = [
        (0 if v < fan else draw(st.integers(max(0, v - hub), v - 1)), v, draw(weight))
        for v in range(1, n)
    ]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for x, y in draw(st.lists(pairs, max_size=3 * n)):
        if x != y:
            edges.append((x, y, draw(weight)))
    first = {}
    for x, y, w in edges:
        first.setdefault((min(x, y), max(x, y)), w)
    edges = [(x, y, w) for (x, y), w in first.items()]
    measure = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    killing = draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.5]), min_size=n, max_size=n))
    return WeightedGraph(n, edges, measure, killing)


def vertex_sets(n):
    """Id collections with duplicates, float ids, ids out of range
    (some beyond int64), nan and inf, as lists or as integer arrays."""
    ids = st.one_of(
        st.integers(0, n - 1),
        st.integers(0, n - 1),
        st.integers(-3, n + 3),
        st.floats(-1.5, n + 0.5),
        st.sampled_from([float("nan"), float("inf"), 2**63, -(2**70)]),
    )
    in_range = st.lists(st.integers(0, n - 1), max_size=2 * n)
    return st.one_of(
        st.lists(ids, max_size=2 * n),
        in_range,
        in_range.map(lambda v: np.array(v, dtype=np.int64)),
        st.lists(st.integers(-3, n + 3), max_size=2 * n).map(lambda v: np.array(v, dtype=np.int64)),
        in_range.map(lambda v: np.array(v, dtype=float)),
    )


# ---------------------------------------------------------------------------
# vertex sets
# ---------------------------------------------------------------------------


SITES = {
    "equilibrium": lambda g, ids: equilibrium_potential(g, ids),
    "shortest_paths": lambda g, ids: (shortest_paths(g, degree_path_lengths(g), ids),),
    "spheres": lambda g, ids: (
        np.array(sphere_decomposition(g, ids).root),
        sphere_decomposition(g, ids).radius_of,
    ),
    "induced": lambda g, ids: (
        np.array(format_graph_text(induced_subgraph(g, ids)[0])),
        induced_subgraph(g, ids)[1],
    ),
    "decompose": lambda g, ids: (
        lambda d: (d.x1, d.x2, d.edge_region, d.deg_boundary, np.array(repr(d.ends)))
    )(decompose(g, ids)),
}


@settings(max_examples=300, deadline=None)
@given(connected_graphs(), st.data())
def test_vertex_sets_normalise_as_at_each_call_site(g, data):
    n = g.vertex_count
    ids = data.draw(vertex_sets(n))
    for site, run in SITES.items():
        want = outcome(lambda: run(g, np.array(reference_site_ids(site, n, ids), dtype=np.int64)))
        assert_same(outcome(lambda: run(g, ids)), want)


def test_vertex_mask_forms():
    want = np.array([False, True, False, True])
    for ids in ([3, 1, 1], (1.9, 3.2), iter([3, 1]), np.array([3, 1], dtype=np.uint8), {1: 0, 3: 0}):
        np.testing.assert_array_equal(vertex_mask(4, ids, "unknown {v}"), want)
    with pytest.raises(ValueError, match="^unknown -2$"):
        vertex_mask(4, [5, -2, 7], "unknown {v}")
    with pytest.raises(ValueError, match="^unknown 18446744073709551615$"):
        vertex_mask(4, np.array([1, 2**64 - 1], dtype=np.uint64), "unknown {v}")
    with pytest.raises(ValueError, match=f"^unknown {2**70}$"):
        vertex_mask(4, [1, 2**70], "unknown {v}")
    with pytest.raises(ValueError, match="NaN"):
        vertex_mask(4, [1, float("nan")], "unknown {v}")
    with pytest.raises(OverflowError, match="infinity"):
        vertex_mask(4, np.array([1.0, np.inf]), "unknown {v}")


# ---------------------------------------------------------------------------
# equilibrium potentials
# ---------------------------------------------------------------------------


def mp_equilibrium(g, k):
    """The potential and capacity of K in 50-digit mpmath: the free system
    ``(M + C + D - B) u = B 1_K`` by Gaussian elimination of a vertex of
    least degree at each step."""
    in_k = set(reference_ids(k))
    with mpmath.workdps(50):
        row = {x: {x: mpmath.mpf(g.measure[x]) + mpmath.mpf(g.killing[x])}
               for x in range(g.vertex_count) if x not in in_k}
        rhs = dict.fromkeys(row, mpmath.mpf(0))
        for x, y, w in zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_w.tolist()):
            for a, c in ((x, y), (y, x)):
                if a in row:
                    row[a][a] += w
                    if c in row:
                        row[a][c] = -mpmath.mpf(w)
                    else:
                        rhs[a] += w
        order, live = [], set(row)
        while live:
            p = min(live, key=lambda x: (len(row[x]), x))
            live.remove(p)
            order.append(p)
            for q in [q for q in row[p] if q != p]:
                f = row[q].pop(p) / row[p][p]
                for c, val in row[p].items():
                    if c != p:
                        row[q][c] = row[q].get(c, 0) - f * val
                rhs[q] -= f * rhs[p]
        u = [mpmath.mpf(1)] * g.vertex_count
        for p in reversed(order):
            off = sum(val * u[c] for c, val in row[p].items() if c != p)
            u[p] = (rhs[p] - off) / row[p][p]
        cap = sum(mpmath.mpf(m) * x**2 for m, x in zip(g.measure.tolist(), u))
        cap += sum(mpmath.mpf(c) * x**2 for c, x in zip(g.killing.tolist(), u))
        for x, y, w in zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_w.tolist()):
            cap += w * (u[x] - u[y]) ** 2
        return u, cap


def assert_near_mp(e, cap, want_u, want_cap, rtol=1e-12):
    """Every entry and the capacity within ``rtol`` of the 50-digit values."""
    for x, (got, want) in enumerate(zip(e.tolist(), want_u)):
        assert abs(got - want) <= rtol * abs(want), (x, got, float(want))
    assert abs(cap - want_cap) <= rtol * want_cap, (cap, float(want_cap))


@st.composite
def eliminable_graphs(draw):
    """Forests, cores (a cycle with chords) with trees hanging off them,
    components of two leaves joined to each other and components K may
    not touch; weights and measures log-uniform in [1e-3, 1e3]."""
    n = draw(st.integers(1, 30))
    value = st.floats(-3.0, 3.0).map(lambda t: 10.0**t)
    core = draw(st.sampled_from([0, 0, 3, 5, 8]))
    core = core if core <= n else 0
    edges = {(min(v, (v + 1) % core), max(v, (v + 1) % core)): draw(value) for v in range(core)}
    for x, y in draw(st.lists(st.tuples(st.integers(0, core), st.integers(0, core)), max_size=core)):
        if x != y and max(x, y) < core:
            edges.setdefault((min(x, y), max(x, y)), draw(value))
    for v in range(max(core, 1), n):
        parent = draw(st.none() | st.integers(max(0, v - 6), v - 1) | st.integers(0, v - 1))
        if parent is not None:
            edges[(parent, v)] = draw(value)
    measure = draw(st.lists(value, min_size=n, max_size=n))
    killing = draw(st.lists(st.just(0.0) | value, min_size=n, max_size=n))
    return WeightedGraph(n, [(x, y, w) for (x, y), w in edges.items()], measure, killing)


@settings(max_examples=300, deadline=None)
@given(connected_graphs(), st.data())
def test_equilibrium_matches_the_50_digit_solve(g, data):
    # the twice-sliced SuperLU solve, kept as the reference, meets the same bound
    n = g.vertex_count
    k = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    if data.draw(st.booleans()):
        k = np.array(k, dtype=np.int64)
    want_u, want_cap = mp_equilibrium(g, k)
    assert_near_mp(*equilibrium_potential(g, k), want_u, want_cap)
    assert_near_mp(*reference_equilibrium(g, k), want_u, want_cap)


@settings(max_examples=300, deadline=None)
@given(eliminable_graphs(), st.data())
def test_equilibrium_on_forests_and_hanging_trees_matches_the_50_digit_solve(g, data):
    n = g.vertex_count
    k = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    assert_near_mp(*equilibrium_potential(g, k), *mp_equilibrium(g, k))


@pytest.mark.parametrize("heavy, light", [(1e3, 1e-3), (1e3, 1e-1), (10.0, 1e-3)])
def test_equilibrium_light_vertices_on_heavy_edges_keep_their_digits(heavy, light):
    # a star: the leaf x hands its hub w s_x / (w + s_x), about s_x; written
    # as w - w^2 / (w + s_x) it would lose the digits of w / s_x.  A ring: no
    # leaves, so the core goes to SuperLU, whose pivots round s + 2w, and
    # the refinement step restores s (at 21b0343 these rings were off by up
    # to 1e-10).  Either way u leans on s: each vertex reaches K through one
    # light edge, so s_y is m + b(y, K) + the terms above, all about ``light``
    for size in (1, 2, 3, 5, 8, 40):
        n = size + 2
        star = [(1, v, heavy) for v in range(2, n)]
        ring = [(v, v + 1, heavy) for v in range(1, n - 1)] + [(1, n - 1, heavy)] * (size > 1)
        for edges in (star, ring):
            g = WeightedGraph(n, edges + [(0, 1, light)], np.full(n, light))
            assert_near_mp(*equilibrium_potential(g, [0]), *mp_equilibrium(g, [0]))


def test_equilibrium_rows_with_many_terms_in_k():
    # the hub has 3, 7, 8 and 40 fractional neighbours in K
    rng = np.random.default_rng(11)
    for spokes in (3, 7, 8, 40):
        n = spokes + 2
        edges = [(0, v, float(w)) for v, w in zip(range(1, n), rng.uniform(0.1, 3.0, n - 1))]
        g = WeightedGraph(n, edges, rng.uniform(0.1, 3.0, n), rng.uniform(0.0, 1.0, n))
        k = np.arange(1, n - 1)
        assert_near_mp(*equilibrium_potential(g, k), *mp_equilibrium(g, k))


def test_equilibrium_on_the_depth_16_tree_with_the_leaves_as_k(monkeypatch):
    # 65,535 unknowns, every one eliminated as a leaf: no sparse solve.  The
    # potential is radial: with a_r the capacity of sphere r within the ball
    # of radius r (a_0 = 1, a_r = 2^r + 2^r a_{r-1} / (a_{r-1} + 2^r)),
    # u(16) = 1 and u(r-1) = u(r) 2^r / (2^r + a_{r-1}); the capacity is a_16
    for name in ("splu", "cg"):
        monkeypatch.setattr(capacity, name, lambda *a, **kw: pytest.fail("core solve"))
    t = wss_tree(2).build(16)
    e, cap = equilibrium_potential(t.graph, np.flatnonzero(t.layer == 16))
    with mpmath.workdps(50):
        a = [mpmath.mpf(1)]
        for r in range(1, 17):
            a.append(2**r + 2**r * a[-1] / (a[-1] + 2**r))
        u = [mpmath.mpf(1)]
        for r in range(16, 0, -1):
            u.insert(0, u[0] * 2**r / (2**r + a[r - 1]))
    assert_near_mp(e, cap, [u[r] for r in t.layer.tolist()], a[16], rtol=1e-13)


def test_equilibrium_on_a_grid_through_cg(monkeypatch):
    # the 230 x 230 unit grid with K = column 0: 52,670 unknowns, none a
    # leaf, so all of them are the core, past DIRECT_SOLVE_LIMIT.  The
    # potential depends on the column only: 3 u_j = u_{j-1} + u_{j+1},
    # 2 u_last = u_{last-1}, u_0 = 1
    side = 230
    ids = np.arange(side * side).reshape(side, side)  # ids[row, column]
    pairs = np.concatenate([
        np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1),
        np.stack([ids[:-1, :].ravel(), ids[1:, :].ravel()], axis=1),
    ])
    edges = np.column_stack([pairs, np.ones(len(pairs))])
    g = WeightedGraph(side * side, edges, np.ones(side * side))
    assert side * (side - 1) > DIRECT_SOLVE_LIMIT
    calls, real_cg = [], capacity.cg
    monkeypatch.setattr(capacity, "cg", lambda *a, **kw: calls.append(1) or real_cg(*a, **kw))
    e, _ = equilibrium_potential(g, ids[:, 0])
    assert calls == [1]
    with mpmath.workdps(50):
        # u_j = q_j u_{j-1}, from the last column in: q_last = 1/2, q_j = 1 / (3 - q_{j+1})
        q = [mpmath.mpf(1) / 2]
        for _ in range(side - 2):
            q.insert(0, 1 / (3 - q[0]))
        col = [mpmath.mpf(1)]
        for qj in q:
            col.append(col[-1] * qj)
        col = [float(x) for x in col]
    np.testing.assert_allclose(e.reshape(side, side), np.broadcast_to(col, (side, side)), rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# free-boundary systems
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(connected_graphs(), st.data())
def test_dirichlet_system_matches_the_vertex_loop(g, data):
    n = g.vertex_count
    root = data.draw(st.integers(0, n - 1))
    free = data.draw(st.integers(0, n - 1))
    alpha = data.draw(st.floats(0.05, 4.0))
    value = data.draw(st.sampled_from([1.0, 2.5, 0.0, -0.0, -1.0]))
    interior = np.delete(np.arange(n), free)
    mat, rhs = _dirichlet_system(g, alpha, root, value, interior)
    want_mat, want_rhs = reference_dirichlet_system(g, alpha, root, value, interior)
    assert_same_matrix(mat, want_mat.tocsc())
    assert_bits(rhs, want_rhs)
    got = outcome(lambda: truncated_dirichlet_solve(g, alpha, (root, value), interior=interior))
    if not isinstance(got, tuple):
        assert_bits(got, reference_dirichlet(g, alpha, root, value, interior))


def test_dirichlet_rows_with_many_fractional_terms():
    # a hub row of 40 fractional weights leaves np.sum's left-to-right regime
    rng = np.random.default_rng(12)
    n = 41
    edges = [(0, v, float(w)) for v, w in zip(range(1, n), rng.uniform(0.1, 3.0, n - 1))]
    edges += [(v, v + 1, 1.0) for v in range(1, n - 1)]
    g = WeightedGraph(n, edges, rng.uniform(0.1, 3.0, n), rng.uniform(0.0, 1.0, n))
    for root in (0, 5):
        interior = np.arange(n - 1)
        mat, rhs = _dirichlet_system(g, 0.7, root, 1.0, interior)
        want_mat, want_rhs = reference_dirichlet_system(g, 0.7, root, 1.0, interior)
        assert_same_matrix(mat, want_mat.tocsc())
        assert_bits(rhs, want_rhs)


@pytest.mark.parametrize("name", ["pendant_instability", "star_instability", "ladder_instability"])
def test_instability_solves_on_the_benchmark_depths(name):
    fam = gallery(name)
    rail0 = "chain" if fam.kind in ("pendant", "star") else "x"
    for depth in (20, 40, 80, 160, 320):
        t = fam.build(depth)
        g = t.graph
        rail = np.array(reference_rails(fam.kind, t)[rail0])
        (anchor,), (rim,) = rail[t.layer[rail] == 0], rail[t.layer[rail] == depth]
        interior = np.setdiff1d(np.arange(g.vertex_count), [rim])
        mat, rhs = _dirichlet_system(g, 1.0, anchor, 1.0, interior)
        want_mat, want_rhs = reference_dirichlet_system(g, 1.0, anchor, 1.0, interior)
        assert_same_matrix(mat, want_mat.tocsc())
        assert_bits(rhs, want_rhs)
        assert_bits(
            truncated_dirichlet_solve(g, 1.0, (anchor, 1.0), interior=interior),
            reference_dirichlet(g, 1.0, anchor, 1.0, interior),
        )


@pytest.mark.parametrize("name", WSS_GALLERY)
def test_quotient_chain_solves_at_the_prefix_depth(name):
    # the harmonic benchmark's direct solve: the radial quotient chain to
    # depth 318, anchored at the root, the outermost radius free
    g = quotient_graph(gallery(name).profile, 318)
    interior = np.arange(318)
    for alpha in (0.25, 2.0):
        mat, rhs = _dirichlet_system(g, alpha, 0, 1.0, interior)
        want_mat, want_rhs = reference_dirichlet_system(g, alpha, 0, 1.0, interior)
        assert_same_matrix(mat, want_mat.tocsc())
        assert_bits(rhs, want_rhs)
        assert_same(
            outcome(lambda: (truncated_dirichlet_solve(g, alpha, (0, 1.0)),)),
            outcome(lambda: (reference_dirichlet(g, alpha, 0, 1.0, interior),)),
        )


def test_interior_ids_are_checked():
    g = gallery("unit_chain").build(6).graph
    u = truncated_dirichlet_solve(g, 1.0, (0, 1.0), interior=[0, 1, 2, 3, 4, 5])
    np.testing.assert_array_equal(u, [1.0, 2.0, 5.0, 13.0, 34.0, 89.0, 233.0])
    # a negative id used to wrap around to the rim, an id past the end to
    # raise IndexError
    for interior in ([-1, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 9], np.array([0, 1, 2, 3, 4, 7])):
        with pytest.raises(ValueError, match="^interior references an unknown vertex$"):
            truncated_dirichlet_solve(g, 1.0, (0, 1.0), interior=interior)


# ---------------------------------------------------------------------------
# cutoff functions
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(connected_graphs(), st.data())
def test_cutoff_matches_the_lil_zeroing(g, data):
    n = g.vertex_count
    y = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    x0 = data.draw(st.sampled_from(y + [data.draw(st.integers(0, n - 1))]))
    r = data.draw(st.floats(0.1, 5.0))
    assert_same(
        outcome(lambda: (cutoff_function(g, y, x0, r),)),
        outcome(lambda: (reference_cutoff(g, y, x0, r),)),
    )


def test_cutoff_region_ids_are_checked():
    g = gallery("unit_chain").build(4).graph
    # -1 used to mark the last vertex, 7 to raise IndexError
    for y in ([0, 1, -1], [0, 1, 7]):
        with pytest.raises(ValueError, match="^cutoff region references an unknown vertex$"):
            cutoff_function(g, y, 0, 1.0)


# ---------------------------------------------------------------------------
# truncation rails
# ---------------------------------------------------------------------------


def reference_rails(kind, t):
    """The rails of each builder's vertex id arithmetic."""
    k = range(t.depth + 1)
    if kind == "chain":
        return {"chain": list(k)}
    if kind in ("tree", "anti_tree"):
        return {"sphere": list(range(t.graph.vertex_count))}
    if kind == "bilateral":
        return {"origin": [0], "pos": [2 * r - 1 for r in k[1:]], "neg": [2 * r for r in k[1:]]}
    if kind == "ladder":
        return {s: [3 * i + j for i in k] for j, s in enumerate("xyz")}
    if kind == "pendant":
        return {"chain": [2 * i for i in k], "pendant": [2 * i + 1 for i in k]}
    return {"hub": [0], "chain": [1 + 2 * i for i in k], "pendant": [2 + 2 * i for i in k]}


def assert_rails(fam, depths):
    for depth in depths:
        t = fam.build(depth)
        want = reference_rails(fam.kind, t)
        assert list(t.rails) == list(want)
        for name, ids in want.items():
            assert_bits(t.rail(name), np.array(ids, dtype=np.int64))
            assert not t.rail(name).flags.writeable
        # every vertex on exactly one rail, each rail ordered by layer, then by id
        every = np.concatenate(list(t.rails.values()))
        assert sorted(every.tolist()) == list(range(t.graph.vertex_count))
        for ids in t.rails.values():
            keys = list(zip(t.layer[ids].tolist(), ids.tolist()))
            assert keys == sorted(keys)
        for name in ("missing", "", "chain:0"):
            if name not in want:
                assert_bits(t.rail(name), np.empty(0, dtype=np.int64))
        if fam.x1_role:
            assert_bits(_family_x1(t, fam.x1_role), t.rail(fam.x1_role))


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_rails_match_the_builders_arithmetic(name):
    assert_rails(gallery(name), (1, 3, 10))


CONSTRUCTED = {
    "birth_death": lambda: birth_death(power_seq(1.5), geometric(0.7), 0.25),
    "pendant_chain": lambda: pendant_chain(linear(), geometric(0.9), power_seq(-2.0), 3.0),
    "star_chain": lambda: star_chain(
        linear(2.0), power_seq(-1.0), 0.5, geometric(0.8), power_seq(-3.0), hub_m=4.0
    ),
    "double_ladder": lambda: double_ladder(1.0, 2.0, linear(), 0.5, 3.0, power_seq(-2.0), 0.25, linear()),
    "bilateral_chain": lambda: bilateral_chain(linear(), geometric(0.9), power_seq(2.0), 1.5),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTED))
def test_rails_match_the_builders_arithmetic_on_constructed_families(name):
    assert_rails(CONSTRUCTED[name](), (1, 10, 100))


# ---------------------------------------------------------------------------
# profile sequences read once
# ---------------------------------------------------------------------------


seqs = st.tuples(
    st.floats(1e-3, 1e3), st.floats(-4.0, 4.0), st.floats(0.25, 4.0)
).map(lambda t: PowerGeomTail(*t))


def assert_profile_reads(p, depth, alpha):
    """Radial degrees, quotient chain and recurrence inside the prefix."""
    assert_bits(radial_boundary_reach(p).sigma, reference_reach_sigma(p))
    got, want = quotient_graph(p, depth), reference_quotient(p, depth)
    for field in ("edge_u", "edge_v", "edge_w", "measure", "killing"):
        assert_bits(getattr(got, field), getattr(want, field))
    sol = solve_symmetric_harmonic(p, alpha, 1.0, depth)
    assert_same(
        (sol.values, sol.increments, sol.partial_l1, sol.partial_l2, sol.partial_energy),
        reference_harmonic(p, alpha, 1.0, depth),
    )


@settings(max_examples=100, deadline=None)
@given(seqs, seqs, st.none() | seqs, st.integers(1, 319), st.floats(0.01, 10.0))
def test_profile_reads_match_the_per_radius_lookups(b, m, c, depth, alpha):
    try:
        p = birth_death(b, m, c if c is not None else 0.0).profile
    except ValueError:
        return
    assert_profile_reads(p, depth, alpha)


@pytest.mark.parametrize("name", sorted(n for n in GALLERY if gallery(n).profile is not None))
def test_gallery_profile_reads_match_the_per_radius_lookups(name):
    p = gallery(name).profile
    assert_profile_reads(p, p.prefix_len - 1, 1.0)
