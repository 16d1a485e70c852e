"""Intrinsic edge metrics, Cauchy-boundary reach, and variational capacity.

The capacity of a vertex set K is the squared form norm of its
equilibrium potential: the minimizer of ``||u||^2 + Q(u)`` subject to
``u = 1`` on K.  Boundary capacity is estimated along a shrinking
sequence of metric neighborhoods of "infinity".  For a spherically
symmetric profile the neighborhood at scale eps is the union of all
spheres whose remaining radial sigma-length is below eps; its potential
is radial, so the value is one positive-term radial recurrence (the
capacity of the ball's outer sphere, grown one sphere at a time) plus
the (c+m)-mass of the constrained tail.  For composite families the
neighborhoods live in finite truncations, the values come from sparse
equilibrium solves, and the report tracks how they respond to
deepening the truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra
from scipy.sparse.linalg import cg, spsolve

from .errors import PreconditionError, StructuralError
from .families import Family
from .graph import WeightedGraph, degrees, form_norm_sq, vertex_mask
from .series import (
    CustomTail,
    PowerGeomTail,
    tail_add,
    tail_converges,
    tail_max,
    tail_mul,
    tail_reciprocal,
    tail_shift,
    tail_sqrt,
    tail_sum_exact,
)

DIRECT_SOLVE_LIMIT = 50_000
STABILITY_RTOL = 1e-3  # truncation-deepening stopping rule (0.1%)
EXTRAPOLATION_RTOL = 1e-2  # successive neighborhood values within 1%


# ---------------------------------------------------------------------------
# edge lengths and path metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeLengths:
    """Positive per-edge lengths aligned with a graph's edge arrays."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        if np.any(vals <= 0) or not np.all(np.isfinite(vals)):
            raise ValueError("edge lengths must be positive and finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def degree_path_lengths(g: WeightedGraph) -> EdgeLengths:
    """sigma(x, y) = min(Deg(x)^(-1/2), Deg(y)^(-1/2)).

    The larger-degree endpoint sets the edge length.  Strongly
    intrinsic by construction, since at every vertex
    sum_y b(x,y) / max(Deg(x), Deg(y)) <= sum_y b(x,y) / Deg(x) <= m(x).
    A degree past the float range raises :class:`StructuralError`.
    """
    with np.errstate(over="ignore"):
        deg = degrees(g)
    overflow = np.flatnonzero(~np.isfinite(deg))
    if len(overflow):
        raise StructuralError(
            f"the weighted degree of vertex {overflow[0]}, (sum of b + c) / m, "
            "leaves the float range"
        )
    pair_max = np.maximum(deg[g.edge_u], deg[g.edge_v])
    if np.any(pair_max <= 0):
        raise StructuralError("a vertex with an edge has zero weighted degree")
    return EdgeLengths(pair_max ** -0.5)


def length_matrix(g: WeightedGraph, lengths: EdgeLengths) -> sp.csr_matrix:
    """Symmetric sparse matrix of edge lengths (for shortest paths)."""
    vals = np.asarray(lengths.values, dtype=float)
    if vals.shape != g.edge_w.shape:
        raise ValueError("edge lengths do not match the graph's edge list")
    rows = np.concatenate([g.edge_u, g.edge_v])
    cols = np.concatenate([g.edge_v, g.edge_u])
    data = np.concatenate([vals, vals])
    return sp.csr_matrix((data, (rows, cols)), shape=(g.vertex_count,) * 2)


@dataclass(frozen=True)
class IntrinsicReport:
    strongly_intrinsic: bool
    worst_ratio: float
    worst_vertex: int

    def __bool__(self) -> bool:
        return self.strongly_intrinsic


def is_strongly_intrinsic(
    g: WeightedGraph, lengths: EdgeLengths, tol: float = 1e-12
) -> IntrinsicReport:
    """Check sum_y b(x,y) sigma^2(x,y) <= m(x) at every vertex."""
    load = np.zeros(g.vertex_count)
    contrib = g.edge_w * lengths.values**2
    np.add.at(load, g.edge_u, contrib)
    np.add.at(load, g.edge_v, contrib)
    ratios = load / g.measure
    worst = int(np.argmax(ratios))
    return IntrinsicReport(bool(ratios[worst] <= 1 + tol), float(ratios[worst]), worst)


def shortest_paths(
    g: WeightedGraph, lengths: EdgeLengths, sources: Sequence[int]
) -> np.ndarray:
    """d_sigma(x, sources) for every vertex (inf when unreachable).

    ``sources`` takes the forms :func:`~formuniq.graph.vertex_mask`
    accepts.
    """
    src = np.flatnonzero(vertex_mask(g.vertex_count, sources, "source vertex {v} out of range"))
    if not len(src):
        raise ValueError("source set is empty")
    mat = length_matrix(g, lengths)
    return np.asarray(dijkstra(mat, directed=False, indices=src, min_only=True))


def cutoff_function(
    g: WeightedGraph,
    y_set: Sequence[int],
    x0: int,
    r: float,
) -> np.ndarray:
    """Metric cutoff eta_r(x) = ((2r - d_Y(x, x0)) / r)_+ ^ 1 (capped at 1).

    d_Y is the path metric of :func:`degree_path_lengths` using only
    edges inside ``y_set`` (any form :func:`~formuniq.graph.vertex_mask`
    accepts); vertices outside (or unreachable inside) Y get 0.  That
    metric is strongly intrinsic, so with Y the whole vertex set the
    cutoff satisfies sum_y b(x,y)(eta(x) - eta(y))^2 <= m(x)/r^2 at
    every vertex; for a proper subset the bound is guaranteed at
    vertices all of whose neighbors lie in Y.
    """
    if r <= 0:
        raise ValueError("cutoff radius must be positive")
    inside = vertex_mask(g.vertex_count, y_set, "cutoff region references an unknown vertex")
    if x0 not in np.flatnonzero(inside):
        raise PreconditionError(f"center vertex {x0} is not in the cutoff region")
    mat = length_matrix(g, degree_path_lengths(g))
    # keep only the edges with both ends in Y
    rows = np.repeat(np.arange(g.vertex_count), np.diff(mat.indptr))
    mat.data[~(inside[rows] & inside[mat.indices])] = 0.0
    mat.eliminate_zeros()
    dist = np.asarray(dijkstra(mat, directed=False, indices=[x0], min_only=True))
    eta = np.clip((2 * r - dist) / r, 0.0, 1.0)
    eta[~np.isfinite(dist)] = 0.0
    return eta


# ---------------------------------------------------------------------------
# equilibrium potentials
# ---------------------------------------------------------------------------


def equilibrium_potential(
    g: WeightedGraph, k_set: Sequence[int]
) -> tuple[np.ndarray, float]:
    """Equilibrium potential of K and its capacity.

    Minimizes ``||u||^2 + Q(u)`` subject to ``u = 1`` on K, by solving
    the stationarity system ``(M + C + D - B) u = 0`` on the complement
    with the K-rows fixed at one; capacity is the minimizer's squared
    form norm.  ``k_set`` takes the forms
    :func:`~formuniq.graph.vertex_mask` accepts.  cap(empty) = 0 with
    the zero potential.
    """
    n = g.vertex_count
    in_k = vertex_mask(n, k_set, "constraint set references an unknown vertex")
    if not in_k.any():
        return np.zeros(n), 0.0
    e = np.ones(n)
    free = np.flatnonzero(~in_k)
    if len(free):
        w = g.adjacency
        row_sums = np.asarray(w.sum(axis=1)).ravel()
        diag = g.measure + g.killing + row_sums
        w_f = w[free]
        a_ff = sp.diags(diag[free]) - w_f[:, free]
        rhs = w_f @ in_k
        # rhs sums each free row over its K-columns in scipy's row-sum
        # order (the first term plus np.sum of the others), so that
        # potentials keep their bits; the product adds left to right,
        # which agrees up to two terms, and rows with three or more
        # terms in K are summed by scipy
        hits = np.concatenate(([0], np.cumsum(in_k[w_f.indices])))[w_f.indptr]
        redo = np.flatnonzero(np.diff(hits) >= 3)
        if len(redo):
            rhs[redo] = np.asarray(w_f[redo][:, in_k].sum(axis=1)).ravel()
        if len(free) <= DIRECT_SOLVE_LIMIT:
            # a_ff is a principal submatrix of the symmetric diag - W: its
            # CSR arrays are its CSC arrays
            sol = spsolve(sp.csc_matrix((a_ff.data, a_ff.indices, a_ff.indptr), a_ff.shape), rhs)
        else:
            sol, info = cg(a_ff, rhs, rtol=1e-10, maxiter=10 * len(free))
            if info != 0:
                raise StructuralError(f"iterative equilibrium solve failed (info={info})")
        residual = np.abs(a_ff @ sol - rhs).max()
        scale = max(np.abs(rhs).max(), np.abs(sol).max(), 1.0) * max(diag.max(), 1.0)
        if not np.all(np.isfinite(sol)) or residual > 1e-8 * scale:
            raise StructuralError("equilibrium solve did not converge")
        if sol.min() < -1e-8 or sol.max() > 1 + 1e-8:
            raise StructuralError(
                f"equilibrium potential escaped [0, 1]: range "
                f"[{sol.min():.3e}, {sol.max():.3e}]"
            )
        e[free] = np.clip(sol, 0.0, 1.0)
    return e, form_norm_sq(g, e)


# ---------------------------------------------------------------------------
# radial boundary reach (profile route)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialReach:
    """Total sigma-length of the radial direction of a profile.

    ``finite`` is None when the tail model cannot decide; ``sigma[r]``
    is the exact inter-sphere length for r below the profile prefix,
    and ``tail_length[r]`` the remaining length from sphere r outward
    (tail part summed from the closed-form class ``sigma_class``).
    """

    finite: bool | None
    total: float
    sigma: np.ndarray
    tail_length: np.ndarray
    note: str = ""
    sigma_class: PowerGeomTail | None = None


def radial_boundary_reach(p) -> RadialReach:
    """Decide whether the radial direction has finite sigma-length.

    Uses the per-vertex degree path metric induced on the profile
    (spheres are assumed edgeless, as for chains, trees, and
    anti-trees): Deg(r) = (dB(r) + dB(r-1) + c(S_r)) / m(S_r) per
    vertex, sigma(r, r+1) = max(Deg(r), Deg(r+1))^(-1/2).  A finite
    total length means the radial direction is metrically incomplete
    (nonempty Cauchy boundary); an infinite one, complete.
    """
    n = p.prefix_len
    b = p.values("boundary", n)
    below = np.concatenate(([0.0], b[:-1]))
    # a degree beyond the float range reads as inf (sigma 0), one below
    # it as 0 (sigma inf), quietly
    with np.errstate(over="ignore", divide="ignore"):
        deg = (b + below + p.values("killing", n)) / p.values("measure", n)
        sigma = np.maximum(deg[:-1], deg[1:]) ** -0.5

    custom = any(
        isinstance(t, CustomTail)
        for t in (p.boundary_tail, p.measure_tail, p.killing_tail)
    )
    if custom:
        partial = np.concatenate([np.cumsum(sigma[::-1])[::-1], [0.0]])
        return RadialReach(
            None,
            math.inf,
            sigma,
            partial,
            "custom tails: radial length undecided beyond the prefix",
        )

    bt = p.boundary_tail
    kt = p.killing_tail if not p.killing_tail.is_zero else None
    num = tail_add(bt, tail_shift(bt, -1))
    if kt is not None:
        num = tail_add(num, kt)
    deg_class = tail_mul(num, tail_reciprocal(p.measure_tail))
    deg_max = tail_max(deg_class, tail_shift(deg_class, 1))
    sigma_class = tail_reciprocal(tail_sqrt(deg_max))
    finite = tail_converges(sigma_class)
    beyond = tail_sum_exact(sigma_class, n - 1) if finite else math.inf
    tail_length = np.concatenate([np.cumsum(sigma[::-1])[::-1] + beyond, [beyond]])
    return RadialReach(finite, float(tail_length[0]), sigma, tail_length, "", sigma_class)


# ---------------------------------------------------------------------------
# boundary capacity estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CapacityRow:
    depth: int
    epsilon: float
    description: str
    value: float
    trapped_measure: float
    stable: bool = True


@dataclass(frozen=True)
class CapacityEstimate:
    """Boundary capacity along shrinking neighborhoods.

    ``classification`` is one of ``"zero"``, ``"positive-finite"``,
    ``"infinite"``, ``"zero-trend"``, ``"undecided"``;
    ``extrapolated`` is None exactly when no stable limit was reached.
    """

    family: str
    rows: tuple[CapacityRow, ...]
    extrapolated: float | None
    classification: str
    evidence: tuple[str, ...]


def _classify(values: list[float]) -> tuple[float | None, str]:
    if any(math.isinf(v) for v in values):
        return math.inf, "infinite"
    if len(values) >= 2:
        last, prev = values[-1], values[-2]
        if math.isclose(last, prev, rel_tol=EXTRAPOLATION_RTOL, abs_tol=1e-12):
            if last <= 1e-12:
                return 0.0, "zero"
            return last, "positive-finite"
        if all(
            values[i + 1] <= values[i] * 0.5 + 1e-15 for i in range(len(values) - 1)
        ):
            return None, "zero-trend"
    return None, "undecided"


def _check_depths(depths: Sequence[int]) -> None:
    """Depths name shrinking nested neighborhoods, so they must be
    non-empty, positive and strictly increasing."""
    if not depths:
        raise ValueError("need at least one depth")
    if any(d < 1 for d in depths):
        raise ValueError("depths must be positive")
    if any(nxt <= prev for prev, nxt in zip(depths, depths[1:])):
        raise ValueError(
            f"depths must be strictly increasing, got {','.join(map(str, depths))}"
        )


def _check_nonincreasing(values: Sequence[float]) -> None:
    for prev, nxt in zip(values, values[1:]):
        if nxt > prev * (1 + 1e-9) + 1e-12:
            raise StructuralError(
                "capacity increased along shrinking nested neighborhoods: "
                f"{prev!r} -> {nxt!r}"
            )


def profile_boundary_capacity(
    p, depths: Sequence[int], *, name: str = ""
) -> CapacityEstimate:
    """Boundary capacity of a radial profile along shrinking neighborhoods.

    Depth d gives U_n, the spheres at radius >= n = d + 1, at the scale
    eps = remaining radial sigma-length at radius d.  Its equilibrium
    potential is one on U_n and alpha=1 harmonic inside, so
    cap(U_n) = a_n + (c+m)-mass beyond n, where a_r is the capacity of
    sphere r within the ball of radius r:

        a_0 = (m+c)(S_0),  s_r = a_r / (a_r + dB(r)),
        a_r = (m+c)(S_r) + dB(r-1) s_{r-1}

    (dB(r-1) s_{r-1} is edge and inner ball in series).  Every term is
    positive, so the loop does not cancel.  A depth at or past the first
    radius where dB or (m+c) leaves the float range is not evaluated
    (dB = inf would make the next a_r inf * 0), and the estimate is then
    undecided.
    """
    _check_depths(depths)
    name = name or p.name
    reach = radial_boundary_reach(p)
    if reach.finite is None:
        return CapacityEstimate(name, (), None, "undecided", (reach.note,))
    if reach.finite is False:
        rows = tuple(
            CapacityRow(d, math.inf, "empty boundary (radial direction complete)", 0.0, 0.0)
            for d in depths
        )
        return CapacityEstimate(
            name,
            rows,
            0.0,
            "zero",
            ("total radial sigma-length is infinite, so the Cauchy boundary is empty",),
        )
    top = max(depths) + 1
    b = p.values("boundary", top + 1)
    mc = p.values("measure", top + 1) + p.values("killing", top + 1)
    off = ~(np.isfinite(b) & np.isfinite(mc))
    stop = int(np.argmax(off)) if off.any() else top
    b, mc = b.tolist(), mc.tolist()
    a = [mc[0]]
    for r in range(1, stop + 1):
        a.append(mc[r] + b[r - 1] * (a[r - 1] / (a[r - 1] + b[r - 1])))

    rows: list[CapacityRow] = []
    values: list[float] = []
    evidence: list[str] = []
    for depth in depths:
        r_cut = depth + 1
        eps = (
            float(reach.tail_length[depth])
            if depth < len(reach.tail_length)
            else tail_sum_exact(reach.sigma_class, depth)
        )
        tail_mass = p.mass_beyond(depth)  # (c+m)-mass at radius >= r_cut
        desc = f"spheres at radius >= {r_cut}"
        if not math.isfinite(tail_mass):
            rows.append(CapacityRow(depth, eps, desc, math.inf, math.inf))
            values.append(math.inf)
            evidence.append(f"eps={eps:.3e}: constrained tail has infinite (c+m)-mass")
            continue
        if depth >= stop:
            evidence.append(
                f"dB or (m+c) leaves the float range at radius {stop}: "
                f"depth {depth} and deeper are not evaluated"
            )
            break
        value = a[r_cut] + p.mass_beyond(r_cut)
        trapped = tail_mass if p.killing_is_zero else p.measure_beyond(depth)
        rows.append(CapacityRow(depth, eps, desc, value, float(trapped)))
        values.append(value)

    _check_nonincreasing(values)
    extrapolated, label = _classify(values) if len(rows) == len(depths) else (None, "undecided")
    return CapacityEstimate(name, tuple(rows), extrapolated, label, tuple(evidence))


def _vertex_route(family: Family, depths: Sequence[int]) -> CapacityEstimate:
    _check_depths(depths)
    depth = max(depths)

    def tail_distances(trunc):
        sigma = degree_path_lengths(trunc.graph)
        deepest = np.nonzero(trunc.layer == trunc.depth)[0]
        return shortest_paths(trunc.graph, sigma, deepest)

    try:
        base, deeper = (family.build(d) for d in (depth, depth + max(4, depth // 4)))
        dist_base, dist_deep = tail_distances(base), tail_distances(deeper)
    except StructuralError as exc:  # a closed form or a degree left the float range
        return CapacityEstimate(family.name, (), None, "undecided", (str(exc),))
    finite = dist_base[np.isfinite(dist_base)]
    scale = float(finite.max()) / 4 if len(finite) else 1.0

    rows: list[CapacityRow] = []
    values: list[float] = []
    evidence: list[str] = []
    grew = shrank = 0
    for idx, d in enumerate(depths):
        eps = scale * 0.5**idx
        in_base = np.nonzero(dist_base < eps)[0]
        in_deep = np.nonzero(dist_deep < eps)[0]
        _, cap_base = equilibrium_potential(base.graph, in_base)
        _, cap_deep = equilibrium_potential(deeper.graph, in_deep)
        stable = math.isclose(cap_base, cap_deep, rel_tol=STABILITY_RTOL, abs_tol=1e-12)
        trapped = float(base.graph.measure[in_base].sum())
        desc = f"{len(in_base)} vertices within sigma-distance {eps:.3e} of the deep rim"
        rows.append(CapacityRow(d, eps, desc, cap_deep, trapped, stable))
        values.append(cap_deep)
        if not stable:
            grew += cap_deep > cap_base
            shrank += cap_deep < cap_base
            evidence.append(
                f"eps={eps:.3e}: value moved {cap_base!r} -> {cap_deep!r} "
                f"under truncation deepening (trapped measure {trapped!r})"
            )

    _check_nonincreasing(values)
    trapped_floor = min(r.trapped_measure for r in rows) if rows else 0.0
    if grew and not shrank and trapped_floor > 1e-9:
        evidence.append(
            "values grow under truncation deepening while every neighborhood "
            f"keeps measure >= {trapped_floor!r}: diverging-from-zero"
        )
        return CapacityEstimate(
            family.name, tuple(rows), math.inf, "infinite", tuple(evidence)
        )
    if grew or shrank:
        return CapacityEstimate(family.name, tuple(rows), None, "undecided", tuple(evidence))
    extrapolated, label = _classify(values)
    return CapacityEstimate(family.name, tuple(rows), extrapolated, label, tuple(evidence))


def boundary_capacity_estimate(family: Family, depths: Sequence[int]) -> CapacityEstimate:
    """Capacity of shrinking boundary neighborhoods U_eps.

    Profiles get exact values, one per entry of ``depths`` (the
    recurrence of :func:`profile_boundary_capacity` plus analytic tail
    mass); other families get truncation-backed estimates at a scale
    that halves per entry of ``depths``, starting from a quarter of the
    largest sigma-distance to the rim, with a deepening stability check
    at each scale.  ``depths`` must be positive and strictly increasing.
    """
    if family.profile is not None:
        return profile_boundary_capacity(family.profile, depths, name=family.name)
    return _vertex_route(family, depths)
