"""Constructors for the worked example families.

Every family packages three mutually consistent views of one infinite
graph:

* closed-form per-radius sequences (:class:`~formuniq.series.PowerGeomTail`),
* an exact :class:`RadialProfile` (when the graph is weakly spherically
  symmetric about its root) or per-end profiles,
* finite truncations as :class:`WeightedGraph` objects, with their
  rails (the vertex ids of "the chain", "the pendants", etc., by layer)
  so later analyses can find them.

The layered families (chains, trees, anti-trees) are spherically
symmetric; the composite ones (bilateral chains, pendant chains, star
chains, double ladders) are only piecewise symmetric and are mainly
consumed by the decomposition and instability machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterator, Mapping

import numpy as np

from .errors import PreconditionError, StructuralError
from .graph import WeightedGraph
from .series import (
    PowerGeomTail,
    RadialProfile,
    ZERO_TAIL,
    _CONSTANT,
    _order,
    tail_add,
    tail_bounded_below,
    tail_converges,
    tail_mul,
    tail_reciprocal,
    tail_shift,
    tail_square,
)

# Long enough for every desk-scale computation (harmonic depth ~30,
# capacity cut radii < 100, partial-sum sampling ~ prefix + 64) while
# keeping the fastest-growing gallery sequences away from float
# overflow.
DEFAULT_PREFIX = 320


# ---------------------------------------------------------------------------
# closed-form sequences
# ---------------------------------------------------------------------------

#: PowerGeomTail under its older name, the one perfbench/workloads.py
#: builds its sequences with
SeqSpec = PowerGeomTail


def const(v: float) -> PowerGeomTail:
    return PowerGeomTail(coeff=float(v))


def linear(coeff: float = 1.0) -> PowerGeomTail:
    """a(r) = coeff * (r+1)."""
    return PowerGeomTail(coeff=coeff, power=1.0)


def power_seq(p: float, coeff: float = 1.0) -> PowerGeomTail:
    """a(r) = coeff * (r+1)^p."""
    return PowerGeomTail(coeff=coeff, power=float(p))


def geometric(ratio: float, coeff: float = 1.0) -> PowerGeomTail:
    """a(r) = coeff * ratio^r."""
    return PowerGeomTail(coeff=coeff, ratio=float(ratio))


def as_seq(spec: PowerGeomTail | float | int) -> PowerGeomTail:
    if isinstance(spec, PowerGeomTail):
        return spec
    return const(float(spec))


def _checked_values(seq: PowerGeomTail, n: int, label: str, *, positive: bool) -> np.ndarray:
    vals = seq.values(np.arange(n))
    if not np.all(np.isfinite(vals)):
        raise StructuralError(
            f"{label} sequence overflows within the first {n} radii; "
            "use a shorter prefix or tamer parameters"
        )
    if positive:
        if np.any(vals <= 0):
            raise StructuralError(
                f"{label} sequence must stay positive over the first {n} radii "
                "(underflow to zero counts as a violation)"
            )
    elif np.any(vals < 0):
        raise StructuralError(f"{label} sequence must be nonnegative")
    return vals


def _values(seq: PowerGeomTail, k: np.ndarray) -> np.ndarray:
    """``seq`` at the layers ``k``; a closed-form value past the float range
    (inf, or 0 from a positive coefficient) is a StructuralError."""
    vals = seq.values(k)
    if seq.coeff > 0 and not (vals.all() and np.isfinite(vals).all()):
        off = (~np.isfinite(vals) | (vals == 0)) & ~np.isin(k, [r for r, _ in seq.overrides])
        if off.any():
            raise StructuralError(
                f"{seq.describe()} leaves the float range at layer {k[off][0]}; use a smaller depth"
            )
    return vals


def _integral(vals: np.ndarray, label: str) -> np.ndarray:
    if np.any(vals < 1) or not np.array_equal(vals, np.round(vals)):
        raise PreconditionError(f"{label} values must be integers >= 1")
    return vals


def _check_depth(depth: int, top: float = np.inf) -> None:
    if depth < 1:
        raise PreconditionError("truncation depth must be >= 1")
    if depth > top:
        raise StructuralError(
            f"truncation depth {depth} exceeds the {top} radii the family's "
            "prefix covers; use a longer prefix_len"
        )


def _edges(*parts: tuple[np.ndarray, np.ndarray, np.ndarray]) -> list[np.ndarray]:
    """The ``(u, v, w)`` columns (integer ids, float weights) of the edge
    parts ``(u, v, w)`` taken in turn: edge k of every part, then edge
    k+1; the parts one edge longer than the rest end with their last
    edges, in turn.  Builders hand the columns to
    ``WeightedGraph._from_columns`` and order the parts so that the edges
    come sorted by ``(u, v)``, which ``WeightedGraph`` then need not sort."""
    n = min(len(p[0]) for p in parts)
    return [
        np.concatenate([np.stack([c[:n] for c in cols], axis=1).ravel(), *(c[n:] for c in cols)])
        for cols in zip(*parts)
    ]


def _spheres(sizes: np.ndarray) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """The rail ``"sphere"`` and the layers of vertex ids numbered sphere by sphere."""
    return {"sphere": np.arange(int(sizes.sum()))}, np.repeat(np.arange(len(sizes)), sizes)


# ---------------------------------------------------------------------------
# families and truncations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Truncation:
    """A finite ball of a family, cut at layer ``depth``.

    ``layer[v]`` is the layer index vertex ``v`` belongs to.  ``rails``
    maps each rail's name, such as ``"chain"``, ``"hub"`` or
    ``"sphere"``, to its vertices by layer, then by id (read-only int64
    arrays); every vertex lies on one rail.
    """

    graph: WeightedGraph
    root: int
    depth: int
    rails: Mapping[str, np.ndarray]
    layer: np.ndarray

    def __post_init__(self) -> None:
        frozen = {}
        for name, ids in self.rails.items():
            frozen[name] = np.asarray(ids, dtype=np.int64).view()
            frozen[name].flags.writeable = False
        object.__setattr__(self, "rails", frozen)

    def rail(self, name: str) -> np.ndarray:
        """The vertices of rail ``name``, by layer, then by id (a read-only
        array, empty for an unknown name)."""
        rail = self.rails.get(name)
        return np.empty(0, dtype=np.int64) if rail is None else rail


@dataclass
class Family:
    """A parameterized infinite graph with consistent finite views.

    A composite family also declares, as closures evaluated on call,
    ``crossing_degree``: the ``(label, class)`` pairs of the closed-form
    crossing degrees of its canonical split, empty when X1 is finite;
    and, for a gluing counterexample, ``replay``: the anchor rail, the
    rail attached to it, the weight of the witness edges between the
    two, and its series hypotheses as ``(wording, holds)`` pairs, in
    order, each evaluated when it is reached.
    """

    name: str
    kind: str
    build: Callable[[int], Truncation]
    profile: RadialProfile | None = None
    end_profiles: tuple[RadialProfile, ...] = ()
    x1_profile: RadialProfile | None = None
    x1_role: str = ""
    crossing_degree: Callable[[], tuple[tuple[str, PowerGeomTail | None], ...]] | None = None
    replay: Callable[[], tuple[str, str, PowerGeomTail, Iterator[tuple[str, bool | None]]]] | None = None

    def __repr__(self) -> str:  # closures and profiles are noisy; keep repr scannable
        return f"Family({self.name!r}, kind={self.kind!r})"


def _ratio(num: PowerGeomTail, den: PowerGeomTail) -> PowerGeomTail | None:
    """Class of ``num / den``."""
    return tail_mul(num.tail_class(), tail_reciprocal(den.tail_class()))


def _pendant_degrees(cm: PowerGeomTail, vb: PowerGeomTail, pm: PowerGeomTail) -> tuple:
    """The crossing degrees of the chain and pendant vertices of a pendant
    or star chain, split along the chain."""
    return (
        ("Deg_b(chain k) = vertical_b/chain_m", _ratio(vb, cm)),
        ("Deg_b(x_k) = vertical_b/pendant_m", _ratio(vb, pm)),
    )


def _chain_hypotheses(
    b: PowerGeomTail, m: PowerGeomTail, what: str
) -> Iterator[tuple[str, bool | None]]:
    """A rail that is a chain failing form uniqueness on its own."""
    yield f"{what}: total measure finite", tail_converges(m.tail_class())
    yield f"{what}: summable resistance", tail_converges(tail_reciprocal(b.tail_class()))


def _chain_profile(
    b: PowerGeomTail, m: PowerGeomTail, c: PowerGeomTail,
    prefix_len: int, name: str, shift: int = 0,
) -> RadialProfile:
    """Birth–death profile for sequences read starting at index ``shift``."""
    n = prefix_len
    bv = _checked_values(b, n + shift, "edge weight", positive=True)[shift:]
    mv = _checked_values(m, n + shift, "measure", positive=True)[shift:]
    cv = _checked_values(c, n + shift, "killing", positive=False)[shift:]
    if max(b.tail_start, m.tail_start, c.tail_start) > n + shift:
        raise StructuralError("sequence overrides extend beyond the profile prefix")
    return RadialProfile(
        boundary_prefix=bv,
        measure_prefix=mv,
        killing_prefix=cv,
        count_prefix=np.ones(n),
        boundary_tail=tail_shift(b.tail_class(), shift),
        measure_tail=tail_shift(m.tail_class(), shift),
        killing_tail=tail_shift(c.tail_class(), shift) if not c.is_zero else ZERO_TAIL,
        count_tail=PowerGeomTail(1.0),
        name=name,
    )


def birth_death(
    b: PowerGeomTail | float,
    m: PowerGeomTail | float,
    c: PowerGeomTail | float = 0.0,
    *,
    name: str = "birth_death",
    prefix_len: int = DEFAULT_PREFIX,
) -> Family:
    """Chain on 0,1,2,... with nearest-neighbour edges b(r,r+1)."""
    b, m, c = as_seq(b), as_seq(m), as_seq(c)
    profile = _chain_profile(b, m, c, prefix_len, name)

    def build(depth: int) -> Truncation:
        _check_depth(depth)
        r = np.arange(depth + 1)
        g = WeightedGraph._from_columns(
            depth + 1, r[:-1], r[1:], _values(b, r[:-1]), measure=_values(m, r), killing=_values(c, r)
        )
        return Truncation(g, 0, depth, {"chain": r}, r)

    return Family(
        name=name,
        kind="chain",
        build=build,
        profile=profile,
    )


def wss_tree(
    k: PowerGeomTail | int,
    *,
    name: str = "wss_tree",
    prefix_len: int = DEFAULT_PREFIX,
) -> Family:
    """Rooted tree with k(r) forward neighbours per radius-r vertex.

    Unit edge weights and unit vertex measure; branching numbers must
    be integers and eventually constant (so the sphere sizes admit a
    geometric tail model).
    """
    k = as_seq(k)
    # its shape decides: a zero k is constant only as C=0 p=0 rho=1
    if _order(PowerGeomTail(1.0, k.power, k.ratio)) != _CONSTANT:
        raise PreconditionError(
            "branching numbers must be eventually constant (power=0, ratio=1)"
        )
    kv = _integral(_checked_values(k, prefix_len, "branching", positive=True), "branching")
    counts = np.concatenate([[1.0], np.cumprod(kv[:-1])])
    boundary = counts * kv  # |S_r| * k(r) unit edges outward
    if not np.all(np.isfinite(boundary)):
        raise StructuralError("sphere sizes overflow; use a shorter prefix")
    k_inf = k.coeff  # constant branching beyond the overrides
    L = prefix_len - 1
    count_tail = PowerGeomTail(counts[L] / k_inf**L, 0.0, k_inf)
    profile = RadialProfile(
        boundary_prefix=boundary,
        measure_prefix=counts.copy(),
        killing_prefix=np.zeros(prefix_len),
        count_prefix=counts.copy(),
        boundary_tail=PowerGeomTail(boundary[L] / k_inf**L, 0.0, k_inf),
        measure_tail=count_tail,
        killing_tail=ZERO_TAIL,
        count_tail=count_tail,
        name=name,
    )

    def build(depth: int) -> Truncation:
        _check_depth(depth, len(kv))
        # sphere sizes in Python ints, exact at any depth
        sizes = [1]
        for k_r in kv[:depth]:
            sizes.append(sizes[-1] * int(k_r))
        n = sum(sizes)
        too_big = f"a depth-{depth} truncation has {n} vertices"
        if n * n > np.iinfo(np.int64).max:  # WeightedGraph keys vertex pairs by lo*n+hi
            raise StructuralError(f"{too_big}: too many to index")
        fanout, sizes = kv[:depth].astype(np.int64), np.array(sizes, dtype=np.int64)
        try:
            # vertex ids run sphere by sphere, so the children of the parents
            # in id order are the vertices 1, 2, ..., n-1 in id order
            parent = np.repeat(np.arange(n - sizes[-1]), np.repeat(fanout, sizes[:-1]))
            g = WeightedGraph._from_columns(
                n, parent, np.arange(1, n), np.ones(n - 1), measure=np.ones(n)
            )
            rails, layer = _spheres(sizes)
        except MemoryError:
            raise StructuralError(f"{too_big}: not enough memory to build it") from None
        return Truncation(g, 0, depth, rails, layer)

    return Family(name=name, kind="tree", build=build, profile=profile)


def anti_tree(
    s: PowerGeomTail | int,
    m_vertex: PowerGeomTail | float = 1.0,
    *,
    name: str = "anti_tree",
    prefix_len: int = DEFAULT_PREFIX,
) -> Family:
    """Layered graph with |S_r| = s(r) and complete bipartite unit-weight
    connections between consecutive spheres; per-vertex measure m_vertex(r).
    """
    s, mv = as_seq(s), as_seq(m_vertex)
    sv = _integral(_checked_values(s, prefix_len + 1, "sphere size", positive=True), "sphere size")
    if sv[0] != 1:
        raise PreconditionError("anti-trees need a single root vertex: s(0) must be 1")
    mvv = _checked_values(mv, prefix_len, "vertex measure", positive=True)
    boundary = sv[:-1] * sv[1:]
    if not np.all(np.isfinite(boundary)):
        raise StructuralError("sphere sizes overflow; use a shorter prefix")
    s_tail = s.tail_class()
    profile = RadialProfile(
        boundary_prefix=boundary,
        measure_prefix=sv[:-1] * mvv,
        killing_prefix=np.zeros(prefix_len),
        count_prefix=sv[:-1].copy(),
        boundary_tail=tail_mul(s_tail, tail_shift(s_tail, 1)),
        measure_tail=tail_mul(s_tail, mv.tail_class()),
        killing_tail=ZERO_TAIL,
        count_tail=s_tail,
        name=name,
    )

    def build(depth: int) -> Truncation:
        _check_depth(depth, len(mvv) - 1)
        sizes = sv[: depth + 1].astype(np.int64)
        starts = np.concatenate([[0], np.cumsum(sizes)])
        n = int(starts[-1])
        # every vertex x of sphere r < depth joins every vertex of sphere
        # r+1, in id order: x's edges are one block of sizes[r+1] edges,
        # whose k-th edge goes to vertex starts[r+1] + k
        fanout = np.repeat(sizes[1:], sizes[:-1])
        u = np.repeat(np.arange(len(fanout)), fanout)
        block = np.cumsum(fanout) - fanout - np.repeat(starts[1:-1], sizes[:-1])
        v = np.arange(len(u)) - np.repeat(block, fanout)
        g = WeightedGraph._from_columns(
            n, u, v, np.ones(len(u)), measure=np.repeat(mvv[: depth + 1], sizes)
        )
        return Truncation(g, 0, depth, *_spheres(sizes))

    return Family(
        name=name,
        kind="anti_tree",
        build=build,
        profile=profile,
    )


def bilateral_chain(
    pos_b: PowerGeomTail | float,
    pos_m: PowerGeomTail | float,
    neg_b: PowerGeomTail | float,
    neg_m: PowerGeomTail | float,
    *,
    name: str = "bilateral_chain",
    prefix_len: int = DEFAULT_PREFIX,
) -> Family:
    """Two-sided chain on the integers, rooted at 0.

    ``pos_*`` describe vertices 0,1,2,... and edges (r, r+1);
    ``neg_*`` describe edges (-r, -r-1) and vertices -1,-2,...
    (the measure at 0 is taken from ``pos_m``).  The canonical
    decomposition puts X1 = {0}; the two ends are chains, each with its
    own profile (sequences shifted by one, since the end starts at
    distance 1 from the origin).
    """
    pb, pm = as_seq(pos_b), as_seq(pos_m)
    nb, nm = as_seq(neg_b), as_seq(neg_m)
    zero = const(0.0)
    ends = (
        _chain_profile(pb, pm, zero, prefix_len, f"{name}/pos", shift=1),
        _chain_profile(nb, nm, zero, prefix_len, f"{name}/neg", shift=1),
    )

    def build(depth: int) -> Truncation:
        _check_depth(depth)
        # vertex ids: 0 -> 0, +r -> 2r-1, -r -> 2r
        r = np.arange(depth + 1)
        edges = _edges(
            (np.maximum(2 * r[:-1] - 1, 0), 2 * r[1:] - 1, _values(pb, r[:-1])),
            (2 * r[:-1], 2 * r[1:], _values(nb, r[:-1])),
        )
        pos_m = _values(pm, r)
        sides = np.column_stack((pos_m[1:], _values(nm, r[1:]))).ravel()
        measure = np.concatenate((pos_m[:1], sides))
        layer = np.concatenate(([0], np.repeat(r[1:], 2)))
        g = WeightedGraph._from_columns(len(measure), *edges, measure=measure)
        rails = {"origin": [0], "pos": 2 * r[1:] - 1, "neg": 2 * r[1:]}
        return Truncation(g, 0, depth, rails, layer)

    return Family(
        name=name,
        kind="bilateral",
        build=build,
        end_profiles=ends,
        x1_role="origin",
        crossing_degree=lambda: (),  # X1 = {origin} meets finitely many edges
    )


def pendant_chain(
    chain_b: PowerGeomTail | float,
    chain_m: PowerGeomTail | float,
    vertical_b: PowerGeomTail | float,
    pendant_m: PowerGeomTail | float,
    *,
    name: str = "pendant_chain",
    prefix_len: int = DEFAULT_PREFIX,
) -> Family:
    """Chain 0,1,2,... with one pendant vertex x_k hanging off each k.

    Vertex ids: chain k -> 2k, pendant x_k -> 2k+1; a depth-R
    truncation has 2R+2 vertices.  X1 is the chain; the pendant set is
    edgeless.
    """
    cb, cm = as_seq(chain_b), as_seq(chain_m)
    vb, pm = as_seq(vertical_b), as_seq(pendant_m)
    x1_profile = _chain_profile(cb, cm, const(0.0), prefix_len, f"{name}/chain")

    def build(depth: int) -> Truncation:
        _check_depth(depth)
        k = np.arange(depth + 1)
        chain = (2 * k[:-1], 2 * k[1:], _values(cb, k[:-1]))
        edges = _edges((2 * k, 2 * k + 1, _values(vb, k)), chain)  # in (u, v) order
        measure = np.column_stack((_values(cm, k), _values(pm, k))).ravel()
        g = WeightedGraph._from_columns(len(measure), *edges, measure=measure)
        rails = {"chain": 2 * k, "pendant": 2 * k + 1}
        return Truncation(g, 0, depth, rails, np.repeat(k, 2))

    def hypotheses() -> Iterator[tuple[str, bool | None]]:
        yield from _chain_hypotheses(cb, cm, "chain")
        v, p = vb.tail_class(), pm.tail_class()
        ratio = tail_mul(tail_mul(v, tail_square(p)), tail_reciprocal(tail_square(tail_add(v, p))))
        yield (
            "sum_k vertical_b * pendant_m^2 / (vertical_b + pendant_m)^2 diverges",
            tail_converges(ratio) is False,
        )

    return Family(
        name=name,
        kind="pendant",
        build=build,
        x1_profile=x1_profile,
        x1_role="chain",
        crossing_degree=lambda: _pendant_degrees(cm, vb, pm),
        replay=lambda: ("chain", "pendant", vb, hypotheses()),
    )


def star_chain(
    chain_b: PowerGeomTail | float,
    chain_m: PowerGeomTail | float,
    vertical_b: PowerGeomTail | float,
    pendant_m: PowerGeomTail | float,
    hub_b: PowerGeomTail | float,
    hub_m: PowerGeomTail | float = 1.0,
    *,
    name: str = "star_chain",
    prefix_len: int = DEFAULT_PREFIX,
) -> Family:
    """Pendant chain whose pendants are additionally joined to one hub.

    The hub o carries edges b(o, x_k) = hub_b(k) with a summable row
    (enforced), making X2 = {o, x_0, x_1, ...} a connected star.  The
    hub's measure ``hub_m`` must be a constant.  Vertex ids: hub -> 0,
    chain k -> 1+2k, x_k -> 2+2k.
    """
    cb, cm = as_seq(chain_b), as_seq(chain_m)
    vb, pm = as_seq(vertical_b), as_seq(pendant_m)
    hb, hm = as_seq(hub_b), as_seq(hub_m)
    if hm.overrides or _order(PowerGeomTail(1.0, hm.power, hm.ratio)) != _CONSTANT:
        raise PreconditionError(f"the hub measure hub_m must be a constant, got {hm.describe()}")
    if tail_converges(hb.tail_class()) is not True:
        raise PreconditionError("hub edge weights must be summable: sum_k b(o, x_k) < inf")
    x1_profile = _chain_profile(cb, cm, const(0.0), prefix_len, f"{name}/chain")

    def build(depth: int) -> Truncation:
        _check_depth(depth)
        k = np.arange(depth + 1)
        chain = (1 + 2 * k[:-1], 3 + 2 * k[:-1], _values(cb, k[:-1]))
        hub = (np.zeros_like(k), 2 + 2 * k, _values(hb, k))
        rest = _edges((1 + 2 * k, 2 + 2 * k, _values(vb, k)), chain)
        edges = [np.concatenate(c) for c in zip(hub, rest)]  # in (u, v) order: the hub's first
        measure = np.concatenate(([hm.coeff], np.column_stack((_values(cm, k), _values(pm, k))).ravel()))
        g = WeightedGraph._from_columns(len(measure), *edges, measure=measure)
        rails = {"hub": [0], "chain": 1 + 2 * k, "pendant": 2 + 2 * k}
        layer = np.concatenate(([0], np.repeat(k, 2)))
        return Truncation(g, 1, depth, rails, layer)

    def hypotheses() -> Iterator[tuple[str, bool | None]]:
        yield from _chain_hypotheses(cb, cm, "chain")
        yield "inf_k pendant_m > 0", tail_bounded_below(pm.tail_class())
        yield "sum_k vertical_b diverges", tail_converges(vb.tail_class()) is False

    return Family(
        name=name,
        kind="star",
        build=build,
        x1_profile=x1_profile,
        x1_role="chain",
        crossing_degree=lambda: _pendant_degrees(cm, vb, pm),
        replay=lambda: ("chain", "pendant", vb, hypotheses()),
    )


def double_ladder(
    x_b: PowerGeomTail | float,
    x_m: PowerGeomTail | float,
    y_b: PowerGeomTail | float,
    y_m: PowerGeomTail | float,
    z_b: PowerGeomTail | float,
    z_m: PowerGeomTail | float,
    xy_b: PowerGeomTail | float,
    yz_b: PowerGeomTail | float,
    *,
    name: str = "double_ladder",
    prefix_len: int = DEFAULT_PREFIX,
) -> Family:
    """Three parallel chains x/y/z with rungs x_k—y_k and y_k—z_k.

    X1 is the middle rail {y_k}; the two ends of X \\ X1 are the x and
    z rails, each a chain with its own profile.  Vertex ids per layer
    k: x_k -> 3k, y_k -> 3k+1, z_k -> 3k+2.
    """
    xb, xm = as_seq(x_b), as_seq(x_m)
    yb, ym = as_seq(y_b), as_seq(y_m)
    zb, zm = as_seq(z_b), as_seq(z_m)
    rxy, ryz = as_seq(xy_b), as_seq(yz_b)
    zero = const(0.0)
    ends = (
        _chain_profile(xb, xm, zero, prefix_len, f"{name}/x"),
        _chain_profile(zb, zm, zero, prefix_len, f"{name}/z"),
    )
    x1_profile = _chain_profile(yb, ym, zero, prefix_len, f"{name}/y")

    def build(depth: int) -> Truncation:
        _check_depth(depth)
        k = np.arange(depth + 1)
        ids, r = 3 * k, k[:-1]
        x, y, z = ((ids[:-1] + j, ids[1:] + j, _values(s, r)) for j, s in enumerate((xb, yb, zb)))
        # in (u, v) order: x_k's rung and rail, y_k's, then z_k's rail
        edges = _edges((ids, ids + 1, _values(rxy, k)), x, (ids + 1, ids + 2, _values(ryz, k)), y, z)
        measure = np.column_stack([_values(s, k) for s in (xm, ym, zm)]).ravel()
        g = WeightedGraph._from_columns(len(measure), *edges, measure=measure)
        rails = {"x": ids, "y": ids + 1, "z": ids + 2}
        return Truncation(g, 0, depth, rails, np.repeat(k, 3))

    def hypotheses() -> Iterator[tuple[str, bool | None]]:
        yield from _chain_hypotheses(xb, xm, "x rail")
        yield "inf_k y_m > 0", tail_bounded_below(ym.tail_class())
        yield "inf_k z_m > 0", tail_bounded_below(zm.tail_class())
        yield "sum_k xy_b diverges", tail_converges(rxy.tail_class()) is False

    return Family(
        name=name,
        kind="ladder",
        build=build,
        end_profiles=ends,
        x1_profile=x1_profile,
        x1_role="y",
        crossing_degree=lambda: (
            ("Deg_b(x_k) = xy_b/x_m", _ratio(rxy, xm)),
            ("Deg_b(z_k) = yz_b/z_m", _ratio(ryz, zm)),
            (
                "Deg_b(y_k) = (xy_b+yz_b)/y_m",
                tail_mul(
                    tail_add(rxy.tail_class(), ryz.tail_class()),
                    tail_reciprocal(ym.tail_class()),
                ),
            ),
        ),
        replay=lambda: ("x", "y", rxy, hypotheses()),
    )


# ---------------------------------------------------------------------------
# the gallery
# ---------------------------------------------------------------------------


def _geometric_chain() -> Family:
    return birth_death(geometric(2.0), geometric(0.5), name="geometric_chain")


def _unit_chain() -> Family:
    return birth_death(1.0, 1.0, name="unit_chain")


def _square_chain() -> Family:
    return birth_death(power_seq(2), 1.0, name="square_chain")


def _binary_tree() -> Family:
    return wss_tree(2, name="binary_tree")


def _linear_anti_tree() -> Family:
    return anti_tree(linear(), name="linear_anti_tree")


def _quadratic_anti_tree() -> Family:
    return anti_tree(power_seq(2), name="quadratic_anti_tree")


def _geom_mass_anti_tree() -> Family:
    # spheres of size 2^r with per-vertex measure 8^{-r}: m(S_r) = 4^{-r}
    return anti_tree(geometric(2.0), geometric(0.125), name="geom_mass_anti_tree")


def _bilateral_mixed() -> Family:
    return bilateral_chain(
        geometric(2.0), geometric(0.5), 1.0, 1.0, name="bilateral_mixed"
    )


def _pendant_boundary() -> Family:
    # vertical weights equal to the chain measure; unit pendant masses
    return pendant_chain(
        geometric(2.0), geometric(0.5), geometric(0.5), 1.0, name="pendant_boundary"
    )


def _pendant_instability() -> Family:
    return pendant_chain(
        geometric(2.0), geometric(0.5), 1.0, 1.0, name="pendant_instability"
    )


def _star_instability() -> Family:
    return star_chain(
        geometric(2.0), geometric(0.5), 1.0, 1.0, geometric(0.5),
        name="star_instability",
    )


def _ladder_instability() -> Family:
    return double_ladder(
        geometric(2.0), geometric(0.5), 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
        name="ladder_instability",
    )


GALLERY: dict[str, Callable[[], Family]] = {
    "geometric_chain": _geometric_chain,
    "unit_chain": _unit_chain,
    "square_chain": _square_chain,
    "binary_tree": _binary_tree,
    "linear_anti_tree": _linear_anti_tree,
    "quadratic_anti_tree": _quadratic_anti_tree,
    "geom_mass_anti_tree": _geom_mass_anti_tree,
    "bilateral_mixed": _bilateral_mixed,
    "pendant_boundary": _pendant_boundary,
    "pendant_instability": _pendant_instability,
    "star_instability": _star_instability,
    "ladder_instability": _ladder_instability,
}

# The spherically symmetric members (each carries a full RadialProfile).
WSS_GALLERY = (
    "geometric_chain",
    "unit_chain",
    "square_chain",
    "binary_tree",
    "linear_anti_tree",
    "quadratic_anti_tree",
    "geom_mass_anti_tree",
)


def gallery(name: str) -> Family:
    try:
        return GALLERY[name]()
    except KeyError:
        known = ", ".join(sorted(GALLERY))
        raise KeyError(f"unknown family {name!r}; known: {known}") from None


def gallery_names() -> tuple[str, ...]:
    return tuple(GALLERY)
