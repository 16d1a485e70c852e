"""Constructors for the worked example families.

Every family packages three mutually consistent views of one infinite
graph:

* closed-form per-radius sequences (:class:`~formuniq.series.PowerGeomTail`,
  also named ``SeqSpec``),
* an exact :class:`RadialProfile` (when the graph is weakly spherically
  symmetric about its root) or per-end profiles,
* finite truncations as :class:`WeightedGraph` objects, with role
  labels so later analyses can find "the chain", "the pendants", etc.

The layered families (chains, trees, anti-trees) are spherically
symmetric; the composite ones (bilateral chains, pendant chains, star
chains, double ladders) are only piecewise symmetric and are mainly
consumed by the decomposition and instability machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Mapping

import numpy as np

from .errors import PreconditionError, StructuralError
from .graph import WeightedGraph
from .series import (
    PowerGeomTail,
    RadialProfile,
    SeqSpec,
    ZERO_TAIL,
    tail_converges,
    tail_mul,
    tail_shift,
)

# Long enough for every desk-scale computation (harmonic depth ~30,
# capacity cut radii < 100, partial-sum sampling ~ prefix + 64) while
# keeping the fastest-growing gallery sequences away from float
# overflow.
DEFAULT_PREFIX = 320


# ---------------------------------------------------------------------------
# closed-form sequences
# ---------------------------------------------------------------------------


def const(v: float) -> SeqSpec:
    return SeqSpec(coeff=float(v))


def linear(coeff: float = 1.0) -> SeqSpec:
    """a(r) = coeff * (r+1)."""
    return SeqSpec(coeff=coeff, power=1.0)


def power_seq(p: float, coeff: float = 1.0) -> SeqSpec:
    """a(r) = coeff * (r+1)^p."""
    return SeqSpec(coeff=coeff, power=float(p))


def geometric(ratio: float, coeff: float = 1.0) -> SeqSpec:
    """a(r) = coeff * ratio^r."""
    return SeqSpec(coeff=coeff, ratio=float(ratio))


def as_seq(spec: SeqSpec | float | int) -> SeqSpec:
    if isinstance(spec, SeqSpec):
        return spec
    return const(float(spec))


def _checked_values(seq: SeqSpec, n: int, label: str, *, positive: bool) -> np.ndarray:
    vals = np.array([seq.value(r) for r in range(n)], dtype=float)
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


def _integral(vals: np.ndarray, label: str) -> np.ndarray:
    if np.any(vals < 1) or not np.array_equal(vals, np.round(vals)):
        raise PreconditionError(f"{label} values must be integers >= 1")
    return vals


# ---------------------------------------------------------------------------
# families and truncations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Truncation:
    """A finite ball of a family, with per-vertex role labels.

    Roles look like ``"chain:3"``, ``"pendant:3"``, ``"sphere:2"``,
    ``"hub"``; ``layer[v]`` is the layer index the vertex belongs to.
    """

    graph: WeightedGraph
    root: int
    depth: int
    roles: tuple[str, ...]
    layer: np.ndarray

    def find_role(self, role: str) -> int:
        hits = [v for v, r in enumerate(self.roles) if r == role]
        if len(hits) != 1:
            raise KeyError(f"role {role!r} matches {len(hits)} vertices")
        return hits[0]

    def rail(self, prefix: str) -> list[int]:
        """Vertices whose role starts with ``prefix + ':'``, by layer."""
        hits = [v for v, r in enumerate(self.roles) if r.split(":")[0] == prefix]
        return sorted(hits, key=lambda v: int(self.layer[v]))


@dataclass
class Family:
    """A parameterized infinite graph with consistent finite views."""

    name: str
    kind: str
    build: Callable[[int], Truncation]
    profile: RadialProfile | None = None
    end_profiles: tuple[RadialProfile, ...] = ()
    x1_profile: RadialProfile | None = None
    x1_role: str = ""
    params: Mapping[str, SeqSpec] = field(default_factory=dict)
    notes: str = ""

    def __repr__(self) -> str:  # params are noisy; keep repr scannable
        return f"Family({self.name!r}, kind={self.kind!r})"


def _chain_profile(
    b: SeqSpec, m: SeqSpec, c: SeqSpec, prefix_len: int, name: str, shift: int = 0
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
    b: SeqSpec | float,
    m: SeqSpec | float,
    c: SeqSpec | float = 0.0,
    *,
    name: str = "birth_death",
    prefix_len: int = DEFAULT_PREFIX,
) -> Family:
    """Chain on 0,1,2,... with nearest-neighbour edges b(r,r+1)."""
    b, m, c = as_seq(b), as_seq(m), as_seq(c)
    profile = _chain_profile(b, m, c, prefix_len, name)

    def build(depth: int) -> Truncation:
        if depth < 1:
            raise PreconditionError("truncation depth must be >= 1")
        edges = [(r, r + 1, b.value(r)) for r in range(depth)]
        g = WeightedGraph(
            depth + 1,
            edges,
            measure=[m.value(r) for r in range(depth + 1)],
            killing=[c.value(r) for r in range(depth + 1)],
        )
        roles = tuple(f"chain:{r}" for r in range(depth + 1))
        return Truncation(g, 0, depth, roles, np.arange(depth + 1))

    return Family(
        name=name,
        kind="chain",
        build=build,
        profile=profile,
        params={"b": b, "m": m, "c": c},
    )


def wss_tree(
    k: SeqSpec | int,
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
    if k.power != 0 or k.ratio != 1:
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
        if depth < 1:
            raise PreconditionError("truncation depth must be >= 1")
        sizes = [int(profile.sphere_count(r)) for r in range(depth + 1)]
        starts = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        n = int(starts[-1])
        edges = []
        for r in range(depth):
            kk = int(kv[r])
            for i in range(sizes[r]):
                parent = starts[r] + i
                for j in range(kk):
                    edges.append((parent, starts[r + 1] + i * kk + j, 1.0))
        g = WeightedGraph(n, edges, measure=np.ones(n))
        roles, layer = [], np.empty(n, dtype=int)
        for r in range(depth + 1):
            for i in range(sizes[r]):
                roles.append(f"sphere:{r}")
                layer[starts[r] + i] = r
        return Truncation(g, 0, depth, tuple(roles), layer)

    return Family(
        name=name, kind="tree", build=build, profile=profile, params={"k": k}
    )


def anti_tree(
    s: SeqSpec | int,
    m_vertex: SeqSpec | float = 1.0,
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
        if depth < 1:
            raise PreconditionError("truncation depth must be >= 1")
        sizes = [int(sv[r]) for r in range(depth + 1)]
        starts = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        n = int(starts[-1])
        edges = [
            (starts[r] + i, starts[r + 1] + j, 1.0)
            for r in range(depth)
            for i in range(sizes[r])
            for j in range(sizes[r + 1])
        ]
        measure = np.concatenate([np.full(sizes[r], mvv[r]) for r in range(depth + 1)])
        g = WeightedGraph(n, edges, measure=measure)
        roles, layer = [], np.empty(n, dtype=int)
        for r in range(depth + 1):
            for _ in range(sizes[r]):
                roles.append(f"sphere:{r}")
        for r in range(depth + 1):
            layer[starts[r] : starts[r + 1]] = r
        return Truncation(g, 0, depth, tuple(roles), layer)

    return Family(
        name=name,
        kind="anti_tree",
        build=build,
        profile=profile,
        params={"s": s, "m_vertex": mv},
    )


def bilateral_chain(
    pos_b: SeqSpec | float,
    pos_m: SeqSpec | float,
    neg_b: SeqSpec | float,
    neg_m: SeqSpec | float,
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
        if depth < 1:
            raise PreconditionError("truncation depth must be >= 1")

        def vid(k: int) -> int:  # 0, +r -> 2r-1, -r -> 2r
            return 0 if k == 0 else (2 * k - 1 if k > 0 else -2 * k)

        n = 2 * depth + 1
        measure = np.empty(n)
        measure[0] = pm.value(0)
        roles = [""] * n
        layer = np.empty(n, dtype=int)
        roles[0], layer[0] = "origin", 0
        edges = []
        for r in range(depth):
            edges.append((vid(r), vid(r + 1), pb.value(r)))
            edges.append((vid(-r), vid(-r - 1), nb.value(r)))
        for r in range(1, depth + 1):
            measure[vid(r)] = pm.value(r)
            measure[vid(-r)] = nm.value(r)
            roles[vid(r)], layer[vid(r)] = f"pos:{r}", r
            roles[vid(-r)], layer[vid(-r)] = f"neg:{r}", r
        g = WeightedGraph(n, edges, measure=measure)
        return Truncation(g, 0, depth, tuple(roles), layer)

    return Family(
        name=name,
        kind="bilateral",
        build=build,
        end_profiles=ends,
        x1_role="origin",
        params={"pos_b": pb, "pos_m": pm, "neg_b": nb, "neg_m": nm},
    )


def pendant_chain(
    chain_b: SeqSpec | float,
    chain_m: SeqSpec | float,
    vertical_b: SeqSpec | float,
    pendant_m: SeqSpec | float,
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
        if depth < 1:
            raise PreconditionError("truncation depth must be >= 1")
        n = 2 * depth + 2
        edges = [(2 * k, 2 * k + 2, cb.value(k)) for k in range(depth)]
        edges += [(2 * k, 2 * k + 1, vb.value(k)) for k in range(depth + 1)]
        measure = np.empty(n)
        measure[0::2] = [cm.value(k) for k in range(depth + 1)]
        measure[1::2] = [pm.value(k) for k in range(depth + 1)]
        g = WeightedGraph(n, edges, measure=measure)
        roles = []
        for k in range(depth + 1):
            roles += [f"chain:{k}", f"pendant:{k}"]
        layer = np.repeat(np.arange(depth + 1), 2)
        return Truncation(g, 0, depth, tuple(roles), layer)

    return Family(
        name=name,
        kind="pendant",
        build=build,
        x1_profile=x1_profile,
        x1_role="chain",
        params={"chain_b": cb, "chain_m": cm, "vertical_b": vb, "pendant_m": pm},
    )


def star_chain(
    chain_b: SeqSpec | float,
    chain_m: SeqSpec | float,
    vertical_b: SeqSpec | float,
    pendant_m: SeqSpec | float,
    hub_b: SeqSpec | float,
    hub_m: float = 1.0,
    *,
    name: str = "star_chain",
    prefix_len: int = DEFAULT_PREFIX,
) -> Family:
    """Pendant chain whose pendants are additionally joined to one hub.

    The hub o carries edges b(o, x_k) = hub_b(k) with a summable row
    (enforced), making X2 = {o, x_0, x_1, ...} a connected star.
    Vertex ids: hub -> 0, chain k -> 1+2k, x_k -> 2+2k.
    """
    cb, cm = as_seq(chain_b), as_seq(chain_m)
    vb, pm = as_seq(vertical_b), as_seq(pendant_m)
    hb = as_seq(hub_b)
    if tail_converges(hb.tail_class()) is not True:
        raise PreconditionError("hub edge weights must be summable: sum_k b(o, x_k) < inf")
    x1_profile = _chain_profile(cb, cm, const(0.0), prefix_len, f"{name}/chain")

    def build(depth: int) -> Truncation:
        if depth < 1:
            raise PreconditionError("truncation depth must be >= 1")
        n = 2 * depth + 3
        edges = [(1 + 2 * k, 3 + 2 * k, cb.value(k)) for k in range(depth)]
        edges += [(1 + 2 * k, 2 + 2 * k, vb.value(k)) for k in range(depth + 1)]
        edges += [(0, 2 + 2 * k, hb.value(k)) for k in range(depth + 1)]
        measure = np.empty(n)
        measure[0] = hub_m
        measure[1::2] = [cm.value(k) for k in range(depth + 1)]
        measure[2::2] = [pm.value(k) for k in range(depth + 1)]
        g = WeightedGraph(n, edges, measure=measure)
        roles = ["hub"]
        for k in range(depth + 1):
            roles += [f"chain:{k}", f"pendant:{k}"]
        layer = np.concatenate([[0], np.repeat(np.arange(depth + 1), 2)])
        return Truncation(g, 1, depth, tuple(roles), layer)

    return Family(
        name=name,
        kind="star",
        build=build,
        x1_profile=x1_profile,
        x1_role="chain",
        params={
            "chain_b": cb,
            "chain_m": cm,
            "vertical_b": vb,
            "pendant_m": pm,
            "hub_b": hb,
            "hub_m": const(hub_m),
        },
    )


def double_ladder(
    x_b: SeqSpec | float,
    x_m: SeqSpec | float,
    y_b: SeqSpec | float,
    y_m: SeqSpec | float,
    z_b: SeqSpec | float,
    z_m: SeqSpec | float,
    xy_b: SeqSpec | float,
    yz_b: SeqSpec | float,
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
        if depth < 1:
            raise PreconditionError("truncation depth must be >= 1")
        n = 3 * depth + 3
        edges = []
        for k in range(depth):
            edges.append((3 * k, 3 * k + 3, xb.value(k)))
            edges.append((3 * k + 1, 3 * k + 4, yb.value(k)))
            edges.append((3 * k + 2, 3 * k + 5, zb.value(k)))
        for k in range(depth + 1):
            edges.append((3 * k, 3 * k + 1, rxy.value(k)))
            edges.append((3 * k + 1, 3 * k + 2, ryz.value(k)))
        measure = np.empty(n)
        measure[0::3] = [xm.value(k) for k in range(depth + 1)]
        measure[1::3] = [ym.value(k) for k in range(depth + 1)]
        measure[2::3] = [zm.value(k) for k in range(depth + 1)]
        g = WeightedGraph(n, edges, measure=measure)
        roles = []
        for k in range(depth + 1):
            roles += [f"x:{k}", f"y:{k}", f"z:{k}"]
        layer = np.repeat(np.arange(depth + 1), 3)
        return Truncation(g, 0, depth, tuple(roles), layer)

    return Family(
        name=name,
        kind="ladder",
        build=build,
        end_profiles=ends,
        x1_profile=x1_profile,
        x1_role="y",
        params={
            "x_b": xb, "x_m": xm, "y_b": yb, "y_m": ym,
            "z_b": zb, "z_m": zm, "xy_b": rxy, "yz_b": ryz,
        },
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
