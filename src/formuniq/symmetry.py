"""Sphere decompositions and weak spherical symmetry.

Distance spheres ``S_r`` about a finite root set split every vertex's
weighted degree into an outward part ``kappa_plus`` (edges into
``S_{r+1}``), an inward part ``kappa_minus`` (edges into ``S_{r-1}``),
an intra-sphere part ``kappa_zero`` and the killing ratio
``q = c / m``.  A graph is weakly spherically symmetric about the root
when ``kappa_plus``, ``kappa_minus`` and ``q`` are constant on every
sphere; in that case the layer boundary weights satisfy

    dB(r) = kappa_plus(r) m(S_r) = kappa_minus(r+1) m(S_{r+1})

and the Laplacian commutes with the sphere-averaging projection
``(A f)(x) = (1/m(S_r)) sum_{y in S_r} f(y) m(y)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .errors import StructuralError
from .graph import (
    SYMMETRY_TOL,
    WeightedGraph,
    _as_function,
    laplacian,
    require_connected_to,
    vertex_mask,
)


@dataclass(frozen=True)
class SphereDecomposition:
    """BFS sphere structure about a root set, with degree decomposition.

    ``boundary[r]`` is the total weight of edges joining sphere ``r`` to
    sphere ``r+1``; for a finite graph the last entry is 0.  Per-vertex
    arrays (``kappa_plus`` etc.) are indexed by vertex id, per-radius
    arrays (``boundary``, ``sphere_measure``, ``sphere_killing``) by
    radius.  The per-vertex ratios (``kappa_*``, ``q``) are inf where a
    weight over the vertex measure leaves the float range.
    """

    root: tuple[int, ...]
    spheres: tuple[np.ndarray, ...]
    radius_of: np.ndarray
    kappa_plus: np.ndarray
    kappa_minus: np.ndarray
    kappa_zero: np.ndarray
    q: np.ndarray
    boundary: np.ndarray
    sphere_measure: np.ndarray
    sphere_killing: np.ndarray

    @property
    def radius(self) -> int:
        """Largest sphere index."""
        return len(self.spheres) - 1

    def sphere(self, r: int) -> np.ndarray:
        return self.spheres[r]


def _ordered_sums(keys: np.ndarray, values: np.ndarray, length: int) -> np.ndarray:
    """``np.sum`` of each key's values, in input order, for keys ``0..length-1``.

    ``np.bincount`` adds left to right; ``np.sum`` does so for fewer
    than eight terms and sums longer runs pairwise.  The two agree on
    nonnegative integer terms with a total below 2**53, so only the
    other groups of eight or more terms are summed again by ``np.sum``.
    """
    sums = np.bincount(keys, weights=values, minlength=length)
    counts = np.bincount(keys, minlength=length)
    inexact = np.bincount(keys[values != np.floor(values)], minlength=length) > 0
    redo = np.flatnonzero((counts >= 8) & (inexact | (sums >= 2.0**53)))
    if len(redo):
        grouped = values[np.argsort(keys, kind="stable")]
        ends = np.cumsum(counts)
        for k in redo:
            sums[k] = grouped[ends[k] - counts[k] : ends[k]].sum()
    return sums


def sphere_decomposition(g: WeightedGraph, root: Sequence[int]) -> SphereDecomposition:
    """Compute distance spheres about ``root`` and the associated data.

    ``root`` takes the forms :func:`~formuniq.graph.vertex_mask`
    accepts.  Raises :class:`StructuralError` when the root set is
    empty or some vertex cannot be reached from it.
    """
    n = g.vertex_count
    roots = np.flatnonzero(vertex_mask(n, root, "root vertex {v} out of range"))
    if not len(roots):
        raise StructuralError("root set is empty")

    dist = dijkstra(g.adjacency, unweighted=True, min_only=True, indices=roots)
    if np.isinf(dist).any():
        require_connected_to(g, roots)
    radius = dist.astype(np.int64)
    sizes = np.bincount(radius)
    order = np.argsort(radius, kind="stable")
    bounds = np.cumsum(sizes).tolist()
    spheres = tuple(order[a:b] for a, b in zip([0] + bounds, bounds))

    # each vertex x sums its terms in neighbour-id order: first the edges
    # (y, x) with y < x, then the edges (x, y) with y > x
    u, v, w = g.edge_u, g.edge_v, g.edge_w
    step = radius[v] - radius[u]

    def per_vertex(s: int) -> np.ndarray:
        below, above = step == -s, step == s
        keys = np.concatenate((v[below], u[above]))
        return _ordered_sums(keys, np.concatenate((w[below], w[above])), n)

    out = per_vertex(1)
    # a weight over a tiny measure may leave the float range: the ratio
    # is then inf, quietly (a deep quotient chain is still a valid graph)
    with np.errstate(over="ignore"):
        kplus = out / g.measure
        kminus = per_vertex(-1) / g.measure
        kzero = per_vertex(0) / g.measure
        q = g.killing / g.measure
    boundary = np.bincount(radius, weights=out)  # left to right, by vertex id
    sphere_m = _ordered_sums(radius, g.measure, len(sizes))
    sphere_c = _ordered_sums(radius, g.killing, len(sizes))

    return SphereDecomposition(
        root=tuple(roots.tolist()),
        spheres=spheres,
        radius_of=radius,
        kappa_plus=kplus,
        kappa_minus=kminus,
        kappa_zero=kzero,
        q=q,
        boundary=boundary,
        sphere_measure=sphere_m,
        sphere_killing=sphere_c,
    )


def average(g: WeightedGraph, dec: SphereDecomposition, f: Sequence[float]) -> np.ndarray:
    """Sphere-averaging projection: measure-weighted mean on each sphere."""
    f = _as_function(g, f)
    out = np.empty_like(f)
    for r, s in enumerate(dec.spheres):
        out[s] = float(np.dot(f[s], g.measure[s])) / dec.sphere_measure[r]
    return out


def radial_values(
    g: WeightedGraph, dec: SphereDecomposition, f: Sequence[float]
) -> np.ndarray:
    """Per-radius measure-weighted means of ``f`` (length radius+1)."""
    f = _as_function(g, f)
    return np.array(
        [float(np.dot(f[s], g.measure[s])) / m for s, m in zip(dec.spheres, dec.sphere_measure)]
    )


def lift_radial(dec: SphereDecomposition, values: Sequence[float]) -> np.ndarray:
    """Expand one value per radius into a vertex function constant on spheres."""
    values = np.asarray(values, dtype=float)
    if values.shape != (dec.radius + 1,):
        raise ValueError(
            f"expected {dec.radius + 1} radial values, got {values.shape}"
        )
    out = np.empty(len(dec.radius_of))
    for r, s in enumerate(dec.spheres):
        out[s] = values[r]
    return out


def radial_laplacian(
    dec: SphereDecomposition, values: Sequence[float]
) -> np.ndarray:
    """Laplacian of a sphere-constant function, one value per radius.

    Valid when the graph is weakly spherically symmetric about the
    decomposition's root:

        (L f)(r) m(S_r) = dB(r) (f(r) - f(r+1))
                        + dB(r-1) (f(r) - f(r-1)) + c(S_r) f(r).

    For the outermost sphere of a finite graph ``dB(R) = 0`` and the
    outward term vanishes.
    """
    v = np.asarray(values, dtype=float)
    R = dec.radius
    if v.shape != (R + 1,):
        raise ValueError(f"expected {R + 1} radial values, got {v.shape}")
    out = np.zeros(R + 1)
    for r in range(R + 1):
        acc = dec.sphere_killing[r] * v[r]
        if r < R:
            acc += dec.boundary[r] * (v[r] - v[r + 1])
        if r > 0:
            acc += dec.boundary[r - 1] * (v[r] - v[r - 1])
        out[r] = acc / dec.sphere_measure[r]
    return out


@dataclass(frozen=True)
class SymmetryWitness:
    """A concrete violation of weak spherical symmetry."""

    radius: int
    vertex_a: int
    vertex_b: int
    quantity: str
    value_a: float
    value_b: float

    def __str__(self) -> str:
        return (
            f"{self.quantity} differs on sphere {self.radius}: "
            f"vertex {self.vertex_a} has {self.value_a!r}, "
            f"vertex {self.vertex_b} has {self.value_b!r}"
        )


@dataclass(frozen=True)
class SymmetryReport:
    symmetric: bool
    witness: SymmetryWitness | None

    def __bool__(self) -> bool:
        return self.symmetric


def _sphere_constant(
    values: np.ndarray, sphere: np.ndarray, r: int, name: str
) -> SymmetryWitness | None:
    vals = values[sphere]
    lo, hi = int(np.argmin(vals)), int(np.argmax(vals))
    a, b = vals[lo], vals[hi]
    if abs(a - b) <= SYMMETRY_TOL * max(1.0, abs(a), abs(b)):
        return None
    return SymmetryWitness(r, int(sphere[lo]), int(sphere[hi]), name, float(a), float(b))


def is_weakly_spherically_symmetric(
    g: WeightedGraph,
    root: Sequence[int] | SphereDecomposition,
    max_radius: int | None = None,
) -> SymmetryReport:
    """Check that kappa_plus, kappa_minus and q are sphere-constant.

    ``root`` may be a vertex list or a precomputed decomposition.  When
    ``max_radius`` is given only spheres up to that radius are checked.
    """
    dec = root if isinstance(root, SphereDecomposition) else sphere_decomposition(g, root)
    top = dec.radius if max_radius is None else min(dec.radius, max_radius)
    spheres = dec.spheres[: max(top + 1, 0)]
    if not spheres:
        return SymmetryReport(True, None)
    fields = (dec.kappa_plus, "kappa_plus"), (dec.kappa_minus, "kappa_minus"), (dec.q, "q")
    # each sphere's least and largest value of each field, in one pass
    # per field, under the test _sphere_constant makes
    ids = np.concatenate(spheres)
    starts = np.cumsum([0] + [len(s) for s in spheres[:-1]])
    flagged = np.empty((len(spheres), len(fields)), dtype=bool)
    for j, (values, _) in enumerate(fields):
        vals = values[ids]
        a, b = np.minimum.reduceat(vals, starts), np.maximum.reduceat(vals, starts)
        with np.errstate(invalid="ignore"):  # inf vs inf differs, as for floats
            flagged[:, j] = ~(
                np.abs(a - b) <= SYMMETRY_TOL * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
            )
    # the witness: the first flagged sphere and field, by radius, then field
    for r, j in zip(*np.nonzero(flagged)):
        w = _sphere_constant(fields[j][0], spheres[r], int(r), fields[j][1])
        if w is not None:
            return SymmetryReport(False, w)
    return SymmetryReport(True, None)


def commutation_residual(
    g: WeightedGraph, dec: SphereDecomposition, f: Sequence[float]
) -> float:
    """Sup norm of L(Af) - A(Lf); zero exactly for weakly spherically
    symmetric graphs."""
    f = _as_function(g, f)
    avg = average(g, dec, f)
    lhs = laplacian(g, avg)
    rhs = average(g, dec, laplacian(g, f))
    return float(np.max(np.abs(lhs - rhs)))
