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
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

from .errors import StructuralError
from .graph import (
    WeightedGraph,
    _as_function,
    _within_tol,
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


def _ordered_sums(keys: np.ndarray, values: np.ndarray, length: int) -> np.ndarray:
    """``np.sum`` of each key's values, in input order, for keys ``0..length-1``.

    ``np.bincount`` adds left to right; ``np.sum`` does so for fewer
    than eight terms and sums longer runs pairwise.  The two agree on
    nonnegative integer terms with a total below 2**53, so only the
    other groups of eight or more terms are summed again by ``np.sum``;
    when every term is an integer and every total below 2**53, no group
    is even counted.
    """
    sums = np.bincount(keys, weights=values, minlength=length)
    fraction = values != np.floor(values)
    big = sums >= 2.0**53
    if not (fraction.any() or big.any()):
        return sums
    counts = np.bincount(keys, minlength=length)
    inexact = np.bincount(keys[fraction], minlength=length) > 0
    redo = np.flatnonzero((counts >= 8) & (inexact | big))
    if len(redo):
        grouped = values[np.argsort(keys, kind="stable")]
        ends = np.cumsum(counts)
        for k in redo:
            sums[k] = grouped[ends[k] - counts[k] : ends[k]].sum()
    return sums


def _radii(g: WeightedGraph, roots: np.ndarray) -> np.ndarray:
    """Distance of every vertex from the sorted root set ``roots``.

    One breadth-first pass from a virtual vertex ``n`` whose row lists
    the roots gives each vertex its parent; the radii then follow by
    pointer doubling, in log2(depth) array passes.
    """
    n, adj = g.vertex_count, g.adjacency
    idx = adj.indices.dtype
    indptr = np.concatenate((adj.indptr, [adj.indptr[-1] + len(roots)]), dtype=idx)
    indices = np.concatenate((adj.indices, roots), dtype=idx)
    # the traversal reads only the pattern: every stored value is 1.0
    pattern = sp.csr_matrix(
        (np.broadcast_to(1.0, len(indices)), indices, indptr), shape=(n + 1, n + 1)
    )
    _, parent = breadth_first_order(pattern, n, directed=True, return_predecessors=True)
    up = parent[:n].astype(np.int64)
    if (up < 0).any():  # a vertex the traversal never reached
        require_connected_to(g, roots)
    # radius[x] is the distance from x up to up[x]; a root is its own parent
    up[roots] = roots
    radius = np.ones(n, dtype=np.int64)
    radius[roots] = 0
    while (hop := radius[up]).any():
        radius += hop
        up = up[up]
    return radius


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

    radius = _radii(g, roots)
    sizes = np.bincount(radius)
    order = np.argsort(radius, kind="stable")
    bounds = np.cumsum(sizes).tolist()
    spheres = tuple(order[a:b] for a, b in zip([0] + bounds, bounds))

    # one key 3 x + 1 + r(y) - r(x) per adjacency entry (x, y): row x
    # lists its neighbours by id, so each of the inward, intra-sphere and
    # outward sums of x adds its terms in neighbour-id order
    adj = g.adjacency
    keys = np.repeat(3 * np.arange(n) + 1 - radius, np.diff(adj.indptr))
    keys += radius[adj.indices]
    inward, within, out = _ordered_sums(keys, adj.data, 3 * n).reshape(n, 3).T
    # a weight over a tiny measure may leave the float range: the ratio
    # is then inf, quietly (a deep quotient chain is still a valid graph)
    with np.errstate(over="ignore"):
        kplus = out / g.measure
        kminus = inward / g.measure
        kzero = within / g.measure
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
    # each sphere's least and largest value of each field, in one pass per
    # field; they agree when equal, inf included, or finite and close
    ids = np.concatenate(spheres)
    starts = np.cumsum([0] + [len(s) for s in spheres[:-1]])
    differ = np.empty((len(spheres), len(fields)), dtype=bool)
    for j, (values, _) in enumerate(fields):
        vals = values[ids]
        a, b = np.minimum.reduceat(vals, starts), np.maximum.reduceat(vals, starts)
        differ[:, j] = ~((a == b) | _within_tol(a, b))
    if not differ.any():
        return SymmetryReport(True, None)
    # the witness: the first sphere and field that differ, by radius, then field
    r, j = np.argwhere(differ)[0].tolist()
    (values, name), sphere = fields[j], spheres[r]
    a, b = int(sphere[np.argmin(values[sphere])]), int(sphere[np.argmax(values[sphere])])
    return SymmetryReport(
        False, SymmetryWitness(r, a, b, name, float(values[a]), float(values[b]))
    )
