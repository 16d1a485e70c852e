"""Finite weighted graphs with vertex measure and killing term.

A graph over a finite vertex set is given by a symmetric edge weight
``b > 0`` on unordered vertex pairs (no loops), a killing term
``c >= 0`` and a strictly positive vertex measure ``m``.  On top of
this the module provides the pointwise Laplacian

    (L f)(x) = (1/m(x)) * ( sum_y b(x,y) (f(x) - f(y)) + c(x) f(x) ),

the quadratic energy functional

    Q(f) = 1/2 sum_{x,y} b(x,y) (f(x)-f(y))^2 + sum_x c(x) f(x)^2,

the form norm ``|f|_Q^2 = |f|^2 + Q(f)`` and the weighted vertex degree
``Deg(x) = (1/m(x)) (sum_y b(x,y) + c(x))``.

Vertex functions are plain numpy arrays indexed by vertex id.
"""

from __future__ import annotations

import io
import warnings
from typing import Callable, Iterable, NamedTuple, Sequence, TextIO

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

# the C counting sort of coo_matrix.tocsr(), without the constructors
# and checks around it, which cost a small graph more than the sort
from scipy.sparse._sparsetools import coo_tocsr as _coo_tocsr

from .errors import GraphFormatError, StructuralError

#: tolerance used when reconciling two floats that are required to be equal
#: (relative to the larger magnitude, with an absolute floor of 1).
SYMMETRY_TOL = 1e-9


def _vertex_text(t: float) -> str:
    """A vertex id as ``int()`` reads it (non-finite ids as they are)."""
    return str(int(t)) if np.isfinite(t) else str(float(t))


def _canonical_edges(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    pair_text: Callable[[int], str] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated edge arrays ``(u, v, w)`` with ``u < v``, sorted by
    ``(u, v)``, one entry per vertex pair, from integer id columns ``u``,
    ``v`` and a weight column ``w``; no output shares the input's memory.

    A pair listed twice keeps its first weight; a later weight must agree
    with it within :data:`SYMMETRY_TOL`.  The error names the first
    offending edge in input order, an unknown vertex's edge worded by
    ``pair_text(i)`` when that is given.
    """
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    w = np.asarray(w, dtype=float)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    known = (lo >= 0) & (hi < n)
    bad = ~known | (lo == hi) | ~(w > 0)
    stop = int(np.argmax(bad)) if bad.any() else len(w)

    lo, hi = lo[:stop], hi[:stop]
    key = lo * n + hi  # n*n fits int64 for any n held in memory
    if stop == len(w) and np.all(key[1:] > key[:-1]):
        return lo, hi, w.copy()  # sorted already; never alias the caller's array
    # one stable sort on the pair key: repeats keep their input order
    order = np.argsort(key, kind="stable")
    lo, hi, ws = lo[order], hi[order], w[:stop][order]
    first = np.ones(len(ws), dtype=bool)
    first[1:] = np.diff(key[order]) != 0
    repeat = np.flatnonzero(~first)
    if len(repeat):
        # each repeat against the first weight listed for its pair
        seen, again = ws[first][np.cumsum(first)[repeat] - 1], ws[repeat]
        with np.errstate(invalid="ignore"):  # inf vs inf conflicts, as for floats
            close = np.abs(seen - again) <= SYMMETRY_TOL * np.maximum(
                1.0, np.maximum(np.abs(seen), np.abs(again))
            )
        clash = np.flatnonzero(~close)
        if len(clash):
            i = clash[np.argmin(order[repeat[clash]])]
            pair = (int(lo[repeat[i]]), int(hi[repeat[i]]))
            raise ValueError(
                f"conflicting weights for edge {pair}: {float(seen[i])} vs {float(again[i])}"
            )
    if stop < len(w):
        pair = f"({int(u[stop])},{int(v[stop])})"
        if not known[stop]:
            pair = pair if pair_text is None else pair_text(stop)
            raise ValueError(f"edge {pair} references an unknown vertex")
        if u[stop] == v[stop]:
            raise ValueError(f"loop at vertex {int(u[stop])} is not allowed")
        raise ValueError(f"edge {pair} has non-positive weight {float(w[stop])}")
    return lo[first], hi[first], ws[first]


def _triple_columns(
    n: int, edges: Iterable[tuple[int, int, float]] | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Callable[[int], str]]:
    """``(u, v, w)`` columns of ``(u, v, b)`` triples, and the wording of
    an edge's ids.

    Ids are truncated toward zero, as ``int()`` does; an edge with an id
    ``int()`` would put outside ``[0, n)`` (nan and inf too) gets the id
    -1 on both ends, and its error words the ids as given.
    """
    if not hasattr(edges, "__len__"):
        edges = list(edges)
    e = np.asarray(edges, dtype=float)
    if e.size == 0:
        e = e.reshape(0, 3)
    if e.ndim != 2 or e.shape[1] != 3:
        raise ValueError(f"edges must be (u, v, weight) triples, got shape {e.shape}")
    x, y = e[:, 0], e[:, 1]
    # int(t) lies in [0, n) exactly when -1 < t < n (false for nan)
    known = (np.minimum(x, y) > -1) & (np.maximum(x, y) < n)
    u, v = np.where(known, e[:, :2].T, -1).astype(np.int64)
    return u, v, e[:, 2], lambda i: f"({_vertex_text(x[i])},{_vertex_text(y[i])})"


class _EdgeColumns(NamedTuple):
    """Edges as integer id columns ``u``, ``v`` and a weight column ``w``."""

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray


class WeightedGraph:
    """Immutable weighted graph ``(b, c)`` over ``(X, m)``.

    ``edges`` holds ``(u, v, b)`` triples in any form that
    ``np.asarray(edges, dtype=float)`` turns into shape ``(E, 3)``: a
    list or an iterator of tuples, or an ``(E, 3)`` array.  Float ids
    are truncated toward zero, as ``int()`` does.  Code inside the
    package (the family builders, the graph text reader,
    :func:`induced_subgraph`, ``series.quotient_graph``) instead hands
    over integer id columns and a weight column through
    :meth:`_from_columns`, so ids never pass through floats; both routes
    end in the same checks.  Edges are canonicalised to ``(min, max)``
    vertex order at construction; supplying both orientations is allowed
    as long as the two weights agree (within :data:`SYMMETRY_TOL`).
    Zero-weight edges are rejected rather than silently dropped: absence
    of an edge is expressed by not listing it.
    """

    def __init__(
        self,
        vertex_count: int,
        edges: Iterable[tuple[int, int, float]] | np.ndarray,
        measure: Sequence[float],
        killing: Sequence[float] | None = None,
    ) -> None:
        n = int(vertex_count)
        if n <= 0:
            raise ValueError("vertex_count must be positive")
        m = np.asarray(measure, dtype=float)
        if m.shape != (n,):
            raise ValueError(f"measure must have shape ({n},), got {m.shape}")
        if not np.all(m > 0):
            raise ValueError("vertex measure must be strictly positive")
        if killing is None:
            c = np.zeros(n)
        else:
            c = np.asarray(killing, dtype=float)
            if c.shape != (n,):
                raise ValueError(f"killing must have shape ({n},), got {c.shape}")
            if not np.all(c >= 0):
                raise ValueError("killing term must be nonnegative")

        if isinstance(edges, _EdgeColumns):
            (u, v, w), pair_text = edges, None
        else:
            u, v, w, pair_text = _triple_columns(n, edges)

        self.vertex_count = n
        self.measure = m
        self.killing = c
        self.edge_u, self.edge_v, self.edge_w = _canonical_edges(n, u, v, w, pair_text)

        # row x lists its neighbours by id: the edges (y, x), y < x, then
        # the edges (x, y), y > x, each in edge order, counted into place
        # in one pass; int32 indices while n and 2E fit, as scipy picks
        nnz = 2 * self.edge_count
        idx = np.int32 if max(n, nnz) <= np.iinfo(np.int32).max else np.int64
        indptr, indices, data = np.empty(n + 1, idx), np.empty(nnz, idx), np.empty(nnz)
        _coo_tocsr(
            n, n, nnz,
            np.concatenate((self.edge_v, self.edge_u), dtype=idx),
            np.concatenate((self.edge_u, self.edge_v), dtype=idx),
            np.concatenate((self.edge_w, self.edge_w)),
            indptr, indices, data,
        )
        self.adjacency = sp.csr_matrix((data, indices, indptr), shape=(n, n))

        for arr in (self.measure, self.killing, self.edge_u, self.edge_v, self.edge_w):
            arr.flags.writeable = False

    @classmethod
    def _from_columns(
        cls,
        vertex_count: int,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray,
        measure: Sequence[float],
        killing: Sequence[float] | None = None,
    ) -> WeightedGraph:
        """The graph of the edges ``(u[i], v[i], w[i])``: integer id
        columns and a weight column, checked as triples are."""
        return cls(vertex_count, _EdgeColumns(u, v, w), measure, killing)

    @property
    def edge_count(self) -> int:
        return len(self.edge_w)

    def neighbors(self, x: int) -> np.ndarray:
        row = self.adjacency.indptr
        return self.adjacency.indices[row[x] : row[x + 1]]

    def neighbor_weights(self, x: int) -> np.ndarray:
        row = self.adjacency.indptr
        return self.adjacency.data[row[x] : row[x + 1]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WeightedGraph(n={self.vertex_count}, edges={self.edge_count}, "
            f"killing={'yes' if self.killing.any() else 'no'})"
        )


def vertex_mask(n: int, ids: Iterable | np.ndarray, unknown: str) -> np.ndarray:
    """Boolean mask over ``range(n)`` of the vertex ids in ``ids``.

    ``ids`` is any iterable of ids, duplicates allowed.  A 1-d integer
    array is used as it is; anything else is read id by id with
    ``int()``, so floats truncate toward zero and nan or inf raise as
    ``int()`` does.  An id outside ``[0, n)`` raises
    ``ValueError(unknown.format(v=...))``, ``v`` being the smallest such
    id.  ``np.flatnonzero`` of the mask gives the sorted unique ids.
    """
    if isinstance(ids, np.ndarray) and ids.ndim == 1 and ids.dtype.kind in "iu":
        arr = ids
    else:
        vals = [int(v) for v in ids]
        try:
            arr = np.array(vals, dtype=np.int64)
        except OverflowError:  # beyond int64, hence out of range
            arr = np.array(vals, dtype=object)
    bad = (arr < 0) | (arr >= n)
    if bad.any():
        raise ValueError(unknown.format(v=int(arr[bad].min())))
    mask = np.zeros(n, dtype=bool)
    mask[arr] = True
    return mask


def _check_vertex(g: WeightedGraph, x: int) -> int:
    x = int(x)
    if not 0 <= x < g.vertex_count:
        raise ValueError(f"vertex {x} out of range [0, {g.vertex_count})")
    return x


def _as_function(g: WeightedGraph, f: Sequence[float]) -> np.ndarray:
    arr = np.asarray(f, dtype=float)
    if arr.shape != (g.vertex_count,):
        raise ValueError(
            f"vertex function must have shape ({g.vertex_count},), got {arr.shape}"
        )
    return arr


def laplacian(g: WeightedGraph, f: Sequence[float]) -> np.ndarray:
    """Apply the weighted Laplacian to ``f`` at every vertex."""
    f = _as_function(g, f)
    weighted_sum = g.adjacency @ f
    row_sums = np.asarray(g.adjacency.sum(axis=1)).ravel()
    return (row_sums * f - weighted_sum + g.killing * f) / g.measure


def apply_laplacian(g: WeightedGraph, f: Sequence[float], x: int) -> float:
    """Value of the Laplacian of ``f`` at the single vertex ``x``."""
    x = _check_vertex(g, x)
    f = _as_function(g, f)
    nbrs = g.neighbors(x)
    w = g.neighbor_weights(x)
    acc = float(np.dot(w, f[x] - f[nbrs])) + g.killing[x] * f[x]
    return acc / g.measure[x]


def energy(g: WeightedGraph, f: Sequence[float]) -> float:
    """Quadratic energy Q(f): edge part plus killing part."""
    f = _as_function(g, f)
    diffs = f[g.edge_u] - f[g.edge_v]
    return float(np.dot(g.edge_w, diffs * diffs) + np.dot(g.killing, f * f))


def energy_bilinear(g: WeightedGraph, f: Sequence[float], h: Sequence[float]) -> float:
    """Polarised energy Q(f, h); Q(f, f) equals :func:`energy`."""
    f = _as_function(g, f)
    h = _as_function(g, h)
    df = f[g.edge_u] - f[g.edge_v]
    dh = h[g.edge_u] - h[g.edge_v]
    return float(np.dot(g.edge_w, df * dh) + np.dot(g.killing, f * h))


def form_norm_sq(g: WeightedGraph, f: Sequence[float]) -> float:
    """Squared form norm: measure-weighted l2 norm squared plus energy."""
    f = _as_function(g, f)
    return float(np.dot(f * f, g.measure)) + energy(g, f)


def lp_norm(g: WeightedGraph, f: Sequence[float], p: float) -> float:
    """Measure-weighted lp norm of ``f``; ``p=inf`` gives the sup norm."""
    f = _as_function(g, f)
    if p == np.inf:
        return float(np.max(np.abs(f))) if len(f) else 0.0
    if p <= 0:
        raise ValueError("p must be positive or inf")
    return float(np.dot(np.abs(f) ** p, g.measure) ** (1.0 / p))


def weighted_degree(g: WeightedGraph, x: int) -> float:
    """Deg(x) = (sum of incident edge weights + killing) / measure."""
    x = _check_vertex(g, x)
    return float((g.neighbor_weights(x).sum() + g.killing[x]) / g.measure[x])


def degrees(g: WeightedGraph) -> np.ndarray:
    """Vector of weighted degrees at every vertex."""
    row_sums = np.asarray(g.adjacency.sum(axis=1)).ravel()
    return (row_sums + g.killing) / g.measure


def component_labels(g: WeightedGraph) -> tuple[int, np.ndarray]:
    """Connected components of the underlying graph (count, labels)."""
    return connected_components(g.adjacency, directed=False)


def induced_subgraph(
    g: WeightedGraph, vertices: Sequence[int]
) -> tuple[WeightedGraph, np.ndarray]:
    """Subgraph induced by ``vertices``.

    ``vertices`` takes the forms :func:`vertex_mask` accepts.  Returns
    the subgraph (with vertices renumbered in increasing id order) and
    the array mapping new ids back to the original ones.
    """
    keep = np.flatnonzero(vertex_mask(g.vertex_count, vertices, "vertex selection out of range"))
    if len(keep) == 0:
        raise ValueError("vertex selection is empty")
    new_id = -np.ones(g.vertex_count, dtype=np.int64)
    new_id[keep] = np.arange(len(keep))
    mask = (new_id[g.edge_u] >= 0) & (new_id[g.edge_v] >= 0)
    sub = WeightedGraph._from_columns(
        len(keep), new_id[g.edge_u[mask]], new_id[g.edge_v[mask]], g.edge_w[mask],
        g.measure[keep], g.killing[keep],
    )
    return sub, keep


# ---------------------------------------------------------------------------
# text format
#
# One record per line:
#   V <id> <m> <c>
#   E <id1> <id2> <b>
# '#' starts a comment; blank lines are ignored.  Vertex ids must form
# the contiguous range 0..n-1.  format_graph_text writes the V records in
# id order, then the E records in (u, v) order, single-spaced, floats as
# repr writes them.  That layout is read a column at a time, any other
# text line by line.
# ---------------------------------------------------------------------------


def parse_graph_text(text: str) -> WeightedGraph:
    g = _parse_columns(text)
    return _parse_lines(text) if g is None else g


#: every character of the layout :func:`format_graph_text` writes.  A
#: value token of these reads the same with numpy as with ``float()``.
_LAYOUT_CHARS = b"VE0123456789.e+- \n"
_V_ROW = np.dtype([("id", np.int64), ("m", float), ("c", float)])
_E_ROW = np.dtype([("u", np.int64), ("v", np.int64), ("w", float)])


def _read_rows(section: str, row: np.dtype) -> np.ndarray:
    """The last three tokens of every line, by numpy's C text reader."""
    return np.loadtxt(io.StringIO(section), usecols=(1, 2, 3), dtype=row, comments=None, ndmin=1)


def _padded(raw: bytes, space: np.ndarray) -> bool:
    """Whether a token of the text ``raw`` (``space`` where its bytes are
    spaces) starts ``0``, ``+0`` or ``-0`` and then a digit.

    ``int()`` refuses ids past 4300 digits; numpy reads ``000...01``.
    The text ends in a newline, so a ``0`` always has a byte after it.
    """
    a = np.frombuffer(raw, np.uint8)
    zero = np.flatnonzero(space[:-2] & (a[1:-1] == ord("0"))) + 1
    if b"+" in raw or b"-" in raw:
        sign = space[:-2] & ((a[1:-1] == ord("+")) | (a[1:-1] == ord("-")))
        after_sign = np.flatnonzero(sign) + 2
        zero = np.concatenate((zero, after_sign[a[after_sign] == ord("0")]))
    after = a[zero + 1]
    return bool(((after >= ord("0")) & (after <= ord("9"))).any())


def _parse_columns(text: str) -> WeightedGraph | None:
    """The graph of ``text`` read a column at a time, or None.

    Takes the layout :func:`format_graph_text` writes: all ``V``
    records first with the ids ``0..n-1`` in order, then the ``E``
    records, four tokens and a newline on every line.  Any other text,
    and any text :func:`_parse_lines` would refuse, gives None, and that
    loop then reads it and words its errors.  Every line starts with
    ``V`` or ``E`` and a space, numpy refuses a line of fewer than four
    tokens and there are three spaces per line, so all are single
    spaces; and once no token has a leading zero, numpy reads each
    token of these characters as ``int()`` or ``float()`` does, or
    refuses it.  The layout is checked on the text's bytes, in a few
    numpy passes, before numpy reads a number.
    """
    if not (text.isascii() and text.endswith("\n") and text.startswith("V ")):
        return None
    raw = text.encode("ascii")
    if raw.translate(None, _LAYOUT_CHARS):
        return None
    a = np.frombuffer(raw, np.uint8)
    space = a == ord(" ")
    starts = np.flatnonzero(a == ord("\n"))[:-1] + 1  # of every line but the first
    head = a[starts]
    n = 1 + int(np.count_nonzero(head == ord("V")))
    # the last heads are E, so the n - 1 V heads come first
    if not (
        (head[n - 1 :] == ord("E")).all()
        and space[starts + 1].all()
        and np.count_nonzero(space) == 3 * (len(starts) + 1)
        and not _padded(raw, space)
    ):
        return None
    split = int(starts[n - 1]) if n <= len(starts) else len(text)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy 1.24 reads the int "1.0", warning
            v = _read_rows(text[:split], _V_ROW)
            if np.array_equal(v["id"], np.arange(n)):
                e = _read_rows(text[split:], _E_ROW) if split < len(text) else np.empty(0, _E_ROW)
                return WeightedGraph._from_columns(
                    n, e["u"], e["v"], e["w"], v["m"].copy(), v["c"].copy()
                )
    except Exception:  # noqa: BLE001 - the loop words every error
        pass
    return None


def _parse_lines(text: str) -> WeightedGraph:
    """The line by line reader: every text, and every parse error."""
    measures: dict[int, float] = {}
    killings: dict[int, float] = {}
    edges: list[tuple[int, int, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "V":
                if len(parts) != 4:
                    raise ValueError("expected: V <id> <m> <c>")
                vid = int(parts[1])
                if vid < 0:
                    raise ValueError("vertex id must be nonnegative")
                if vid in measures:
                    raise ValueError(f"duplicate vertex {vid}")
                measures[vid] = float(parts[2])
                killings[vid] = float(parts[3])
            elif parts[0] == "E":
                if len(parts) != 4:
                    raise ValueError("expected: E <id1> <id2> <b>")
                edges.append((int(parts[1]), int(parts[2]), float(parts[3])))
            else:
                raise ValueError(f"unknown record type {parts[0]!r}")
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: {exc}") from None

    if not measures:
        raise GraphFormatError("no vertices declared")
    n = len(measures)
    if sorted(measures) != list(range(n)):
        raise GraphFormatError("vertex ids must form the contiguous range 0..n-1")
    try:
        return WeightedGraph(
            n,
            edges,
            [measures[i] for i in range(n)],
            [killings[i] for i in range(n)],
        )
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def _value_pieces(x: np.ndarray, end: str) -> np.ndarray:
    """``repr(v) + end`` for every value ``v`` of ``x``, as an object array.

    Each distinct value is written once: equal neighbours are found in
    one pass, and the values of the runs are told apart by bit pattern,
    so ``-0.0`` and ``0.0`` keep their own text.
    """
    if not len(x):
        return np.empty(0, dtype=object)
    bits = x.view(np.uint64)
    run = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    distinct, which = np.unique(bits[run], return_inverse=True)
    text = np.array([f"{v!r}{end}" for v in distinct.view(np.float64).tolist()], dtype=object)
    return np.repeat(text[which.reshape(-1)], np.diff(run, append=len(bits)))


def format_graph_text(g: WeightedGraph) -> str:
    """The text of ``g``: four pieces per record, each id's text and each
    distinct value's ``repr`` made once, gathered by array indexing and
    joined in one call."""
    n = g.vertex_count
    ids = np.array([f"{i} " for i in range(n)], dtype=object)
    pieces = np.empty((n + g.edge_count, 4), dtype=object)
    pieces[:n, 0] = "V "
    pieces[:n, 1] = ids
    pieces[:n, 2] = _value_pieces(g.measure, " ")
    pieces[:n, 3] = _value_pieces(g.killing, "\n")
    pieces[n:, 0] = "E "
    pieces[n:, 1] = ids[g.edge_u]
    pieces[n:, 2] = ids[g.edge_v]
    pieces[n:, 3] = _value_pieces(g.edge_w, "\n")
    return "".join(pieces.ravel().tolist())


def load_graph(source: str | TextIO) -> WeightedGraph:
    if hasattr(source, "read"):
        return parse_graph_text(source.read())
    with open(source, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def save_graph(g: WeightedGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph_text(g))


def require_connected_to(g: WeightedGraph, roots: Sequence[int]) -> None:
    """Raise :class:`StructuralError` listing vertices unreachable from
    ``roots``."""
    _, labels = component_labels(g)
    unreachable = np.flatnonzero(~np.isin(labels, labels[list(roots)]))
    if len(unreachable):
        shown = ", ".join(map(str, unreachable[:10].tolist()))
        more = "" if len(unreachable) <= 10 else f" (+{len(unreachable) - 10} more)"
        raise StructuralError(
            f"{len(unreachable)} vertices unreachable from the root set: {shown}{more}"
        )
