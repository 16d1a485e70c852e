"""Positive alpha-harmonic functions on radially layered graphs.

On a weakly spherically symmetric graph, a sphere-constant solution of
``(L + alpha) u = 0`` with ``u(0) = u0 > 0`` is produced by the forward
recurrence

    u(r+1) - u(r) = (1/dB(r)) * sum_{k<=r} (c(S_k) + alpha m(S_k)) u(k),

so ``u`` is strictly increasing.  The same function solves a finite
linear system on any truncation (anchored at the root, free boundary at
the outermost sphere), which :func:`truncated_dirichlet_solve` builds
directly from the graph; the two computations cross-validate each
other.

Membership of the solution in the bounded / finite-energy / summable
classes is decided from the profile's tail models:

* bounded        <=>  sum (c+m)(B_r)/dB(r) converges,
* finite energy  <=>  c(X) finite and sum (m(B_r))^2/dB(r) converges,
* lp (p=1,2)     <=>  total measure finite, provided u is bounded.

For an unbounded solution over finite total measure the lp questions
are a growth race the tail grammar does not decide; the verdict is
inconclusive in that case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from .errors import StructuralError
from .graph import WeightedGraph, _as_function, laplacian
from .series import (
    RadialProfile,
    SeriesKind,
    Verdict,
    VerdictState,
    series_verdict,
    tail_converges,
)
from .symmetry import sphere_decomposition


@dataclass(frozen=True)
class HarmonicSolution:
    """Radial solution of ``(L + alpha) u = 0`` with running summaries.

    ``values[r]`` is ``u(r)`` for ``r = 0..depth``; ``increments[r]``
    is ``u(r+1) - u(r)``.  ``partial_l1[r]`` and ``partial_l2[r]``
    accumulate ``sum_{k<=r} u(k)^j m(S_k)``; ``partial_energy[r]``
    accumulates ``sum_{k<=r} dB(k) (u(k+1)-u(k))^2 + c(S_k) u(k)^2``
    (defined for ``r < depth``).
    """

    alpha: float
    values: np.ndarray
    increments: np.ndarray
    partial_l1: np.ndarray
    partial_l2: np.ndarray
    partial_energy: np.ndarray

    @property
    def depth(self) -> int:
        return len(self.values) - 1

    @property
    def finite_rows(self) -> int:
        """Leading radii whose values and running sums are all finite:
        ``depth + 1`` unless the recurrence left the float range."""
        ok = np.isfinite(self.values) & np.isfinite(self.partial_l1) & np.isfinite(self.partial_l2)
        ok[:-1] &= np.isfinite(self.increments) & np.isfinite(self.partial_energy)
        return int(np.cumprod(ok).sum())


def solve_symmetric_harmonic(
    p: RadialProfile, alpha: float, u0: float, depth: int
) -> HarmonicSolution:
    """Run the forward recurrence to the given depth.

    Requires ``alpha > 0`` and ``u0 > 0``; the solution is then
    strictly increasing.  Depth may not exceed the range over which the
    profile has explicit values (custom tails stop at the prefix).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if u0 <= 0:
        raise ValueError("u0 must be positive")
    depth = int(depth)
    if depth < 1:
        raise ValueError("depth must be at least 1")
    avail = p.value_depth("boundary", "measure", "killing")
    if depth > avail:
        raise StructuralError(
            f"profile values end at radius {int(avail) - 1}; cannot solve to depth {depth}"
        )

    u = np.empty(depth + 1)
    inc = np.empty(depth)
    l1 = np.empty(depth + 1)
    l2 = np.empty(depth + 1)
    en = np.empty(depth)
    u[0] = u0
    drive = 0.0  # running sum of (c + alpha m)(S_k) u(k)
    acc_l1 = acc_l2 = acc_energy = 0.0
    # past the float range values turn inf or nan, quietly: callers find
    # the first non-finite radius themselves
    with np.errstate(all="ignore"):
        for r in range(depth + 1):
            m_r = p.sphere_measure(r)
            c_r = p.sphere_killing(r)
            acc_l1 += u[r] * m_r
            acc_l2 += u[r] ** 2 * m_r
            l1[r], l2[r] = acc_l1, acc_l2
            if r == depth:
                break
            b_r = p.boundary(r)
            if not b_r > 0:
                raise StructuralError(f"layer boundary weight dB({r}) = {b_r} is not positive")
            drive += (c_r + alpha * m_r) * u[r]
            inc[r] = drive / b_r
            u[r + 1] = u[r] + inc[r]
            acc_energy += b_r * inc[r] ** 2 + c_r * u[r] ** 2
            en[r] = acc_energy
    return HarmonicSolution(
        alpha=float(alpha),
        values=u,
        increments=inc,
        partial_l1=l1,
        partial_l2=l2,
        partial_energy=en,
    )


def truncated_dirichlet_solve(
    g: WeightedGraph,
    alpha: float,
    anchor: tuple[int, float],
    interior: np.ndarray | list[int] | None = None,
) -> np.ndarray:
    """Solve ``(L + alpha) u = 0`` on a truncation by direct linear algebra.

    Unknowns are all vertices except the anchor; equations are imposed
    at ``interior`` vertices only (default: every vertex whose BFS
    distance from the anchor is below the maximum, leaving the farthest
    sphere as a free boundary).  Edges absent from the truncation are
    simply absent: no boundary condition is invented for them.

    The system must be square — one free-boundary value per dropped
    equation.  A multi-vertex free boundary on a branching truncation
    is underdetermined at vertex level; solve its radial quotient chain
    instead (see :func:`formuniq.series.quotient_graph`).  Raises
    :class:`StructuralError` in that case, and verifies the residual of
    the computed solution.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    root, value = int(anchor[0]), float(anchor[1])
    if not 0 <= root < g.vertex_count:
        raise ValueError(f"anchor vertex {root} out of range")

    if interior is None:
        dec = sphere_decomposition(g, [root])
        interior_idx = np.flatnonzero(dec.radius_of < dec.radius)
    else:
        interior_idx = np.unique(np.asarray(interior, dtype=np.int64))
    n = g.vertex_count
    unknowns = np.array([v for v in range(n) if v != root], dtype=np.int64)
    if len(interior_idx) != len(unknowns):
        raise StructuralError(
            f"{len(interior_idx)} equations for {len(unknowns)} unknowns: "
            "the free boundary does not determine the system; solve the "
            "radial quotient chain instead"
        )

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

    mat = sp.csr_matrix(
        (vals, (rows, cols)), shape=(len(interior_idx), len(unknowns))
    )
    sol = spsolve(mat.tocsc(), rhs)
    if not np.all(np.isfinite(sol)):
        raise StructuralError("free-boundary system is singular")
    scale = max(1.0, float(np.max(np.abs(rhs))), float(np.max(np.abs(sol))))
    resid = float(np.max(np.abs(mat @ sol - rhs)))
    if resid > 1e-8 * scale * max(1.0, float(np.max(np.abs(mat.data)))):
        raise StructuralError(f"free-boundary solve did not converge (residual {resid:g})")

    u = np.empty(n)
    u[root] = value
    u[unknowns] = sol
    return u


def harmonic_residual(
    g: WeightedGraph,
    u: np.ndarray,
    alpha: float,
    vertices: np.ndarray | list[int] | None = None,
) -> float:
    """Sup norm of ``(L + alpha) u`` over the given vertices (default all)."""
    u = _as_function(g, u)
    resid = laplacian(g, u) + alpha * u
    if vertices is not None:
        resid = resid[np.asarray(vertices, dtype=np.int64)]
    return float(np.max(np.abs(resid))) if len(resid) else 0.0


@dataclass(frozen=True)
class MembershipReport:
    """Where the increasing radial solution lives."""

    bounded: Verdict
    finite_energy: Verdict
    l1: Verdict
    l2: Verdict

    def __iter__(self):
        yield from (
            ("bounded", self.bounded),
            ("finite_energy", self.finite_energy),
            ("l1", self.l1),
            ("l2", self.l2),
        )


def _lp_verdict(
    p_label: str,
    bounded: Verdict,
    measure_finite: bool | None,
    partials: tuple[float, ...],
    depths: tuple[int, ...],
) -> Verdict:
    label = f"solution lies in {p_label} (measure-weighted)"
    if measure_finite is None:
        return Verdict(
            VerdictState.INCONCLUSIVE,
            label,
            "total measure undecidable",
            kind=p_label,
            sample_depths=depths,
            partial_sums=partials,
        )
    if not measure_finite:
        return Verdict(
            VerdictState.FAILS,
            label,
            "u >= u(0) > 0 against infinite total measure",
            kind=p_label,
            sample_depths=depths,
            partial_sums=partials,
        )
    if bounded.holds:
        return Verdict(
            VerdictState.HOLDS,
            label,
            "bounded solution over finite total measure",
            kind=p_label,
            sample_depths=depths,
            partial_sums=partials,
        )
    if bounded.fails:
        return Verdict(
            VerdictState.INCONCLUSIVE,
            label,
            "unbounded solution over finite total measure: growth race undecided",
            kind=p_label,
            sample_depths=depths,
            partial_sums=partials,
        )
    return Verdict(
        VerdictState.INCONCLUSIVE,
        label,
        "boundedness undecided",
        kind=p_label,
        sample_depths=depths,
        partial_sums=partials,
    )


def membership_report(p: RadialProfile, sol: HarmonicSolution) -> MembershipReport:
    """Decide bounded / finite-energy / l1 / l2 membership of the
    increasing radial solution, with the solution's running sums as
    diagnostics."""
    bh = series_verdict(p, SeriesKind.BOUNDED_HARMONIC)
    ew = series_verdict(p, SeriesKind.ENERGY_WEIGHT)

    last = max(1, min(sol.depth, sol.finite_rows - 1))  # sampled within the float range
    depths = tuple(
        d for d in (1, 2, 4, 8, 16, 32, 64, 128, 256) if d < last
    ) + (last,)
    l1_partials = tuple(float(sol.partial_l1[d] ) for d in depths)
    l2_partials = tuple(float(sol.partial_l2[d]) for d in depths)
    en_partials = tuple(float(sol.partial_energy[d - 1]) for d in depths)

    bounded = Verdict(
        bh.state,
        "solution is bounded",
        f"follows {bh.label}: {bh.reason}",
        kind="bounded",
        sample_depths=bh.sample_depths,
        partial_sums=bh.partial_sums,
    )

    c_conv = tail_converges(p.killing_tail)
    if c_conv is False:
        fe_state, fe_reason = VerdictState.FAILS, "infinite total killing"
    elif c_conv is None:
        fe_state, fe_reason = VerdictState.INCONCLUSIVE, "total killing undecidable"
    else:
        fe_state = ew.state
        fe_reason = f"finite total killing; follows {ew.label}: {ew.reason}"
    finite_energy = Verdict(
        fe_state,
        "solution has finite energy (form-domain membership)",
        fe_reason,
        kind="finite_energy",
        sample_depths=depths,
        partial_sums=en_partials,
    )

    measure_finite = tail_converges(p.measure_tail)
    l1 = _lp_verdict("l1", bounded, measure_finite, l1_partials, depths)
    l2 = _lp_verdict("l2", bounded, measure_finite, l2_partials, depths)
    return MembershipReport(bounded=bounded, finite_energy=finite_energy, l1=l1, l2=l2)
