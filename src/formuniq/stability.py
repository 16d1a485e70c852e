"""Decompositions X = X1 u X2, boundary degrees, and gluing verdicts.

Splitting the edge set into the two induced halves plus the crossing
(boundary) part splits the energy exactly, and when the boundary degree
Deg_b(x) = (1/m(x)) sum_y b_cross(x,y) is bounded the crossing form is
a bounded operator, so form uniqueness of the whole graph is equivalent
to form uniqueness of both induced halves.  For graphs whose complement
components (ends) are symmetric chains, the question localizes further:
uniqueness fails iff some end has finite total (c+m)-mass and summable
resistance.  The instability analyzers replay, at desk scale, the three
counterexamples showing that the boundedness hypothesis is not
decorative.  What is particular to a family (the crossing-degree classes
of its split, a replay's rails and hypotheses) is what it declares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np
from scipy.sparse.csgraph import connected_components

from .errors import PreconditionError, StructuralError
from .capacity import CapacityEstimate, _check_depths, _profile_capacity
from .families import Family, Truncation
from .graph import WeightedGraph, vertex_mask
from .harmonic import truncated_dirichlet_solve
from .series import (
    SeriesKind,
    Verdict,
    VerdictState,
    _evaluate,
    state_and,
    tail_bounded,
    tail_bounded_below,
)

EDGE_X1, EDGE_X2, EDGE_CROSS = 1, 2, 0


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Decomposition:
    """Edge and vertex split induced by a vertex set X1.

    ``edge_region[i]`` classifies the graph's i-th edge (1 = inside X1,
    2 = inside X2, 0 = crossing); ``deg_boundary`` is the crossing
    degree (1/m(x)) sum b_cross(x, y), zero away from the interface;
    ``ends`` are the connected components of the induced graph on X2,
    as sorted tuples of original vertex ids.
    """

    graph: WeightedGraph
    x1: np.ndarray
    x2: np.ndarray
    edge_region: np.ndarray
    deg_boundary: np.ndarray
    ends: tuple[tuple[int, ...], ...]

    @property
    def crossing_weight(self) -> float:
        return float(self.graph.edge_w[self.edge_region == EDGE_CROSS].sum())


def decompose(g: WeightedGraph, x1: Sequence[int]) -> Decomposition:
    """Split the graph along X1 versus its complement.

    ``x1`` takes the forms :func:`~formuniq.graph.vertex_mask` accepts.
    """
    in_x1 = vertex_mask(g.vertex_count, x1, "x1 references an unknown vertex")
    ids = np.flatnonzero(in_x1)

    u_in = in_x1[g.edge_u]
    v_in = in_x1[g.edge_v]
    region = np.where(u_in & v_in, EDGE_X1, np.where(~u_in & ~v_in, EDGE_X2, EDGE_CROSS))

    cross = region == EDGE_CROSS
    w = g.edge_w[cross]
    deg = np.bincount(
        np.concatenate((g.edge_u[cross], g.edge_v[cross])),
        weights=np.concatenate((w, w)),
        minlength=g.vertex_count,
    ) / g.measure

    x2 = np.nonzero(~in_x1)[0]
    ends: tuple[tuple[int, ...], ...] = ()
    if len(x2):
        count, labels = connected_components(g.adjacency[x2][:, x2], directed=False)
        # one stable sort lists each component's vertices in id order
        members = x2[np.argsort(labels, kind="stable")].tolist()
        bounds = np.cumsum(np.bincount(labels, minlength=count)).tolist()
        ends = tuple(tuple(members[a:b]) for a, b in zip([0] + bounds, bounds))
    return Decomposition(g, ids, x2, region, deg, ends)


@dataclass(frozen=True)
class EnergySplit:
    inside_x1: float
    inside_x2: float
    crossing: float

    @property
    def total(self) -> float:
        return self.inside_x1 + self.inside_x2 + self.crossing


def energy_parts(dec: Decomposition, f: np.ndarray) -> EnergySplit:
    """Q(f) split as Q1 + Q2 + Q_cross (killing stays with its vertex)."""
    g = dec.graph
    f = np.asarray(f, dtype=float)
    if f.shape != (g.vertex_count,):
        raise ValueError("function length does not match the vertex count")
    diff_sq = g.edge_w * (f[g.edge_u] - f[g.edge_v]) ** 2
    kill = g.killing * f**2
    in_x1 = np.zeros(g.vertex_count, dtype=bool)
    in_x1[dec.x1] = True
    q1 = float(diff_sq[dec.edge_region == EDGE_X1].sum() + kill[in_x1].sum())
    q2 = float(diff_sq[dec.edge_region == EDGE_X2].sum() + kill[~in_x1].sum())
    qb = float(diff_sq[dec.edge_region == EDGE_CROSS].sum())
    return EnergySplit(q1, q2, qb)


# ---------------------------------------------------------------------------
# boundary degree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryDegreeReport:
    """Sup of Deg_b with provenance.

    ``bounded`` is None when only finite evidence exists (a finite
    truncation always has a finite max) and no closed form or explicit
    bound settles the infinite-graph question.
    """

    max_value: float
    argmax: int
    bounded: bool | None
    detail: str = ""


def boundary_degree_bounded(
    dec: Decomposition, bound: float | None = None
) -> BoundaryDegreeReport:
    """Max of Deg_b over a finite decomposition, tested against ``bound``.

    A non-finite ``bound`` certifies nothing and raises ``ValueError``.
    """
    if bound is not None and not math.isfinite(bound):
        raise ValueError(f"crossing-degree bound must be finite, got {bound!r}")
    if not len(dec.deg_boundary) or dec.deg_boundary.max() == 0.0:
        return BoundaryDegreeReport(0.0, -1, True, "no crossing edges")
    worst = int(np.argmax(dec.deg_boundary))
    top = float(dec.deg_boundary[worst])
    if bound is not None:
        ok = top <= bound
        return BoundaryDegreeReport(
            top, worst, ok, f"max {top:.6g} vs bound {bound:.6g}"
        )
    return BoundaryDegreeReport(
        top, worst, None, "finite truncation: max is finite, limit behavior unknown"
    )


def _crossing_degree_decision(family: Family) -> tuple[bool | None, str]:
    """Exact boundedness of Deg_b from the closed-form classes the family
    declares, with its reason; None for a family that declares none."""
    if family.crossing_degree is None:
        return None, f"no closed-form crossing degree for family kind {family.kind!r}"
    classes = family.crossing_degree()
    culprit = next((lbl for lbl, t in classes if not tail_bounded(t)), None)
    if culprit is not None:
        return False, f"closed form: {culprit} is unbounded"
    if not classes:
        return True, "X1 is finite: finitely many crossing edges"
    return True, "closed form: every crossing-degree sequence is bounded"


# truncation depths whose crossing-degree maxima the reports print
_BOUNDARY_DEPTHS = (8, 16, 32)


def family_boundary_degree(family: Family) -> BoundaryDegreeReport:
    """Boundedness of Deg_b for a family's canonical decomposition.

    The decision comes from the closed-form crossing-degree sequences;
    the reported max is the largest Deg_b over the depth 8, 16 and 32
    truncations.
    """
    if not family.x1_role:
        raise PreconditionError(
            f"family {family.name!r} has no canonical decomposition"
        )
    bounded, detail = _crossing_degree_decision(family)
    worst = (-1.0, -1)
    for d in _BOUNDARY_DEPTHS:
        trunc = family.build(d)
        dec = decompose(trunc.graph, _family_x1(trunc, family.x1_role))
        rep = boundary_degree_bounded(dec)
        if rep.max_value > worst[0]:
            worst = (rep.max_value, rep.argmax)
    return BoundaryDegreeReport(worst[0], worst[1], bounded, detail)


def _family_x1(trunc: Truncation, role: str) -> np.ndarray:
    rail = trunc.rail(role)
    if not len(rail):
        raise StructuralError(f"no vertices with role {role!r}")
    return rail


# ---------------------------------------------------------------------------
# stability and symmetric-ends verdicts
# ---------------------------------------------------------------------------


def stability_verdict(
    dec: Decomposition | BoundaryDegreeReport,
    verdict1: Verdict,
    verdict2: Verdict,
    *,
    bound: float | None = None,
) -> Verdict:
    """Form uniqueness of the glued graph from the two pieces.

    Requires certified boundedness of the crossing degree — pass a
    decomposition together with an explicit ``bound``, or a boundary
    report that already certifies it (e.g. from
    :func:`family_boundary_degree`).  Without certification the
    equivalence simply is not available (the pendant/star/ladder
    analyzers cover the known unbounded cases), so the result is
    Inconclusive flagged "hypothesis unmet".
    """
    if isinstance(dec, Decomposition):
        boundary = boundary_degree_bounded(dec, bound)
    else:
        boundary = dec
    if boundary.bounded is not True:
        why = boundary.detail or "crossing degree not certified bounded"
        return Verdict(
            VerdictState.INCONCLUSIVE,
            "form uniqueness (glued graph)",
            f"hypothesis unmet: {why}",
            kind="form_uniqueness",
        )
    state = state_and(verdict1.state, verdict2.state)
    reason = (
        f"crossing degree bounded (max {boundary.max_value:.6g}); "
        f"pieces: {verdict1.state.value} / {verdict2.state.value}"
    )
    return Verdict(state, "form uniqueness (glued graph)", reason, kind="form_uniqueness")


@dataclass(frozen=True)
class EndReport:
    name: str
    total_mass: Verdict
    resistance: Verdict
    fails: bool | None
    capacity: CapacityEstimate | None = None

    def __str__(self) -> str:
        status = {True: "not form unique", False: "form unique", None: "undecided"}[self.fails]
        return f"{self.name}: {status}"


@dataclass(frozen=True)
class EndsReport:
    family: str
    x1_condition: str
    boundary: BoundaryDegreeReport
    hypotheses_met: bool
    ends: tuple[EndReport, ...]
    verdict: Verdict


def _x1_form_unique(family: Family, x1_verdict: Verdict | None) -> tuple[bool | None, str]:
    """Check the X1 side, via sufficient conditions or a caller verdict."""
    if x1_verdict is not None:
        if x1_verdict.state is VerdictState.HOLDS:
            return True, "caller-certified verdict"
        if x1_verdict.state is VerdictState.FAILS:
            return False, "caller-certified verdict: X1 piece is not form unique"
        return None, "caller verdict inconclusive"
    if family.x1_profile is not None:
        m_tail = family.x1_profile.measure_tail
        if tail_bounded_below(m_tail):
            return True, "measure bounded below on X1"
        return None, (
            "no sufficient condition applies (X1 infinite, measure not "
            "bounded below); pass a certified verdict"
        )
    if family.crossing_degree is not None and not family.crossing_degree():
        return True, f"X1 = {{{family.x1_role}}} is finite"
    return None, "X1 structure unknown; pass a certified verdict"


def symmetric_ends_verdict(
    family: Family,
    *,
    x1_verdict: Verdict | None = None,
    capacity_depths: Sequence[int] = (),
) -> EndsReport:
    """Localize form uniqueness to the symmetric ends of a family.

    Hypotheses checked in order: the X1 piece form unique (via the
    sufficient conditions, or ``x1_verdict``), crossing degree bounded,
    ends carrying chain profiles.  When all hold, the glued graph fails
    form uniqueness iff some end has finite total (c+m)-mass together
    with summable resistance; pass ``capacity_depths`` to also classify
    each end's boundary capacity (positive-finite exactly on the
    failing ends).
    """
    if not family.end_profiles:
        raise PreconditionError(
            f"family {family.name!r} does not expose symmetric ends"
        )
    x1_ok, x1_detail = _x1_form_unique(family, x1_verdict)
    boundary = family_boundary_degree(family)

    ends = []
    for p in family.end_profiles:
        tm, res = _evaluate(p, (SeriesKind.TOTAL_MASS, SeriesKind.RESISTANCE)).values()
        fails = state_and(tm.state, res.state).truth
        cap = _profile_capacity(p, capacity_depths, (tm, res)) if capacity_depths else None
        ends.append(EndReport(p.name, tm, res, fails, cap))

    hypotheses_met = x1_ok is True and boundary.bounded is True
    if x1_ok is False:
        state, reason = VerdictState.INCONCLUSIVE, f"hypothesis unmet: {x1_detail}"
    elif not hypotheses_met:
        missing = []
        if x1_ok is not True:
            missing.append(f"X1 form uniqueness ({x1_detail})")
        if boundary.bounded is not True:
            missing.append(f"bounded crossing degree ({boundary.detail})")
        state, reason = VerdictState.INCONCLUSIVE, "hypothesis unmet: " + "; ".join(missing)
    elif any(e.fails for e in ends):
        culprit = next(e.name for e in ends if e.fails)
        state, reason = (
            VerdictState.FAILS,
            f"end {culprit} has finite total mass and summable resistance",
        )
    elif any(e.fails is None for e in ends):
        state, reason = VerdictState.INCONCLUSIVE, "some end's series verdicts are undecided"
    else:
        state, reason = (
            VerdictState.HOLDS,
            "every end has infinite total mass or divergent resistance",
        )
    verdict = Verdict(
        state, "form uniqueness (symmetric ends)", reason, kind="form_uniqueness"
    )
    return EndsReport(
        family.name, x1_detail, boundary, hypotheses_met, tuple(ends), verdict
    )


# ---------------------------------------------------------------------------
# instability example analyzers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InstabilityRow:
    depth: int
    window: int
    onset: int
    pattern_ok: bool
    witness_energy: float
    min_increment: float


@dataclass(frozen=True)
class InstabilityReport:
    """Numeric replay of an unbounded-crossing-degree counterexample.

    ``rows`` hold one positive-harmonic solve per depth; the witness
    energy is the partial sum of the designated edge family inside the
    analysis window (the last quarter of each truncation is discarded
    as boundary-distorted).  ``witness_diverges`` asserts that every
    per-layer increment stayed above ``floor`` and the partial sums
    grew accordingly across depths.
    """

    family: str
    kind: str
    hypotheses: tuple[str, ...]
    rows: tuple[InstabilityRow, ...]
    floor: float
    pattern_ok: bool
    witness_diverges: bool
    verdict: Verdict
    notes: tuple[str, ...] = ()


def _solve_example(trunc: Truncation, rail: np.ndarray) -> np.ndarray:
    """Positive solution of (L + 1) u = 0 anchored at the first vertex of
    ``rail``.

    The equation is imposed everywhere except the last vertex of the
    rail, which acts as a free boundary; on these examples the resulting
    function is the truncation's unique positive candidate.
    """
    g = trunc.graph
    interior = np.delete(np.arange(g.vertex_count), rail[-1])
    u = truncated_dirichlet_solve(g, 1.0, (rail[0], 1.0), interior=interior)
    if u.min() <= 0:
        raise StructuralError("positive-solution ansatz failed on the truncation")
    return u


def _increase_onset(values: np.ndarray) -> tuple[int, bool]:
    """(onset, ok): first index past the last resolvable decrease.

    On very deep truncations the exact increments shrink below float
    resolution relative to ``max u`` and round to exact ties; those are
    not counted as decreases.  ``ok`` additionally requires the first
    increment at the onset to be genuinely positive, so a flat or
    decreasing sequence is never certified.
    """
    diffs = np.diff(values)
    tol = 1e-12 * float(np.max(np.abs(values)))
    bad = np.nonzero(diffs < -tol)[0]
    onset = int(bad.max()) + 1 if len(bad) else 0
    ok = onset < len(diffs) and diffs[onset] > tol
    return onset, ok


def analyze_instability_example(
    family: Family,
    depths: Sequence[int] = (20, 40, 80),
    *,
    floor: float | None = None,
) -> InstabilityReport:
    """Replay one of the three gluing counterexamples numerically.

    Solves ``(L + 1) u = 0`` with u = 1 anchored at the chain start
    on each truncation, then verifies the monotonicity pattern in the
    numeric solution: past a detected onset index the chain rail
    strictly increases while each attached vertex (pendant, or the
    middle rail on the ladder) stays strictly below its chain
    neighbor.  The designated edge family (the vertical/rung edges)
    accumulates energy whose per-layer increments must stay above
    ``floor`` (default 1e-6 * u(anchor)^2) — the divergence witness.
    Raises a precondition error naming the first violated series
    hypothesis, and a structural error naming a rail that does not hold
    one vertex per layer.
    """
    if family.replay is None:
        raise PreconditionError(f"no instability analysis for family kind {family.kind!r}")
    rail0, attach, weight, checks = family.replay()
    hypotheses = []
    for wording, holds in checks:
        if holds is not True:
            raise PreconditionError(f"hypothesis not satisfied: {wording}")
        hypotheses.append(wording)
    _check_depths(depths)
    if len(depths) < 2:
        raise ValueError("depths must be increasing, at least two")
    floor_val = 1e-6 if floor is None else floor  # u(anchor) = 1 by anchoring

    rows = []
    notes: list[str] = []
    prev: tuple[int, float] | None = None
    increments_ok = True
    growth_ok = True
    pattern_all = True
    for depth in depths:
        trunc = family.build(depth)
        chain, attached = trunc.rail(rail0), trunc.rail(attach)
        for name, rail in ((rail0, chain), (attach, attached)):  # read by layer below
            if not np.array_equal(trunc.layer[rail], np.arange(depth + 1)):
                raise StructuralError(
                    f"rail {name!r} does not hold one vertex per layer 0..{depth}"
                )
        u = _solve_example(trunc, chain)
        # the last quarter of the truncation feels the free boundary;
        # patterns and energies are read inside the remaining window
        window = max(2, (3 * depth) // 4)

        onset, rising = _increase_onset(u[chain[: window + 2]])
        ks = np.arange(onset, window + 1)
        pattern = (
            rising
            and onset <= window // 2
            and bool(np.all(u[attached[ks]] < u[chain[ks]]))
        )

        weights = weight.values(ks)
        edge_e = weights * (u[chain[ks]] - u[attached[ks]]) ** 2
        witness = float(edge_e.sum())
        min_inc = float(edge_e.min()) if len(edge_e) else 0.0
        rows.append(InstabilityRow(depth, window, onset, pattern, witness, min_inc))
        pattern_all &= pattern
        if not pattern:
            notes.append(
                f"depth {depth}: monotone pattern not detected (onset {onset})"
            )
        if min_inc < floor_val:
            increments_ok = False
            notes.append(
                f"depth {depth}: a per-layer increment fell to {min_inc:.3e}"
            )
        if prev is not None:
            added_layers = max(window - prev[0], 1)
            if witness - prev[1] < floor_val * added_layers * 0.5:
                growth_ok = False
                notes.append(
                    f"depth {depth}: witness energy grew only "
                    f"{witness - prev[1]:.3e} over {added_layers} layers"
                )
        prev = (window, witness)

    bounded, detail = _crossing_degree_decision(family)
    if bounded is False:
        notes.append(
            f"crossing degree unbounded ({detail}): the bounded-"
            "gluing equivalence does not apply; this analysis replaces it"
        )

    diverges = increments_ok and growth_ok and pattern_all
    if diverges:
        state, reason = (
            VerdictState.HOLDS,
            "every positive harmonic candidate accrues unbounded energy "
            "along the designated edges",
        )
    else:
        state, reason = (
            VerdictState.INCONCLUSIVE,
            "numeric replay did not certify the divergence witness",
        )
    verdict = Verdict(state, "form uniqueness (glued graph)", reason, kind="form_uniqueness")
    return InstabilityReport(
        family=family.name,
        kind=family.kind,
        hypotheses=tuple(hypotheses),
        rows=tuple(rows),
        floor=floor_val,
        pattern_ok=pattern_all,
        witness_diverges=diverges,
        verdict=verdict,
        notes=tuple(notes),
    )
