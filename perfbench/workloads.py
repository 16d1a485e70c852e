"""The three benchmark workloads: seeded inputs, timed operations, output checks.

Each workload hands out *rounds*: lists of operations with a fixed
composition (the same number of each input class per round, numeric
parameters drawn by stratified sampling), so that throughput depends on
the program and not on which seed was lucky.  Random chains, killing and
edge profiles, depth schedules and perturbations are fresh in every
operation.  Fixed inputs recur: the seven WSS gallery profiles rotate one
per round, and the graph sizes of ``graphs`` are the same in every round.

An operation is timed from the first call into formuniq until its result
(or exception) is back.  Its output check runs afterwards, untimed, and
sorts the operation into one of three outcomes:

``ok``
    the program answered and the answer passed every check;
``known``
    the program hit one of the documented defects listed in
    ``KNOWN_DEFECTS`` on the input class that provokes it;
``failed``
    anything else: an unexpected exception or exit code, or a wrong
    answer (``wrong:...``), which also makes the run incorrect.

Closed-form oracles live here, in the benchmark's own code: a verdict is
never checked against another formuniq function.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import traceback
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

KNOWN_DEFECTS = {
    "4c-overflow": "arithmetic overflow/underflow in series diagnostics on extreme tails "
    "(ROADMAP open item 4(c))",
    "4b-breakdown": "ill-conditioned solve at depth reported as a structural error "
    "(ROADMAP open item 4(b))",
    "emit-repr": "`family --emit profile` writes numpy scalars as 'np.float64(...)', which "
    "`analyze --profile` rejects (exit 2); hits the binary_tree gallery profile",
    "capacity-finite-depth": "capacity classified positive-finite from truncations too shallow "
    "to see a resistance sum that diverges only through a geometric factor",
    "killing-crosscheck": "bundle cross-check 'energy_weight converges but bounded_harmonic "
    "diverges' fires on profiles whose killing sum diverges; exit 2 on valid input",
}

# StructuralError messages that signal numerical breakdown of a solve
_BREAKDOWN = re.compile(
    r"capacity increased|escaped \[0, 1\]|did not converge|solve failed|system is singular"
)
_KILLING_CROSSCHECK = "energy_weight converges but bounded_harmonic diverges"

WSS_GALLERY = (
    "geometric_chain",
    "unit_chain",
    "square_chain",
    "binary_tree",
    "linear_anti_tree",
    "quadratic_anti_tree",
    "geom_mass_anti_tree",
)


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``judge`` checks the result."""

    run: Callable[[], Any]
    judge: Callable[[Any, BaseException | None], "Outcome"]


@dataclass
class Outcome:
    status: str  # "ok" | "known" | "failed"
    label: str = ""
    edges: int = 0


def ok(edges: int = 0) -> Outcome:
    return Outcome("ok", "", edges)


def wrong(reason: str) -> Outcome:
    return Outcome("failed", f"wrong:{reason}")


def exc_label(exc: BaseException) -> str:
    """``Type@module``: the exception type and the innermost formuniq module."""
    module = "bench"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        mod = frame.f_globals.get("__name__", "")
        if mod == "formuniq" or mod.startswith("formuniq."):
            module = mod.rsplit(".", 1)[-1]
    return f"{type(exc).__name__}@{module}"


def known(defect: str, where: str) -> Outcome:
    """A documented defect: ``defect`` is a key of KNOWN_DEFECTS."""
    if defect not in KNOWN_DEFECTS:
        raise KeyError(f"undocumented defect class {defect!r}")
    return Outcome("known", f"{defect}:{where}")


def classify_exc(exc: BaseException, defect: str | None) -> Outcome:
    """A raised exception is a known defect when ``defect`` names one."""
    if defect is not None:
        return known(defect, exc_label(exc))
    return Outcome("failed", exc_label(exc))


def _is_breakdown(exc: BaseException) -> bool:
    return isinstance(exc, ValueError) and bool(_BREAKDOWN.search(str(exc)))


# ---------------------------------------------------------------------------
# sampling and closed forms
# ---------------------------------------------------------------------------


def strata(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """``n`` draws from U[lo, hi], one per equal-width stratum, shuffled."""
    u = (rng.permutation(n) + rng.random(n)) / n
    return lo + (hi - lo) * u


class Draws:
    """Stratified draws spread over rounds, for parameters drawn once or
    twice per round: each block of ``block`` consecutive values under one
    key takes one value from each of ``block`` equal strata of the range."""

    def __init__(self) -> None:
        self.pending: dict[str, list[float]] = {}

    def take(self, rng, key: str, lo: float, hi: float, block: int = 8) -> float:
        buf = self.pending.setdefault(key, [])
        if not buf:
            buf.extend(strata(rng, block, lo, hi).tolist())
        return buf.pop()

    def take_int(self, rng, key: str, lo: int, hi: int, block: int = 8) -> int:
        return int(self.take(rng, key, lo, hi + 1, block))

    def triple(self, rng, key: str, block: int = 4) -> tuple:
        """A closed-form sequence (C, p, rho) from the acceptance suite's
        random-chain ranges, each parameter stratified across rounds: the
        cost of a chain operation depends mostly on whether rho < 1, so
        every ``block`` rounds see the same share of geometric tails."""
        return (
            self.take(rng, key + ".C", 0.3, 3.0, block),
            self.take(rng, key + ".p", -2.0, 2.0, block),
            self.take(rng, key + ".rho", 0.55, 1.8, block),
        )


def chain_triples(rng: np.random.Generator, n: int, *, edge: bool = False) -> list[tuple]:
    """``n`` closed-form sequences (C, p, rho).

    The default range is the acceptance suite's random chain
    (C in [0.3, 3], p in [-2, 2], rho in [0.55, 1.8]); ``edge`` draws
    from the whole documented grammar (C log-uniform in [1e-3, 1e3],
    p in [-6, 6], rho in [0.05, 20]).
    """
    if edge:
        c = 10.0 ** strata(rng, n, -3.0, 3.0)
        p = strata(rng, n, -6.0, 6.0)
        rho = strata(rng, n, 0.05, 20.0)
    else:
        c = strata(rng, n, 0.3, 3.0)
        p = strata(rng, n, -2.0, 2.0)
        rho = strata(rng, n, 0.55, 1.8)
    return [(float(a), float(b), float(r)) for a, b, r in zip(c, p, rho)]


def seq_value(t: tuple, r: int) -> float:
    c, p, rho = t
    return c * float(r + 1) ** p * rho**r


def sum_converges(t: tuple) -> bool:
    """Does sum_r C (r+1)^p rho^r converge?"""
    c, p, rho = t
    if c == 0:
        return True
    if rho != 1:
        return rho < 1
    return p < -1


def reciprocal(t: tuple) -> tuple:
    c, p, rho = t
    return (1.0 / c, -p, 1.0 / rho)


def cumulative(t: tuple) -> tuple:
    """Growth class of the partial sums of a positive closed-form sequence."""
    c, p, rho = t
    if sum_converges(t):
        return (1.0, 0.0, 1.0)
    if rho > 1:
        return t
    return (c, p + 1.0, 1.0)


def bounded_solution(b: tuple, m: tuple) -> bool:
    """Is the increasing harmonic solution of a chain bounded, i.e. does
    sum_r m(B_r) / b(r) converge?"""
    mb, rb = cumulative(m), reciprocal(b)
    return sum_converges((mb[0] * rb[0], mb[1] + rb[1], mb[2] * rb[2]))


def form_uniqueness_fails(b: tuple, m: tuple, c: tuple | None) -> bool:
    """Closed-form oracle: fails <=> sum (c+m) < inf and sum 1/b < inf."""
    mass = sum_converges(m) and (c is None or sum_converges(c))
    return mass and sum_converges(reciprocal(b))


# ---------------------------------------------------------------------------
# profiles: `formuniq analyze --profile FILE --json`
# ---------------------------------------------------------------------------

PROFILE_PREFIX = 48


def _fmt_tail(t: tuple | None) -> str:
    if t is None:
        return "C=0.0 p=0.0 rho=1.0"
    return f"C={t[0]!r} p={t[1]!r} rho={t[2]!r}"


def profile_text(b: tuple, m: tuple, c: tuple | None, n: int = PROFILE_PREFIX) -> str:
    """Birth-death profile in the documented text format."""

    def row(t):
        return " ".join(repr(seq_value(t, r)) for r in range(n))

    return (
        "[prefix]\n"
        f"boundary = {row(b)}\n"
        f"sphere_m = {row(m)}\n"
        f"sphere_c = {row(c) if c else ' '.join(['0.0'] * n)}\n"
        f"sphere_count = {' '.join(['1.0'] * n)}\n"
        "[tail]\n"
        f"boundary = {_fmt_tail(b)}\n"
        f"sphere_m = {_fmt_tail(m)}\n"
        f"sphere_c = {_fmt_tail(c)}\n"
        "sphere_count = C=1.0 p=0.0 rho=1.0\n"
    )


def _number(text: str) -> float:
    """A float written plainly or as a numpy scalar repr, 'np.float64(2.0)'."""
    return float(re.sub(r"^np\.float64\((.*)\)$", r"\1", text))


def tails_of(text: str) -> dict[str, tuple]:
    """(C, p, rho) of every closed-form tail in a profile file."""
    out = {}
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line
        elif section == "[tail]" and "=" in line:
            key, value = (s.strip() for s in line.split("=", 1))
            fields = dict(part.split("=", 1) for part in value.split())
            out[key] = (
                _number(fields["C"]),
                _number(fields.get("p", "0")),
                _number(fields.get("rho", "1")),
            )
    return out


class Profiles:
    """Profile files through the command line, captured in-process."""

    name = "profiles"
    # per round: random chains, chains with killing, edge slice, gallery
    MIX = {"chain": 28, "killing": 6, "edge": 5, "gallery": 1}
    SMOKE_MIX = {"chain": 2, "killing": 1, "edge": 1, "gallery": 1}

    def __init__(self, fq, workdir: str) -> None:
        self.fq = fq
        self.workdir = workdir
        self.gallery: dict[str, str] = {}
        self.serial = 0

    def prepare(self) -> None:
        """Write the gallery profiles through ``formuniq family --emit profile``."""
        for name in WSS_GALLERY:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.fq.cli.main(["family", "--name", name, "--emit", "profile"])
            if code != 0:
                raise RuntimeError(f"could not emit the {name} profile (exit {code})")
            path = os.path.join(self.workdir, f"gallery-{name}.profile")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(buf.getvalue())
            self.gallery[name] = path

    def _write(self, text: str) -> str:
        self.serial += 1
        path = os.path.join(self.workdir, f"p{self.serial % 4096:04d}.profile")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def make_round(self, rng: np.random.Generator, r: int, small: bool) -> list[Op]:
        mix = self.SMOKE_MIX if small else self.MIX
        specs = []
        for b, m in zip(chain_triples(rng, mix["chain"]), chain_triples(rng, mix["chain"])):
            specs.append(("chain", b, m, None))
        n = mix["killing"]
        for b, m, c in zip(chain_triples(rng, n), chain_triples(rng, n), chain_triples(rng, n)):
            specs.append(("killing", b, m, c))
        n = mix["edge"]
        for b, m in zip(chain_triples(rng, n, edge=True), chain_triples(rng, n, edge=True)):
            specs.append(("edge", b, m, None))
        ops = []
        for kind, b, m, c in specs:
            # files hold only this round's inputs; paths recycle every 4096
            ops.append(self._op(kind, self._write(profile_text(b, m, c)), b, m, c))
        for i in range(mix["gallery"]):
            name = WSS_GALLERY[(r + i) % len(WSS_GALLERY)]
            path = self.gallery[name]
            with open(path, encoding="utf-8") as fh:
                t = tails_of(fh.read())
            c = t["sphere_c"] if t["sphere_c"][0] > 0 else None
            ops.append(self._op("gallery", path, t["boundary"], t["sphere_m"], c))
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    def _op(self, kind: str, path: str, b: tuple, m: tuple, c: tuple | None) -> Op:
        main = self.fq.cli.main
        argv = ["analyze", "--profile", path, "--json"]

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            return code, out.getvalue(), err.getvalue()

        def judge(result, exc):
            if exc is not None:
                edge_overflow = kind == "edge" and isinstance(exc, ArithmeticError)
                return classify_exc(exc, "4c-overflow" if edge_overflow else None)
            code, out, err = result
            try:
                payload = json.loads(out)
            except ValueError:
                if kind == "gallery" and code == 2 and "np.float64" in err:
                    return known("emit-repr", "exit2@series")
                return Outcome("failed", f"exit{code}:{err.strip()[:60]}")
            fu = payload["form_uniqueness"]["state"]
            expect_fu = "fails" if form_uniqueness_fails(b, m, c) else "holds"
            if fu != expect_fu:
                return wrong(f"form_uniqueness {fu} != {expect_fu}")
            tr = payload["transience"]
            expect_tr = None if c is not None else (
                "holds" if sum_converges(reciprocal(b)) else "fails"
            )
            if (tr and tr["state"]) != expect_tr:
                return wrong(f"transience {tr and tr['state']} != {expect_tr}")
            violations = payload["consistency_violations"]
            if violations:
                if (
                    code == 2
                    and c is not None
                    and not sum_converges(c)
                    and violations == [_KILLING_CROSSCHECK]
                ):
                    return known("killing-crosscheck", "exit2@series")
                return wrong(f"consistency violations {violations}")
            if code not in (0, 3):
                return Outcome("failed", f"exit{code}")
            return ok()

        return Op(run, judge)


# ---------------------------------------------------------------------------
# graphs: explicit graphs to verdicts
# ---------------------------------------------------------------------------


def tree_graph(beta: int, depth: int):
    """Vertex count, edges and measures of the ``beta``-ary tree, BFS ids."""
    sizes = [beta**r for r in range(depth + 1)]
    starts = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    edges = [
        (int(starts[r] + i), int(starts[r + 1] + i * beta + j), 1.0)
        for r in range(depth)
        for i in range(sizes[r])
        for j in range(beta)
    ]
    return int(starts[-1]), edges, [1.0] * int(starts[-1]), starts


def anti_tree_graph(depth: int):
    """The linear anti-tree (|S_r| = r+1, complete bipartite layers)."""
    sizes = [r + 1 for r in range(depth + 1)]
    starts = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    edges = [
        (int(starts[r] + i), int(starts[r + 1] + j), 1.0)
        for r in range(depth)
        for i in range(sizes[r])
        for j in range(sizes[r + 1])
    ]
    return int(starts[-1]), edges, [1.0] * int(starts[-1]), starts


def graph_text(n: int, edges, measure) -> str:
    lines = [f"V {i} {measure[i]!r} 0.0" for i in range(n)]
    lines += [f"E {u} {v} {w!r}" for u, v, w in edges]
    return "\n".join(lines) + "\n"


def expected_layers(shape: str, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form boundary dB(r) and sphere measure m(S_r), r < depth."""
    r = np.arange(depth, dtype=float)
    if shape == "anti":
        return (r + 1) * (r + 2), r + 1
    beta = {"bt": 2.0, "k3": 3.0}[shape]
    return beta ** (r + 1), beta**r


def rel_close(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol * np.abs(b)))


class Graphs:
    """Family truncations and graph text through sphere decomposition,
    symmetry certification, profile extraction and the verdict report."""

    name = "graphs"
    # one round: (shape, depth, mode, with decompose); every round has the
    # same slots, "anti-mid" takes a depth in [40, 100] stratified across
    # rounds, and the depth-120 anti-tree (~590k edges) is in every round.
    # The last two lines hold twelve slots of similar cost (65-100 reference
    # ms), with about as many cheaper slots as dearer ones, so that the
    # median latency lies inside a dense cluster rather than in a gap
    # between sizes.  Likewise the three depth-14 binary trees (about 0.9
    # reference s each) hold the tail latency, the 11th slowest operation,
    # whether a run has three, four or five rounds.
    SLOTS = [
        ("bt", 8, "build", False), ("bt", 9, "read", False), ("bt", 10, "write", False),
        ("bt", 10, "build", True), ("bt", 11, "read", True), ("bt", 14, "build", True),
        ("bt", 14, "write", False), ("bt", 14, "read", False),
        ("k3", 5, "read", False), ("k3", 6, "build", True),
        ("k3", 8, "build", False), ("k3", 8, "read", False),
        ("anti", 30, "read", True), ("anti-mid", 0, "write", False), ("anti", 120, "build", False),
        ("anti", 40, "build", True),
        ("k3", 7, "build", False), ("k3", 7, "read", False), ("k3", 7, "write", False),
        ("anti", 35, "build", False), ("anti", 35, "read", False), ("anti", 35, "write", False),
        ("k3", 7, "build", False), ("k3", 7, "read", False), ("k3", 7, "write", False),
        ("anti", 35, "build", False), ("anti", 35, "read", False), ("anti", 35, "write", False),
    ]
    SMOKE_SLOTS = [
        ("bt", 4, "build", True), ("bt", 5, "read", False), ("k3", 3, "write", False),
        ("anti", 6, "read", True), ("anti", 8, "build", False),
    ]

    def __init__(self, fq, workdir: str) -> None:
        self.fq = fq
        self.draws = Draws()

    def prepare(self) -> None:
        pass

    def make_round(self, rng: np.random.Generator, r: int, small: bool) -> list[Op]:
        if small:
            slots = self.SMOKE_SLOTS
            perturbed = [("bt", 4, True), ("anti", 5, False)]
        else:
            mid = self.draws.take_int(rng, "anti-mid", 40, 100, block=4)
            slots = [
                ("anti", mid, mode, dec) if shape == "anti-mid" else (shape, depth, mode, dec)
                for shape, depth, mode, dec in self.SLOTS
            ]
            perturbed = [("bt", self.draws.take_int(rng, "bt-perturbed", 9, 10, block=2), True),
                         ("anti", self.draws.take_int(rng, "anti-perturbed", 20, 40), False)]
        ops = [self._op(shape, depth, mode, dec, rng) for shape, depth, mode, dec in slots]
        ops += [self._perturbed_op(shape, depth, read, rng) for shape, depth, read in perturbed]
        return [ops[i] for i in rng.permutation(len(ops))]

    def _family(self, shape: str):
        fam = self.fq.families
        if shape == "anti":
            return fam.anti_tree(fam.linear())
        return fam.wss_tree(2 if shape == "bt" else 3)

    def _explicit(self, shape: str, depth: int):
        if shape == "anti":
            return anti_tree_graph(depth)
        return tree_graph(2 if shape == "bt" else 3, depth)

    def _op(self, shape: str, depth: int, mode: str, with_dec: bool, rng) -> Op:
        fq = self.fq
        text = None
        if mode == "read":
            n, edges, measure, _ = self._explicit(shape, depth)
            text = graph_text(n, edges, measure)
            del edges
        ball = 1 + int(self.draws.take(rng, "ball", 0, 1) * (depth - 1))

        def run():
            if mode == "read":
                g, root = fq.graph.parse_graph_text(text), 0
            else:
                trunc = self._family(shape).build(depth)
                g, root = trunc.graph, trunc.root
            dec = fq.sphere_decomposition(g, [root])
            sym = fq.is_weakly_spherically_symmetric(g, dec)
            prof = fq.profile_from_graph(g, dec, depth)
            report = fq.full_report(prof)
            emitted = fq.graph.format_graph_text(g) if mode == "write" else None
            split = bound = None
            if with_dec:
                split = fq.decompose(g, np.flatnonzero(dec.radius_of <= ball))
                bound = fq.boundary_degree_bounded(split, 1e9)
            return g, dec, sym, prof, report, emitted, split, bound

        def judge(result, exc):
            if exc is not None:
                return classify_exc(exc, None)
            g, dec, sym, prof, report, emitted, split, bound = result
            want_b, want_m = expected_layers(shape, depth)
            if not sym.symmetric:
                return wrong(f"symmetric graph not certified: {sym.witness}")
            if not rel_close(dec.boundary[:depth], want_b, 1e-12):
                return wrong("sphere boundary differs from the closed form")
            if not rel_close(dec.sphere_measure[:depth], want_m, 1e-12):
                return wrong("sphere measure differs from the closed form")
            if not rel_close(prof.boundary_prefix, want_b, 1e-12):
                return wrong("profile prefix differs from the closed form")
            if report.consistency_violations or report.form_uniqueness.decided:
                return wrong("a finite truncation must leave form uniqueness undecided")
            if emitted is not None:
                back = fq.graph.parse_graph_text(emitted)
                same = all(
                    np.array_equal(getattr(back, a), getattr(g, a))
                    for a in ("measure", "killing", "edge_u", "edge_v", "edge_w")
                )
                if not same:
                    return wrong("parse(format(g)) does not round-trip")
            if split is not None:
                if shape == "anti":
                    # layers beyond the ball stay connected, except a lone
                    # last sphere, which has no edges inside it
                    ends, top = (1 if ball < depth - 1 else depth + 1), ball + 2.0
                else:
                    beta = 2 if shape == "bt" else 3
                    ends, top = beta ** (ball + 1), float(beta)
                if len(split.ends) != ends or bound.max_value != top or bound.bounded is not True:
                    return wrong(
                        f"decomposition at radius {ball}: {len(split.ends)} ends, "
                        f"max degree {bound.max_value} (want {ends}, {top})"
                    )
            return ok(int(g.edge_count))

        return Op(run, judge)

    def _perturbed_op(self, shape: str, depth: int, read: bool, rng) -> Op:
        """A symmetric graph with one measure or one inward edge weight
        scaled; certification must fail with a witness at that radius."""
        fq = self.fq
        n, edges, measure, starts = self._explicit(shape, depth)
        radius = int(rng.integers(1, depth + 1))
        x = int(starts[radius] + rng.integers(0, starts[radius + 1] - starts[radius]))
        factor = float(rng.choice([rng.uniform(0.3, 0.7), rng.uniform(1.5, 3.0)]))
        if rng.random() < 0.5:
            measure[x] *= factor
        else:
            i = next(k for k, (u, v, _) in enumerate(edges) if v == x)
            u, v, w = edges[i]
            edges[i] = (u, v, w * factor)
        text = graph_text(n, edges, measure) if read else None
        if read:
            edges = None

        def run():
            if read:
                g = fq.graph.parse_graph_text(text)
            else:
                g = fq.WeightedGraph(n, edges, measure)
            dec = fq.sphere_decomposition(g, [0])
            return g, fq.is_weakly_spherically_symmetric(g, dec)

        def judge(result, exc):
            if exc is not None:
                return classify_exc(exc, None)
            g, sym = result
            if sym.symmetric or sym.witness is None:
                return wrong("perturbed graph certified as symmetric")
            if sym.witness.radius not in (radius - 1, radius):
                return wrong(f"witness at radius {sym.witness.radius}, perturbed {radius}")
            return ok(int(g.edge_count))

        return Op(run, judge)


# ---------------------------------------------------------------------------
# numerics: finite corroboration
# ---------------------------------------------------------------------------


def random_graph(rng: np.random.Generator, n: int):
    """Connected graph: a random spanning tree plus a few chords."""
    edges = {}
    for v in range(1, n):
        edges[(int(rng.integers(0, v)), v)] = float(rng.uniform(0.2, 3.0))
    while len(edges) < n - 1 + n // 3:
        u, v = sorted(int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            edges.setdefault((u, v), float(rng.uniform(0.2, 3.0)))
    measure = rng.uniform(0.3, 2.0, size=n)
    killing = rng.uniform(0.0, 0.5, size=n) * (rng.random(n) < 0.4)
    return [(u, v, w) for (u, v), w in edges.items()], measure, killing


class Numerics:
    """Capacity estimates, instability replays, symmetric ends, harmonic
    recurrences against direct solves, and equilibrium potentials."""

    name = "numerics"
    PREFIX = 320  # the families' default profile prefix

    def __init__(self, fq, workdir: str) -> None:
        self.fq = fq
        self.draws = Draws()

    def prepare(self) -> None:
        pass

    def seq(self, t: tuple):
        return self.fq.families.SeqSpec(*t)

    def chain(self, b: tuple, m: tuple, prefix: int | None = None):
        kw = {} if prefix is None else {"prefix_len": prefix}
        return self.fq.families.birth_death(self.seq(b), self.seq(m), **kw)

    def make_round(self, rng: np.random.Generator, r: int, small: bool) -> list[Op]:
        s = small
        top = 24 if s else self.PREFIX - 2
        draws = self.draws
        ops = []
        # capacity, profile route: geometric chain and random chains; every
        # chain parameter and depth is stratified across rounds
        d = draws.take_int(rng, "cap-geometric", 16, top, block=4)
        ops.append(self._capacity_op("geometric_chain", None, None, d))
        for i in range(2):
            b, m = draws.triple(rng, f"cap{i}.b"), draws.triple(rng, f"cap{i}.m")
            d = draws.take_int(rng, f"cap{i}", 16, top, block=4)
            ops.append(self._capacity_op("chain", b, m, d))
        # capacity, vertex route
        d = 16 if s else draws.take_int(rng, "pendant", 16, 96, block=4)
        ops.append(self._capacity_op("pendant_boundary", None, None, d))
        # instability replays at deep schedules, each family at three: these
        # 9 operations of similar cost lie between the 8 cheaper and the 4
        # dearer ones of a round, so that the median latency falls among them
        for name in ("pendant_instability", "star_instability", "ladder_instability"):
            for _ in range(1 if s else 3):
                d = 20 if s else draws.take_int(rng, name, 20, 80, block=6)
                ops.append(self._instability_op(name, d))
        # symmetric ends with per-end capacity
        b1, m1, b2, m2 = (draws.triple(rng, f"ends.{k}") for k in ("b1", "m1", "b2", "m2"))
        ops.append(self._ends_op(b1, m1, b2, m2, draws.take_int(rng, "ends", 16, top, block=4)))
        # harmonic recurrence against the direct solve, depths up to the prefix
        alphas = strata(rng, 4, 0.25, 2.0)
        for i, a in enumerate(alphas[:3]):
            b, m = draws.triple(rng, f"harm{i}.b"), draws.triple(rng, f"harm{i}.m")
            d = draws.take_int(rng, f"harm{i}", 16, PROFILE_PREFIX, block=4)
            ops.append(self._harmonic_op(("chain", b, m), d, float(a)))
        gal = WSS_GALLERY[r % len(WSS_GALLERY)]
        d = draws.take_int(rng, "harmonic-gallery", 16, top, block=4)
        ops.append(self._harmonic_op(("gallery", gal), d, float(alphas[3])))
        # equilibrium potentials: a tree big enough for the iterative solve,
        # a smaller tree, and nested sets on a random graph
        # K = the leaves of the depth-16 tree: 65535 unknowns, the cg path
        ops.append(self._tree_potential_op(6 if s else 16, 6 if s else 16))
        depth = 5 if s else draws.take_int(rng, "tree", 10, 14, block=5)
        level = 1 + int(draws.take(rng, "level", 0, 1, block=4) * depth)
        ops.append(self._tree_potential_op(depth, level))
        ops.append(self._nested_potential_op(rng))
        return [ops[i] for i in rng.permutation(len(ops))]

    # -- capacity --------------------------------------------------------------

    def _capacity_op(self, kind: str, b, m, top: int) -> Op:
        fq = self.fq
        depths = tuple(sorted({max(1, top // 4), max(2, top // 2), top}))
        if kind == "chain":
            fails = form_uniqueness_fails(b, m, None)
        else:
            fails = True  # geometric chain and pendant boundary both fail

        def run():
            fam = self.chain(b, m) if kind == "chain" else fq.gallery(kind)
            return fq.boundary_capacity_estimate(fam, depths)

        def judge(est, exc):
            if exc is not None:
                return classify_exc(exc, "4b-breakdown" if _is_breakdown(exc) else None)
            return capacity_check(est, fails, b, max(depths)) or ok()

        return Op(run, judge)

    def _instability_op(self, name: str, d: int) -> Op:
        fq = self.fq
        depths = (d, 2 * d, 4 * d)

        def run():
            return fq.analyze_instability_example(fq.gallery(name), depths)

        def judge(rep, exc):
            if exc is not None:
                return classify_exc(exc, "4b-breakdown" if _is_breakdown(exc) else None)
            if rep.verdict.fails:
                return wrong(f"{name}: glued graph reported not form unique")
            if rep.verdict.holds and not (rep.pattern_ok and rep.witness_diverges):
                return wrong(f"{name}: verdict holds without its witness")
            return ok()

        return Op(run, judge)

    def _ends_op(self, pb, pm, nb, nm, top: int) -> Op:
        fq = self.fq
        depths = tuple(sorted({max(1, top // 4), max(2, top // 2), top}))
        end_fails = [form_uniqueness_fails(pb, pm, None), form_uniqueness_fails(nb, nm, None)]

        def run():
            fam = fq.families.bilateral_chain(self.seq(pb), self.seq(pm), self.seq(nb), self.seq(nm))
            return fq.symmetric_ends_verdict(fam, capacity_depths=depths)

        def judge(rep, exc):
            if exc is not None:
                return classify_exc(exc, "4b-breakdown" if _is_breakdown(exc) else None)
            want = "fails" if any(end_fails) else "holds"
            if rep.verdict.state.value != want:
                return wrong(f"symmetric ends verdict {rep.verdict.state.value} != {want}")
            for end, fails, b in zip(rep.ends, end_fails, (pb, nb)):
                if end.fails != fails:
                    return wrong(f"end {end.name}: fails={end.fails}, oracle {fails}")
                # an end's sequences start one step out: b(r+1)
                bad = capacity_check(end.capacity, fails, b, max(depths) + 1)
                if bad:
                    return bad
            return ok()

        return Op(run, judge)

    # -- harmonic --------------------------------------------------------------

    def _harmonic_op(self, source: tuple, depth: int, alpha: float) -> Op:
        fq = self.fq

        def run():
            if source[0] == "chain":
                p = self.chain(source[1], source[2], PROFILE_PREFIX).profile
            else:
                p = fq.gallery(source[1]).profile
            sol = fq.solve_symmetric_harmonic(p, alpha, 1.0, depth)
            report = fq.membership_report(p, sol)
            direct = fq.truncated_dirichlet_solve(fq.quotient_graph(p, depth), alpha, (0, 1.0))
            return sol, report, direct

        def judge(result, exc):
            if exc is not None:
                return classify_exc(exc, "4b-breakdown" if _is_breakdown(exc) else None)
            sol, report, direct = result
            u = np.asarray(sol.values[:depth])
            if not np.all(np.isfinite(u)):
                # the solution outgrows float range and comes back as inf
                return known("4c-overflow", "inf@harmonic")
            # increments below one ulp of u leave u flat in floating point
            if not (np.all(np.diff(u) >= 0) and np.all(sol.increments[:depth] > 0)):
                return wrong("recurrence solution is not increasing")
            rel = float(np.max(np.abs(direct[:depth] - u) / np.abs(u)))
            if not rel <= 1e-10:
                return wrong(f"recurrence and direct solve differ by {rel:.2e}")
            if source[0] == "chain":
                want = bounded_solution(source[1], source[2])
                if report.bounded.state.value != ("holds" if want else "fails"):
                    return wrong(f"bounded verdict {report.bounded.state.value}, oracle {want}")
            return ok()

        return Op(run, judge)

    # -- equilibrium potentials -------------------------------------------------

    def _tree_potential_op(self, depth: int, level: int) -> Op:
        """Potential of the sphere at ``level`` in the binary tree."""
        fq = self.fq

        def run():
            trunc = fq.families.wss_tree(2).build(depth)
            k = np.flatnonzero(trunc.layer == level)
            e, cap = fq.equilibrium_potential(trunc.graph, k)
            return trunc, k, e, cap

        def judge(result, exc):
            if exc is not None:
                return classify_exc(exc, "4b-breakdown" if _is_breakdown(exc) else None)
            trunc, k, e, cap = result
            if not (np.all(e >= 0) and np.all(e <= 1) and np.all(e[k] == 1)):
                return wrong("equilibrium potential outside [0, 1] or not 1 on K")
            for r in range(depth + 1):
                layer = e[trunc.layer == r]
                if layer.max() - layer.min() > 1e-8:
                    return wrong(f"tree potential not constant on sphere {r}")
            if not (math.isfinite(cap) and cap > 0):
                return wrong(f"capacity {cap!r}")
            return ok(int(trunc.graph.edge_count))

        return Op(run, judge)

    def _nested_potential_op(self, rng) -> Op:
        fq = self.fq
        n = int(rng.integers(8, 40))
        edges, measure, killing = random_graph(rng, n)
        small = sorted(set(rng.choice(n, size=2, replace=False).tolist()))
        big = sorted(set(small) | set(rng.choice(n, size=3, replace=False).tolist()))

        def run():
            g = fq.WeightedGraph(n, edges, measure, killing)
            return fq.equilibrium_potential(g, small), fq.equilibrium_potential(g, big)

        def judge(result, exc):
            if exc is not None:
                return classify_exc(exc, None)
            (e1, c1), (e2, c2) = result
            for e in (e1, e2):
                if not (np.all(e >= 0) and np.all(e <= 1)):
                    return wrong("equilibrium potential outside [0, 1]")
            if not c1 <= c2 * (1 + 1e-12) + 1e-12:
                return wrong(f"capacity not monotone in the set: {c1!r} > {c2!r}")
            return ok()

        return Op(run, judge)


def finite_depth_blind(b: tuple, depth: int) -> bool:
    """Is sum 1/b divergent only beyond ``depth``?  True when 1/b has a
    convergent power part (p > 1) and a slowly growing geometric part
    (rho < 1), so its terms still fall at ``depth``: every truncation up
    to there looks like a convergent series."""
    c, p, rho = b
    return p > 1 and rho < 1 and p / -math.log(rho) - 1 > depth


def capacity_check(est, fails: bool, b: tuple | None = None, depth: int = 0) -> Outcome | None:
    """Values never increase; zero capacity only where form uniqueness
    holds, positive-finite only where it fails."""
    if est is None:
        return None
    values = [row.value for row in est.rows]
    for a, v in zip(values, values[1:]):
        if v > a * (1 + 1e-9) + 1e-12:
            return wrong(f"capacity increased {a!r} -> {v!r}")
    if est.classification == "zero" and fails:
        return wrong("zero capacity where form uniqueness fails")
    if est.classification == "positive-finite" and not fails:
        if b is not None and finite_depth_blind(b, depth):
            return known("capacity-finite-depth", "positive-finite@capacity")
        return wrong("positive capacity where form uniqueness holds")
    return None


WORKLOADS = {cls.name: cls for cls in (Profiles, Graphs, Numerics)}
