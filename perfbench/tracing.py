"""Spans around formuniq's public functions, recorded from the benchmark side.

``Tracer.install`` rebinds each traced function in its own module and in
every ``formuniq`` module that imported it (class attributes for methods
and constructors), so calls between formuniq modules are seen too.
Nothing under ``src/`` changes.  Spans (name, start, end, parent, op id)
stay in memory; ``dump`` writes them out when the run ends.

A span's self time is its duration minus the durations of its child
spans.  The program is single-threaded, so children never overlap and
their union is their sum.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute) of every traced function; "Class.method" rebinds a
# class attribute, "Class" alone wraps the constructor.
TARGETS = [
    ("series", "tail_sum_exact"),
    ("series", "series_verdict"),
    ("series", "RadialProfile.mass_beyond"),
    ("series", "quotient_graph"),
    ("series", "parse_profile_text"),
    ("series", "profile_from_graph"),
    ("criteria", "full_report"),
    ("cli", "main"),
    ("families", "build"),
    ("graph", "WeightedGraph"),
    ("graph", "parse_graph_text"),
    ("graph", "format_graph_text"),
    ("symmetry", "sphere_decomposition"),
    ("symmetry", "is_weakly_spherically_symmetric"),
    ("capacity", "equilibrium_potential"),
    ("capacity", "boundary_capacity_estimate"),
    ("capacity", "shortest_paths"),
    ("harmonic", "solve_symmetric_harmonic"),
    ("harmonic", "membership_report"),
    ("harmonic", "truncated_dirichlet_solve"),
    ("stability", "analyze_instability_example"),
    ("stability", "symmetric_ends_verdict"),
    ("stability", "decompose"),
]

OP = "bench.op"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.active = False
        self.op_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.seen_tail_args: set[str] = set()

    # -- recording -------------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recording a span while an operation is being timed.

        ``before(args, kwargs)`` and ``after(args, kwargs, result)`` update
        counters; they run outside the span's interval.
        """
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def run_op(self, op_id: int, fn):
        """Run one timed operation as the root span ``bench.op``."""
        self.op_id = op_id
        self.active = True
        try:
            return self.wrap(OP, fn)()
        finally:
            self.active = False

    # -- installation ----------------------------------------------------------

    def install(self, fq) -> None:
        modules = [m for n, m in sys.modules.items() if n == "formuniq" or n.startswith("formuniq.")]
        for mod_name, attr in TARGETS:
            mod = getattr(fq, mod_name)
            name = f"{mod_name}.{attr}"
            before, after = self._hooks(name)
            if attr == "build":
                self._install_build(mod.Family, name, after)
            elif "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), before, after))
            elif isinstance(getattr(mod, attr), type):
                cls = getattr(mod, attr)
                cls.__init__ = self.wrap(name, cls.__init__, before, after)
            else:
                orig = getattr(mod, attr)
                traced = self.wrap(name, orig, before, after)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, traced)

    def _install_build(self, family_cls, name: str, after) -> None:
        """Family.build is a per-instance closure: wrap it as instances are made."""
        init = family_cls.__init__
        tracer = self

        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self.build = tracer.wrap(name, self.build, None, after)

        family_cls.__init__ = __init__

    def _hooks(self, name: str):
        counts = self.counts

        def tail_args(args, kwargs):
            key = repr((args, sorted(kwargs.items())))
            if key in self.seen_tail_args:
                counts["series.tail_sum_exact.repeats"] += 1
            self.seen_tail_args.add(key)

        def build_edges(args, kwargs, trunc):
            counts["families.build.edges"] += trunc.graph.edge_count

        def graph_edges(args, kwargs, _):
            counts["graph.WeightedGraph.edges"] += args[0].edge_count

        def unknowns(args, kwargs, _):
            g, k_set = args[0], args[1] if len(args) > 1 else kwargs["k_set"]
            counts["capacity.equilibrium_potential.unknowns"] += g.vertex_count - len(
                {int(v) for v in k_set}
            )

        return {
            "series.tail_sum_exact": (tail_args, None),
            "families.build": (None, build_edges),
            "graph.WeightedGraph": (None, graph_edges),
            "capacity.equilibrium_potential": (None, unknowns),
        }.get(name, (None, None))

    # -- results ---------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
        return self_s, calls

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def per_layer(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced phase with ``ops`` operations."""
    self_s, calls = tracer.self_times()
    n = tracer.counts
    ops = max(ops, 1)

    def c(name):
        return float(calls.get(name, 0))

    def s(name):
        return float(self_s.get(name, 0.0))

    tail_calls = c("series.tail_sum_exact")
    solves = c("capacity.equilibrium_potential")
    graphs = c("graph.WeightedGraph")
    out = {
        "series.tail_sum_exact.calls": (tail_calls, "count"),
        "series.tail_sum_exact.self_s": (s("series.tail_sum_exact"), "s"),
        "series.tail_sum_exact.per_op": (tail_calls / ops, "1/op"),
        "series.tail_sum_exact.repeat_share": (
            n["series.tail_sum_exact.repeats"] / tail_calls if tail_calls else 0.0, "ratio"),
        "series.series_verdict.calls": (c("series.series_verdict"), "count"),
        "series.series_verdict.self_s": (s("series.series_verdict"), "s"),
        "series.series_verdict.per_op": (c("series.series_verdict") / ops, "1/op"),
        "series.RadialProfile.mass_beyond.calls": (c("series.RadialProfile.mass_beyond"), "count"),
        "series.RadialProfile.mass_beyond.self_s": (s("series.RadialProfile.mass_beyond"), "s"),
        "series.quotient_graph.calls": (c("series.quotient_graph"), "count"),
        "series.quotient_graph.self_s": (s("series.quotient_graph"), "s"),
        "series.parse_profile_text.self_s": (s("series.parse_profile_text"), "s"),
        "series.profile_from_graph.self_s": (s("series.profile_from_graph"), "s"),
        "criteria.full_report.calls": (c("criteria.full_report"), "count"),
        "criteria.full_report.self_s": (s("criteria.full_report"), "s"),
        "cli.main.self_s": (s("cli.main"), "s"),
        "families.build.calls": (c("families.build"), "count"),
        "families.build.self_s": (s("families.build"), "s"),
        "families.build.edges": (n["families.build.edges"], "count"),
        "graph.WeightedGraph.calls": (graphs, "count"),
        "graph.WeightedGraph.self_s": (s("graph.WeightedGraph"), "s"),
        "graph.WeightedGraph.edges_per_call": (
            n["graph.WeightedGraph.edges"] / graphs if graphs else 0.0, "count"),
        "graph.parse_graph_text.self_s": (s("graph.parse_graph_text"), "s"),
        "graph.format_graph_text.self_s": (s("graph.format_graph_text"), "s"),
        "symmetry.sphere_decomposition.calls": (c("symmetry.sphere_decomposition"), "count"),
        "symmetry.sphere_decomposition.self_s": (s("symmetry.sphere_decomposition"), "s"),
        "symmetry.is_weakly_spherically_symmetric.self_s": (
            s("symmetry.is_weakly_spherically_symmetric"), "s"),
        "capacity.equilibrium_potential.calls": (solves, "count"),
        "capacity.equilibrium_potential.self_s": (s("capacity.equilibrium_potential"), "s"),
        "capacity.equilibrium_potential.unknowns": (
            n["capacity.equilibrium_potential.unknowns"], "count"),
        "capacity.rows_per_solve": (
            n["capacity.equilibrium_potential.unknowns"] / solves if solves else 0.0, "count"),
        "capacity.boundary_capacity_estimate.self_s": (
            s("capacity.boundary_capacity_estimate"), "s"),
        "capacity.shortest_paths.self_s": (s("capacity.shortest_paths"), "s"),
        "harmonic.solve_symmetric_harmonic.self_s": (s("harmonic.solve_symmetric_harmonic"), "s"),
        "harmonic.membership_report.self_s": (s("harmonic.membership_report"), "s"),
        "harmonic.truncated_dirichlet_solve.self_s": (
            s("harmonic.truncated_dirichlet_solve"), "s"),
        "stability.analyze_instability_example.self_s": (
            s("stability.analyze_instability_example"), "s"),
        "stability.symmetric_ends_verdict.self_s": (s("stability.symmetric_ends_verdict"), "s"),
        "stability.decompose.self_s": (s("stability.decompose"), "s"),
        "bench.op.self_s": (s(OP), "s"),
    }
    return out
