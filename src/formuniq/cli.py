"""Command-line front end.

Subcommands cover the main analyses: property verdicts for a radial
profile, the increasing harmonic solution, boundary capacity runs,
family emission, graph decomposition, symmetric-ends reports, and a
consistency check.  CSV and JSON output use repr() floats, so identical
inputs give byte-identical files on one numpy build and CPU (numpy's
AVX-512 pow/exp/log round some values one ulp apart from its other loops).

``--json`` output is one JSON document and a newline, as the standard
library's encoder writes it with ``indent=2, sort_keys=True``: 2-space
indent, sorted keys, non-ASCII characters as ``\\uXXXX`` escapes,
finite floats as their ``repr``, and non-finite numbers as the strings
``"inf"``, ``"-inf"`` and ``"nan"``.  It is the canonical form of its own
parse on every CPU.

Exit codes: 0 success / all verdicts decided, 2 bad input, 3 at least
one verdict inconclusive.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import math
import sys
from json.encoder import encode_basestring_ascii

from . import capacity, criteria, families, graph, harmonic, series, stability

OK, INPUT_ERROR, INCONCLUSIVE = 0, 2, 3

# constructor name -> constructor; its positional parameters are the --params
# keys, and those without a default are required
_CONSTRUCTORS = {
    ctor.__name__: ctor
    for ctor in (
        families.birth_death,
        families.wss_tree,
        families.anti_tree,
        families.bilateral_chain,
        families.pendant_chain,
        families.star_chain,
        families.double_ladder,
    )
}


def _parse_params(pairs: list[str]) -> dict[str, str]:
    out = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key or not value:
            raise ValueError(f"expected key=value, got {pair!r}")
        out[key] = value
    return out


def _resolve_family(name: str, params: list[str]) -> families.Family:
    if name in families.GALLERY:
        if params:
            raise ValueError(
                f"{name!r} is a fixed gallery entry and takes no --params; "
                "use a constructor name to parameterize"
            )
        return families.gallery(name)
    if name not in _CONSTRUCTORS:
        known = ", ".join(sorted(families.GALLERY) + sorted(_CONSTRUCTORS))
        raise ValueError(f"unknown family {name!r}; known: {known}")
    ctor = _CONSTRUCTORS[name]
    accepted = [
        p for p in inspect.signature(ctor).parameters.values()
        if p.kind is p.POSITIONAL_OR_KEYWORD
    ]
    raw = _parse_params(params)
    unknown = set(raw) - {p.name for p in accepted}
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {sorted(unknown)} for {name}; "
            f"accepted: {', '.join(p.name for p in accepted)}"
        )
    missing = [p.name for p in accepted if p.default is p.empty and p.name not in raw]
    if missing:
        raise ValueError(f"{name} requires --params {' '.join(missing)}")
    return ctor(**{key: series.parse_seq(value) for key, value in raw.items()})


def _family_profile(fam: families.Family) -> series.RadialProfile:
    if fam.profile is None:
        raise ValueError(
            f"family {fam.name!r} is not spherically symmetric as a whole "
            "and has no radial profile"
        )
    return fam.profile


def _load_profile_arg(args) -> series.RadialProfile:
    if getattr(args, "profile", None):
        if args.profile == "-":
            return series.load_profile(sys.stdin, name="<stdin>")
        return series.load_profile(args.profile)
    if getattr(args, "family", None):
        return _family_profile(_resolve_family(args.family, []))
    raise ValueError("supply --profile FILE or --family NAME")


_NUMBER_TYPES = frozenset((int, float))


def _json_pieces(x, indent: str, out: list[str]) -> None:
    """Append the JSON text of ``x`` at ``indent`` to ``out``, in the
    bytes of the module docstring's contract.  What the standard encoder
    refuses raises ``TypeError``, and so does a key that is not ``str``,
    which the standard encoder would coerce to a string."""
    if isinstance(x, str):
        out.append(encode_basestring_ascii(x))
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, float):
        text = float.__repr__(x)
        out.append(text if math.isfinite(x) else f'"{text}"')
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        if set(map(type, x)) <= _NUMBER_TYPES:
            # finite reprs hold no "n"; inf and nan fall through
            body = sep.join(map(repr, x))
            if "n" not in body:
                out += ("[\n", inner, body, "\n", indent, "]")
                return
        out.append("[\n" + inner)
        for i, item in enumerate(x):
            if i:
                out.append(sep)
            _json_pieces(item, inner, out)
        out += ("\n", indent, "]")
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        out.append("{\n" + inner)
        for i, key in enumerate(sorted(x)):
            if i:
                out.append(sep)
            out += (encode_basestring_ascii(key), ": ")
            _json_pieces(x[key], inner, out)
        out += ("\n", indent, "}")
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _dump_json(payload) -> None:
    out: list[str] = []
    _json_pieces(payload, "", out)
    print("".join(out))


def _verdict_dict(v: series.Verdict | None):
    if v is None:
        return None
    return {
        "state": v.state.value,
        "label": v.label,
        "reason": v.reason,
        "kind": v.kind,
        "sample_depths": list(v.sample_depths),
        "partial_sums": list(v.partial_sums),
    }


def _print_verdict_line(name: str, v: series.Verdict | None) -> None:
    if v is None:
        print(f"{name:<26} (not applicable: killing present)")
        return
    print(f"{name:<26} {v.state.value:<13} {v.reason}")
    if v.sample_depths:
        tail = list(zip(v.sample_depths, v.partial_sums))[-3:]
        sums = "  ".join(f"r={d}: {s:.6g}" for d, s in tail)
        print(f"{'':<26} partial sums  {sums}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_analyze(args) -> int:
    """``analyze`` prints every verdict in full, ``check`` only its state."""
    profile = _load_profile_arg(args)
    report = criteria.full_report(profile)
    if args.command == "check":
        states = {name: (v.state.value if v else None) for name, v in report.items()}
        if args.json:
            _dump_json(
                {
                    "states": states,
                    "consistency_violations": list(report.consistency_violations),
                }
            )
        else:
            for name, state in states.items():
                print(f"{name}: {state or 'n/a'}")
            if report.consistency_violations:
                for violation in report.consistency_violations:
                    print(f"violation: {violation}")
            else:
                print("all cross-checks consistent")
    elif args.json:
        payload = {name: _verdict_dict(v) for name, v in report.items()}
        payload["consistency_violations"] = list(report.consistency_violations)
        _dump_json(payload)
    else:
        for name, verdict in report.items():
            _print_verdict_line(name.replace("_", " "), verdict)
        if report.consistency_violations:
            for violation in report.consistency_violations:
                print(f"consistency violation: {violation}")
        else:
            print("cross-checks: consistent")
    if report.consistency_violations:
        return INPUT_ERROR
    return INCONCLUSIVE if report.any_inconclusive else OK


def _cmd_harmonic(args) -> int:
    profile = _load_profile_arg(args)
    depth, cut = args.depth, ""
    if 0 < depth <= profile.value_depth("boundary"):
        # a closed-form boundary tail can underflow to 0.0: the recurrence
        # runs up to the first radius where it does
        b = profile.values("boundary", depth).tolist()
        low = next((r for r, w in enumerate(b) if not w > 0), None)
        if low is not None:
            depth = low
            cut = f"layer boundary weight dB({low}) underflows to 0.0; solved to depth {low}"
    sol = harmonic.solve_symmetric_harmonic(profile, args.alpha, args.u0, depth)
    membership = harmonic.membership_report(profile, sol)
    rows = sol.finite_rows
    overflow = f"u leaves the float range at r={rows}" if rows <= sol.depth else ""
    note = "; ".join(filter(None, (overflow, cut)))
    if args.json:
        payload = {
            "alpha": sol.alpha,
            "values": sol.values[:rows].tolist(),
            "increments": sol.increments[:rows].tolist(),
            "partial_l1": sol.partial_l1[:rows].tolist(),
            "partial_l2": sol.partial_l2[:rows].tolist(),
            "partial_energy": sol.partial_energy[:rows].tolist(),
            "membership": {k: _verdict_dict(v) for k, v in membership},
        }
        if note:
            payload["note"] = note
        _dump_json(payload)
    else:
        print("r,u,increment,partial_l1,partial_l2,partial_energy")
        for r in range(rows):
            inc = repr(float(sol.increments[r])) if r < sol.depth else ""
            en = repr(float(sol.partial_energy[r])) if r < sol.depth else ""
            print(
                f"{r},{float(sol.values[r])!r},{inc},"
                f"{float(sol.partial_l1[r])!r},{float(sol.partial_l2[r])!r},{en}"
            )
        if note:
            print(f"# note: {note}")
        for name, verdict in membership:
            print(f"# {name}: {verdict.state.value} ({verdict.reason})")
    if note or any(v.inconclusive for _, v in membership):
        return INCONCLUSIVE
    return OK


def _cmd_capacity(args) -> int:
    fam = _resolve_family(args.family, [])
    depths = _parse_int_list(args.depths)
    estimate = capacity.boundary_capacity_estimate(fam, depths)
    if args.json:
        _dump_json(
            {
                "family": estimate.family,
                "rows": [
                    {
                        "depth": row.depth,
                        "epsilon": row.epsilon,
                        "value": row.value,
                        "trapped_measure": row.trapped_measure,
                        "stable": row.stable,
                        "description": row.description,
                    }
                    for row in estimate.rows
                ],
                "extrapolated": estimate.extrapolated,
                "classification": estimate.classification,
                "evidence": list(estimate.evidence),
            }
        )
    else:
        print("depth,epsilon,cap,trapped_measure,stable")
        for row in estimate.rows:
            print(
                f"{row.depth},{row.epsilon!r},{row.value!r},"
                f"{row.trapped_measure!r},{int(row.stable)}"
            )
        extra = "" if estimate.extrapolated is None else f" ({estimate.extrapolated!r})"
        print(f"# classification: {estimate.classification}{extra}")
        for line in estimate.evidence:
            print(f"# {line}")
    return OK if estimate.classification in ("zero", "positive-finite", "infinite") else INCONCLUSIVE


def _cmd_family(args) -> int:
    fam = _resolve_family(args.name, args.params or [])
    if args.emit == "profile":
        profile = _family_profile(fam)
        sys.stdout.write(series.format_profile_text(profile))
    else:
        trunc = fam.build(args.depth)
        sys.stdout.write(graph.format_graph_text(trunc.graph))
    return OK


def _cmd_decompose(args) -> int:
    g = graph.load_graph(sys.stdin) if args.graph == "-" else graph.load_graph(args.graph)
    x1 = _parse_int_list(args.x1)
    dec = stability.decompose(g, x1)
    report = stability.boundary_degree_bounded(dec, args.bound)
    if args.json:
        _dump_json(
            {
                "x1_size": len(dec.x1),
                "x2_size": len(dec.x2),
                "edges_x1": int((dec.edge_region == stability.EDGE_X1).sum()),
                "edges_x2": int((dec.edge_region == stability.EDGE_X2).sum()),
                "edges_crossing": int((dec.edge_region == stability.EDGE_CROSS).sum()),
                "crossing_weight": dec.crossing_weight,
                "ends": [list(e) for e in dec.ends],
                "boundary_degree": {
                    "max": report.max_value,
                    "argmax": report.argmax,
                    "bounded": report.bounded,
                    "detail": report.detail,
                },
            }
        )
    else:
        region = dec.edge_region
        print(f"x1: {len(dec.x1)} vertices; x2: {len(dec.x2)} vertices")
        print(
            f"edges: {int((region == stability.EDGE_X1).sum())} inside x1, "
            f"{int((region == stability.EDGE_X2).sum())} inside x2, "
            f"{int((region == stability.EDGE_CROSS).sum())} crossing "
            f"(total weight {dec.crossing_weight!r})"
        )
        print(f"ends (components of x2): {[len(e) for e in dec.ends]}")
        flag = {True: "bounded", False: "exceeds bound", None: "unknown in the limit"}
        print(
            f"boundary degree: max {report.max_value!r} at vertex {report.argmax}; "
            f"{flag[report.bounded]} -- {report.detail}"
        )
    return OK if report.bounded is not None else INCONCLUSIVE


def _cmd_ends(args) -> int:
    fam = _resolve_family(args.family, [])
    depths = _parse_int_list(args.capacity_depths) if args.capacity_depths else ()
    report = stability.symmetric_ends_verdict(fam, capacity_depths=depths)
    if args.json:
        _dump_json(
            {
                "family": report.family,
                "x1_condition": report.x1_condition,
                "boundary_degree": {
                    "max": report.boundary.max_value,
                    "bounded": report.boundary.bounded,
                    "detail": report.boundary.detail,
                },
                "hypotheses_met": report.hypotheses_met,
                "ends": [
                    {
                        "name": e.name,
                        "total_mass": e.total_mass.state.value,
                        "resistance": e.resistance.state.value,
                        "fails": e.fails,
                        "capacity": None
                        if e.capacity is None
                        else {
                            "classification": e.capacity.classification,
                            "extrapolated": e.capacity.extrapolated,
                        },
                    }
                    for e in report.ends
                ],
                "verdict": _verdict_dict(report.verdict),
            }
        )
    else:
        print(f"family: {report.family}")
        print(f"x1 condition: {report.x1_condition}")
        bflag = {True: "bounded", False: "unbounded", None: "undecided"}
        print(
            f"crossing degree: {bflag[report.boundary.bounded]} "
            f"(max {report.boundary.max_value!r}) -- {report.boundary.detail}"
        )
        status = {True: "not form unique", False: "form unique", None: "undecided"}
        for e in report.ends:
            line = (
                f"end {e.name}: total mass {e.total_mass.state.value}, "
                f"resistance {e.resistance.state.value} -> {status[e.fails]}"
            )
            if e.capacity is not None:
                line += f"; capacity {e.capacity.classification}"
            print(line)
        print(f"verdict: {report.verdict}")
    return OK if report.verdict.decided else INCONCLUSIVE


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in str(text).split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="formuniq",
        description="Verdicts and estimates for weighted-graph form uniqueness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_profile_source(p):
        p.add_argument("--profile", help="radial profile file ('-' for stdin)")
        p.add_argument("--family", help="gallery family name")
        p.add_argument("--json", action="store_true", help="structured output")

    p = sub.add_parser("analyze", help="property verdicts for a radial profile")
    add_profile_source(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("harmonic", help="increasing solution of (L+alpha)u=0 as CSV")
    add_profile_source(p)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--u0", type=float, default=1.0)
    p.add_argument("--depth", type=int, default=32)
    p.set_defaults(func=_cmd_harmonic)

    p = sub.add_parser("capacity", help="boundary capacity along shrinking neighborhoods")
    p.add_argument("--family", required=True, help="gallery family name")
    p.add_argument("--depths", default="8,16,32", help="comma-separated depths")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("family", help="emit a family truncation or profile")
    p.add_argument("--name", required=True, help="gallery or constructor name")
    p.add_argument(
        "--params",
        nargs="*",
        metavar="KEY=VALUE",
        help="constructor parameters; values are 'C[,p[,rho]]', "
        "'geom:RATIO', 'power:P', 'linear', 'square', or 'unit'",
    )
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--emit", choices=("graph", "profile"), default="graph")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("decompose", help="split a graph along a vertex set")
    p.add_argument("--graph", required=True, help="graph file ('-' for stdin)")
    p.add_argument("--x1", required=True, help="comma-separated vertex ids")
    p.add_argument("--bound", type=float, help="certify crossing degree <= bound")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("ends", help="symmetric-ends report for a family")
    p.add_argument("--family", required=True)
    p.add_argument("--capacity-depths", help="also classify per-end capacity")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_ends)

    p = sub.add_parser("check", help="consistency suite over all verdicts")
    add_profile_source(p)
    p.set_defaults(func=_cmd_analyze)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process.  Sharing it
    is safe: argparse reads the output streams and the terminal width
    when it prints, not when it is built, no default is mutable, and
    every parse returns a fresh namespace."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
