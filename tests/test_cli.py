"""Command-line interface, run in-process through main()."""

import contextlib
import io
import json
import math
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formuniq import WeightedGraph, gallery, load_profile, save_graph, save_profile
from formuniq import cli
from formuniq.cli import INCONCLUSIVE, INPUT_ERROR, OK, build_parser, main
from formuniq.families import WSS_GALLERY, birth_death
from formuniq.graph import parse_graph_text
from formuniq.series import CustomTail, PowerGeomTail, RadialProfile, format_profile_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# analyze / check
# ---------------------------------------------------------------------------


def test_analyze_unit_chain_table(capsys):
    code, out, _ = run(capsys, "analyze", "--family", "unit_chain")
    assert code == OK
    assert "form uniqueness" in out
    assert "cross-checks: consistent" in out
    # every verdict for the unit chain is decided
    assert "inconclusive" not in out


def test_analyze_json(capsys):
    code, out, _ = run(capsys, "analyze", "--family", "geometric_chain", "--json")
    assert code == OK
    payload = json.loads(out)
    assert payload["form_uniqueness"]["state"] == "fails"
    assert payload["transience"]["state"] == "holds"
    assert payload["consistency_violations"] == []


def test_analyze_profile_file(tmp_path, capsys):
    path = tmp_path / "geo.profile"
    save_profile(gallery("geometric_chain").profile, str(path))
    code, out, _ = run(capsys, "analyze", "--profile", str(path))
    assert code == OK
    assert "fails" in out


def test_analyze_profile_stdin(capsys, monkeypatch):
    buf = io.StringIO()
    from formuniq.series import format_profile_text

    buf.write(format_profile_text(gallery("unit_chain").profile))
    buf.seek(0)
    monkeypatch.setattr(sys, "stdin", buf)
    code, out, _ = run(capsys, "analyze", "--profile", "-")
    assert code == OK


def test_analyze_custom_tail_is_inconclusive(tmp_path, capsys):
    n = 8
    p = RadialProfile(
        boundary_prefix=np.ones(n),
        measure_prefix=np.ones(n),
        killing_prefix=np.zeros(n),
        count_prefix=np.ones(n),
        boundary_tail=CustomTail(None),
        measure_tail=CustomTail(None),
        killing_tail=PowerGeomTail(0.0),
        count_tail=PowerGeomTail(1.0),
    )
    path = tmp_path / "open.profile"
    save_profile(p, str(path))
    code, out, _ = run(capsys, "analyze", "--profile", str(path))
    assert code == INCONCLUSIVE
    assert "inconclusive" in out


def test_analyze_requires_a_source(capsys):
    code, _, err = run(capsys, "analyze")
    assert code == INPUT_ERROR
    assert "supply --profile" in err


def analyze_json(text):
    """``analyze --profile - --json`` on ``text``: exit code and payload,
    with every warning raised as an error."""
    out = io.StringIO()
    with warnings.catch_warnings(), mock.patch.object(sys, "stdin", io.StringIO(text)):
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out):
            code = main(["analyze", "--profile", "-", "--json"])
    return code, json.loads(out.getvalue())


def chain_text(b, m, c=0.0):
    """Profile text of a birth-death chain with 48 explicit radii."""
    return format_profile_text(birth_death(b, m, c, prefix_len=48).profile)


def all_partial_sums(payload):
    return [s for v in payload.values() if isinstance(v, dict) for s in v["partial_sums"]]


def test_analyze_overflowing_tail_exits_cleanly():
    code, payload = analyze_json(
        chain_text(PowerGeomTail(2.0, 3.0, 20.0), PowerGeomTail(1.0, -2.0, 0.05))
    )
    assert code == OK
    assert payload["form_uniqueness"]["state"] == "fails"
    assert payload["transience"]["state"] == "holds"
    assert all(isinstance(s, float) and math.isfinite(s) for s in all_partial_sums(payload))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-3.0, 3.0), st.floats(-6.0, 6.0), st.floats(0.05, 20.0)),
        min_size=2,
        max_size=2,
    )
)
def test_analyze_edge_grammar_gives_documented_exits(tails):
    (cb, pb, rb), (cm, pm, rm) = tails
    code, payload = analyze_json(
        chain_text(PowerGeomTail(10.0**cb, pb, rb), PowerGeomTail(10.0**cm, pm, rm))
    )
    assert code in (OK, INCONCLUSIVE)
    assert payload["consistency_violations"] == []
    for v in payload.values():
        if isinstance(v, dict):
            assert len(v["partial_sums"]) == len(v["sample_depths"])
            note = "partial sums stop at r="
            if note in v["reason"] and v["sample_depths"]:
                assert f"{note}{v['sample_depths'][-1]}: float overflow" in v["reason"]
    assert all(isinstance(s, float) and math.isfinite(s) for s in all_partial_sums(payload))


def one_radius_profile(boundary, sphere_m):
    return "\n".join([
        "[prefix]", "boundary = 1", "sphere_m = 1", "sphere_c = 0", "sphere_count = 1",
        "[tail]", f"boundary = {boundary}", f"sphere_m = {sphere_m}", "sphere_c = C=0",
        "sphere_count = C=1", "",
    ])


def run_on_text(argv, text):
    """``main(argv)`` with ``text`` on stdin: exit code and stdout."""
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_analyze_tail_coefficients_past_the_float_range_decide_nothing():
    # 1e-200 * (1e200)^-2 * 4^r underflowed to the zero class and read "converges"
    text = one_radius_profile("C=1e200 p=0 rho=0.5", "C=1e-200 p=0 rho=2")
    code, out = run_on_text(["analyze", "--profile", "-"], text)
    assert code == OK
    assert "stochastic incompleteness  fails" in out
    assert "cross-checks: consistent" in out


@pytest.mark.parametrize("exp", [200, 300])
def test_tail_ratios_whose_product_underflows_decide_every_verdict(exp):
    # the complement-mass class multiplies rho = 1e-exp by 1/1e+exp, a
    # product that underflows to a ratio of 0.0
    text = one_radius_profile(f"C=1 p=0 rho=1e{exp}", f"C=1 p=0 rho=1e-{exp}")
    code, out = run_on_text(["check", "--profile", "-"], text)
    assert code == OK
    assert out.splitlines()[:6] == [
        "form_uniqueness: fails",
        "transience: holds",
        "stochastic_incompleteness: holds",
        "neumann_feller: fails",
        "dirichlet_feller: holds",
        "hamburger_esa: fails",
    ]
    code, payload = analyze_json(text)
    assert code == OK
    assert "4.94066e-324^r" in payload["neumann_feller"]["reason"]


def tail_text(data, *, zero=False):
    if zero:
        return "C=0"
    C = data.draw(st.floats(-300.0, 300.0).map(lambda x: 10.0**x))
    p = data.draw(st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 2.0, -2.0]), st.floats(-60.0, 60.0)))
    rho = data.draw(
        st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(-3.0, 3.0).map(lambda x: 10.0**x))
    )
    return f"C={C!r} p={p!r} rho={rho!r}"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_whole_profile_grammar_gives_documented_exits(data):
    """``analyze --json``, ``check`` and ``harmonic`` answer every valid
    closed-form profile with exit 0 or 3: never 2, never a traceback."""
    n = data.draw(st.integers(1, 6))
    value = st.one_of(
        st.floats(-3.0, 3.0).map(lambda x: 10.0**x), st.sampled_from([1e-300, 1e300])
    )
    killed = data.draw(st.booleans())
    prefix = {
        "boundary": data.draw(st.lists(value, min_size=n, max_size=n)),
        "sphere_m": data.draw(st.lists(value, min_size=n, max_size=n)),
        "sphere_c": data.draw(st.lists(value, min_size=n, max_size=n)) if killed else [0.0] * n,
        "sphere_count": [1.0] * n,
    }
    tails = {
        "boundary": tail_text(data),
        "sphere_m": tail_text(data),
        "sphere_c": tail_text(data, zero=not killed),
        "sphere_count": "C=1",
    }
    text = "\n".join(
        ["[prefix]", *(f"{k} = {' '.join(map(repr, v))}" for k, v in prefix.items()), "[tail]"]
        + [f"{k} = {v}" for k, v in tails.items()]
    )
    depth = data.draw(st.integers(1, 400))
    for argv in (
        ["analyze", "--profile", "-", "--json"],
        ["check", "--profile", "-"],
        ["harmonic", "--profile", "-", "--depth", str(depth)],
    ):
        code, _ = run_on_text(argv, text)
        assert code in (OK, INCONCLUSIVE), argv


def test_analyze_divergent_killing_is_consistent():
    code, payload = analyze_json(
        chain_text(PowerGeomTail(1.0, 0.0, 1.5), PowerGeomTail(1.0, 0.0, 0.6), PowerGeomTail(1.0, 0.0, 1.8))
    )
    assert code == OK
    assert payload["consistency_violations"] == []


@pytest.mark.parametrize("name", WSS_GALLERY)
def test_emitted_gallery_profiles_analyze(capsys, tmp_path, name):
    code, out, _ = run(capsys, "family", "--name", name, "--emit", "profile")
    assert code == OK
    assert "np." not in out
    path = tmp_path / f"{name}.profile"
    path.write_text(out)
    code, _, err = run(capsys, "analyze", "--profile", str(path))
    assert code in (OK, INCONCLUSIVE), err


def test_check_consistent(capsys):
    code, out, _ = run(capsys, "check", "--family", "geometric_chain")
    assert code == OK
    assert "all cross-checks consistent" in out


# ---------------------------------------------------------------------------
# harmonic
# ---------------------------------------------------------------------------


def test_harmonic_csv_pin(capsys):
    code, out, _ = run(
        capsys, "harmonic", "--family", "geometric_chain", "--depth", "3"
    )
    assert code == OK
    lines = out.strip().splitlines()
    assert lines[0] == "r,u,increment,partial_l1,partial_l2,partial_energy"
    values = [float(line.split(",")[1]) for line in lines[1:5]]
    assert values == pytest.approx([1.0, 2.0, 3.0, 3.6875], abs=1e-12)
    assert any(line.startswith("# bounded: holds") for line in lines)


def test_harmonic_json(capsys):
    code, out, _ = run(
        capsys, "harmonic", "--family", "unit_chain", "--depth", "4", "--json"
    )
    assert code == OK
    payload = json.loads(out)
    assert payload["values"] == [1.0, 2.0, 5.0, 13.0, 34.0]
    assert payload["membership"]["l2"]["state"] == "fails"


def test_harmonic_stops_at_float_overflow(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "harmonic", "--family", "binary_tree", "--depth", "2000")
    assert code == INCONCLUSIVE
    assert err == ""
    lines = out.strip().splitlines()
    note = next(i for i, line in enumerate(lines) if line.startswith("# note:"))
    rows = lines[1:note]
    assert lines[note] == f"# note: u leaves the float range at r={len(rows)}"
    assert 0 < len(rows) < 2000
    assert [int(row.split(",")[0]) for row in rows] == list(range(len(rows)))
    assert all(math.isfinite(float(x)) for row in rows for x in row.split(",")[1:])
    assert all(line.startswith("# ") for line in lines[note:])

    code, out, _ = run(
        capsys, "harmonic", "--family", "binary_tree", "--depth", "2000", "--json"
    )
    assert code == INCONCLUSIVE
    payload = json.loads(out)
    assert payload["note"] == f"u leaves the float range at r={len(rows)}"
    assert len(payload["values"]) == len(rows)
    for verdict in payload["membership"].values():
        assert all(isinstance(s, float) and math.isfinite(s) for s in verdict["partial_sums"])
        assert max(verdict["sample_depths"]) < len(rows)


def test_harmonic_stops_before_an_underflowed_boundary_weight(capsys):
    # dB(r) = 0.01^r underflows to 0.0 at r = 162: an input error before
    text = one_radius_profile("C=1 p=0 rho=0.01", "C=1 p=0 rho=0.5")
    code, out = run_on_text(["harmonic", "--profile", "-", "--depth", "200"], text)
    assert code == INCONCLUSIVE
    lines = out.splitlines()
    rows = [line for line in lines[1:] if not line.startswith("#")]
    assert [int(row.split(",")[0]) for row in rows] == list(range(13))
    assert lines[len(rows) + 1] == (
        "# note: u leaves the float range at r=13; "
        "layer boundary weight dB(162) underflows to 0.0; solved to depth 162"
    )
    code, out = run_on_text(["harmonic", "--profile", "-", "--depth", "200", "--json"], text)
    assert code == INCONCLUSIVE
    assert "dB(162) underflows to 0.0" in json.loads(out)["note"]
    # up to radius 162 the weights all fit, and the solve runs as asked
    code, out = run_on_text(["harmonic", "--profile", "-", "--depth", "162"], text)
    assert code == INCONCLUSIVE
    assert "# note: u leaves the float range at r=13\n" in out and "underflows" not in out


@pytest.mark.parametrize(
    "flag,value", [("--alpha", "nan"), ("--alpha", "inf"), ("--u0", "nan"), ("--u0", "inf")]
)
def test_harmonic_rejects_non_finite_parameters(capsys, flag, value):
    code, out, err = run(capsys, "harmonic", "--family", "unit_chain", flag, value)
    assert code == INPUT_ERROR
    assert out == ""
    assert f"{flag[2:]} must be finite, got {float(value)!r}" in err


def test_harmonic_rejects_asymmetric_family(capsys):
    code, _, err = run(capsys, "harmonic", "--family", "pendant_boundary")
    assert code == INPUT_ERROR
    assert "not spherically symmetric" in err


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------


def test_capacity_positive_finite(capsys):
    code, out, _ = run(
        capsys, "capacity", "--family", "geometric_chain", "--depths", "16,32"
    )
    assert code == OK
    lines = out.strip().splitlines()
    assert lines[0] == "depth,epsilon,cap,trapped_measure,stable"
    assert len(lines) >= 3
    assert "# classification: positive-finite" in out


def test_capacity_zero_json(capsys):
    code, out, _ = run(
        capsys, "capacity", "--family", "unit_chain", "--depths", "8,16", "--json"
    )
    assert code == OK
    payload = json.loads(out)
    assert payload["classification"] == "zero"
    assert payload["extrapolated"] == 0.0


def test_capacity_past_the_float_range_is_undecided(capsys):
    # the depth-1250 comparison truncation's 2^r chain weights overflow
    code, out, err = run(
        capsys, "capacity", "--family", "pendant_boundary", "--depths", "1000"
    )
    assert code == INCONCLUSIVE
    assert err == ""
    assert out.splitlines()[1:] == [
        "# classification: undecided",
        "# 1*(r+1)^0*2^r leaves the float range at layer 1025; use a smaller depth",
    ]


GEOMETRIC_ROWS = {
    16: "16,1.2458749098628632e-05,0.8250511222505519,1.52587890625e-05,1",
    1000: "1000,7.620065536121264e-302,0.8250407357089236,9.332636185031767e-302,1",
    1023: "1023,9.08382598891318e-309,0.8250407357089236,1.112536929253566e-308,1",
    1024: "1024,4.54191299445684e-309,0.8250407357089234,5.562684646268137e-309,1",
}


@pytest.mark.parametrize("depths,first_off", [((16, 1000, 1030, 2000), 1030), ((16, 1030), 1030),
                                              ((1023, 1024, 1025), 1025)])
def test_capacity_stops_where_the_profile_leaves_the_float_range(capsys, depths, first_off):
    # dB(1025) = 2^1025 is inf, so the next a_r was inf * 0: a nan capacity
    argv = ("capacity", "--family", "geometric_chain", "--depths", ",".join(map(str, depths)))
    code, out, err = run(capsys, *argv)
    assert code == INCONCLUSIVE
    assert err == "" and "nan" not in out
    assert out.splitlines() == [
        "depth,epsilon,cap,trapped_measure,stable",
        *(GEOMETRIC_ROWS[d] for d in depths if d < first_off),
        "# classification: undecided",
        f"# dB or (m+c) leaves the float range at radius 1025: depth {first_off} and deeper "
        "are not evaluated",
    ]


def test_capacity_below_the_float_range_limit_is_unchanged(capsys):
    code, out, _ = run(capsys, "capacity", "--family", "geometric_chain", "--depths", "1023,1024")
    assert code == OK
    assert out.splitlines() == [
        "depth,epsilon,cap,trapped_measure,stable",
        GEOMETRIC_ROWS[1023],
        GEOMETRIC_ROWS[1024],
        "# classification: positive-finite (0.8250407357089234)",
    ]


@pytest.mark.parametrize("params", [["b=geom:2", "m=1"], None])
def test_a_chain_past_the_float_range_is_an_input_error(capsys, params):
    # birth_death used to write "E 1099 1100 inf"
    argv = ["family", "--name", "birth_death" if params else "geometric_chain", "--depth", "1100"]
    argv += ["--params", *params] if params else []
    code, out, err = run(capsys, *argv, "--emit", "graph")
    assert code == INPUT_ERROR and out == ""
    assert err == "error: 1*(r+1)^0*2^r leaves the float range at layer 1025; use a smaller depth\n"


@pytest.mark.parametrize("depth", ["411", "819", "820"])
def test_capacity_past_the_float_range_of_a_degree_is_undecided(capsys, depth):
    # from depth 411 on, the comparison truncation (depth + depth // 4)
    # holds layer 512, whose degree, about 2^512 / 0.5^512, overflows while
    # every closed form still fits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys, "capacity", "--family", "pendant_boundary", "--depths", depth
        )
    assert code == INCONCLUSIVE
    assert err == ""
    assert out.splitlines()[1:] == [
        "# classification: undecided",
        "# the weighted degree of vertex 1024, (sum of b + c) / m, leaves the float range",
    ]


def test_capacity_bad_depths(capsys):
    code, _, err = run(
        capsys, "capacity", "--family", "unit_chain", "--depths", "a,b"
    )
    assert code == INPUT_ERROR
    assert "integer list" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("capacity", "--family", "geometric_chain", "--depths", "32,8"),
        ("capacity", "--family", "pendant_boundary", "--depths", "8,8"),
        ("ends", "--family", "bilateral_mixed", "--capacity-depths", "16,8"),
    ],
)
def test_capacity_depths_out_of_order_are_input_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == INPUT_ERROR
    assert out == ""
    assert err == f"error: depths must be strictly increasing, got {argv[-1]}\n"


@pytest.mark.parametrize(
    "tail,message",
    [
        ("C=1 p=0 rho=nan", "rho must be finite, got nan"),
        # an infinite coefficient once read as transient: its reciprocal
        # became the zero tail
        ("C=inf p=0 rho=2", "C must be finite, got inf"),
    ],
)
def test_analyze_refuses_non_finite_tail_numbers(capsys, tmp_path, tail, message):
    text = chain_text(PowerGeomTail(1.0, 0.0, 2.0), PowerGeomTail(1.0, 0.0, 0.5))
    lines = text.splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if line.startswith("boundary = C="))
    lines[lineno - 1] = f"boundary = {tail}"
    path = tmp_path / "bad.profile"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "analyze", "--profile", str(path))
    assert code == INPUT_ERROR
    assert out == ""
    assert err == f"error: line {lineno}: {message}\n"


ONE_RADIUS = """\
[prefix]
boundary = 1.0
sphere_m = 1.0
sphere_c = 0.0
sphere_count = 1
[tail]
boundary = C=1 p=0 rho=2
sphere_m = C=1 p=0 rho=0.5
sphere_c = C=0
sphere_count = C=1
"""


@pytest.mark.parametrize(
    "lineno,key,value",
    [
        # an infinite boundary weight once read as a transient walk
        (2, "boundary", "inf"),
        (4, "sphere_c", "inf"),
        # once refused as "measure prefix must be strictly positive"
        (3, "sphere_m", "nan"),
    ],
)
def test_analyze_refuses_non_finite_prefix_values(capsys, tmp_path, lineno, key, value):
    path = tmp_path / "bad.profile"
    path.write_text(ONE_RADIUS.replace(f"{key} = ", f"{key} = {value} #", 1))
    code, out, err = run(capsys, "analyze", "--profile", str(path))
    assert code == INPUT_ERROR
    assert out == ""
    assert err == f"error: line {lineno}: {key} prefix must be finite, got {value}\n"
    path.write_text(ONE_RADIUS)
    assert run(capsys, "analyze", "--profile", str(path))[0] == OK


def test_params_refuse_non_finite_numbers(capsys):
    code, _, err = run(
        capsys, "family", "--name", "birth_death", "--params", "b=1,0,nan", "m=geom:0.5"
    )
    assert code == INPUT_ERROR
    assert err == "error: bad sequence descriptor '1,0,nan': rho must be finite, got nan\n"


# ---------------------------------------------------------------------------
# family emission
# ---------------------------------------------------------------------------


def test_family_emits_parseable_graph(capsys):
    code, out, _ = run(capsys, "family", "--name", "unit_chain", "--depth", "4")
    assert code == OK
    g = parse_graph_text(out)
    assert g.vertex_count == 5
    assert g.edge_count == 4


def test_family_constructor_emits_profile(capsys):
    code, out, _ = run(
        capsys,
        "family", "--name", "birth_death",
        "--params", "b=geom:2", "m=geom:0.5",
        "--emit", "profile",
    )
    assert code == OK
    p = load_profile(io.StringIO(out))
    r = np.arange(6)
    assert p.values("boundary", 6) == pytest.approx(2.0**r)
    assert p.values("measure", 6) == pytest.approx(0.5**r)


def test_family_gallery_takes_no_params(capsys):
    code, _, err = run(
        capsys, "family", "--name", "unit_chain", "--params", "b=unit"
    )
    assert code == INPUT_ERROR
    assert "fixed gallery entry" in err


def test_family_unknown_name(capsys):
    code, _, err = run(capsys, "family", "--name", "penrose_tiling")
    assert code == INPUT_ERROR
    assert "unknown family" in err


def test_family_missing_required_params(capsys):
    code, _, err = run(capsys, "family", "--name", "birth_death", "--params", "b=unit")
    assert code == INPUT_ERROR
    assert "requires --params m" in err


# each constructor's accepted --params keys and how many of them are required
CONSTRUCTOR_PARAMS = {
    "birth_death": (("b", "m", "c"), 2),
    "wss_tree": (("k",), 1),
    "anti_tree": (("s", "m_vertex"), 1),
    "bilateral_chain": (("pos_b", "pos_m", "neg_b", "neg_m"), 4),
    "pendant_chain": (("chain_b", "chain_m", "vertical_b", "pendant_m"), 4),
    "star_chain": (("chain_b", "chain_m", "vertical_b", "pendant_m", "hub_b", "hub_m"), 5),
    "double_ladder": (("x_b", "x_m", "y_b", "y_m", "z_b", "z_m", "xy_b", "yz_b"), 8),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTOR_PARAMS))
def test_constructor_param_errors(capsys, name):
    accepted, required = CONSTRUCTOR_PARAMS[name]
    code, out, err = run(
        capsys, "family", "--name", name, "--params", "zz=1", f"{accepted[0]}=1", "bogus=2"
    )
    assert (code, out) == (INPUT_ERROR, "")
    assert err == (
        f"error: unknown parameter(s) ['bogus', 'zz'] for {name}; accepted: {', '.join(accepted)}\n"
    )
    code, _, err = run(capsys, "family", "--name", name, "--params")
    required_keys = " ".join(accepted[:required])
    assert (code, err) == (INPUT_ERROR, f"error: {name} requires --params {required_keys}\n")
    code, _, err = run(capsys, "family", "--name", name, "--params", f"{accepted[-1]}=1")
    missing = [key for key in accepted[:required] if key != accepted[-1]]
    if missing:
        expected = f"error: {name} requires --params {' '.join(missing)}\n"
        assert (code, err) == (INPUT_ERROR, expected)


STAR = ["chain_b=geom:2", "chain_m=geom:0.5", "vertical_b=1", "pendant_m=1", "hub_b=geom:0.5"]


def test_star_chain_hub_measure_is_a_constant_sequence(capsys):
    code, out, _ = run(
        capsys, "family", "--name", "star_chain", "--params", *STAR, "hub_m=2", "--depth", "3"
    )
    assert code == OK
    assert out.startswith("V 0 2.0 0.0\n")
    code, out, err = run(
        capsys, "family", "--name", "star_chain", "--params", *STAR, "hub_m=geom:0.5"
    )
    assert (code, out) == (INPUT_ERROR, "")
    assert err == "error: the hub measure hub_m must be a constant, got 1*(r+1)^0*0.5^r\n"


# ---------------------------------------------------------------------------
# decompose / ends
# ---------------------------------------------------------------------------


@pytest.fixture
def glued_graph_file(tmp_path):
    edges = [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.5), (1, 3, 0.5), (2, 5, 3.0)]
    g = WeightedGraph(6, edges, np.array([1.0, 2.0, 1.0, 0.5, 1.0, 4.0]))
    path = tmp_path / "glued.graph"
    save_graph(g, str(path))
    return str(path)


def test_decompose_text_output(glued_graph_file, capsys):
    code, out, _ = run(
        capsys, "decompose", "--graph", glued_graph_file, "--x1", "0,1,2"
    )
    assert code == INCONCLUSIVE  # finite evidence only, no bound given
    assert "x1: 3 vertices; x2: 3 vertices" in out
    assert "2 inside x1, 1 inside x2, 2 crossing" in out
    assert "ends (components of x2): [2, 1]" in out


def test_decompose_with_bound(glued_graph_file, capsys):
    code, out, _ = run(
        capsys,
        "decompose", "--graph", glued_graph_file, "--x1", "0,1,2", "--bound", "5",
    )
    assert code == OK
    assert "bounded" in out


@pytest.mark.parametrize("bound", ["inf", "nan"])
def test_decompose_refuses_a_non_finite_bound(glued_graph_file, capsys, bound):
    code, out, err = run(
        capsys,
        "decompose", "--graph", glued_graph_file, "--x1", "0,1,2", "--bound", bound,
    )
    assert (code, out) == (INPUT_ERROR, "")
    assert err == f"error: crossing-degree bound must be finite, got {bound}\n"


def test_decompose_json_from_stdin(glued_graph_file, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", open(glued_graph_file))
    code, out, _ = run(capsys, "decompose", "--graph", "-", "--x1", "0", "--json")
    assert code == INCONCLUSIVE
    payload = json.loads(out)
    assert payload["x1_size"] == 1
    assert payload["edges_crossing"] == 1
    assert payload["boundary_degree"]["bounded"] is None


def test_ends_bilateral_mixed(capsys):
    code, out, _ = run(capsys, "ends", "--family", "bilateral_mixed")
    assert code == OK  # decided (fails)
    assert "verdict: fails" in out
    assert "not form unique" in out


def test_ends_with_capacity_json(capsys):
    code, out, _ = run(
        capsys,
        "ends", "--family", "bilateral_mixed",
        "--capacity-depths", "8,16", "--json",
    )
    assert code == OK
    payload = json.loads(out)
    caps = {e["name"].rsplit("/", 1)[-1]: e["capacity"]["classification"]
            for e in payload["ends"]}
    assert caps == {"pos": "positive-finite", "neg": "zero"}


def test_ends_inconclusive_exit(capsys):
    code, out, _ = run(capsys, "ends", "--family", "ladder_instability")
    assert code == INCONCLUSIVE
    assert "hypothesis unmet" in out


def test_ends_requires_end_profiles(capsys):
    code, _, err = run(capsys, "ends", "--family", "pendant_boundary")
    assert code == INPUT_ERROR
    assert "symmetric ends" in err


# ---------------------------------------------------------------------------
# parser behavior
# ---------------------------------------------------------------------------


def test_unknown_subcommand_exits_two(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_graph_file(capsys):
    code, _, err = run(capsys, "decompose", "--graph", "/nonexistent", "--x1", "0")
    assert code == INPUT_ERROR
    assert "error:" in err


# each call of a sequence against its expected exit code; the parser
# main() keeps from the first call must answer the second as a fresh one
REUSE_SEQUENCES = [
    [
        (["analyze", "--family"], INPUT_ERROR),
        (["analyze", "--family", "unit_chain"], OK),
        (["analyze", "--family"], INPUT_ERROR),
    ],
    [
        (["family", "--name", "birth_death", "--params", "b=geom:2", "m=geom:0.5"], OK),
        (["family", "--name", "unit_chain", "--depth", "3"], OK),
    ],
    [
        (["analyze", "--family", "geometric_chain", "--json"], OK),
        (["analyze", "--family", "geometric_chain"], OK),
    ],
]


@pytest.mark.parametrize("calls", REUSE_SEQUENCES)
def test_reused_parser_answers_as_a_fresh_one(capsys, calls):
    fresh = []
    for argv, _ in calls:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert [code for code, _, _ in fresh] == [code for _, code in calls]
    for code, _, err in fresh:
        assert (code == INPUT_ERROR) == err.startswith("usage: formuniq")
    cli._parser.cache_clear()
    assert [run(capsys, *argv) for argv, _ in calls] == fresh


def test_main_builds_one_parser(capsys, monkeypatch):
    built = []

    def counting():
        built.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    for _ in range(3):
        for calls in REUSE_SEQUENCES:
            for argv, _ in calls:
                run(capsys, *argv)
    cli._parser.cache_clear()
    assert len(built) == 1
