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
from formuniq.cli import INCONCLUSIVE, INPUT_ERROR, OK, main
from formuniq.families import WSS_GALLERY, SeqSpec, birth_death
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
        chain_text(SeqSpec(2.0, 3.0, 20.0), SeqSpec(1.0, -2.0, 0.05))
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
        chain_text(SeqSpec(10.0**cb, pb, rb), SeqSpec(10.0**cm, pm, rm))
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


def test_analyze_divergent_killing_is_consistent():
    code, payload = analyze_json(
        chain_text(SeqSpec(1.0, 0.0, 1.5), SeqSpec(1.0, 0.0, 0.6), SeqSpec(1.0, 0.0, 1.8))
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


def test_capacity_bad_depths(capsys):
    code, _, err = run(
        capsys, "capacity", "--family", "unit_chain", "--depths", "a,b"
    )
    assert code == INPUT_ERROR
    assert "integer list" in err


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
    for r in range(6):
        assert p.boundary(r) == pytest.approx(2.0**r)
        assert p.sphere_measure(r) == pytest.approx(0.5**r)


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
