"""The graph text format: the column reader against the line loop, and
the piece writer against the per-line f-string it replaced.

``parse_graph_text`` reads the layout ``format_graph_text`` writes a
column at a time and hands every other text to the line loop, which
stays the only code that words a parse error.  Whichever path a text
takes, it must give the loop's graph bit for bit, or the loop's
exception type and message.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formuniq import graph
from formuniq.families import GALLERY, anti_tree, linear, wss_tree
from formuniq.graph import WeightedGraph, format_graph_text, parse_graph_text

# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def reference_format(g):
    """The per-line f-string writer, verbatim in behaviour."""
    lines = [
        f"V {i} {m!r} {c!r}"
        for i, (m, c) in enumerate(zip(g.measure.tolist(), g.killing.tolist()))
    ]
    lines += [
        f"E {u} {v} {w!r}"
        for u, v, w in zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_w.tolist())
    ]
    return "\n".join(lines) + "\n"


def outcome(parse, text):
    """The graph's arrays as bytes, or the exception's type and message."""
    try:
        g = parse(text)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc), str(exc)
    return g.vertex_count, *(
        (a.dtype.str, a.tobytes())
        for a in (g.measure, g.killing, g.edge_u, g.edge_v, g.edge_w)
    )


def assert_same_as_the_loop(text):
    assert outcome(parse_graph_text, text) == outcome(graph._parse_lines, text)


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------

PATH = "V 0 1.0 0.0\nV 1 2.0 0.5\nV 2 1.0 0.0\nE 0 1 1.0\nE 1 2 2.0\n"

ADVERSARIAL = [
    PATH,
    "",
    "\n",
    "V 0 1.0 0.0",  # no final newline
    PATH[:-1],
    "V 0 1.0 0.0 9\nV 1 1.0\nE 0 1 1.0\n",  # a 5-token line beside a 3-token one
    "V 0 1 0 V\nV 1 0\n",
    "V 0 1 0 V\n1 1 0\n",  # a line that starts with a number
    "V 0 1.0 0.0\nV 1 2.0\nE 0 1 1.0\n",  # a short last V line
    PATH[: -len(" 2.0\n")] + "\n",  # a short last E line
    "V 0 1 0 0\nV 1 1\n",
    "V 0 1 0 V 1 1 0\nE 0 1 1\n",  # two records on one line
    "V 0 1 0\nV 1 1 0\nE 0 1 1 E\nE 1 0\n",
    "V 0 1 0\nV 1 1 0\nE 0 1 E\n",
    "V 0 1 0\nV 1 1 0\nE 0 1 E5\n",
    "E 0 1 1.0\nV 0 1.0 0.0\nV 1 1.0 0.0\n",  # E before V
    "V 0 1.0 0.0\nE 0 1 1.0\nV 1 1.0 0.0\n",  # V after E
    "V 1 1.0 0.0\nV 0 2.0 0.0\nE 0 1 1.0\n",  # ids out of order
    PATH.replace("\n", "\r\n"),
    PATH.replace(" ", "\t"),
    PATH.replace("\n", "\x0c\n"),
    PATH.replace("\nE", "\x1cE"),
    PATH.replace("2.0\n", "2.0 # heavy\n"),
    PATH.replace("\nE", "\n\nE"),
    PATH.replace("\nE", "\n E"),
    PATH.replace("2.0\n", "1_0\n"),
    PATH.replace("2.0 0.5", "+5 0.5"),
    PATH.replace("2.0 0.5", "inf 0.5"),
    PATH.replace("2.0 0.5", "infinity 0.5"),
    PATH.replace("2.0 0.5", "nan 0.5"),
    PATH.replace("2.0 0.5", "1e400 0.5"),
    PATH.replace("2.0 0.5", "2.0 -0.0"),
    PATH.replace("2.0 0.5", ".5e1 5."),
    PATH.replace("2.0 0.5", "2.0 -0.5"),
    PATH.replace("2.0 0.5", "0 0.5"),
    PATH.replace("2.0 0.5", "٢ 0.5"),  # an Arabic-Indic digit
    PATH.replace("V 1", "VE 1"),
    PATH.replace("E 1", "EE 1"),
    PATH.replace("V 1", "V 01"),
    PATH.replace("V 1", "V +1"),
    PATH.replace("V 1", "V 0"),  # duplicate vertex
    PATH.replace("V 2", "V 3"),  # a gap in the ids
    PATH.replace("E 0 1", "E 00 01"),
    PATH.replace("E 0 1", "E 0 " + "0" * 5000 + "1"),  # past int()'s digit limit
    PATH.replace("E 0 1", "E 0 1e0"),
    "".join(f"V {i} 1.0 0.0\n" for i in range(101)) + "E 0 1e2 1.0\n",  # as long as 100
    PATH.replace("E 0 1", "E 0 -1"),
    PATH.replace("E 0 1", "E 0 9"),
    PATH.replace("E 0 1", "E 0 99999999999999999999999"),
    PATH.replace("E 0 1", "E 0 " + "9" * 400),  # too large for a float
    PATH.replace("E 0 1", "E 1 1"),
    PATH.replace("E 0 1 1.0", "E 0 1 0.0"),
    PATH.replace("E 0 1 1.0", "E 0 1 -1.0"),
    PATH + "E 1 0 3.0\n",  # conflicting weights
    PATH + "E 1 0 1.0000000000001\n",  # a repeat within SYMMETRY_TOL
    PATH + "E 1\n",
    PATH + "X 1 2 3\n",
    PATH + "Vx 1 2 3\n",
    # signed ids, which int() and numpy both read
    PATH.replace("V 1", "V -1"),
    PATH.replace("V 0", "V -0"),
    PATH.replace("E 0 1", "E +0 +1"),
    PATH.replace("E 0 1", "E -0 1"),
    PATH.replace("E 0 1", "E +00 1"),
    # float ids, which int() refuses
    PATH.replace("V 1", "V 1.0"),
    PATH.replace("E 0 1", "E 0 1.0"),
    PATH.replace("E 0 1", "E 1e3 1"),
    "".join(f"V {i} 1.0 0.0\n" for i in range(1001)) + "E 0 1e3 1.0\n",
]

#: layout texts the column reader must take, not hand to the loop
COLUMN_TEXTS = [
    PATH,
    PATH.replace("0.0\nV 1", "-0.0\nV 1"),  # a -0.0 killing
    PATH.replace("E 0 1", "E +0 +1"),
    "V 0 1.0 0.0\n",  # one vertex, no edges
    "V 0 1.0 0.0\nV 1 1.0 0.0\n",  # two vertices, no edges
]
ADVERSARIAL += COLUMN_TEXTS[1:]


@pytest.mark.parametrize("text", ADVERSARIAL)
def test_parse_matches_the_line_loop(text):
    assert_same_as_the_loop(text)


@pytest.mark.parametrize("text", COLUMN_TEXTS)
def test_layout_text_is_read_in_columns(text):
    g = graph._parse_columns(text)
    assert g is not None
    assert outcome(lambda t: g, text) == outcome(graph._parse_lines, text)


#: texts that one layout check refuses and numpy's reader alone would
#: take: the column reader must leave each to the loop
NEAR_LAYOUT = [
    PATH.replace("V 1", "1 1"),  # a V record typed by a digit
    PATH.replace("E 1", "1 1"),  # an E record typed by a digit
    PATH.replace("E 0 1", "E 0  1"),  # two spaces
    PATH.replace("2.0\n", "2.0 \n"),  # a trailing space
    PATH.replace("E 0 1", "E 0 +" + "0" * 5000 + "1"),  # signed, past int()'s digit limit
]


@pytest.mark.parametrize("text", NEAR_LAYOUT)
def test_near_layout_text_is_left_to_the_loop(text):
    assert graph._parse_columns(text) is None
    assert_same_as_the_loop(text)


# the column reader turns numpy's warnings into a refusal whatever filter
# its caller has set, and leaves that filter as it found it
CALLER_FILTERS = ["error", "ignore", "default"]


@pytest.mark.parametrize("caller_filter", CALLER_FILTERS)
@pytest.mark.parametrize("fam,depth", [(wss_tree(2), 6), (anti_tree(linear()), 9)])
def test_family_text_is_read_in_columns(fam, depth, caller_filter):
    text = format_graph_text(fam.build(depth).graph)
    with warnings.catch_warnings():
        warnings.simplefilter(caller_filter)
        assert graph._parse_columns(text) is not None
        assert_same_as_the_loop(text)
        assert warnings.filters[0][0] == caller_filter


def test_a_numpy_warning_hands_the_text_to_the_loop():
    # numpy 1.24 reads the id "1.0" as an int, with a DeprecationWarning
    read = graph._read_rows

    def warn_and_read(section, row):
        warnings.warn("string or file could not be read to its end", DeprecationWarning)
        return read(section, row)

    with mock.patch.object(graph, "_read_rows", warn_and_read):
        assert graph._parse_columns(PATH) is None
        assert_same_as_the_loop(PATH)
    assert graph._parse_columns(PATH) is not None


VALUES = st.one_of(
    st.sampled_from([1.0, 0.5, 5e-324, 1e16, 1e22, 0.1 + 0.2, float("inf")]),
    st.floats(1e-300, 1e300),
)


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 40))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    pair_lists = st.lists(pairs, max_size=60, unique_by=lambda e: (min(e), max(e)))
    edges = [(x, y, draw(VALUES)) for x, y in draw(pair_lists)] if n > 1 else []
    measure = draw(st.lists(VALUES, min_size=n, max_size=n))
    killing = draw(st.lists(st.one_of(st.just(0.0), st.just(-0.0), VALUES), min_size=n, max_size=n))
    return WeightedGraph(n, edges, measure, killing)


def _lines(text):
    return text.split("\n")[:-1]


def _vertex_count(text):
    return sum(line.startswith("V") for line in _lines(text))


def _tokens(text):
    return [line.split(" ") for line in _lines(text)]


def _join(records):
    return "".join(" ".join(r) + "\n" for r in records)


def _replace_token(text, i, k, new):
    records = _tokens(text)
    records[i][k] = new
    return _join(records)


MUTATIONS = {
    "comment": lambda t, i: "".join(
        line + (" # note" if j == i else "") + "\n" for j, line in enumerate(_lines(t))
    ),
    "blank line": lambda t, i: "".join(
        ("\n" if j == i else "") + line + "\n" for j, line in enumerate(_lines(t))
    ),
    "tab": lambda t, i: t.replace(" ", "\t", 1 + i % 3),
    "crlf": lambda t, i: t.replace("\n", "\r\n"),
    "leading space": lambda t, i: "".join(
        (" " if j == i else "") + line + "\n" for j, line in enumerate(_lines(t))
    ),
    "no final newline": lambda t, i: t[:-1],
    "V after E": lambda t, i: t + f"V {_vertex_count(t)} 1.0 0.0\n",
    "V moved last": lambda t, i: "".join(line + "\n" for line in _lines(t)[1:] + _lines(t)[:1]),
    "swapped V ids": lambda t, i: _replace_token(
        _replace_token(t, 0, 1, str(i % _vertex_count(t))), i % _vertex_count(t), 1, "0"
    ),
    "underscore": lambda t, i: _replace_token(t, i, 3, "1_0"),
    "plus sign": lambda t, i: _replace_token(t, i, 3, "+5"),
    "inf": lambda t, i: _replace_token(t, i, 2, "inf"),
    "leading zero": lambda t, i: _replace_token(t, i, 1, "0" + _tokens(t)[i][1]),
    "five tokens": lambda t, i: _replace_token(t, i, 3, _tokens(t)[i][3] + " 1"),
    "three tokens": lambda t, i: _replace_token(t, i, 3, "").replace(" \n", "\n"),
}


@settings(max_examples=100, deadline=None)
@given(
    graphs(),
    st.sampled_from([None, *MUTATIONS]),
    st.integers(0, 10**6),
    st.sampled_from(CALLER_FILTERS),
)
def test_mutated_text_reads_as_in_the_loop(g, mutation, at, caller_filter):
    text = format_graph_text(g)
    assert text == reference_format(g)
    with warnings.catch_warnings():
        warnings.simplefilter(caller_filter)
        if mutation is None:
            # an infinite value is written "inf", which only the loop reads
            finite = all(np.isfinite(a).all() for a in (g.measure, g.killing, g.edge_w))
            assert (graph._parse_columns(text) is not None) == finite
        else:
            text = MUTATIONS[mutation](text, at % len(_lines(text)))
        assert_same_as_the_loop(text)


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------


def test_format_writes_the_bytes_of_the_f_string_writer():
    n = 12  # ids past 9
    measure = [1.0, float("inf"), 5e-324, 1e16, 0.1 + 0.2, 1e22, 2.5, 1e-7, 3.0, 7.0, 11.0, 0.125]
    killing = [-0.0, 0.0, 1e22, 5e-324, 0.1 + 0.2, 1e16, 0.0, 0.0, 0.0, 0.0, 1.5, 0.0]
    edges = [(i, (i * 5 + 1) % n, w) for i, w in enumerate(measure) if i != (i * 5 + 1) % n]
    g = WeightedGraph(n, edges + [(11, 10, 1e22)], measure, killing)
    assert format_graph_text(g) == reference_format(g)


@pytest.mark.parametrize("depth", [3, 8])
@pytest.mark.parametrize("name", list(GALLERY))
def test_format_writes_every_gallery_truncation_as_the_f_string_writer(name, depth):
    g = GALLERY[name]().build(depth).graph
    assert format_graph_text(g) == reference_format(g)


def _path(n, weights, measure, killing=None):
    return WeightedGraph(n, [(i, i + 1, w) for i, w in zip(range(n - 1), weights)], measure, killing)


INF = float("inf")

WRITER_CASES = {
    # runs of 0.0 and -0.0 and the two interleaved: equal as floats,
    # written apart
    "signed zeros": _path(
        60, [1.0] * 59, [1.0] * 60, [0.0] * 10 + [-0.0] * 10 + [0.0, -0.0] * 15 + [-0.0, 0.0] * 5
    ),
    "repeated inf measure": _path(
        30, [2.0] * 29, [INF] * 10 + [1.0, INF] * 5 + [INF] * 10, [0.0] * 29 + [INF]
    ),
    "all distinct": _path(
        200, (np.arange(1, 200) * (0.1 + 0.2)).tolist(), (np.arange(1, 201) / 7).tolist(),
        (np.arange(200) * 1e-5).tolist(),
    ),
    # values that repeat, but never next to each other
    "repeats apart": _path(100, [1.0, 2.0] * 49 + [1.0], [1.0, 2.0] * 50, [0.0, 0.5] * 50),
    "edgeless": WeightedGraph(5, [], [1.0, 0.5, 0.5, 1e16, 1e-5], [-0.0, 0.0, 0.0, 1e16, 1e-5]),
    "one vertex": WeightedGraph(1, [], [5e-324], [-0.0]),
}


@pytest.mark.parametrize("case", list(WRITER_CASES))
def test_format_writes_the_edge_cases_as_the_f_string_writer(case):
    g = WRITER_CASES[case]
    assert format_graph_text(g) == reference_format(g)


#: few values, so that a graph repeats each of them, in runs and apart;
#: 0.0 and -0.0 are equal as floats and written apart
POOL = [0.0, -0.0, 1.0, 0.5, 1e16, 1e-5, 9999999999999998.0, 5e-324, 0.1 + 0.2, INF]


@st.composite
def pooled_graphs(draw):
    pool = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=4))
    positive = [v for v in pool if v > 0] or [1.0]
    n = draw(st.integers(1, 30))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    pair_lists = st.lists(pairs, max_size=50, unique_by=lambda e: (min(e), max(e)))
    edges = [(x, y, draw(st.sampled_from(positive))) for x, y in draw(pair_lists)] if n > 1 else []
    measure = draw(st.lists(st.sampled_from(positive), min_size=n, max_size=n))
    killing = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return WeightedGraph(n, edges, measure, killing)


@settings(max_examples=200, deadline=None)
@given(pooled_graphs())
def test_format_of_repeated_values_is_the_f_string_writer(g):
    assert format_graph_text(g) == reference_format(g)
