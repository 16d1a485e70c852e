"""The ``--json`` writer of the command line against the encoder it replaced.

The reference below is the earlier route, kept verbatim in behaviour:
``_jsonable`` turned each non-finite float into the string of its
``repr`` and ``json.dumps(..., indent=2, sort_keys=True)`` wrote the
result.  The one-pass writer must give the same text on every payload
the reference accepts, except that a non-finite numpy float is written
``"inf"``, ``"-inf"`` or ``"nan"`` as a Python float is, not as its numpy
``repr``.  Every ``--json`` command's output must also be the canonical
form of its own parse, which holds whatever the CPU rounds.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formuniq.cli import INCONCLUSIVE, OK, _dump_json, main
from formuniq.families import GALLERY


def reference_jsonable(x):
    if isinstance(x, float):
        return x if math.isfinite(x) else repr(x)
    if isinstance(x, dict):
        return {k: reference_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [reference_jsonable(v) for v in x]
    return x


def reference_dump(payload):
    return json.dumps(reference_jsonable(payload), indent=2, sort_keys=True) + "\n"


def write(payload):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _dump_json(payload)
    return out.getvalue()


# ---------------------------------------------------------------------------
# the writer against the reference
# ---------------------------------------------------------------------------

#: non-ASCII, quotes, backslashes, control characters and surrogates
TEXT = st.text(
    st.characters() | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€😀')
)
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1 + 0.2, 1e16, 1e-7]
FLOATS = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(EDGE_FLOATS + [math.inf, -math.inf, math.nan])
)
INTS = st.integers() | st.sampled_from([2**64, -(2**64) - 1, 2**200, 0, -1])
NUMBERS = INTS | FLOATS
SCALARS = (
    st.none()
    | st.booleans()
    | NUMBERS
    | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
    | TEXT
)
PAYLOADS = st.recursive(
    SCALARS | st.lists(NUMBERS) | st.lists(NUMBERS).map(tuple),
    lambda children: (
        st.lists(children, max_size=6)
        | st.lists(children, max_size=6).map(tuple)
        | st.dictionaries(TEXT, children, max_size=6)
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(PAYLOADS)
def test_writer_gives_the_reference_bytes(payload):
    assert write(payload) == reference_dump(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        (),
        {"a": [], "b": {}, "c": ()},
        [[[]], [{}], {"x": [[1, 2], [3.5, -0.0]]}],
        [1, 2.5, True, None, 3],  # a bool keeps the list off the number join
        [1, 2**64, -(2**70), 0.1 + 0.2, 5e-324, 1.7976931348623157e308],
        [np.float64(0.5), 1.5, 2],
        {"z": 1, "a": 2, "é": 3, "A": 4, "": 5},
        "plain",
        'quote " backslash \\ newline \n nul \x00 é 😀',
        1e300,
        -(2**64),
    ],
)
def test_writer_gives_the_reference_bytes_on_named_payloads(payload):
    assert write(payload) == reference_dump(payload)


@pytest.mark.parametrize("kind", [float, np.float64])
def test_non_finite_floats_are_written_as_strings(kind):
    payload = {"x": [kind("inf"), kind("-inf"), kind("nan")], "y": kind("inf"), "z": [1.0, kind("nan")]}
    assert write(payload) == (
        '{\n  "x": [\n    "inf",\n    "-inf",\n    "nan"\n  ],\n  "y": "inf",\n'
        '  "z": [\n    1.0,\n    "nan"\n  ]\n}\n'
    )
    assert write(kind("-inf")) == '"-inf"\n'


@pytest.mark.parametrize(
    "payload",
    [np.int64(1), [np.int64(1)], {"a": {1, 2}}, b"bytes", [1.0, b"x"], np.float32(1.0), np.bool_(True)],
)
def test_what_json_refuses_the_writer_refuses(payload):
    with pytest.raises(TypeError):
        reference_dump(payload)
    with pytest.raises(TypeError):
        write(payload)


@pytest.mark.parametrize("payload", [{1: "a"}, {"a": {2.5: 1}}, {1: "a", "b": 2}, {None: 1}])
def test_keys_must_be_strings(payload):
    with pytest.raises(TypeError):
        write(payload)


# ---------------------------------------------------------------------------
# every --json command writes the canonical form of its parse
# ---------------------------------------------------------------------------


def json_commands():
    for name in GALLERY:
        yield ["analyze", "--family", name, "--json"]
        yield ["check", "--family", name, "--json"]
        yield ["harmonic", "--family", name, "--depth", "300", "--json"]
        yield ["capacity", "--family", name, "--depths", "8,16,32", "--json"]
        yield ["ends", "--family", name, "--capacity-depths", "8,16", "--json"]


#: a family on which each command writes its output, so that no command's
#: canonical-form check is vacuous on every family
WRITES_ON = {
    "analyze": "geometric_chain",
    "check": "geometric_chain",
    "harmonic": "geometric_chain",
    "capacity": "geometric_chain",
    "ends": "bilateral_mixed",
}


def assert_canonical(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    text = out.getvalue()
    if code in (OK, INCONCLUSIVE):
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    return code


@pytest.mark.parametrize("argv", list(json_commands()), ids=" ".join)
def test_json_output_is_canonical(argv):
    code = assert_canonical(argv)
    if WRITES_ON[argv[0]] == argv[2]:
        assert code in (OK, INCONCLUSIVE)


def test_decompose_json_output_is_canonical(tmp_path):
    path = tmp_path / "bt6.graph"
    with open(path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        assert main(["family", "--name", "binary_tree", "--depth", "6", "--emit", "graph"]) == OK
    argv = ["decompose", "--graph", str(path), "--x1", "0", "--bound", "10", "--json"]
    assert assert_canonical(argv) in (OK, INCONCLUSIVE)
