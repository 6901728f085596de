"""The --json report text against its definition.

``reference`` is that definition: one line of ``json.dumps`` over a
sanitized copy of the payload, in which inf and nan are strings. The
emitter, which sanitizes only when the plain call meets a non-finite
float, must give the same text, byte for byte, or raise the same error
type.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contractum.cli as cli
from contractum.cli import _json_text, dispatch


def sanitize(obj):
    """The sanitizing pass the CLI makes when a report holds a non-finite
    float: inf and nan become their repr, tuples become lists, dicts are
    copied."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {k: sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    return obj


def reference(obj) -> str:
    return json.dumps(sanitize(obj), allow_nan=False, default=str)


def outcome(encode, obj):
    try:
        return encode(obj)
    except Exception as exc:
        return type(exc)


class Unknown:
    """Not JSON: default=str gives its str, which holds a newline and a quote."""

    def __str__(self):
        return 'unknown\n"object"'


# ---------------------------------------------------------------------------
# payloads


scalars = st.one_of(
    st.text(),
    st.sampled_from(["", "ä→😀", '"quoted"', "back\\slash", "\x00\x1f\n\t\r", "}", "},\n  {",
                     "{", "]", "x{"]),
    st.integers(),
    # more digits than int() gives as a string: a ValueError either way
    st.integers(4299, 4400).map(lambda n: -(10 ** n)),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308]),
    st.floats().map(np.float64),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.just(Unknown()),
)

keys = st.one_of(st.text(max_size=8), st.text(max_size=8), st.text(max_size=8),
                 st.integers(-3, 3), st.floats(), st.booleans(), st.none(),
                 st.just((1, 2)))

payloads = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(keys, inner, max_size=5),
        # lists of flat dicts, the shape of check's violations
        st.lists(st.dictionaries(st.text(max_size=4), scalars, max_size=4), max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_emitter_matches_reference(payload):
    assert outcome(_json_text, payload) == outcome(reference, payload)


@pytest.mark.parametrize("payload", [
    {}, [], {"a": {}}, [[], {}], (), {"t": (1, (2.5, "x"))},
    {"a": 1, "b": [1, 2.5, None, True, "xé\n\"\\"], "c": {"d": math.nan, "e": -0.0}},
    {"x": np.float64(1.5), "y": np.float64("nan"), "z": np.int64(3)},
    {1: 2, "a": {None: 3, 2.5: [1]}}, [Unknown(), {"u": Unknown()}],
    math.inf, "s", 10 ** 100,
    [{"a": 1, "b": "}"}, {"c": "},\n      {"}], [{"a": 1}, {}], [{"a": 1}, {1: 2}],
    [{"a": 1}, {"b": math.nan}, {"c": 3}], [[{"a": 1}, {"b": 2}]], [{"a": [1]}],
    {"big": [1, {"b": 10 ** 5000}]}, {"key": {math.nan: 1}}, {(1, 2): 3},
])
def test_emitter_matches_reference_on_edges(payload):
    assert outcome(_json_text, payload) == outcome(reference, payload)


# ---------------------------------------------------------------------------
# every subcommand's --json output


@pytest.fixture
def zero_distance_file(tmp_path):
    """classify reports b_rectangular_s as inf here: the non-finite path."""
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"points": ["a", "b", "c", "d"],
                                "distances": [[0, 0, 1, 1], [0, 0, 1, 1],
                                              [1, 1, 0, 1], [1, 1, 1, 0]]}))
    return path


COMMANDS = {
    "validate-space": ["validate-space", "{space}", "--s", "1"],
    "classify": ["classify", "{space}"],
    "classify-inf": ["classify", "{zero}"],
    "min-s": ["min-s", "{space}"],
    "check-grid": ["check", "--fixture", "example-3.4", "--variant", "kannan", "--grid", "20"],
    "check-beta": ["check", "--fixture", "example-3.4", "--variant", "beta", "--grid", "12",
                   "--betas", "0.4,0.2,0.2,0.1"],
    "check-sample": ["check", "--fixture", "example-3.10", "--variant", "typeIm",
                     "--sample", "200", "--seed", "3"],
    "check-space": ["check", "--space", "{space}", "--map", "x", "--variant", "typeF",
                    "--s", "3", "--F", "ln_plus_sqrt", "--phi", "inv_1p"],
    "check-verbose": ["check", "--fixture", "example-3.4", "--variant", "typeIm", "--grid", "6",
                      "--verbose"],
    "iterate": ["iterate", "--fixture", "example-3.4", "--x0", "2"],
    "iterate-cycle": ["iterate", "--domain", "interval:0,1", "--map", "1-x", "--x0", "0.25"],
    "solve-integral": ["solve-integral", "--a", "0", "--b", "1", "--lambda", "0.5", "--s", "3",
                       "--kernel", "t*r*sin(x)", "--m", "9", "--check-kernel", "20"],
    "examples-list": ["examples", "list"],
    "examples-run": ["examples", "run", "example-3.4"],
    "examples-export": ["examples", "export", "example-2.2", "--grid", "4", "--out", "{out}"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_json_report_matches_reference(name, space_file, zero_distance_file, tmp_path,
                                       monkeypatch, capsys):
    argv = [a.format(space=space_file, zero=zero_distance_file, out=tmp_path / "out.json")
            for a in COMMANDS[name]]
    payloads = []
    monkeypatch.setattr(cli, "_json_text", lambda obj: payloads.append(obj) or _json_text(obj))
    dispatch(["--json"] + argv)
    assert len(payloads) == 1
    out = capsys.readouterr().out
    assert out == reference(payloads[0]) + "\n"
    assert len(out.splitlines()) == 1
