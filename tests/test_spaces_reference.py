"""The table load path and the min-plus kernel against reference versions.

The references are the straightforward implementations: a kernel that
reduces along columns with a full-table runner-up swap, a loader that
parses every cell through ``float(Fraction(cell))``, and Fraction itself
for single strings. The fast paths must agree with them bit for bit,
error messages included.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contractum import spaces
from contractum.errors import MalformedSpaceError
from contractum.spaces import (
    _pair_denominator_minima,
    _parse_text,
    _plain_values,
    _without_loops,
    parse_label,
    parse_number,
    space_from_csv,
    space_from_json,
)


# ---------------------------------------------------------------------------
# references


def reference_minima(D):
    """Two- and three-hop minima, reduced along columns, with the runner-up
    swapped in through a full n x n selection."""
    n = D.shape[0]
    idx = np.arange(n)
    E = _without_loops(D)
    two, three = np.empty((n, n)), np.empty((n, n))
    for i in range(n):
        B = E[i][:, None] + E                 # B[u, v] = D[i,u] + D[u,v]
        B[:, i] = np.inf
        u1 = B.argmin(axis=0)
        m1 = two[i] = B[u1, idx]
        B[u1, idx] = np.inf
        m2 = B.min(axis=0)
        best_u = np.where(u1[:, None] == idx[None, :], m2[:, None], m1[:, None])
        three[i] = (best_u + E).min(axis=0)
        three[i, i] = np.inf
    return two, three


def reference_number(value) -> float:
    """A table cell parsed on its own, every string through Fraction."""
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:
            pass
    elif isinstance(value, str):
        try:
            return float(Fraction(value))
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
    raise MalformedSpaceError(f"cannot parse distance entry {value!r}")


def reference_fill(points, rows):
    """Every cell through reference_number, in row-major order."""
    n = len(points)
    D = np.full((n, n), np.nan)
    for i, row in enumerate(rows):
        if i >= n:
            raise MalformedSpaceError(f"too many table rows ({len(rows)}) for {n} points")
        for j, cell in enumerate(row):
            if j >= n:
                raise MalformedSpaceError(f"row {i} has too many entries")
            if cell is None or (isinstance(cell, str) and not cell.strip()):
                continue
            value = reference_number(cell)
            if value != value:
                raise MalformedSpaceError(
                    f"non-finite distance nan at ({points[i]!r}, {points[j]!r})",
                    pair=(points[i], points[j]))
            D[i, j] = value
    D = np.where(np.isnan(D), D.T, D)
    missing = np.argwhere(np.isnan(D))
    if missing.size:
        i, j = map(int, missing[0])
        raise MalformedSpaceError(
            f"missing distance for pair ({points[i]!r}, {points[j]!r})",
            pair=(points[i], points[j]))
    return D


def outcome(load, source):
    """What a load gives: the labels and the table's bytes (so -0.0 and
    0.0 differ), or the error's type, message and pair."""
    try:
        space = load(source)
    except Exception as exc:
        return type(exc).__name__, str(exc), getattr(exc, "pair", None)
    return space.points, space.dist.tobytes()


def reference_outcome(monkeypatch, load, source):
    with monkeypatch.context() as m:
        m.setattr(spaces, "_numeric_square", lambda points, rows: None)
        m.setattr(spaces, "_mirror_fill", reference_fill)
        return outcome(load, source)


def text_outcome(parse, text):
    try:
        return repr(parse(text))
    except Exception as exc:
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# kernel


def power_line(rng, n):
    x = rng.uniform(0.0, 1.0, n)
    return np.abs(x[:, None] - x[None, :]) ** 1.75


def symmetric(values):
    D = np.triu(values, 1)
    return D + D.T


KERNEL_TABLES = {
    "integer_ties": lambda rng, n: symmetric(rng.integers(1, 5, (n, n)).astype(float)),
    "zeros": lambda rng, n: symmetric(rng.integers(0, 3, (n, n)).astype(float)),
    "uniform": lambda rng, n: symmetric(rng.uniform(0.05, 2.0, (n, n))),
    "power_line": power_line,
    "one_decimal": lambda rng, n: symmetric(rng.integers(1, 30, (n, n)) / 10),
}


@pytest.mark.parametrize("kind", sorted(KERNEL_TABLES))
def test_kernel_matches_reference(kind):
    """60 tables per kind, 300 in all, n = 4..70."""
    rng = np.random.default_rng(sorted(KERNEL_TABLES).index(kind))
    for n in rng.integers(4, 71, size=60):
        D = KERNEL_TABLES[kind](rng, int(n))
        got, want = _pair_denominator_minima(D), reference_minima(D)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), (kind, n)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_kernel_small_tables(n):
    D = np.ones((n, n)) - np.eye(n)
    got, want = _pair_denominator_minima(D), reference_minima(D)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# table load

POINTS = ["a", "b", "c", "d"]
FULL = [[0, 1, 2, 3], [1, 0, 1.5, 2], [2, 1.5, 0, 1], [3, 2, 1, 0]]


def with_cell(rows, i, j, value):
    rows = [list(r) for r in rows]
    rows[i][j] = value
    return rows


JSON_TABLES = {
    "full_floats": [[float(v) for v in r] for r in FULL],
    "full_ints_and_floats": FULL,
    "full_ints": [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]],
    "bools": [[False, True, True, True], [True, False, True, True],
              [True, True, False, True], [True, True, True, False]],
    "bool_and_float": with_cell(with_cell(FULL, 0, 1, True), 1, 0, 1.0),
    "int64_edge": with_cell(with_cell(FULL, 0, 3, 2**63 - 1), 3, 0, 2**63 - 1),
    "uint64": with_cell(with_cell(FULL, 0, 3, 2**63 + 1025), 3, 0, 2**63 + 1025),
    "beyond_uint64": with_cell(with_cell(FULL, 0, 3, 2**70 + 1), 3, 0, 2**70 + 1),
    "negative_big": with_cell(with_cell(FULL, 0, 3, -2**63 - 1), 3, 0, -2**63 - 1),
    "int_overflow": with_cell(with_cell(FULL, 0, 3, 10**400), 3, 0, 10**400),
    "nan": with_cell(with_cell(FULL, 2, 3, math.nan), 1, 3, math.nan),
    "inf": with_cell(FULL, 2, 3, math.inf),
    "inf_before_nan": with_cell(with_cell(FULL, 0, 3, math.inf), 1, 2, math.nan),
    "negative_zero": with_cell(with_cell(FULL, 0, 1, -0.0), 1, 0, -0.0),
    "asymmetric": with_cell(FULL, 0, 3, 4),
    "negative": with_cell(with_cell(FULL, 0, 3, -3), 3, 0, -3),
    "half": [[0], [1, 0], [2, 1.5, 0], [3, 2, 1, 0]],
    "half_rational": [["0"], ["1/2", "0"], ["2/3", "1/7", "0"], ["3", "1.25", "0.5", "0"]],
    "none_padded": [[0, None, None, None], [1, 0, None, None],
                    [2, 1.5, 0, None], [3, 2, 1, 0]],
    "blank_strings": [[0, "", " ", ""], ["1", 0, "", ""], [2, "3/2", 0, ""], [3, 2, 1, 0]],
    "decimal_strings": [[str(v) for v in r] for r in FULL],
    "signed_strings": [["-0.0", "+1", "2", "3"], ["1", "-0", "1.5", "2"],
                       ["2", "1.5", "0", "1"], ["3", "2", "1", "0"]],
    "mixed_strings": with_cell(FULL, 0, 1, "1"),
    "string_overflow": with_cell(FULL, 1, 2, "1e400"),
    "string_underflow": with_cell(with_cell(FULL, 1, 2, "1e-400"), 2, 1, "-8.5e-328"),
    "string_nan": with_cell(FULL, 1, 2, "nan"),
    "string_garbage": with_cell(with_cell(FULL, 1, 2, "x"), 2, 3, math.nan),
    "nan_before_garbage": with_cell(with_cell(FULL, 1, 2, math.nan), 2, 3, "x"),
    "zero_denominator": with_cell(FULL, 3, 0, "1/0"),
    "comma_cell": with_cell(FULL, 3, 0, "3,0"),
    "list_cell": with_cell(FULL, 3, 0, [3]),
    "ragged_short": [[0, 1, 2, 3], [1, 0, 1.5], [2, 1.5, 0, 1], [3, 2, 1, 0]],
    "ragged_long": [[0, 1, 2, 3, 4], [1, 0, 1.5, 2], [2, 1.5, 0, 1], [3, 2, 1, 0]],
    "too_many_rows": FULL + [[1, 1, 1, 1]],
    "too_few_rows": FULL[:3],
    "missing": [[0], [1, 0], [2, None, 0], [3, 2, 1, 0]],
    "empty_rows": [[], [], [], []],
}


@pytest.mark.parametrize("name", sorted(JSON_TABLES))
def test_json_load_matches_reference(name, monkeypatch):
    source = {"points": POINTS, "distances": JSON_TABLES[name]}
    assert outcome(space_from_json, source) == \
        reference_outcome(monkeypatch, space_from_json, source)


def test_json_file_load_matches_reference(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    for k, n in enumerate([5, 27, 50]):
        D = power_line(rng, n)
        np.fill_diagonal(D, 0.0)
        D = np.minimum(D, D.T)
        forms = [D.tolist(), [[f"{v!r}" for v in r] for r in D.tolist()],
                 [[f"{int(v * 1e4)}/10000" for v in r[:i + 1]] for i, r in enumerate(D)]]
        for f, rows in enumerate(forms):
            path = tmp_path / f"t{k}{f}.json"
            path.write_text(json.dumps({"points": [f"p{i}" for i in range(n)],
                                        "distances": rows}))
            got = outcome(space_from_json, path)
            assert isinstance(got[0], tuple)
            assert got == reference_outcome(monkeypatch, space_from_json, path)


CSV_TABLES = {
    "full": "a,b,c\n0,1,2\n1,0,1.5\n2,1.5,0\n",
    "row_labels": "x,a,b,c\na,0,1/2,2\nb,0.5,0,3\nc,2,3,0\n",
    "blanks": "a,b,c\n0,,\n1,0,\n2,1.5,0\n",
    "exponents": "a,b,c\n0,1e-05,2E+3\n1e-05,0,.5\n2e3,0.5,0\n",
    "signed": "a,b,c\n-0.0,+1,2\n1,0,1.5\n2,1.5,-0\n",
    "garbage": "a,b,c\n0,1,x\n1,0,1.5\nx,1.5,0\n",
    "overflow": "a,b,c\n0,1,1e400\n1,0,1.5\n1e400,1.5,0\n",
    "nan": "a,b,c\n0,1,nan\n1,0,1.5\nnan,1.5,0\n",
    "zero_denominator": "a,b,c\n0,1,2/0\n1,0,1.5\n2,1.5,0\n",
    "long_row": "a,b,c\n0,1,2,3\n1,0,1.5\n2,1.5,0\n",
    "missing_pair": "a,b\n0,\n,0\n",
    "asymmetric": "a,b\n0,1\n2,0\n",
    "whitespace": "a,b,c\n0, 1 ,2\n1,0,1.5\n2,1.5,0\n",
    "underscore": "a,b,c\n0,1_0,2\n10,0,1.5\n2,1.5,0\n",
    "unicode_digit": "a,b,c\n0,٣,2\n3,0,1.5\n2,1.5,0\n",
    # beyond int()'s digit limit Fraction fails where float() would not
    "long_digits": "a,b\n0,%s\n1,0\n" % ("1" * 4400 + "e-4390"),
}


@pytest.mark.parametrize("name", sorted(CSV_TABLES))
def test_csv_load_matches_reference(name, tmp_path, monkeypatch):
    path = tmp_path / f"{name}.csv"
    path.write_text(CSV_TABLES[name], encoding="utf-8")
    assert outcome(space_from_csv, path) == \
        reference_outcome(monkeypatch, space_from_csv, path)


def test_negative_zero_cell_loads_as_zero():
    # Fraction("-0.0") is zero; float("-0.0") would keep the sign
    sp = space_from_json({"points": ["a", "b"], "distances": [["0", "-0.0"], ["-0", "0"]]})
    assert not np.signbit(sp.dist).any()


# ---------------------------------------------------------------------------
# the string parser


SPECIAL_STRINGS = [
    "1e400", "-1e400", "1e-400", "-0.0", "-0", "+0", "0.0", "-8.5e-328", "8.5e-328",
    "4.9e-324", "2.4703282292062327e-324", "1.7976931348623157e308", "1.7976931348623159e308",
    "0/5", "-0/5", "1/0", "0/0", "1 / 2", " 1/2", "1/2 ", "1_0/3", "1_000.5", "1__0",
    "+1/2", "-1/2", "1/-2", "1/+2", "1.5/2", "1/2.5", "1e5/2", "1/2/3", "/2", "1/",
    "inf", "-inf", "nan", "Infinity", "1e", "e5", ".", ".e1", "+.5", "1.", "-.5e-3",
    "٣", "١.٥", "１/２", "1e٣", "", " ", "\t1", "1,5", "0x10",
    "9" * 700, "1/" + "9" * 700, "9" * 700 + "/7", "0." + "1" * 5000,
    "1" * 4400 + "e-4390", "1e+0400", "1E-0400",
]

_PIECES = ["0", "1", "7", "42", "000", ".", "+", "-", "/", " ", "_", "٣", "５",
           "inf", "nan", "x", ","]

cell_strings = st.one_of(
    st.sampled_from(SPECIAL_STRINGS),
    st.lists(st.sampled_from(_PIECES), max_size=7).map("".join),
    # exponents stay within 10**4: the oracle, Fraction, builds 10**exp exactly
    st.builds(lambda m, e, sep: f"{m}{sep}{e}",
              st.sampled_from(["1", "-1", "2.5", ".5", "+7.", "0", "-0.0", "123456789",
                               "0.00017", "-" + "9" * 40, " 3.25", "1_0"]),
              st.one_of(st.integers(-400, 400), st.integers(-10**4, 10**4)),
              st.sampled_from(["e", "E", "e+", "e0"])),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-10**30, 10**30), st.integers(0, 10**30)),
    st.floats().map(repr),
    st.decimals(allow_nan=False, allow_infinity=False).map(str),
)


@settings(max_examples=400, deadline=None)
@given(cell_strings)
def test_string_parser_matches_fraction(text):
    want = text_outcome(lambda s: float(Fraction(s)), text)
    assert text_outcome(_parse_text, text) == want
    if isinstance(want, str):
        assert repr(parse_number(text)) == want
        assert repr(parse_label(text)) == want
    else:
        with pytest.raises(MalformedSpaceError):
            parse_number(text)
        assert parse_label(text) is None


@pytest.mark.parametrize("text, want", [
    ("1e10000000", ("OverflowError", "integer division result too large for a float")),
    ("-1e-10000000", "-0.0"),   # -1 / 10**10000000 rounds to -0.0
    ("0.0e10000000", "0.0"),
    (" +12.5E-9999999 ", "0.0"),
])
def test_huge_exponent_is_decided_at_once(text, want):
    """Far out of the float range the outcome is that of 1e400 or 1e-400 of
    the same sign; Fraction would build 10**exp, which takes seconds."""
    start = time.perf_counter()
    assert text_outcome(_parse_text, text) == want
    assert time.perf_counter() - start < 0.5
    assert want == text_outcome(lambda s: float(Fraction(s)),
                                text.replace("10000000", "400").replace("9999999", "400"))


@pytest.mark.parametrize("text", SPECIAL_STRINGS)
def test_special_strings_match_fraction(text):
    assert text_outcome(_parse_text, text) == text_outcome(lambda s: float(Fraction(s)), text)


@settings(max_examples=200, deadline=None)
@given(st.lists(cell_strings, min_size=1, max_size=6))
def test_row_parser_matches_fraction(cells):
    """A row is parsed at once only when every cell would parse alone, to
    the same bits."""
    values = _plain_values(cells)
    if values is not None:
        assert [repr(v) for v in values] == [repr(float(Fraction(c))) for c in cells]


def test_plain_rows_parse_at_once():
    assert _plain_values(["0", "1/2", "0.25", "+3e-1", "7.", ".5E1"]) == \
        [0.0, 0.5, 0.25, 0.3, 7.0, 5.0]
    for row in (["1", "-2"], ["1", "3,0"], ["1", "1e400"], ["1", "1/0"], ["1", None],
                ["1", ""], ["1", " 2"], ["1", "1" * 641 + "e-700"], [1, 2], []):
        assert _plain_values(row) is None, row
