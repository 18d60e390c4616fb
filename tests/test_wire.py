"""The wire writer and reader against the standard library's json and the entry loop."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewrel import serialize
from skewrel.errors import MalformedDocument, NonFiniteResult

import oracles

EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
    1.7976931348623157e308, 0.1, 1 / 3, 1e16, 1e-7, 123456789.0, -2.5,
]
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
INTS = st.integers() | st.sampled_from([2**53 + 1, 2**63, -(2**63) - 1, 10**400])
# every code point class json escapes: quotes, backslash, controls, non-ASCII, surrogates
TEXT = st.text(max_size=6) | st.sampled_from(["", "\n", '"', "\\", "é", "\x00", " ", "\ud800", "☃"])


@st.composite
def matrices(draw):
    rows = draw(st.integers(1, 16))
    cols = draw(st.sampled_from([rows, rows, 1, 3]))
    values = draw(st.lists(FLOATS, min_size=2 * rows * cols, max_size=2 * rows * cols))
    m = np.array(values).view(np.complex128).reshape(rows, cols)
    if draw(st.booleans()):
        m = m.real.copy()  # a real matrix is written with zero imaginary parts
    if draw(st.booleans()):
        m = m.T  # not C-contiguous
    return m


SCALARS = st.none() | st.booleans() | INTS | FLOATS | TEXT
DOCUMENTS = st.recursive(
    SCALARS | matrices(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=10,
)


def written(doc) -> str:
    fh = io.StringIO()
    serialize.dump_document(doc, fh)
    return fh.getvalue()


class TestWriter:
    @settings(max_examples=300, deadline=None)
    @given(DOCUMENTS)
    def test_bytes_equal_json_dumps_indent_2(self, doc):
        assert written(doc) == oracles.document_text(doc)

    @pytest.mark.parametrize("d", range(1, 17))
    def test_problem_documents_at_every_depth(self, d):
        rng = np.random.default_rng(d)
        m = [oracles.random_hermitian(d, rng) for _ in range(3)]
        problem = serialize.problem_to_wire(*m, label=f"d{d}")
        doc = {"witnesses": [problem, {"nested": [[problem]]}], "report": {"x": 1.5}}
        for part in (problem, doc):
            assert written(part) == oracles.document_text(part)

    def test_one_write(self):
        writes = []

        class Sink:
            def write(self, text):
                writes.append(text)

        serialize.dump_document({"a": [1, 2.5], "m": np.eye(2)}, Sink())
        assert len(writes) == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_names_its_field(self, bad):
        doc = {"report": {"V_A": 1.0, "V_B": bad}, "verdicts": []}
        fh = io.StringIO()
        with pytest.raises(NonFiniteResult, match=r"^report\.V_B is not finite"):
            serialize.dump_document(doc, fh)
        assert fh.getvalue() == ""

    def test_non_finite_in_list_and_matrix(self):
        with pytest.raises(NonFiniteResult, match=r"^verdicts\[1\]\.gap is not finite \(nan\)"):
            written({"verdicts": [{"gap": 0.0}, {"gap": math.nan}]})
        m = np.eye(3, dtype=complex)
        m[1, 2] = complex(0.0, math.inf)
        with pytest.raises(NonFiniteResult, match=r"^witnesses\[0\]\.A is not finite"):
            written({"witnesses": [{"rho": np.eye(3), "A": m}]})
        with pytest.raises(NonFiniteResult, match="^the document is not finite"):
            written(math.nan)

    @pytest.mark.parametrize(
        "doc",
        [
            {1: 2},
            {"a": {None: 1}},
            np.float32(1.0),
            {"m": np.zeros((2, 2, 2))},
            {"m": np.zeros((0, 2))},
        ],
    )
    def test_unwritable_values_raise_type_error(self, doc):
        with pytest.raises(TypeError):
            written(doc)


def wire(values, n):
    """n x n nested wire rows from 2 n^2 leaves."""
    it = iter(values)
    return [[[next(it), next(it)] for _ in range(n)] for _ in range(n)]


LEAVES = FLOATS | st.integers(-(2**70), 2**70) | st.sampled_from(
    [2**53 + 1, 2**63, -(2**63), 0, -0.0]
)


@st.composite
def valid_wire(draw):
    n = draw(st.integers(1, 16))
    # a drawn pool of leaves, cycled over the 2 n^2 slots, keeps big matrices cheap to draw
    pool = draw(st.lists(LEAVES, min_size=1, max_size=24))
    return wire([pool[k % len(pool)] for k in range(2 * n * n)], n)


BAD_VALUES = [
    True, False, None, "1", (1.0, 0.0), [1.0], [1.0, 0.0, 0.0], [[1.0, 0.0]],
    math.inf, -math.inf, math.nan, 10**400, -(10**400), {"re": 1.0},
]


def loop_message(data):
    with pytest.raises(MalformedDocument) as exc:
        serialize._wire_to_matrix_loop(data, "M")
    return str(exc.value)


class TestReader:
    @settings(max_examples=200, deadline=None)
    @given(valid_wire())
    def test_fast_path_matches_loop(self, data):
        fast = serialize._matrix_or_none(data)
        assert fast is not None
        got = serialize.wire_to_matrix(data, "M")
        assert got.dtype == np.complex128 and got.shape == (len(data), len(data))
        assert got.tobytes() == serialize._wire_to_matrix_loop(data, "M").tobytes()

    def test_large_integers_and_signed_zero(self):
        data = [[[2**53 + 1, -0.0], [2**63, 10**300]], [[-(2**63) - 1, 0], [-0.0, -0.0]]]
        got = serialize.wire_to_matrix(data, "M")
        assert got.tobytes() == serialize._wire_to_matrix_loop(data, "M").tobytes()
        assert got[0, 0] == complex(float(2**53 + 1), 0.0)
        assert math.copysign(1.0, got[0, 0].imag) == -1.0
        assert math.copysign(1.0, got[1, 1].real) == -1.0

    @settings(max_examples=200, deadline=None)
    @given(valid_wire(), st.data())
    def test_one_bad_leaf_or_entry_gives_the_loop_message(self, data, draw):
        n = len(data)
        i, j = draw.draw(st.integers(0, n - 1)), draw.draw(st.integers(0, n - 1))
        bad = draw.draw(st.sampled_from(BAD_VALUES))
        if draw.draw(st.booleans()):
            data[i][j][draw.draw(st.integers(0, 1))] = bad
        else:
            data[i][j] = bad
        assert serialize._matrix_or_none(data) is None
        with pytest.raises(MalformedDocument) as exc:
            serialize.wire_to_matrix(data, "M")
        assert str(exc.value) == loop_message(data)

    @pytest.mark.parametrize(
        "data, message",
        [
            ([], "M: expected a non-empty nested array"),
            ({"rho": 1}, "M: expected a non-empty nested array"),
            ((((1, 0),),), "M: expected a non-empty nested array"),
            ([[[1, 0], [0, 0]], [[0, 0]]], "M: row 1 is not a list of length 2"),
            ([[[1, 0]], [[0, 0]]], "M: row 0 is not a list of length 2"),
            ([(([1, 0]),)], "M: row 0 is not a list of length 1"),
            ([[1.0]], "M: entry (0,0) is not an [re, im] pair"),
            ([[[[1.0, 0.0], 0.0]]], "M: entry (0,0) is not an [re, im] pair"),
            ([[[1.0, 0.0, 0.0]]], "M: entry (0,0) is not an [re, im] pair"),
            ([[(1.0, 0.0)]], "M: entry (0,0) is not an [re, im] pair"),
            ([[[True, 0]]], "M: entry (0,0) is not an [re, im] pair"),
            ([[["1", 0]]], "M: entry (0,0) is not an [re, im] pair"),
            ([[[None, 0]]], "M: entry (0,0) is not an [re, im] pair"),
            (
                [[[1, 0], [0, 0]], [[0, 10**400], [1, 0]]],
                "M: entry (1,0) is too large for a double",
            ),
            ([[[1.0, math.inf]]], "M: entries must be finite"),
            ([[[math.nan, 0.0]]], "M: entries must be finite"),
        ],
    )
    def test_malformed_messages(self, data, message):
        with pytest.raises(MalformedDocument) as exc:
            serialize.wire_to_matrix(data, "M")
        assert str(exc.value) == message

    def test_subclasses_take_the_loop(self):
        class Row(list):
            pass

        class Num(float):
            pass

        data = [Row([[Num(0.5), 1], [0, 0]]), [[0, 0], [0.5, 0]]]
        assert serialize._matrix_or_none(data) is None
        got = serialize.wire_to_matrix(data, "M")
        np.testing.assert_array_equal(got, [[0.5 + 1j, 0], [0, 0.5]])

    def test_round_trip_through_the_writer(self):
        rng = np.random.default_rng(5)
        m = oracles.random_hermitian(7, rng) * 1e-300
        doc = json.loads(written({"m": m}))
        assert serialize.wire_to_matrix(doc["m"], "m").tobytes() == m.tobytes()
