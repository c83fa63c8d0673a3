"""The TSV readers: the array path against the per-row reader, its oracle.

``graph._edge_columns`` and ``graph._feature_columns`` parse text in plain
form with NumPy's C reader and hand any other text to the per-row
``_edge_rows`` / ``_feature_rows``. Either way the result must be the
per-row reader's: the same columns (dtype and bits) and line numbers, or
the same error.
"""
import io
import os

import numpy as np
import pytest

from dhge.fixtures import gen_drift_stream, gen_planted_bipartite, gen_swiss_roll
from dhge.graph import (GraphFormatError, _edge_array, _edge_columns, _edge_rows,
                        _feature_array, _feature_columns, _feature_rows, _read, load_graph,
                        load_schema, read_increment)
from dhge.pipeline import read_test_interactions

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

EDGES = "0\t0\t1\t0\t0\t1.5\n0\t1\t1\t1\t0\t2.0\n1\t0\t0\t1\t1\t2.5\n"
FEATURES = "0\t0\t1.0,2.0,3.0\n0\t1\t4.0,,6.0\n1\t0\t,,\n1\t1\t7.0,8.0,9.0\n"
SCHEMA = "0\t0\t1\n1\t1\t0\n"


def _named(data, name):
    stream = io.BytesIO(data)
    stream.name = name
    return stream


def _assert_same(got, want):
    (got_lines, got_cols), (want_lines, want_cols) = got, want
    assert list(got_lines) == list(want_lines)
    assert len(got_cols) == len(want_cols)
    for g, w in zip(got_cols, want_cols):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.ascontiguousarray(g).tobytes() == np.ascontiguousarray(w).tobytes()


def _outcome(read, *args):
    """What a reader gives: ("ok", result) or ("error", type, message)."""
    try:
        return ("ok", read(*args))
    except Exception as exc:   # the two readers must fail alike
        return ("error", type(exc), str(exc))


def _assert_same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        _assert_same(got[1], want[1])
    else:
        assert got[1:] == want[1:]


def _edges_read(data):
    return _edge_columns(_named(data, "e.tsv"), "e.tsv")


def _features_read(data, dim=None):
    return _feature_columns(_named(data, "f.tsv"), dim)[1:]


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("tsv")
    gen_planted_bipartite(root / "planted", n_users=60, n_items=40, seed=2)
    gen_swiss_roll(root / "roll", n=50, seed=3)
    gen_drift_stream(root / "drift", base_users=40, base_items=20, n_batches=3,
                     users_per_batch=5, seed=4)
    paths = sorted(str(p) for p in root.rglob("*.tsv") if p.name != "schema.tsv")
    return ([p for p in paths if not p.endswith("features.tsv")],
            [p for p in paths if p.endswith("features.tsv")])


class TestArrayPathOnFixtures:
    """Every edges, test and features file the three fixture families write
    is plain, and the array path reads it as the per-row reader does."""

    def test_edge_and_test_files(self, fixture_files):
        edge_paths, _ = fixture_files
        assert any("increments" in p for p in edge_paths)
        assert any(p.endswith("test.tsv") for p in edge_paths)
        for path in edge_paths:
            data = _read(path)
            want = _edge_rows(data, path)
            if not data:   # the swiss roll has no edges
                assert _edge_array(data) is None and len(want[0]) == 0
            else:
                _assert_same(_edge_array(data), want)
            _assert_same(_edge_columns(path, path), want)

    def test_feature_files(self, fixture_files):
        _, feature_paths = fixture_files
        assert len(feature_paths) == 6
        for path in feature_paths:
            data = _read(path)
            want = _feature_rows(data, path)
            dim = want[1][2].shape[1]
            _assert_same(_feature_array(data), want)
            _assert_same(_feature_array(data, dim), want)
            _assert_same(_feature_columns(path)[1:], want)

    def test_missing_cells_are_masked_zeros(self):
        data = FEATURES.encode()
        lines, (types, ids, values, masks) = _feature_array(data)
        assert list(lines) == [1, 2, 3, 4]
        assert masks.tolist() == [[True] * 3, [True, False, True], [False] * 3, [True] * 3]
        assert np.signbit(values[~masks]).sum() == 0 and not values[~masks].any()
        _assert_same((lines, (types, ids, values, masks)), _feature_rows(data, "f.tsv"))

    def test_graphs_and_batches_match_the_per_row_reader(self, fixture_files, monkeypatch):
        root = os.path.dirname(os.path.dirname(fixture_files[1][0]))
        drift = os.path.join(root, "drift")
        base = [os.path.join(drift, n + ".tsv") for n in ("edges", "features", "schema")]
        batch = [os.path.join(drift, "increments", "batch_000.%s.tsv" % n)
                 for n in ("edges", "features")]
        test = os.path.join(drift, "base_test.tsv")
        graph = load_graph(*base)
        got = (graph, read_increment(graph, *batch), read_test_interactions(test, 0, 1))
        monkeypatch.setattr("dhge.graph._edge_array", lambda data: None)
        monkeypatch.setattr("dhge.graph._feature_array", lambda data, dim=None: None)
        want_graph = load_graph(*base)
        want = (want_graph, read_increment(want_graph, *batch), read_test_interactions(test, 0, 1))
        for name in ("feature_blocks", "mask_blocks", "rel_src", "rel_dst", "rel_ts"):
            for a, b in zip(getattr(got[0], name), getattr(want_graph, name)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert got[1].new_edges == want[1].new_edges
        assert [(r, v.tobytes(), m.tobytes()) for r, v, m in got[1].new_nodes] == \
            [(r, v.tobytes(), m.tobytes()) for r, v, m in want[1].new_nodes]
        assert got[2] == want[2]


class TestOtherTextGoesToThePerRowReader:
    @pytest.mark.parametrize("text", [
        "# header\n" + EDGES,                              # a comment
        EDGES.replace("\n", "\r\n"),                       # CRLF
        EDGES.replace("\n", "\n\n"),                       # blank lines
        EDGES.replace("1.5", " 1.5"),                      # a space
        EDGES.replace("1.5", "1_5.0"),                     # an underscore
        EDGES.replace("1.5", ""),                          # an empty timestamp
        EDGES.replace("1.5", "nan"),                       # literals
        EDGES.replace("1.5", "1e999"),                     # a non-finite timestamp
        EDGES.replace("0\t1\t1\t1", "0\t1.0\t1\t1"),       # an integer cell with a point
        EDGES.replace("0\t1\t1\t1", "0\t1e3\t1\t1"),       # an integer cell with an exponent
        EDGES.replace("0\t1\t1\t1", "0\t99999999999999999999\t1\t1"),   # out of range
        EDGES.replace("\t2.0", "\t2.0\t"),                 # a seventh field
        EDGES.replace("\t2.0", ""),                        # a fifth
    ])
    def test_edges(self, text):
        data = text.encode()
        assert _edge_array(data) is None
        _assert_same_outcome(_outcome(_edges_read, data), _outcome(_edge_rows, data, "e.tsv"))

    @pytest.mark.parametrize("text", [
        "# header\n" + FEATURES,
        FEATURES.replace("\n", "\r\n"),
        FEATURES.replace("4.0,,6.0", "4.0, ,6.0"),
        FEATURES.replace("4.0,,6.0", "4.0,nan,-inf"),
        FEATURES.replace("0\t1\t4.0", "0\t1.0\t4.0"),
        FEATURES.replace("0\t1\t4.0", "0\t\t4.0"),
        FEATURES.replace("0\t1\t4.0", "0,1\t4.0"),
        FEATURES.replace("4.0,,6.0", "4.0,6.0"),
        FEATURES.replace("4.0,,6.0", "4.0\t,6.0"),
    ])
    def test_features(self, text):
        data = text.encode()
        assert _feature_array(data) is None
        for dim in (None, 3):
            _assert_same_outcome(_outcome(_features_read, data, dim),
                                 _outcome(_feature_rows, data, "f.tsv", dim))

    def test_other_width_goes_to_the_per_row_reader(self):
        data = FEATURES.encode()
        assert _feature_array(data, 4) is None
        with pytest.raises(GraphFormatError, match=r"^f\.tsv:1: expected 4 feature values, got 3$"):
            _features_read(data, 4)


# a plain cell of each column kind: integers, then floats in repr or short form
_INT = st.integers(-3, 40).map(str) | st.sampled_from(["+7", "-0", "007"])
_FLOAT = (st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr)
          | st.sampled_from(["1e5", "-2.5E-3", ".5", "5.", "+0.25", "1e308"]))
_MUTANT = st.sampled_from(list("0123456789+-.eE\t\n,# \r_xnaif") + ["", "\xff", "é"])


@st.composite
def _mutated(draw, plain):
    """(a file, the plain file from ``plain`` it was made from): one
    character replaced, inserted or deleted, or none."""
    text = draw(plain)
    at = draw(st.integers(0, len(text)))
    cut = draw(st.integers(0, 1))
    char = draw(_MUTANT)
    if draw(st.booleans()):
        return text.encode(), text
    data = text.encode()[:at] + char.encode("latin-1" if char == "\xff" else "utf-8") \
        + text.encode()[at + cut:]
    return data, text


_EDGE_FILES = st.lists(st.tuples(_INT, _INT, _INT, _INT, _INT, _FLOAT), min_size=1,
                       max_size=6).map(lambda rows: "".join("\t".join(r) + "\n" for r in rows))


@st.composite
def _feature_files(draw):
    dim = draw(st.integers(1, 4))
    cells = _FLOAT | st.just("")
    rows = draw(st.lists(st.tuples(_INT, _INT, st.lists(cells, min_size=dim, max_size=dim)),
                         min_size=1, max_size=6))
    return "".join("%s\t%s\t%s\n" % (t, i, ",".join(c)) for t, i, c in rows)


class TestMutatedFiles:
    """One-character mutations of plain files: the array path reads the
    text as the per-row reader does, or hands it over."""

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(_mutated(_EDGE_FILES))
    def test_edges(self, case):
        data, plain = case
        assert _edge_array(plain.encode()) is not None
        got = _outcome(_edges_read, data)
        _assert_same_outcome(got, _outcome(_edge_rows, data, "e.tsv"))
        if got[0] == "ok" and _edge_array(data) is not None:
            _assert_same(_edge_array(data), got[1])

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(_mutated(_feature_files()), st.sampled_from([None, 1, 2, 3]))
    def test_features(self, case, dim):
        data, plain = case
        assert _feature_array(plain.encode()) is not None
        _assert_same_outcome(_outcome(_features_read, data, dim),
                             _outcome(_feature_rows, data, "f.tsv", dim))


class TestNonUtf8Files:
    """A file that is not UTF-8 is a ``GraphFormatError`` at the file:line
    of its first bad byte, for each kind of TSV file."""

    @staticmethod
    def _write(tmp_path, name, text, line):
        """``text`` with a 0xff byte after the first two of line ``line``."""
        lines = [x.encode() for x in text.splitlines(keepends=True)]
        lines[line - 1] = lines[line - 1][:2] + b"\xff" + lines[line - 1][2:]
        path = tmp_path / name
        path.write_bytes(b"".join(lines))
        return str(path)

    def test_edges_file(self, tmp_path):
        edges = self._write(tmp_path, "e.tsv", EDGES, 2)
        with pytest.raises(GraphFormatError, match=r"e\.tsv:2: not UTF-8 text: byte 0xff$"):
            load_graph(edges, io.StringIO(FEATURES), io.StringIO(SCHEMA))

    def test_features_file(self, tmp_path):
        features = self._write(tmp_path, "f.tsv", FEATURES.replace("\n", "\r"), 3)
        with pytest.raises(GraphFormatError, match=r"f\.tsv:3: not UTF-8 text: byte 0xff$"):
            load_graph(io.StringIO(EDGES), features, io.StringIO(SCHEMA))

    def test_schema_file(self, tmp_path):
        schema = self._write(tmp_path, "s.tsv", SCHEMA, 2)
        with pytest.raises(GraphFormatError, match=r"s\.tsv:2: not UTF-8 text: byte 0xff$"):
            load_schema(schema)

    def test_test_file(self, tmp_path):
        test = self._write(tmp_path, "t.tsv", EDGES, 3)
        with pytest.raises(GraphFormatError, match=r"t\.tsv:3: not UTF-8 text: byte 0xff$"):
            read_test_interactions(test, 0, 1)
