"""Click-log CSV conversion into the package dataset layout."""
import os

import numpy as np
import pytest

from dhge.benchmarks import prepare_click_log, read_side_table
from dhge.graph import DataError, load_graph
from dhge.pipeline import read_test_interactions

LOG = """user,ad,stamp,clk
7,a,100,1
7,b,105,1
7,c,90,0
3,b,50,1
3,a,60,1
3,c,70,1
9,c,10,1
5,a,11,0
"""


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


@pytest.fixture()
def log_path(tmp_path):
    return write(str(tmp_path / "raw.csv"), LOG)


class TestPrepareClickLog:
    def test_layout_loads_back(self, log_path, tmp_path):
        out = str(tmp_path / "data")
        stats = prepare_click_log(log_path, out, "user", "ad", "stamp", click_col="clk")
        assert stats["n_users"] == 2  # user 9 has one positive, dropped
        assert stats["n_items"] == 3
        assert stats["n_dropped_users"] == 1
        g = load_graph(os.path.join(out, "edges.tsv"),
                       os.path.join(out, "features.tsv"),
                       os.path.join(out, "schema.tsv"))
        assert g.schema.pairs == [(0, 1), (1, 0)]
        tests = read_test_interactions(os.path.join(out, "test.tsv"), 0, 1)
        assert len(tests) == stats["n_test_users"] == 2

    def test_latest_event_held_out(self, log_path, tmp_path):
        out = str(tmp_path / "data")
        prepare_click_log(log_path, out, "user", "ad", "stamp", click_col="clk")
        # users sorted by raw id: "3" -> 0, "7" -> 1; items: a=0, b=1, c=2
        held = {}
        with open(os.path.join(out, "test.tsv"), encoding="utf-8") as fh:
            for line in fh:
                f = line.split("\t")
                held[int(f[1])] = int(f[3])
        assert held == {0: 2, 1: 1}  # 3's latest is c (ts 70), 7's is b (ts 105)
        with open(os.path.join(out, "edges.tsv"), encoding="utf-8") as fh:
            train = [tuple(int(x) for x in line.split("\t")[:5]) for line in fh]
        assert (0, 0, 1, 2, 0) not in train  # held-out pair absent from train
        assert (0, 1, 1, 0, 0) in train
        assert (1, 0, 0, 1, 1) in train  # mirrored relation present

    def test_click_filter_and_degree_features(self, log_path, tmp_path):
        out = str(tmp_path / "data")
        stats = prepare_click_log(log_path, out, "user", "ad", "stamp", click_col="clk")
        assert stats["n_train_edges"] == 3  # 5 positives minus 2 held out
        assert stats["feature_dim"] == 1
        with open(os.path.join(out, "features.tsv"), encoding="utf-8") as fh:
            rows = {(int(f[0]), int(f[1])): f[2].strip() for f in
                    (line.split("\t") for line in fh)}
        assert len(rows) == 5
        assert all(cell != "" for cell in rows.values())

    def test_side_tables_padded_to_common_dim(self, log_path, tmp_path):
        side = write(str(tmp_path / "items.csv"), "id,f1,f2,f3\na,1,2,3\nb,4,,6\n")
        out = str(tmp_path / "data")
        stats = prepare_click_log(log_path, out, "user", "ad", "stamp",
                                  click_col="clk", item_side=side)
        assert stats["feature_dim"] == 3
        g = load_graph(os.path.join(out, "edges.tsv"),
                       os.path.join(out, "features.tsv"),
                       os.path.join(out, "schema.tsv"))
        np.testing.assert_allclose(g.feature_blocks[1][1], [4.0, 0.0, 6.0])
        assert g.mask_blocks[1][1].tolist() == [True, False, True]
        assert g.mask_blocks[1][2].tolist() == [False, False, False]  # c: no side row
        assert g.mask_blocks[0][0].tolist() == [True, False, False]  # user degree padded

    def test_max_users_subsample_deterministic(self, log_path, tmp_path):
        a = prepare_click_log(log_path, str(tmp_path / "a"), "user", "ad", "stamp",
                              click_col="clk", max_users=1, seed=4)
        b = prepare_click_log(log_path, str(tmp_path / "b"), "user", "ad", "stamp",
                              click_col="clk", max_users=1, seed=4)
        assert a["n_users"] == b["n_users"] == 1
        for name in ("edges.tsv", "test.tsv", "features.tsv"):
            with open(tmp_path / "a" / name, "rb") as fa, open(tmp_path / "b" / name, "rb") as fb:
                assert fa.read() == fb.read()

    def test_bad_inputs(self, tmp_path, log_path):
        with pytest.raises(DataError, match="no column"):
            prepare_click_log(log_path, str(tmp_path / "d"), "user", "nope", "stamp")
        with pytest.raises(DataError, match="no positive"):
            bad = write(str(tmp_path / "none.csv"), "user,ad,stamp,clk\n1,a,5,0\n")
            prepare_click_log(bad, str(tmp_path / "d2"), "user", "ad", "stamp", click_col="clk")
        with pytest.raises(DataError, match="timestamp"):
            bad = write(str(tmp_path / "ts.csv"), "user,ad,stamp\n1,a,noon\n")
            prepare_click_log(bad, str(tmp_path / "d3"), "user", "ad", "stamp")
        with pytest.raises(DataError, match="or more positive"):
            one = write(str(tmp_path / "one.csv"), "user,ad,stamp\n1,a,5\n")
            prepare_click_log(one, str(tmp_path / "d4"), "user", "ad", "stamp")


    def test_short_row_is_data_error_with_location(self, tmp_path):
        short = write(str(tmp_path / "short.csv"), "user,ad,stamp\n1,a,5\n2\n")
        with pytest.raises(DataError, match="short.csv:3: expected 3 columns, got 1"):
            prepare_click_log(short, str(tmp_path / "d"), "user", "ad", "stamp")


class TestReadSideTable:
    def test_header_detection_and_missing_cells(self, tmp_path):
        path = write(str(tmp_path / "s.csv"), "id,x,y\nu1,1.5,\nu2,,2.5\n")
        table, dim = read_side_table(path)
        assert dim == 2
        np.testing.assert_allclose(table["u1"][0], [1.5, 0.0])
        assert table["u1"][1].tolist() == [True, False]
        assert table["u2"][1].tolist() == [False, True]

    def test_headerless(self, tmp_path):
        path = write(str(tmp_path / "s.csv"), "u1,3\nu2,4\n")
        table, dim = read_side_table(path)
        assert dim == 1 and table["u1"][0][0] == 3.0

    def test_ragged_and_empty(self, tmp_path):
        with pytest.raises(DataError, match="expected 3 columns"):
            read_side_table(write(str(tmp_path / "r.csv"), "id,x,y\nu1,1\n"))
        with pytest.raises(DataError, match="empty"):
            read_side_table(write(str(tmp_path / "e.csv"), ""))
        with pytest.raises(DataError, match="c.csv:3: bad feature value 'n/a'"):
            read_side_table(write(str(tmp_path / "c.csv"), "id,x\nu1,1\nu2,n/a\n"))
