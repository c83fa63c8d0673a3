"""Converters that turn external interaction logs into the package's TSV layout.

The engine's loaders only speak the TSV formats produced by ``fixtures``
(schema/edges/features plus a held-out ``test.tsv``). Public click-log
dumps ship as CSV with dataset-specific column names, so this module does
the one-time translation: filter to positive interactions, densify ids,
hold out each user's latest click, and assemble per-type feature rows.
"""
from __future__ import annotations

import csv
import os

import numpy as np

from .graph import DataError, parse_feature_cells, write_edges, write_features, write_schema
from .seeding import derived_rng, TAG_FIXTURE

USER_TYPE = 0
ITEM_TYPE = 1


def read_side_table(path, delimiter=","):
    """Read an auxiliary feature CSV into ``{raw_id: (values, mask)}``.

    First column is the entity id, remaining columns are numeric features;
    empty cells count as missing. A header row is detected by the first
    data cell failing to parse as a number.
    """
    rows = {}
    dim = None
    with open(os.fspath(path), newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        for lineno, rec in enumerate(reader, start=1):
            if not rec:
                continue
            if dim is None:
                dim = len(rec) - 1
                if dim < 1:
                    raise DataError("%s: side table needs an id column plus features" % path)
                if not _is_number(rec[1] if len(rec) > 1 else ""):
                    continue  # header row
            if len(rec) != dim + 1:
                raise DataError("%s:%d: expected %d columns, got %d"
                                % (path, lineno, dim + 1, len(rec)))
            rows[rec[0].strip()] = parse_feature_cells(rec[1:], path, lineno)
    if dim is None:
        raise DataError("%s: empty side table" % path)
    return rows, dim


def _is_number(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False


def prepare_click_log(log_path, out_dir, user_col, item_col, ts_col,
                      click_col=None, positive_value="1",
                      user_side=None, item_side=None,
                      min_user_events=2, max_users=None,
                      delimiter=",", seed=0):
    """Convert a click-log CSV into the package dataset layout under ``out_dir``.

    Column names select the user id, item id, and timestamp fields; when
    ``click_col`` is given only rows whose cell equals ``positive_value``
    survive. Users with fewer than ``min_user_events`` positives are dropped
    (one event cannot feed both train and test); for the rest the latest
    event per user is written to ``test.tsv`` and everything else becomes
    mirrored train edges. ``user_side``/``item_side`` are optional side-table
    CSV paths (see ``read_side_table``); types lacking one fall back to a
    single observed-degree feature. ``max_users`` keeps a seeded subsample
    of users so a bounded-time evaluation stays deterministic.

    Returns a stats dict with counts and the file paths written.
    """
    events = []
    with open(os.fspath(log_path), newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        header = next(reader, None)
        if header is None:
            raise DataError("%s: empty click log" % log_path)
        cols = {name.strip(): j for j, name in enumerate(header)}
        try:
            u_ix, i_ix, t_ix = cols[user_col], cols[item_col], cols[ts_col]
        except KeyError as missing:
            raise DataError("%s: no column %s in header %s" % (log_path, missing, header)) from None
        c_ix = None
        if click_col is not None:
            if click_col not in cols:
                raise DataError("%s: no column %r in header %s" % (log_path, click_col, header))
            c_ix = cols[click_col]
        for rec in reader:
            if not rec:
                continue
            lineno = reader.line_num
            if len(rec) < len(header):
                raise DataError("%s:%d: expected %d columns, got %d"
                                % (log_path, lineno, len(header), len(rec)))
            if c_ix is not None and rec[c_ix].strip() != positive_value:
                continue
            try:
                ts = float(rec[t_ix])
            except ValueError:
                raise DataError("%s:%d: bad timestamp %r" % (log_path, lineno, rec[t_ix])) from None
            events.append((rec[u_ix].strip(), rec[i_ix].strip(), ts))
    if not events:
        raise DataError("%s: no positive interactions found" % log_path)

    by_user = {}
    for u, i, ts in events:
        by_user.setdefault(u, []).append((ts, i))
    kept = sorted(u for u, evs in by_user.items() if len(evs) >= min_user_events)
    if not kept:
        raise DataError("no user has %d or more positive interactions" % min_user_events)
    if max_users is not None and len(kept) > max_users:
        rng = derived_rng(TAG_FIXTURE, seed, 7)
        pick = rng.choice(len(kept), size=max_users, replace=False)
        kept = [kept[j] for j in sorted(pick.tolist())]
    kept_set = set(kept)

    user_ids = {u: j for j, u in enumerate(kept)}
    item_ids = {}
    for u in kept:
        for _, i in by_user[u]:
            if i not in item_ids:
                item_ids[i] = None
    for j, i in enumerate(sorted(item_ids)):
        item_ids[i] = j

    train_rows, test_rows = [], []
    for u in kept:
        evs = sorted(by_user[u])  # by (ts, raw item id): stable latest pick
        ui = user_ids[u]
        for ts, i in evs[:-1]:
            ii = item_ids[i]
            train_rows.append((USER_TYPE, ui, ITEM_TYPE, ii, 0, ts))
            train_rows.append((ITEM_TYPE, ii, USER_TYPE, ui, 1, ts))
        ts, i = evs[-1]
        test_rows.append((USER_TYPE, ui, ITEM_TYPE, item_ids[i], 0, ts))

    degree = {}
    for st, si, dt, di, r, ts in train_rows:
        degree[(st, si)] = degree.get((st, si), 0) + 1

    blocks = []
    for node_type, table_path, ids in ((USER_TYPE, user_side, user_ids),
                                       (ITEM_TYPE, item_side, item_ids)):
        if table_path is not None:
            table, dim = read_side_table(table_path, delimiter=delimiter)
            rows = []
            for raw, j in ids.items():
                got = table.get(raw)
                if got is None:
                    rows.append((j, np.zeros(dim), np.zeros(dim, dtype=bool)))
                else:
                    rows.append((j, got[0], got[1]))
        else:
            # no side info: expose observed train degree as the lone feature
            dim = 1
            scale = max(1, max((degree.get((node_type, j), 0) for j in ids.values()), default=1))
            rows = [(j, np.array([np.log1p(degree.get((node_type, j), 0)) / np.log1p(scale)]),
                     np.ones(1, dtype=bool)) for j in ids.values()]
        blocks.append((node_type, dim, rows))

    full_dim = max(dim for _, dim, _ in blocks)
    feat_rows = []
    for node_type, dim, rows in blocks:
        pad = full_dim - dim
        for j, values, mask in sorted(rows):
            if pad:
                values = np.concatenate([values, np.zeros(pad)])
                mask = np.concatenate([mask, np.zeros(pad, dtype=bool)])
            feat_rows.append((node_type, j, values, mask))

    out = os.fspath(out_dir)
    os.makedirs(out, exist_ok=True)
    write_schema(os.path.join(out, "schema.tsv"), [(USER_TYPE, ITEM_TYPE), (ITEM_TYPE, USER_TYPE)])
    write_edges(os.path.join(out, "edges.tsv"), train_rows)
    write_edges(os.path.join(out, "test.tsv"), test_rows)
    write_features(os.path.join(out, "features.tsv"), feat_rows)
    return {
        "n_users": len(user_ids),
        "n_items": len(item_ids),
        "n_train_edges": len(train_rows) // 2,
        "n_test_users": len(test_rows),
        "n_dropped_users": len(by_user) - len(kept_set),
        "feature_dim": full_dim,
        "files": sorted(os.listdir(out)),
    }
