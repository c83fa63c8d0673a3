"""Command line entry point.

Subcommands: train, update, evaluate, retrieve, simulate-stream,
gen-fixture. Structured results go to stdout as one JSON object per
line; progress and warnings go to stderr. Exit codes: 0 success,
2 configuration errors, 3 data errors, 4 numeric failures.
"""
from __future__ import annotations

import argparse
import json
import sys

from .config import ConfigError, RunConfig
from .graph import DataError
from .tensor import NumericError
from . import fixtures, pipeline


def _emit(record):
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    sys.stdout.flush()


def _log(message):
    sys.stderr.write(message.rstrip("\n") + "\n")


def _stream_log(record):
    # progress events are mirrored to stderr so stdout stays machine-readable
    _log(json.dumps(record, sort_keys=True))


def _load_config(args):
    if args.config:
        return RunConfig.from_file(args.config)
    return RunConfig.defaults()


def _apply_overrides(cfg, args):
    for name in ("edges", "features", "schema", "snapshot_dir"):
        val = getattr(args, name.replace("-", "_"), None)
        if val is not None:
            cfg.paths[name] = val
    if getattr(args, "seed", None) is not None:
        cfg.pipeline["rng_seed"] = args.seed
    return cfg


def _add_common(p):
    p.add_argument("--config", help="run configuration file")
    p.add_argument("--edges", help="base edge TSV (overrides config)")
    p.add_argument("--features", help="base feature TSV (overrides config)")
    p.add_argument("--schema", help="relation schema TSV (overrides config)")
    p.add_argument("--snapshot-dir", dest="snapshot_dir",
                   help="snapshot directory (overrides config)")
    p.add_argument("--seed", type=int, help="override pipeline.rng_seed")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="dhge",
        description="Two-stage dynamic heterogeneous graph embedding engine.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="full training run, writes a static snapshot")
    _add_common(p)
    p.add_argument("--cold-start", action="store_true",
                   help="ignore existing snapshot weights")

    p = sub.add_parser("update", help="apply one increment batch incrementally")
    _add_common(p)
    p.add_argument("--increment-edges", required=True)
    p.add_argument("--increment-features")
    p.add_argument("--version", type=int, help="snapshot to update (default latest)")

    p = sub.add_parser("evaluate", help="rank held-out interactions")
    _add_common(p)
    p.add_argument("--test", required=True, help="held-out interaction TSV")
    p.add_argument("--version", type=int, help="snapshot to evaluate (default latest)")
    p.add_argument("--missing-users", choices=("drop", "miss"), default="drop",
                   help="how to score users absent from the table")

    p = sub.add_parser("retrieve", help="top-k items for one user")
    _add_common(p)
    p.add_argument("--user", type=int, required=True, help="user intra-type id")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--version", type=int)
    p.add_argument("--include-known", action="store_true",
                   help="do not filter items the user already interacted with")

    p = sub.add_parser("simulate-stream",
                       help="replay increment batches with per-batch evaluation")
    _add_common(p)
    p.add_argument("--increments", nargs="+", required=True,
                   help="edge TSVs in order; features found by naming convention"
                        " (X.edges.tsv -> X.features.tsv) when present")
    p.add_argument("--test", required=True)
    p.add_argument("--compare-frozen", action="store_true",
                   help="also score the pre-stream snapshot each batch")

    p = sub.add_parser("gen-fixture", help="write a synthetic dataset")
    p.add_argument("kind", choices=("planted-bipartite", "swiss-roll", "drift-stream"))
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-users", type=int)
    p.add_argument("--n-items", type=int)
    p.add_argument("--communities", type=int)
    p.add_argument("--n-points", type=int)
    p.add_argument("--n-batches", type=int)
    p.add_argument("--users-per-batch", type=int)
    return ap


def _features_for(edges_path):
    import os
    if edges_path.endswith(".edges.tsv"):
        cand = edges_path[:-len(".edges.tsv")] + ".features.tsv"
        if os.path.exists(cand):
            return cand
    return None


def _run(args):
    if args.command == "gen-fixture":
        kw = {"seed": args.seed}
        if args.kind == "planted-bipartite":
            for name, key in (("n_users", "n_users"), ("n_items", "n_items"),
                              ("communities", "communities")):
                if getattr(args, name) is not None:
                    kw[key] = getattr(args, name)
            stats = fixtures.gen_planted_bipartite(args.out, **kw)
        elif args.kind == "swiss-roll":
            if args.n_points is not None:
                kw["n"] = args.n_points
            stats = fixtures.gen_swiss_roll(args.out, **kw)
        else:
            for name in ("n_batches", "users_per_batch", "communities"):
                if getattr(args, name) is not None:
                    kw[name] = getattr(args, name)
            if args.n_users is not None:
                kw["base_users"] = args.n_users
            if args.n_items is not None:
                kw["base_items"] = args.n_items
            stats = fixtures.gen_drift_stream(args.out, **kw)
        stats.pop("batch_files", None)
        stats["event"] = "fixture"
        stats["kind"] = args.kind
        stats["out"] = args.out
        _emit(stats)
        return 0

    cfg = _apply_overrides(_load_config(args), args)

    if args.command == "train":
        if args.cold_start:
            cfg.train["cold_start_retrain"] = True
        man, metrics = pipeline.cmd_train(cfg, log=_stream_log)
        for m in metrics:
            _emit(m)
        _emit({"event": "snapshot", "version": man.version, "kind": man.kind})
        return 0

    if args.command == "update":
        man, report = pipeline.cmd_update(cfg, args.increment_edges,
                                          args.increment_features,
                                          version=args.version, log=_stream_log)
        report["version"] = man.version
        _emit(report)
        return 0

    if args.command == "evaluate":
        report = pipeline.cmd_evaluate(cfg, args.test, version=args.version,
                                       missing_users=args.missing_users,
                                       log=_stream_log)
        out = report.to_json_dict()
        out["event"] = "evaluate"
        _emit(out)
        return 0

    if args.command == "retrieve":
        hits = pipeline.cmd_retrieve(cfg, args.user, k=args.k,
                                     version=args.version,
                                     exclude_known=not args.include_known,
                                     log=_stream_log)
        _emit({"event": "retrieve", "user": args.user, "results": hits})
        return 0

    if args.command == "simulate-stream":
        batches = [(path, _features_for(path)) for path in args.increments]
        rows = pipeline.cmd_simulate_stream(cfg, batches, args.test,
                                            compare_frozen=args.compare_frozen,
                                            log=_stream_log)
        for row in rows:
            _emit(row)
        return 0

    raise AssertionError("unhandled command %r" % args.command)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        _log("config error: %s" % exc)
        return 2
    except DataError as exc:
        _log("data error: %s" % exc)
        return 3
    except NumericError as exc:
        _log("numeric error: %s" % exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
