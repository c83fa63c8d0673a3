"""One benchmark run: set up, repeat episodes until the time is up, report.

End-to-end latencies come from runs with tracing off. A traced run
alternates untraced and traced episodes: spans come from the traced ones,
and the difference in operation time between the two kinds is reported as
the tracing overhead. Episodes repeat the same operations on the same
inputs, so every episode must produce the same checked outputs, traced or
not.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import warnings

import numpy as np
import scipy

import dhge
import workloads
from spans import SpanRecorder

# spans below an operation must add up to its wall time to within this
CLOSURE_TOL_S = 1e-6


def run(args, spec, root, setup_repeats, env):
    # the generators' duplicate-edge notices would flood stderr
    warnings.filterwarnings("ignore", message=r".*dropped \d+ duplicate edges")
    sizes = (workloads.TINY if args.tiny else workloads.SIZES)[args.workload]
    out_dir = root / ".bench_work"
    workdir = out_dir / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        ledger, recorder, setup_s, overhead = _measure(args, sizes, str(workdir),
                                                       setup_repeats)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        names = spec["per_layer"]
        values = layer_metrics(recorder, ledger, overhead, [m["name"] for m in names])
        trace_path = out_dir / ("trace-%s-seed%d.json" % (args.workload, args.seed))
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "fields": ["name", "start", "end", "parent", "root"],
                       "spans": recorder.to_json()}, fh)
    else:
        values = end_to_end_metrics(ledger, setup_s)
        names = spec["end_to_end"]
    metrics = {}
    for m in names:
        value = values.get(m["name"])
        if value is None or not np.isfinite(value):
            ledger.failed += 1
            ledger.problems.append("metric %s not measured" % m["name"])
            value = None
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    correct = ledger.failed == 0 and ledger.attempted > 0
    print(json.dumps(_summary(args, env, ledger, setup_s)), flush=True)
    for problem in ledger.problems[:20]:
        print("bench: check failed: %s" % problem, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def _measure(args, sizes, workdir, setup_repeats):
    wl = workloads.WORKLOADS[args.workload](sizes, args.seed, workdir)
    setup_s = []
    for tag in range(setup_repeats):
        if tag:
            shutil.rmtree(wl.data, ignore_errors=True)
        t0 = time.perf_counter()
        wl.setup(tag)
        setup_s.append(time.perf_counter() - t0)
    wl.prepare()

    ledger = workloads.Ledger()
    recorder = SpanRecorder() if args.trace else None
    op_time = {False: [], True: []}   # summed operation seconds per episode
    digests = []
    start = time.perf_counter()
    n = 0
    # whole episodes only: stop at the episode boundary nearest to --seconds
    while (n == 0 or (args.trace and n < 2)
           or (time.perf_counter() - start) * (1 + 0.5 / n) < args.seconds):
        traced = bool(args.trace) and n % 2 == 1
        ledger.outputs = []
        before = {k: len(v) for k, v in ledger.samples.items()}
        if traced:
            recorder.install()
            ledger.recorder = recorder
        try:
            wl.episode(ledger)
        except workloads.EpisodeFailed:
            break
        finally:
            if traced:
                recorder.restore()
                ledger.recorder = None
        fresh = [x for k, v in ledger.samples.items() for x in v[before[k]:]]
        op_time[traced].append(sum(fresh))
        ledger.ops_per_episode = len(fresh)
        digests.append(hashlib.sha256(json.dumps(ledger.outputs).encode()).hexdigest())
        n += 1
    if len(set(digests)) > 1:
        ledger.failed += 1
        ledger.problems.append("episodes gave different outputs: %s" % sorted(set(digests)))
    ledger.digest = digests[0] if digests else None
    ledger.episodes = n

    overhead = None
    if args.trace:
        if recorder.closure_error() > CLOSURE_TOL_S:
            ledger.failed += 1
            ledger.problems.append("self times under a root miss its wall time by %.3g s"
                                   % recorder.closure_error())
        if op_time[True] and op_time[False]:
            plain = statistics.median(op_time[False])
            overhead = (statistics.median(op_time[True]) - plain, plain)
    return ledger, recorder, setup_s, overhead


def tail(values):
    """(value, percentile, n): the highest rank with ten samples beyond it.

    With twenty samples or fewer no rank above the median has ten beyond
    it, so the tail falls back to the first rank above the median.
    """
    xs = sorted(values)
    n = len(xs)
    rank = max(n - 10, n // 2 + 1)
    return xs[rank - 1], 100.0 * rank / n, n


def upper_quartile(values):
    """The 75th percentile, interpolated between samples.

    On a shared host the median of a run moves with the share of the run
    the host happened to spend uncontended; the upper quartile sits in the
    contended speed, which holds steady, and spread over runs about half as
    far (README.md, "End-to-end metrics").
    """
    return float(np.percentile(values, 75))


def end_to_end_metrics(ledger, setup_s):
    s = ledger.samples
    out = {"setup_s": statistics.median(setup_s),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    for kind in ("update", "retrieve"):
        if s[kind]:
            out[kind + "_ms_p75"] = 1000.0 * upper_quartile(s[kind])
            out[kind + "_ms_tail"] = 1000.0 * tail(s[kind])[0]
    if s["evaluate"]:
        out["evaluate_s"] = upper_quartile(s["evaluate"])
    if s["retrain"]:
        out["retrain_s"] = upper_quartile(s["retrain"])
    if ledger.hitrate:
        out["hitrate10"] = statistics.median(ledger.hitrate)
    return out


def layer_metrics(recorder, ledger, overhead, names):
    """Per-layer numbers per timed operation of the traced episodes."""
    n_ops = sum(1 for rec in recorder.spans if rec[3] < 0)
    out = {}
    for name, (busy, own, calls) in recorder.totals().items():
        out[name + ".ms"] = 1000.0 * busy / n_ops
        out[name + ".self_ms"] = 1000.0 * own / n_ops
        out[name + ".calls"] = calls / n_ops
    reports = ledger.reports
    new_nodes = sum(r["n_new_nodes"] for r in reports)
    out["incremental.jacobi_sweeps"] = _mean([r["jacobi_sweeps"] for r in reports])
    out["incremental.n_updated"] = _mean([r["n_updated"] for r in reports])
    out["incremental.cold_isolated_ratio"] = (
        sum(r["n_cold_isolated"] for r in reports) / new_nodes if new_nodes else 0.0)
    out["incremental.refine_warning_ratio"] = _mean(
        [float(r["refine_step_warning"]) for r in reports])
    ratios = [r["refine_J_final"] / r["refine_J_initial"] for r in reports
              if r["refine_J_initial"]]
    out["incremental.refine_j_ratio"] = statistics.median(ratios) if ratios else 0.0
    epochs = [m for run in ledger.train_runs for m in run]
    kept = sum(m["n_pairs"] // 2 for m in epochs)
    saturated = sum(m["n_saturated_pairs"] for m in epochs)
    out["model.saturated_pair_ratio"] = saturated / (kept + saturated) if kept + saturated else 0.0
    batches = sum(m["n_batches"] for m in epochs)
    out["model.skipped_batch_ratio"] = (
        sum(m["n_skipped_batches"] for m in epochs) / batches if batches else 0.0)
    out["train_epoch_s"] = statistics.median(ledger.epoch_s) if ledger.epoch_s else 0.0
    out["snapshot.bytes_per_version"] = _mean(ledger.version_bytes)
    replays, applied = recorder.child_counts("pipeline.graph_for_manifest",
                                             "graph.apply_increment")
    out["pipeline.replayed_increments"] = applied / replays if replays else 0.0
    if overhead is not None:
        extra, plain = overhead
        out["trace.overhead_ms"] = 1000.0 * extra / ledger.ops_per_episode
        out["trace.overhead_pct"] = 100.0 * extra / plain
    out["trace.spans_per_op"] = len(recorder.spans) / n_ops
    # a span that never occurred belongs to a layer this workload leaves idle
    for name in names:
        if name.endswith((".ms", ".self_ms", ".calls")):
            out.setdefault(name, 0.0)
    return out


def _mean(xs):
    return float(np.mean(xs)) if len(xs) else 0.0


def _summary(args, env, ledger, setup_s):
    counts = {k: len(v) for k, v in ledger.samples.items()}
    tails = {}
    for kind in ("update", "retrieve"):
        if ledger.samples[kind]:
            _, pct, n = tail(ledger.samples[kind])
            tails[kind + "_ms_tail"] = {"percentile": round(pct, 1), "samples": n}
    samples_ms = {k: [round(1000.0 * x, 2) for x in v] for k, v in ledger.samples.items()}
    medians_ms = {k: 1000.0 * statistics.median(v) for k, v in ledger.samples.items() if v}
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "episodes": ledger.episodes, "op_counts": counts,
            "medians_ms": medians_ms, "samples_ms": samples_ms, "tails": tails,
            "setup_runs_s": setup_s,
            "hitrate10": ledger.hitrate[-1] if ledger.hitrate else None,
            "error_rate": ledger.failed / ledger.attempted if ledger.attempted else None,
            "outputs_sha256": ledger.digest,
            "env": dict(env, python=sys.version.split()[0], numpy=np.__version__,
                        scipy=scipy.__version__, openblas=_openblas_version(),
                        dhge=dhge.__version__, src_dhge_lines=_src_lines())}


def _openblas_version():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        return "unknown"


def _src_lines():
    pkg = os.path.dirname(dhge.__file__)
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total
