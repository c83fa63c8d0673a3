"""Outside-in span recorder for the traced benchmark run.

The recorder replaces a public function by a timing wrapper at the place
where its callers look it up (a module attribute or a class attribute), so
the package itself carries no instrumentation. Wrapping only the defining
module would miss callers that imported the name, which is why the same
function is wrapped at several sites. ``restore`` puts every original back.
"""
from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

import dhge.evaluation
import dhge.incremental
import dhge.model
import dhge.optim
import dhge.pipeline
import dhge.tensor

# (owner, attribute, span name); the span name is the defining layer
SITES = [
    (dhge.pipeline, "load_graph", "graph.load_graph"),
    (dhge.pipeline, "read_increment", "graph.read_increment"),
    (dhge.pipeline, "apply_increment", "graph.apply_increment"),
    (dhge.incremental, "apply_increment", "graph.apply_increment"),
    (dhge.model, "sample_subgraph", "graph.sample_subgraph"),
    (dhge.pipeline, "train_epoch", "model.train_epoch"),
    (dhge.pipeline, "embed_all", "model.embed_all"),
    (dhge.model, "embed_all", "model.embed_all"),
    (dhge.model, "forward_subgraph", "model.forward_subgraph"),
    (dhge.model, "global_attention", "model.global_attention"),
    (dhge.model, "edge_attention", "model.edge_attention"),
    (dhge.model, "gcn_forward", "model.gcn_forward"),
    (dhge.model, "dynamic_negative_sample", "model.dynamic_negative_sample"),
    (dhge.model, "edge_loss", "model.edge_loss"),
    (dhge.tensor, "backward", "tensor.backward"),
    (dhge.optim.AdamW, "step", "optim.AdamW.step"),
    (dhge.pipeline, "ille_update", "incremental.ille_update"),
    (dhge.incremental, "ille_update", "incremental.ille_update"),
    (dhge.pipeline, "capture_alignment", "incremental.capture_alignment"),
    (dhge.incremental, "capture_alignment", "incremental.capture_alignment"),
    (dhge.incremental, "bfs_neighbors", "incremental.bfs_neighbors"),
    (dhge.incremental, "reconstruction_weights", "incremental.reconstruction_weights"),
    (dhge.incremental, "embed_increment", "incremental.embed_increment"),
    (dhge.incremental, "residual_blend", "incremental.residual_blend"),
    (dhge.incremental, "incremental_refine", "incremental.incremental_refine"),
    (dhge.incremental, "disentangled_update", "incremental.disentangled_update"),
    (dhge.pipeline, "save_model", "snapshot.save_model"),
    (dhge.pipeline, "save_table", "snapshot.save_table"),
    (dhge.pipeline, "save_alignment", "snapshot.save_alignment"),
    (dhge.pipeline, "load_model", "snapshot.load_model"),
    (dhge.pipeline, "load_table", "snapshot.load_table"),
    (dhge.pipeline, "load_alignment", "snapshot.load_alignment"),
    (dhge.pipeline, "write_snapshot", "pipeline.write_snapshot"),
    (dhge.pipeline, "graph_for_manifest", "pipeline.graph_for_manifest"),
    (dhge.pipeline, "cmd_train", "pipeline.cmd_train"),
    (dhge.pipeline, "cmd_update", "pipeline.cmd_update"),
    (dhge.pipeline, "cmd_evaluate", "pipeline.cmd_evaluate"),
    (dhge.pipeline, "cmd_retrieve", "pipeline.cmd_retrieve"),
    (dhge.pipeline, "evaluate_table", "evaluation.evaluate_table"),
    (dhge.evaluation, "evaluate_table", "evaluation.evaluate_table"),
    (dhge.evaluation, "cosine_topk", "evaluation.cosine_topk"),
]


class SpanRecorder:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def install(self):
        for owner, attr, name in SITES:
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrapper(original, name))
            self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrapper(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def roots(self):
        """Root index of every span: the timed operation it belongs to."""
        out = []
        for i, (_, _, _, parent) in enumerate(self.spans):
            out.append(i if parent < 0 else out[parent])
        return out

    def totals(self):
        """name -> (busy seconds, self seconds, calls)."""
        busy = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        for (name, start, end, _), s in zip(self.spans, self.self_times()):
            busy[name] += end - start
            own[name] += s
            calls[name] += 1
        return {name: (busy[name], own[name], calls[name]) for name in busy}

    def closure_error(self):
        """Largest |sum of self times under a root - root wall| over roots."""
        sums = defaultdict(float)
        for root, s in zip(self.roots(), self.self_times()):
            sums[root] += s
        worst = 0.0
        for root, total in sums.items():
            _, start, end, _ = self.spans[root]
            worst = max(worst, abs(total - (end - start)))
        return worst

    def child_counts(self, parent_name, child_name):
        """(parent spans, child spans directly under one of them)."""
        parents = {i for i, rec in enumerate(self.spans) if rec[0] == parent_name}
        children = sum(1 for rec in self.spans if rec[0] == child_name and rec[3] in parents)
        return len(parents), children

    def to_json(self):
        roots = self.roots()
        return [[name, start, end, parent, root]
                for (name, start, end, parent), root in zip(self.spans, roots)]
