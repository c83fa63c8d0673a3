"""Dynamic heterogeneous graph embedding.

A single-node engine that alternates two stages on a growing typed
graph: periodic full training of a linear-complexity graph transformer,
and cheap incremental locally-linear embedding updates between retrains.
Includes retrieval-style evaluation and a versioned snapshot store.
"""

from .tensor import NumericError, SingularMatrixError, Tensor, Param, backward
from .graph import (DataError, GraphFormatError, NodeRef, RelationSchema,
                    HeteroGraph, IncrementBatch, load_graph, save_graph,
                    load_schema, read_increment)
from .model import ModelConfig, ModelParams, EmbeddingTable, train_epoch, embed_all
from .optim import AdamW
from .incremental import UpdateConfig, AlignmentState, capture_alignment, ille_update
from .evaluation import EvalProtocol, EvalReport, cosine_topk, evaluate_table
from .snapshot import (SnapshotFormatError, save_model, load_model,
                       save_table, load_table, save_alignment, load_alignment)
from .config import ConfigError, RunConfig
from .pipeline import (Manifest, cmd_train, cmd_update, cmd_evaluate,
                       cmd_retrieve, cmd_simulate_stream, latest_manifest,
                       load_manifest, list_versions, write_snapshot,
                       load_snapshot_state)

__version__ = "0.1.0"

__all__ = [
    "NumericError", "SingularMatrixError", "Tensor", "Param", "backward",
    "DataError", "GraphFormatError", "NodeRef", "RelationSchema",
    "HeteroGraph", "IncrementBatch", "load_graph", "save_graph",
    "load_schema", "read_increment",
    "ModelConfig", "ModelParams", "EmbeddingTable", "train_epoch", "embed_all",
    "AdamW",
    "UpdateConfig", "AlignmentState", "capture_alignment", "ille_update",
    "EvalProtocol", "EvalReport", "cosine_topk", "evaluate_table",
    "SnapshotFormatError", "save_model", "load_model", "save_table",
    "load_table", "save_alignment", "load_alignment",
    "ConfigError", "RunConfig",
    "Manifest", "cmd_train", "cmd_update", "cmd_evaluate", "cmd_retrieve",
    "cmd_simulate_stream", "latest_manifest", "load_manifest",
    "list_versions", "write_snapshot", "load_snapshot_state",
    "__version__",
]
