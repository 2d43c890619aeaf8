"""Graph datasets, model assembly and training loops.

The model pipeline for both tasks: per-node Euclidean features are lifted
onto the manifold through the origin's tangent space, pushed through a
stack of kernel-point convolutions (the first maps the feature dimension
to the hidden width, the rest are hidden to hidden), then read out. Graph
classification pools each graph's node points into an unweighted centroid
first; node classification reads every node directly. The readout head
measures distances to one learnable reference point per class and the
negated distances are the class logits.

Every trainable leaf is a Euclidean array (reference points are stored as
tangent coordinates and lifted in the forward pass), so plain Adam drives
the whole network. Each conv layer runs once per structural node class,
and every sum adds its rows in a structural order: the edges of a
neighborhood by the structural class of the neighbor, the nodes of a graph
by their own class. Class ids come from the feature bytes and the graph
structure alone, never from node ids, so node-relabeling equivariance is
exact at the bit level. That class layout depends on the data alone
(layout.prepare); a GraphBatch holds read-only copies of its arrays and
keeps the layout of each model depth it has served.
"""

from __future__ import annotations

import csv
import heapq
import json
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import kernelgen, layers, layout, lmath, manifold
from .errors import (
    BuildError,
    DataFormatError,
    DimensionError,
    NumericError,
    ParameterError,
    read_json,
)
from .layout import edge_arrays  # noqa: F401  (graphnet.edge_arrays is public)

TASKS = ("graph", "node")
KERNEL_SOURCES = ("optimized", "random")
SPLITS = ("train", "val", "test")
_SPLIT_FRACTIONS = (0.6, 0.2, 0.2)
_DEGREE_CAP = 8


# ---------------------------------------------------------------------------
# datasets


def _array(value, name: str) -> np.ndarray:
    try:
        return np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"field {name!r} is not a rectangular array: {exc}") from exc


def _number_array(value, name: str) -> np.ndarray:
    """value as a fresh float64 array of numbers (booleans read as 0/1);
    strings, nulls and objects raise DataFormatError naming the field."""
    raw = _array(value, name)
    if raw.dtype.kind not in "biuf":
        raise DataFormatError(f"field {name!r} must hold numbers")
    return raw.astype(np.float64)


def _index_array(value, name: str) -> np.ndarray:
    """value as a fresh int64 array. A cast would truncate a fraction and
    wrap or overflow an integer beyond int64, so any entry that is not an
    integer in int64's range raises DataFormatError naming the field."""
    raw = _array(value, name)
    if raw.dtype.kind == "f":
        whole = (raw == np.trunc(raw)) & (np.abs(raw) < 2.0**63)
        if not whole.all():
            bad = float(raw[~whole][0])
            raise DataFormatError(f"field {name!r} holds {bad!r}, not an integer in int64's range")
    elif raw.dtype.kind == "u":
        if raw.size and raw.max() > np.iinfo(np.int64).max:
            raise DataFormatError(f"field {name!r} holds {int(raw.max())}, beyond int64's range")
    elif raw.dtype.kind != "i":
        raise DataFormatError(f"field {name!r} must hold integers in int64's range")
    return raw.astype(np.int64)


def _mask_array(value, name: str) -> np.ndarray:
    """value as a fresh bool array; every entry must be a boolean or 0/1."""
    raw = _array(value, f"masks.{name}")
    if raw.dtype.kind != "b" and (raw.dtype.kind not in "iuf" or not np.isin(raw, (0, 1)).all()):
        raise DataFormatError(f"mask {name!r} must hold booleans or 0/1")
    return raw.astype(bool)


@dataclass(frozen=True, eq=False)
class GraphBatch:
    """One loaded dataset: features, undirected edges, labels, bookkeeping.

    edges holds each undirected pair once, with no self-loops (a node is
    never its own neighbor; the model substitutes a self-fallback only for
    nodes with no neighbors at all). graph_ids groups nodes into graphs
    for graph-level labels; masks carry the node-task split. Every array
    is a read-only copy of what the caller passed, so the class layouts
    the batch keeps (class_layout) cannot go stale.
    """

    features: np.ndarray
    edges: np.ndarray
    labels: np.ndarray
    graph_ids: np.ndarray | None = None
    masks: dict | None = None
    _layouts: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        features = _number_array(self.features, "features")
        edges = _index_array(self.edges, "edges").reshape(-1, 2)
        labels = _index_array(self.labels, "labels")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "labels", labels)
        if features.ndim != 2 or features.shape[0] < 1 or features.shape[1] < 1:
            raise DataFormatError("features must be a nonempty N x F matrix")
        n = features.shape[0]
        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                raise DataFormatError("edge endpoint out of range")
            if np.any(edges[:, 0] == edges[:, 1]):
                bad = int(np.nonzero(edges[:, 0] == edges[:, 1])[0][0])
                raise DataFormatError(f"edge {bad} is a self-loop")
            canon = np.sort(edges, axis=1)
            _, counts = np.unique(canon, axis=0, return_counts=True)
            if np.any(counts > 1):
                raise DataFormatError("duplicate undirected edge")
        if (self.graph_ids is None) == (self.masks is None):
            raise DataFormatError(
                "exactly one of graph_ids (graph task) or masks (node task) must be present"
            )
        stored = [features, edges, labels]
        if self.graph_ids is not None:
            gids = _index_array(self.graph_ids, "graph_ids")
            object.__setattr__(self, "graph_ids", gids)
            stored.append(gids)
            if gids.shape != (n,):
                raise DataFormatError("graph_ids must assign every node")
            g = int(gids.max()) + 1 if gids.size else 0
            if gids.min() < 0 or len(np.unique(gids)) != g:
                raise DataFormatError("graph ids must cover 0..G-1")
            if labels.shape != (g,):
                raise DataFormatError(f"{g} graphs but {labels.shape[0]} labels")
        else:
            if not isinstance(self.masks, Mapping):
                raise DataFormatError("masks must map each split name to a node mask")
            masks = {}
            for name in SPLITS:
                if name not in self.masks:
                    raise DataFormatError(f"masks missing split {name!r}")
                m = _mask_array(self.masks[name], name)
                if m.shape != (n,):
                    raise DataFormatError(f"mask {name!r} must cover every node")
                masks[name] = m
            object.__setattr__(self, "masks", masks)
            stored.extend(masks.values())
            total = masks["train"].astype(int) + masks["val"].astype(int) + masks["test"].astype(int)
            if np.any(total > 1):
                bad = int(np.nonzero(total > 1)[0][0])
                raise DataFormatError(f"node {bad} appears in more than one split")
            if labels.shape != (n,):
                raise DataFormatError("node task needs one label per node")
        if labels.size and labels.min() < 0:
            raise DataFormatError("labels must be nonnegative class indices")
        for array in stored:
            array.setflags(write=False)

    def class_layout(self, depth: int, distinct: bool) -> layout.Layout:
        """layout.prepare(self, depth, distinct), prepared on first use
        and kept for every later call with the same depth and distinct."""
        key = (depth, distinct)
        if key not in self._layouts:
            self._layouts[key] = layout.prepare(self, depth, distinct)
        return self._layouts[key]

    @property
    def task(self) -> str:
        return "graph" if self.graph_ids is not None else "node"

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_graphs(self) -> int:
        return int(self.graph_ids.max()) + 1 if self.graph_ids is not None else 1

    @property
    def num_classes(self) -> int:
        """One class per index up to the largest label, the head rows a
        model built on this data gets. A class index needs a labelled unit
        to name it, so a label at or above their number raises
        DataFormatError."""
        top = int(self.labels.max())
        if top >= self.labels.shape[0]:
            units = "graphs" if self.task == "graph" else "nodes"
            raise DataFormatError(
                f"field 'labels' holds {top}, not below the {self.labels.shape[0]} labelled {units}"
            )
        return top + 1

    @property
    def isolated(self) -> np.ndarray:
        """Nodes with no neighbors (the model gives them a self-fallback)."""
        return np.bincount(self.edges.ravel(), minlength=self.num_nodes) == 0


def graph_split_indices(num_graphs: int) -> dict:
    """Deterministic 60/20/20 split over graph index order."""
    a = int(_SPLIT_FRACTIONS[0] * num_graphs)
    b = int((_SPLIT_FRACTIONS[0] + _SPLIT_FRACTIONS[1]) * num_graphs)
    return {
        "train": np.arange(0, a),
        "val": np.arange(a, b),
        "test": np.arange(b, num_graphs),
    }


def split_indices(batch: GraphBatch, split: str) -> np.ndarray:
    """Unit indices (graphs or nodes) belonging to a named split."""
    if split not in SPLITS:
        raise ParameterError(f"unknown split {split!r}")
    if batch.task == "graph":
        return graph_split_indices(batch.num_graphs)[split]
    return np.nonzero(batch.masks[split])[0]


def load_dataset(path) -> GraphBatch:
    """The dataset in a JSON file. Fields reach GraphBatch as parsed, so
    that it rejects a fraction, an out-of-range integer or a string where
    a cast would truncate, wrap or parse it."""
    data = read_json(path, "dataset")
    for key in ("num_nodes", "features", "edges", "labels"):
        if key not in data:
            raise DataFormatError(f"dataset missing field {key!r}")
    num_nodes = data["num_nodes"]
    if isinstance(num_nodes, bool) or not isinstance(num_nodes, int):
        raise DataFormatError(f"dataset field 'num_nodes' must be an integer, got {num_nodes!r}")
    features = _array(data["features"], "features")
    if features.ndim != 2 or features.shape[0] != num_nodes:
        raise DataFormatError("features shape disagrees with num_nodes")
    graph_ids = _array(data["graph_ids"], "graph_ids") if "graph_ids" in data else None
    masks = data.get("masks")
    if graph_ids is not None and masks is not None:
        raise DataFormatError("dataset declares both graph_ids and masks")
    edges = _array(data["edges"], "edges")
    if edges.size % 2:
        raise DataFormatError("dataset field 'edges' must hold node pairs")
    return GraphBatch(
        features=features,
        edges=edges.reshape(-1, 2),
        labels=data["labels"],
        graph_ids=graph_ids,
        masks=masks,
    )


def save_dataset(batch: GraphBatch, path) -> None:
    record = {
        "num_nodes": batch.num_nodes,
        "features": batch.features.tolist(),
        "edges": batch.edges.tolist(),
        "labels": batch.labels.tolist(),
    }
    if batch.graph_ids is not None:
        record["graph_ids"] = batch.graph_ids.tolist()
    if batch.masks is not None:
        record["masks"] = {k: v.tolist() for k, v in batch.masks.items()}
    Path(path).write_text(json.dumps(record))


def _prufer_tree_edges(seq: np.ndarray, n: int) -> list:
    degree = np.ones(n, dtype=np.int64)
    for s in seq:
        degree[s] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    out = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        out.append((leaf, int(s)))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, int(s))
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    out.append((u, v))
    return out


def degree_histogram_baseline(batch: GraphBatch) -> float:
    """Nearest-centroid classifier on normalized capped-degree histograms.

    Fits per-class mean histograms on the train split and reports test
    accuracy. Serves as the independent sanity oracle for the synthetic
    suite: it must do clearly better than chance yet stay beatable.
    """
    if batch.task != "graph":
        raise ParameterError("the histogram baseline is defined for graph tasks")
    degree = np.bincount(batch.edges.ravel(), minlength=batch.num_nodes)
    capped = np.minimum(degree, _DEGREE_CAP)
    g = batch.num_graphs
    hist = np.zeros((g, _DEGREE_CAP + 1))
    np.add.at(hist, (batch.graph_ids, capped), 1.0)
    hist /= hist.sum(axis=1, keepdims=True)
    splits = graph_split_indices(g)
    classes = np.unique(batch.labels[splits["train"]])
    centroids = np.stack(
        [hist[splits["train"]][batch.labels[splits["train"]] == c].mean(axis=0) for c in classes]
    )
    test = splits["test"]
    d = np.linalg.norm(hist[test][:, None, :] - centroids[None, :, :], axis=2)
    pred = classes[np.argmin(d, axis=1)]
    return float(np.mean(pred == batch.labels[test]))


@dataclass(frozen=True)
class DataConfig:
    """Where a run's data comes from: the built-in synthetic suite
    (source "synth", sized and seeded by the other fields) or the path of
    a dataset JSON file, which ignores them."""

    source: str = "synth"
    n_graphs: int = 200
    nodes_per_graph: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ParameterError("data seed must be unsigned")

    def load(self) -> GraphBatch:
        if self.source == "synth":
            return synth_trees_vs_random(self.n_graphs, self.nodes_per_graph, self.seed)
        return load_dataset(self.source)


def synth_trees_vs_random(n_graphs: int, nodes_per_graph: int, seed: int = 0) -> GraphBatch:
    """Balanced two-class suite: random trees (label 0) vs Erdos-Renyi
    graphs with expected degree 3 (label 1), alternating by graph index.

    Node features are one-hot capped degree; the 60/20/20 split runs over
    graph index order, so alternation keeps every split exactly balanced.
    A degree-histogram baseline is evaluated at generation time and must
    score in [0.6, 0.99] on the test split: informative features, but a
    task plain histograms cannot saturate.
    """
    if n_graphs < 2 or n_graphs % 2 != 0:
        raise ParameterError("n_graphs must be even and >= 2")
    if nodes_per_graph < 8:
        raise ParameterError("nodes_per_graph must be >= 8")
    rng = np.random.Generator(np.random.Philox(key=seed))
    n = nodes_per_graph
    p_edge = 3.0 / (n - 1)
    all_edges = []
    labels = np.zeros(n_graphs, dtype=np.int64)
    graph_ids = np.repeat(np.arange(n_graphs), n)
    for g in range(n_graphs):
        offset = g * n
        labels[g] = g % 2
        if labels[g] == 0:
            seq = rng.integers(0, n, size=n - 2)
            edges = _prufer_tree_edges(seq, n)
        else:
            upper = np.triu(rng.random((n, n)) < p_edge, k=1)
            edges = list(zip(*np.nonzero(upper)))
        all_edges.extend((offset + a, offset + b) for a, b in edges)
    edges = np.asarray(all_edges, dtype=np.int64)
    degree = np.bincount(edges.ravel(), minlength=n_graphs * n)
    features = np.eye(_DEGREE_CAP + 1)[np.minimum(degree, _DEGREE_CAP)]
    batch = GraphBatch(features=features, edges=edges, labels=labels, graph_ids=graph_ids)
    oracle = degree_histogram_baseline(batch)
    if not 0.6 <= oracle <= 0.99:
        raise DataFormatError(
            f"histogram baseline at {oracle:.3f} is outside the sanity band [0.6, 0.99]"
        )
    return batch


# ---------------------------------------------------------------------------
# model


@dataclass(frozen=True)
class HKNConfig:
    layers: int = 2
    K: int = 4
    hidden_dim: int = 16
    curvature: float = -1.0
    dropout: float = 0.0
    lr: float = 0.01
    weight_decay: float = 0.0
    pooling_weights: str = "uniform"
    kernel_source: str = "optimized"
    task: str = "graph"
    seed: int = 0

    def __post_init__(self):
        if not 2 <= self.layers <= 7:
            raise ParameterError("layers must be in 2..7")
        if not 2 <= self.K <= 9:
            raise ParameterError("K must be in 2..9")
        if self.hidden_dim < 2:
            raise ParameterError("hidden_dim must be >= 2")
        # written so that NaN fails every check
        if not self.curvature < 0:
            raise ParameterError("curvature must be negative")
        if not 0.0 <= self.dropout < 1.0:
            raise ParameterError("dropout must be in [0, 1)")
        if not (self.lr > 0 and self.weight_decay >= 0):
            raise ParameterError("lr must be positive and weight_decay nonnegative")
        if self.pooling_weights not in layers.POOLINGS:
            raise ParameterError(f"unknown pooling {self.pooling_weights!r}")
        if self.kernel_source not in KERNEL_SOURCES:
            raise ParameterError(f"unknown kernel source {self.kernel_source!r}")
        if self.task not in TASKS:
            raise ParameterError(f"unknown task {self.task!r}")
        if self.seed < 0:
            raise ParameterError("seed must be unsigned")


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 500
    patience: int = 50

    def __post_init__(self):
        if self.max_epochs < 1 or self.patience < 1:
            raise ParameterError("max_epochs and patience must be positive")


@dataclass
class Metrics:
    accuracy: float
    macro_f1: float
    loss: float
    history: list = field(default_factory=list)

    def __post_init__(self):
        if not (0.0 <= self.accuracy <= 1.0 and 0.0 <= self.macro_f1 <= 1.0):
            raise ParameterError("accuracy and macro_f1 must lie in [0, 1]")


class HKN:
    """Assembled network: config, parameter store, per-layer kernel sets."""

    def __init__(self, cfg, feature_dim, num_classes, layer_kernels, store):
        self.cfg = cfg
        self.feature_dim = feature_dim
        self.num_classes = num_classes
        self.layer_kernels = layer_kernels
        self.store = store


# placement solves cache within the process; the optimum for a given
# (K, dim, curvature) does not depend on who asks for it
_SOLVE_CACHE: dict = {}
_LAYER_KERNEL_SEED = 0


def _solved_kernels(K: int, dim: int, kappa: float) -> kernelgen.KernelSet:
    key = (K, dim, kappa)
    if key not in _SOLVE_CACHE:
        cfg = manifold.ManifoldConfig(curvature=kappa, dim=dim)
        solver = kernelgen.SolverConfig(seed=_LAYER_KERNEL_SEED)
        _SOLVE_CACHE[key] = kernelgen.solve_kernels(K, dim, solver, cfg)
    return _SOLVE_CACHE[key]


def _kernels_for_dim(cfg: HKNConfig, dim: int, provided) -> kernelgen.KernelSet:
    if provided is not None and provided.cfg.dim == dim:
        return provided
    if cfg.kernel_source == "optimized":
        return _solved_kernels(cfg.K, dim, cfg.curvature)
    mcfg = manifold.ManifoldConfig(curvature=cfg.curvature, dim=dim)
    return kernelgen.random_kernels(cfg.K, dim, cfg.seed, mcfg)


def build_hkn(
    cfg: HKNConfig,
    kernels: kernelgen.KernelSet | None = None,
    *,
    feature_dim: int,
    num_classes: int,
) -> HKN:
    """Assemble the network for data with the given widths.

    kernels, when provided, must match cfg (K points, hidden-dim space,
    same curvature) and serves every hidden-to-hidden layer; the first
    layer's kernel set lives in the feature-dimension space and is derived
    from cfg.kernel_source unless the provided set already fits it.
    """
    if feature_dim < 1 or num_classes < 2:
        raise BuildError("need feature_dim >= 1 and num_classes >= 2")
    if kernels is not None:
        if kernels.K != cfg.K:
            raise BuildError(f"kernel set has K={kernels.K}, config wants {cfg.K}")
        if kernels.cfg.curvature != cfg.curvature:
            raise BuildError("kernel curvature disagrees with config")
        if kernels.cfg.dim not in (cfg.hidden_dim, feature_dim):
            raise BuildError(
                f"kernel dim {kernels.cfg.dim} matches neither hidden_dim nor feature_dim"
            )
    layer_kernels = [_kernels_for_dim(cfg, feature_dim, kernels)]
    hidden_set = _kernels_for_dim(cfg, cfg.hidden_dim, kernels)
    layer_kernels.extend(hidden_set for _ in range(cfg.layers - 1))
    store = _init_store(cfg, feature_dim, num_classes)
    return HKN(cfg, feature_dim, num_classes, layer_kernels, store)


def _init_store(cfg: HKNConfig, feature_dim: int, num_classes: int) -> ad.ParamStore:
    """Freshly initialized parameters in the model's one layout: per conv
    layer, the leaves layer{i}.<name> of layers.PARAM_NAMES, each stacked
    over the K transforms init_hlinear draws in turn; then the head's
    class reference points."""
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    store = ad.ParamStore()
    for i in range(cfg.layers):
        in_dim = feature_dim if i == 0 else cfg.hidden_dim
        drawn = [layers.init_hlinear(rng, in_dim, cfg.hidden_dim).values() for _ in range(cfg.K)]
        for name, field in zip(layers.PARAM_NAMES, zip(*drawn)):
            store.add(f"layer{i}.{name}", np.stack(field))
    store.add("head.centroids", 0.1 * rng.standard_normal((num_classes, cfg.hidden_dim)))
    return store


def _drop_mask(draw: np.ndarray, keep: float) -> np.ndarray:
    """Inverted-dropout mask from uniform draws: an entry is kept (1/keep)
    where its draw is below keep. A row that would drop every entry keeps
    them all instead, since a zero vector has no direction for the gated
    transform to normalize; other (last-axis) rows are untouched."""
    mask = (draw < keep) / keep
    mask[~mask.any(axis=-1)] = 1.0 / keep
    return mask


def forward_logits(model: HKN, batch: GraphBatch, leaves=None, training=False, rng=None):
    """Logit rows (one per graph for graph tasks, per node otherwise).

    Four steps: validate the batch against the model, take the batch's
    class layout for the model's depth (GraphBatch.class_layout, prepared
    once per batch), run each conv layer once per pair of structural node
    classes, then read out: one gather maps the last layer's class rows to
    the nodes, or to each graph's nodes in ascending class order for the
    graph pooling, before the distance head.

    leaves defaults to the store's current arrays; during training it is
    the tensor view created by the gradient driver. Dropout masks are
    drawn only when training with cfg.dropout > 0; then every node is its
    own class and every edge its own pair, in edge_arrays order, and each
    layer draws one (K, pairs, hidden_dim) block, kernel after kernel.
    """
    cfg = model.cfg
    if batch.feature_dim != model.feature_dim:
        raise BuildError(
            f"data feature dim {batch.feature_dim} != model feature dim {model.feature_dim}"
        )
    if batch.task != cfg.task:
        raise BuildError(f"data task {batch.task!r} != model task {cfg.task!r}")
    dropout = training and cfg.dropout > 0.0
    if dropout and rng is None:
        raise ParameterError("dropout needs the training rng")
    kappa = cfg.curvature
    lmath.check_embed_range(batch.features, kappa)

    plan = batch.class_layout(cfg.layers, dropout)

    leaves = dict(model.store.items()) if leaves is None else leaves
    x = lmath.embed(plan.features, kappa)
    for i, (roots, neighbors, edges, counts, _) in enumerate(plan.layer_edges):
        drop_mask = None
        if dropout:
            draw = rng.random((cfg.K, len(roots), cfg.hidden_dim))
            drop_mask = _drop_mask(draw, 1.0 - cfg.dropout).transpose(1, 0, 2)
        x = layers.hkconv_core(
            x,
            roots,
            neighbors,
            edges,
            counts,
            tuple(leaves[f"layer{i}.{name}"] for name in layers.PARAM_NAMES),
            model.layer_kernels[i].coords_array(),
            cfg.pooling_weights,
            kappa,
            drop_mask,
        )

    if cfg.task == "graph":
        units = layers.hcent_core(ad.take(x, plan.pooled), None, plan.graph_counts, kappa)
    else:
        units = ad.take(x, plan.labels)
    centroids = lmath.embed(leaves["head.centroids"], kappa)
    return -lmath.cross_dist(units, centroids, kappa)


def _nll(logits, labels_idx: np.ndarray, unit_idx: np.ndarray, num_classes: int):
    logp = ad.log_softmax(ad.take(logits, unit_idx), axis=-1)
    onehot = np.eye(num_classes)[labels_idx]
    return -ad.mean(ad.sum(logp * onehot, axis=-1))


def macro_f1_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Unweighted mean of per-class F1 over classes present in either
    the labels or the predictions; a class with no true and no predicted
    members contributes nothing, one with an empty precision or recall
    denominator scores zero."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.size == 0:
        raise ParameterError("need equal-length nonempty label vectors")
    scores = []
    for c in np.unique(np.concatenate([y_true, y_pred])):
        tp = float(np.sum((y_pred == c) & (y_true == c)))
        fp = float(np.sum((y_pred == c) & (y_true != c)))
        fn = float(np.sum((y_pred != c) & (y_true == c)))
        denom = 2 * tp + fp + fn
        scores.append(0.0 if denom == 0 else 2 * tp / denom)
    return float(np.mean(scores))


def _split_metrics(logits: np.ndarray, batch: GraphBatch, split: str):
    idx = split_indices(batch, split)
    if idx.size == 0:
        raise ParameterError(f"split {split!r} is empty")
    rows = logits[idx]
    y = batch.labels[idx]
    shifted = rows - rows.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    loss = float(-np.mean(logp[np.arange(len(y)), y]))
    pred = np.argmax(rows, axis=1)
    return float(np.mean(pred == y)), macro_f1_score(y, pred), loss


def _check_classes(model: HKN, data: GraphBatch) -> None:
    """A label the model has no class for raises DataFormatError."""
    if data.labels.max() >= model.num_classes:
        raise DataFormatError(
            f"field 'labels' holds {int(data.labels.max())}, not below the "
            f"model's {model.num_classes} classes"
        )


def evaluate(model: HKN, data: GraphBatch, split: str) -> Metrics:
    """Accuracy, macro-F1 and mean cross-entropy on one split; read-only.
    A label the model has no class for raises DataFormatError."""
    _check_classes(model, data)
    logits = np.asarray(forward_logits(model, data))
    acc, f1, loss = _split_metrics(logits, data, split)
    return Metrics(accuracy=acc, macro_f1=f1, loss=loss)


class _PatienceOut(Exception):
    """Leaves a gradient pass before its backward once patience runs out."""


def train(model: HKN, data: GraphBatch, cfg: TrainConfig | None = None) -> Metrics:
    """Full-batch Adam with early stopping on validation accuracy.

    Appends (epoch, split, loss, accuracy, macro_f1) history rows for all
    three splits each epoch, restores the best-validation parameters when
    done, and returns that model's test metrics with the history attached.
    Aborts with diagnostics if the loss turns non-finite.

    Epoch t is scored on the parameters after its Adam step. Without
    dropout the recorded forward of step t+1 runs on exactly those
    parameters, so its logit values score epoch t: the loss function books
    the rows, the best-parameter snapshot and the patience decision right
    after that forward, before the loss is checked, and leaves the
    gradient pass without a backward once patience runs out. Only the last
    epoch under max_epochs takes a no-tape forward of its own. With dropout
    the recorded forward draws masks, so each epoch is scored by a no-tape
    forward after its step. A label the model has no class for raises
    DataFormatError.
    """
    _check_classes(model, data)
    cfg = cfg or TrainConfig()
    mcfg = model.cfg
    train_idx = split_indices(data, "train")
    if train_idx.size == 0:
        raise ParameterError("empty training split")
    labels_idx = data.labels[train_idx]
    drop_rng = np.random.Generator(np.random.Philox(key=mcfg.seed).jumped(1))
    scored_apart = mcfg.dropout > 0.0

    history = []
    best = {"val_acc": -1.0, "epoch": -1, "params": None}
    stale = 0

    def book(epoch: int, logits: np.ndarray) -> bool:
        """History rows, best snapshot and patience for epoch; True to stop."""
        nonlocal best, stale
        epoch_stats = {}
        for split in SPLITS:
            acc, f1, loss = _split_metrics(logits, data, split)
            epoch_stats[split] = (acc, f1, loss)
            history.append((epoch, split, loss, acc, f1))
        val_acc = epoch_stats["val"][0]
        improved = val_acc > best["val_acc"]
        if val_acc >= best["val_acc"]:
            # ties snapshot the most recent epoch: once validation saturates
            # the later model has trained longer on the same evidence
            best = {
                "val_acc": val_acc,
                "epoch": epoch,
                "params": {p: v.copy() for p, v in model.store.items()},
            }
        stale = 0 if improved else stale + 1
        return stale >= cfg.patience

    for epoch in range(cfg.max_epochs):
        holder = {}

        def loss_fn(leaves):
            logits = forward_logits(model, data, leaves, training=True, rng=drop_rng)
            if not scored_apart and epoch > 0 and book(epoch - 1, ad.value_of(logits)):
                raise _PatienceOut
            loss = _nll(logits, labels_idx, train_idx, model.num_classes)
            holder["loss"] = float(ad.value_of(loss))
            return loss

        try:
            grads = ad.grad(loss_fn, model.store)
        except _PatienceOut:
            break
        except NumericError as exc:
            raise NumericError(
                f"training aborted at epoch {epoch}: {exc}", op_path=exc.op_path
            ) from exc
        if not np.isfinite(holder["loss"]):
            raise NumericError(f"non-finite loss {holder['loss']} at epoch {epoch}")
        ad.adam_step(model.store, grads, mcfg.lr, weight_decay=mcfg.weight_decay)
        if scored_apart and book(epoch, np.asarray(forward_logits(model, data))):
            break
    else:
        if not scored_apart:
            book(cfg.max_epochs - 1, np.asarray(forward_logits(model, data)))

    for path, value in best["params"].items():
        model.store.set_(path, value)
    model.best_epoch = best["epoch"]
    test = evaluate(model, data, "test")
    test.history = history
    return test


def write_metrics_csv(history, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "split", "loss", "accuracy", "macro_f1"])
        for epoch, split, loss, acc, f1 in history:
            writer.writerow([epoch, split, repr(loss), repr(acc), repr(f1)])


# ---------------------------------------------------------------------------
# experiments


def _train_once(cfg: HKNConfig, data: GraphBatch, run_cfg: TrainConfig | None) -> float:
    model = build_hkn(cfg, feature_dim=data.feature_dim, num_classes=data.num_classes)
    return train(model, data, run_cfg).accuracy


def sweep_kernels(
    cfg: HKNConfig,
    K_list=tuple(range(2, 10)),
    seeds: int = 3,
    data: GraphBatch | None = None,
    run_cfg: TrainConfig | None = None,
):
    """One training run per (K, seed) for model seeds cfg.seed onward;
    returns (rows, table) where rows are (K, seed, test_accuracy) and table
    rows are (K, mean, std).

    Seeds vary the model, not the benchmark: every run trains and scores
    on the same data, the built-in synthetic suite unless data is given,
    as in cross-seed benchmark tables."""
    if seeds < 1:
        raise ParameterError("seeds must be >= 1")
    data = DataConfig().load() if data is None else data
    rows = []
    for K in K_list:
        for seed in range(cfg.seed, cfg.seed + seeds):
            rows.append((K, seed, _train_once(replace(cfg, K=K, seed=seed), data, run_cfg)))
    table = []
    for K in K_list:
        accs = np.array([acc for k, _, acc in rows if k == K])
        table.append((K, float(accs.mean()), float(accs.std())))
    return rows, table


def ablation_kernel_sources(cfg: HKNConfig, seeds: int = 5):
    """Mean test accuracy of optimized vs wrapped-normal random kernels
    over the given number of seeds on the built-in synthetic suite;
    returns (rows, means) with rows of (source, seed, accuracy)."""
    data = DataConfig().load()
    rows = []
    means = {}
    for source in KERNEL_SOURCES:
        accs = [
            _train_once(replace(cfg, kernel_source=source, seed=seed), data, None)
            for seed in range(seeds)
        ]
        rows.extend((source, seed, acc) for seed, acc in enumerate(accs))
        means[source] = float(np.mean(accs))
    return rows, means


def write_sweep_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["K", "seed", "metric"])
        for K, seed, metric in rows:
            writer.writerow([K, seed, repr(metric)])


# ---------------------------------------------------------------------------
# checkpoints


# v2 stacks each conv layer's K kernels (_init_store); v1 had a leaf per kernel
_CHECKPOINT_FORMAT = "hkn-checkpoint-v2"
_CHECKPOINT_FIELDS = {
    "config": dict,
    "feature_dim": int,
    "num_classes": int,
    "kernels": list,
    "params": dict,
    "info": dict,
}
# the info fields hkconv eval reads, each checked where present; info.data
# holds DataConfig fields only
_CHECKPOINT_INFO_FIELDS = {
    "info": {"test_accuracy": float, "data": dict},
    "info.data": {f.name: type(f.default) for f in fields(DataConfig)},
}


def _json_is(value, kind: type) -> bool:
    """value has the JSON type kind stands for; an integer passes as a float."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def save_checkpoint(model: HKN, path, info: dict | None = None) -> None:
    record = {
        "format": _CHECKPOINT_FORMAT,
        "config": asdict(model.cfg),
        "feature_dim": model.feature_dim,
        "num_classes": model.num_classes,
        "kernels": [kernelgen.kernels_to_dict(ks) for ks in model.layer_kernels],
        "params": model.store.to_dict(),
        "info": info or {},
    }
    Path(path).write_text(json.dumps(record, indent=1))


def load_checkpoint(path) -> tuple:
    """Rebuild a model from a checkpoint; returns (model, info).

    The record must hold every field with its JSON type, exactly the
    HKNConfig keys, one kernel set per layer with the config's K, curvature
    and the layer's input dimension, and exactly the parameter paths and
    shapes build_hkn lays out for that config, with finite values. The info
    fields eval reads (test_accuracy and the data block) must have their
    JSON types where present, and the data block holds DataConfig keys
    only. Anything else raises DataFormatError naming the field.
    """
    record = read_json(path, "checkpoint")
    if record.get("format") != _CHECKPOINT_FORMAT:
        found = record.get("format")
        raise DataFormatError(f"checkpoint format {found!r} is not {_CHECKPOINT_FORMAT!r}")
    for key, kind in _CHECKPOINT_FIELDS.items():
        if key not in record:
            raise DataFormatError(f"checkpoint missing field {key!r}")
        if not _json_is(record[key], kind):
            raise DataFormatError(f"checkpoint field {key!r} must be a JSON {kind.__name__}")
    for block, spec in _CHECKPOINT_INFO_FIELDS.items():
        entries = record["info"] if block == "info" else record["info"].get("data", {})
        for key, kind in spec.items():
            if key in entries and not _json_is(entries[key], kind):
                raise DataFormatError(
                    f"checkpoint field '{block}.{key}' must be a JSON {kind.__name__}"
                )
    for key in record["info"].get("data", {}):
        if key not in _CHECKPOINT_INFO_FIELDS["info.data"]:
            raise DataFormatError(f"checkpoint field 'info.data' has unknown key {key!r}")

    config = record["config"]
    known = {f.name for f in fields(HKNConfig)}
    for name in config:
        if name not in known:
            raise DataFormatError(f"checkpoint field 'config' has unknown key {name!r}")
    for f in fields(HKNConfig):
        if f.name not in config:
            raise DataFormatError(f"checkpoint field 'config' is missing key {f.name!r}")
        if not _json_is(config[f.name], type(f.default)):
            raise DataFormatError(f"checkpoint field 'config.{f.name}' has the wrong type")
    try:
        cfg = HKNConfig(**config)
    except ParameterError as exc:
        raise DataFormatError(f"checkpoint field 'config': {exc}") from exc

    feature_dim, num_classes = record["feature_dim"], record["num_classes"]
    if feature_dim < 1 or num_classes < 2:
        raise DataFormatError("checkpoint needs feature_dim >= 1 and num_classes >= 2")
    # the store takes the declared sizes: the kernel sets bound its widths
    head = record["params"].get("head.centroids")
    if not isinstance(head, list) or len(head) != num_classes:
        raise DataFormatError(
            f"checkpoint field 'num_classes' is {num_classes}, not the head's row count"
        )
    if len(record["kernels"]) != cfg.layers:
        raise DataFormatError(f"checkpoint field 'kernels' must hold {cfg.layers} kernel sets")
    layer_kernels = []
    for i, entry in enumerate(record["kernels"]):
        try:
            ks = kernelgen.kernels_from_dict(entry)
        except DataFormatError as exc:
            raise DataFormatError(f"checkpoint field 'kernels' entry {i}: {exc}") from exc
        dim = feature_dim if i == 0 else cfg.hidden_dim
        if (ks.K, ks.cfg.dim, ks.cfg.curvature) != (cfg.K, dim, cfg.curvature):
            raise DataFormatError(
                f"checkpoint field 'kernels' entry {i} has K={ks.K}, dim={ks.cfg.dim}, "
                f"curvature={ks.cfg.curvature}; layer {i} needs K={cfg.K}, dim={dim}, "
                f"curvature={cfg.curvature}"
            )
        layer_kernels.append(ks)

    store = _init_store(cfg, feature_dim, num_classes)
    try:
        store.load_dict(record["params"])
    except (BuildError, DimensionError) as exc:
        raise DataFormatError(f"checkpoint field 'params': {exc}") from exc
    for name, value in store.items():
        if not np.all(np.isfinite(value)):
            raise DataFormatError(f"checkpoint field 'params': parameter {name!r} is not finite")
    return HKN(cfg, feature_dim, num_classes, layer_kernels, store), record["info"]
