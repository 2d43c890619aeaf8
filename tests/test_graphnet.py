"""Dataset generation and ingestion, model assembly, metrics, the training
loop, and checkpoint serialization."""

import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkconv import autodiff as ad
from hkconv import graphnet as gn
from hkconv import cli, layers, lmath
from hkconv import layout as lo
from hkconv.errors import (
    BuildError,
    DataFormatError,
    DomainError,
    NumericError,
    ParameterError,
)


# one gradient pass of the default model on criterion 9's suite, and of a
# K=8 attention model on a node task over the same graph, printed as one
# "path digest" line per leaf
_GRADIENT_DIGESTS = """
import hashlib
import numpy as np
from hkconv import autodiff as ad, graphnet as gn
data = gn.synth_trees_vs_random(200, 16, seed=0)
folds = np.arange(data.num_nodes) % 5
nodes = gn.GraphBatch(
    data.features, data.edges, data.labels[data.graph_ids],
    masks={"train": folds < 3, "val": folds == 3, "test": folds == 4},
)
for batch, cfg in (
    (data, gn.HKNConfig()),
    (nodes, gn.HKNConfig(K=8, pooling_weights="attention", task="node")),
):
    model = gn.build_hkn(cfg, feature_dim=batch.feature_dim, num_classes=2)
    idx = gn.split_indices(batch, "train")
    def loss(leaves):
        logits = gn.forward_logits(model, batch, leaves, training=True)
        return gn._nll(logits, batch.labels[idx], idx, model.num_classes)
    for path, g in sorted(ad.grad(loss, model.store).items()):
        print(cfg.task, path, hashlib.sha256(g.tobytes()).hexdigest())
"""


def _small_batch():
    return gn.synth_trees_vs_random(n_graphs=60, nodes_per_graph=12, seed=0)


def _graph_edge_lists(batch):
    per_graph = {g: [] for g in range(batch.num_graphs)}
    for s, d in batch.edges:
        per_graph[int(batch.graph_ids[s])].append((int(s), int(d)))
    return per_graph


def _node_task_batch(rng):
    n = 10
    feats = rng.standard_normal((n, 4))
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7], [7, 8], [8, 9], [0, 5]])
    labels = rng.integers(0, 2, size=n)
    masks = {
        "train": np.array([1, 1, 1, 1, 0, 0, 0, 0, 0, 0], dtype=bool),
        "val": np.array([0, 0, 0, 0, 1, 1, 1, 0, 0, 0], dtype=bool),
        "test": np.array([0, 0, 0, 0, 0, 0, 0, 1, 1, 1], dtype=bool),
    }
    return gn.GraphBatch(feats, edges, labels, masks=masks)


class TestSyntheticSuite:
    def test_trees_have_tree_edge_counts_and_are_connected(self):
        batch = _small_batch()
        per_graph = _graph_edge_lists(batch)
        nodes_of = {g: np.nonzero(batch.graph_ids == g)[0] for g in range(batch.num_graphs)}
        for g in range(batch.num_graphs):
            if batch.labels[g] != 0:
                continue
            nodes = nodes_of[g]
            edges = per_graph[g]
            assert len(edges) == len(nodes) - 1
            adj = {int(v): set() for v in nodes}
            for s, d in edges:
                adj[s].add(d)
                adj[d].add(s)
            seen = {int(nodes[0])}
            frontier = [int(nodes[0])]
            while frontier:
                cur = frontier.pop()
                for nxt in adj[cur]:
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            assert seen == {int(v) for v in nodes}

    def test_exact_class_balance(self):
        batch = _small_batch()
        assert int(np.sum(batch.labels == 0)) == batch.num_graphs // 2
        assert int(np.sum(batch.labels == 1)) == batch.num_graphs // 2

    def test_features_are_one_hot_capped_degree(self):
        batch = _small_batch()
        degree = np.zeros(batch.num_nodes, dtype=np.int64)
        np.add.at(degree, batch.edges[:, 0], 1)
        np.add.at(degree, batch.edges[:, 1], 1)
        capped = np.minimum(degree, 8)
        assert batch.features.shape == (batch.num_nodes, 9)
        np.testing.assert_array_equal(batch.features.sum(axis=1), 1.0)
        np.testing.assert_array_equal(np.argmax(batch.features, axis=1), capped)

    def test_split_is_60_20_20_over_graphs(self):
        splits = gn.graph_split_indices(200)
        assert len(splits["train"]) == 120
        assert len(splits["val"]) == 40
        assert len(splits["test"]) == 40
        joined = np.concatenate([splits["train"], splits["val"], splits["test"]])
        np.testing.assert_array_equal(np.sort(joined), np.arange(200))

    def test_generation_is_deterministic_per_seed(self):
        a = gn.synth_trees_vs_random(60, 12, seed=4)
        b = gn.synth_trees_vs_random(60, 12, seed=4)
        c = gn.synth_trees_vs_random(60, 12, seed=1)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.edges, b.edges)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert not np.array_equal(a.edges, c.edges)

    def test_histogram_oracle_is_strong_but_beatable(self):
        acc = gn.degree_histogram_baseline(_small_batch())
        assert 0.6 <= acc <= 0.99

    def test_generation_validation(self):
        with pytest.raises(ParameterError):
            gn.synth_trees_vs_random(n_graphs=7, nodes_per_graph=12)
        with pytest.raises(ParameterError):
            gn.synth_trees_vs_random(n_graphs=10, nodes_per_graph=4)


class TestGraphBatch:
    def test_rejects_bad_structure(self, rng):
        feats = np.ones((4, 2))
        gids = np.zeros(4, dtype=int)
        with pytest.raises(DataFormatError):
            gn.GraphBatch(feats, np.array([[0, 9]]), np.array([0]), graph_ids=gids)
        with pytest.raises(DataFormatError):
            gn.GraphBatch(feats, np.array([[2, 2]]), np.array([0]), graph_ids=gids)
        with pytest.raises(DataFormatError):
            gn.GraphBatch(
                feats, np.array([[0, 1], [1, 0]]), np.array([0]), graph_ids=gids
            )
        with pytest.raises(DataFormatError):
            gn.GraphBatch(feats, np.array([[0, 1]]), np.array([0, 0]), graph_ids=gids)
        with pytest.raises(DataFormatError):
            gn.GraphBatch(feats, np.array([[0, 1]]), np.array([0]))

    def test_rejects_overlapping_masks(self):
        feats = np.ones((3, 2))
        masks = {
            "train": np.array([True, True, False]),
            "val": np.array([False, True, False]),
            "test": np.array([False, False, True]),
        }
        with pytest.raises(DataFormatError):
            gn.GraphBatch(feats, np.array([[0, 1]]), np.array([0, 1, 0]), masks=masks)

    def test_edge_arrays_sorted_and_symmetric(self):
        feats = np.ones((4, 2))
        batch = gn.GraphBatch(
            feats,
            np.array([[2, 0], [0, 1]]),
            np.array([0]),
            graph_ids=np.zeros(4, dtype=int),
        )
        src, dst = gn.edge_arrays(batch)
        order = np.lexsort((src, dst))
        np.testing.assert_array_equal(order, np.arange(len(src)))
        # each undirected pair appears in both directions; node 3 is
        # isolated and falls back to itself
        pairs = set(zip(src.tolist(), dst.tolist()))
        assert pairs == {(2, 0), (0, 2), (0, 1), (1, 0), (3, 3)}
        assert bool(batch.isolated[3]) is True
        assert not batch.isolated[:3].any()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("edges", [[0.5, 1.7]]),
            ("edges", [[0, 2**70]]),
            ("labels", [1.5]),
            ("labels", [np.inf]),
            ("labels", np.array([2**63], dtype=np.uint64)),
            ("graph_ids", [0, 0, 0.5, 0]),
            ("graph_ids", ["0", "0", "0", "0"]),
        ],
    )
    def test_index_fields_hold_int64_integers(self, field, value):
        # a cast would truncate 0.5 to 0, wrap 2**63 and overflow on 2**70
        parts = {"edges": [[0, 1]], "labels": [1], "graph_ids": [0, 0, 0, 0]}
        with pytest.raises(DataFormatError, match=repr(field)):
            gn.GraphBatch(np.ones((4, 2)), **{**parts, field: value})
        # whole floats are integers
        batch = gn.GraphBatch(
            np.ones((4, 2)), [[0.0, 1.0]], [1.0, 0.0], graph_ids=[0.0, 0.0, 1.0, 1.0]
        )
        assert batch.edges.dtype == batch.labels.dtype == batch.graph_ids.dtype == np.int64

    def test_labels_lie_below_the_labelled_units(self, rng):
        # the head holds one row per class up to the largest label, so a
        # label of 10**7 on 20 graphs would allocate 10**7 rows
        graphs = gn.synth_trees_vs_random(20, 8, seed=1)
        labels = graphs.labels.copy()
        labels[3] = 10**7
        bound = "'labels' holds 10000000, not below the 20 labelled graphs"
        batch = gn.GraphBatch(graphs.features, graphs.edges, labels, graph_ids=graphs.graph_ids)
        with pytest.raises(DataFormatError, match=bound):
            batch.num_classes
        labels[3] = 19
        assert gn.GraphBatch(
            graphs.features, graphs.edges, labels, graph_ids=graphs.graph_ids
        ).num_classes == 20
        nodes = _node_task_batch(rng)
        labels = nodes.labels.copy()
        labels[0] = nodes.num_nodes
        batch = gn.GraphBatch(nodes.features, nodes.edges, labels, masks=nodes.masks)
        with pytest.raises(DataFormatError, match="not below the 10 labelled nodes"):
            batch.num_classes

    @pytest.mark.parametrize("value", (["x", 0, 0], [2, 0, 0], [0.5, 0, 0], [None, 0, 0], "100"))
    def test_masks_hold_booleans_or_0_1(self, value):
        masks = {"train": [True, False, False], "val": [0, 1, 0], "test": [0.0, 0.0, 1.0]}
        batch = gn.GraphBatch(np.ones((3, 2)), [[0, 1]], [0, 1, 0], masks=masks)
        assert [batch.masks[k].tolist() for k in gn.SPLITS] == [
            [True, False, False], [False, True, False], [False, False, True]
        ]
        with pytest.raises(DataFormatError, match="'train'"):
            gn.GraphBatch(np.ones((3, 2)), [[0, 1]], [0, 1, 0], masks={**masks, "train": value})
        with pytest.raises(DataFormatError, match="masks"):
            gn.GraphBatch(np.ones((3, 2)), [[0, 1]], [0, 1, 0], masks="train val test")

    def test_arrays_are_read_only_copies(self, rng):
        source = _node_task_batch(rng)
        parts = {
            "features": source.features.copy(),
            "edges": source.edges.copy(),
            "labels": source.labels.copy(),
            "masks": {k: v.copy() for k, v in source.masks.items()},
        }
        batch = gn.GraphBatch(**parts)
        graph = _small_batch()
        for array in (*parts.values(), *parts["masks"].values()):
            if isinstance(array, np.ndarray):
                assert array.flags.writeable  # the caller's arrays stay theirs
        for array in (
            batch.features, batch.edges, batch.labels, *batch.masks.values(), graph.graph_ids
        ):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        assert not np.shares_memory(batch.features, parts["features"])


def _loop_macro_f1(y_true, y_pred):
    """Macro-F1 as one pass of boolean masks per class: the oracle for
    gn.macro_f1_score and gn._scores."""
    scores = []
    for c in np.unique(np.concatenate([y_true, y_pred])):
        tp = float(np.sum((y_pred == c) & (y_true == c)))
        fp = float(np.sum((y_pred == c) & (y_true != c)))
        fn = float(np.sum((y_pred != c) & (y_true == c)))
        denom = 2 * tp + fp + fn
        scores.append(0.0 if denom == 0 else 2 * tp / denom)
    return float(np.mean(scores))


def _split_metrics(logits, labels, idx):
    """(accuracy, macro-F1, loss) of the rows idx scored alone: a
    log-softmax and an argmax of those rows only, the oracle for
    gn._scores."""
    rows = logits[idx]
    y = labels[idx]
    shifted = rows - rows.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    loss = float(-np.mean(logp[np.arange(len(y)), y]))
    pred = np.argmax(rows, axis=1)
    return float(np.mean(pred == y)), _loop_macro_f1(y, pred), loss


class TestMetrics:
    def test_macro_f1_on_a_hand_confusion_fixture(self):
        # per class: f1(0) = 4/7, f1(1) = 4/7, f1(2) = 2/3
        y_true = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 2])
        y_pred = np.array([0, 0, 1, 2, 1, 1, 0, 2, 2, 1])
        got = gn.macro_f1_score(y_true, y_pred)
        np.testing.assert_allclose(got, 38.0 / 63.0, rtol=1e-12)

    def test_macro_f1_edges(self):
        np.testing.assert_allclose(
            gn.macro_f1_score(np.array([1, 0, 1]), np.array([1, 0, 1])), 1.0
        )
        # constant predictor on balanced labels: f1 = (0 + 2/3) / 2
        got = gn.macro_f1_score(np.array([0, 0, 1, 1]), np.array([0, 0, 0, 0]))
        np.testing.assert_allclose(got, (0.0 + 2.0 / 3.0) / 2.0, rtol=1e-12)
        with pytest.raises(ParameterError):
            gn.macro_f1_score(np.array([]), np.array([]))

    def test_macro_f1_matches_the_mask_loop(self):
        rng = np.random.default_rng(4)
        for trial in range(200):
            n = int(rng.integers(1, 40))
            # labels need not start at 0 or be contiguous
            values = rng.integers(-3, 3, size=5) * int(rng.integers(1, 1000))
            y_true, y_pred = values[rng.integers(0, 5, size=(2, n))]
            assert gn.macro_f1_score(y_true, y_pred) == _loop_macro_f1(y_true, y_pred), trial

    def test_scores_match_each_split_scored_alone(self):
        # logits of few distinct values tie the argmax often; some classes
        # are absent from a part, and some parts hold one class only
        rng = np.random.default_rng(8)
        for trial in range(200):
            n, C = int(rng.integers(3, 60)), int(rng.integers(2, 6))
            logits = rng.integers(-2, 2, size=(n, C)) * rng.choice([1.0, 0.37, 1e-3])
            if trial % 2:
                logits = logits + rng.standard_normal((n, C))
            labels = rng.integers(0, C, size=n)
            order = rng.permutation(n)
            parts = [np.sort(p) for p in np.split(order, sorted(rng.integers(1, n, size=2)))]
            parts = [p for p in parts if p.size]
            if trial % 3 == 0:
                labels[parts[0]] = labels[parts[0][0]]
            if trial % 5 == 0:
                parts.append(order[: int(rng.integers(1, n + 1))])  # unsorted, overlapping
            got = gn._scores(logits, labels, parts)
            assert got == [_split_metrics(logits, labels, p) for p in parts], trial

    def test_evaluate_matches_direct_recomputation(self):
        batch = _small_batch()
        model = gn.build_hkn(gn.HKNConfig(), feature_dim=9, num_classes=2)
        got = gn.evaluate(model, batch, "test")
        logits = np.asarray(gn.forward_logits(model, batch))
        idx = gn.split_indices(batch, "test")
        pred = np.argmax(logits[idx], axis=1)
        y = batch.labels[idx]
        np.testing.assert_allclose(got.accuracy, np.mean(pred == y), rtol=1e-15)
        np.testing.assert_allclose(got.macro_f1, gn.macro_f1_score(y, pred), rtol=1e-15)
        assert 0.0 <= got.accuracy <= 1.0

    def test_evaluate_does_not_mutate_parameters(self):
        batch = _small_batch()
        model = gn.build_hkn(gn.HKNConfig(), feature_dim=9, num_classes=2)
        before = {p: v.copy() for p, v in model.store.items()}
        gn.evaluate(model, batch, "val")
        for p, v in model.store.items():
            np.testing.assert_array_equal(v, before[p])

    def test_empty_split_is_an_error(self, rng):
        feats = np.ones((3, 2))
        batch = gn.GraphBatch(
            feats,
            np.array([[0, 1], [1, 2]]),
            np.array([0]),
            graph_ids=np.zeros(3, dtype=int),
        )
        model = gn.build_hkn(gn.HKNConfig(), feature_dim=2, num_classes=2)
        with pytest.raises(ParameterError):
            gn.evaluate(model, batch, "train")


class TestModelAssembly:
    @pytest.mark.parametrize(
        "cfg, feature_dim",
        (
            (gn.HKNConfig(), 9),
            (gn.HKNConfig(K=8, pooling_weights="attention", task="node"), 4),
            (gn.HKNConfig(layers=3, K=3, hidden_dim=5), 2),
        ),
        ids=("graph-default", "node-attention", "three-layers"),
    )
    def test_store_holds_five_stacked_leaves_per_conv_layer(self, cfg, feature_dim):
        # each conv layer's K kernels share one leaf per PARAM_NAMES field,
        # and the head adds one: 11 leaves for both benchmark models
        model = gn.build_hkn(cfg, feature_dim=feature_dim, num_classes=3)
        K, D = cfg.K, cfg.hidden_dim
        want = {}
        for i in range(cfg.layers):
            W = (feature_dim if i == 0 else D) + 1
            shapes = ((K, D, W), (K, W), (K, D), (K,), (K,))
            want.update({f"layer{i}.{n}": s for n, s in zip(layers.PARAM_NAMES, shapes)})
        want["head.centroids"] = (3, D)
        assert {p: v.shape for p, v in model.store.items()} == want
        assert len(want) == 5 * cfg.layers + 1
        # kernel k's slices are the transform init_hlinear draws k-th
        rng = np.random.Generator(np.random.Philox(key=cfg.seed))
        for i in range(cfg.layers):
            for k in range(K):
                drawn = layers.init_hlinear(rng, model.layer_kernels[i].cfg.dim, D)
                for name, value in zip(layers.PARAM_NAMES, drawn.values()):
                    _assert_bits(model.store[f"layer{i}.{name}"][k], np.asarray(value))

    def test_graph_task_emits_one_logit_row_per_graph(self):
        feats = np.ones((3, 2))
        triangle = gn.GraphBatch(
            feats,
            np.array([[0, 1], [1, 2], [0, 2]]),
            np.array([0]),
            graph_ids=np.zeros(3, dtype=int),
        )
        model = gn.build_hkn(gn.HKNConfig(), feature_dim=2, num_classes=2)
        logits = np.asarray(gn.forward_logits(model, triangle))
        assert logits.shape == (1, 2)
        assert np.all(np.isfinite(logits))

    def test_node_task_logits_permute_with_nodes_bitwise(self, rng):
        batch = _node_task_batch(rng)
        cfg = gn.HKNConfig(task="node", hidden_dim=6, K=3)
        model = gn.build_hkn(cfg, feature_dim=4, num_classes=2)
        base = np.asarray(gn.forward_logits(model, batch))
        perm = rng.permutation(batch.num_nodes)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(batch.num_nodes)
        permuted = gn.GraphBatch(
            batch.features[perm],
            inv[batch.edges],
            batch.labels[perm],
            masks={k: v[perm] for k, v in batch.masks.items()},
        )
        out = np.asarray(gn.forward_logits(model, permuted))
        np.testing.assert_array_equal(out, base[perm])

    @pytest.mark.parametrize(
        "pooling, ops, dropout",
        (
            pytest.param("uniform", 43, 0.0, id="uniform-43"),
            pytest.param("attention", 56, 0.0, id="attention-56"),
            pytest.param("uniform", 43, 0.3, id="uniform-dropout-43"),
        ),
    )
    def test_gradient_tape_op_budget(self, pooling, ops, dropout):
        # each Lorentz map and each conv layer's edge points (recentering,
        # kernel aggregation and normalization) is one tape node; each
        # layer's points, computed once per distinct class pair, are
        # gathered back to its edges by one more (and, with attention, the
        # pairs' distances by another), the second layer's class rows are
        # gathered for its pairs, and one more gather maps the last class
        # rows to the nodes; with dropout every edge is its own pair and
        # those gathers are identities, but the tape holds the same nodes;
        # this count is exact, so a change that re-inflates the tape shows
        # here
        data = gn.synth_trees_vs_random(n_graphs=20, nodes_per_graph=8, seed=1)
        model = gn.build_hkn(
            gn.HKNConfig(pooling_weights=pooling, dropout=dropout),
            feature_dim=data.feature_dim,
            num_classes=data.num_classes,
        )
        train_idx = gn.split_indices(data, "train")
        rng = np.random.default_rng(0)
        logits = gn.forward_logits(model, data, model.store.tensors(), training=True, rng=rng)
        loss = gn._nll(logits, data.labels[train_idx], train_idx, model.num_classes)
        tape = ad.Tape(loss)
        assert sum(node.op != "leaf" for node in tape._nodes) == ops

    @pytest.mark.parametrize("dropout, first_rows", ((0.0, 64), (0.3, 7872)))
    def test_first_layer_runs_once_per_distinct_row_pair(self, monkeypatch, dropout, first_rows):
        # criterion 9's suite: 9 distinct one-hot feature rows make 64
        # distinct (root, neighbor) pairs among 7,872 edges, and its 435
        # depth-1 classes 3,926 distinct class pairs among the edges of one
        # node per depth-2 class; dropout masks differ per edge, so every
        # node is its own class and each dropout layer runs every edge
        data = gn.synth_trees_vs_random(200, 16, seed=0)
        model = gn.build_hkn(gn.HKNConfig(dropout=dropout), feature_dim=9, num_classes=2)
        idx = gn.split_indices(data, "train")
        edges = len(gn.edge_arrays(data)[0])
        seen = []
        inner = layers._edge_points

        def spy(center_rows, *args):
            out = inner(center_rows, *args)
            seen.append((len(ad.value_of(center_rows)), isinstance(out, ad.Tensor)))
            return out

        def loss(leaves):
            rng = np.random.default_rng(0)
            logits = gn.forward_logits(model, data, leaves, training=True, rng=rng)
            return gn._nll(logits, data.labels[idx], idx, model.num_classes)

        monkeypatch.setattr(layers, "_edge_points", spy)
        ad.grad(loss, model.store)
        assert edges == 7872
        second_rows = 3926 if dropout == 0.0 else edges
        assert seen == [(first_rows, True), (second_rows, True)]

    def test_gradients_do_not_depend_on_the_blas_thread_count(self):
        # one gradient pass on criterion 9's suite under one and two BLAS
        # threads, each in its own process, gives the same leaf bits
        src = Path(gn.__file__).resolve().parents[1]
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, **dict.fromkeys(cli._BLAS_THREAD_VARS, threads))
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
            done = subprocess.run(
                [sys.executable, "-c", _GRADIENT_DIGESTS],
                env=env, capture_output=True, text=True, check=True,
            )
            digests.append(done.stdout.splitlines())
        assert len(digests[0]) == 11 + 11
        assert digests[0] == digests[1]

    def test_gradient_pass_and_forward_memory_peaks(self):
        # criterion 9's suite; a recorded conv layer keeps its per-kernel
        # pre-normalization rows and per-row scalars, not per-kernel output
        # rows, for its distinct class pairs only (64 and 3,926 rows), and a
        # no-tape forward holds one tile of edge rows at a time
        data = gn.synth_trees_vs_random(200, 16, seed=0)
        model = gn.build_hkn(gn.HKNConfig(), feature_dim=data.feature_dim, num_classes=2)
        idx = gn.split_indices(data, "train")

        def loss(leaves):
            logits = gn.forward_logits(model, data, leaves, training=True)
            return gn._nll(logits, data.labels[idx], idx, model.num_classes)

        ad.grad(loss, model.store)
        tracemalloc.start()
        try:
            ad.grad(loss, model.store)
            grad_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            gn.forward_logits(model, data)
            forward_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grad_peak <= 11.5 * 2**20
        assert forward_peak <= 4.25 * 2**20

    def test_features_beyond_the_embedding_range_are_rejected(self):
        data = gn.synth_trees_vs_random(n_graphs=20, nodes_per_graph=8, seed=1)
        model = gn.build_hkn(gn.HKNConfig(), feature_dim=data.feature_dim, num_classes=2)
        scaled = gn.GraphBatch(
            data.features * 30.0, data.edges, data.labels, graph_ids=data.graph_ids
        )
        with pytest.raises(DomainError, match="feature row 0 has norm 30"):
            gn.forward_logits(model, scaled)

    def test_config_validation(self):
        for bad in (
            dict(layers=1),
            dict(layers=8),
            dict(K=1),
            dict(K=10),
            dict(hidden_dim=1),
            dict(dropout=1.0),
            dict(dropout=-0.1),
            dict(lr=0.0),
            dict(curvature=math.nan),
            dict(lr=math.nan),
            dict(weight_decay=math.nan),
            dict(pooling_weights="nearest"),
            dict(kernel_source="fixed"),
            dict(task="edge"),
        ):
            with pytest.raises(ParameterError):
                gn.HKNConfig(**bad)

    def test_build_rejects_inconsistent_kernels(self, cfg2):
        from hkconv import kernelgen as kg

        wrong_K = kg.random_kernels(3, 16, seed=0)
        with pytest.raises(BuildError):
            gn.build_hkn(gn.HKNConfig(K=4), wrong_K, feature_dim=9, num_classes=2)


def _reference_classes(labels, src, dst):
    """One colour-refinement step in pure Python: a class per distinct
    (class, sorted neighbor classes), numbered in order of first sight."""
    neighbors = {v: [] for v in range(len(labels))}
    for s, d in zip(src, dst):
        neighbors[int(d)].append(int(labels[s]))
    keys = {}
    return [
        keys.setdefault((int(labels[v]), tuple(sorted(neighbors[v]))), len(keys))
        for v in range(len(labels))
    ]


def _assert_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def _same_partition(a, b) -> bool:
    """a and b put the same nodes together."""
    return len(set(zip(a, b))) == len(set(a)) == len(set(b))


def _refinements(features, src, dst, depth):
    """(graphnet's, the reference's) classes at depths 0..depth."""
    feature_keys = {}
    want = [[feature_keys.setdefault(row.tobytes(), len(feature_keys)) for row in features]]
    got = [lo._row_classes(features.view(np.uint64))]
    for _ in range(depth):
        want.append(_reference_classes(want[-1], src, dst))
        got.append(lo._refine(*got[-1], src, dst)[:2])
    return [labels for labels, _ in got], want


def _class_tree(n, seed, classes=4):
    """A node task on one tree-like graph: node i >= 1 of class (i-1) % C
    hangs off an earlier node of its class (the first off the root), n // 2
    extra edges join nodes of one class, half the features name a random
    class, and the non-root nodes split 40/20/40."""
    rng = np.random.default_rng(seed)
    labels = np.zeros(n, dtype=np.int64)
    members = [[] for _ in range(classes)]
    edges = set()
    for i in range(1, n):
        c = (i - 1) % classes
        edges.add((members[c][rng.integers(len(members[c]))] if members[c] else 0, i))
        labels[i] = c
        members[c].append(i)
    while len(edges) < n - 1 + n // 2:
        edges.add(tuple(sorted(rng.choice(members[rng.integers(classes)], 2, replace=False))))
    shown = np.where(rng.random(n) < 0.5, rng.integers(0, classes, n), labels)
    parts = np.split(rng.permutation(np.arange(1, n)), [int(0.4 * (n - 1)), int(0.6 * (n - 1))])
    masks = {k: np.isin(np.arange(n), p) for k, p in zip(gn.SPLITS, parts)}
    return gn.GraphBatch(np.eye(classes)[shown], np.array(sorted(edges)), labels, masks=masks)


def _suite(name):
    """(data, model config) of a named test suite: criterion 9's, the
    node-attention class tree, criterion 9's with all-distinct (noisy) or
    all-equal features, or criterion 9's with a K=3 dropout-0.3 model or a
    K=2 dropout-0.8 one on 4 hidden dimensions, whose masks drop about 41%
    of their rows whole."""
    data = gn.synth_trees_vs_random(200, 16, seed=0)
    cfg = gn.HKNConfig()
    if name == "class_tree":
        data = _class_tree(600, seed=3)
        cfg = gn.HKNConfig(K=8, pooling_weights="attention", task="node")
    elif name == "distinct":
        noise = np.random.default_rng(5).normal(0.0, 0.05, data.features.shape)
        data = gn.GraphBatch(data.features + noise, data.edges, data.labels, graph_ids=data.graph_ids)
    elif name == "constant":
        data = gn.GraphBatch(
            np.full_like(data.features, 0.3), data.edges, data.labels, graph_ids=data.graph_ids
        )
    elif name == "dropout":
        cfg = gn.HKNConfig(K=3, dropout=0.3)
    elif name == "whole-row-dropout":
        cfg = gn.HKNConfig(K=2, hidden_dim=4, dropout=0.8)
    return data, cfg


def _per_node_logits(model, batch, leaves, training=False, rng=None):
    """forward_logits with every node its own row: each layer runs its
    edge points on every edge, from the rows gathered for it, and pools
    each node's edges in ascending order of the neighbor's class at that
    depth (graphnet's classes, as _refinements gives them), then each
    graph's nodes in ascending order of their last class. With dropout
    every node is its own class, so edges pool in edge_arrays order and
    nodes in node order, and the masks are drawn per kernel, one (edges,
    hidden_dim) draw after another, and stacked."""
    cfg, kappa = model.cfg, model.cfg.curvature
    src, dst = gn.edge_arrays(batch)
    if training and cfg.dropout > 0.0:
        classes = [np.arange(batch.num_nodes)] * (cfg.layers + 1)
    else:
        classes = _refinements(batch.features, src, dst, cfg.layers)[0]
    degree = np.bincount(dst)
    x = lmath.embed(batch.features, kappa)
    for i in range(cfg.layers):
        mask = None
        if training and cfg.dropout > 0.0:
            keep = 1.0 - cfg.dropout
            masks = [(rng.random((len(src), cfg.hidden_dim)) < keep) / keep for _ in range(cfg.K)]
            for m in masks:  # a row that drops every entry keeps them all
                m[np.all(m == 0.0, axis=1)] = 1.0 / keep
            mask = np.stack(masks, axis=1)
        order = np.lexsort((classes[i][src], dst))
        if mask is not None:
            mask = mask[order]
        params = tuple(leaves[f"layer{i}.{name}"] for name in layers.PARAM_NAMES)
        centers, neighbors = ad.take(x, dst[order]), ad.take(x, src[order])
        kernel_rows = model.layer_kernels[i].coords_array()
        points = layers._edge_points(centers, neighbors, params, kernel_rows, kappa, mask)
        w = None
        if cfg.pooling_weights == "attention":
            d = lmath.dist(centers, neighbors, kappa)
            w = layers.attention_weights(d, ad.value_of(x).shape[-1] - 1, degree)
        x = layers.hcent_core(points, w, degree, kappa)
    if cfg.task == "graph":
        nodes = np.lexsort((classes[-1], batch.graph_ids))
        x = layers.hcent_core(ad.take(x, nodes), None, np.bincount(batch.graph_ids), kappa)
    return -lmath.cross_dist(x, lmath.embed(leaves["head.centroids"], kappa), kappa)


def _kernel_slices(grads):
    """Every adjoint by (path, kernel): a conv layer's stacked leaf split
    along its kernel axis, the head's whole under kernel None."""
    out = {}
    for path, g in grads.items():
        if path.startswith("layer"):
            out.update({(path, k): g[k] for k in range(len(g))})
        else:
            out[path, None] = g
    return out


class TestStructuralClasses:
    """Colour refinement against a pure-Python reference, and the forward
    that runs each conv layer once per class against the per-node one."""

    def test_refinement_matches_the_reference_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for trial in range(12):
            n = int(rng.integers(5, 60))
            pairs = {tuple(sorted(p)) for p in rng.integers(0, n, size=(2 * n, 2)) if p[0] != p[1]}
            edges = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
            features = np.eye(3)[rng.integers(0, 1 + trial % 3, size=n)]
            batch = gn.GraphBatch(features, edges, np.zeros(1), graph_ids=np.zeros(n, dtype=int))
            got, want = _refinements(features, *gn.edge_arrays(batch), 4)
            for depth, (a, b) in enumerate(zip(got, want)):
                assert _same_partition(a, b), (trial, depth)

    def test_isolated_nodes_refine_over_their_self_entries(self):
        # nodes 3 and 4 have no edges, so edge_arrays gives each one self
        # entry: node 4 (A, next to itself) matches node 0 (A, next to A) at
        # depth 1 and not at depth 2, where node 0's neighbor is node 1 (A,
        # next to A and B)
        features = np.eye(2)[[0, 0, 1, 1, 0]]
        batch = gn.GraphBatch(features, [[0, 1], [1, 2]], np.zeros(1), graph_ids=np.zeros(5, int))
        src, dst = gn.edge_arrays(batch)
        got, want = _refinements(features, src, dst, 3)
        for a, b in zip(got, want):
            assert _same_partition(a, b)
        assert got[1][4] == got[1][0] and got[2][4] != got[2][0]
        assert got[1][3] != got[1][2]

    def test_neighbor_multisets_are_told_apart(self):
        # roots 0 and 4 see {A, A, B} and roots 8 and 12 see {A, B, B}
        hubs = [0, 4, 8, 12]
        edges = [[h, h + j] for h in hubs for j in (1, 2, 3)]
        kinds = {1: 0, 2: 0, 3: 1, 5: 1, 6: 0, 7: 0, 9: 0, 10: 1, 11: 1, 13: 1, 14: 0, 15: 1}
        features = np.eye(3)[[2 if v in hubs else kinds[v] for v in range(16)]]
        batch = gn.GraphBatch(features, edges, np.zeros(1), graph_ids=np.zeros(16, int))
        classes = lo._row_classes(features.view(np.uint64))
        labels = lo._refine(*classes, *gn.edge_arrays(batch))[0]
        assert labels[0] == labels[4] and labels[8] == labels[12] and labels[0] != labels[8]

    def test_signed_zero_features_are_distinct_classes(self):
        features = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]])
        labels, count = lo._row_classes(features.view(np.uint64))
        assert count == 2 and labels[0] == labels[2] != labels[1]

    def test_hub_keys_take_memory_linear_in_the_edges(self):
        # a star of degree 5,000: a (nodes x largest degree) key matrix
        # would hold 25 million entries, 50 MB even as uint16
        n = 5001
        batch = gn.GraphBatch(
            np.eye(2)[np.arange(n) % 2],
            np.stack([np.zeros(n - 1, dtype=int), np.arange(1, n)], axis=1),
            np.zeros(1),
            graph_ids=np.zeros(n, int),
        )
        src, dst = gn.edge_arrays(batch)
        labels, count = lo._row_classes(batch.features.view(np.uint64))
        tracemalloc.start()
        try:
            refined, refined_count, _ = lo._refine(labels, count, src, dst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20
        assert refined_count == 3
        assert _same_partition(refined, _reference_classes(labels, src, dst))

    def test_dropout_layout_is_edge_arrays_order(self):
        # dropout masks are drawn per edge in edge_arrays order, so with
        # distinct every node is its own class and each layer's pairs are
        # exactly (dst, src), one per edge
        data = gn.synth_trees_vs_random(20, 8, seed=1)
        src, dst = gn.edge_arrays(data)
        n = data.num_nodes
        feature_rows, layer_edges, labels = lo._class_layers(data.features, src, dst, 3, True)
        np.testing.assert_array_equal(feature_rows, np.arange(n))
        np.testing.assert_array_equal(labels, np.arange(n))
        assert len(layer_edges) == 3
        for roots, neighbors, edges, counts, count in layer_edges:
            np.testing.assert_array_equal(roots, dst)
            np.testing.assert_array_equal(neighbors, src)
            np.testing.assert_array_equal(edges, np.arange(len(src)))
            np.testing.assert_array_equal(counts, np.bincount(dst, minlength=n))
            assert count == n

    def test_all_distinct_features_relabel_bitwise(self):
        # criterion 9's suite with N(0, 0.05^2) feature noise: every node is
        # its own class, so every pooling order comes from the byte ranks of
        # the feature rows, which a relabeling of the nodes cannot change
        data = gn.synth_trees_vs_random(200, 16, seed=0)
        noise = np.random.default_rng(5).normal(0.0, 0.05, data.features.shape)
        data = gn.GraphBatch(
            data.features + noise, data.edges, data.labels, graph_ids=data.graph_ids
        )
        assert lo._row_classes(data.features.view(np.uint64))[1] == data.num_nodes
        perm = np.random.default_rng(7).permutation(data.num_nodes)
        inv = np.argsort(perm)
        moved = gn.GraphBatch(
            data.features[inv], perm[data.edges], data.labels, graph_ids=data.graph_ids[inv]
        )
        model = gn.build_hkn(gn.HKNConfig(), feature_dim=data.feature_dim, num_classes=2)
        _assert_bits(
            np.asarray(gn.forward_logits(model, moved)), np.asarray(gn.forward_logits(model, data))
        )

    @pytest.mark.parametrize(
        "suite", ("criterion9", "class_tree", "distinct", "constant", "dropout", "whole-row-dropout")
    )
    def test_logits_and_gradients_match_the_per_node_forward(self, suite):
        data, cfg = _suite(suite)
        model = gn.build_hkn(cfg, feature_dim=data.feature_dim, num_classes=data.num_classes)
        idx = gn.split_indices(data, "train")
        want = np.asarray(_per_node_logits(model, data, dict(model.store.items())))
        _assert_bits(np.asarray(gn.forward_logits(model, data)), want)
        recorded = {}

        def loss(forward):
            def run(leaves):
                rng = np.random.Generator(np.random.Philox(key=7))
                logits = forward(model, data, leaves, training=True, rng=rng)
                recorded[forward] = ad.value_of(logits)
                return gn._nll(logits, data.labels[idx], idx, model.num_classes)

            return run

        got_grads = _kernel_slices(ad.grad(loss(gn.forward_logits), model.store))
        want_grads = _kernel_slices(ad.grad(loss(_per_node_logits), model.store))
        _assert_bits(recorded[gn.forward_logits], recorded[_per_node_logits])
        largest = max(np.max(np.abs(g)) for g in want_grads.values())
        for (path, k), g in want_grads.items():
            scale = np.max(np.abs(g))
            if suite == "constant" and path.startswith("layer0."):
                # the second layer recentres equal rows to the origin, so the
                # first layer's exact gradient is zero
                scale = largest
            assert np.max(np.abs(got_grads[path, k] - g)) <= 1e-12 * scale, (path, k)


def _bench_checks():
    """The benchmark's output checks (bench/checks.py), loaded by path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "checks.py"
    spec = importlib.util.spec_from_file_location("bench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spy_layout(monkeypatch) -> dict:
    """Count the calls of layout.edge_arrays and layout._class_layers."""
    calls = {"edge_arrays": 0, "_class_layers": 0}
    for name in calls:

        def spy(*args, _inner=getattr(lo, name), _name=name):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(lo, name, spy)
    return calls


def _tiny_model(data, **changes):
    cfg = gn.HKNConfig(K=2, kernel_source="random", task=data.task, **changes)
    return gn.build_hkn(cfg, feature_dim=data.feature_dim, num_classes=data.num_classes)


class TestKeptLayout:
    """A batch prepares its class layout once per (depth, distinct) and
    keeps it; what it keeps is read-only, so it cannot go stale."""

    def test_prepared_once_per_batch_depth_and_dropout(self, monkeypatch):
        data = gn.synth_trees_vs_random(20, 8, seed=1)
        calls = _spy_layout(monkeypatch)
        plain = _tiny_model(data)
        gn.train(plain, data, gn.TrainConfig(max_epochs=4))
        gn.evaluate(plain, data, "test")
        assert calls == {"edge_arrays": 1, "_class_layers": 1}
        # dropout trains on every node its own class and scores on the
        # classes: its layout joins the plain one on the same batch
        dropped = _tiny_model(data, dropout=0.3)
        gn.train(dropped, data, gn.TrainConfig(max_epochs=4))
        gn.evaluate(dropped, data, "test")
        assert calls == {"edge_arrays": 2, "_class_layers": 2}
        assert data.class_layout(2, True) is not data.class_layout(2, False)
        # in the dropout layout every layer's pairs are the directed edges
        edges = len(gn.edge_arrays(data)[0])
        assert [len(pairs[0]) for pairs in data.class_layout(2, True).layer_edges] == [edges] * 2
        gn.evaluate(_tiny_model(data, layers=3), data, "test")
        assert calls == {"edge_arrays": 3, "_class_layers": 3}
        gn.evaluate(plain, gn.GraphBatch(data.features, data.edges, data.labels, data.graph_ids), "test")
        assert calls == {"edge_arrays": 4, "_class_layers": 4}

    def test_a_relabelled_batch_gets_its_own_layout(self, monkeypatch):
        data = gn.synth_trees_vs_random(20, 8, seed=1)
        model = _tiny_model(data)
        logits = np.asarray(gn.forward_logits(model, data))
        perm = np.random.default_rng(3).permutation(data.num_nodes)
        moved = _bench_checks().relabel_batch(gn.GraphBatch, data, perm)
        calls = _spy_layout(monkeypatch)
        _assert_bits(np.asarray(gn.forward_logits(model, moved)), logits)
        assert calls == {"edge_arrays": 1, "_class_layers": 1}
        # class ids come from feature bytes and structure, so each node
        # keeps its class under its new name
        plan, moved_plan = data.class_layout(2, False), moved.class_layout(2, False)
        assert moved_plan is not plan
        np.testing.assert_array_equal(moved_plan.labels[perm], plan.labels)

    def test_changing_the_source_arrays_leaves_the_logits(self):
        data = gn.synth_trees_vs_random(20, 8, seed=1)
        model = _tiny_model(data)
        want = np.asarray(gn.forward_logits(model, data))
        parts = [data.features.copy(), data.edges.copy(), data.labels.copy(), data.graph_ids.copy()]
        batch = gn.GraphBatch(*parts)

        def scramble():
            parts[0] *= -2.0
            parts[1][:] = parts[1][::-1, ::-1]
            parts[2] ^= 1
            parts[3][:] = parts[3][::-1]

        scramble()  # before the layout is prepared
        _assert_bits(np.asarray(gn.forward_logits(model, batch)), want)
        scramble()  # and after
        _assert_bits(np.asarray(gn.forward_logits(model, batch)), want)

    def test_batch_and_layout_arrays_are_read_only(self):
        data = gn.synth_trees_vs_random(20, 8, seed=1)
        plan = data.class_layout(2, False)
        arrays = [data.features, data.edges, data.labels, data.graph_ids]
        arrays += [plan.features, plan.labels, plan.pooled, plan.graph_counts]
        arrays += [a for layer in plan.layer_edges for a in layer if isinstance(a, np.ndarray)]
        assert len(arrays) == 16
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.labels = None

    @pytest.mark.parametrize("suite", ("criterion9", "class_tree", "distinct", "dropout"))
    def test_kept_layout_matches_a_fresh_batch_bitwise(self, suite):
        data, cfg = _suite(suite)
        model = gn.build_hkn(cfg, feature_dim=data.feature_dim, num_classes=data.num_classes)
        idx = gn.split_indices(data, "train")

        def run(batch):
            rng = np.random.Generator(np.random.Philox(key=7))
            logits = np.asarray(gn.forward_logits(model, batch))

            def loss(leaves):
                out = gn.forward_logits(model, batch, leaves, training=True, rng=rng)
                return gn._nll(out, batch.labels[idx], idx, model.num_classes)

            return logits, ad.grad(loss, model.store)

        run(data)  # prepares and keeps the layouts
        kept = run(data)
        fresh = run(gn.GraphBatch(data.features, data.edges, data.labels, data.graph_ids, data.masks))
        _assert_bits(kept[0], fresh[0])
        assert kept[1].keys() == fresh[1].keys()
        for path, g in fresh[1].items():
            _assert_bits(kept[1][path], g)


def _readout_case(draw):
    """A node-task batch drawn for the readout property, its model, and
    the test split as the readout: up to 14 nodes (isolated ones too),
    one-hot or continuous features, 2-4 layers, K 2-8, width 4/8/16,
    either pooling, and 1..n readout nodes."""
    n = draw(st.integers(1, 14))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    edges = sorted({(min(p), max(p)) for p in pairs if p[0] != p[1]})
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        features = np.eye(3)[rng.integers(0, 3, size=n)]
    else:
        features = 0.5 * rng.standard_normal((n, 3))
    readout = np.zeros(n, dtype=bool)
    readout[draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))] = True
    rest = rng.integers(0, 3, size=n)
    masks = {"train": ~readout & (rest == 0), "val": ~readout & (rest == 1), "test": readout}
    batch = gn.GraphBatch(features, np.array(edges).reshape(-1, 2), rng.integers(0, 3, n), masks=masks)
    cfg = gn.HKNConfig(
        layers=draw(st.integers(2, 4)),
        K=draw(st.integers(2, 8)),
        hidden_dim=draw(st.sampled_from((4, 8, 16))),
        pooling_weights=draw(st.sampled_from(layers.POOLINGS)),
        kernel_source="random",
        task="node",
        seed=draw(st.integers(0, 50)),
    )
    return batch, gn.build_hkn(cfg, feature_dim=3, num_classes=3)


class TestSplitReadout:
    """evaluate on a node task runs the forward on the split's receptive
    field alone (layout.restrict), and its rows keep the full forward's
    bits."""

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_restricted_rows_keep_the_full_forwards_bits(self, data):
        batch, model = _readout_case(data.draw)
        idx = gn.split_indices(batch, "test")
        full = np.asarray(gn.forward_logits(model, batch))
        rows = np.asarray(gn.forward_logits(model, gn._SplitNodes(batch, "test")))
        # a lone readout node is read out twice, unless the graph has one node
        assert len(rows) == max(idx.size, min(batch.num_nodes, 2))
        _assert_bits(rows[: idx.size], full[idx])
        got = gn.evaluate(model, batch, "test")
        assert (got.accuracy, got.macro_f1, got.loss) == _split_metrics(full, batch.labels, idx)

    @pytest.mark.parametrize("depth", (2, 4))
    def test_all_nodes_restrict_to_the_full_layout(self, depth):
        data = _class_tree(300, seed=5)
        plan = data.class_layout(depth, False)
        whole = lo.restrict(plan, np.arange(data.num_nodes))
        _assert_bits(whole.features, plan.features)
        _assert_bits(whole.labels, plan.labels)
        for got, want in zip(whole.layer_edges, plan.layer_edges):
            for a, b in zip(got[:4], want[:4]):
                np.testing.assert_array_equal(a, b)
            assert got[4] == want[4]

    def test_every_split_scores_as_the_full_forward(self):
        data, cfg = _suite("class_tree")
        model = gn.build_hkn(cfg, feature_dim=data.feature_dim, num_classes=data.num_classes)
        full = np.asarray(gn.forward_logits(model, data))
        plan = data.class_layout(cfg.layers, False)
        for split in gn.SPLITS:
            idx = gn.split_indices(data, split)
            got = gn.evaluate(model, data, split)
            assert (got.accuracy, got.macro_f1, got.loss) == _split_metrics(full, data.labels, idx)
            kept = data.class_layout(cfg.layers, False, split)
            # the split reads a part of each layer's pair rows
            for part, whole in zip(kept.layer_edges, plan.layer_edges):
                assert len(part[0]) <= len(whole[0]) and part[4] <= whole[4]
            assert kept.labels.size == idx.size

    def test_a_relabelled_batch_scores_alike(self):
        data = _class_tree(300, seed=9)
        model = _tiny_model(data, pooling_weights="attention")
        perm = np.random.default_rng(2).permutation(data.num_nodes)
        moved = _bench_checks().relabel_batch(gn.GraphBatch, data, perm)
        for split in gn.SPLITS:
            idx, moved_idx = gn.split_indices(data, split), gn.split_indices(moved, split)
            rows = np.asarray(gn.forward_logits(model, gn._SplitNodes(data, split)))
            moved_rows = np.asarray(gn.forward_logits(model, gn._SplitNodes(moved, split)))
            # node i of data is node perm[i] of moved
            at = np.searchsorted(moved_idx, perm[idx])
            _assert_bits(moved_rows[at], rows)
            got, again = gn.evaluate(model, data, split), gn.evaluate(model, moved, split)
            assert (got.accuracy, got.macro_f1) == (again.accuracy, again.macro_f1)
            # the loss adds the same terms in another order
            assert math.isclose(got.loss, again.loss, rel_tol=64 * np.finfo(float).eps)

    def test_restricted_once_per_split_on_first_evaluate(self, monkeypatch):
        calls = []

        def spy(plan, readout, _inner=lo.restrict):
            calls.append(len(readout))
            return _inner(plan, readout)

        monkeypatch.setattr(lo, "restrict", spy)
        data = _class_tree(120, seed=1)
        model = _tiny_model(data)
        gn.forward_logits(model, data)
        assert calls == []  # neither the batch nor the full forward builds one
        gn.evaluate(model, data, "test")
        gn.evaluate(model, data, "test")
        assert calls == [int(data.masks["test"].sum())]
        gn.evaluate(model, data, "val")
        assert len(calls) == 2
        gn.train(model, data, gn.TrainConfig(max_epochs=2))
        assert len(calls) == 2  # train's final test metrics reuse the kept layout

    def test_empty_or_unknown_split_is_an_error(self, rng):
        batch = _node_task_batch(rng)
        model = _tiny_model(batch)
        with pytest.raises(ParameterError, match="unknown split"):
            gn.evaluate(model, batch, "holdout")
        masks = {**batch.masks, "val": np.zeros(batch.num_nodes, dtype=bool)}
        empty = gn.GraphBatch(batch.features, batch.edges, batch.labels, masks=masks)
        with pytest.raises(ParameterError, match="'val' is empty"):
            gn.evaluate(model, empty, "val")

    @pytest.mark.parametrize("task", gn.TASKS)
    def test_evaluate_runs_one_forward_through_the_benchmark_hook(self, monkeypatch, rng, task):
        # bench/workloads.py and bench/tracing.py replace forward_logits
        # with wrappers of this fixed signature, which time or trace every
        # forward evaluate runs
        data = _node_task_batch(rng) if task == "node" else _small_batch()
        model = _tiny_model(data)
        inner, calls = gn.forward_logits, []

        def hook(model, batch, leaves=None, training=False, rng=None):
            return inner(model, batch, leaves, training, rng)

        def counted(*args, **kwargs):
            calls.append((len(args), kwargs))
            return hook(*args, **kwargs)

        monkeypatch.setattr(gn, "forward_logits", counted)
        want = gn.evaluate(model, data, "test")
        assert calls == [(2, {})]
        monkeypatch.setattr(gn, "forward_logits", inner)
        again = gn.evaluate(model, data, "test")
        assert (want.accuracy, want.macro_f1, want.loss) == (
            again.accuracy, again.macro_f1, again.loss
        )


class TestTraining:
    def test_dropout_masks_and_history_keep_their_bits(self, monkeypatch):
        # criterion 9's suite, K = 3, dropout 0.3: each layer draws one
        # (K, pairs, hidden) block, which holds the numbers of K (pairs,
        # hidden) draws in sequence and leaves the generator where they do;
        # the digests were recorded with NumPy on x86-64 when every kernel
        # drew its own mask
        data = gn.synth_trees_vs_random(200, 16, seed=0)
        model = gn.build_hkn(gn.HKNConfig(K=3, dropout=0.3), feature_dim=9, num_classes=2)
        masks = []
        inner = layers._edge_points

        def spy(*args):
            masks.append(np.ascontiguousarray(args[5]))
            return inner(*args)

        monkeypatch.setattr(layers, "_edge_points", spy)
        rng = np.random.Generator(np.random.Philox(key=7))
        gn.forward_logits(model, data, training=True, rng=rng)
        monkeypatch.undo()
        again = np.random.Generator(np.random.Philox(key=7))
        for mask in masks:
            draws = [again.random((len(mask), 16)) for _ in range(3)]
            want = np.stack([gn._drop_mask(d, 0.7) for d in draws], axis=1)
            _assert_bits(mask, want)
        _assert_bits(rng.random(8), again.random(8))  # the generator is where they leave it
        assert [m.shape for m in masks] == [(7872, 3, 16)] * 2
        digest = hashlib.sha256(b"".join(m.tobytes() for m in masks)).hexdigest()
        assert digest == "488052101c65ba765e97ea3e286139eba2b9236cebc699dcb1c1c1bbe4c0424f"
        history = gn.train(model, data, gn.TrainConfig(max_epochs=5)).history
        digest = hashlib.sha256(repr(history).encode()).hexdigest()
        assert digest == "b80d6cbbf8896eb3f79e12a05b8d426c505251cd9b1c88b2fb3362d0369f07e7"

    def test_epoch_zero_loss_is_log_num_classes(self):
        batch = _small_batch()
        model = gn.build_hkn(gn.HKNConfig(), feature_dim=9, num_classes=2)
        metrics = gn.train(model, batch, gn.TrainConfig(max_epochs=1))
        first = [r for r in metrics.history if r[0] == 0 and r[1] == "train"][0]
        assert abs(first[2] - math.log(2.0)) <= 0.2

    def test_a_label_beyond_the_model_classes_is_a_data_error(self):
        # label 5 lies below the 60 labelled graphs but beyond the model's
        # two classes, which the loss's one-hot rows cannot index
        batch = _small_batch()
        labels = batch.labels.copy()
        labels[3] = 5
        batch = gn.GraphBatch(batch.features, batch.edges, labels, graph_ids=batch.graph_ids)
        model = gn.build_hkn(gn.HKNConfig(), feature_dim=9, num_classes=2)
        before = {p: v.copy() for p, v in model.store.items()}
        bound = "'labels' holds 5, not below the model's 2 classes"
        with pytest.raises(DataFormatError, match=bound):
            gn.train(model, batch, gn.TrainConfig(max_epochs=1))
        for p, v in model.store.items():
            np.testing.assert_array_equal(v, before[p])
        with pytest.raises(DataFormatError, match=bound):
            gn.evaluate(model, batch, "test")

    def test_loss_decreases_over_first_twenty_epochs(self):
        batch = _small_batch()
        model = gn.build_hkn(gn.HKNConfig(), feature_dim=9, num_classes=2)
        metrics = gn.train(model, batch, gn.TrainConfig(max_epochs=20))
        losses = [r[2] for r in metrics.history if r[1] == "train"]
        assert len(losses) == 20
        assert losses[-1] < losses[0]

    def test_same_seed_gives_identical_history(self):
        batch = _small_batch()
        runs = []
        for _ in range(2):
            model = gn.build_hkn(gn.HKNConfig(seed=3), feature_dim=9, num_classes=2)
            runs.append(gn.train(model, batch, gn.TrainConfig(max_epochs=12)).history)
        assert runs[0] == runs[1]

    def test_dropout_gradients_match_central_differences(self):
        data = _small_batch()
        model = gn.build_hkn(
            gn.HKNConfig(dropout=0.3, K=3),
            feature_dim=data.feature_dim,
            num_classes=data.num_classes,
        )
        idx = gn.split_indices(data, "train")

        def loss(leaves, training=True):
            # a fresh stream with one Philox key draws the same masks for
            # the analytic pass and every perturbed evaluation
            rng = np.random.Generator(np.random.Philox(key=5))
            logits = gn.forward_logits(model, data, leaves, training=training, rng=rng)
            return gn._nll(logits, data.labels[idx], idx, model.num_classes)

        leaves = dict(model.store.items())
        assert float(loss(leaves)) != float(loss(leaves, training=False))
        report = ad.finite_diff_check(loss, model.store)
        assert len(report) == len(model.store.paths())
        assert max(report.values()) <= 1e-4

    def test_dropout_keeps_a_row_it_would_drop_whole(self):
        # at hidden_dim 8 and dropout 0.3 a mask row drops all eight
        # entries with probability 0.3**8; this run draws such a row, and
        # a zero row has no direction for the gated transform to normalize
        data = gn.synth_trees_vs_random(20, 8, seed=1)
        model = gn.build_hkn(
            gn.HKNConfig(K=2, hidden_dim=8, kernel_source="random", dropout=0.3),
            feature_dim=data.feature_dim,
            num_classes=data.num_classes,
        )
        metrics = gn.train(model, data, gn.TrainConfig(max_epochs=4))
        assert all(np.isfinite(row[2]) for row in metrics.history)

    def test_nan_parameter_aborts_with_numeric_error(self):
        batch = _small_batch()
        model = gn.build_hkn(gn.HKNConfig(), feature_dim=9, num_classes=2)
        path = model.store.paths()[0]
        poisoned = model.store[path].copy()
        poisoned.flat[0] = np.nan
        model.store.set_(path, poisoned)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError) as info:
                gn.train(model, batch, gn.TrainConfig(max_epochs=2))
        assert str(info.value) == "training aborted at epoch 0: loss evaluated to NaN"

    def test_parameters_blown_up_by_the_first_step_abort_at_epoch_one(self):
        # an Adam step moves every parameter by about lr, so the second
        # forward overflows and its loss is NaN
        batch = _small_batch()
        model = gn.build_hkn(gn.HKNConfig(lr=1e30), feature_dim=9, num_classes=2)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError) as info:
                gn.train(model, batch, gn.TrainConfig(max_epochs=4))
        assert str(info.value) == "training aborted at epoch 1: loss evaluated to NaN"


def _two_forward_train(model, data, cfg):
    """The training loop that scores every epoch with a no-tape forward
    after its Adam step, as train did before it read the scores off the
    next step's recorded forward: the oracle for history, best epoch and
    parameters. Returns (history, best_epoch)."""
    mcfg = model.cfg
    train_idx = gn.split_indices(data, "train")
    labels_idx = data.labels[train_idx]
    drop_rng = np.random.Generator(np.random.Philox(key=mcfg.seed).jumped(1))
    history = []
    best = {"val_acc": -1.0, "epoch": -1, "params": None}
    stale = 0
    for epoch in range(cfg.max_epochs):

        def loss_fn(leaves):
            logits = gn.forward_logits(model, data, leaves, training=True, rng=drop_rng)
            return gn._nll(logits, labels_idx, train_idx, model.num_classes)

        grads = ad.grad(loss_fn, model.store)
        ad.adam_step(model.store, grads, mcfg.lr, weight_decay=mcfg.weight_decay)
        logits = np.asarray(gn.forward_logits(model, data))
        stats = {}
        for split in gn.SPLITS:
            acc, f1, loss = _split_metrics(logits, data.labels, gn.split_indices(data, split))
            stats[split] = acc
            history.append((epoch, split, loss, acc, f1))
        improved = stats["val"] > best["val_acc"]
        if stats["val"] >= best["val_acc"]:
            best = {
                "val_acc": stats["val"],
                "epoch": epoch,
                "params": {p: v.copy() for p, v in model.store.items()},
            }
        stale = 0 if improved else stale + 1
        if stale >= cfg.patience:
            break
    for path, value in best["params"].items():
        model.store.set_(path, value)
    return history, best["epoch"]


class TestOneForwardPerEpoch:
    # run -> (model config, train config, epochs the run trains)
    RUNS = {
        "patience": (
            gn.HKNConfig(K=2, hidden_dim=5), gn.TrainConfig(max_epochs=30, patience=4), 13
        ),
        "max_epochs": (gn.HKNConfig(K=2, hidden_dim=5), gn.TrainConfig(max_epochs=8), 8),
        "dropout": (
            gn.HKNConfig(K=3, dropout=0.3), gn.TrainConfig(max_epochs=10, patience=3), 8
        ),
    }

    def _build(self, mcfg):
        return gn.build_hkn(mcfg, feature_dim=9, num_classes=2)

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_matches_the_two_forward_loop_bitwise(self, run):
        mcfg, tcfg, epochs = self.RUNS[run]
        batch = _small_batch()
        model, oracle = self._build(mcfg), self._build(mcfg)
        metrics = gn.train(model, batch, tcfg)
        history, best_epoch = _two_forward_train(oracle, batch, tcfg)
        assert history[-1][0] + 1 == epochs
        assert metrics.history == history
        assert model.best_epoch == best_epoch
        for path, value in oracle.store.items():
            np.testing.assert_array_equal(model.store[path].view(np.uint64), value.view(np.uint64))
        again = gn.evaluate(oracle, batch, "test")
        assert (metrics.accuracy, metrics.macro_f1, metrics.loss) == (
            again.accuracy, again.macro_f1, again.loss
        )

    @pytest.mark.parametrize("run", ["patience", "max_epochs"])
    def test_one_forward_per_epoch_without_dropout(self, run, monkeypatch):
        mcfg, tcfg, epochs = self.RUNS[run]
        inner = gn.forward_logits
        calls = {"recorded": 0, "no_tape": 0}

        def counted(model, batch, leaves=None, training=False, rng=None):
            calls["no_tape" if leaves is None else "recorded"] += 1
            return inner(model, batch, leaves, training, rng)

        monkeypatch.setattr(gn, "forward_logits", counted)
        metrics = gn.train(self._build(mcfg), _small_batch(), tcfg)
        assert metrics.history[-1][0] + 1 == epochs
        if run == "patience":
            # the recorded forward after the last scored epoch ends the run
            # before its backward; only the final test evaluate runs apart
            assert calls == {"recorded": epochs + 1, "no_tape": 1}
        else:
            # the last epoch has no next step to score it
            assert calls == {"recorded": epochs, "no_tape": 2}


class TestCheckpointsAndCSV:
    def test_checkpoint_round_trip_is_bitwise(self, tmp_path):
        batch = _small_batch()
        model = gn.build_hkn(gn.HKNConfig(hidden_dim=8), feature_dim=9, num_classes=2)
        gn.train(model, batch, gn.TrainConfig(max_epochs=5))
        path = tmp_path / "checkpoint.json"
        gn.save_checkpoint(model, path, info={"note": "fixture"})
        back, info = gn.load_checkpoint(path)
        assert info == {"note": "fixture"}
        assert back.cfg == model.cfg
        assert back.store.paths() == model.store.paths()
        for p in model.store.paths():
            np.testing.assert_array_equal(back.store[p], model.store[p])
        for ka, kb in zip(model.layer_kernels, back.layer_kernels):
            np.testing.assert_array_equal(ka.coords_array(), kb.coords_array())

    def test_reloaded_model_reproduces_metrics_exactly(self, tmp_path):
        batch = _small_batch()
        model = gn.build_hkn(gn.HKNConfig(), feature_dim=9, num_classes=2)
        gn.train(model, batch, gn.TrainConfig(max_epochs=5))
        stored = gn.evaluate(model, batch, "test")
        path = tmp_path / "checkpoint.json"
        gn.save_checkpoint(model, path)
        back, _ = gn.load_checkpoint(path)
        again = gn.evaluate(back, batch, "test")
        assert again.accuracy == stored.accuracy
        assert again.macro_f1 == stored.macro_f1
        assert again.loss == stored.loss

    def test_store_is_the_parameter_layout_and_reloads_bitwise(self, tmp_path, rng):
        cfg = gn.HKNConfig(layers=3, K=3, hidden_dim=5, kernel_source="random", task="node")
        model = gn.build_hkn(cfg, feature_dim=4, num_classes=3)
        layout = {}
        for i in range(cfg.layers):
            typed = layers.init_hlinear(rng, 4 if i == 0 else 5, 5)
            for name, value in zip(layers.PARAM_NAMES, typed.values()):
                layout[f"layer{i}.{name}"] = (cfg.K, *np.shape(value))
        layout["head.centroids"] = (3, 5)
        assert model.store.paths() == list(layout)
        assert {p: v.shape for p, v in model.store.items()} == layout

        # every leaf gets values across the float range, signed zeros included
        for path, value in model.store.items():
            v = rng.standard_normal(value.shape) * 10.0 ** rng.integers(-300, 300, value.shape)
            model.store.set_(path, np.where(rng.random(value.shape) < 0.1, -0.0, v))
        path = tmp_path / "checkpoint.json"
        gn.save_checkpoint(model, path)
        back, _ = gn.load_checkpoint(path)
        assert back.store.paths() == list(layout)
        for p, value in model.store.items():
            np.testing.assert_array_equal(back.store[p].view(np.int64), value.view(np.int64))

    def test_checkpoint_format_guard(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(DataFormatError):
            gn.load_checkpoint(path)

    def test_v2_checkpoint_holds_the_stacked_leaves_and_reloads_bitwise(self, tmp_path):
        batch = _small_batch()
        model = gn.build_hkn(gn.HKNConfig(), feature_dim=9, num_classes=2)
        gn.train(model, batch, gn.TrainConfig(max_epochs=3))
        path = tmp_path / "checkpoint.json"
        gn.save_checkpoint(model, path)
        record = json.loads(path.read_text())
        assert record["format"] == "hkn-checkpoint-v2"
        assert list(record["params"]) == model.store.paths()
        assert len(record["params"]) == 11
        back, _ = gn.load_checkpoint(path)
        for p, value in model.store.items():
            _assert_bits(back.store[p], value)
        _assert_bits(np.asarray(gn.forward_logits(back, batch)), np.asarray(gn.forward_logits(model, batch)))

    def test_v1_checkpoint_is_refused_naming_its_format(self, tmp_path):
        # v1 held one leaf per kernel and field (layer{i}.k{k}.<name>); no
        # reader of it is kept
        model = gn.build_hkn(gn.HKNConfig(K=2, hidden_dim=4), feature_dim=9, num_classes=2)
        path = tmp_path / "checkpoint.json"
        gn.save_checkpoint(model, path)
        record = json.loads(path.read_text())
        params = {"head.centroids": record["params"]["head.centroids"]}
        for i in range(2):
            for k in range(2):
                for name in layers.PARAM_NAMES:
                    params[f"layer{i}.k{k}.{name}"] = record["params"][f"layer{i}.{name}"][k]
        path.write_text(json.dumps({**record, "format": "hkn-checkpoint-v1", "params": params}))
        with pytest.raises(DataFormatError, match="'hkn-checkpoint-v1' is not 'hkn-checkpoint-v2'"):
            gn.load_checkpoint(path)

    def test_metrics_csv_format(self, tmp_path):
        history = [(0, "train", 0.7, 0.5, 0.4), (0, "val", 0.71, 0.45, 0.41)]
        path = tmp_path / "metrics.csv"
        gn.write_metrics_csv(history, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,split,loss,accuracy,macro_f1"
        assert len(lines) == 3
        assert lines[1].startswith("0,train,")

    def test_sweep_csv_format(self, tmp_path):
        path = tmp_path / "sweep.csv"
        gn.write_sweep_csv([(2, 0, 0.9), (2, 1, 0.95)], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "K,seed,metric"
        assert len(lines) == 3


class TestDatasetIO:
    def test_round_trip_identity(self, tmp_path):
        batch = _small_batch()
        path = tmp_path / "data.json"
        gn.save_dataset(batch, path)
        back = gn.load_dataset(path)
        np.testing.assert_array_equal(back.features, batch.features)
        np.testing.assert_array_equal(back.edges, batch.edges)
        np.testing.assert_array_equal(back.labels, batch.labels)
        np.testing.assert_array_equal(back.graph_ids, batch.graph_ids)

    def test_triangle_document_loads_with_six_directed_entries(self, tmp_path):
        doc = {
            "num_nodes": 3,
            "features": [[1.0], [1.0], [1.0]],
            "edges": [[0, 1], [1, 2], [0, 2]],
            "graph_ids": [0, 0, 0],
            "labels": [0],
        }
        path = tmp_path / "triangle.json"
        path.write_text(json.dumps(doc))
        batch = gn.load_dataset(path)
        src, dst = gn.edge_arrays(batch)
        assert len(src) == 6
        assert not batch.isolated.any()

    def test_loader_names_offending_field(self, tmp_path):
        doc = {
            "num_nodes": 3,
            "features": [[1.0], [1.0], [1.0]],
            "edges": [[0, 7]],
            "graph_ids": [0, 0, 0],
            "labels": [1],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError):
            gn.load_dataset(path)
        path.write_text("not json")
        with pytest.raises(DataFormatError):
            gn.load_dataset(path)
