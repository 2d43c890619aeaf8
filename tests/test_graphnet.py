"""Dataset generation and ingestion, model assembly, metrics, the training
loop, and checkpoint serialization."""

import json
import math

import numpy as np
import pytest

from hkconv import autodiff as ad
from hkconv import graphnet as gn
from hkconv import layers, lmath
from hkconv.errors import (
    BuildError,
    DataFormatError,
    DomainError,
    NumericError,
    ParameterError,
)


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
    def test_graph_task_emits_one_logit_row_per_graph(self):
        feats = np.ones((3, 2))
        triangle = gn.GraphBatch(
            feats,
            np.array([[0, 1], [1, 2], [0, 2]]),
            np.array([1]),
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

    @pytest.mark.parametrize("pooling, ops", (("uniform", 71), ("attention", 83)))
    def test_gradient_tape_op_budget(self, pooling, ops):
        # each Lorentz map and each gated transform is one tape node; this
        # count is exact, so a change that re-inflates the tape shows here
        data = gn.synth_trees_vs_random(n_graphs=20, nodes_per_graph=8, seed=1)
        model = gn.build_hkn(
            gn.HKNConfig(pooling_weights=pooling),
            feature_dim=data.feature_dim,
            num_classes=data.num_classes,
        )
        train_idx = gn.split_indices(data, "train")
        logits = gn.forward_logits(model, data, model.store.tensors())
        loss = gn._nll(logits, data.labels[train_idx], train_idx, model.num_classes)
        tape = ad.Tape(loss)
        assert sum(node.op != "leaf" for node in tape._nodes) == ops

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


class TestTraining:
    def test_epoch_zero_loss_is_log_num_classes(self):
        batch = _small_batch()
        model = gn.build_hkn(gn.HKNConfig(), feature_dim=9, num_classes=2)
        metrics = gn.train(model, batch, gn.TrainConfig(max_epochs=1))
        first = [r for r in metrics.history if r[0] == 0 and r[1] == "train"][0]
        assert abs(first[2] - math.log(2.0)) <= 0.2

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

    def test_nan_parameter_aborts_with_numeric_error(self):
        batch = _small_batch()
        model = gn.build_hkn(gn.HKNConfig(), feature_dim=9, num_classes=2)
        path = model.store.paths()[0]
        poisoned = model.store[path].copy()
        poisoned.flat[0] = np.nan
        model.store.set_(path, poisoned)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError):
                gn.train(model, batch, gn.TrainConfig(max_epochs=2))


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
            for k in range(cfg.K):
                for name, value in zip(layers.PARAM_NAMES, typed.values()):
                    layout[f"layer{i}.k{k}.{name}"] = np.shape(value)
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
            "labels": [1],
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
