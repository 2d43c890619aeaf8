"""Acceptance gate: one check per shipped guarantee, each emitting a
PASS/FAIL line at the stated tolerance into the terminal summary."""

import time

import numpy as np
import pytest

from hkconv import autodiff as ad
from hkconv import graphnet as gn
from hkconv import invariants as iv
from hkconv import kernelgen as kg
from hkconv import layers, lmath, manifold

from conftest import ACCEPTANCE_LINES


def _record(num, ok, text):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {text}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def _random_conv(rng, cfg, K=3, out_dim=None):
    kernels = kg.random_kernels(K, cfg.dim, seed=int(rng.integers(1 << 31)), cfg=cfg)
    return layers.init_hkconv(rng, kernels, out_dim or cfg.dim)


def _node_neighborhoods(edges, n):
    nbrs = {i: [] for i in range(n)}
    for s, d in edges:
        nbrs[int(s)].append(int(d))
        nbrs[int(d)].append(int(s))
    return {i: sorted(v) if v else [i] for i, v in nbrs.items()}


def _random_node_batch(rng, n, feature_dim=5):
    pairs = set()
    for _ in range(2 * n):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            pairs.add((min(int(a), int(b)), max(int(a), int(b))))
    edges = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    labels = rng.integers(0, 2, size=n)
    thirds = n // 3
    masks = {
        "train": np.arange(n) < thirds,
        "val": (np.arange(n) >= thirds) & (np.arange(n) < 2 * thirds),
        "test": np.arange(n) >= 2 * thirds,
    }
    return gn.GraphBatch(rng.standard_normal((n, feature_dim)), edges, labels, masks=masks)


class TestAcceptance:
    def test_criterion_01_manifold_closure(self):
        start = time.time()
        worst = iv.closure_walk(10_000, seed=0)
        elapsed = time.time() - start
        ok = worst <= 1e-9 and elapsed < 30.0
        _record(
            1, ok,
            f"manifold closure over 1e4 compositions: residual {worst:.3e} "
            f"(<= 1e-9) in {elapsed:.1f}s (< 30s)",
        )

    def test_criterion_02_inverse_maps(self):
        rng = np.random.default_rng(0)
        cfg = manifold.ManifoldConfig(dim=3)
        worst = 0.0
        for _ in range(1000):
            x = manifold.random_point(rng, cfg)
            v = manifold.random_tangent(rng, x, norm=float(rng.uniform(0.0, 5.0)))
            back = manifold.log_map(x, manifold.exp_map(v))
            err = np.linalg.norm(back.vec - v.vec)
            worst = max(worst, err / max(1.0, float(np.linalg.norm(v.vec))))
        ok = worst <= 1e-8
        _record(
            2, ok,
            f"exp/log round trip over 1e3 draws, |v| <= 5: "
            f"worst relative error {worst:.3e} (<= 1e-8)",
        )

    def test_criterion_03_distance_preservation(self):
        rng = np.random.default_rng(1)
        cfg = manifold.ManifoldConfig(dim=3)
        o = manifold.origin(cfg)
        worst = 0.0
        for _ in range(1000):
            x = manifold.random_point(rng, cfg)
            xi = manifold.random_point(rng, cfg)
            gap = abs(
                manifold.distance(x, xi)
                - manifold.distance(o, manifold.ominus(xi, x))
            )
            worst = max(worst, gap)
        ok = worst <= 1e-8
        _record(
            3, ok,
            f"recentering preserves distance over 1e3 pairs: "
            f"worst gap {worst:.3e} (<= 1e-8)",
        )

    def test_criterion_04_local_translation_invariance(self):
        start = time.time()
        rng = np.random.default_rng(2)
        cfg = manifold.ManifoldConfig(dim=3)
        o = manifold.origin(cfg)
        worst = 0.0
        for _ in range(100):
            conv = _random_conv(rng, cfg)
            x = manifold.random_point(rng, cfg)
            nbrs = [
                manifold.random_point(rng, cfg)
                for _ in range(int(rng.integers(2, 6)))
            ]
            base = layers.hkconv(x, nbrs, conv).coords
            t = float(rng.uniform(0.0, 1.0))
            y = manifold.exp_map(
                manifold.TangentVector(o, t * manifold.log_map(o, x).vec)
            )
            out = layers.hkconv(
                manifold.translate(x, y, x),
                [manifold.translate(x, y, nb) for nb in nbrs],
                conv,
            ).coords
            worst = max(
                worst, float(np.linalg.norm(out - base) / np.linalg.norm(base))
            )
        elapsed = time.time() - start
        ok = worst <= 1e-6 and elapsed < 60.0
        _record(
            4, ok,
            f"local translation invariance over 100 trials: worst relative "
            f"gap {worst:.3e} (<= 1e-6) in {elapsed:.1f}s (< 60s)",
        )

    def test_criterion_05_permutation_equivariance_bitwise(self):
        rng = np.random.default_rng(3)
        cfg = manifold.ManifoldConfig(dim=5)
        exact = True
        for trial in range(20):
            n = int(rng.integers(8, 14))
            batch = _random_node_batch(rng, n)
            perm = rng.permutation(n)
            inv = np.empty_like(perm)
            inv[perm] = np.arange(n)

            # route 1: one HKConv layer applied node-wise
            conv = _random_conv(rng, cfg)
            points = [
                manifold.project_to_manifold(batch.features[i], cfg)
                for i in range(n)
            ]
            nbrs = _node_neighborhoods(batch.edges, n)
            outs = [
                layers.hkconv(points[i], [points[j] for j in nbrs[i]], conv).coords
                for i in range(n)
            ]
            perm_points = [points[perm[i]] for i in range(n)]
            perm_nbrs = _node_neighborhoods(inv[batch.edges], n)
            perm_outs = [
                layers.hkconv(
                    perm_points[i], [perm_points[j] for j in perm_nbrs[i]], conv
                ).coords
                for i in range(n)
            ]
            layer_ok = all(
                np.array_equal(perm_outs[i], outs[perm[i]]) for i in range(n)
            )

            # route 2: end-to-end node-task logits
            model = gn.build_hkn(
                gn.HKNConfig(task="node", hidden_dim=6, K=3, seed=trial),
                feature_dim=5,
                num_classes=2,
            )
            logits = np.asarray(gn.forward_logits(model, batch))
            permuted = gn.GraphBatch(
                batch.features[perm],
                inv[batch.edges],
                batch.labels[perm],
                masks={k: v[perm] for k, v in batch.masks.items()},
            )
            logits_p = np.asarray(gn.forward_logits(model, permuted))
            model_ok = np.array_equal(logits_p, logits[perm])
            exact = exact and layer_ok and model_ok
        _record(
            5, exact,
            "permutation equivariance bitwise on 20 random graphs "
            "(node-wise layer and end-to-end logits)",
        )

    def test_criterion_06_kernel_solver_optima(self):
        start = time.time()
        cfg = manifold.ManifoldConfig(dim=2)
        o = manifold.origin(cfg)
        radius_gap = mutual_gap = 0.0
        for seed in (0, 1, 2, 3, 4):
            ks = kg.solve_kernels(2, 2, kg.SolverConfig(seed=seed), cfg)
            for p in ks.points:
                radius_gap = max(radius_gap, abs(manifold.distance(o, p) - 2.0**-0.5))
            mutual_gap = max(
                mutual_gap, abs(manifold.distance(*ks.points) - 2.0**0.5)
            )
        five = kg.solve_kernels(5, 2, kg.SolverConfig(seed=0), cfg)
        grad = max(kg.riemannian_grad(five, k).norm() for k in range(5))
        min_pair = min(
            manifold.distance(five.points[i], five.points[j])
            for i in range(5)
            for j in range(i + 1, 5)
        )
        elapsed = time.time() - start
        ok = (
            radius_gap <= 1e-3
            and mutual_gap <= 2e-3
            and grad <= 1e-6
            and min_pair > 0.3
            and elapsed < 120.0
        )
        _record(
            6, ok,
            f"kernel solver: K=2 radius gap {radius_gap:.2e} (<= 1e-3), mutual "
            f"gap {mutual_gap:.2e} (<= 2e-3) over 5 seeds; K=5 grad "
            f"{grad:.2e} (<= 1e-6), min pair {min_pair:.3f} (> 0.3); "
            f"{elapsed:.1f}s (< 2min)",
        )

    def test_criterion_07_gradient_decay_fit(self):
        start = time.time()
        rows = kg.gradient_decay_experiment(K=8)
        slope, r2 = kg.log_linear_fit(rows)
        elapsed = time.time() - start
        ok = slope < 0 and r2 >= 0.95 and elapsed < 30.0
        _record(
            7, ok,
            f"radial gradient decay: slope {slope:.3f} (< 0), R^2 {r2:.3f} "
            f"(>= 0.95) in {elapsed:.1f}s (< 30s)",
        )

    def test_criterion_08_end_to_end_gradients(self):
        start = time.time()
        rng = np.random.default_rng(4)
        batch = _random_node_batch(rng, 30, feature_dim=4)
        model = gn.build_hkn(
            gn.HKNConfig(task="node", hidden_dim=5, K=3),
            feature_dim=4,
            num_classes=2,
        )
        train_idx = gn.split_indices(batch, "train")
        onehot = np.eye(model.num_classes)[batch.labels[train_idx]]

        def loss_fn(leaves):
            logits = gn.forward_logits(model, batch, leaves)
            logp = ad.log_softmax(ad.take(logits, train_idx, axis=0), axis=-1)
            picked = ad.sum(ad.multiply(logp, onehot), axis=-1)
            return ad.negative(ad.mean(picked))

        report = ad.finite_diff_check(loss_fn, model.store, h=1e-5, dirs=3, seed=0)
        worst = max(report.values())
        elapsed = time.time() - start
        ok = worst <= 1e-4 and len(report) == len(model.store.paths()) and elapsed < 120.0
        _record(
            8, ok,
            f"2-layer network gradients vs central differences on a 30-node "
            f"graph: worst of {len(report)} leaves {worst:.3e} (<= 1e-4) in "
            f"{elapsed:.1f}s (< 2min)",
        )

    @pytest.mark.slow
    def test_criterion_09_desk_scale_learning(self):
        start = time.time()
        data = gn.synth_trees_vs_random(200, 16, seed=0)
        model = gn.build_hkn(gn.HKNConfig(), feature_dim=9, num_classes=2)
        metrics = gn.train(model, data, gn.TrainConfig(max_epochs=200))
        elapsed = time.time() - start
        ok = metrics.accuracy >= 0.95 and elapsed < 300.0
        _record(
            9, ok,
            f"graph classification reaches test accuracy "
            f"{metrics.accuracy:.4f} (>= 0.95) within 200 epochs in "
            f"{elapsed:.0f}s (< 5min)",
        )

    @pytest.mark.slow
    def test_criterion_10_kernel_source_ablation(self):
        _, means = gn.ablation_kernel_sources(gn.HKNConfig(), seeds=5)
        ok = means["optimized"] >= means["random"]
        _record(
            10, ok,
            f"ablation over 5 seeds: optimized kernels {means['optimized']:.4f} "
            f">= random kernels {means['random']:.4f}",
        )

    @pytest.mark.slow
    def test_criterion_11_kernel_count_sweep(self):
        _, table = gn.sweep_kernels(gn.HKNConfig(), K_list=(2, 3, 4, 5, 6), seeds=3)
        means = {K: mean for K, mean, _ in table}
        best = max(means[K] for K in (3, 4, 5, 6))
        ok = best >= means[2]
        _record(
            11, ok,
            f"kernel-count sweep over 3 seeds: best mean for K in 3..6 is "
            f"{best:.4f} >= {means[2]:.4f} at K=2",
        )

    def test_criterion_12_determinism_and_serialization(self, tmp_path):
        kernels_equal = np.array_equal(
            kg.solve_kernels(4, 2, kg.SolverConfig(seed=6)).coords_array(),
            kg.solve_kernels(4, 2, kg.SolverConfig(seed=6)).coords_array(),
        )

        data = gn.synth_trees_vs_random(60, 12, seed=0)
        runs = []
        for stamp in ("a", "b"):
            model = gn.build_hkn(gn.HKNConfig(seed=2), feature_dim=9, num_classes=2)
            metrics = gn.train(model, data, gn.TrainConfig(max_epochs=15))
            path = tmp_path / f"{stamp}.json"
            gn.save_checkpoint(model, path, info={"test_accuracy": metrics.accuracy})
            runs.append((metrics, path))
        histories_equal = runs[0][0].history == runs[1][0].history
        checkpoints_equal = runs[0][1].read_bytes() == runs[1][1].read_bytes()

        reloaded, info = gn.load_checkpoint(runs[0][1])
        again = gn.evaluate(reloaded, data, "test")
        eval_exact = again.accuracy == runs[0][0].accuracy == info["test_accuracy"]

        ok = kernels_equal and histories_equal and checkpoints_equal and eval_exact
        _record(
            12, ok,
            "same seed gives bit-identical kernels, histories and "
            "checkpoints; reloaded checkpoint reproduces the stored test "
            "metric exactly",
        )
