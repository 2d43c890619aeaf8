"""Self-tests of the benchmark's output checks.

Each check must pass on a sound input and fail when that input is
corrupted on purpose, so a passing benchmark run means something.

    python3 -m pytest -q bench/test_bench_checks.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import hkconv  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from hkconv import autodiff as ad  # noqa: E402
from hkconv import graphnet as gn  # noqa: E402


@pytest.fixture(scope="module")
def small():
    """A 12-node graph with a small random-kernel node model."""
    _, _, _, batch, model = workloads._typed_fixtures(hkconv, seed=5)
    return batch, model


def test_accuracy_check_fails_on_permuted_logits():
    labels = np.arange(40) % 2
    logits = np.eye(2)[labels]
    idx = np.arange(40)
    assert checks.check_accuracy(checks.accuracy(logits, labels, idx), 0.95)[0]
    shuffled = logits[np.random.default_rng(0).permutation(40)]
    assert not checks.check_accuracy(checks.accuracy(shuffled, labels, idx), 0.95)[0]


def test_majority_share_is_the_constant_answer():
    labels = np.array([0, 0, 0, 1, 2, 0, 1, 1])
    share = checks.majority_share(labels, np.arange(4), np.arange(4, 8))
    assert share == 0.25
    constant = np.eye(3)[np.zeros(8, dtype=int)]
    assert checks.accuracy(constant, labels, np.arange(4, 8)) == share


def test_relabelling_check_fails_on_one_ulp(small):
    batch, model = small
    logits = np.asarray(gn.forward_logits(model, batch))
    perm = np.random.default_rng(1).permutation(batch.num_nodes)
    moved = np.asarray(gn.forward_logits(model, checks.relabel_batch(gn.GraphBatch, batch, perm)))
    assert checks.check_relabelling(logits, moved, perm, "node") == (True, 0.0)
    nudged = moved.copy()
    nudged[3, 1] = np.nextafter(nudged[3, 1], np.inf)
    assert not checks.check_relabelling(logits, nudged, perm, "node")[0]
    assert not checks.check_relabelling(logits, moved[perm], perm, "node")[0]
    assert not checks.check_relabelling(logits, moved, perm, "graph")[0]


def test_relabelled_graph_batch_keeps_graphs():
    batch = gn.synth_trees_vs_random(40, 10, seed=0)
    perm = np.random.default_rng(2).permutation(batch.num_nodes)
    moved = checks.relabel_batch(gn.GraphBatch, batch, perm)
    assert np.array_equal(moved.graph_ids[perm], batch.graph_ids)
    assert np.array_equal(moved.features[perm], batch.features)
    assert np.array_equal(moved.labels, batch.labels)


def test_gradient_check_fails_on_perturbed_gradient(small):
    batch, model = small
    idx = np.flatnonzero(batch.masks["train"])

    def loss(leaves):
        return workloads._nll(ad, gn.forward_logits(model, batch, leaves), batch.labels, idx, 3)

    params = {p: v.copy() for p, v in model.store.items()}
    grads = ad.grad(loss, model.store)
    at = lambda values: float(loss(values))  # noqa: E731
    assert checks.check_gradient(at, params, grads, seed=3)[0]
    bent = {p: g * 1.001 for p, g in grads.items()}
    assert not checks.check_gradient(at, params, bent, seed=3)[0]


def test_reload_check_fails_on_a_changed_parameter(small, tmp_path):
    batch, model = small
    path = tmp_path / "checkpoint.json"
    gn.save_checkpoint(model, path)
    reloaded, _ = gn.load_checkpoint(path)
    logits = np.asarray(gn.forward_logits(model, batch))
    assert checks.check_identical(logits, np.asarray(gn.forward_logits(reloaded, batch)))[0]
    name = "head.centroids"
    value = reloaded.store[name].copy()
    value[0, 0] += 1e-9
    reloaded.store.set_(name, value)
    assert not checks.check_identical(logits, np.asarray(gn.forward_logits(reloaded, batch)))[0]


def test_manifold_check_fails_off_the_hyperboloid():
    x = np.array([np.cosh(2.0), np.sinh(2.0), 0.0])
    assert checks.check_on_manifold(x)[0]
    assert not checks.check_on_manifold(x * (1 + 1e-8))[0]


def test_invariant_check_fails_on_broken_transport():
    suites = ("theorem1",)
    sound = hkconv.invariants.run_suite("theorem1", trials=3)
    assert checks.check_invariant_records(sound, 3, suites)[0]
    broken = hkconv.invariants.run_suite("theorem1", trials=3, mutate="pt")
    assert not checks.check_invariant_records(broken, 3, suites)[0]
    assert not checks.check_invariant_records(sound, 4, suites)[0]
    assert not checks.check_invariant_records(sound, 3, suites + ("prop1",))[0]


def test_class_tree_is_seeded_and_classes_are_root_subtrees():
    a = workloads.class_tree(gn.GraphBatch, 7)
    b = workloads.class_tree(gn.GraphBatch, 7)
    assert np.array_equal(a.edges, b.edges) and np.array_equal(a.features, b.features)
    assert not np.array_equal(a.edges, workloads.class_tree(gn.GraphBatch, 8).edges)
    n, C = workloads.NODE_N, workloads.NODE_CLASSES
    assert len(a.edges) == n - 1 + n // 2
    off_root = a.edges[(a.edges != 0).all(axis=1)]
    assert np.array_equal(a.labels[off_root[:, 0]], a.labels[off_root[:, 1]])
    counts = np.bincount(a.labels[1:])
    assert len(counts) == C and counts.max() - counts.min() <= 1
    in_splits = sum(m.astype(int) for m in a.masks.values())
    assert in_splits[0] == 0 and np.all(in_splits[1:] == 1)
