"""Output checks, computed apart from the program.

Each check takes plain arrays (or a loss function and arrays) and returns
(ok, figure): the figure is what the check measured, recorded in the
result file. The self-tests in test_bench_checks.py feed each check a
deliberately corrupted input and expect it to fail.
"""

from __future__ import annotations

import numpy as np

GRAPH_ACCURACY_FLOOR = 0.95  # acceptance criterion 9
MAJORITY_MARGIN = 0.08  # node-attention must beat the majority share by this much
GRAD_REL_GAP = 1e-6  # directional derivative vs ad.grad, over |grad| (measured: 1e-12..1e-10)
MANIFOLD_RESIDUAL = 1e-9  # |<x,x>_L + 1| for outputs of the typed API (kappa = -1)


def accuracy(logits: np.ndarray, labels: np.ndarray, idx: np.ndarray) -> float:
    """Share of rows idx whose largest logit is at the true label."""
    return float(np.mean(np.argmax(logits[idx], axis=1) == labels[idx]))


def majority_share(labels: np.ndarray, train_idx: np.ndarray, test_idx: np.ndarray) -> float:
    """Test accuracy of always answering the most common training label."""
    majority = np.bincount(labels[train_idx]).argmax()
    return float(np.mean(labels[test_idx] == majority))


def check_accuracy(acc: float, floor: float):
    return acc >= floor, acc


def relabel_batch(batch_cls, batch, perm: np.ndarray):
    """The same graph with node i renamed perm[i]."""
    inv = np.argsort(perm)
    common = {"features": batch.features[inv], "edges": perm[batch.edges]}
    if batch.graph_ids is not None:
        return batch_cls(**common, labels=batch.labels, graph_ids=batch.graph_ids[inv])
    return batch_cls(
        **common,
        labels=batch.labels[inv],
        masks={k: v[inv] for k, v in batch.masks.items()},
    )


def check_relabelling(logits, relabelled_logits, perm, task: str):
    """Node logits must move with their node, graph logits must not move, bit for bit."""
    expected = logits
    got = relabelled_logits if task == "graph" else relabelled_logits[perm]
    ok = got.shape == expected.shape and np.array_equal(got, expected)
    gap = float(np.max(np.abs(got - expected))) if got.shape == expected.shape else np.inf
    return ok, gap


def check_gradient(loss_at, params: dict, grads: dict, seed: int, h: float = 1e-4):
    """Central difference of the loss along one seeded unit direction d over
    every leaf, against the analytic directional derivative <grad, d>.

    The gap is scaled by |grad|, the largest value <grad, d> can take: a
    random direction is nearly orthogonal to the gradient of a trained
    model, and scaling by the projection itself would only measure the
    rounding of the difference quotient. loss_at maps {path: ndarray} to
    the scalar loss.
    """
    rng = np.random.default_rng(seed)
    direction = {p: rng.standard_normal(v.shape) for p, v in params.items()}
    norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
    direction = {p: d / norm for p, d in direction.items()}
    analytic = sum(float(np.sum(grads[p] * direction[p])) for p in params)
    plus = loss_at({p: v + h * direction[p] for p, v in params.items()})
    minus = loss_at({p: v - h * direction[p] for p, v in params.items()})
    numeric = (plus - minus) / (2.0 * h)
    scale = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    gap = abs(analytic - numeric) / max(scale, 1e-12)
    return gap <= GRAD_REL_GAP, gap


def check_identical(a: np.ndarray, b: np.ndarray):
    """Bit-for-bit equality (checkpoint reloads, repeated evaluations)."""
    ok = a.shape == b.shape and np.array_equal(a, b)
    return ok, float(np.max(np.abs(a - b))) if a.shape == b.shape else np.inf


def check_on_manifold(coords: np.ndarray):
    """Lorentz constraint <x,x>_L = -1 at curvature -1, recomputed here."""
    coords = np.atleast_2d(coords)
    residual = float(np.max(np.abs(-coords[:, 0] ** 2 + np.sum(coords[:, 1:] ** 2, axis=1) + 1.0)))
    return residual <= MANIFOLD_RESIDUAL, residual


def check_invariant_records(records: list, trials: int, suites: tuple):
    """Every suite reported properties, and every property ran at the
    requested trial count and passed.

    prop1 runs at most 20 trials (each builds and evaluates a model).
    """
    ok = all(any(r["name"].startswith(s + ".") for r in records) for s in suites)
    for r in records:
        want = min(trials, 20) if r["name"].startswith("prop1.") else trials
        ok = ok and r["passed"] is True and r["trials"] == want
    worst = max((r["max_error"] for r in records), default=np.inf)
    return ok, worst
