"""Randomized property suites over the geometry and the layers.

Four suites, each returning one record per property with the fields
name / trials / max_error / passed:

* manifold: closure under long op compositions, mutual inversion of the
  exponential and logarithmic maps, transport isometry, and agreement of
  the distance function with the recentering operator.
* layers: manifold closure of every layer output, aggregation-weight
  scale invariance, distance-readout consistency, attention weights
  summing to one over each neighborhood.
* theorem1: convolution output is unchanged when the root and its whole
  neighborhood are translated along the root's geodesic from the origin.
* prop1: relabeling nodes permutes node-wise convolution outputs and
  end-to-end node-task logits bit for bit.

corrupted_recentering() deliberately breaks the recentering step so CI
can confirm the theorem1 suite actually has teeth.
"""

from __future__ import annotations

import contextlib
from dataclasses import replace

import numpy as np

from . import graphnet, kernelgen, layers, lmath, manifold
from .errors import ParameterError

SUITES = ("manifold", "layers", "theorem1", "prop1")

_CLOSURE_TOL = 1e-9
_INVERSE_TOL = 1e-8
_DIST_TOL = 1e-8
_THEOREM1_TOL = 1e-6
# wander limit: beyond this distance from the origin the walker restarts,
# staying inside the region where the closure bound is representable
_SHELL_RADIUS = 8.0


def _record(name: str, trials: int, max_error: float, tol: float) -> dict:
    return {
        "name": name,
        "trials": trials,
        "max_error": float(max_error),
        "passed": bool(max_error <= tol),
    }


def _residual(point: manifold.LorentzPoint) -> float:
    inner = manifold.lorentz_inner(point.coords, point.coords)
    return abs(inner - 1.0 / point.cfg.curvature)


def _rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1.0)
    return float(np.max(np.abs(a - b))) / scale


# ---------------------------------------------------------------------------
# closure walker (shared with the acceptance tests)


def closure_walk(steps: int, seed: int = 0, dim: int = 3) -> float:
    """Random composition chain over all point-producing operations.

    Applies ``steps`` randomly chosen ops {exp, log+exp, transport+exp,
    translate, recenter, hlinear, hcent, hkconv} to a wandering point and
    returns the worst manifold-constraint residual seen. The walk restarts
    from a fresh point whenever it strays outside the benign shell.
    """
    rng = np.random.default_rng(seed)
    cfg = manifold.ManifoldConfig(dim=dim)
    kernels = kernelgen.random_kernels(3, dim, seed=7, cfg=cfg)
    conv = layers.init_hkconv(rng, kernels, dim)
    x = manifold.random_point(rng, cfg)
    worst = 0.0
    for _ in range(steps):
        op = rng.integers(0, 8)
        if op == 0:
            v = manifold.random_tangent(rng, x, norm=float(rng.uniform(0.0, 2.0)))
            x = manifold.exp_map(v)
        elif op == 1:
            u = manifold.random_point(rng, cfg)
            x = manifold.exp_map(manifold.log_map(x, u))
        elif op == 2:
            v = manifold.random_tangent(rng, x, norm=float(rng.uniform(0.0, 2.0)))
            y = manifold.random_point(rng, cfg)
            x = manifold.exp_map(manifold.parallel_transport(x, y, v))
        elif op == 3:
            u = manifold.exp_map(
                manifold.random_tangent(rng, x, norm=float(rng.uniform(0.0, 1.0)))
            )
            x = manifold.translate(x, manifold.random_point(rng, cfg), u)
        elif op == 4:
            x = manifold.ominus(x, manifold.random_point(rng, cfg))
        elif op == 5:
            x = layers.hlinear(x, layers.init_hlinear(rng, dim, dim))
        elif op == 6:
            others = [manifold.random_point(rng, cfg) for _ in range(2)]
            nu = layers.WeightVector(rng.uniform(0.1, 2.0, size=3))
            x = layers.hcent([x] + others, nu)
        else:
            nbrs = [manifold.random_point(rng, cfg) for _ in range(int(rng.integers(2, 5)))]
            x = layers.hkconv(x, nbrs, conv)
        worst = max(worst, _residual(x))
        if manifold.distance(x, manifold.origin(cfg)) > _SHELL_RADIUS:
            x = manifold.random_point(rng, cfg)
    return worst


# ---------------------------------------------------------------------------
# suites


def run_manifold(trials: int, seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    cfg = manifold.ManifoldConfig(dim=3)
    records = []

    records.append(
        _record("manifold.closure_compositions", trials, closure_walk(trials, seed), _CLOSURE_TOL)
    )

    worst_log, worst_exp = 0.0, 0.0
    for _ in range(trials):
        x = manifold.random_point(rng, cfg)
        v = manifold.random_tangent(rng, x, norm=float(rng.uniform(0.0, 5.0)))
        back = manifold.log_map(x, manifold.exp_map(v))
        scale = max(float(np.max(np.abs(v.vec))), 1e-9)
        worst_log = max(worst_log, float(np.max(np.abs(back.vec - v.vec))) / scale)
        u = manifold.random_point(rng, cfg)
        again = manifold.exp_map(manifold.log_map(x, u))
        worst_exp = max(worst_exp, _rel_diff(again.coords, u.coords))
    records.append(_record("manifold.log_of_exp_identity", trials, worst_log, _INVERSE_TOL))
    records.append(_record("manifold.exp_of_log_identity", trials, worst_exp, _INVERSE_TOL))

    worst = 0.0
    for _ in range(trials):
        x = manifold.random_point(rng, cfg)
        y = manifold.random_point(rng, cfg)
        v = manifold.random_tangent(rng, x, norm=float(rng.uniform(0.0, 3.0)))
        w = manifold.random_tangent(rng, x, norm=float(rng.uniform(0.0, 3.0)))
        tv = manifold.parallel_transport(x, y, v)
        tw = manifold.parallel_transport(x, y, w)
        before = manifold.lorentz_inner(v.vec, w.vec)
        after = manifold.lorentz_inner(tv.vec, tw.vec)
        worst = max(worst, abs(before - after) / max(abs(before), 1.0))
    records.append(_record("manifold.transport_isometry", trials, worst, _CLOSURE_TOL))

    worst = 0.0
    origin = manifold.origin(cfg)
    for _ in range(trials):
        x = manifold.random_point(rng, cfg)
        u = manifold.random_point(rng, cfg)
        direct = manifold.distance(x, u)
        recentered = manifold.distance(origin, manifold.ominus(u, x))
        worst = max(worst, abs(direct - recentered))
    records.append(_record("manifold.recentering_preserves_distance", trials, worst, _DIST_TOL))
    return records


def run_layers(trials: int, seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    cfg = manifold.ManifoldConfig(dim=3)
    kernels = kernelgen.random_kernels(3, 3, seed=11, cfg=cfg)
    records = []

    worst = 0.0
    for _ in range(trials):
        x = manifold.random_point(rng, cfg)
        p = layers.init_hlinear(rng, 3, int(rng.integers(2, 6)))
        worst = max(worst, _residual(layers.hlinear(x, p)))
    records.append(_record("layers.hlinear_on_manifold", trials, worst, _CLOSURE_TOL))

    worst_manifold, worst_scale = 0.0, 0.0
    for _ in range(trials):
        pts = [manifold.random_point(rng, cfg) for _ in range(int(rng.integers(2, 6)))]
        nu = rng.uniform(0.1, 2.0, size=len(pts))
        out = layers.hcent(pts, layers.WeightVector(nu))
        worst_manifold = max(worst_manifold, _residual(out))
        scaled = layers.hcent(pts, layers.WeightVector(float(rng.uniform(0.5, 3.0)) * nu))
        worst_scale = max(worst_scale, _rel_diff(out.coords, scaled.coords))
    records.append(_record("layers.hcent_on_manifold", trials, worst_manifold, _CLOSURE_TOL))
    records.append(_record("layers.hcent_weight_scale_invariance", trials, worst_scale, 1e-12))

    worst = 0.0
    for _ in range(trials):
        x = manifold.random_point(rng, cfg)
        bank = layers.CentroidBank(tuple(manifold.random_point(rng, cfg) for _ in range(4)))
        dists = layers.hcdist(x, bank)
        direct = np.array([manifold.distance(x, c) for c in bank.centroids])
        err = float(np.max(np.abs(dists - direct)))
        if np.any(dists < 0):
            err = max(err, float(np.max(-dists)))
        worst = max(worst, err)
    records.append(_record("layers.hcdist_matches_pointwise_distance", trials, worst, 1e-10))

    worst = 0.0
    for _ in range(trials):
        x = manifold.random_point(rng, cfg)
        nbrs = [manifold.random_point(rng, cfg) for _ in range(int(rng.integers(1, 6)))]
        pooling = "attention" if rng.integers(0, 2) else "uniform"
        conv = layers.init_hkconv(rng, kernels, 4, pooling_weights=pooling)
        worst = max(worst, _residual(layers.hkconv(x, nbrs, conv)))
    records.append(_record("layers.hkconv_on_manifold", trials, worst, _CLOSURE_TOL))

    worst = 0.0
    for _ in range(trials):
        sizes = rng.integers(1, 5, size=int(rng.integers(1, 5)))
        segments = np.repeat(np.arange(sizes.size), sizes)
        roots = np.stack([manifold.random_point(rng, cfg).coords for _ in sizes])
        nbrs = np.stack([manifold.random_point(rng, cfg).coords for _ in segments])
        d = lmath.dist(roots[segments], nbrs, cfg.curvature)
        w = layers.attention_weights(d, cfg.dim, sizes)
        err = float(np.max(np.abs(np.bincount(segments, weights=w) - 1.0)))
        if np.any(w < 0):
            err = max(err, float(np.max(-w)))
        worst = max(worst, err)
    records.append(_record("layers.attention_rows_normalized", trials, worst, 1e-12))
    return records


def run_theorem1(trials: int, seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    cfg = manifold.ManifoldConfig(dim=3)
    origin = manifold.origin(cfg)
    records = []
    for pooling in ("uniform", "attention"):
        worst = 0.0
        for _ in range(trials):
            kernels = kernelgen.random_kernels(3, 3, seed=int(rng.integers(1 << 31)), cfg=cfg)
            conv = layers.init_hkconv(rng, kernels, 4, pooling_weights=pooling)
            x = manifold.random_point(rng, cfg)
            nbrs = [manifold.random_point(rng, cfg) for _ in range(int(rng.integers(2, 7)))]
            t = float(rng.uniform(0.0, 1.0))
            y = manifold.exp_map(
                manifold.TangentVector(origin, t * manifold.log_map(origin, x).vec)
            )
            moved_x = manifold.translate(x, y, x)
            moved_nbrs = [manifold.translate(x, y, nb) for nb in nbrs]
            out = layers.hkconv(x, nbrs, conv)
            moved_out = layers.hkconv(moved_x, moved_nbrs, conv)
            worst = max(worst, _rel_diff(out.coords, moved_out.coords))
        records.append(
            _record(f"theorem1.translation_invariance_{pooling}", trials, worst, _THEOREM1_TOL)
        )
    return records


def _random_node_batch(rng: np.random.Generator, n: int = 12, f: int = 4) -> graphnet.GraphBatch:
    features = rng.standard_normal((n, f))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    if not pairs:
        pairs = [(0, 1)]
    labels = rng.integers(0, 3, size=n)
    labels[:3] = np.arange(3)
    thirds = rng.permutation(n)
    masks = {
        "train": np.isin(np.arange(n), thirds[: n // 2]),
        "val": np.isin(np.arange(n), thirds[n // 2 : 3 * n // 4]),
        "test": np.isin(np.arange(n), thirds[3 * n // 4 :]),
    }
    return graphnet.GraphBatch(
        features=features,
        edges=np.asarray(pairs, dtype=np.int64),
        labels=labels,
        masks=masks,
    )


def _permute_node_batch(batch: graphnet.GraphBatch, perm: np.ndarray) -> graphnet.GraphBatch:
    """Relabel node i as perm[i]."""
    inv = np.argsort(perm)
    return graphnet.GraphBatch(
        features=batch.features[inv],
        edges=perm[batch.edges],
        labels=batch.labels[inv],
        masks={k: v[inv] for k, v in batch.masks.items()},
    )


def run_prop1(trials: int, seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    cfg = manifold.ManifoldConfig(dim=3)
    kernels = kernelgen.random_kernels(3, 3, seed=13, cfg=cfg)
    records = []

    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(5, 11))
        pts = [manifold.random_point(rng, cfg) for _ in range(n)]
        adjacency = [
            [j for j in range(n) if j != i and (min(i, j) * n + max(i, j)) % 3 != 0]
            for i in range(n)
        ]
        for i in range(n):
            if not adjacency[i]:
                adjacency[i] = [(i + 1) % n]
        conv = layers.init_hkconv(rng, kernels, 4)
        out = [layers.hkconv(pts[i], [pts[j] for j in adjacency[i]], conv) for i in range(n)]
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        new_pts = [pts[inv[i]] for i in range(n)]
        new_out = []
        for i in range(n):
            nbrs = sorted(perm[j] for j in adjacency[inv[i]])
            new_out.append(layers.hkconv(new_pts[i], [new_pts[j] for j in nbrs], conv))
        for i in range(n):
            diff = np.max(np.abs(out[i].coords - new_out[perm[i]].coords))
            worst = max(worst, float(diff))
    records.append(_record("prop1.nodewise_hkconv_bitwise", trials, worst, 0.0))

    worst = 0.0
    for trial in range(trials):
        batch = _random_node_batch(rng)
        mcfg = graphnet.HKNConfig(
            layers=2,
            K=2,
            hidden_dim=5,
            kernel_source="random",
            task="node",
            seed=trial,
        )
        model = graphnet.build_hkn(
            mcfg, feature_dim=batch.feature_dim, num_classes=batch.num_classes
        )
        logits = np.asarray(graphnet.forward_logits(model, batch))
        perm = rng.permutation(batch.num_nodes)
        permuted = _permute_node_batch(batch, perm)
        new_logits = np.asarray(graphnet.forward_logits(model, permuted))
        worst = max(worst, float(np.max(np.abs(new_logits[perm] - logits))))
    records.append(_record("prop1.node_task_logits_bitwise", trials, worst, 0.0))
    return records


@contextlib.contextmanager
def corrupted_recentering():
    """Deliberately damage the recentering step (self-test hook).

    The replacement wraps lmath._boost, the boost that lmath.ominus and
    the conv layers' edge node share: it adds to the last spatial
    coordinate of each recentred row a drift proportional to its root's
    time coordinate, and lifts the result back onto the manifold. A
    constant drift would be the same map for the original and the
    translated neighborhood, so the damage must depend on where the root
    sits; outputs remain valid points and the theorem1 suite must catch
    the broken invariance.
    """
    original = lmath._boost

    def damaged(u, x, kappa):
        moved, kept = original(u, x, kappa)
        spatial = moved[..., 1:].copy()
        spatial[..., -1:] += 0.05 * x[..., :1]
        return lmath._lifted(spatial, kappa), kept

    lmath._boost = damaged
    try:
        yield
    finally:
        lmath._boost = original


def run_suite(suite: str, trials: int = 100, seed: int = 0, mutate: str | None = None) -> list:
    """Run one named suite (or all) and return its property records."""
    if suite not in SUITES + ("all",):
        raise ParameterError(f"unknown suite {suite!r}")
    if mutate not in (None, "pt"):
        raise ParameterError(f"unknown mutation {mutate!r}")
    runners = {
        "manifold": run_manifold,
        "layers": run_layers,
        "theorem1": run_theorem1,
        "prop1": lambda t, s=0: run_prop1(min(t, 20), s),
    }
    names = SUITES if suite == "all" else (suite,)
    with corrupted_recentering() if mutate == "pt" else contextlib.nullcontext():
        records = []
        for name in names:
            records.extend(runners[name](trials, seed))
    return records
