"""The three workloads. Each runs in its own process (see run.py).

A workload builds its inputs from the seed, sets up several times (the
median is setup_s), runs its main call, then repeats a cheap measured
operation until the run has lasted `seconds`, and finally checks its
outputs with checks.py. With a tracer installed the same code also
yields the per-layer figures.

Each workload returns (end_to_end, per_layer); per_layer is None when
the run is not traced.
"""

from __future__ import annotations

import contextlib
import copy
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks

SETUP_ROUNDS = 5
MIN_REPEATS = 10  # at least this many samples behind every median
OVERHEAD_STEPS = 5  # gradient steps timed with and without tracing, alternating

# node-attention: one generated graph, attention pooling, twice the kernels
NODE_N = 1500
NODE_CLASSES = 4
NODE_FLIP = 0.5  # share of nodes whose one-hot feature names a random class
NODE_EPOCHS = 60
NODE_LR = 0.1

# typed-invariants
SUITE_TRIALS = 100
MIN_ROUNDS = 5
TYPED_CALLS = 20  # typed hkconv calls, and small forwards, per round

now = time.perf_counter


class Run:
    """What one workload run shares: inputs, operation count, checks."""

    def __init__(self, hk, seed: int, seconds: float, tracer, workdir: Path):
        self.hk = hk
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.workdir = workdir
        self.attempted = 0
        self.checks = {}
        self.given = {}  # per-layer figures the workload measures itself

    def timed(self, fn, *args, **kwargs):
        """One attempted operation; returns (result, seconds)."""
        self.attempted += 1
        t0 = now()
        out = fn(*args, **kwargs)
        return out, now() - t0

    def check(self, name: str, result):
        self.attempted += 1
        ok, figure = result
        self.checks[name] = {"ok": bool(ok), "figure": figure}

    def repeat_until(self, start: float, fn, *args):
        """(result, seconds) samples of fn until `seconds` have passed since start."""
        samples = []
        while len(samples) < MIN_REPEATS or now() - start < self.seconds:
            samples.append(self.timed(fn, *args))
        return samples


# ---------------------------------------------------------------------------
# training workloads


def class_tree(batch_cls, seed: int):
    """Node task on one tree-like graph, made from the seed alone.

    Node 0 is the root; node i >= 1 belongs to class (i - 1) % C and hangs
    off a uniformly chosen earlier node of its class (the first node of a
    class hangs off the root), so the root's top-level subtrees are the
    classes, each a random recursive tree. NODE_N // 2 extra edges join
    random pairs inside a class. A node's feature is the one-hot of its
    class, replaced with probability NODE_FLIP by the one-hot of a uniform
    random class. The root is in no split; the others are shuffled
    40/20/40 into train/val/test.
    """
    rng = np.random.default_rng(seed)
    n, C = NODE_N, NODE_CLASSES
    labels = np.zeros(n, dtype=np.int64)
    members = [[] for _ in range(C)]
    edges = []
    for i in range(1, n):
        c = (i - 1) % C
        parent = members[c][rng.integers(len(members[c]))] if members[c] else 0
        edges.append((parent, i))
        labels[i] = c
        members[c].append(i)
    seen = set(edges)
    while len(edges) < n - 1 + n // 2:
        a, b = sorted(rng.choice(members[rng.integers(C)], 2, replace=False))
        if (a, b) not in seen:
            seen.add((a, b))
            edges.append((a, b))
    shown = np.where(rng.random(n) < NODE_FLIP, rng.integers(0, C, n), labels)
    order = rng.permutation(np.arange(1, n))
    cut = np.cumsum([int(0.4 * (n - 1)), int(0.2 * (n - 1))])
    parts = np.split(order, cut)
    masks = {k: np.isin(np.arange(n), p) for k, p in zip(("train", "val", "test"), parts)}
    return batch_cls(features=np.eye(C)[shown], edges=np.asarray(edges), labels=labels, masks=masks)


@contextlib.contextmanager
def _timing_forwards(gn, samples: list):
    """Time every no-tape graphnet.forward_logits call into samples.

    Training runs one such forward per epoch (the split metrics) and
    graphnet.evaluate runs one per call, so eval_ms is sampled over the
    whole run rather than only its tail; the machine's speed drifts over
    tens of seconds.
    """
    inner = gn.forward_logits

    def timed(model, batch, leaves=None, training=False, rng=None):
        if leaves is not None:
            return inner(model, batch, leaves, training, rng)
        t0 = now()
        out = inner(model, batch)
        samples.append(now() - t0)
        return out

    gn.forward_logits = timed
    try:
        yield
    finally:
        gn.forward_logits = inner


def _nll(ad, logits, labels, idx, num_classes):
    logp = ad.log_softmax(ad.take(logits, idx), axis=-1)
    return -ad.mean(ad.sum(logp * np.eye(num_classes)[labels[idx]], axis=-1))


def _setup_rounds(run: Run, make_data, cfg):
    """SETUP_ROUNDS cold set-ups: data, kernel placement, build_hkn."""
    gn = run.hk.graphnet
    times = []
    for i in range(SETUP_ROUNDS):
        t0 = now()
        data = make_data()
        t_data = now() - t0
        gn._SOLVE_CACHE.clear()  # a cold kernel placement, as a fresh process pays it
        model = gn.build_hkn(cfg, feature_dim=data.feature_dim, num_classes=data.num_classes)
        times.append(now() - t0)
        run.attempted += 1
        if i == 0 and run.tracer is not None:
            run.given["graphnet.data_ms"] = 1e3 * t_data
            run.given.update(run.tracer.drain_setup())
    return data, model, statistics.median(times)


def _tracing_overhead_ms(run: Run, step, pairs: int) -> float:
    """Median traced minus median untraced time of step(traced), the two
    alternating so that the machine's speed drift falls on both alike."""
    times = {False: [], True: []}
    run.tracer.uninstall()
    try:
        for _ in range(pairs):
            for traced in (False, True):
                if traced:
                    run.tracer.install()
                try:
                    t0 = now()
                    step(traced)
                    times[traced].append(now() - t0)
                finally:
                    if traced:
                        run.tracer.uninstall()
    finally:
        run.tracer.install()
    return 1e3 * (statistics.median(times[True]) - statistics.median(times[False]))


def _step_overhead_ms(run: Run, model, data, train_idx) -> float:
    """Tracing overhead of one gradient-and-Adam step, on copies of the model."""
    gn, ad = run.hk.graphnet, run.hk.autodiff
    twins = {traced: copy.deepcopy(model) for traced in (False, True)}

    def step(traced):
        twin = twins[traced]
        grads = ad.grad(
            lambda leaves: _nll(
                ad, gn.forward_logits(twin, data, leaves), data.labels, train_idx,
                twin.num_classes,
            ),
            twin.store,
        )
        ad.adam_step(twin.store, grads, twin.cfg.lr)

    return _tracing_overhead_ms(run, step, OVERHEAD_STEPS)


TYPED_FIGURES = (
    "invariants.manifold_ms",
    "invariants.layers_ms",
    "invariants.theorem1_ms",
    "invariants.prop1_ms",
    "layers.hkconv_typed.calls",
    "layers.hkconv_typed.ms",
    "manifold.point_validations",
)


def _typed_layer_figures(run: Run) -> dict:
    """One invariants.run_suite round under a tracer of its own, so the
    traced runs of the gated workloads also measure the typed API layers
    (the typed-invariants workload is too noisy to gate; see README)."""
    run.tracer.uninstall()
    typed = type(run.tracer)(run.hk)
    typed.install()
    try:
        with typed.unit():
            records, _ = run.timed(
                run.hk.invariants.run_suite, "all", trials=SUITE_TRIALS, seed=run.seed
            )
    finally:
        typed.uninstall()
        run.tracer.install()
    run.check(
        "invariant_suites_pass",
        checks.check_invariant_records(records, SUITE_TRIALS, run.hk.invariants.SUITES),
    )
    figures = typed.metrics({})
    return {name: figures[name] for name in TYPED_FIGURES}


def _finish_training(run: Run, model, data, reloaded, train_idx, test_idx):
    """Per-layer snapshot (traced runs), then the checks every trained
    model must pass. Returns (test accuracy from the logits, per_layer)."""
    gn, ad = run.hk.graphnet, run.hk.autodiff
    per_layer = None
    if run.tracer is not None:
        per_layer = run.tracer.metrics(run.given)
        per_layer.update(_typed_layer_figures(run))
        per_layer["trace.overhead_ms"]["value"] = _step_overhead_ms(run, model, data, train_idx)

    logits = np.asarray(gn.forward_logits(model, data))
    perm = np.random.default_rng(run.seed).permutation(data.num_nodes)
    moved = checks.relabel_batch(gn.GraphBatch, data, perm)
    run.check(
        "relabelling_bitwise",
        checks.check_relabelling(
            logits, np.asarray(gn.forward_logits(model, moved)), perm, data.task
        ),
    )

    def loss(leaves):
        logits_ = gn.forward_logits(model, data, leaves)
        return _nll(ad, logits_, data.labels, train_idx, model.num_classes)

    params = {p: v.copy() for p, v in model.store.items()}
    grads = ad.grad(loss, model.store)
    run.check(
        "gradient_vs_central_difference",
        checks.check_gradient(lambda values: float(loss(values)), params, grads, run.seed),
    )
    run.check(
        "checkpoint_reload_bitwise",
        checks.check_identical(logits, np.asarray(gn.forward_logits(reloaded, data))),
    )
    return checks.accuracy(logits, data.labels, test_idx), per_layer


def graph_default(run: Run):
    """`hkconv train` with criterion 9's settings, then repeated evaluation.

    Training uses the criterion's fixed suite (data seed 0, model seed 0):
    train wall time runs to early stopping, and other data seeds move it by
    up to 60% (55 to 101 epochs over data seeds 2-4; data seed 1 is refused
    by the generator's sanity band). The run seed picks the relabelling
    permutation and the gradient-check direction.
    """
    gn, cli = run.hk.graphnet, run.hk.cli
    data, _, setup_s = _setup_rounds(
        run, lambda: gn.synth_trees_vs_random(200, 16, seed=0), gn.HKNConfig()
    )

    trained = {}
    inner_train = gn.train

    def capture(model, batch, cfg=None):
        t0 = now()
        out = inner_train(model, batch, cfg)
        trained.update(model=model, seconds=now() - t0, epochs=out.history[-1][0] + 1)
        return out

    outdir = run.workdir / "train"
    forwards = []
    gn.train = capture
    gn._SOLVE_CACHE.clear()
    start = now()
    with _timing_forwards(gn, forwards):
        try:
            code, train_s = run.timed(
                cli.main, ["train", "--max-epochs", "200", "--out", str(outdir)]
            )
        finally:
            gn.train = inner_train
        if code != 0:
            raise RuntimeError(f"hkconv train exited with {code}")
        model = trained["model"]
        evals = run.repeat_until(start, gn.evaluate, model, data, "test")

    checkpoint = outdir / "checkpoint.json"
    (reloaded, _), _ = run.timed(gn.load_checkpoint, checkpoint)
    run.given["graphnet.checkpoint_bytes"] = checkpoint.stat().st_size
    G = data.num_graphs
    acc, per_layer = _finish_training(
        run, model, data, reloaded, np.arange(int(0.6 * G)), np.arange(int(0.8 * G), G)
    )
    run.check("test_accuracy_floor", checks.check_accuracy(acc, checks.GRAPH_ACCURACY_FLOOR))
    run.check("repeated_eval_identical", (len({m.accuracy for m, _ in evals}) == 1, len(evals)))
    return {
        "setup_s": setup_s,
        "run_s": train_s,
        "step_ms": 1e3 * trained["seconds"] / trained["epochs"],
        "eval_ms": 1e3 * statistics.median(forwards),
        "accuracy": acc,
    }, per_layer


def node_attention(run: Run):
    """Node classification with attention pooling and K=8 on class_tree(seed),
    a fixed NODE_EPOCHS epochs (patience equal to the epoch budget, so no
    early stop), then repeated evaluation."""
    gn = run.hk.graphnet
    cfg = gn.HKNConfig(K=8, pooling_weights="attention", task="node", lr=NODE_LR)
    data, model, setup_s = _setup_rounds(run, lambda: class_tree(gn.GraphBatch, run.seed), cfg)

    forwards = []
    start = now()
    with _timing_forwards(gn, forwards):
        result, train_s = run.timed(
            gn.train, model, data, gn.TrainConfig(max_epochs=NODE_EPOCHS, patience=NODE_EPOCHS)
        )
        evals = run.repeat_until(start, gn.evaluate, model, data, "test")
    epochs = result.history[-1][0] + 1

    checkpoint = run.workdir / "checkpoint.json"
    run.timed(gn.save_checkpoint, model, checkpoint)
    (reloaded, _), _ = run.timed(gn.load_checkpoint, checkpoint)
    run.given["graphnet.checkpoint_bytes"] = checkpoint.stat().st_size
    train_idx = np.flatnonzero(data.masks["train"])
    test_idx = np.flatnonzero(data.masks["test"])
    acc, per_layer = _finish_training(run, model, data, reloaded, train_idx, test_idx)
    majority = checks.majority_share(data.labels, train_idx, test_idx)
    run.check(
        "beats_majority_share",
        (acc >= majority + checks.MAJORITY_MARGIN, {"accuracy": acc, "majority": majority}),
    )
    run.check("fixed_epoch_count", (epochs == NODE_EPOCHS, epochs))
    run.check("repeated_eval_identical", (len({m.accuracy for m, _ in evals}) == 1, len(evals)))
    return {
        "setup_s": setup_s,
        "run_s": train_s,
        "step_ms": 1e3 * train_s / epochs,
        "eval_ms": 1e3 * statistics.median(forwards),
        "accuracy": acc,
    }, per_layer


# ---------------------------------------------------------------------------
# typed API


_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import hkconv, hkconv.cli; print(time.perf_counter() - t0)"
)


def _import_seconds(src: Path) -> float:
    """Median import time of the package in fresh interpreters (timed inside each)."""
    times = []
    for _ in range(SETUP_ROUNDS):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(src)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _typed_fixtures(hk, seed: int):
    """One typed neighbourhood and layer, and a 12-node graph with a small model."""
    mf, ly, kg, gn = hk.manifold, hk.layers, hk.kernelgen, hk.graphnet
    rng = np.random.default_rng(seed)
    cfg = mf.ManifoldConfig(dim=3)
    conv = ly.init_hkconv(rng, kg.random_kernels(3, 3, seed, cfg), 4, pooling_weights="attention")
    x = mf.random_point(rng, cfg)
    nbrs = [mf.random_point(rng, cfg) for _ in range(4)]
    n = 12
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3] or [(0, 1)]
    labels = np.arange(n) % 3
    split = rng.permutation(n)
    masks = {
        k: np.isin(np.arange(n), part)
        for k, part in zip(("train", "val", "test"), np.split(split, [6, 9]))
    }
    batch = gn.GraphBatch(
        features=rng.standard_normal((n, 4)), edges=np.asarray(pairs), labels=labels, masks=masks
    )
    model = gn.build_hkn(
        gn.HKNConfig(K=2, hidden_dim=5, kernel_source="random", task="node", seed=seed),
        feature_dim=4,
        num_classes=3,
    )
    return x, nbrs, conv, batch, model


def typed_invariants(run: Run):
    """invariants.run_suite("all") rounds, plus typed single-point hkconv calls
    and small-batch forward_logits calls, with no gradient tape."""
    hk = run.hk
    inv, ly, gn = hk.invariants, hk.layers, hk.graphnet
    import_s = _import_seconds(Path(hk.__file__).resolve().parent.parent)
    builds = [run.timed(_typed_fixtures, hk, run.seed) for _ in range(SETUP_ROUNDS)]
    x, nbrs, conv, batch, model = builds[-1][0]
    setup_s = import_s + statistics.median(t for _, t in builds)

    start = now()
    suite_times, call_times, fwd_times = [], [], []
    rounds, outputs, logits = [], [], []
    while len(suite_times) < MIN_ROUNDS or now() - start < run.seconds:
        with run.tracer.unit() if run.tracer else contextlib.nullcontext():
            records, t = run.timed(inv.run_suite, "all", trials=SUITE_TRIALS, seed=run.seed)
        suite_times.append(t)
        rounds.append(records)
        for _ in range(TYPED_CALLS):
            out, t = run.timed(ly.hkconv, x, nbrs, conv)
            call_times.append(t)
            outputs.append(out.coords)
        for _ in range(TYPED_CALLS):
            out, t = run.timed(gn.forward_logits, model, batch)
            fwd_times.append(t)
            logits.append(np.asarray(out))

    per_layer = None
    if run.tracer is not None:
        per_layer = run.tracer.metrics(run.given)

        def suite_round(traced):
            with run.tracer.unit() if traced else contextlib.nullcontext():
                inv.run_suite("all", trials=SUITE_TRIALS, seed=run.seed)

        per_layer["trace.overhead_ms"]["value"] = _tracing_overhead_ms(run, suite_round, 2)

    verdicts = [checks.check_invariant_records(r, SUITE_TRIALS, inv.SUITES) for r in rounds]
    run.check(
        "invariant_suites_pass",
        (all(ok for ok, _ in verdicts), max(worst for _, worst in verdicts)),
    )
    outputs = np.stack(outputs)
    run.check("typed_hkconv_on_manifold", checks.check_on_manifold(outputs))
    run.check(
        "typed_hkconv_repeatable",
        checks.check_identical(outputs, np.repeat(outputs[:1], len(outputs), 0)),
    )
    perm = np.random.default_rng(run.seed).permutation(batch.num_nodes)
    moved = checks.relabel_batch(gn.GraphBatch, batch, perm)
    run.check(
        "small_forward_relabelling_bitwise",
        checks.check_relabelling(
            logits[0], np.asarray(gn.forward_logits(model, moved)), perm, "node"
        ),
    )
    logits = np.stack(logits)
    run.check(
        "small_forward_repeatable",
        checks.check_identical(logits, np.repeat(logits[:1], len(logits), 0)),
    )
    passed = sum(r["passed"] for records in rounds for r in records)
    return {
        "setup_s": setup_s,
        "run_s": statistics.median(suite_times),
        "step_ms": 1e3 * statistics.median(call_times),
        "eval_ms": 1e3 * statistics.median(fwd_times),
        "accuracy": passed / sum(len(records) for records in rounds),
    }, per_layer


WORKLOADS = {
    "graph-default": graph_default,
    "node-attention": node_attention,
    "typed-invariants": typed_invariants,
}
