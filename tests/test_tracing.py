"""The benchmark's per-layer tracer (bench/tracing.py) against the package:
it must see every tape op of a gradient pass and leave nothing patched."""

import importlib.util
from pathlib import Path

import hkconv
import hkconv.cli  # noqa: F401 - the tracer patches cli.cmd_train
from hkconv import autodiff as ad
from hkconv import graphnet as gn

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
# everything the tracer patches
OWNERS = (
    hkconv.autodiff, hkconv.graphnet, hkconv.lmath, hkconv.layers, hkconv.cli,
    hkconv.kernelgen, hkconv.invariants, ad.Tape, hkconv.manifold.LorentzPoint,
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes(owners) -> dict:
    return {(owner, name): value for owner in owners for name, value in vars(owner).items()}


def test_tracer_counts_every_tape_op_and_restores_the_package():
    data = gn.synth_trees_vs_random(60, 12, seed=0)
    model = gn.build_hkn(
        gn.HKNConfig(K=2, hidden_dim=5), feature_dim=data.feature_dim, num_classes=data.num_classes
    )
    idx = gn.split_indices(data, "train")
    outputs = []

    def loss(leaves):
        outputs.append(gn._nll(gn.forward_logits(model, data, leaves), data.labels[idx], idx, 2))
        return outputs[-1]

    before = _attributes(OWNERS)
    tracer = _load_tracing().Tracer(hkconv)
    tracer.install()
    try:
        assert ad._lift is not before[(hkconv.autodiff, "_lift")]
        with tracer.unit():
            loss(model.store.tensors())
        forward_calls = dict(tracer.op_calls)
        ad.grad(loss, model.store)
    finally:
        tracer.uninstall()

    ops = [node.op for node in ad.Tape(outputs[-1])._nodes if node.op != "leaf"]
    # every node's VJPs ran through the tracer, and the backward pass made no op
    assert set(tracer.op_vjp) == set(ops)
    assert tracer.op_calls == {op: 2 * n for op, n in forward_calls.items()}
    metrics = tracer.metrics({})
    assert metrics["autodiff.ops_per_grad"]["value"] == len(ops)
    # recentering, the K-kernel loop and the normalization are one
    # edge_points node made by layers._edge_points, so the combine stage
    # holds its time both ways
    assert tracer.op_vjp["edge_points"] > 0
    assert metrics["model.conv1.combine.fwd_ms"]["value"] > 0
    assert metrics["model.conv1.combine.bwd_ms"]["value"] > 0
    after = _attributes(OWNERS)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


def test_tracer_counts_one_unit_per_training_step():
    data = gn.synth_trees_vs_random(60, 12, seed=0)
    model = gn.build_hkn(
        gn.HKNConfig(K=2, hidden_dim=5), feature_dim=data.feature_dim, num_classes=data.num_classes
    )
    before = _attributes(OWNERS)
    tracer = _load_tracing().Tracer(hkconv)
    tracer.install()
    try:
        metrics = gn.train(model, data, gn.TrainConfig(max_epochs=3))
    finally:
        tracer.uninstall()

    assert metrics.history[-1][0] == 2
    # each step's forward is recorded inside its gradient pass, and epochs
    # 0 and 1 are scored from the next step's recorded forward
    assert tracer.units == 3
    assert len(tracer.tape_sizes) == 3
    assert len(tracer.spans["autodiff.record"]) == 3
    # only the last epoch's score and the test evaluate run apart
    assert len(tracer.spans["graphnet.forward"]) == 2
    after = _attributes(OWNERS)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
