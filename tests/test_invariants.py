"""Property-suite runner: all suites green on healthy code, and the
deliberate-corruption hook proves the suites can actually fail."""

import numpy as np
import pytest

from hkconv import graphnet as gn
from hkconv import invariants as iv
from hkconv import kernelgen, layers, manifold
from hkconv.errors import ParameterError


class TestSuites:
    def test_every_suite_passes_on_healthy_code(self):
        for name in iv.SUITES:
            records = iv.run_suite(name, trials=40, seed=0)
            assert records, name
            for rec in records:
                assert rec["passed"], (name, rec)
                assert rec["trials"] >= 1
                assert rec["max_error"] >= 0.0

    def test_records_carry_stable_fields(self):
        records = iv.run_suite("manifold", trials=10, seed=1)
        for rec in records:
            assert set(rec) >= {"name", "trials", "max_error", "passed"}

    def test_unknown_suite_is_rejected(self):
        with pytest.raises(ParameterError):
            iv.run_suite("everything", trials=5)

    def test_corrupted_transport_is_detected(self):
        # the mutation hook injects a source-dependent drift into parallel
        # transport; the translation-invariance suite must catch it
        healthy = iv.run_suite("theorem1", trials=20, seed=0)
        assert all(rec["passed"] for rec in healthy)
        corrupted = iv.run_suite("theorem1", trials=20, seed=0, mutate="pt")
        assert any(not rec["passed"] for rec in corrupted)

    def test_corrupted_recentering_reaches_the_model(self):
        # the conv layers recenter inside one tape node, so the hook must
        # damage the boost that node calls, not only lmath.ominus
        rng = np.random.default_rng(3)
        cfg = manifold.ManifoldConfig(dim=3)
        conv = layers.init_hkconv(rng, kernelgen.random_kernels(3, 3, seed=11, cfg=cfg), 4)
        x = manifold.random_point(rng, cfg)
        nbrs = [manifold.random_point(rng, cfg) for _ in range(5)]
        data = gn.synth_trees_vs_random(n_graphs=20, nodes_per_graph=8, seed=1)
        model = gn.build_hkn(gn.HKNConfig(), feature_dim=data.feature_dim, num_classes=2)

        def outputs():
            return layers.hkconv(x, nbrs, conv).coords, np.asarray(gn.forward_logits(model, data))

        healthy = outputs()
        with iv.corrupted_recentering():
            damaged = outputs()
        for before, after in zip(healthy, damaged):
            assert np.max(np.abs(after - before)) > 1e-3
        for before, again in zip(healthy, outputs()):
            np.testing.assert_array_equal(again, before)

    def test_corruption_is_scoped_to_the_run(self):
        iv.run_suite("theorem1", trials=5, seed=0, mutate="pt")
        records = iv.run_suite("theorem1", trials=5, seed=0)
        assert all(rec["passed"] for rec in records)

    def test_unknown_mutation_is_rejected(self):
        with pytest.raises(ParameterError):
            iv.run_suite("manifold", trials=5, mutate="teleport")
