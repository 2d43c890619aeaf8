"""Command-line surface: artifacts with fixed names, manifest contents,
exit-code contract, config layering, and byte-identical reruns."""

import ctypes
import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hkconv
from hkconv import __version__, graphnet, kernelgen, manifold
from hkconv.cli import main

_SMALL_TRAIN = [
    "--n-graphs", "60",
    "--nodes-per-graph", "12",
    "--max-epochs", "30",
]
_TINY_TRAIN = ["--n-graphs", "20", "--nodes-per-graph", "8", "--max-epochs", "2"]


_GLIBC = platform.libc_ver()[0] == "glibc"
_ALLOCATOR = {"mmap_threshold": 33554432, "top_pad": 16777216}


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _as_v1(record):
    """A checkpoint record in the v1 layout: one leaf per kernel and field."""
    params = {}
    for path, value in record["params"].items():
        if path.startswith("layer"):
            layer, name = path.split(".")
            params.update({f"{layer}.k{k}.{name}": v for k, v in enumerate(value)})
        else:
            params[path] = value
    return {**record, "format": "hkn-checkpoint-v1", "params": params}


class TestKernelGenCommand:
    def test_two_point_run_writes_all_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = main(["kernel-gen", "--K", "2", "--dim", "2", "--out", str(out)])
        assert code == 0
        for name in (
            "kernels.json",
            "convergence.csv",
            "kernels_poincare.csv",
            "kernel_geodesics_poincare.csv",
            "manifest.json",
        ):
            assert (out / name).is_file(), name
        ks = kernelgen.load_kernels(out / "kernels.json")
        o = manifold.origin(ks.cfg)
        radii = [manifold.distance(o, p) for p in ks.points]
        np.testing.assert_allclose(radii, 2.0**-0.5, atol=1e-3)
        lines = (out / "convergence.csv").read_text().strip().splitlines()
        assert lines[0] == "iter,loss,grad_norm"
        assert len(lines) > 2

    def test_five_point_run_converges(self, tmp_path):
        out = tmp_path / "run"
        assert main(["kernel-gen", "--K", "5", "--dim", "2", "--out", str(out)]) == 0
        ks = kernelgen.load_kernels(out / "kernels.json")
        assert ks.K == 5
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["converged"] is True

    def test_same_seed_reruns_are_byte_identical(self, tmp_path):
        hashes = []
        for stamp in ("a", "b"):
            out = tmp_path / stamp
            assert main(
                ["kernel-gen", "--K", "3", "--dim", "2", "--seed", "9", "--out", str(out)]
            ) == 0
            hashes.append(
                tuple(
                    _sha(out / n)
                    for n in ("kernels.json", "convergence.csv", "manifest.json")
                )
            )
        assert hashes[0] == hashes[1]

    def test_manifest_records_the_run(self, tmp_path):
        out = tmp_path / "run"
        main(["kernel-gen", "--K", "2", "--dim", "2", "--seed", "3", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"] == __version__
        assert manifest["seed"] == 3
        assert manifest["kernel_hash"] == _sha(out / "kernels.json")
        assert manifest["config"]["solver.lr"] == 1e-4
        assert "timestamp" not in manifest

    def test_manifest_records_the_machine_the_bits_depend_on(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "run"
        assert main(["kernel-gen", "--K", "2", "--dim", "2", "--out", str(out)]) == 0
        machine = json.loads((out / "manifest.json").read_text())["machine"]
        assert machine == {
            "numpy": np.__version__,
            "platform": platform.machine(),
            "cpus": machine["cpus"],
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": None,
            "MKL_NUM_THREADS": None,
            "allocator": _ALLOCATOR if _GLIBC else None,
        }
        assert isinstance(machine["cpus"], int) and 1 <= machine["cpus"] <= os.cpu_count()

    def test_lr_flag_is_the_solver_rate(self, tmp_path):
        flag = tmp_path / "flag"
        args = ["kernel-gen", "--K", "3", "--dim", "2"]
        assert main([*args, "--lr", "0.001", "--out", str(flag)]) == 0
        config = json.loads((flag / "manifest.json").read_text())["config"]
        assert config["solver.lr"] == 0.001
        assert "model.lr" not in config
        # the flag and the config key run the same solve
        cfg = tmp_path / "run.cfg"
        cfg.write_text("solver.lr=0.001\n")
        keyed = tmp_path / "keyed"
        assert main([*args, "--config", str(cfg), "--out", str(keyed)]) == 0
        assert _sha(flag / "kernels.json") == _sha(keyed / "kernels.json")
        assert _sha(flag / "manifest.json") == _sha(keyed / "manifest.json")
        default = tmp_path / "default"
        assert main([*args, "--out", str(default)]) == 0
        assert _sha(flag / "convergence.csv") != _sha(default / "convergence.csv")

    def test_too_tight_starting_ring_is_one_line_failure(self, tmp_path, capsys):
        # at init_scale 1e-9 the ring's pairwise distances round to 0
        cfg = tmp_path / "tight.cfg"
        cfg.write_text("solver.init_scale=1e-9\n")
        args = ["kernel-gen", "--K", "3", "--dim", "2", "--config", str(cfg)]
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*args, "--out", str(tmp_path / "run")])
        assert code == 1
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("failure:") and "starting ring too tight" in err[0]

    @pytest.mark.parametrize("scale", ("800", "inf", "20"))
    def test_too_wide_starting_ring_is_one_line_failure(self, tmp_path, capsys, scale):
        # radius sqrt(-curvature) * init_scale beyond lmath.EMBED_MAX_RADIUS (11)
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(f"solver.init_scale={scale}\n")
        args = ["kernel-gen", "--K", "3", "--dim", "2", "--config", str(cfg)]
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*args, "--out", str(tmp_path / "run")])
        assert code in (1, 2)
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "init_scale" in err[0]

    def test_widest_starting_ring_converges(self, tmp_path):
        cfg = tmp_path / "widest.cfg"
        cfg.write_text("solver.init_scale=11\n")
        args = ["kernel-gen", "--K", "3", "--dim", "2", "--config", str(cfg)]
        assert main([*args, "--out", str(tmp_path / "run")]) == 0

    def test_usage_errors_exit_2(self, tmp_path):
        assert main(["kernel-gen", "--K", "1", "--dim", "2", "--out", str(tmp_path)]) == 2
        assert main(["kernel-gen", "--K", "2", "--dim", "0", "--out", str(tmp_path)]) == 2

    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["kernel-gen", "--K", "2", "--dim", "2", "--frobnicate", "1"])
        assert exc.value.code == 2


class TestInvariantsCommand:
    def test_healthy_build_exits_zero_with_report(self, tmp_path):
        out = tmp_path / "run"
        code = main(["invariants", "--suite", "all", "--trials", "25", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["failed"] == 0
        assert report["properties"]
        for rec in report["properties"]:
            assert {"name", "trials", "max_error", "passed"} <= set(rec)

    def test_mutated_transport_fails_and_sets_exit_code(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "invariants", "--suite", "theorem1", "--trials", "10",
                "--mutate", "pt", "--out", str(out),
            ]
        )
        report = json.loads((out / "report.json").read_text())
        assert code == report["failed"] > 0

    def test_bad_trials_is_usage_error(self, tmp_path):
        assert main(["invariants", "--trials", "0", "--out", str(tmp_path)]) == 2

    def test_seed_drives_the_suite(self, tmp_path):
        reports = {}
        for seed in ("0", "5"):
            out = tmp_path / seed
            args = ["invariants", "--suite", "manifold", "--trials", "5", "--seed", seed]
            assert main([*args, "--out", str(out)]) == 0
            reports[seed] = json.loads((out / "report.json").read_text())
        assert reports["5"]["seed"] == 5
        errors = {s: [p["max_error"] for p in r["properties"]] for s, r in reports.items()}
        assert errors["0"] != errors["5"]


class TestAppendixACommand:
    def test_decay_table_and_fit(self, tmp_path):
        out = tmp_path / "run"
        code = main(["appendix-a", "--out", str(out)])
        assert code == 0
        lines = (out / "gradient_decay.csv").read_text().strip().splitlines()
        assert lines[0] == "radius,grad_norm"
        assert len(lines) == 11
        report = json.loads((out / "report.json").read_text())
        assert report["slope"] < 0
        assert report["r_squared"] >= 0.95

    def test_doubled_radii_lower_every_norm(self, tmp_path):
        norms = {}
        for tag, spec in (("near", "0.5:5.0:0.5"), ("far", "1.0:10.0:1.0")):
            out = tmp_path / tag
            assert main(["appendix-a", "--radii", spec, "--out", str(out)]) == 0
            rows = (out / "gradient_decay.csv").read_text().strip().splitlines()[1:]
            norms[tag] = np.array([float(r.split(",")[1]) for r in rows])
        assert norms["near"].shape == norms["far"].shape
        assert np.all(norms["far"] < norms["near"])

    def test_bad_radii_spec_is_usage_error(self, tmp_path):
        assert main(["appendix-a", "--radii", "5", "--out", str(tmp_path)]) == 2
        assert main(["appendix-a", "--radii", "2.0:1.0:0.5", "--out", str(tmp_path)]) == 2


class TestTrainEvalSweep:
    def test_train_writes_artifacts_and_eval_reproduces(self, tmp_path):
        out = tmp_path / "train"
        code = main(["train", "--out", str(out), *_SMALL_TRAIN])
        assert code == 0
        for name in ("metrics.csv", "checkpoint.json", "kernels.json", "manifest.json"):
            assert (out / name).is_file(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"] == __version__
        assert manifest["seed"] == 0
        assert manifest["config"]["data.n_graphs"] == 60
        assert len(manifest["kernel_hash"]) == 64
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == "epoch,split,loss,accuracy,macro_f1"

        eval_out = tmp_path / "eval"
        code = main(
            ["eval", "--checkpoint", str(out / "checkpoint.json"), "--out", str(eval_out)]
        )
        assert code == 0
        report = json.loads((eval_out / "report.json").read_text())
        assert report["split"] == "test"
        assert report["matches_checkpoint"] is True
        assert report["accuracy"] == report["checkpoint_test_accuracy"]

    def test_train_reruns_are_byte_identical(self, tmp_path):
        hashes = []
        for stamp in ("a", "b"):
            out = tmp_path / stamp
            assert main(["train", "--out", str(out), *_SMALL_TRAIN]) == 0
            hashes.append(
                tuple(
                    _sha(out / n)
                    for n in ("metrics.csv", "checkpoint.json", "kernels.json", "manifest.json")
                )
            )
        assert hashes[0] == hashes[1]

    def test_config_file_layering_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model.K=3\nmodel.hidden_dim=8\ntrain.max_epochs=5\n")
        out = tmp_path / "run"
        code = main(
            [
                "train", "--config", str(cfg), "--K", "4", "--out", str(out),
                "--n-graphs", "60", "--nodes-per-graph", "12",
            ]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["model.K"] == 4  # flag beats file
        assert manifest["config"]["model.hidden_dim"] == 8
        assert manifest["config"]["train.max_epochs"] == 5

    def test_unknown_or_malformed_config_keys_exit_2(self, tmp_path):
        bad_key = tmp_path / "bad1.cfg"
        bad_key.write_text("model.warp=9\n")
        assert main(["train", "--config", str(bad_key), "--out", str(tmp_path)]) == 2
        bad_line = tmp_path / "bad2.cfg"
        bad_line.write_text("model.K 4\n")
        assert main(["train", "--config", str(bad_line), "--out", str(tmp_path)]) == 2

    def test_kernel_file_mismatch_exits_2(self, tmp_path):
        kout = tmp_path / "kernels"
        assert main(["kernel-gen", "--K", "3", "--dim", "4", "--out", str(kout)]) == 0
        code = main(
            [
                "train", "--K", "4", "--hidden-dim", "4",
                "--kernel", str(kout / "kernels.json"),
                "--out", str(tmp_path / "t"), *_SMALL_TRAIN,
            ]
        )
        assert code == 2

    def test_task_data_mismatch_exits_2(self, tmp_path):
        code = main(
            ["train", "--task", "node", "--out", str(tmp_path), *_SMALL_TRAIN]
        )
        assert code == 2

    def test_missing_dataset_is_runtime_failure(self, tmp_path):
        code = main(
            ["train", "--data", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("features", [[0.1, 0.2], [0.3, 0.4], [0.5]]),
            ("edges", [[0, 1], [2]]),
            ("edges", [[0, 1, 2]]),
            ("labels", [[0], []]),
            ("graph_ids", [0, [0], 0]),
            ("num_nodes", "three"),
            ("num_nodes", 3.7),
            ("num_nodes", True),
            ("labels", [2**70]),
            ("graph_ids", [0, 0, 2**70]),
            ("edges", [[0, 1], [1, 2**70]]),
            ("edges", [[0, 2**63]]),
            ("edges", [[0.5, 1.7]]),
            ("labels", [1.5]),
            ("graph_ids", [0, 0.5, 0]),
            ("labels", [True]),
            ("labels", [10000000000000]),
        ],
    )
    def test_malformed_dataset_field_is_one_line_failure(self, tmp_path, capsys, field, value):
        record = {
            "num_nodes": 3,
            "features": [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]],
            "edges": [[0, 1], [1, 2]],
            "labels": [0],
            "graph_ids": [0, 0, 0],
        }
        record[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(record))
        capsys.readouterr()
        code = main(["train", "--data", str(path), "--out", str(tmp_path / "t")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("failure:")
        assert repr(field) in err[0]

    @pytest.mark.parametrize("split, value", [("val", [0, "x", 0]), ("test", [0, 0, 2])])
    def test_mask_of_other_than_booleans_or_0_1_is_one_line_failure(
        self, tmp_path, capsys, split, value
    ):
        # truthiness would read "x" and 2 as True and train on the result
        masks = {"train": [True, False, False], "val": [0, 1, 0], "test": [0, 0, 1]}
        record = {
            "num_nodes": 3,
            "features": [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]],
            "edges": [[0, 1], [1, 2]],
            "labels": [0, 1, 0],
            "masks": {**masks, split: value},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(record))
        capsys.readouterr()
        code = main(["train", "--task", "node", "--data", str(path), "--out", str(tmp_path / "t")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("failure:")
        assert repr(split) in err[0]

    @pytest.mark.parametrize(
        "damage, named",
        [
            pytest.param(
                lambda r: {k: v for k, v in r.items() if k != "config"}, "'config'", id="no-config"
            ),
            pytest.param(
                lambda r: {**r, "config": {**r["config"], "warp": 9}}, "'warp'", id="config-key"
            ),
            pytest.param(
                lambda r: {**r, "config": {**r["config"], "layers": 2.0}},
                "'config.layers'",
                id="config-type",
            ),
            pytest.param(lambda r: [r], "JSON object", id="json-list"),
            pytest.param(
                lambda r: {**r, "kernels": r["kernels"][::-1]}, "'kernels'", id="kernel-dim"
            ),
            pytest.param(
                lambda r: {**r, "kernels": [{**r["kernels"][0], "points": 5}, r["kernels"][1]]},
                "'kernels'",
                id="kernel-points",
            ),
            pytest.param(
                lambda r: {
                    **r,
                    "params": {k: v for k, v in r["params"].items() if k != "layer1.bias"},
                },
                "'layer1.bias'",
                id="missing-leaf",
            ),
            pytest.param(
                lambda r: {**r, "params": {**r["params"], "layer2.bias": [[0.0] * 4] * 4}},
                "'layer2.bias'",
                id="extra-leaf",
            ),
            pytest.param(
                lambda r: {
                    **r,
                    "params": {
                        **r["params"],
                        "layer0.weight": [w[:-1] for w in r["params"]["layer0.weight"]],
                    },
                },
                "'layer0.weight'",
                id="misshaped-leaf",
            ),
            pytest.param(
                lambda r: {**r, "params": {**r["params"], "layer1.bias": [[None] * 4] * 4}},
                "'layer1.bias'",
                id="null-leaf",
            ),
            pytest.param(lambda r: {**r, "info": {"data": 5}}, "'info.data'", id="info-data"),
            pytest.param(
                lambda r: {**r, "info": {"data": {"n_graphs": "many"}}},
                "'info.data.n_graphs'",
                id="info-data-field",
            ),
            pytest.param(
                lambda r: {**r, "info": {"test_accuracy": "high"}},
                "'info.test_accuracy'",
                id="info-accuracy",
            ),
            pytest.param(
                lambda r: {**r, "info": {"data": {"n_graph": 60}}},
                "'n_graph'",
                id="info-data-key",
            ),
            # a head of 10**12 classes would need 116 TiB: the declared size
            # is checked against the head's rows before the store is built
            pytest.param(lambda r: {**r, "num_classes": 10**12}, "'num_classes'", id="num-classes"),
            pytest.param(_as_v1, "'hkn-checkpoint-v1'", id="format-v1"),
        ],
    )
    def test_malformed_checkpoint_is_one_line_failure(self, tmp_path, capsys, damage, named):
        cfg = graphnet.HKNConfig(hidden_dim=4, kernel_source="random")
        model = graphnet.build_hkn(cfg, feature_dim=9, num_classes=2)
        good = tmp_path / "good.json"
        graphnet.save_checkpoint(model, good, info={"test_accuracy": 0.5})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(damage(json.loads(good.read_text()))))
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "e")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("failure: checkpoint")
        assert named in err[0]
        assert main(["eval", "--checkpoint", str(good), "--out", str(tmp_path / "g")]) == 0

    @pytest.mark.parametrize(
        "argv, code, named",
        [
            (["eval", "--checkpoint"], 1, "failure: checkpoint"),
            (["train", *_SMALL_TRAIN, "--kernel"], 1, "failure: kernel file"),
            (["train", *_SMALL_TRAIN, "--config"], 2, "config file"),
            (["train", *_SMALL_TRAIN, "--data"], 1, "failure: dataset"),
        ],
        ids=("checkpoint", "kernels", "config", "dataset"),
    )
    def test_a_file_that_is_not_utf8_is_one_line_failure(self, tmp_path, capsys, argv, code, named):
        # a UTF-16 byte-order mark: no reader may decode it as UTF-8
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe{}")
        capsys.readouterr()
        assert main([*argv, str(path), "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert named in err[0] and "UTF-8" in err[0]

    def test_features_beyond_embedding_range_are_one_line_failure(self, tmp_path, capsys):
        data = graphnet.synth_trees_vs_random(20, 8, 1)
        scaled = graphnet.GraphBatch(
            data.features * 30.0, data.edges, data.labels, graph_ids=data.graph_ids
        )
        path = tmp_path / "scaled.json"
        graphnet.save_dataset(scaled, path)
        capsys.readouterr()
        code = main(["train", "--data", str(path), "--out", str(tmp_path / "t")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("failure: feature row 0 has norm 30")

    def test_eval_of_file_trained_checkpoint_needs_data(self, tmp_path, capsys):
        data_path = tmp_path / "small.json"
        graphnet.save_dataset(graphnet.synth_trees_vs_random(60, 12, 3), data_path)
        out = tmp_path / "train"
        assert main(
            ["train", "--data", str(data_path), "--max-epochs", "5", "--out", str(out)]
        ) == 0
        checkpoint = str(out / "checkpoint.json")

        capsys.readouterr()
        code = main(["eval", "--checkpoint", checkpoint, "--out", str(tmp_path / "e0")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(data_path) in err and "--data" in err
        assert not (tmp_path / "e0" / "report.json").exists()

        eval_out = tmp_path / "e1"
        code = main(
            ["eval", "--checkpoint", checkpoint, "--data", str(data_path), "--out", str(eval_out)]
        )
        assert code == 0
        report = json.loads((eval_out / "report.json").read_text())
        assert report["matches_checkpoint"] is True

        # naming the synthetic suite explicitly still evaluates on it
        code = main(
            ["eval", "--checkpoint", checkpoint, "--data", "synth", "--out", str(tmp_path / "e2")]
        )
        assert code == 0

    def test_eval_of_a_node_task_checkpoint_reproduces_every_metric(self, tmp_path):
        # eval runs the test split's receptive field alone; train's final
        # test metrics came from the same restricted forward, and both
        # equal the full forward's rows
        rng = np.random.default_rng(6)
        n = 80
        edges = np.array([(i, int(rng.integers(i))) for i in range(1, n)])
        split = rng.integers(0, 3, size=n)
        data = graphnet.GraphBatch(
            np.eye(3)[split], edges, rng.integers(0, 3, size=n),
            masks={name: split == i for i, name in enumerate(graphnet.SPLITS)},
        )
        data_path = tmp_path / "nodes.json"
        graphnet.save_dataset(data, data_path)
        out = tmp_path / "train"
        assert main(
            ["train", "--task", "node", "--data", str(data_path), "--K", "2",
             "--hidden-dim", "4", "--max-epochs", "6", "--out", str(out)]
        ) == 0
        info = json.loads((out / "checkpoint.json").read_text())["info"]
        eval_out = tmp_path / "eval"
        assert main(
            ["eval", "--checkpoint", str(out / "checkpoint.json"), "--data", str(data_path),
             "--out", str(eval_out)]
        ) == 0
        report = json.loads((eval_out / "report.json").read_text())
        assert report["matches_checkpoint"] is True
        assert (report["macro_f1"], report["loss"]) == (info["test_macro_f1"], info["test_loss"])
        model, _ = graphnet.load_checkpoint(out / "checkpoint.json")
        logits = np.asarray(graphnet.forward_logits(model, data))
        idx = graphnet.split_indices(data, "test")
        assert report["accuracy"] == np.mean(np.argmax(logits[idx], axis=1) == data.labels[idx])

    def test_eval_rejects_a_label_beyond_the_model_classes(self, tmp_path, capsys):
        # five one-edge graphs with the synthetic suite's nine degree
        # columns; label 4 lies below the five graphs but beyond the
        # checkpoint's two classes
        out = tmp_path / "train"
        assert main(["train", "--out", str(out), *_SMALL_TRAIN[:4], "--max-epochs", "2"]) == 0
        batch = graphnet.GraphBatch(
            features=np.eye(9)[np.ones(10, dtype=int)],
            edges=np.arange(10).reshape(5, 2),
            labels=[0, 1, 0, 1, 4],
            graph_ids=np.repeat(np.arange(5), 2),
        )
        data_path = tmp_path / "five.json"
        graphnet.save_dataset(batch, data_path)
        capsys.readouterr()
        code = main(
            [
                "eval", "--checkpoint", str(out / "checkpoint.json"),
                "--data", str(data_path), "--out", str(tmp_path / "e"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "'labels' holds 4" in err[0] and "model's 2 classes" in err[0]
        assert not (tmp_path / "e" / "report.json").exists()

    def test_eval_of_one_graph_labelled_within_the_model_classes(self, tmp_path, capsys):
        # one graph labelled 1: a class the two-class checkpoint has,
        # though the file holds a single labelled graph
        out = tmp_path / "train"
        assert main(["train", "--out", str(out), *_SMALL_TRAIN[:4], "--max-epochs", "2"]) == 0
        batch = graphnet.GraphBatch(
            features=np.eye(9)[np.ones(2, dtype=int)],
            edges=[[0, 1]],
            labels=[1],
            graph_ids=[0, 0],
        )
        data_path = tmp_path / "one.json"
        graphnet.save_dataset(batch, data_path)
        capsys.readouterr()
        code = main(
            [
                "eval", "--checkpoint", str(out / "checkpoint.json"),
                "--data", str(data_path), "--out", str(tmp_path / "e"),
            ]
        )
        assert code == 0, capsys.readouterr().err
        report = json.loads((tmp_path / "e" / "report.json").read_text())
        assert report["split"] == "test" and report["accuracy"] in (0.0, 1.0)

    def test_sweep_emits_table(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep", "--K-list", "2,3", "--seeds", "1", "--out", str(out),
                "--n-graphs", "60", "--nodes-per-graph", "12", "--max-epochs", "15",
            ]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "K,seed,metric"
        assert len(lines) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["K_list"] == [2, 3]

    def test_sweep_trains_on_its_data_train_and_seed_flags(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep", "--K-list", "2", "--seeds", "1", "--seed", "2", "--out", str(out),
                "--n-graphs", "60", "--nodes-per-graph", "12", "--max-epochs", "4",
            ]
        )
        assert code == 0
        row = (out / "sweep.csv").read_text().strip().splitlines()[1].split(",")
        data = graphnet.synth_trees_vs_random(60, 12, seed=0)
        model = graphnet.build_hkn(
            graphnet.HKNConfig(K=2, seed=2), feature_dim=data.feature_dim, num_classes=2
        )
        metrics = graphnet.train(model, data, graphnet.TrainConfig(max_epochs=4))
        assert row == ["2", "2", repr(metrics.accuracy)]
        assert len(metrics.history) == 4 * 3

    def test_bad_K_list_exits_2(self, tmp_path):
        assert main(["sweep", "--K-list", "2,x", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "flags", (["--K-list", "2,10", "--seeds", "1"], ["--K-list", "2", "--seeds", "0"])
    )
    def test_bad_K_or_seeds_exit_2_before_loading_data(self, tmp_path, capsys, monkeypatch, flags):
        def load(cfg):
            raise AssertionError("sweep loaded data before checking its flags")

        monkeypatch.setattr(graphnet.DataConfig, "load", load)
        out = tmp_path / "sweep"
        small = ["--n-graphs", "60", "--nodes-per-graph", "12", "--max-epochs", "4"]
        assert main(["sweep", *flags, *small, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (out / "sweep.csv").exists()


class TestOutputDirResolution:
    def test_env_var_supplies_default_out(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("HKCONV_OUT", str(target))
        assert main(["invariants", "--suite", "prop1", "--trials", "3"]) == 0
        assert (target / "report.json").is_file()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HKCONV_OUT", str(tmp_path / "env"))
        out = tmp_path / "flag"
        assert main(
            ["invariants", "--suite", "prop1", "--trials", "3", "--out", str(out)]
        ) == 0
        assert (out / "report.json").is_file()
        assert not (tmp_path / "env").exists()


def _keys(cls, section):
    return {f"{section}.{f.name}" for f in dataclasses.fields(cls)}


class TestConfigKeys:
    """Each subcommand accepts exactly the config keys it reads, with the
    types and defaults of the config dataclasses."""

    def test_manifest_config_holds_the_keys_read(self, tmp_path):
        model = _keys(graphnet.HKNConfig, "model")
        run = _keys(graphnet.TrainConfig, "train") | _keys(graphnet.DataConfig, "data")
        small = ["--n-graphs", "60", "--nodes-per-graph", "12", "--max-epochs", "2"]
        runs = {
            "kernel-gen": (
                ["kernel-gen", "--K", "2", "--dim", "2"],
                _keys(kernelgen.SolverConfig, "solver") | {"model.curvature"},
            ),
            "appendix-a": (["appendix-a", "--radii", "1:2:1"], set()),
            "train": (["train", *small], model | run),
            "sweep": (
                ["sweep", "--K-list", "2", "--seeds", "1", *small],
                (model - {"model.K"}) | run,
            ),
        }
        for name, (args, keys) in runs.items():
            out = tmp_path / name
            assert main([*args, "--out", str(out)]) == 0, name
            config = json.loads((out / "manifest.json").read_text())["config"]
            assert set(config) == keys, name
        defaults = json.loads((tmp_path / "kernel-gen" / "manifest.json").read_text())["config"]
        assert defaults["solver.max_iters"] == kernelgen.SolverConfig().max_iters

    @pytest.mark.parametrize(
        "command, line",
        [
            (["train"], "solver.lr=nan"),
            (["train"], "solver.max_iters=1"),
            (["sweep"], "model.K=3"),
            (["kernel-gen", "--K", "2", "--dim", "2"], "model.lr=0.1"),
            (["kernel-gen", "--K", "2", "--dim", "2"], "data.seed=1"),
        ],
    )
    def test_key_the_subcommand_does_not_read_exits_2(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        capsys.readouterr()
        assert main([*command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert repr(line.partition("=")[0]) in err[0]
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["appendix-a"],
            ["invariants", "--suite", "prop1", "--trials", "1"],
            ["eval", "--checkpoint", "c.json"],
        ],
    )
    def test_config_flag_is_refused_where_no_key_is_read(self, tmp_path, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model.K=3\n")
        with pytest.raises(SystemExit) as exc:
            main([*command, "--config", str(cfg), "--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command, line",
        [
            (["train"], "data.seed=-1"),
            (["train"], "model.lr=nan"),
            (["train"], "model.curvature=nan"),
            (["kernel-gen", "--K", "2", "--dim", "2"], "solver.lr=nan"),
            (["kernel-gen", "--K", "2", "--dim", "2"], "model.curvature=nan"),
        ],
    )
    def test_out_of_range_value_is_one_line_usage_error(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        capsys.readouterr()
        assert main([*command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:")

    @pytest.mark.parametrize(
        "command, line",
        [
            (["train", *_TINY_TRAIN], "model.weight_decay=inf"),
            (["train", *_TINY_TRAIN, "--lr", "inf"], None),
            (["sweep", "--K-list", "2", "--seeds", "1", *_TINY_TRAIN, "--lr", "inf"], None),
            (["kernel-gen", "--K", "4", "--dim", "3", "--lr", "inf"], None),
        ],
        ids=["train-weight-decay", "train-lr", "sweep-lr", "kernel-gen-lr"],
    )
    def test_infinite_step_size_or_decay_is_one_line_usage_error(
        self, tmp_path, capsys, command, line
    ):
        # an infinite step turns the first update into NaN, or stalls the solver
        if line is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(line + "\n")
            command = [*command, "--config", str(cfg)]
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*command, "--out", str(tmp_path / "o")])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "finite" in err[0]

    @pytest.mark.parametrize("field", ["K", "dim"])
    def test_infinite_kernel_file_count_is_one_line_failure(self, tmp_path, capsys, field):
        # JSON reads 1e400 as an infinity
        record = {"curvature": -1.0, "dim": 16, "K": 4, "provenance": "optimized", "points": []}
        path = tmp_path / "inf.json"
        path.write_text(json.dumps({**record, field: "inf"}).replace('"inf"', "1e400"))
        capsys.readouterr()
        code = main(["train", "--kernel", str(path), "--out", str(tmp_path / "t"), *_SMALL_TRAIN])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("failure: malformed kernel record")


# a fresh interpreter applies the CLI's allocator setting, then counts the
# minor page faults of gradient passes on criterion 9's suite
_FAULTS_PER_PASS = """
import resource

from hkconv import autodiff as ad, cli, graphnet as gn

assert cli._keep_freed_pages() == {allocator!r}
data = gn.synth_trees_vs_random(200, 16, seed=0)
model = gn.build_hkn(gn.HKNConfig(), feature_dim=data.feature_dim, num_classes=data.num_classes)
idx = gn.split_indices(data, "train")


def loss(leaves):
    logits = gn.forward_logits(model, data, leaves, training=True)
    return gn._nll(logits, data.labels[idx], idx, model.num_classes)


for _ in range(5):
    ad.grad(loss, model.store)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    ad.grad(loss, model.store)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


class TestAllocatorSetting:
    """On glibc, main keeps the pages a gradient pass frees mapped for the
    next pass; elsewhere it leaves the allocator alone."""

    @pytest.mark.skipif(not _GLIBC, reason="the setting applies on glibc only")
    def test_gradient_passes_do_not_fault_their_heap_back_in(self):
        src = Path(hkconv.__file__).resolve().parents[1]
        env = {
            k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")
        }
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
        run = subprocess.run(
            [sys.executable, "-c", _FAULTS_PER_PASS.format(allocator=_ALLOCATOR)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert float(run.stdout) < 100  # about 1,290 without the setting

    def test_no_glibc_means_no_mallopt(self, tmp_path, monkeypatch):
        def no_confstr(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        def no_cdll(*args, **kwargs):
            raise AssertionError("the allocator was touched")

        monkeypatch.setattr(os, "confstr", no_confstr)
        monkeypatch.setattr(ctypes, "CDLL", no_cdll)
        out = tmp_path / "run"
        assert main(["kernel-gen", "--K", "2", "--dim", "2", "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["machine"]["allocator"] is None
