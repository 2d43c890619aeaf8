"""Command-line surface: artifacts with fixed names, manifest contents,
exit-code contract, config layering, and byte-identical reruns."""

import hashlib
import json

import numpy as np
import pytest

from hkconv import __version__, graphnet, kernelgen, manifold
from hkconv.cli import main

_SMALL_TRAIN = [
    "--n-graphs", "60",
    "--nodes-per-graph", "12",
    "--max-epochs", "30",
]


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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

    @pytest.mark.slow
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

    def test_bad_K_list_exits_2(self, tmp_path):
        assert main(["sweep", "--K-list", "2,x", "--out", str(tmp_path)]) == 2


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
