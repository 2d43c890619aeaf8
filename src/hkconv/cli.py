"""Command-line entry point.

Subcommands: kernel-gen, invariants, appendix-a, train, eval, sweep.
Behavior is driven by flags layered over an optional flat key=value config
file (dotted section keys, e.g. ``model.K=4``); flags override file values
and unknown keys are rejected. Exit codes: 0 success, 1 runtime failure,
2 usage error; the invariants subcommand exits with the number of failed
properties (capped at 125).

Artifacts land under --out (default: env HKCONV_OUT, else the working
directory) with fixed names: kernels.json, convergence.csv,
kernels_poincare.csv, kernel_geodesics_poincare.csv, metrics.csv,
checkpoint.json, sweep.csv, gradient_decay.csv, report.json,
manifest.json. Every run writes a manifest with the seed, every resolved
option, the kernel-file hash and the code version, enough to reproduce
the run bit for bit.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, graphnet, invariants, kernelgen, manifold
from .errors import HkconvError, ParameterError

_CONFIG_KEYS = {
    "model.layers": int,
    "model.K": int,
    "model.hidden_dim": int,
    "model.curvature": float,
    "model.dropout": float,
    "model.lr": float,
    "model.weight_decay": float,
    "model.pooling_weights": str,
    "model.kernel_source": str,
    "model.task": str,
    "model.seed": int,
    "train.max_epochs": int,
    "train.patience": int,
    "data.source": str,
    "data.n_graphs": int,
    "data.nodes_per_graph": int,
    "data.seed": int,
    "solver.lr": float,
    "solver.max_iters": int,
    "solver.grad_tol": float,
    "solver.init_scale": float,
}

_FLAG_TO_KEY = {
    "layers": "model.layers",
    "K": "model.K",
    "hidden_dim": "model.hidden_dim",
    "curvature": "model.curvature",
    "dropout": "model.dropout",
    "lr": "model.lr",
    "solver_lr": "solver.lr",
    "weight_decay": "model.weight_decay",
    "pooling": "model.pooling_weights",
    "task": "model.task",
    "seed": "model.seed",
    "max_epochs": "train.max_epochs",
    "patience": "train.patience",
    "n_graphs": "data.n_graphs",
    "nodes_per_graph": "data.nodes_per_graph",
}

_DEFAULTS = {
    "model.layers": 2,
    "model.K": 4,
    "model.hidden_dim": 16,
    "model.curvature": -1.0,
    "model.dropout": 0.0,
    "model.lr": 0.01,
    "model.weight_decay": 0.0,
    "model.pooling_weights": "uniform",
    "model.kernel_source": "optimized",
    "model.task": "graph",
    "model.seed": 0,
    "train.max_epochs": 500,
    "train.patience": 50,
    "data.source": "synth",
    "data.n_graphs": 200,
    "data.nodes_per_graph": 16,
    "data.seed": 0,
    "solver.lr": 1e-4,
    "solver.max_iters": 200_000,
    "solver.grad_tol": 1e-6,
    "solver.init_scale": 0.5,
}


class UsageError(Exception):
    pass


def _usage_guard(fn, *args, **kwargs):
    """Flag-derived construction errors are usage errors, not runtime ones."""
    try:
        return fn(*args, **kwargs)
    except ParameterError as exc:
        raise UsageError(str(exc)) from exc


def _parse_config_file(path) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        caster = _CONFIG_KEYS[key]
        try:
            values[key] = caster(text)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _resolve(args) -> dict:
    """defaults < config file < explicit flags."""
    resolved = dict(_DEFAULTS)
    if getattr(args, "config", None):
        resolved.update(_parse_config_file(args.config))
    for flag, key in _FLAG_TO_KEY.items():
        value = getattr(args, flag, None)
        if value is not None:
            resolved[key] = value
    data = getattr(args, "data", None)
    if data is not None:
        resolved["data.source"] = data
    return resolved


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("HKCONV_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))


def _write_manifest(out: Path, subcommand: str, resolved: dict, kernel_hash=None, extra=None):
    manifest = {
        "version": __version__,
        "subcommand": subcommand,
        "seed": resolved.get("model.seed", _DEFAULTS["model.seed"]),
        "config": {k: resolved[k] for k in sorted(resolved)},
        "kernel_hash": kernel_hash,
    }
    if extra:
        manifest.update(extra)
    _write_json(out / "manifest.json", manifest)


def _parse_radii(spec: str) -> tuple:
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"radii spec must be start:stop:step, got {spec!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad radii spec {spec!r}: {exc}") from exc
    if start <= 0 or step <= 0 or stop < start:
        raise UsageError("radii spec needs 0 < start <= stop and step > 0")
    return tuple(np.arange(start, stop + step / 2, step))


def _model_config(resolved: dict) -> graphnet.HKNConfig:
    return _usage_guard(
        graphnet.HKNConfig,
        layers=resolved["model.layers"],
        K=resolved["model.K"],
        hidden_dim=resolved["model.hidden_dim"],
        curvature=resolved["model.curvature"],
        dropout=resolved["model.dropout"],
        lr=resolved["model.lr"],
        weight_decay=resolved["model.weight_decay"],
        pooling_weights=resolved["model.pooling_weights"],
        kernel_source=resolved["model.kernel_source"],
        task=resolved["model.task"],
        seed=resolved["model.seed"],
    )


def _load_data(resolved: dict) -> graphnet.GraphBatch:
    source = resolved["data.source"]
    if source == "synth":
        return _usage_guard(
            graphnet.synth_trees_vs_random,
            resolved["data.n_graphs"],
            resolved["data.nodes_per_graph"],
            resolved["data.seed"],
        )
    return graphnet.load_dataset(source)


# ---------------------------------------------------------------------------
# subcommands


def cmd_kernel_gen(args) -> int:
    resolved = _resolve(args)
    out = _out_dir(args)
    if args.K < 2:
        raise UsageError("kernel-gen needs --K >= 2")
    if args.dim < 1:
        raise UsageError("kernel-gen needs --dim >= 1")
    solver = _usage_guard(
        kernelgen.SolverConfig,
        learning_rate=resolved["solver.lr"],
        max_iters=resolved["solver.max_iters"],
        grad_tol=resolved["solver.grad_tol"],
        seed=resolved["model.seed"],
        init_scale=resolved["solver.init_scale"],
    )
    cfg = manifold.ManifoldConfig(curvature=resolved["model.curvature"], dim=args.dim)
    kernels, log, converged, iters = kernelgen.solve_kernels_verbose(
        args.K, args.dim, solver, cfg
    )
    kernelgen.save_kernels(kernels, out / "kernels.json")
    with open(out / "convergence.csv", "w", newline="") as fh:
        fh.write("iter,loss,grad_norm\n")
        for row in log:
            fh.write(f"{row[0]},{row[1]!r},{row[2]!r}\n")
    if args.dim == 2:  # the disk rendering only exists in two dimensions
        kernelgen.export_poincare_csv(
            kernels, out / "kernels_poincare.csv", out / "kernel_geodesics_poincare.csv"
        )
    _write_manifest(
        out,
        "kernel-gen",
        resolved,
        kernel_hash=_sha256(out / "kernels.json"),
        extra={"K": args.K, "dim": args.dim, "converged": converged, "iterations": iters},
    )
    final_loss = log[-1][1]
    print(
        f"kernel-gen: K={args.K} dim={args.dim} loss={final_loss:.6f} "
        f"iters={iters} converged={converged}"
    )
    if not converged:
        print("kernel-gen: gradient tolerance not reached within max_iters", file=sys.stderr)
        return 1
    return 0


def cmd_invariants(args) -> int:
    out = _out_dir(args)
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    records = invariants.run_suite(args.suite, trials=args.trials, mutate=args.mutate)
    failed = sum(1 for r in records if not r["passed"])
    report = {
        "suite": args.suite,
        "trials": args.trials,
        "mutate": args.mutate,
        "failed": failed,
        "properties": records,
    }
    _write_json(out / "report.json", report)
    for r in records:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"{status} {r['name']} trials={r['trials']} max_error={r['max_error']:.3e}")
    print(f"invariants: {len(records) - failed}/{len(records)} properties passed")
    return min(failed, 125)


def cmd_appendix_a(args) -> int:
    resolved = _resolve(args)
    out = _out_dir(args)
    radii = _parse_radii(args.radii)
    rows = kernelgen.gradient_decay_experiment(K=args.K, radii=radii)
    slope, r2 = kernelgen.log_linear_fit(rows)
    with open(out / "gradient_decay.csv", "w", newline="") as fh:
        fh.write("radius,grad_norm\n")
        for radius, norm in rows:
            fh.write(f"{radius!r},{norm!r}\n")
    _write_json(out / "report.json", {"slope": slope, "r_squared": r2, "rows": rows})
    _write_manifest(out, "appendix-a", resolved, extra={"K": args.K, "radii": list(radii)})
    print(f"appendix-a: slope={slope:.4f} r_squared={r2:.4f} over {len(rows)} radii")
    return 0


def _kernels_from_flag(args, resolved, model_cfg):
    """Returns (kernel set or None, resolved kernel_source)."""
    flag = args.kernel
    if flag is None:
        return None, resolved["model.kernel_source"]
    if flag in graphnet.KERNEL_SOURCES:
        return None, flag
    kernels = kernelgen.load_kernels(flag)
    if kernels.K != model_cfg.K:
        raise UsageError(
            f"--kernel file has K={kernels.K} but the model wants K={model_cfg.K}"
        )
    if kernels.cfg.curvature != model_cfg.curvature:
        raise UsageError("--kernel file curvature disagrees with the model")
    if kernels.cfg.dim != model_cfg.hidden_dim:
        raise UsageError(
            f"--kernel file dim {kernels.cfg.dim} != hidden_dim {model_cfg.hidden_dim}"
        )
    source = (
        "random" if kernels.provenance == "random_wrapped_normal" else "optimized"
    )
    return kernels, source


def cmd_train(args) -> int:
    resolved = _resolve(args)
    out = _out_dir(args)
    model_cfg = _model_config(resolved)
    kernels, source = _kernels_from_flag(args, resolved, model_cfg)
    if source != model_cfg.kernel_source:
        resolved["model.kernel_source"] = source
        model_cfg = dataclasses.replace(model_cfg, kernel_source=source)
    data = _load_data(resolved)
    if data.task != model_cfg.task:
        raise UsageError(f"data task {data.task!r} != --task {model_cfg.task!r}")
    model = graphnet.build_hkn(
        model_cfg, kernels, feature_dim=data.feature_dim, num_classes=data.num_classes
    )
    run_cfg = _usage_guard(
        graphnet.TrainConfig,
        max_epochs=resolved["train.max_epochs"],
        patience=resolved["train.patience"],
    )
    metrics = graphnet.train(model, data, run_cfg)
    graphnet.write_metrics_csv(metrics.history, out / "metrics.csv")
    kernelgen.save_kernels(model.layer_kernels[-1], out / "kernels.json")
    info = {
        "best_epoch": model.best_epoch,
        "test_accuracy": metrics.accuracy,
        "test_macro_f1": metrics.macro_f1,
        "test_loss": metrics.loss,
        "data": {
            "source": resolved["data.source"],
            "n_graphs": resolved["data.n_graphs"],
            "nodes_per_graph": resolved["data.nodes_per_graph"],
            "seed": resolved["data.seed"],
        },
    }
    graphnet.save_checkpoint(model, out / "checkpoint.json", info)
    _write_manifest(out, "train", resolved, kernel_hash=_sha256(out / "kernels.json"))
    print(
        f"train: best_epoch={model.best_epoch} test_accuracy={metrics.accuracy:.4f} "
        f"test_macro_f1={metrics.macro_f1:.4f}"
    )
    return 0


def cmd_eval(args) -> int:
    out = _out_dir(args)
    model, info = graphnet.load_checkpoint(args.checkpoint)
    spec = info.get("data", {})
    recorded = spec.get("source", "synth")
    if args.data is None and recorded != "synth":
        raise UsageError(
            f"the checkpoint was trained on {recorded!r}; pass --data with that dataset"
        )
    if args.data is None or args.data == "synth":
        data = graphnet.synth_trees_vs_random(
            spec.get("n_graphs", _DEFAULTS["data.n_graphs"]),
            spec.get("nodes_per_graph", _DEFAULTS["data.nodes_per_graph"]),
            spec.get("seed", _DEFAULTS["data.seed"]),
        )
    else:
        data = graphnet.load_dataset(args.data)
    metrics = graphnet.evaluate(model, data, args.split)
    stored = info.get("test_accuracy")
    report = {
        "split": args.split,
        "accuracy": metrics.accuracy,
        "macro_f1": metrics.macro_f1,
        "loss": metrics.loss,
        "checkpoint_test_accuracy": stored,
        "matches_checkpoint": (
            None if (stored is None or args.split != "test") else metrics.accuracy == stored
        ),
    }
    _write_json(out / "report.json", report)
    print(
        f"eval: split={args.split} accuracy={metrics.accuracy:.4f} "
        f"macro_f1={metrics.macro_f1:.4f} loss={metrics.loss:.4f}"
    )
    return 0


def cmd_sweep(args) -> int:
    resolved = _resolve(args)
    out = _out_dir(args)
    model_cfg = _model_config(resolved)
    try:
        K_list = tuple(int(part) for part in args.K_list.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --K-list: {exc}") from exc
    rows, table = graphnet.sweep_kernels(model_cfg, K_list=K_list, seeds=args.seeds)
    graphnet.write_sweep_csv(rows, out / "sweep.csv")
    _write_manifest(
        out, "sweep", resolved, extra={"K_list": list(K_list), "seeds": args.seeds}
    )
    print("K mean std")
    for K, mean, std in table:
        print(f"{K} {mean:.4f} {std:.4f}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hkconv",
        description="Hyperbolic kernel-point convolution toolkit",
    )
    parser.add_argument("--version", action="version", version=f"hkconv {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output directory (default: $HKCONV_OUT or .)")
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("kernel-gen", help="place kernel points and export them")
    common(p)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--lr", dest="solver_lr", type=float, default=None)
    p.set_defaults(func=cmd_kernel_gen)

    p = sub.add_parser("invariants", help="run randomized property suites")
    common(p)
    p.add_argument("--suite", choices=invariants.SUITES + ("all",), default="all")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument(
        "--mutate",
        choices=("pt",),
        default=None,
        help="deliberately corrupt a component (self-test hook)",
    )
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("appendix-a", help="gradient-decay-vs-radius experiment")
    common(p)
    p.add_argument("--K", type=int, default=8)
    p.add_argument("--radii", default="0.5:5.0:0.5", help="start:stop:step")
    p.set_defaults(func=cmd_appendix_a)

    def train_like(p):
        common(p)
        p.add_argument("--task", choices=graphnet.TASKS, default=None)
        p.add_argument("--data", default=None, help="'synth' or a dataset JSON path")
        p.add_argument("--K", type=int, default=None)
        p.add_argument("--layers", type=int, default=None)
        p.add_argument("--hidden-dim", dest="hidden_dim", type=int, default=None)
        p.add_argument("--curvature", type=float, default=None)
        p.add_argument("--lr", type=float, default=None)
        p.add_argument("--dropout", type=float, default=None)
        p.add_argument("--weight-decay", dest="weight_decay", type=float, default=None)
        p.add_argument("--pooling", choices=("uniform", "attention"), default=None)
        p.add_argument("--max-epochs", dest="max_epochs", type=int, default=None)
        p.add_argument("--patience", type=int, default=None)
        p.add_argument("--n-graphs", dest="n_graphs", type=int, default=None)
        p.add_argument("--nodes-per-graph", dest="nodes_per_graph", type=int, default=None)

    p = sub.add_parser("train", help="train a model")
    train_like(p)
    p.add_argument(
        "--kernel",
        default=None,
        help="'optimized', 'random', or a kernel JSON path for the hidden layers",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", default=None, help="'synth' or a dataset JSON path")
    p.add_argument("--split", choices=graphnet.SPLITS, default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="kernel-count sweep")
    train_like(p)
    p.add_argument("--K-list", dest="K_list", default="2,3,4,5,6,7,8,9")
    p.add_argument("--seeds", type=int, default=3)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HkconvError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
