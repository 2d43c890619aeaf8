"""Command-line entry point.

Subcommands: kernel-gen, invariants, appendix-a, train, eval, sweep.
Behavior is driven by flags layered over an optional flat key=value config
file. A config key is <section>.<field> of one config dataclass in
_SECTIONS (e.g. ``model.K=4``) and takes that field's type and default;
a flag's argparse dest is its key. Each subcommand names the sections or
keys it reads; flags override file values, and any other key is a usage
error. Exit codes: 0 success, 1 runtime failure, 2 usage error; the
invariants subcommand exits with the number of failed properties (capped
at 125).

Artifacts land under --out (default: env HKCONV_OUT, else the working
directory) with fixed names: kernels.json, convergence.csv,
kernels_poincare.csv, kernel_geodesics_poincare.csv, metrics.csv,
checkpoint.json, sweep.csv, gradient_decay.csv, report.json,
manifest.json. kernel-gen, appendix-a, train and sweep write a manifest
with the seed, every config key the run read, the kernel-file hash and the
code version, and under "machine" what else the bits depend on (NumPy
version, CPU architecture and count, BLAS thread settings), enough to
reproduce the run bit for bit, and the allocator settings main applied
(see _keep_freed_pages), which explain the run's speed. It holds no time,
so reruns match byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__, graphnet, invariants, kernelgen, manifold
from .errors import HkconvError, ParameterError

_SECTIONS = {
    "model": graphnet.HKNConfig,
    "train": graphnet.TrainConfig,
    "data": graphnet.DataConfig,
    "solver": kernelgen.SolverConfig,
}

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# glibc mallopt parameters (malloc.h): name, parameter number, value
_MALLOC_SETTINGS = (("mmap_threshold", -3, 32 << 20), ("top_pad", -2, 16 << 20))


class UsageError(Exception):
    pass


def _usage_guard(fn, *args, **kwargs):
    """Flag-derived construction errors are usage errors, not runtime ones."""
    try:
        return fn(*args, **kwargs)
    except ParameterError as exc:
        raise UsageError(str(exc)) from exc


def _defaults(names, without=()) -> dict:
    """Default of every config key under the named sections ("model") or
    single keys ("model.curvature"), less the keys in without."""
    defaults = {}
    for name in names:
        section, _, only = name.partition(".")
        for f in dataclasses.fields(_SECTIONS[section]):
            key = f"{section}.{f.name}"
            if only in ("", f.name) and key not in without:
                defaults[key] = f.default
    return defaults


def _parse_config_file(path, defaults: dict, subcommand: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: config file is not UTF-8 text: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in defaults:
            raise UsageError(f"{path}:{lineno}: {subcommand} reads no config key {key!r}")
        try:
            values[key] = type(defaults[key])(text)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _resolve(args, *names, without=()) -> dict:
    """defaults < config file < explicit flags, over the keys the
    subcommand reads."""
    resolved = _defaults(names, without)
    if args.config:
        resolved.update(_parse_config_file(args.config, resolved, args.subcommand))
    for key in resolved:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _section(resolved: dict, section: str):
    """The section's config object, built from its resolved keys."""
    prefix = section + "."
    values = {k[len(prefix):]: v for k, v in resolved.items() if k.startswith(prefix)}
    return _usage_guard(_SECTIONS[section], **values)


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("HKCONV_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))


def _keep_freed_pages() -> dict | None:
    """Sets glibc's malloc to keep the pages a gradient pass frees mapped
    for the next pass, and returns the settings applied (None off glibc).

    A pass allocates a few MB of temporaries in its backward and frees
    them; by default glibc serves the large ones from mmap and trims the
    top of the heap, so every pass faults the same pages back in. A 32 MiB
    mmap threshold keeps them on the heap and a 16 MiB top pad keeps the
    freed top mapped. This changes the allocator of the whole process,
    so only main, which owns its process, calls it; never at import.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return None
    if not libc or not libc.startswith("glibc "):
        return None
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    applied = {}
    for name, param, value in _MALLOC_SETTINGS:
        if mallopt(param, value):  # mallopt returns 1 on success
            applied[name] = value
    return applied


def _machine(allocator) -> dict:
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "numpy": np.__version__,
        "platform": platform.machine(),
        "cpus": len(affinity(0)) if affinity else os.cpu_count(),
        **{var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
        "allocator": allocator,
    }


def _write_manifest(args, out: Path, resolved: dict, seed, kernel_hash=None, extra=None):
    manifest = {
        "version": __version__,
        "subcommand": args.subcommand,
        "seed": seed,
        "config": {k: resolved[k] for k in sorted(resolved)},
        "kernel_hash": kernel_hash,
        "machine": _machine(args.allocator),
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


def _task_data(data_cfg: graphnet.DataConfig, task: str) -> graphnet.GraphBatch:
    data = _usage_guard(data_cfg.load)
    if data.task != task:
        raise UsageError(f"data task {data.task!r} != --task {task!r}")
    return data


# ---------------------------------------------------------------------------
# subcommands


def cmd_kernel_gen(args) -> int:
    resolved = _resolve(args, "solver", "model.curvature")
    out = _out_dir(args)
    if args.K < 2:
        raise UsageError("kernel-gen needs --K >= 2")
    if args.dim < 1:
        raise UsageError("kernel-gen needs --dim >= 1")
    solver = _section(resolved, "solver")
    cfg = _usage_guard(
        manifold.ManifoldConfig, curvature=resolved["model.curvature"], dim=args.dim
    )
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
        args,
        out,
        resolved,
        solver.seed,
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
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    records = invariants.run_suite(
        args.suite, trials=args.trials, seed=args.seed, mutate=args.mutate
    )
    failed = sum(1 for r in records if not r["passed"])
    report = {
        "suite": args.suite,
        "trials": args.trials,
        "seed": args.seed,
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
    out = _out_dir(args)
    radii = _parse_radii(args.radii)
    rows = kernelgen.gradient_decay_experiment(K=args.K, radii=radii)
    slope, r2 = kernelgen.log_linear_fit(rows)
    with open(out / "gradient_decay.csv", "w", newline="") as fh:
        fh.write("radius,grad_norm\n")
        for radius, norm in rows:
            fh.write(f"{radius!r},{norm!r}\n")
    _write_json(out / "report.json", {"slope": slope, "r_squared": r2, "rows": rows})
    _write_manifest(args, out, {}, None, extra={"K": args.K, "radii": list(radii)})
    print(f"appendix-a: slope={slope:.4f} r_squared={r2:.4f} over {len(rows)} radii")
    return 0


def _kernels_from_flag(flag, model_cfg):
    """Returns (kernel set or None, resolved kernel_source)."""
    if flag is None:
        return None, model_cfg.kernel_source
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
    resolved = _resolve(args, "model", "train", "data")
    out = _out_dir(args)
    model_cfg = _section(resolved, "model")
    kernels, source = _kernels_from_flag(args.kernel, model_cfg)
    if source != model_cfg.kernel_source:
        resolved["model.kernel_source"] = source
        model_cfg = dataclasses.replace(model_cfg, kernel_source=source)
    data_cfg = _section(resolved, "data")
    data = _task_data(data_cfg, model_cfg.task)
    model = graphnet.build_hkn(
        model_cfg, kernels, feature_dim=data.feature_dim, num_classes=data.num_classes
    )
    metrics = graphnet.train(model, data, _section(resolved, "train"))
    graphnet.write_metrics_csv(metrics.history, out / "metrics.csv")
    kernelgen.save_kernels(model.layer_kernels[-1], out / "kernels.json")
    info = {
        "best_epoch": model.best_epoch,
        "test_accuracy": metrics.accuracy,
        "test_macro_f1": metrics.macro_f1,
        "test_loss": metrics.loss,
        "data": dataclasses.asdict(data_cfg),
    }
    graphnet.save_checkpoint(model, out / "checkpoint.json", info)
    _write_manifest(
        args, out, resolved, model_cfg.seed, kernel_hash=_sha256(out / "kernels.json")
    )
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
    # the synthetic suite is rebuilt at the checkpoint's recorded size and seed
    data = graphnet.DataConfig(**{**spec, "source": args.data or "synth"}).load()
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
    resolved = _resolve(args, "model", "train", "data", without=("model.K",))
    out = _out_dir(args)
    model_cfg = _section(resolved, "model")
    try:
        K_list = tuple(int(part) for part in args.K_list.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --K-list: {exc}") from exc
    for K in K_list:
        _usage_guard(dataclasses.replace, model_cfg, K=K)
    if args.seeds < 1:
        raise UsageError("sweep needs --seeds >= 1")
    data = _task_data(_section(resolved, "data"), model_cfg.task)
    rows, table = graphnet.sweep_kernels(
        model_cfg, K_list, args.seeds, data, _section(resolved, "train")
    )
    graphnet.write_sweep_csv(rows, out / "sweep.csv")
    _write_manifest(
        args, out, resolved, model_cfg.seed, extra={"K_list": list(K_list), "seeds": args.seeds}
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

    def out_flag(p):
        p.add_argument("--out", default=None, help="output directory (default: $HKCONV_OUT or .)")

    def config_flags(p):
        out_flag(p)
        p.add_argument("--config", default=None, help="flat key=value config file")

    def key_flag(p, flag, key, **kwargs):
        # the dest is the config key, typed like its default
        kind = type(_defaults((key,))[key])
        p.add_argument(flag, dest=key, type=kind, default=None, **kwargs)

    p = sub.add_parser("kernel-gen", help="place kernel points and export them")
    config_flags(p)
    key_flag(p, "--seed", "solver.seed")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    key_flag(p, "--lr", "solver.lr")
    p.set_defaults(func=cmd_kernel_gen)

    p = sub.add_parser("invariants", help="run randomized property suites")
    out_flag(p)
    p.add_argument("--seed", type=int, default=0)
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
    out_flag(p)
    p.add_argument("--K", type=int, default=8)
    p.add_argument("--radii", default="0.5:5.0:0.5", help="start:stop:step")
    p.set_defaults(func=cmd_appendix_a)

    def train_like(p):
        config_flags(p)
        key_flag(p, "--seed", "model.seed")
        key_flag(p, "--task", "model.task", choices=graphnet.TASKS)
        key_flag(p, "--data", "data.source", help="'synth' or a dataset JSON path")
        key_flag(p, "--layers", "model.layers")
        key_flag(p, "--hidden-dim", "model.hidden_dim")
        key_flag(p, "--curvature", "model.curvature")
        key_flag(p, "--lr", "model.lr")
        key_flag(p, "--dropout", "model.dropout")
        key_flag(p, "--weight-decay", "model.weight_decay")
        key_flag(p, "--pooling", "model.pooling_weights", choices=("uniform", "attention"))
        key_flag(p, "--max-epochs", "train.max_epochs")
        key_flag(p, "--patience", "train.patience")
        key_flag(p, "--n-graphs", "data.n_graphs")
        key_flag(p, "--nodes-per-graph", "data.nodes_per_graph")

    p = sub.add_parser("train", help="train a model")
    train_like(p)
    key_flag(p, "--K", "model.K")
    p.add_argument(
        "--kernel",
        default=None,
        help="'optimized', 'random', or a kernel JSON path for the hidden layers",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    out_flag(p)
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
    args.allocator = _keep_freed_pages()
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
