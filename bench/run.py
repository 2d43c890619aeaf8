"""Benchmark for hkconv: one workload per process.

    python3 bench/run.py --workload graph-default --seed 1 --seconds 50 --trace 0

Run from the repository root. The package is imported from ./src (no
install, nothing to build). The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The full
result, with the checks and the machine, is also written to
bench/results/<workload>-seed<seed>-trace<trace>.json.

Without --workload, every workload runs in turn, each in a fresh process.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before NumPy loads: one thread keeps the small
# matrix products of this model steady on a shared 2-core machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("graph-default", "node-attention", "typed-invariants")
UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "step_ms": "ms",
    "eval_ms": "ms",
    "accuracy": "fraction",
    "peak_rss_mb": "MB",
}


def _import_program():
    """hkconv from this checkout's src/, or exit 1 without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import hkconv
        import hkconv.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"bench: cannot import hkconv from {SRC}: {exc}")
    if Path(hkconv.__file__).resolve().parent.parent != SRC:
        sys.exit(f"bench: hkconv resolved to {hkconv.__file__}, not under {SRC}")
    return hkconv


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _machine():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": int(BLAS_THREADS),
    }


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> int:
    hk = _import_program()
    import tracing
    import workloads

    tracer = None
    if trace:
        tracer = tracing.Tracer(hk)
        tracer.install()
    workdir = BENCH / ".work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = workloads.Run(hk, seed, seconds, tracer, workdir)
    try:
        end_to_end, per_layer = workloads.WORKLOADS[workload](run)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        metrics = per_layer
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in end_to_end.items()}
    correct = all(c["ok"] for c in run.checks.values())
    summary = {"correct": correct, "attempted": run.attempted, "failed": 0, "metrics": metrics}

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": _machine(),
        "checks": run.checks,
        **summary,
    }
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=float)
    )
    for name, c in run.checks.items():
        print(f"check {name}: {'ok' if c['ok'] else 'FAILED'} ({c['figure']})", file=sys.stderr)
    print(json.dumps(summary, default=float))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is not None:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(f"{name}: {done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ''}")
        status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
