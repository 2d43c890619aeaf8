"""Per-layer tracing from outside the program.

`Tracer.install()` replaces public functions of the hkconv modules with
timing wrappers (module attributes, so every call that looks the name up
at call time goes through them) and `uninstall()` puts the originals back.
Nothing under src/ knows about it.

Accounting runs per *unit*: one `autodiff.grad` pass on the training
workloads, one `invariants.run_suite` round on typed-invariants (the
workload opens that unit itself with `unit()`). Inside a unit every op
made by `autodiff._lift` (and `concatenate`, `segment_max_value`) is
timed forward, and its VJPs are wrapped so backward time lands on the
same op and on the model stage that created the tape node. Stages follow
the calls inside `graphnet.forward_logits`:

    model.embed              feature embedding (first lmath.embed)
    model.gather             root/neighbour row gathers between layers
    model.conv<i>.recenter   lmath.ominus
    model.conv<i>.transform  the K layers.hlinear_core calls
    model.conv<i>.kernel_dist  lmath.dist to the kernel points
    model.conv<i>.combine    rest of layers._edge_points (kernel-weighted sum)
    model.conv<i>.pool       rest of layers.hkconv_core (attention, segment sums)
    model.graph_pool         graph read-out pooling (graph task only)
    model.head               head centroid embedding and distances
    model.loss               ops of the loss outside forward_logits
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict

OPS = (
    "segment_sum", "multiply", "add", "subtract", "divide", "sum", "matmul", "take",
    "concatenate", "sqrt", "exp", "sigmoid", "arccosh", "clamp_min", "where", "reshape",
    "absolute",
)
CONV_STAGES = ("recenter", "transform", "kernel_dist", "combine", "pool")
LAYERS = 2  # both training workloads use the default two conv layers
STAGES = (
    ("model.embed", "model.gather")
    + tuple(f"model.conv{i}.{s}" for i in range(LAYERS) for s in CONV_STAGES)
    + ("model.graph_pool", "model.head", "model.loss")
)
SUITES = ("manifold", "layers", "theorem1", "prop1")

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "autodiff.grad_ms": "ms",
    "autodiff.record_ms": "ms",
    "autodiff.tape_ms": "ms",
    "autodiff.backward_ms": "ms",
    "autodiff.adam_ms": "ms",
    "autodiff.ops_per_grad": "count",
    "autodiff.tape_peak_mb": "MB",
    **{
        f"autodiff.op.{op}.{field}": unit
        for op in OPS
        for field, unit in (("calls", "count"), ("fwd_ms", "ms"), ("vjp_ms", "ms"))
    },
    **{f"{stage}.{d}_ms": "ms" for stage in STAGES for d in ("fwd", "bwd")},
    "graphnet.forward_ms": "ms",
    "graphnet.edge_arrays_ms": "ms",
    "graphnet.data_ms": "ms",
    "graphnet.build_ms": "ms",
    "kernelgen.solve_ms": "ms",
    "kernelgen.solve_iters": "count",
    "graphnet.checkpoint_save_ms": "ms",
    "graphnet.checkpoint_load_ms": "ms",
    "graphnet.checkpoint_bytes": "count",
    "cli.artifacts_ms": "ms",
    **{f"invariants.{s}_ms": "ms" for s in SUITES},
    "layers.hkconv_typed.calls": "count",
    "layers.hkconv_typed.ms": "ms",
    "manifold.point_validations": "count",
    "trace.overhead_ms": "ms",
}


def _median_ms(samples) -> float:
    return 1e3 * statistics.median(samples) if samples else 0.0


class Tracer:
    def __init__(self, hk):
        self.hk = hk  # the imported hkconv package
        self.units = 0
        self.in_unit = False
        self.in_grad = False
        self.op_calls = defaultdict(int)
        self.op_fwd = defaultdict(float)
        self.op_vjp = defaultdict(float)
        self.stage_fwd = defaultdict(float)
        self.stage_bwd = defaultdict(float)
        self.spans = defaultdict(list)  # name -> durations in seconds
        self.counts = defaultdict(int)
        self.tape_sizes = []  # (ops, bytes) per gradient pass
        self.fwd = None  # state of the forward_logits call in progress
        self.stack = []  # stage labels pushed inside forward_logits
        self._saved = []
        self._train_end = None

    # -- accounting -------------------------------------------------------

    def stage(self):
        if self.stack:
            return self.stack[-1]
        if self.fwd is not None:
            return self.fwd["label"]
        return "model.loss" if self.in_grad else None

    @contextlib.contextmanager
    def unit(self):
        self.in_unit = True
        self.units += 1
        try:
            yield
        finally:
            self.in_unit = False

    @contextlib.contextmanager
    def _push(self, label):
        self.stack.append(label)
        try:
            yield
        finally:
            self.stack.pop()

    def _timed_vjp(self, vjp, op, stage):
        def run(g):
            t0 = time.perf_counter()
            out = vjp(g)
            dt = time.perf_counter() - t0
            self.op_vjp[op] += dt
            if stage is not None:
                self.stage_bwd[stage] += dt
            return out

        return run

    def _record_op(self, op, out, dt):
        if not self.in_unit:
            return out
        self.op_calls[op] += 1
        self.op_fwd[op] += dt
        stage = self.stage()
        if stage is not None:
            self.stage_fwd[stage] += dt
        if isinstance(out, self.hk.autodiff.Tensor):
            out.vjps = tuple(self._timed_vjp(v, op, stage) for v in out.vjps)
        return out

    # -- installation -----------------------------------------------------

    def _patch(self, owner, name, make):
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def span(self, name):
        """Wrapper factory: time every call into a span list."""

        def make(fn):
            def wrapped(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.spans[name].append(time.perf_counter() - t0)

            return wrapped

        return make

    def install(self):
        hk = self.hk
        ad, gn, lm, ly = hk.autodiff, hk.graphnet, hk.lmath, hk.layers

        def lift(fn):
            def wrapped(op, inputs, forward, vjp_makers):
                t0 = time.perf_counter()
                out = fn(op, inputs, forward, vjp_makers)
                return self._record_op(op, out, time.perf_counter() - t0)

            return wrapped

        def named_op(op):
            def make(fn):
                def wrapped(*args, **kwargs):
                    t0 = time.perf_counter()
                    out = fn(*args, **kwargs)
                    return self._record_op(op, out, time.perf_counter() - t0)

                return wrapped

            return make

        self._patch(ad, "_lift", lift)
        for op in ("concatenate", "segment_max_value"):
            self._patch(ad, op, named_op(op))

        def grad(fn):
            def wrapped(loss_fn, store):
                def recorded(leaves):
                    t0 = time.perf_counter()
                    try:
                        return loss_fn(leaves)
                    finally:
                        self.spans["autodiff.record"].append(time.perf_counter() - t0)

                t0 = time.perf_counter()
                self.in_grad = True
                try:
                    with self.unit():
                        return fn(recorded, store)
                finally:
                    self.in_grad = False
                    self.spans["autodiff.grad"].append(time.perf_counter() - t0)

            return wrapped

        def tape_init(fn):
            def wrapped(tape, output):
                t0 = time.perf_counter()
                fn(tape, output)
                self.spans["autodiff.tape"].append(time.perf_counter() - t0)
                ops = [n for n in tape._nodes if n.op != "leaf"]
                self.tape_sizes.append((len(ops), sum(n.value.nbytes for n in tape._nodes)))

            return wrapped

        self._patch(ad, "grad", grad)
        self._patch(ad.Tape, "__init__", tape_init)
        self._patch(ad.Tape, "gradients", self.span("autodiff.backward"))
        self._patch(ad, "adam_step", self.span("autodiff.adam"))

        def forward_logits(fn):
            def wrapped(model, batch, leaves=None, training=False, rng=None):
                outer = self.fwd
                self.fwd = {
                    "label": "model.gather",
                    "conv": 0,
                    "embeds": 0,
                    "layers": model.cfg.layers,
                    "task": model.cfg.task,
                }
                t0 = time.perf_counter()
                try:
                    return fn(model, batch, leaves, training, rng)
                finally:
                    if not self.in_grad:
                        self.spans["graphnet.forward"].append(time.perf_counter() - t0)
                    self.fwd = outer

            return wrapped

        def embed(fn):
            def wrapped(z, kappa):
                if self.fwd is None:
                    return fn(z, kappa)
                label = "model.embed" if self.fwd["embeds"] == 0 else "model.head"
                self.fwd["embeds"] += 1
                if label == "model.head":
                    self.fwd["label"] = label  # the distances after it belong to the head
                with self._push(label):
                    return fn(z, kappa)

            return wrapped

        def hkconv_core(fn):
            def wrapped(*args, **kwargs):
                if self.fwd is None:
                    return fn(*args, **kwargs)
                i = self.fwd["conv"]
                with self._push(f"model.conv{i}.pool"):
                    out = fn(*args, **kwargs)
                self.fwd["conv"] = i + 1
                if i + 1 == self.fwd["layers"] and self.fwd["task"] == "graph":
                    self.fwd["label"] = "model.graph_pool"
                return out

            return wrapped

        def conv_stage(suffix, only_under=None):
            def make(fn):
                def wrapped(*args, **kwargs):
                    top = self.stack[-1] if self.stack else ""
                    if self.fwd is None or not top.startswith("model.conv"):
                        return fn(*args, **kwargs)
                    if only_under is not None and not top.endswith(only_under):
                        return fn(*args, **kwargs)
                    with self._push(top.rsplit(".", 1)[0] + "." + suffix):
                        return fn(*args, **kwargs)

                return wrapped

            return make

        self._patch(gn, "forward_logits", forward_logits)
        self._patch(gn, "edge_arrays", self.span("graphnet.edge_arrays"))
        self._patch(lm, "embed", embed)
        self._patch(ly, "hkconv_core", hkconv_core)
        self._patch(ly, "_edge_points", conv_stage("combine"))
        self._patch(lm, "ominus", conv_stage("recenter"))
        self._patch(ly, "hlinear_core", conv_stage("transform"))
        # lmath.dist also scores attention inside hkconv_core; only the calls
        # made from _edge_points measure kernel distances
        self._patch(lm, "dist", conv_stage("kernel_dist", only_under=".combine"))

        def train(fn):
            def wrapped(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._train_end = time.perf_counter()

            return wrapped

        def cmd_train(fn):
            def wrapped(args):
                try:
                    return fn(args)
                finally:
                    if self._train_end is not None:
                        self.spans["cli.artifacts"].append(time.perf_counter() - self._train_end)

            return wrapped

        self._patch(gn, "build_hkn", self.span("graphnet.build"))
        self._patch(gn, "save_checkpoint", self.span("graphnet.checkpoint_save"))
        self._patch(gn, "load_checkpoint", self.span("graphnet.checkpoint_load"))
        self._patch(gn, "train", train)
        self._patch(hk.cli, "cmd_train", cmd_train)

        def solve(fn):
            def wrapped(*args, **kwargs):
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                self.spans["kernelgen.solve"].append(time.perf_counter() - t0)
                self.counts["kernelgen.solve_iters"] += out[3]
                return out

            return wrapped

        self._patch(hk.kernelgen, "solve_kernels_verbose", solve)

        def typed_hkconv(fn):
            def wrapped(*args, **kwargs):
                if not self.in_unit:
                    return fn(*args, **kwargs)
                self.counts["layers.hkconv_typed.calls"] += 1
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.spans["layers.hkconv_typed"].append(time.perf_counter() - t0)

            return wrapped

        def point_init(fn):
            def wrapped(point):
                if self.in_unit:
                    self.counts["manifold.point_validations"] += 1
                return fn(point)

            return wrapped

        self._patch(ly, "hkconv", typed_hkconv)
        self._patch(hk.manifold.LorentzPoint, "__post_init__", point_init)
        for suite in SUITES:
            self._patch(hk.invariants, f"run_{suite}", self.span(f"invariants.{suite}"))

    # -- read-out ---------------------------------------------------------

    def drain_setup(self) -> dict:
        """Build and solve figures recorded since the last drain (one cold set-up)."""
        return {
            "graphnet.build_ms": 1e3 * sum(self.spans.pop("graphnet.build", [])),
            "kernelgen.solve_ms": 1e3 * sum(self.spans.pop("kernelgen.solve", [])),
            "kernelgen.solve_iters": self.counts.pop("kernelgen.solve_iters", 0),
        }

    def metrics(self, given: dict) -> dict:
        """Every PER_LAYER metric; those a workload never reaches read 0.

        given holds the figures the workload measured itself (set-up spans,
        checkpoint size, tracing overhead).
        """
        units = max(self.units, 1)
        per_unit = 1e3 / units
        sizes = set(ops for ops, _ in self.tape_sizes)
        if len(sizes) > 1:
            raise AssertionError(f"gradient passes recorded different op counts: {sorted(sizes)}")
        values = dict.fromkeys(PER_LAYER, 0)
        values.update(
            {
                "autodiff.grad_ms": _median_ms(self.spans["autodiff.grad"]),
                "autodiff.record_ms": _median_ms(self.spans["autodiff.record"]),
                "autodiff.tape_ms": _median_ms(self.spans["autodiff.tape"]),
                "autodiff.backward_ms": _median_ms(self.spans["autodiff.backward"]),
                "autodiff.adam_ms": _median_ms(self.spans["autodiff.adam"]),
                "autodiff.ops_per_grad": sizes.pop() if sizes else 0,
                "autodiff.tape_peak_mb": max((b for _, b in self.tape_sizes), default=0) / 2**20,
                "graphnet.forward_ms": _median_ms(self.spans["graphnet.forward"]),
                "graphnet.edge_arrays_ms": _median_ms(self.spans["graphnet.edge_arrays"]),
                "graphnet.checkpoint_save_ms": _median_ms(self.spans["graphnet.checkpoint_save"]),
                "graphnet.checkpoint_load_ms": _median_ms(self.spans["graphnet.checkpoint_load"]),
                "cli.artifacts_ms": _median_ms(self.spans["cli.artifacts"]),
                "layers.hkconv_typed.calls": self.counts["layers.hkconv_typed.calls"] / units,
                "layers.hkconv_typed.ms": per_unit * sum(self.spans["layers.hkconv_typed"]),
                "manifold.point_validations": self.counts["manifold.point_validations"] / units,
            }
        )
        for op in OPS:
            values[f"autodiff.op.{op}.calls"] = self.op_calls[op] / units
            values[f"autodiff.op.{op}.fwd_ms"] = per_unit * self.op_fwd[op]
            values[f"autodiff.op.{op}.vjp_ms"] = per_unit * self.op_vjp[op]
        for stage in STAGES:
            values[f"{stage}.fwd_ms"] = per_unit * self.stage_fwd[stage]
            values[f"{stage}.bwd_ms"] = per_unit * self.stage_bwd[stage]
        for suite in SUITES:
            values[f"invariants.{suite}_ms"] = _median_ms(self.spans[f"invariants.{suite}"])
        unknown = set(given) - set(PER_LAYER)
        if unknown:
            raise AssertionError(f"not per-layer metrics: {sorted(unknown)}")
        values.update(given)
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
