"""Minimal reverse-mode differentiation engine on numpy.

Every primitive here accepts either plain ndarrays or :class:`Tensor`
values. With ndarrays it computes with numpy and returns ndarrays, so the
same model code serves both the differentiable path and fast inference /
finite-difference evaluation. With at least one Tensor operand it records
the local adjoint rule, and :func:`grad` replays the graph in reverse
topological order.

Design points:

- 64-bit floats everywhere.
- A composite map may be one tape node (:func:`_lift_joint`): its forward
  evaluates the same NumPy expressions as the chain of primitives it
  replaces, so values are unchanged, and a hand-written rule gives all
  of its adjoints at once from what the forward kept.
- The reverse pass keeps an interior node's adjoint only until that
  node's VJPs have run and returns the adjoints of leaves alone, so the
  live adjoints are those of the current frontier, not of the whole graph.
- Adjoints of the clamped acosh are zero wherever the clamp is active, so
  distances have a zero subgradient at coincident points.
- ``segment_sum`` accumulates each segment in ascending value order per
  column. The order is then a function of the summand multiset alone, not
  of element labels, which makes permutation equivariance checks bitwise.
  A stable sort within each segment, run for all segments of one length
  at once, and one contiguous ``reduceat`` keep that order cheap.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable

import numpy as np

from .errors import BuildError, DimensionError, NumericError

# Adjoint guard for acosh: arguments closer to 1 than this are treated as
# coincident points and receive zero gradient instead of a near-singular one.
ACOSH_GRAD_GUARD = 1e-12


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Tensor:
    """A float64 array plus the recipe for its adjoints."""

    __slots__ = ("value", "parents", "vjps", "op")

    # keep numpy from absorbing Tensor operands into object arrays
    __array_ufunc__ = None

    def __init__(self, value, parents=(), vjps=(), op="leaf"):
        self.value = _as_array(value)
        self.parents = parents
        self.vjps = vjps
        self.op = op

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    def item(self) -> float:
        return float(self.value)

    def __repr__(self):
        return f"Tensor(op={self.op}, shape={self.value.shape})"

    # arithmetic operators delegate to the module-level primitives
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return subtract(self, other)

    def __rsub__(self, other):
        return subtract(other, self)

    def __mul__(self, other):
        return multiply(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return divide(self, other)

    def __rtruediv__(self, other):
        return divide(other, self)

    def __neg__(self):
        return negative(self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __getitem__(self, key):
        return take_slice(self, key)

    def __abs__(self):
        return absolute(self)


def value_of(x) -> np.ndarray:
    """Underlying ndarray of a Tensor, or the input coerced to float64."""
    return x.value if isinstance(x, Tensor) else _as_array(x)


def _check_operand(x):
    if isinstance(x, (Tensor, np.ndarray, float, int, np.floating, np.integer, list, tuple)):
        return
    raise BuildError(f"unsupported operand type for differentiable op: {type(x).__name__}")


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce an adjoint back to the shape of a broadcast operand."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _lift(op: str, inputs: tuple, forward: Callable, vjp_makers: tuple):
    """Run ``forward`` on raw values; record vjps if any input is a Tensor.

    ``vjp_makers[i]`` is called as maker(out_value, *input_values) and must
    return the adjoint function for input i, or None for non-differentiable
    inputs.
    """
    for x in inputs:
        _check_operand(x)
    vals = tuple(value_of(x) for x in inputs)
    out_val = forward(*vals)
    tensor_parents = []
    vjps = []
    for x, maker in zip(inputs, vjp_makers):
        if isinstance(x, Tensor) and maker is not None:
            tensor_parents.append(x)
            vjps.append(maker(out_val, *vals))
    if not tensor_parents:
        return out_val
    return Tensor(out_val, tuple(tensor_parents), tuple(vjps), op)


def _lift_joint(op: str, inputs: tuple, forward: Callable, backward: Callable):
    """One tape node for a composite map whose adjoints share their work.

    ``forward(*input_values)`` returns ``(out, saved)``: the output and
    what the backward rule needs. ``backward(g, saved, needs)`` returns one
    adjoint per input, where ``needs[i]`` tells whether input i is a Tensor
    (the entry of a constant input is ignored and may be None). It runs
    once per visit of the node: the first VJP called computes every
    adjoint, each VJP hands out its own, and the last one drops them.
    """
    needs = tuple(isinstance(x, Tensor) for x in inputs)
    state = {}

    def run(*vals):
        out, state["saved"] = forward(*vals)
        return out

    def maker(i):
        def vjp(g):
            if "grads" not in state:
                state["grads"] = backward(g, state["saved"], needs)
                state["left"] = sum(needs)
            grad_i = state["grads"][i]
            state["left"] -= 1
            if not state["left"]:
                del state["grads"]
            return grad_i

        return lambda out, *vals: vjp

    return _lift(op, inputs, run, tuple(maker(i) for i in range(len(inputs))))


# ---------------------------------------------------------------------------
# arithmetic primitives


def add(a, b):
    return _lift(
        "add",
        (a, b),
        lambda x, y: x + y,
        (
            lambda out, x, y: lambda g: _unbroadcast(g, x.shape),
            lambda out, x, y: lambda g: _unbroadcast(g, y.shape),
        ),
    )


def subtract(a, b):
    return _lift(
        "subtract",
        (a, b),
        lambda x, y: x - y,
        (
            lambda out, x, y: lambda g: _unbroadcast(g, x.shape),
            lambda out, x, y: lambda g: _unbroadcast(-g, y.shape),
        ),
    )


def multiply(a, b):
    return _lift(
        "multiply",
        (a, b),
        lambda x, y: x * y,
        (
            lambda out, x, y: lambda g: _unbroadcast(g * y, x.shape),
            lambda out, x, y: lambda g: _unbroadcast(g * x, y.shape),
        ),
    )


def divide(a, b):
    return _lift(
        "divide",
        (a, b),
        lambda x, y: x / y,
        (
            lambda out, x, y: lambda g: _unbroadcast(g / y, x.shape),
            lambda out, x, y: lambda g: _unbroadcast(-g * x / (y * y), y.shape),
        ),
    )


def negative(a):
    return _lift("negative", (a,), lambda x: -x, (lambda out, x: lambda g: -g,))


def power(a, exponent):
    if isinstance(exponent, Tensor):
        raise BuildError("only constant exponents are supported")
    c = float(exponent)
    return _lift(
        "power",
        (a,),
        lambda x: x**c,
        (lambda out, x: lambda g: g * c * x ** (c - 1.0),),
    )


def matmul(a, b):
    def fwd(x, y):
        return x @ y

    def maker_a(out, x, y):
        if x.ndim == 2 and y.ndim == 2:
            return lambda g: g @ y.T
        if x.ndim == 1 and y.ndim == 2:
            return lambda g: y @ g
        if x.ndim == 2 and y.ndim == 1:
            return lambda g: np.outer(g, y)
        if x.ndim == 1 and y.ndim == 1:
            return lambda g: g * y
        raise BuildError(f"matmul on ndim {x.ndim} x {y.ndim} is not supported")

    def maker_b(out, x, y):
        if x.ndim == 2 and y.ndim == 2:
            return lambda g: x.T @ g
        if x.ndim == 1 and y.ndim == 2:
            return lambda g: np.outer(x, g)
        if x.ndim == 2 and y.ndim == 1:
            return lambda g: x.T @ g
        if x.ndim == 1 and y.ndim == 1:
            return lambda g: g * x
        raise BuildError(f"matmul on ndim {x.ndim} x {y.ndim} is not supported")

    return _lift("matmul", (a, b), fwd, (maker_a, maker_b))


# ---------------------------------------------------------------------------
# elementwise functions


def _elementwise(op: str, fn: Callable, dfn: Callable):
    def apply(a):
        return _lift(op, (a,), fn, (lambda out, x: lambda g: g * dfn(out, x),))

    apply.__name__ = op
    return apply


sqrt = _elementwise("sqrt", np.sqrt, lambda out, x: 0.5 / out)
exp = _elementwise("exp", np.exp, lambda out, x: out)
log = _elementwise("log", np.log, lambda out, x: 1.0 / x)
cosh = _elementwise("cosh", np.cosh, lambda out, x: np.sinh(x))
sinh = _elementwise("sinh", np.sinh, lambda out, x: np.cosh(x))
tanh = _elementwise("tanh", np.tanh, lambda out, x: 1.0 - out * out)
sigmoid = _elementwise(
    "sigmoid",
    lambda x: 1.0 / (1.0 + np.exp(-x)),
    lambda out, x: out * (1.0 - out),
)
relu = _elementwise(
    "relu",
    lambda x: np.where(x > 0.0, x, 0.0),
    lambda out, x: (x > 0.0).astype(np.float64),
)
absolute = _elementwise("absolute", np.abs, lambda out, x: np.sign(x))


def arccosh(a):
    """acosh with a guarded adjoint: zero wherever the argument is within
    ACOSH_GRAD_GUARD of 1 (the derivative is singular at coincidence)."""

    def fwd(x):
        return np.arccosh(np.maximum(x, 1.0))

    def maker(out, x):
        def vjp(g):
            safe = x > 1.0 + ACOSH_GRAD_GUARD
            denom = np.sqrt(np.where(safe, x * x - 1.0, 1.0))
            return np.where(safe, g / denom, 0.0)

        return vjp

    return _lift("arccosh", (a,), fwd, (maker,))


def clamp_min(a, lo: float):
    """max(a, lo) elementwise; the clamp contributes zero gradient when active."""

    def maker(out, x):
        return lambda g: g * (x > lo).astype(np.float64)

    return _lift("clamp_min", (a,), lambda x: np.maximum(x, lo), (maker,))


def where(cond, a, b):
    """Select elementwise by a boolean ndarray condition (not differentiable
    through the condition)."""
    cond = np.asarray(value_of(cond)).astype(bool)
    return _lift(
        "where",
        (a, b),
        lambda x, y: np.where(cond, x, y),
        (
            lambda out, x, y: lambda g: _unbroadcast(np.where(cond, g, 0.0), x.shape),
            lambda out, x, y: lambda g: _unbroadcast(np.where(cond, 0.0, g), y.shape),
        ),
    )


# ---------------------------------------------------------------------------
# shape and gather/scatter primitives


def sum(a, axis=None, keepdims=False):  # noqa: A001 - mirrors numpy naming
    def fwd(x):
        return np.sum(x, axis=axis, keepdims=keepdims)

    def maker(out, x):
        def vjp(g):
            if axis is None:
                return np.broadcast_to(g, x.shape).copy()
            if not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, x.shape).copy()

        return vjp

    return _lift("sum", (a,), fwd, (maker,))


def mean(a, axis=None, keepdims=False):
    x = value_of(a)
    count = x.size if axis is None else x.shape[axis]
    return sum(a, axis=axis, keepdims=keepdims) / float(count)


def reshape(a, shape):
    return _lift(
        "reshape",
        (a,),
        lambda x: x.reshape(shape),
        (lambda out, x: lambda g: g.reshape(x.shape),),
    )


def transpose(a, axes=None):
    def maker(out, x):
        if axes is None:
            return lambda g: g.T
        inverse = np.argsort(axes)
        return lambda g: g.transpose(inverse)

    return _lift("transpose", (a,), lambda x: x.transpose(axes), (maker,))


def concatenate(parts, axis=0):
    parts = list(parts)
    sizes = [value_of(p).shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    out_val = np.concatenate([value_of(p) for p in parts], axis=axis)
    tensor_parents, vjps = [], []
    for i, p in enumerate(parts):
        if isinstance(p, Tensor):
            lo, hi = offsets[i], offsets[i + 1]

            def vjp(g, lo=lo, hi=hi):
                index = [slice(None)] * g.ndim
                index[axis] = slice(lo, hi)
                return g[tuple(index)]

            tensor_parents.append(p)
            vjps.append(vjp)
    if not tensor_parents:
        return out_val
    return Tensor(out_val, tuple(tensor_parents), tuple(vjps), "concatenate")


def stack(parts, axis=0):
    parts = list(parts)
    out_val = np.stack([value_of(p) for p in parts], axis=axis)
    tensor_parents, vjps = [], []
    for i, p in enumerate(parts):
        if isinstance(p, Tensor):
            tensor_parents.append(p)
            vjps.append(lambda g, i=i: np.take(g, i, axis=axis))
    if not tensor_parents:
        return out_val
    return Tensor(out_val, tuple(tensor_parents), tuple(vjps), "stack")


def take(a, indices, axis=0):
    """Gather rows (axis 0) or columns; adjoint scatter-adds duplicates."""
    indices = np.asarray(indices)

    def maker(out, x):
        def vjp(g):
            z = np.zeros_like(x)
            if axis == 0:
                np.add.at(z, indices, g)
            else:
                z_moved = np.moveaxis(z, axis, 0)
                np.add.at(z_moved, indices, np.moveaxis(g, axis, 0))
            return z

        return vjp

    return _lift("take", (a,), lambda x: np.take(x, indices, axis=axis), (maker,))


def take_slice(a, key):
    def maker(out, x):
        def vjp(g):
            z = np.zeros_like(x)
            np.add.at(z, key, g)
            return z

        return vjp

    return _lift("getitem", (a,), lambda x: x[key], (maker,))


def _segment_sum_sorted(vals: np.ndarray, segments: np.ndarray, num_segments: int) -> np.ndarray:
    squeeze = vals.ndim == 1
    if squeeze:
        vals = vals[:, None]
    width = vals.shape[1]
    out = np.zeros((num_segments, width))
    counts = np.bincount(segments, minlength=num_segments)
    rows = np.argsort(segments, kind="stable")
    first = np.cumsum(counts) - counts
    # runs[c] holds column c of every segment as one sorted run, the
    # segments taken in `order`: one block per distinct segment length
    runs = np.empty((width, segments.size))
    order = []
    at = 0
    for length in np.unique(counts[counts > 0]):
        segs = np.flatnonzero(counts == length)
        block = vals.T[:, rows[first[segs, None] + np.arange(length)]]
        # stable: numpy's default sort can swap -0.0 for 0.0 in long rows
        block.sort(axis=-1, kind="stable")
        runs[:, at : at + segs.size * length] = block.reshape(width, segs.size * length)
        order.append(segs)
        at += segs.size * length
    if runs.size:
        order = np.concatenate(order)
        starts = np.cumsum(counts[order]) - counts[order]
        sums = np.add.reduceat(runs.ravel(), (np.arange(width)[:, None] * at + starts).ravel())
        out[order] = sums.reshape(width, order.size).T
    return out[:, 0] if squeeze else out


def segment_sum(values, segments, num_segments: int):
    """Sum rows of ``values`` into ``num_segments`` buckets given by ``segments``.

    Each (bucket, column) run is added in ascending value order, so the
    result depends only on the multiset of summands per bucket; relabeling
    elements can never change a bit of the output. Rows are grouped by
    bucket with one stable argsort; buckets of equal length form one
    (column, bucket, length) block, sorted stably along its last axis; one
    ``np.add.reduceat`` reduces every run from contiguous memory. Each run
    thus reaches numpy's add loop with the values, order (ties in index
    order) and length that a per-column ``lexsort`` gives it, so the bits
    equal that reference, pairwise summation of long runs included.
    """
    segments = np.asarray(segments, dtype=np.int64)

    def maker(out, x):
        return lambda g: g[segments]

    return _lift(
        "segment_sum",
        (values,),
        lambda x: _segment_sum_sorted(x, segments, num_segments),
        (maker,),
    )


def segment_max_value(values, segments, num_segments: int) -> np.ndarray:
    """Per-segment maximum as a constant (used for softmax stabilization)."""
    vals = value_of(values)
    segments = np.asarray(segments, dtype=np.int64)
    out = np.full(num_segments, -np.inf)
    np.maximum.at(out, segments, vals)
    return out


def log_softmax(a, axis=-1):
    """Row-stabilized log softmax; the max shift is detached, which leaves
    the exact gradient because softmax is shift-invariant."""
    shift = np.max(value_of(a), axis=axis, keepdims=True)
    shifted = subtract(a, shift)
    return subtract(shifted, log(sum(exp(shifted), axis=axis, keepdims=True)))


# ---------------------------------------------------------------------------
# reverse pass


class Tape:
    """One reverse traversal over the graph reachable from a scalar output.

    Records consumer counts on construction so the backward pass visits
    each node exactly once, in reverse topological order.
    """

    def __init__(self, output: Tensor):
        if not isinstance(output, Tensor):
            raise BuildError("tape root must be a Tensor")
        self.output = output
        self._consumers: dict[int, int] = defaultdict(int)
        self._nodes: list[Tensor] = []
        seen = {id(output)}
        stack = [output]
        while stack:
            node = stack.pop()
            self._nodes.append(node)
            for parent in node.parents:
                self._consumers[id(parent)] += 1
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)

    def gradients(self) -> dict[int, np.ndarray]:
        """Adjoints of the leaves (tensors without parents), keyed by tensor id.

        Interior adjoints are not returned: each is dropped as soon as the
        VJPs of its node have run, so only the adjoints of nodes still
        waiting for a consumer are alive at any time. A node reached along
        several paths sums its contributions in arrival order; the first
        sum allocates a buffer the walk owns and later contributions are
        added into it in place.
        """
        grads: dict[int, np.ndarray] = {id(self.output): np.ones_like(self.output.value)}
        owned: set[int] = set()
        leaves: dict[int, np.ndarray] = {}
        pending = dict(self._consumers)
        ready = [self.output]
        while ready:
            node = ready.pop()
            key = id(node)
            g = grads.pop(key)
            owned.discard(key)
            if np.isnan(g).any():
                raise NumericError("NaN adjoint in backward pass", op_path=node.op)
            if not node.parents:
                leaves[key] = g
                continue
            for parent, vjp in zip(node.parents, node.vjps):
                contribution = vjp(g)
                if contribution.shape != parent.value.shape:
                    raise BuildError(
                        f"VJP of {node.op!r} gave an adjoint of shape {contribution.shape} "
                        f"for an input of shape {parent.value.shape}"
                    )
                key = id(parent)
                if key not in grads:
                    grads[key] = contribution
                elif key in owned:
                    grads[key] += contribution
                else:
                    # the stored adjoint may be shared with another node
                    grads[key] = grads[key] + contribution
                    owned.add(key)
                pending[key] -= 1
                if pending[key] == 0:
                    ready.append(parent)
        return leaves


class ParamStore:
    """Named parameter leaves plus per-leaf Adam moment buffers."""

    def __init__(self):
        self._leaves: dict[str, np.ndarray] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self.step = 0

    def add(self, path: str, value) -> None:
        if path in self._leaves:
            raise BuildError(f"duplicate parameter path {path!r}")
        arr = _as_array(value).copy()
        self._leaves[path] = arr
        self._m[path] = np.zeros_like(arr)
        self._v[path] = np.zeros_like(arr)

    def __contains__(self, path: str) -> bool:
        return path in self._leaves

    def __getitem__(self, path: str) -> np.ndarray:
        return self._leaves[path]

    def set_(self, path: str, value) -> None:
        arr = _as_array(value)
        if arr.shape != self._leaves[path].shape:
            raise DimensionError(
                f"shape {arr.shape} does not match parameter {path!r} {self._leaves[path].shape}"
            )
        self._leaves[path] = arr.copy()

    def paths(self) -> list[str]:
        return list(self._leaves)

    def items(self):
        return self._leaves.items()

    def tensors(self) -> dict[str, Tensor]:
        """Fresh leaf Tensors over the current values."""
        return {path: Tensor(value) for path, value in self._leaves.items()}

    def to_dict(self) -> dict:
        return {path: value.tolist() for path, value in self._leaves.items()}

    def load_dict(self, tree: dict) -> None:
        """Overwrite every leaf from a {path: value} tree such as to_dict
        writes. The tree must name exactly this store's paths, each with
        the leaf's shape; the store keeps its own path order."""
        for path in self._leaves:
            if path not in tree:
                raise BuildError(f"parameter {path!r} is missing")
        for path, value in tree.items():
            if path not in self._leaves:
                raise BuildError(f"unknown parameter {path!r}")
            try:
                value = _as_array(value)
            except (TypeError, ValueError) as exc:
                raise DimensionError(f"parameter {path!r} is not a numeric array: {exc}") from exc
            self.set_(path, value)


def grad(loss_fn: Callable, store: ParamStore) -> dict[str, np.ndarray]:
    """Reverse-mode gradients of a scalar loss w.r.t. every leaf in store.

    ``loss_fn`` receives a dict mapping each parameter path to a leaf
    Tensor and must return a scalar built from the primitives above.
    """
    leaves = store.tensors()
    out = loss_fn(leaves)
    if not isinstance(out, Tensor):
        raise BuildError("loss does not depend on any parameter leaf")
    if out.value.size != 1:
        raise BuildError(f"loss must be scalar, got shape {out.value.shape}")
    if np.isnan(out.value).any():
        raise NumericError("loss evaluated to NaN", op_path=out.op)
    grads = Tape(out).gradients()
    return {
        path: grads.get(id(leaf), np.zeros_like(leaf.value)) for path, leaf in leaves.items()
    }


def finite_diff_check(
    loss_fn: Callable,
    store: ParamStore,
    h: float = 1e-5,
    dirs: int = 3,
    seed: int = 0,
) -> dict[str, float]:
    """Compare grad() to central differences along random unit directions.

    Returns the max relative error per leaf, every leaf reported exactly
    once. Relative error uses max(|analytic|, |numeric|, 1e-6) as scale.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    analytic = grad(loss_fn, store)
    values = {path: value.copy() for path, value in store.items()}

    def eval_at(override_path: str, override_value: np.ndarray) -> float:
        arrays = dict(values)
        arrays[override_path] = override_value
        return float(value_of(loss_fn(arrays)))

    rng = np.random.default_rng(seed)
    report: dict[str, float] = {}
    for path, base in values.items():
        if analytic[path].shape != base.shape:
            raise BuildError(
                f"gradient of {path!r} has shape {analytic[path].shape}, the leaf {base.shape}"
            )
        worst = 0.0
        for _ in range(dirs):
            direction = rng.standard_normal(base.shape)
            norm = np.sqrt((direction**2).sum())
            if norm == 0.0:
                continue
            direction /= norm
            slope = float((analytic[path] * direction).sum())
            plus = eval_at(path, base + h * direction)
            minus = eval_at(path, base - h * direction)
            numeric = (plus - minus) / (2.0 * h)
            scale = max(abs(slope), abs(numeric), 1e-6)
            worst = max(worst, abs(slope - numeric) / scale)
        report[path] = worst
    return report


def adam_step(
    store: ParamStore,
    grads: dict[str, np.ndarray],
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.0,
) -> ParamStore:
    """One Adam update with bias correction and decoupled weight decay."""
    store.step += 1
    t = store.step
    for path in store.paths():
        g = _as_array(grads[path])
        p = store._leaves[path]
        if g.shape != p.shape:
            raise DimensionError(f"gradient shape {g.shape} mismatches {path!r} {p.shape}")
        m = store._m[path] = beta1 * store._m[path] + (1.0 - beta1) * g
        v = store._v[path] = beta2 * store._v[path] + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        update = m_hat / (np.sqrt(v_hat) + eps)
        store._leaves[path] = p - lr * (update + weight_decay * p)
    return store

