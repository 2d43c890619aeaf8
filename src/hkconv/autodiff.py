"""Minimal reverse-mode differentiation engine on numpy.

Every primitive here accepts either plain ndarrays or :class:`Tensor`
values. With ndarrays it computes with numpy and returns ndarrays, so the
same model code serves both the differentiable path and fast inference /
finite-difference evaluation. With at least one Tensor operand it records
the local adjoint rule, and :func:`grad` replays the graph in reverse
topological order.

Design points:

- 64-bit floats everywhere.
- Every tape node comes from :func:`_lift`, except ``concatenate``'s,
  which is built by hand because the bench tracer wraps ``concatenate``
  by name: a forward returns the output and what its backward rule
  needs, and the rule gives all the node's adjoints at once.
  A composite map may be one node: its forward evaluates the same NumPy
  expressions as the chain of primitives it replaces, so values are
  unchanged, and its rule shares work between the adjoints.
- The reverse pass keeps an interior node's adjoint only until that
  node's VJPs have run and returns the adjoints of leaves alone, so the
  live adjoints are those of the current frontier, not of the whole graph.
- Adjoints of the clamped acosh are zero wherever the clamp is active, so
  distances have a zero subgradient at coincident points.
- The primitives are those the model records, plus ``matmul``,
  ``transpose``, ``sigmoid``, ``arccosh``, ``absolute`` and ``take_slice``
  (``Tensor.__getitem__``), which no model path reaches: they stay as the
  parts from which the tests' oracles rebuild the fused maps of lmath and
  layers (the fused distances share ``arccosh``'s guarded adjoint).
- ``segment_sum`` takes its rows grouped by segment and adds each run in
  the order given, with one ``reduceat``; it never reorders by value.
  Permutation equivariance stays bitwise because the callers give every
  run in a structural order that relabelling cannot change: graphnet (layout) by
  structural node class, the typed layers by the bytes of the rows.
"""

from __future__ import annotations

import math
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

    def __getitem__(self, key):
        return take_slice(self, key)


def value_of(x) -> np.ndarray:
    """Underlying ndarray of a Tensor, or the input coerced to float64."""
    return x.value if isinstance(x, Tensor) else _as_array(x)


def _check_operand(x):
    if isinstance(x, (Tensor, np.ndarray, float, int, np.floating, np.integer, list, tuple)):
        return
    raise BuildError(f"unsupported operand type for differentiable op: {type(x).__name__}")


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot product along the last axis: one einsum pass, with no
    product temporary and no BLAS call. einsum adds a row's products in
    another order when that axis is not unit-stride, so such an operand is
    copied first and a row's bits do not depend on the array's layout."""
    a, b = (x if x.strides[-1] == x.itemsize else np.ascontiguousarray(x) for x in (a, b))
    return np.einsum("...i,...i->...", a, b)


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


def _lift(op: str, inputs: tuple, forward: Callable, backward: Callable):
    """Run ``forward`` on raw values; record a tape node if any input is a Tensor.

    ``forward(*input_values)`` returns ``(out, saved)``: the output and what
    the backward rule needs. ``backward(g, saved, needs)`` returns one
    adjoint per input, where ``needs[i]`` tells whether input i is a Tensor
    (the entry of a constant input is ignored and may be None). The node
    has one VJP per Tensor input, and ``backward`` runs once per visit of
    the node: the first VJP called computes every adjoint, each VJP hands
    out its own, and the last one drops them.
    """
    for x in inputs:
        _check_operand(x)
    out, saved = forward(*(value_of(x) for x in inputs))
    needs = tuple(isinstance(x, Tensor) for x in inputs)
    if not any(needs):
        return out
    parents = tuple(x for x in inputs if isinstance(x, Tensor))
    state = {}

    def vjp(i):
        def run(g):
            if "grads" not in state:
                state["grads"] = backward(g, saved, needs)
                state["left"] = len(parents)
            grad_i = state["grads"][i]
            state["left"] -= 1
            if not state["left"]:
                del state["grads"]
            return grad_i

        return run

    return Tensor(out, parents, tuple(vjp(i) for i, need in enumerate(needs) if need), op)


def _per_input(*rules: Callable) -> Callable:
    """A backward rule made of one ``rule(g, *saved)`` per input; the rules
    of constant inputs do not run."""

    def backward(g, saved, needs):
        return tuple(rule(g, *saved) if need else None for rule, need in zip(rules, needs))

    return backward


# ---------------------------------------------------------------------------
# arithmetic primitives


def add(a, b):
    return _lift(
        "add",
        (a, b),
        lambda x, y: (x + y, (x.shape, y.shape)),
        _per_input(
            lambda g, x_shape, y_shape: _unbroadcast(g, x_shape),
            lambda g, x_shape, y_shape: _unbroadcast(g, y_shape),
        ),
    )


def subtract(a, b):
    return _lift(
        "subtract",
        (a, b),
        lambda x, y: (x - y, (x.shape, y.shape)),
        _per_input(
            lambda g, x_shape, y_shape: _unbroadcast(g, x_shape),
            lambda g, x_shape, y_shape: _unbroadcast(-g, y_shape),
        ),
    )


def multiply(a, b):
    return _lift(
        "multiply",
        (a, b),
        lambda x, y: (x * y, (x, y)),
        _per_input(
            lambda g, x, y: _unbroadcast(g * y, x.shape),
            lambda g, x, y: _unbroadcast(g * x, y.shape),
        ),
    )


def divide(a, b):
    return _lift(
        "divide",
        (a, b),
        lambda x, y: (x / y, (x, y)),
        _per_input(
            lambda g, x, y: _unbroadcast(g / y, x.shape),
            lambda g, x, y: _unbroadcast(-g * x / (y * y), y.shape),
        ),
    )


def negative(a):
    return _lift("negative", (a,), lambda x: (-x, ()), _per_input(lambda g: -g))


def _matmul_adjoint_x(g, x, y):
    if x.ndim == 2:
        return g @ y.T if y.ndim == 2 else np.outer(g, y)
    return y @ g if y.ndim == 2 else g * y


def _matmul_adjoint_y(g, x, y):
    if y.ndim == 2:
        return x.T @ g if x.ndim == 2 else np.outer(x, g)
    return x.T @ g if x.ndim == 2 else g * x


def matmul(a, b):
    """x @ y; recorded for 1-D and 2-D operands only."""
    out = _lift(
        "matmul",
        (a, b),
        lambda x, y: (x @ y, (x, y)),
        _per_input(_matmul_adjoint_x, _matmul_adjoint_y),
    )
    if isinstance(out, Tensor):
        x, y = value_of(a), value_of(b)
        if max(x.ndim, y.ndim) > 2:
            raise BuildError(f"matmul on ndim {x.ndim} x {y.ndim} is not supported")
    return out


# ---------------------------------------------------------------------------
# elementwise functions


def _elementwise(op: str, fn: Callable, dfn: Callable):
    def forward(x):
        out = fn(x)
        return out, (out, x)

    backward = _per_input(lambda g, out, x: g * dfn(out, x))

    def apply(a):
        return _lift(op, (a,), forward, backward)

    apply.__name__ = op
    return apply


sqrt = _elementwise("sqrt", np.sqrt, lambda out, x: 0.5 / out)
exp = _elementwise("exp", np.exp, lambda out, x: out)
log = _elementwise("log", np.log, lambda out, x: 1.0 / x)
cosh = _elementwise("cosh", np.cosh, lambda out, x: np.sinh(x))
sinh = _elementwise("sinh", np.sinh, lambda out, x: np.cosh(x))
sigmoid = _elementwise(
    "sigmoid",
    lambda x: 1.0 / (1.0 + np.exp(-x)),
    lambda out, x: out * (1.0 - out),
)
absolute = _elementwise("absolute", np.abs, lambda out, x: np.sign(x))


def _arccosh_adjoint(g, x):
    safe = x > 1.0 + ACOSH_GRAD_GUARD
    denom = np.sqrt(np.where(safe, x * x - 1.0, 1.0))
    return np.where(safe, g / denom, 0.0)


def arccosh(a):
    """acosh with a guarded adjoint: zero wherever the argument is within
    ACOSH_GRAD_GUARD of 1 (the derivative is singular at coincidence)."""
    return _lift(
        "arccosh",
        (a,),
        lambda x: (np.arccosh(np.maximum(x, 1.0)), (x,)),
        _per_input(_arccosh_adjoint),
    )


def clamp_min(a, lo: float):
    """max(a, lo) elementwise; the clamp contributes zero gradient when active."""
    return _lift(
        "clamp_min",
        (a,),
        lambda x: (np.maximum(x, lo), (x,)),
        _per_input(lambda g, x: g * (x > lo).astype(np.float64)),
    )


def where(cond, a, b):
    """Select elementwise by a boolean ndarray condition (not differentiable
    through the condition)."""
    cond = np.asarray(value_of(cond)).astype(bool)
    return _lift(
        "where",
        (a, b),
        lambda x, y: (np.where(cond, x, y), (x.shape, y.shape)),
        _per_input(
            lambda g, x_shape, y_shape: _unbroadcast(np.where(cond, g, 0.0), x_shape),
            lambda g, x_shape, y_shape: _unbroadcast(np.where(cond, 0.0, g), y_shape),
        ),
    )


# ---------------------------------------------------------------------------
# shape and gather/scatter primitives


def sum(a, axis=None, keepdims=False):  # noqa: A001 - mirrors numpy naming
    def adjoint(g, x_shape):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, x_shape).copy()

    return _lift(
        "sum",
        (a,),
        lambda x: (np.sum(x, axis=axis, keepdims=keepdims), (x.shape,)),
        _per_input(adjoint),
    )


def rowdot(a, b):
    """Row-wise dot product along the last axis (_rowdot), one tape node."""
    return _lift(
        "rowdot",
        (a, b),
        lambda x, y: (_rowdot(x, y), (x, y)),
        _per_input(
            lambda g, x, y: _unbroadcast(g[..., None] * y, x.shape),
            lambda g, x, y: _unbroadcast(g[..., None] * x, y.shape),
        ),
    )


def mean(a, axis=None, keepdims=False):
    x = value_of(a)
    count = x.size if axis is None else x.shape[axis]
    return sum(a, axis=axis, keepdims=keepdims) / float(count)


def reshape(a, shape):
    return _lift(
        "reshape",
        (a,),
        lambda x: (x.reshape(shape), (x.shape,)),
        _per_input(lambda g, x_shape: g.reshape(x_shape)),
    )


def transpose(a, axes=None):
    return _lift(
        "transpose",
        (a,),
        lambda x: (x.transpose(axes), ()),
        _per_input(lambda g: g.T if axes is None else g.transpose(np.argsort(axes))),
    )


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


def take(a, indices, axis=0):
    """Gather rows (axis 0) or columns; adjoint scatter-adds duplicates."""
    indices = np.asarray(indices)

    def adjoint(g, x):
        # one bincount over (row, column) cells adds each cell's terms in
        # index order from 0.0, as np.add.at into zeros does, bit for bit
        rows = np.moveaxis(x, axis, 0).shape
        n, width = rows[0], math.prod(rows[1:])
        idx = np.where(indices < 0, indices + n, indices).reshape(-1, 1)
        g_rows = np.moveaxis(g, range(axis, axis + indices.ndim), range(indices.ndim))
        z = np.bincount(
            (idx * width + np.arange(width)).ravel(),
            weights=g_rows.reshape(-1),
            minlength=n * width,
        )
        return np.moveaxis(z.reshape(rows), 0, axis)

    return _lift(
        "take", (a,), lambda x: (np.take(x, indices, axis=axis), (x,)), _per_input(adjoint)
    )


def take_slice(a, key):
    def adjoint(g, x):
        z = np.zeros_like(x)
        np.add.at(z, key, g)
        return z

    return _lift("getitem", (a,), lambda x: (x[key], (x,)), _per_input(adjoint))


def segment_sum(values, counts):
    """Sum consecutive runs of rows of ``values``: run i is the next
    ``counts[i]`` rows, so the rows arrive grouped by segment.

    Each run is added in the order its rows are given: the caller fixes
    the summation order, and the bits of a run's sum depend only on that
    sequence of rows, not on where the run sits or on the other runs. One
    ``np.add.reduceat`` reduces every run; its adjoint repeats each run's
    adjoint row over the run. Every count must be at least 1, because
    reduceat gives an empty run the next row instead of zero.
    """
    counts = np.asarray(counts, dtype=np.int64)
    starts = _run_starts(counts)

    def forward(x):
        if x.shape[0] != counts.sum():
            raise BuildError(f"{x.shape[0]} rows for runs of {int(counts.sum())} rows in all")
        return np.add.reduceat(x, starts, axis=0), ()

    return _lift(
        "segment_sum", (values,), forward, _per_input(lambda g: np.repeat(g, counts, axis=0))
    )


def _run_starts(counts: np.ndarray) -> np.ndarray:
    """First row of each run of a grouped layout."""
    if counts.ndim != 1 or np.any(counts < 1):
        raise BuildError("segment counts must be a vector of counts >= 1")
    return np.cumsum(counts) - counts


def segment_max_value(values, counts) -> np.ndarray:
    """Per-run maximum of grouped values (see segment_sum) as a constant,
    used for softmax stabilization."""
    counts = np.asarray(counts, dtype=np.int64)
    return np.maximum.reduceat(value_of(values), _run_starts(counts))


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

