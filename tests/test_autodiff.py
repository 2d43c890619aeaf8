"""Reverse-mode engine: per-op gradients against central differences,
value-canonical reductions, optimizer behavior, and failure modes."""

import numpy as np
import pytest

from hkconv import autodiff as ad
from hkconv import lmath
from hkconv.errors import BuildError, DimensionError, NumericError


def _fd_max(loss_fn, store, h=1e-5, dirs=3, seed=0):
    report = ad.finite_diff_check(loss_fn, store, h=h, dirs=dirs, seed=seed)
    return max(report.values())


class TestPrimitiveGradients:
    def test_squared_distance_from_origin_gradient_is_2v(self):
        # d(o, embed(z)) = |z| at curvature -1, so the squared loss has gradient 2z
        store = ad.ParamStore()
        z = np.array([[0.3, -1.2, 0.7]])
        store.add("z", z)

        def loss(leaves):
            point = lmath.embed(leaves["z"], -1.0)
            d = lmath.dist(lmath.origin_row(3, -1.0), point, -1.0)
            return ad.sum(ad.multiply(d, d))

        grads = ad.grad(loss, store)
        np.testing.assert_allclose(grads["z"], 2.0 * z, rtol=1e-10, atol=1e-12)

    def test_unused_leaf_gets_exact_zero_gradient(self):
        store = ad.ParamStore()
        store.add("used", np.array([1.5, -0.5]))
        store.add("unused", np.ones((2, 2)))

        def loss(leaves):
            return ad.sum(ad.multiply(leaves["used"], leaves["used"]))

        grads = ad.grad(loss, store)
        np.testing.assert_array_equal(grads["unused"], np.zeros((2, 2)))

    def test_dense_ops_match_finite_differences(self, rng):
        store = ad.ParamStore()
        store.add("W", rng.standard_normal((4, 3)))
        store.add("b", rng.standard_normal(3))
        store.add("x", rng.standard_normal((5, 4)))

        def loss(leaves):
            h = ad.add(ad.matmul(leaves["x"], leaves["W"]), leaves["b"])
            h = ad.add(ad.tanh(h), ad.sigmoid(h))
            return ad.mean(ad.multiply(h, h))

        assert _fd_max(loss, store) <= 5e-6

    def test_pointwise_ops_match_finite_differences(self, rng):
        # inputs kept away from the relu/where/absolute kinks and domain edges
        store = ad.ParamStore()
        store.add("a", 0.5 + rng.uniform(0.5, 1.5, size=(3, 4)))
        store.add("c", rng.uniform(-2.0, -0.5, size=(3, 4)))

        def loss(leaves):
            a, c = leaves["a"], leaves["c"]
            out = ad.add(ad.exp(ad.negative(a)), ad.log(a))
            out = ad.add(out, ad.sqrt(a))
            out = ad.add(out, ad.power(a, 3))
            out = ad.add(out, ad.divide(a, ad.subtract(a, c)))
            out = ad.add(out, ad.cosh(c))
            out = ad.add(out, ad.sinh(c))
            out = ad.add(out, ad.arccosh(ad.add(a, 1.0)))
            out = ad.add(out, ad.clamp_min(c, -10.0))
            out = ad.add(out, ad.absolute(c))
            out = ad.add(out, ad.relu(a))
            out = ad.add(out, ad.where(np.full((3, 4), True), a, c))
            return ad.mean(out)

        assert _fd_max(loss, store) <= 5e-6

    def test_shape_ops_match_finite_differences(self, rng):
        store = ad.ParamStore()
        store.add("a", rng.standard_normal((4, 3)))
        store.add("b", rng.standard_normal((2, 3)))

        def loss(leaves):
            a, b = leaves["a"], leaves["b"]
            flat = ad.reshape(a, (3, 4))
            t = ad.transpose(flat)
            cat = ad.concatenate((t, b), axis=0)
            stk = ad.stack((cat, cat), axis=0)
            rows = ad.take(cat, np.array([0, 5, 2]), axis=0)
            window = ad.take_slice(stk, (0, slice(1, 4)))
            return ad.add(ad.sum(ad.multiply(rows, rows)), ad.mean(window))

        assert _fd_max(loss, store) <= 5e-6

    def test_reduction_ops_match_finite_differences(self, rng):
        store = ad.ParamStore()
        store.add("v", rng.standard_normal((6, 3)))
        segments = np.array([2, 0, 1, 0, 2, 2])

        def loss(leaves):
            pooled = ad.segment_sum(leaves["v"], segments, 3)
            logp = ad.log_softmax(pooled, axis=-1)
            return ad.negative(ad.mean(ad.take_slice(logp, (slice(None), 0))))

        assert _fd_max(loss, store) <= 5e-6

    def test_gradients_are_deterministic(self, rng):
        store = ad.ParamStore()
        store.add("W", rng.standard_normal((3, 3)))

        def loss(leaves):
            return ad.sum(ad.tanh(ad.matmul(leaves["W"], leaves["W"])))

        first = ad.grad(loss, store)
        second = ad.grad(loss, store)
        np.testing.assert_array_equal(first["W"], second["W"])


class TestTape:
    def test_gradients_returns_leaf_adjoints_only(self, rng):
        a = ad.Tensor(rng.standard_normal(3))
        b = ad.Tensor(rng.standard_normal(3))
        loss = ad.sum(ad.tanh(a * b) + a)
        grads = ad.Tape(loss).gradients()
        assert set(grads) == {id(a), id(b)}
        slope = 1 - np.tanh(a.value * b.value) ** 2
        np.testing.assert_allclose(grads[id(a)], slope * b.value + 1)

    def test_shared_adjoints_are_not_added_into(self, rng):
        # add hands the same adjoint array to both operands; x then takes a
        # second contribution and a third, y none: y's adjoint must not move
        a = ad.Tensor(rng.standard_normal(4))
        b = ad.Tensor(rng.standard_normal(4))
        x = a * 2.0
        y = b * 3.0
        loss = ad.sum(ad.add(ad.add(x, y), x) + x)
        grads = ad.Tape(loss).gradients()
        np.testing.assert_array_equal(grads[id(a)], np.full(4, 6.0))
        np.testing.assert_array_equal(grads[id(b)], np.full(4, 3.0))

    def test_joint_backward_runs_once_per_visit(self, rng):
        calls = []

        def product(x, y):
            def backward(g, saved, needs):
                calls.append(needs)
                u, v = saved
                return g * v, g * u

            return ad._lift_joint("product", (x, y), lambda u, v: (u * v, (u, v)), backward)

        a = ad.Tensor(rng.standard_normal(3))
        b = ad.Tensor(rng.standard_normal(3))
        grads = ad.Tape(ad.sum(product(a, b))).gradients()
        np.testing.assert_array_equal(grads[id(a)], b.value)
        np.testing.assert_array_equal(grads[id(b)], a.value)
        assert calls == [(True, True)]
        # with one constant operand the rule is told so, and only once
        grads = ad.Tape(ad.sum(product(a, b.value))).gradients()
        assert calls[1:] == [(True, False)]
        assert set(grads) == {id(a)}
        np.testing.assert_array_equal(product(a.value, b.value), a.value * b.value)


def _lexsort_segment_sum(vals, segments, num_segments):
    """Reference: one lexsort per column, then reduceat over each bucket."""
    squeeze = vals.ndim == 1
    if squeeze:
        vals = vals[:, None]
    out = np.zeros((num_segments, vals.shape[1]))
    for j in range(vals.shape[1]):
        col = vals[:, j]
        order = np.lexsort((col, segments))
        seg_sorted = segments[order]
        if seg_sorted.size == 0:
            continue
        starts = np.flatnonzero(
            np.concatenate(([True], seg_sorted[1:] != seg_sorted[:-1]))
        )
        out[seg_sorted[starts], j] = np.add.reduceat(col[order], starts)
    return out[:, 0] if squeeze else out


def _assert_same_bits(out, ref):
    assert out.shape == ref.shape
    finite = np.isfinite(ref)
    np.testing.assert_array_equal(
        out[finite].view(np.uint64), ref[finite].view(np.uint64)
    )
    np.testing.assert_array_equal(np.isnan(out), np.isnan(ref))
    np.testing.assert_array_equal(out[~np.isnan(ref)], ref[~np.isnan(ref)])


class TestSegmentSum:
    # run lengths that reach each of numpy's summation paths: a single
    # element, the plain loop (< 9), the unrolled block (<= 128) and the
    # recursive pairwise split (> 128)
    RUN_LENGTHS = (0, 1, 2, 5, 8, 9, 17, 64, 128, 129, 300, 1100)

    def _heavy_tailed(self, rng, shape):
        scale = 10.0 ** rng.integers(-12, 12, size=shape)
        return rng.standard_cauchy(shape) * scale

    def test_bits_match_per_column_lexsort(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 30))
            lengths = rng.choice(self.RUN_LENGTHS, size=n)
            segments = np.repeat(np.arange(n), lengths)
            rng.shuffle(segments)
            values = self._heavy_tailed(rng, (segments.size, int(rng.integers(1, 6))))
            num_segments = n + int(rng.integers(0, 4))
            _assert_same_bits(
                ad.segment_sum(values, segments, num_segments),
                _lexsort_segment_sum(values, segments, num_segments),
            )

    def test_bits_match_for_one_dimensional_values(self, rng):
        segments = np.repeat(np.arange(len(self.RUN_LENGTHS)), self.RUN_LENGTHS)
        rng.shuffle(segments)
        values = self._heavy_tailed(rng, segments.size)
        out = ad.segment_sum(values, segments, len(self.RUN_LENGTHS) + 2)
        assert out.ndim == 1
        _assert_same_bits(out, _lexsort_segment_sum(values, segments, out.size))

    def test_bits_match_with_signed_zeros_infinities_and_nans(self, rng):
        segments = np.repeat(np.arange(len(self.RUN_LENGTHS)), self.RUN_LENGTHS)
        rng.shuffle(segments)
        values = self._heavy_tailed(rng, (segments.size, 4))
        pick = rng.random(values.shape)
        values[pick < 0.1] = 0.0
        values[(pick >= 0.1) & (pick < 0.2)] = -0.0
        values[:, 0][pick[:, 0] > 0.97] = np.inf
        values[:, 1][pick[:, 1] > 0.97] = -np.inf
        values[:, 2][pick[:, 2] > 0.98] = np.nan
        # signed zeros only: a sum is -0.0 exactly when every summand is
        values[:, 3] = np.where(pick[:, 3] < 0.9, -0.0, 0.0)
        with np.errstate(invalid="ignore"):
            out = ad.segment_sum(values, segments, len(self.RUN_LENGTHS))
            ref = _lexsort_segment_sum(values, segments, len(self.RUN_LENGTHS))
        _assert_same_bits(out, ref)

    def test_bits_do_not_depend_on_row_order_within_segments(self, rng):
        segments = np.repeat(np.arange(len(self.RUN_LENGTHS)), self.RUN_LENGTHS)
        values = self._heavy_tailed(rng, (segments.size, 3))
        base = ad.segment_sum(values, segments, len(self.RUN_LENGTHS))
        _assert_same_bits(base, _lexsort_segment_sum(values, segments, base.shape[0]))
        for _ in range(5):
            p = rng.permutation(segments.size)
            _assert_same_bits(ad.segment_sum(values[p], segments[p], base.shape[0]), base)

    def test_empty_input_gives_zero_buckets(self):
        out = ad.segment_sum(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), 4)
        np.testing.assert_array_equal(out, np.zeros((4, 3)))
        flat = ad.segment_sum(np.zeros(0), np.zeros(0, dtype=np.int64), 2)
        np.testing.assert_array_equal(flat, np.zeros(2))

    def test_matches_bucketed_numpy_sums(self, rng):
        values = rng.standard_normal((8, 3))
        segments = np.array([2, 0, 1, 0, 2, 2, 1, 0])
        out = ad.segment_sum(values, segments, 4)
        expected = np.zeros((4, 3))
        for row, seg in zip(values, segments):
            expected[seg] += row
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-15)
        np.testing.assert_array_equal(out[3], np.zeros(3))

    def test_output_is_invariant_to_element_order_bitwise(self, rng):
        # buckets accumulate in ascending value order, so relabeling rows
        # can never change a single bit of the result
        values = rng.standard_normal((40, 5))
        segments = rng.integers(0, 6, size=40)
        base = ad.segment_sum(values, segments, 6)
        for _ in range(10):
            p = rng.permutation(40)
            shuffled = ad.segment_sum(values[p], segments[p], 6)
            np.testing.assert_array_equal(shuffled, base)

    def test_take_accumulates_duplicate_indices(self):
        store = ad.ParamStore()
        store.add("a", np.arange(8.0).reshape(4, 2))
        weights = np.array([[1.0, 1.0], [10.0, 10.0], [100.0, 100.0]])

        def loss(leaves):
            rows = ad.take(leaves["a"], np.array([0, 2, 2]), axis=0)
            return ad.sum(ad.multiply(rows, weights))

        grads = ad.grad(loss, store)
        expected = np.array([[1.0, 1.0], [0.0, 0.0], [110.0, 110.0], [0.0, 0.0]])
        np.testing.assert_array_equal(grads["a"], expected)


class TestLogSoftmax:
    def test_rows_normalize(self, rng):
        a = rng.standard_normal((5, 7))
        out = ad.log_softmax(a, axis=-1)
        np.testing.assert_allclose(np.exp(out).sum(axis=-1), 1.0, rtol=1e-12)

    def test_stable_under_large_shifts(self):
        a = np.array([[1e4, 1e4 - 2.0, 1e4 - 4.0]])
        out = ad.log_softmax(a, axis=-1)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(
            out, ad.log_softmax(a - 1e4, axis=-1), rtol=1e-12, atol=1e-12
        )


class TestFailureModes:
    def test_nan_loss_raises_numeric_error_with_op_path(self):
        store = ad.ParamStore()
        store.add("x", np.array([-1.0]))

        def loss(leaves):
            return ad.sum(ad.log(leaves["x"]))

        with np.errstate(all="ignore"):
            with pytest.raises(NumericError) as err:
                ad.grad(loss, store)
        assert err.value.op_path != ""

    def test_nan_adjoint_raises_numeric_error(self):
        # sqrt at zero has an infinite slope; a zero upstream adjoint turns
        # it into 0/0 during the backward pass
        store = ad.ParamStore()
        store.add("x", np.array([0.0]))

        def loss(leaves):
            return ad.sum(ad.multiply(ad.sqrt(leaves["x"]), np.zeros(1)))

        with np.errstate(all="ignore"):
            with pytest.raises(NumericError) as err:
                ad.grad(loss, store)
        assert err.value.op_path != ""

    def test_constant_loss_is_a_build_error(self):
        store = ad.ParamStore()
        store.add("x", np.ones(2))
        with pytest.raises(BuildError):
            ad.grad(lambda leaves: 3.5, store)

    def test_non_scalar_loss_is_a_build_error(self):
        store = ad.ParamStore()
        store.add("x", np.ones(3))
        with pytest.raises(BuildError):
            ad.grad(lambda leaves: ad.add(leaves["x"], 1.0), store)


    def test_wrong_shaped_adjoint_is_a_build_error(self):
        store = ad.ParamStore()
        store.add("x", np.ones(4))
        with pytest.raises(BuildError, match="'broadcast_row'"):
            ad.grad(_broadcast_row_loss, store)


def _broadcast_row_loss(leaves):
    """A loss through a hand-made op whose VJP wrongly hands its (4,) input
    the (6, 4) adjoint of its output."""
    rows = ad._lift(
        "broadcast_row",
        (leaves["x"],),
        lambda x: np.tile(x, (6, 1)),
        (lambda out, x: lambda g: g,),
    )
    return ad.sum(ad.multiply(rows, rows))


class TestParamStore:
    def test_round_trip_and_validation(self):
        store = ad.ParamStore()
        store.add("layer.W", np.eye(2))
        store.add("layer.b", np.zeros(2))
        with pytest.raises(BuildError):
            store.add("layer.W", np.eye(2))
        with pytest.raises(DimensionError):
            store.set_("layer.b", np.zeros(3))

        store.set_("layer.W", np.array([[1.5, -0.0], [np.pi, 1e-300]]))
        clone = ad.ParamStore()
        clone.add("layer.b", np.ones(2))
        clone.add("layer.W", np.ones((2, 2)))
        clone.load_dict(store.to_dict())
        assert clone.paths() == ["layer.b", "layer.W"]
        for path, value in store.items():
            np.testing.assert_array_equal(clone[path].view(np.int64), value.view(np.int64))

        # load_dict takes exactly the store's paths with their shapes
        tree = store.to_dict()
        with pytest.raises(BuildError, match="'layer.b' is missing"):
            clone.load_dict({"layer.W": tree["layer.W"]})
        with pytest.raises(BuildError, match="unknown parameter 'layer.c'"):
            clone.load_dict({**tree, "layer.c": [0.0]})
        with pytest.raises(DimensionError, match="'layer.b'"):
            clone.load_dict({**tree, "layer.b": [0.0, 1.0, 2.0]})
        with pytest.raises(DimensionError, match="'layer.b' is not a numeric array"):
            clone.load_dict({**tree, "layer.b": ["a", "b"]})

    def test_tensors_are_fresh_leaves(self):
        store = ad.ParamStore()
        store.add("w", np.ones(2))
        first = store.tensors()["w"]
        second = store.tensors()["w"]
        assert first is not second
        assert first.op == "leaf"


class TestOptimizers:
    def test_adam_zero_gradient_leaves_parameters_unchanged(self):
        store = ad.ParamStore()
        value = np.array([1.0, -2.0, 0.5])
        store.add("p", value)
        ad.adam_step(store, {"p": np.zeros(3)}, lr=0.1)
        np.testing.assert_array_equal(store["p"], value)

    def test_adam_first_step_is_signed_lr(self):
        store = ad.ParamStore()
        store.add("p", np.zeros(4))
        g = np.array([3.0, -0.2, 1e-3, -7.0])
        ad.adam_step(store, {"p": g}, lr=0.01)
        np.testing.assert_allclose(store["p"], -0.01 * np.sign(g), rtol=1e-4)

    def test_adam_gradient_shape_mismatch(self):
        store = ad.ParamStore()
        store.add("p", np.zeros(4))
        with pytest.raises(DimensionError):
            ad.adam_step(store, {"p": np.zeros(5)}, lr=0.01)

    def test_adam_minimizes_a_convex_quadratic(self, rng):
        # 10-dimensional axis-aligned bowl with a known minimizer
        curv = rng.uniform(0.5, 2.0, size=10)
        target = rng.uniform(-1.0, 1.0, size=10)
        store = ad.ParamStore()
        store.add("x", np.zeros(10))
        for _ in range(5000):
            diff = store["x"] - target
            ad.adam_step(store, {"x": 2.0 * curv * diff}, lr=0.01)
        np.testing.assert_allclose(store["x"], target, atol=1e-6)

    def test_adam_weight_decay_is_decoupled(self):
        store = ad.ParamStore()
        store.add("p", np.array([2.0]))
        ad.adam_step(store, {"p": np.zeros(1)}, lr=0.1, weight_decay=0.5)
        np.testing.assert_allclose(store["p"], np.array([2.0 - 0.1 * 0.5 * 2.0]))


class TestFiniteDiffCheck:
    def test_quadratic_loss_reports_near_zero_error(self):
        store = ad.ParamStore()
        store.add("w", np.array([1.0, -2.0, 3.0]))

        def loss(leaves):
            return ad.sum(ad.multiply(leaves["w"], leaves["w"]))

        report = ad.finite_diff_check(loss, store)
        assert set(report) == {"w"}
        assert report["w"] <= 1e-10

    def test_report_lists_every_leaf_exactly_once(self, rng):
        store = ad.ParamStore()
        for name in ("a", "b", "c"):
            store.add(name, rng.standard_normal(3))

        def loss(leaves):
            total = ad.sum(ad.multiply(leaves["a"], leaves["b"]))
            return ad.add(total, ad.sum(leaves["c"]))

        report = ad.finite_diff_check(loss, store)
        assert sorted(report) == ["a", "b", "c"]

    def test_wrong_shaped_gradient_fails_the_check(self, monkeypatch):
        # an engine without the adjoint shape check hands the (6, 4) adjoint
        # out as the leaf's gradient; the directional sum would broadcast it
        store = ad.ParamStore()
        store.add("x", np.ones(4))
        monkeypatch.setattr(ad, "grad", lambda fn, st: {"x": np.full((6, 4), 2.0)})
        with pytest.raises(BuildError, match="'x'"):
            ad.finite_diff_check(_broadcast_row_loss, store)
