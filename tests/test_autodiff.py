"""Reverse-mode engine: per-op gradients against central differences,
grouped reductions, optimizer behavior, and failure modes."""

import ast
from pathlib import Path

import numpy as np
import pytest

from hkconv import autodiff as ad
from hkconv import graphnet as gn
from hkconv import invariants, lmath
from hkconv import layout as lo
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
            h = ad.add(ad.sinh(h), ad.sigmoid(h))
            return ad.mean(ad.multiply(h, h))

        assert _fd_max(loss, store) <= 5e-6

    def test_pointwise_ops_match_finite_differences(self, rng):
        # inputs kept away from the clamp/absolute kinks and domain edges
        store = ad.ParamStore()
        store.add("a", 0.5 + rng.uniform(0.5, 1.5, size=(3, 4)))
        store.add("c", rng.uniform(-2.0, -0.5, size=(3, 4)))

        def loss(leaves):
            a, c = leaves["a"], leaves["c"]
            out = ad.add(ad.exp(ad.negative(a)), ad.log(a))
            out = ad.add(out, ad.sqrt(a))
            out = ad.add(out, ad.divide(a, ad.subtract(a, c)))
            out = ad.add(out, ad.cosh(c))
            out = ad.add(out, ad.sinh(c))
            out = ad.add(out, ad.arccosh(ad.add(a, 1.0)))
            out = ad.add(out, ad.clamp_min(c, -10.0))
            out = ad.add(out, ad.absolute(c))
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
            both = ad.concatenate((cat, cat), axis=1)
            rows = ad.take(cat, np.array([0, 5, 2]), axis=0)
            window = ad.take_slice(both, (slice(1, 4), slice(2, 5)))
            return ad.add(ad.sum(ad.multiply(rows, rows)), ad.mean(window))

        assert _fd_max(loss, store) <= 5e-6

    def test_vector_matmuls_and_column_take_match_finite_differences(self, rng):
        store = ad.ParamStore()
        store.add("v", rng.standard_normal(4))
        store.add("M", rng.standard_normal((4, 3)))
        store.add("u", rng.standard_normal(3))

        def loss(leaves):
            v, M, u = leaves["v"], leaves["M"], leaves["u"]
            cols = ad.take(M, np.array([2, 0, 2]), axis=1)
            out = ad.matmul(ad.matmul(v, cols), u)
            return out + ad.sum(ad.matmul(M, u)) + ad.matmul(v, v)

        assert _fd_max(loss, store) <= 5e-6

    def test_matmul_records_vector_and_matrix_operands_only(self, rng):
        batch = rng.standard_normal((2, 3, 4))
        w = rng.standard_normal((4, 2))
        np.testing.assert_array_equal(ad.matmul(batch, w), batch @ w)
        with pytest.raises(BuildError, match="ndim 3 x 2"):
            ad.matmul(batch, ad.Tensor(w))

    def test_reduction_ops_match_finite_differences(self, rng):
        store = ad.ParamStore()
        store.add("v", rng.standard_normal((6, 3)))
        counts = np.array([3, 1, 2])

        def loss(leaves):
            pooled = ad.segment_sum(leaves["v"], counts)
            logp = ad.log_softmax(pooled, axis=-1)
            return ad.negative(ad.mean(ad.take_slice(logp, (slice(None), 0))))

        assert _fd_max(loss, store) <= 5e-6

    def test_gradients_are_deterministic(self, rng):
        store = ad.ParamStore()
        store.add("W", rng.standard_normal((3, 3)))

        def loss(leaves):
            return ad.sum(ad.sigmoid(ad.matmul(leaves["W"], leaves["W"])))

        first = ad.grad(loss, store)
        second = ad.grad(loss, store)
        np.testing.assert_array_equal(first["W"], second["W"])


class TestTape:
    def test_gradients_returns_leaf_adjoints_only(self, rng):
        a = ad.Tensor(rng.standard_normal(3))
        b = ad.Tensor(rng.standard_normal(3))
        loss = ad.sum(ad.sinh(a * b) + a)
        grads = ad.Tape(loss).gradients()
        assert set(grads) == {id(a), id(b)}
        slope = np.cosh(a.value * b.value)
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

            return ad._lift("product", (x, y), lambda u, v: (u * v, (u, v)), backward)

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

    def test_backward_pass_records_nothing(self, monkeypatch):
        data = gn.synth_trees_vs_random(60, 12, seed=0)
        model = gn.build_hkn(
            gn.HKNConfig(K=2, hidden_dim=5),
            feature_dim=data.feature_dim,
            num_classes=data.num_classes,
        )
        idx = gn.split_indices(data, "train")
        logits = gn.forward_logits(model, data, model.store.tensors())
        tape = ad.Tape(gn._nll(logits, data.labels[idx], idx, model.num_classes))
        recorded = []
        lift = ad._lift

        def spy(op, *args):
            recorded.append(op)
            return lift(op, *args)

        monkeypatch.setattr(ad, "_lift", spy)
        assert tape.gradients()
        assert recorded == []


class TestRowdot:
    """The row-wise dot product every Lorentz inner product, squared norm
    and gate logit goes through."""

    @pytest.mark.parametrize("width", (3, 5, 10, 16, 17))
    def test_row_bits_do_not_depend_on_the_layout(self, rng, width):
        a = rng.standard_normal((40, width))
        b = rng.standard_normal((40, width))
        v = rng.standard_normal(width)
        want = ad._rowdot(a, b)
        layouts = {"fortran": np.asfortranarray(a), "reversed": a[:, ::-1].copy()[:, ::-1]}
        wide = np.empty((40, width + 3))
        wide[:, 2 : 2 + width] = a
        layouts["column slice"] = wide[:, 2 : 2 + width]
        for offset in range(1, 5):
            x = np.empty(a.size + offset)[offset:].reshape(a.shape)
            x[...] = a
            layouts[f"misaligned by {offset}"] = x
        for x in layouts.values():
            _assert_same_bits(ad._rowdot(x, b), want)
            _assert_same_bits(ad._rowdot(b, x), ad._rowdot(b, a))
        _assert_same_bits(ad._rowdot(np.asfortranarray(a), np.asfortranarray(b)), want)
        for i in (0, 17, 39):
            _assert_same_bits(ad._rowdot(a[i], b[i]), np.asarray(want[i]))
            _assert_same_bits(ad._rowdot(a[i : i + 1], b[i : i + 1]), want[i : i + 1])
        # a broadcast vector operand contracts each row as a copy of it would
        _assert_same_bits(ad._rowdot(a, v), ad._rowdot(a, np.tile(v, (40, 1))))
        _assert_same_bits(ad._rowdot(a, v), ad._rowdot(np.asfortranarray(a), v))

    def test_adjoints_are_those_of_the_product_and_sum(self, rng):
        # the composite's adjoints are the same products, unbroadcast alike
        a = rng.standard_normal((12, 5))
        v = rng.standard_normal(5)
        weights = rng.standard_normal(12)
        store = ad.ParamStore()
        store.add("a", a)
        store.add("v", v)

        def loss(fn):
            return lambda leaves: ad.sum(fn(leaves["a"], leaves["v"]) * weights)

        got = ad.grad(loss(ad.rowdot), store)
        want = ad.grad(loss(lambda x, y: ad.sum(x * y, axis=-1)), store)
        for path in ("a", "v"):
            _assert_same_bits(got[path], want[path])
        out = ad.rowdot(*store.tensors().values())
        assert out.op == "rowdot"
        _assert_same_bits(out.value, ad._rowdot(a, v))


def _run_by_run_sum(vals, counts):
    """Reference: every (run, column) reduced on its own, from a contiguous
    copy of just that run of the column, one numpy reduction each."""
    squeeze = vals.ndim == 1
    if squeeze:
        vals = vals[:, None]
    out = np.zeros((len(counts), vals.shape[1]))
    at = 0
    for i, count in enumerate(counts):
        for j in range(vals.shape[1]):
            out[i, j] = np.add.reduceat(vals[at : at + count, j].copy(), [0])[0]
        at += count
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
    """segment_sum adds each run of grouped rows in the order given; the
    order is the caller's, and relabeling invariance comes from an order
    that depends on the rows alone (the typed layers' byte order, the
    structural class order of graphnet)."""

    # run lengths that reach each of numpy's summation paths: a single
    # element, the plain loop (< 9), the unrolled block (<= 128) and the
    # recursive pairwise split (> 128)
    RUN_LENGTHS = (1, 2, 5, 8, 9, 17, 64, 128, 129, 300, 1100)

    def _heavy_tailed(self, rng, shape):
        scale = 10.0 ** rng.integers(-12, 12, size=shape)
        return rng.standard_cauchy(shape) * scale

    def test_bits_match_each_run_summed_alone(self, rng):
        # a run's bits depend on its own rows and their order only, not on
        # where it sits or on the runs around it
        for _ in range(40):
            counts = rng.choice(self.RUN_LENGTHS, size=int(rng.integers(1, 30)))
            values = self._heavy_tailed(rng, (counts.sum(), int(rng.integers(1, 6))))
            _assert_same_bits(ad.segment_sum(values, counts), _run_by_run_sum(values, counts))

    def test_bits_match_for_one_dimensional_values(self, rng):
        counts = rng.permutation(self.RUN_LENGTHS)
        values = self._heavy_tailed(rng, counts.sum())
        out = ad.segment_sum(values, counts)
        assert out.shape == (len(counts),)
        _assert_same_bits(out, _run_by_run_sum(values, counts))

    def _assert_bits_match_with_special_values(self, rng, counts):
        values = self._heavy_tailed(rng, (counts.sum(), 4))
        pick = rng.random(values.shape)
        values[pick < 0.1] = 0.0
        values[(pick >= 0.1) & (pick < 0.2)] = -0.0
        values[:, 0][pick[:, 0] > 0.97] = np.inf
        values[:, 1][pick[:, 1] > 0.97] = -np.inf
        values[:, 2][pick[:, 2] > 0.98] = np.nan
        # signed zeros only: a sum is -0.0 exactly when every summand is
        values[:, 3] = np.where(pick[:, 3] < 0.9, -0.0, 0.0)
        with np.errstate(invalid="ignore"):
            out = ad.segment_sum(values, counts)
            ref = _run_by_run_sum(values, counts)
        _assert_same_bits(out, ref)
        runs = np.repeat(np.arange(counts.size), counts)
        all_negative = np.bincount(runs, weights=~np.signbit(values[:, 3])) == 0
        np.testing.assert_array_equal(np.signbit(out[:, 3]), all_negative)

    def test_bits_match_with_signed_zeros_infinities_and_nans(self, rng):
        self._assert_bits_match_with_special_values(rng, np.array(self.RUN_LENGTHS))

    def test_bits_match_when_most_runs_are_left_unsorted(self, rng):
        # no run is ever sorted; runs of one to three are the neighbourhoods
        # of most nodes in a sparse graph
        counts = rng.choice((1, 2, 2, 2, 3, 9), size=3000)
        self._assert_bits_match_with_special_values(rng, counts)
        values = self._heavy_tailed(rng, (counts.sum(), 3))
        _assert_same_bits(ad.segment_sum(values, counts), _run_by_run_sum(values, counts))

    def test_rows_are_added_in_the_order_given(self):
        # 1 + 1e16 - 1e16 rounds differently in these two orders; a sum
        # that reordered the rows by value would give both the same bits
        counts = [3]
        first = ad.segment_sum(np.array([1.0, 1e16, -1e16]), counts)
        second = ad.segment_sum(np.array([1e16, -1e16, 1.0]), counts)
        assert first[0] != second[0]

    def test_bits_do_not_depend_on_row_order_within_segments(self, rng):
        # once each run is put in the byte order of its rows, as the typed
        # layers do, shuffling the rows of a run changes no bit
        counts = np.array(self.RUN_LENGTHS)
        runs = np.repeat(np.arange(counts.size), counts)
        values = self._heavy_tailed(rng, (counts.sum(), 3))
        values[rng.random(values.shape) < 0.1] = -0.0

        def byte_ordered(vals, run_ids):
            ranks = lo._row_classes(vals.view(np.uint64))[0]
            return vals[np.lexsort((ranks, run_ids))]

        base = ad.segment_sum(byte_ordered(values, runs), counts)
        for _ in range(5):
            p = rng.permutation(runs.size)
            _assert_same_bits(ad.segment_sum(byte_ordered(values[p], runs[p]), counts), base)

    def test_empty_input_gives_zero_buckets(self):
        out = ad.segment_sum(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))
        assert out.shape == (0, 3)
        assert ad.segment_sum(np.zeros(0), []).shape == (0,)

    def test_empty_runs_and_miscounted_rows_are_build_errors(self, rng):
        # reduceat would give an empty run the next run's first row
        values = rng.standard_normal((4, 2))
        with pytest.raises(BuildError, match="counts >= 1"):
            ad.segment_sum(values, [2, 0, 2])
        with pytest.raises(BuildError, match="4 rows"):
            ad.segment_sum(values, [2, 1])
        with pytest.raises(BuildError, match="counts >= 1"):
            ad.segment_max_value(values[:, 0], [4, 0])

    def test_matches_bucketed_numpy_sums(self, rng):
        values = rng.standard_normal((8, 3))
        counts = np.array([3, 1, 4])
        out = ad.segment_sum(values, counts)
        expected = np.zeros((3, 3))
        for row, seg in zip(values, np.repeat(np.arange(3), counts)):
            expected[seg] += row
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-15)
        np.testing.assert_array_equal(out[1], values[3])

    def test_output_is_invariant_to_element_order_bitwise(self, rng):
        # graphnet's rule: rows are the rows of a few classes, and each run
        # is ordered by class id; rows that tie are the same row, so any
        # relabeling of the elements sums the same sequence
        class_rows = rng.standard_normal((5, 4))
        classes = rng.integers(0, 5, size=40)
        segments = rng.integers(0, 6, size=40)
        segments[:6] = np.arange(6)
        counts = np.bincount(segments)
        order = np.lexsort((classes, segments))
        base = ad.segment_sum(class_rows[classes[order]], counts)
        for _ in range(10):
            p = rng.permutation(40)
            order = np.lexsort((classes[p], segments[p]))
            _assert_same_bits(ad.segment_sum(class_rows[classes[p][order]], counts), base)

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


def _add_at_adjoint(g, shape, indices, axis):
    """The reference scatter for take's adjoint: np.add.at into zeros."""
    z = np.zeros(shape)
    np.add.at(np.moveaxis(z, axis, 0), indices, np.moveaxis(g, axis, 0))
    return z


class TestTakeAdjoint:
    def _adjoint(self, x, indices, axis, g):
        out = ad.take(ad.Tensor(x), indices, axis=axis)
        assert out.shape == g.shape
        (vjp,) = out.vjps
        return vjp(g)

    def _assert_matches_add_at(self, x, indices, axis, g):
        with np.errstate(invalid="ignore"):
            out = self._adjoint(x, indices, axis, g)
            ref = _add_at_adjoint(g, x.shape, indices, axis)
        # every non-NaN bit, signed zeros included; a NaN's sign and payload
        # depend on the order the hardware takes a NaN sum's operands in
        _assert_same_bits(out, ref)

    def _with_specials(self, rng, shape):
        g = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, size=shape)
        pick = rng.random(shape)
        g[pick < 0.15] = -0.0
        g[(pick >= 0.15) & (pick < 0.25)] = 0.0
        g[(pick >= 0.25) & (pick < 0.3)] = np.inf
        g[(pick >= 0.3) & (pick < 0.35)] = -np.inf
        g[pick > 0.95] = np.nan
        return g

    @pytest.mark.parametrize(
        "shape, axis", [((7,), 0), ((7, 5), 0), ((4, 7), 1), ((3, 7, 2), 1), ((3, 2, 7), 2)]
    )
    def test_bits_match_add_at_on_a_hand_index(self, rng, shape, axis):
        n = shape[axis]
        # rows 0, 3 and 6 repeat (6 also as -1), -n wraps to 0, rows 4 and 5
        # are never read
        indices = np.array([0, 3, 3, 1, -1, 0, 3, -n, 2, n - 1, 3])
        x = rng.standard_normal(shape)
        g = self._with_specials(rng, np.take(x, indices, axis=axis).shape)
        self._assert_matches_add_at(x, indices, axis, g)

    def test_bits_match_add_at_on_edge_gathers(self, rng):
        # the model's shape: one row per edge end gathered from node rows
        x = rng.standard_normal((300, 17))
        indices = np.sort(rng.integers(-300, 290, size=900))
        self._assert_matches_add_at(x, indices, 0, self._with_specials(rng, (900, 17)))

    def test_signed_zero_rows_sum_to_positive_zero(self):
        # np.add.at starts from +0.0, so a row fed only -0.0 ends at +0.0
        x = np.zeros((3, 2))
        g = np.full((4, 2), -0.0)
        out = self._adjoint(x, np.array([1, 1, 2, -1]), 0, g)
        np.testing.assert_array_equal(out.view(np.uint64), np.zeros((3, 2)).view(np.uint64))


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
        lambda x: (np.tile(x, (6, 1)), ()),
        lambda g, saved, needs: (g,),
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


# every op kind a model path reaches: the gradient passes of the two
# benchmark models and of a dropout model, evaluate, the invariant suites
# and a cold build_hkn (kernel placement included)
_REACHED_OPS = {
    "add", "subtract", "multiply", "divide", "negative", "sum", "rowdot", "reshape",
    "concatenate", "take", "segment_sum", "exp", "log", "sqrt", "cosh", "sinh",
    "clamp_min", "where", "dist", "cross_dist", "normalize_timelike", "edge_points",
}
# defined ops that only the tests' composite oracles record, or (ominus)
# that the chain oracle records and the bench tracer hooks
_ORACLE_OPS = {"matmul", "transpose", "sigmoid", "arccosh", "absolute", "getitem", "ominus"}


def _defined_ops() -> set:
    """The op names src/ passes to _lift and _elementwise as literals."""
    names = set()
    for path in Path(ad.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(
                node.func, "id", None
            )
            first = node.args[0]
            if func in ("_lift", "_elementwise") and isinstance(first, ast.Constant):
                names.add(first.value)
    return names


class TestOpCensus:
    def test_every_defined_op_is_reached_or_an_oracle(self, monkeypatch):
        reached = set()
        lift, concatenate = ad._lift, ad.concatenate

        def lift_spy(op, *args):
            reached.add(op)
            return lift(op, *args)

        def concatenate_spy(*args, **kwargs):
            reached.add("concatenate")
            return concatenate(*args, **kwargs)

        monkeypatch.setattr(ad, "_lift", lift_spy)
        monkeypatch.setattr(ad, "concatenate", concatenate_spy)
        monkeypatch.setattr(gn, "_SOLVE_CACHE", {})  # a cold placement

        data = gn.synth_trees_vs_random(200, 16, seed=0)
        folds = np.arange(data.num_nodes) % 5
        nodes = gn.GraphBatch(
            data.features, data.edges, data.labels[data.graph_ids],
            masks={"train": folds < 3, "val": folds == 3, "test": folds == 4},
        )
        for batch, cfg in (
            (data, gn.HKNConfig()),
            (nodes, gn.HKNConfig(K=8, pooling_weights="attention", task="node")),
            (data, gn.HKNConfig(K=3, dropout=0.3)),
        ):
            model = gn.build_hkn(cfg, feature_dim=batch.feature_dim, num_classes=2)
            idx = gn.split_indices(batch, "train")

            def loss(leaves, model=model, batch=batch, idx=idx):
                logits = gn.forward_logits(
                    model, batch, leaves, training=True, rng=np.random.default_rng(0)
                )
                return gn._nll(logits, batch.labels[idx], idx, model.num_classes)

            ad.grad(loss, model.store)
            gn.evaluate(model, batch, "test")
        invariants.run_suite("all", trials=5)

        assert reached == _REACHED_OPS
        assert _defined_ops() - reached == _ORACLE_OPS
