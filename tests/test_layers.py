"""Hyperbolic layers: plain-numpy oracles for every transform, manifold
closure, the two structural invariances, and gradient checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkconv import autodiff as ad
from hkconv import graphnet as gn
from hkconv import kernelgen, layers, lmath, manifold
from hkconv import layout as lo
from hkconv.errors import DegenerateGeometryError, DimensionError, ParameterError


def _sigmoid(t):
    return 1.0 / (1.0 + np.exp(-t))


def _naive_hlinear(coords, p, kappa):
    # oracle: re-derive the gated transform step by step in plain numpy
    u = p.weight @ coords + p.bias
    gate = np.exp(p.log_scale) * _sigmoid(coords @ p.gate_vec + p.gate_bias)
    spatial = gate * u / np.linalg.norm(u)
    time = np.sqrt(spatial @ spatial - 1.0 / kappa)
    return np.concatenate(([time], spatial))


def _composite_hlinear(x, weight, gate_vec, bias, gate_bias, log_scale, kappa, mask):
    # the gated transform as the chain of autodiff primitives it fuses
    u = ad.matmul(x, ad.transpose(weight)) + bias
    if mask is not None:
        u = u * mask
    norm_sq = layers._as_column(ad.rowdot(u, u))
    gate_logit = layers._as_column(ad.rowdot(x, gate_vec))
    gate = ad.exp(log_scale) * ad.sigmoid(gate_logit + gate_bias)
    spatial = gate / ad.sqrt(norm_sq) * u
    time = ad.sqrt(layers._as_column(ad.rowdot(spatial, spatial)) - 1.0 / kappa)
    return ad.concatenate([time, spatial], axis=-1)


# the gated transform per kernel, on raw arrays and as one fused tape op:
# the reference that the chain oracles of TestKernelAggregate record
def _gated_forward(x, weight, gate_vec, bias, gate_bias, log_scale, kappa, drop_mask):
    """The gated transform on raw arrays -> (spatial, (u, norm, gate, sig,
    time)): the spatial part of the rows on the manifold and what the
    backward rule reads, whose last entry is the rows' time column."""
    u = x @ weight.T + bias
    if drop_mask is not None:
        u = u * drop_mask
    norm_sq = ad._rowdot(u, u)[..., None]
    if float(np.min(norm_sq)) < layers._DEGENERATE_NORM**2:
        raise DegenerateGeometryError(
            "gated linear transform: pre-normalization vector has vanishing norm"
        )
    gate_logit = ad._rowdot(x, gate_vec)[..., None]
    sig = 1.0 / (1.0 + np.exp(-(gate_logit + gate_bias)))
    gate = np.exp(log_scale) * sig
    norm = np.sqrt(norm_sq)
    spatial = gate / norm * u
    return spatial, (u, norm, gate, sig, lmath._time(spatial, kappa))


def _gated_backward(g, u, norm, gate, sig, time, drop_mask):
    """Row adjoints (g_u, g_logit, g_gate) of the gated transform for the
    adjoint g of its output: g_u of the affine map x @ weight.T + bias,
    g_logit of the gate logit and g_gate of the gate."""
    g_time, g_spatial = g[..., :1], g[..., 1:]
    # spatial = gate * u / |u| has norm gate, so the time coordinate
    # depends on the gate alone and u receives only the spatial adjoint
    along = ad._rowdot(g_spatial, u)[..., None]
    g_u = gate / norm * (g_spatial - along / (norm * norm) * u)
    if drop_mask is not None:
        g_u *= drop_mask
    g_gate = along / norm + g_time * (gate / time)
    g_logit = g_gate * gate * (1.0 - sig)
    return g_u, g_logit, g_gate


def _fused_hlinear(
    x,
    weight,
    gate_vec,
    bias,
    gate_bias,
    log_scale,
    kappa: float,
    drop_mask=None,
):
    """The gated transform as one tape op, rows of x -> rows on L^out_dim.

    x may be (in_dim+1,) or (..., in_dim+1); parameters may be ndarrays or
    autodiff tensors. drop_mask, when given, multiplies the
    pre-normalization vector (inverted-dropout masks come pre-scaled).
    The map is one tape op; its backward rule uses the pre-normalization
    vector u, its norm, the gate and the time column kept by the forward.
    """

    def forward(x, weight, gate_vec, bias, gate_bias, log_scale):
        spatial, kept = _gated_forward(
            x, weight, gate_vec, bias, gate_bias, log_scale, kappa, drop_mask
        )
        return np.concatenate([kept[-1], spatial], axis=-1), (x, weight, gate_vec, kept)

    def backward(g, saved, needs):
        x, weight, gate_vec, kept = saved
        g_u, g_logit, g_gate = _gated_backward(g, *kept, drop_mask)
        gate = kept[2]
        need_x, need_w, need_gv, need_b, need_gb, need_ls = needs
        rows_u = g_u.reshape(-1, g_u.shape[-1])
        rows_x = x.reshape(-1, x.shape[-1])
        rows_logit = g_logit.reshape(-1)
        return (
            g_logit * gate_vec + g_u @ weight if need_x else None,
            rows_u.T @ rows_x if need_w else None,
            (rows_logit[:, None] * rows_x).sum(axis=0).reshape(gate_vec.shape) if need_gv else None,
            rows_u.sum(axis=0).reshape(bias.shape) if need_b else None,
            ad._unbroadcast(g_logit, np.shape(gate_bias)) if need_gb else None,
            ad._unbroadcast(g_gate * gate, np.shape(log_scale)) if need_ls else None,
        )

    return ad._lift(
        "hlinear", (x, weight, gate_vec, bias, gate_bias, log_scale), forward, backward
    )


def _lorentz_norm_scale(s, kappa):
    sq = -(s[0] ** 2) + s[1:] @ s[1:]
    return np.sqrt(-kappa * abs(sq))


def _fixed_kernels(rng, K, cfg):
    pts = []
    for _ in range(K):
        pts.append(manifold.random_point(rng, cfg, half_width=1.0))
    return kernelgen.KernelSet(tuple(pts), cfg, "loaded")


class TestHLinear:
    def test_matches_naive_composition(self, cfg3, rng):
        for out_dim in (2, 3, 5):
            p = layers.init_hlinear(rng, 3, out_dim)
            p = layers.HLinearParams(
                weight=p.weight,
                gate_vec=rng.standard_normal(4),
                bias=rng.standard_normal(out_dim),
                gate_bias=0.3,
                log_scale=-0.2,
            )
            x = manifold.random_point(rng, cfg3)
            got = layers.hlinear(x, p)
            want = _naive_hlinear(x.coords, p, cfg3.curvature)
            np.testing.assert_allclose(got.coords, want, rtol=1e-10, atol=1e-12)
            # the raw core keeps its leading axes: a 1-D row and a (2, 3) batch
            core = layers.hlinear_core(x.coords, *p.values(), cfg3.curvature)
            np.testing.assert_allclose(core, want, rtol=1e-10, atol=1e-12)
            batch = np.stack([manifold.random_point(rng, cfg3).coords for _ in range(6)])
            got = layers.hlinear_core(batch.reshape(2, 3, 4), *p.values(), cfg3.curvature)
            assert got.shape == (2, 3, out_dim + 1)
            for row, out in zip(batch, got.reshape(6, -1)):
                want = _naive_hlinear(row, p, cfg3.curvature)
                np.testing.assert_allclose(out, want, rtol=1e-10, atol=1e-12)

    def test_output_is_on_manifold(self, cfg3, rng):
        for _ in range(20):
            p = layers.init_hlinear(rng, 3, 4)
            y = layers.hlinear(manifold.random_point(rng, cfg3), p)
            inner = lmath._inner(y.coords, y.coords)
            assert abs(inner - 1.0 / cfg3.curvature) <= 1e-9
            assert y.coords[0] > 0

    def test_vanishing_prenorm_vector_is_degenerate(self, cfg3, rng):
        # bias tuned so the pre-normalization vector is exactly zero at x
        x = manifold.random_point(rng, cfg3)
        weight = np.ones((2, 4))
        p = layers.HLinearParams(
            weight=weight,
            gate_vec=np.zeros(4),
            bias=-(weight @ x.coords),
        )
        with pytest.raises(DegenerateGeometryError):
            layers.hlinear(x, p)

    def test_dimension_mismatch(self, cfg3, rng):
        p = layers.init_hlinear(rng, 5, 3)
        with pytest.raises(DimensionError):
            layers.hlinear(manifold.random_point(rng, cfg3), p)

    def test_gradients_match_finite_differences(self, cfg3, rng):
        x = manifold.random_point(rng, cfg3)
        init = layers.init_hlinear(rng, 3, 4)
        store = ad.ParamStore()
        store.add("weight", rng.uniform(-0.5, 0.5, size=init.weight.shape))
        store.add("gate_vec", rng.standard_normal(4))
        store.add("bias", rng.standard_normal(4))

        def loss(leaves):
            out = _fused_hlinear(
                x.coords[None, :],
                leaves["weight"],
                leaves["gate_vec"],
                leaves["bias"],
                0.0,
                0.0,
                cfg3.curvature,
            )
            d = lmath.dist(out, lmath.origin_row(4, cfg3.curvature), cfg3.curvature)
            return ad.sum(d * d)

        report = ad.finite_diff_check(loss, store)
        assert max(report.values()) <= 1e-5

    @pytest.mark.parametrize("masked", (False, True))
    def test_fused_op_matches_composite(self, rng, masked):
        # forward bit for bit, every adjoint to 1e-12 of the oracle's largest
        kappa = -0.7
        x = lmath.embed(0.7 * rng.standard_normal((25, 3)), kappa)
        args = {
            "x": x,
            "weight": rng.uniform(-0.5, 0.5, size=(5, 4)),
            "gate_vec": rng.standard_normal(4),
            "bias": rng.standard_normal(5),
            "gate_bias": np.asarray(0.3),
            "log_scale": np.asarray(-0.2),
        }
        mask = (rng.random((25, 5)) < 0.7) / 0.7 if masked else None
        names = list(args)

        def run(fn, values):
            return fn(*[values[n] for n in names], kappa, mask)

        fused = run(_fused_hlinear, args)
        np.testing.assert_array_equal(
            fused.view(np.int64), run(_composite_hlinear, args).view(np.int64)
        )
        store = ad.ParamStore()
        for n in names:
            store.add(n, args[n])
        weights = rng.standard_normal(fused.shape)
        got = ad.grad(lambda leaves: ad.sum(run(_fused_hlinear, leaves) * weights), store)
        want = ad.grad(lambda leaves: ad.sum(run(_composite_hlinear, leaves) * weights), store)
        leaves = store.tensors()
        np.testing.assert_array_equal(
            run(_fused_hlinear, leaves).value.view(np.int64), fused.view(np.int64)
        )
        for n in names:
            scale = np.max(np.abs(want[n]))
            assert np.max(np.abs(got[n] - want[n])) <= 1e-12 * scale, n

    def test_fused_op_records_one_node_after_the_activation(self, rng):
        p = layers.init_hlinear(rng, 3, 4)
        x = ad.Tensor(lmath.embed(rng.standard_normal((6, 3)), -1.0))
        leaves = [ad.Tensor(a) for a in (p.weight, p.gate_vec, p.bias)]
        out = _fused_hlinear(x, *leaves, 0.0, 0.0, -1.0)
        assert out.op == "hlinear"
        assert all(parent.op == "leaf" for parent in out.parents)


def _per_kernel_aggregate(feats, params, kernel_rows, kappa, drop_mask=None):
    # the kernel aggregation as the chain of per-kernel tape nodes it fuses;
    # kernel k takes slice k of every stacked parameter and of the mask
    aggregate = None
    for k in range(len(kernel_rows)):
        mask = None if drop_mask is None else drop_mask[:, k]
        transformed = _fused_hlinear(feats, *(f[k] for f in params), kappa, mask)
        nu = lmath.dist(feats, kernel_rows[k], kappa)
        term = layers._as_column(nu) * transformed
        aggregate = term if aggregate is None else aggregate + term
    return aggregate


def _kernel_aggregate(feats, params, kernel_rows, kappa, drop_mask=None):
    # the kernel aggregation as one full-height tape node over all K
    # kernels: per-kernel output rows kept, one product per adjoint
    K = len(kernel_rows)
    masks = [None if drop_mask is None else drop_mask[:, k] for k in range(K)]
    inputs = (feats, *params)

    def forward(x, *values):
        aggregate = None
        kept = []
        for k in range(K):
            spatial, gated = _gated_forward(x, *(f[k] for f in values), kappa, masks[k])
            out = np.concatenate([gated[-1], spatial], axis=-1)
            nu, z = lmath._dist(x, kernel_rows[k], kappa)
            term = nu.reshape(nu.shape + (1,)) * out
            if aggregate is None:
                aggregate = term
            else:
                aggregate += term
            kept.append((out, gated, nu, z))
        return aggregate, (x, values, kept)

    def backward(g, saved, needs):
        x, values, kept = saved
        E, D = g.shape[0], g.shape[1] - 1
        block = np.empty((E, K * (D + 3)))
        g_logits, g_acosh, g_scales = (block[:, K * (D + j) : K * (D + j + 1)] for j in range(3))
        for k, (out, gated, nu, z) in enumerate(kept):
            g_u, g_logit, g_gate = _gated_backward(g * nu[:, None], *gated, masks[k])
            block[:, k * D : (k + 1) * D] = g_u
            g_logits[:, k] = g_logit[:, 0]
            g_scales[:, k] = (g_gate * gated[2])[:, 0]
            g_acosh[:, k] = lmath._acosh_adjoint(np.einsum("ij,ij->i", g, out), z, kappa)
        g_x = None
        if needs[0]:
            metric = lmath.metric_row(kernel_rows.shape[1] - 1)
            weight, gate_vec = values[:2]
            rows = np.concatenate([weight.reshape(K * D, -1), gate_vec, kernel_rows * metric])
            g_x = block[:, : K * (D + 2)] @ rows
        # summed over the node's tiles, one product per tile and kernel, as
        # the node sums them
        g_params = np.zeros((K * (D + 1), x.shape[1]))
        kernel_cols = [slice(k * D, (k + 1) * D) for k in range(K)] + [slice(K * D, K * (D + 1))]
        for rows in layers._tiles(E):
            for cols in kernel_cols:
                g_params[cols] += block[rows, cols].T @ x[rows]
        sums = block[:, : K * (D + 1)].sum(axis=0)
        return (
            g_x,
            g_params[: K * D].reshape(K, D, -1),
            g_params[K * D :],
            sums[: K * D].reshape(K, D),
            sums[K * D :],
            g_scales.sum(axis=0),
        )

    return ad._lift("kernel_aggregate", inputs, forward, backward)


def _chain_edge_points(center_rows, neighbor_rows, params, kernel_rows, kappa, drop_mask=None):
    # the per-edge points as three full-height tape nodes: recentering,
    # kernel aggregation, normalization
    feats = lmath.ominus(neighbor_rows, center_rows, kappa)
    aggregate = _kernel_aggregate(feats, params, kernel_rows, kappa, drop_mask)
    return lmath.normalize_timelike(aggregate, kappa)


def _aggregation_inputs(rng, K, width, out_dim=16, edges=40, kappa=-0.7):
    """Root rows, neighbor rows, kernel rows and a conv layer's random
    parameters in PARAM_NAMES order, each stacked over the K kernels
    (drawn kernel after kernel)."""
    centers = lmath.embed(0.7 * rng.standard_normal((edges, width - 1)), kappa)
    neighbors = lmath.embed(0.7 * rng.standard_normal((edges, width - 1)), kappa)
    kernel_rows = lmath.embed(0.5 * rng.standard_normal((K, width - 1)), kappa)
    drawn = [
        (
            rng.uniform(-0.5, 0.5, size=(out_dim, width)),
            0.3 * rng.standard_normal(width),
            0.3 * rng.standard_normal(out_dim),
            rng.normal(0.0, 0.3),
            rng.normal(0.0, 0.3),
        )
        for _ in range(K)
    ]
    return centers, neighbors, kernel_rows, tuple(np.stack(f) for f in zip(*drawn))


def _drop_mask(rng, K, edges, out_dim=16, keep=0.7):
    """An (edges, K, out_dim) mask, drawn kernel after kernel."""
    return np.stack([(rng.random((edges, out_dim)) < keep) / keep for _ in range(K)], axis=1)


def _per_kernel(grads):
    """Every adjoint by (kernel, leaf): a stacked parameter's slice k under
    (k, name), any other leaf whole under (path, path)."""
    out = {}
    for path, g in grads.items():
        if path in layers.PARAM_NAMES:
            out.update({(k, path): g[k] for k in range(len(g))})
        else:
            out[path, path] = g
    return out


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def _assert_near(got, want, bound):
    """got within bound times want's largest entry, the rounding the stacked
    edge node may add against the per-kernel chain it re-associates."""
    assert got.shape == want.shape
    scale = np.max(np.abs(want))
    assert scale > 0
    assert np.max(np.abs(got - want)) <= bound * scale


FORWARD_BOUND, ADJOINT_BOUND = 1e-14, 1e-12


def _edge_gradients(fn, centers, neighbors, kernel_rows, params, kappa, mask, recorded, rng):
    """(output values, gradients of every leaf) of a weighted sum of fn's
    rows; recorded makes the root and neighbor rows leaves too."""
    weights = rng.standard_normal((len(centers), params[0].shape[1] + 1))
    return _weighted_gradients(
        fn, centers, neighbors, kernel_rows, params, kappa, mask, recorded, weights
    )


def _weighted_gradients(fn, centers, neighbors, kernel_rows, params, kappa, mask, recorded, weights):
    store = ad.ParamStore()
    if recorded:
        store.add("centers", centers)
        store.add("neighbors", neighbors)
    for name, value in zip(layers.PARAM_NAMES, params):
        store.add(name, value)
    values = {}

    def loss(leaves):
        rows = (leaves["centers"], leaves["neighbors"]) if recorded else (centers, neighbors)
        stacked = tuple(leaves[name] for name in layers.PARAM_NAMES)
        out = fn(*rows, stacked, kernel_rows, kappa, mask)
        values["out"] = out.value
        return ad.sum(out * weights)

    return values, ad.grad(loss, store)


def _assert_matches_the_chain(
    centers, neighbors, kernel_rows, params, kappa, mask, recorded, per_kernel=False, weights=None
):
    """The stacked node's output and every kernel's adjoint of every leaf
    against the chain, within FORWARD_BOUND and ADJOINT_BOUND of the
    largest entry of that kernel's slice of the leaf, or with per_kernel of
    the largest adjoint entry of the kernel. weights, the output rows'
    adjoint, defaults to a standard normal draw."""
    fixed = (centers, neighbors, params, kernel_rows, kappa, mask)
    _assert_near(layers._edge_points(*fixed), _chain_edge_points(*fixed), FORWARD_BOUND)
    args = (centers, neighbors, kernel_rows, params, kappa, mask, recorded)
    if weights is None:
        weights = np.random.default_rng(1).standard_normal((len(centers), params[0].shape[1] + 1))
    got_out, got = _weighted_gradients(layers._edge_points, *args, weights)
    want_out, want = _weighted_gradients(_chain_edge_points, *args, weights)
    _assert_near(got_out["out"], want_out["out"], FORWARD_BOUND)
    assert set(got) == set(want)
    got, want = _per_kernel(got), _per_kernel(want)

    def group(key):
        return key[0] if per_kernel else key

    for key in want:
        scale = max(np.max(np.abs(want[p])) for p in want if group(p) == group(key))
        assert np.max(np.abs(got[key] - want[key])) <= ADJOINT_BOUND * scale, key


T = layers.TILE_ROWS


class TestKernelAggregate:
    """layers._edge_points, one tile-local node that stacks the K kernels,
    against the three full-height nodes it replaces (ominus, kernel
    aggregation and normalize_timelike), which are checked against the
    per-kernel chain. The stacked node re-associates the chain's sums, so
    it agrees with it to FORWARD_BOUND and ADJOINT_BOUND of the largest
    entry; a row's bits depend on that row alone."""

    kappa = -0.7

    @pytest.mark.parametrize("K", (2, 4, 8, 9))
    @pytest.mark.parametrize("width", (5, 10, 17))
    def test_forward_is_bit_identical_to_the_chain(self, rng, K, width):
        # widths: the first layers of both benchmark workloads and the hidden
        # layer; the node within FORWARD_BOUND of the chain, the full-height
        # oracle bit for bit the per-kernel chain
        centers, neighbors, kernel_rows, params = _aggregation_inputs(rng, K, width)
        feats = lmath.ominus(neighbors, centers, self.kappa)
        for drop in (None, _drop_mask(rng, K, len(centers))):
            got = layers._edge_points(centers, neighbors, params, kernel_rows, self.kappa, drop)
            want = _chain_edge_points(centers, neighbors, params, kernel_rows, self.kappa, drop)
            _assert_near(got, want, FORWARD_BOUND)
            _assert_same_bits(
                _kernel_aggregate(feats, params, kernel_rows, self.kappa, drop),
                _per_kernel_aggregate(feats, params, kernel_rows, self.kappa, drop),
            )

    @pytest.mark.parametrize("recorded_input", (False, True))
    @pytest.mark.parametrize("masked", (False, True))
    def test_adjoints_match_the_chain(self, rng, recorded_input, masked):
        # a constant input is the first conv layer's, a recorded one a later layer's
        K, width = 3, 10
        centers, neighbors, kernel_rows, params = _aggregation_inputs(rng, K, width)
        mask = _drop_mask(rng, K, len(centers)) if masked else None
        args = (centers, neighbors, kernel_rows, params, self.kappa, mask, recorded_input)
        got = _per_kernel(_edge_gradients(layers._edge_points, *args, np.random.default_rng(1))[1])
        want = _per_kernel(_edge_gradients(_chain_edge_points, *args, np.random.default_rng(1))[1])
        for key in want:
            _assert_near(got[key], want[key], ADJOINT_BOUND)

        # the full-height oracle against the per-kernel chain it fuses
        feats = lmath.ominus(neighbors, centers, self.kappa)
        store = ad.ParamStore()
        if recorded_input:
            store.add("feats", feats)
        for name, value in zip(layers.PARAM_NAMES, params):
            store.add(name, value)
        weights = rng.standard_normal((len(feats), 17))

        def loss(fn):
            def run(leaves):
                x = leaves["feats"] if recorded_input else feats
                stacked = tuple(leaves[name] for name in layers.PARAM_NAMES)
                return ad.sum(fn(x, stacked, kernel_rows, self.kappa, mask) * weights)

            return run

        got = _per_kernel(ad.grad(loss(_kernel_aggregate), store))
        want = _per_kernel(ad.grad(loss(_per_kernel_aggregate), store))
        assert len(want) == 5 * K + recorded_input
        for key in want:
            scale = np.max(np.abs(want[key]))
            assert np.max(np.abs(got[key] - want[key])) <= 1e-12 * scale, key

    @pytest.mark.parametrize("recorded", (False, True))
    @pytest.mark.parametrize("masked", (False, True))
    @pytest.mark.parametrize("K", (2, 9))
    @pytest.mark.parametrize("edges", (1, T - 1, T, T + 1, 3 * T + 37))
    def test_tiles_are_bit_identical_to_the_chain(self, rng, edges, K, masked, recorded):
        # less than a tile, a full one, one row past it, several uneven ones
        centers, neighbors, kernel_rows, params = _aggregation_inputs(rng, K, 10, edges=edges)
        mask = _drop_mask(rng, K, edges) if masked else None
        _assert_matches_the_chain(centers, neighbors, kernel_rows, params, self.kappa, mask, recorded)

    @pytest.mark.parametrize("masked", (False, True))
    @pytest.mark.parametrize("K", (2, 8, 9))
    def test_rows_keep_their_bits_in_any_tile_composition(self, rng, K, masked):
        # 300 rows run alone (one tile) and scattered through a shuffled
        # superset of 2,548 rows (three tiles): each row's output and its
        # root and neighbor adjoints keep their bits
        rows, total = 300, 2 * T + 500
        centers, neighbors, kernel_rows, params = _aggregation_inputs(rng, K, 10, edges=total)
        mask = _drop_mask(rng, K, total) if masked else None
        weights = rng.standard_normal((total, 17))
        spots = rng.permutation(total)[:rows]

        def run(pick):
            def take(a):
                return None if a is None else a[pick]

            return _weighted_gradients(
                layers._edge_points, take(centers), take(neighbors), kernel_rows, params,
                self.kappa, take(mask), True, take(weights),
            )

        alone_out, alone = run(spots)
        order = rng.permutation(total)
        mixed_out, mixed = run(order)
        at = np.argsort(order)[spots]
        _assert_same_bits(mixed_out["out"][at], alone_out["out"])
        for path in ("centers", "neighbors"):
            _assert_same_bits(mixed[path][at], alone[path])

    @pytest.mark.parametrize("width", (4, 16))
    @pytest.mark.parametrize("classes", (2, 3, 5, 7, 8))
    def test_head_rows_keep_their_bits_at_every_height(self, rng, width, classes):
        # the rule the restricted node-task evaluate rests on: the head's
        # (units, width+1) @ (width+1, classes) product in lmath.cross_dist
        # is not widened, and with fewer than 8 columns its kernels are the
        # ragged ones, yet a row keeps its bits at every height from 2 up
        rows = lmath.embed(0.5 * rng.standard_normal((3000, width)), self.kappa)
        bank = lmath.embed(0.1 * rng.standard_normal((classes, width)), self.kappa)
        full = lmath.cross_dist(rows, bank, self.kappa)
        for height in (*range(2, 300), *range(300, 3000, 97)):
            _assert_same_bits(lmath.cross_dist(rows[:height], bank, self.kappa), full[:height])

    def test_blas_adds_each_product_output_over_the_rows_in_order(self, rng):
        # the rule the live-row backward rests on: a weight or bias product
        # A[:, cols].T @ x over only the rows where A is nonzero has the bits
        # of the full-height one, as do the column sums of the gate terms
        D = 16
        for height in range(2, T + 1):
            K, width = int(rng.integers(2, 9)), (11, 18)[height % 2]
            block = rng.standard_normal((height, K * (D + 2)))
            x = rng.standard_normal((height, width))
            live = rng.random(height) < rng.random()
            live[rng.integers(height)] = True
            block[~live] = np.where(rng.random((1, block.shape[1])) < 0.5, 0.0, -0.0)
            cols = [slice(k * D, (k + 1) * D) for k in range(K)] + [slice(K * D, K * (D + 1))]
            for c in cols:
                _assert_same_bits(block[live][:, c].T @ x[live], block[:, c].T @ x)
            gates = block[:, K * D : K * (D + 1)]
            _assert_same_bits(gates[live].sum(axis=0), gates.sum(axis=0))

    @staticmethod
    def _live_rows(rng, total):
        """A live-row mask over _tiles(total): a random subset of the first
        tile, none of the second, all of the third, one row of the last."""
        tiles = layers._tiles(total)
        assert len(tiles) == 4
        live = np.zeros(total, dtype=bool)
        live[tiles[0]] = rng.random(tiles[0].stop) < 0.5
        live[tiles[2]] = True
        live[tiles[3].start + 5] = True
        return tiles, live

    @pytest.mark.parametrize("recorded", (False, True))
    @pytest.mark.parametrize("masked", (False, True))
    def test_backward_runs_only_the_live_rows(self, rng, monkeypatch, masked, recorded):
        K, total = 3, 3 * T + 37
        centers, neighbors, kernel_rows, params = _aggregation_inputs(rng, K, 10, edges=total)
        mask = _drop_mask(rng, K, total) if masked else None
        tiles, live = self._live_rows(rng, total)
        weights = rng.standard_normal((total, 17))
        dead = weights.copy()
        # an output adjoint of -0.0 is dead too
        dead[~live] = np.where(rng.random((np.sum(~live), 1)) < 0.5, 0.0, -0.0)
        _assert_matches_the_chain(
            centers, neighbors, kernel_rows, params, self.kappa, mask, recorded, True, dead
        )

        args = (centers, neighbors, kernel_rows, params, self.kappa, mask, recorded)
        _, got = _weighted_gradients(layers._edge_points, *args, dead)
        _, every = _weighted_gradients(layers._edge_points, *args, weights)
        if recorded:
            for path in ("centers", "neighbors"):
                # +0.0 on the dead rows; a live row's bits are those it has
                # when every row is live, the lone live row's included
                _assert_same_bits(got[path][~live], np.zeros_like(got[path][~live]))
                _assert_same_bits(got[path][live], every[path][live])

        # the per-row work sees only the live rows
        rows = (ad.Tensor(centers), ad.Tensor(neighbors)) if recorded else (centers, neighbors)
        out = layers._edge_points(*rows, tuple(ad.Tensor(v) for v in params), kernel_rows,
                                  self.kappa, mask)
        seen = []
        boosted = lmath._boosted

        def spy(u, *rest):
            seen.append(len(u))
            return boosted(u, *rest)

        monkeypatch.setattr(lmath, "_boosted", spy)
        ad.Tape(ad.sum(out * dead)).gradients()
        assert seen == [np.sum(live[rows]) for rows in tiles if live[rows].any()]
        assert seen[1:] == [tiles[2].stop - tiles[2].start, 1]

    @pytest.mark.parametrize("masked", (False, True))
    def test_dead_rows_add_no_bit_to_the_parameter_adjoints(self, rng, masked):
        # one tile: the node with zero adjoints on its dead rows gives every
        # leaf the bits of the node run on its live rows alone
        K, total = 4, T - 3
        centers, neighbors, kernel_rows, params = _aggregation_inputs(rng, K, 10, edges=total)
        mask = _drop_mask(rng, K, total) if masked else None
        live = rng.random(total) < 0.4
        weights = rng.standard_normal((total, 17))
        weights[~live] = 0.0

        def run(pick):
            return _weighted_gradients(
                layers._edge_points, centers[pick], neighbors[pick], kernel_rows, params,
                self.kappa, None if mask is None else mask[pick], True, weights[pick],
            )[1]

        got, alone = run(np.arange(total)), run(live)
        for path in layers.PARAM_NAMES:
            _assert_same_bits(got[path], alone[path])
        for path in ("centers", "neighbors"):
            _assert_same_bits(got[path][live], alone[path])

    @pytest.mark.parametrize("recorded", (False, True))
    def test_an_all_zero_adjoint_gives_zero_gradients(self, rng, recorded):
        centers, neighbors, kernel_rows, params = _aggregation_inputs(rng, 3, 10, edges=T + 9)
        weights = np.zeros((len(centers), 17))
        args = (centers, neighbors, kernel_rows, params, self.kappa, None, recorded)
        _, grads = _weighted_gradients(layers._edge_points, *args, weights)
        assert len(grads) == 5 + 2 * recorded
        for g in grads.values():
            _assert_same_bits(g, np.zeros_like(g))

    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(
        K=st.integers(2, 9),
        width=st.sampled_from((5, 10, 17)),
        edges=st.sampled_from((2, T - 1, T + 1, 2 * T + 5)),
        masked=st.booleans(),
        recorded=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_stacked_node_agrees_with_the_chain(self, K, width, edges, masked, recorded, seed):
        # a kernel's scalar leaves sum thousands of per-row terms and can
        # cancel far below them (a gate bias of 8e-4 beside its kernel's
        # adjoints near 1), so each leaf is held to its kernel's scale
        rng = np.random.default_rng(seed)
        centers, neighbors, kernel_rows, params = _aggregation_inputs(rng, K, width, edges=edges)
        mask = _drop_mask(rng, K, edges) if masked else None
        _assert_matches_the_chain(
            centers, neighbors, kernel_rows, params, self.kappa, mask, recorded, True
        )

    def test_constant_rows_keep_no_state_for_their_adjoint(self, rng):
        # the first conv layer's node (constant root and neighbor rows) keeps
        # neither the K kernels' acosh arguments nor the boost's a and shift
        K, edges = 4, 3000
        centers, neighbors, kernel_rows, params = _aggregation_inputs(rng, K, 10, edges=edges)
        held = {}
        for recorded in (False, True):
            rows = (ad.Tensor(centers), ad.Tensor(neighbors)) if recorded else (centers, neighbors)
            leaves = tuple(ad.Tensor(v) for v in params)
            tracemalloc.start()
            try:
                out = layers._edge_points(*rows, leaves, kernel_rows, self.kappa)
                held[recorded] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert isinstance(out, ad.Tensor)
        assert held[True] - held[False] >= (K + 2) * edges * 8

    @pytest.mark.parametrize("kappa", (-1.0, -0.7, -2.5))
    @pytest.mark.parametrize("width, out_dim", ((4, 5), (10, 16), (17, 16)))
    def test_one_kernel_at_the_origin_is_the_typed_transform(self, rng, kappa, width, out_dim):
        # roots at the origin leave the neighbors where they are, and one
        # kernel away from them scales every point by a positive distance
        # that the normalization removes: the node runs hlinear_core's map
        _, rows, _, params = _aggregation_inputs(rng, 1, width, out_dim, 50, kappa)
        origin = np.repeat(lmath.origin_row(width - 1, kappa)[None, :], len(rows), axis=0)
        kernel = lmath.embed(np.full((1, width - 1), 3.0), kappa)
        got = layers._edge_points(origin, rows, params, kernel, kappa)
        _assert_near(got, layers.hlinear_core(rows, *(f[0] for f in params), kappa), FORWARD_BOUND)

    def test_vanishing_prenorm_vector_of_one_kernel_is_degenerate(self, rng):
        centers, neighbors, kernel_rows, params = _aggregation_inputs(rng, 3, 5)
        feats = lmath.ominus(neighbors, centers, self.kappa)
        weight = np.ones((16, 5))
        # the second kernel's bias cancels its affine map at the first row
        for field, value in zip(params, (weight, np.zeros(5), -(weight @ feats[0]), 0.0, 0.0)):
            field[1] = value
        with pytest.raises(DegenerateGeometryError, match="kernel 1"):
            layers._edge_points(centers, neighbors, params, kernel_rows, self.kappa)
        store = ad.ParamStore()
        store.add("centers", centers)
        with pytest.raises(DegenerateGeometryError, match="kernel 1"):
            layers._edge_points(
                store.tensors()["centers"], neighbors, params, kernel_rows, self.kappa
            )


class TestHCent:
    def test_matches_naive_weighted_sum(self, cfg3, rng):
        pts = [manifold.random_point(rng, cfg3) for _ in range(6)]
        w = rng.uniform(0.1, 2.0, size=6)
        got = layers.hcent(pts, layers.WeightVector(w))
        s = (w[:, None] * np.stack([p.coords for p in pts])).sum(axis=0)
        want = s / _lorentz_norm_scale(s, cfg3.curvature)
        np.testing.assert_allclose(got.coords, want, rtol=1e-12, atol=1e-14)
        inner = lmath._inner(got.coords, got.coords)
        assert abs(inner - 1.0 / cfg3.curvature) <= 1e-9

    def test_weight_scale_invariance(self, cfg3, rng):
        pts = [manifold.random_point(rng, cfg3) for _ in range(5)]
        w = rng.uniform(0.2, 1.5, size=5)
        base = layers.hcent(pts, layers.WeightVector(w))
        for c in (1e-3, 7.0, 1e4):
            scaled = layers.hcent(pts, layers.WeightVector(c * w))
            np.testing.assert_allclose(scaled.coords, base.coords, rtol=1e-12, atol=1e-14)

    def test_singleton_centroid_is_the_point(self, cfg3, rng):
        x = manifold.random_point(rng, cfg3)
        out = layers.hcent([x], layers.WeightVector(np.array([2.5])))
        np.testing.assert_allclose(out.coords, x.coords, rtol=1e-12, atol=1e-14)

    def test_summation_order_is_value_canonical(self, cfg3, rng):
        # hcent adds its (weight, point) rows in byte order, so reordering
        # the inputs, a repeated point with two weights included, changes
        # no bit
        pts = [manifold.random_point(rng, cfg3) for _ in range(6)]
        pts.append(pts[2])
        w = rng.uniform(0.1, 1.0, size=7)
        base = layers.hcent(pts, layers.WeightVector(w))
        for _ in range(5):
            p = rng.permutation(7)
            shuffled = layers.hcent(
                [pts[i] for i in p], layers.WeightVector(w[p])
            )
            np.testing.assert_array_equal(shuffled.coords, base.coords)

    def test_validation(self, cfg3, rng):
        pts = [manifold.random_point(rng, cfg3) for _ in range(3)]
        with pytest.raises(ParameterError):
            layers.hcent([], layers.WeightVector(np.ones(1)))
        with pytest.raises(DimensionError):
            layers.hcent(pts, layers.WeightVector(np.ones(2)))
        with pytest.raises(ParameterError):
            layers.WeightVector(np.array([1.0, -0.5]))
        with pytest.raises(ParameterError):
            layers.WeightVector(np.zeros(3))


class TestHCDist:
    def test_matches_pairwise_distance_oracle(self, cfg3, rng):
        for _ in range(100):
            x = manifold.random_point(rng, cfg3)
            cents = [manifold.random_point(rng, cfg3) for _ in range(4)]
            got = layers.hcdist(x, layers.CentroidBank(tuple(cents)))
            want = np.array([manifold.distance(x, c) for c in cents])
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_dimension_mismatch(self, cfg2, cfg3, rng):
        bank = layers.CentroidBank((manifold.random_point(rng, cfg2),))
        with pytest.raises(DimensionError):
            layers.hcdist(manifold.random_point(rng, cfg3), bank)


def _typed_attention(root, nbrs):
    # oracle: the softmax of -d^2 / sqrt(n) over one neighborhood, from
    # the validated scalar distance
    d = np.array([manifold.distance(root, nb) for nb in nbrs])
    logits = -(d**2) / np.sqrt(float(root.cfg.dim))
    w = np.exp(logits - logits.max())
    return w / w.sum()


class TestAttentionWeights:
    def _neighborhoods(self, rng, cfg, sizes):
        roots = [manifold.random_point(rng, cfg) for _ in sizes]
        nbrs = [[manifold.random_point(rng, cfg) for _ in range(n)] for n in sizes]
        segments = np.repeat(np.arange(len(sizes)), sizes)
        centers = np.stack([roots[s].coords for s in segments])
        flat = np.stack([nb.coords for group in nbrs for nb in group])
        return roots, nbrs, segments, centers, flat

    def test_rows_are_softmax_of_negative_squared_distance(self, cfg3, rng):
        sizes = (4, 1, 6, 2)
        roots, nbrs, segments, centers, flat = self._neighborhoods(rng, cfg3, sizes)
        d = lmath.dist(centers, flat, cfg3.curvature)
        w = layers.attention_weights(d, cfg3.dim, sizes)
        assert w.shape == (sum(sizes),)
        assert np.all(w >= 0)
        np.testing.assert_allclose(np.bincount(segments, weights=w), 1.0, rtol=1e-12)
        want = np.concatenate([_typed_attention(r, group) for r, group in zip(roots, nbrs)])
        np.testing.assert_allclose(w, want, rtol=1e-10, atol=1e-12)
        assert w[segments == 1][0] == 1.0  # a lone neighbor takes all the weight

    def test_edge_relabeling_permutes_weights_bitwise(self, cfg3, rng):
        # attention_weights adds each segment's exponentials in the order
        # given; grouped by segment and put in the byte order of their
        # (root, neighbor) rows, relabeled edges get their weights bit for bit
        sizes = (3, 1, 5)
        _, _, segments, centers, flat = self._neighborhoods(rng, cfg3, sizes)

        def weights(segments, centers, flat):
            ranks = lo._row_classes(np.hstack([centers, flat]).view(np.uint64))[0]
            order = np.lexsort((ranks, segments))
            d = lmath.dist(centers[order], flat[order], cfg3.curvature)
            w = np.empty(segments.size)
            w[order] = layers.attention_weights(d, cfg3.dim, sizes)
            return w

        base = weights(segments, centers, flat)
        for _ in range(4):
            perm = rng.permutation(segments.size)
            out = weights(segments[perm], centers[perm], flat[perm])
            np.testing.assert_array_equal(out.view(np.int64), base[perm].view(np.int64))


class TestHKConv:
    def _params(self, rng, cfg, K=3, out_dim=3, **kw):
        kernels = _fixed_kernels(rng, K, cfg)
        return layers.init_hkconv(rng, kernels, out_dim, **kw)

    def test_matches_naive_per_neighbor_oracle(self, cfg3, rng):
        p = self._params(rng, cfg3, K=4, out_dim=5)
        x = manifold.random_point(rng, cfg3)
        nbrs = [manifold.random_point(rng, cfg3) for _ in range(6)]
        got = layers.hkconv(x, nbrs, p)

        per_edge = []
        for nb in nbrs:
            feat = manifold.ominus(nb, x)
            agg = np.zeros(6)
            for k, sub in enumerate(p.sublayers):
                moved = _naive_hlinear(feat.coords, sub, cfg3.curvature)
                nu = manifold.distance(feat, p.kernels.points[k])
                agg = agg + nu * moved
            per_edge.append(agg / _lorentz_norm_scale(agg, cfg3.curvature))
        pooled = np.sum(per_edge, axis=0)
        want = pooled / _lorentz_norm_scale(pooled, cfg3.curvature)
        np.testing.assert_allclose(got.coords, want, rtol=1e-9, atol=1e-11)

    def test_output_is_on_manifold(self, cfg3, rng):
        for pooling in layers.POOLINGS:
            p = self._params(rng, cfg3, pooling_weights=pooling)
            x = manifold.random_point(rng, cfg3)
            nbrs = [manifold.random_point(rng, cfg3) for _ in range(4)]
            y = layers.hkconv(x, nbrs, p)
            inner = lmath._inner(y.coords, y.coords)
            assert abs(inner - 1.0 / cfg3.curvature) <= 1e-9
            assert y.coords[0] > 0

    def test_local_translation_invariance_in_relative_mode(self, cfg3, rng):
        # moving root and neighborhood together along the root geodesic
        # leaves the output unchanged
        p = self._params(rng, cfg3, K=4)
        x = manifold.random_point(rng, cfg3)
        nbrs = [manifold.random_point(rng, cfg3) for _ in range(5)]
        base = layers.hkconv(x, nbrs, p).coords
        o = manifold.origin(cfg3)
        vx = manifold.log_map(o, x)
        for t in (0.0, 0.37, 1.0):
            y = manifold.exp_map(manifold.TangentVector(o, t * vx.vec))
            moved_x = manifold.translate(x, y, x)
            moved_nbrs = [manifold.translate(x, y, nb) for nb in nbrs]
            out = layers.hkconv(moved_x, moved_nbrs, p).coords
            np.testing.assert_allclose(out, base, rtol=1e-6, atol=1e-8)

    def test_neighbor_order_is_bitwise_irrelevant(self, cfg3, rng):
        for pooling in layers.POOLINGS:
            p = self._params(rng, cfg3, pooling_weights=pooling)
            x = manifold.random_point(rng, cfg3)
            nbrs = [manifold.random_point(rng, cfg3) for _ in range(6)]
            base = layers.hkconv(x, nbrs, p)
            for _ in range(4):
                perm = rng.permutation(6)
                out = layers.hkconv(x, [nbrs[i] for i in perm], p)
                np.testing.assert_array_equal(out.coords, base.coords)

    def test_self_neighborhood_reduces_to_centroid_of_kernel_responses(self, cfg3, rng):
        # all neighbors equal to the root: features collapse to the origin,
        # so the layer is a centroid of the per-kernel responses at the
        # origin weighted by each kernel's distance from the origin
        p = self._params(rng, cfg3, K=4, out_dim=4)
        x = manifold.random_point(rng, cfg3)
        got = layers.hkconv(x, [x, x, x], p)

        o = manifold.origin(cfg3)
        responses = [layers.hlinear(o, sub) for sub in p.sublayers]
        weights = np.array(
            [manifold.distance(o, pt) for pt in p.kernels.points]
        )
        want = layers.hcent(responses, layers.WeightVector(weights))
        np.testing.assert_allclose(got.coords, want.coords, rtol=1e-7, atol=1e-8)

    def test_validation(self, cfg3, rng):
        p = self._params(rng, cfg3)
        x = manifold.random_point(rng, cfg3)
        nbrs = [manifold.random_point(rng, cfg3) for _ in range(3)]
        with pytest.raises(ParameterError):
            layers.hkconv(x, [], p)
        with pytest.raises(ParameterError):
            layers.HKConvParams(p.sublayers, p.kernels, pooling_weights="sideways")
        with pytest.raises(DimensionError):
            layers.hkconv_core(
                np.stack([x.coords] + [n.coords for n in nbrs[:2]]),
                np.zeros(2, dtype=np.int64),
                np.arange(1, 3),
                np.arange(2),
                [2],
                (),
                p.kernels.coords_array(),
                "uniform",
                cfg3.curvature,
            )

    def test_gradients_match_finite_differences_both_poolings(self, cfg3, rng):
        x = manifold.random_point(rng, cfg3)
        rows = np.stack([x.coords] + [manifold.random_point(rng, cfg3).coords for _ in range(4)])
        dst, src = np.zeros(4, dtype=np.int64), np.arange(1, 5)
        kernels = _fixed_kernels(rng, 3, cfg3).coords_array()
        for pooling in layers.POOLINGS:
            inits = [layers.init_hlinear(rng, 3, 3) for _ in range(3)]
            drawn = [
                (init.weight, rng.standard_normal(4) * 0.3, rng.standard_normal(3) * 0.3)
                for init in inits
            ]
            store = ad.ParamStore()
            for name, field in zip(layers.PARAM_NAMES, zip(*drawn)):
                store.add(name, np.stack(field))

            def loss(leaves, pooling=pooling):
                params = (*(leaves[name] for name in layers.PARAM_NAMES[:3]), np.zeros(3), np.zeros(3))
                out = layers.hkconv_core(
                    rows, dst, src, np.arange(4), [4], params, kernels, pooling, cfg3.curvature,
                )
                d = lmath.dist(out, lmath.origin_row(3, cfg3.curvature), cfg3.curvature)
                return ad.sum(d * d)

            report = ad.finite_diff_check(loss, store)
            assert max(report.values()) <= 1e-4


def _per_edge_core(rows, roots, neighbors, counts, params, kernel_rows, pooling, kappa):
    # hkconv_core with every edge's points computed from its own gathered rows
    centers, neighbor_rows = ad.take(rows, roots), ad.take(rows, neighbors)
    per_edge = layers._edge_points(centers, neighbor_rows, params, kernel_rows, kappa)
    w = None
    if pooling == "attention":
        d = lmath.dist(centers, neighbor_rows, kappa)
        dim = ad.value_of(rows).shape[-1] - 1
        w = layers.attention_weights(d, dim, counts)
    return layers.hcent_core(per_edge, w, counts, kappa)


def _pair_core(rows, roots, neighbors, counts, *fixed):
    # hkconv_core on the distinct row pairs layout._pairs lists
    pairs = lo._pairs(roots, neighbors, len(ad.value_of(rows)))
    return layers.hkconv_core(rows, *pairs, counts, *fixed)


class TestDistinctRowPairs:
    """hkconv_core on layout._pairs' layout runs _edge_points once per
    distinct (root id, neighbor id) pair and gathers its rows back to the
    edges; every edge keeps the bits of its own per-edge row, and rows
    are never merged by value."""

    kappa = -0.7
    nodes = 40
    segments = 30

    def _graph(self, rng, case):
        # one to six edges per segment; roots and neighbors drawn with
        # replacement from a few ids, as the edges of class representatives
        # are, except in the all-distinct case
        counts = rng.integers(1, 7, size=self.segments)
        segments = np.repeat(np.arange(self.segments), counts)
        if case == "distinct":
            roots = segments.copy()
            neighbors = np.concatenate(
                [rng.choice(self.nodes, c, replace=False) for c in counts]
            )
        else:
            roots = rng.integers(0, 4, size=self.segments)[segments]
            neighbors = rng.integers(0, 6, size=segments.size)
        return roots, neighbors, counts

    def _rows(self, rng, case, dim=5):
        if case == "distinct":
            feats = 0.5 * rng.standard_normal((self.nodes, dim))
        elif case == "identical":
            feats = np.full((self.nodes, dim), 0.3)
        else:
            # one-hot rows over three categories, as in the benchmark suites
            feats = 0.8 * np.eye(dim)[rng.integers(0, 3, size=self.nodes)]
            if case == "signed_zero":
                # every other row's zeros negated: equal values, other bytes
                half = feats[::2]
                half[half == 0] = -0.0
        return lmath.embed(feats, self.kappa)

    @staticmethod
    def _spy_rows(monkeypatch):
        """The row count of every later _edge_points call."""
        seen = []
        inner = layers._edge_points

        def spy(center_rows, *args):
            seen.append(len(ad.value_of(center_rows)))
            return inner(center_rows, *args)

        monkeypatch.setattr(layers, "_edge_points", spy)
        return seen

    @pytest.mark.parametrize("pooling", layers.POOLINGS)
    @pytest.mark.parametrize("case", ("repeated", "distinct", "identical", "signed_zero"))
    def test_constant_rows_match_per_edge_rows_bitwise(self, rng, monkeypatch, case, pooling):
        kernel_rows, params = _aggregation_inputs(rng, 4, 6)[2:]
        rows = self._rows(rng, case)
        edges = self._graph(rng, case)
        fixed = (params, kernel_rows, pooling, self.kappa)
        want = _per_edge_core(rows, *edges, *fixed)
        pairs = set(zip(edges[0], edges[1]))
        if case == "signed_zero":
            signs = np.signbit(rows[rows == 0])
            assert signs.any() and not signs.all()
        seen = self._spy_rows(monkeypatch)
        _assert_same_bits(_pair_core(rows, *edges, *fixed), want)
        # one row per distinct id pair, whatever the rows hold, and never a
        # one-row node for two or more edges
        assert seen == [max(len(pairs), 2)]
        E = len(edges[0])
        assert len(pairs) == E if case == "distinct" else len(pairs) < E / 2

    @pytest.mark.parametrize("pooling", layers.POOLINGS)
    def test_a_lone_pair_runs_on_two_rows(self, rng, monkeypatch, pooling):
        # five edges of one (root, neighbor) pair in two segments: a one-row
        # node would take NumPy's matrix-vector path and round differently
        kernel_rows, params = _aggregation_inputs(rng, 4, 10)[2:]
        rows = lmath.embed(0.5 * rng.standard_normal((2, 9)), self.kappa)
        edges = (np.zeros(5, dtype=np.int64), np.ones(5, dtype=np.int64), np.array([2, 3]))
        fixed = (params, kernel_rows, pooling, self.kappa)
        want = _per_edge_core(rows, *edges, *fixed)
        seen = self._spy_rows(monkeypatch)
        _assert_same_bits(_pair_core(rows, *edges, *fixed), want)
        assert seen == [2]

    @pytest.mark.parametrize("pooling", layers.POOLINGS)
    def test_a_single_edge_runs_on_one_row(self, rng, monkeypatch, pooling):
        kernel_rows, params = _aggregation_inputs(rng, 4, 10)[2:]
        rows = lmath.embed(0.5 * rng.standard_normal((2, 9)), self.kappa)
        edges = (np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64), np.array([1]))
        fixed = (params, kernel_rows, pooling, self.kappa)
        want = _per_edge_core(rows, *edges, *fixed)
        seen = self._spy_rows(monkeypatch)
        _assert_same_bits(_pair_core(rows, *edges, *fixed), want)
        assert seen == [1]

    def test_ascending_distinct_edges_keep_their_order(self, rng):
        # dropout masks are drawn per edge in this order, and each pair row
        # takes the mask row of its own index
        keys = np.sort(rng.choice(self.nodes**2, size=50, replace=False))
        roots, neighbors = np.divmod(keys, self.nodes)
        pair_roots, pair_neighbors, edges = lo._pairs(roots, neighbors, self.nodes)
        np.testing.assert_array_equal(pair_roots, roots)
        np.testing.assert_array_equal(pair_neighbors, neighbors)
        np.testing.assert_array_equal(edges, np.arange(50))

    @pytest.mark.parametrize("pooling", layers.POOLINGS)
    def test_gradients_through_merged_rows(self, rng, pooling):
        # the rows are a tensor here (embedded leaves), as in every conv
        # layer after the first: merged pairs are one function of them
        K = 3
        kernel_rows, params = _aggregation_inputs(rng, K, 6, out_dim=4)[2:]
        edges = self._graph(rng, "repeated")
        assert len(set(zip(edges[0], edges[1]))) < len(edges[0]) / 2
        store = ad.ParamStore()
        store.add("features", 0.5 * rng.standard_normal((self.nodes, 5)))
        for name, value in zip(layers.PARAM_NAMES, params):
            store.add(name, value)

        def loss(core):
            def run(leaves):
                stacked = tuple(leaves[name] for name in layers.PARAM_NAMES)
                rows = lmath.embed(leaves["features"], self.kappa)
                out = core(rows, *edges, stacked, kernel_rows, pooling, self.kappa)
                d = lmath.dist(out, lmath.origin_row(4, self.kappa), self.kappa)
                return ad.sum(d * d)

            return run

        report = ad.finite_diff_check(loss(_pair_core), store)
        assert len(report) == len(store.paths())
        assert max(report.values()) <= 1e-4
        # the per-pair adjoints, summed by the gather, differ from the
        # per-edge ones by rounding only
        got = _per_kernel(ad.grad(loss(_pair_core), store))
        want = _per_kernel(ad.grad(loss(_per_edge_core), store))
        for key in want:
            scale = np.max(np.abs(want[key]))
            assert np.max(np.abs(got[key] - want[key])) <= 1e-12 * scale, key
