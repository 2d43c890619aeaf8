"""Hyperbolic network layers on the Lorentz model.

The building blocks:

* feature transform: a gated linear map whose output is re-lifted onto the
  manifold by solving for the time coordinate (so no projection step and no
  tangent-space detour is needed); _gate_maps and _gates compute K of them
  at once for the conv layer's node, and one for hlinear_core. A conv
  layer holds each HLinearParams field stacked over its K kernels
  (PARAM_NAMES), for its node, an HKN's store and its checkpoints,
* weighted centroid: a Lorentz-norm normalized weighted sum, the
  aggregation used everywhere points must be combined,
* centroid-distance readout: distances to a bank of reference points,
* kernel-point convolution: each neighbor recentred at its root, then
  per-kernel feature transforms of it combined with kernel-proximity
  weights and normalized onto the manifold, then pooled over the
  neighborhood either uniformly or with distance-based attention. The
  recentering, the K transforms, the K kernel distances, their weighted
  sum and its normalization are one tape node per layer (_edge_points).
  It works on tiles of at most TILE_ROWS edges and stacks a tile's K
  kernels into one (rows, K, out_dim) array: one matrix product gives
  every kernel's affine map, gate logit and kernel inner product, and one
  contraction their weighted sum. It keeps, for the backward, only the
  stacked pre-normalization vectors and per-row scalars; the backward
  recomputes the rest tile by tile into a tile-sized adjoint block, which
  gives the recentred rows' adjoint in one product per tile, and the
  weights' and biases' adjoints in one small product per tile and kernel.
  hkconv_core runs that node on the (root, neighbor) row pairs its caller
  lists and gathers the points to the edges.

Each operation has one implementation, a batched core working on
coordinate rows (plain ndarrays or autodiff tensors; hlinear_core, which
the model never runs, plain ndarrays only), which the graph networks
drive directly. The typed functions (hlinear, hcent, hcdist, hkconv)
validate LorentzPoint inputs and run the same core on one point or one
neighborhood. The cores pool rows that arrive grouped by segment and
add each segment in the order given (autodiff.segment_sum), so the
caller fixes the summation order. The typed functions give the rows in
the order of their bytes (_byte_order), which no relabeling of the input
can change, so their results never depend on how the input happened to
be labeled; graphnet gives them in structural-class order (layout).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from . import lmath, manifold
from .errors import (
    DegenerateGeometryError,
    DimensionError,
    ParameterError,
)
from .kernelgen import KernelSet

POOLINGS = ("uniform", "attention")

# norm of the pre-normalization vector below which the gated map is undefined
_DEGENERATE_NORM = 1e-12

# most edge rows _edge_points works on at once; at hidden width 16 a tile's
# (rows x 17) float64 temporaries are then about 140 KB each, and its
# stacked (rows x K * 18) product about 1.2 MB at K = 8, which the node
# allocates once and reuses across its tiles
TILE_ROWS = 1024

# OpenBLAS computes a product's output columns in full vector lanes, by the
# same steps whatever the number of rows, when there are a multiple of 8 of
# them; a narrower remainder takes kernels whose rounding moves with the row
# count. _edge_points widens its tile products with zero columns to that
# multiple, so a row's bits do not depend on the tile it shares.
_LANES = 8


def _as_column(w):
    return ad.reshape(w, ad.value_of(w).shape + (1,))


@dataclass(frozen=True, eq=False)
class HLinearParams:
    """Parameters of the gated linear feature transform.

    weight     (out_dim, in_dim + 1), acts on the full coordinate vector
    gate_vec   (in_dim + 1,), direction of the scalar gate
    bias       (out_dim,)
    gate_bias  scalar offset of the gate
    log_scale  log of the positive gate amplitude

    The fields, in this order, are PARAM_NAMES; a conv layer stacks each
    over its K kernels.
    """

    weight: np.ndarray
    gate_vec: np.ndarray
    bias: np.ndarray
    gate_bias: float = 0.0
    log_scale: float = 0.0

    def __post_init__(self):
        weight = np.asarray(self.weight, dtype=np.float64)
        gate_vec = np.asarray(self.gate_vec, dtype=np.float64)
        bias = np.asarray(self.bias, dtype=np.float64)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "gate_vec", gate_vec)
        object.__setattr__(self, "bias", bias)
        if weight.ndim != 2:
            raise DimensionError("weight must be a matrix")
        if weight.shape[1] < 2 or weight.shape[0] < 1:
            raise DimensionError("weight must be (out_dim >= 1, in_dim + 1 >= 2)")
        if gate_vec.shape != (weight.shape[1],):
            raise DimensionError("gate_vec length must match weight columns")
        if bias.shape != (weight.shape[0],):
            raise DimensionError("bias length must match weight rows")
        if not np.any(weight):
            raise ParameterError("weight must not be all zero")

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1] - 1

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    def values(self) -> tuple:
        """The fields in PARAM_NAMES order, as hlinear_core takes them."""
        return tuple(getattr(self, name) for name in PARAM_NAMES)


# a conv layer's parameters, each stacked over its K kernels (weight (K,
# out_dim, in_dim+1), ..., log_scale (K,)): the tuple hkconv_core takes
# and the leaves layer{i}.<name> of an HKN parameter store
PARAM_NAMES = tuple(f.name for f in fields(HLinearParams))


def init_hlinear(rng: np.random.Generator, in_dim: int, out_dim: int) -> HLinearParams:
    """Uniform weight in +-(in_dim+1)^-0.5, zero biases, unit gate amplitude."""
    width = in_dim + 1
    bound = width**-0.5
    weight = rng.uniform(-bound, bound, size=(out_dim, width))
    if not np.any(weight):
        weight[0, 0] = bound
    return HLinearParams(
        weight=weight,
        gate_vec=np.zeros(width),
        bias=np.zeros(out_dim),
        gate_bias=0.0,
        log_scale=0.0,
    )


def hlinear_core(x, weight, gate_vec, bias, gate_bias, log_scale, kappa: float):
    """Batched gated linear transform on plain arrays, rows of x -> rows on
    L^out_dim; x may be (in_dim+1,) or (..., in_dim+1).

    The map is _edge_points' stacked transform with one kernel. Its spatial
    part gate * u / |u| has norm gate, so its time coordinate is
    sqrt(gate^2 - 1/kappa).
    """
    x = np.asarray(x, dtype=np.float64)
    D, W = np.shape(weight)
    rows = x.reshape(-1, x.shape[-1])
    lifted = _with_ones(len(rows), W)
    lifted[:, :W] = rows
    maps = _gate_maps(*(np.asarray(p)[None] for p in (weight, gate_vec, bias, gate_bias)))
    u, norm, gate, _ = _gates(lifted @ maps, 1, D, np.exp(log_scale))
    out = np.empty((len(lifted), D + 1))
    out[:, :1] = np.sqrt(gate * gate - 1.0 / kappa)
    out[:, 1:] = gate / norm * u[:, 0]
    return out.reshape(x.shape[:-1] + (D + 1,))


def hlinear(x: manifold.LorentzPoint, p: HLinearParams) -> manifold.LorentzPoint:
    """Typed single-point gated linear transform."""
    if x.cfg.dim != p.in_dim:
        raise DimensionError(f"point dim {x.cfg.dim} != layer in_dim {p.in_dim}")
    out = hlinear_core(x.coords[None, :], *p.values(), x.cfg.curvature)
    return manifold.LorentzPoint(np.asarray(out)[0], replace(x.cfg, dim=p.out_dim))


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Nonnegative aggregation weights with positive total mass."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size == 0:
            raise DimensionError("weights must be a nonempty vector")
        if np.any(values < 0):
            raise ParameterError("weights must be nonnegative")
        if np.sum(values) <= 0:
            raise ParameterError("weights must have positive sum")

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class CentroidBank:
    """Reference points for the distance readout head."""

    centroids: tuple

    def __post_init__(self):
        centroids = tuple(self.centroids)
        object.__setattr__(self, "centroids", centroids)
        if not centroids:
            raise ParameterError("centroid bank must be nonempty")
        cfg = centroids[0].cfg
        for c in centroids[1:]:
            if c.cfg.dim != cfg.dim or c.cfg.curvature != cfg.curvature:
                raise DimensionError("centroid config mismatch")

    @property
    def size(self) -> int:
        return len(self.centroids)

    @property
    def cfg(self) -> manifold.ManifoldConfig:
        return self.centroids[0].cfg

    def coords_array(self) -> np.ndarray:
        return np.stack([c.coords for c in self.centroids])


def _byte_order(rows: np.ndarray) -> np.ndarray:
    """Positions of float rows in the order of their bytes: the sequence
    of rows it gives is the same however the rows were ordered, since rows
    with equal bytes are interchangeable."""
    return np.lexsort(rows.view(np.uint64).T)


def hcent_core(points, weights, counts, kappa: float):
    """Weighted centroid of each segment of coordinate rows.

    points (N, dim+1), grouped by segment: segment i is the next
    counts[i] >= 1 rows; weights (N,), or None to weight every row
    equally. The weighted rows of a segment are added in the order given
    (ad.segment_sum), so the caller's row order fixes the bits; each sum is
    then normalized by the magnitude of its Lorentz norm to land back on
    the manifold. Returns (len(counts), dim+1).
    """
    if weights is not None:
        points = _as_column(weights) * points
    return lmath.normalize_timelike(ad.segment_sum(points, counts), kappa)


def hcent(points, nu: WeightVector) -> manifold.LorentzPoint:
    """Typed weighted centroid of a sequence of points."""
    points = list(points)
    if not points:
        raise ParameterError("centroid of an empty sequence")
    if len(points) != len(nu):
        raise DimensionError(f"{len(points)} points but {len(nu)} weights")
    cfg = points[0].cfg
    for p in points[1:]:
        if p.cfg.dim != cfg.dim or p.cfg.curvature != cfg.curvature:
            raise DimensionError("centroid input config mismatch")
    coords = np.stack([p.coords for p in points])
    # the (weight, point) rows in byte order: any reordering of the inputs
    # adds the same sequence of rows
    order = _byte_order(np.column_stack([nu.values, coords]))
    out = hcent_core(coords[order], nu.values[order], [len(points)], cfg.curvature)
    return manifold.LorentzPoint(np.asarray(out)[0], cfg)


def hcdist(x: manifold.LorentzPoint, bank: CentroidBank) -> np.ndarray:
    """Typed distance readout: distances from x to every centroid."""
    if x.cfg.dim != bank.cfg.dim:
        raise DimensionError(f"point dim {x.cfg.dim} != centroid dim {bank.cfg.dim}")
    out = lmath.cross_dist(x.coords[None, :], bank.coords_array(), x.cfg.curvature)
    return np.asarray(out)[0]


@dataclass(frozen=True, eq=False)
class HKConvParams:
    """One kernel-point convolution layer.

    sublayers        one gated linear transform per kernel point
    kernels          the kernel point set (in the layer's input space); each
                     neighborhood is recentered at its root before it is
                     compared against them
    pooling_weights  'uniform' or distance-based 'attention' over neighbors
    """

    sublayers: tuple
    kernels: KernelSet
    pooling_weights: str = "uniform"

    def __post_init__(self):
        sublayers = tuple(self.sublayers)
        object.__setattr__(self, "sublayers", sublayers)
        if self.pooling_weights not in POOLINGS:
            raise ParameterError(f"unknown pooling {self.pooling_weights!r}")
        if len(sublayers) != self.kernels.K:
            raise DimensionError(
                f"{len(sublayers)} sublayers for {self.kernels.K} kernel points"
            )
        in_dim = self.kernels.cfg.dim
        out_dim = sublayers[0].out_dim
        for p in sublayers:
            if p.in_dim != in_dim:
                raise DimensionError("sublayer in_dim must match kernel dimension")
            if p.out_dim != out_dim:
                raise DimensionError("sublayers must share out_dim")

    @property
    def in_dim(self) -> int:
        return self.kernels.cfg.dim

    @property
    def out_dim(self) -> int:
        return self.sublayers[0].out_dim


def init_hkconv(
    rng: np.random.Generator,
    kernels: KernelSet,
    out_dim: int,
    pooling_weights: str = "uniform",
) -> HKConvParams:
    sublayers = tuple(init_hlinear(rng, kernels.cfg.dim, out_dim) for _ in range(kernels.K))
    return HKConvParams(sublayers, kernels, pooling_weights)


def _tiles(n: int) -> list:
    """Row slices of at most TILE_ROWS rows covering range(n), of balanced
    sizes, so no tile has a single row unless n == 1: NumPy multiplies a
    one-row tile as a matrix-vector product, whose rounding differs from
    that of a matrix product."""
    count = -(-n // TILE_ROWS)
    bounds = [n * i // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _with_ones(rows: int, width: int) -> np.ndarray:
    """A (rows, width + 1) buffer whose last column is ones."""
    out = np.empty((rows, width + 1))
    out[:, width] = 1.0
    return out


def _lanes(columns: int) -> int:
    """columns rounded up to a multiple of _LANES."""
    return -(-columns // _LANES) * _LANES


def _gate_maps(weight, gate_vec, bias, gate_bias, extra=None) -> np.ndarray:
    """The (in_dim+2, columns) matrix of K stacked gated transforms: its
    product with rows that end in a ones column gives the K affine maps,
    the K gate logits and then the columns of extra (in_dim+1, m), biases
    included through its last row. Zero columns widen it to _lanes."""
    K, D, W = weight.shape
    cols = K * (D + 1)
    extra = np.zeros((W, 0)) if extra is None else extra
    maps = np.zeros((W + 1, _lanes(cols + extra.shape[1])))
    maps[:W, : K * D] = weight.reshape(K * D, W).T
    maps[W, : K * D] = bias.reshape(K * D)
    maps[:W, K * D : cols] = gate_vec.T
    maps[W, K * D : cols] = gate_bias
    maps[:W, cols : cols + extra.shape[1]] = extra
    return maps


def _gates(product, K: int, D: int, amplitude, mask=None):
    """The K gated transforms of a _gate_maps product -> (u, norm, gate,
    sig): the (rows, K, out_dim) pre-normalization vectors, scaled in place
    by the pre-scaled dropout mask if given, their (rows, K) norms, the
    gates amplitude * sig and the gate logits' sigmoids. A vanishing u has
    no direction and raises DegenerateGeometryError naming its kernel."""
    u = product[:, : K * D].reshape(-1, K, D)
    if mask is not None:
        u *= mask
    norm_sq = np.einsum("ekd,ekd->ek", u, u)
    worst = np.argmin(norm_sq)
    if norm_sq.flat[worst] < _DEGENERATE_NORM**2:
        raise DegenerateGeometryError(
            f"gated linear transform of kernel {worst % K}: "
            "pre-normalization vector has vanishing norm"
        )
    sig = 1.0 / (1.0 + np.exp(-product[:, K * D : K * (D + 1)]))
    return u, np.sqrt(norm_sq), amplitude * sig, sig


def _edge_points(
    center_rows,
    neighbor_rows,
    params,
    kernel_rows,
    kappa: float,
    drop_mask=None,
):
    """Per-edge kernel aggregation -> (E, out_dim+1) points on the manifold,
    one tape node for all K kernels, with seven inputs: the neighbor and
    root rows and the layer's five stacked parameters.

    center_rows / neighbor_rows (E, in_dim+1) rows; params the layer's
    parameters in PARAM_NAMES order, each stacked over the K kernels;
    kernel_rows (K, in_dim+1) constant kernel coordinates; drop_mask an
    optional pre-scaled (E, K, out_dim) dropout mask on the K
    pre-normalization vectors. Each neighbor is recentered at its root by
    the boost that carries the root to the origin (lmath._boost, the map
    of lmath.ominus) and compared against the kernels where they live,
    around the origin. The K gated transforms, weighted by kernel
    distance, are summed and the sum is normalized onto the manifold
    (lmath._normalized).

    The forward walks tiles of at most TILE_ROWS rows and holds a tile's K
    kernels as one stacked (rows, K, out_dim) array. One product of the
    recentred rows, with a ones column appended, gives all K affine maps,
    the K gate logits and the K kernel inner products, biases included. A
    transform's spatial part has norm gate, so its time coordinate is
    sqrt(gate^2 - 1/kappa), and the spatial sum is one contraction of the
    stacked maps with the scales nu * gate / |u| (_gate_maps and _gates,
    which hlinear_core runs with one kernel). The values are those of the
    chain lmath.ominus, K gated transforms and lmath.dist, and
    lmath.normalize_timelike up to the rounding of the re-associated sums;
    a row's bits depend on that row alone, not on the tile it shares.

    A recorded node keeps the inputs, the output and, per tile, the
    stacked pre-normalization vectors u and per-row scalars. The backward
    works tile by tile: it recomputes the tile's recentred rows from the
    boost's kept coefficients and writes the K kernels' affine-map,
    gate-logit and acosh adjoints side by side into one (rows,
    K * (out_dim+2)) block. One product of the block gives the recentred
    rows' adjoint, which the boost's adjoint carries to the root and
    neighbor rows, and one product per kernel with the recentred rows the
    adjoints of the weights and biases (the ones column gives the biases),
    summed over the tiles, whose slices are the stacked parameters'
    adjoints. The recentred rows' adjoint, and the kernel
    terms only it needs, are computed, and the per-row scalars they read
    kept, only when the root or neighbor rows are recorded (not in the
    first conv layer).
    """
    kernel_rows = ad.value_of(kernel_rows)
    K = kernel_rows.shape[0]
    found = len(ad.value_of(params[0])) if params else 0
    if found != K:
        raise DimensionError(f"{found} kernel transforms for {K} kernel points")
    inputs = (neighbor_rows, center_rows, *params)
    recording = any(isinstance(v, ad.Tensor) for v in inputs)
    # the boost's a and shift and the kernels' acosh arguments z feed only
    # the recentred rows' adjoint
    need_rows = isinstance(neighbor_rows, ad.Tensor) or isinstance(center_rows, ad.Tensor)
    metric = lmath.metric_row(kernel_rows.shape[1] - 1)

    def forward(nbr, ctr, weight, gate_vec, bias, gate_bias, log_scale):
        _, D, W = weight.shape
        KD = K * D
        # the kernel inner products follow the K affine maps and gate logits
        maps = _gate_maps(weight, gate_vec, bias, gate_bias, (kernel_rows * metric).T)
        amplitude = np.exp(log_scale)
        tiles = _tiles(len(nbr))
        longest = -(-len(nbr) // len(tiles))
        lifted = _with_ones(longest, W)
        # one product buffer per node: a recorded node keeps every tile's
        # rows for its backward, a no-tape forward reuses one tile's
        products = np.empty((len(nbr) if recording else longest, maps.shape[1]))
        points = np.empty((len(nbr), D + 1))
        kept = []
        for rows in tiles:
            feats, (a, shift, c) = lmath._boost(nbr[rows], ctr[rows], kappa)
            x = lifted[: len(feats)]
            x[:, :W] = feats
            product = np.matmul(x, maps, out=products[rows] if recording else products[: len(x)])
            tile_mask = None if drop_mask is None else drop_mask[rows]
            u, norm, gate, sig = _gates(product, K, D, amplitude, tile_mask)
            z = np.maximum(kappa * product[:, KD + K : KD + 2 * K], 1.0)
            nu = np.arccosh(z) / math.sqrt(-kappa)
            aggregate = np.empty((len(feats), D + 1))
            np.einsum("ek,ek->e", nu, np.sqrt(gate * gate - 1.0 / kappa), out=aggregate[:, 0])
            np.einsum("ek,ekd->ed", nu * gate / norm, u, out=aggregate[:, 1:])
            normed, normal = lmath._normalized(aggregate, kappa)
            points[rows] = normed
            if recording:
                rest = (z, a, shift) if need_rows else None
                kept.append((rows, c, u, norm, gate, sig, nu, normal, rest))
        return points, (nbr, ctr, maps, points, kept)

    def backward(g, saved, needs):
        nbr, ctr, maps, points, kept = saved
        D, W = g.shape[1] - 1, nbr.shape[1]
        KD = K * D
        lifted = _with_ones(-(-len(nbr) // len(kept)), W)
        block = np.empty((len(lifted), K * (D + 2)))
        g_maps = np.zeros((K * (D + 1), W + 1))
        kernel_cols = [slice(k * D, (k + 1) * D) for k in range(K)] + [slice(KD, KD + K)]
        g_scales = np.zeros(K)
        grads = [None, None]
        if need_rows:
            # the block's product with the maps, widened as the forward's
            stacked = np.zeros((block.shape[1], _lanes(W)))
            stacked[:, :W] = maps[:W, : block.shape[1]].T
            g_lifted = np.empty((len(block), stacked.shape[1]))
            grads = [np.empty_like(v) if need else None for v, need in zip((nbr, ctr), needs)]
        for rows, c, u, norm, gate, sig, nu, normal, rest in kept:
            g_sum = lmath._normalized_backward(g[rows], points[rows], *normal, kappa)
            g_time, g_spatial = g_sum[:, :1], g_sum[:, 1:]
            along = np.einsum("ed,ekd->ek", g_spatial, u)
            time = np.sqrt(gate * gate - 1.0 / kappa)
            g_gate = nu * (along / norm + g_time * (gate / time))
            g_scales += (g_gate * gate).sum(axis=0)
            tile = block[: len(norm)]
            # g_u = nu * gate / |u| * (g_spatial - along / |u|^2 * u), in place
            g_u = tile[:, :KD].reshape(-1, K, D)
            np.multiply(u, (-along / (norm * norm))[..., None], out=g_u)
            g_u += g_spatial[:, None, :]
            g_u *= (nu * gate / norm)[..., None]
            if drop_mask is not None:
                g_u *= drop_mask[rows]
            tile[:, KD : KD + K] = g_gate * gate * (1.0 - sig)
            x = lifted[: len(norm)]
            x[:, :W] = lmath._boosted(nbr[rows], ctr[rows], c, kappa)
            # weight and bias adjoints summed over tiles, one product per
            # tile and kernel: OpenBLAS splits a product of more than about
            # 1e6 multiply-adds across threads and rounds it differently,
            # and at widths up to about 30 these stay below that
            for cols in kernel_cols:
                g_maps[cols] += tile[:, cols].T @ x
            if need_rows:
                z, a, shift = rest
                g_nu = g_time * time + along * (gate / norm)
                tile[:, KD + K :] = lmath._acosh_adjoint(g_nu, z, kappa)
                g_feats = np.matmul(tile, stacked, out=g_lifted[: len(tile)])[:, :W]
                parts = lmath._boost_backward(
                    g_feats, nbr[rows], ctr[rows], x[:, :W], a, shift, c, kappa, needs[:2]
                )
                for full, part in zip(grads, parts):
                    if full is not None:
                        full[rows] = part
        return (
            *grads,
            g_maps[:KD, :W].reshape(K, D, W),
            g_maps[KD:, :W],
            g_maps[:KD, W].reshape(K, D),
            g_maps[KD:, W],
            g_scales,
        )

    return ad._lift("edge_points", inputs, forward, backward)


def attention_weights(d, dim: int, counts):
    """Distance-based attention over flattened neighborhoods -> (E,) weights.

    d holds each edge's distance d(center_e, neighbor_e) (lmath.dist),
    grouped by segment as hcent_core takes its rows, and dim the spatial
    dimension n of the rows. Edge e scores -d_e^2 / sqrt(n), and the
    weights are the softmax of the scores within each segment (its
    largest score is subtracted before exponentiation, and the
    exponentials are added in the order given), so every segment's
    weights sum to one.
    """
    counts = np.asarray(counts, dtype=np.int64)
    logits = -(d * d) / np.sqrt(float(dim))
    shift = ad.segment_max_value(ad.value_of(logits), counts)
    scores = ad.exp(logits - np.repeat(shift, counts))
    denom = ad.segment_sum(scores, counts)
    return scores / ad.take(denom, np.repeat(np.arange(counts.size), counts))


def hkconv_core(
    rows,
    roots: np.ndarray,
    neighbors: np.ndarray,
    edges: np.ndarray,
    counts,
    params,
    kernel_rows,
    pooling_weights: str,
    kappa: float,
    drop_mask=None,
):
    """Batched kernel-point convolution over flattened neighborhoods.

    rows               (N, in_dim+1) rows
    roots / neighbors  (P,) int row ids: pair p runs the edge node on the
                       root rows[roots[p]] and the neighbor
                       rows[neighbors[p]]
    edges              (E,) int pair ids: edge e takes the points of pair
                       edges[e]; the edges come grouped by segment,
                       segment i being the next counts[i] >= 1
    counts             edges per output row
    params             the layer's parameters in PARAM_NAMES order, each
                       stacked over the K kernels
    kernel_rows        (K, in_dim+1) kernel coordinates
    drop_mask          optional (P, K, out_dim) dropout mask

    Returns (len(counts), out_dim+1): one pooled point per segment. The
    per-pair points come from one _edge_points node; the row gathers, the
    gather to the edges, the attention weights and the segment sums of
    the pooling are nodes of their own. Attention scores each edge by its
    root-neighbor distance: lmath.dist runs on the pair rows, and its
    distances are gathered to the edges with the same index as the
    points. Pooling adds each segment's edges in the order given, so the
    caller fixes the bits by the order of the edges.
    """
    center_rows, neighbor_rows = ad.take(rows, roots), ad.take(rows, neighbors)
    points = _edge_points(center_rows, neighbor_rows, params, kernel_rows, kappa, drop_mask)
    w = None
    if pooling_weights == "attention":
        d = ad.take(lmath.dist(center_rows, neighbor_rows, kappa), edges)
        w = attention_weights(d, ad.value_of(rows).shape[-1] - 1, counts)
    return hcent_core(ad.take(points, edges), w, counts, kappa)


def hkconv(x: manifold.LorentzPoint, neighbors, p: HKConvParams) -> manifold.LorentzPoint:
    """Typed single-neighborhood convolution rooted at x: hkconv_core on
    one segment, the neighbors taken in the order of their coordinate
    bytes, so their order in the input cannot change a bit. Attention
    layers weight neighbors by their distance to the root; uniform layers
    count them equally."""
    neighbors = list(neighbors)
    if not neighbors:
        raise ParameterError("neighborhood must be nonempty")
    if x.cfg.dim != p.in_dim:
        raise DimensionError(f"point dim {x.cfg.dim} != layer in_dim {p.in_dim}")
    for nb in neighbors:
        if nb.cfg.dim != x.cfg.dim or nb.cfg.curvature != x.cfg.curvature:
            raise DimensionError("neighbor config mismatch")
    E = len(neighbors)
    coords = np.stack([nb.coords for nb in neighbors])
    out = hkconv_core(
        np.concatenate([x.coords[None, :], coords[_byte_order(coords)]]),
        np.zeros(E, dtype=np.int64),
        np.arange(1, E + 1),
        np.arange(E),
        [E],
        tuple(np.stack(field) for field in zip(*(s.values() for s in p.sublayers))),
        p.kernels.coords_array(),
        p.pooling_weights,
        x.cfg.curvature,
    )
    return manifold.LorentzPoint(np.asarray(out)[0], replace(x.cfg, dim=p.out_dim))
