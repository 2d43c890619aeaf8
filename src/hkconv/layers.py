"""Hyperbolic network layers on the Lorentz model.

The building blocks:

* feature transform: a gated linear map whose output is re-lifted onto the
  manifold by solving for the time coordinate (so no projection step and no
  tangent-space detour is needed),
* weighted centroid: a Lorentz-norm normalized weighted sum, the
  aggregation used everywhere points must be combined,
* centroid-distance readout: distances to a bank of reference points,
* kernel-point convolution: per-kernel feature transforms of each neighbor,
  combined with kernel-proximity weights, then pooled over the neighborhood
  either uniformly or with distance-based attention.

Each operation exists in two forms: a typed single-point form working on
LorentzPoint values (validating, convenient for tests and small scripts)
and a batched core working on coordinate rows (plain ndarrays or autodiff
tensors), which the graph networks drive directly. Sums over neighbors run
in a value-sorted order, so results do not depend on how the input happened
to be labeled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import lmath, manifold
from .errors import (
    DegenerateGeometryError,
    DimensionError,
    ParameterError,
)
from .kernelgen import KernelSet

ACTIVATIONS = ("identity", "relu", "tanh")
POOLINGS = ("uniform", "attention")

# norm of the pre-normalization vector below which the gated map is undefined
_DEGENERATE_NORM = 1e-12


def _apply_activation(name: str, x):
    if name == "identity":
        return x
    if name == "relu":
        return ad.relu(x)
    if name == "tanh":
        return ad.tanh(x)
    raise ParameterError(f"unknown activation {name!r}")


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
    activation elementwise map applied to the input coordinates first
    """

    weight: np.ndarray
    gate_vec: np.ndarray
    bias: np.ndarray
    gate_bias: float = 0.0
    log_scale: float = 0.0
    activation: str = "identity"

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
        if self.activation not in ACTIVATIONS:
            raise ParameterError(f"unknown activation {self.activation!r}")

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1] - 1

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]


def init_hlinear(
    rng: np.random.Generator, in_dim: int, out_dim: int, activation: str = "identity"
) -> HLinearParams:
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
        activation=activation,
    )


def hlinear_core(
    x,
    weight,
    gate_vec,
    bias,
    gate_bias,
    log_scale,
    activation: str,
    kappa: float,
    drop_mask=None,
):
    """Batched gated linear transform, rows of x -> rows on L^out_dim.

    x may be (in_dim+1,) or (..., in_dim+1); parameters may be ndarrays or
    autodiff tensors. drop_mask, when given, multiplies the
    pre-normalization vector (inverted-dropout masks come pre-scaled).
    After the activation the map is one tape op; its backward rule uses
    the pre-normalization vector u, its norm and the gate kept by the
    forward.
    """

    def forward(x, tx, weight, gate_vec, bias, gate_bias, log_scale):
        u = tx @ weight.T + bias
        if drop_mask is not None:
            u = u * drop_mask
        norm_sq = np.sum(u * u, axis=-1, keepdims=True)
        if float(np.min(norm_sq)) < _DEGENERATE_NORM**2:
            raise DegenerateGeometryError(
                "gated linear transform: pre-normalization vector has vanishing norm"
            )
        gate_logit = np.sum(x * gate_vec, axis=-1, keepdims=True)
        sig = 1.0 / (1.0 + np.exp(-(gate_logit + gate_bias)))
        gate = np.exp(log_scale) * sig
        norm = np.sqrt(norm_sq)
        out = lmath._lifted(gate / norm * u, kappa)
        return out, (out, x, tx, weight, gate_vec, u, norm, gate, sig)

    def backward(g, saved, needs):
        out, x, tx, weight, gate_vec, u, norm, gate, sig = saved
        g_time, g_spatial = g[..., :1], g[..., 1:]
        # spatial = gate * u / |u| has norm gate, so the time coordinate
        # depends on the gate alone and u receives only the spatial adjoint
        along = np.einsum("...i,...i->...", g_spatial, u)[..., None]
        g_u = gate / norm * (g_spatial - along / (norm * norm) * u)
        if drop_mask is not None:
            g_u = g_u * drop_mask
        g_gate = along / norm + g_time * (gate / out[..., :1])
        g_logit = g_gate * gate * (1.0 - sig)
        need_x, need_tx, need_w, need_gv, need_b, need_gb, need_ls = needs
        rows_u = g_u.reshape(-1, g_u.shape[-1])
        rows_x = x.reshape(-1, x.shape[-1])
        rows_logit = g_logit.reshape(-1)
        return (
            g_logit * gate_vec if need_x else None,
            g_u @ weight if need_tx else None,
            rows_u.T @ tx.reshape(-1, tx.shape[-1]) if need_w else None,
            (rows_logit @ rows_x).reshape(gate_vec.shape) if need_gv else None,
            (np.ones(len(rows_u)) @ rows_u).reshape(bias.shape) if need_b else None,
            ad._unbroadcast(g_logit, np.shape(gate_bias)) if need_gb else None,
            ad._unbroadcast(g_gate * gate, np.shape(log_scale)) if need_ls else None,
        )

    tx = _apply_activation(activation, x)
    return ad._lift_joint(
        "hlinear", (x, tx, weight, gate_vec, bias, gate_bias, log_scale), forward, backward
    )


def _derived_cfg(cfg: manifold.ManifoldConfig, dim: int) -> manifold.ManifoldConfig:
    return manifold.ManifoldConfig(
        curvature=cfg.curvature,
        dim=dim,
        tol_manifold=cfg.tol_manifold,
        tol_inverse=cfg.tol_inverse,
    )


def hlinear(x: manifold.LorentzPoint, p: HLinearParams) -> manifold.LorentzPoint:
    """Typed single-point gated linear transform."""
    if x.cfg.dim != p.in_dim:
        raise DimensionError(f"point dim {x.cfg.dim} != layer in_dim {p.in_dim}")
    out = hlinear_core(
        x.coords[None, :],
        p.weight,
        p.gate_vec,
        p.bias,
        p.gate_bias,
        p.log_scale,
        p.activation,
        x.cfg.curvature,
    )
    return manifold.LorentzPoint(np.asarray(out)[0], _derived_cfg(x.cfg, p.out_dim))


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


def hcent_core(points, weights, kappa: float):
    """Weighted centroid of coordinate rows.

    points (N, dim+1), weights (N,). The weighted rows are added in
    value-sorted order (per column), so any relabeling of the inputs
    reproduces the result bit for bit; the sum is then normalized by the
    magnitude of its Lorentz norm to land back on the manifold.
    """
    n = ad.value_of(points).shape[0]
    u = ad.segment_sum(_as_column(weights) * points, np.zeros(n, dtype=np.int64), 1)
    return lmath.normalize_timelike(u, kappa)[0]


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
    out = hcent_core(coords, nu.values, cfg.curvature)
    return manifold.LorentzPoint(np.asarray(out), cfg)


def hcdist_core(x, centroids, kappa: float):
    """Distances from rows of x (..., dim+1) to ell centroid rows -> (..., ell)."""
    return lmath.cross_dist(x, centroids, kappa)


def hcdist(x: manifold.LorentzPoint, bank: CentroidBank) -> np.ndarray:
    """Typed distance readout: distances from x to every centroid."""
    if x.cfg.dim != bank.cfg.dim:
        raise DimensionError(f"point dim {x.cfg.dim} != centroid dim {bank.cfg.dim}")
    out = hcdist_core(x.coords[None, :], bank.coords_array(), x.cfg.curvature)
    return np.asarray(out)[0]


def attention_weights(queries, keys, n: int) -> np.ndarray:
    """Distance-based attention: softmax_j of -d(q_i, k_j)^2 / sqrt(n).

    The row maximum is subtracted before exponentiation; n is the spatial
    dimension the points live in.
    """
    queries = list(queries)
    keys = list(keys)
    if not queries or not keys:
        raise ParameterError("attention needs at least one query and one key")
    if n < 1:
        raise ParameterError("n must be a positive dimension")
    cfg = queries[0].cfg
    for p in queries + keys:
        if p.cfg.dim != cfg.dim or p.cfg.curvature != cfg.curvature:
            raise DimensionError("attention input config mismatch")
    q = np.stack([p.coords for p in queries])
    k = np.stack([p.coords for p in keys])
    d = np.asarray(lmath.cross_dist(q, k, cfg.curvature))
    logits = -(d * d) / np.sqrt(float(n))
    logits = logits - np.max(logits, axis=1, keepdims=True)
    weights = np.exp(logits)
    return weights / np.sum(weights, axis=1, keepdims=True)


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
    activation: str = "identity",
) -> HKConvParams:
    sublayers = tuple(
        init_hlinear(rng, kernels.cfg.dim, out_dim, activation) for _ in range(kernels.K)
    )
    return HKConvParams(sublayers, kernels, pooling_weights)


def _sublayer_arrays(p: HKConvParams):
    return [
        (s.weight, s.gate_vec, s.bias, s.gate_bias, s.log_scale, s.activation)
        for s in p.sublayers
    ]


def _edge_points(
    center_rows,
    neighbor_rows,
    sublayers,
    kernel_rows,
    kappa: float,
    drop_masks=None,
):
    """Per-edge kernel aggregation -> (E, out_dim+1) points on the manifold.

    Each neighbor is recentered at its root and compared against the
    kernels where they live, around the origin.
    """
    K = ad.value_of(kernel_rows).shape[0]
    if len(sublayers) != K:
        raise DimensionError(f"{len(sublayers)} sublayers for {K} kernel points")
    feats = lmath.ominus(neighbor_rows, center_rows, kappa)
    aggregate = None
    for k in range(K):
        weight, gate_vec, bias, gate_bias, log_scale, activation = sublayers[k]
        mask = None if drop_masks is None else drop_masks[k]
        transformed = hlinear_core(
            feats, weight, gate_vec, bias, gate_bias, log_scale, activation, kappa, mask
        )
        nu = lmath.dist(feats, kernel_rows[k], kappa)
        term = _as_column(nu) * transformed
        aggregate = term if aggregate is None else aggregate + term
    return lmath.normalize_timelike(aggregate, kappa)


def hkconv_core(
    center_rows,
    neighbor_rows,
    segments: np.ndarray,
    num_segments: int,
    sublayers,
    kernel_rows,
    pooling_weights: str,
    kappa: float,
    drop_masks=None,
):
    """Batched kernel-point convolution over flattened neighborhoods.

    center_rows / neighbor_rows   (E, in_dim+1) rows; entry e pairs the
                                  root center_rows[e] with one neighbor
    segments                      (E,) nondecreasing int segment ids in
                                  [0, num_segments); every segment nonempty
    sublayers                     per-kernel tuples (weight, gate_vec,
                                  bias, gate_bias, log_scale, activation)
    kernel_rows                   (K, in_dim+1) kernel coordinates
    drop_masks                    optional per-kernel dropout masks

    Returns (num_segments, out_dim+1): one pooled point per segment.
    """
    per_edge = _edge_points(center_rows, neighbor_rows, sublayers, kernel_rows, kappa, drop_masks)
    if pooling_weights == "uniform":
        pooled = ad.segment_sum(per_edge, segments, num_segments)
    elif pooling_weights == "attention":
        d = lmath.dist(center_rows, neighbor_rows, kappa)
        n = ad.value_of(kernel_rows).shape[1] - 1
        logits = -(d * d) / np.sqrt(float(n))
        shift = ad.segment_max_value(ad.value_of(logits), segments, num_segments)
        scores = ad.exp(logits - shift[segments])
        denom = ad.segment_sum(scores, segments, num_segments)
        w = scores / ad.take(denom, segments)
        pooled = ad.segment_sum(_as_column(w) * per_edge, segments, num_segments)
    else:
        raise ParameterError(f"unknown pooling {pooling_weights!r}")
    return lmath.normalize_timelike(pooled, kappa)


def hkconv(
    x: manifold.LorentzPoint,
    neighbors,
    p: HKConvParams,
    attn: WeightVector | None = None,
) -> manifold.LorentzPoint:
    """Typed single-neighborhood convolution rooted at x.

    attn supplies explicit pooling weights; it is only accepted (and then
    required to match the neighbor count) when the layer was built with
    attention pooling. Without it, attention layers weight neighbors by
    their distance to the root and uniform layers count them equally.
    """
    neighbors = list(neighbors)
    if not neighbors:
        raise ParameterError("neighborhood must be nonempty")
    if x.cfg.dim != p.in_dim:
        raise DimensionError(f"point dim {x.cfg.dim} != layer in_dim {p.in_dim}")
    for nb in neighbors:
        if nb.cfg.dim != x.cfg.dim or nb.cfg.curvature != x.cfg.curvature:
            raise DimensionError("neighbor config mismatch")
    if p.pooling_weights == "uniform" and attn is not None:
        raise ParameterError("explicit weights require attention pooling")
    if attn is not None and len(attn) != len(neighbors):
        raise DimensionError(f"{len(attn)} weights for {len(neighbors)} neighbors")

    kappa = x.cfg.curvature
    E = len(neighbors)
    center_rows = np.tile(x.coords, (E, 1))
    neighbor_rows = np.stack([nb.coords for nb in neighbors])
    kernel_rows = p.kernels.coords_array()

    if attn is None:
        out = np.asarray(
            hkconv_core(
                center_rows,
                neighbor_rows,
                np.zeros(E, dtype=np.int64),
                1,
                _sublayer_arrays(p),
                kernel_rows,
                p.pooling_weights,
                kappa,
            )
        )[0]
    else:
        per_edge = np.asarray(
            _edge_points(center_rows, neighbor_rows, _sublayer_arrays(p), kernel_rows, kappa)
        )
        out = np.asarray(hcent_core(per_edge, attn.values, kappa))
    return manifold.LorentzPoint(out, _derived_cfg(x.cfg, p.out_dim))
