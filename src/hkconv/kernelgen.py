"""Kernel-point placement in the Lorentz model.

K kernel points are spread around the hyperbolic origin by minimizing

    loss = sum_{k} sum_{l != k} 1 / d(p_l, p_k)  +  sum_k d(o, p_k),

the repulsion-plus-anchoring objective, with Riemannian gradient descent
(ordered pairs: each unordered pair contributes twice to the first term).
The module also provides wrapped-normal random kernels (the ablation
baseline), kernel (de)serialization, a Poincare-disk plot exporter, and
the gradient-decay experiment that shows the repulsion gradient vanishing
as a configuration is pushed away from the origin.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import lmath, manifold
from .errors import (
    DataFormatError,
    DegenerateGeometryError,
    DimensionError,
    ParameterError,
    SolverFailureError,
    read_json,
)

# ceiling on the starting ring's loss: above it the ring is too tight to place
_DIVERGENCE_LOSS = 1e6
# monotone step-search schedule: grow after accepted moves, halve on
# rejection, and never displace a point further than the cap in one move
_STEP_GROW = 1.2
_STEP_SHRINK = 0.5
_MAX_STEP = 64.0
_MAX_DISPLACEMENT = 0.25

PROVENANCES = ("optimized", "random_wrapped_normal", "loaded")


@dataclass(frozen=True, eq=False)
class KernelSet:
    """K distinct on-manifold points plus curvature/dimension metadata."""

    points: tuple
    cfg: manifold.ManifoldConfig
    provenance: str

    def __post_init__(self):
        points = tuple(self.points)
        object.__setattr__(self, "points", points)
        if not points:
            raise ParameterError("kernel set needs at least one point")
        if self.provenance not in PROVENANCES:
            raise ParameterError(f"unknown provenance {self.provenance!r}")
        if self.provenance == "optimized" and len(points) < 2:
            raise ParameterError("optimized kernels need K >= 2 (the repulsion term needs a pair)")
        for p in points:
            if p.cfg.dim != self.cfg.dim or p.cfg.curvature != self.cfg.curvature:
                raise DimensionError("kernel point config mismatch")
        for k in range(len(points)):
            for l in range(k + 1, len(points)):
                if manifold.distance(points[k], points[l]) <= 0.0:
                    raise DegenerateGeometryError(f"kernel points {k} and {l} coincide")

    @property
    def K(self) -> int:
        return len(self.points)

    def coords_array(self) -> np.ndarray:
        """Stacked coordinates, shape (K, dim+1)."""
        return np.stack([p.coords for p in self.points])


@dataclass(frozen=True)
class SolverConfig:
    lr: float = 1e-4
    max_iters: int = 200_000
    grad_tol: float = 1e-6
    seed: int = 0
    init_scale: float = 0.5

    def __post_init__(self):
        # written so that NaN fails every check
        if not (0 < self.lr < math.inf and self.max_iters > 0 and self.grad_tol > 0):
            raise ParameterError("lr must be positive and finite, max_iters and grad_tol positive")
        if not 0 < self.init_scale < math.inf:
            raise ParameterError("init_scale must be positive and finite")
        if self.seed < 0:
            raise ParameterError("seed must be unsigned")


def _pairwise_quantities(coords: np.ndarray, kappa: float):
    """Clamped acosh arguments and distances for all ordered pairs."""
    metric = lmath.metric_row(coords.shape[1] - 1)
    z = kappa * (coords @ (metric * coords).T)
    np.fill_diagonal(z, 1.0)
    z = np.maximum(z, 1.0)
    d = np.arccosh(z) / math.sqrt(-kappa)
    return z, d


def _origin_quantities(coords: np.ndarray, kappa: float):
    z = np.maximum(math.sqrt(-kappa) * coords[:, 0], 1.0)
    d = np.arccosh(z) / math.sqrt(-kappa)
    return z, d


def _loss_value(coords: np.ndarray, kappa: float) -> float:
    _, d = _pairwise_quantities(coords, kappa)
    off = ~np.eye(len(coords), dtype=bool)
    _, d_origin = _origin_quantities(coords, kappa)
    return float(np.sum(1.0 / d[off]) + np.sum(d_origin))


def _euclidean_grads(coords: np.ndarray, kappa: float, repulsion_only: bool = False):
    """Euclidean-coordinate gradient of the loss (or of its repulsion term)."""
    K, width = coords.shape
    metric = lmath.metric_row(width - 1)
    z, d = _pairwise_quantities(coords, kappa)
    # d(1/d)/d<coords_k> for ordered pairs (k,l) and (l,k) combined
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = -2.0 * kappa / (d * d * math.sqrt(-kappa) * np.sqrt(z * z - 1.0))
    guard = (z - 1.0) > 1e-15
    np.fill_diagonal(guard, False)
    coef = np.where(guard, coef, 0.0)
    grads = coef @ (metric * coords)
    if not repulsion_only:
        z_origin, _ = _origin_quantities(coords, kappa)
        guard_origin = (z_origin - 1.0) > 1e-15
        with np.errstate(divide="ignore", invalid="ignore"):
            g_time = np.where(guard_origin, 1.0 / np.sqrt(z_origin * z_origin - 1.0), 0.0)
        grads[:, 0] += g_time
    return grads


def _to_riemannian(coords: np.ndarray, grads: np.ndarray, kappa: float) -> np.ndarray:
    """Euclidean -> Riemannian gradients: inverse metric, then tangent projection.

    The projection is u -> u - kappa * <x,u>_L * x, the Lorentz-orthogonal
    complement of the base point.
    """
    metric = lmath.metric_row(coords.shape[1] - 1)
    u = grads * metric
    return u - kappa * lmath._inner(u, coords)[:, None] * coords


def kernel_loss(kernels: KernelSet) -> float:
    """Repulsion-plus-anchoring objective over ordered pairs."""
    coords = kernels.coords_array()
    if kernels.K < 2:
        raise ParameterError("loss needs at least two kernel points")
    _, d = _pairwise_quantities(coords, kernels.cfg.curvature)
    off = ~np.eye(kernels.K, dtype=bool)
    if np.min(d[off]) < 1e-12:
        raise DegenerateGeometryError("coincident kernel pair (distance < 1e-12)")
    return _loss_value(coords, kernels.cfg.curvature)


def riemannian_grad(kernels: KernelSet, k: int) -> manifold.TangentVector:
    """Riemannian gradient of kernel_loss w.r.t. kernel point k."""
    coords = kernels.coords_array()
    grads = _euclidean_grads(coords, kernels.cfg.curvature)
    rgrads = _to_riemannian(coords, grads, kernels.cfg.curvature)
    return manifold.TangentVector(kernels.points[k], rgrads[k])


def _ring_init(
    K: int, m: int, radius: float, kappa: float, rng: np.random.Generator
) -> np.ndarray:
    """K points equispaced on a circle of the given origin distance.

    The circle lies in a seeded random 2-plane of the tangent space at the
    origin and carries a seeded random phase, so different seeds produce
    rotated copies of the same configuration. For m == 1 the points fall on
    the single geodesic through the origin at staggered symmetric radii.
    """
    if m == 1:
        ranks = np.arange(K, dtype=float) // 2 + 1.0
        signs = np.where(np.arange(K) % 2 == 0, 1.0, -1.0)
        steps = radius * ranks / math.ceil(K / 2) * signs
        directions = np.ones((K, 1))
        radii = np.abs(steps)
        directions[:, 0] = np.sign(steps)
    else:
        frame = np.linalg.qr(rng.standard_normal((m, 2)))[0]
        phase = rng.uniform(0.0, 2.0 * np.pi)
        angles = 2.0 * np.pi * np.arange(K) / K + phase
        directions = np.cos(angles)[:, None] * frame[:, 0] + np.sin(angles)[:, None] * frame[:, 1]
        radii = np.full(K, radius)
    sqrt_neg_k = math.sqrt(-kappa)
    phi = sqrt_neg_k * radii
    coords = np.empty((K, m + 1))
    coords[:, 0] = np.cosh(phi) / sqrt_neg_k
    coords[:, 1:] = (np.sinh(phi) / sqrt_neg_k)[:, None] * directions
    return coords


def random_kernels(
    K: int, m: int, seed: int, cfg: manifold.ManifoldConfig | None = None
) -> KernelSet:
    """K i.i.d. wrapped-normal draws around the origin with unit covariance."""
    if K < 1:
        raise ParameterError("K must be >= 1")
    cfg = cfg or manifold.ManifoldConfig(dim=m)
    rng = np.random.Generator(np.random.Philox(key=seed))
    params = manifold.WrappedNormalParams(manifold.origin(cfg), np.eye(cfg.dim), seed)
    points = tuple(manifold.sample_wrapped_normal(params, cfg, rng=rng) for _ in range(K))
    return KernelSet(points, cfg, "random_wrapped_normal")


def solve_kernels_verbose(
    K: int,
    m: int,
    solver: SolverConfig,
    cfg: manifold.ManifoldConfig | None = None,
):
    """Run the placement solver and keep the convergence log.

    Returns (kernels, log, converged, iterations) where log is a list of
    (iteration, loss, max_grad_norm) rows and kernels is the last iterate,
    the one whose loss the last row records. Before the first iteration it
    raises ParameterError when the starting ring's radius
    sqrt(-kappa) * init_scale exceeds lmath.EMBED_MAX_RADIUS, and
    SolverFailureError when the ring's loss exceeds _DIVERGENCE_LOSS.
    """
    if K < 2:
        raise ParameterError("solver needs K >= 2")
    if m < 1:
        raise ParameterError("m must be >= 1")
    cfg = cfg or manifold.ManifoldConfig(dim=m)
    if cfg.dim != m:
        raise DimensionError(f"cfg.dim {cfg.dim} != m {m}")
    kappa = cfg.curvature
    radius = math.sqrt(-kappa) * solver.init_scale
    if radius > lmath.EMBED_MAX_RADIUS:
        raise ParameterError(
            f"kernel placement: starting ring radius {radius:.6g} (sqrt(-curvature) * "
            f"solver.init_scale) exceeds {lmath.EMBED_MAX_RADIUS:g}, the largest radius at "
            "which Lorentz coordinates keep the manifold constraint; lower solver.init_scale"
        )

    rng = np.random.Generator(np.random.Philox(key=solver.seed))
    # equiangular shell init, randomly rotated per seed. Starting from an
    # exactly symmetric ring keeps descent inside the smooth ring family:
    # the gradient of a symmetric configuration is itself symmetric, so the
    # flow can never push a point onto the origin, where the anchoring term
    # has a gradient kink that would keep grad_tol forever out of reach.
    coords = _ring_init(K, m, solver.init_scale, kappa, rng)
    # every pair counts twice, so loss >= 2 / d_min (infinite where starting
    # points coincide); the step search below never raises the loss, so
    # passing this ceiling once keeps every separation >= 2 / _DIVERGENCE_LOSS
    with np.errstate(divide="ignore"):
        loss = _loss_value(coords, kappa)
    if loss > _DIVERGENCE_LOSS:
        raise SolverFailureError(
            f"kernel placement: starting ring too tight (loss {loss:.3g} > "
            f"{_DIVERGENCE_LOSS:.0g}); raise solver.init_scale",
            diagnostics={"loss": loss},
        )

    log: list[tuple[int, float, float]] = []
    step = solver.lr
    min_step = solver.lr * 1e-12
    for iteration in range(1, solver.max_iters + 1):
        grads = _euclidean_grads(coords, kappa)
        rgrads = _to_riemannian(coords, grads, kappa)
        sq_norms = lmath._inner(rgrads, rgrads)
        max_norm = float(np.max(np.sqrt(np.maximum(sq_norms, 0.0))))
        log.append((iteration, loss, max_norm))
        converged = max_norm <= solver.grad_tol
        if converged or iteration == solver.max_iters:
            break

        # monotone step search: only loss-non-increasing proposals are
        # accepted; the step grows after an accept and halves on rejection.
        # A displacement cap keeps single moves local so descent cannot
        # teleport across basins.
        accepted = False
        while step >= min_step:
            trial = step
            if trial * max_norm > _MAX_DISPLACEMENT:
                trial = _MAX_DISPLACEMENT / max_norm
            proposal = lmath._exp(coords, -trial * rgrads, kappa)
            proposal_loss = _loss_value(proposal, kappa)
            if proposal_loss <= loss:
                coords = proposal
                loss = proposal_loss
                step = min(step * _STEP_GROW, _MAX_STEP)
                accepted = True
                break
            step *= _STEP_SHRINK
        if not accepted:
            break

    points = tuple(manifold.LorentzPoint(row, cfg) for row in coords)
    kernels = KernelSet(points, cfg, "optimized")
    return kernels, log, converged, iteration


def solve_kernels(
    K: int, m: int, solver: SolverConfig, cfg: manifold.ManifoldConfig | None = None
) -> KernelSet:
    """Place K kernel points in L^m; deterministic given solver.seed."""
    kernels, _, _, _ = solve_kernels_verbose(K, m, solver, cfg)
    return kernels


def gradient_decay_experiment(
    K: int = 8,
    radii: tuple = tuple(np.arange(0.5, 5.01, 0.5)),
    cfg: manifold.ManifoldConfig | None = None,
) -> list[tuple[float, float]]:
    """Push a ring of K points outward and watch the repulsion gradient die.

    K points are placed along evenly spaced unit-circle directions in L^2
    and translated along their geodesics from the origin so that all sit at
    each target radius. For every radius the Euclidean-coordinate gradient
    norm of the repulsion term alone is recorded. (The metric-aware
    tangent-norm version of this curve decays only polynomially; the
    coordinate gradient is the quantity whose log is linear in the radius.)
    """
    cfg = cfg or manifold.ManifoldConfig(dim=2)
    if cfg.dim != 2:
        raise DimensionError("the ring construction lives in L^2")
    radii = tuple(float(r) for r in radii)
    if not radii or any(r <= 0 for r in radii) or list(radii) != sorted(radii):
        raise ParameterError("radii must be positive and ascending")
    angles = 2.0 * math.pi * np.arange(K) / K
    directions = np.stack([np.zeros(K), np.cos(angles), np.sin(angles)], axis=1)
    origin_row = lmath.origin_row(2, cfg.curvature)
    rows = []
    for radius in radii:
        coords = lmath._exp(np.tile(origin_row, (K, 1)), radius * directions, cfg.curvature)
        grads = _euclidean_grads(coords, cfg.curvature, repulsion_only=True)
        rows.append((radius, float(np.sqrt(np.sum(grads * grads)))))
    return rows


def log_linear_fit(rows: list[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares slope and R^2 of log(grad_norm) against radius."""
    x = np.array([r for r, _ in rows])
    y = np.log(np.array([g for _, g in rows]))
    design = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), r2


# ---------------------------------------------------------------------------
# serialization and plotting


def kernels_to_dict(kernels: KernelSet) -> dict:
    return {
        "curvature": kernels.cfg.curvature,
        "dim": kernels.cfg.dim,
        "K": kernels.K,
        "provenance": kernels.provenance,
        "points": [[float(c) for c in p.coords] for p in kernels.points],
    }


def save_kernels(kernels: KernelSet, path) -> None:
    Path(path).write_text(json.dumps(kernels_to_dict(kernels), indent=1))


def kernels_from_dict(data: dict) -> KernelSet:
    try:
        cfg = manifold.ManifoldConfig(dim=int(data["dim"]), curvature=float(data["curvature"]))
        raw_points = list(data["points"])
        declared_K = int(data["K"])
        provenance = str(data["provenance"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"malformed kernel record: {exc}") from exc
    if len(raw_points) != declared_K:
        raise DataFormatError(f"K={declared_K} but {len(raw_points)} points present")
    try:
        points = tuple(manifold.LorentzPoint(np.asarray(row, dtype=np.float64), cfg) for row in raw_points)
    except (DimensionError, TypeError, ValueError) as exc:
        raise DataFormatError(f"kernel point fails validation: {exc}") from exc
    if provenance not in PROVENANCES:
        provenance = "loaded"
    return KernelSet(points, cfg, provenance)


def load_kernels(path) -> KernelSet:
    return kernels_from_dict(read_json(path, "kernel file"))


def export_poincare_csv(kernels: KernelSet, points_path, geodesics_path, steps: int = 64) -> None:
    """Poincare-disk projections of the kernels and of the geodesics from
    the first kernel point to each other one (sampled at ``steps`` points).

    The disk rendering is two-dimensional by nature, so only dim == 2
    kernel sets can be exported."""
    if kernels.cfg.dim != 2:
        raise ParameterError(
            f"the Poincare-disk export needs dim == 2, got {kernels.cfg.dim}"
        )
    disk = lmath.poincare_projection(kernels.coords_array(), kernels.cfg.curvature)
    with open(points_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        writer.writerows([[f"{x:.17g}", f"{y:.17g}"] for x, y in disk])
    with open(geodesics_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["geodesic", "step", "x", "y"])
        start = kernels.points[0]
        for idx in range(1, kernels.K):
            velocity = manifold.log_map(start, kernels.points[idx])
            for step in range(steps):
                t = step / (steps - 1)
                here = manifold.exp_map(
                    manifold.TangentVector(start, t * velocity.vec)
                )
                x, y = lmath.poincare_projection(here.coords, kernels.cfg.curvature)
                writer.writerow([idx, step, f"{x:.17g}", f"{y:.17g}"])
