"""Lorentz-model (hyperboloid) primitives.

The model of hyperbolic space used throughout the package is the upper
hyperboloid sheet

    L^n = { x in R^(n+1) : <x,x>_L = 1/kappa, x_t > 0 },   kappa < 0,

where ``<x,y>_L = -x_t y_t + x_s . y_s`` is the Lorentz inner product,
``x_t = coords[0]`` is the time component and ``x_s = coords[1:]`` the
spatial component. All functions here are scalar (one point at a time),
validated, and written to be readable against the closed-form maps; the
vectorized differentiable counterparts live in ``hkconv.lmath`` and are
tested against this module.

Every operation is a pure function. Randomness is confined to explicit,
caller-owned generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, ParameterError

# Below this tangent norm the exponential map switches to its first-order
# form; the exact formula divides sinh(phi) by phi and is 0/0 at zero.
PHI_MIN = 1e-7

# Below this excess of the acosh argument over 1, the logarithmic map
# switches to a series for acosh(psi)/sqrt(psi^2-1), which is 0/0 at 1.
_LOG_SERIES_H = 1e-6

# Allowed violation of a constraint: |<v,x>_L| for a tangent vector v at
# x, and |<x,x>_L - 1/kappa| for a point x once scaled by
# max(1, -kappa x_t^2), since the rounding of <x,x>_L grows like eps x_t^2.
TOL_MANIFOLD = 1e-9


@dataclass(frozen=True)
class ManifoldConfig:
    """Curvature and dimension of one hyperboloid.

    :param dim: spatial dimension n of L^n, at least 1.
    :param curvature: constant negative curvature kappa (default -1).
    """

    dim: int
    curvature: float = -1.0

    def __post_init__(self):
        if int(self.dim) != self.dim or self.dim < 1:
            raise ParameterError(f"dim must be a positive integer, got {self.dim}")
        if not self.curvature < 0:
            raise ParameterError(f"curvature must be negative, got {self.curvature}")

    @property
    def radius(self) -> float:
        """Time component of the origin, (-kappa)^(-1/2)."""
        return 1.0 / math.sqrt(-self.curvature)


@dataclass(frozen=True, eq=False)
class LorentzPoint:
    """A point on the hyperboloid: an (n+1)-vector plus its config."""

    coords: np.ndarray
    cfg: ManifoldConfig

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.shape != (self.cfg.dim + 1,):
            raise DimensionError(
                f"expected {self.cfg.dim + 1} coords, got shape {coords.shape}"
            )
        object.__setattr__(self, "coords", coords)
        if not coords[0] > 0:
            raise DomainError(f"time component must be positive, got {coords[0]}")
        gap = abs(lorentz_inner(coords, coords) - 1.0 / self.cfg.curvature)
        # written so that a NaN gap fails
        if not gap <= TOL_MANIFOLD * max(1.0, -self.cfg.curvature * coords[0] ** 2):
            raise DomainError(f"point violates manifold constraint by {gap:.3e}")

    @property
    def time_component(self) -> float:
        return float(self.coords[0])

    @property
    def spatial(self) -> np.ndarray:
        return self.coords[1:]


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A vector in the tangent space at ``base``; Lorentz-orthogonal to it."""

    base: LorentzPoint
    vec: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vec, dtype=np.float64)
        if vec.shape != self.base.coords.shape:
            raise DimensionError(
                f"tangent shape {vec.shape} does not match base {self.base.coords.shape}"
            )
        object.__setattr__(self, "vec", vec)
        gap = abs(lorentz_inner(vec, self.base.coords))
        if not gap <= TOL_MANIFOLD:
            raise DomainError(f"vector violates tangency by {gap:.3e}")

    def norm(self) -> float:
        """Lorentz norm sqrt(<v,v>_L); real on tangent spaces."""
        sq = lorentz_inner(self.vec, self.vec)
        return math.sqrt(max(sq, 0.0))


@dataclass(frozen=True, eq=False)
class WrappedNormalParams:
    """Mean, covariance and seed of a wrapped normal distribution."""

    mean: LorentzPoint
    cov: np.ndarray
    seed: int = 0

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=np.float64)
        n = self.mean.cfg.dim
        if cov.shape != (n, n):
            raise DimensionError(f"covariance must be {n}x{n}, got {cov.shape}")
        object.__setattr__(self, "cov", cov)
        if np.max(np.abs(cov - cov.T)) > 1e-12:
            raise ParameterError("covariance must be symmetric within 1e-12")
        if np.any(np.diag(cov) < 0):
            raise ParameterError("covariance diagonal must be nonnegative")
        if self.seed < 0:
            raise ParameterError("seed must be unsigned")


def lorentz_inner(x: np.ndarray, y: np.ndarray) -> float:
    """Lorentz inner product -x0*y0 + sum_i>=1 xi*yi of two raw vectors."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise DimensionError(f"need equal-length vectors of size >= 2, got {x.shape} and {y.shape}")
    return float(-x[0] * y[0] + x[1:] @ y[1:])


def origin(cfg: ManifoldConfig) -> LorentzPoint:
    """The hyperbolic origin ((-kappa)^(-1/2), 0, ..., 0)."""
    coords = np.zeros(cfg.dim + 1)
    coords[0] = cfg.radius
    return LorentzPoint(coords, cfg)


def _from_ambient(vec: np.ndarray, cfg: ManifoldConfig) -> LorentzPoint:
    """Build a point from an ambient vector, recomputing the time component.

    The maps below produce vectors that satisfy the constraint analytically;
    recomputing x_t = sqrt(|x_s|^2 - 1/kappa) pins the constraint back to
    machine precision so violations never accumulate across compositions.
    """
    coords = np.array(vec, dtype=np.float64)
    coords[0] = math.sqrt(coords[1:] @ coords[1:] - 1.0 / cfg.curvature)
    return LorentzPoint(coords, cfg)


def project_to_manifold(raw_spatial: np.ndarray, cfg: ManifoldConfig) -> LorentzPoint:
    """Lift a spatial n-vector onto the hyperboloid by solving for x_t."""
    raw = np.asarray(raw_spatial, dtype=np.float64)
    if raw.shape != (cfg.dim,):
        raise DimensionError(f"expected spatial dim {cfg.dim}, got shape {raw.shape}")
    coords = np.concatenate(([0.0], raw))
    return _from_ambient(coords, cfg)


def tangent_projection(x: LorentzPoint, raw: np.ndarray) -> np.ndarray:
    """Project an ambient vector onto the tangent space at x.

    The projection is w -> w - kappa * <x,w>_L * x, the Lorentz-orthogonal
    complement of the base point (since <x,x>_L = 1/kappa).
    """
    raw = np.asarray(raw, dtype=np.float64)
    return raw - x.cfg.curvature * lorentz_inner(x.coords, raw) * x.coords


def _check_same_cfg(x: LorentzPoint, y: LorentzPoint):
    if x.cfg.dim != y.cfg.dim or x.cfg.curvature != y.cfg.curvature:
        raise DimensionError("points live on different manifolds")


def distance(x: LorentzPoint, y: LorentzPoint) -> float:
    """Geodesic distance (-kappa)^(-1/2) * acosh(kappa * <x,y>_L).

    The acosh argument is clamped to [1, inf); it is >= 1 analytically and
    can dip below only by roundoff for nearly coincident points.
    """
    _check_same_cfg(x, y)
    if np.array_equal(x.coords, y.coords):
        return 0.0
    kappa = x.cfg.curvature
    arg = max(1.0, kappa * lorentz_inner(x.coords, y.coords))
    return math.acosh(arg) / math.sqrt(-kappa)


def exp_map(v: TangentVector) -> LorentzPoint:
    """Follow the geodesic from v.base with initial velocity v for unit time.

    exp_x(v) = cosh(phi) x + sinh(phi)/phi * v with phi = sqrt(-kappa) |v|_L.
    For phi < PHI_MIN the first-order form cosh(phi) x + v is used.
    """
    x = v.base
    kappa = x.cfg.curvature
    sq = lorentz_inner(v.vec, v.vec)
    if sq < -TOL_MANIFOLD:
        raise DomainError(f"tangent vector has negative square norm {sq:.3e}")
    phi = math.sqrt(-kappa) * math.sqrt(max(sq, 0.0))
    if phi == 0.0:
        return x
    if phi < PHI_MIN:
        return _from_ambient(math.cosh(phi) * x.coords + v.vec, x.cfg)
    out = math.cosh(phi) * x.coords + (math.sinh(phi) / phi) * v.vec
    return _from_ambient(out, x.cfg)


def log_map(x: LorentzPoint, u: LorentzPoint) -> TangentVector:
    """Initial velocity of the geodesic from x reaching u at unit time.

    log_x(u) = acosh(psi)/sqrt(-kappa) * (u - psi x)/|u - psi x|_L with
    psi = kappa <x,u>_L. Since <u - psi x, u - psi x>_L = (psi^2 - 1)/(-kappa),
    this reduces to the curvature-free form acosh(psi)/sqrt(psi^2-1) * (u - psi x),
    whose scalar factor tends to 1 as psi -> 1; a short series handles that
    limit (including psi == 1, where the factor is exactly 1 and the ambient
    difference u - x already carries the direction). Bitwise-equal inputs
    return the zero vector exactly.
    """
    _check_same_cfg(x, u)
    if np.array_equal(x.coords, u.coords):
        return TangentVector(x, np.zeros_like(x.coords))
    kappa = x.cfg.curvature
    psi = max(1.0, kappa * lorentz_inner(x.coords, u.coords))
    h = psi - 1.0
    if h < _LOG_SERIES_H:
        factor = 1.0 - h / 3.0
    else:
        factor = math.acosh(psi) / math.sqrt(psi * psi - 1.0)
    w = u.coords - psi * x.coords
    # analytically tangent already; one projection absorbs roundoff
    w = w - kappa * lorentz_inner(x.coords, w) * x.coords
    return TangentVector(x, factor * w)


def parallel_transport(x: LorentzPoint, y: LorentzPoint, v: TangentVector) -> TangentVector:
    """Transport v from the tangent space at x to the one at y.

    PT_{x->y}(v) = v + <y,v>_L / (-1/kappa - <x,y>_L) * (x + y).
    A linear isometry of tangent spaces along the connecting geodesic.
    """
    _check_same_cfg(x, y)
    if v.base is not x and not np.array_equal(v.base.coords, x.coords):
        raise DomainError("tangent vector is not based at the source point")
    kappa = x.cfg.curvature
    denom = -1.0 / kappa - lorentz_inner(x.coords, y.coords)
    if abs(denom) < 1e-12:
        raise DomainError("parallel transport degenerate: antipodal directions")
    out = v.vec + (lorentz_inner(y.coords, v.vec) / denom) * (x.coords + y.coords)
    out = out - kappa * lorentz_inner(y.coords, out) * y.coords
    return TangentVector(y, out)


def translate(x: LorentzPoint, y: LorentzPoint, u: LorentzPoint) -> LorentzPoint:
    """Move u the way the geodesic from x to y moves: exp_y(PT_{x->y}(log_x(u)))."""
    return exp_map(parallel_transport(x, y, log_map(x, u)))


def ominus(u: LorentzPoint, x: LorentzPoint) -> LorentzPoint:
    """Relative position of u with respect to x: translate u by x -> origin.

    Satisfies x ominus x = origin and d(origin, u ominus x) = d(x, u).
    """
    return translate(x, origin(x.cfg), u)


def embed_euclidean(z: np.ndarray, cfg: ManifoldConfig) -> LorentzPoint:
    """Map a Euclidean n-vector onto the manifold via exp at the origin.

    The vector is zero-padded to (0, z), which is tangent at the origin by
    construction, then pushed through the exponential map.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (cfg.dim,):
        raise DimensionError(f"expected length {cfg.dim}, got shape {z.shape}")
    padded = np.concatenate(([0.0], z))
    return exp_map(TangentVector(origin(cfg), padded))


def sample_wrapped_normal(
    params: WrappedNormalParams,
    cfg: ManifoldConfig | None = None,
    rng: np.random.Generator | None = None,
) -> LorentzPoint:
    """Draw one point from the wrapped normal centered at params.mean.

    A Euclidean sample e ~ N(0, cov) is embedded at the origin and carried
    to the mean: exp_mu(PT_{o->mu}(log_o(embed(e)))). Deterministic given
    the seed; pass ``rng`` to draw a stream of samples from one generator.
    """
    mu = params.mean
    cfg = cfg or mu.cfg
    if rng is None:
        rng = np.random.Generator(np.random.Philox(key=params.seed))
    eigvals, eigvecs = np.linalg.eigh(params.cov)
    if np.min(eigvals) < -1e-12:
        raise ParameterError(f"covariance not PSD: min eigenvalue {np.min(eigvals):.3e}")
    factor = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    e = factor @ rng.standard_normal(cfg.dim)
    x = embed_euclidean(e, cfg)
    o = origin(cfg)
    return exp_map(parallel_transport(o, mu, log_map(o, x)))


def random_point(rng: np.random.Generator, cfg: ManifoldConfig, half_width: float = 2.0) -> LorentzPoint:
    """Random test point: spatial coords uniform in [-half_width, half_width],
    lifted onto the manifold. Keeps samples in a numerically benign shell."""
    return project_to_manifold(rng.uniform(-half_width, half_width, size=cfg.dim), cfg)


def random_tangent(
    rng: np.random.Generator, x: LorentzPoint, norm: float | None = None
) -> TangentVector:
    """Random tangent vector at x, optionally rescaled to a target Lorentz norm."""
    raw = rng.uniform(-1.0, 1.0, size=x.cfg.dim + 1)
    w = tangent_projection(x, raw)
    if norm is not None:
        sq = lorentz_inner(w, w)
        current = math.sqrt(max(sq, 0.0))
        if current < 1e-15:
            return random_tangent(rng, x, norm)
        w = w * (norm / current)
    return TangentVector(x, w)
