"""Vectorized Lorentz-model math over rows of (d+1)-vectors.

Counterpart of :mod:`hkconv.manifold` for arrays: every function takes
rows along the leading axes and accepts plain ndarrays or autodiff
Tensors interchangeably. Branches around the 0/0 limits of the maps are
expressed through even functions of the squared tangent norm, so both
the values and the adjoints stay finite at coincident points.

The recentering ``ominus`` that the conv layers apply to every edge is
one closed-form Lorentz boost, not the exp(PT(log)) chain of the typed
``manifold`` maps: it agrees with that chain to rounding and keeps
distances exact where the chain's acosh/sinh round trip does not.

Raw arrays carry no validation; the typed wrappers in ``manifold`` and
``layers`` own that. Points produced here satisfy the constraint
analytically and the time component is recomputed where cheap to keep
long compositions pinned to the manifold.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .errors import DomainError
from .manifold import PHI_MIN

# squared-norm switch point for the series forms of cosh/sinhc
_PHI2_MIN = PHI_MIN * PHI_MIN

# Largest radius sqrt(-kappa) * |z| that embed lifts with a constraint
# residual |kappa <x,x>_L - 1| of at most EMBED_RESIDUAL_TOL. The residual
# grows like eps * cosh(r)^2, about 7.4x per unit of radius, whatever the
# curvature; tests/test_lmath.py sweeps it on both sides of the bound.
EMBED_MAX_RADIUS = 11.0
EMBED_RESIDUAL_TOL = 1e-6


def metric_row(dim: int) -> np.ndarray:
    """Diagonal of the Lorentz metric, shape (dim+1,)."""
    row = np.ones(dim + 1)
    row[0] = -1.0
    return row


def origin_row(dim: int, kappa: float) -> np.ndarray:
    row = np.zeros(dim + 1)
    row[0] = 1.0 / math.sqrt(-kappa)
    return row


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.sum(x * (metric_row(x.shape[-1] - 1) * y), axis=-1)


def _inner_vjps(g, x, y, needs):
    """Adjoints of x and y for the adjoint g of inner(x, y)."""
    g = g[..., None]
    metric = metric_row(x.shape[-1] - 1)
    gx = ad._unbroadcast(g * (metric * y), x.shape) if needs[0] else None
    gy = ad._unbroadcast(g * x * metric, y.shape) if needs[1] else None
    return gx, gy


def inner(x, y):
    """Row-wise Lorentz inner product along the last axis (one tape op)."""
    return ad._lift_joint(
        "inner",
        (x, y),
        lambda a, b: (_inner(a, b), (a, b)),
        lambda g, saved, needs: _inner_vjps(g, *saved, needs),
    )


def _lifted(spatial: np.ndarray, kappa: float) -> np.ndarray:
    time = np.sqrt(np.sum(spatial * spatial, axis=-1, keepdims=True) - 1.0 / kappa)
    return np.concatenate([time, spatial], axis=-1)


def _lifted_vjp(g: np.ndarray, out: np.ndarray, spatial: np.ndarray) -> np.ndarray:
    """Adjoint of the spatial rows for the adjoint g of _lifted's output."""
    return g[..., 1:] + g[..., :1] / out[..., :1] * spatial


def time_normalized(x, kappa: float):
    """Recompute the time component from the spatial part.

    Identity on the manifold; numerically it pins the constraint back to
    machine precision after a chain of maps.
    """

    def maker(out, x):
        def vjp(g):
            gx = np.zeros_like(x)
            gx[..., 1:] = _lifted_vjp(g, out, x[..., 1:])
            return gx

        return vjp

    return ad._lift("time_normalized", (x,), lambda x: _lifted(x[..., 1:], kappa), (maker,))


def _acosh_adjoint(g: np.ndarray, z: np.ndarray, kappa: float) -> np.ndarray:
    """Adjoint of <x,y>_L for the adjoint g of acosh(max(kappa <x,y>_L, 1)) / sqrt(-kappa).

    Zero where the argument is within ACOSH_GRAD_GUARD of 1, like
    ad.arccosh; the clamp is active only there.
    """
    safe = z > 1.0 + ad.ACOSH_GRAD_GUARD
    denom = np.sqrt(np.where(safe, z * z - 1.0, 1.0))
    return np.where(safe, (g / math.sqrt(-kappa)) / denom, 0.0) * kappa


def dist(x, y, kappa: float):
    """Row-wise geodesic distance with the acosh argument clamped to [1, inf)."""

    def forward(a, b):
        z = np.maximum(kappa * _inner(a, b), 1.0)
        return np.arccosh(np.maximum(z, 1.0)) / math.sqrt(-kappa), (a, b, z)

    def backward(g, saved, needs):
        a, b, z = saved
        return _inner_vjps(_acosh_adjoint(g, z, kappa), a, b, needs)

    return ad._lift_joint("dist", (x, y), forward, backward)


def cross_dist(x, y, kappa: float):
    """All-pairs geodesic distances: (N, d+1) x (M, d+1) -> (N, M)."""

    def forward(a, b):
        scaled = metric_row(b.shape[-1] - 1) * b
        z = np.maximum(kappa * (a @ scaled.T), 1.0)
        return np.arccosh(np.maximum(z, 1.0)) / math.sqrt(-kappa), (a, scaled, z)

    def backward(g, saved, needs):
        a, scaled, z = saved
        g = _acosh_adjoint(g, z, kappa)
        gx = g @ scaled if needs[0] else None
        gy = (a.T @ g).T * metric_row(a.shape[-1] - 1) if needs[1] else None
        return gx, gy

    return ad._lift_joint("cross_dist", (x, y), forward, backward)


def _cosh_sinhc(phi2):
    """cosh(phi) and sinh(phi)/phi as smooth functions of phi^2 >= 0."""
    small = ad.value_of(phi2) < _PHI2_MIN
    phi = ad.sqrt(ad.clamp_min(phi2, _PHI2_MIN))
    cosh_phi = ad.where(small, 1.0 + phi2 / 2.0, ad.cosh(phi))
    sinhc_phi = ad.where(small, 1.0 + phi2 / 6.0, ad.sinh(phi) / phi)
    return cosh_phi, sinhc_phi


def exp(x, v, kappa: float):
    """Row-wise exponential map: follow geodesics from x with velocity v."""
    phi2 = (-kappa) * ad.clamp_min(inner(v, v), 0.0)
    cosh_phi, sinhc_phi = _cosh_sinhc(phi2)
    cosh_col = ad.reshape(cosh_phi, ad.value_of(cosh_phi).shape + (1,))
    sinhc_col = ad.reshape(sinhc_phi, ad.value_of(sinhc_phi).shape + (1,))
    out = cosh_col * x + sinhc_col * v
    return time_normalized(out, kappa)


def ominus(u, x, kappa: float):
    """Relative position u (-) x: the boost that carries x to the origin,
    applied to u.

    This is exp_o(PT_{x->o}(log_x(u))), the isometry that moves x to the
    origin along their geodesic, in closed form. With s = sqrt(-kappa) and
    a = <x_s, u_s> the spatial dot product, it adds c * x_s to u_s,
    c = -kappa a / (1 + s x_t) - s u_t, and solves the time component from
    the result. One tape node. Without the chain's acosh/sinh round trip,
    d(o, u (-) x) = d(u, x) holds to rounding across the embedding range.
    """
    s = math.sqrt(-kappa)

    def forward(u, x):
        a = np.sum(x[..., 1:] * u[..., 1:], axis=-1, keepdims=True)
        shift = 1.0 + s * x[..., :1]
        c = (-kappa) * a / shift - s * u[..., :1]
        out = _lifted(u[..., 1:] + c * x[..., 1:], kappa)
        return out, (u, x, a, shift, c, out)

    def backward(g, saved, needs):
        u, x, a, shift, c, out = saved
        g_spatial = _lifted_vjp(g, out, out[..., 1:])
        g_c = np.sum(g_spatial * x[..., 1:], axis=-1, keepdims=True)
        g_a = (-kappa) * g_c / shift
        gu = gx = None
        if needs[0]:
            gu = np.concatenate([-s * g_c, g_spatial + g_a * x[..., 1:]], axis=-1)
            gu = ad._unbroadcast(gu, u.shape)
        if needs[1]:
            g_time = (kappa * s) * g_c * a / (shift * shift)
            gx = np.concatenate([g_time, c * g_spatial + g_a * u[..., 1:]], axis=-1)
            gx = ad._unbroadcast(gx, x.shape)
        return gu, gx

    return ad._lift_joint("ominus", (u, x), forward, backward)


def embed(z, kappa: float):
    """Map Euclidean rows into the manifold through exp at the origin.

    Smooth in z including z = 0, so gradients flow through zero features.
    """
    q = ad.sum(z * z, axis=-1, keepdims=True)
    phi2 = (-kappa) * q
    cosh_phi, sinhc_phi = _cosh_sinhc(phi2)
    time = cosh_phi / math.sqrt(-kappa)
    spatial = sinhc_phi * z
    return ad.concatenate([time, spatial], axis=-1)


def check_embed_range(z: np.ndarray, kappa: float) -> None:
    """Raise DomainError for the first row of z that embed cannot lift
    accurately: one whose radius sqrt(-kappa) * |z| exceeds EMBED_MAX_RADIUS
    (or is not finite)."""
    radius = math.sqrt(-kappa) * np.sqrt(np.sum(z * z, axis=-1))
    beyond = np.flatnonzero(~(radius <= EMBED_MAX_RADIUS))
    if beyond.size:
        row = int(beyond[0])
        raise DomainError(
            f"feature row {row} has norm {radius[row] / math.sqrt(-kappa):.6g}, radius "
            f"{radius[row]:.6g} at curvature {kappa:g}; embedding is accurate up to "
            f"radius {EMBED_MAX_RADIUS:g}, so rescale the features"
        )


def normalize_timelike(u, kappa: float):
    """Scale a timelike ambient vector onto the manifold.

    u / (sqrt(-kappa) * |<u,u>_L|^(1/2)); the centroid normalization.
    """

    def forward(v):
        square = _inner(v, v)
        denom = math.sqrt(-kappa) * np.sqrt(np.abs(square))
        out = v / denom[..., None]
        return out, (out, np.sign(square), denom)

    def backward(g, saved, needs):
        out, sign, denom = saved
        # d denom / d v = -kappa * sign<v,v>_L * metric * out
        along = np.sum(g * out, axis=-1) * ((-kappa) * sign)
        metric = metric_row(out.shape[-1] - 1)
        return ((g - along[..., None] * (metric * out)) / denom[..., None],)

    return ad._lift_joint("normalize_timelike", (u,), forward, backward)


def poincare_projection(points: np.ndarray, kappa: float) -> np.ndarray:
    """Poincare-disk coordinates x_s / (1 + sqrt(-kappa) x_t) for plotting."""
    points = np.asarray(points, dtype=np.float64)
    return points[..., 1:] / (1.0 + math.sqrt(-kappa) * points[..., :1])
