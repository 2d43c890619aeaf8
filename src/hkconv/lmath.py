"""Vectorized Lorentz-model math over rows of (d+1)-vectors.

Counterpart of :mod:`hkconv.manifold` for arrays: every function takes
rows along the leading axes and accepts plain ndarrays or autodiff
Tensors interchangeably. Branches around the 0/0 limits of the maps are
expressed through even functions of the squared tangent norm, so both
the values and the adjoints stay finite at coincident points.

Raw arrays carry no validation; the typed wrappers in ``manifold`` and
``layers`` own that. Points produced here satisfy the constraint
analytically and the time component is recomputed where cheap to keep
long compositions pinned to the manifold.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .manifold import PHI_MIN

# squared-norm switch point for the series forms of cosh/sinhc
_PHI2_MIN = PHI_MIN * PHI_MIN
_LOG_SERIES_H = 1e-6


def metric_row(dim: int) -> np.ndarray:
    """Diagonal of the Lorentz metric, shape (dim+1,)."""
    row = np.ones(dim + 1)
    row[0] = -1.0
    return row


def origin_row(dim: int, kappa: float) -> np.ndarray:
    row = np.zeros(dim + 1)
    row[0] = 1.0 / math.sqrt(-kappa)
    return row


def inner(x, y):
    """Row-wise Lorentz inner product along the last axis."""
    dim = ad.value_of(x).shape[-1] - 1
    return ad.sum(x * (metric_row(dim) * y), axis=-1)


def from_spatial(spatial, kappa: float):
    """Lift spatial rows onto the manifold by solving for the time component."""
    time = ad.sqrt(ad.sum(spatial * spatial, axis=-1, keepdims=True) - 1.0 / kappa)
    return ad.concatenate([time, spatial], axis=-1)


def time_normalized(x, kappa: float):
    """Recompute the time component from the spatial part.

    Identity on the manifold; numerically it pins the constraint back to
    machine precision after a chain of maps.
    """
    return from_spatial(x[..., 1:], kappa)


def dist(x, y, kappa: float):
    """Row-wise geodesic distance with the acosh argument clamped to [1, inf)."""
    z = ad.clamp_min(kappa * inner(x, y), 1.0)
    return ad.arccosh(z) / math.sqrt(-kappa)


def cross_inner(x, y):
    """All-pairs Lorentz inner products: (N, d+1) x (M, d+1) -> (N, M)."""
    dim = ad.value_of(x).shape[-1] - 1
    return ad.matmul(x, ad.transpose(metric_row(dim) * y))


def cross_dist(x, y, kappa: float):
    """All-pairs geodesic distances: (N, d+1) x (M, d+1) -> (N, M)."""
    z = ad.clamp_min(kappa * cross_inner(x, y), 1.0)
    return ad.arccosh(z) / math.sqrt(-kappa)


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


def log(x, u, kappa: float):
    """Row-wise logarithmic map; zero rows where u coincides with x."""
    psi = ad.clamp_min(kappa * inner(x, u), 1.0)
    h = psi - 1.0
    small = ad.value_of(h) < _LOG_SERIES_H
    safe = ad.clamp_min(psi * psi - 1.0, _LOG_SERIES_H * _LOG_SERIES_H)
    factor = ad.where(small, 1.0 - h / 3.0, ad.arccosh(psi) / ad.sqrt(safe))
    psi_col = ad.reshape(psi, ad.value_of(psi).shape + (1,))
    w = u - psi_col * x
    w = w - kappa * ad.reshape(inner(x, w), ad.value_of(w).shape[:-1] + (1,)) * x
    return ad.reshape(factor, ad.value_of(factor).shape + (1,)) * w


def parallel_transport(x, y, v, kappa: float):
    """Row-wise tangent transport from x to y along connecting geodesics."""
    denom = -1.0 / kappa - inner(x, y)
    coef = inner(y, v) / denom
    out = v + ad.reshape(coef, ad.value_of(coef).shape + (1,)) * (x + y)
    correction = inner(y, out)
    out = out - kappa * ad.reshape(correction, ad.value_of(correction).shape + (1,)) * y
    return out


def translate(x, y, u, kappa: float):
    """Row-wise point translation exp_y(PT_{x->y}(log_x(u)))."""
    return exp(y, parallel_transport(x, y, log(x, u, kappa), kappa), kappa)


def ominus(u, x, kappa: float):
    """Relative position u (-) x: translate u along the geodesic x -> origin."""
    dim = ad.value_of(u).shape[-1] - 1
    return translate(x, origin_row(dim, kappa), u, kappa)


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


def normalize_timelike(u, kappa: float):
    """Scale a timelike ambient vector onto the manifold.

    u / (sqrt(-kappa) * |<u,u>_L|^(1/2)); the centroid normalization.
    """
    sq = ad.absolute(inner(u, u))
    denom = math.sqrt(-kappa) * ad.sqrt(sq)
    return u / ad.reshape(denom, ad.value_of(denom).shape + (1,))


def poincare_projection(points: np.ndarray, kappa: float) -> np.ndarray:
    """Poincare-disk coordinates x_s / (1 + sqrt(-kappa) x_t) for plotting."""
    points = np.asarray(points, dtype=np.float64)
    return points[..., 1:] / (1.0 + math.sqrt(-kappa) * points[..., :1])
