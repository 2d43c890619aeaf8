"""Vectorized Lorentz-model math over rows of (d+1)-vectors.

Counterpart of :mod:`hkconv.manifold` for arrays: every function takes
rows along the leading axes and accepts plain ndarrays or autodiff
Tensors interchangeably. Branches around the 0/0 limits of the maps are
expressed through even functions of the squared tangent norm, so both
the values and the adjoints stay finite at coincident points.

The recentering ``ominus`` is one closed-form Lorentz boost, not the
exp(PT(log)) chain of the typed ``manifold`` maps: it agrees with that
chain to rounding and keeps distances exact where the chain's acosh/sinh
round trip does not. Its raw-array forward and adjoint (``_boost``,
``_boost_backward``), like those of ``normalize_timelike``
(``_normalized``, ``_normalized_backward``), are shared with the conv
layers' edge node, which applies them inside one tape node. ``ominus``
itself stays as the tests' chain reference for that node and as the name
the bench tracer hooks to time the recentering.

Kernel placement steps its points with ``_exp``, the exponential map on
raw arrays; no model path differentiates through one, so it has no tape
op, and it evaluates ``_cosh_sinhc``'s expressions in NumPy directly
rather than through the autodiff primitives' dispatch.

Every row-wise contraction (Lorentz inner products, squared norms, the
boost's and the normalization's dot products) goes through
``autodiff._rowdot``, one einsum pass over unit-stride rows with no
product temporary and no BLAS call; ``embed``'s squared norm is its tape
node ``autodiff.rowdot``. NumPy's einsum adds a row's products in another
order when the contracted axis is not unit-stride (a Fortran-ordered or
reversed operand), so ``_rowdot`` copies such an operand first: a row's
bits then do not depend on the layout of the array that holds it.

Raw arrays carry no validation; the typed wrappers in ``manifold`` and
``layers`` own that. Points produced here satisfy the constraint
analytically and the time component is recomputed where cheap to keep
long compositions pinned to the manifold.
"""

from __future__ import annotations

import functools
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


@functools.cache
def metric_row(dim: int) -> np.ndarray:
    """Diagonal of the Lorentz metric, shape (dim+1,); one shared read-only
    row per dimension."""
    row = np.ones(dim + 1)
    row[0] = -1.0
    row.flags.writeable = False
    return row


def origin_row(dim: int, kappa: float) -> np.ndarray:
    row = np.zeros(dim + 1)
    row[0] = 1.0 / math.sqrt(-kappa)
    return row


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return ad._rowdot(x, metric_row(x.shape[-1] - 1) * y)


def _inner_vjps(g, x, y, needs):
    """Adjoints of x and y for the adjoint g of _inner(x, y)."""
    g = g[..., None]
    metric = metric_row(x.shape[-1] - 1)
    gx = ad._unbroadcast(g * (metric * y), x.shape) if needs[0] else None
    gy = ad._unbroadcast(g * x * metric, y.shape) if needs[1] else None
    return gx, gy


def _time(spatial: np.ndarray, kappa: float) -> np.ndarray:
    """The time column that puts the spatial rows on the manifold."""
    return np.sqrt(ad._rowdot(spatial, spatial)[..., None] - 1.0 / kappa)


def _lifted(spatial: np.ndarray, kappa: float) -> np.ndarray:
    return np.concatenate([_time(spatial, kappa), spatial], axis=-1)


def _lifted_vjp(g: np.ndarray, out: np.ndarray, spatial: np.ndarray) -> np.ndarray:
    """Adjoint of the spatial rows for the adjoint g of _lifted's output."""
    return g[..., 1:] + g[..., :1] / out[..., :1] * spatial


def _acosh_adjoint(g: np.ndarray, z: np.ndarray, kappa: float) -> np.ndarray:
    """Adjoint of <x,y>_L for the adjoint g of acosh(max(kappa <x,y>_L, 1)) / sqrt(-kappa):
    ad.arccosh's guarded adjoint, chained through both scale factors."""
    return ad._arccosh_adjoint(g / math.sqrt(-kappa), z) * kappa


def _dist(a: np.ndarray, b: np.ndarray, kappa: float):
    """Row-wise distance on raw arrays -> (distance, clamped acosh argument z)."""
    z = np.maximum(kappa * _inner(a, b), 1.0)
    return np.arccosh(z) / math.sqrt(-kappa), z


def dist(x, y, kappa: float):
    """Row-wise geodesic distance with the acosh argument clamped to [1, inf)."""

    def forward(a, b):
        d, z = _dist(a, b, kappa)
        return d, (a, b, z)

    def backward(g, saved, needs):
        a, b, z = saved
        return _inner_vjps(_acosh_adjoint(g, z, kappa), a, b, needs)

    return ad._lift("dist", (x, y), forward, backward)


def cross_dist(x, y, kappa: float):
    """All-pairs geodesic distances: (N, d+1) x (M, d+1) -> (N, M)."""

    def forward(a, b):
        scaled = metric_row(b.shape[-1] - 1) * b
        z = np.maximum(kappa * (a @ scaled.T), 1.0)
        return np.arccosh(z) / math.sqrt(-kappa), (a, scaled, z)

    def backward(g, saved, needs):
        a, scaled, z = saved
        g = _acosh_adjoint(g, z, kappa)
        gx = g @ scaled if needs[0] else None
        gy = (a.T @ g).T * metric_row(a.shape[-1] - 1) if needs[1] else None
        return gx, gy

    return ad._lift("cross_dist", (x, y), forward, backward)


def _cosh_sinhc(phi2):
    """cosh(phi) and sinh(phi)/phi as smooth functions of phi^2 >= 0."""
    small = ad.value_of(phi2) < _PHI2_MIN
    phi = ad.sqrt(ad.clamp_min(phi2, _PHI2_MIN))
    cosh_phi = ad.where(small, 1.0 + phi2 / 2.0, ad.cosh(phi))
    sinhc_phi = ad.where(small, 1.0 + phi2 / 6.0, ad.sinh(phi) / phi)
    return cosh_phi, sinhc_phi


def _exp(x: np.ndarray, v: np.ndarray, kappa: float) -> np.ndarray:
    """Row-wise exponential map on raw arrays: follow geodesics from x with
    velocity v. The time column is solved from the spatial part, which
    pins the rows to the manifold however long the chain of steps."""
    phi2 = (-kappa) * np.maximum(_inner(v, v), 0.0)
    # _cosh_sinhc's expressions, without its tape dispatch
    small = phi2 < _PHI2_MIN
    phi = np.sqrt(np.maximum(phi2, _PHI2_MIN))
    cosh_phi = np.where(small, 1.0 + phi2 / 2.0, np.cosh(phi))
    sinhc_phi = np.where(small, 1.0 + phi2 / 6.0, np.sinh(phi) / phi)
    return _lifted(cosh_phi[..., None] * x[..., 1:] + sinhc_phi[..., None] * v[..., 1:], kappa)


def _boost(u: np.ndarray, x: np.ndarray, kappa: float):
    """The recentering boost on raw rows -> (u (-) x, (a, shift, c)): the
    rows and the per-row scalars its adjoint reads (see ominus)."""
    s = math.sqrt(-kappa)
    a = ad._rowdot(x[..., 1:], u[..., 1:])[..., None]
    shift = 1.0 + s * x[..., :1]
    c = (-kappa) * a / shift - s * u[..., :1]
    return _boosted(u, x, c, kappa), (a, shift, c)


def _boosted(u: np.ndarray, x: np.ndarray, c: np.ndarray, kappa: float) -> np.ndarray:
    """The boost's rows from its per-row coefficient c."""
    return _lifted(u[..., 1:] + c * x[..., 1:], kappa)


def _boost_backward(g, u, x, out, a, shift, c, kappa: float, needs):
    """Adjoints of u and x (None where needs is false) for the adjoint g
    of the boost's rows out."""
    s = math.sqrt(-kappa)
    g_spatial = _lifted_vjp(g, out, out[..., 1:])
    g_c = ad._rowdot(g_spatial, x[..., 1:])[..., None]
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

    def forward(u, x):
        out, kept = _boost(u, x, kappa)
        return out, (u, x, out, kept)

    def backward(g, saved, needs):
        u, x, out, kept = saved
        return _boost_backward(g, u, x, out, *kept, kappa, needs)

    return ad._lift("ominus", (u, x), forward, backward)


def embed(z, kappa: float):
    """Map Euclidean rows into the manifold through exp at the origin.

    Smooth in z including z = 0, so gradients flow through zero features.
    """
    q = ad.rowdot(z, z)
    q = ad.reshape(q, ad.value_of(q).shape + (1,))
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


def _normalized(v: np.ndarray, kappa: float):
    """The centroid normalization on raw rows -> (rows, (sign, denom)): the
    rows on the manifold and what the adjoint reads."""
    square = _inner(v, v)
    denom = math.sqrt(-kappa) * np.sqrt(np.abs(square))
    return v / denom[..., None], (np.sign(square), denom)


def _normalized_backward(g, out, sign, denom, kappa: float) -> np.ndarray:
    """Adjoint of the unnormalized rows for the adjoint g of the rows out."""
    # d denom / d v = -kappa * sign<v,v>_L * metric * out
    along = ad._rowdot(g, out) * ((-kappa) * sign)
    metric = metric_row(out.shape[-1] - 1)
    return (g - along[..., None] * (metric * out)) / denom[..., None]


def normalize_timelike(u, kappa: float):
    """Scale a timelike ambient vector onto the manifold.

    u / (sqrt(-kappa) * |<u,u>_L|^(1/2)); the centroid normalization.
    """

    def forward(v):
        out, kept = _normalized(v, kappa)
        return out, (out, kept)

    def backward(g, saved, needs):
        out, kept = saved
        return (_normalized_backward(g, out, *kept, kappa),)

    return ad._lift("normalize_timelike", (u,), forward, backward)


def poincare_projection(points: np.ndarray, kappa: float) -> np.ndarray:
    """Poincare-disk coordinates x_s / (1 + sqrt(-kappa) x_t) for plotting."""
    points = np.asarray(points, dtype=np.float64)
    return points[..., 1:] / (1.0 + math.sqrt(-kappa) * points[..., :1])
