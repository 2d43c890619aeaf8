"""Fused Lorentz maps against the chains of primitives they replace.

Each fused op (dist, cross_dist, normalize_timelike) is one tape node. The
oracles below rebuild it from autodiff primitives, contracting rows with
ad.rowdot as lmath does: forwards must agree bit for bit, adjoints to 1e-12
relative. The raw-array exponential map _exp, which kernel placement
steps with, must give the bits of the exp oracle on plain arrays, series
branch, zero velocity and the whole embedding range included. The
recentering ominus is a closed-form boost, not the exp(PT(log)) chain kept
here as its oracle, so it agrees with the chain to rounding only; it is
also checked against finite differences and for exact distances across
the embedding's working range. Also that range: the residual sweep behind
EMBED_MAX_RADIUS and the guard that enforces it.
"""

import math

import numpy as np
import pytest

from hkconv import autodiff as ad
from hkconv import lmath
from hkconv.errors import DomainError

KAPPAS = (-1.0, -0.3)
GRAD_RTOL = 1e-12
_LOG_SERIES_H = 1e-6  # where the log oracle switches to its series form


# ---------------------------------------------------------------------------
# composite oracles


def _inner(x, y):
    dim = ad.value_of(x).shape[-1] - 1
    return ad.rowdot(x, lmath.metric_row(dim) * y)


def _from_spatial(spatial, kappa):
    time = ad.sqrt(_col(ad.rowdot(spatial, spatial)) - 1.0 / kappa)
    return ad.concatenate([time, spatial], axis=-1)


def _time_normalized(x, kappa):
    return _from_spatial(x[..., 1:], kappa)


def _dist(x, y, kappa):
    z = ad.clamp_min(kappa * _inner(x, y), 1.0)
    return ad.arccosh(z) / math.sqrt(-kappa)


def _cross_dist(x, y, kappa):
    dim = ad.value_of(x).shape[-1] - 1
    z = ad.clamp_min(kappa * ad.matmul(x, ad.transpose(lmath.metric_row(dim) * y)), 1.0)
    return ad.arccosh(z) / math.sqrt(-kappa)


def _normalize_timelike(u, kappa):
    sq = ad.absolute(_inner(u, u))
    denom = math.sqrt(-kappa) * ad.sqrt(sq)
    return u / ad.reshape(denom, ad.value_of(denom).shape + (1,))


def _col(t):
    return ad.reshape(t, ad.value_of(t).shape + (1,))


def _exp(x, v, kappa):
    phi2 = (-kappa) * ad.clamp_min(_inner(v, v), 0.0)
    small = ad.value_of(phi2) < lmath._PHI2_MIN
    phi = ad.sqrt(ad.clamp_min(phi2, lmath._PHI2_MIN))
    cosh_phi = ad.where(small, 1.0 + phi2 / 2.0, ad.cosh(phi))
    sinhc_phi = ad.where(small, 1.0 + phi2 / 6.0, ad.sinh(phi) / phi)
    return _time_normalized(_col(cosh_phi) * x + _col(sinhc_phi) * v, kappa)


def _log(x, u, kappa):
    psi = ad.clamp_min(kappa * _inner(x, u), 1.0)
    h = psi - 1.0
    small = ad.value_of(h) < _LOG_SERIES_H
    safe = ad.clamp_min(psi * psi - 1.0, _LOG_SERIES_H * _LOG_SERIES_H)
    factor = ad.where(small, 1.0 - h / 3.0, ad.arccosh(psi) / ad.sqrt(safe))
    w = u - _col(psi) * x
    w = w - kappa * _col(_inner(x, w)) * x
    return _col(factor) * w


def _parallel_transport(x, y, v, kappa):
    denom = -1.0 / kappa - _inner(x, y)
    out = v + _col(_inner(y, v) / denom) * (x + y)
    return out - kappa * _col(_inner(y, out)) * y


def _ominus(u, x, kappa):
    o = lmath.origin_row(ad.value_of(u).shape[-1] - 1, kappa)
    return _exp(o, _parallel_transport(x, o, _log(x, u, kappa), kappa), kappa)


# ---------------------------------------------------------------------------
# helpers


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _points(rng, n, dim, kappa, scale=0.8):
    return lmath.embed(scale * rng.standard_normal((n, dim)), kappa)


def _tangent(x, rng, kappa, scale=0.5):
    w = scale * rng.standard_normal(x.shape)
    return w - kappa * lmath._inner(x, w)[..., None] * x


def _assert_same_forward(fused, composite, args):
    """Equal bits with plain arrays and with every argument a leaf tensor."""
    assert np.array_equal(_bits(fused(*args)), _bits(composite(*args)))
    leaves = [ad.Tensor(a) for a in args]
    assert np.array_equal(_bits(fused(*leaves).value), _bits(composite(*leaves).value))


def _assert_same_adjoints(fused, composite, args, rng, differentiable=None, rtol=GRAD_RTOL):
    """Adjoints of sum(G * f(args)) agree per argument to rtol of the
    oracle's largest |adjoint|."""
    out_shape = np.shape(composite(*args))
    weights = rng.standard_normal(out_shape)
    names = [f"a{i}" for i in range(len(args))]
    differentiable = differentiable or names
    store = ad.ParamStore()
    for name, a in zip(names, args):
        store.add(name, a)

    def loss_of(fn):
        def loss(leaves):
            inputs = [leaves[n] if n in differentiable else store[n] for n in names]
            return ad.sum(fn(*inputs) * weights)

        return loss

    got = ad.grad(loss_of(fused), store)
    want = ad.grad(loss_of(composite), store)
    for name in differentiable:
        scale = max(np.max(np.abs(want[name])), 1e-300)
        assert np.max(np.abs(got[name] - want[name])) <= rtol * scale, name
        assert np.all(np.isfinite(got[name]))


# ---------------------------------------------------------------------------
# fused ops


def _pairs(kappa):
    """(fused op, composite oracle) by name, curvature bound."""
    return {
        "dist": (lambda a, b: lmath.dist(a, b, kappa), lambda a, b: _dist(a, b, kappa)),
        "cross_dist": (
            lambda a, b: lmath.cross_dist(a, b, kappa),
            lambda a, b: _cross_dist(a, b, kappa),
        ),
        "normalize_timelike": (
            lambda a: lmath.normalize_timelike(a, kappa),
            lambda a: _normalize_timelike(a, kappa),
        ),
    }


class TestFusedForwardsAreBitIdentical:
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_inner_dist_and_normalization(self, rng, kappa):
        ops = _pairs(kappa)
        x, y = _points(rng, 40, 5, kappa), _points(rng, 40, 5, kappa)
        _assert_same_forward(*ops["dist"], (x, y))
        _assert_same_forward(*ops["dist"], (x, y[3]))
        _assert_same_forward(*ops["cross_dist"], (x, y[:7]))
        _assert_same_forward(*ops["normalize_timelike"], (x + 0.5 * y,))

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_maps_built_on_them(self, rng, kappa):
        # the raw exponential map on plain arrays, from points and along
        # velocities across the embedding range
        s = math.sqrt(-kappa)
        for dim in (4, 9, 16):
            x = _points(rng, 40, dim, kappa)
            v = _tangent(x, rng, kappa)
            lengths = np.sqrt(np.maximum(lmath._inner(v, v), 0.0))[:, None]
            # radii s |v| from 0 (row 0) to EMBED_MAX_RADIUS over the rows
            v *= np.linspace(0.0, lmath.EMBED_MAX_RADIUS, 40)[:, None] / (s * lengths)
            v[1:4] *= 1e-9  # below _PHI2_MIN: the series branch
            v[4] = 0.0  # zero velocity: exp lands on x itself
            phi2 = (-kappa) * lmath._inner(v, v)
            assert np.sum(phi2 < lmath._PHI2_MIN) >= 5
            got = lmath._exp(x, v, kappa)
            assert np.array_equal(_bits(got), _bits(_exp(x, v, kappa)))


class TestFusedAdjointsMatchComposites:
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_dist_at_coincident_points_and_broadcast(self, rng, kappa):
        d, ref = _pairs(kappa)["dist"]
        x, y = _points(rng, 20, 3, kappa), _points(rng, 20, 3, kappa)
        y[:4] = x[:4]  # the acosh guard zeroes these rows' adjoints
        _assert_same_adjoints(d, ref, (x, y), rng)
        _assert_same_adjoints(d, ref, (x, y[5]), rng)
        _assert_same_adjoints(d, ref, (x, y[5]), rng, differentiable=["a0"])
        _assert_same_adjoints(lambda a: d(a, a), lambda a: ref(a, a), (x,), rng)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_cross_dist(self, rng, kappa):
        x, y = _points(rng, 12, 3, kappa), _points(rng, 5, 3, kappa)
        x[0] = y[2]
        _assert_same_adjoints(*_pairs(kappa)["cross_dist"], (x, y), rng)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_lifts_and_normalization(self, rng, kappa):
        ops = _pairs(kappa)
        u = _points(rng, 15, 4, kappa) + 0.3 * _points(rng, 15, 4, kappa)
        _assert_same_adjoints(*ops["normalize_timelike"], (u,), rng)

    def test_each_fused_op_is_one_tape_node(self, rng):
        x = ad.Tensor(_points(rng, 6, 3, -1.0))
        y = ad.Tensor(_points(rng, 6, 3, -1.0))
        for out in (
            lmath.dist(x, y, -1.0),
            lmath.cross_dist(x, y, -1.0),
            lmath.normalize_timelike(x, -1.0),
            lmath.ominus(x, y, -1.0),
        ):
            assert all(p.op == "leaf" for p in out.parents)


# ---------------------------------------------------------------------------
# recentering


class TestRecentering:
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_forward_matches_the_chain(self, rng, kappa):
        x, u = _points(rng, 30, 4, kappa), _points(rng, 30, 4, kappa)
        u[:3] = x[:3]  # coincident rows land on the origin
        for args in ((u, x), (ad.Tensor(u), ad.Tensor(x)), (u, x[5]), (u[5], x)):
            want = ad.value_of(_ominus(*args, kappa))
            got = ad.value_of(lmath.ominus(*args, kappa))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        origin = lmath.origin_row(4, kappa)
        assert np.max(np.abs(lmath.ominus(u, x, kappa)[:3] - origin)) <= 1e-15

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_adjoints_through_embed_match_the_chain(self, rng, kappa):
        # Ambient adjoints differ from the chain's off the tangent space. No
        # such component reaches a leaf, since every op upstream lands on the
        # manifold, so compare them through the embedding.
        def through_embed(f):
            return lambda a, b: f(lmath.embed(a, kappa), lmath.embed(b, kappa), kappa)

        z_u, z_x = 0.8 * rng.standard_normal((12, 4)), 0.8 * rng.standard_normal((12, 4))
        z_u[:2] = z_x[:2]
        fused, chain = through_embed(lmath.ominus), through_embed(_ominus)
        _assert_same_adjoints(fused, chain, (z_u, z_x), rng, rtol=1e-10)
        _assert_same_adjoints(fused, chain, (z_u, z_x[3]), rng, rtol=1e-10)

    def test_matches_finite_differences(self, rng):
        kappa = -0.3
        weights = rng.standard_normal((6, 4))

        def loss(leaves):
            return ad.sum(lmath.ominus(leaves["u"], leaves["x"], kappa) * weights)

        for roots in (6, 1):  # one root per row, and one root broadcast to all
            store = ad.ParamStore()
            store.add("u", _points(rng, 6, 3, kappa))
            x = _points(rng, roots, 3, kappa)
            store.add("x", x[0] if roots == 1 else x)
            assert max(ad.finite_diff_check(loss, store).values()) <= 1e-7
            assert all(g.shape == store[p].shape for p, g in ad.grad(loss, store).items())

    @pytest.mark.parametrize("kappa", (-1.0, -0.25, -4.0))
    def test_distance_from_the_origin_is_exact_across_the_embedding_range(self, kappa):
        # d(o, u (-) x) = d(u, x); the exp(PT(log)) chain loses this to its
        # acosh/sinh round trip (1.5e-9 relative at radius 8, 6e-7 at 11)
        rng = np.random.default_rng(11)
        s = math.sqrt(-kappa)
        origin = lmath.origin_row(4, kappa)
        for radius in np.arange(1.0, lmath.EMBED_MAX_RADIUS + 0.01, 1.0):
            z_u, z_x = rng.standard_normal((200, 4)), rng.standard_normal((200, 4))
            z_u /= s * np.linalg.norm(z_u, axis=1, keepdims=True)
            z_x /= s * np.linalg.norm(z_x, axis=1, keepdims=True)
            z_u *= radius * rng.uniform(size=(200, 1))
            z_x *= radius
            u, x = lmath.embed(z_u, kappa), lmath.embed(z_x, kappa)
            want = lmath.dist(u, x, kappa)
            got = lmath.dist(origin, lmath.ominus(u, x, kappa), kappa)
            assert np.max(np.abs(got - want) / want) <= 1e-14, radius


# ---------------------------------------------------------------------------
# embedding range


def _embed_residual(radius, kappa, rng, rows=200):
    """Largest |kappa <x,x>_L - 1| of embed over random rows at one radius."""
    worst = 0.0
    for dim in (2, 3, 9, 16):
        z = rng.standard_normal((rows, dim))
        z *= radius / (math.sqrt(-kappa) * np.linalg.norm(z, axis=1, keepdims=True))
        x = lmath.embed(z, kappa)
        worst = max(worst, float(np.max(np.abs(kappa * lmath._inner(x, x) - 1.0))))
    return worst


class TestEmbedRange:
    @pytest.mark.parametrize("kappa", (-1.0, -0.25, -4.0))
    def test_residual_sweep_sets_the_bound(self, kappa):
        rng = np.random.default_rng(7)
        bound = lmath.EMBED_MAX_RADIUS
        inside = [_embed_residual(r, kappa, rng) for r in np.arange(0.5, bound + 0.01, 0.5)]
        assert max(inside) <= lmath.EMBED_RESIDUAL_TOL
        # one unit further the tolerance is already lost: the bound is tight
        assert _embed_residual(bound + 1.0, kappa, rng) > lmath.EMBED_RESIDUAL_TOL

    def test_guard_names_the_first_row_beyond_the_bound(self):
        z = np.zeros((5, 3))
        z[2, 0] = 20.0
        z[4, 1] = 30.0
        with pytest.raises(DomainError, match=r"feature row 2 has norm 20\b"):
            lmath.check_embed_range(z, -1.0)
        # the radius scales with sqrt(-kappa): row 2 lies at radius 10 here
        with pytest.raises(DomainError, match="feature row 4"):
            lmath.check_embed_range(z, -0.25)
        lmath.check_embed_range(z[:4], -0.25)

    def test_guard_rejects_non_finite_rows(self):
        z = np.ones((3, 2))
        z[1, 1] = np.nan
        with pytest.raises(DomainError, match="feature row 1"):
            lmath.check_embed_range(z, -1.0)


def test_metric_row_is_one_shared_read_only_row_per_dimension():
    row = lmath.metric_row(4)
    np.testing.assert_array_equal(row, [-1.0, 1.0, 1.0, 1.0, 1.0])
    assert lmath.metric_row(4) is row
    assert not row.flags.writeable
    with pytest.raises(ValueError):
        row[1] = 2.0
