"""Geometry core: constraint closure, inverse maps, transport, sampling."""

import math

import numpy as np
import pytest

from hkconv import lmath, manifold
from hkconv.errors import DimensionError, DomainError, ParameterError


def constraint_gap(p: manifold.LorentzPoint) -> float:
    inner = manifold.lorentz_inner(p.coords, p.coords)
    return abs(inner - 1.0 / p.cfg.curvature)


class TestConfigAndPoints:
    def test_origin_satisfies_constraint(self):
        for dim in (1, 2, 5):
            for kappa in (-1.0, -0.5, -2.0):
                cfg = manifold.ManifoldConfig(dim=dim, curvature=kappa)
                o = manifold.origin(cfg)
                assert constraint_gap(o) < 1e-15
                assert o.time_component == pytest.approx(1.0 / math.sqrt(-kappa))
                np.testing.assert_array_equal(o.spatial, np.zeros(dim))

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            manifold.ManifoldConfig(dim=0)
        with pytest.raises(ParameterError):
            manifold.ManifoldConfig(dim=2, curvature=0.0)
        with pytest.raises(ParameterError):
            manifold.ManifoldConfig(dim=2, curvature=1.0)

    def test_point_validation(self, cfg3):
        with pytest.raises(DimensionError):
            manifold.LorentzPoint(np.ones(3), cfg3)
        bad = np.array([-1.0, 0.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            manifold.LorentzPoint(bad, cfg3)
        off = np.array([2.0, 0.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            manifold.LorentzPoint(off, cfg3)
        with pytest.raises(DomainError):
            manifold.LorentzPoint(np.array([1.0, np.nan, 0.0, 0.0]), cfg3)

    @pytest.mark.parametrize("kappa", (-1.0, -0.3, -4.0))
    def test_exact_points_validate_up_to_the_embed_radius(self, kappa):
        # rounding in <x,x>_L grows like eps x_t^2, so the constraint check
        # scales with x_t^2: exact lifts of spatial parts and embed's own
        # outputs pass at every radius up to lmath.EMBED_MAX_RADIUS, and a
        # 1e-6 relative error in x_t still fails
        rng = np.random.default_rng(17)
        cfg = manifold.ManifoldConfig(dim=4, curvature=kappa)
        scale = math.sqrt(-kappa)
        for radius in (0.5, *range(int(lmath.EMBED_MAX_RADIUS) + 1)):
            units = rng.standard_normal((1000, 4))
            units /= np.linalg.norm(units, axis=1, keepdims=True)
            spatial = units * math.sinh(radius) / scale
            lifts = np.column_stack([np.sqrt(np.sum(spatial**2, axis=1) - 1.0 / kappa), spatial])
            embedded = np.asarray(lmath.embed(units * radius / scale, kappa))
            for coords in np.concatenate([lifts, embedded]):
                manifold.LorentzPoint(coords, cfg)
            if radius in (0.5, 5, 11):
                for coords in lifts[:20]:
                    with pytest.raises(DomainError):
                        manifold.LorentzPoint(coords * [1.0 + 1e-6, 1, 1, 1, 1], cfg)

    def test_tangent_validation(self, cfg3):
        o = manifold.origin(cfg3)
        with pytest.raises(DomainError):
            manifold.TangentVector(o, np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(DomainError):
            manifold.TangentVector(o, np.array([np.nan, 1.0, 0.0, 0.0]))
        v = manifold.TangentVector(o, np.array([0.0, 1.0, 2.0, 3.0]))
        assert v.norm() == pytest.approx(math.sqrt(14.0))

    def test_projection_lifts_onto_manifold(self, rng):
        for dim in (1, 3, 7):
            cfg = manifold.ManifoldConfig(dim=dim)
            for _ in range(50):
                p = manifold.project_to_manifold(rng.uniform(-3, 3, dim), cfg)
                assert constraint_gap(p) < 1e-12

    def test_tangent_projection_is_tangent_and_idempotent(self, cfg3, rng):
        for _ in range(50):
            x = manifold.random_point(rng, cfg3)
            raw = rng.uniform(-2, 2, cfg3.dim + 1)
            w = manifold.tangent_projection(x, raw)
            assert abs(manifold.lorentz_inner(w, x.coords)) < 1e-12
            w2 = manifold.tangent_projection(x, w)
            np.testing.assert_allclose(w2, w, rtol=0, atol=1e-12)


class TestMaps:
    def test_exp_log_roundtrip(self, rng):
        for dim in (2, 3, 6):
            cfg = manifold.ManifoldConfig(dim=dim)
            for _ in range(200):
                x = manifold.random_point(rng, cfg)
                v = manifold.random_tangent(rng, x, norm=float(rng.uniform(0.0, 5.0)))
                u = manifold.exp_map(v)
                assert constraint_gap(u) < 1e-9
                back = manifold.log_map(x, u)
                scale = max(1.0, v.norm())
                assert np.max(np.abs(back.vec - v.vec)) / scale < 1e-8

    def test_log_exp_roundtrip(self, cfg3, rng):
        for _ in range(200):
            x = manifold.random_point(rng, cfg3)
            u = manifold.random_point(rng, cfg3)
            v = manifold.log_map(x, u)
            again = manifold.exp_map(v)
            scale = max(1.0, float(np.max(np.abs(u.coords))))
            assert np.max(np.abs(again.coords - u.coords)) / scale < 1e-8

    def test_log_norm_equals_distance(self, cfg3, rng):
        for _ in range(100):
            x = manifold.random_point(rng, cfg3)
            u = manifold.random_point(rng, cfg3)
            assert manifold.log_map(x, u).norm() == pytest.approx(
                manifold.distance(x, u), abs=1e-10
            )

    def test_exp_of_zero_is_base(self, cfg3, rng):
        x = manifold.random_point(rng, cfg3)
        v = manifold.TangentVector(x, np.zeros(cfg3.dim + 1))
        assert manifold.exp_map(v) is x

    def test_log_of_coincident_is_zero(self, cfg3, rng):
        x = manifold.random_point(rng, cfg3)
        np.testing.assert_array_equal(manifold.log_map(x, x).vec, 0.0)

    def test_tiny_tangent_series_branch(self, cfg3, rng):
        x = manifold.random_point(rng, cfg3)
        v = manifold.random_tangent(rng, x, norm=1e-9)
        u = manifold.exp_map(v)
        back = manifold.log_map(x, u)
        # roundoff floor is eps * |coords|^2, independent of the tangent size
        np.testing.assert_allclose(back.vec, v.vec, rtol=1e-6, atol=5e-15)

    def test_distance_axioms(self, cfg3, rng):
        for _ in range(100):
            x = manifold.random_point(rng, cfg3)
            y = manifold.random_point(rng, cfg3)
            z = manifold.random_point(rng, cfg3)
            dxy = manifold.distance(x, y)
            assert dxy >= 0.0
            assert dxy == pytest.approx(manifold.distance(y, x), abs=1e-12)
            assert manifold.distance(x, x) == 0.0
            assert dxy <= manifold.distance(x, z) + manifold.distance(z, y) + 1e-9

    def test_distance_against_explicit_formula(self, cfg2):
        # hand case: both points on the first spatial axis at radii 0.3, 1.1
        a = manifold.exp_map(
            manifold.TangentVector(manifold.origin(cfg2), np.array([0.0, 0.3, 0.0]))
        )
        b = manifold.exp_map(
            manifold.TangentVector(manifold.origin(cfg2), np.array([0.0, -1.1, 0.0]))
        )
        assert manifold.distance(a, b) == pytest.approx(1.4, abs=1e-12)

    def test_curvature_scaling_of_distance(self, rng):
        # d_kappa(x, y) = d_{-1}(x', y') / sqrt(-kappa) for matched constructions
        cfg1 = manifold.ManifoldConfig(dim=3, curvature=-1.0)
        cfg4 = manifold.ManifoldConfig(dim=3, curvature=-4.0)
        z1 = rng.uniform(-1, 1, 3)
        z2 = rng.uniform(-1, 1, 3)
        d1 = manifold.distance(
            manifold.embed_euclidean(z1, cfg1), manifold.embed_euclidean(z2, cfg1)
        )
        d4 = manifold.distance(
            manifold.embed_euclidean(z1 / 2.0, cfg4), manifold.embed_euclidean(z2 / 2.0, cfg4)
        )
        assert d4 == pytest.approx(d1 / 2.0, rel=1e-12)

    def test_mismatched_manifolds_rejected(self):
        a = manifold.origin(manifold.ManifoldConfig(dim=2))
        b = manifold.origin(manifold.ManifoldConfig(dim=3))
        with pytest.raises(DimensionError):
            manifold.distance(a, b)


class TestTransportAndTranslate:
    def test_transport_isometry(self, cfg3, rng):
        for _ in range(200):
            x = manifold.random_point(rng, cfg3)
            y = manifold.random_point(rng, cfg3)
            v = manifold.random_tangent(rng, x)
            w = manifold.random_tangent(rng, x)
            moved_v = manifold.parallel_transport(x, y, v)
            moved_w = manifold.parallel_transport(x, y, w)
            before = manifold.lorentz_inner(v.vec, w.vec)
            after = manifold.lorentz_inner(moved_v.vec, moved_w.vec)
            assert abs(after - before) < 1e-9

    def test_transport_roundtrip_along_same_geodesic(self, cfg3, rng):
        for _ in range(100):
            x = manifold.random_point(rng, cfg3)
            y = manifold.random_point(rng, cfg3)
            v = manifold.random_tangent(rng, x)
            back = manifold.parallel_transport(y, x, manifold.parallel_transport(x, y, v))
            np.testing.assert_allclose(back.vec, v.vec, rtol=0, atol=1e-10)

    def test_transport_requires_matching_base(self, cfg3, rng):
        x = manifold.random_point(rng, cfg3)
        y = manifold.random_point(rng, cfg3)
        v = manifold.random_tangent(rng, y)
        with pytest.raises(DomainError):
            manifold.parallel_transport(x, y, v)

    def test_translate_preserves_pairwise_distances(self, cfg3, rng):
        for _ in range(100):
            x = manifold.random_point(rng, cfg3)
            y = manifold.random_point(rng, cfg3)
            u1 = manifold.random_point(rng, cfg3)
            u2 = manifold.random_point(rng, cfg3)
            d_before = manifold.distance(u1, u2)
            d_after = manifold.distance(
                manifold.translate(x, y, u1), manifold.translate(x, y, u2)
            )
            assert abs(d_after - d_before) / max(1.0, d_before) < 1e-8

    def test_translate_moves_source_to_target(self, cfg3, rng):
        for _ in range(50):
            x = manifold.random_point(rng, cfg3)
            y = manifold.random_point(rng, cfg3)
            moved = manifold.translate(x, y, x)
            np.testing.assert_allclose(moved.coords, y.coords, rtol=0, atol=1e-10)

    def test_ominus_identities(self, cfg3, rng):
        o = manifold.origin(cfg3)
        for _ in range(100):
            x = manifold.random_point(rng, cfg3)
            u = manifold.random_point(rng, cfg3)
            np.testing.assert_allclose(
                manifold.ominus(x, x).coords, o.coords, rtol=0, atol=1e-10
            )
            rel = manifold.ominus(u, x)
            assert abs(
                manifold.distance(o, rel) - manifold.distance(x, u)
            ) < 1e-8


class TestEmbedAndSampling:
    def test_embed_euclidean_norm_is_origin_distance(self, rng):
        for dim in (2, 4):
            cfg = manifold.ManifoldConfig(dim=dim)
            o = manifold.origin(cfg)
            for _ in range(50):
                z = rng.uniform(-2, 2, dim)
                p = manifold.embed_euclidean(z, cfg)
                assert constraint_gap(p) < 1e-12
                assert manifold.distance(o, p) == pytest.approx(
                    float(np.linalg.norm(z)), abs=1e-10
                )

    def test_embed_zero_is_origin(self, cfg3):
        p = manifold.embed_euclidean(np.zeros(3), cfg3)
        np.testing.assert_array_equal(p.coords, manifold.origin(cfg3).coords)

    def test_wrapped_normal_deterministic_and_on_manifold(self, cfg3):
        params = manifold.WrappedNormalParams(
            manifold.origin(cfg3), 0.25 * np.eye(3), seed=11
        )
        a = manifold.sample_wrapped_normal(params, cfg3)
        b = manifold.sample_wrapped_normal(params, cfg3)
        np.testing.assert_array_equal(a.coords, b.coords)
        assert constraint_gap(a) < 1e-9

    def test_wrapped_normal_respects_mean(self, cfg3, rng):
        mu = manifold.random_point(rng, cfg3)
        params = manifold.WrappedNormalParams(mu, 1e-8 * np.eye(3), seed=5)
        p = manifold.sample_wrapped_normal(params, cfg3)
        assert manifold.distance(mu, p) < 1e-3

    def test_wrapped_normal_validation(self, cfg3):
        o = manifold.origin(cfg3)
        with pytest.raises(DimensionError):
            manifold.WrappedNormalParams(o, np.eye(2))
        asym = np.eye(3)
        asym[0, 1] = 0.5
        with pytest.raises(ParameterError):
            manifold.WrappedNormalParams(o, asym)
        with pytest.raises(ParameterError):
            manifold.WrappedNormalParams(o, -np.eye(3))
