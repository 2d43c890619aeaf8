"""Kernel placement: closed-form loss fixtures, gradient oracles, solver
convergence and determinism, radial-decay experiment, serialization."""

import json
import math

import numpy as np
import pytest

from hkconv import kernelgen as kg
from hkconv import manifold
from hkconv.errors import (
    DataFormatError,
    DegenerateGeometryError,
    ParameterError,
    SolverFailureError,
)


def _antipodal_pair(r, cfg):
    o = manifold.origin(cfg)
    up = manifold.exp_map(manifold.TangentVector(o, np.array([0.0, r, 0.0])))
    dn = manifold.exp_map(manifold.TangentVector(o, np.array([0.0, -r, 0.0])))
    return kg.KernelSet((up, dn), cfg, "loaded")


def _max_grad_norm(kernels):
    worst = 0.0
    for k in range(kernels.K):
        g = kg.riemannian_grad(kernels, k)
        worst = max(worst, g.norm())
    return worst


class TestKernelLoss:
    def test_hand_value_for_antipodal_pair_at_half_radius(self, cfg2):
        # mutual distance 1 (through the origin), two ordered pairs, anchors 2 * 0.5
        got = kg.kernel_loss(_antipodal_pair(0.5, cfg2))
        np.testing.assert_allclose(got, 3.0, rtol=1e-12)

    def test_value_at_the_two_point_optimum(self, cfg2):
        got = kg.kernel_loss(_antipodal_pair(2.0**-0.5, cfg2))
        np.testing.assert_allclose(got, 2.0 * math.sqrt(2.0), rtol=1e-12)

    def test_scaling_splits_into_monotone_terms(self, cfg2):
        # pushing both points outward shrinks repulsion and grows anchoring
        for r in (0.3, 0.7, 1.2):
            near, far = _antipodal_pair(r, cfg2), _antipodal_pair(2 * r, cfg2)
            rep_near = 2.0 / manifold.distance(*near.points)
            rep_far = 2.0 / manifold.distance(*far.points)
            o = manifold.origin(cfg2)
            anchor_near = sum(manifold.distance(o, p) for p in near.points)
            anchor_far = sum(manifold.distance(o, p) for p in far.points)
            assert rep_far < rep_near
            assert anchor_far > anchor_near
            np.testing.assert_allclose(
                kg.kernel_loss(near), rep_near + anchor_near, rtol=1e-12
            )
            np.testing.assert_allclose(
                kg.kernel_loss(far), rep_far + anchor_far, rtol=1e-12
            )

    def test_near_coincident_pair_is_degenerate(self, cfg2):
        o = manifold.origin(cfg2)
        a = manifold.exp_map(manifold.TangentVector(o, np.array([0.0, 0.4, 0.0])))
        b = manifold.exp_map(
            manifold.TangentVector(o, np.array([0.0, 0.4 + 1e-13, 0.0]))
        )
        with pytest.raises(DegenerateGeometryError):
            kg.kernel_loss(kg.KernelSet((a, b), cfg2, "loaded"))


class TestRiemannianGrad:
    def test_gradients_are_tangent(self, cfg2, rng):
        for _ in range(10):
            pts = tuple(manifold.random_point(rng, cfg2) for _ in range(4))
            kernels = kg.KernelSet(pts, cfg2, "loaded")
            for k in range(4):
                g = kg.riemannian_grad(kernels, k)
                gap = manifold.lorentz_inner(g.vec, kernels.points[k].coords)
                assert abs(gap) <= 1e-9

    def test_matches_directional_finite_differences(self, cfg2, rng):
        # oracle: derivative of the loss along geodesics t -> exp(t dir)
        h = 1e-6
        pts = tuple(manifold.random_point(rng, cfg2) for _ in range(3))
        kernels = kg.KernelSet(pts, cfg2, "loaded")
        for k in range(3):
            g = kg.riemannian_grad(kernels, k)
            for _ in range(5):
                direction = manifold.random_tangent(rng, pts[k], norm=1.0)

                def value(t):
                    moved = manifold.exp_map(
                        manifold.TangentVector(pts[k], t * direction.vec)
                    )
                    shifted = list(pts)
                    shifted[k] = moved
                    return kg.kernel_loss(kg.KernelSet(tuple(shifted), cfg2, "loaded"))

                numeric = (value(h) - value(-h)) / (2.0 * h)
                analytic = manifold.lorentz_inner(g.vec, direction.vec)
                scale = max(abs(numeric), abs(analytic), 1e-9)
                assert abs(numeric - analytic) / scale <= 1e-5

    def test_stationary_at_the_two_point_optimum(self, cfg2):
        kernels = _antipodal_pair(2.0**-0.5, cfg2)
        assert _max_grad_norm(kernels) <= 1e-4


class TestSolver:
    def test_two_point_solution_matches_closed_form_for_any_seed(self, cfg2):
        o = manifold.origin(cfg2)
        for seed in (0, 1, 7, 91):
            ks = kg.solve_kernels(2, 2, kg.SolverConfig(seed=seed), cfg2)
            radii = [manifold.distance(o, p) for p in ks.points]
            np.testing.assert_allclose(radii, 2.0**-0.5, atol=1e-3)
            np.testing.assert_allclose(
                manifold.distance(*ks.points), 2.0**0.5, atol=2e-3
            )

    def test_five_point_solution_converges_and_separates(self, cfg2):
        ks = kg.solve_kernels(5, 2, kg.SolverConfig(seed=0), cfg2)
        assert _max_grad_norm(ks) <= 1e-6
        gaps = [
            manifold.distance(ks.points[i], ks.points[j])
            for i in range(5)
            for j in range(i + 1, 5)
        ]
        assert min(gaps) > 0.3

    def test_solutions_are_rotation_equivalent_across_seeds(self, cfg2):
        spectra = []
        for seed in (0, 1, 2):
            ks = kg.solve_kernels(5, 2, kg.SolverConfig(seed=seed), cfg2)
            gaps = sorted(
                manifold.distance(ks.points[i], ks.points[j])
                for i in range(5)
                for j in range(i + 1, 5)
            )
            spectra.append(np.array(gaps))
        for other in spectra[1:]:
            np.testing.assert_allclose(other, spectra[0], atol=5e-2)

    def test_same_seed_is_bitwise_deterministic(self, cfg2):
        first = kg.solve_kernels(4, 2, kg.SolverConfig(seed=5), cfg2)
        second = kg.solve_kernels(4, 2, kg.SolverConfig(seed=5), cfg2)
        np.testing.assert_array_equal(first.coords_array(), second.coords_array())
        assert first.provenance == "optimized"

    def test_accepted_loss_trace_never_increases(self, cfg2):
        _, log, converged, _ = kg.solve_kernels_verbose(
            5, 2, kg.SolverConfig(seed=3), cfg2
        )
        assert converged
        losses = np.array([row[1] for row in log])
        assert np.all(np.diff(losses) <= 1e-10)

    def test_every_solution_point_is_on_manifold(self, cfg2):
        ks = kg.solve_kernels(6, 2, kg.SolverConfig(seed=2), cfg2)
        for p in ks.points:
            gap = manifold.lorentz_inner(p.coords, p.coords) - 1.0 / cfg2.curvature
            assert abs(gap) <= 1e-9
            assert p.coords[0] > 0

    def test_divergent_start_raises_solver_failure(self, cfg2):
        # a tightly packed ring of 10 points keeps every separation above the
        # jitter guard while the reciprocal sum exceeds the divergence ceiling
        with pytest.raises(SolverFailureError):
            kg.solve_kernels(10, 2, kg.SolverConfig(seed=0, init_scale=2.5e-5), cfg2)

    def test_parameter_validation(self, cfg2):
        with pytest.raises(ParameterError):
            kg.solve_kernels(1, 2, kg.SolverConfig(), cfg2)
        with pytest.raises(ParameterError):
            kg.solve_kernels(3, 0, kg.SolverConfig(), cfg2)
        with pytest.raises(ParameterError):
            kg.SolverConfig(lr=0.0)
        with pytest.raises(ParameterError):
            kg.SolverConfig(max_iters=0)
        with pytest.raises(ParameterError):
            kg.SolverConfig(grad_tol=-1.0)
        for name in ("lr", "grad_tol", "init_scale"):
            with pytest.raises(ParameterError):
                kg.SolverConfig(**{name: math.nan})


class TestRandomKernels:
    def test_on_manifold_and_deterministic(self, cfg2):
        a = kg.random_kernels(6, 2, seed=11, cfg=cfg2)
        b = kg.random_kernels(6, 2, seed=11, cfg=cfg2)
        np.testing.assert_array_equal(a.coords_array(), b.coords_array())
        assert a.provenance == "random_wrapped_normal"
        for p in a.points:
            gap = manifold.lorentz_inner(p.coords, p.coords) - 1.0 / cfg2.curvature
            assert abs(gap) <= 1e-9

    def test_mean_origin_distance_sits_in_the_reference_band(self, cfg2):
        # unit-std tangent draws make d(o, x) follow a chi law with mean
        # sqrt(pi/2); band is that mean +- 5 standard errors for 10^3 draws,
        # frozen from a 2*10^5-draw simulation
        ks = kg.random_kernels(1000, 2, seed=123, cfg=cfg2)
        o = manifold.origin(cfg2)
        dists = np.array([manifold.distance(o, p) for p in ks.points])
        assert 1.149 <= dists.mean() <= 1.357


class TestGradientDecay:
    def test_norms_decay_monotonically_and_log_linearly(self, cfg2):
        rows = kg.gradient_decay_experiment(K=8, cfg=cfg2)
        radii = [r for r, _ in rows]
        norms = np.array([g for _, g in rows])
        np.testing.assert_allclose(radii, np.arange(1, 11) * 0.5)
        assert np.all(np.diff(norms) < 0)
        slope, r2 = kg.log_linear_fit(rows)
        assert slope < 0
        assert r2 >= 0.95

    def test_monotone_for_other_kernel_counts(self, cfg2):
        for K in (4, 16):
            rows = kg.gradient_decay_experiment(K=K, cfg=cfg2)
            norms = np.array([g for _, g in rows])
            assert np.all(np.diff(norms) < 0)

    def test_log_linear_fit_recovers_an_exact_exponential(self):
        radii = np.arange(1, 11) * 0.5
        rows = [(float(r), float(np.exp(-2.0 * r))) for r in radii]
        slope, r2 = kg.log_linear_fit(rows)
        np.testing.assert_allclose(slope, -2.0, rtol=1e-12)
        np.testing.assert_allclose(r2, 1.0, rtol=1e-12)

    def test_radii_validation(self, cfg2):
        with pytest.raises(ParameterError):
            kg.gradient_decay_experiment(K=8, radii=(0.5, 0.4), cfg=cfg2)
        with pytest.raises(ParameterError):
            kg.gradient_decay_experiment(K=8, radii=(-1.0, 2.0), cfg=cfg2)


class TestSerialization:
    def test_json_round_trip_is_bitwise(self, cfg2, tmp_path):
        ks = kg.solve_kernels(3, 2, kg.SolverConfig(seed=1), cfg2)
        path = tmp_path / "kernels.json"
        kg.save_kernels(ks, path)
        back = kg.load_kernels(path)
        np.testing.assert_array_equal(back.coords_array(), ks.coords_array())
        assert back.provenance == ks.provenance
        assert back.cfg.curvature == ks.cfg.curvature

    def test_file_schema_fields(self, cfg2, tmp_path):
        ks = kg.random_kernels(4, 2, seed=0, cfg=cfg2)
        path = tmp_path / "kernels.json"
        kg.save_kernels(ks, path)
        data = json.loads(path.read_text())
        assert data["K"] == 4
        assert data["dim"] == 2
        assert data["curvature"] == cfg2.curvature
        assert data["provenance"] == "random_wrapped_normal"
        assert len(data["points"]) == 4 and len(data["points"][0]) == 3

    def test_loader_rejects_off_manifold_points(self, cfg2, tmp_path):
        ks = kg.random_kernels(3, 2, seed=0, cfg=cfg2)
        data = kg.kernels_to_dict(ks)
        data["points"][1][0] += 0.25
        with pytest.raises(DataFormatError):
            kg.kernels_from_dict(data)

    def test_loader_rejects_malformed_documents(self):
        with pytest.raises(DataFormatError):
            kg.kernels_from_dict({"K": 2})

    def test_poincare_export_matches_hand_projection(self, cfg2, tmp_path):
        # radius r along the first axis projects to tanh(r/2) on the disk
        r = 0.8
        o = manifold.origin(cfg2)
        p1 = manifold.exp_map(manifold.TangentVector(o, np.array([0.0, r, 0.0])))
        p2 = manifold.exp_map(manifold.TangentVector(o, np.array([0.0, -r, 0.0])))
        ks = kg.KernelSet((p1, p2), cfg2, "loaded")
        pts_path = tmp_path / "points.csv"
        geo_path = tmp_path / "geodesics.csv"
        kg.export_poincare_csv(ks, pts_path, geo_path, steps=8)
        rows = pts_path.read_text().strip().splitlines()
        assert rows[0] == "x,y"
        got = np.array([[float(v) for v in line.split(",")] for line in rows[1:]])
        want = np.array([[math.tanh(r / 2.0), 0.0], [-math.tanh(r / 2.0), 0.0]])
        np.testing.assert_allclose(got, want, atol=1e-12)
        geo_rows = geo_path.read_text().strip().splitlines()
        assert geo_rows[0] == "geodesic,step,x,y"
        assert len(geo_rows) == 1 + 8  # one polyline to the other point

    def test_poincare_export_requires_two_dimensions(self, tmp_path):
        ks = kg.random_kernels(3, 4, seed=0)
        with pytest.raises(ParameterError):
            kg.export_poincare_csv(ks, tmp_path / "p.csv", tmp_path / "g.csv")
