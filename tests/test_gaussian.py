"""Thin-membrane GMRF: precisions, exact variances, variance map, Gibbs chains."""

import tracemalloc

import numpy as np
import pytest

from nfgdual.gaussian import (
    GaussianGibbsResult,
    GmrfModel,
    _invert_lower,
    dual_precision,
    exact_dual_vertex_variances,
    exact_variances,
    gibbs_gaussian,
    gmrf_dual_gibbs,
    gmrf_primal_gibbs,
    map_variance_dual_to_primal,
    primal_precision,
)
from nfgdual.graphs import Graph, build_incidence, grid_graph, path_graph
from nfgdual.samplers import SamplerConfig
from tests.conftest import random_connected_graph


@pytest.fixture(scope="module")
def torus15():
    return grid_graph(15, 15, periodic=True)


def reference_gibbs_gaussian(precision, cfg, derived_transform=None):
    """Systematic-scan heat bath one site at a time, with the sampler's bookkeeping.

    `gibbs_gaussian` computes each sweep as one triangular step and must
    reproduce this loop to 1e-12 relative: it draws the same normals in the
    same order, and only the grouping of the floating-point sums differs.
    """
    precision = np.asarray(precision, dtype=np.float64)
    n = precision.shape[0]
    neighbors = []
    cond_std = np.empty(n)
    for i in range(n):
        row = precision[i].copy()
        diag = row[i]
        row[i] = 0.0
        idx = np.nonzero(row)[0]
        neighbors.append((idx, row[idx] / diag))
        cond_std[i] = 1.0 / np.sqrt(diag)
    rng = np.random.default_rng(cfg.seed)
    x = np.zeros(n)
    burn = cfg.resolved_burn_in(n)
    total = burn + cfg.samples * cfg.thinning
    sumsq = np.zeros(n)
    trajectory = np.empty(cfg.samples)
    track = derived_transform is not None
    if track:
        t_mat = np.asarray(derived_transform, dtype=np.float64)
        d_sumsq = np.zeros(t_mat.shape[1]) if t_mat.ndim == 2 else np.zeros(1)
        d_trajectory = np.empty(cfg.samples)
    retained = 0
    for sweep in range(total):
        noise = rng.standard_normal(n)
        for i in range(n):
            idx, coef = neighbors[i]
            mean = -float(coef @ x[idx]) if len(idx) else 0.0
            x[i] = mean + cond_std[i] * noise[i]
        if sweep >= burn and (sweep - burn) % cfg.thinning == 0:
            sumsq += x ** 2
            retained += 1
            trajectory[retained - 1] = sumsq.mean() / retained
            if track:
                derived = x @ t_mat
                d_sumsq += derived ** 2
                d_trajectory[retained - 1] = d_sumsq.mean() / retained
    result = GaussianGibbsResult(sumsq / retained, trajectory)
    if track:
        result.derived_variances = d_sumsq / retained
        result.derived_trajectory = d_trajectory
    return result


def chain_inputs(g, s, sigma, domain):
    """(precision, derived_transform) of the primal or the dual chain."""
    m = GmrfModel(g, s, sigma)
    if domain == "primal":
        return primal_precision(m), None
    return dual_precision(m), build_incidence(g).astype(float)


class TestPrecisions:
    def test_isolated_vertex(self):
        m = GmrfModel(Graph(1, []), s=2.0, sigma=3.0)
        assert np.allclose(primal_precision(m), [[1 / 9]])

    def test_path_unit_parameters(self):
        m = GmrfModel(path_graph(2), s=1.0, sigma=1.0)
        assert np.allclose(primal_precision(m), [[2, -1], [-1, 2]])

    def test_single_edge_dual_scalar(self):
        m = GmrfModel(path_graph(2), s=1.5, sigma=2.0)
        assert np.allclose(dual_precision(m), [[1.5 ** 2 + 2 * 2.0 ** 2]])

    def test_both_spd_on_random_graphs(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            g = random_connected_graph(rng, max_vertices=12, max_edges=20, q=2)
            m = GmrfModel(g, float(rng.uniform(0.3, 5)), float(rng.uniform(0.3, 5)))
            for mat in (primal_precision(m), dual_precision(m)):
                assert np.abs(mat - mat.T).max() < 1e-12
                np.linalg.cholesky(mat)  # raises if not SPD

    def test_match_incidence_products(self, torus15):
        """The Gram-built precisions equal the dense incidence products bit for bit."""
        rng = np.random.default_rng(5)
        graphs = [random_connected_graph(rng, max_vertices=20, max_edges=40, q=2)
                  for _ in range(20)]
        for g in graphs + [torus15, Graph(1, [])]:
            s, sigma = float(rng.uniform(0.3, 40)), float(rng.uniform(0.3, 5))
            m = GmrfModel(g, s, sigma)
            inc = build_incidence(g).astype(np.float64)
            primal = inc.T @ inc / s ** 2 + np.eye(g.num_vertices) / sigma ** 2
            dual = s ** 2 * np.eye(g.num_edges) + sigma ** 2 * (inc @ inc.T)
            assert np.array_equal(primal_precision(m), primal)
            assert np.array_equal(dual_precision(m), dual)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GmrfModel(path_graph(2), s=0.0, sigma=1.0)
        with pytest.raises(ValueError):
            GmrfModel(path_graph(2), s=1.0, sigma=-2.0)


class TestNonFiniteRefusals:
    @pytest.mark.parametrize("s,sigma", [
        (np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf),
        (1e200, 1.0),  # s^2 overflows
        (1.0, 1e-200),  # sigma^2 underflows to zero
        (1e-160, 1.0),  # s^2 is subnormal and 1/s^2 overflows
    ])
    def test_model_parameters(self, s, sigma):
        with pytest.raises(ValueError, match="finite square"):
            GmrfModel(path_graph(3), s, sigma)

    def test_extreme_finite_parameters_accepted(self):
        m = GmrfModel(path_graph(3), 1e150, 1e-150)
        assert np.isfinite(primal_precision(m)).all()
        assert np.isfinite(dual_precision(m)).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_precision_entries(self, bad):
        precision = np.array([[2.0, bad], [bad, 2.0]])
        with pytest.raises(ValueError, match="finite"):
            exact_variances(precision)
        with pytest.raises(ValueError, match="finite"):
            gibbs_gaussian(precision, SamplerConfig(seed=1, samples=10))


class TestExactVariances:
    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(3)
        g = random_connected_graph(rng, max_vertices=10, max_edges=18, q=2)
        m = GmrfModel(g, 1.3, 0.8)
        p = primal_precision(m)
        assert np.allclose(exact_variances(p), np.diag(np.linalg.inv(p)), atol=1e-12)

    def test_rejects_non_spd(self):
        with pytest.raises(np.linalg.LinAlgError):
            exact_variances(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            exact_variances(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_dual_precision_that_is_not_positive_definite_refused_by_both_paths(self):
        # s^2 is 1e-32 of sigma^2, so s^2 I + sigma^2 M M^T is the singular gram
        # M M^T to working precision
        m = GmrfModel(grid_graph(4, 4, periodic=True), 1e-8, 1e8)
        for exact in (lambda: exact_variances(dual_precision(m)),
                      lambda: exact_dual_vertex_variances(m)):
            with pytest.raises(np.linalg.LinAlgError,
                               match=r"positive definite \(its Cholesky factorization failed\)"):
                exact()

    @pytest.mark.parametrize(
        "s,quoted", [(1.0, 0.5589), (20.0, 20.2046), (40.0, 23.5498)]
    )
    def test_torus15_quoted_values(self, torus15, s, quoted):
        m = GmrfModel(torus15, s, 5.0)
        var = exact_variances(primal_precision(m))
        assert np.abs(var - var[0]).max() < 1e-9  # torus symmetry
        assert abs(var[0] - quoted) < 1e-4  # one unit in the last quoted digit


class TestInvertLower:
    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 64, 450])
    def test_matches_dense_inverse(self, n):
        rng = np.random.default_rng(n)
        # a dominant diagonal keeps the triangle well conditioned; the upper
        # triangle is noise that must not be read
        p = rng.standard_normal((n, n)) + np.diag(rng.uniform(1.0, 2.0, n)) * n
        out = np.zeros((n, n))
        _invert_lower(p, out)
        want = np.linalg.inv(np.tril(p))
        assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()
        assert not np.triu(out, 1).any()

    def test_cholesky_factor_of_dual_precision(self, torus15):
        chol = np.linalg.cholesky(dual_precision(GmrfModel(torus15, 20.0, 5.0)))
        out = np.zeros_like(chol)
        _invert_lower(chol, out)
        want = np.linalg.inv(chol)
        assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()


class TestVarianceMap:
    def test_zero_dual_variance_gives_sigma_squared(self):
        assert map_variance_dual_to_primal(5.0, 0.0) == pytest.approx(25.0)

    @pytest.mark.parametrize("sigma", [1e200, 1e-200, 1e-160])
    def test_sigma_refused_as_the_model_refuses_it(self, sigma):
        # sigma^2 overflows, underflows to zero, or is subnormal with 1/sigma^2 overflowing
        with pytest.raises(ValueError, match="finite square") as model_error:
            GmrfModel(path_graph(3), 1.0, sigma)
        with pytest.raises(ValueError, match="finite square") as map_error:
            map_variance_dual_to_primal(sigma, 0.0)
        assert str(map_error.value) == str(model_error.value)

    def test_exact_dual_variance_maps_to_exact_primal(self, torus15):
        for s in (1.0, 20.0, 40.0):
            m = GmrfModel(torus15, s, 5.0)
            mapped = map_variance_dual_to_primal(5.0, exact_dual_vertex_variances(m))
            assert np.abs(mapped - exact_variances(primal_precision(m))).max() < 1e-10

    def test_woodbury_identity_random_graphs(self):
        rng = np.random.default_rng(4)
        for _ in range(6):
            g = random_connected_graph(rng, max_vertices=20, max_edges=40, q=2)
            m = GmrfModel(g, float(rng.uniform(0.5, 4)), float(rng.uniform(0.5, 4)))
            inc = build_incidence(g).astype(float)
            lhs = m.sigma ** 2 * (
                np.eye(g.num_vertices)
                - m.sigma ** 2 * inc.T @ np.linalg.solve(dual_precision(m), inc)
            )
            assert np.abs(lhs - np.linalg.inv(primal_precision(m))).max() < 1e-10

    def test_exact_dual_matches_dense_solve(self, torus15):
        rng = np.random.default_rng(6)
        graphs = [random_connected_graph(rng, max_vertices=20, max_edges=40, q=2)
                  for _ in range(10)]
        for g in graphs + [torus15]:
            m = GmrfModel(g, float(rng.uniform(0.5, 40)), float(rng.uniform(0.5, 5)))
            inc = build_incidence(g).astype(np.float64)
            want = np.einsum("ev,ev->v", inc, np.linalg.solve(dual_precision(m), inc))
            np.testing.assert_allclose(exact_dual_vertex_variances(m), want,
                                       rtol=1e-12, atol=0)

    def test_exact_dual_of_one_vertex_graph(self):
        m = GmrfModel(Graph(1, []), 1.0, 2.0)
        assert np.array_equal(exact_dual_vertex_variances(m), [0.0])
        assert map_variance_dual_to_primal(2.0, exact_dual_vertex_variances(m))[0] == 4.0

    def test_out_of_range_refused(self):
        with pytest.raises(ValueError, match="no positive"):
            map_variance_dual_to_primal(5.0, 0.05)

    @pytest.mark.parametrize("var_d", [np.nan, -np.inf, np.inf, -1e-3, [0.01, np.nan]])
    def test_non_finite_or_negative_dual_variance_refused(self, var_d):
        with pytest.raises(ValueError, match="var_d must be finite and nonnegative"):
            map_variance_dual_to_primal(5.0, var_d)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf, 0.0, -2.0])
    def test_non_finite_or_non_positive_sigma_refused(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            map_variance_dual_to_primal(sigma, 0.01)


class TestGibbs:
    def test_two_vertex_model_close_to_exact(self):
        m = GmrfModel(path_graph(2), 1.0, 1.0)
        exact = exact_variances(primal_precision(m))
        res = gmrf_primal_gibbs(m, SamplerConfig(seed=10, samples=100_000))
        assert np.abs(res.variances - exact).max() / exact.max() < 0.05

    def test_unbiased_over_seeds(self):
        m = GmrfModel(path_graph(3), 1.2, 0.9)
        exact = exact_variances(primal_precision(m))
        n_samples, n_seeds = 2_000, 20
        means = np.array([
            gmrf_primal_gibbs(m, SamplerConfig(seed=s, samples=n_samples)).variances
            for s in range(n_seeds)
        ])
        grand = means.mean(axis=0)
        stderr = means.std(axis=0, ddof=1) / np.sqrt(n_seeds)
        assert (np.abs(grand - exact) < 3 * stderr + 1e-12).all()

    def test_dual_chain_tracks_vertex_statistic(self):
        g = grid_graph(4, 4, periodic=True)
        m = GmrfModel(g, 10.0, 2.0)
        res = gmrf_dual_gibbs(m, SamplerConfig(seed=11, samples=20_000))
        exact_d = exact_dual_vertex_variances(m)
        assert res.derived_variances is not None
        assert np.abs(res.derived_variances - exact_d).max() / exact_d.max() < 0.05

    def test_trajectory_is_running_estimate(self):
        m = GmrfModel(path_graph(2), 1.0, 1.0)
        res = gmrf_primal_gibbs(m, SamplerConfig(seed=12, samples=50))
        assert isinstance(res, GaussianGibbsResult)
        assert res.trajectory.shape == (50,)
        assert res.trajectory[-1] == pytest.approx(res.variances.mean())

    def test_determinism(self):
        m = GmrfModel(path_graph(3), 1.0, 2.0)
        cfg = SamplerConfig(seed=13, samples=200)
        a, b = gmrf_primal_gibbs(m, cfg), gmrf_primal_gibbs(m, cfg)
        assert np.array_equal(a.variances, b.variances)

    def test_dual_then_map_beats_tolerance_at_large_s(self):
        g = grid_graph(8, 8, periodic=True)
        m = GmrfModel(g, 40.0, 5.0)
        exact = exact_variances(primal_precision(m))[0]
        res = gmrf_dual_gibbs(m, SamplerConfig(seed=14, samples=100))
        mapped = map_variance_dual_to_primal(5.0, res.derived_trajectory[-1])
        assert abs(mapped - exact) / exact < 5e-3

    def test_negative_burn_in_refused(self):
        # it used to leave the tail of the trajectory uninitialised
        m = GmrfModel(grid_graph(4, 4, periodic=True), s=2.0, sigma=1.0)
        with pytest.raises(ValueError, match="burn_in"):
            gmrf_dual_gibbs(m, SamplerConfig(seed=1, samples=10, burn_in=-4))

    @pytest.mark.parametrize("precision,problem", [
        ([[1.0, 2.0], [2.0, 1.0]], "positive definite"),  # symmetric, indefinite
        ([[-1.0, 0.0], [0.0, 2.0]], "positive definite"),
        (np.zeros((0, 0)), "non-empty"),  # the dual of a one-vertex graph
        # GmrfModel accepts these parameters, but the precisions it builds are
        # singular in floating point: the ridge is lost against the gram or
        # the Laplacian.  Only the chain's Cholesky factorization refuses them.
        (dual_precision(GmrfModel(grid_graph(4, 4, periodic=True), 1e-8, 1e8)),
         "positive definite"),
        (primal_precision(GmrfModel(grid_graph(4, 4, periodic=True), 1e-150, 1e150)),
         "positive definite"),
        (dual_precision(GmrfModel(grid_graph(4, 4, periodic=True), 1e-150, 1e150)),
         "positive definite"),
    ])
    def test_refuses_precision_that_is_not_spd(self, precision, problem):
        with pytest.raises(ValueError, match=problem):
            gibbs_gaussian(np.array(precision), SamplerConfig(seed=1, samples=10))

    def test_memory_does_not_grow_with_samples(self):
        # the default 10,000 retained sweeps; keeping every retained state
        # (and its derived statistic) would take 8.6 MB here
        m = GmrfModel(grid_graph(6, 6, periodic=True), 3.0, 2.0)
        cfg = SamplerConfig(seed=15, burn_in=0)
        tracemalloc.start()
        try:
            res = gmrf_dual_gibbs(m, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.trajectory.shape == (cfg.samples,)
        assert peak < 1_500_000


class TestAgainstReference:
    """The triangular sweep is the site-by-site chain, up to roundoff."""

    FIELDS = ("variances", "trajectory", "derived_variances", "derived_trajectory")

    def assert_same_chain(self, precision, derived_transform, cfg):
        got = gibbs_gaussian(precision, cfg, derived_transform)
        want = reference_gibbs_gaussian(precision, cfg, derived_transform)
        for name in self.FIELDS:
            if getattr(want, name) is None:
                assert getattr(got, name) is None, name
            else:
                np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                           rtol=1e-12, atol=0, err_msg=name)

    @pytest.mark.parametrize("domain", ["primal", "dual"])
    @pytest.mark.parametrize("s", [1.0, 20.0, 40.0])
    def test_torus15(self, torus15, s, domain):
        self.assert_same_chain(*chain_inputs(torus15, s, 5.0, domain),
                               SamplerConfig(seed=21, samples=40, burn_in=30))

    def test_random_graphs(self):
        rng = np.random.default_rng(22)
        for k in range(10):
            g = random_connected_graph(rng, max_vertices=12, max_edges=20, q=2)
            s, sigma = float(rng.uniform(0.3, 5)), float(rng.uniform(0.3, 5))
            for domain in ("primal", "dual"):
                self.assert_same_chain(*chain_inputs(g, s, sigma, domain),
                                       SamplerConfig(seed=100 + k, samples=200))

    def test_thinning(self):
        inputs = chain_inputs(grid_graph(4, 4, periodic=True), 3.0, 2.0, "dual")
        # the second keeps fewer states than one block: a single partial tally
        for cfg in (SamplerConfig(seed=23, samples=100, thinning=3),
                    SamplerConfig(seed=28, samples=40, thinning=3)):
            self.assert_same_chain(*inputs, cfg)

    def test_burn_in_and_retention_off_block_boundaries(self, torus15):
        # 100 burn-in sweeps and 75 retained ones, every second sweep: neither
        # count is a multiple of a power of two
        self.assert_same_chain(*chain_inputs(torus15, 20.0, 5.0, "dual"),
                               SamplerConfig(seed=27, samples=75, burn_in=100, thinning=2))
        # and on them: whole blocks of retained states, then an empty tally,
        # with and without burn-in
        inputs = chain_inputs(grid_graph(4, 4, periodic=True), 3.0, 2.0, "dual")
        for cfg in (SamplerConfig(seed=29, samples=128, burn_in=37),
                    SamplerConfig(seed=30, samples=64, burn_in=0)):
            self.assert_same_chain(*inputs, cfg)

    def test_one_dimensional_transform(self):
        precision, _ = chain_inputs(grid_graph(3, 4), 1.5, 2.5, "primal")
        transform = np.linspace(-1.0, 1.0, precision.shape[0])
        self.assert_same_chain(precision, transform, SamplerConfig(seed=24, samples=300))

    @pytest.mark.parametrize("precision", [
        primal_precision(GmrfModel(Graph(1, []), 1.0, 2.0)),  # a one-vertex graph
        np.diag([0.5, 1.0, 2.0, 4.0]),  # no off-diagonal entries
    ], ids=["one-vertex", "diagonal"])
    def test_without_edges(self, precision):
        self.assert_same_chain(precision, None, SamplerConfig(seed=25, samples=100))

    def test_long_chain(self):
        self.assert_same_chain(*chain_inputs(grid_graph(3, 3, periodic=True), 1.0, 5.0, "dual"),
                               SamplerConfig(seed=26, samples=5_000, burn_in=0))
