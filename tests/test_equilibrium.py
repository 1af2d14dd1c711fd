import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mopkit as mk
from helpers import arcsine_cdf, cell_boundary_cdf_error
from mopkit.equilibrium import (
    DiscreteMeasure,
    EquilibriumProblem,
    energy_functional,
    interaction_matrix,
    kolmogorov_distance,
    log_energy,
    minimize_equilibrium,
    zero_counting_measure,
)
from mopkit.exceptions import NumericError, SingularEnergyError, ValidationError

MINUS_LN6 = -1.791759469228055


class TestInteractionMatrix:
    def test_angelesco_p2(self):
        assert np.allclose(interaction_matrix("angelesco", 2),
                           [[1.0, 0.5], [0.5, 1.0]])

    def test_nikishin_p3(self):
        expect = [[1.0, -0.5, 0.0], [-0.5, 1.0, -0.5], [0.0, -0.5, 1.0]]
        assert np.allclose(interaction_matrix("nikishin", 3), expect)

    def test_p1(self):
        for kind in ("angelesco", "nikishin"):
            assert np.allclose(interaction_matrix(kind, 1), [[1.0]])

    def test_positive_definite_up_to_ten(self):
        for p in range(1, 11):
            for kind in ("angelesco", "nikishin"):
                eig = np.linalg.eigvalsh(interaction_matrix(kind, p))
                assert eig.min() > 0.0

    def test_nikishin_smallest_eigenvalue(self):
        for p in range(1, 11):
            eig = np.linalg.eigvalsh(interaction_matrix("nikishin", p))
            assert eig.min() == pytest.approx(1.0 - np.cos(np.pi / (p + 1)),
                                              abs=1e-12)


class TestLogEnergy:
    def test_reduced_energy_unit_gap(self):
        mu = DiscreteMeasure(np.asarray([0.0, 1.0]), np.asarray([1.0, 1.0]))
        assert log_energy(mu, exclude_diagonal=True) == pytest.approx(0.0, abs=1e-15)

    def test_cross_two_terms(self):
        mu = DiscreteMeasure(np.asarray([0.0, 1.0]), np.asarray([1.0, 1.0]))
        nu = DiscreteMeasure(np.asarray([3.0]), np.asarray([1.0]))
        assert log_energy(mu, nu) == pytest.approx(MINUS_LN6, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.1, max_value=8.0))
    def test_bilinear_scaling(self, c):
        mu = DiscreteMeasure(np.asarray([0.0, 1.0]), np.asarray([0.5, 0.5]))
        nu = DiscreteMeasure(np.asarray([3.0, 4.0]), np.asarray([1.0, 2.0]))
        base = log_energy(mu, nu)
        scaled = DiscreteMeasure(mu.grid, c * mu.masses)
        assert log_energy(scaled, nu) == pytest.approx(c * base, rel=1e-12)

    def test_cross_coincident_rejected(self):
        mu = DiscreteMeasure(np.asarray([0.0, 1.0]), np.asarray([1.0, 1.0]))
        nu = DiscreteMeasure(np.asarray([1.0]), np.asarray([1.0]))
        with pytest.raises(SingularEnergyError):
            log_energy(mu, nu)

    def test_self_floor_allows_coincidence(self):
        mu = DiscreteMeasure(np.asarray([0.0, 0.5, 1.0]), np.asarray([1.0, 1.0, 1.0]))
        assert np.isfinite(log_energy(mu))


class TestEnergyFunctional:
    def test_p1_reduction(self):
        mu = DiscreteMeasure(np.linspace(-1, 1, 50), np.full(50, 0.02))
        assert energy_functional([mu], np.eye(1)) == pytest.approx(log_energy(mu))

    def test_angelesco_expansion(self):
        rng = np.random.default_rng(0)
        mu1 = DiscreteMeasure(np.linspace(-1, 0, 30), rng.random(30))
        mu2 = DiscreteMeasure(np.linspace(0.01, 1, 30), rng.random(30))
        via_matrix = energy_functional([mu1, mu2], interaction_matrix("angelesco", 2))
        explicit = (log_energy(mu1) + log_energy(mu2) + log_energy(mu1, mu2))
        assert via_matrix == pytest.approx(explicit, rel=1e-14)

    def test_nikishin_no_second_neighbor_interaction(self):
        rng = np.random.default_rng(1)
        mus = [DiscreteMeasure(np.linspace(3, 4, 20), rng.random(20)),
               DiscreteMeasure(np.linspace(1, 2, 20), rng.random(20)),
               DiscreteMeasure(np.linspace(-1, 0, 20), rng.random(20))]
        via_matrix = energy_functional(mus, interaction_matrix("nikishin", 3))
        explicit = (sum(log_energy(m) for m in mus)
                    - log_energy(mus[0], mus[1]) - log_energy(mus[1], mus[2]))
        assert via_matrix == pytest.approx(explicit, rel=1e-14)
        # perturbing mu_3 leaves the mu_1 cross terms untouched by c_13 = 0
        assert interaction_matrix("nikishin", 3)[0, 2] == 0.0

    def test_fields_term(self):
        mu = DiscreteMeasure(np.asarray([0.0, 2.0]), np.asarray([1.0, 1.0]))
        base = energy_functional([mu], np.eye(1))
        with_field = energy_functional([mu], np.eye(1), fields=[[0.0, 1.0]])
        assert with_field - base == pytest.approx(2.0, abs=1e-13)

    def test_dimension_mismatch(self):
        mu = DiscreteMeasure(np.asarray([0.0]), np.asarray([1.0]))
        with pytest.raises(ValidationError):
            energy_functional([mu], np.eye(2))


class TestMinimize:
    def test_arcsine_recovery(self, arcsine_equilibrium):
        measures, report = arcsine_equilibrium
        mu = measures[0]
        assert report.converged
        assert cell_boundary_cdf_error(mu, arcsine_cdf) <= 1e-2
        i0 = int(np.argmin(np.abs(mu.grid)))
        assert mu.masses[i0] / mu.spacing == pytest.approx(1.0 / np.pi, abs=0.01)

    def test_energy_monotone(self, arcsine_equilibrium):
        _, report = arcsine_equilibrium
        hist = np.asarray(report.energy_history)
        assert np.all(np.diff(hist) <= 0.0)

    def test_reflection_symmetry(self, angelesco_equilibrium):
        measures, _ = angelesco_equilibrium
        m1, m2 = measures
        diff = np.abs(np.cumsum(m1.masses[::-1]) - np.cumsum(m2.masses)).max()
        assert diff <= 1e-3

    def test_kkt_residual_small(self, angelesco_equilibrium):
        measures, report = angelesco_equilibrium
        h = measures[0].spacing
        assert report.kkt_residual <= 10.0 * h

    def test_mass_scaling_quadruples_energy(self):
        iv = [mk.Interval(-1.0, 1.0)]
        p1 = EquilibriumProblem(tuple(iv), (1.0,), np.eye(1), None, (200,))
        p2 = EquilibriumProblem(tuple(iv), (2.0,), np.eye(1), None, (200,))
        _, r1 = minimize_equilibrium(p1, max_iter=3000)
        _, r2 = minimize_equilibrium(p2, max_iter=3000)
        assert r2.energy == pytest.approx(4.0 * r1.energy, rel=1e-6)

    def test_refinement_stability(self, arcsine_equilibrium):
        coarse_prob = EquilibriumProblem.angelesco([mk.Interval(-1.0, 1.0)], [1.0],
                                                   grid=500)
        coarse, _ = minimize_equilibrium(coarse_prob, max_iter=8000)
        fine = arcsine_equilibrium[0][0]
        err_c = cell_boundary_cdf_error(coarse[0], arcsine_cdf)
        err_f = cell_boundary_cdf_error(fine, arcsine_cdf)
        assert abs(err_c - err_f) <= 2e-2 and err_c <= 2e-2

    def test_quadratic_field_gives_semicircle(self):
        # V(x) = x^2 on a generous interval: mass settles on [-sqrt(2), sqrt(2)]
        # with the semicircle density sqrt(2 - x^2) / pi
        prob = EquilibriumProblem((mk.Interval(-2.0, 2.0),), (1.0,), np.eye(1),
                                  ([0.0, 0.0, 1.0],), (1200,))
        measures, report = minimize_equilibrium(prob, max_iter=8000)
        mu = measures[0]
        h = mu.spacing

        def semicircle_cdf(x):
            t = np.clip(x / np.sqrt(2.0), -1.0, 1.0)
            return 0.5 + (t * np.sqrt(1.0 - t * t) + np.arcsin(t)) / np.pi

        err = np.abs(np.cumsum(mu.masses) - semicircle_cdf(mu.grid + h / 2)).max()
        assert err <= 5e-3
        assert mu.masses[np.abs(mu.grid) > 1.5].sum() <= 1e-12
        assert report.kkt_residual <= 10.0 * h  # off-support potential stays above

    def test_bad_interaction_rejected(self):
        iv = (mk.Interval(-1.0, 1.0),)
        with pytest.raises(ValidationError):
            EquilibriumProblem(iv, (1.0,), np.asarray([[-1.0]]))

    def test_nikishin_masses(self):
        prob = EquilibriumProblem.nikishin(
            [mk.Interval(1.0, 2.0), mk.Interval(-1.0, 0.0)], [0.5, 0.5], grid=50)
        assert prob.masses == (1.0, 0.5)


class TestZeroCounting:
    def test_angelesco_roots(self, angelesco_mt):
        P = mk.type2_mop(angelesco_mt, (1, 1))
        roots = mk.poly_roots(P)
        nus = zero_counting_measure(roots, 2, list(mk.Interval(a, b)
                                                   for a, b in [(-1, 0), (0, 1)]))
        assert nus[0].total_mass == pytest.approx(0.5)
        assert nus[1].total_mass == pytest.approx(0.5)
        assert nus[0].grid[0] == pytest.approx(-0.5773502691896258, abs=1e-10)

    def test_empty_component(self):
        nus = zero_counting_measure([0.5], 1, [mk.Interval(-1, 0), mk.Interval(0, 1)])
        assert nus[0].total_mass == 0.0 and nus[1].total_mass == 1.0

    def test_stray_root_rejected(self):
        with pytest.raises(ValidationError):
            zero_counting_measure([5.0], 1, [mk.Interval(-1, 1)])


class TestKolmogorov:
    def test_identical(self):
        mu = DiscreteMeasure(np.asarray([0.0, 1.0]), np.asarray([0.5, 0.5]))
        assert kolmogorov_distance(mu, mu) == 0.0

    def test_shifted_deltas(self):
        mu = DiscreteMeasure(np.asarray([0.0]), np.asarray([1.0]))
        nu = DiscreteMeasure(np.asarray([1.0]), np.asarray([1.0]))
        assert kolmogorov_distance(mu, nu) == pytest.approx(1.0)

    def test_half_shift(self):
        mu = DiscreteMeasure(np.asarray([0.0, 1.0]), np.asarray([0.5, 0.5]))
        nu = DiscreteMeasure(np.asarray([0.5, 1.0]), np.asarray([0.5, 0.5]))
        assert kolmogorov_distance(mu, nu) == pytest.approx(0.5)

    def test_mass_mismatch(self):
        mu = DiscreteMeasure(np.asarray([0.0]), np.asarray([1.0]))
        nu = DiscreteMeasure(np.asarray([0.0]), np.asarray([0.5]))
        with pytest.raises(ValidationError):
            kolmogorov_distance(mu, nu)


def _kkt_problems():
    iv = mk.Interval
    return {
        "nikishin_p2": lambda: EquilibriumProblem.nikishin(
            [iv(1.0, 2.0), iv(-1.0, 0.0)], [0.5, 0.5], grid=500),
        "nikishin_p3": lambda: EquilibriumProblem.nikishin(
            [iv(3.0, 4.0), iv(1.0, 2.0), iv(-1.0, 0.0)], [0.4, 0.3, 0.3], grid=300),
        "semicircle": lambda: EquilibriumProblem(
            (iv(-2.0, 2.0),), (1.0,), np.eye(1), ([0.0, 0.0, 1.0],), (1200,)),
        "pushed_angelesco": lambda: EquilibriumProblem.angelesco(
            [iv(-3.0, 0.0), iv(0.0, 1.0)], [0.5, 0.5], grid=600),
        "skewed_ray": lambda: EquilibriumProblem.angelesco(
            [iv(-1.0, 0.0), iv(0.0, 1.0)], [0.8, 0.2], grid=600),
        "angelesco_fields": lambda: EquilibriumProblem.angelesco(
            [iv(-1.0, 0.0), iv(0.0, 1.0)], [0.5, 0.5], grid=400,
            fields=[[0.0, 1.0], [0.0, 0.0, 3.0]]),
    }


def independent_kkt(measures, prob):
    """KKT residual of a solution from potentials rebuilt pairwise in the test:
    how far the effective potential dips below each component's level."""
    worst = 0.0
    for j, mu in enumerate(measures):
        t = np.zeros(mu.grid.size)
        for k, nu in enumerate(measures):
            if prob.matrix[j, k] != 0.0:
                d = np.abs(mu.grid[:, None] - nu.grid[None, :])
                if j == k:
                    d = np.maximum(d, 0.5 * mu.spacing)
                t -= 2.0 * prob.matrix[j, k] * (np.log(d) @ nu.masses)
        if prob.fields[j] is not None:
            t += np.polynomial.polynomial.polyval(mu.grid, prob.fields[j])
        charged = mu.masses > 1e-12 * mu.total_mass / mu.grid.size
        level = np.sum(t[charged] * mu.masses[charged]) / mu.masses[charged].sum()
        worst = max(worst, float(np.max(level - t)))
    return worst


class TestExactSolve:
    def test_arcsine_kkt(self, arcsine_equilibrium):
        measures, report = arcsine_equilibrium
        prob = EquilibriumProblem.angelesco([mk.Interval(-1.0, 1.0)], [1.0], grid=2000)
        assert report.kkt_residual <= 1e-12
        assert independent_kkt(measures, prob) <= 1e-12
        assert report.energy == pytest.approx(
            energy_functional(measures, prob.matrix), rel=1e-12)

    def test_symmetric_angelesco_mirrors(self, angelesco_equilibrium):
        measures, report = angelesco_equilibrium
        m1, m2 = measures
        assert report.kkt_residual <= 1e-12
        assert np.abs(m1.masses[::-1] - m2.masses).max() <= 1e-12
        assert report.energy == pytest.approx(
            energy_functional(measures, interaction_matrix("angelesco", 2)), rel=1e-12)

    @pytest.mark.parametrize("name", sorted(_kkt_problems()))
    def test_kkt_and_energy(self, name):
        prob = _kkt_problems()[name]()
        measures, report = minimize_equilibrium(prob)
        assert report.converged
        assert report.kkt_residual <= 1e-12
        assert independent_kkt(measures, prob) <= 1e-12
        for mu, mass in zip(measures, prob.masses):
            assert mu.total_mass == pytest.approx(mass, rel=1e-12)
        assert report.energy == pytest.approx(
            energy_functional(measures, prob.matrix, prob.fields), rel=1e-12)
        hist = np.asarray(report.energy_history)
        assert hist.size == 2 and hist[1] <= hist[0]

    def test_unsettled_active_set_raises(self):
        prob = _kkt_problems()["semicircle"]()
        with pytest.raises(NumericError, match="KKT residual"):
            minimize_equilibrium(prob, max_iter=1)

    def test_coincident_cross_grids_raise(self):
        # the Angelesco constructor rejects this problem; the solver guards it too
        iv = mk.Interval(-1.0, 1.0)
        prob = EquilibriumProblem((iv, iv), (0.5, 0.5), interaction_matrix("angelesco", 2),
                                  grid_sizes=(20, 20))
        with pytest.raises(SingularEnergyError):
            minimize_equilibrium(prob)

    @pytest.mark.parametrize("ivs", [[(-1.0, 0.5), (0.0, 1.0)], [(-1.0, 1.0), (-1.0, 1.0)],
                                     [(0.0, 1.0), (-2.0, -1.0), (-1.5, 0.5)]])
    def test_angelesco_rejects_overlapping_interiors(self, ivs):
        with pytest.raises(ValidationError, match="overlap"):
            EquilibriumProblem.angelesco([mk.Interval(*iv) for iv in ivs],
                                         [1.0 / len(ivs)] * len(ivs), grid=20)

    @pytest.mark.parametrize("ray", [[-0.5, 1.5], [0.5, 0.5, 0.0], [1.0], [0.5, float("nan")]])
    @pytest.mark.parametrize("kind", ["angelesco", "nikishin"])
    def test_ray_needs_p_positive_parts(self, kind, ray):
        ivs = [mk.Interval(1.0, 2.0), mk.Interval(-1.0, 0.0)]
        with pytest.raises(ValidationError):
            getattr(EquilibriumProblem, kind)(ivs, ray, grid=50)

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["angelesco", "nikishin"]),
           r=st.floats(min_value=0.1, max_value=0.9),
           coeffs=st.lists(st.lists(st.floats(min_value=-3.0, max_value=3.0),
                                    min_size=3, max_size=3), min_size=2, max_size=2),
           grid=st.integers(min_value=100, max_value=200))
    def test_random_problems_reach_kkt_or_raise(self, kind, r, coeffs, grid):
        ivs = ([mk.Interval(-1.0, 0.0), mk.Interval(0.0, 1.0)] if kind == "angelesco"
               else [mk.Interval(1.0, 2.0), mk.Interval(-1.0, 0.0)])
        prob = getattr(EquilibriumProblem, kind)(ivs, [r, 1.0 - r], grid=grid,
                                                 fields=coeffs)
        try:
            measures, report = minimize_equilibrium(prob)
        except NumericError:
            return
        assert report.converged and report.kkt_residual <= 1e-10
        assert independent_kkt(measures, prob) <= 1e-10
        for mu, mass in zip(measures, prob.masses):
            assert mu.total_mass == pytest.approx(mass, rel=1e-12)
