import itertools
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import connected_components

from hyprelax.chapman import (
    _min_cost_assignment,
    ChapmanError,
    ConditionBViolatedError,
    ConditionViolatedError,
    GroupNotSeparatedError,
    calibrate_separation_radius,
    compute_parabolic_limit,
    eigenvalue_sweep,
    exact_group_projection,
    high_frequency_expansion,
    low_frequency_expansion,
    require,
    zero_group,
)
from hyprelax.linalg import cluster_tolerance, eigendecompose
from hyprelax.model import (
    HyperbolicSystem,
    check_condition_B,
    check_condition_D,
    load_system,
    sphere_samples,
)
from hyprelax.perturbation import PerturbationFamily, reduce_semisimple_group
from hyprelax.systems import damped_euler_2d, damped_euler_3d, goldstein_kac_1d, goldstein_kac_3d

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# Calibrated on both example systems; frozen against algorithm drift.
EXAMPLE_SEPARATION_RADIUS = 0.42044820762685775


def zero_mean_velocities(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    velocities = rng.uniform(-1.0, 1.0, size=(3, 3))
    return velocities - velocities.mean(axis=0)


def three_speed_diffusion(a: float, b: float, c: float, velocities: np.ndarray) -> np.ndarray:
    """Closed-form diffusion of the three-speed exchange system when the
    velocities have zero mean: rank-one velocity outer products weighted by
    the exchange rate of the opposite pair."""
    weights = (a, b, c)
    total = sum(
        weight * np.outer(v, v) for weight, v in zip(weights, velocities)
    )
    return total / (3.0 * (a * b + b * c + c * a))


class TestParabolicLimit:
    def test_two_speed_closed_form(self):
        limit = compute_parabolic_limit(goldstein_kac_1d())
        assert_allclose(limit.drift, [0.0], atol=1e-12)
        assert_allclose(limit.diffusion, [[1.0]], atol=1e-12)

    def test_two_speed_parameter_scaling(self):
        limit = compute_parabolic_limit(goldstein_kac_1d(rate=1.0, speed=2.0))
        assert_allclose(limit.diffusion, [[2.0]], atol=1e-12)

    @pytest.mark.parametrize("speed", [1.0, 1e4])
    def test_fast_two_speed_diffusion_within_rounding(self, speed):
        # At speed 1e4 the traces carry an imaginary residue of 8e-9 on
        # D = 1e8: rounding, relative to the coefficients it rides on.
        rate = 0.5
        limit = compute_parabolic_limit(goldstein_kac_1d(rate=rate, speed=speed))
        assert_allclose(limit.diffusion, [[speed**2 / (2.0 * rate)]], rtol=1e-12, atol=0)

    def test_three_dimensional_euler_identity_diffusion(self):
        limit = compute_parabolic_limit(load_system(CONFIGS / "damped_euler_3d.json"))
        assert_allclose(limit.drift, np.zeros(3), rtol=0, atol=1e-12)
        assert_allclose(limit.diffusion, np.eye(3), rtol=0, atol=1e-12)

    def test_damped_euler_identity_diffusion(self):
        limit = compute_parabolic_limit(damped_euler_2d())
        assert_allclose(limit.drift, [0.0, 0.0], atol=1e-10)
        assert_allclose(limit.diffusion, np.eye(2), atol=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_three_speed_closed_form(self, seed):
        rng = np.random.default_rng(100 + seed)
        a, b, c = rng.uniform(0.2, 2.0, size=3)
        velocities = zero_mean_velocities(seed)
        system = goldstein_kac_3d(a, b, c, velocities=velocities)
        limit = compute_parabolic_limit(system)
        assert_allclose(limit.drift, np.zeros(3), atol=1e-10)
        assert_allclose(
            limit.diffusion, three_speed_diffusion(a, b, c, velocities), atol=1e-10
        )

    def test_projection_invariants(self):
        limit = compute_parabolic_limit(damped_euler_2d())
        p0 = limit.projection
        assert_allclose(p0 @ p0, p0, atol=1e-12)
        assert np.trace(p0).real == pytest.approx(1.0, abs=1e-12)
        assert limit.imaginary_residual <= 1e-10
        assert limit.gap == pytest.approx(1.0, abs=1e-12)
        # The reduced resolvent inverts the relaxation off its kernel.
        b = damped_euler_2d().relaxation
        assert_allclose(
            limit.reduced @ b, np.eye(3) - p0, atol=1e-12
        )

    def test_phase_and_form(self):
        limit = compute_parabolic_limit(damped_euler_2d())
        ks = np.array([[0.3, -0.4], [1.0, 2.0]])
        assert_allclose(limit.drift_phase(ks), [0.0, 0.0], atol=1e-10)
        assert_allclose(limit.diffusion_form(ks), [0.25, 5.0], atol=1e-9)

    def test_first_order_projection_is_directional_sum(self):
        limit = compute_parabolic_limit(damped_euler_2d())
        w = np.array([0.6, -0.8])
        expected = w[0] * limit.corrections[0] + w[1] * limit.corrections[1]
        assert_allclose(limit.first_order_projection(w), expected, atol=0.0)

    def test_rejects_relaxation_without_spectral_gap(self):
        system = HyperbolicSystem(
            advections=(np.eye(2),), relaxation=np.zeros((2, 2))
        )
        with pytest.raises(ConditionBViolatedError):
            compute_parabolic_limit(system)


class TestRequire:
    def test_passed_report_is_returned(self):
        report = check_condition_B(goldstein_kac_1d())
        assert require(report) is report

    def test_failed_b_raises_its_own_error(self):
        report = check_condition_B(
            HyperbolicSystem(advections=(np.eye(2),), relaxation=np.eye(2))
        )
        with pytest.raises(ConditionBViolatedError) as caught:
            require(report)
        assert str(caught.value) == "condition B fails: relaxation matrix has no kernel"
        assert caught.value.report is report

    def test_other_failed_condition_raises_the_base_error(self):
        report = check_condition_D(
            HyperbolicSystem(
                advections=(np.eye(2),),
                relaxation=0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]]),
            )
        )
        with pytest.raises(ConditionViolatedError) as caught:
            require(report)
        assert not isinstance(caught.value, ConditionBViolatedError)
        assert str(caught.value) == f"condition D fails: {report.summary}"
        assert caught.value.report is report


class TestLowFrequencyExpansion:
    def test_groups_complement_kernel_projection(self):
        expansion = low_frequency_expansion(goldstein_kac_3d(0.5, 0.5, 0.5))
        assert len(expansion.groups) == 1
        group = expansion.groups[0]
        assert group.value == pytest.approx(1.5, abs=1e-12)
        assert group.multiplicity == 2
        total = expansion.limit.projection + group.projection
        assert_allclose(total, np.eye(3), atol=1e-10)
        assert_allclose(group.nilpotent, np.zeros((3, 3)), atol=1e-10)

    def test_lambda0_series_models_small_branch(self):
        system = goldstein_kac_1d()
        expansion = low_frequency_expansion(system)
        moduli = np.geomspace(1e-3, 1e-2, 7)
        residuals = []
        for k in moduli:
            eigenvalues = np.linalg.eigvals(system.symbol(np.array([k])))
            small = eigenvalues[np.argmin(np.abs(eigenvalues))]
            residuals.append(abs(small - expansion.lambda0_series(np.array([k]))))
        slope = np.polyfit(np.log(moduli), np.log(residuals), 1)[0]
        # Odd orders vanish by the symmetry of the two-speed system, so the
        # residual after the quadratic model is quartic.
        assert slope > 3.7

    def test_requires_uniform_dissipation(self):
        marginal = HyperbolicSystem(
            advections=(np.eye(2),),
            relaxation=0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]]),
        )
        with pytest.raises(ConditionViolatedError):
            low_frequency_expansion(marginal)


class TestExactGroupProjection:
    def test_zero_frequency_matches_limit(self):
        system = goldstein_kac_1d()
        limit = compute_parabolic_limit(system)
        assert_allclose(
            exact_group_projection(system, np.array([0.0])),
            limit.projection,
            atol=1e-12,
        )

    def test_projection_commutes_with_symbol(self):
        system = damped_euler_2d()
        k = np.array([0.1, -0.15])
        projection = exact_group_projection(system, k)
        symbol = system.symbol(k)
        assert_allclose(projection @ projection, projection, atol=1e-10)
        assert_allclose(projection @ symbol, symbol @ projection, atol=1e-10)
        assert np.trace(projection).real == pytest.approx(1.0, abs=1e-10)

    def test_first_order_accuracy_of_correction(self):
        system = goldstein_kac_1d()
        limit = compute_parabolic_limit(system)
        moduli = np.geomspace(1e-4, 1e-2, 7)
        residuals = []
        for k in moduli:
            exact = exact_group_projection(system, np.array([k]))
            model = limit.projection + 1j * k * limit.corrections[0]
            residuals.append(np.max(np.abs(exact - model)))
        slope = np.polyfit(np.log(moduli), np.log(residuals), 1)[0]
        assert slope > 1.7

    def test_collision_raises(self):
        # The two symbol branches of the two-speed system meet at |k| = 1/2.
        with pytest.raises(GroupNotSeparatedError):
            exact_group_projection(goldstein_kac_1d(), np.array([0.5]))

    def test_one_component_projection_is_the_identity(self):
        system = HyperbolicSystem(advections=(np.eye(1),), relaxation=np.zeros((1, 1)))
        assert_allclose(exact_group_projection(system, np.array([0.3])), [[1.0]], atol=1e-15)

    def test_zero_group_on_a_stack(self):
        system = goldstein_kac_1d()
        k = np.array([[0.1], [0.2], [-0.3]])
        symbols = system.symbol(k)
        values = np.linalg.eigvals(symbols)
        nearest = zero_group(values, symbols, k)
        assert_allclose(nearest, np.argmin(np.abs(values), axis=1), atol=0)
        # The branches of goldstein_kac_1d(r) meet at |k| = r; of the crowded
        # rows the one of smallest |k| is named, whatever its place.
        k = np.array([[0.1], [-1.0], [0.5]])
        symbols = np.stack(
            [goldstein_kac_1d(rate).symbol(row) for rate, row in zip((0.5, 1.0, 0.5), k)]
        )
        with pytest.raises(GroupNotSeparatedError, match=r"at \|k\| = 0.5 is below"):
            zero_group(np.linalg.eigvals(symbols), symbols, k)

    def test_conjugate_pair_past_the_exceptional_point_is_not_separated(self):
        # Past |k| = 1/2 the two-speed branches are 0.5 +- 0.49i at |k| = 0.7:
        # 0.98 apart but of equal modulus, so which one is nearest 0 is rounding.
        system = goldstein_kac_1d()
        k = np.array([[0.2], [0.7], [-0.7]])
        symbols = system.symbol(k)
        values = np.linalg.eigvals(symbols)
        assert_allclose(np.abs(values[1:]), 0.7, rtol=1e-14)
        assert abs(values[1, 0] - values[1, 1]) > 0.97
        with pytest.raises(GroupNotSeparatedError, match=r"at \|k\| = 0.7 is below"):
            zero_group(values, symbols, k)
        with pytest.raises(GroupNotSeparatedError):
            exact_group_projection(system, np.array([0.7]))


# One system from each builder; the last has skew velocities (seed 0).
_VELOCITIES = np.random.default_rng(0).normal(size=(3, 3))
BUILT_SYSTEMS = {
    "two_speed": goldstein_kac_1d(),
    "two_speed_fast": goldstein_kac_1d(0.3, 2.0),
    "euler_2d": damped_euler_2d(),
    "euler_3d": damped_euler_3d(),
    "three_velocity": goldstein_kac_3d(0.5, 1.0, 1.5),
    "three_velocity_skew": goldstein_kac_3d(0.4, 1.1, 1.7, _VELOCITIES - _VELOCITIES.mean(axis=0)),
}


def per_level_separation_radius(system: HyperbolicSystem) -> float:
    """The calibration scan one direction and one level at a time."""
    gap0 = check_condition_B(system).data["gap"]
    radius = np.inf
    for w in sphere_samples(system.dimension, 32):
        epsilon, last_good, branch = gap0 / 64.0, 0.0, 0.0 + 0.0j
        for _ in range(96):
            eigenvalues = np.linalg.eigvals(system.symbol(epsilon * w))
            follow = int(np.argmin(np.abs(eigenvalues - branch)))
            others = np.delete(eigenvalues, follow)
            if float(np.min(np.abs(others - eigenvalues[follow]))) <= 0.5 * gap0:
                break
            branch, last_good = eigenvalues[follow], epsilon
            epsilon *= 2.0 ** (1.0 / 8.0)
        radius = min(radius, last_good)
    return radius


class TestCalibration:
    @pytest.mark.parametrize("name", sorted(BUILT_SYSTEMS))
    def test_equals_the_per_level_scan(self, name):
        system = BUILT_SYSTEMS[name]
        assert calibrate_separation_radius(system) == per_level_separation_radius(system)

    def test_frozen_value_two_speed(self):
        radius = calibrate_separation_radius(goldstein_kac_1d())
        assert radius == pytest.approx(EXAMPLE_SEPARATION_RADIUS, rel=1e-12)

    def test_frozen_value_damped_euler(self):
        radius = calibrate_separation_radius(damped_euler_2d())
        assert radius == pytest.approx(EXAMPLE_SEPARATION_RADIUS, rel=1e-12)

    def test_calibrated_radius_is_safe(self):
        system = goldstein_kac_1d()
        radius = calibrate_separation_radius(system)
        exact_group_projection(system, np.array([radius]))


class TestHighFrequencyExpansion:
    def test_two_speed_groups(self):
        expansion = high_frequency_expansion(goldstein_kac_1d(), np.array([1.0]))
        values = sorted(group.value for group in expansion.groups)
        assert_allclose(values, [-1.0, 1.0], atol=1e-9)
        for group in expansion.groups:
            assert_allclose([part.value for part in group.parts], [0.5], atol=1e-9)
            assert [part.multiplicity for part in group.parts] == [1]

    def test_damped_euler_groups(self):
        expansion = high_frequency_expansion(damped_euler_2d(), np.array([1.0, 0.0]))
        by_value = {round(group.value, 6): group for group in expansion.groups}
        assert set(by_value) == {-1.0, 0.0, 1.0}
        for value, beta in ((0.0, 1.0), (1.0, 0.5), (-1.0, 0.5)):
            parts = by_value[value].parts
            assert_allclose([part.value for part in parts], [beta], atol=1e-9)

    @pytest.mark.parametrize(
        "system, w",
        [
            (goldstein_kac_1d(), np.array([1.0])),
            (damped_euler_2d(), np.array([0.6, 0.8])),
        ],
    )
    def test_trace_conservation(self, system, w):
        expansion = high_frequency_expansion(system, w)
        weighted = sum(
            part.value * part.multiplicity
            for group in expansion.groups
            for part in group.parts
        )
        assert weighted.real == pytest.approx(np.trace(system.relaxation), abs=1e-9)
        assert abs(weighted.imag) < 1e-9

    @pytest.mark.parametrize(
        "system, w",
        [
            (goldstein_kac_1d(), np.array([1.0])),
            (damped_euler_2d(), np.array([1.0, 0.0])),
            # System files carry no diagonalizer; the model needs none.
            (load_system(CONFIGS / "goldstein_kac.json"), np.array([-1.0])),
            (load_system(CONFIGS / "damped_euler.json"), np.array([1.0, 1.0])),
        ],
    )
    def test_predicts_spectrum_at_large_modulus(self, system, w):
        expansion = high_frequency_expansion(system, w)
        for modulus in (100.0, 500.0):
            actual = np.linalg.eigvals(system.symbol(modulus * expansion.direction))
            predicted = expansion.predicted_eigenvalues(modulus)
            actual = actual[np.argsort(actual.imag)]
            predicted = predicted[np.argsort(predicted.imag)]
            assert np.max(np.abs(actual - predicted)) < 1.0 / modulus

    def test_group_projections_resolve_identity(self):
        expansion = high_frequency_expansion(damped_euler_2d(), np.array([0.0, 1.0]))
        total = sum(group.projection for group in expansion.groups)
        assert_allclose(total, np.eye(3), atol=1e-10)

    def test_crossing_direction_is_one_group(self):
        # Velocities e_1 and e_2 give branches w_1 and w_2, which cross here.
        system = goldstein_kac_3d(0.5, 0.5, 0.5)
        w = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        expansion = high_frequency_expansion(system, w)
        multiplicities = {
            round(group.value, 9): sum(part.multiplicity for part in group.parts)
            for group in expansion.groups
        }
        assert multiplicities == {0.0: 1, round(1.0 / np.sqrt(2.0), 9): 2}
        for modulus in (1e2, 1e3, 1e4):
            actual = np.linalg.eigvals(system.symbol(modulus * w))
            predicted = expansion.predicted_eigenvalues(modulus)
            actual = actual[np.lexsort((actual.real, actual.imag))]
            predicted = predicted[np.lexsort((predicted.real, predicted.imag))]
            assert np.max(np.abs(actual - predicted)) <= 1.0 / modulus

    def test_undamped_part_is_the_branch_condition_d_reports(self):
        # A = I: the only group is nu = 1 and B compressed onto it is B, whose
        # kernel gives beta = 0, the purely imaginary branch D fails on.
        marginal = HyperbolicSystem(
            advections=(np.eye(2),),
            relaxation=0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]]),
        )
        expansion = high_frequency_expansion(marginal, np.array([1.0]))
        (group,) = expansion.groups
        assert group.value == pytest.approx(1.0)
        betas = sorted(part.value.real for part in group.parts)
        assert_allclose(betas, [0.0, 1.0], atol=1e-12)
        report = check_condition_D(marginal)
        assert not report.passed
        frequency = report.witness["frequency"][0]
        real, imag = report.witness["eigenvalue"]
        assert real == pytest.approx(betas[0], abs=1e-10)
        assert imag == pytest.approx(group.value * frequency, rel=1e-12)

    @pytest.mark.parametrize(
        "system",
        [
            goldstein_kac_1d(),
            damped_euler_2d(),
            goldstein_kac_3d(0.5, 0.5, 0.5),
            load_system(CONFIGS / "damped_euler.json"),
            load_system(CONFIGS / "damped_euler_3d.json"),
        ],
        ids=lambda system: system.name,
    )
    def test_matches_kato_reduction_in_the_original_frame(self, system):
        # The oracle reduces each eigenvalue group of i A(w) against B by
        # contour projections of the full n x n matrices.
        for w in sphere_samples(system.dimension, 16):
            expansion = high_frequency_expansion(system, w)
            family = PerturbationFamily(1j * system.advection(w), system.relaxation)
            clusters = sorted(eigendecompose(family.terms[0]).clusters, key=lambda c: c.value.imag)
            assert len(expansion.groups) == len(clusters)
            for group, cluster in zip(expansion.groups, clusters):
                reduced = reduce_semisimple_group(family, cluster.value)
                assert group.value == pytest.approx(cluster.value.imag, abs=1e-12)
                assert_allclose(group.projection, reduced.group.projection, rtol=0, atol=1e-12)
                assert [part.multiplicity for part in group.parts] == [
                    part.multiplicity for part in reduced.parts
                ]
                assert_allclose(
                    [part.value for part in group.parts],
                    [part.value for part in reduced.parts],
                    rtol=0,
                    atol=1e-12,
                )

    @pytest.mark.parametrize(
        "advection, named",
        [
            (np.array([[0.0, 1.0], [0.0, 0.0]]), "not diagonalizable"),
            (np.array([[0.0, 1.0], [-1.0, 0.0]]), "non-real"),
        ],
    )
    def test_structural_failure_at_w_raises(self, advection, named):
        system = HyperbolicSystem(
            advections=(advection,),
            relaxation=0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]]),
        )
        with pytest.raises(ConditionViolatedError, match=named) as caught:
            high_frequency_expansion(system, np.array([1.0]))
        assert "w = [1.0]" in str(caught.value)

    def test_singular_eigenvector_matrix_is_not_diagonalizable(self):
        # For the 3 x 3 Jordan block, eig returns an exactly singular
        # eigenvector matrix, which has no inverse to project with.
        system = HyperbolicSystem(advections=(np.diag([1.0, 1.0], 1),), relaxation=np.eye(3))
        with pytest.raises(ConditionViolatedError, match="not diagonalizable") as caught:
            high_frequency_expansion(system, np.array([1.0]))
        assert "w = [1.0]" in str(caught.value)


def per_point_sweep(system: HyperbolicSystem, frequencies: np.ndarray):
    """Sorted eigenvalues and cluster count at each frequency, one point at a
    time, tracked by the exact assignment."""
    rows, counts, previous = [], [], None
    for k in frequencies:
        symbol = system.symbol(k)
        values = np.linalg.eigvals(symbol)
        values = values[np.lexsort((values.imag, values.real))]
        close = np.abs(values[:, None] - values[None, :]) <= cluster_tolerance(symbol)
        counts.append(connected_components(close, directed=False)[0])
        if previous is not None:
            values = values[_min_cost_assignment(np.abs(values[:, None] - previous[None, :]))]
        rows.append(values)
        previous = values
    return np.stack(rows), counts


class TestEigenvalueSweep:
    @pytest.mark.parametrize(
        "name, direction",
        [
            ("two_speed", [1.0]),
            ("two_speed", [-1.0]),
            ("euler_2d", [0.6, 0.8]),
            ("euler_3d", [1.0, 2.0, 2.0]),
            ("three_velocity_skew", [1.0, -2.0, 2.0]),
        ],
    )
    def test_bitwise_equal_to_the_per_point_sweep(self, name, direction):
        system = BUILT_SYSTEMS[name]
        w = np.array(direction) / np.linalg.norm(direction)
        # The linear path steps onto the two-speed exceptional point |k| = 1/2.
        for moduli in (np.geomspace(1e-2, 1e2, 200), np.linspace(0.3, 0.7, 41)):
            frequencies = moduli[:, None] * w
            points = eigenvalue_sweep(system, frequencies)
            values, counts = per_point_sweep(system, frequencies)
            assert np.stack([p.eigenvalues for p in points]).tobytes() == values.tobytes()
            assert [p.cluster_count for p in points] == counts
            assert np.stack([p.k for p in points]).tobytes() == frequencies.tobytes()

    def test_two_speed_exceptional_point(self):
        system = goldstein_kac_1d()
        path = np.linspace(0.3, 0.7, 41)[:, None]
        points = eigenvalue_sweep(system, path)
        counts = [point.cluster_count for point in points]
        assert counts[0] == 2 and counts[-1] == 2
        assert min(counts) == 1

    def test_branches_are_continuous(self):
        system = goldstein_kac_1d()
        path = np.linspace(0.3, 0.7, 81)[:, None]
        points = eigenvalue_sweep(system, path)
        values = np.stack([point.eigenvalues for point in points])
        steps = np.max(np.abs(np.diff(values, axis=0)), axis=1)
        assert np.max(steps) < 0.3

    def test_closed_form_past_collision(self):
        system = goldstein_kac_1d()
        points = eigenvalue_sweep(system, np.array([[0.7]]))
        values = points[0].eigenvalues
        assert_allclose(values.real, [0.5, 0.5], atol=1e-12)
        assert_allclose(
            np.sort(values.imag), [-np.sqrt(0.24), np.sqrt(0.24)], atol=1e-12
        )

    def test_first_point_sorted(self):
        system = damped_euler_2d()
        points = eigenvalue_sweep(system, np.array([[0.2, 0.1]]))
        values = points[0].eigenvalues
        order = np.lexsort((values.imag, values.real))
        assert_allclose(order, np.arange(3))


class TestMinCostAssignment:
    @staticmethod
    def costs(seed: int):
        # Small integer costs give many tied optima.
        rng = np.random.default_rng(seed)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            yield rng.random((n, n))
            yield rng.integers(0, 4, size=(n, n)).astype(float)

    @staticmethod
    def total(cost: np.ndarray, rows: np.ndarray) -> float:
        assert sorted(rows.tolist()) == list(range(cost.shape[0]))
        return float(cost[rows, np.arange(cost.shape[0])].sum())

    def test_matches_scipy_optimal_cost(self):
        for cost in self.costs(0):
            rows, cols = linear_sum_assignment(cost)
            expected = float(cost[rows, cols].sum())
            assert self.total(cost, _min_cost_assignment(cost)) == pytest.approx(
                expected, abs=1e-12
            )

    def test_matches_brute_force(self):
        for cost in itertools.islice(self.costs(1), 200):
            n = cost.shape[0]
            if n > 6:
                continue
            best = min(
                cost[list(rows), range(n)].sum() for rows in itertools.permutations(range(n))
            )
            assert self.total(cost, _min_cost_assignment(cost)) == pytest.approx(
                best, abs=1e-12
            )

    def test_all_tied(self):
        assert self.total(np.ones((5, 5)), _min_cost_assignment(np.ones((5, 5)))) == 5.0
