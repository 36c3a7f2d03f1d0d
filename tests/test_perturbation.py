import numpy as np
import pytest
from numpy.testing import assert_allclose

from hyprelax.perturbation import (
    MAX_SERIES_ORDER,
    NotAnEigenvalueError,
    NotSemisimpleError,
    OrderTooLargeError,
    PerturbationFamily,
    PreconditionViolatedError,
    partition_derivative,
    projection_coefficients,
    reduce_semisimple_group,
    symmetry_vanishing_check,
    total_projection_series,
    weighted_mean_series,
)
from hyprelax.systems import damped_euler_2d

# Two-speed exchange pencil: T(z) = T0 + z T1 with the branch through 0 equal
# to (1 - sqrt(1 + 4 z^2)) / 2 = -z^2 + z^4 - 2 z^6 + ...
EXCHANGE_T0 = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])
EXCHANGE_T1 = np.diag([-1.0, 1.0])
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def exchange_family() -> PerturbationFamily:
    return PerturbationFamily(EXCHANGE_T0, EXCHANGE_T1)


def random_simple_pencil(seed: int, n: int = 4) -> tuple[PerturbationFamily, complex]:
    """Linear pencil whose base term has well-separated simple eigenvalues."""
    rng = np.random.default_rng(seed)
    t0 = np.diag(np.arange(n, dtype=float) * 2.0)
    basis = rng.normal(size=(n, n)) + n * np.eye(n)
    t0 = basis @ t0 @ np.linalg.inv(basis)
    t1 = rng.normal(size=(n, n))
    return PerturbationFamily(t0, t1), 0.0


def nearest_eigenvalues(matrix: np.ndarray, target: complex, count: int) -> np.ndarray:
    values = np.linalg.eigvals(matrix)
    order = np.argsort(np.abs(values - target))
    return values[order[:count]]


def fitted_slope(z: np.ndarray, err: np.ndarray) -> float:
    return float(np.polyfit(np.log(z), np.log(err), 1)[0])


class TestPerturbationFamily:
    def test_evaluate_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        terms = [rng.normal(size=(3, 3)) for _ in range(4)]
        family = PerturbationFamily(terms[0], terms[1], tuple(terms[2:]))
        z = 0.37
        direct = sum(z**j * t for j, t in enumerate(terms))
        assert_allclose(family.evaluate(z), direct, atol=1e-14)
        assert family.degree == 3

    def test_term_beyond_degree_is_zero(self):
        family = exchange_family()
        assert np.all(family.term(5) == 0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PerturbationFamily(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            PerturbationFamily(np.zeros((2, 2)), np.zeros((3, 3)))


class TestSimpleEigenvalueSeries:
    """:func:`weighted_mean_series` on simple groups, where the weighted mean
    is the eigenvalue branch itself."""

    def test_two_level_closed_form(self):
        # T0 = diag(0, 1), T1 = [[a, b], [c, d]]: lam1 = a, lam2 = -bc.
        family = PerturbationFamily(np.diag([0.0, 1.0]), np.array([[1.0, 2.0], [3.0, 4.0]]))
        coeffs = weighted_mean_series(family, 0.0, order=2)
        assert_allclose(coeffs, [0.0, 1.0, -6.0], atol=1e-10)

    def test_exchange_branch_closed_form(self):
        coeffs = weighted_mean_series(exchange_family(), 0.0, order=MAX_SERIES_ORDER)
        assert_allclose(coeffs, [0.0, 0.0, -1.0, 0.0, 1.0, 0.0, -2.0], atol=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_truncation_error_order(self, seed):
        family, lam0 = random_simple_pencil(seed)
        coeffs = weighted_mean_series(family, lam0, order=3)
        z = np.geomspace(1e-3, 1e-2, 6)
        for order in (1, 2, 3):
            partial = np.array(
                [sum(coeffs[j] * zz**j for j in range(order + 1)) for zz in z]
            )
            exact = np.array(
                [nearest_eigenvalues(family.evaluate(zz), lam0, 1)[0] for zz in z]
            )
            slope = fitted_slope(z, np.abs(exact - partial))
            assert slope > order + 0.7

    def test_unknown_eigenvalue_rejected(self):
        with pytest.raises(NotAnEigenvalueError):
            weighted_mean_series(exchange_family(), 0.3)

    def test_order_cap(self):
        with pytest.raises(OrderTooLargeError):
            weighted_mean_series(exchange_family(), 0.0, order=MAX_SERIES_ORDER + 1)


class TestProjectionSeries:
    @pytest.mark.parametrize("seed", range(4))
    def test_closed_form_matches_quadrature(self, seed):
        family, lam0 = random_simple_pencil(seed)
        expansion = total_projection_series(family, lam0)
        coefficients = projection_coefficients(family, lam0, 2)
        assert_allclose(expansion.group.projection, coefficients[0], atol=1e-9)
        assert_allclose(expansion.corrections[0], coefficients[1], atol=1e-8)
        assert_allclose(expansion.corrections[1], coefficients[2], atol=1e-7)

    def test_quadratic_family_second_order(self):
        rng = np.random.default_rng(21)
        family = PerturbationFamily(
            np.diag([0.0, 2.0, 5.0]),
            rng.normal(size=(3, 3)),
            (rng.normal(size=(3, 3)),),
        )
        expansion = total_projection_series(family, 0.0)
        coefficients = projection_coefficients(family, 0.0, 2)
        assert_allclose(expansion.corrections[0], coefficients[1], atol=1e-8)
        assert_allclose(expansion.corrections[1], coefficients[2], atol=1e-7)

    def test_defective_base_term(self):
        # The whole spectrum of T0 is one defective group at 0; the series
        # must still match the quadrature oracle.
        t0 = np.array([[0.0, 1.0], [0.0, 0.0]])
        rng = np.random.default_rng(3)
        family = PerturbationFamily(t0, rng.normal(size=(2, 2)))
        expansion = total_projection_series(family, 0.0)
        coefficients = projection_coefficients(family, 0.0, 2)
        assert_allclose(expansion.group.projection, np.eye(2), atol=1e-10)
        assert_allclose(expansion.group.nilpotent, t0, atol=1e-10)
        assert_allclose(expansion.corrections[0], coefficients[1], atol=1e-8)
        assert_allclose(expansion.corrections[1], coefficients[2], atol=1e-7)

    @pytest.mark.parametrize("seed", range(4))
    def test_series_approximates_exact_projection(self, seed):
        from hyprelax.linalg import Contour, cauchy_integral

        family, lam0 = random_simple_pencil(seed)
        coefficients = projection_coefficients(family, lam0, 2)
        eye = np.eye(family.dim, dtype=complex)
        z = np.geomspace(3e-3, 3e-2, 6)
        gap = 1.0
        errors = []
        for zz in z:
            matrix = family.evaluate(zz)
            lam = nearest_eigenvalues(matrix, lam0, 1)[0]
            contour = Contour(center=lam, radius=gap)

            def resolvents(pts, matrix=matrix):
                shifted = pts[:, None, None] * eye - matrix
                return np.linalg.solve(shifted, np.broadcast_to(eye, shifted.shape))

            exact = cauchy_integral(resolvents, contour)
            model = sum(coefficients[j] * zz**j for j in range(3))
            errors.append(np.linalg.norm(exact - model))
        assert fitted_slope(z, np.asarray(errors)) > 2.7

    def test_partial_sums_are_near_projections(self):
        family, lam0 = random_simple_pencil(11)
        coefficients = projection_coefficients(family, lam0, 2)
        z = 1e-3
        partial = sum(coefficients[j] * z**j for j in range(3))
        assert_allclose(partial @ partial, partial, atol=1e-7)

    def test_order_cap(self):
        with pytest.raises(OrderTooLargeError):
            projection_coefficients(exchange_family(), 0.0, MAX_SERIES_ORDER + 1)


class TestWeightedMeanSeries:
    @pytest.mark.parametrize("seed", range(4))
    def test_degenerate_group_mean(self, seed):
        rng = np.random.default_rng(seed)
        t0 = np.diag([0.0, 0.0, 2.0])
        t1 = rng.normal(size=(3, 3))
        family = PerturbationFamily(t0, t1)
        coeffs = weighted_mean_series(family, 0.0, order=2)
        z = np.geomspace(1e-3, 1e-2, 6)
        exact = np.array(
            [np.mean(nearest_eigenvalues(family.evaluate(zz), 0.0, 2)) for zz in z]
        )
        model = np.array([coeffs[0] + coeffs[1] * zz + coeffs[2] * zz**2 for zz in z])
        assert fitted_slope(z, np.abs(exact - model)) > 2.7

    def test_quadratic_family_mean(self):
        rng = np.random.default_rng(29)
        family = PerturbationFamily(
            np.diag([0.0, 0.0, 3.0]),
            rng.normal(size=(3, 3)),
            (rng.normal(size=(3, 3)),),
        )
        coeffs = weighted_mean_series(family, 0.0, order=2)
        z = np.geomspace(1e-3, 1e-2, 6)
        exact = np.array(
            [np.mean(nearest_eigenvalues(family.evaluate(zz), 0.0, 2)) for zz in z]
        )
        model = np.array([coeffs[0] + coeffs[1] * zz + coeffs[2] * zz**2 for zz in z])
        assert fitted_slope(z, np.abs(exact - model)) > 2.7


class TestReduceSemisimpleGroup:
    def test_splitting_rates(self):
        rng = np.random.default_rng(5)
        t0 = np.diag([0.0, 0.0, 4.0])
        t1 = rng.normal(size=(3, 3))
        family = PerturbationFamily(t0, t1)
        reduced = reduce_semisimple_group(family, 0.0)
        assert reduced.group.multiplicity == 2
        assert sum(part.multiplicity for part in reduced.parts) == 2
        # Branch eigenvalues behave as z * beta to first order.
        z = 1e-6
        branches = nearest_eigenvalues(family.evaluate(z), 0.0, 2)
        predicted = np.sort_complex(np.array([part.value for part in reduced.parts]) * z)
        assert_allclose(np.sort_complex(branches), predicted, atol=1e-10)

    def test_subprojections_resolve_the_group(self):
        rng = np.random.default_rng(8)
        t0 = np.diag([1.0, 1.0, 1.0, -3.0])
        t1 = rng.normal(size=(4, 4))
        family = PerturbationFamily(t0, t1)
        reduced = reduce_semisimple_group(family, 1.0)
        total = sum(part.projection for part in reduced.parts)
        assert_allclose(total, reduced.group.projection, atol=1e-9)
        for part in reduced.parts:
            assert_allclose(part.projection @ part.projection, part.projection, atol=1e-9)

    def test_defective_group_rejected(self):
        t0 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        family = PerturbationFamily(t0, np.eye(3))
        with pytest.raises(NotSemisimpleError):
            reduce_semisimple_group(family, 0.0)

    def test_full_space_group(self):
        # A group spanning the whole space has no shifted complement.
        rng = np.random.default_rng(12)
        t1 = rng.normal(size=(3, 3))
        family = PerturbationFamily(np.zeros((3, 3)), t1)
        reduced = reduce_semisimple_group(family, 0.0)
        assert_allclose(sum(part.projection for part in reduced.parts), np.eye(3), atol=1e-9)
        assert_allclose(
            np.sort_complex(np.array([part.value for part in reduced.parts])),
            np.sort_complex(np.linalg.eigvals(t1)),
            atol=1e-9,
        )


class TestSymmetryVanishing:
    def test_exchange_symmetry_passes(self):
        result = symmetry_vanishing_check(exchange_family(), SWAP, 0.0)
        assert result.passed
        assert result.odd_residual <= 1e-9
        assert result.coefficients[2] == pytest.approx(-1.0, abs=1e-9)

    def test_broken_symmetry_rejected(self):
        family = PerturbationFamily(EXCHANGE_T0, np.array([[1.0, 0.0], [0.0, 2.0]]))
        with pytest.raises(PreconditionViolatedError):
            symmetry_vanishing_check(family, SWAP, 0.0)

    def test_singular_symmetry_rejected(self):
        with pytest.raises(PreconditionViolatedError):
            symmetry_vanishing_check(exchange_family(), np.zeros((2, 2)), 0.0)

    def test_degenerate_group_passes(self):
        # B + z A(w) of damped Euler has the double eigenvalue 1 at z = 0.
        system = damped_euler_2d()
        advection = 0.6 * system.advections[0] + 0.8 * system.advections[1]
        family = PerturbationFamily(system.relaxation, advection)
        result = symmetry_vanishing_check(family, system.symmetry, 1.0)
        assert result.passed
        assert result.odd_residual <= 1e-9
        assert result.coefficients[0] == pytest.approx(1.0)

    def test_quadratic_family(self):
        # SWAP commutes with I, so it maps T0 + z T1 + z^2 I to T(-z); it
        # anticommutes with T1, so it does not map T0 + z T1 + z^2 T1 to T(-z).
        family = PerturbationFamily(EXCHANGE_T0, EXCHANGE_T1, (np.eye(2),))
        result = symmetry_vanishing_check(family, SWAP, 0.0, order=5)
        assert result.passed
        assert result.coefficients[2] == pytest.approx(0.0, abs=1e-9)
        family = PerturbationFamily(EXCHANGE_T0, EXCHANGE_T1, (EXCHANGE_T1,))
        with pytest.raises(PreconditionViolatedError):
            symmetry_vanishing_check(family, SWAP, 0.0)


class TestPartitionDerivative:
    def test_one_dimensional_closed_forms(self):
        # q(x) = x^2: (e^q)' = 2x e^q, '' = (2 + 4x^2) e^q,
        # ''' = (12x + 8x^3) e^q.
        poly = {(2,): 1.0}
        x = np.array([0.3])
        base = np.exp(0.09)
        assert partition_derivative((1,), poly, x) == pytest.approx(0.6 * base)
        assert partition_derivative((2,), poly, x) == pytest.approx((2 + 0.36) * base)
        assert partition_derivative((3,), poly, x) == pytest.approx(
            (12 * 0.3 + 8 * 0.027) * base
        )

    def test_mixed_derivative_closed_form(self):
        # q = x^2 + x y: d_x d_y e^q = (1 + x (2x + y)) e^q.
        poly = {(2, 0): 1.0, (1, 1): 1.0}
        point = np.array([0.4, -0.2])
        q = 0.16 + 0.4 * -0.2
        expected = (1.0 + 0.4 * (0.8 - 0.2)) * np.exp(q)
        assert partition_derivative((1, 1), poly, point) == pytest.approx(expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(2, 2))
        quadratic = a @ a.T + 0.5 * np.eye(2)
        poly = {
            (2, 0): -quadratic[0, 0],
            (0, 2): -quadratic[1, 1],
            (1, 1): -2.0 * quadratic[0, 1],
            (1, 0): rng.normal(),
            (0, 1): rng.normal(),
        }
        point = rng.normal(size=2) * 0.3
        h = 0.01

        def f(p):
            value = sum(
                c * p[0] ** e[0] * p[1] ** e[1] for e, c in poly.items()
            )
            return np.exp(value)

        # Fourth-order central stencils keep the truncation error below the
        # comparison tolerance at this step size.
        def d1(g, idx):
            e = np.zeros(2)
            e[idx] = h
            return (
                -g(point + 2 * e) + 8 * g(point + e) - 8 * g(point - e) + g(point - 2 * e)
            ) / (12 * h)

        exact = partition_derivative((1, 0), poly, point)
        assert d1(f, 0) == pytest.approx(exact, rel=1e-6)
        exact_y = partition_derivative((0, 1), poly, point)
        assert d1(f, 1) == pytest.approx(exact_y, rel=1e-6)
        mixed = partition_derivative((1, 1), poly, point)
        numeric = d1(lambda p: d1(lambda s: f(s + (p - point)), 1), 0)
        assert numeric == pytest.approx(mixed, rel=1e-5)

    def test_validation(self):
        poly = {(2, 0): 1.0, (0, 2): 1.0}
        with pytest.raises(OrderTooLargeError):
            partition_derivative((4, 3), poly, np.zeros(2))
        with pytest.raises(ValueError):
            partition_derivative((1,), poly, np.zeros(2))
        with pytest.raises(ValueError):
            partition_derivative((1, -1), poly, np.zeros(2))
        with pytest.raises(ValueError):
            partition_derivative((1, 0), {(1,): 2.0}, np.zeros(2))
