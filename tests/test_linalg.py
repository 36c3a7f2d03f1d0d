import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose
from scipy.sparse.csgraph import connected_components

from hyprelax.chapman import exact_group_projection
from hyprelax.linalg import (
    Contour,
    ContourTouchesSpectrumError,
    QuadratureNotConvergedError,
    cauchy_integral,
    cluster_labels,
    cluster_tolerance,
    contour_projection,
    eigendecompose,
    matrix_exponential,
    reduced_resolvent,
    separating_contour,
    spectral_group,
)
from hyprelax.systems import damped_euler_2d

# Pairwise exchange matrix with rates a = b = c = 1/2: eigenvalues are
# {0, 3/2, 3/2} and the kernel projection is the rank-one averaging matrix.
EXCHANGE = np.array(
    [
        [1.0, -0.5, -0.5],
        [-0.5, 1.0, -0.5],
        [-0.5, -0.5, 1.0],
    ]
)


class TestEigendecompose:
    def test_values_sorted_and_paired(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(5, 5))
        system = eigendecompose(m)
        assert np.all(np.diff(system.values.real) >= -1e-14)
        # Each value is an eigenvalue: m - value is singular to rounding.
        for value in system.values:
            smallest = np.linalg.svd(m - value * np.eye(5), compute_uv=False)[-1]
            assert smallest < 1e-10

    def test_exchange_matrix_clusters(self):
        system = eigendecompose(EXCHANGE)
        assert [c.multiplicity for c in system.clusters] == [1, 2]
        assert system.clusters[0].value == pytest.approx(0.0, abs=1e-12)
        assert system.clusters[1].value == pytest.approx(1.5, abs=1e-12)

    def test_cluster_near_lookup(self):
        system = eigendecompose(EXCHANGE)
        tol = 10 * cluster_tolerance(EXCHANGE)
        zero = system.cluster_near(0.0, tol)
        assert zero is not None and zero.multiplicity == 1
        assert system.cluster_near(0.7, tol) is None

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eigendecompose(np.zeros((2, 3)))


def component_labels(values: np.ndarray, tol: float) -> np.ndarray:
    """Smallest index in each value's connected component of the graph whose
    edges join values at most ``tol`` apart."""
    close = np.abs(values[:, None] - values[None, :]) <= tol
    _, components = connected_components(close, directed=False)
    smallest = {c: np.flatnonzero(components == c)[0] for c in np.unique(components)}
    return np.array([smallest[c] for c in components])


def planted_rows(rng: np.random.Generator, rows: int, n: int, tol: np.ndarray) -> np.ndarray:
    """Random complex rows, each with a planted equal pair, a pair one side or
    the other of ``tol`` apart and, from n = 6 up, a chain a ~ b ~ c with
    a and c more than ``tol`` apart, at random positions."""
    values = rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n))
    for row in range(rows):
        slots = rng.permutation(n)
        base = values[row, slots[0]]
        if n >= 2:
            values[row, slots[1]] = base
        if n >= 4:
            offset = tol[row] * np.exp(2j * np.pi * rng.random()) * rng.choice([0.999, 1.001])
            values[row, slots[3]] = values[row, slots[2]] + offset
        if n >= 6:
            turn = np.exp(2j * np.pi * rng.random())
            values[row, slots[4]] = base + 0.8 * tol[row] * turn
            values[row, slots[5]] = base + 1.6 * tol[row] * turn
    return values


class TestClusterLabels:
    def test_chain_is_one_cluster(self):
        # 0 ~ 0.8 ~ 1.6 but |0 - 1.6| > 1: the chain joins all three.
        assert cluster_labels(np.array([1.6, 5.0, 0.0, 0.8]), 1.0).tolist() == [0, 1, 0, 0]
        assert cluster_labels(np.array([0.0, 1.6]), 1.0).tolist() == [0, 1]

    def test_matches_connected_components(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            rows, n = int(rng.integers(1, 5)), int(rng.integers(1, 9))
            tol = 10.0 ** rng.uniform(-9.0, 0.0, size=rows)
            values = planted_rows(rng, rows, n, tol)
            labels = cluster_labels(values, tol)
            assert labels.shape == (rows, n)
            for row in range(rows):
                assert_allclose(labels[row], component_labels(values[row], tol[row]), atol=0)
            assert_allclose(cluster_labels(values[0], tol[0]), labels[0], atol=0)

    def test_eigendecompose_clusters_match_connected_components(self):
        # A unitary similarity keeps |m|_F, so the planted pairs sit at the
        # cluster tolerance of m, far above the rounding of eigvals.
        rng = np.random.default_rng(12)
        sizes = []
        for _ in range(200):
            n = int(rng.integers(1, 8))
            state = rng.bit_generator.state
            tol = cluster_tolerance(np.diag(planted_rows(rng, 1, n, np.zeros(1))[0]))
            rng.bit_generator.state = state
            planted = planted_rows(rng, 1, n, np.array([tol]))[0]
            unitary = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
            m = unitary @ np.diag(planted) @ unitary.conj().T
            system = eigendecompose(m)
            sizes.extend(c.multiplicity for c in system.clusters)
            labels = component_labels(system.values, cluster_tolerance(m))
            members = [np.flatnonzero(labels == label) for label in np.unique(labels)]
            expected = sorted(
                ((complex(np.mean(system.values[idx])), idx.tolist()) for idx in members),
                key=lambda item: (item[0].real, item[0].imag),
            )
            assert [(c.value, list(c.indices)) for c in system.clusters] == expected
        # The chain and the equal pair share a base value: one cluster of four.
        assert {1, 2, 4} <= set(sizes)


class TestContour:
    def test_validates_radius_and_nodes(self):
        with pytest.raises(ValueError):
            Contour(center=0.0, radius=0.0)
        with pytest.raises(ValueError):
            Contour(center=0.0, radius=1.0, nodes=48)
        with pytest.raises(ValueError):
            Contour(center=0.0, radius=1.0, nodes=8)


class TestMatrixExponential:
    def test_rotation_generator_closed_form(self):
        theta = 0.731
        generator = np.array([[0.0, -theta], [theta, 0.0]])
        expected = np.array(
            [
                [np.cos(theta), -np.sin(theta)],
                [np.sin(theta), np.cos(theta)],
            ]
        )
        assert_allclose(matrix_exponential(generator), expected, atol=1e-14)

    def test_nilpotent_is_polynomial(self):
        n = np.array([[0.0, 2.0, -1.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]])
        expected = np.eye(3) + n + n @ n / 2.0
        assert_allclose(matrix_exponential(n), expected, atol=1e-14)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_implementation(self, seed):
        rng = np.random.default_rng(seed)
        scale = rng.uniform(0.1, 40.0)
        m = scale * rng.normal(size=(5, 5))
        assert_allclose(
            matrix_exponential(m),
            scipy.linalg.expm(m),
            rtol=1e-9,
            atol=1e-9 * np.exp(min(np.linalg.norm(m, 2), 50.0)),
        )

    def test_complex_input(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert_allclose(matrix_exponential(m), scipy.linalg.expm(m), rtol=1e-10, atol=1e-10)

    def test_batched_stack_matches_slices(self):
        rng = np.random.default_rng(5)
        # Mixed norms exercise the shared scaling exponent.
        stack = np.stack(
            [
                0.01 * rng.normal(size=(3, 3)),
                rng.normal(size=(3, 3)),
                30.0 * rng.normal(size=(3, 3)),
            ]
        )
        batched = matrix_exponential(stack)
        assert batched.shape == stack.shape
        for index in range(stack.shape[0]):
            assert_allclose(
                batched[index], scipy.linalg.expm(stack[index]), rtol=1e-9, atol=1e-11
            )

    def test_semigroup_property(self):
        rng = np.random.default_rng(13)
        m = rng.normal(size=(4, 4))
        once = matrix_exponential(m)
        assert_allclose(once @ once, matrix_exponential(2.0 * m), rtol=1e-10, atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            matrix_exponential(np.zeros((3, 2)))


class TestCauchyIntegral:
    def test_winding_counts_poles(self):
        contour = Contour(center=0.0, radius=1.0)
        inside = cauchy_integral(lambda z: 1.0 / (z - 0.3), contour)
        outside = cauchy_integral(lambda z: 1.0 / (z - 2.0), contour)
        assert complex(inside) == pytest.approx(1.0, abs=1e-12)
        assert complex(outside) == pytest.approx(0.0, abs=1e-12)

    def test_derivative_of_analytic_part(self):
        # (1 / 2 pi i) * integral of z / (z - a) dz = a for a inside.
        contour = Contour(center=0.0, radius=2.0)
        value = cauchy_integral(lambda z: z / (z - (0.4 + 0.2j)), contour)
        assert complex(value) == pytest.approx(0.4 + 0.2j, abs=1e-12)

    def test_pole_hugging_contour_does_not_converge(self):
        pole = 1.0 + 1e-12
        contour = Contour(center=0.0, radius=1.0)
        with pytest.raises(QuadratureNotConvergedError):
            cauchy_integral(lambda z: 1.0 / (z - pole), contour)


class TestContourProjection:
    def test_exchange_kernel_projection(self):
        contour = Contour(center=0.0, radius=0.75)
        projection = contour_projection(EXCHANGE, contour)
        assert_allclose(projection, np.full((3, 3), 1.0 / 3.0), atol=1e-11)

    def test_idempotent_and_complementary(self):
        low = contour_projection(EXCHANGE, Contour(center=0.0, radius=0.75))
        high = contour_projection(EXCHANGE, Contour(center=1.5, radius=0.75))
        assert_allclose(low @ low, low, atol=1e-10)
        assert_allclose(high @ high, high, atol=1e-10)
        assert_allclose(low + high, np.eye(3), atol=1e-10)

    def test_random_matrix_projection_sums_to_identity(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(5, 5))
        system = eigendecompose(m)
        total = np.zeros((5, 5), dtype=complex)
        for cluster in system.clusters:
            contour = separating_contour(system.values, np.array(cluster.indices))
            total += contour_projection(m, contour, eigenvalues=system.values)
        assert_allclose(total, np.eye(5), atol=1e-9)

    def test_touching_contour_rejected(self):
        with pytest.raises(ContourTouchesSpectrumError):
            contour_projection(EXCHANGE, Contour(center=0.0, radius=1.5))


class TestReducedResolvent:
    def test_diagonal_closed_form(self):
        m = np.diag([0.0, 2.0, 4.0])
        contour = Contour(center=0.0, radius=1.0)
        reduced = reduced_resolvent(m, 0.0, contour)
        assert_allclose(reduced, np.diag([0.0, 0.5, 0.25]), atol=1e-11)

    def test_defining_identities(self):
        # Q (M - lam) = I - P and Q P = 0 characterize the reduced resolvent.
        rng = np.random.default_rng(9)
        m = rng.normal(size=(4, 4))
        system = eigendecompose(m)
        lam = system.values[0]
        contour = separating_contour(system.values, np.array([0]))
        projection = contour_projection(m, contour, eigenvalues=system.values)
        reduced = reduced_resolvent(m, lam, contour, eigenvalues=system.values)
        assert_allclose(
            reduced @ (m - lam * np.eye(4)), np.eye(4) - projection, atol=1e-9
        )
        assert_allclose(reduced @ projection, np.zeros((4, 4)), atol=1e-9)


class TestSpectralGroup:
    def test_random_matrix_groups_resolve_identity(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(5, 5))
        system = eigendecompose(m)
        groups = [spectral_group(m, system, cluster) for cluster in system.clusters]
        assert sum(group.multiplicity for group in groups) == 5
        assert_allclose(sum(group.projection for group in groups), np.eye(5), atol=1e-9)
        for group in groups:
            assert_allclose(group.projection @ group.projection, group.projection, atol=1e-9)

    def test_semisimple_group_has_zero_nilpotent(self):
        system = eigendecompose(EXCHANGE)
        group = spectral_group(EXCHANGE, system, system.clusters[1])
        assert group.value == pytest.approx(1.5, abs=1e-12)
        assert group.multiplicity == 2
        assert_allclose(group.projection, np.eye(3) - np.full((3, 3), 1.0 / 3.0), atol=1e-10)
        assert_allclose(group.nilpotent, np.zeros((3, 3)), atol=1e-10)

    def test_jordan_block_has_its_nilpotent(self):
        m = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 5.0]])
        system = eigendecompose(m)
        group = spectral_group(m, system, system.clusters[0])
        assert group.multiplicity == 2
        assert_allclose(group.projection, np.diag([1.0, 1.0, 0.0]), atol=1e-10)
        expected = np.zeros((3, 3))
        expected[0, 1] = 1.0
        assert_allclose(group.nilpotent, expected, atol=1e-10)

    def test_contour_encloses_only_the_group(self):
        m = np.diag([0.0, 0.2, 3.0, 3.0])
        system = eigendecompose(m)
        for cluster in system.clusters:
            contour = spectral_group(m, system, cluster).contour
            inside = np.abs(system.values - contour.center) < contour.radius
            assert np.flatnonzero(inside).tolist() == list(cluster.indices)

    def test_exact_group_projection_is_the_nearest_zero_group(self):
        system = damped_euler_2d()
        k = np.array([0.3, -0.2])
        symbol = system.symbol(k)
        eigsys = eigendecompose(symbol)
        zero = min(eigsys.clusters, key=lambda cluster: abs(cluster.value))
        assert_allclose(
            exact_group_projection(system, k),
            spectral_group(symbol, eigsys, zero).projection,
            atol=1e-12,
        )


class TestSeparatingContour:
    def test_singleton_bisects_gap(self):
        values = np.array([0.0, 2.0, 5.0])
        contour = separating_contour(values, np.array([0]))
        assert contour.center == pytest.approx(0.0)
        assert contour.radius == pytest.approx(1.0)

    def test_group_radius_clears_both_sides(self):
        values = np.array([0.0, 0.2, 3.0])
        contour = separating_contour(values, np.array([0, 1]))
        spread = 0.1
        assert spread < contour.radius < 2.9

    def test_whole_spectrum_allowed(self):
        values = np.array([1.0, 2.0])
        contour = separating_contour(values, np.array([0, 1]))
        assert contour.radius == pytest.approx(1.5)

    def test_interleaved_groups_rejected(self):
        values = np.array([0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            separating_contour(values, np.array([0, 2]))

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            separating_contour(np.array([1.0, 2.0]), np.array([], dtype=int))
