import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hyprelax.model import (
    HyperbolicSystem,
    MissingDiagonalizerError,
    SampledDiagonalizer,
    SystemFileError,
    check_all_conditions,
    check_condition_A,
    check_condition_B,
    check_condition_D,
    check_condition_R,
    check_condition_S,
    dump_system,
    lift_axis_map,
    load_system,
    max_wave_speed,
    sphere_samples,
)
from hyprelax.systems import damped_euler_2d, goldstein_kac_1d, goldstein_kac_3d


def marginally_dissipative() -> HyperbolicSystem:
    """Advection proportional to the identity: no interaction with B, so the
    kernel branch of the symbol stays purely imaginary at every frequency."""
    return HyperbolicSystem(
        advections=(np.eye(2),),
        relaxation=0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]]),
    )


def assert_branches(nu, slopes) -> None:
    """``nu`` holds the branches ``(0, b_j)`` in some order, within 1e-8."""
    nu = np.asarray(nu)
    expected = np.column_stack([np.zeros(len(slopes)), slopes])
    assert nu.shape == expected.shape
    order = np.argsort(nu[:, 1])
    assert_allclose(nu[order], expected[np.argsort(expected[:, 1])], atol=1e-8)


class TestHyperbolicSystem:
    def test_shape_and_type_validation(self):
        with pytest.raises(ValueError):
            HyperbolicSystem(advections=(), relaxation=np.eye(2))
        with pytest.raises(ValueError):
            HyperbolicSystem(advections=(np.eye(3),), relaxation=np.eye(2))
        with pytest.raises(ValueError):
            HyperbolicSystem(advections=(np.eye(2) * 1j,), relaxation=np.eye(2))
        with pytest.raises(ValueError):
            HyperbolicSystem(advections=(np.eye(2),), relaxation=np.eye(2) * 1j)
        with pytest.raises(ValueError):
            HyperbolicSystem(
                advections=(np.eye(2),), relaxation=np.eye(2), symmetry=np.eye(3)
            )

    def test_dimension_and_size(self):
        system = damped_euler_2d()
        assert system.dimension == 2
        assert system.size == 3

    def test_symbol_assembles_entrywise(self):
        system = damped_euler_2d()
        k = np.array([0.3, -1.2])
        expected = system.relaxation + 1j * (
            k[0] * system.advections[0] + k[1] * system.advections[1]
        )
        assert_allclose(system.symbol(k), expected, atol=0.0)

    def test_symbol_stack_matches_loop(self):
        system = damped_euler_2d()
        rng = np.random.default_rng(1)
        ks = rng.normal(size=(7, 2))
        stack = system.symbol_stack(ks)
        for i, k in enumerate(ks):
            assert_allclose(stack[i], system.symbol(k), atol=0.0)


class TestSphereSamples:
    @pytest.mark.parametrize("dimension", [1, 2, 3, 4])
    def test_unit_norm(self, dimension):
        samples = sphere_samples(dimension, 64)
        assert_allclose(np.linalg.norm(samples, axis=1), 1.0, atol=1e-12)

    def test_one_dimension_is_both_signs(self):
        assert_allclose(sphere_samples(1), [[1.0], [-1.0]])

    def test_deterministic(self):
        assert_allclose(sphere_samples(4, 32), sphere_samples(4, 32))


class TestMaxWaveSpeed:
    def test_known_speeds(self):
        assert max_wave_speed(goldstein_kac_1d(speed=2.0)) == pytest.approx(2.0)
        assert max_wave_speed(damped_euler_2d()) == pytest.approx(1.0, abs=1e-10)


class TestConditionA:
    def test_certificate_in_diagonal_position_order(self):
        report = check_condition_A(goldstein_kac_1d())
        assert report.passed
        assert_allclose(report.data["nu"], [[0.0, -1.0], [0.0, 1.0]], atol=1e-9)

    def test_euler_branches(self):
        report = check_condition_A(damped_euler_2d())
        assert report.passed
        assert_allclose(
            report.data["nu"],
            [[-1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
            atol=1e-7,
        )
        assert report.data["diagonalizer_condition"] < 2.0

    def test_tracking_path_without_diagonalizer(self):
        bare = HyperbolicSystem(
            advections=damped_euler_2d().advections,
            relaxation=damped_euler_2d().relaxation,
        )
        report = check_condition_A(bare, count=128)
        assert report.passed
        nu = np.asarray(report.data["nu"])
        # On the unit sphere the branches -|w|, 0, |w| fit as constants.
        assert_allclose(np.sort(nu[:, 0]), [-1.0, 0.0, 1.0], atol=1e-6)
        assert_allclose(np.linalg.norm(nu[:, 1:], axis=1), 0.0, atol=1e-6)

    @pytest.mark.parametrize("seed", range(30))
    def test_three_velocity_files_without_diagonalizer(self, seed, tmp_path):
        # The system files the benchmark writes: rates U(0.2, 2), zero-mean
        # N(0, 1) velocities; a written file carries no diagonalizer.  Every
        # branch has nu_0 = 0, so the certificate rows follow the slopes.
        rng = np.random.default_rng(seed)
        rates = rng.uniform(0.2, 2.0, size=3)
        velocities = rng.normal(size=(3, 3))
        velocities -= velocities.mean(axis=0)
        path = tmp_path / "three_velocity.json"
        dump_system(goldstein_kac_3d(*rates, velocities), path)
        system = load_system(path)
        assert system.diagonalizer is None
        report = check_condition_A(system)
        assert report.passed, report.summary
        expected = np.column_stack([np.zeros(3), velocities])
        expected = expected[np.lexsort(expected.T[::-1])]
        assert_allclose(report.data["nu"], expected, atol=1e-8)

    @pytest.mark.parametrize("dimension", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_crossing_commuting_families(self, dimension, seed):
        # A(w) = P diag(b_j . w) P^-1: in two or more dimensions any two
        # branches b_i . w and b_j . w cross on the sphere.
        rng = np.random.default_rng(seed)
        n = 4
        slopes = rng.normal(size=(n, dimension))
        basis = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
        inverse = np.linalg.inv(basis)
        system = HyperbolicSystem(
            advections=tuple(
                basis @ np.diag(slopes[:, j]) @ inverse for j in range(dimension)
            ),
            relaxation=np.eye(n),
        )
        report = check_condition_A(system, count=256)
        assert report.passed, report.summary
        assert_branches(report.data["nu"], slopes)

    def test_everywhere_degenerate_branches_fail_cleanly(self):
        report = check_condition_A(marginally_dissipative())
        assert not report.passed
        assert "separated" in report.summary
        assert report.data["samples"] == 0

    def test_complex_spectrum_fails(self):
        rotation = HyperbolicSystem(
            advections=(np.array([[0.0, 1.0], [-1.0, 0.0]]),),
            relaxation=np.eye(2),
        )
        report = check_condition_A(rotation)
        assert not report.passed
        assert report.witness is not None

    def test_non_affine_branches_fail(self):
        # Eigenvalues of A(w) on the circle are +-sqrt(1 + (5/4) w2^2) up to
        # a shift: not affine in w.
        system = HyperbolicSystem(
            advections=(
                np.array([[0.0, 1.0], [1.0, 0.0]]),
                np.array([[1.0, 0.0], [0.0, -2.0]]),
            ),
            relaxation=np.eye(2),
        )
        report = check_condition_A(system, count=128)
        assert not report.passed
        assert report.witness is not None and "direction" in report.witness


class TestConditionR:
    def test_constant_conjugation_passes(self):
        report = check_condition_R(goldstein_kac_1d())
        assert report.passed
        assert_allclose(
            report.data["conjugated_relaxation"],
            goldstein_kac_1d().relaxation,
            atol=1e-12,
        )

    def test_direction_dependent_conjugation_fails(self):
        # Both R(w) diagonalize the diagonal advection, but they conjugate
        # the upper-triangular relaxation differently.
        system = HyperbolicSystem(
            advections=(np.diag([1.0, 2.0]),),
            relaxation=np.array([[1.0, 1.0], [0.0, 1.0]]),
            diagonalizer=lambda w: np.eye(2) if w[0] > 0 else np.diag([1.0, 2.0]),
        )
        report = check_condition_R(system)
        assert not report.passed
        assert report.witness is not None

    def test_missing_diagonalizer(self):
        with pytest.raises(MissingDiagonalizerError):
            check_condition_R(marginally_dissipative())


class TestConditionB:
    def test_example_systems_pass(self):
        for system in (goldstein_kac_1d(), damped_euler_2d(), goldstein_kac_3d(0.5, 0.5, 0.5)):
            report = check_condition_B(system)
            assert report.passed, report.summary
        assert check_condition_B(goldstein_kac_1d()).data["gap"] == pytest.approx(1.0)

    def test_double_kernel_fails(self):
        system = HyperbolicSystem(advections=(np.eye(2),), relaxation=np.zeros((2, 2)))
        report = check_condition_B(system)
        assert not report.passed
        assert "multiplicity" in report.summary

    def test_unstable_spectrum_fails(self):
        system = HyperbolicSystem(
            advections=(np.eye(2),), relaxation=np.diag([0.0, -1.0])
        )
        report = check_condition_B(system)
        assert not report.passed
        assert report.witness is not None


class TestConditionD:
    def test_example_systems_theta(self):
        report = check_condition_D(goldstein_kac_1d())
        assert report.passed
        assert report.data["theta"] == pytest.approx(0.5, abs=0.05)
        report = check_condition_D(damped_euler_2d(), sphere_count=64)
        assert report.passed
        assert report.data["theta"] == pytest.approx(0.5, abs=0.05)

    def test_identity_advection_fails_with_imaginary_witness(self):
        report = check_condition_D(marginally_dissipative())
        assert not report.passed
        assert report.witness is not None
        real, imag = report.witness["eigenvalue"]
        assert abs(real) < 1e-10
        assert abs(imag) > 0

    def test_theta_non_increasing_under_refinement(self):
        system = damped_euler_2d()
        coarse = check_condition_D(system, radial_count=31, sphere_count=256)
        fine = check_condition_D(system, radial_count=61, sphere_count=512)
        # The fine grids contain the coarse sample points, so the sampled
        # infimum cannot increase.
        assert fine.data["theta"] <= coarse.data["theta"] + 1e-14


class TestConditionS:
    def test_provided_symmetries_verify(self):
        for system in (goldstein_kac_1d(), damped_euler_2d()):
            report = check_condition_S(system)
            assert report.passed
            assert report.data["commutator_residual"] == 0.0
            assert report.data["anticommutator_residual"] == 0.0

    def test_search_finds_symmetry(self):
        bare = HyperbolicSystem(
            advections=goldstein_kac_1d().advections,
            relaxation=goldstein_kac_1d().relaxation,
        )
        report = check_condition_S(bare)
        assert report.passed
        found = np.asarray(report.data["symmetry"])
        b = bare.relaxation
        a = bare.advections[0]
        assert np.max(np.abs(found @ b - b @ found)) < 1e-8
        assert np.max(np.abs(found @ a + a @ found)) < 1e-8
        assert np.linalg.cond(found) < 1e6

    def test_no_symmetry_exists(self):
        report = check_condition_S(marginally_dissipative())
        assert not report.passed


class TestLiftAxisMap:
    def test_plane_reflections_and_swap_lift(self):
        system = damped_euler_2d()
        b, advections = system.relaxation, np.stack(system.advections)
        for rotation in ([[-1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]]):
            rotation = np.array(rotation)
            lift = lift_axis_map(system, rotation)
            images = np.einsum("ij,ikl->jkl", rotation, advections)
            assert np.max(np.abs(lift @ b - b @ lift)) <= 1e-12
            assert np.max(np.abs(lift @ advections - images @ lift)) <= 1e-12
            # The solution space is one-dimensional: a scaled signed permutation.
            assert_allclose(np.sort(np.abs(lift), axis=None)[-3:], 1.0, atol=1e-12)

    def test_negation_lifts_exactly_when_condition_s_holds(self):
        # Lifting k -> -k is condition S: T B = B T and T A^j = -A^j T.
        assert lift_axis_map(goldstein_kac_1d(), -np.eye(1)) is not None
        assert lift_axis_map(marginally_dissipative(), -np.eye(1)) is None

    def test_generic_system_has_no_lift(self):
        rng = np.random.default_rng(4)
        system = HyperbolicSystem(
            advections=tuple(rng.standard_normal((2, 3, 3))),
            relaxation=np.diag([0.0, 1.0, 2.0]),
        )
        for rotation in ([[-1, 0], [0, 1]], [[0, 1], [1, 0]], [[-1, 0], [0, -1]]):
            assert lift_axis_map(system, np.array(rotation)) is None


class TestCheckAll:
    def test_includes_r_only_with_diagonalizer(self):
        with_r = check_all_conditions(goldstein_kac_1d(), count=64)
        assert set(with_r) == {"A", "B", "D", "S", "R"}
        without = check_all_conditions(marginally_dissipative(), count=64)
        assert set(without) == {"A", "B", "D", "S"}


class TestSystemFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "system.json"
        original = goldstein_kac_1d()
        dump_system(original, path)
        loaded = load_system(path)
        assert loaded.name == "system"
        assert_allclose(loaded.advections[0], original.advections[0])
        assert_allclose(loaded.relaxation, original.relaxation)
        assert_allclose(loaded.symmetry, original.symmetry)
        assert loaded.diagonalizer is None

    def test_sampled_diagonalizer_round_trip(self, tmp_path):
        directions = sphere_samples(2, 16)
        matrices = np.stack([np.eye(2) for _ in range(16)])
        system = HyperbolicSystem(
            advections=(np.diag([1.0, -1.0]), np.zeros((2, 2))),
            relaxation=0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]]),
            diagonalizer=SampledDiagonalizer(directions, matrices),
        )
        path = tmp_path / "sampled.json"
        dump_system(system, path)
        loaded = load_system(path)
        assert isinstance(loaded.diagonalizer, SampledDiagonalizer)
        assert_allclose(loaded.diagonalizer(directions[3]), np.eye(2))

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"d": 1, "n": 2, "A": [], "B": [], "extra": 1}))
        with pytest.raises(SystemFileError, match="extra"):
            load_system(path)

    def test_missing_key_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"d": 1, "n": 2, "A": []}))
        with pytest.raises(SystemFileError, match="'B'"):
            load_system(path)

    def test_ragged_array_named(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = {"d": 1, "n": 2, "A": [[[1, 0], [0]]], "B": [[0, 0], [0, 0]]}
        path.write_text(json.dumps(payload))
        with pytest.raises(SystemFileError, match="'A'"):
            load_system(path)

    def test_shape_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = {
            "d": 2,
            "n": 2,
            "A": [[[1, 0], [0, 1]]],
            "B": [[0, 0], [0, 0]],
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(SystemFileError, match="'A'"):
            load_system(path)

    def test_bad_dimension_type(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = {"d": "one", "n": 2, "A": [], "B": []}
        path.write_text(json.dumps(payload))
        with pytest.raises(SystemFileError, match="'d'"):
            load_system(path)

    def test_bad_r_samples_record(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = {
            "d": 1,
            "n": 2,
            "A": [[[1, 0], [0, -1]]],
            "B": [[0.5, -0.5], [-0.5, 0.5]],
            "R_samples": [{"w": [1.0]}],
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(SystemFileError, match="R_samples"):
            load_system(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(SystemFileError):
            load_system(tmp_path / "does_not_exist.json")


class TestSampledDiagonalizer:
    def test_lookup_and_miss(self):
        directions = np.array([[1.0, 0.0], [0.0, 1.0]])
        matrices = np.stack([np.eye(2), 2.0 * np.eye(2)])
        table = SampledDiagonalizer(directions, matrices)
        assert_allclose(table(np.array([0.0, 1.0])), 2.0 * np.eye(2))
        with pytest.raises(MissingDiagonalizerError):
            table(np.array([np.sqrt(0.5), np.sqrt(0.5)]))
