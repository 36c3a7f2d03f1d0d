import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import hyprelax.model as model
from hyprelax.cli import main
from hyprelax.model import (
    HyperbolicSystem,
    SystemFileError,
    advection_spectrum,
    check_all_conditions,
    check_condition_A,
    check_condition_B,
    check_condition_D,
    check_condition_R,
    check_condition_S,
    dissipation_directions,
    dump_system,
    lift_axis_map,
    load_system,
    max_wave_speed,
    sphere_samples,
)
from hyprelax.systems import damped_euler_2d, damped_euler_3d, goldstein_kac_1d, goldstein_kac_3d

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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


def great_circle_oracle(system: HyperbolicSystem) -> tuple[np.ndarray, bool]:
    """Condition A's ``nu`` and verdict by the branch follower it once used in
    two or more dimensions, the oracle of the closed form.

    From the same base, one great circle of 1024 steps per orthonormal
    tangent: each step hands out the sorted eigenvalues in the rank order of
    the prediction ``2 lambda_{i-1} - lambda_{i-2}``, so crossing branches
    keep their labels.  The branches are fitted by least squares and the
    rows ordered as condition A orders them.
    """
    d, n = system.dimension, system.size
    directions = sphere_samples(d)
    raw_values, raw_vectors, starts = advection_spectrum(system, directions)
    values = raw_values.real
    gaps = np.where(starts[:, 1:], np.diff(values, axis=1), np.inf).min(axis=1, initial=np.inf)
    base = directions[np.lexsort((-gaps, -starts.sum(axis=1)))[0]]
    steps = 1024
    theta = 2.0 * np.pi * np.arange(steps) / steps
    tangents = np.linalg.svd(base[None, :])[2][1:]
    points = np.cos(theta)[:, None] * base + np.sin(theta)[:, None] * tangents[:, None, :]
    points = points.reshape(-1, d)
    circle = np.sort(np.linalg.eigvals(system.advection(points)).real, axis=1)
    circle = circle.reshape(d - 1, steps, n)
    branches = circle.copy()
    for i in range(2, steps):
        order = np.argsort(2.0 * branches[:, i - 1] - branches[:, i - 2], axis=1)
        np.put_along_axis(branches[:, i], order, circle[:, i], axis=1)
    coefficients, *_ = np.linalg.lstsq(
        np.column_stack([np.ones(points.shape[0]), points]), branches.reshape(-1, n), rcond=None
    )
    fit_tolerance = 1e-6 * (1.0 + np.max(np.abs(system.advection(directions))))
    fitted = np.column_stack([np.ones(len(directions)), directions]) @ coefficients
    affine = np.max(np.abs(np.sort(fitted, axis=1) - values)) <= fit_tolerance
    conditioned = np.max(np.linalg.cond(raw_vectors)) < 1e6
    keys = np.round(coefficients / fit_tolerance)
    return coefficients[:, np.lexsort(keys[::-1])].T, bool(affine and conditioned)


def drifting_acoustic(dimension: int, drift) -> HyperbolicSystem:
    """Acoustics in ``dimension`` space dimensions advected by ``drift``:
    ``A_j`` couples the pressure with velocity ``j``, plus ``drift_j I``.
    The eigenvalues ``drift . w - 1``, ``drift . w`` (``dimension - 1``
    times) and ``drift . w + 1`` have ``nu_0 = -1, 0, 1``."""
    n = dimension + 1
    advections = []
    for j in range(dimension):
        a = drift[j] * np.eye(n)
        a[0, j + 1] = a[j + 1, 0] = 1.0
        advections.append(a)
    relaxation = np.diag([0.0] + [1.0] * dimension)
    return HyperbolicSystem(advections=tuple(advections), relaxation=relaxation)


def crossing_commuting_family(dimension: int, seed: int) -> tuple[HyperbolicSystem, np.ndarray]:
    """``A(w) = P diag(b_j . w) P^-1`` and its slopes ``b_j``: in two or more
    dimensions any two branches ``b_i . w`` and ``b_j . w`` cross on the sphere."""
    rng = np.random.default_rng(seed)
    n = 4
    slopes = rng.normal(size=(n, dimension))
    basis = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
    inverse = np.linalg.inv(basis)
    system = HyperbolicSystem(
        advections=tuple(basis @ np.diag(slopes[:, j]) @ inverse for j in range(dimension)),
        relaxation=np.eye(n),
    )
    return system, slopes


def three_velocity(seed: int) -> tuple[HyperbolicSystem, np.ndarray]:
    """The three-velocity system the benchmark writes for ``seed``: rates
    U(0.2, 2) and zero-mean N(0, 1) velocities, which it returns too."""
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.2, 2.0, size=3)
    velocities = rng.normal(size=(3, 3))
    velocities -= velocities.mean(axis=0)
    return goldstein_kac_3d(*rates, velocities), velocities


def euler_diagonalizer(w) -> np.ndarray:
    """Closed-form diagonalizer of damped Euler in any dimension, the oracle
    of the found R: the acoustic modes ``(-+1, w) / sqrt 2`` around the
    transverse modes ``(0, t)``, with ``t`` an orthonormal basis of the
    complement of ``w`` (``(-w_2, w_1)`` in the plane)."""
    w = np.asarray(w, dtype=float) / np.linalg.norm(w)
    transverse = [[-w[1], w[0]]] if w.size == 2 else np.linalg.svd(w[None])[2][1:]
    columns = [np.r_[-1.0, w], *(np.r_[0.0, t] * np.sqrt(2.0) for t in transverse), np.r_[1.0, w]]
    return np.column_stack(columns) / np.sqrt(2.0)


def oracle_r(system: HyperbolicSystem, diagonalizer=None):
    """Condition R's rule applied to a closed-form diagonalizer, the identity
    by default, at every sampled direction."""
    directions = sphere_samples(system.dimension)
    if diagonalizer is None:
        frames = np.broadcast_to(np.eye(system.size), (len(directions), system.size, system.size))
    else:
        frames = np.stack([diagonalizer(w) for w in directions])
    return model._frame_report(system, directions, frames, 0)


def anisotropic_euler() -> HyperbolicSystem:
    """``configs/damped_euler.json`` with friction ``B = diag(0, 1, 2)``: A, B,
    D and S hold, but no ``R(w)`` conjugates ``B`` to a constant."""
    plane = damped_euler_2d()
    return HyperbolicSystem(
        advections=plane.advections, relaxation=np.diag([0.0, 1.0, 2.0]), symmetry=plane.symmetry
    )


def complex_compression() -> HyperbolicSystem:
    """The last two modes share the zero branch of ``A(w)``, and ``B``
    compresses onto them with eigenvalues ``1 +- i``, so R's frames are
    complex."""
    return HyperbolicSystem(
        advections=(np.diag([1.0, 0.0, 0.0]), np.diag([0.5, 0.0, 0.0])),
        relaxation=np.array([[0.0, 0.0, 0.0], [0.0, 1.0, -1.0], [0.0, 1.0, 1.0]]),
    )


def rotating_euler(passive: bool) -> HyperbolicSystem:
    """Damped Euler in the plane with a Coriolis term in its friction, and
    with a damped scalar that nothing advects when ``passive``.  ``C(w)``
    couples the transverse mode to both acoustic modes.  With the scalar,
    the zero branch holds two modes and ``B`` compresses to the identity on
    them, so the compression does not tell them apart."""
    n = 4 if passive else 3
    e = np.eye(n)
    relaxation = np.eye(n)
    relaxation[0, 0] = 0.0
    relaxation[1, 2], relaxation[2, 1] = -0.5, 0.5
    return HyperbolicSystem(
        advections=tuple(np.outer(e[0], e[j]) + np.outer(e[j], e[0]) for j in (1, 2)),
        relaxation=relaxation,
    )


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
        stack = system.symbol(ks)
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

    def test_exact_on_three_velocity_systems(self):
        # The largest |v_i . w| over the sphere is max |v_i|; 128 sampled
        # directions used to read up to 1.4 % low here.
        for seed in range(50):
            system, velocities = three_velocity(seed)
            speed = np.max(np.linalg.norm(velocities, axis=1))
            assert abs(max_wave_speed(system) - speed) <= 1e-12

    def test_damped_euler_speed_is_one(self):
        # |nu_0| + |nu| of the acoustic branches; nu_0 comes from second-order
        # terms, so it is 1 to rounding.
        for system in (damped_euler_2d(), damped_euler_3d()):
            assert max_wave_speed(system) == pytest.approx(1.0, abs=1e-15)

    def test_reads_the_sphere_table_only(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("max_wave_speed solved an eigenproblem")

        non_affine = HyperbolicSystem(
            advections=(np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -2.0])),
            relaxation=np.eye(2),
        )
        systems = (damped_euler_2d(), non_affine)
        tables = [system.sphere for system in systems]
        monkeypatch.setattr(np.linalg, "eig", refuse)
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        assert max_wave_speed(systems[0]) == pytest.approx(1.0, abs=1e-15)
        # Condition A fails, so the table's largest |lambda| is the speed.
        assert not tables[1].report.passed
        assert max_wave_speed(systems[1]) == np.max(np.abs(tables[1].values))


class TestSphereTable:
    def test_computed_once_for_a_r_and_the_wave_speed(self, monkeypatch):
        calls = []
        eig = np.linalg.eig

        def counting(matrices):
            calls.append(np.shape(matrices))
            return eig(matrices)

        system = damped_euler_2d()
        monkeypatch.setattr(np.linalg, "eig", counting)
        assert check_condition_A(system).passed
        assert check_condition_R(system).passed
        assert max_wave_speed(system) == pytest.approx(1.0, abs=1e-15)
        assert system.sphere is system.sphere
        # Every branch of damped Euler is simple, so R refines no cluster.
        assert calls == [(512, 3, 3)]


class TestConditionA:
    def test_certificate_in_diagonal_position_order(self):
        # The certificate carries no diagonal-position labels: what it
        # certifies is that the sorted fitted values are the sorted
        # eigenvalues of A(w) at every sampled direction.
        for system in (goldstein_kac_1d(), damped_euler_2d()):
            report = check_condition_A(system)
            assert report.passed
            nu = np.asarray(report.data["nu"])
            directions = sphere_samples(system.dimension)
            fitted = np.sort(nu[:, 0] + directions @ nu[:, 1:].T, axis=1)
            stacks = np.einsum("mj,jab->mab", directions, np.stack(system.advections))
            actual = np.sort(np.linalg.eigvals(stacks).real, axis=1)
            assert_allclose(fitted, actual, atol=1e-9)

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
        report = check_condition_A(bare)
        assert report.passed
        nu = np.asarray(report.data["nu"])
        # On the unit sphere the branches -|w|, 0, |w| fit as constants.
        assert_allclose(np.sort(nu[:, 0]), [-1.0, 0.0, 1.0], atol=1e-6)
        assert_allclose(np.linalg.norm(nu[:, 1:], axis=1), 0.0, atol=1e-6)

    @pytest.mark.parametrize("seed", range(30))
    def test_three_velocity_files_without_diagonalizer(self, seed, tmp_path):
        # Every branch has nu_0 = 0, so the certificate rows follow the slopes.
        path = tmp_path / "three_velocity.json"
        written, velocities = three_velocity(seed)
        dump_system(written, path)
        system = load_system(path)
        report = check_condition_A(system)
        assert report.passed, report.summary
        expected = np.column_stack([np.zeros(3), velocities])
        expected = expected[np.lexsort(expected.T[::-1])]
        assert_allclose(report.data["nu"], expected, atol=1e-8)

    @pytest.mark.parametrize("dimension", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_crossing_commuting_families(self, dimension, seed):
        system, slopes = crossing_commuting_family(dimension, seed)
        report = check_condition_A(system)
        assert report.passed, report.summary
        assert_branches(report.data["nu"], slopes)

    @pytest.mark.parametrize(
        "system",
        [damped_euler_2d(), damped_euler_3d()]
        + [three_velocity(seed)[0] for seed in range(30)]
        + [crossing_commuting_family(d, seed)[0] for d in (2, 3, 4) for seed in range(4)]
        + [drifting_acoustic(d, np.linspace(0.3, -0.7, d)) for d in (2, 3, 4, 5)],
    )
    def test_closed_form_matches_the_great_circle_oracle(self, system):
        # The drifting acoustic systems in three or more dimensions have a
        # multiple eigenvalue at every w, and nu_0 = -1, 0, 1.
        report = check_condition_A(system)
        nu, passed = great_circle_oracle(system)
        assert report.passed == passed
        assert_allclose(report.data["nu"], nu, rtol=0.0, atol=1e-12)

    def test_constant_multiplicity_counts_as_equal_branches(self):
        # A(w) = w I: one double eigenvalue at every direction, two equal
        # branches nu = (0, 1).  It is uniformly diagonalizable, so A passes;
        # the system is not dissipative, which D reports.
        system = marginally_dissipative()
        report = check_condition_A(system)
        assert report.passed, report.summary
        assert_allclose(report.data["nu"], [[0.0, 1.0], [0.0, 1.0]], atol=1e-12)
        assert not check_condition_D(system).passed

    def test_three_dimensional_euler_passes(self):
        # A(w) has the eigenvalues -1, 0, 0, 1 at every unit w: the double 0
        # is the two transverse modes.
        report = check_condition_A(load_system(CONFIGS / "damped_euler_3d.json"))
        assert report.passed, report.summary
        assert_allclose(np.sort(np.asarray(report.data["nu"])[:, 0]), [-1, 0, 0, 1], atol=1e-9)
        assert_allclose(np.asarray(report.data["nu"])[:, 1:], 0.0, atol=1e-9)
        assert report.data["diagonalizer_condition"] < 2.0

    def test_jordan_block_fails_on_its_diagonalizer_condition(self):
        # A(w) = w J with J a nilpotent Jordan block: the eigenvalues 0, 0 fit
        # exactly, but the eigenvector matrix is singular up to rounding.
        system = HyperbolicSystem(
            advections=(np.array([[0.0, 1.0], [0.0, 0.0]]),), relaxation=np.eye(2)
        )
        report = check_condition_A(system)
        assert not report.passed
        assert report.data["fit_residual"] == 0.0
        assert set(report.witness) == {"diagonalizer_condition"}
        assert report.witness["diagonalizer_condition"] >= 1e6

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_singular_base_fails_on_its_diagonalizer_condition(self, dimension, tmp_path):
        # A(w) = (c . w) J with J the nilpotent 3x3 Jordan block: the
        # eigenvector matrix is singular at every sample, the base's too.
        jordan = np.diag([1.0, 1.0], 1)
        system = HyperbolicSystem(
            advections=tuple(c * jordan for c in (1.0, 2.0, 3.0)[:dimension]),
            relaxation=np.eye(3),
        )
        report = check_condition_A(system)
        assert not report.passed
        assert set(report.witness) == {"diagonalizer_condition"}
        assert report.witness["diagonalizer_condition"] >= 1e6
        path = tmp_path / "jordan.json"
        dump_system(system, path)
        assert main(["check", str(path), "--out", str(tmp_path / "out")]) == 2

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
        report = check_condition_A(system)
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

    def test_closed_form_euler_diagonalizer_passes(self):
        # R(w) holds the acoustic modes (-1, w/sqrt 2), (0, w_perp), (1, w/sqrt 2)
        # up to scaling; it conjugates B = diag(0, 1, 1) to a constant.
        report = oracle_r(damped_euler_2d(), euler_diagonalizer)
        assert report.passed, report.summary
        assert report.data["off_diagonal_residual"] <= 1e-12
        assert report.data["max_deviation"] <= 1e-12
        assert report.data["diagonalizer_condition"] == pytest.approx(1.0, abs=1e-12)
        assert_allclose(
            report.data["conjugated_relaxation"],
            [[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]],
            atol=1e-12,
        )
        # The found frames differ from the closed form by a column scaling.
        found = check_condition_R(damped_euler_2d())
        assert found.passed, found.summary
        assert found.data["max_deviation"] <= 1e-12
        assert_allclose(np.diag(found.data["conjugated_relaxation"]), [0.5, 1.0, 0.5], atol=1e-12)

    def test_direction_dependent_conjugation_fails(self):
        # Both R(w) diagonalize the diagonal advection, but they conjugate
        # the upper-triangular relaxation differently.
        system = HyperbolicSystem(
            advections=(np.diag([1.0, 2.0]),),
            relaxation=np.array([[1.0, 1.0], [0.0, 1.0]]),
        )
        report = oracle_r(system, lambda w: np.eye(2) if w[0] > 0 else np.diag([1.0, 2.0]))
        assert not report.passed
        assert report.witness is not None
        # The found R is constant in one dimension.
        assert check_condition_R(system).passed

    def test_constant_non_diagonalizing_frame_fails(self):
        # A rotation by pi/4 conjugates B to the same matrix at every
        # direction but does not diagonalize A(w) = diag(-w, w).
        rotation = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
        report = oracle_r(goldstein_kac_1d(), lambda w: rotation)
        assert report.data["max_deviation"] == 0.0
        assert not report.passed
        assert report.witness["off_diagonal_residual"] == pytest.approx(1.0)
        assert report.witness["direction"] == [1.0]

    @pytest.mark.parametrize("small, condition", [(1e-7, 1e7), (0.0, np.inf)])
    def test_ill_conditioned_diagonalizer_fails(self, small, condition):
        # diag(1, small) diagonalizes A(w) and conjugates B to a constant, but
        # it is ill-conditioned, or singular, so nothing is solved with it.
        report = oracle_r(goldstein_kac_1d(), lambda w: np.diag([1.0, small]))
        assert not report.passed
        assert report.witness == {
            "direction": [1.0],
            "diagonalizer_condition": pytest.approx(condition),
        }

    @pytest.mark.parametrize(
        "system, diagonalizer",
        [
            (goldstein_kac_1d(), None),
            (goldstein_kac_1d(0.3, 2.0), None),
            (goldstein_kac_3d(0.5, 0.5, 0.5), None),
            (damped_euler_2d(), euler_diagonalizer),
            (damped_euler_3d(), euler_diagonalizer),
            (load_system(CONFIGS / "goldstein_kac.json"), None),
            (load_system(CONFIGS / "damped_euler.json"), euler_diagonalizer),
            (load_system(CONFIGS / "damped_euler_3d.json"), euler_diagonalizer),
            (anisotropic_euler(), euler_diagonalizer),
            (
                HyperbolicSystem(
                    advections=(np.diag([-1.0, 1.0]),),
                    relaxation=np.array([[1.0, -1.0], [-2.0, 2.0]]),
                ),
                None,
            ),
        ]
        + [(three_velocity(seed)[0], None) for seed in range(100)],
    )
    def test_found_r_matches_the_closed_form_oracle(self, system, diagonalizer):
        found, oracle = check_condition_R(system), oracle_r(system, diagonalizer)
        assert found.passed == oracle.passed, (found.summary, oracle.summary)
        if found.passed:
            assert found.data["max_deviation"] <= 1e-12
            assert found.data["skipped_directions"] <= 1

    def test_one_dimension_labels_columns_by_the_eigenvectors_of_a1(self):
        # A's sorted fit on {+1, -1} gives the constant branches -1 and 1, so
        # labels by rank would swap the columns at w = -1 and read a
        # deviation of 1.0.  A(w) = w A_1 shares the eigenvectors of A_1.
        system = HyperbolicSystem(
            advections=(np.diag([-1.0, 1.0]),),
            relaxation=np.array([[1.0, -1.0], [-2.0, 2.0]]),
        )
        assert_allclose(check_condition_A(system).data["nu"], [[-1.0, 0.0], [1.0, 0.0]], atol=1e-15)
        report = check_condition_R(system)
        assert report.passed, report.summary
        assert report.data["max_deviation"] == 0.0
        assert_allclose(report.data["conjugated_relaxation"], system.relaxation, atol=0)

    def test_anisotropic_friction_fails_with_a_witness(self):
        report = check_condition_R(anisotropic_euler())
        assert report.passed is False
        assert set(report.witness) == {"direction", "deviation"}
        assert report.witness["deviation"] > 0.5
        assert np.linalg.norm(report.witness["direction"]) == pytest.approx(1.0)
        for check in (check_condition_A, check_condition_B, check_condition_D, check_condition_S):
            assert check(anisotropic_euler()).passed

    def test_crossing_directions_are_skipped(self):
        # A(w) = w_2 diag(1, -1): at w = (+-1, 0) both branches are 0, A(w) = 0,
        # and ranks cannot tell its eigenvector columns apart.
        system = HyperbolicSystem(
            advections=(np.zeros((2, 2)), np.diag([1.0, -1.0])),
            relaxation=np.array([[1.0, -1.0], [-2.0, 2.0]]),
        )
        report = check_condition_R(system)
        assert report.passed, report.summary
        assert report.data["skipped_directions"] == 2
        assert oracle_r(system).passed

    def test_three_dimensional_euler_passes(self):
        # The double zero branch is the transverse modes, where B compresses
        # to the identity and couples to nothing, so any frame of it serves.
        report = check_condition_R(load_system(CONFIGS / "damped_euler_3d.json"))
        assert report.passed, report.summary
        assert report.data["skipped_directions"] == 0
        assert report.data["max_deviation"] <= 1e-12

    def test_coupling_cycle_is_scaled_along_a_spanning_tree(self):
        # C(w) is full: the Coriolis term couples the transverse mode to both
        # acoustic modes, and a rotation of the plane carries C(w) along.
        report = check_condition_R(rotating_euler(passive=False))
        assert report.passed, report.summary
        conjugated = np.asarray(report.data["conjugated_relaxation"])
        assert np.all(np.abs(conjugated) > 0.3)
        assert report.data["max_deviation"] <= 1e-12

    def test_coupled_part_of_equal_branches_is_not_decided(self, tmp_path, capsys):
        # The zero branch holds the transverse mode and the passive scalar; B
        # compresses to the identity on them, and the transverse mode is
        # coupled to the acoustic ones, so no frame of the pair is preferred.
        system = rotating_euler(passive=True)
        report = check_condition_R(system)
        assert report.passed is None
        assert "coupling" in report.summary
        path = tmp_path / "rotating.json"
        dump_system(system, path)
        out = tmp_path / "out"
        assert main(["check", str(path), "--out", str(out)]) == 0
        assert f"condition R: not decided ({report.summary})" in capsys.readouterr().out
        payload = json.loads((out / "conditions.json").read_text())
        assert payload["R"]["passed"] is None
        assert all(payload[name]["passed"] for name in "ABDS")

    def test_defective_compression_is_not_decided(self):
        # A(w) = diag(a . w, a . w, b . w) and B compresses to a Jordan block on
        # the double branch: its eigenvectors give no frame.  (R = I would
        # pass; the refinement cannot find it.)
        system = HyperbolicSystem(
            advections=(np.diag([1.0, 1.0, -0.5]), np.diag([0.5, 0.5, 1.0])),
            relaxation=np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]),
        )
        assert oracle_r(system).passed
        report = check_condition_R(system)
        assert report.passed is None
        assert "not diagonalizable" in report.summary

    def test_not_decided_when_a_fails(self):
        jordan = HyperbolicSystem(
            advections=(np.array([[0.0, 1.0], [0.0, 0.0]]),), relaxation=np.eye(2)
        )
        report = check_condition_R(jordan)
        assert report.passed is None
        assert "condition A fails" in report.summary


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

    def test_invertible_relaxation_has_no_kernel(self):
        system = HyperbolicSystem(advections=(np.eye(2),), relaxation=np.eye(2))
        report = check_condition_B(system)
        assert not report.passed
        assert report.summary == "relaxation matrix has no kernel"
        assert report.witness == {"eigenvalues": [[1.0, 0.0], [1.0, 0.0]]}

    def test_scalar_zero_relaxation_has_no_dissipative_part(self):
        system = HyperbolicSystem(advections=(np.eye(1),), relaxation=np.zeros((1, 1)))
        report = check_condition_B(system)
        assert not report.passed
        assert report.summary == "relaxation matrix is 1x1 zero; no dissipative part"
        assert report.data == {"eigenvalues": [[0.0, 0.0]]}
        assert report.witness is None


class TestConditionD:
    def test_example_systems_theta(self, monkeypatch):
        report = check_condition_D(goldstein_kac_1d())
        assert report.passed
        assert report.data["theta"] == pytest.approx(0.5, abs=0.05)
        monkeypatch.setattr(model, "_D_SPHERE_COUNT", 64)
        report = check_condition_D(damped_euler_2d())
        assert report.passed
        assert report.data["theta"] == pytest.approx(0.5, abs=0.05)

    def test_identity_advection_fails_with_imaginary_witness(self):
        report = check_condition_D(marginally_dissipative())
        assert not report.passed
        assert report.witness is not None
        real, imag = report.witness["eigenvalue"]
        assert abs(real) < 1e-10
        assert abs(imag) > 0

    def test_theta_non_increasing_under_refinement(self, monkeypatch):
        system = damped_euler_2d()
        monkeypatch.setattr(model, "_D_RADIAL_COUNT", 31)
        monkeypatch.setattr(model, "_D_SPHERE_COUNT", 256)
        coarse = check_condition_D(system)
        monkeypatch.undo()
        fine = check_condition_D(system)
        assert (fine.data["radial_count"], fine.data["sphere_count"]) == (61, 512)
        # The fine grids contain the coarse sample points, so the sampled
        # infimum cannot increase.
        assert fine.data["theta"] <= coarse.data["theta"] + 1e-14

    @pytest.mark.parametrize(
        "name, stack",
        [
            ("goldstein_kac.json", 61),
            ("damped_euler.json", 61 * 256),
            ("damped_euler_3d.json", 61 * 256),
        ],
    )
    def test_one_eigvals_call_over_half_the_sample(self, monkeypatch, name, stack):
        system = load_system(CONFIGS / name)
        shapes = []
        eigvals = np.linalg.eigvals

        def recorded(matrices):
            shapes.append(matrices.shape)
            return eigvals(matrices)

        monkeypatch.setattr(np.linalg, "eigvals", recorded)
        report = check_condition_D(system)
        assert shapes == [(stack, system.size, system.size)]
        assert report.data["sphere_count"] == 2 * stack // 61
        assert f"over {2 * stack} sampled frequencies" in report.summary

    @pytest.mark.parametrize("dimension", [1, 2, 3, 4])
    def test_second_half_of_the_sample_negates_the_first(self, dimension):
        directions = dissipation_directions(dimension)
        half = directions.shape[0] // 2
        assert directions.shape == ((2, 1) if dimension == 1 else (512, dimension))
        assert_array_equal(directions[half:], -directions[:half])
        assert_array_equal(directions[:half], sphere_samples(dimension, 512)[:half])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: load_system(CONFIGS / "goldstein_kac.json"),
            lambda: load_system(CONFIGS / "damped_euler.json"),
            lambda: load_system(CONFIGS / "damped_euler_3d.json"),
            anisotropic_euler,
            *(lambda seed=seed: seeded_three_velocity(seed) for seed in range(20)),
        ],
        ids=["goldstein_kac", "damped_euler", "damped_euler_3d", "anisotropic"]
        + [f"three_velocity_{seed}" for seed in range(20)],
    )
    def test_theta_is_the_infimum_over_the_whole_sample(self, build):
        system = build()
        assert check_condition_D(system).data["theta"] == pytest.approx(
            full_sample_theta(system), rel=1e-12
        )

    def test_witness_frequency_belongs_to_the_sample(self):
        # Along w = (0, +-1), A(w) = I and the kernel branch is not damped.
        system = HyperbolicSystem(
            advections=(np.diag([1.0, -1.0]), np.eye(2)),
            relaxation=0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]]),
        )
        for case in (marginally_dissipative(), system):
            report = check_condition_D(case)
            assert not report.passed
            radii = np.geomspace(1e-3, 1e3, 61)
            sample = radii[:, None, None] * dissipation_directions(case.dimension)[None]
            witness = np.array(report.witness["frequency"])
            assert np.any(np.all(sample.reshape(-1, case.dimension) == witness, axis=1))
        # The plane system's witness lies on w = (0, +-1).
        assert abs(witness[0]) <= 1e-12 * np.linalg.norm(witness)


def seeded_three_velocity(seed: int) -> HyperbolicSystem:
    """A three-velocity system drawn as the analysis benchmark draws them."""
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.2, 2.0, size=3)
    velocities = rng.normal(size=(3, 3))
    velocities -= velocities.mean(axis=0)
    return goldstein_kac_3d(*rates, velocities)


def full_sample_theta(system: HyperbolicSystem) -> float:
    """The infimum of ``Re lambda * (1 + |k|^2) / |k|^2`` over condition D's
    whole antipodal sample, each ``E(ik) = B + i A(k)`` solved on its own:
    61 log radii in ``[1e-3, 1e3]`` times ``[[1], [-1]]`` in d = 1, the
    angles ``2 pi j / 512`` for ``j < 256`` in d = 2 and the Fibonacci upper
    hemisphere of 512 points in d = 3, each with its negation."""
    d = system.dimension
    if d == 1:
        half = np.array([[1.0]])
    elif d == 2:
        angles = 2.0 * np.pi * np.arange(256) / 512
        half = np.column_stack([np.cos(angles), np.sin(angles)])
    else:
        j = np.arange(256)
        z = 1.0 - (2.0 * j + 1.0) / 512
        r = np.sqrt(1.0 - z * z)
        phi = j * np.pi * (3.0 - np.sqrt(5.0))
        half = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    directions = np.concatenate([half, -half])
    radii = np.geomspace(1e-3, 1e3, 61)
    frequencies = radii[:, None, None] * directions[None, :, :]
    symbols = system.relaxation + 1j * np.einsum(
        "rmj,jab->rmab", frequencies, np.stack(system.advections)
    )
    values = np.linalg.eigvals(symbols)
    weights = (1.0 + radii**2) / radii**2
    return float(np.min(values.real * weights[:, None, None]))


def singular_solutions() -> HyperbolicSystem:
    """``T B = B T`` and ``T A = -A T`` leave ``T = diag(0, b)``: a nonempty
    solution space without an invertible element."""
    return HyperbolicSystem(advections=(np.diag([1.0, 0.0]),), relaxation=np.diag([0.0, 1.0]))


def bare(system: HyperbolicSystem) -> HyperbolicSystem:
    """``system`` without its symmetry matrix, so condition S searches."""
    return HyperbolicSystem(advections=system.advections, relaxation=system.relaxation)


def rotated(system: HyperbolicSystem, seed: int) -> HyperbolicSystem:
    """``system`` in a seeded orthogonal state basis, without a symmetry."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((system.size,) * 2))
    return HyperbolicSystem(
        advections=tuple(q @ a @ q.T for a in system.advections),
        relaxation=q @ system.relaxation @ q.T,
    )


def intertwiner_oracle(system: HyperbolicSystem) -> bool:
    """Whether the former search of condition S finds a symmetry: an
    invertible element (``sigma_min / sigma_max >= 1e-6``, 100 seeded tries)
    of the null space of the Kronecker form of ``S B = B S``, ``S A^j = -A^j S``."""
    n = system.size
    eye = np.eye(n)
    b = system.relaxation
    pairs = [(b, b)] + [(a, -a) for a in system.advections]
    stacked = np.vstack([np.kron(eye, m.T) - np.kron(target, eye) for m, target in pairs])
    _, singular_values, vt = np.linalg.svd(stacked)
    top = singular_values[0] if singular_values.size else 0.0
    null_mask = np.zeros(vt.shape[0], dtype=bool)
    null_mask[singular_values.shape[0] :] = True
    null_mask[: singular_values.shape[0]] = singular_values <= 1e-10 * max(top, 1.0)
    basis = vt[null_mask]
    if basis.shape[0] == 0:
        return False
    rng = np.random.default_rng(0)
    for _ in range(100):
        singulars = np.linalg.svd(
            (rng.standard_normal(basis.shape[0]) @ basis).reshape(n, n), compute_uv=False
        )
        if singulars[0] > 0 and singulars[-1] / singulars[0] >= 1e-6:
            return True
    return False


class TestConditionS:
    def test_provided_symmetries_verify(self):
        for system in (goldstein_kac_1d(), damped_euler_2d()):
            report = check_condition_S(system)
            assert report.passed
            assert report.summary == (
                "provided symmetry: commutator 0.00e+00, anticommutator 0.00e+00"
            )
            assert report.data == {
                "symmetry": system.symmetry.tolist(),
                "commutator_residual": 0.0,
                "anticommutator_residual": 0.0,
            }
            assert report.witness is None

    def test_wrong_provided_symmetry_fails(self):
        system = goldstein_kac_1d()
        wrong = HyperbolicSystem(
            advections=system.advections, relaxation=system.relaxation, symmetry=np.eye(2)
        )
        report = check_condition_S(wrong)
        assert not report.passed
        assert report.summary.startswith("provided symmetry: commutator 0.00e+00")
        assert set(report.witness) == {"commutator", "anticommutator"}
        assert report.witness["anticommutator"] == report.data["anticommutator_residual"] > 0

    @pytest.mark.parametrize(
        "symmetry, passed",
        [
            (np.zeros((2, 2)), False),
            (1e-300 * np.eye(2), False),
            (1e-300 * np.array([[0.0, 1.0], [1.0, 0.0]]), True),
        ],
    )
    def test_scale_of_provided_symmetry_is_ignored(self, symmetry, passed):
        # S is measured at Frobenius norm sqrt(n): a zero S is singular, and a
        # tiny S is judged as the matrix it is a multiple of.
        system = goldstein_kac_1d()
        scaled = HyperbolicSystem(
            advections=system.advections, relaxation=system.relaxation, symmetry=symmetry
        )
        report = check_condition_S(scaled)
        assert report.passed is passed
        assert ("singular" in report.summary) == (not symmetry.any())

    def test_search_finds_symmetry(self):
        system = bare(goldstein_kac_1d())
        report = check_condition_S(system)
        assert report.passed
        found = np.asarray(report.data["symmetry"])
        b = system.relaxation
        a = system.advections[0]
        assert np.max(np.abs(found @ b - b @ found)) < 1e-8
        assert np.max(np.abs(found @ a + a @ found)) < 1e-8
        assert np.linalg.cond(found) < 1e6

    @pytest.mark.parametrize("build", [goldstein_kac_1d, damped_euler_2d, damped_euler_3d])
    def test_searched_certificate_is_the_lift_of_negation(self, build):
        system = bare(build())
        report = check_condition_S(system)
        lift = lift_axis_map(system, -np.eye(system.dimension))
        assert report.passed
        assert report.summary == "found symmetry: commutator 0.00e+00, anticommutator 0.00e+00"
        assert report.data == {
            "symmetry": lift.tolist(),
            "commutator_residual": 0.0,
            "anticommutator_residual": 0.0,
        }

    def test_no_symmetry_exists(self):
        for system in (marginally_dissipative(), singular_solutions()):
            report = check_condition_S(system)
            assert not report.passed
            assert report.summary == "no invertible symmetry found in the constraint solution space"
            assert report.data == {}

    def test_verdicts_match_the_former_search(self):
        systems = (
            [three_velocity(seed)[0] for seed in range(30)]
            + [bare(build()) for build in (goldstein_kac_1d, damped_euler_2d, damped_euler_3d)]
            + [bare(goldstein_kac_3d(0.5, 1.0, 1.5)), rotated(damped_euler_2d(), 7)]
            + [rotated(damped_euler_3d(), 3), marginally_dissipative()]
        )
        verdicts = [check_condition_S(system).passed for system in systems]
        assert verdicts == [intertwiner_oracle(system) for system in systems]
        # The two-speed and Euler systems have a symmetry, in any state basis;
        # the three-velocity model and the marginal system have none.
        assert verdicts == [False] * 30 + [True] * 3 + [False, True, True, False]


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
        assert lift_axis_map(singular_solutions(), -np.eye(1)) is None

    def test_draws_only_in_a_larger_solution_space(self, monkeypatch):
        # A one-dimensional solution space has one candidate up to scale.
        draws = []
        default_rng = np.random.default_rng

        def recorded(seed):
            draws.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", recorded)
        assert_array_equal(lift_axis_map(damped_euler_2d(), -np.eye(2)), np.diag([1.0, -1.0, -1.0]))
        assert draws == []
        # With B = I any off-diagonal T anticommutes with A = diag(1, -1).
        free = HyperbolicSystem(advections=(np.diag([1.0, -1.0]),), relaxation=np.eye(2))
        lift = lift_axis_map(free, -np.eye(1))
        assert draws == [0]
        assert lift[0, 0] == lift[1, 1] == 0.0 and lift[0, 1] * lift[1, 0] != 0.0

    def test_generic_system_has_no_lift(self):
        rng = np.random.default_rng(4)
        system = HyperbolicSystem(
            advections=tuple(rng.standard_normal((2, 3, 3))),
            relaxation=np.diag([0.0, 1.0, 2.0]),
        )
        for rotation in ([[-1, 0], [0, 1]], [[0, 1], [1, 0]], [[-1, 0], [0, -1]]):
            assert lift_axis_map(system, np.array(rotation)) is None


def three_speed_line() -> HyperbolicSystem:
    """Speeds -1, 1/2 and 1 with uniform exchange: no lift of ``k -> -k``."""
    return HyperbolicSystem(
        advections=(np.diag([-1.0, 0.5, 1.0]),),
        relaxation=0.5 * (np.eye(3) - np.ones((3, 3)) / 3.0),
    )


def quarter_turn_lift() -> HyperbolicSystem:
    """The only lifts of ``k -> -k`` are multiples of a quarter turn, which
    squares to ``-I``."""
    return HyperbolicSystem(
        advections=(np.diag([1.0, -1.0]),), relaxation=np.array([[1.0, -1.0], [1.0, 1.0]])
    )


def complex_oracle(system: HyperbolicSystem) -> HyperbolicSystem:
    """A copy of ``system`` whose real form is None, so every consumer takes
    the complex symbols: the oracle of the real form."""
    copy = HyperbolicSystem(system.advections, system.relaxation, system.symmetry, system.name)
    copy.__dict__["real_form"] = None
    return copy


class TestRealForm:
    LIFTED = {
        "damped_euler.json": lambda: load_system(CONFIGS / "damped_euler.json"),
        "goldstein_kac.json": lambda: load_system(CONFIGS / "goldstein_kac.json"),
        "damped_euler_3d.json": lambda: load_system(CONFIGS / "damped_euler_3d.json"),
        "goldstein_kac_1d": goldstein_kac_1d,
        "damped_euler_2d": damped_euler_2d,
        "damped_euler_3d": damped_euler_3d,
        "anisotropic": anisotropic_euler,
        "rotated": lambda: rotated(damped_euler_2d(), 3),
    }

    @pytest.mark.parametrize("case", list(LIFTED))
    def test_real_symbols_are_similar_to_the_symbols(self, case):
        system = self.LIFTED[case]()
        form = system.real_form
        assert form is not None
        assert system.real_form is form
        for matrix in (form.relaxation, form.advections):
            assert matrix.dtype == np.float64
        n = system.size
        assert_allclose(form.transform @ form.inverse, np.eye(n), rtol=0, atol=1e-15)
        k = np.random.default_rng(5).standard_normal((40, system.dimension)) * 3.0
        real = system.real_symbol(k)
        assert real.dtype == np.float64 and real.shape == (40, n, n)
        conjugated = form.inverse @ system.symbol(k) @ form.transform
        assert np.max(np.abs(conjugated - real)) <= 1e-14 * np.max(np.abs(real))
        assert_array_equal(system.real_symbol(k[0]), real[0])

    def test_bundled_coefficients_are_exact(self):
        # A signed-permutation lift gives S entries (1 +- i) / 2 and 0, and
        # the transformed coefficients come out exactly real.
        for name in ("damped_euler.json", "goldstein_kac.json", "damped_euler_3d.json"):
            system = load_system(CONFIGS / name)
            form = system.real_form
            coefficients = np.stack([system.relaxation, *(1j * a for a in system.advections)])
            conjugated = form.inverse @ coefficients @ form.transform
            assert np.all(conjugated.imag == 0.0)
            assert_array_equal(form.relaxation, conjugated[0].real)
            assert_array_equal(form.advections, conjugated[1:].real)

    def test_systems_without_an_involutive_lift_have_none(self):
        assert lift_axis_map(three_speed_line(), -np.eye(1)) is None
        assert three_speed_line().real_form is None
        assert goldstein_kac_3d(0.5, 0.5, 0.5).real_form is None
        turn = quarter_turn_lift()
        lift = lift_axis_map(turn, -np.eye(1))
        square = lift @ lift
        assert square[0, 0] < 0
        assert_allclose(square, square[0, 0] * np.eye(2), rtol=0, atol=1e-15)
        assert turn.real_form is None
        with pytest.raises(ValueError, match="no real form"):
            turn.real_symbol(np.ones(1))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: load_system(CONFIGS / "damped_euler.json"),
            lambda: load_system(CONFIGS / "damped_euler_3d.json"),
            goldstein_kac_1d,
            anisotropic_euler,
        ],
    )
    def test_condition_d_matches_the_complex_symbols(self, build):
        system = build()
        real = check_condition_D(system)
        complex_ = check_condition_D(complex_oracle(system))
        assert real.passed == complex_.passed
        assert real.data["theta"] == pytest.approx(complex_.data["theta"], rel=1e-12)

    def test_condition_d_reads_the_real_symbols(self, monkeypatch):
        dtypes = []
        eigvals = np.linalg.eigvals

        def recorded(matrices):
            dtypes.append(matrices.dtype)
            return eigvals(matrices)

        monkeypatch.setattr(np.linalg, "eigvals", recorded)
        check_condition_D(damped_euler_2d())
        check_condition_D(three_speed_line())
        assert dtypes == [np.float64, np.complex128]


class TestCheckAll:
    def test_includes_r_only_when_a_passes(self):
        with_r = check_all_conditions(goldstein_kac_1d())
        assert set(with_r) == {"A", "B", "D", "S", "R"}
        jordan = HyperbolicSystem(
            advections=(np.array([[0.0, 1.0], [0.0, 0.0]]),), relaxation=np.eye(2)
        )
        without = check_all_conditions(jordan)
        assert not without["A"].passed
        assert set(without) == {"A", "B", "D", "S"}

    @pytest.mark.parametrize(
        "build",
        [
            lambda: load_system(CONFIGS / "goldstein_kac.json"),
            lambda: load_system(CONFIGS / "damped_euler.json"),
            lambda: load_system(CONFIGS / "damped_euler_3d.json"),
            anisotropic_euler,
            complex_compression,
        ],
        ids=["goldstein_kac", "damped_euler", "damped_euler_3d", "anisotropic", "complex"],
    )
    def test_reports_serialize_directly(self, build):
        for report in check_all_conditions(build()).values():
            json.dumps(report.data, allow_nan=False)
            json.dumps(report.witness, allow_nan=False)

    def test_complex_compression_keeps_both_parts(self):
        report = check_condition_R(complex_compression())
        assert report.passed, report.summary
        assert_allclose(np.diag(report.data["conjugated_relaxation"]), [1.0, 1.0, 0.0], atol=1e-12)
        assert_allclose(
            np.diag(report.data["conjugated_relaxation_imag"]), [1.0, -1.0, 0.0], atol=1e-12
        )
        real = check_condition_R(goldstein_kac_1d()).data
        assert_array_equal(real["conjugated_relaxation_imag"], np.zeros((2, 2)))


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

    @pytest.mark.parametrize(
        "name, builder",
        [
            ("goldstein_kac", goldstein_kac_1d),
            ("damped_euler", damped_euler_2d),
            ("damped_euler_3d", damped_euler_3d),
        ],
    )
    def test_bundled_file_is_its_builder(self, name, builder):
        loaded, built = load_system(CONFIGS / f"{name}.json"), builder()
        assert len(loaded.advections) == len(built.advections)
        for from_file, from_builder in zip(loaded.advections, built.advections):
            assert_array_equal(from_file, from_builder)
        assert_array_equal(loaded.relaxation, built.relaxation)
        assert_array_equal(loaded.symmetry, built.symmetry)

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
        with pytest.raises(SystemFileError, match="invalid A: "):
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
        with pytest.raises(SystemFileError, match="invalid A: "):
            load_system(path)

    def test_bad_dimension_type(self, tmp_path):
        path = tmp_path / "bad.json"
        cases = (
            ("d", "one", "invalid d: "),
            ("d", 0, "invalid d: expected a positive integer, got 0"),
            ("n", 0, "invalid n: expected a positive integer, got 0"),
        )
        for key, value, message in cases:
            payload = {"d": 1, "n": 2, "A": [], "B": [], key: value}
            path.write_text(json.dumps(payload))
            with pytest.raises(SystemFileError, match=message):
                load_system(path)

    def test_r_samples_is_an_unknown_key(self, tmp_path):
        # Condition R finds its diagonalizer, so a file cannot supply one.
        path = tmp_path / "bad.json"
        payload = json.loads((CONFIGS / "goldstein_kac.json").read_text())
        payload["R_samples"] = [{"w": [1.0], "R": [[1.0, 0.0], [0.0, 1.0]]}]
        path.write_text(json.dumps(payload))
        with pytest.raises(SystemFileError, match="unknown key 'R_samples' in system file"):
            load_system(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(SystemFileError):
            load_system(tmp_path / "does_not_exist.json")
