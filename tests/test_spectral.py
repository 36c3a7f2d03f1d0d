import struct
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hyprelax.chapman import (
    GroupNotSeparatedError,
    compute_parabolic_limit,
    exact_group_projection,
)
from hyprelax.linalg import matrix_exponential
import hyprelax.spectral as spectral
from hyprelax.model import HyperbolicSystem, load_system
from hyprelax.spectral import (
    CONDITION_LIMIT,
    FREQUENCY,
    PHYSICAL,
    CutoffSpec,
    FrequencySplitter,
    GridField,
    InitialSpec,
    PeriodicGrid,
    SpectralError,
    SupportTooWideError,
    WrongRepresentationError,
    _AUDIT_MEMBERS,
    _grid_orbits,
    default_cutoff,
    evolve_parabolic_phi,
    evolve_parabolic_psi,
    load_field,
    lp_norm,
    make_initial_data,
    save_field,
    smooth_step,
    to_frequency,
    to_physical,
)
from hyprelax.systems import damped_euler_2d, damped_euler_3d, goldstein_kac_1d

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def evolve_hyperbolic(system: HyperbolicSystem, field: GridField, t: float) -> GridField:
    """Pade-13 ``exp(-E(ik) t)`` at every frequency, in the field's representation.

    The independent reference for :class:`FrequencySplitter`, which factors
    each symbol once and exponentiates its eigenvalues instead.
    """
    if t < 0:
        raise ValueError(f"evolution time must be nonnegative, got {t}")
    spectrum = field if field.representation == FREQUENCY else to_frequency(field)
    symbols = system.symbol(field.grid.frequency_vectors)
    flat = np.einsum("fij,jf->if", matrix_exponential(-t * symbols), spectrum.flat())
    evolved = GridField(field.grid, flat.reshape(spectrum.values.shape), FREQUENCY)
    return evolved if field.representation == FREQUENCY else to_physical(evolved)


def gaussian_field(grid: PeriodicGrid, amplitudes, sigma: float = 1.0) -> GridField:
    return make_initial_data(
        grid, len(amplitudes), InitialSpec(amplitudes=tuple(amplitudes), sigma=sigma)
    )


class TestPeriodicGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicGrid(dimension=0, points=8, half_width=1.0)
        with pytest.raises(ValueError):
            PeriodicGrid(dimension=1, points=100, half_width=1.0)
        with pytest.raises(ValueError):
            PeriodicGrid(dimension=1, points=4, half_width=1.0)
        with pytest.raises(ValueError):
            PeriodicGrid(dimension=1, points=8, half_width=0.0)

    def test_axes_and_measures(self):
        grid = PeriodicGrid(dimension=2, points=16, half_width=4.0)
        assert grid.spacing == pytest.approx(0.5)
        assert grid.cell_volume == pytest.approx(0.25)
        assert grid.total_points == 256
        x = grid.x_axis()
        assert x[0] == pytest.approx(-4.0)
        assert x[-1] == pytest.approx(4.0 - 0.5)
        assert 0.0 in x
        k = grid.frequency_axis()
        assert k[0] == 0.0
        assert k[1] == pytest.approx(np.pi / 4.0)

    def test_frequency_vectors_are_c_ordered_meshgrid(self):
        grid = PeriodicGrid(dimension=2, points=8, half_width=2.0)
        vectors = grid.frequency_vectors
        assert vectors.shape == (64, 2)
        axis = grid.frequency_axis()
        assert_allclose(vectors[:8, 0], axis[0])
        assert_allclose(vectors[:8, 1], axis)
        assert_allclose(vectors[8, 0], axis[1])

    def test_radius_squared(self):
        grid = PeriodicGrid(dimension=2, points=8, half_width=2.0)
        r2 = grid.radius_squared()
        assert r2.shape == (8, 8)
        assert r2[4, 4] == 0.0
        assert r2[0, 0] == pytest.approx(8.0)


class TestGridField:
    def test_shape_validation(self):
        grid = PeriodicGrid(dimension=1, points=8, half_width=1.0)
        with pytest.raises(ValueError):
            GridField(grid, np.zeros(8), PHYSICAL)
        with pytest.raises(ValueError):
            GridField(grid, np.zeros((2, 9)), PHYSICAL)
        with pytest.raises(ValueError):
            GridField(grid, np.zeros((2, 8)), "fourier")

    def test_transform_round_trip(self):
        grid = PeriodicGrid(dimension=2, points=32, half_width=8.0)
        field = gaussian_field(grid, (1.0, -0.5))
        back = to_physical(to_frequency(field))
        assert_allclose(back.values, field.values, atol=1e-12)

    def test_transform_requires_matching_representation(self):
        grid = PeriodicGrid(dimension=1, points=8, half_width=1.0)
        field = GridField(grid, np.zeros((1, 8)), FREQUENCY)
        with pytest.raises(WrongRepresentationError):
            to_frequency(field)
        with pytest.raises(WrongRepresentationError):
            to_physical(GridField(grid, np.zeros((1, 8)), PHYSICAL))
        for p in (1, np.inf):
            with pytest.raises(WrongRepresentationError):
                lp_norm(field, p)

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_l2_norm_of_a_spectrum_is_its_riemann_sum(self, dimension, kind):
        grid = PeriodicGrid(dimension=dimension, points=32, half_width=8.0)
        rng = np.random.default_rng(11)
        shape = (3, *grid.shape)
        values = rng.standard_normal(shape)
        if kind == "complex":
            values = values + 1j * rng.standard_normal(shape)
        spectrum = to_frequency(GridField(grid, values, PHYSICAL))
        assert lp_norm(spectrum, 2) == pytest.approx(
            lp_norm(to_physical(spectrum), 2), rel=1e-12
        )

    def test_parseval(self):
        grid = PeriodicGrid(dimension=1, points=64, half_width=8.0)
        field = gaussian_field(grid, (1.0, 0.3))
        spectrum = to_frequency(field)
        physical_sq = lp_norm(field, 2) ** 2
        frequency_sq = grid.cell_volume * np.sum(np.abs(spectrum.values) ** 2)
        assert physical_sq == pytest.approx(frequency_sq, rel=1e-12)

    def test_shifted_gaussian_spectrum_modulus(self):
        grid = PeriodicGrid(dimension=1, points=256, half_width=20.0)
        sigma, shift = 1.0, 3.0
        values = np.exp(-((grid.x_axis() - shift) ** 2) / (2.0 * sigma**2))
        field = GridField(grid, values[None], PHYSICAL)
        spectrum = to_frequency(field)
        k = grid.frequency_axis()
        # Continuum transform sampled on the grid, ortho-DFT scaling.
        expected = (
            sigma
            * np.sqrt(2.0 * np.pi)
            * np.exp(-(sigma**2) * k**2 / 2.0)
            / (np.sqrt(grid.points) * grid.spacing)
        )
        assert_allclose(np.abs(spectrum.values[0]), expected, atol=1e-8)


class TestLpNorm:
    def test_closed_form_gaussian_norms(self):
        grid = PeriodicGrid(dimension=1, points=512, half_width=12.0)
        sigma = 1.0
        amplitudes = (1.0, -0.5)
        data = make_initial_data(grid, 2, InitialSpec(amplitudes=amplitudes, sigma=sigma))
        magnitude = np.hypot(*amplitudes)
        assert lp_norm(data, 1) == pytest.approx(
            magnitude * sigma * np.sqrt(2.0 * np.pi), rel=1e-6
        )
        assert lp_norm(data, 2) == pytest.approx(
            magnitude * (sigma * np.sqrt(np.pi)) ** 0.5, rel=1e-6
        )
        assert lp_norm(data, np.inf) == pytest.approx(magnitude, rel=1e-12)

    @pytest.mark.parametrize("imaginary", [0.0, 1.0])
    def test_l2_equals_the_riemann_sum(self, imaginary):
        grid = PeriodicGrid(dimension=2, points=32, half_width=5.0)
        rng = np.random.default_rng(3)
        shape = (3,) + grid.shape
        values = rng.standard_normal(shape) + imaginary * 1j * rng.standard_normal(shape)
        pointwise = np.sqrt(np.sum(np.abs(values) ** 2, axis=0))
        riemann = np.sum(pointwise**2) * grid.cell_volume
        field = GridField(grid, values, PHYSICAL)
        assert lp_norm(field, 2) == pytest.approx(riemann**0.5, rel=1e-14)

    def test_validation(self):
        grid = PeriodicGrid(dimension=1, points=8, half_width=1.0)
        field = GridField(grid, np.ones((1, 8)), PHYSICAL)
        with pytest.raises(ValueError):
            lp_norm(field, 0.5)


class TestCutoffs:
    def test_smooth_step_plateaus(self):
        s = np.linspace(-1.0, 2.0, 301)
        values = smooth_step(s)
        assert_allclose(values[s <= 0.0], 1.0)
        assert_allclose(values[s >= 1.0], 0.0)
        inside = values[(s > 0.0) & (s < 1.0)]
        assert np.all(np.diff(inside) <= 0.0)
        mid = smooth_step(np.array([0.3, 0.5, 0.7]))
        assert mid[0] > mid[1] > mid[2]
        assert mid[1] == pytest.approx(0.5)

    def test_chi1_plateaus(self):
        cut = CutoffSpec(inner=0.2)
        s = np.linspace(0.0, 25.0, 500)
        assert_allclose(cut.chi1(s[s <= 0.1]), 1.0)
        assert_allclose(cut.chi1(s[s >= 0.2]), 0.0)
        assert np.all(cut.chi1(s) >= 0.0) and np.all(cut.chi1(s) <= 1.0)

    def test_validation(self):
        for inner in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                CutoffSpec(inner=inner)

    def test_default_cutoff_values(self):
        cut = default_cutoff(goldstein_kac_1d())
        assert cut.inner == pytest.approx(0.42044820762685775 / 2.0, rel=1e-12)


class TestEvolveHyperbolic:
    def test_zero_time_is_identity(self):
        grid = PeriodicGrid(dimension=1, points=128, half_width=10.0)
        field = gaussian_field(grid, (1.0, -0.5))
        evolved = evolve_hyperbolic(goldstein_kac_1d(), field, 0.0)
        assert_allclose(evolved.values, field.values, atol=1e-12)

    def test_negative_time_rejected(self):
        grid = PeriodicGrid(dimension=1, points=8, half_width=1.0)
        field = GridField(grid, np.zeros((2, 8)), PHYSICAL)
        with pytest.raises(ValueError):
            evolve_hyperbolic(goldstein_kac_1d(), field, -1.0)

    def test_pure_transport_shifts_cells(self):
        transport = HyperbolicSystem(
            advections=(np.diag([1.0, -1.0]),), relaxation=np.zeros((2, 2))
        )
        grid = PeriodicGrid(dimension=1, points=128, half_width=12.0)
        field = gaussian_field(grid, (1.0, 0.7), sigma=1.5)
        shift = 16
        t = shift * grid.spacing
        evolved = evolve_hyperbolic(transport, field, t)
        assert_allclose(
            evolved.values[0], np.roll(field.values[0], shift), atol=1e-10
        )
        assert_allclose(
            evolved.values[1], np.roll(field.values[1], -shift), atol=1e-10
        )

    def test_zero_frequency_mode_follows_relaxation_flow(self):
        from scipy.linalg import expm

        system = goldstein_kac_1d()
        grid = PeriodicGrid(dimension=1, points=64, half_width=10.0)
        field = gaussian_field(grid, (1.0, -0.4))
        t = 0.8
        evolved = to_frequency(evolve_hyperbolic(system, field, t))
        initial = to_frequency(field)
        assert_allclose(
            evolved.values[:, 0],
            expm(-t * system.relaxation) @ initial.values[:, 0],
            atol=1e-12,
        )

    def test_runge_kutta_oracle_on_random_modes(self):
        system = goldstein_kac_1d()
        grid = PeriodicGrid(dimension=1, points=128, half_width=10.0)
        field = gaussian_field(grid, (1.0, -0.5))
        t = 0.7
        evolved = to_frequency(evolve_hyperbolic(system, field, t))
        initial = to_frequency(field)
        rng = np.random.default_rng(7)
        modes = rng.choice(grid.points, size=16, replace=False)
        vectors = grid.frequency_vectors[modes]
        state = initial.values[:, modes].T.copy()
        symbols = system.symbol(vectors)
        steps = 8000
        dt = t / steps
        for _ in range(steps):
            k1 = -np.einsum("fij,fj->fi", symbols, state)
            k2 = -np.einsum("fij,fj->fi", symbols, state + 0.5 * dt * k1)
            k3 = -np.einsum("fij,fj->fi", symbols, state + 0.5 * dt * k2)
            k4 = -np.einsum("fij,fj->fi", symbols, state + dt * k3)
            state = state + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.max(np.abs(evolved.values[:, modes].T - state)) < 1e-8

    def test_semigroup(self):
        system = damped_euler_2d()
        grid = PeriodicGrid(dimension=2, points=32, half_width=8.0)
        field = gaussian_field(grid, (1.0, 0.3, -0.2))
        once = evolve_hyperbolic(system, field, 1.3)
        twice = evolve_hyperbolic(system, once, 0.9)
        direct = evolve_hyperbolic(system, field, 2.2)
        norm = lp_norm(field, 2)
        difference = np.sqrt(
            grid.cell_volume * np.sum(np.abs(direct.values - twice.values) ** 2)
        )
        assert difference <= 1e-8 * norm

    def test_linearity(self):
        system = goldstein_kac_1d()
        grid = PeriodicGrid(dimension=1, points=64, half_width=10.0)
        f = gaussian_field(grid, (1.0, -0.5))
        g = gaussian_field(grid, (0.3, 0.8), sigma=1.2)
        combined = GridField(grid, 2.0 * f.values - 0.7 * g.values, PHYSICAL)
        lhs = evolve_hyperbolic(system, combined, 1.1).values
        rhs = (
            2.0 * evolve_hyperbolic(system, f, 1.1).values
            - 0.7 * evolve_hyperbolic(system, g, 1.1).values
        )
        assert_allclose(lhs, rhs, atol=1e-12)


class TestFrequencySplitter:
    def test_grid_dimension_must_match(self):
        grid = PeriodicGrid(dimension=2, points=8, half_width=1.0)
        with pytest.raises(ValueError):
            FrequencySplitter(goldstein_kac_1d(), grid)

    def test_split_is_additively_exact(self):
        system = goldstein_kac_1d()
        grid = PeriodicGrid(dimension=1, points=256, half_width=40.0)
        splitter = FrequencySplitter(system, grid)
        field = gaussian_field(grid, (1.0, -0.5))
        u, u1, u2 = (to_physical(f) for f in splitter.decompose(splitter.prepare(field), 3.0))
        assert_allclose(u1.values + u2.values, u.values, atol=1e-14)
        direct = evolve_hyperbolic(system, field, 3.0)
        assert_allclose(u.values, direct.values, atol=1e-12)

    def test_projected_band_data_has_no_remainder(self):
        system = goldstein_kac_1d()
        grid = PeriodicGrid(dimension=1, points=512, half_width=100.0)
        cut = default_cutoff(system)
        spectrum = to_frequency(gaussian_field(grid, (1.0, -0.5)))
        vectors = grid.frequency_vectors
        moduli = np.linalg.norm(vectors, axis=-1)
        flat = np.zeros_like(spectrum.flat())
        for index in np.flatnonzero(cut.chi1(moduli) >= 1.0):
            projection = exact_group_projection(system, vectors[index])
            flat[:, index] = projection @ spectrum.flat()[:, index]
        projected = GridField(grid, flat.reshape(spectrum.values.shape), FREQUENCY)
        splitter = FrequencySplitter(system, grid)
        _, u1, u2 = splitter.decompose(splitter.prepare(projected), 0.0)
        scale = np.max(np.abs(projected.values))
        assert np.max(np.abs(u2.values)) <= 1e-10 * scale
        assert_allclose(u1.values, projected.values, atol=1e-10 * scale)

    def test_high_band_data_has_no_projected_part(self):
        system = goldstein_kac_1d()
        grid = PeriodicGrid(dimension=1, points=256, half_width=40.0)
        cut = default_cutoff(system)
        spectrum = to_frequency(gaussian_field(grid, (1.0, -0.5)))
        moduli = np.linalg.norm(grid.frequency_vectors, axis=-1)
        flat = spectrum.flat().copy()
        flat[:, cut.chi1(moduli) > 0.0] = 0.0
        high = GridField(grid, flat.reshape(spectrum.values.shape), FREQUENCY)
        splitter = FrequencySplitter(system, grid)
        _, u1, _ = splitter.decompose(splitter.prepare(high), 1.0)
        assert np.max(np.abs(u1.values)) == 0.0

    def test_low_part_is_zero_off_the_band(self):
        # Where chi1 = 0, u1 is exactly 0 and u2 is exactly u.
        system = damped_euler_2d()
        grid = PeriodicGrid(dimension=2, points=64, half_width=16.0)
        splitter = FrequencySplitter(system, grid)
        datum = splitter.prepare(white_spectrum(grid, system.size, seed=2))
        u, u1, u2 = (f.flat() for f in splitter.decompose(datum, 1.5))
        moduli = np.linalg.norm(grid.frequency_vectors, axis=-1)
        off = splitter.cut.chi1(moduli) == 0.0
        assert 0 < np.count_nonzero(~off) < off.size
        assert np.all(u1[:, off] == 0.0)
        assert np.array_equal(u2[:, off], u[:, off])



def white_spectrum(grid: PeriodicGrid, components: int, seed: int) -> GridField:
    rng = np.random.default_rng(seed)
    shape = (components,) + grid.shape
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return GridField(grid, values, FREQUENCY)


def relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def rotated_euler() -> HyperbolicSystem:
    """Damped Euler in the plane in a rotated state basis: ``A^j -> Q A^j Q^T``,
    ``B -> Q B Q^T``, ``S -> Q S Q^T`` with a fixed orthogonal ``Q``.  Every
    axis map still lifts, but six of the eight lifts ``T`` have dense rows."""
    base = damped_euler_2d()
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))
    return HyperbolicSystem(
        advections=tuple(q @ a @ q.T for a in base.advections),
        relaxation=q @ base.relaxation @ q.T,
        symmetry=q @ base.symmetry @ q.T,
    )


def contour_low_part(system, splitter, field: GridField, t: float) -> np.ndarray:
    """``chi1(|k|) exp(-t lambda0) P0(ik) u(k)`` with the contour projection
    ``P0``: the independent oracle for the splitter's low part."""
    vectors = field.grid.frequency_vectors
    weights = splitter.cut.chi1(np.linalg.norm(vectors, axis=-1))
    expected = np.zeros_like(field.flat())
    for index in np.flatnonzero(weights > 0.0):
        values = np.linalg.eigvals(system.symbol(vectors[index]))
        zero = values[np.argmin(np.abs(values))]
        projection = exact_group_projection(system, vectors[index])
        expected[:, index] = weights[index] * np.exp(-t * zero) * (
            projection @ field.flat()[:, index]
        )
    return expected


def skew_factorization(monkeypatch, skews: dict) -> None:
    """Make the next factorization scale column 0 of ``V`` at each
    representative in ``skews`` by ``1 + skew`` after ``V^-1`` is taken, so
    the stored ``V`` and ``V^-1`` disagree there."""
    inv = np.linalg.inv

    def skewed(matrices):
        inverse = inv(matrices)
        if np.iscomplexobj(matrices):  # the eigenvector stack; lifts are real
            for representative, skew in skews.items():
                matrices[representative, :, 0] *= 1.0 + skew
        return inverse

    monkeypatch.setattr(np.linalg, "inv", skewed)


class TestEigenPropagator:
    """The factored propagator against the Pade and contour oracles."""

    CASES = {
        "line": (goldstein_kac_1d, PeriodicGrid(dimension=1, points=256, half_width=40.0)),
        "plane": (damped_euler_2d, PeriodicGrid(dimension=2, points=64, half_width=16.0)),
        "plane-rotated": (rotated_euler, PeriodicGrid(dimension=2, points=32, half_width=16.0)),
    }
    # Box half-width 16 pi puts the grid frequency |k| = 1/2, where both
    # demo symbols are defective, on the grid: 2 points on the line, 4 in
    # the plane.
    EXCEPTIONAL = {
        "line": (goldstein_kac_1d, PeriodicGrid(1, 128, 16 * np.pi), 2),
        "plane": (damped_euler_2d, PeriodicGrid(2, 64, 16 * np.pi), 4),
    }

    @pytest.mark.parametrize("case", ["line", "plane", "plane-rotated"])
    def test_decompose_matches_pade(self, case):
        build, grid = self.CASES[case]
        system = build()
        splitter = FrequencySplitter(system, grid)
        field = white_spectrum(grid, system.size, seed=1)
        datum = splitter.prepare(field)
        for t in (0.0, 0.7, 5.0):
            u, u1, u2 = splitter.decompose(datum, t)
            pade = evolve_hyperbolic(system, field, t)
            assert relative_gap(u.values, pade.values) <= 1e-12
            assert_allclose(u1.values + u2.values, u.values, atol=1e-14)
        assert splitter.fallback_count == 0
        assert 1.0 <= splitter.worst_condition <= 100.0

    @pytest.mark.parametrize("case", ["line", "plane"])
    def test_band_table_matches_contour_projections(self, case):
        build, grid = self.CASES[case]
        system = build()
        splitter = FrequencySplitter(system, grid)
        splitter.decompose(splitter.prepare(white_spectrum(grid, system.size, seed=5)), 1.0)
        projections = splitter._eigenbasis.band_projections
        vectors = grid.frequency_vectors
        assert splitter._band.size > 1
        for member, index in enumerate(splitter._band):
            exact = exact_group_projection(system, vectors[index])
            assert_allclose(projections[member], exact, rtol=0, atol=1e-13)

    def test_low_part_is_cutoff_times_contour_projection(self):
        system, grid = goldstein_kac_1d(), self.CASES["line"][1]
        splitter = FrequencySplitter(system, grid)
        field = white_spectrum(grid, system.size, seed=9)
        weights = splitter.cut.chi1(np.linalg.norm(grid.frequency_vectors, axis=-1))
        assert np.any((weights > 0.0) & (weights < 1.0))
        t = 1.5
        _, u1, _ = splitter.decompose(splitter.prepare(field), t)
        assert relative_gap(u1.flat(), contour_low_part(system, splitter, field, t)) <= 1e-12

    def test_fallback_band_members_use_contour_projections(self, monkeypatch):
        # With the limit below every member's condition bound, every member
        # is propagated by the Pade exponential and every band projection is
        # a contour projection.
        monkeypatch.setattr(spectral, "CONDITION_LIMIT", 0.5)
        system, grid = goldstein_kac_1d(), self.CASES["line"][1]
        splitter = FrequencySplitter(system, grid)
        field = white_spectrum(grid, system.size, seed=9)
        t = 1.5
        u, u1, _ = splitter.decompose(splitter.prepare(field), t)
        assert splitter.fallback_count == grid.total_points
        assert relative_gap(u1.flat(), contour_low_part(system, splitter, field, t)) <= 1e-12
        assert relative_gap(u.values, evolve_hyperbolic(system, field, t).values) <= 1e-12

    def test_three_dimensional_decompose_matches_pade(self):
        system = load_system(CONFIGS / "damped_euler_3d.json")
        grid = PeriodicGrid(dimension=3, points=16, half_width=24.0)
        splitter = FrequencySplitter(system, grid)
        field = white_spectrum(grid, system.size, seed=3)
        datum = splitter.prepare(field)
        for t in (0.5, 3.0):
            u, u1, u2 = splitter.decompose(datum, t)
            pade = evolve_hyperbolic(system, field, t)
            assert relative_gap(u.values, pade.values) <= 1e-12
            assert_allclose(u1.values + u2.values, u.values, atol=1e-14)
        assert splitter._band.size > 1
        assert splitter.fallback_count == 0
        # Every signed permutation of the three axes lifts.
        assert splitter._eigenbasis.orbits.rotations.shape[0] == 48

    @pytest.mark.parametrize("case", ["line", "plane"])
    def test_defective_symbols_fall_back_to_pade(self, case):
        build, grid, expected = self.EXCEPTIONAL[case]
        system = build()
        splitter = FrequencySplitter(system, grid)
        assert splitter.fallback_count == expected
        assert splitter.worst_condition > CONDITION_LIMIT
        field = white_spectrum(grid, system.size, seed=2)
        datum = splitter.prepare(field)
        for t in (0.5, 3.0):
            u, _, _ = splitter.decompose(datum, t)
            pade = evolve_hyperbolic(system, field, t)
            assert relative_gap(u.values, pade.values) <= 1e-12

    def test_nyquist_plane_matches_pade(self):
        system = damped_euler_2d()
        grid = PeriodicGrid(dimension=2, points=32, half_width=8.0)
        splitter = FrequencySplitter(system, grid)
        field = white_spectrum(grid, system.size, seed=3)
        mask = np.zeros(grid.shape, dtype=bool)
        mask[grid.points // 2, :] = True
        mask[:, grid.points // 2] = True
        nyquist = GridField(grid, field.values * mask[None], FREQUENCY)
        datum = splitter.prepare(nyquist)
        for t in (0.3, 2.0):
            evolved, _, _ = splitter.decompose(datum, t)
            pade = evolve_hyperbolic(system, nyquist, t)
            assert relative_gap(evolved.values, pade.values) <= 1e-12
            assert np.all(evolved.values[:, ~mask] == 0.0)

    def test_system_without_lifts_matches_pade(self):
        system = random_plane_system(3)
        grid = PeriodicGrid(dimension=2, points=32, half_width=8.0)
        splitter = FrequencySplitter(system, grid, CutoffSpec(inner=0.5))
        field = white_spectrum(grid, system.size, seed=10)
        datum = splitter.prepare(field)
        for t in (0.0, 0.7, 5.0):
            u, u1, u2 = splitter.decompose(datum, t)
            pade = evolve_hyperbolic(system, field, t)
            assert relative_gap(u.values, pade.values) <= 1e-12
            assert_allclose(u1.values + u2.values, u.values, atol=1e-14)
        orbits = splitter._eigenbasis.orbits
        assert orbits.conjugate.tolist() == [False, True]
        assert splitter.fallback_count == 0

    def test_corrupted_factorization_fails_the_audit(self, monkeypatch):
        # The audit composes each member's factors from the stored factors of
        # its representative, so a corrupted representative is caught at the
        # first step; in the plane the last audited member is mapped by a
        # non-identity element.
        for build, grid in self.CASES.values():
            system = build()
            basis = FrequencySplitter(system, grid)._eigenbasis
            representative = basis.orbits.orbit[basis.audit[-1]]
            with monkeypatch.context() as patch:
                skew_factorization(patch, {representative: 1e-6})
                splitter = FrequencySplitter(system, grid)
                datum = splitter.prepare(white_spectrum(grid, system.size, seed=4))
                with pytest.raises(SpectralError, match="Pade"):
                    splitter.decompose(datum, 1.0)

    def test_wrong_lift_fails_the_audit(self, monkeypatch):
        # A consistent but wrong transform pair for one element: T D and
        # D T^-1 with D = diag(1, 1, -1) no longer carries E(ik) to E(iRk).
        import hyprelax.spectral as spectral

        symmetries = spectral._grid_symmetries
        flip = np.diag([1.0, 1.0, -1.0])

        def wrong_last_lift(system, dimension):
            elements = symmetries(system, dimension)
            rotation, transform, conjugate = elements[-1]
            elements[-1] = (rotation, transform @ flip, conjugate)
            return elements

        monkeypatch.setattr(spectral, "_grid_symmetries", wrong_last_lift)
        system, grid = damped_euler_2d(), self.CASES["plane"][1]
        splitter = FrequencySplitter(system, grid)
        datum = splitter.prepare(white_spectrum(grid, system.size, seed=4))
        with pytest.raises(SpectralError, match="Pade"):
            splitter.decompose(datum, 2.0)

    def test_wrong_band_projection_fails_the_audit(self, monkeypatch):
        import hyprelax.spectral as spectral

        def skewed(system, k):
            return exact_group_projection(system, k) * (1.0 + 1e-6)

        monkeypatch.setattr(spectral, "exact_group_projection", skewed)
        system, grid = goldstein_kac_1d(), self.CASES["line"][1]
        splitter = FrequencySplitter(system, grid)
        with pytest.raises(SpectralError, match="contour"):
            splitter.decompose(splitter.prepare(white_spectrum(grid, system.size, seed=6)), 1.0)

    def test_one_factorization_serves_propagator_and_band(self, monkeypatch):
        # Batched eigendecompositions only; the contour audit and the cutoff
        # calibration factor single matrices.
        batches = []
        eig = np.linalg.eig

        def counted(matrices):
            if np.ndim(matrices) == 3:
                batches.append(len(matrices))
            return eig(matrices)

        monkeypatch.setattr(np.linalg, "eig", counted)
        system, grid = goldstein_kac_1d(), self.CASES["line"][1]
        splitter = FrequencySplitter(system, grid)
        assert batches == []
        datum = splitter.prepare(white_spectrum(grid, system.size, seed=7))
        for t in (0.5, 2.0):
            splitter.decompose(datum, t)
        assert batches == [grid.points // 2 + 1]

    @pytest.mark.parametrize("case", ["line", "plane"])
    def test_interleaved_data_match_pade(self, case):
        # Each datum's coefficients serve only that datum and splitter: a
        # narrower cutoff on the same grid needs its own band moment.
        build, grid = self.CASES[case]
        system = build()
        splitter = FrequencySplitter(system, grid)
        narrow = CutoffSpec(inner=0.5 * splitter.cut.inner)
        other = FrequencySplitter(system, grid, narrow)
        reference = FrequencySplitter(system, grid, narrow)
        a, b = (
            (field, splitter.prepare(field), other.prepare(field))
            for field in (white_spectrum(grid, system.size, seed=seed) for seed in (11, 12))
        )
        for t in (0.0, 0.7, 5.0):
            for field, datum, narrow_datum in (a, b, a):
                u, u1, u2 = splitter.decompose(datum, t)
                pade = evolve_hyperbolic(system, field, t)
                assert relative_gap(u.values, pade.values) <= 1e-12
                assert_allclose(u1.values + u2.values, u.values, atol=1e-14)
                narrow_u1 = reference.decompose(reference.prepare(field), t)[1]
                assert np.array_equal(other.decompose(narrow_datum, t)[1].values, narrow_u1.values)

    def test_physical_datum_is_transformed_once(self, monkeypatch):
        import hyprelax.spectral as spectral

        calls = []
        forward = spectral.to_frequency

        def counted(field):
            calls.append(field)
            return forward(field)

        monkeypatch.setattr(spectral, "to_frequency", counted)
        grid = self.CASES["line"][1]
        splitter = FrequencySplitter(goldstein_kac_1d(), grid)
        field = gaussian_field(grid, (1.0, -0.5))
        datum = splitter.prepare(field)
        for t in (0.5, 2.0):
            splitter.decompose(datum, t)
            evolve_parabolic_phi(datum, t)
            evolve_parabolic_psi(datum, t)
        assert calls == [field]

    def test_late_audit_survives_pade_underflow(self, monkeypatch):
        # At t = 780 the unshifted Pade exponential flushes some audited
        # members to 0 although their norm is about 1e-170; the audit shifts
        # by the smallest Re(lambda), and the propagated values stay nonzero.
        system, grid = goldstein_kac_1d(), self.CASES["line"][1]
        splitter = FrequencySplitter(system, grid)
        datum = splitter.prepare(white_spectrum(grid, system.size, seed=16))
        t = 780.0
        basis = splitter._eigenbasis
        symbols = basis.exact_symbols[: basis.audit.size]
        unshifted = np.linalg.norm(matrix_exponential(-t * symbols), axis=(-2, -1))
        flushed = np.flatnonzero(unshifted == 0.0)
        assert flushed.size
        u, _, _ = splitter.decompose(datum, t)
        identity = np.eye(system.size)
        for row in flushed:
            member = basis.audit[row]
            shift = np.min(np.linalg.eigvals(symbols[row]).real)
            shifted = matrix_exponential(-t * (symbols[row] - shift * identity))
            expected = np.exp(-t * shift) * shifted @ datum.spectrum[:, member]
            assert np.all(expected != 0.0)
            assert relative_gap(u.flat()[:, member], expected) <= 1e-10
        representative = basis.orbits.orbit[basis.audit[flushed[0]]]
        skew_factorization(monkeypatch, {representative: 1e-6})
        skewed = FrequencySplitter(system, grid)
        with pytest.raises(SpectralError, match="Pade"):
            skewed.decompose(skewed.prepare(white_spectrum(grid, system.size, seed=16)), t)

    def test_audit_failure_names_the_largest_mismatch(self, monkeypatch):
        # The worst-conditioned member (audited first) is skewed slightly and
        # a later one much more; the error names the later one.
        system, grid = goldstein_kac_1d(), self.CASES["line"][1]
        splitter = FrequencySplitter(system, grid)
        basis = splitter._eigenbasis
        first, later = basis.audit[0], basis.audit[-1]
        assert splitter._moduli[first] != splitter._moduli[later]
        orbit = basis.orbits.orbit
        skew_factorization(monkeypatch, {orbit[first]: 1e-8, orbit[later]: 1e-4})
        splitter = FrequencySplitter(system, grid)
        datum = splitter.prepare(white_spectrum(grid, system.size, seed=17))
        with pytest.raises(SpectralError, match=f"{splitter._moduli[later]:.6g},"):
            splitter.decompose(datum, 1.0)

    def test_band_through_an_exceptional_point_is_refused_at_first_use(self):
        build, grid, _ = self.EXCEPTIONAL["line"]
        system = build()
        splitter = FrequencySplitter(system, grid, CutoffSpec(inner=1.0))
        with pytest.raises(GroupNotSeparatedError):
            splitter.decompose(splitter.prepare(white_spectrum(grid, system.size, seed=8)), 1.0)

    @pytest.mark.parametrize(
        "build, grid, smallest",
        [
            (goldstein_kac_1d, PeriodicGrid(1, 8192, 400.0), "0.502655"),
            (damped_euler_2d, PeriodicGrid(2, 64, 16.0), "0.55536"),
        ],
    )
    def test_band_past_an_exceptional_point_is_refused_at_first_use(self, build, grid, smallest):
        # No grid frequency sits on |k| = 1/2; past it the 0-branch is one of a
        # conjugate pair at distance 0.1 (line) and 0.48 (plane) from the other,
        # but of equal modulus.  The error names the smallest such |k|, so a
        # cutoff shrunk below it is not refused for the same reason.
        system = build()
        splitter = FrequencySplitter(system, grid, CutoffSpec(inner=0.9))
        datum = splitter.prepare(white_spectrum(grid, system.size, seed=8))
        with pytest.raises(GroupNotSeparatedError, match=rf"at \|k\| = {smallest} is below"):
            splitter.decompose(datum, 1.0)

    @pytest.mark.parametrize(
        "build, grid, inner",
        [
            (goldstein_kac_1d, PeriodicGrid(1, 8192, 400.0), 0.23),
            (damped_euler_2d, PeriodicGrid(2, 512, 100.0), 0.35),
            (damped_euler_3d, PeriodicGrid(3, 64, 32.0), 0.35),
        ],
    )
    def test_audit_selection_matches_the_per_element_scan(self, build, grid, inner):
        basis = FrequencySplitter(build(), grid, CutoffSpec(inner=inner))._eigenbasis
        element = basis.orbits.element
        trusted = basis.condition <= CONDITION_LIMIT
        ranked = np.argsort(np.where(trusted, basis.condition, -np.inf), kind="stable")[::-1]
        ranked = ranked[trusted[ranked]]
        # The former selection: one scan of the ranked members per element.
        elements = range(1, basis.orbits.transforms.shape[0])
        mapped = [ranked[element[ranked] == g][:1] for g in elements]
        audit = np.concatenate([ranked[:_AUDIT_MEMBERS], *mapped])
        audit = np.array(list(dict.fromkeys(audit.tolist())), dtype=np.intp)
        assert np.array_equal(basis.audit, audit)


class TestPreparedDatum:
    """A datum owns its spectrum and serves only the splitter that prepared it."""

    GRID = PeriodicGrid(dimension=1, points=64, half_width=10.0)

    @staticmethod
    def caller_values(seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))

    @staticmethod
    def results(splitter: FrequencySplitter, datum) -> list[np.ndarray]:
        t = 1.5
        fields = [*splitter.decompose(datum, t)]
        fields += [evolve_parabolic_phi(datum, t), evolve_parabolic_psi(datum, t)]
        return [field.values for field in fields]

    @pytest.mark.parametrize("representation", [PHYSICAL, FREQUENCY])
    def test_caller_array_stays_writeable(self, representation):
        values = self.caller_values(19)
        field = GridField(self.GRID, values, representation)
        assert field.values is values
        splitter = FrequencySplitter(goldstein_kac_1d(), self.GRID)
        datum = splitter.prepare(field)
        self.results(splitter, datum)
        assert values.flags.writeable
        assert not datum.spectrum.flags.writeable

    @pytest.mark.parametrize("representation", [PHYSICAL, FREQUENCY])
    def test_editing_the_caller_array_changes_no_result(self, representation):
        values = self.caller_values(20)
        splitter = FrequencySplitter(goldstein_kac_1d(), self.GRID)
        datum = splitter.prepare(GridField(self.GRID, values, representation))
        untouched = splitter.prepare(GridField(self.GRID, values.copy(), representation))
        values *= 2.0
        values[0, 0] = 5.0
        for got, expected in zip(self.results(splitter, datum), self.results(splitter, untouched)):
            assert np.array_equal(got, expected)

    def test_datum_of_another_splitter_is_refused(self):
        system = goldstein_kac_1d()
        first = FrequencySplitter(system, self.GRID)
        second = FrequencySplitter(system, self.GRID)
        datum = first.prepare(white_spectrum(self.GRID, system.size, seed=21))
        with pytest.raises(ValueError, match="another splitter"):
            second.decompose(datum, 1.0)
        first.decompose(datum, 1.0)


def random_plane_system(seed: int) -> HyperbolicSystem:
    """Seeded symmetric 2-D system with n = 3 and a one-dimensional kernel of
    ``B``; no axis reflection or swap lifts to it."""
    rng = np.random.default_rng(seed)
    advections = []
    for _ in range(2):
        m = rng.standard_normal((3, 3))
        advections.append(0.5 * (m + m.T))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return HyperbolicSystem(
        advections=tuple(advections), relaxation=q @ np.diag([0.0, 1.0, 2.0]) @ q.T
    )


class TestOrbitMap:
    """The orbit map against the grid and the system it is built from."""

    CASES = {
        "line": (goldstein_kac_1d, PeriodicGrid(1, 256, 40.0)),
        "line-unlifted": (lambda: drifting_two_speed(), PeriodicGrid(1, 64, 10.0)),
        "plane": (damped_euler_2d, PeriodicGrid(2, 64, 16.0)),
        "plane-unlifted": (lambda: random_plane_system(3), PeriodicGrid(2, 16, 4.0)),
        "plane-rotated": (rotated_euler, PeriodicGrid(2, 32, 16.0)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_member_is_covered_once(self, case):
        build, grid = self.CASES[case]
        system = build()
        orbits = _grid_orbits(system, grid)
        count = orbits.representatives.size
        assert np.array_equal(orbits.rotations[0], np.eye(grid.dimension))
        assert np.array_equal(orbits.orbit[orbits.representatives], np.arange(count))
        assert np.all(orbits.element[orbits.representatives] == 0)
        pairs = orbits.element * count + orbits.orbit
        assert np.unique(pairs).size == grid.total_points
        assert orbits.slot.shape == (system.size, grid.total_points)
        assert np.unique(orbits.slot).size == orbits.slot.size
        flat = white_spectrum(grid, system.size, seed=15).flat()
        back = orbits.to_grid(orbits.to_orbit_order(flat))
        assert np.max(np.abs(back - flat)) <= 1e-15 * np.max(np.abs(flat))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_members_are_images_of_their_representatives(self, case):
        # Equality with the member's own frequency also shows that the image
        # of the representative is a grid frequency.
        build, grid = self.CASES[case]
        orbits = _grid_orbits(build(), grid)
        vectors = grid.frequency_vectors
        representatives = orbits.representatives[orbits.orbit]
        images = np.einsum(
            "fij,fj->fi", orbits.rotations[orbits.element], vectors[representatives]
        )
        assert np.array_equal(images, vectors)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_lifted_transforms_commute(self, case):
        # E(iRk) = T E(ik)^(c) T^-1 needs T B = B T and, since conjugation
        # maps k to -k, T A^j = (-1)^c sum_i R_ij A^i T.
        build, grid = self.CASES[case]
        system = build()
        orbits = _grid_orbits(system, grid)
        advections = np.stack(system.advections)
        b = system.relaxation
        for rotation, transform, inverse, conjugate in zip(
            orbits.rotations, orbits.transforms, orbits.inverses, orbits.conjugate
        ):
            sign = -1.0 if conjugate else 1.0
            images = sign * np.einsum("ij,ikl->jkl", rotation, advections)
            assert np.max(np.abs(transform @ b - b @ transform)) <= 1e-12
            assert np.max(np.abs(transform @ advections - images @ transform)) <= 1e-12
            assert np.max(np.abs(transform @ inverse - np.eye(system.size))) <= 1e-12

    def test_three_dimensional_lifts_are_exact_signed_permutations(self):
        orbits = _grid_orbits(damped_euler_3d(), PeriodicGrid(3, 8, 4.0))
        assert orbits.transforms.shape[0] == 48
        for matrices in (orbits.transforms, orbits.inverses):
            nonzero = matrices != 0
            assert np.all(nonzero.sum(axis=-1) == 1)
            assert np.all(np.abs(matrices[nonzero]) == 1.0)
        assert np.array_equal(orbits.inverses, orbits.transforms.transpose(0, 2, 1))

    def test_representative_counts(self):
        for case in ("line", "line-unlifted"):
            build, grid = self.CASES[case]
            orbits = _grid_orbits(build(), grid)
            assert orbits.rotations.shape[0] == 2
            assert orbits.representatives.size == grid.points // 2 + 1
        for points in (64, 512):
            grid = PeriodicGrid(2, points, 100.0)
            orbits = _grid_orbits(damped_euler_2d(), grid)
            assert orbits.rotations.shape[0] == 8
            assert orbits.representatives.size <= points**2 // 8 + 4 * points
        build, grid = self.CASES["plane-unlifted"]
        orbits = _grid_orbits(build(), grid)
        assert orbits.conjugate.tolist() == [False, True]
        assert np.array_equal(orbits.rotations[1], -np.eye(2))
        assert orbits.representatives.size == grid.points**2 // 2 + grid.points


def drifting_two_speed() -> HyperbolicSystem:
    return HyperbolicSystem(
        advections=(np.diag([2.0, 0.0]),),
        relaxation=0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]]),
    )


def direct_profiles(limit, spectrum: GridField, t: float):
    """Both profile spectra from scratch: the oracle for the cached moments."""
    grid = spectrum.grid
    axes = np.meshgrid(*([grid.frequency_axis()] * grid.dimension), indexing="ij")
    vectors = np.stack([axis.reshape(-1) for axis in axes], axis=-1)
    flat = spectrum.flat()
    form = limit.diffusion_form(vectors)
    phi = (limit.projection @ flat) * np.exp(-t * (limit.drift_phase(vectors) + form))
    moment = limit.projection @ flat
    for h, correction in enumerate(limit.corrections):
        moment = moment + 1j * vectors[:, h][None, :] * (correction @ flat)
    return phi, moment * np.exp(-t * form)


def profile_splitter(system: HyperbolicSystem, grid: PeriodicGrid) -> FrequencySplitter:
    # The profiles do not depend on the cutoff; a fixed one skips calibrating it.
    return FrequencySplitter(system, grid, CutoffSpec(inner=0.2))


def physical_profile(profile, system: HyperbolicSystem, field: GridField, t: float):
    """``profile`` of a physical field, transformed back to physical space."""
    splitter = profile_splitter(system, field.grid)
    return to_physical(profile(splitter.prepare(field), t))


class TestParabolicProfiles:
    def test_heat_kernel_closed_form(self):
        grid = PeriodicGrid(dimension=2, points=128, half_width=20.0)
        amplitudes = (0.8, 0.3, -0.2)
        field = gaussian_field(grid, amplitudes)
        t = 2.0
        evolved = physical_profile(evolve_parabolic_phi, damped_euler_2d(), field, t)
        spread = 1.0 + 2.0 * t
        expected = (
            amplitudes[0] / spread * np.exp(-grid.radius_squared() / (2.0 * spread))
        )
        assert_allclose(evolved.values[0].real, expected, atol=1e-8)
        assert np.max(np.abs(evolved.values[1:])) < 1e-10

    def test_drift_translates_profile(self):
        relaxation = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        drifting = HyperbolicSystem(
            advections=(np.diag([2.0, 0.0]),), relaxation=relaxation
        )
        centered = HyperbolicSystem(
            advections=(np.diag([1.0, -1.0]),), relaxation=relaxation
        )
        moving = compute_parabolic_limit(drifting)
        still = compute_parabolic_limit(centered)
        assert moving.drift[0] == pytest.approx(1.0, abs=1e-12)
        assert moving.diffusion[0, 0] == pytest.approx(still.diffusion[0, 0], abs=1e-12)
        grid = PeriodicGrid(dimension=1, points=256, half_width=40.0)
        field = gaussian_field(grid, (1.0, -0.5))
        shift = 10
        t = shift * grid.spacing
        with_drift = physical_profile(evolve_parabolic_phi, drifting, field, t)
        without = physical_profile(evolve_parabolic_phi, centered, field, t)
        assert_allclose(
            with_drift.values, np.roll(without.values, shift, axis=1), atol=1e-10
        )

    def test_refined_profile_matches_moment_closed_form(self):
        grid = PeriodicGrid(dimension=2, points=128, half_width=20.0)
        a0, a1, a2 = 0.8, 0.3, -0.2
        field = gaussian_field(grid, (a0, a1, a2))
        t = 2.0
        evolved = physical_profile(evolve_parabolic_psi, damped_euler_2d(), field, t)
        s2 = 1.0 + 2.0 * t
        x = grid.x_axis()
        x1 = x[:, None]
        x2 = x[None, :]
        heat = np.exp(-grid.radius_squared() / (2.0 * s2))
        # Component 0 carries the heat evolution of rho0 - d1 v1 - d2 v2;
        # components 1, 2 carry minus the gradient of the evolved rho0.
        expected0 = (a0 / s2 + (a1 * x1 + a2 * x2) / s2**2) * heat
        assert_allclose(evolved.values[0].real, expected0, atol=1e-8)
        assert_allclose(
            evolved.values[1].real, a0 * x1 / s2**2 * heat, atol=1e-8
        )
        assert_allclose(
            evolved.values[2].real, a0 * x2 / s2**2 * heat, atol=1e-8
        )

    def test_mean_mode_is_projected_not_damped(self):
        system = goldstein_kac_1d()
        grid = PeriodicGrid(dimension=1, points=64, half_width=10.0)
        field = gaussian_field(grid, (1.0, -0.4))
        spectrum = to_frequency(field)
        splitter = profile_splitter(system, grid)
        datum = splitter.prepare(field)
        for profile in (evolve_parabolic_phi, evolve_parabolic_psi):
            out = profile(datum, 5.0)
            assert_allclose(
                out.values[:, 0],
                splitter.limit.projection @ spectrum.values[:, 0],
                atol=1e-12,
            )

    @pytest.mark.parametrize("case", ["line", "plane"])
    def test_cached_profiles_match_direct_formula(self, case):
        system, grid = {
            "line": (drifting_two_speed(), PeriodicGrid(1, 256, 40.0)),
            "plane": (damped_euler_2d(), PeriodicGrid(2, 64, 16.0)),
        }[case]
        limit = compute_parabolic_limit(system)
        splitter = profile_splitter(system, grid)
        physical = gaussian_field(grid, tuple(np.linspace(1.0, -0.5, system.size)))
        spectrum = to_frequency(physical)
        data = (splitter.prepare(spectrum), splitter.prepare(physical))
        for t in (0.0, 0.5, 2.0, 7.0):
            phi, psi = direct_profiles(limit, spectrum, t)
            for datum in data:
                for profile, expected in (
                    (evolve_parabolic_phi, phi),
                    (evolve_parabolic_psi, psi),
                ):
                    out = profile(datum, t)
                    assert out.representation == FREQUENCY
                    assert relative_gap(out.flat(), expected) <= 1e-14

    def test_frequency_vectors_are_built_once_per_grid(self, monkeypatch):
        system = damped_euler_2d()
        built = []
        meshgrid = np.meshgrid

        def counted(*axes, **options):
            built.append(len(axes))
            return meshgrid(*axes, **options)

        monkeypatch.setattr(np, "meshgrid", counted)
        grid = PeriodicGrid(dimension=2, points=32, half_width=8.0)
        splitter = FrequencySplitter(system, grid, CutoffSpec(inner=0.35))
        datum = splitter.prepare(white_spectrum(grid, system.size, seed=14))
        for t in (0.5, 2.0):
            splitter.decompose(datum, t)
            evolve_parabolic_phi(datum, t)
            evolve_parabolic_psi(datum, t)
        assert built == [2]
        assert grid.frequency_vectors is grid.frequency_vectors
        assert not grid.frequency_vectors.flags.writeable

    def test_dimension_mismatch_and_negative_time(self):
        splitter = profile_splitter(goldstein_kac_1d(), PeriodicGrid(1, 8, 1.0))
        for grid in (PeriodicGrid(2, 8, 1.0), PeriodicGrid(1, 16, 1.0)):
            field = GridField(grid, np.zeros((2,) + grid.shape), PHYSICAL)
            with pytest.raises(ValueError, match="splitter"):
                splitter.prepare(field)
        datum = splitter.prepare(GridField(splitter.grid, np.zeros((2, 8)), PHYSICAL))
        for evolve in (evolve_parabolic_phi, evolve_parabolic_psi, splitter.decompose):
            with pytest.raises(ValueError, match="nonnegative"):
                evolve(datum, -0.5)


class TestInitialData:
    def test_bump_support_and_peak(self):
        grid = PeriodicGrid(dimension=1, points=256, half_width=10.0)
        data = make_initial_data(
            grid, 1, InitialSpec(kind="bump", amplitudes=(2.0,), radius=3.0)
        )
        values = data.values[0].real
        x = grid.x_axis()
        assert np.all(values[np.abs(x) >= 3.0] == 0.0)
        assert values[np.argmin(np.abs(x))] == pytest.approx(2.0)

    def test_random_band_is_annulus_confined(self):
        grid = PeriodicGrid(dimension=2, points=32, half_width=8.0)
        data = make_initial_data(
            grid, 2, InitialSpec(kind="random-band", seed=3, band=(0.5, 1.5))
        )
        spectrum = to_frequency(data)
        moduli = np.linalg.norm(grid.frequency_vectors, axis=-1)
        outside = (moduli < 0.5) | (moduli > 1.5)
        flat = spectrum.flat()
        scale = np.max(np.abs(flat))
        assert np.max(np.abs(flat[:, outside])) < 1e-12 * scale

    def test_deterministic_in_seed(self):
        grid = PeriodicGrid(dimension=1, points=64, half_width=5.0)
        a = make_initial_data(grid, 2, InitialSpec(kind="random-band", seed=5))
        b = make_initial_data(grid, 2, InitialSpec(kind="random-band", seed=5))
        c = make_initial_data(grid, 2, InitialSpec(kind="random-band", seed=6))
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_support_guards(self):
        grid = PeriodicGrid(dimension=1, points=64, half_width=5.0)
        with pytest.raises(SupportTooWideError):
            make_initial_data(grid, 1, InitialSpec(sigma=2.0))
        with pytest.raises(SupportTooWideError):
            make_initial_data(grid, 1, InitialSpec(kind="bump", radius=5.0))

    def test_validation(self):
        grid = PeriodicGrid(dimension=1, points=64, half_width=5.0)
        with pytest.raises(ValueError):
            make_initial_data(grid, 0, InitialSpec())
        with pytest.raises(ValueError):
            make_initial_data(grid, 1, InitialSpec(kind="plane-wave"))
        with pytest.raises(ValueError):
            make_initial_data(grid, 2, InitialSpec(amplitudes=(1.0,)))
        with pytest.raises(ValueError):
            make_initial_data(grid, 1, InitialSpec(kind="random-band", band=(1.5, 0.5)))


class TestSnapshots:
    @pytest.mark.parametrize("representation", [PHYSICAL, FREQUENCY])
    def test_round_trip(self, tmp_path, representation):
        grid = PeriodicGrid(dimension=2, points=16, half_width=3.0)
        rng = np.random.default_rng(2)
        values = rng.normal(size=(3, 16, 16)) + 1j * rng.normal(size=(3, 16, 16))
        field = GridField(grid, values, representation)
        path = tmp_path / "snapshot.bin"
        save_field(field, path, time=4.25)
        loaded, time = load_field(path)
        assert time == 4.25
        assert loaded.representation == representation
        assert loaded.grid == grid
        assert np.array_equal(loaded.values, field.values)

    def test_truncated_payload_rejected(self, tmp_path):
        grid = PeriodicGrid(dimension=1, points=8, half_width=1.0)
        field = GridField(grid, np.ones((1, 8)), PHYSICAL)
        path = tmp_path / "snapshot.bin"
        save_field(field, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ValueError):
            load_field(path)

    def test_unknown_representation_tag_rejected(self, tmp_path):
        grid = PeriodicGrid(dimension=1, points=8, half_width=1.0)
        path = tmp_path / "snapshot.bin"
        save_field(GridField(grid, np.ones((1, 8)), FREQUENCY), path)
        raw = bytearray(path.read_bytes())
        # The tag is the int32 after dimension, points, half_width, components.
        struct.pack_into("<i", raw, 20, 2)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="tag 2"):
            load_field(path)

    def test_header_too_short_rejected(self, tmp_path):
        path = tmp_path / "snapshot.bin"
        path.write_bytes(b"abc")
        with pytest.raises(ValueError):
            load_field(path)
