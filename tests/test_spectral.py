import dataclasses
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
    lp_norm,
    make_initial_data,
    smooth_step,
    to_frequency,
    to_physical,
)
from hyprelax.systems import damped_euler_2d, damped_euler_3d, goldstein_kac_1d

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def frequency_vectors(grid: PeriodicGrid) -> np.ndarray:
    """Every frequency vector of ``grid`` as a flat ``(N^d, d)`` table, C-ordered.

    The engine builds no such table: it takes ``k`` of listed members from
    their flat indices and whole-grid functions of ``k`` from the per-axis
    frequencies.  This is the oracle for both.
    """
    axes = np.meshgrid(*([grid.frequency_axis()] * grid.dimension), indexing="ij")
    return np.stack([axis.reshape(-1) for axis in axes], axis=-1)


def evolve_hyperbolic(system: HyperbolicSystem, field: GridField, t: float) -> GridField:
    """Pade-13 ``exp(-E(ik) t)`` at every frequency, in the field's representation.

    The independent reference for :class:`FrequencySplitter`, which factors
    each symbol once and exponentiates its eigenvalues instead.
    """
    if t < 0:
        raise ValueError(f"evolution time must be nonnegative, got {t}")
    spectrum = field if field.representation == FREQUENCY else to_frequency(field)
    symbols = system.symbol(frequency_vectors(field.grid))
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
        vectors = frequency_vectors(grid)
        assert vectors.shape == (64, 2)
        axis = grid.frequency_axis()
        assert_allclose(vectors[:8, 0], axis[0])
        assert_allclose(vectors[:8, 1], axis)
        assert_allclose(vectors[8, 0], axis[1])
        assert np.array_equal(grid.frequencies(np.arange(64)), vectors)
        assert np.array_equal(grid.frequencies(9), vectors[9])

    @pytest.mark.parametrize("dimension, points", [(1, 64), (2, 16), (3, 8)])
    def test_per_axis_frequencies_match_the_vector_table(self, dimension, points):
        # Bit for bit: |k|, and k of listed members, against the table.
        grid = PeriodicGrid(dimension, points, half_width=3.0)
        vectors = frequency_vectors(grid)
        assert np.array_equal(grid.moduli(), np.linalg.norm(vectors, axis=-1))
        members = np.random.default_rng(dimension).integers(0, grid.total_points, size=40)
        assert np.array_equal(grid.frequencies(members), vectors[members])
        axes = grid.axis_frequencies()
        for h, axis in enumerate(axes):
            along = np.broadcast_to(axis, grid.shape).reshape(-1)
            assert np.array_equal(along, vectors[:, h])

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

    @pytest.mark.parametrize("dimension, points", [(1, 64), (2, 32), (3, 8)])
    def test_inverse_transform_in_place_is_bitwise_the_allocating_one(self, dimension, points):
        grid = PeriodicGrid(dimension=dimension, points=points, half_width=8.0)
        rng = np.random.default_rng(dimension)
        shape = (3, *grid.shape)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        spectrum = GridField(grid, values, FREQUENCY)
        expected = to_physical(spectrum)
        inverse = to_physical(spectrum, out=spectrum.values)
        assert inverse.representation == PHYSICAL
        assert inverse.values is spectrum.values
        assert np.array_equal(inverse.values, expected.values)

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
        vectors = frequency_vectors(grid)[modes]
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
        u, u1, u2 = (to_physical(f) for f in split_fields(splitter, splitter.prepare(field), 3.0))
        assert_allclose(u1.values + u2.values, u.values, atol=1e-14)
        direct = evolve_hyperbolic(system, field, 3.0)
        assert_allclose(u.values, direct.values, atol=1e-12)

    def test_projected_band_data_has_no_remainder(self):
        system = goldstein_kac_1d()
        grid = PeriodicGrid(dimension=1, points=512, half_width=100.0)
        cut = default_cutoff(system)
        spectrum = to_frequency(gaussian_field(grid, (1.0, -0.5)))
        vectors = frequency_vectors(grid)
        moduli = np.linalg.norm(vectors, axis=-1)
        flat = np.zeros_like(spectrum.flat())
        for index in np.flatnonzero(cut.chi1(moduli) >= 1.0):
            projection = exact_group_projection(system, vectors[index])
            flat[:, index] = projection @ spectrum.flat()[:, index]
        projected = GridField(grid, flat.reshape(spectrum.values.shape), FREQUENCY)
        splitter = FrequencySplitter(system, grid)
        _, u1, u2 = split_fields(splitter, splitter.prepare(projected), 0.0)
        scale = np.max(np.abs(projected.values))
        assert np.max(np.abs(u2.values)) <= 1e-10 * scale
        assert_allclose(u1.values, projected.values, atol=1e-10 * scale)

    def test_high_band_data_has_no_projected_part(self):
        system = goldstein_kac_1d()
        grid = PeriodicGrid(dimension=1, points=256, half_width=40.0)
        cut = default_cutoff(system)
        spectrum = to_frequency(gaussian_field(grid, (1.0, -0.5)))
        moduli = np.linalg.norm(frequency_vectors(grid), axis=-1)
        flat = spectrum.flat().copy()
        flat[:, cut.chi1(moduli) > 0.0] = 0.0
        high = GridField(grid, flat.reshape(spectrum.values.shape), FREQUENCY)
        splitter = FrequencySplitter(system, grid)
        _, u1, _ = split_fields(splitter, splitter.prepare(high), 1.0)
        assert np.max(np.abs(u1.values)) == 0.0

    def test_low_part_is_zero_off_the_band(self):
        # Where chi1 = 0, u1 is exactly 0 and u2 is exactly u.
        system = damped_euler_2d()
        grid = PeriodicGrid(dimension=2, points=64, half_width=16.0)
        splitter = FrequencySplitter(system, grid)
        datum = splitter.prepare(white_spectrum(grid, system.size, seed=2))
        u, u1, u2 = (f.flat() for f in split_fields(splitter, datum, 1.5))
        moduli = np.linalg.norm(frequency_vectors(grid), axis=-1)
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


def split_fields(splitter: FrequencySplitter, datum, t: float) -> list[GridField]:
    """:meth:`~FrequencySplitter.decompose`'s ``u``, ``u1`` and ``u2`` as frequency
    fields: ``u1``'s band rows on a zero grid and ``u2 = u - u1``.  The norm
    :meth:`~FrequencySplitter.remainder_norm` gives must be that ``u2``'s,
    summed the same way, and leave ``u`` as it was."""
    u, rows = splitter.decompose(datum, t)
    before = u.values.copy()
    high = splitter.remainder_norm(u, rows)
    assert np.array_equal(u.values, before)
    low = np.zeros_like(u.flat())
    low[:, splitter.band] = rows
    fields = [u] + [
        GridField(splitter.grid, flat.reshape(u.values.shape), FREQUENCY)
        for flat in (low, u.flat() - low)
    ]
    assert high == lp_norm(fields[2], 2)
    return fields


def member_condition(basis, members: np.ndarray) -> np.ndarray:
    """The condition bound ``cond_2(T_g) |V|_F |V^-1|_F`` of each of ``members``."""
    g, r = basis.orbits.locate(members)
    return basis.lift_condition[g] * basis.orbit_condition[r]


def orbit_of(orbits, member: int) -> int:
    """The orbit of one grid member."""
    return int(orbits.locate(np.array([member]))[1][0])


def orbit_order(orbits, flat: np.ndarray) -> np.ndarray:
    """``w[g, :, r] = (T_g^-1 u(R_g k_r))^(c_g)`` of a flat ``(components, N^d)``
    array, 0 where ``g`` maps no member: the whole grid in the orbit-order
    layout, by one scatter and dense ``T_g^-1`` products.  The oracle of the
    engine's per-element blocks."""
    element, orbit = orbits.locate(np.arange(flat.shape[1]))
    layout = (orbits.transforms.shape[0], flat.shape[0], orbits.representatives.size)
    slots = np.zeros(layout, dtype=complex)
    slots[element, :, orbit] = flat.T
    slots = np.einsum("gij,gjr->gir", orbits.inverses, slots)
    return np.where(orbits.conjugate[:, None, None], slots.conj(), slots)


def grid_order(orbits, slots: np.ndarray) -> np.ndarray:
    """Inverse of :func:`orbit_order`: ``u(R_g k_r) = T_g w[g, :, r]^(c_g)``."""
    slots = np.where(orbits.conjugate[:, None, None], slots.conj(), slots)
    slots = np.einsum("gij,gjr->gir", orbits.transforms, slots)
    element, orbit = orbits.locate(np.arange(sum(m.size for m in orbits.members)))
    return slots[element, :, orbit].T


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
    vectors = frequency_vectors(field.grid)
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
            u, u1, u2 = split_fields(splitter, datum, t)
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
        vectors = frequency_vectors(grid)
        assert splitter.band.size > 1
        for member, index in enumerate(splitter.band):
            exact = exact_group_projection(system, vectors[index])
            assert_allclose(projections[member], exact, rtol=0, atol=1e-13)

    def test_low_part_is_cutoff_times_contour_projection(self):
        system, grid = goldstein_kac_1d(), self.CASES["line"][1]
        splitter = FrequencySplitter(system, grid)
        field = white_spectrum(grid, system.size, seed=9)
        weights = splitter.cut.chi1(np.linalg.norm(frequency_vectors(grid), axis=-1))
        assert np.any((weights > 0.0) & (weights < 1.0))
        t = 1.5
        _, u1, _ = split_fields(splitter, splitter.prepare(field), t)
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
        u, u1, _ = split_fields(splitter, splitter.prepare(field), t)
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
            u, u1, u2 = split_fields(splitter, datum, t)
            pade = evolve_hyperbolic(system, field, t)
            assert relative_gap(u.values, pade.values) <= 1e-12
            assert_allclose(u1.values + u2.values, u.values, atol=1e-14)
        assert splitter.band.size > 1
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
            u, _, _ = split_fields(splitter, datum, t)
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
            evolved, _, _ = split_fields(splitter, datum, t)
            pade = evolve_hyperbolic(system, nyquist, t)
            assert relative_gap(evolved.values, pade.values) <= 1e-12
            assert np.all(evolved.values[:, ~mask] == 0.0)

    def test_system_without_lifts_matches_pade(self):
        # No lift of k -> -k either, so the complex symbols are factored.
        system = random_plane_system(3)
        assert system.real_form is None
        grid = PeriodicGrid(dimension=2, points=32, half_width=8.0)
        splitter = FrequencySplitter(system, grid, CutoffSpec(inner=0.5))
        field = white_spectrum(grid, system.size, seed=10)
        datum = splitter.prepare(field)
        for t in (0.0, 0.7, 5.0):
            u, u1, u2 = split_fields(splitter, datum, t)
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
            representative = orbit_of(basis.orbits, basis.audit[-1])
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
                u, u1, u2 = split_fields(splitter, datum, t)
                pade = evolve_hyperbolic(system, field, t)
                assert relative_gap(u.values, pade.values) <= 1e-12
                assert_allclose(u1.values + u2.values, u.values, atol=1e-14)
                narrow_u1 = reference.decompose(reference.prepare(field), t)[1]
                assert np.array_equal(other.decompose(narrow_datum, t)[1], narrow_u1)

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
        u, _, _ = split_fields(splitter, datum, t)
        identity = np.eye(system.size)
        for row in flushed:
            member = basis.audit[row]
            shift = np.min(np.linalg.eigvals(symbols[row]).real)
            shifted = matrix_exponential(-t * (symbols[row] - shift * identity))
            expected = np.exp(-t * shift) * shifted @ datum.spectrum[:, member]
            assert np.all(expected != 0.0)
            assert relative_gap(u.flat()[:, member], expected) <= 1e-10
        representative = orbit_of(basis.orbits, basis.audit[flushed[0]])
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
        assert splitter._moduli(first) != splitter._moduli(later)
        orbits = basis.orbits
        skews = {orbit_of(orbits, first): 1e-8, orbit_of(orbits, later): 1e-4}
        skew_factorization(monkeypatch, skews)
        splitter = FrequencySplitter(system, grid)
        datum = splitter.prepare(white_spectrum(grid, system.size, seed=17))
        with pytest.raises(SpectralError, match=f"{splitter._moduli(later):.6g},"):
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
            (damped_euler_3d, PeriodicGrid(3, 16, 24.0), 0.35),
            (goldstein_kac_1d, PeriodicGrid(1, 128, 16 * np.pi), 0.35),
            (damped_euler_2d, PeriodicGrid(2, 64, 16 * np.pi), 0.35),
        ],
    )
    def test_audit_selection_matches_the_per_element_scan(self, build, grid, inner):
        # The bundled systems (their builders) and two grids through the
        # exceptional point |k| = 1/2, where members fall back.  The selection
        # ranks each element's few worst members; the oracle sorts every
        # member's bound (stable, so ties go to the larger index) and scans
        # the ranking once per element.
        basis = FrequencySplitter(build(), grid, CutoffSpec(inner=inner))._eigenbasis
        members = np.arange(grid.total_points)
        condition = member_condition(basis, members)
        element, _ = basis.orbits.locate(members)
        trusted = condition <= CONDITION_LIMIT
        ranked = np.argsort(np.where(trusted, condition, -np.inf), kind="stable")[::-1]
        ranked = ranked[trusted[ranked]]
        elements = range(1, basis.orbits.transforms.shape[0])
        mapped = [ranked[element[ranked] == g][:1] for g in elements]
        audit = np.concatenate([ranked[:_AUDIT_MEMBERS], *mapped])
        audit = np.array(list(dict.fromkeys(audit.tolist())), dtype=np.intp)
        assert np.array_equal(basis.audit, audit)
        assert np.array_equal(basis.fallback, np.flatnonzero(~trusted))
        assert (basis.fallback.size > 0) == (grid.half_width == 16 * np.pi)
        assert basis.worst_condition == np.max(condition)


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
        fields = split_fields(splitter, datum, t)
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
        assert np.array_equal(orbits.members[0], orbits.representatives)
        assert np.array_equal(orbits.columns[0], np.arange(count))
        listed = np.concatenate(orbits.members)
        assert np.array_equal(np.sort(listed), np.arange(grid.total_points))
        for members, columns in zip(orbits.members, orbits.columns):
            assert members.dtype == columns.dtype == np.int32
            assert np.all(np.diff(members) > 0)
            assert np.unique(columns).size == columns.size
        element, orbit = orbits.locate(np.arange(grid.total_points))
        assert np.array_equal(orbit, orbits.orbit_map())
        assert np.unique(element * count + orbit).size == grid.total_points
        flat = white_spectrum(grid, system.size, seed=15).flat()
        back = grid_order(orbits, orbit_order(orbits, flat))
        assert np.max(np.abs(back - flat)) <= 1e-15 * np.max(np.abs(flat))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_members_are_images_of_their_representatives(self, case):
        # Equality with the member's own frequency also shows that the image
        # of the representative is a grid frequency.
        build, grid = self.CASES[case]
        orbits = _grid_orbits(build(), grid)
        vectors = frequency_vectors(grid)
        element, orbit = orbits.locate(np.arange(grid.total_points))
        representatives = orbits.representatives[orbit]
        images = np.einsum("fij,fj->fi", orbits.rotations[element], vectors[representatives])
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

    def test_member_lists_must_fit_int32(self):
        # 2048^3 points: refused before any member-wide array is allocated.
        with pytest.raises(SpectralError, match="int32"):
            _grid_orbits(damped_euler_3d(), PeriodicGrid(3, 2048, 100.0))

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


def grid_norms(splitter: FrequencySplitter, datum, t: float):
    """``|u|_2``, ``|u2|_2`` and ``|u1 - P|_2`` from the grid fields of
    :meth:`~FrequencySplitter.decompose` and the profiles: the oracle of
    :meth:`~FrequencySplitter.l2_norms`."""
    full, low, high = split_fields(splitter, datum, t)
    gaps = {}
    for name, evolve in (("phi", evolve_parabolic_phi), ("psi", evolve_parabolic_psi)):
        gap = GridField(splitter.grid, low.values - evolve(datum, t).values, FREQUENCY)
        gaps[name] = lp_norm(gap, 2)
    return lp_norm(full, 2), lp_norm(high, 2), gaps


def reachable_arrays(*owners) -> list[np.ndarray]:
    """Every array the owners hold, through their attributes, dataclasses,
    tuples, lists and dicts; the grid, the system, the cutoff and the datum's
    splitter are not followed."""
    arrays, seen, pending = [], set(), list(owners)
    while pending:
        item = pending.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            arrays.append(item)
        elif isinstance(item, (tuple, list)):
            pending.extend(item)
        elif isinstance(item, dict):
            pending.extend(item.values())
        elif isinstance(item, FrequencySplitter) or dataclasses.is_dataclass(item):
            skipped = ("grid", "system", "cut", "splitter")
            pending.extend(value for key, value in vars(item).items() if key not in skipped)
    return arrays


class TestFormNorms:
    """The per-datum form against the grid fields, at every time of a run."""

    CASES = {
        "line": (goldstein_kac_1d, PeriodicGrid(1, 256, 40.0), None),
        "plane": (damped_euler_2d, PeriodicGrid(2, 64, 16.0), None),
        "space": (
            lambda: load_system(CONFIGS / "damped_euler_3d.json"),
            PeriodicGrid(3, 16, 24.0),
            None,
        ),
        "line-16pi": (goldstein_kac_1d, PeriodicGrid(1, 128, 16 * np.pi), None),
        "plane-16pi": (damped_euler_2d, PeriodicGrid(2, 64, 16 * np.pi), None),
        "no-lifts": (lambda: random_plane_system(3), PeriodicGrid(2, 32, 8.0), CutoffSpec(0.5)),
    }

    @staticmethod
    def assert_form_matches_grid(splitter: FrequencySplitter, seed: int) -> None:
        field = white_spectrum(splitter.grid, splitter.system.size, seed=seed)
        datum = splitter.prepare(field)
        for t in (0.0, 0.7, 5.0, 40.0):
            full, high, gaps = grid_norms(splitter, datum, t)
            formed = splitter.l2_norms(datum, t)
            assert formed[0] == pytest.approx(full, rel=1e-12, abs=0)
            assert formed[1] == pytest.approx(high, rel=1e-12, abs=0)
            assert formed[2] == pytest.approx(gaps, rel=1e-12, abs=0)

    @pytest.mark.parametrize("case", list(CASES))
    def test_form_matches_grid_norms(self, case):
        build, grid, cut = self.CASES[case]
        splitter = FrequencySplitter(build(), grid, cut)
        self.assert_form_matches_grid(splitter, seed=21)
        orbits = splitter._eigenbasis.orbits
        expected_fallback = {"line-16pi": 2, "plane-16pi": 4}.get(case, 0)
        assert splitter.fallback_count == expected_fallback
        if case == "space":
            assert orbits.rotations.shape[0] == 48
        if case == "no-lifts":
            assert orbits.conjugate.tolist() == [False, True]
        # The form holds every member off the band below sqrt(CONDITION_LIMIT).
        layout = splitter._form_layout
        assert layout.direct.size == splitter.band.size + expected_fallback
        assert layout.slots.sum() == grid.total_points - layout.direct.size

    def test_high_condition_members_are_propagated_one_by_one(self, monkeypatch):
        # On this line the bounds run from 2 to 6: with a limit of 5 the form
        # takes the members up to sqrt(5), the rest up to 5 take composed
        # factors and the two above 5 the Pade rows.
        monkeypatch.setattr(spectral, "CONDITION_LIMIT", 5.0)
        build, grid, _ = self.CASES["line"]
        splitter = FrequencySplitter(build(), grid)
        self.assert_form_matches_grid(splitter, seed=22)
        layout = splitter._form_layout
        assert splitter.fallback_count == layout.fallback.size == 2
        assert layout.composed.size - splitter.band.size == 22
        assert layout.slots.sum() > 200
        assert layout.slots.sum() + layout.direct.size == grid.total_points

    def test_every_member_takes_the_pade_rows_below_every_bound(self, monkeypatch):
        monkeypatch.setattr(spectral, "CONDITION_LIMIT", 0.5)
        build, grid, _ = self.CASES["plane"]
        splitter = FrequencySplitter(build(), grid)
        self.assert_form_matches_grid(splitter, seed=23)
        assert splitter.fallback_count == grid.total_points
        assert not splitter._form_layout.slots.any()

    def test_one_pade_call_per_time(self, monkeypatch):
        calls = []
        exponential = spectral.matrix_exponential

        def counted(matrices):
            calls.append(matrices.shape[0])
            return exponential(matrices)

        monkeypatch.setattr(spectral, "matrix_exponential", counted)
        build, grid, _ = self.CASES["plane-16pi"]
        splitter = FrequencySplitter(build(), grid)
        data = [splitter.prepare(white_spectrum(grid, 3, seed=seed)) for seed in (24, 25)]
        for t in (0.5, 3.0):
            for datum in data:
                splitter.decompose(datum, t)
                splitter.l2_norms(datum, t)
        assert len(calls) == 2

    @pytest.mark.parametrize("case", list(CASES))
    def test_streamed_pass_matches_the_orbit_order_oracle(self, case):
        # The former whole-grid path: every coefficient in orbit order, one
        # batched propagation and one gather back to the grid.
        build, grid, cut = self.CASES[case]
        splitter = FrequencySplitter(build(), grid, cut)
        field = white_spectrum(grid, splitter.system.size, seed=35)
        streamed = splitter.prepare(field)
        t = 0.7
        u, _ = splitter.decompose(streamed, t)
        basis, layout = splitter._eigenbasis, splitter._form_layout
        orbits = basis.orbits
        coefficients = np.einsum(
            "ijr,gjr->gir", basis.inverse.transpose(1, 2, 0), orbit_order(orbits, field.flat())
        )
        decayed = basis.vectors.transpose(1, 2, 0) * np.exp(-t * basis.values)
        expected = grid_order(orbits, np.einsum("ijr,gjr->gir", decayed, coefficients))
        factored = np.ones(grid.total_points, dtype=bool)
        factored[basis.fallback] = False
        assert relative_gap(u.flat()[:, factored], expected[:, factored]) <= 1e-14
        weights = np.zeros_like(streamed.form[0])
        for g, slots in enumerate(layout.slots):
            c = np.where(slots, coefficients[g], 0.0)
            weights += layout.grams[layout.gram[g]] * (c.conj()[:, None, :] * c[None, :, :])
        assert_allclose(streamed.form[0], weights, rtol=0, atol=1e-14 * np.max(np.abs(weights)))

    @pytest.mark.parametrize("case", ["plane", "space", "plane-16pi"])
    def test_datum_holds_no_grid_array_after_its_first_norms(self, case):
        # A p = 2 run's first step: the audit's fields, the profiles and the
        # norms.  Afterwards the datum and its splitter hold no array indexed
        # by grid member (an axis of N^d entries or more) but the spectrum;
        # their tables are per orbit, per element or per band member.  The
        # grid's own frequency vectors are shared by every splitter on it.
        build, grid, cut = self.CASES[case]
        splitter = FrequencySplitter(build(), grid, cut)
        datum = splitter.prepare(white_spectrum(grid, splitter.system.size, seed=36))
        fields = [splitter.decompose(datum, 1.0)[0]]
        fields += [evolve(datum, 1.0) for evolve in (evolve_parabolic_phi, evolve_parabolic_psi)]
        del fields
        splitter.l2_norms(datum, 1.0)
        held = reachable_arrays(splitter, datum)
        held = [array for array in held if array is not datum.spectrum]
        assert held
        assert [array.shape for array in held if max(array.shape) >= grid.total_points] == []

    def test_decompose_sums_no_form(self):
        # The form is summed in a pass of its own at the first l2_norms, so a
        # decompose builds neither the form nor its layout.
        build, grid, _ = self.CASES["plane"]
        splitter = FrequencySplitter(build(), grid)
        datum = splitter.prepare(white_spectrum(grid, 3, seed=27))
        splitter.decompose(datum, 1.0)
        assert not {"form", "_streamed_form"} & vars(datum).keys()
        assert "_form_layout" not in vars(splitter)
        splitter.l2_norms(datum, 1.0)
        assert "form" in vars(datum)

    def test_form_is_built_once_per_datum(self, monkeypatch):
        build, grid, _ = self.CASES["plane"]
        splitter = FrequencySplitter(build(), grid)
        datum = splitter.prepare(white_spectrum(grid, 3, seed=26))
        splitter.l2_norms(datum, 1.0, ("psi",))
        weights, _ = datum.form
        assert "phi" not in datum._profiles
        splitter.l2_norms(datum, 2.0)
        assert datum.form[0] is weights
        hermitian = np.conj(weights.transpose(1, 0, 2))
        assert_allclose(weights, hermitian, rtol=0, atol=1e-15 * np.max(np.abs(weights)))

    def test_validation(self):
        build, grid, _ = self.CASES["line"]
        splitter = FrequencySplitter(build(), grid)
        datum = splitter.prepare(white_spectrum(grid, 2, seed=27))
        with pytest.raises(ValueError, match="nonnegative"):
            splitter.l2_norms(datum, -1.0)
        with pytest.raises(ValueError, match="unknown profiles"):
            splitter.l2_norms(datum, 1.0, ("chi",))
        other = FrequencySplitter(build(), grid)
        with pytest.raises(ValueError, match="another splitter"):
            other.l2_norms(datum, 1.0)


def anisotropic_euler() -> HyperbolicSystem:
    """``damped_euler_2d`` with friction ``B = diag(0, 1, 2)``: the axis
    reflections lift, the swap does not."""
    plane = damped_euler_2d()
    return HyperbolicSystem(advections=plane.advections, relaxation=np.diag([0.0, 1.0, 2.0]))


def three_speed_line() -> HyperbolicSystem:
    """Speeds -1, 1/2 and 1 with uniform exchange: no lift of ``k -> -k``, so
    no real form."""
    return HyperbolicSystem(
        advections=(np.diag([-1.0, 0.5, 1.0]),),
        relaxation=0.5 * (np.eye(3) - np.ones((3, 3)) / 3.0),
    )


def complex_oracle(system: HyperbolicSystem) -> HyperbolicSystem:
    """A copy of ``system`` whose real form is None, so the splitter factors
    the complex symbols: the oracle of the real factorization."""
    copy = HyperbolicSystem(system.advections, system.relaxation, system.symmetry, system.name)
    copy.__dict__["real_form"] = None
    return copy


class TestRealFactorization:
    """The factorization through the real form against the complex one."""

    CASES = {
        "line": (goldstein_kac_1d, PeriodicGrid(1, 256, 40.0), None),
        "plane": (damped_euler_2d, PeriodicGrid(2, 64, 16.0), None),
        "space": (damped_euler_3d, PeriodicGrid(3, 16, 24.0), None),
        "line-16pi": (goldstein_kac_1d, PeriodicGrid(1, 128, 16 * np.pi), None),
        "plane-16pi": (damped_euler_2d, PeriodicGrid(2, 64, 16 * np.pi), None),
        "anisotropic": (anisotropic_euler, PeriodicGrid(2, 64, 16.0), CutoffSpec(0.35)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_the_complex_factorization(self, case):
        build, grid, cut = self.CASES[case]
        system = build()
        assert system.real_form is not None
        splitter = FrequencySplitter(system, grid, cut)
        oracle = FrequencySplitter(complex_oracle(system), grid, cut)
        field = white_spectrum(grid, system.size, seed=31)
        datum, reference = splitter.prepare(field), oracle.prepare(field)
        for t in (0.0, 0.7, 5.0, 40.0):
            fields = zip(split_fields(splitter, datum, t), split_fields(oracle, reference, t))
            for got, expected in fields:
                assert relative_gap(got.values, expected.values) <= 1e-12
            full, high, gaps = splitter.l2_norms(datum, t)
            oracle_full, oracle_high, oracle_gaps = oracle.l2_norms(reference, t)
            assert full == pytest.approx(oracle_full, rel=1e-12, abs=0)
            assert high == pytest.approx(oracle_high, rel=1e-12, abs=0)
            assert gaps == pytest.approx(oracle_gaps, rel=1e-12, abs=0)
        assert splitter.fallback_count == oracle.fallback_count
        assert splitter.fallback_count == {"line-16pi": 2, "plane-16pi": 4}.get(case, 0)
        basis, oracle_basis = splitter._eigenbasis, oracle._eigenbasis
        assert np.array_equal(basis.audit, oracle_basis.audit)
        members = np.arange(grid.total_points)
        trusted = member_condition(oracle_basis, members) <= CONDITION_LIMIT
        assert np.array_equal(member_condition(basis, members) <= CONDITION_LIMIT, trusted)
        if case == "anisotropic":
            assert basis.orbits.rotations.shape[0] == 4

    def test_orbit_last_factors_are_c_ordered(self):
        build, grid, cut = self.CASES["plane"]
        basis = FrequencySplitter(build(), grid, cut)._eigenbasis
        for factor in (basis.vectors, basis.inverse):
            assert factor.transpose(1, 2, 0).flags.c_contiguous
        assert basis.values.flags.c_contiguous

    @pytest.mark.parametrize(
        "build, grid, cut, dtype",
        [
            (damped_euler_2d, PeriodicGrid(2, 64, 16.0), None, np.float64),
            (three_speed_line, PeriodicGrid(1, 256, 40.0), CutoffSpec(0.23), np.complex128),
        ],
    )
    def test_one_eig_per_splitter(self, monkeypatch, build, grid, cut, dtype):
        stacks = []
        eig = np.linalg.eig

        def recorded(matrices):
            if np.ndim(matrices) == 3:
                stacks.append(matrices.dtype)
            return eig(matrices)

        monkeypatch.setattr(np.linalg, "eig", recorded)
        system = build()
        splitter = FrequencySplitter(system, grid, cut)
        datum = splitter.prepare(white_spectrum(grid, system.size, seed=32))
        for t in (0.5, 2.0):
            splitter.decompose(datum, t)
            splitter.l2_norms(datum, t)
        assert stacks == [dtype]


class TestOrbitTails:
    """The profile tails summed per orbit against the full grid."""

    CASES = {
        "plane": (damped_euler_2d, PeriodicGrid(2, 64, 16.0), None, 8),
        "space": (damped_euler_3d, PeriodicGrid(3, 16, 24.0), None, 48),
        "anisotropic": (anisotropic_euler, PeriodicGrid(2, 64, 16.0), CutoffSpec(0.35), 4),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_diffusion_form_is_constant_on_orbits(self, case):
        build, grid, cut, elements = self.CASES[case]
        splitter = FrequencySplitter(build(), grid, cut)
        orbits = splitter._eigenbasis.orbits
        assert orbits.rotations.shape[0] == elements
        kappa = splitter.limit.diffusion_form(frequency_vectors(grid))
        gap = np.max(np.abs(kappa - splitter._orbit_diffusion[orbits.orbit_map()]))
        assert gap <= 1e-14 * np.max(kappa)

    @pytest.mark.parametrize("case", list(CASES))
    def test_tails_and_gaps_match_the_full_grid(self, case):
        build, grid, cut, _ = self.CASES[case]
        splitter = FrequencySplitter(build(), grid, cut)
        datum = splitter.prepare(white_spectrum(grid, splitter.system.size, seed=34))
        orbits = splitter._eigenbasis.orbits
        band = splitter.band
        orbit = orbits.orbit_map()
        for name in ("phi", "psi"):
            moment = datum.moment(name)
            full = np.sum(np.abs(moment) ** 2, axis=0)
            full[band] = 0.0
            rows, tail = datum._profile(name)
            assert np.array_equal(rows, moment[:, band])
            assert tail.shape == (orbits.representatives.size,)
            assert tail.sum() == pytest.approx(full.sum(), rel=1e-14)
            order = np.argsort(orbit, kind="stable")
            starts = np.searchsorted(orbit[order], np.arange(tail.size))
            assert_allclose(tail, np.add.reduceat(full[order], starts), rtol=1e-14, atol=0)
        basis = splitter._eigenbasis
        cell = grid.cell_volume
        for t in (0.0, 0.7, 5.0, 40.0):
            _, _, gaps = splitter.l2_norms(datum, t)
            low = datum._band_moment * np.exp(-t * basis.band_values)
            for name, gap in gaps.items():
                # The parent formula: the band one by one, the tail on the full grid.
                exponent = splitter.limit.diffusion_form(frequency_vectors(grid))
                if name == "phi":
                    exponent = splitter.limit.drift_phase(frequency_vectors(grid)) + exponent
                exponent = exponent[band]
                moment = datum.moment(name)
                profile = moment[:, band] * np.exp(-t * exponent)
                full = np.sum(np.abs(moment) ** 2, axis=0)
                full[band] = 0.0
                expected = np.sum(np.abs(low - profile) ** 2) + np.sum(
                    full * np.exp(-2.0 * t * splitter.limit.diffusion_form(frequency_vectors(grid)))
                )
                assert gap == pytest.approx(np.sqrt(expected * cell), rel=1e-13, abs=0)


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

    @pytest.mark.parametrize("case", ["line", "plane", "space"])
    def test_chunked_factor_is_bitwise_the_whole_grid_one(self, case):
        # The former path: the exponent summed over the whole grid from the
        # per-axis frequencies, then one exp and one product with the moment.
        system, grid = {
            "line": (drifting_two_speed(), PeriodicGrid(1, 8192, 400.0)),
            "plane": (damped_euler_2d(), PeriodicGrid(2, 128, 32.0)),
            "space": (damped_euler_3d(), PeriodicGrid(3, 32, 16.0)),
        }[case]
        splitter = profile_splitter(system, grid)
        limit = splitter.limit
        datum = splitter.prepare(white_spectrum(grid, system.size, seed=37))
        axes = grid.axis_frequencies()
        diffusion = np.zeros(grid.shape)
        for h, l in np.ndindex(limit.diffusion.shape):
            diffusion += (axes[h] * limit.diffusion[h, l]) * axes[l]
        phase = np.zeros(grid.shape)
        for k, c in zip(axes, limit.drift):
            phase += k * c
        diffusion = diffusion.reshape(-1)
        exponents = {"phi": 1j * phase.reshape(-1) + diffusion, "psi": diffusion}
        assert grid.total_points > spectral._MOMENT_CHUNK
        for t in (0.5, 3.0):
            for name, evolve in (("phi", evolve_parabolic_phi), ("psi", evolve_parabolic_psi)):
                expected = datum.moment(name) * np.exp(-t * exponents[name])
                assert np.array_equal(evolve(datum, t).flat(), expected)

    def test_no_frequency_table_is_built(self, monkeypatch):
        # Whole-grid functions of k come from sparse per-axis frequencies, and
        # k itself only for listed members: at most the orbit representatives
        # (about half the grid on a line) or one chunk of the psi moment.
        system = damped_euler_2d()
        dense, listed = [], []
        meshgrid, frequencies = np.meshgrid, PeriodicGrid.frequencies

        def counted_meshgrid(*axes, **options):
            if not options.get("sparse", False):
                dense.append(len(axes))
            return meshgrid(*axes, **options)

        def counted_frequencies(grid, members):
            listed.append(np.size(members))
            return frequencies(grid, members)

        monkeypatch.setattr(np, "meshgrid", counted_meshgrid)
        monkeypatch.setattr(PeriodicGrid, "frequencies", counted_frequencies)
        grid = PeriodicGrid(dimension=2, points=128, half_width=32.0)
        splitter = FrequencySplitter(system, grid, CutoffSpec(inner=0.35))
        datum = splitter.prepare(white_spectrum(grid, system.size, seed=14))
        for t in (0.5, 2.0):
            splitter.decompose(datum, t)
            splitter.l2_norms(datum, t)
            evolve_parabolic_phi(datum, t)
            evolve_parabolic_psi(datum, t)
        assert dense == []
        assert listed and max(listed) <= grid.total_points // 2
        assert not hasattr(grid, "frequency_vectors")

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


def drawn_data_oracle(grid: PeriodicGrid, components: int, spec: InitialSpec) -> np.ndarray:
    """Seeded data as built with one generator made up front: amplitudes are
    drawn first, then the band's noise."""
    rng = np.random.default_rng(spec.seed)
    if spec.amplitudes is None:
        signs = np.where(np.arange(components) % 2 == 0, 1.0, -1.0)
        amplitudes = rng.uniform(0.5, 1.5, size=components) * signs
    else:
        amplitudes = np.asarray(spec.amplitudes, dtype=float)
    amplitudes = amplitudes.reshape((-1,) + (1,) * grid.dimension)
    if spec.kind == "gaussian":
        values = amplitudes * np.exp(-grid.radius_squared() / (2.0 * spec.sigma**2))
    else:
        noise = rng.standard_normal((components,) + grid.shape)
        spectrum = to_frequency(GridField(grid, noise, PHYSICAL)).values
        moduli = np.linalg.norm(frequency_vectors(grid), axis=-1).reshape(grid.shape)
        spectrum *= ((moduli >= spec.band[0]) & (moduli <= spec.band[1]))[None]
        shaped = to_physical(GridField(grid, spectrum, FREQUENCY)).values.real
        axes = tuple(range(1, 1 + grid.dimension))
        scale = np.max(np.abs(shaped), axis=axes, keepdims=True)
        scale[scale == 0.0] = 1.0
        values = amplitudes * shaped / scale
    return values.astype(complex)


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
        moduli = np.linalg.norm(frequency_vectors(grid), axis=-1)
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

    @pytest.mark.parametrize(
        "dimension, spec",
        [
            (1, InitialSpec(seed=4, sigma=0.5)),
            (2, InitialSpec(seed=7)),
            (1, InitialSpec(kind="random-band", seed=3, band=(0.0, 1.0))),
            (1, InitialSpec(kind="random-band", seed=3, amplitudes=(1.0, -0.5))),
            (2, InitialSpec(kind="random-band", seed=9, band=(0.5, 1.5))),
        ],
    )
    def test_drawn_data_matches_an_up_front_generator(self, dimension, spec):
        grid = PeriodicGrid(dimension=dimension, points=64, half_width=8.0)
        data = make_initial_data(grid, 2, spec)
        assert np.array_equal(data.values, drawn_data_oracle(grid, 2, spec))

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

