"""Periodic spectral realization of the evolution and its decompositions.

Fields live on a uniform grid over the box ``[-L, L)^d`` with ``N`` points
per axis, and frequencies are the discrete set ``k = (pi / L) m`` with
integer ``m`` per axis.  The hyperbolic semigroup acts diagonally in
frequency as ``exp(-E(ik) t)``.  :class:`FrequencySplitter` factors the
symbols once as ``E(ik) = V diag(lambda) V^-1`` and applies
``V diag(exp(-t lambda)) V^-1`` at each time (the eigenvector method).  It
factors one symbol per orbit of the grid frequencies under the axis
reflections and swaps that lift to the system (``E(iRk) = T E(ik) T^-1``)
and conjugation (``E(-ik) = conj E(ik)``, as ``A`` and ``B`` are real); the
other members of an orbit take ``T V`` and ``V^-1 T^-1``.  Symbols whose
eigenvector basis is ill-conditioned go through the Pade-13
:func:`~hyprelax.linalg.matrix_exponential` instead, and every propagation
re-checks the weakest factored symbols against it.  The low-frequency part
``u1`` applies the 0-group eigenprojection of the same factorization under a
smooth cutoff (audited against the contour projection at the first
propagation), and the remainder ``u2`` is defined by subtraction so the split
is additively exact.  The tests keep the Pade path for every symbol as the
independent reference.  The parabolic comparison profiles apply the
drift/diffusion multiplier with the zeroth-order (phi) or first-order (psi)
projection moment.

The splitter is the engine: it holds what depends on the system and grid
only.  :meth:`FrequencySplitter.prepare` turns a field into a :class:`Datum`
that owns a read-only spectrum and keeps what depends on the datum but not on
the time (modal coefficients, band and profile moments).  Each piece is
computed at its first use, and the evolutions return frequency fields.

The box is a whole-space surrogate: experiments must keep data supports and
propagation cones away from the boundary (the decay harness enforces the
corresponding guard).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .chapman import (
    GroupNotSeparatedError,
    ParabolicLimit,
    calibrate_separation_radius,
    compute_parabolic_limit,
    exact_group_projection,
    separation_threshold,
)
from .linalg import matrix_exponential
from .model import HyperbolicSystem, lift_axis_map

__all__ = [
    "SpectralError",
    "WrongRepresentationError",
    "SupportTooWideError",
    "GroupNotSeparatedError",
    "PeriodicGrid",
    "GridSpec",
    "GridField",
    "CutoffSpec",
    "InitialSpec",
    "FrequencySplitter",
    "Datum",
    "CONDITION_LIMIT",
    "smooth_step",
    "default_cutoff",
    "to_frequency",
    "to_physical",
    "lp_norm",
    "imaginary_residual",
    "evolve_parabolic_phi",
    "evolve_parabolic_psi",
    "make_initial_data",
    "save_field",
    "load_field",
]

PHYSICAL = "physical"
FREQUENCY = "frequency"

_HEADER = struct.Struct("<iidiid")

# Eigenvector-basis condition estimate ``|V|_F |V^-1|_F`` above which a symbol
# is exponentiated and projected by the exact methods.  The demo grids stay
# below 20; a grid point on an exceptional point of ``E(ik)`` exceeds 1e7.
CONDITION_LIMIT = 1e6
# Factored symbols re-checked against the exact methods, worst first, and the
# relative Frobenius mismatch the check accepts.
_AUDIT_MEMBERS = 4
_AUDIT_TOLERANCE = 1e-10


class SpectralError(Exception):
    """Base class for errors raised by this module."""


class WrongRepresentationError(SpectralError):
    """A field arrived in the wrong representation for the operation."""


class SupportTooWideError(SpectralError):
    """Requested initial data does not fit in the box with negligible tails."""


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform grid on the periodic box ``[-L, L)^d``.

    ``points`` must be a power of two, at least 8; the frequency set per
    axis is ``(pi / half_width) * m`` for ``m`` in ``{-N/2, ..., N/2 - 1}``.
    """

    dimension: int
    points: int
    half_width: float

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("grid dimension must be at least 1")
        n = self.points
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError("points per axis must be a power of two, at least 8")
        if not self.half_width > 0:
            raise ValueError("box half-width must be positive")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points,) * self.dimension

    @property
    def total_points(self) -> int:
        return self.points**self.dimension

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dimension

    def x_axis(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.points)

    def frequency_axis(self) -> np.ndarray:
        """Per-axis frequencies in transform layout (positive half first)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.spacing)

    @cached_property
    def frequency_vectors(self) -> np.ndarray:
        """All frequency vectors as a flat ``(N^d, d)`` array, C-ordered.

        Built once per grid and shared, so the array is read-only.
        """
        axes = np.meshgrid(*([self.frequency_axis()] * self.dimension), indexing="ij")
        vectors = np.stack([axis.reshape(-1) for axis in axes], axis=-1)
        vectors.flags.writeable = False
        return vectors

    def radius_squared(self) -> np.ndarray:
        """Squared distance to the box center at each grid point."""
        x = self.x_axis()
        total = np.zeros(self.shape)
        for axis in range(self.dimension):
            shape = [1] * self.dimension
            shape[axis] = self.points
            total = total + (x**2).reshape(shape)
        return total


@dataclass(frozen=True)
class GridSpec:
    """A :class:`PeriodicGrid` without its dimension, which the system gives."""

    points: int
    half_width: float

    def __post_init__(self) -> None:
        self.on(1)  # PeriodicGrid's own checks of points and half_width

    def on(self, dimension: int) -> PeriodicGrid:
        return PeriodicGrid(dimension, self.points, self.half_width)


@dataclass(frozen=True)
class GridField:
    """Complex multi-component field sampled on a periodic grid.

    ``values`` is indexed ``(component, *grid axes)``; imaginary parts of
    physically real data are kept (and should stay at rounding level) rather
    than being dropped.
    """

    grid: PeriodicGrid
    values: np.ndarray
    representation: str

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=complex)
        if values.ndim != 1 + self.grid.dimension or values.shape[1:] != self.grid.shape:
            raise ValueError(
                f"field values of shape {values.shape} do not match one or more "
                f"components on a grid of shape {self.grid.shape}"
            )
        if self.representation not in (PHYSICAL, FREQUENCY):
            raise ValueError(f"unknown representation tag {self.representation!r}")
        object.__setattr__(self, "values", values)

    @property
    def components(self) -> int:
        return self.values.shape[0]

    def flat(self) -> np.ndarray:
        """Values reshaped to ``(components, total points)``."""
        return self.values.reshape(self.components, self.grid.total_points)


def _require(field: GridField, representation: str) -> None:
    if field.representation != representation:
        raise WrongRepresentationError(
            f"operation needs a {representation} field, got {field.representation}"
        )


def to_frequency(field: GridField) -> GridField:
    """Unitary discrete Fourier transform over the spatial axes."""
    _require(field, PHYSICAL)
    axes = tuple(range(1, 1 + field.grid.dimension))
    # Every axis pass writes into ``out``; without it numpy allocates a new
    # array per axis.
    out = np.empty_like(field.values)
    values = np.fft.fftn(field.values, axes=axes, norm="ortho", out=out)
    return GridField(field.grid, values, FREQUENCY)


def to_physical(field: GridField) -> GridField:
    """Inverse of :func:`to_frequency`."""
    _require(field, FREQUENCY)
    axes = tuple(range(1, 1 + field.grid.dimension))
    out = np.empty_like(field.values)
    values = np.fft.ifftn(field.values, axes=axes, norm="ortho", out=out)
    return GridField(field.grid, values, PHYSICAL)


def lp_norm(field: GridField, p: float) -> float:
    """Riemann-sum L^p norm with Euclidean norm across components.

    ``p = inf`` returns the maximum pointwise component-norm; finite ``p``
    weights each grid cell by its volume.
    """
    _require(field, PHYSICAL)
    if not p >= 1:
        raise ValueError(f"norm order must satisfy p >= 1, got {p}")
    if p == 2:
        # One real dot over the interleaved real and imaginary parts: no
        # temporaries, and no BLAS call (which would start its threads).
        flat = np.ascontiguousarray(field.values).reshape(-1).view(float)
        return float(np.sqrt(np.einsum("i,i->", flat, flat) * field.grid.cell_volume))
    pointwise = np.sqrt(np.sum(np.abs(field.values) ** 2, axis=0))
    if np.isinf(p):
        return float(np.max(pointwise))
    total = np.sum(pointwise**p) * field.grid.cell_volume
    return float(total ** (1.0 / p))


def imaginary_residual(field: GridField) -> float:
    """Largest imaginary magnitude, for checking physically real outputs."""
    return float(np.max(np.abs(field.values.imag)))


def smooth_step(s: np.ndarray) -> np.ndarray:
    """Smooth transition equal to 1 for ``s <= 0`` and 0 for ``s >= 1``."""
    s = np.asarray(s, dtype=float)
    out = np.ones_like(s)
    out[s >= 1.0] = 0.0
    middle = (s > 0.0) & (s < 1.0)
    sm = s[middle]
    lower = np.exp(-1.0 / (1.0 - sm))
    upper = np.exp(-1.0 / sm)
    out[middle] = lower / (lower + upper)
    return out


@dataclass(frozen=True)
class CutoffSpec:
    """Smooth low-frequency cutoff of the frequency modulus.

    ``chi1`` equals 1 on ``|k| <= inner/2`` and 0 on ``|k| >= inner``.
    """

    inner: float

    def __post_init__(self) -> None:
        if not 0 < self.inner < np.inf:
            raise ValueError(f"cutoff radius must satisfy 0 < inner < inf, got {self.inner}")

    def chi1(self, s: np.ndarray) -> np.ndarray:
        return smooth_step(2.0 * np.asarray(s, dtype=float) / self.inner - 1.0)


def default_cutoff(system: HyperbolicSystem) -> CutoffSpec:
    """Inner radius at half the calibrated separation."""
    return CutoffSpec(inner=0.5 * calibrate_separation_radius(system))


@dataclass(frozen=True)
class InitialSpec:
    """Deterministic initial data of a named kind, built by :func:`make_initial_data`.

    ``gaussian`` scales ``exp(-|x|^2 / 2 sigma^2)`` per component; ``bump``
    uses a compactly supported profile of the given support radius;
    ``random-band`` draws seeded white noise and keeps the frequency annulus
    ``band``.  Amplitudes default to seeded values in ``[0.5, 1.5]`` with
    alternating signs.
    """

    kind: str = "gaussian"
    seed: int = 0
    sigma: float = 1.0
    radius: float = 1.0
    band: tuple[float, float] = (0.5, 1.5)
    amplitudes: tuple[float, ...] | None = None

    kinds = ("gaussian", "bump", "random-band")

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"initial seed must be non-negative, got {self.seed}")
        if self.kind not in self.kinds:
            raise ValueError(
                f"initial kind must be one of {', '.join(self.kinds)}, got {self.kind!r}"
            )
        if not self.sigma > 0:
            raise ValueError(f"initial sigma must be positive, got {self.sigma}")
        if not self.radius > 0:
            raise ValueError(f"initial radius must be positive, got {self.radius}")
        if len(self.band) != 2 or not 0 <= self.band[0] < self.band[1]:
            raise ValueError(
                f"initial band must be [low, high] with 0 <= low < high, got "
                f"{list(self.band)}"
            )

    @property
    def support(self) -> float:
        """Radius beyond which the data is below 1e-12 of its peak.

        Band-limited noise fills the box; its support is taken as 0, since no
        box check can localize it and the periodic wrap is part of its
        interpretation.
        """
        if self.kind == "gaussian":
            return math.sqrt(2.0 * math.log(1e12)) * self.sigma
        if self.kind == "bump":
            return self.radius
        return 0.0


def _grid_symmetries(system: HyperbolicSystem, dimension: int) -> list[tuple]:
    """Elements ``(R, T, c)`` with ``E(iRk) = T E(ik)^(c) T^-1``, identity first.

    ``E^(1)`` is the complex conjugate: ``A`` and ``B`` are real, so
    ``E(-ik) = conj E(ik)`` and ``(-I, I, 1)`` is always an element.  The
    other generators are the axis reflections and swaps that lift to the
    system (:func:`~hyprelax.model.lift_axis_map`); the group is their
    closure, each element kept with the first product that reaches it.  Every
    ``T`` is real, so a product's transform is the product of the transforms.
    """
    identity = np.eye(dimension, dtype=np.intp)
    generators = [(-identity, np.eye(system.size), True)]
    axis_maps = []
    for axis in range(dimension):
        reflection = identity.copy()
        reflection[axis, axis] = -1
        axis_maps.append(reflection)
    for first in range(dimension):
        for second in range(first + 1, dimension):
            swap = identity.copy()
            swap[[first, second]] = swap[[second, first]]
            axis_maps.append(swap)
    for rotation in axis_maps:
        transform = lift_axis_map(system, rotation)
        if transform is not None:
            generators.append((rotation, transform, False))
    elements = [(identity, np.eye(system.size), False)]
    seen = {identity.tobytes()}
    for rotation, transform, conjugate in elements:  # grows until closed
        for g_rotation, g_transform, g_conjugate in generators:
            product = g_rotation @ rotation
            if product.tobytes() not in seen:
                seen.add(product.tobytes())
                elements.append((product, g_transform @ transform, g_conjugate != conjugate))
    return elements


@dataclass(frozen=True)
class _Orbits:
    """Orbits of the grid frequencies under a group of symbol symmetries.

    Element ``g`` maps the frequency ``k`` to ``R_g k`` (a signed permutation
    of the axes) with ``E(i R_g k) = T_g E(ik)^(c_g) T_g^-1``, where ``E^(1)``
    is the complex conjugate.  Member ``m`` of the grid is ``R_g`` applied to
    the representative of its orbit: ``g = element[m]``, the representative
    is ``representatives[orbit[m]]`` and maps to itself by the identity
    (element 0).  A member on a Nyquist plane is its own representative,
    since negating its Nyquist coordinate leaves the grid.  The orbit-order
    layout of a multi-component array is ``(element, component, orbit)``;
    ``slot`` gives the flat position of every ``(component, member)`` in it,
    and the slots of no member stay zero.
    """

    rotations: np.ndarray
    transforms: np.ndarray
    inverses: np.ndarray
    conjugate: np.ndarray
    representatives: np.ndarray
    orbit: np.ndarray
    element: np.ndarray
    slot: np.ndarray

    def _apply(self, matrices: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """``slots[g] = (M_g slots[g])^(c_g)`` in place, for real matrices ``M_g``.

        An element whose ``M_g`` is the identity is only conjugated (when
        ``c_g``).  Otherwise one scaled row per nonzero entry, from a copy of
        the element's block: the transforms are mostly signed permutations,
        and a batched ``matmul`` would start BLAS threads that keep spinning
        through the rest of the step.
        """
        identity = np.eye(matrices.shape[-1])
        for g, matrix in enumerate(matrices):
            if not np.array_equal(matrix, identity):
                block = slots[g].copy()
                for i, row in enumerate(matrix):
                    first, *others = np.flatnonzero(row)
                    np.multiply(block[first], row[first], out=slots[g, i])
                    for j in others:
                        slots[g, i] += row[j] * block[j]
            if self.conjugate[g]:
                np.conjugate(slots[g], out=slots[g])
        return slots

    def to_orbit_order(self, flat: np.ndarray) -> np.ndarray:
        """``w[g, :, r] = (T_g^-1 u(R_g k_r))^(c_g)`` of a flat ``(components, N^d)``
        array."""
        layout = (self.transforms.shape[0], flat.shape[0], self.representatives.size)
        slots = np.zeros(np.prod(layout), dtype=complex)
        slots[self.slot] = flat
        return self._apply(self.inverses, slots.reshape(layout))

    def to_grid(self, slots: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_orbit_order`: ``u(R_g k_r) = T_g w[g, :, r]^(c_g)``.

        ``slots`` is overwritten: the caller hands over an array it owns.
        """
        return np.take(self._apply(self.transforms, slots).reshape(-1), self.slot)

    def compose(self, members, values, vectors, inverse):
        """``lambda``, ``V`` and ``V^-1`` of grid members from the factors of
        their representatives: ``lambda^(c)``, ``T V^(c)`` and ``V^-1^(c) T^-1``.

        ``values`` is ``(components, orbits)``; ``vectors`` and ``inverse``
        are indexed ``(orbit, row, column)``.  Returns the members' values as
        ``(members, components)`` and their factors as ``(members, n, n)``.
        """
        g, r = self.element[members], self.orbit[members]
        conjugate = self.conjugate[g][:, None]
        values = values[:, r].T
        vectors, inverse = vectors[r], inverse[r]
        values = np.where(conjugate, values.conj(), values)
        vectors = np.where(conjugate[..., None], vectors.conj(), vectors)
        inverse = np.where(conjugate[..., None], inverse.conj(), inverse)
        return values, self.transforms[g] @ vectors, inverse @ self.inverses[g]


def _grid_orbits(system: HyperbolicSystem, grid: PeriodicGrid) -> _Orbits:
    """The orbit map of ``grid`` under the symmetries of ``system``.

    Each orbit's representative is its smallest flat index.
    """
    elements = _grid_symmetries(system, grid.dimension)
    rotations = np.stack([rotation for rotation, _, _ in elements])
    transforms = np.stack([transform for _, transform, _ in elements])
    n, d = grid.points, grid.dimension
    signed = np.fft.ifftshift(np.arange(-(n // 2), n // 2))
    strides = n ** np.arange(d - 1, -1, -1)

    def along(axis: int, values: np.ndarray) -> np.ndarray:
        return values.reshape([n if a == axis else 1 for a in range(d)])

    nyquist = np.zeros(grid.shape, dtype=bool)
    for axis in range(d):
        nyquist = nyquist | along(axis, signed == -(n // 2))
    nyquist = nyquist.reshape(-1)
    members = np.arange(grid.total_points)
    nearest = members.copy()
    through = np.zeros(members.size, dtype=np.intp)
    for g, rotation in enumerate(rotations):
        # Axis i of the image is axis j of the member times R_ij = +-1; n is a
        # power of two, so ``& (n - 1)`` wraps negative indices.
        image = np.zeros(grid.shape, dtype=np.intp)
        for i, row in enumerate(rotation):
            j = int(np.flatnonzero(row)[0])
            image = image + along(j, ((row[j] * signed) & (n - 1)) * strides[i])
        image = image.reshape(-1)
        closer = (image < nearest) & ~nyquist
        nearest[closer] = image[closer]
        through[closer] = g
    # ``through`` carries each member to its representative; its inverse
    # (the transpose of a signed permutation) carries the representative back.
    inverse_of = np.array(
        [
            next(h for h, other in enumerate(rotations) if np.array_equal(other, rotation.T))
            for rotation in rotations
        ]
    )
    is_representative = nearest == members
    representatives = np.flatnonzero(is_representative)
    orbit = (np.cumsum(is_representative) - 1)[nearest]
    element = inverse_of[through]
    count, components = representatives.size, system.size
    base = element * (components * count) + orbit
    return _Orbits(
        rotations=rotations,
        transforms=transforms,
        inverses=np.linalg.inv(transforms),
        conjugate=np.array([conjugate for _, _, conjugate in elements]),
        representatives=representatives,
        orbit=orbit,
        element=element,
        slot=base[None, :] + count * np.arange(components)[:, None],
    )


def _basis_condition(vectors: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """Frobenius estimate ``|V|_F |V^-1|_F`` of each eigenvector basis."""
    return np.linalg.norm(vectors, axis=(-2, -1)) * np.linalg.norm(inverse, axis=(-2, -1))


def _frequency_field(grid: PeriodicGrid, flat: np.ndarray) -> GridField:
    """A flat ``(components, N^d)`` spectrum as a frequency field."""
    return GridField(grid, flat.reshape((flat.shape[0],) + grid.shape), FREQUENCY)


def _check_time(t: float) -> None:
    if t < 0:
        raise ValueError(f"evolution time must be nonnegative, got {t}")


@dataclass(frozen=True)
class _Eigenbasis:
    """``E(ik) = V diag(lambda) V^-1`` at every grid frequency, stored per orbit.

    ``values`` ``(components, orbits)``, ``vectors`` and ``inverse`` are the
    factors of each orbit's representative; ``vectors`` and ``inverse`` are
    indexed ``(orbit, row, column)`` but stored orbit-last, so the per-time
    apply reads them contiguously.  A member takes its factors through
    ``orbits.compose``.  ``condition`` bounds each member's
    estimate ``|T V|_F |V^-1 T^-1|_F`` by ``cond_2(T) |V|_F |V^-1|_F``.
    ``fallback`` lists the members whose bound fails the condition guard,
    ``audit`` the factored members checked at every propagation, and
    ``exact_symbols`` the symbols of both, audit first: the only rows of the
    symbol stack that are kept.  ``audit_factors`` holds the audit members'
    ``lambda``, ``T V`` and ``V^-1 T^-1``, composed once.  ``band_values``
    and ``band_projections`` are the band table of ``_projection_table``.
    """

    orbits: _Orbits
    values: np.ndarray
    vectors: np.ndarray
    inverse: np.ndarray
    condition: np.ndarray
    fallback: np.ndarray
    audit: np.ndarray
    exact_symbols: np.ndarray
    audit_factors: tuple[np.ndarray, np.ndarray, np.ndarray]
    band_values: np.ndarray
    band_projections: np.ndarray


class FrequencySplitter:
    """The spectral engine of one system on one grid.

    It holds what no datum changes, each piece computed at its first use: the
    cutoff band ``chi1 > 0`` (at construction), the factorization (at the
    first :meth:`decompose`), and the parabolic :attr:`limit` with its
    :attr:`drift_phase` and :attr:`diffusion_form` (at the first profile).
    :meth:`prepare` turns a field into the :class:`Datum` that
    :meth:`decompose`, :func:`evolve_parabolic_phi` and
    :func:`evolve_parabolic_psi` take.

    The factorization splits the grid into orbits of the group generated by
    conjugation ``E(-ik) = conj(E(ik))`` and the axis reflections and swaps
    ``R`` that lift to the system (``E(iRk) = T E(ik) T^-1``), and factors one
    representative per orbit as ``V diag(lambda) V^-1``: the member ``Rk`` has
    ``lambda``, ``T V`` and ``V^-1 T^-1`` (conjugated first when the element
    includes conjugation).  Of the symbols it keeps only the rows the checks
    below reuse.  The 0-group projection at each band member is Kato's
    rank-one ``P0 = v w^T`` from the right and left eigenvectors of the
    eigenvalue nearest zero.  A time ``t`` then costs ``exp(-t lambda)`` per
    orbit, ``V (exp(-t lambda) * c)`` on the datum's modal coefficients
    ``c = V^-1 T^-1 u`` in orbit order, one ``T`` product per element whose
    ``T`` is not the identity, one gather back to the grid, and
    ``exp(-t lambda0)`` on the band.

    A member whose condition bound ``cond_2(T) |V|_F |V^-1|_F`` exceeds
    :data:`CONDITION_LIMIT` is exponentiated by
    :func:`~hyprelax.linalg.matrix_exponential` (and, in the band, projected
    by :func:`~hyprelax.chapman.exact_group_projection`) instead; their
    number is :attr:`fallback_count`.  Every propagation recomputes with the
    Pade exponential the four worst-conditioned factored members and the
    worst-conditioned member each non-identity element maps; the first one
    also recomputes the worst-conditioned band projection by contour
    quadrature.  A relative mismatch above 1e-10 raises :class:`SpectralError`.

    Raises:
        ValueError: if the grid and the system differ in dimension.
        GroupNotSeparatedError: at the first propagation, if the 0-group is
            not separated from the rest of the spectrum at some band
            frequency (shrink the cutoff).
    """

    def __init__(
        self,
        system: HyperbolicSystem,
        grid: PeriodicGrid,
        cut: CutoffSpec | None = None,
    ):
        if grid.dimension != system.dimension:
            raise ValueError(
                f"grid dimension {grid.dimension} does not match the system "
                f"dimension {system.dimension}"
            )
        self.system = system
        self.grid = grid
        self.cut = cut if cut is not None else default_cutoff(system)
        self._vectors = grid.frequency_vectors
        self._moduli = np.linalg.norm(self._vectors, axis=-1)
        weights = self.cut.chi1(self._moduli)
        band = np.flatnonzero(weights > 0.0)
        self._band = band
        self._band_weights = weights[band]

    def _projection_table(self, values, vectors, inverse, condition):
        """Eigenvalue nearest zero and its eigenprojection at each band member,
        from the band's rows of the grid factorization."""
        band = self._band
        members = np.arange(band.size)
        nearest = np.argmin(np.abs(values), axis=-1)
        zero_values = values[members, nearest]
        distance = np.abs(values - zero_values[:, None])
        distance[members, nearest] = np.inf
        gaps = np.min(distance, axis=-1, initial=np.inf)
        symbols = self.system.symbol_stack(self._vectors[band])
        thresholds = np.array([separation_threshold(s) for s in symbols])
        crowded = np.flatnonzero(gaps <= thresholds)
        if crowded.size:
            member = crowded[0]
            raise GroupNotSeparatedError(
                f"0-group gap {gaps[member]:.3e} at |k| = "
                f"{self._moduli[band[member]]:.6g} is below {thresholds[member]:.1e}"
            )
        right = vectors[members, :, nearest]
        left = inverse[members, nearest, :]
        projections = right[:, :, None] * left[:, None, :]
        trusted = condition <= CONDITION_LIMIT
        for member in np.flatnonzero(~trusted):
            projections[member] = exact_group_projection(
                self.system, self._vectors[band[member]]
            )
        if np.any(trusted):
            worst = int(np.argmax(np.where(trusted, condition, -np.inf)))
            exact = exact_group_projection(self.system, self._vectors[band[worst]])
            mismatch = np.linalg.norm(projections[worst] - exact) / np.linalg.norm(exact)
            if not mismatch <= _AUDIT_TOLERANCE:
                raise SpectralError(
                    f"rank-one 0-group projection at |k| = "
                    f"{self._moduli[band[worst]]:.6g} differs from the contour "
                    f"projection by {mismatch:.3e} relative"
                )
        return zero_values, projections

    @cached_property
    def _eigenbasis(self) -> _Eigenbasis:
        """One factorization per orbit, with the band table and the audit rows."""
        orbits = _grid_orbits(self.system, self.grid)
        values, vectors = np.linalg.eig(
            self.system.symbol_stack(self._vectors[orbits.representatives])
        )
        inverse = np.linalg.inv(vectors)
        vectors = np.ascontiguousarray(vectors.transpose(1, 2, 0)).transpose(2, 0, 1)
        inverse = np.ascontiguousarray(inverse.transpose(1, 2, 0)).transpose(2, 0, 1)
        values = np.ascontiguousarray(values.T)
        condition = (
            np.linalg.cond(orbits.transforms)[orbits.element]
            * _basis_condition(vectors, inverse)[orbits.orbit]
        )
        trusted = condition <= CONDITION_LIMIT
        ranked = np.argsort(np.where(trusted, condition, -np.inf), kind="stable")[::-1]
        ranked = ranked[trusted[ranked]]
        # The worst members of the grid, then the worst that each non-identity
        # element maps, so a wrong transform cannot escape the audit.
        elements = range(1, orbits.transforms.shape[0])
        mapped = [ranked[orbits.element[ranked] == g][:1] for g in elements]
        audit = np.concatenate([ranked[:_AUDIT_MEMBERS], *mapped])
        audit = np.array(list(dict.fromkeys(audit.tolist())), dtype=np.intp)
        fallback = np.flatnonzero(~trusted)
        band = self._band
        band_values, band_vectors, band_inverse = orbits.compose(
            band, values, vectors, inverse
        )
        band_values, band_projections = self._projection_table(
            band_values, band_vectors, band_inverse, condition[band]
        )
        exact_rows = np.concatenate([audit, fallback])
        return _Eigenbasis(
            orbits=orbits,
            values=values,
            vectors=vectors,
            inverse=inverse,
            condition=condition,
            fallback=fallback,
            audit=audit,
            exact_symbols=self.system.symbol_stack(self._vectors[exact_rows]),
            audit_factors=orbits.compose(audit, values, vectors, inverse),
            band_values=band_values,
            band_projections=band_projections,
        )

    @property
    def fallback_count(self) -> int:
        """Number of grid symbols propagated by the Pade fallback."""
        return int(self._eigenbasis.fallback.size)

    @property
    def worst_condition(self) -> float:
        """Largest eigenvector-basis condition estimate over the grid."""
        return float(np.max(self._eigenbasis.condition))

    @cached_property
    def limit(self) -> ParabolicLimit:
        """The parabolic limit of the system."""
        return compute_parabolic_limit(self.system)

    @cached_property
    def drift_phase(self) -> np.ndarray:
        """``c.ik`` at every grid frequency."""
        return self.limit.drift_phase(self._vectors)

    @cached_property
    def diffusion_form(self) -> np.ndarray:
        """``k.Dk`` at every grid frequency."""
        return self.limit.diffusion_form(self._vectors)

    def prepare(self, field: GridField) -> Datum:
        """``field`` as a datum of this splitter.

        A physical field is transformed once; a frequency field is copied.
        Either way the datum owns its spectrum, so the caller's array stays
        writeable and later edits of it change no result.
        """
        if field.grid != self.grid:
            raise ValueError(f"datum on {field.grid} does not lie on the splitter's {self.grid}")
        if field.representation == PHYSICAL:
            spectrum = to_frequency(field).flat()
        else:
            spectrum = field.flat().copy()
        spectrum.flags.writeable = False
        return Datum(self, spectrum)

    def _propagate(
        self, t: float, coefficients: np.ndarray, fallback: np.ndarray
    ) -> np.ndarray:
        """``exp(-E(ik) t)`` applied to a datum given by its modal coefficients
        and its fallback members' spectrum.  The audit compares
        ``exp(-t (E - mu I))``, ``mu`` the smallest ``Re lambda`` of each member
        (Higham, SIMAX 2005), so its Pade side does not underflow at late times."""
        basis = self._eigenbasis
        audit = basis.audit
        values, vectors, inverse = basis.audit_factors
        # Fallback rows propagate the datum, so they are not shifted.
        shift = np.concatenate([np.min(values.real, axis=-1), np.zeros(basis.fallback.size)])
        eye = np.eye(self.system.size)
        exact = matrix_exponential(-t * (basis.exact_symbols - shift[:, None, None] * eye))
        reference = exact[: audit.size]
        eigen = (vectors * np.exp(-t * (values - shift[: audit.size, None]))[:, None, :]) @ inverse
        mismatch = np.linalg.norm(eigen - reference, axis=(-2, -1)) / np.linalg.norm(
            reference, axis=(-2, -1)
        )
        failed = ~(mismatch <= _AUDIT_TOLERANCE)
        if np.any(failed):
            # A NaN mismatch counts as the largest.
            worst = int(np.argmax(np.where(failed, mismatch, -np.inf)))
            raise SpectralError(
                f"eigenvector propagator at |k| = {self._moduli[audit[worst]]:.6g}, "
                f"t = {t:g} differs from the Pade exponential by "
                f"{mismatch[worst]:.3e} relative"
            )
        decayed = basis.vectors.transpose(1, 2, 0) * np.exp(-t * basis.values)
        out = basis.orbits.to_grid(np.einsum("ijr,gjr->gir", decayed, coefficients))
        out[:, basis.fallback] = np.einsum("fij,jf->if", exact[audit.size :], fallback)
        return out

    def decompose(self, datum: Datum, t: float) -> tuple[GridField, GridField, GridField]:
        """Evolve and split in one pass; returns the frequency fields ``(u, u1, u2)``.

        ``u1 = chi1 exp(-t lambda0) P0(ik) u`` propagates the cutoff-projected
        band (``E P0 = lambda0 P0``); ``u2`` is the subtraction remainder, so
        ``u1 + u2`` equals ``u`` exactly.

        Raises:
            ValueError: if ``t < 0`` or another splitter prepared ``datum``.
        """
        _check_time(t)
        if datum.splitter is not self:
            raise ValueError("the datum was prepared by another splitter")
        coefficients, fallback, moment = datum.modal
        full = self._propagate(t, coefficients, fallback)
        band = moment * np.exp(-t * self._eigenbasis.band_values)
        # np.zeros leaves the pages off the band untouched, and u2 differs
        # from u only on the band.
        low = np.zeros(full.shape, dtype=complex)
        low[:, self._band] = band
        high = full.copy()
        high[:, self._band] -= band
        return tuple(_frequency_field(self.grid, flat) for flat in (full, low, high))


@dataclass(frozen=True, eq=False)
class Datum:
    """A datum prepared by :meth:`FrequencySplitter.prepare`: its splitter and
    its own read-only flat spectrum ``(components, N^d)``.

    What the evolutions need of it at every time is computed at first use, so
    the factorization runs in the first :meth:`FrequencySplitter.decompose`.
    """

    splitter: FrequencySplitter
    spectrum: np.ndarray

    @cached_property
    def modal(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Modal coefficients ``V^-1 T^-1 u`` in orbit order, the fallback
        members' spectrum and the band moment ``chi1 P0 u``."""
        splitter = self.splitter
        basis = splitter._eigenbasis
        slots = basis.orbits.to_orbit_order(self.spectrum)
        coefficients = np.einsum("ijr,gjr->gir", basis.inverse.transpose(1, 2, 0), slots)
        moment = splitter._band_weights * np.einsum(
            "fij,jf->if", basis.band_projections, self.spectrum[:, splitter._band]
        )
        return coefficients, self.spectrum[:, basis.fallback], moment

    @cached_property
    def phi_moment(self) -> np.ndarray:
        """Zeroth-order moment ``P0 u``."""
        return self.splitter.limit.projection @ self.spectrum

    @cached_property
    def psi_moment(self) -> np.ndarray:
        """First-order moment ``(P0 + sum_h i k_h P1_h) u``."""
        limit = self.splitter.limit
        vectors = self.splitter.grid.frequency_vectors
        moment = limit.projection @ self.spectrum
        for h, correction in enumerate(limit.corrections):
            moment = moment + 1j * vectors[:, h][None, :] * (correction @ self.spectrum)
        return moment


def evolve_parabolic_phi(datum: Datum, t: float) -> GridField:
    """Drift-diffusion profile ``exp(-c.ik t - k.Dk t) P0`` of ``datum``, as a
    frequency field."""
    _check_time(t)
    splitter = datum.splitter
    multiplier = np.exp(-t * (splitter.drift_phase + splitter.diffusion_form))
    return _frequency_field(splitter.grid, datum.phi_moment * multiplier[None, :])


def evolve_parabolic_psi(datum: Datum, t: float) -> GridField:
    """Refined profile ``exp(-k.Dk t) (P0 + sum_h i k_h P1_h)`` of ``datum``, no
    drift, as a frequency field."""
    _check_time(t)
    splitter = datum.splitter
    multiplier = np.exp(-t * splitter.diffusion_form)
    return _frequency_field(splitter.grid, datum.psi_moment * multiplier[None, :])


def make_initial_data(grid: PeriodicGrid, components: int, spec: InitialSpec) -> GridField:
    """The data ``spec`` describes, with ``components`` components on ``grid``,
    in physical space.

    Raises:
        ValueError: if ``components < 1`` or ``spec.amplitudes`` has another
            number of entries.
        SupportTooWideError: if ``spec.support`` does not fit in the box.
    """
    if components < 1:
        raise ValueError("need at least one field component")
    rng = np.random.default_rng(spec.seed)
    if spec.amplitudes is None:
        signs = np.where(np.arange(components) % 2 == 0, 1.0, -1.0)
        amplitude_array = rng.uniform(0.5, 1.5, size=components) * signs
    else:
        amplitude_array = np.asarray(spec.amplitudes, dtype=float)
        if amplitude_array.shape != (components,):
            raise ValueError(
                f"expected {components} amplitudes, got {amplitude_array.shape}"
            )
    amplitude_array = amplitude_array.reshape((-1,) + (1,) * grid.dimension)
    if spec.support >= grid.half_width:
        raise SupportTooWideError(
            f"{spec.kind} data of support radius {spec.support:.6g} (tails below "
            f"1e-12 of the peak) does not fit in a box of half-width "
            f"{grid.half_width:g}; shrink the data or enlarge the box"
        )

    if spec.kind == "gaussian":
        profile = np.exp(-grid.radius_squared() / (2.0 * spec.sigma**2))
        values = amplitude_array * profile
    elif spec.kind == "bump":
        squared = grid.radius_squared() / spec.radius**2
        profile = np.zeros(grid.shape)
        interior = squared < 1.0
        profile[interior] = np.exp(1.0 - 1.0 / (1.0 - squared[interior]))
        values = amplitude_array * profile
    else:
        low, high = spec.band
        noise = rng.standard_normal((components,) + grid.shape)
        spectrum = to_frequency(GridField(grid, noise, PHYSICAL)).values
        moduli = np.linalg.norm(grid.frequency_vectors, axis=-1).reshape(grid.shape)
        mask = (moduli >= low) & (moduli <= high)
        spectrum *= mask[None]
        shaped = to_physical(GridField(grid, spectrum, FREQUENCY)).values.real
        axes = tuple(range(1, 1 + grid.dimension))
        scale = np.max(np.abs(shaped), axis=axes, keepdims=True)
        scale[scale == 0.0] = 1.0
        values = amplitude_array * shaped / scale

    return GridField(grid, values.astype(complex), PHYSICAL)


def save_field(field: GridField, path: str | Path, *, time: float = 0.0) -> None:
    """Write a field snapshot: fixed header plus little-endian complex values.

    Header fields are (dimension, points, half_width, components, tag, time)
    with tag 0 for physical and 1 for frequency; values follow row-major,
    component-major, each complex number as a float64 pair.
    """
    tag = 0 if field.representation == PHYSICAL else 1
    header = _HEADER.pack(
        field.grid.dimension,
        field.grid.points,
        field.grid.half_width,
        field.components,
        tag,
        time,
    )
    payload = np.ascontiguousarray(field.values.astype("<c16")).tobytes()
    Path(path).write_bytes(header + payload)


def load_field(path: str | Path) -> tuple[GridField, float]:
    """Read a snapshot written by :func:`save_field`; returns (field, time)."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"snapshot {path} is shorter than its header")
    dimension, points, half_width, components, tag, time = _HEADER.unpack_from(raw)
    if tag not in (0, 1):
        raise ValueError(f"snapshot {path} has representation tag {tag}, expected 0 or 1")
    grid = PeriodicGrid(dimension=dimension, points=points, half_width=half_width)
    expected = components * grid.total_points * 16
    body = raw[_HEADER.size :]
    if len(body) != expected:
        raise ValueError(
            f"snapshot {path} carries {len(body)} payload bytes, expected {expected}"
        )
    values = np.frombuffer(body, dtype="<c16").reshape((components,) + grid.shape)
    representation = PHYSICAL if tag == 0 else FREQUENCY
    return GridField(grid, values.copy(), representation), time
