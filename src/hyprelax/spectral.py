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
is additively exact.  The evolutions return fields in the representation they
are given, so a caller holding a spectrum transforms each datum once.  The
tests keep the Pade path for every symbol as the independent reference.  The
parabolic comparison profiles apply the drift/diffusion multiplier with the
zeroth-order (phi) or first-order (psi) projection moment.

What does not depend on the time is computed once: per grid the frequency
vectors and the drift and diffusion forms, per (system, grid) the orbit map,
per datum its spectrum, its modal coefficients ``V^-1 T^-1 u`` in orbit
order, its band moment and its profile moments.  Caching a
datum's invariants makes its values read-only, so an in-place edit raises
instead of leaving stale entries behind.

The box is a whole-space surrogate: experiments must keep data supports and
propagation cones away from the boundary (the decay harness enforces the
corresponding guard).
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chapman import (
    GroupNotSeparatedError,
    ParabolicLimit,
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
    "GridField",
    "CutoffSpec",
    "InitialData",
    "FrequencySplitter",
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


def _memo_field():
    return dataclasses.field(default_factory=dict, init=False, repr=False, compare=False)


def _cached(holder, name: str, owner, build):
    """``build()`` computed once per ``holder`` (a grid or a datum) and ``owner``.

    ``owner`` is the splitter or limit the value depends on (or None); the
    entry keeps it alive, so its ``id`` cannot be reused by another object.
    """
    key = (name, id(owner))
    entry = holder._memo.get(key)
    if entry is None:
        entry = holder._memo[key] = (owner, build())
    return entry[1]


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform grid on the periodic box ``[-L, L)^d``.

    ``points`` must be a power of two, at least 8; the frequency set per
    axis is ``(pi / half_width) * m`` for ``m`` in ``{-N/2, ..., N/2 - 1}``.
    """

    dimension: int
    points: int
    half_width: float
    _memo: dict = _memo_field()

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

    def frequency_vectors(self) -> np.ndarray:
        """All frequency vectors as a flat ``(N^d, d)`` array, C-ordered.

        Built once per grid and shared, so the array is read-only.
        """

        def build():
            axes = np.meshgrid(*([self.frequency_axis()] * self.dimension), indexing="ij")
            vectors = np.stack([axis.reshape(-1) for axis in axes], axis=-1)
            vectors.flags.writeable = False
            return vectors

        return _cached(self, "frequency_vectors", None, build)

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
class GridField:
    """Complex multi-component field sampled on a periodic grid.

    ``values`` is indexed ``(component, *grid axes)``; imaginary parts of
    physically real data are kept (and should stay at rounding level) rather
    than being dropped.
    """

    grid: PeriodicGrid
    values: np.ndarray
    representation: str
    _memo: dict = _memo_field()

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
    """Radial partition of unity splitting low, middle, and high frequencies.

    ``chi1`` equals 1 on ``|k| <= inner/2`` and 0 on ``|k| >= inner``;
    ``chi3`` equals 0 on ``|k| <= outer`` and 1 on ``|k| >= 2 outer``;
    ``chi2`` is the remaining middle bump.  All take the frequency modulus.
    """

    inner: float
    outer: float

    def __post_init__(self) -> None:
        if not 0 < self.inner < self.outer:
            raise ValueError(
                f"cutoff radii must satisfy 0 < inner < outer, got "
                f"({self.inner}, {self.outer})"
            )

    def chi1(self, s: np.ndarray) -> np.ndarray:
        return smooth_step(2.0 * np.asarray(s, dtype=float) / self.inner - 1.0)

    def chi3(self, s: np.ndarray) -> np.ndarray:
        return 1.0 - smooth_step((np.asarray(s, dtype=float) - self.outer) / self.outer)

    def chi2(self, s: np.ndarray) -> np.ndarray:
        return 1.0 - self.chi1(s) - self.chi3(s)


def default_cutoff(system: HyperbolicSystem) -> CutoffSpec:
    """Inner radius at half the calibrated separation, outer well above it."""
    from .chapman import calibrate_separation_radius

    inner = 0.5 * calibrate_separation_radius(system)
    outer = 10.0 * (float(np.linalg.norm(system.relaxation, 2)) + 1.0)
    return CutoffSpec(inner=inner, outer=outer)


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
        """``out[g] = (M_g slots[g])^(c_g)`` for real matrices ``M_g``.

        One scaled row per nonzero entry: the transforms are mostly signed
        permutations, and a batched ``matmul`` would start BLAS threads that
        keep spinning through the rest of the step.
        """
        out = np.empty_like(slots)
        for g, matrix in enumerate(matrices):
            for i, row in enumerate(matrix):
                first, *others = np.flatnonzero(row)
                np.multiply(slots[g, first], row[first], out=out[g, i])
                for j in others:
                    out[g, i] += row[j] * slots[g, j]
            if self.conjugate[g]:
                np.conjugate(out[g], out=out[g])
        return out

    def to_orbit_order(self, flat: np.ndarray) -> np.ndarray:
        """``w[g, :, r] = (T_g^-1 u(R_g k_r))^(c_g)`` of a flat ``(components, N^d)``
        array."""
        layout = (self.transforms.shape[0], flat.shape[0], self.representatives.size)
        slots = np.zeros(np.prod(layout), dtype=complex)
        slots[self.slot] = flat
        return self._apply(self.inverses, slots.reshape(layout))

    def to_grid(self, slots: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_orbit_order`: ``u(R_g k_r) = T_g w[g, :, r]^(c_g)``."""
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


def _invariant(field: GridField, name: str, owner, build):
    """``build()`` computed once per datum and ``owner``.

    The datum's values become read-only, so editing them in place raises
    instead of leaving the cached entries stale.
    """
    field.values.flags.writeable = False
    return _cached(field, name, owner, build)


def _spectrum(field: GridField) -> np.ndarray:
    """Flat spectrum ``(components, N^d)`` of a field in either representation.

    A physical datum is transformed once.
    """
    if field.representation == FREQUENCY:
        return field.flat()
    return _invariant(field, "spectrum", None, lambda: to_frequency(field).flat())


def _like(flat: np.ndarray, like: GridField) -> GridField:
    """Flat spectrum as a field in the representation of ``like``."""
    values = flat.reshape((flat.shape[0],) + like.grid.shape)
    field = GridField(like.grid, values, FREQUENCY)
    return to_physical(field) if like.representation == PHYSICAL else field


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
    symbol stack that are kept.  ``band_values`` and ``band_projections`` are
    the band table of ``_projection_table``.
    """

    orbits: _Orbits
    values: np.ndarray
    vectors: np.ndarray
    inverse: np.ndarray
    condition: np.ndarray
    fallback: np.ndarray
    audit: np.ndarray
    exact_symbols: np.ndarray
    band_values: np.ndarray
    band_projections: np.ndarray


class FrequencySplitter:
    """Cached per-grid spectral machinery for one system.

    Construction finds the cutoff band ``chi1 > 0``.  The 0-group projection
    at each band member is Kato's rank-one ``P0 = v w^T`` from the right and
    left eigenvectors of the eigenvalue nearest zero, taken from the one
    factorization below.

    The first propagation finds the axis reflections and swaps ``R`` of the
    grid that lift to the system (``E(iRk) = T E(ik) T^-1``) and splits the
    grid into orbits of the group they generate together with conjugation
    ``E(-ik) = conj(E(ik))``.  It factors the symbol of one representative
    per orbit as ``V diag(lambda) V^-1`` and caches those factors only: the
    member ``Rk`` has ``lambda``, ``T V`` and ``V^-1 T^-1`` (conjugated first
    when the element includes conjugation).  Of the symbols it keeps only the
    rows the checks below reuse.  Each datum's modal coefficients
    ``c = V^-1 T^-1 u``, laid out in orbit order, and band moment
    ``chi1 P0 u`` are computed once and cached on the datum, so each time
    ``t`` then costs ``exp(-t lambda)`` per orbit, ``V (exp(-t lambda) * c)``
    in orbit order, one ``T`` product per element, one gather back to the
    grid, and ``exp(-t lambda0)`` on the band.  A member whose condition bound
    ``cond_2(T) |V|_F |V^-1|_F`` exceeds :data:`CONDITION_LIMIT` is
    exponentiated by :func:`~hyprelax.linalg.matrix_exponential` (and, in the
    band, projected by :func:`~hyprelax.chapman.exact_group_projection`)
    instead; their number is :attr:`fallback_count`.  Every propagation
    recomputes with the Pade exponential the four worst-conditioned factored
    members of the grid and the worst-conditioned member each non-identity
    element maps, from the stored representative factors; the first
    propagation recomputes the worst-conditioned band projection by contour
    quadrature.  A relative mismatch above 1e-10 raises
    :class:`SpectralError`.

    Raises:
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
        self._vectors = grid.frequency_vectors()
        self._moduli = np.linalg.norm(self._vectors, axis=-1)
        weights = self.cut.chi1(self._moduli)
        band = np.flatnonzero(weights > 0.0)
        self._band = band
        self._band_weights = weights[band]
        self._basis: _Eigenbasis | None = None

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

    def _eigenbasis(self) -> _Eigenbasis:
        """Factor one symbol per orbit once; later calls return the cached factors."""
        if self._basis is not None:
            return self._basis
        orbits = _cached(
            self.grid, "orbits", self.system, lambda: _grid_orbits(self.system, self.grid)
        )
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
        self._basis = _Eigenbasis(
            orbits=orbits,
            values=values,
            vectors=vectors,
            inverse=inverse,
            condition=condition,
            fallback=fallback,
            audit=audit,
            exact_symbols=self.system.symbol_stack(self._vectors[exact_rows]),
            band_values=band_values,
            band_projections=band_projections,
        )
        return self._basis

    @property
    def fallback_count(self) -> int:
        """Number of grid symbols propagated by the Pade fallback."""
        return int(self._eigenbasis().fallback.size)

    @property
    def worst_condition(self) -> float:
        """Largest eigenvector-basis condition estimate over the grid."""
        return float(np.max(self._eigenbasis().condition))

    def _modal(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Modal coefficients ``V^-1 T^-1 u`` in orbit order, the fallback
        members' spectrum and the band moment ``chi1 P0 u`` of a flat spectrum."""
        basis = self._eigenbasis()
        slots = basis.orbits.to_orbit_order(flat)
        coefficients = np.einsum("ijr,gjr->gir", basis.inverse.transpose(1, 2, 0), slots)
        moment = self._band_weights * np.einsum(
            "fij,jf->if", basis.band_projections, flat[:, self._band]
        )
        return coefficients, flat[:, basis.fallback], moment

    def _propagate(
        self, t: float, coefficients: np.ndarray, fallback: np.ndarray
    ) -> np.ndarray:
        """``exp(-E(ik) t)`` applied to a datum given by its modal coefficients
        and its fallback members' spectrum."""
        basis = self._eigenbasis()
        audit = basis.audit
        exact = matrix_exponential(-t * basis.exact_symbols)
        reference = exact[: audit.size]
        values, vectors, inverse = basis.orbits.compose(
            audit, basis.values, basis.vectors, basis.inverse
        )
        eigen = (vectors * np.exp(-t * values)[:, None, :]) @ inverse
        mismatch = np.linalg.norm(eigen - reference, axis=(-2, -1)) / np.linalg.norm(
            reference, axis=(-2, -1)
        )
        if not np.all(mismatch <= _AUDIT_TOLERANCE):
            worst = int(np.argmax(~(mismatch <= _AUDIT_TOLERANCE)))
            raise SpectralError(
                f"eigenvector propagator at |k| = {self._moduli[audit[worst]]:.6g}, "
                f"t = {t:g} differs from the Pade exponential by "
                f"{mismatch[worst]:.3e} relative"
            )
        decayed = basis.vectors.transpose(1, 2, 0) * np.exp(-t * basis.values)
        out = basis.orbits.to_grid(np.einsum("ijr,gjr->gir", decayed, coefficients))
        out[:, basis.fallback] = np.einsum("fij,jf->if", exact[audit.size :], fallback)
        return out

    def decompose(self, field: GridField, t: float) -> tuple[GridField, GridField, GridField]:
        """Evolve and split in one pass; returns ``(u, u1, u2)``.

        ``u1 = chi1 exp(-t lambda0) P0(ik) u`` propagates the cutoff-projected
        band (``E P0 = lambda0 P0``); ``u2`` is the subtraction remainder, so
        ``u1 + u2`` equals ``u`` exactly, each in the representation of ``field``.
        """
        if t < 0:
            raise ValueError(f"evolution time must be nonnegative, got {t}")
        coefficients, fallback, moment = _invariant(
            field, "modal", self, lambda: self._modal(_spectrum(field))
        )
        full = self._propagate(t, coefficients, fallback)
        low = np.zeros_like(full)
        low[:, self._band] = moment * np.exp(-t * self._eigenbasis().band_values)
        return _like(full, field), _like(low, field), _like(full - low, field)


def _check_parabolic(limit: ParabolicLimit, field: GridField, t: float) -> None:
    """Validate a parabolic evolution request."""
    if t < 0:
        raise ValueError(f"evolution time must be nonnegative, got {t}")
    if limit.dimension != field.grid.dimension:
        raise ValueError(
            f"parabolic limit dimension {limit.dimension} does not match the "
            f"grid dimension {field.grid.dimension}"
        )


def _diffusion_form(limit: ParabolicLimit, grid: PeriodicGrid) -> np.ndarray:
    """``k.Dk`` at every grid frequency, once per grid and limit."""
    return _cached(
        grid, "diffusion_form", limit, lambda: limit.diffusion_form(grid.frequency_vectors())
    )


def _psi_moment(limit: ParabolicLimit, field: GridField) -> np.ndarray:
    """First-order moment ``(P0 + sum_h i k_h P1_h) u`` of a datum."""
    flat = _spectrum(field)
    vectors = field.grid.frequency_vectors()
    moment = limit.projection @ flat
    for h, correction in enumerate(limit.corrections):
        moment = moment + 1j * vectors[:, h][None, :] * (correction @ flat)
    return moment


def evolve_parabolic_phi(limit: ParabolicLimit, field: GridField, t: float) -> GridField:
    """Drift-diffusion profile ``exp(-c.ik t - k.Dk t) P0``."""
    _check_parabolic(limit, field, t)
    grid = field.grid
    phase = _cached(
        grid, "drift_phase", limit, lambda: limit.drift_phase(grid.frequency_vectors())
    )
    moment = _invariant(field, "phi_moment", limit, lambda: limit.projection @ _spectrum(field))
    multiplier = np.exp(-t * (phase + _diffusion_form(limit, grid)))
    return _like(moment * multiplier[None, :], field)


def evolve_parabolic_psi(limit: ParabolicLimit, field: GridField, t: float) -> GridField:
    """Refined profile ``exp(-k.Dk t) (P0 + sum_h i k_h P1_h)``, no drift."""
    _check_parabolic(limit, field, t)
    moment = _invariant(field, "psi_moment", limit, lambda: _psi_moment(limit, field))
    multiplier = np.exp(-t * _diffusion_form(limit, field.grid))
    return _like(moment * multiplier[None, :], field)


@dataclass(frozen=True)
class InitialData:
    """Generated initial field together with its reference norms."""

    field: GridField
    norms: dict[str, float]


def make_initial_data(
    grid: PeriodicGrid,
    components: int,
    kind: str,
    *,
    seed: int = 0,
    amplitudes: tuple[float, ...] | None = None,
    sigma: float = 1.0,
    radius: float = 1.0,
    band: tuple[float, float] = (0.5, 1.5),
) -> InitialData:
    """Deterministic localized initial data of a named kind.

    ``gaussian`` scales ``exp(-|x|^2 / 2 sigma^2)`` per component;
    ``bump`` uses a compactly supported profile of the given support radius;
    ``random-band`` draws seeded white noise and keeps the frequency annulus
    ``band``.  Amplitudes default to seeded values in ``[0.5, 1.5]`` with
    alternating signs.

    Raises:
        SupportTooWideError: if Gaussian boundary tails exceed 1e-12 of the
            peak, or a bump support does not fit in the box.
    """
    if components < 1:
        raise ValueError("need at least one field component")
    rng = np.random.default_rng(seed)
    if amplitudes is None:
        signs = np.where(np.arange(components) % 2 == 0, 1.0, -1.0)
        amplitude_array = rng.uniform(0.5, 1.5, size=components) * signs
    else:
        amplitude_array = np.asarray(amplitudes, dtype=float)
        if amplitude_array.shape != (components,):
            raise ValueError(
                f"expected {components} amplitudes, got {amplitude_array.shape}"
            )

    if kind == "gaussian":
        if not sigma > 0:
            raise ValueError("gaussian width must be positive")
        tail = np.exp(-grid.half_width**2 / (2.0 * sigma**2))
        if tail >= 1e-12:
            raise SupportTooWideError(
                f"gaussian boundary tail {tail:.3e} exceeds 1e-12 of the peak; "
                f"shrink sigma or enlarge the box"
            )
        profile = np.exp(-grid.radius_squared() / (2.0 * sigma**2))
        values = amplitude_array.reshape((-1,) + (1,) * grid.dimension) * profile
    elif kind == "bump":
        if not radius > 0:
            raise ValueError("bump radius must be positive")
        if radius >= grid.half_width:
            raise SupportTooWideError(
                f"bump of radius {radius} does not fit in a box of half-width "
                f"{grid.half_width}"
            )
        squared = grid.radius_squared() / radius**2
        profile = np.zeros(grid.shape)
        interior = squared < 1.0
        profile[interior] = np.exp(1.0 - 1.0 / (1.0 - squared[interior]))
        values = amplitude_array.reshape((-1,) + (1,) * grid.dimension) * profile
    elif kind == "random-band":
        low, high = band
        if not 0 <= low < high:
            raise ValueError(f"band must satisfy 0 <= low < high, got {band}")
        noise = rng.standard_normal((components,) + grid.shape)
        spectrum = to_frequency(GridField(grid, noise, PHYSICAL)).values
        moduli = np.linalg.norm(grid.frequency_vectors(), axis=-1).reshape(grid.shape)
        mask = (moduli >= low) & (moduli <= high)
        spectrum *= mask[None]
        shaped = to_physical(GridField(grid, spectrum, FREQUENCY)).values.real
        axes = tuple(range(1, 1 + grid.dimension))
        scale = np.max(np.abs(shaped), axis=axes, keepdims=True)
        scale[scale == 0.0] = 1.0
        values = amplitude_array.reshape((-1,) + (1,) * grid.dimension) * shaped / scale
    else:
        raise ValueError(
            f"unknown initial data kind {kind!r}; expected gaussian, bump, "
            f"or random-band"
        )

    field = GridField(grid, values.astype(complex), PHYSICAL)
    norms = {
        "l1": lp_norm(field, 1),
        "l2": lp_norm(field, 2),
        "linf": lp_norm(field, np.inf),
    }
    return InitialData(field=field, norms=norms)


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
