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
other members of an orbit take ``T V`` and ``V^-1 T^-1``.  When the lift of
``k -> -k`` squares to a positive multiple of ``I``, the system's real form
(:attr:`~hyprelax.model.HyperbolicSystem.real_form`) gives ``S`` with
``S^-1 E(ik) S`` real, and the representatives are factored in real
arithmetic as ``V = S V_F``, ``V^-1 = V_F^-1 S^-1``; other systems factor the
complex symbols.  Symbols whose eigenvector basis is ill-conditioned go
through the Pade-13 :func:`~hyprelax.linalg.matrix_exponential` instead, and
every propagation re-checks the weakest factored symbols against it.  The
low-frequency part ``u1`` applies the 0-group eigenprojection of the same
factorization under a smooth cutoff (audited against the contour projection
at the first propagation), and the remainder is ``u2 = u - u1``, which is
``u`` off the band.  The tests keep the Pade path
for every symbol as the independent reference.  The parabolic comparison profiles apply the
drift/diffusion multiplier with the zeroth-order (phi) or first-order (psi)
projection moment.

The splitter is the engine: it holds what depends on the system and grid
only.  :meth:`FrequencySplitter.prepare` turns a field into a :class:`Datum`
that owns a read-only spectrum, its only grid field, and keeps the small
tables that depend on the datum but not on the time: its band moment, the
profile moments' band rows and their tails off the band summed per orbit,
and the Hermitian form of its ``L^2`` norms.  Each piece is computed at its
first use, and the evolutions return frequency fields.  The modal
coefficients are not kept: each pass computes them from the spectrum one
group element at a time.  :meth:`FrequencySplitter.l2_norms` takes the
``L^2`` norms of ``u``, ``u2`` and the profile gaps from the form, the few
members outside it and the per-orbit tails, so a time that needs no other
norm touches no full-grid array.

The box is a whole-space surrogate: experiments must keep data supports and
propagation cones away from the boundary (the decay harness enforces the
corresponding guard).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chapman import (
    ParabolicLimit,
    calibrate_separation_radius,
    compute_parabolic_limit,
    exact_group_projection,
    zero_group,
)
from .linalg import matrix_exponential
from .model import HyperbolicSystem, lift_axis_map

__all__ = [
    "SpectralError",
    "WrongRepresentationError",
    "SupportTooWideError",
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
    "evolve_parabolic_phi",
    "evolve_parabolic_psi",
    "make_initial_data",
]

PHYSICAL = "physical"
FREQUENCY = "frequency"

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

    def axis_frequencies(self) -> list[np.ndarray]:
        """The frequencies of each axis ``h``, shaped to broadcast along axis
        ``h`` of the grid, so a whole-grid function of ``k`` is summed from
        them without an ``(N^d, d)`` table of frequency vectors."""
        axes = [self.frequency_axis()] * self.dimension
        return list(np.meshgrid(*axes, indexing="ij", sparse=True))

    def frequencies(self, members) -> np.ndarray:
        """The frequency vectors ``(..., d)`` of the flat (C-ordered) grid
        members ``members``."""
        axis = self.frequency_axis()
        return np.stack([axis[index] for index in np.unravel_index(members, self.shape)], axis=-1)

    def moduli(self) -> np.ndarray:
        """``|k|`` at every grid member, flat: ``k_h^2`` summed in axis order,
        as ``np.linalg.norm`` sums a frequency vector's entries."""
        total = np.zeros(self.shape)
        for k in self.axis_frequencies():
            total += k * k
        return np.sqrt(total, out=total).reshape(-1)

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


def to_physical(field: GridField, out: np.ndarray | None = None) -> GridField:
    """Inverse of :func:`to_frequency`, written into ``out`` when given (numpy's
    argument; ``out=field.values`` transforms in place, bit for bit as into a
    new array, and leaves ``field`` holding physical values)."""
    _require(field, FREQUENCY)
    axes = tuple(range(1, 1 + field.grid.dimension))
    if out is None:
        out = np.empty_like(field.values)
    values = np.fft.ifftn(field.values, axes=axes, norm="ortho", out=out)
    return GridField(field.grid, values, PHYSICAL)


def _sum_of_squares(values: np.ndarray) -> float:
    """``sum |v|^2`` of a complex array: one real dot over the interleaved real
    and imaginary parts, with no BLAS call (which would start its threads)."""
    flat = np.ascontiguousarray(values).reshape(-1).view(float)
    return float(np.einsum("i,i->", flat, flat))


def _real_product(matrix: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``matrix @ values`` for a real matrix and complex rows whose last axis
    is contiguous: one real einsum over the interleaved real and imaginary
    parts, with no BLAS call (which would start its threads)."""
    return np.einsum("ij,jm->im", matrix, values.view(float)).view(complex)


def lp_norm(field: GridField, p: float) -> float:
    """Riemann-sum L^p norm with Euclidean norm across components.

    ``p = inf`` returns the maximum pointwise component-norm; finite ``p``
    weights each grid cell by its volume.  At ``p = 2`` the field may be a
    frequency field: the transform is unitary, so ``cell_volume sum |f^|^2``
    equals ``cell_volume sum |f|^2`` (Parseval) for real and complex data.
    Every other ``p`` needs a physical field.
    """
    if not p >= 1:
        raise ValueError(f"norm order must satisfy p >= 1, got {p}")
    if p == 2:
        return math.sqrt(_sum_of_squares(field.values) * field.grid.cell_volume)
    _require(field, PHYSICAL)
    pointwise = np.sqrt(np.sum(np.abs(field.values) ** 2, axis=0))
    if np.isinf(p):
        return float(np.max(pointwise))
    total = np.sum(pointwise**p) * field.grid.cell_volume
    return float(total ** (1.0 / p))


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


def _search(listed: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``values`` in the ascending ``listed``, and whether each is
    there."""
    if not listed.size:
        return np.zeros(np.shape(values), dtype=np.intp), np.zeros(np.shape(values), dtype=bool)
    position = np.minimum(np.searchsorted(listed, values), listed.size - 1)
    return position, listed[position] == values


@dataclass(frozen=True)
class _Orbits:
    """Orbits of the grid frequencies under a group of symbol symmetries.

    Element ``g`` maps the frequency ``k`` to ``R_g k`` (a signed permutation
    of the axes) with ``E(i R_g k) = T_g E(ik)^(c_g) T_g^-1``, where ``E^(1)``
    is the complex conjugate.  Every grid member is ``R_g`` applied to the
    representative of its orbit for exactly one ``g``: ``members[g]`` lists
    those members in ascending flat order and ``columns[g]`` the positions of
    their orbits in ``representatives``.  A representative maps to itself by
    the identity (element 0), and a member on a Nyquist plane is its own
    representative, since negating its Nyquist coordinate leaves the grid.
    No table is indexed by grid member: each list holds about ``1/G`` of the
    grid, as ``int32``.
    """

    rotations: np.ndarray
    transforms: np.ndarray
    inverses: np.ndarray
    conjugate: np.ndarray
    representatives: np.ndarray
    members: tuple[np.ndarray, ...]
    columns: tuple[np.ndarray, ...]

    def lift(self, g: int, block: np.ndarray, inverse: bool = False) -> np.ndarray:
        """``block = (M block)^(c_g)`` in place, ``M`` = ``T_g`` (or ``T_g^-1``
        with ``inverse``), for a ``(components, ...)`` block.

        An element whose ``M`` is the identity is only conjugated (when
        ``c_g``).  Otherwise one scaled row per nonzero entry, from a copy of
        the block: a lift of an axis map is exact, so a signed permutation
        costs one row per row, and a ``matmul`` would start BLAS threads that
        keep spinning through the rest of the step.
        """
        matrix = (self.inverses if inverse else self.transforms)[g]
        if not np.array_equal(matrix, np.eye(matrix.shape[0])):
            source = block.copy()
            for i, row in enumerate(matrix):
                first, *others = np.flatnonzero(row)
                np.multiply(source[first], row[first], out=block[i])
                for j in others:
                    block[i] += row[j] * source[j]
        if self.conjugate[g]:
            np.conjugate(block, out=block)
        return block

    def locate(self, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The element ``g`` and the orbit (position in ``representatives``)
        of each of ``members``, by a binary search of each element's list."""
        members = np.asarray(members)
        element = np.empty(members.shape, dtype=np.intp)
        orbit = np.empty(members.shape, dtype=np.intp)
        for g, (listed, columns) in enumerate(zip(self.members, self.columns)):
            position, found = _search(listed, members)
            element[found] = g
            orbit[found] = columns[position[found]]
        return element, orbit

    def orbit_map(self) -> np.ndarray:
        """The orbit of every grid member, in a new array."""
        orbit = np.empty(sum(listed.size for listed in self.members), dtype=np.intp)
        for listed, columns in zip(self.members, self.columns):
            orbit[listed] = columns
        return orbit

    def compose(self, members, values, vectors, inverse):
        """``lambda``, ``V`` and ``V^-1`` of grid members from the factors of
        their representatives: ``lambda^(c)``, ``T V^(c)`` and ``V^-1^(c) T^-1``.

        ``values`` is ``(components, orbits)``; ``vectors`` and ``inverse``
        are indexed ``(orbit, row, column)``.  Returns the members' values as
        ``(members, components)`` and their factors as ``(members, n, n)``.
        """
        g, r = self.locate(members)
        conjugate = self.conjugate[g][:, None]
        values = values[:, r].T
        vectors, inverse = vectors[r], inverse[r]
        values = np.where(conjugate, values.conj(), values)
        vectors = np.where(conjugate[..., None], vectors.conj(), vectors)
        inverse = np.where(conjugate[..., None], inverse.conj(), inverse)
        return values, self.transforms[g] @ vectors, inverse @ self.inverses[g]


def _grid_orbits(system: HyperbolicSystem, grid: PeriodicGrid) -> _Orbits:
    """The orbit map of ``grid`` under the symmetries of ``system``.

    Each orbit's representative is its smallest flat index.  The member-wide
    arrays built here are dropped once the per-element lists exist.

    Raises:
        SpectralError: if the grid has too many points for ``int32`` member
            lists.
    """
    if grid.total_points > np.iinfo(np.int32).max:
        raise SpectralError(
            f"a grid of {grid.total_points} points does not fit the engine's int32 member lists"
        )
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
    nearest = np.arange(grid.total_points)
    through = np.zeros(nearest.size, dtype=np.min_scalar_type(len(elements)))
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
        ],
        dtype=through.dtype,
    )
    is_representative = nearest == np.arange(nearest.size)
    representatives = np.flatnonzero(is_representative)
    orbit = (np.cumsum(is_representative, dtype=np.int32) - 1)[nearest]
    del nearest
    element = inverse_of[through]
    # A stable sort of 8-bit keys is a radix sort: one pass, members ascending
    # within each element.
    order = np.argsort(element, kind="stable").astype(np.int32)
    bounds = np.cumsum(np.bincount(element, minlength=len(elements)))[:-1]
    members = tuple(part.copy() for part in np.split(order, bounds))
    return _Orbits(
        rotations=rotations,
        transforms=transforms,
        inverses=np.linalg.inv(transforms),
        conjugate=np.array([conjugate for _, _, conjugate in elements]),
        representatives=representatives,
        members=members,
        columns=tuple(orbit[listed] for listed in members),
    )


def _ranked_members(
    orbits: _Orbits, orbit_condition: np.ndarray, lift_condition: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """The audit members, the fallback members and the largest condition bound.

    A member's bound is ``cond_2(T_g) |V|_F |V^-1|_F``.  The members above
    :data:`CONDITION_LIMIT` fall back, in ascending flat order.  The audit
    takes the ``_AUDIT_MEMBERS`` worst of the others, then the worst that each
    non-identity element maps, without repeats: the members that one stable
    descending sort of every member's bound (ties to the larger flat index)
    would rank first.  Each element contributes its few worst members, so the
    grid is never sorted.
    """
    worst, fallback, heads = [], [], []
    for g, (members, columns) in enumerate(zip(orbits.members, orbits.columns)):
        condition = lift_condition[g] * orbit_condition[columns]
        if members.size:
            worst.append(np.max(condition))
        trusted = condition <= CONDITION_LIMIT
        fallback.append(members[~trusted])
        members, condition = members[trusted], condition[trusted]
        if members.size > _AUDIT_MEMBERS:
            keep = condition >= np.partition(condition, -_AUDIT_MEMBERS)[-_AUDIT_MEMBERS]
            members, condition = members[keep], condition[keep]
        order = np.lexsort((members, condition))[::-1][:_AUDIT_MEMBERS]
        heads.append((members[order], condition[order]))
    members = np.concatenate([members for members, _ in heads])
    condition = np.concatenate([condition for _, condition in heads])
    ranked = members[np.lexsort((members, condition))[::-1]]
    # The worst members of the grid, then the worst that each non-identity
    # element maps, so a wrong transform cannot escape the audit.
    audit = np.concatenate([ranked[:_AUDIT_MEMBERS], *(members[:1] for members, _ in heads[1:])])
    audit = np.array(list(dict.fromkeys(audit.tolist())), dtype=np.intp)
    return audit, np.sort(np.concatenate(fallback)).astype(np.intp), float(np.max(worst))


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
    ``orbits.compose``.  Its condition bound is
    ``lift_condition[g] * orbit_condition[r]``: ``cond_2(T_g)`` per element
    times ``|V|_F |V^-1|_F`` per orbit, which bounds the estimate
    ``|T V|_F |V^-1 T^-1|_F`` of its composed factors; ``worst_condition`` is
    the largest over the grid.  ``fallback`` lists the members whose bound
    fails the condition guard, ``audit`` the factored members checked at
    every propagation, and ``exact_symbols`` the symbols of both, audit
    first: the only rows of the symbol stack that are kept.  ``audit_factors``
    holds the audit members' ``lambda``, ``T V`` and ``V^-1 T^-1``, composed
    once.  ``band_values`` and ``band_projections`` are the band table of
    ``_projection_table``.
    """

    orbits: _Orbits
    values: np.ndarray
    vectors: np.ndarray
    inverse: np.ndarray
    orbit_condition: np.ndarray
    lift_condition: np.ndarray
    worst_condition: float
    fallback: np.ndarray
    audit: np.ndarray
    exact_symbols: np.ndarray
    audit_factors: tuple[np.ndarray, np.ndarray, np.ndarray]
    band_values: np.ndarray
    band_projections: np.ndarray


@dataclass(frozen=True)
class _FormLayout:
    """Which members the per-datum form (:attr:`Datum.form`) sums.

    ``slots`` ``(element, orbit)`` marks the members in the form: off the band,
    with a condition bound of at most ``sqrt(CONDITION_LIMIT)``, since the
    form squares the condition.  ``grams[gram[g]]`` is ``V_r^H T_g^T T_g V_r``
    indexed ``(row, column, orbit)``, one per distinct ``T_g^T T_g``.
    ``direct`` lists the other members, the band first and in band order;
    ``composed`` gives the positions in ``direct`` of its factored members,
    whose composed factors ``lambda``, ``T V`` and ``V^-1 T^-1`` are
    ``factors``, and ``fallback`` the positions of the fallback members, in
    their order.
    """

    slots: np.ndarray
    gram: np.ndarray
    grams: np.ndarray
    direct: np.ndarray
    composed: np.ndarray
    factors: tuple[np.ndarray, np.ndarray, np.ndarray]
    fallback: np.ndarray


# Grid members per pass of the psi moment's first-order terms and of a
# profile's factor: each is formed for this many members at a time, not for
# the whole grid.
_MOMENT_CHUNK = 1 << 12


class FrequencySplitter:
    """The spectral engine of one system on one grid.

    It holds what no datum changes, each piece computed at its first use: the
    cutoff band ``chi1 > 0`` (at construction, as the flat indices
    :attr:`band`), the factorization (at the first :meth:`decompose` or
    :meth:`l2_norms`), the layout of the per-datum forms (with the first form),
    and the parabolic :attr:`limit` (at the first profile).  Beside the
    transient arrays of a call, it holds no array indexed by grid member:
    its tables are per orbit, per element or per band member.
    :meth:`prepare` turns a field into the :class:`Datum` that
    :meth:`decompose`, :meth:`l2_norms`, :func:`evolve_parabolic_phi` and
    :func:`evolve_parabolic_psi` take.

    The factorization splits the grid into orbits of the group generated by
    conjugation ``E(-ik) = conj(E(ik))`` and the axis reflections and swaps
    ``R`` that lift to the system (``E(iRk) = T E(ik) T^-1``), and factors one
    representative per orbit as ``V diag(lambda) V^-1``: the member ``Rk`` has
    ``lambda``, ``T V`` and ``V^-1 T^-1`` (conjugated first when the element
    includes conjugation).  A system with a real form factors the real
    symbols ``S^-1 E(ik) S = V_F diag(lambda) V_F^-1`` in one real ``eig`` and
    stores ``V = S V_F`` and ``V^-1 = V_F^-1 S^-1``; one without factors the
    complex symbols in the same call.  Of the symbols it keeps only the rows
    the checks below reuse.  The 0-group projection at each band member is Kato's
    rank-one ``P0 = v w^T`` from the right and left eigenvectors of the
    eigenvalue nearest zero.  A :meth:`decompose` at time ``t`` then costs
    ``exp(-t lambda)`` per orbit and one pass over the group elements: for each
    element ``g`` the block ``c_g = V^-1 (T_g^-1 u)^(c_g)`` of the datum's
    modal coefficients (components by orbits), ``V (exp(-t lambda) * c_g)``,
    one ``T_g`` product when ``T_g`` is not the identity, and one scatter to
    the members ``g`` maps; then ``exp(-t lambda0)`` on the band.
    :meth:`l2_norms` costs ``exp(-t lambda)`` per orbit, one Hermitian form
    per orbit, the band and the few ill-conditioned members one by one, and
    ``exp(-2t k.Dk)`` per orbit for the profiles off the band (``k.Dk`` is the
    same at every member of an orbit).  A datum's first :meth:`l2_norms` also
    sums its form, in a pass of its own over the elements that map a member
    in it; each pass does one thing, so no pass holds ``u`` beside the form.

    A member whose condition bound ``cond_2(T) |V|_F |V^-1|_F`` exceeds
    :data:`CONDITION_LIMIT` is exponentiated by
    :func:`~hyprelax.linalg.matrix_exponential` (and, in the band, projected
    by :func:`~hyprelax.chapman.exact_group_projection`) instead; their
    number is :attr:`fallback_count`.  Every time recomputes with the Pade
    exponential, in one call that also yields the fallback members, the four
    worst-conditioned factored members and the worst-conditioned member each
    non-identity element maps; every datum measured at that time reuses the
    call.  The first propagation also recomputes the worst-conditioned band
    projection by contour quadrature.  A relative mismatch above 1e-10 raises
    :class:`SpectralError`.

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
        weights = self.cut.chi1(grid.moduli())
        band = np.flatnonzero(weights > 0.0)
        band.flags.writeable = False
        self.band = band
        self._band_weights = weights[band]
        self._last_step: tuple[float, np.ndarray] | None = None

    def _moduli(self, members) -> np.ndarray:
        """``|k|`` at the grid members ``members``."""
        return np.linalg.norm(self.grid.frequencies(members), axis=-1)

    def _projection_table(self, values, vectors, inverse, condition):
        """Eigenvalue nearest zero and its eigenprojection at each band member,
        from the band's rows of the grid factorization."""
        band = self.band
        members = np.arange(band.size)
        k = self.grid.frequencies(band)
        nearest = zero_group(values, self.system.symbol(k), k)
        zero_values = values[members, nearest]
        right = vectors[members, :, nearest]
        left = inverse[members, nearest, :]
        projections = right[:, :, None] * left[:, None, :]
        trusted = condition <= CONDITION_LIMIT
        for member in np.flatnonzero(~trusted):
            projections[member] = exact_group_projection(self.system, k[member])
        if np.any(trusted):
            worst = int(np.argmax(np.where(trusted, condition, -np.inf)))
            exact = exact_group_projection(self.system, k[worst])
            mismatch = np.linalg.norm(projections[worst] - exact) / np.linalg.norm(exact)
            if not mismatch <= _AUDIT_TOLERANCE:
                raise SpectralError(
                    f"rank-one 0-group projection at |k| = "
                    f"{self._moduli(band[worst]):.6g} differs from the contour "
                    f"projection by {mismatch:.3e} relative"
                )
        return zero_values, projections

    @cached_property
    def _eigenbasis(self) -> _Eigenbasis:
        """One factorization per orbit, with the band table and the audit rows."""
        orbits = _grid_orbits(self.system, self.grid)
        k = self.grid.frequencies(orbits.representatives)
        form = self.system.real_form
        # With a real form E = S M S^-1 and M = V_F diag(lambda) V_F^-1 is
        # factored in real arithmetic: V = S V_F and V^-1 = V_F^-1 S^-1.
        # Without one, E itself is factored and S is I.
        if form is None:
            eye = np.eye(self.system.size)
            symbols, left, right = self.system.symbol(k), eye, eye
        else:
            symbols, left, right = self.system.real_symbol(k), form.transform, form.inverse
        values, vectors = np.linalg.eig(symbols)
        # eig returns a real pair when every eigenvalue of the stack is real.
        values, vectors = values.astype(complex, copy=False), vectors.astype(complex, copy=False)
        inverse = np.linalg.inv(vectors)
        # Stored orbit-last in C order, so the per-time apply and the forms read
        # them contiguously; einsum, as a batched matmul would start BLAS threads.
        vectors = np.einsum("ij,rjk->ikr", left, vectors, order="C").transpose(2, 0, 1)
        inverse = np.einsum("rij,jk->ikr", inverse, right, order="C").transpose(2, 0, 1)
        values = np.ascontiguousarray(values.T)
        orbit_condition = _basis_condition(vectors, inverse)
        lift_condition = np.linalg.cond(orbits.transforms)
        audit, fallback, worst = _ranked_members(orbits, orbit_condition, lift_condition)
        band = self.band
        g, r = orbits.locate(band)
        band_values, band_vectors, band_inverse = orbits.compose(band, values, vectors, inverse)
        band_values, band_projections = self._projection_table(
            band_values, band_vectors, band_inverse, lift_condition[g] * orbit_condition[r]
        )
        exact_rows = np.concatenate([audit, fallback])
        return _Eigenbasis(
            orbits=orbits,
            values=values,
            vectors=vectors,
            inverse=inverse,
            orbit_condition=orbit_condition,
            lift_condition=lift_condition,
            worst_condition=worst,
            fallback=fallback,
            audit=audit,
            exact_symbols=self.system.symbol(self.grid.frequencies(exact_rows)),
            audit_factors=orbits.compose(audit, values, vectors, inverse),
            band_values=band_values,
            band_projections=band_projections,
        )

    @cached_property
    def _form_layout(self) -> _FormLayout:
        """The members of the per-datum form and the factors of the others."""
        basis = self._eigenbasis
        orbits = basis.orbits
        size, band = self.system.size, self.band
        slots = np.zeros((orbits.transforms.shape[0], orbits.representatives.size), dtype=bool)
        others = []
        for g, (members, columns) in enumerate(zip(orbits.members, orbits.columns)):
            off_band = ~_search(band, members)[1]
            condition = basis.lift_condition[g] * basis.orbit_condition[columns]
            summed = off_band & (condition <= math.sqrt(CONDITION_LIMIT))
            slots[g, columns[summed]] = True
            others.append(members[off_band & ~summed])
        others = np.sort(np.concatenate(others)).astype(np.intp)
        products = np.einsum("gki,gkj->gij", orbits.transforms, orbits.transforms)
        distinct, gram = np.unique(
            products.reshape(products.shape[0], -1), axis=0, return_inverse=True
        )
        # Column by column, so no temporary is as large as a Gram stack.
        vectors = basis.vectors.transpose(1, 2, 0)
        grams = np.empty((distinct.shape[0],) + vectors.shape, dtype=complex)
        for product, stack in zip(distinct, grams):
            for j in range(size):
                column = np.einsum("kl,lr->kr", product.reshape(size, size), vectors[:, j])
                for i in range(size):
                    np.einsum("kr,kr->r", vectors[:, i].conj(), column, out=stack[i, j])
        direct = np.concatenate([band, others])
        position, in_band = _search(band, basis.fallback)
        fallback = np.where(
            in_band, position, band.size + np.searchsorted(others, basis.fallback)
        )
        factored = np.ones(direct.size, dtype=bool)
        factored[fallback] = False
        composed = np.flatnonzero(factored)
        return _FormLayout(
            slots=slots,
            gram=gram.reshape(-1),
            grams=grams,
            direct=direct,
            composed=composed,
            factors=orbits.compose(direct[composed], basis.values, basis.vectors, basis.inverse),
            fallback=fallback,
        )

    @property
    def fallback_count(self) -> int:
        """Number of grid symbols propagated by the Pade fallback."""
        return int(self._eigenbasis.fallback.size)

    @property
    def worst_condition(self) -> float:
        """Largest eigenvector-basis condition estimate over the grid."""
        return self._eigenbasis.worst_condition

    @cached_property
    def limit(self) -> ParabolicLimit:
        """The parabolic limit of the system."""
        return compute_parabolic_limit(self.system)

    @cached_property
    def _band_drift(self) -> np.ndarray:
        """``c.ik`` at the band members."""
        return self.limit.drift_phase(self.grid.frequencies(self.band))

    @cached_property
    def _band_diffusion(self) -> np.ndarray:
        """``k.Dk`` at the band members."""
        return self.limit.diffusion_form(self.grid.frequencies(self.band))

    def _profile_factor(self, name: str, t: float, members: np.ndarray) -> np.ndarray:
        """``exp(-t (c.ik + k.Dk))`` (``"phi"``) or ``exp(-t k.Dk)``
        (``"psi"``) at the grid members ``members``, in a new array."""
        # The terms of ``diffusion_form`` and ``drift_phase`` in their order,
        # each a product of the members' frequencies.
        k = self.grid.frequencies(members)
        diffusion, drift = self.limit.diffusion, self.limit.drift
        exponent = np.zeros(members.size)
        for h, l in np.ndindex(diffusion.shape):
            exponent += (k[:, h] * diffusion[h, l]) * k[:, l]
        if name == "phi":
            phase = np.zeros(members.size)
            for h, c in enumerate(drift):
                phase += k[:, h] * c
            exponent = 1j * phase + exponent
        return np.exp(-t * exponent)

    @cached_property
    def _orbit_diffusion(self) -> np.ndarray:
        """``k.Dk`` at each orbit's representative: every lifted element keeps
        the 0-branch, so ``k.Dk`` is the same at every member of an orbit."""
        representatives = self._eigenbasis.orbits.representatives
        return self.limit.diffusion_form(self.grid.frequencies(representatives))

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

    def _fallback_exponentials(self, t: float) -> np.ndarray:
        """``exp(-t E)`` at the fallback members, from the time's one Pade
        call, which also audits the factored propagator.

        The audit compares ``exp(-t (E - mu I))``, ``mu`` the smallest
        ``Re lambda`` of each member (Higham, SIMAX 2005), so its Pade side
        does not underflow at late times.  Neither depends on the datum, so
        the result for the last time is kept: every datum measured at that
        time reuses it."""
        if self._last_step is not None and self._last_step[0] == t:
            return self._last_step[1]
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
                f"eigenvector propagator at |k| = {self._moduli(audit[worst]):.6g}, "
                f"t = {t:g} differs from the Pade exponential by "
                f"{mismatch[worst]:.3e} relative"
            )
        self._last_step = (t, exact[audit.size :])
        return self._last_step[1]

    def _coefficients(self, datum: Datum, g: int):
        """Element ``g``'s members and their orbits (``intp``) and its block
        ``c_g = V^-1 (T_g^-1 u)^(c_g)`` of the datum's modal coefficients
        (components by orbits, 0 where ``g`` maps no member), computed from
        the spectrum in a new array.

        A pass over the group elements takes one block at a time and drops it
        before the next, so the coefficients of the whole grid are never held.
        """
        basis = self._eigenbasis
        orbits = basis.orbits
        spectrum = datum.spectrum
        # Row by row with intp indices: numpy's 1-D take and scatter run
        # several times faster than one 2-D fancy index.
        members, columns = orbits.members[g].astype(np.intp), orbits.columns[g].astype(np.intp)
        block = np.zeros((spectrum.shape[0], orbits.representatives.size), dtype=complex)
        for row, source in zip(block, spectrum):
            row[columns] = source.take(members)
        inverse = basis.inverse.transpose(1, 2, 0)
        coefficients = np.einsum("ijr,jr->ir", inverse, orbits.lift(g, block, inverse=True))
        return members, columns, coefficients

    def _propagate(self, datum: Datum, t: float) -> np.ndarray:
        """``u(t)`` as a new flat spectrum, from one pass over the group
        elements: each block ``c_g`` goes through ``V (exp(-t lambda) o c_g)``
        and ``T_g`` and is scattered to the members ``g`` maps; the fallback
        members take the time's Pade rows.  Beside ``u``, nothing larger than
        one block is allocated: ``V o exp(-t lambda)`` is formed one row at a
        time."""
        basis = self._eigenbasis
        orbits = basis.orbits
        spectrum = datum.spectrum
        exponentials = self._fallback_exponentials(t)
        vectors = basis.vectors.transpose(1, 2, 0)
        decay = np.exp(-t * basis.values)
        decayed = np.empty_like(decay)
        full = np.empty_like(spectrum)
        for g in range(len(orbits.members)):
            members, columns, coefficients = self._coefficients(datum, g)
            # V (exp(-t lambda) o c), one row of V o exp(-t lambda) at a time:
            # the sums of the whole table's einsum, bit for bit.
            propagated = np.empty_like(coefficients)
            for row, vector_row in zip(propagated, vectors):
                np.multiply(vector_row, decay, out=decayed)
                np.einsum("jr,jr->r", decayed, coefficients, out=row)
            del coefficients
            orbits.lift(g, propagated)
            for row, source in zip(full, propagated):
                row[members] = source.take(columns)
            del propagated
        full[:, basis.fallback] = np.einsum("fij,jf->if", exponentials, spectrum[:, basis.fallback])
        return full

    def _sum_form(self, datum: Datum) -> tuple[np.ndarray, np.ndarray]:
        """The datum's form (see :attr:`Datum.form`), from one pass over the
        group elements that map a member in it.  Beside the form, nothing
        larger than one block is allocated: its terms are gathered one
        ``(row, column)`` pair at a time in one orbit-sized scratch array."""
        layout = self._form_layout
        spectrum = datum.spectrum
        size = spectrum.shape[0]
        weights = np.zeros(layout.grams.shape[1:], dtype=complex)
        scratch = np.empty(weights.shape[-1], dtype=complex)
        for g, slots in enumerate(layout.slots):
            if not slots.any():
                continue
            _, _, coefficients = self._coefficients(datum, g)
            # W_r += G_r o (conj(c) c^T) over the slots in the form, each
            # product in the order of the whole-array one (a complex product
            # with FMA is not symmetric).
            coefficients[:, ~slots] = 0.0
            conjugate = coefficients.conj()
            gram = layout.grams[layout.gram[g]]
            for i, j in np.ndindex(size, size):
                np.multiply(conjugate[i], coefficients[j], out=scratch)
                np.multiply(gram[i, j], scratch, out=scratch)
                weights[i, j] += scratch
            del conjugate, coefficients
        _, _, inverse = layout.factors
        members = layout.direct[layout.composed]
        return weights, np.einsum("mij,jm->mi", inverse, spectrum[:, members])

    def decompose(self, datum: Datum, t: float) -> tuple[GridField, np.ndarray]:
        """Evolve and split in one pass; returns the frequency field ``u`` and
        the rows of ``u1`` at the band members :attr:`band` (``(components,
        band size)``; ``u1`` is 0 off the band).

        ``u1 = chi1 exp(-t lambda0) P0(ik) u`` propagates the cutoff-projected
        band (``E P0 = lambda0 P0``), and ``u2 = u - u1``, so ``u2`` is ``u``
        off the band (:meth:`remainder_norm` sums its norm).  It sums no form:
        the datum's form is summed in a pass of its own, at its first
        :meth:`l2_norms`, so no step holds ``u`` beside the form.

        Raises:
            ValueError: if ``t < 0`` or another splitter prepared ``datum``.
        """
        _check_time(t)
        if datum.splitter is not self:
            raise ValueError("the datum was prepared by another splitter")
        full = self._propagate(datum, t)
        low = datum._band_moment * np.exp(-t * self._eigenbasis.band_values)
        return _frequency_field(self.grid, full), low

    def remainder_norm(self, u: GridField, low: np.ndarray) -> float:
        """``|u2|_2`` of :meth:`decompose`'s ``u`` and ``u1`` band rows ``low``.

        It is summed on ``u``'s own array, with the band rows replaced by
        ``u - u1`` and then restored, so no second grid field is built.
        """
        _require(u, FREQUENCY)
        full = u.flat()
        rows = full[:, self.band]
        full[:, self.band] = rows - low
        high = _sum_of_squares(full)
        full[:, self.band] = rows
        return math.sqrt(high * self.grid.cell_volume)

    def l2_norms(
        self, datum: Datum, t: float, profiles=("phi", "psi")
    ) -> tuple[float, float, dict[str, float]]:
        """``|u|_2``, ``|u2|_2`` and ``|u1 - P|_2`` for each named profile ``P``
        (``"phi"``, ``"psi"``) at time ``t``, the norms of :meth:`decompose`'s
        fields and of the gaps to :func:`evolve_parabolic_phi` and
        :func:`evolve_parabolic_psi`, without building a grid field.

        The members of the datum's form contribute ``sum_r E_r^H W_r E_r``
        with ``E_r = exp(-t lambda_r)``; the other members (the band, the
        fallback members and the rest above ``sqrt(CONDITION_LIMIT)``) are
        propagated one by one, from composed factors or from the time's Pade
        rows.  Off the band ``u1`` is 0, so a gap is the profile there:
        ``sum_r tail_r exp(-2t k_r.Dk_r)`` over the orbits, with the datum's
        per-orbit tails and ``k_r`` the representative.  Every norm is a sum
        over disjoint sets of members, and no squared norm is subtracted.

        Raises:
            ValueError: if ``t < 0``, another splitter prepared ``datum`` or a
                profile name is unknown.
        """
        _check_time(t)
        if datum.splitter is not self:
            raise ValueError("the datum was prepared by another splitter")
        unknown = set(profiles) - {"phi", "psi"}
        if unknown:
            raise ValueError(f"unknown profiles {sorted(unknown)}; expected phi or psi")
        basis = self._eigenbasis
        exponentials = self._fallback_exponentials(t)
        layout = self._form_layout
        weights, coefficients = datum.form
        decay = np.exp(-t * basis.values)
        summed = np.einsum("ir,ir->", decay.conj(), np.einsum("ijr,jr->ir", weights, decay))
        values, vectors, _ = layout.factors
        direct = np.empty((self.system.size, layout.direct.size), dtype=complex)
        direct[:, layout.composed] = np.einsum(
            "mij,mj->im", vectors, np.exp(-t * values) * coefficients
        )
        direct[:, layout.fallback] = np.einsum(
            "fij,jf->if", exponentials, datum.spectrum[:, basis.fallback]
        )
        band = self.band
        low = datum._band_moment * np.exp(-t * basis.band_values)
        others = summed.real + _sum_of_squares(direct[:, band.size :])
        full = others + _sum_of_squares(direct[:, : band.size])
        high = others + _sum_of_squares(direct[:, : band.size] - low)
        gaps = {}
        # |exp(-t c.ik)| = 1, so off the band every profile decays as
        # exp(-2t k.Dk), the same at every member of an orbit.
        tail_decay = np.exp(-2.0 * t * self._orbit_diffusion) if profiles else None
        for name in profiles:
            rows, tail = datum._profile(name)
            exponent = self._band_diffusion
            if name == "phi":
                exponent = self._band_drift + exponent
            profile = rows * np.exp(-t * exponent)
            tail = np.einsum("i,i->", tail, tail_decay)
            gaps[name] = _sum_of_squares(low - profile) + float(tail)
        cell = self.grid.cell_volume
        return (
            math.sqrt(full * cell),
            math.sqrt(high * cell),
            {name: math.sqrt(value * cell) for name, value in gaps.items()},
        )


@dataclass(frozen=True, eq=False)
class Datum:
    """A datum prepared by :meth:`FrequencySplitter.prepare`: its splitter and
    its own read-only flat spectrum ``(components, N^d)``, the only grid field
    it holds.

    What the evolutions need of it at every time is computed at first use, so
    the factorization runs in the first :meth:`FrequencySplitter.decompose`
    or :meth:`FrequencySplitter.l2_norms`, whichever comes first, and the form
    in its first :meth:`FrequencySplitter.l2_norms`.  It keeps no modal
    coefficients: the splitter computes them one group element at a time
    from the spectrum whenever a pass needs them.  It keeps its band moment,
    its form with the coefficients of the members outside it, and,
    for each profile, the moment's band rows and its tail off the band summed
    per orbit; a profile formed again keeps its moment (see :meth:`moment`).
    """

    splitter: FrequencySplitter
    spectrum: np.ndarray
    _profiles: dict = field(default_factory=dict, init=False, repr=False)
    _moments: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def _band_moment(self) -> np.ndarray:
        """The band moment ``chi1 P0 u`` at the band members."""
        splitter = self.splitter
        projections = splitter._eigenbasis.band_projections
        return splitter._band_weights * np.einsum(
            "fij,jf->if", projections, self.spectrum[:, splitter.band]
        )

    @cached_property
    def form(self) -> tuple[np.ndarray, np.ndarray]:
        """The Hermitian form ``W_r = sum_g (V_r^H T_g^T T_g V_r) o (conj(c_g) c_g^T)``,
        ``c_g`` the modal coefficients of the slots in the form, indexed
        ``(row, column, orbit)``, and ``V^-1 T^-1 u`` at the composed direct
        members (see :class:`_FormLayout`), indexed ``(member, component)``.

        Over the members in the form, ``|u(t)|^2 = sum_r E_r^H W_r E_r`` with
        ``E_r = exp(-t lambda_r)``: a member's field is ``T_g V_r (E_r o c_g)``,
        conjugated when ``g`` includes conjugation, and ``T_g`` is real.  It
        is summed here, at the datum's first
        :meth:`FrequencySplitter.l2_norms`, in a pass of its own over the
        elements.
        """
        return self.splitter._sum_form(self)

    def moment(self, name: str) -> np.ndarray:
        """The moment of profile ``name`` in a new flat array the caller owns:
        ``P0 u`` (``"phi"``) or ``(P0 + sum_h i k_h P1_h) u`` (``"psi"``).

        It is built in its own array, the first-order terms a chunk of
        members at a time.  Its first build also keeps its band rows and its
        tail (see :meth:`_profile`), so these come from the same array.  A
        second build keeps the moment itself, and later calls copy it: a
        datum whose profile is formed at every time (a ``p = inf`` pair)
        holds it, one measured in ``L^2`` alone never does.
        """
        if name not in ("phi", "psi"):
            raise ValueError(f"unknown profile {name!r}; expected phi or psi")
        if name in self._moments:
            return self._moments[name].copy()
        splitter = self.splitter
        limit = splitter.limit
        moment = _real_product(limit.projection, self.spectrum)
        if name == "psi":
            total = moment.shape[1]
            for start in range(0, total, _MOMENT_CHUNK):
                part = slice(start, start + _MOMENT_CHUNK)
                k = splitter.grid.frequencies(np.arange(start, min(start + _MOMENT_CHUNK, total)))
                for h, correction in enumerate(limit.corrections):
                    term = _real_product(correction, self.spectrum[:, part])
                    term *= 1j * k[:, h]
                    moment[:, part] += term
        if name in self._profiles:
            self._moments[name] = moment.copy()
        else:
            self._profiles[name] = (moment[:, splitter.band], self._tail(moment))
        return moment

    def _profile(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """The band rows of profile ``name``'s moment and ``|moment|^2`` off the
        band summed per orbit, from one build of the moment."""
        if name not in self._profiles:
            self.moment(name)
        return self._profiles[name]

    def _tail(self, moment: np.ndarray) -> np.ndarray:
        """``|moment|^2`` summed over the members off the band of each orbit;
        the band is a union of orbits, since ``|k|`` is the same at every
        member."""
        splitter = self.splitter
        # One component row at a time, in the order in which the whole-array
        # sum(re^2, axis=0) + sum(im^2, axis=0) adds, so it rounds the same.
        tail, imaginary = np.square(moment[0].real), np.square(moment[0].imag)
        for row in moment[1:]:
            tail += np.square(row.real)
            imaginary += np.square(row.imag)
        tail += imaginary
        del imaginary
        tail[splitter.band] = 0.0
        orbits = splitter._eigenbasis.orbits
        return np.bincount(
            orbits.orbit_map(), weights=tail, minlength=orbits.representatives.size
        )


def _evolve_profile(datum: Datum, name: str, t: float) -> GridField:
    """Profile ``name`` of ``datum`` at time ``t`` in the array of its moment,
    which is multiplied by its factor ``exp(-t ...)`` a chunk of members at a
    time, so no whole-grid exponent is formed."""
    _check_time(t)
    splitter = datum.splitter
    profile = datum.moment(name)
    total = profile.shape[1]
    for start in range(0, total, _MOMENT_CHUNK):
        members = np.arange(start, min(start + _MOMENT_CHUNK, total))
        profile[:, start : start + _MOMENT_CHUNK] *= splitter._profile_factor(name, t, members)
    return _frequency_field(splitter.grid, profile)


def evolve_parabolic_phi(datum: Datum, t: float) -> GridField:
    """Drift-diffusion profile ``exp(-c.ik t - k.Dk t) P0`` of ``datum``, as a
    frequency field, built in the array of the datum's moment."""
    return _evolve_profile(datum, "phi", t)


def evolve_parabolic_psi(datum: Datum, t: float) -> GridField:
    """Refined profile ``exp(-k.Dk t) (P0 + sum_h i k_h P1_h)`` of ``datum``, no
    drift, as a frequency field, built in the array of the datum's moment."""
    return _evolve_profile(datum, "psi", t)


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
    # Only seeded amplitudes and band noise draw; other data never imports
    # numpy.random.  One generator serves both, amplitudes first.
    draws = spec.amplitudes is None or spec.kind == "random-band"
    rng = np.random.default_rng(spec.seed) if draws else None
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
        moduli = grid.moduli().reshape(grid.shape)
        mask = (moduli >= low) & (moduli <= high)
        spectrum *= mask[None]
        shaped = to_physical(GridField(grid, spectrum, FREQUENCY)).values.real
        axes = tuple(range(1, 1 + grid.dimension))
        scale = np.max(np.abs(shaped), axis=axes, keepdims=True)
        scale[scale == 0.0] = 1.0
        values = amplitude_array * shaped / scale

    return GridField(grid, values.astype(complex), PHYSICAL)
