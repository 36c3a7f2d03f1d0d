"""Asymptotic spectral data of the frequency symbol ``E(ik) = B + i A(k)``.

Low frequencies: the kernel of ``B`` spawns an eigenvalue branch
``lambda_0(ik) = c . ik + k . D k + O(|k|^3)`` whose drift ``c`` and
diffusion ``D`` are the parabolic-limit coefficients; the attached
eigenprojection expands as ``P_0(ik) = P0 + i k . P1 + O(|k|^2)``.  High
frequencies: ``E(ik) / |k|`` is the pencil ``i A(w) + B / |k|``, and every
eigenvalue approaches ``i |k| nu_j(w) + beta_jm`` with ``nu_j(w)`` an
eigenvalue of ``A(w)`` and ``beta_jm`` the eigenvalues of the relaxation
matrix compressed to its eigenspace (Kato's reduction, in the original
frame; no diagonalizer is needed).  This
module computes both expansions, calibrates the frequency radius on which
the ``0``-group stays spectrally separated, and provides a tracked
eigenvalue sweep for diagnostics.  The eigenvalue groups of the relaxation
and of its compressions are :class:`~hyprelax.linalg.SpectralGroup` values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    SpectralGroup,
    cluster_tolerance,
    eigendecompose,
    reduced_resolvent,
    spectral_group,
)
from .model import (
    ConditionReport,
    HyperbolicSystem,
    check_condition_B,
    check_condition_D,
    sphere_samples,
)
from .perturbation import NotSemisimpleError, PerturbationFamily, reduce_semisimple_group

__all__ = [
    "ChapmanError",
    "ConditionViolatedError",
    "ConditionBViolatedError",
    "GroupNotSeparatedError",
    "ParabolicLimit",
    "LowFrequencyExpansion",
    "HighFrequencyGroup",
    "HighFrequencyExpansion",
    "SweepPoint",
    "compute_parabolic_limit",
    "low_frequency_expansion",
    "exact_group_projection",
    "separation_threshold",
    "calibrate_separation_radius",
    "high_frequency_expansion",
    "eigenvalue_sweep",
]


class ChapmanError(Exception):
    """Base class for errors raised by this module."""


class ConditionViolatedError(ChapmanError):
    """A structural condition required by the requested expansion fails."""

    def __init__(self, message: str, report: ConditionReport | None = None):
        super().__init__(message)
        self.report = report


class ConditionBViolatedError(ConditionViolatedError):
    """The relaxation spectrum does not have a simple kernel with a gap."""


class GroupNotSeparatedError(ChapmanError):
    """The 0-group of the symbol is not isolated at the requested frequency."""


@dataclass(frozen=True)
class ParabolicLimit:
    """Drift, diffusion, and projection data of the parabolic limit.

    ``projection`` and ``reduced`` are the eigenprojection and reduced
    resolvent of the relaxation matrix at 0; ``corrections[h]`` is the
    first-order projection coefficient attached to the ``h``-th frequency
    component.  ``k . diffusion k`` equals the same form with the symmetric
    part, so downstream code may use ``diffusion`` as stored.
    """

    drift: np.ndarray
    diffusion: np.ndarray
    projection: np.ndarray
    reduced: np.ndarray
    corrections: tuple[np.ndarray, ...]
    gap: float
    imaginary_residual: float

    @property
    def dimension(self) -> int:
        return self.drift.shape[0]

    def drift_phase(self, k: np.ndarray) -> np.ndarray:
        """The scalar ``c . ik`` for a stack of frequency vectors."""
        return 1j * np.asarray(k) @ self.drift

    def diffusion_form(self, k: np.ndarray) -> np.ndarray:
        """The quadratic form ``k . D k`` for a stack of frequency vectors."""
        k = np.asarray(k)
        return np.einsum("...h,hl,...l->...", k, self.diffusion, k)

    def first_order_projection(self, w: np.ndarray) -> np.ndarray:
        """Directional coefficient ``sum_h w_h P1_h``."""
        return sum(w_h * p for w_h, p in zip(np.asarray(w), self.corrections))


@dataclass(frozen=True)
class LowFrequencyExpansion:
    """Parabolic-limit data plus the nonzero groups of the relaxation."""

    limit: ParabolicLimit
    groups: tuple[SpectralGroup, ...]

    def lambda0_series(self, k: np.ndarray) -> np.ndarray:
        """Second-order model ``c . ik + k . D k`` of the small branch."""
        return self.limit.drift_phase(k) + self.limit.diffusion_form(k)


@dataclass(frozen=True)
class HighFrequencyGroup:
    """Asymptotic data of one eigenvalue cluster ``nu_j`` of ``A(w)``.

    ``projection`` is the eigenprojection of ``A(w)`` onto the cluster, in
    the original frame.  ``parts[m]`` is the ``m``-th eigenvalue group of the
    relaxation compressed onto its range; its ``value`` is the shift
    ``beta_jm``.
    """

    value: float
    projection: np.ndarray
    parts: tuple[SpectralGroup, ...]


@dataclass(frozen=True)
class HighFrequencyExpansion:
    """First-order spectral model ``i |k| nu_j(w) + beta_jm`` at large |k|.

    ``groups`` are ordered by increasing ``nu_j``.
    """

    direction: np.ndarray
    groups: tuple[HighFrequencyGroup, ...]

    def predicted_eigenvalues(self, modulus: float) -> np.ndarray:
        """All ``i |k| nu_j + beta_jm`` with multiplicity, as a flat array."""
        out: list[complex] = []
        for group in self.groups:
            for part in group.parts:
                out.extend([1j * modulus * group.value + part.value] * part.multiplicity)
        return np.array(out)


@dataclass(frozen=True)
class SweepPoint:
    """Tracked spectrum of the symbol at one frequency."""

    k: np.ndarray
    eigenvalues: np.ndarray
    cluster_count: int


def _relaxation_gap(system: HyperbolicSystem) -> float:
    """Spectral gap of the relaxation matrix, once condition B holds."""
    report = check_condition_B(system)
    if not report.passed:
        raise ConditionBViolatedError(
            f"relaxation spectrum violates the kernel condition: {report.summary}",
            report,
        )
    return float(report.data["gap"])


def compute_parabolic_limit(system: HyperbolicSystem) -> ParabolicLimit:
    """Drift and diffusion coefficients of the parabolic limit.

    With ``P0`` and ``Q0`` the eigenprojection and reduced resolvent of the
    relaxation matrix at its simple kernel eigenvalue,

    * ``c_h = trace(A_h P0)``,
    * ``D_hl = (trace(A_h P0 A_l Q0) + trace(A_h Q0 A_l P0)) / 2``,
    * ``P1_h = -(P0 A_h Q0 + Q0 A_h P0)``.

    The traces are real up to quadrature error for real input; the imaginary
    magnitude discarded is recorded in ``imaginary_residual``.

    Raises:
        ConditionBViolatedError: if the relaxation spectrum fails the check.
    """
    gap = _relaxation_gap(system)
    b = system.relaxation
    eigsys = eigendecompose(b)
    zero = spectral_group(b, eigsys, eigsys.cluster_near(0.0, 10.0 * cluster_tolerance(b)))
    p0 = zero.projection
    q0 = reduced_resolvent(b, 0.0, zero.contour, eigenvalues=eigsys.values)
    d = system.dimension
    drift = np.empty(d, dtype=complex)
    diffusion = np.empty((d, d), dtype=complex)
    corrections = []
    for h, a_h in enumerate(system.advections):
        drift[h] = np.trace(a_h @ p0)
        corrections.append(-(p0 @ a_h @ q0 + q0 @ a_h @ p0))
        for l, a_l in enumerate(system.advections):
            diffusion[h, l] = 0.5 * (
                np.trace(a_h @ p0 @ a_l @ q0) + np.trace(a_h @ q0 @ a_l @ p0)
            )
    imaginary_residual = max(
        float(np.max(np.abs(drift.imag))), float(np.max(np.abs(diffusion.imag)))
    )
    if imaginary_residual > 1e-10:
        raise ChapmanError(
            f"drift/diffusion traces have imaginary residue {imaginary_residual:.3e}"
        )
    return ParabolicLimit(
        drift=drift.real,
        diffusion=diffusion.real,
        projection=p0,
        reduced=q0,
        corrections=tuple(corrections),
        gap=gap,
        imaginary_residual=imaginary_residual,
    )


def low_frequency_expansion(system: HyperbolicSystem) -> LowFrequencyExpansion:
    """Parabolic-limit data plus projections of the dissipative groups.

    Raises:
        ConditionBViolatedError: if the relaxation spectrum check fails.
        ConditionViolatedError: if uniform dissipation fails.
    """
    dissipation = check_condition_D(system)
    if not dissipation.passed:
        raise ConditionViolatedError(
            f"uniform dissipation fails: {dissipation.summary}", dissipation
        )
    limit = compute_parabolic_limit(system)
    b = system.relaxation
    eigsys = eigendecompose(b)
    tol = 10.0 * cluster_tolerance(b)
    groups = tuple(
        spectral_group(b, eigsys, cluster)
        for cluster in eigsys.clusters
        if abs(cluster.value) > tol
    )
    return LowFrequencyExpansion(limit=limit, groups=groups)


def separation_threshold(symbol: np.ndarray) -> float:
    """Gap to the rest of the spectrum below which the 0-group is not separated.

    The floor 1e-8 alone misses exact collisions, where rounding splits a
    defective pair by about sqrt(eps); the guard scales with the spectrum.
    """
    return max(1e-8, 10.0 * cluster_tolerance(symbol))


def exact_group_projection(system: HyperbolicSystem, k: np.ndarray) -> np.ndarray:
    """Eigenprojection of ``E(ik)`` onto its eigenvalue nearest zero.

    The projection is computed by contour quadrature on a circle of half the
    spectral gap around that eigenvalue.

    Raises:
        GroupNotSeparatedError: if the nearest-zero eigenvalue is within
            1e-8 of the rest of the spectrum (shrink ``|k|``).
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    symbol = system.symbol(k)
    eigsys = eigendecompose(symbol)
    eigenvalues = eigsys.values
    small = int(np.argmin(np.abs(eigenvalues)))
    others = np.delete(eigenvalues, small)
    if others.size == 0:
        return np.eye(system.size, dtype=complex)
    gap = float(np.min(np.abs(others - eigenvalues[small])))
    threshold = separation_threshold(symbol)
    if gap <= threshold:
        raise GroupNotSeparatedError(
            f"0-group gap {gap:.3e} at |k| = {np.linalg.norm(k):.6g} "
            f"is below {threshold:.1e}"
        )
    # Above the threshold the small eigenvalue is a cluster of its own.
    zero = eigsys.cluster_near(eigenvalues[small], 0.0)
    return spectral_group(symbol, eigsys, zero).projection


# Calibration scan: directions sampled, growth factor per level, level cap.
_CALIBRATION_DIRECTIONS = 32
_CALIBRATION_RATIO = 2.0 ** (1.0 / 8.0)
_CALIBRATION_LEVELS = 96


def calibrate_separation_radius(system: HyperbolicSystem) -> float:
    """Largest frequency modulus with the 0-group still safely separated.

    Scans a geometric grid of moduli upward from ``gap/64`` along sampled
    directions, following the small eigenvalue by continuation, and stops a
    direction at the first level where its gap to the rest of the spectrum
    drops to half the relaxation gap.  The returned radius is the last level
    passing in every direction; continuation (rather than re-picking the
    smallest eigenvalue per level) keeps the scan from jumping past an
    exceptional point.
    """
    gap0 = _relaxation_gap(system)
    threshold = 0.5 * gap0
    directions = sphere_samples(system.dimension, _CALIBRATION_DIRECTIONS)
    radius = np.inf
    for w in directions:
        epsilon = gap0 / 64.0
        last_good = 0.0
        branch = 0.0 + 0.0j
        for _ in range(_CALIBRATION_LEVELS):
            eigenvalues = np.linalg.eigvals(system.symbol(epsilon * w))
            follow = int(np.argmin(np.abs(eigenvalues - branch)))
            others = np.delete(eigenvalues, follow)
            gap = float(np.min(np.abs(others - eigenvalues[follow])))
            if gap <= threshold:
                break
            branch = eigenvalues[follow]
            last_good = epsilon
            epsilon *= _CALIBRATION_RATIO
        radius = min(radius, last_good)
    if not radius > 0.0:
        raise GroupNotSeparatedError(
            "0-group separation already fails at the smallest calibration level"
        )
    return float(radius)


def high_frequency_expansion(
    system: HyperbolicSystem, w: np.ndarray
) -> HighFrequencyExpansion:
    """First-order large-frequency model of the symbol spectrum along ``w``.

    With ``z = 1/|k|`` the symbol is ``|k| (i A(w) + z B)``.  Each eigenvalue
    cluster ``i nu_j`` of ``i A(w)`` is reduced against ``B``
    (:func:`~hyprelax.perturbation.reduce_semisimple_group`), which yields
    the eigenvalue model ``i |k| nu_j(w) + beta_jm + O(1/|k|)``.  Branches of
    ``A`` that cross at ``w`` form one cluster.  Only what the model needs at
    ``w`` is checked: real eigenvalues of ``A(w)`` and semisimple clusters.

    Raises:
        ConditionViolatedError: if ``A(w)`` has a non-real eigenvalue or a
            defective eigenvalue cluster.
    """
    w = np.asarray(w, dtype=float)
    w = w / np.linalg.norm(w)
    base = 1j * system.advection(w)
    eigsys = eigendecompose(base)
    # The eigenvalues of i A(w) are i nu_j: a real part is an imaginary nu_j.
    imaginary = float(np.max(np.abs(eigsys.values.real)))
    if imaginary > 1e-7 * (1.0 + float(np.max(np.abs(base)))):
        raise ConditionViolatedError(
            f"A(w) has a non-real eigenvalue (imaginary part {imaginary:.3e}) "
            f"at w = {w.tolist()}"
        )
    family = PerturbationFamily(base, system.relaxation)
    groups = []
    for cluster in sorted(eigsys.clusters, key=lambda c: c.value.imag):
        try:
            reduced = reduce_semisimple_group(family, cluster.value)
        except NotSemisimpleError as error:
            raise ConditionViolatedError(
                f"A(w) is not diagonalizable at w = {w.tolist()}: {error}"
            ) from error
        groups.append(
            HighFrequencyGroup(
                value=float(cluster.value.imag),
                projection=reduced.group.projection,
                parts=reduced.parts,
            )
        )
    return HighFrequencyExpansion(direction=w, groups=tuple(groups))


def _min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Exact minimum-cost assignment of a square cost matrix.

    Returns ``rows`` with ``rows[j]`` the row assigned to column ``j``.  This
    is the Hungarian method with row and column potentials (Kuhn, 1955): each
    row in turn is added along a shortest augmenting path, O(n^3) overall.
    """
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    # match[j] is the 1-based row on column j (0: free); column 0 is the root.
    match = np.zeros(n + 1, dtype=int)
    for row in range(1, n + 1):
        match[0] = row
        column = 0
        slack = np.full(n + 1, np.inf)
        way = np.zeros(n + 1, dtype=int)
        used = np.zeros(n + 1, dtype=bool)
        while match[column] != 0:
            used[column] = True
            reduced = cost[match[column] - 1] - u[match[column]] - v[1:]
            better = ~used[1:] & (reduced < slack[1:])
            slack[1:][better] = reduced[better]
            way[1:][better] = column
            candidates = np.where(used, np.inf, slack)
            nearest = int(np.argmin(candidates))
            delta = candidates[nearest]
            u[match[used]] += delta
            v[used] -= delta
            slack[~used] -= delta
            column = nearest
        while column:
            match[column] = match[way[column]]
            column = way[column]
    return match[1:] - 1


def eigenvalue_sweep(
    system: HyperbolicSystem, frequencies: np.ndarray
) -> list[SweepPoint]:
    """Spectrum of the symbol along a frequency path, with branch tracking.

    The first point is sorted by (real, imaginary) part; subsequent points
    are matched to their predecessor by minimal-distance assignment, so each
    column of the result follows one continuous branch.  ``cluster_count``
    records the number of eigenvalue clusters (a merge flags an exceptional
    point).
    """
    frequencies = np.atleast_2d(np.asarray(frequencies, dtype=float))
    points: list[SweepPoint] = []
    previous: np.ndarray | None = None
    for k in frequencies:
        eigsys = eigendecompose(system.symbol(k))
        values = eigsys.values
        if previous is not None:
            cost = np.abs(values[:, None] - previous[None, :])
            values = values[_min_cost_assignment(cost)]
        points.append(
            SweepPoint(k=k.copy(), eigenvalues=values, cluster_count=len(eigsys.clusters))
        )
        previous = values
    return points
