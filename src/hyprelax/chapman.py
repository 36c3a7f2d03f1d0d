"""Asymptotic spectral data of the frequency symbol ``E(ik) = B + i A(k)``.

Low frequencies: the kernel of ``B`` spawns an eigenvalue branch
``lambda_0(ik) = c . ik + k . D k + O(|k|^3)`` whose drift ``c`` and
diffusion ``D`` are the parabolic-limit coefficients; the attached
eigenprojection expands as ``P_0(ik) = P0 + i k . P1 + O(|k|^2)``, all in
closed form from the null vectors of ``B``.  High
frequencies: ``E(ik) / |k|`` is the pencil ``i A(w) + B / |k|``, and every
eigenvalue approaches ``i |k| nu_j(w) + beta_jm`` with ``nu_j(w)`` an
eigenvalue cluster of ``A(w)`` and ``beta_jm`` the eigenvalue clusters of
the relaxation matrix compressed by the cluster's eigenvectors (no
diagonalizer is needed).  This module computes both expansions from
eigen-data, calibrates the frequency radius on which the ``0``-group stays
spectrally separated, and provides a tracked eigenvalue sweep for
diagnostics, each scan with one eigenvalue call.  Contour quadrature is used
in one place only: :func:`exact_group_projection`, the spectral engine's
fallback and audit projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    EigenCluster,
    cluster_labels,
    cluster_tolerance,
    eigendecompose,
    sorted_eigenvalues,
    spectral_group,
)
from .model import (
    ConditionReport,
    HyperbolicSystem,
    advection_spectrum,
    check_condition_B,
    sphere_samples,
)

__all__ = [
    "ChapmanError",
    "ConditionViolatedError",
    "ConditionBViolatedError",
    "GroupNotSeparatedError",
    "ParabolicLimit",
    "HighFrequencyGroup",
    "HighFrequencyExpansion",
    "SweepPoint",
    "require",
    "compute_parabolic_limit",
    "zero_group",
    "exact_group_projection",
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
    resolvent of the relaxation matrix at its simple eigenvalue 0;
    ``corrections[h]`` is the first-order projection coefficient attached to
    the ``h``-th frequency component.  Every array is real.  ``k . diffusion k``
    equals the same form with the symmetric part, so downstream code may use
    ``diffusion`` as stored.
    """

    drift: np.ndarray
    diffusion: np.ndarray
    projection: np.ndarray
    reduced: np.ndarray
    corrections: tuple[np.ndarray, ...]
    gap: float

    def drift_phase(self, k: np.ndarray) -> np.ndarray:
        """The scalar ``c . ik`` for a stack of frequency vectors."""
        return 1j * np.asarray(k) @ self.drift

    def diffusion_form(self, k: np.ndarray) -> np.ndarray:
        """The quadratic form ``k . D k`` for a stack of frequency vectors."""
        k = np.asarray(k)
        return np.einsum("...h,hl,...l->...", k, self.diffusion, k)


@dataclass(frozen=True)
class HighFrequencyGroup:
    """Asymptotic data of one eigenvalue cluster ``nu_j`` of ``A(w)``.

    With ``R_j`` the cluster's eigenvector columns and ``L_j`` the matching
    rows of their inverse, ``projection`` is the eigenprojection ``R_j L_j``
    of ``A(w)`` onto the cluster, in the original frame.  ``parts[m]`` is the
    ``m``-th eigenvalue cluster of the compression ``L_j B R_j``; its
    ``value`` (the cluster mean) is the shift ``beta_jm`` and its
    ``multiplicity`` the number of branches that share it.
    """

    value: float
    projection: np.ndarray
    parts: tuple[EigenCluster, ...]


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


def require(report: ConditionReport) -> ConditionReport:
    """``report`` when its condition passed, else its condition's error.

    Raises:
        ConditionBViolatedError: if condition B failed.
        ConditionViolatedError: if any other condition failed.
    """
    if report.passed:
        return report
    error = ConditionBViolatedError if report.condition == "B" else ConditionViolatedError
    raise error(f"condition {report.condition} fails: {report.summary}", report)


def compute_parabolic_limit(system: HyperbolicSystem) -> ParabolicLimit:
    """Drift and diffusion coefficients of the parabolic limit.

    Condition B makes 0 a simple eigenvalue of the relaxation matrix, so its
    right and left null vectors ``v`` and ``w`` (the singular vectors of its
    smallest singular value) give Kato's rank-one eigenprojection
    ``P0 = v w^T / (w . v)``, and ``B + P0`` is invertible, so the reduced
    resolvent is ``Q0 = (B + P0)^-1 - P0`` (``Q0 B = I - P0``, ``Q0 P0 = 0``).
    Then

    * ``c_h = trace(A_h P0)``,
    * ``D_hl = (trace(A_h P0 A_l Q0) + trace(A_h Q0 A_l P0)) / 2``,
    * ``P1_h = -(P0 A_h Q0 + Q0 A_h P0)``,

    all real for a real system.

    Raises:
        ConditionBViolatedError: if the relaxation spectrum fails the check.
    """
    gap = require(check_condition_B(system)).data["gap"]
    b = system.relaxation
    left, _, right = np.linalg.svd(b)
    v, w = right[-1], left[:, -1]
    p0 = np.outer(v, w) / (w @ v)
    q0 = np.linalg.inv(b + p0) - p0
    advections = np.stack(system.advections)
    ap, aq = advections @ p0, advections @ q0
    # cross[h, l] = trace(A_h P0 A_l Q0), and its transpose trace(A_h Q0 A_l P0).
    cross = np.einsum("hij,lji->hl", ap, aq)
    return ParabolicLimit(
        drift=np.trace(ap, axis1=1, axis2=2),
        diffusion=0.5 * (cross + cross.T),
        projection=p0,
        reduced=q0,
        corrections=tuple(-(p0 @ aq + q0 @ ap)),
        gap=gap,
    )


def _zero_branch(values: np.ndarray, symbols: np.ndarray) -> tuple[np.ndarray, ...]:
    """The separation test of the 0-group on a stack of spectra ``(..., n)``
    of the symbols ``(..., n, n)``: the index of the eigenvalue nearest 0, its
    modulus gap to the rest of the spectrum and the gap it must exceed,
    ``10 cluster_tolerance`` of the symbol."""
    moduli = np.abs(values)
    nearest = np.argmin(moduli, axis=-1)
    above = moduli - np.take_along_axis(moduli, nearest[..., None], axis=-1)
    np.put_along_axis(above, nearest[..., None], np.inf, axis=-1)
    gaps = np.min(above, axis=-1, initial=np.inf)
    return nearest, gaps, 10.0 * cluster_tolerance(symbols)


def zero_group(values: np.ndarray, symbols: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Index of the eigenvalue nearest 0 in each row ``values[m]``, the
    spectrum of ``symbols[m] = E(i k[m])``.  Its modulus must sit below every
    other modulus of the row by more than ``10 cluster_tolerance(E(ik))``,
    which scales with the spectrum: rounding splits an exact collision by
    ``sqrt(eps)``.  The modulus gap bounds the distance to the rest of the
    row from below, and it also fails past an exceptional point, where the
    0-branch has become one of a conjugate pair of equal modulus.  The
    spectral engine applies it to its cutoff band, so a refusal names the
    remedy, a smaller ``cutoff.inner``.

    Raises:
        GroupNotSeparatedError: naming the smallest ``|k|`` whose 0-group is
            not separated.
    """
    nearest, gaps, thresholds = _zero_branch(values, symbols)
    crowded = np.flatnonzero(gaps <= thresholds)
    if crowded.size:
        frequencies = np.linalg.norm(k[crowded], axis=-1)
        row = crowded[np.argmin(frequencies)]
        raise GroupNotSeparatedError(
            f"0-group gap {gaps[row]:.3e} at |k| = {frequencies.min():.6g} "
            f"is below {thresholds[row]:.1e}; shrink the cutoff (cutoff.inner)"
        )
    return nearest


def exact_group_projection(system: HyperbolicSystem, k: np.ndarray) -> np.ndarray:
    """Eigenprojection of ``E(ik)`` onto its eigenvalue nearest zero.

    The projection is computed by contour quadrature on a circle of half the
    spectral gap around that eigenvalue.

    Raises:
        GroupNotSeparatedError: if :func:`zero_group` finds the 0-group not
            separated at ``k``.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    symbol = system.symbol(k)
    eigsys = eigendecompose(symbol)
    (small,) = zero_group(eigsys.values[None], symbol[None], k[None])
    # Separated, the small eigenvalue is a cluster of its own.
    zero = eigsys.cluster_near(eigsys.values[small], 0.0)
    return spectral_group(symbol, eigsys, zero).projection


# Calibration scan: directions sampled, growth factor per level, level cap.
_CALIBRATION_DIRECTIONS = 32
_CALIBRATION_RATIO = 2.0 ** (1.0 / 8.0)
_CALIBRATION_LEVELS = 96


def calibrate_separation_radius(system: HyperbolicSystem) -> float:
    """Largest frequency modulus with the 0-group still safely separated.

    Scans a geometric grid of moduli from ``gap/64`` up along sampled
    directions (one eigenvalue call for all), following the small eigenvalue
    by continuation, and stops a direction at the first level where its gap
    to the rest of the spectrum drops to half the relaxation gap, or where
    the followed eigenvalue fails the engine's rule, :func:`zero_group`: it
    must be the one nearest 0 and its modulus must be separated.  The radius
    is the last level passing in every direction; continuation (rather than
    re-picking the smallest eigenvalue per level) keeps the scan from jumping
    past an exceptional point, and the modulus test stops it at one.  The
    radius sets the ``"auto"`` cutoff, so a refusal names the remedy, an
    explicit ``cutoff.inner``.

    Raises:
        GroupNotSeparatedError: if some direction fails at the first level.
    """
    gap0 = require(check_condition_B(system)).data["gap"]
    directions = sphere_samples(system.dimension, _CALIBRATION_DIRECTIONS)
    levels = np.cumprod([gap0 / 64.0] + [_CALIBRATION_RATIO] * (_CALIBRATION_LEVELS - 1))
    symbols = system.symbol(levels[:, None, None] * directions)
    spectra = sorted_eigenvalues(symbols)
    nearest, gaps, thresholds = _zero_branch(spectra, symbols)
    rows = np.arange(directions.shape[0])
    branch, last_good = np.zeros(rows.size, dtype=complex), np.zeros(rows.size)
    passing = np.ones(rows.size, dtype=bool)
    for level, values, zero, separated in zip(levels, spectra, nearest, gaps > thresholds):
        follow = np.argmin(np.abs(values - branch[:, None]), axis=-1)
        branch = values[rows, follow]
        distance = np.abs(values - branch[:, None])
        distance[rows, follow] = np.inf
        passing &= (distance.min(axis=-1) > 0.5 * gap0) & (follow == zero) & separated
        last_good[passing] = level
    radius = float(np.min(last_good))
    if not radius > 0.0:
        raise GroupNotSeparatedError(
            "0-group separation already fails at the smallest calibration level, "
            f"|k| = {levels[0]:.6g}; give cutoff.inner explicitly, below this |k|"
        )
    return radius


def high_frequency_expansion(
    system: HyperbolicSystem, w: np.ndarray
) -> HighFrequencyExpansion:
    """First-order large-frequency model of the symbol spectrum along ``w``.

    With ``z = 1/|k|`` the symbol is ``|k| (i A(w) + z B)``.  Each cluster
    ``nu_j`` of :func:`~hyprelax.model.advection_spectrum` at ``w`` is a
    group (branches of ``A`` that cross at ``w`` form one) whose parts, the
    eigenvalue clusters ``beta_jm`` of the compression ``L_j B R_j`` (see
    :class:`HighFrequencyGroup`), give the model
    ``i |k| nu_j(w) + beta_jm + O(1/|k|)``.  Only what the model needs at
    ``w`` is checked: real eigenvalues of ``A(w)`` and semisimple clusters.

    Raises:
        ConditionViolatedError: if ``A(w)`` has a non-real eigenvalue or a
            defective eigenvalue cluster.
    """
    w = np.asarray(w, dtype=float) / np.linalg.norm(w)
    advection = system.advection(w)
    (values,), (vectors,), (starts,) = advection_spectrum(system, w[None])
    imaginary = float(np.max(np.abs(values.imag)))
    if imaginary > 1e-7 * (1.0 + float(np.max(np.abs(advection)))):
        raise ConditionViolatedError(
            f"A(w) has a non-real eigenvalue (imaginary part {imaginary:.3e}) "
            f"at w = {w.tolist()}"
        )
    try:
        inverse = np.linalg.inv(vectors)
    except np.linalg.LinAlgError as error:
        raise ConditionViolatedError(
            f"A(w) is not diagonalizable at w = {w.tolist()}: {error}"
        ) from error
    bounds = [*np.flatnonzero(starts), values.size]
    groups = []
    for first, end in zip(bounds, bounds[1:]):
        right, left = vectors[:, first:end], inverse[first:end]
        value = float(np.mean(values[first:end].real))
        projection = right @ left
        nilpotent = float(np.linalg.norm((advection - value * np.eye(system.size)) @ projection))
        if nilpotent > cluster_tolerance(advection):
            raise ConditionViolatedError(
                f"A(w) is not diagonalizable at w = {w.tolist()}: group at "
                f"{value} has nilpotent part of norm {nilpotent:.3e}"
            )
        parts = eigendecompose(left @ system.relaxation @ right).clusters
        groups.append(HighFrequencyGroup(value=value, projection=projection, parts=parts))
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

    One eigenvalue call covers the path.  The first point is sorted by (real,
    imaginary) part; later points are matched to their predecessor by
    minimal-distance assignment, so each column follows one continuous
    branch.  ``cluster_count`` counts the eigenvalue clusters (a merge flags
    an exceptional point).
    """
    frequencies = np.atleast_2d(np.asarray(frequencies, dtype=float))
    symbols = system.symbol(frequencies)
    spectra = sorted_eigenvalues(symbols)
    starts = cluster_labels(spectra, cluster_tolerance(symbols)) == np.arange(system.size)
    points: list[SweepPoint] = []
    previous: np.ndarray | None = None
    for k, values, count in zip(frequencies, spectra, starts.sum(axis=-1)):
        if previous is not None:
            cost = np.abs(values[:, None] - previous[None, :])
            values = values[_min_cost_assignment(cost)]
        points.append(SweepPoint(k=k.copy(), eigenvalues=values, cluster_count=int(count)))
        previous = values
    return points
