"""System definitions and structural condition checks.

A first-order system ``d_t u + sum_j A_j d_j u + B u = 0`` is described by
its advection matrices, its relaxation matrix, and optionally a reversal
symmetry ``S``.  The checkers sample the unit sphere (and a log-radial
frequency grid) and return structured pass/fail reports (R may be not
decided) with certificates or witness points; they never raise on a mere
failure of the condition, only on inputs that make the check itself
impossible.  One sphere table per system (:class:`SphereTable`) holds the
eigen-analysis of ``A(w)`` on the sphere sample and condition A's affine
branches, read in closed form from one eigen-system: the gradient and
Hessian trace of each cluster mean at a base direction.  Conditions A and R
(whose diagonalizer is found from the table's eigenvectors) and
:func:`max_wave_speed` read that table.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .linalg import cluster_labels, cluster_tolerance, eigendecompose

__all__ = [
    "ModelError",
    "SystemFileError",
    "HyperbolicSystem",
    "RealForm",
    "SphereTable",
    "ConditionReport",
    "sphere_samples",
    "dissipation_directions",
    "max_wave_speed",
    "advection_spectrum",
    "check_condition_A",
    "check_condition_R",
    "check_condition_B",
    "check_condition_D",
    "check_condition_S",
    "check_all_conditions",
    "lift_residuals",
    "lift_axis_map",
    "load_json",
    "read_section",
    "json_number",
    "load_system",
    "dump_system",
]


class ModelError(Exception):
    """Base class for errors raised by this module."""


class SystemFileError(ModelError):
    """A system definition file is malformed."""


@dataclass(frozen=True)
class HyperbolicSystem:
    """Constant-coefficient system ``d_t u + sum_j A_j d_j u + B u = 0``.

    ``advections`` holds the ``A_j`` (one per space dimension), ``relaxation``
    is ``B``.  ``symmetry``, when present, commutes with ``B`` and
    anticommutes with every ``A_j``.
    """

    advections: tuple[np.ndarray, ...]
    relaxation: np.ndarray
    symmetry: np.ndarray | None = None
    name: str = ""

    def __post_init__(self) -> None:
        if any(np.iscomplexobj(np.asarray(a)) for a in self.advections):
            raise ValueError("advection matrices must be real")
        if np.iscomplexobj(np.asarray(self.relaxation)):
            raise ValueError("the relaxation matrix must be real")
        if self.symmetry is not None and np.iscomplexobj(np.asarray(self.symmetry)):
            raise ValueError("the symmetry matrix must be real")
        advections = tuple(np.asarray(a, dtype=float) for a in self.advections)
        relaxation = np.asarray(self.relaxation, dtype=float)
        if not advections:
            raise ValueError("at least one advection matrix is required")
        n = relaxation.shape[0]
        if relaxation.shape != (n, n):
            raise ValueError(f"relaxation matrix must be square, got {relaxation.shape}")
        for j, a in enumerate(advections):
            if a.shape != (n, n):
                raise ValueError(
                    f"advection matrix {j} has shape {a.shape}, expected {(n, n)}"
                )
        object.__setattr__(self, "advections", advections)
        object.__setattr__(self, "relaxation", relaxation)
        if self.symmetry is not None:
            symmetry = np.asarray(self.symmetry, dtype=float)
            if symmetry.shape != (n, n):
                raise ValueError(f"symmetry matrix must be {n}x{n}, got {symmetry.shape}")
            object.__setattr__(self, "symmetry", symmetry)

    @property
    def dimension(self) -> int:
        return len(self.advections)

    @property
    def size(self) -> int:
        return self.relaxation.shape[0]

    def advection(self, w: np.ndarray) -> np.ndarray:
        """Directional advection ``A(w) = sum_j w_j A_j`` for one direction or a
        stack of shape ``(..., d)``."""
        return np.einsum("...j,jab->...ab", np.asarray(w, dtype=float), np.stack(self.advections))

    def symbol(self, k: np.ndarray) -> np.ndarray:
        """Frequency symbol ``E(ik) = B + i A(k)`` for one frequency or a stack
        of shape ``(..., d)``."""
        out = 1j * self.advection(k)
        out += self.relaxation
        return out

    def real_symbol(self, k: np.ndarray) -> np.ndarray:
        """``S^-1 E(ik) S`` of :attr:`real_form`, a real matrix similar to
        :meth:`symbol`, for one frequency or a stack of shape ``(..., d)``.

        Raises:
            ValueError: if the system has no real form.
        """
        form = self.real_form
        if form is None:
            raise ValueError("the system has no real form: no lift of k -> -k squares to cI, c > 0")
        out = np.einsum("...j,jab->...ab", np.asarray(k, dtype=float), form.advections)
        out += form.relaxation
        return out

    @cached_property
    def real_form(self) -> RealForm | None:
        """The system's :class:`RealForm`, or None; computed on first use."""
        return _real_form(self)

    @cached_property
    def sphere(self) -> SphereTable:
        """The system's one sphere table, computed on first use."""
        return _sphere_table(self)


@dataclass(frozen=True)
class RealForm:
    """A basis ``S`` in which every symbol is real: ``S^-1 E(ik) S`` is
    ``relaxation + sum_j k_j advections[j]`` with real ``relaxation``
    (``S^-1 B S``) and ``advections`` (``S^-1 i A^j S``, stacked ``(d, n, n)``).

    With ``P`` the lift of ``k -> -k`` (``P B = B P``, ``P A^j = -A^j P``)
    scaled to an involution, ``E(ik) = P conj(E(ik)) P``, and
    ``S = P+ + i P-`` (``P+- = (I +- P) / 2``, so ``S^-1 = P+ - i P-``)
    gives ``conj(S^-1 E S) = S^-1 E S``.  ``transform`` is ``S`` and
    ``inverse`` is ``S^-1``; both keep the component order.
    """

    transform: np.ndarray
    inverse: np.ndarray
    relaxation: np.ndarray
    advections: np.ndarray


def _real_form(system: HyperbolicSystem) -> RealForm | None:
    """The real form of ``system`` from :func:`lift_axis_map` of ``-I``; None
    when there is no lift, when ``P^2`` is not ``c I`` with ``c > 0`` (within
    ``1e-12 c``), or when an imaginary part of the transformed coefficients
    exceeds ``1e-14`` of the largest coefficient."""
    lift = lift_axis_map(system, -np.eye(system.dimension))
    if lift is None:
        return None
    eye = np.eye(system.size)
    square = lift @ lift
    scale = np.trace(square) / system.size
    if not scale > 0 or np.max(np.abs(square - scale * eye)) > 1e-12 * scale:
        return None
    involution = lift / np.sqrt(scale)
    transform = 0.5 * ((1 + 1j) * eye + (1 - 1j) * involution)
    inverse = 0.5 * ((1 - 1j) * eye + (1 + 1j) * involution)
    coefficients = np.stack([system.relaxation, *(1j * a for a in system.advections)])
    conjugated = inverse @ coefficients @ transform
    if np.max(np.abs(conjugated.imag)) > 1e-14 * np.max(np.abs(conjugated.real)):
        return None
    real = np.ascontiguousarray(conjugated.real)
    return RealForm(transform, inverse, real[0], real[1:])


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one structural condition check.

    ``passed`` is None when the check cannot decide; ``summary`` then says
    why.  ``data`` carries the certificate (fitted branch coefficients,
    constant relaxation matrix, dissipation constant, found symmetry, ...);
    on failure ``witness`` localizes a violating sample.  All values are
    plain Python scalars and lists so reports serialize directly.
    """

    condition: str
    passed: bool | None
    summary: str
    data: dict = field(default_factory=dict)
    witness: dict | None = None


def sphere_samples(dimension: int, count: int = 512) -> np.ndarray:
    """Deterministic unit-sphere sample of shape ``(m, dimension)``.

    Uses the two signs for d=1, a uniform angle grid for d=2, a Fibonacci
    lattice for d=3, and normalized Gaussians (seed 0) beyond.
    """
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    if dimension == 1:
        return np.array([[1.0], [-1.0]])
    if dimension == 2:
        theta = 2.0 * np.pi * np.arange(count) / count
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if dimension == 3:
        i = np.arange(count)
        z = 1.0 - (2.0 * i + 1.0) / count
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        phi = i * np.pi * (3.0 - np.sqrt(5.0))
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    raw = np.random.default_rng(0).standard_normal((count, dimension))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def advection_spectrum(system: HyperbolicSystem, directions: np.ndarray) -> tuple:
    """One batched ``eig`` of ``A(w)`` over a stack of directions ``(..., d)``.

    Returns the eigenvalues ``(..., n)`` sorted by real part, the matching
    eigenvector columns ``(..., n, n)`` and the cluster starts ``(..., n)``:
    the values that :func:`~hyprelax.linalg.cluster_labels`, at the
    ``cluster_tolerance`` of their ``A(w)``, labels with their own index.
    """
    advections = system.advection(directions)
    values, vectors = np.linalg.eig(advections)
    order = np.argsort(values.real, axis=-1, kind="stable")
    values = np.take_along_axis(values, order, axis=-1)
    vectors = np.take_along_axis(vectors, order[..., None, :], axis=-1)
    labels = cluster_labels(values, cluster_tolerance(advections))
    return values, vectors, labels == np.arange(system.size)


@dataclass(frozen=True)
class SphereTable:
    """Condition A's eigen-analysis of ``A(w)``, one per system: ``values`` and
    ``vectors`` are :func:`advection_spectrum` at the 512 ``directions`` of
    :func:`sphere_samples`, ``report`` is condition A's report, and ``nu``
    holds A's branches ``(nu_0, nu)`` as rows (None when an eigenvalue is not
    real), ordered by their coefficients rounded to the fit ``tolerance``, so
    equal branches are adjacent."""

    directions: np.ndarray
    values: np.ndarray
    vectors: np.ndarray
    tolerance: float
    nu: np.ndarray | None
    report: ConditionReport


def _sphere_table(system: HyperbolicSystem) -> SphereTable:
    """The sphere table of ``system``; :func:`check_condition_A` describes its fit."""
    directions = sphere_samples(system.dimension)
    m = directions.shape[0]
    scale = 1.0 + float(np.max(np.abs(system.advection(directions))))
    fit_tolerance = 1e-6 * scale
    raw_values, raw_vectors, starts = advection_spectrum(system, directions)
    imaginary = np.abs(raw_values.imag).max(axis=1)
    if np.max(imaginary) > 1e-7 * scale:
        worst = int(np.argmax(imaginary))
        peak = float(imaginary[worst])
        witness = {"direction": directions[worst].tolist(), "imaginary_part": peak}
        report = ConditionReport("A", False, "A(w) has non-real eigenvalues", witness=witness)
        return SphereTable(directions, raw_values, raw_vectors, fit_tolerance, None, report)
    with np.errstate(divide="ignore", invalid="ignore"):
        max_condition = float(np.max(np.linalg.cond(raw_vectors)))
    values = raw_values.real
    gaps = np.where(starts[:, 1:], np.diff(values, axis=1), np.inf).min(axis=1, initial=np.inf)
    base = int(np.lexsort((-gaps, -starts.sum(axis=1)))[0])
    design = np.column_stack([np.ones(m), directions])
    if system.dimension == 1:
        coefficients, *_ = np.linalg.lstsq(design, values, rcond=None)
    else:
        w0, vectors, labels = directions[base], raw_vectors[base], np.cumsum(starts[base])
        same = labels[:, None] == labels[None, :]
        mean = same / same.sum(axis=1, keepdims=True)
        coupling = np.linalg.pinv(vectors) @ np.stack(system.advections) @ vectors
        gradient = mean @ np.diagonal(coupling, axis1=1, axis2=2).real.T
        # Pairs within a cluster have no term: an infinite gap drops them unwarned.
        pair_gaps = np.where(same, np.inf, values[base][:, None] - values[base][None, :])
        second = (coupling * coupling.transpose(0, 2, 1)).real.sum(axis=0) / pair_gaps
        nu_0 = 2.0 * (mean @ second.sum(axis=1)) / (system.dimension - 1)
        coefficients = np.vstack([nu_0, (gradient - nu_0[:, None] * w0).T])
    misfit = np.abs(np.sort(design @ coefficients, axis=1) - values)
    # Rows are ordered by coefficients rounded to the fit tolerance, so
    # rounding noise in an entry all branches share (nu_0 = 0 for the
    # three-velocity model) cannot decide the order.
    keys = np.round(coefficients / fit_tolerance)
    nu = coefficients[:, np.lexsort(keys[::-1])].T
    residual = float(np.max(misfit))
    affine_ok = residual <= fit_tolerance
    condition_ok = max_condition < 1e6
    witness = None
    if not affine_ok:
        worst = int(np.argmax(misfit.max(axis=1)))
        witness = {"direction": directions[worst].tolist(), "fit_residual": residual}
    elif not condition_ok:
        witness = {"diagonalizer_condition": max_condition}
    report = ConditionReport(
        condition="A",
        passed=bool(affine_ok and condition_ok),
        summary=(
            f"{system.size} affine branches, fit residual {residual:.2e}, "
            f"diagonalizer condition {max_condition:.2e}"
        ),
        data={"nu": nu.tolist(), "fit_residual": residual, "samples": m,
              "diagonalizer_condition": max_condition},
        witness=witness,
    )
    return SphereTable(directions, raw_values, raw_vectors, fit_tolerance, nu, report)


def max_wave_speed(system: HyperbolicSystem) -> float:
    """Largest ``|lambda|`` of ``A(w)`` on the unit sphere: exactly
    ``max_j |nu_0j| + |nu_j|`` over condition A's branches when A passes,
    else the sphere table's largest ``|lambda|``."""
    table = system.sphere
    if table.report.passed:
        return float(np.max(np.abs(table.nu[:, 0]) + np.linalg.norm(table.nu[:, 1:], axis=1)))
    return float(np.max(np.abs(table.values)))


def check_condition_A(system: HyperbolicSystem) -> ConditionReport:
    """Check uniform diagonalizability with eigenvalues affine in direction.

    The report is the sphere table's (:attr:`HyperbolicSystem.sphere`).  Its
    base is the sample of :func:`advection_spectrum` with the most clusters,
    then the widest gap between clusters.  ``A(x)`` is linear in ``x``, so a
    branch ``nu_0 + nu . w`` on the sphere extends to ``nu_0 |x| + nu . x``:
    at the base ``w0`` its gradient is ``nu_0 w0 + nu`` and its Hessian
    trace ``(d - 1) nu_0``.  Both are read in closed form from the base's
    eigen-system: with ``V`` its eigenvector matrix and
    ``C_j = V^-1 A_j V``, a cluster ``c`` of ``m_c`` values has the mean
    gradient ``mean_{i in c} C_j[i, i]`` and the mean Hessian trace
    ``(2 / m_c) sum_j sum_{i in c, k not in c} C_j[i, k] C_j[k, i] / (l_i - l_k)``,
    and gives ``m_c`` equal branches.  A singular ``V`` is pseudo-inverted;
    its condition number fails it.  In one dimension the sorted eigenvalues
    at ``w = +-1`` are fitted.  The sorted branch values must match the
    sorted eigenvalues at every sample, which needs no branch labels.  The
    certificate stores the ``(d + 1)``-vector of coefficients per branch, and
    ``diagonalizer_condition`` the worst condition number of the eigenvector
    matrices of ``A(w)``.
    """
    return system.sphere.report


def check_condition_R(system: HyperbolicSystem) -> ConditionReport:
    """Check for a diagonalizer ``R(w)`` of ``A(w)`` with ``R(w)^-1 B R(w)`` constant.

    ``R`` is built from the sphere table as README describes and judged by
    :func:`_frame_report`.  In one dimension ``A(w) = w A_1``, so the
    eigenvectors of ``A_1`` serve at both directions; in more, columns take
    condition A's branch of their rank, skipping directions where distinct
    branches cross.  R is not decided (``passed`` None) when A fails, when a
    compression of ``B`` onto equal branches is not diagonalizable, or when a
    part of equal branches and equal compressions has more than one member
    and ``B`` couples it to the other columns.
    """
    table = system.sphere
    if not table.report.passed:
        return ConditionReport("R", None, "condition A fails, and R reads its branches")
    if system.dimension == 1:
        frames = np.broadcast_to(table.vectors[0], table.vectors.shape)
        return _frame_report(system, table.directions, frames, 0)
    nu, n = table.nu, system.size
    keys = np.round(nu / table.tolerance)
    group = np.cumsum(np.r_[True, np.any(keys[1:] != keys[:-1], axis=1)])
    branches = nu[:, 0] + table.directions @ nu[:, 1:].T
    rank = np.argsort(branches, axis=1, kind="stable")
    # Values within the fit tolerance of their branches keep the branches'
    # ranks where distinct branches are more than twice that apart.
    close = np.diff(np.take_along_axis(branches, rank, axis=1), axis=1) <= 2 * table.tolerance
    keep = ~np.any(close & (np.diff(group[rank], axis=1) != 0), axis=1)
    skipped = int(np.sum(~keep))
    undecided = {"skipped_directions": skipped}
    if not keep.any():
        return ConditionReport("R", None, "distinct branches cross at every direction", undecided)
    columns = np.argsort(rank[keep], axis=1)[:, None, :]
    frames = np.take_along_axis(table.vectors[keep], columns, axis=2).astype(complex)
    shared = np.zeros(frames.shape[:2], dtype=bool)  # the column's part has other members
    for members in np.split(np.arange(n), np.flatnonzero(np.diff(group)) + 1):
        if members.size > 1:
            block = frames[:, :, members]
            compression = np.linalg.solve(frames, system.relaxation @ block)[:, members]
            values, vectors = np.linalg.eig(compression)
            order = np.lexsort((values.imag, values.real))
            vectors = np.take_along_axis(vectors, order[:, None, :], axis=2)
            with np.errstate(divide="ignore", invalid="ignore"):
                if not np.max(np.linalg.cond(vectors)) < 1e6:
                    reason = "B compressed onto equal branches is not diagonalizable"
                    return ConditionReport("R", None, reason, undecided)
            frames[:, :, members] = block @ vectors
            values = np.take_along_axis(values, order, axis=1)
            labels = cluster_labels(values, cluster_tolerance(compression))
            shared[:, members] = (labels[:, :, None] == labels[:, None, :]).sum(axis=2) > 1
    conjugated = np.linalg.solve(frames, system.relaxation @ frames)
    bound = 1e-7 * (1.0 + float(np.max(np.abs(conjugated))))
    # The refined clusters are diagonal blocks of C(w), so only entries off
    # the diagonal can couple a part to other columns.
    coupled = (shared[:, :, None] | shared[:, None, :]) & ~np.eye(n, dtype=bool)
    coupling = np.max(np.abs(conjugated) * coupled)
    if coupling > bound:
        reason = (
            "B couples modes with equal branches and equal compressions to the others "
            f"(coupling {coupling:.2e}), so their frame is not unique"
        )
        return ConditionReport("R", None, reason, undecided)
    base, scales = conjugated[0], np.ones(frames.shape[:2], dtype=complex)
    weight = np.maximum(np.abs(base), np.abs(base.T))
    reached = np.zeros(n, dtype=bool)
    while not reached.all():
        edges = np.where(reached[:, None] & ~reached, weight, 0.0)
        i, j = np.unravel_index(np.argmax(edges), edges.shape)
        if edges[i, j] <= bound:
            reached[np.argmin(reached)] = True  # the root of the next component
            continue
        p, q = (i, j) if abs(base[i, j]) >= abs(base[j, i]) else (j, i)
        # Scaled, C_pq(w) s_q / s_p = C_pq(w0).  An entry that vanishes at w
        # keeps the ratio 1, and the deviation of C(w) shows it.
        entry = conjugated[:, p, q]
        ratio = np.where(np.abs(entry) > bound, entry, base[p, q]) / base[p, q]
        scales[:, j] = scales[:, i] * (ratio if p == j else 1.0 / ratio)
        reached[j] = True
    return _frame_report(system, table.directions[keep], frames * scales[:, None, :], skipped)


def _frame_report(system: HyperbolicSystem, directions, frames, skipped: int) -> ConditionReport:
    """Condition R's rule for the frames ``R(w)`` at ``directions``: ``cond(R(w))``
    below ``1e6`` (a singular ``R(w)`` fails here, before anything is solved
    with it), the off-diagonal part of ``R(w)^-1 A(w) R(w)`` at most ``1e-7``
    relative to the advection scale, and ``R(w)^-1 B R(w)`` within ``1e-7``
    (relative) of its value at the first direction.  ``conjugated_relaxation``
    holds the real part of that value and ``conjugated_relaxation_imag`` its
    imaginary part, which is nonzero only when the frames are complex."""
    with np.errstate(divide="ignore", invalid="ignore"):
        conditions = np.linalg.cond(frames)
    max_condition = float(np.max(conditions))
    if not max_condition < 1e6:
        worst = directions[np.argmax(conditions)].tolist()  # a NaN (zero R) counts as the worst
        summary = f"diagonalizer condition {max_condition:.2e} is not below 1e6"
        data = {"diagonalizer_condition": max_condition, "skipped_directions": skipped}
        witness = {"direction": worst, "diagonalizer_condition": max_condition}
        return ConditionReport("R", False, summary, data, witness)
    stacks = system.advection(directions)
    diagonalized = np.linalg.solve(frames, stacks @ frames)
    off_diagonal = np.max(np.abs(diagonalized * (1.0 - np.eye(system.size))), axis=(1, 2))
    conjugated = np.linalg.solve(frames, system.relaxation @ frames)
    reference = conjugated[0]
    deviations = np.max(np.abs(conjugated - reference), axis=(1, 2))
    worst_off, worst = float(np.max(off_diagonal)), float(np.max(deviations))
    witness = None
    if worst_off > 1e-7 * (1.0 + float(np.max(np.abs(stacks)))):
        worst_direction = directions[np.argmax(off_diagonal)].tolist()
        witness = {"direction": worst_direction, "off_diagonal_residual": worst_off}
    elif worst > 1e-7 * (1.0 + float(np.max(np.abs(reference)))):
        witness = {"direction": directions[np.argmax(deviations)].tolist(), "deviation": worst}
    return ConditionReport(
        condition="R",
        passed=witness is None,
        summary=(
            f"max deviation of R(w)^-1 B R(w) across {directions.shape[0]} directions ({skipped} "
            f"skipped where branches cross): {worst:.2e}, off-diagonal residual of R(w)^-1 A(w) "
            f"R(w) {worst_off:.2e}, diagonalizer condition {max_condition:.2e}"
        ),
        data={
            "conjugated_relaxation": reference.real.tolist(),
            "conjugated_relaxation_imag": reference.imag.tolist(),
            "reference_direction": directions[0].tolist(),
            "max_deviation": worst,
            "off_diagonal_residual": worst_off,
            "diagonalizer_condition": max_condition,
            "skipped_directions": skipped,
        },
        witness=witness,
    )


def check_condition_B(system: HyperbolicSystem) -> ConditionReport:
    """Check the relaxation spectrum: simple eigenvalue 0, rest in Re > 0.

    The kernel is the cluster of ``B``'s eigenvalues within
    ``tol = 10 cluster_tolerance(B)`` of 0, and the rest must have real part
    above ``tol``.
    """
    eigsys = eigendecompose(system.relaxation)
    tol = 10.0 * cluster_tolerance(system.relaxation)
    kernel = eigsys.cluster_near(0.0, tol)
    eigenvalues = [[float(v.real), float(v.imag)] for v in eigsys.values]
    summary = None
    if kernel is None:
        summary, witness = "relaxation matrix has no kernel", {"eigenvalues": eigenvalues}
    elif kernel.multiplicity != 1:
        summary = f"eigenvalue 0 has multiplicity {kernel.multiplicity}"
        witness = {"multiplicity": kernel.multiplicity}
    elif system.size == 1:
        summary, witness = "relaxation matrix is 1x1 zero; no dissipative part", None
    if summary is not None:
        data = {"eigenvalues": eigenvalues}
        return ConditionReport(
            condition="B", passed=False, summary=summary, data=data, witness=witness
        )
    others = np.delete(eigsys.values, list(kernel.indices))
    min_real = float(np.min(others.real))
    gap = float(np.min(np.abs(others)))
    passed = min_real > tol
    witness = None
    if not passed:
        bad = others[int(np.argmin(others.real))]
        witness = {"eigenvalue": [float(bad.real), float(bad.imag)]}
    return ConditionReport(
        condition="B",
        passed=bool(passed),
        summary=f"kernel is simple, spectral gap {gap:.4g}, min Re of nonzero spectrum {min_real:.4g}",
        data={"eigenvalues": eigenvalues, "gap": gap, "min_real_part": min_real},
        witness=witness,
    )


# Condition D samples this many log-spaced moduli times this many directions.
_D_RADIAL_COUNT = 61
_D_SPHERE_COUNT = 512


def dissipation_directions(dimension: int) -> np.ndarray:
    """Condition D's antipodal direction sample, of shape ``(m, dimension)``.

    The first half of :func:`sphere_samples` for ``_D_SPHERE_COUNT`` followed
    by its negation: the angles in ``[0, pi)`` and their antipodes in d = 2,
    the Fibonacci upper hemisphere and its mirror image in d = 3, and
    ``[[1], [-1]]`` in d = 1.
    """
    samples = sphere_samples(dimension, _D_SPHERE_COUNT)
    half = samples[: samples.shape[0] // 2]
    return np.concatenate([half, -half])


def check_condition_D(system: HyperbolicSystem) -> ConditionReport:
    """Check uniform dissipation ``Re lambda(E(ik)) >= theta |k|^2 / (1 + |k|^2)``.

    Samples ``_D_RADIAL_COUNT`` log-spaced moduli from ``1e-3`` to ``1e3``
    times the :func:`dissipation_directions` and reports the infimum of
    ``Re lambda * (1 + |k|^2) / |k|^2``.  ``A`` and ``B`` are real, so
    ``E(-ik) = conj E(ik)``: a frequency and its antipode have the same
    ``Re lambda``, and only the first half of the directions is solved, in
    one ``eigvals`` call.  ``theta`` and the counts describe the whole
    sample.  The witness on failure is the frequency and eigenvalue
    attaining the infimum.  A system with a
    :attr:`~HyperbolicSystem.real_form` takes the eigenvalues of its real
    symbols, which are similar to ``E(ik)``.
    """
    directions = dissipation_directions(system.dimension)
    half = directions[: directions.shape[0] // 2]
    radii = np.geomspace(1e-3, 1e3, _D_RADIAL_COUNT)
    flat = (radii[:, None, None] * half[None, :, :]).reshape(-1, system.dimension)
    symbols = system.symbol(flat) if system.real_form is None else system.real_symbol(flat)
    eigenvalues = np.linalg.eigvals(symbols)
    moduli = np.repeat(radii, half.shape[0])
    weights = (1.0 + moduli**2) / moduli**2
    ratios = eigenvalues.real * weights[:, None]
    worst_flat = int(np.argmin(ratios))
    worst_sample, worst_branch = divmod(worst_flat, system.size)
    theta = float(ratios.reshape(-1)[worst_flat])
    bad_eigenvalue = eigenvalues[worst_sample, worst_branch]
    passed = theta > 1e-8
    witness = None
    if not passed:
        witness = {
            "frequency": flat[worst_sample].tolist(),
            "eigenvalue": [float(bad_eigenvalue.real), float(bad_eigenvalue.imag)],
        }
    sample_count = radii.shape[0] * directions.shape[0]
    return ConditionReport(
        condition="D",
        passed=bool(passed),
        summary=f"dissipation constant theta = {theta:.6g} over {sample_count} sampled frequencies",
        data={
            "theta": theta,
            "k_min": float(radii[0]),
            "k_max": float(radii[-1]),
            "radial_count": _D_RADIAL_COUNT,
            "sphere_count": directions.shape[0],
        },
        witness=witness,
    )


def lift_residuals(
    transform: np.ndarray, fixed: np.ndarray, matrices, images
) -> tuple[float, float, float]:
    """How far ``T`` is from lifting a map: ``T F = F T`` and ``T M_j = N_j T``.

    ``T`` is scaled to Frobenius norm ``sqrt(n)`` first; a ``T`` of norm 0
    is singular.  Returns the largest entry of ``T F - F T``, the largest
    entry of any ``T M_j - N_j T``, both relative to
    ``max(1, max|F|, max|M_j|)``, and ``sigma_min / sigma_max`` of ``T``
    (0 when it is singular).  ``matrices`` and ``images`` are sequences of
    ``M_j`` and ``N_j``.
    """
    peak = float(np.max(np.abs(transform)))
    if peak == 0.0:
        return 0.0, 0.0, 0.0
    # Dividing by the peak first keeps the squares in the norm from
    # underflowing or overflowing.
    t = np.asarray(transform) / peak
    t *= np.sqrt(t.shape[0]) / np.linalg.norm(t)
    matrices, images = np.asarray(matrices), np.asarray(images)
    scale = max(1.0, float(np.max(np.abs(fixed))), float(np.max(np.abs(matrices))))
    commutator = float(np.max(np.abs(t @ fixed - fixed @ t))) / scale
    advection = float(np.max(np.abs(t @ matrices - images @ t))) / scale
    singulars = np.linalg.svd(t, compute_uv=False)
    return commutator, advection, float(singulars[-1] / singulars[0])


def lift_axis_map(system: HyperbolicSystem, rotation: np.ndarray) -> np.ndarray | None:
    """Lift of an orthogonal frequency map ``k -> R k`` to the state space.

    Returns an invertible ``T`` with ``T B = B T`` and
    ``T A^j = (sum_i R_ij A^i) T`` for every ``j``, so that
    ``E(iRk) = T E(ik) T^-1`` at every frequency, or None.  The constraints
    are linear in ``T``: the SVD of their Kronecker form gives the solution
    space, and random combinations of its basis (seed 0) are tried until one
    has ``sigma_min / sigma_max >= 1e-6`` (a one-dimensional space has one
    candidate, its basis vector); it is scaled to Frobenius norm
    ``sqrt(n)``, and its entries within ``1e-12 max|T|`` of an integer are
    rounded to it, so a signed permutation comes out exact.  None when no
    try is invertible or either residual of :func:`lift_residuals` exceeds
    ``1e-12``.  Condition S is the lift of ``R = -I``.
    """
    b = system.relaxation
    advections = np.stack(system.advections)
    images = np.einsum("ij,ikl->jkl", np.asarray(rotation, dtype=float), advections)
    n = system.size
    eye = np.eye(n)
    # Row-major vec: vec(T M) = (I (x) M^T) vec(T), vec(N T) = (N (x) I) vec(T).
    pairs = zip([b, *advections], [b, *images])
    stacked = np.vstack([np.kron(eye, m.T) - np.kron(target, eye) for m, target in pairs])
    _, singular_values, vt = np.linalg.svd(stacked)
    top = singular_values[0] if singular_values.size else 0.0
    null_mask = np.zeros(vt.shape[0], dtype=bool)
    null_mask[singular_values.shape[0] :] = True
    null_mask[: singular_values.shape[0]] = singular_values <= 1e-10 * max(top, 1.0)
    basis = vt[null_mask]
    if basis.shape[0] == 0:
        return None
    if basis.shape[0] == 1:
        # Every candidate is a multiple of the one basis vector, so none is
        # drawn (nor numpy.random imported, about 5 MB of resident memory).
        candidates = basis
    else:
        rng = np.random.default_rng(0)
        candidates = (rng.standard_normal(basis.shape[0]) @ basis for _ in range(100))
    for candidate in candidates:
        # The basis rows are orthonormal, so a combination's norm is its
        # coefficient vector's, which is not 0.
        found = candidate.reshape(n, n) * (np.sqrt(n) / np.linalg.norm(candidate))
        whole = np.round(found)
        found = np.where(np.abs(found - whole) <= 1e-12 * np.max(np.abs(found)), whole, found)
        commutator, advection, conditioning = lift_residuals(found, b, advections, images)
        if conditioning >= 1e-6:
            return found if max(commutator, advection) <= 1e-12 else None
    return None


def check_condition_S(system: HyperbolicSystem) -> ConditionReport:
    """Check for an invertible symmetry commuting with B, anticommuting with A.

    ``S B = B S`` and ``S A^j = -A^j S`` say ``E(-ik) = S E(ik) S^-1``: ``S``
    lifts ``k -> -k``.  The system's symmetry matrix is verified when it
    carries one; otherwise :func:`lift_axis_map` of ``-I`` is.  Either is
    measured by :func:`lift_residuals`, which scales it to Frobenius norm
    ``sqrt(n)``, and passes when ``sigma_min >= 1e-10 sigma_max`` and the
    commutator and anticommutator are at most ``1e-8`` relative to the
    coefficients; a zero ``S`` is singular and fails.  The certificate
    stores the matrix as given or found.
    """
    s = system.symmetry
    source = "provided"
    if s is None:
        s, source = lift_axis_map(system, -np.eye(system.dimension)), "found"
        if s is None:
            return ConditionReport(
                condition="S",
                passed=False,
                summary="no invertible symmetry found in the constraint solution space",
            )
    advections = np.stack(system.advections)
    commutator, anticommutator, conditioning = lift_residuals(
        s, system.relaxation, advections, -advections
    )
    invertible = conditioning >= 1e-10
    passed = invertible and commutator <= 1e-8 and anticommutator <= 1e-8
    summary = f"{source} symmetry: commutator {commutator:.2e}, anticommutator {anticommutator:.2e}"
    if not invertible:
        summary += f", singular (sigma_min / sigma_max {conditioning:.2e})"
    return ConditionReport(
        condition="S",
        passed=bool(passed),
        summary=summary,
        data={
            "symmetry": s.tolist(),
            "commutator_residual": commutator,
            "anticommutator_residual": anticommutator,
        },
        witness=None
        if passed
        else {"commutator": commutator, "anticommutator": anticommutator},
    )


def check_all_conditions(system: HyperbolicSystem) -> dict[str, ConditionReport]:
    """Run every condition check; R only when A passes, since it reads A's branches."""
    reports = {
        "A": check_condition_A(system),
        "B": check_condition_B(system),
        "D": check_condition_D(system),
        "S": check_condition_S(system),
    }
    if reports["A"].passed:
        reports["R"] = check_condition_R(system)
    return reports


def load_json(path: str | Path, what: str, error: type[Exception]) -> dict:
    """The JSON object in file ``path``; ``what`` names the file in the
    messages of ``error``, which any failure raises."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise error(f"{what} {path} must be a JSON object")
    return raw


def read_section(cls, raw, error: type[Exception], what: str, path: str = "") -> dict:
    """The fields of dataclass ``cls``, read from the JSON object ``raw``.

    Field names are the JSON keys, field types the coercions (see
    :func:`_coerce`) and fields with a default the optional keys.  ``path`` is
    the section's key path, empty at the top of the file that ``what`` names.
    An unknown, missing or invalid key raises ``error``, naming the key.
    """
    context = path or what
    if not isinstance(raw, dict):
        raise error(f"{context} must be a JSON object")
    hints = typing.get_type_hints(cls)
    keys = {
        f.name: f.default is MISSING and f.default_factory is MISSING for f in fields(cls)
    }
    for key in raw:
        if key not in keys:
            raise error(f"unknown key {key!r} in {context}")
    for key, required in keys.items():
        if required and key not in raw:
            raise error(f"missing required key {key!r} in {context}")
    return {
        key: _coerce(hints[key], value, f"{path}.{key}" if path else key, error)
        for key, value in raw.items()
    }


def json_number(value) -> float:
    """``value`` if it is a finite JSON number: not a string, ``true``,
    ``NaN`` or ``Infinity``, which Python's JSON reader also accepts."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"expected a JSON number, got {json.dumps(value)}")
    return float(value)


# The JSON type that a field type takes, and its name in messages.
_JSON_TYPES = {
    bool: (bool, "boolean"),
    int: (int, "integer"),
    str: (str, "string"),
    dict: (dict, "object"),
    tuple: (list, "array"),
}


def _coerce(hint, value, path: str, error: type[Exception]):
    """``value`` as field type ``hint``: JSON 4 becomes 4.0 for a float field,
    an array a tuple, and an object a ``dict`` or the section dataclass it
    describes.  A bool, int, str, dict or tuple field takes only its own JSON
    type, and a float field only a :func:`json_number`.  Any other type is
    called on the value and checks it itself."""
    try:
        options = typing.get_args(hint)
        if type(None) in options:
            if value is None:
                return None
            (hint,) = (option for option in options if option is not type(None))
            options = typing.get_args(hint)
        if is_dataclass(hint):
            return hint(**read_section(hint, value, error, path, path))
        origin = typing.get_origin(hint) or hint
        if origin in _JSON_TYPES and type(value) is not _JSON_TYPES[origin][0]:
            name = _JSON_TYPES[origin][1]
            raise ValueError(f"expected a JSON {name}, got {json.dumps(value)}")
        if origin is dict:
            if not options:
                return value
            return {
                key: _coerce(options[1], entry, f"{path}.{key}", error)
                for key, entry in value.items()
            }
        if origin is tuple:
            items = options[:1] * len(value) if options[-1] is Ellipsis else options
            if len(items) != len(value):
                raise ValueError(f"needs {len(items)} entries, got {len(value)}")
            return tuple(_coerce(item, entry, path, error) for item, entry in zip(items, value))
        return json_number(value) if hint is float else hint(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"invalid {path}: {exc}") from exc


# A matrix as a system file writes it: a list of rows.
_Matrix = tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class _SystemFile:
    """The system-file schema: field names are the JSON keys.  An absent
    optional key reads as None; a JSON ``null`` is refused."""

    d: int
    n: int
    A: tuple[_Matrix, ...]
    B: _Matrix
    S: _Matrix = None


def _array(key: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """The nested entries ``value`` of ``key`` as a float array of ``shape``."""
    try:
        array = np.array(value, dtype=float)
    except ValueError as exc:
        raise SystemFileError(f"invalid {key}: expected a rectangular array") from exc
    if array.shape != shape:
        raise SystemFileError(f"invalid {key}: expected shape {shape}, got {array.shape}")
    return array


def load_system(path: str | Path) -> HyperbolicSystem:
    """Load a system definition from a JSON file.

    The schema (:class:`_SystemFile`) has integer keys ``d`` and ``n``, ``A``
    (list of ``d`` row-major ``n x n`` arrays), ``B`` (row-major ``n x n``),
    and optional ``S`` (symmetry matrix).
    Unknown keys, non-numeric entries, ragged arrays and an ``A`` or ``B``
    whose Frobenius norm reaches ``1e147`` or ``1e150`` are rejected with a
    message naming the key.

    Raises:
        SystemFileError: on malformed content.
    """
    raw = load_json(path, "system file", SystemFileError)
    spec = _SystemFile(**read_section(_SystemFile, raw, SystemFileError, "system file"))
    d, n = spec.d, spec.n
    for key, size in (("d", d), ("n", n)):
        if size < 1:
            raise SystemFileError(f"invalid {key}: expected a positive integer, got {size}")
    advections = _array("A", spec.A, (d, n, n))
    relaxation = _array("B", spec.B, (n, n))
    # cluster_tolerance sums the squared entries of A(w) and of E(ik) = B + i A(k)
    # up to |k| = 1e3; these bounds keep those sums below 2e300, far from overflow.
    for key, array, reach in (("A", advections, 1e3), ("B", relaxation, 1.0)):
        norm = math.hypot(*array.ravel())
        if not reach * norm < 1e150:
            raise SystemFileError(
                f"invalid {key}: Frobenius norm {norm:.3g} is not below {1e150 / reach:.0e}: "
                "the squared entries of E(ik) = B + i A(k) up to |k| = 1e3 (condition D's "
                "largest modulus), which cluster_tolerance sums, must stay finite"
            )
    symmetry = None if spec.S is None else _array("S", spec.S, (n, n))
    return HyperbolicSystem(
        advections=tuple(advections),
        relaxation=relaxation,
        symmetry=symmetry,
        name=Path(path).stem,
    )


def dump_system(system: HyperbolicSystem, path: str | Path) -> None:
    """Write a system definition file readable by :func:`load_system`."""
    payload: dict = {
        "d": system.dimension,
        "n": system.size,
        "A": [a.tolist() for a in system.advections],
        "B": system.relaxation.tolist(),
    }
    if system.symmetry is not None:
        payload["S"] = system.symmetry.tolist()
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
