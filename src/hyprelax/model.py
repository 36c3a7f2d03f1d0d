"""System definitions and structural condition checks.

A first-order system ``d_t u + sum_j A_j d_j u + B u = 0`` is described by
its advection matrices, its relaxation matrix, and optionally a closed-form
diagonalizer ``R(w)`` of ``A(w) = sum_j w_j A_j``, which only condition R
reads, and a reversal symmetry ``S``.  The checkers sample the unit sphere
(and a log-radial frequency grid) and return structured pass/fail reports
with certificates or witness points; they never raise on a mere failure of
the condition, only on inputs that make the check itself impossible.
Condition A reads its affine branches in closed form from one eigen-system:
the gradient and Hessian trace of each cluster mean at a base direction.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .linalg import EigenCluster, EigenSystem, cluster_labels, cluster_tolerance, eigendecompose

__all__ = [
    "ModelError",
    "MissingDiagonalizerError",
    "SystemFileError",
    "HyperbolicSystem",
    "ConditionReport",
    "SampledDiagonalizer",
    "sphere_samples",
    "max_wave_speed",
    "advection_spectrum",
    "check_condition_A",
    "check_condition_R",
    "relaxation_kernel",
    "check_condition_B",
    "check_condition_D",
    "check_condition_S",
    "check_all_conditions",
    "lift_axis_map",
    "load_json",
    "read_section",
    "json_number",
    "load_system",
    "dump_system",
]


class ModelError(Exception):
    """Base class for errors raised by this module."""


class MissingDiagonalizerError(ModelError):
    """A check that needs the closed-form diagonalizer was called without one."""


class SystemFileError(ModelError):
    """A system definition file is malformed."""


@dataclass(frozen=True)
class HyperbolicSystem:
    """Constant-coefficient system ``d_t u + sum_j A_j d_j u + B u = 0``.

    ``advections`` holds the ``A_j`` (one per space dimension), ``relaxation``
    is ``B``.  ``diagonalizer``, when present, maps a unit direction ``w`` to
    an invertible ``R(w)`` with ``R(w)^{-1} A(w) R(w)`` diagonal.
    ``symmetry``, when present, commutes with ``B`` and anticommutes with
    every ``A_j``.
    """

    advections: tuple[np.ndarray, ...]
    relaxation: np.ndarray
    diagonalizer: Callable[[np.ndarray], np.ndarray] | None = None
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


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one structural condition check.

    ``data`` carries the certificate (fitted branch coefficients, constant
    relaxation matrix, dissipation constant, found symmetry, ...); on
    failure ``witness`` localizes a violating sample.  All values are plain
    Python scalars and lists so reports serialize directly.
    """

    condition: str
    passed: bool
    summary: str
    data: dict = field(default_factory=dict)
    witness: dict | None = None


class SampledDiagonalizer:
    """Diagonalizer given by a finite table of (direction, matrix) samples."""

    def __init__(self, directions: np.ndarray, matrices: np.ndarray):
        self.directions = np.asarray(directions, dtype=float)
        self.matrices = np.asarray(matrices, dtype=float)
        if self.directions.ndim != 2 or self.matrices.ndim != 3:
            raise ValueError("expected directions (m, d) and matrices (m, n, n)")
        if self.directions.shape[0] != self.matrices.shape[0]:
            raise ValueError("direction and matrix counts differ")

    def __call__(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        distances = np.linalg.norm(self.directions - w, axis=1)
        nearest = int(np.argmin(distances))
        if distances[nearest] > 1e-9:
            raise MissingDiagonalizerError(
                f"no stored diagonalizer sample at direction {w} (nearest is {distances[nearest]:.3e} away)"
            )
        return self.matrices[nearest]


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


def max_wave_speed(system: HyperbolicSystem) -> float:
    """Largest modulus of an eigenvalue of ``A(w)`` over 128 sphere samples."""
    advections = system.advection(sphere_samples(system.dimension, 128))
    return float(np.max(np.abs(np.linalg.eigvals(advections))))


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


def check_condition_A(system: HyperbolicSystem) -> ConditionReport:
    """Check uniform diagonalizability with eigenvalues affine in direction.

    The base is the sample of :func:`advection_spectrum` with the most
    clusters, then the widest gap between clusters.  ``A(x)`` is linear in
    ``x``, so a branch ``nu_0 + nu . w`` on the sphere extends to
    ``nu_0 |x| + nu . x``: at the base ``w0`` its gradient is ``nu_0 w0 + nu``
    and its Hessian trace ``(d - 1) nu_0``.  Both are read in closed form
    from the base's eigen-system: with ``V`` its eigenvector matrix and
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
    directions = sphere_samples(system.dimension)
    m = directions.shape[0]
    n = system.size
    scale = 1.0 + float(np.max(np.abs(system.advection(directions))))
    fit_tolerance = 1e-6 * scale
    raw_values, raw_vectors, starts = advection_spectrum(system, directions)
    imag_peak = float(np.max(np.abs(raw_values.imag)))
    if imag_peak > 1e-7 * scale:
        worst = int(np.argmax(np.abs(raw_values.imag).max(axis=1)))
        return ConditionReport(
            condition="A",
            passed=False,
            summary="A(w) has non-real eigenvalues",
            witness={
                "direction": directions[worst].tolist(),
                "imaginary_part": imag_peak,
            },
        )
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
    coefficients = coefficients[:, np.lexsort(keys[::-1])]

    residual = float(np.max(misfit))
    affine_ok = residual <= fit_tolerance
    condition_ok = max_condition < 1e6
    nu = coefficients.T
    witness = None
    if not affine_ok:
        worst = int(np.argmax(misfit.max(axis=1)))
        witness = {"direction": directions[worst].tolist(), "fit_residual": residual}
    elif not condition_ok:
        witness = {"diagonalizer_condition": max_condition}
    return ConditionReport(
        condition="A",
        passed=bool(affine_ok and condition_ok),
        summary=(
            f"{n} affine branches, fit residual {residual:.2e}, "
            f"diagonalizer condition {max_condition:.2e}"
        ),
        data={
            "nu": nu.tolist(),
            "fit_residual": residual,
            "diagonalizer_condition": max_condition,
            "samples": m,
        },
        witness=witness,
    )


def check_condition_R(system: HyperbolicSystem) -> ConditionReport:
    """Check that ``R(w)`` diagonalizes ``A(w)`` and ``R(w)^{-1} B R(w)`` is constant.

    At every sampled direction (the stored ones of a
    :class:`SampledDiagonalizer`) ``cond(R(w))`` must be below ``1e6`` (a
    singular ``R(w)`` fails here, before anything is solved with it), the
    off-diagonal part of ``R(w)^{-1} A(w) R(w)`` at most ``1e-7`` relative
    to the advection scale, and ``R(w)^{-1} B R(w)`` within ``1e-7``
    (relative) of its value at the first direction.

    Raises:
        MissingDiagonalizerError: if the system has no diagonalizer.
    """
    if system.diagonalizer is None:
        raise MissingDiagonalizerError(
            "condition R needs the diagonalizer R(w); none is attached to the system"
        )
    if isinstance(system.diagonalizer, SampledDiagonalizer):
        directions = system.diagonalizer.directions
    else:
        directions = sphere_samples(system.dimension)
    frames = np.stack([np.asarray(system.diagonalizer(w), dtype=float) for w in directions])
    with np.errstate(divide="ignore", invalid="ignore"):
        conditions = np.linalg.cond(frames)
    max_condition = float(np.max(conditions))
    if not max_condition < 1e6:
        worst = int(np.argmax(conditions))  # a NaN (zero R) counts as the worst
        return ConditionReport(
            condition="R",
            passed=False,
            summary=f"diagonalizer condition {max_condition:.2e} is not below 1e6",
            data={"diagonalizer_condition": max_condition},
            witness={
                "direction": directions[worst].tolist(),
                "diagonalizer_condition": max_condition,
            },
        )
    stacks = system.advection(directions)
    diagonalized = np.linalg.solve(frames, stacks @ frames)
    off_diagonal = np.max(np.abs(diagonalized * (1.0 - np.eye(system.size))), axis=(1, 2))
    conjugated = np.linalg.solve(frames, system.relaxation @ frames)
    reference = conjugated[0]
    deviations = np.max(np.abs(conjugated - reference), axis=(1, 2))
    worst_off = float(np.max(off_diagonal))
    worst = float(np.max(deviations))
    witness = None
    if worst_off > 1e-7 * (1.0 + float(np.max(np.abs(stacks)))):
        witness = {
            "direction": directions[int(np.argmax(off_diagonal))].tolist(),
            "off_diagonal_residual": worst_off,
        }
    elif worst > 1e-7 * (1.0 + float(np.max(np.abs(reference)))):
        witness = {
            "direction": directions[int(np.argmax(deviations))].tolist(),
            "deviation": worst,
        }
    return ConditionReport(
        condition="R",
        passed=witness is None,
        summary=(
            f"max deviation of R(w)^-1 B R(w) across {directions.shape[0]} directions: "
            f"{worst:.2e}, off-diagonal residual of R(w)^-1 A(w) R(w) {worst_off:.2e}, "
            f"diagonalizer condition {max_condition:.2e}"
        ),
        data={
            "conjugated_relaxation": reference.tolist(),
            "reference_direction": directions[0].tolist(),
            "max_deviation": worst,
            "off_diagonal_residual": worst_off,
            "diagonalizer_condition": max_condition,
        },
        witness=witness,
    )


def relaxation_kernel(system: HyperbolicSystem) -> tuple[EigenSystem, EigenCluster | None, float]:
    """The eigen-system of ``B``, its cluster within ``tol`` of 0 (``None``
    when ``B`` has no kernel) and ``tol = 10 cluster_tolerance(B)``."""
    eigsys = eigendecompose(system.relaxation)
    tol = 10.0 * cluster_tolerance(system.relaxation)
    return eigsys, eigsys.cluster_near(0.0, tol), tol


def check_condition_B(system: HyperbolicSystem) -> ConditionReport:
    """Check the relaxation spectrum: simple eigenvalue 0, rest in Re > 0."""
    eigsys, kernel, tol = relaxation_kernel(system)
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


def check_condition_D(system: HyperbolicSystem) -> ConditionReport:
    """Check uniform dissipation ``Re lambda(E(ik)) >= theta |k|^2 / (1 + |k|^2)``.

    Samples ``_D_RADIAL_COUNT`` log-spaced moduli from ``1e-3`` to ``1e3``
    times ``_D_SPHERE_COUNT`` sphere directions and reports the infimum of
    ``Re lambda * (1 + |k|^2) / |k|^2``.  The witness on failure is the
    frequency and eigenvalue attaining it.
    """
    directions = sphere_samples(system.dimension, _D_SPHERE_COUNT)
    radii = np.geomspace(1e-3, 1e3, _D_RADIAL_COUNT)
    frequencies = radii[:, None, None] * directions[None, :, :]
    flat = frequencies.reshape(-1, system.dimension)
    symbols = system.symbol(flat)
    eigenvalues = np.linalg.eigvals(symbols)
    moduli = np.repeat(radii, directions.shape[0])
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
    return ConditionReport(
        condition="D",
        passed=bool(passed),
        summary=f"dissipation constant theta = {theta:.6g} over {flat.shape[0]} sampled frequencies",
        data={
            "theta": theta,
            "k_min": float(radii[0]),
            "k_max": float(radii[-1]),
            "radial_count": _D_RADIAL_COUNT,
            "sphere_count": directions.shape[0],
        },
        witness=witness,
    )


def lift_axis_map(system: HyperbolicSystem, rotation: np.ndarray) -> np.ndarray | None:
    """Lift of an orthogonal frequency map ``k -> R k`` to the state space.

    Returns an invertible ``T`` with ``T B = B T`` and
    ``T A^j = (sum_i R_ij A^i) T`` for every ``j``, so that
    ``E(iRk) = T E(ik) T^-1`` at every frequency, or None.  The constraints
    are linear in ``T``: the SVD of their Kronecker form gives the solution
    space, and random combinations of its basis (seed 0) are tried until one
    has ``sigma_min / sigma_max >= 1e-6``; it is scaled to Frobenius norm
    ``sqrt(n)``, and its entries within ``1e-12 max|T|`` of an integer are
    rounded to it, so a signed permutation comes out exact.  None when no
    try is invertible or the lift misses the constraints by more than
    ``1e-12`` relative to the largest coefficient.  Condition S is the lift
    of ``R = -I``.
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
    rng = np.random.default_rng(0)
    for _ in range(100):
        found = (rng.standard_normal(basis.shape[0]) @ basis).reshape(n, n)
        singulars = np.linalg.svd(found, compute_uv=False)
        if singulars[0] > 0 and singulars[-1] / singulars[0] >= 1e-6:
            break
    else:
        return None
    found *= np.sqrt(n) / np.linalg.norm(found)
    whole = np.round(found)
    found = np.where(np.abs(found - whole) <= 1e-12 * np.max(np.abs(found)), whole, found)
    scale = max(float(np.max(np.abs(b))), float(np.max(np.abs(advections))), 1.0)
    residual = max(
        float(np.max(np.abs(found @ b - b @ found))),
        float(np.max(np.abs(found @ advections - images @ found))),
    )
    return found if residual <= 1e-12 * scale else None


def check_condition_S(system: HyperbolicSystem) -> ConditionReport:
    """Check for an invertible symmetry commuting with B, anticommuting with A.

    ``S B = B S`` and ``S A^j = -A^j S`` say ``E(-ik) = S E(ik) S^-1``: ``S``
    lifts ``k -> -k``.  The system's symmetry matrix is verified when it
    carries one; otherwise :func:`lift_axis_map` of ``-I`` is.  Either passes
    when ``sigma_min >= 1e-10 sigma_max`` and the commutator and
    anticommutator are at most ``1e-8`` relative to the coefficients.  The
    certificate stores the matrix.
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
    b = system.relaxation
    scale = 1.0 + float(np.max(np.abs(b))) + max(
        float(np.max(np.abs(a))) for a in system.advections
    )
    commutator = float(np.max(np.abs(s @ b - b @ s)))
    anticommutator = max(float(np.max(np.abs(s @ a + a @ s))) for a in system.advections)
    singulars = np.linalg.svd(s, compute_uv=False)
    invertible = singulars[-1] >= 1e-10 * singulars[0]
    passed = invertible and commutator <= 1e-8 * scale and anticommutator <= 1e-8 * scale
    return ConditionReport(
        condition="S",
        passed=bool(passed),
        summary=(
            f"{source} symmetry: commutator {commutator:.2e}, "
            f"anticommutator {anticommutator:.2e}"
        ),
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
    """Run every applicable condition check; skips R without a diagonalizer."""
    reports = {
        "A": check_condition_A(system),
        "B": check_condition_B(system),
        "D": check_condition_D(system),
        "S": check_condition_S(system),
    }
    if system.diagonalizer is not None:
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
class _DiagonalizerSample:
    """One ``R_samples`` record: the diagonalizer ``R`` at direction ``w``."""

    w: tuple[float, ...]
    R: _Matrix


@dataclass(frozen=True)
class _SystemFile:
    """The system-file schema: field names are the JSON keys.  An absent
    optional key reads as None; a JSON ``null`` is refused."""

    d: int
    n: int
    A: tuple[_Matrix, ...]
    B: _Matrix
    S: _Matrix = None
    R_samples: tuple[_DiagonalizerSample, ...] = None


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
    and optional ``S`` (symmetry matrix) and ``R_samples`` (list of ``{"w":
    direction, "R": matrix}`` records used to build a sampled diagonalizer).
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
    diagonalizer = None
    if spec.R_samples is not None:
        count = len(spec.R_samples)
        if not count:
            raise SystemFileError("invalid R_samples: expected a non-empty list of records")
        diagonalizer = SampledDiagonalizer(
            _array("R_samples.w", [sample.w for sample in spec.R_samples], (count, d)),
            _array("R_samples.R", [sample.R for sample in spec.R_samples], (count, n, n)),
        )
    return HyperbolicSystem(
        advections=tuple(advections),
        relaxation=relaxation,
        diagonalizer=diagonalizer,
        symmetry=symmetry,
        name=Path(path).stem,
    )


def dump_system(system: HyperbolicSystem, path: str | Path) -> None:
    """Write a system definition file readable by :func:`load_system`.

    A callable diagonalizer cannot be serialized and is dropped unless it is
    a :class:`SampledDiagonalizer`.
    """
    payload: dict = {
        "d": system.dimension,
        "n": system.size,
        "A": [a.tolist() for a in system.advections],
        "B": system.relaxation.tolist(),
    }
    if system.symmetry is not None:
        payload["S"] = system.symmetry.tolist()
    if isinstance(system.diagonalizer, SampledDiagonalizer):
        payload["R_samples"] = [
            {"w": w.tolist(), "R": r.tolist()}
            for w, r in zip(system.diagonalizer.directions, system.diagonalizer.matrices)
        ]
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
