"""System definitions and structural condition checks.

A first-order system ``d_t u + sum_j A_j d_j u + B u = 0`` is described by
its advection matrices, its relaxation matrix, and optionally a closed-form
diagonalizer ``R(w)`` of ``A(w) = sum_j w_j A_j`` and a reversal symmetry
``S``.  The checkers sample the unit sphere (and a log-radial frequency
grid) and return structured pass/fail reports with certificates or witness
points; they never raise on a mere failure of the condition, only on inputs
that make the check itself impossible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .linalg import cluster_tolerance, eigendecompose

__all__ = [
    "ModelError",
    "MissingDiagonalizerError",
    "SystemFileError",
    "HyperbolicSystem",
    "ConditionReport",
    "SampledDiagonalizer",
    "sphere_samples",
    "max_wave_speed",
    "check_condition_A",
    "check_condition_R",
    "check_condition_B",
    "check_condition_D",
    "check_condition_S",
    "check_all_conditions",
    "lift_axis_map",
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
        """Directional advection matrix ``A(w) = sum_j w_j A_j``."""
        w = np.asarray(w, dtype=float)
        return sum(w_j * a_j for w_j, a_j in zip(w, self.advections))

    def symbol(self, k: np.ndarray) -> np.ndarray:
        """Frequency symbol ``E(ik) = B + i A(k)``."""
        return self.relaxation + 1j * self.advection(k)

    def symbol_stack(self, k: np.ndarray) -> np.ndarray:
        """Symbols for a stack of frequency vectors ``k`` of shape (..., d)."""
        k = np.asarray(k, dtype=float)
        out = np.broadcast_to(
            self.relaxation.astype(complex), k.shape[:-1] + self.relaxation.shape
        ).copy()
        for j, a in enumerate(self.advections):
            out += 1j * k[..., j, None, None] * a
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


def sphere_samples(dimension: int, count: int = 512, *, seed: int = 0) -> np.ndarray:
    """Deterministic unit-sphere sample of shape ``(m, dimension)``.

    Uses the two signs for d=1, a uniform angle grid for d=2, a Fibonacci
    lattice for d=3, and seeded normalized Gaussians beyond.
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
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((count, dimension))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def max_wave_speed(system: HyperbolicSystem, count: int = 128) -> float:
    """Largest modulus of an eigenvalue of ``A(w)`` over the sampled sphere."""
    stacks = _direction_stack(system, sphere_samples(system.dimension, count))
    return float(np.max(np.abs(np.linalg.eigvals(stacks))))


def _direction_stack(system: HyperbolicSystem, directions: np.ndarray) -> np.ndarray:
    return np.einsum("mj,jab->mab", directions, np.stack(system.advections))


# Steps per great circle when following eigenvalue branches without a diagonalizer.
_CIRCLE_STEPS = 1024


def _great_circle_branches(
    system: HyperbolicSystem, base: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue branches of ``A(w)`` followed around great circles through ``base``.

    There is one circle per orthonormal tangent of ``base``.  Every circle
    starts from the sorted eigenvalues at ``base``; at each later step the
    sorted eigenvalues are handed out in the rank order of the prediction
    ``2 lambda_{i-1} - lambda_{i-2}``, so branches that cross keep their
    labels.  Returns the circle points ``(points, d)`` and the branch values
    ``(points, n)``.
    """
    d, n = system.dimension, system.size
    theta = 2.0 * np.pi * np.arange(_CIRCLE_STEPS) / _CIRCLE_STEPS
    tangents = np.linalg.svd(base[None, :])[2][1:]
    cos, sin = np.cos(theta)[:, None], np.sin(theta)[:, None]
    points = (cos * base + sin * tangents[:, None, :]).reshape(-1, d)
    values = np.sort(np.linalg.eigvals(_direction_stack(system, points)).real, axis=1)
    values = values.reshape(d - 1, _CIRCLE_STEPS, n)
    branches = values.copy()
    for i in range(2, _CIRCLE_STEPS):
        order = np.argsort(2.0 * branches[:, i - 1] - branches[:, i - 2], axis=1)
        np.put_along_axis(branches[:, i], order, values[:, i], axis=1)
    return points, branches.reshape(-1, n)


def check_condition_A(system: HyperbolicSystem, *, count: int = 512) -> ConditionReport:
    """Check uniform diagonalizability with eigenvalues affine in direction.

    With a closed-form diagonalizer the check verifies that
    ``R(w)^{-1} A(w) R(w)`` is diagonal at every sample and fits each
    diagonal entry as ``nu_0 + nu . w``.  Without one, the branches are
    followed around the great circles through the sample with the widest
    eigenvalue gap (see :func:`_great_circle_branches`; in one dimension the
    sorted eigenvalues are fitted), fitted the same way, and the sorted
    fitted values must match the sorted eigenvalues at every sample, which
    needs no branch labels.  The certificate stores the ``(d + 1)``-vector
    of fit coefficients per branch.
    """
    directions = _sampling_directions(system, count)
    m = directions.shape[0]
    n = system.size
    stacks = _direction_stack(system, directions)
    scale = 1.0 + float(np.max(np.abs(stacks)))
    fit_tolerance = 1e-6 * scale
    design = np.column_stack([np.ones(m), directions])

    if system.diagonalizer is not None:
        # With a diagonalizer the branch label is the diagonal position, so
        # the labels are globally consistent without any tracking; the
        # certificate order matches the columns of R(w).
        branch_values = np.empty((m, n))
        max_condition = 0.0
        for i, w in enumerate(directions):
            r = np.asarray(system.diagonalizer(w), dtype=float)
            max_condition = max(max_condition, float(np.linalg.cond(r)))
            conjugated = np.linalg.solve(r, stacks[i] @ r)
            off_diagonal = conjugated - np.diag(np.diag(conjugated))
            if float(np.max(np.abs(off_diagonal))) > 1e-7 * scale:
                return ConditionReport(
                    condition="A",
                    passed=False,
                    summary="provided diagonalizer does not diagonalize A(w)",
                    witness={
                        "direction": w.tolist(),
                        "off_diagonal_residual": float(np.max(np.abs(off_diagonal))),
                    },
                )
            branch_values[i] = np.diag(conjugated)
        coefficients, *_ = np.linalg.lstsq(design, branch_values, rcond=None)
        misfit = np.abs(design @ coefficients - branch_values)
    else:
        raw_values, raw_vectors = np.linalg.eig(stacks)
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
        values = np.sort(raw_values.real, axis=1)
        gaps = np.diff(values, axis=1).min(axis=1) if n > 1 else np.full(m, np.inf)
        base = int(np.argmax(gaps))
        if not gaps[base] > 1e-9 * scale:
            return ConditionReport(
                condition="A",
                passed=False,
                summary=(
                    "eigenvalue branches could not be separated on any of "
                    f"{m} sampled directions"
                ),
                data={
                    "nu": [],
                    "fit_residual": float("nan"),
                    "diagonalizer_condition": max_condition,
                    "samples": 0,
                },
                witness=None,
            )
        if system.dimension == 1:
            points, branches = directions, values
        else:
            points, branches = _great_circle_branches(system, directions[base])
        coefficients, *_ = np.linalg.lstsq(
            np.column_stack([np.ones(points.shape[0]), points]), branches, rcond=None
        )
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


def _sampling_directions(system: HyperbolicSystem, count: int) -> np.ndarray:
    if isinstance(system.diagonalizer, SampledDiagonalizer):
        return system.diagonalizer.directions
    return sphere_samples(system.dimension, count)


def check_condition_R(system: HyperbolicSystem, *, count: int = 512) -> ConditionReport:
    """Check that ``R(w)^{-1} B R(w)`` does not depend on the direction.

    Raises:
        MissingDiagonalizerError: if the system has no diagonalizer.
    """
    if system.diagonalizer is None:
        raise MissingDiagonalizerError(
            "condition R needs the diagonalizer R(w); none is attached to the system"
        )
    directions = _sampling_directions(system, count)
    b = system.relaxation
    reference: np.ndarray | None = None
    reference_direction: np.ndarray | None = None
    worst = 0.0
    worst_direction = directions[0]
    for w in directions:
        r = np.asarray(system.diagonalizer(w), dtype=float)
        conjugated = np.linalg.solve(r, b @ r)
        if reference is None:
            reference = conjugated
            reference_direction = w
            continue
        deviation = float(np.max(np.abs(conjugated - reference)))
        if deviation > worst:
            worst = deviation
            worst_direction = w
    scale = 1.0 + float(np.max(np.abs(reference)))
    passed = worst <= 1e-7 * scale
    return ConditionReport(
        condition="R",
        passed=bool(passed),
        summary=f"max deviation of R(w)^-1 B R(w) across {directions.shape[0]} directions: {worst:.2e}",
        data={
            "conjugated_relaxation": reference.tolist(),
            "reference_direction": reference_direction.tolist(),
            "max_deviation": worst,
        },
        witness=None if passed else {"direction": worst_direction.tolist(), "deviation": worst},
    )


def check_condition_B(system: HyperbolicSystem) -> ConditionReport:
    """Check the relaxation spectrum: simple eigenvalue 0, rest in Re > 0."""
    b = system.relaxation
    eigsys = eigendecompose(b)
    tol = cluster_tolerance(b)
    zero_cluster = eigsys.cluster_near(0.0, 10.0 * tol)
    eigenvalues = [[float(v.real), float(v.imag)] for v in eigsys.values]
    if zero_cluster is None:
        return ConditionReport(
            condition="B",
            passed=False,
            summary="relaxation matrix has no kernel",
            data={"eigenvalues": eigenvalues},
            witness={"eigenvalues": eigenvalues},
        )
    if zero_cluster.multiplicity != 1:
        return ConditionReport(
            condition="B",
            passed=False,
            summary=f"eigenvalue 0 has multiplicity {zero_cluster.multiplicity}",
            data={"eigenvalues": eigenvalues},
            witness={"multiplicity": zero_cluster.multiplicity},
        )
    others = np.delete(eigsys.values, list(zero_cluster.indices))
    if others.size == 0:
        return ConditionReport(
            condition="B",
            passed=False,
            summary="relaxation matrix is 1x1 zero; no dissipative part",
            data={"eigenvalues": eigenvalues},
            witness=None,
        )
    min_real = float(np.min(others.real))
    gap = float(np.min(np.abs(others)))
    passed = min_real > 10.0 * tol
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


def check_condition_D(
    system: HyperbolicSystem,
    *,
    k_min: float = 1e-3,
    k_max: float = 1e3,
    radial_count: int = 61,
    sphere_count: int = 512,
) -> ConditionReport:
    """Check uniform dissipation ``Re lambda(E(ik)) >= theta |k|^2 / (1 + |k|^2)``.

    Samples a log-radial grid of moduli times a sphere sample of directions
    and reports the infimum of ``Re lambda * (1 + |k|^2) / |k|^2``.  The
    witness on failure is the frequency and eigenvalue attaining it.
    """
    directions = sphere_samples(system.dimension, sphere_count)
    radii = np.geomspace(k_min, k_max, radial_count)
    frequencies = radii[:, None, None] * directions[None, :, :]
    flat = frequencies.reshape(-1, system.dimension)
    symbols = system.symbol_stack(flat)
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
            "k_min": k_min,
            "k_max": k_max,
            "radial_count": radial_count,
            "sphere_count": directions.shape[0],
        },
        witness=witness,
    )


def _symmetry_residuals(system: HyperbolicSystem, s: np.ndarray) -> tuple[float, float]:
    b = system.relaxation
    commutator = float(np.max(np.abs(s @ b - b @ s)))
    anticommutator = max(
        float(np.max(np.abs(s @ a + a @ s))) for a in system.advections
    )
    return commutator, anticommutator


def _intertwiner(
    pairs: list[tuple[np.ndarray, np.ndarray]], seed: int
) -> tuple[np.ndarray | None, dict]:
    """An invertible ``X`` with ``X M = N X`` for every ``(M, N)`` in ``pairs``.

    The constraints are linear in ``X``: the SVD of their Kronecker form gives
    the solution space, and seeded random combinations of its basis are tried
    until one has ``sigma_min / sigma_max >= 1e-6``; it is returned scaled to
    Frobenius norm ``sqrt(n)``.  ``info`` records the dimension of the
    solution space and, when no invertible element turns up, the best ratio.
    """
    n = pairs[0][0].shape[0]
    eye = np.eye(n)
    # Row-major vec: vec(X M) = (I (x) M^T) vec(X), vec(N X) = (N (x) I) vec(X).
    stacked = np.vstack([np.kron(eye, m.T) - np.kron(target, eye) for m, target in pairs])
    _, singular_values, vt = np.linalg.svd(stacked)
    top = singular_values[0] if singular_values.size else 0.0
    null_mask = np.zeros(vt.shape[0], dtype=bool)
    null_mask[singular_values.shape[0] :] = True
    null_mask[: singular_values.shape[0]] = singular_values <= 1e-10 * max(top, 1.0)
    basis = vt[null_mask]
    info = {"solution_space_dimension": int(basis.shape[0])}
    if basis.shape[0] == 0:
        return None, info
    rng = np.random.default_rng(seed)
    best_ratio = 0.0
    for _ in range(100):
        candidate = (rng.standard_normal(basis.shape[0]) @ basis).reshape(n, n)
        singulars = np.linalg.svd(candidate, compute_uv=False)
        ratio = float(singulars[-1] / singulars[0]) if singulars[0] > 0 else 0.0
        best_ratio = max(best_ratio, ratio)
        if ratio >= 1e-6:
            candidate *= np.sqrt(n) / np.linalg.norm(candidate)
            return candidate, info
    info["best_invertibility_ratio"] = best_ratio
    return None, info


def lift_axis_map(system: HyperbolicSystem, rotation: np.ndarray) -> np.ndarray | None:
    """Lift of an orthogonal frequency map ``k -> R k`` to the state space.

    Returns an invertible ``T`` with ``T B = B T`` and
    ``T A^j = (sum_i R_ij A^i) T`` for every ``j``, so that
    ``E(iRk) = T E(ik) T^-1`` at every frequency, or None when the
    constraints admit no invertible solution or the one found misses them by
    more than 1e-12 relative to the largest coefficient.  The solution space
    comes from the Kronecker null-space solver that condition S uses.
    """
    b = system.relaxation
    advections = np.stack(system.advections)
    images = np.einsum("ij,ikl->jkl", np.asarray(rotation, dtype=float), advections)
    found, _ = _intertwiner([(b, b)] + list(zip(advections, images)), seed=0)
    if found is None:
        return None
    scale = max(float(np.max(np.abs(b))), float(np.max(np.abs(advections))), 1.0)
    residual = max(
        float(np.max(np.abs(found @ b - b @ found))),
        float(np.max(np.abs(found @ advections - images @ found))),
    )
    return found if residual <= 1e-12 * scale else None


def check_condition_S(system: HyperbolicSystem, *, seed: int = 0) -> ConditionReport:
    """Check for an invertible symmetry commuting with B, anticommuting with A.

    If the system carries a symmetry matrix it is verified; otherwise the
    solution space of the (anti)commutation constraints is computed and
    searched for an invertible element.  The certificate stores the matrix.
    """
    scale = 1.0 + float(np.max(np.abs(system.relaxation))) + max(
        float(np.max(np.abs(a))) for a in system.advections
    )
    if system.symmetry is not None:
        s = system.symmetry
        commutator, anticommutator = _symmetry_residuals(system, s)
        singulars = np.linalg.svd(s, compute_uv=False)
        invertible = singulars[-1] >= 1e-10 * singulars[0]
        passed = invertible and commutator <= 1e-8 * scale and anticommutator <= 1e-8 * scale
        return ConditionReport(
            condition="S",
            passed=bool(passed),
            summary=(
                f"provided symmetry: commutator {commutator:.2e}, "
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
    b = system.relaxation
    found, info = _intertwiner([(b, b)] + [(a, -a) for a in system.advections], seed)
    if found is None:
        return ConditionReport(
            condition="S",
            passed=False,
            summary="no invertible symmetry found in the constraint solution space",
            data=info,
            witness=info,
        )
    commutator, anticommutator = _symmetry_residuals(system, found)
    return ConditionReport(
        condition="S",
        passed=True,
        summary=f"found symmetry in a solution space of dimension {info['solution_space_dimension']}",
        data={
            "symmetry": found.tolist(),
            "commutator_residual": commutator,
            "anticommutator_residual": anticommutator,
            **info,
        },
    )


def check_all_conditions(
    system: HyperbolicSystem, *, count: int = 512
) -> dict[str, ConditionReport]:
    """Run every applicable condition check; skips R without a diagonalizer."""
    reports = {
        "A": check_condition_A(system, count=count),
        "B": check_condition_B(system),
        "D": check_condition_D(system, sphere_count=count),
        "S": check_condition_S(system),
    }
    if system.diagonalizer is not None:
        reports["R"] = check_condition_R(system, count=count)
    return reports


_ALLOWED_KEYS = {"d", "n", "A", "B", "R_samples", "S"}


def _rectangular(key: str, value, *, depth: int) -> np.ndarray:
    try:
        array = np.array(value, dtype=float)
    except (ValueError, TypeError) as exc:
        raise SystemFileError(
            f"key '{key}': expected a rectangular numeric array ({exc})"
        ) from exc
    if array.ndim != depth:
        raise SystemFileError(
            f"key '{key}': expected a nesting depth of {depth}, got {array.ndim}"
        )
    return array


def load_system(path: str | Path) -> HyperbolicSystem:
    """Load a system definition from a JSON file.

    The schema has integer keys ``d`` and ``n``, ``A`` (list of ``d``
    row-major ``n x n`` arrays), ``B`` (row-major ``n x n``), and optional
    ``S`` (symmetry matrix) and ``R_samples`` (list of ``{"w": direction,
    "R": matrix}`` records used to build a sampled diagonalizer).  Unknown
    keys and ragged arrays are rejected with a message naming the key.

    Raises:
        SystemFileError: on malformed content.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise SystemFileError(f"cannot read system file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SystemFileError(f"system file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SystemFileError("system file must contain a JSON object at top level")
    unknown = set(raw) - _ALLOWED_KEYS
    if unknown:
        raise SystemFileError(
            f"unknown key '{sorted(unknown)[0]}' (allowed: {sorted(_ALLOWED_KEYS)})"
        )
    for required in ("d", "n", "A", "B"):
        if required not in raw:
            raise SystemFileError(f"missing required key '{required}'")
    for key in ("d", "n"):
        if type(raw[key]) is not int or raw[key] < 1:
            raise SystemFileError(f"key '{key}': expected a positive integer")
    d, n = raw["d"], raw["n"]
    advections = _rectangular("A", raw["A"], depth=3)
    relaxation = _rectangular("B", raw["B"], depth=2)
    if advections.shape != (d, n, n):
        raise SystemFileError(
            f"key 'A': expected shape ({d}, {n}, {n}), got {advections.shape}"
        )
    if relaxation.shape != (n, n):
        raise SystemFileError(
            f"key 'B': expected shape ({n}, {n}), got {relaxation.shape}"
        )
    symmetry = None
    if "S" in raw:
        symmetry = _rectangular("S", raw["S"], depth=2)
        if symmetry.shape != (n, n):
            raise SystemFileError(
                f"key 'S': expected shape {(n, n)}, got {symmetry.shape}"
            )
    diagonalizer = None
    if "R_samples" in raw:
        records = raw["R_samples"]
        if not isinstance(records, list) or not records:
            raise SystemFileError("key 'R_samples': expected a non-empty list of records")
        directions = []
        matrices = []
        for i, record in enumerate(records):
            if not isinstance(record, dict) or set(record) != {"w", "R"}:
                raise SystemFileError(
                    f"key 'R_samples': record {i} must have exactly the keys 'w' and 'R'"
                )
            w = _rectangular(f"R_samples[{i}].w", record["w"], depth=1)
            r = _rectangular(f"R_samples[{i}].R", record["R"], depth=2)
            if w.shape != (d,) or r.shape != (n, n):
                raise SystemFileError(
                    f"key 'R_samples': record {i} has shapes {w.shape}/{r.shape}, "
                    f"expected ({d},)/{(n, n)}"
                )
            directions.append(w)
            matrices.append(r)
        diagonalizer = SampledDiagonalizer(np.array(directions), np.array(matrices))
    return HyperbolicSystem(
        advections=tuple(advections),
        relaxation=relaxation,
        diagonalizer=diagonalizer,
        symmetry=symmetry,
        name=path.stem,
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
