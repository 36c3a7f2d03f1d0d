"""Analytic perturbation series for polynomial matrix families.

A family ``T(z) = T0 + z T1 + z^2 T2 + ...`` with an isolated eigenvalue
group of ``T0`` at ``lam0`` has a total spectral projection ``P(z)`` and
group eigenvalues that are analytic in ``z`` near zero.  This module
computes their Taylor coefficients two independent ways:

* closed-form second order via the auxiliary chain ``X(0) = -P0``,
  ``X(j) = Q0^j``, ``X(-j) = -N0^j`` built from the unperturbed projection
  ``P0``, nilpotent ``N0`` and reduced resolvent ``Q0``
  (:func:`total_projection_series`);
* arbitrary order by contour quadrature of resolvent products summed over
  compositions of the order (:func:`projection_coefficients`), and from
  those the weighted mean of the group's eigenvalues
  (:func:`weighted_mean_series`), which for a simple group is its branch.

The quadrature route needs no structure beyond isolation of the group, so it
doubles as the oracle for the closed forms.  The unperturbed group, and each
part of it split off by :func:`reduce_semisimple_group` from its first-order
restriction, is a :class:`~hyprelax.linalg.SpectralGroup` built by
:func:`~hyprelax.linalg.spectral_group`.  :func:`partition_derivative`
differentiates ``exp(polynomial)`` by summing over set partitions.
:func:`symmetry_vanishing_check` measures its reversal symmetry with
:func:`~hyprelax.model.lift_residuals`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    SpectralGroup,
    _resolvent_factory,
    cauchy_integral,
    cluster_tolerance,
    eigendecompose,
    reduced_resolvent,
    spectral_group,
)
from .model import lift_residuals

__all__ = [
    "PerturbationError",
    "NotAnEigenvalueError",
    "NotSemisimpleError",
    "PreconditionViolatedError",
    "OrderTooLargeError",
    "PerturbationFamily",
    "GroupExpansion",
    "ReducedGroup",
    "SymmetryCheckResult",
    "total_projection_series",
    "projection_coefficients",
    "weighted_mean_series",
    "reduce_semisimple_group",
    "symmetry_vanishing_check",
    "partition_derivative",
]

MAX_SERIES_ORDER = 6

# The largest odd coefficient that :func:`symmetry_vanishing_check` accepts.
_ODD_BOUND = 1e-9


class PerturbationError(Exception):
    """Base class for errors raised by this module."""


class NotAnEigenvalueError(PerturbationError):
    """The reference value is not within clustering tolerance of sigma(T0)."""


class NotSemisimpleError(PerturbationError):
    """The eigenvalue group carries a nontrivial nilpotent part."""


class PreconditionViolatedError(PerturbationError):
    """An input fails a structural requirement of the requested expansion."""


class OrderTooLargeError(PerturbationError):
    """The requested series order exceeds the supported maximum."""


class PerturbationFamily:
    """Finite polynomial family ``T(z) = sum_j z^j * terms[j]``."""

    def __init__(self, t0: np.ndarray, t1: np.ndarray, higher: tuple[np.ndarray, ...] = ()):
        terms = [np.asarray(t0), np.asarray(t1), *(np.asarray(t) for t in higher)]
        shape = terms[0].shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"family terms must be square matrices, got shape {shape}")
        for j, term in enumerate(terms):
            if term.shape != shape:
                raise ValueError(f"term {j} has shape {term.shape}, expected {shape}")
        self.terms: tuple[np.ndarray, ...] = tuple(terms)

    @property
    def dim(self) -> int:
        return self.terms[0].shape[0]

    @property
    def degree(self) -> int:
        return len(self.terms) - 1

    def term(self, j: int) -> np.ndarray:
        """Coefficient matrix of ``z^j`` (zero beyond the stored degree)."""
        if 0 <= j <= self.degree:
            return self.terms[j]
        return np.zeros_like(self.terms[0])

    def evaluate(self, z: complex) -> np.ndarray:
        out = np.zeros(self.terms[0].shape, dtype=np.result_type(self.terms[0].dtype, type(z)))
        for term in reversed(self.terms):
            out = z * out + term
        return out


@dataclass(frozen=True)
class GroupExpansion:
    """Second-order data of a perturbed eigenvalue group.

    ``group`` is the unperturbed group and ``reduced`` its reduced resolvent;
    ``corrections[j-1]`` is the ``z^j`` coefficient of the total projection
    for ``j = 1, 2``.
    """

    group: SpectralGroup
    reduced: np.ndarray
    corrections: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class ReducedGroup:
    """Splitting of a semisimple group by its first-order restriction.

    ``group`` is the unperturbed group and ``operator`` is ``P0 T1 P0``;
    ``parts[j]`` is the ``j``-th eigenvalue group of ``operator`` on the
    range of ``P0``.
    """

    group: SpectralGroup
    operator: np.ndarray
    parts: tuple[SpectralGroup, ...]


@dataclass(frozen=True)
class SymmetryCheckResult:
    """Outcome of the odd-coefficient vanishing test."""

    passed: bool
    coefficients: np.ndarray
    odd_residual: float
    commutator_residual: float
    anticommutator_residual: float


def _base_group(family: PerturbationFamily, lam0: complex) -> SpectralGroup:
    """The eigenvalue group of ``T0`` at ``lam0``."""
    t0 = family.terms[0]
    eigsys = eigendecompose(t0)
    cluster = eigsys.cluster_near(lam0, 10.0 * cluster_tolerance(t0))
    if cluster is None:
        raise NotAnEigenvalueError(
            f"{lam0} is not an eigenvalue of the base term (spectrum {np.round(eigsys.values, 6)})"
        )
    try:
        return spectral_group(t0, eigsys, cluster)
    except ValueError as exc:
        raise PreconditionViolatedError(str(exc)) from exc


def _x_chain(
    projection: np.ndarray, nilpotent: np.ndarray, reduced: np.ndarray, depth: int
) -> dict[int, np.ndarray]:
    # Auxiliary operators X(0) = -P0, X(j) = Q0^j, X(-j) = -N0^j; products of
    # the resolvent's Laurent coefficients that appear in the projection
    # series.
    chain = {0: -projection}
    power = np.eye(projection.shape[0], dtype=projection.dtype)
    for j in range(1, depth + 1):
        power = power @ reduced
        chain[j] = power
    power = np.eye(projection.shape[0], dtype=projection.dtype)
    for j in range(1, depth + 1):
        power = power @ nilpotent
        chain[-j] = -power
    return chain


def total_projection_series(family: PerturbationFamily, lam0: complex) -> GroupExpansion:
    """First- and second-order coefficients of the total projection.

    Uses the closed forms ``P1 = sum_{i+j=1} X(i) T1 X(j)`` and
    ``P2 = sum_{i+j=1} X(i) T2 X(j) - sum_{i+j+h=2} X(i) T1 X(j) T1 X(h)``,
    with indices running over the stored chain.

    Raises:
        NotAnEigenvalueError: if ``lam0`` is not in the spectrum of ``T0``.
    """
    group = _base_group(family, lam0)
    t0, t1 = family.terms[0], family.terms[1]
    t2 = family.term(2)
    q0 = reduced_resolvent(t0, group.value, group.contour)

    depth = family.dim + 1
    x = _x_chain(group.projection, group.nilpotent, q0, depth)
    span = range(-depth, depth + 1)

    p1 = sum(x[i] @ t1 @ x[j] for i in span for j in span if i + j == 1)
    p2 = sum(x[i] @ t2 @ x[j] for i in span for j in span if i + j == 1)
    p2 = p2 - sum(
        x[i] @ t1 @ x[j] @ t1 @ x[h]
        for i in span
        for j in span
        for h in span
        if i + j + h == 2
    )
    return GroupExpansion(group=group, reduced=q0, corrections=(p1, p2))


def _compositions(total: int) -> list[tuple[int, ...]]:
    if total == 0:
        return [()]
    out = []
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            out.append((first,) + rest)
    return out


def projection_coefficients(
    family: PerturbationFamily, lam0: complex, order: int
) -> list[np.ndarray]:
    """Taylor coefficients ``[P0, P1, ..., P_order]`` of the total projection.

    Each ``P_j`` is a contour integral of resolvent products summed over the
    compositions of ``j``, so the result is structure-free: it is valid for
    degenerate and defective groups alike and serves as the oracle for the
    closed second-order forms.

    Raises:
        ValueError: if ``order`` is below 1.
        OrderTooLargeError: if ``order`` exceeds ``MAX_SERIES_ORDER``.
    """
    return _projection_series(family, _base_group(family, lam0), order)


def _projection_series(
    family: PerturbationFamily, group: SpectralGroup, order: int
) -> list[np.ndarray]:
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if order > MAX_SERIES_ORDER:
        raise OrderTooLargeError(f"order {order} exceeds the supported {MAX_SERIES_ORDER}")
    resolvents = _resolvent_factory(family.terms[0])
    coefficients = [group.projection]
    for j in range(1, order + 1):
        terms = [
            nu
            for nu in _compositions(j)
            if all(part <= family.degree for part in nu)
        ]

        def integrand(z: np.ndarray, terms=terms) -> np.ndarray:
            rz = resolvents(z)
            total = np.zeros_like(rz)
            for nu in terms:
                product = rz
                for part in nu:
                    product = product @ family.term(part) @ rz
                total += product
            return total

        coefficients.append(cauchy_integral(integrand, group.contour))
    return coefficients


def weighted_mean_series(
    family: PerturbationFamily, lam0: complex, order: int = 2
) -> np.ndarray:
    """Coefficients ``[lam0, hat_lam_1, ..., hat_lam_order]`` of the weighted
    mean of a perturbed eigenvalue group.

    The weighted mean ``(1/m) trace(T(z) P(z))`` over the group of
    multiplicity ``m`` is analytic even when the group splits; for a simple
    group (``m = 1``) it is the eigenvalue branch itself (Kato, II §2).
    Coefficients are assembled from the projection series via
    ``m * hat_lam_j = sum_{i+l=j} trace(T_i_shifted @ P_l)`` with
    ``T_0_shifted = T0 - lam0``; this handles families with higher terms and
    defective groups.

    Raises:
        NotAnEigenvalueError: if ``lam0`` is not in the spectrum of ``T0``.
        ValueError: if ``order`` is below 1.
        OrderTooLargeError: if ``order`` exceeds ``MAX_SERIES_ORDER``.
    """
    group = _base_group(family, lam0)
    projections = _projection_series(family, group, order)
    shifted0 = family.terms[0] - group.value * np.eye(family.dim)
    coeffs = np.empty(order + 1, dtype=complex)
    coeffs[0] = group.value
    for j in range(1, order + 1):
        total = np.trace(shifted0 @ projections[j])
        for i in range(1, min(j, family.degree) + 1):
            total += np.trace(family.term(i) @ projections[j - i])
        coeffs[j] = total / group.multiplicity
    return coeffs


def reduce_semisimple_group(family: PerturbationFamily, lam0: complex) -> ReducedGroup:
    """Split a semisimple degenerate group by the restriction of ``T1``.

    The group eigenvalues behave as ``lam0 + z * beta_j + o(z)`` where
    ``beta_j`` are the eigenvalues of ``P0 T1 P0`` on the range of ``P0``.
    To isolate them with contour machinery the complement is shifted far
    away: projections and nilpotents are extracted from
    ``P0 T1 P0 + gamma (I - P0)``.

    Raises:
        NotSemisimpleError: if the group at ``lam0`` carries a nilpotent.
    """
    group = _base_group(family, lam0)
    t0, t1 = family.terms[0], family.terms[1]
    nilpotent_norm = float(np.linalg.norm(group.nilpotent))
    if nilpotent_norm > 1e-8 * (1.0 + float(np.linalg.norm(t0))):
        raise NotSemisimpleError(
            f"group at {lam0} has nilpotent part of norm {nilpotent_norm:.3e}"
        )

    p0 = group.projection
    operator = p0 @ t1 @ p0
    gamma = 2.0 * (1.0 + float(np.linalg.norm(operator)))
    shifted = operator + gamma * (np.eye(family.dim) - p0)
    inner = eigendecompose(shifted)
    tol = cluster_tolerance(shifted)
    # The shifted complement sits at gamma unless the group fills the space.
    fills = group.multiplicity == family.dim
    parts = tuple(
        spectral_group(shifted, inner, sub)
        for sub in inner.clusters
        if fills or abs(sub.value - gamma) > 100.0 * tol
    )
    return ReducedGroup(group=group, operator=operator, parts=parts)


def symmetry_vanishing_check(
    family: PerturbationFamily,
    s: np.ndarray,
    lam0: complex = 0.0,
    *,
    order: int = 3,
) -> SymmetryCheckResult:
    """Verify that a reversal symmetry kills the odd eigenvalue coefficients.

    An invertible ``s`` with ``s T_j = (-1)^j T_j s`` for every term
    conjugates ``T(z)`` to ``T(-z)``, so the weighted mean of the group at
    ``lam0`` (:func:`weighted_mean_series`), which is the branch when the
    group is simple, is even in ``z``.  The check computes it through
    ``order`` and passes when every odd coefficient is at most ``1e-9``.
    ``commutator_residual`` is that of ``T0`` and ``anticommutator_residual``
    the largest of the other terms, both from
    :func:`~hyprelax.model.lift_residuals`.

    Raises:
        PreconditionViolatedError: if ``sigma_min / sigma_max`` of ``s`` is
            below ``1e-12`` or a residual exceeds ``1e-8``.
    """
    higher = family.terms[1:]
    images = [(-1) ** j * term for j, term in enumerate(higher, start=1)]
    commutator, anticommutator, conditioning = lift_residuals(s, family.terms[0], higher, images)
    if conditioning < 1e-12:
        raise PreconditionViolatedError(
            f"symmetry matrix is numerically singular (sigma_min / sigma_max {conditioning:.3e})"
        )
    if commutator > 1e-8:
        raise PreconditionViolatedError(
            f"symmetry does not commute with the base term (residual {commutator:.3e})"
        )
    if anticommutator > 1e-8:
        raise PreconditionViolatedError(
            f"symmetry does not map T(z) to T(-z) (residual {anticommutator:.3e})"
        )
    coefficients = weighted_mean_series(family, lam0, order)
    odd_residual = float(np.max(np.abs(coefficients[1::2])))
    return SymmetryCheckResult(
        passed=bool(odd_residual <= _ODD_BOUND),
        coefficients=coefficients,
        odd_residual=odd_residual,
        commutator_residual=commutator,
        anticommutator_residual=anticommutator,
    )


def _set_partitions(count: int):
    # Restricted-growth strings: code[i] <= 1 + max(code[:i]); each string is
    # one set partition of {0, ..., count-1}.
    if count == 0:
        yield []
        return
    code = [0] * count
    while True:
        blocks: dict[int, list[int]] = {}
        for i, c in enumerate(code):
            blocks.setdefault(c, []).append(i)
        yield list(blocks.values())
        i = count - 1
        while i > 0:
            if code[i] <= max(code[:i]):
                code[i] += 1
                for j in range(i + 1, count):
                    code[j] = 0
                break
            i -= 1
        else:
            return


def _poly_derivative(
    poly: dict[tuple[int, ...], float], beta: tuple[int, ...]
) -> dict[tuple[int, ...], float]:
    out: dict[tuple[int, ...], float] = {}
    for exponents, coeff in poly.items():
        new_exponents = []
        factor = float(coeff)
        for e, b in zip(exponents, beta):
            if b > e:
                factor = 0.0
                break
            for step in range(b):
                factor *= e - step
            new_exponents.append(e - b)
        if factor != 0.0:
            key = tuple(new_exponents)
            out[key] = out.get(key, 0.0) + factor
    return out


def _poly_eval(poly: dict[tuple[int, ...], float], point: np.ndarray) -> float:
    total = 0.0
    for exponents, coeff in poly.items():
        term = coeff
        for x, e in zip(point, exponents):
            if e:
                term *= x**e
        total += term
    return float(total)


def partition_derivative(
    alpha: tuple[int, ...],
    poly: dict[tuple[int, ...], float],
    point: np.ndarray,
) -> float:
    """Mixed derivative ``d^alpha exp(q)`` at ``point`` for polynomial ``q``.

    Expands the derivative over set partitions of the ``|alpha|`` derivative
    slots: each partition contributes the product over its blocks of the
    corresponding mixed derivative of ``q``, all multiplied by
    ``exp(q(point))``.

    ``poly`` maps exponent tuples to coefficients; ``alpha`` and every
    exponent tuple must have the same length as ``point``.

    Raises:
        OrderTooLargeError: if ``|alpha|`` exceeds ``MAX_SERIES_ORDER``.
    """
    point = np.asarray(point, dtype=float)
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != point.shape[0]:
        raise ValueError(f"alpha length {len(alpha)} does not match point dimension {point.shape[0]}")
    if any(a < 0 for a in alpha):
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    total_order = sum(alpha)
    if total_order > MAX_SERIES_ORDER:
        raise OrderTooLargeError(
            f"derivative order {total_order} exceeds the supported {MAX_SERIES_ORDER}"
        )
    dim = point.shape[0]
    for exponents in poly:
        if len(exponents) != dim:
            raise ValueError(f"polynomial key {exponents} does not match dimension {dim}")

    slots: list[int] = []
    for coordinate, repeats in enumerate(alpha):
        slots.extend([coordinate] * repeats)

    derivative_cache: dict[tuple[int, ...], float] = {}

    def block_value(block: list[int]) -> float:
        beta = [0] * dim
        for slot in block:
            beta[slots[slot]] += 1
        key = tuple(beta)
        if key not in derivative_cache:
            derivative_cache[key] = _poly_eval(_poly_derivative(poly, key), point)
        return derivative_cache[key]

    total = 0.0
    for partition in _set_partitions(len(slots)):
        product = 1.0
        for block in partition:
            product *= block_value(block)
            if product == 0.0:
                break
        total += product
    return float(np.exp(_poly_eval(poly, point)) * total)
