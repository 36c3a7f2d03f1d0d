"""Dense linear-algebra kernels shared by the higher layers.

Everything here works on plain numpy arrays: batched eigenvalues and the one
clustering rule, a batched matrix exponential, adaptive contour quadrature for
spectral projections and reduced resolvents, and :func:`spectral_group`, the
one builder of an isolated eigenvalue group by contour quadrature.  Its
callers are :func:`~hyprelax.chapman.exact_group_projection`, the spectral
engine's fallback and audit projection, and :mod:`~hyprelax.perturbation`,
the series oracle; every other expansion reads eigen-data directly.  All
tolerances are explicit and conservative; the routines raise typed errors
instead of returning silently degraded results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinalgError",
    "SingularMatrixError",
    "ConvergenceFailureError",
    "ContourTouchesSpectrumError",
    "QuadratureNotConvergedError",
    "EigenCluster",
    "EigenSystem",
    "Contour",
    "SpectralGroup",
    "cluster_tolerance",
    "cluster_labels",
    "sorted_eigenvalues",
    "eigendecompose",
    "matrix_exponential",
    "cauchy_integral",
    "contour_projection",
    "reduced_resolvent",
    "separating_contour",
    "spectral_group",
]


class LinalgError(Exception):
    """Base class for errors raised by this module."""


class SingularMatrixError(LinalgError):
    """A linear solve hit a numerically singular matrix."""


class ConvergenceFailureError(LinalgError):
    """An iterative LAPACK eigenvalue routine failed to converge."""


class ContourTouchesSpectrumError(LinalgError):
    """An eigenvalue lies on (or numerically on) an integration contour."""


class QuadratureNotConvergedError(LinalgError):
    """Contour quadrature did not reach tolerance at the node cap."""


def cluster_tolerance(m: np.ndarray) -> float | np.ndarray:
    """Absolute tolerance under which eigenvalues of ``m`` are grouped, one per
    matrix of a stack ``(..., n, n)``."""
    return 1e-8 * (1.0 + np.linalg.norm(m, axis=(-2, -1)))


@dataclass(frozen=True)
class EigenCluster:
    """A group of mutually close eigenvalues treated as one spectral point.

    ``value`` is the arithmetic mean of the members and ``indices`` points
    into the owning :class:`EigenSystem` ordering.
    """

    value: complex
    indices: tuple[int, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues with clustered multiplicity structure.

    ``values`` is sorted by (real, imaginary) part and ``clusters`` index it.
    """

    values: np.ndarray
    clusters: tuple[EigenCluster, ...]

    def cluster_near(self, z: complex, tol: float) -> EigenCluster | None:
        """Return the cluster whose members include a point within ``tol``."""
        for cluster in self.clusters:
            if np.min(np.abs(self.values[list(cluster.indices)] - z)) <= tol:
                return cluster
        return None


@dataclass(frozen=True)
class Contour:
    """A positively oriented circle ``center + radius * exp(i theta)``."""

    center: complex
    radius: float

    def __post_init__(self) -> None:
        if not self.radius > 0.0:
            raise ValueError(f"contour radius must be positive, got {self.radius}")


def cluster_labels(values: np.ndarray, tol: float | np.ndarray) -> np.ndarray:
    """Cluster labels of a stack of eigenvalues ``(..., n)``, one ``tol`` per
    row: the smallest index each value reaches through a chain of pairs at
    most ``tol`` apart.  A cluster starts where a label is its own index."""
    values = np.asarray(values)
    close = np.abs(values[..., :, None] - values[..., None, :]) <= np.asarray(tol)[..., None, None]
    labels = np.broadcast_to(np.arange(values.shape[-1]), values.shape)
    # Each pass moves a label one link down a chain; a chain has at most n - 1.
    for _ in range(values.shape[-1] - 1):
        labels = np.where(close, labels[..., None, :], labels[..., :, None]).min(axis=-1)
    return labels


def sorted_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a matrix or a stack ``(..., n, n)`` from one ``eigvals``
    call, each row sorted by real and then imaginary part.  Raises
    :class:`ConvergenceFailureError` if the QR iteration does not converge."""
    try:
        values = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(f"eigendecomposition failed: {exc}") from exc
    return np.take_along_axis(values, np.lexsort((values.imag, values.real)), axis=-1)


def eigendecompose(m: np.ndarray) -> EigenSystem:
    """Eigenvalues of a square matrix, with nearby eigenvalues clustered.

    Clusters are the :func:`cluster_labels` of the sorted eigenvalues at
    :func:`cluster_tolerance` (``1e-8 * (1 + |m|_F)``).

    Raises:
        ConvergenceFailureError: if the QR iteration does not converge.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    values = sorted_eigenvalues(m)
    labels = cluster_labels(values, cluster_tolerance(m))
    starts = np.flatnonzero(labels == np.arange(values.size))
    clusters = [
        EigenCluster(value=complex(np.mean(values[idx])), indices=tuple(idx.tolist()))
        for idx in (np.flatnonzero(labels == start) for start in starts)
    ]
    clusters.sort(key=lambda c: (c.value.real, c.value.imag))
    return EigenSystem(values=values, clusters=tuple(clusters))


# Degree-13 diagonal Pade coefficients and the matching 1-norm threshold for
# unit roundoff 2^-53.
_PADE13_THETA = 5.371920351148152
_PADE13_B = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)


def matrix_exponential(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Pade(13) core.

    Accepts a single matrix or a stack ``(..., n, n)``; the whole stack is
    scaled by one shared power of two (the worst member's), so the batch is
    evaluated with three fused matmul chains regardless of size.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected shape (..., n, n), got {m.shape}")
    dtype = np.result_type(m.dtype, np.float64)
    a = m.astype(dtype, copy=True)
    n = a.shape[-1]
    one_norms = np.abs(a).sum(axis=-2).max(axis=-1)
    largest = float(np.max(one_norms)) if one_norms.size else 0.0
    squarings = 0
    if largest > _PADE13_THETA:
        squarings = int(np.ceil(np.log2(largest / _PADE13_THETA)))
        a /= 2.0**squarings

    b = _PADE13_B
    eye = np.broadcast_to(np.eye(n, dtype=dtype), a.shape)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    try:
        r = np.linalg.solve(v - u, v + u)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"Pade denominator is singular: {exc}") from exc
    for _ in range(squarings):
        r = r @ r
    return r


# Contour quadrature starts at this many trapezoid nodes and doubles them
# until two levels agree to this Frobenius distance, giving up beyond this
# many nodes.
_QUADRATURE_NODES = 64
_QUADRATURE_TOL = 1e-11
_QUADRATURE_MAX_NODES = 4096


def cauchy_integral(integrand, contour: Contour) -> np.ndarray:
    """Evaluate ``(1 / 2 pi i) * contour integral of integrand(z) dz``.

    ``integrand`` must map an array of contour points ``(m,)`` to values of
    shape ``(m, ...)``.  Trapezoid nodes start at ``_QUADRATURE_NODES`` and double
    until two successive levels agree to ``_QUADRATURE_TOL`` in Frobenius norm.

    Raises:
        QuadratureNotConvergedError: if agreement is not reached by
            ``_QUADRATURE_MAX_NODES``.
    """

    def level(count: int) -> np.ndarray:
        theta = 2.0 * np.pi * np.arange(count) / count
        rot = np.exp(1j * theta)
        z = contour.center + contour.radius * rot
        values = np.asarray(integrand(z))
        weights = (contour.radius * rot).reshape((count,) + (1,) * (values.ndim - 1))
        return (values * weights).mean(axis=0)

    nodes = _QUADRATURE_NODES
    previous = level(nodes)
    while nodes < _QUADRATURE_MAX_NODES:
        nodes *= 2
        current = level(nodes)
        if np.linalg.norm(current - previous) < _QUADRATURE_TOL:
            return current
        previous = current
    raise QuadratureNotConvergedError(
        f"contour quadrature still changing at {_QUADRATURE_MAX_NODES} nodes "
        f"(tol {_QUADRATURE_TOL:g})"
    )


def _check_contour_clearance(eigenvalues: np.ndarray, contour: Contour) -> None:
    clearance = np.abs(np.abs(eigenvalues - contour.center) - contour.radius)
    nearest = float(np.min(clearance)) if clearance.size else np.inf
    if nearest < 1e-6 * contour.radius:
        raise ContourTouchesSpectrumError(
            f"eigenvalue within {nearest:.3e} of the contour (radius {contour.radius:g})"
        )


def _resolvent_factory(m: np.ndarray):
    n = m.shape[0]
    eye = np.eye(n, dtype=np.result_type(m.dtype, np.complex128))

    def resolvents(z: np.ndarray) -> np.ndarray:
        # (z I - M)^{-1} for each contour node, one batched solve.
        shifted = z[:, None, None] * eye - m
        try:
            return np.linalg.solve(shifted, np.broadcast_to(eye, shifted.shape))
        except np.linalg.LinAlgError as exc:
            raise ContourTouchesSpectrumError(
                f"resolvent solve failed on the contour: {exc}"
            ) from exc

    return resolvents


def contour_projection(
    m: np.ndarray,
    contour: Contour,
    *,
    eigenvalues: np.ndarray | None = None,
) -> np.ndarray:
    """Spectral projection onto the eigenvalues of ``m`` inside ``contour``.

    Computed as ``(1 / 2 pi i) * integral of (z I - m)^{-1} dz``.  The result
    is complex; callers with real spectral groups may take the real part.

    Raises:
        ContourTouchesSpectrumError: if an eigenvalue lies within
            ``1e-6 * radius`` of the contour circle.
        QuadratureNotConvergedError: if the adaptive trapezoid rule stalls.
    """
    m = np.asarray(m)
    if eigenvalues is None:
        eigenvalues = np.linalg.eigvals(m)
    _check_contour_clearance(np.asarray(eigenvalues), contour)
    return cauchy_integral(_resolvent_factory(m), contour)


def reduced_resolvent(
    m: np.ndarray,
    lam: complex,
    contour: Contour,
    *,
    eigenvalues: np.ndarray | None = None,
) -> np.ndarray:
    """Reduced resolvent of ``m`` at the eigenvalue ``lam``.

    This is the inverse of ``m - lam`` restricted to the complementary
    invariant subspace (and zero on the eigenspace of ``lam``), extracted as
    ``-(1 / 2 pi i) * integral of (z I - m)^{-1} / (z - lam) dz`` over a
    contour enclosing ``lam`` and no other eigenvalue group.
    """
    m = np.asarray(m)
    if eigenvalues is None:
        eigenvalues = np.linalg.eigvals(m)
    _check_contour_clearance(np.asarray(eigenvalues), contour)
    resolvents = _resolvent_factory(m)

    def integrand(z: np.ndarray) -> np.ndarray:
        return resolvents(z) / (z - lam)[:, None, None]

    return -cauchy_integral(integrand, contour)


def separating_contour(eigenvalues: np.ndarray, inside: np.ndarray) -> Contour:
    """Circle around the eigenvalue subset ``inside`` splitting the gap.

    ``inside`` is an index array (or boolean mask) into ``eigenvalues``.  The
    center is the subset mean and the radius bisects the annulus between the
    subset and the nearest excluded eigenvalue; for a singleton subset this
    is half the spectral gap.  With nothing excluded the radius is one unit
    beyond the subset spread.

    Raises:
        ValueError: if the subset is empty or the two groups interleave so
            that no separating circle exists around the mean.
    """
    eigenvalues = np.asarray(eigenvalues)
    mask = np.zeros(eigenvalues.shape[0], dtype=bool)
    mask[inside] = True
    if not mask.any():
        raise ValueError("cannot build a contour around an empty eigenvalue subset")
    center = complex(np.mean(eigenvalues[mask]))
    spread = float(np.max(np.abs(eigenvalues[mask] - center)))
    if mask.all():
        return Contour(center=center, radius=spread + 1.0)
    nearest = float(np.min(np.abs(eigenvalues[~mask] - center)))
    if not nearest > spread:
        raise ValueError(
            f"eigenvalue groups are not separated (spread {spread:g} vs gap {nearest:g})"
        )
    return Contour(center=center, radius=0.5 * (spread + nearest))


@dataclass(frozen=True)
class SpectralGroup:
    """One isolated eigenvalue group of a matrix ``m`` (Kato, ch. II).

    ``projection`` is the Riesz projection onto the group's generalized
    eigenspace, integrated on ``contour``, which encloses the group and no
    other eigenvalue; ``nilpotent`` is ``(m - value) @ projection``, zero
    exactly when the group is semisimple.
    """

    value: complex
    multiplicity: int
    contour: Contour
    projection: np.ndarray
    nilpotent: np.ndarray


def spectral_group(
    m: np.ndarray, eigsys: EigenSystem, cluster: EigenCluster
) -> SpectralGroup:
    """The eigenvalue group of ``m`` formed by ``cluster`` of ``eigsys``.

    Raises:
        ValueError: if no circle around the cluster mean separates it from
            the rest of the spectrum.
    """
    m = np.asarray(m)
    contour = separating_contour(eigsys.values, np.array(cluster.indices))
    projection = contour_projection(m, contour, eigenvalues=eigsys.values)
    return SpectralGroup(
        value=cluster.value,
        multiplicity=cluster.multiplicity,
        contour=contour,
        projection=projection,
        nilpotent=(m - cluster.value * np.eye(m.shape[0])) @ projection,
    )
