"""Ready-made partially dissipative systems used throughout the tests.

Each builder returns a fully wired :class:`hyprelax.model.HyperbolicSystem`
including, where available in closed form, the sign-flipping symmetry
``S``.  Condition R finds its diagonalizer from ``A(w)``'s eigenvectors, so
no builder carries one.
"""

from __future__ import annotations

import numpy as np

from .model import HyperbolicSystem

__all__ = [
    "goldstein_kac_1d",
    "goldstein_kac_3d",
    "damped_euler_2d",
    "damped_euler_3d",
]


def goldstein_kac_1d(rate: float = 0.5, speed: float = 1.0) -> HyperbolicSystem:
    """Two-speed kinetic model on the line.

    Particles move at ``+-speed`` and flip direction at the given rate; the
    mass density satisfies a damped wave equation and diffuses in the large.
    Swapping the two speeds gives the sign symmetry.
    """
    if not rate > 0 or not speed > 0:
        raise ValueError("rate and speed must be positive")
    advection = np.diag([-speed, speed]).astype(float)
    relaxation = rate * np.array([[1.0, -1.0], [-1.0, 1.0]])
    symmetry = np.array([[0.0, 1.0], [1.0, 0.0]])
    return HyperbolicSystem(
        advections=(advection,),
        relaxation=relaxation,
        symmetry=symmetry,
        name="goldstein-kac-1d",
    )


def goldstein_kac_3d(
    a: float,
    b: float,
    c: float,
    velocities: np.ndarray | None = None,
) -> HyperbolicSystem:
    """Three-velocity kinetic exchange model in three dimensions.

    ``velocities`` is a ``(3, 3)`` array whose rows are the particle
    velocities (defaults to the coordinate directions); ``a``, ``b``, ``c``
    are the pairwise exchange rates between velocities (2,3), (1,3), (1,2).
    """
    if min(a, b, c) <= 0:
        raise ValueError("exchange rates must be positive")
    if velocities is None:
        velocities = np.eye(3)
    velocities = np.asarray(velocities, dtype=float)
    if velocities.shape != (3, 3):
        raise ValueError(f"expected three 3-vectors, got shape {velocities.shape}")
    advections = tuple(np.diag(velocities[:, axis]) for axis in range(3))
    relaxation = np.array(
        [
            [b + c, -c, -b],
            [-c, a + c, -a],
            [-b, -a, a + b],
        ]
    )
    return HyperbolicSystem(
        advections=advections,
        relaxation=relaxation,
        name="goldstein-kac-3d",
    )


def damped_euler_2d() -> HyperbolicSystem:
    """Linearized isothermal flow in the plane with velocity damping.

    Components are (density, velocity_1, velocity_2); the velocity relaxes
    at unit rate while the density is conserved, and the large-time density
    obeys a pure heat equation.  The acoustic symbol has the wave speeds
    (-1, 0, 1); flipping the velocity sign gives the symmetry.
    """
    a1 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    a2 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    relaxation = np.diag([0.0, 1.0, 1.0])
    symmetry = np.diag([-1.0, 1.0, 1.0])
    return HyperbolicSystem(
        advections=(a1, a2),
        relaxation=relaxation,
        symmetry=symmetry,
        name="damped-euler-2d",
    )


def damped_euler_3d() -> HyperbolicSystem:
    """Linearized isothermal flow in space with momentum damping, the system
    of ``configs/damped_euler_3d.json``.

    Components are (density, m_1, m_2, m_3); ``A_j`` couples the density and
    ``m_j``.  ``A(w)`` has the eigenvalues -1, 0, 0, 1 at every unit ``w``.
    Flipping the momentum sign gives the symmetry.
    """
    e = np.eye(4)
    return HyperbolicSystem(
        advections=tuple(np.outer(e[0], e[j]) + np.outer(e[j], e[0]) for j in (1, 2, 3)),
        relaxation=np.diag([0.0, 1.0, 1.0, 1.0]),
        symmetry=np.diag([-1.0, 1.0, 1.0, 1.0]),
        name="damped-euler-3d",
    )
